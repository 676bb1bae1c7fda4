"""Serial whole-chunk Haar sums, written apart from ``cdcov.haar._g_sums``.

It runs on one thread, one chunk after another. It sizes the chunks and
seeds one stream per chunk itself, draws each chunk's Ginibre matrices in
one call, as a float64 array of interleaved real and imaginary parts read
as complex, and after a redraw runs QR again over the whole chunk, where
the package runs it over the redrawn draws only. Bit-for-bit agreement
between the two checks the package's chunk partition, its draw streams,
its resampling order, the operands of its per-draw products and its
in-order addition of the chunks' sums, which its threads compute out of
order.
"""

from __future__ import annotations

import numpy as np

import cdcov.haar as haar
from cdcov import NumericalError


def _ginibre(rng: np.random.Generator, count: int, p: int) -> np.ndarray:
    return (rng.standard_normal((count, p, 2 * p)) / np.sqrt(2.0)).view(np.complex128)


def haar_batch(rng: np.random.Generator, count: int, p: int) -> tuple[np.ndarray, int]:
    """Phase-corrected QR of a whole chunk, redrawing rank-deficient draws."""
    z = _ginibre(rng, count, p)
    resampled = 0
    for _ in range(100):
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        mag = np.abs(d)
        bad = np.min(mag, axis=-1) <= haar._RANK_TOL * np.max(mag, axis=-1)
        if not np.any(bad):
            return q * (d / mag)[:, None, :], resampled
        resampled += int(np.count_nonzero(bad))
        z[bad] = _ginibre(rng, int(np.count_nonzero(bad)), p)
    raise NumericalError("persistent rank-deficient draws during Haar sampling")


def g_sums(matrices, p: int, samples: int, seed) -> tuple[list[np.ndarray], int]:
    """Conjugate-paired sums of U^H diag(U S U^H) U, one whole chunk at a time."""
    chunk = max(1, haar._CHUNK_BYTES // (16 * p * p))
    sums = [np.zeros((p, p), dtype=np.complex128) for _ in matrices]
    complex_mats = [s.astype(np.complex128) for s in matrices]
    resampled = 0
    done = 0
    chunk_index = 0
    while done < samples:
        count = min(chunk, samples - done)
        u, bad = haar_batch(seed.generator(chunk_index), count, p)
        resampled += bad
        uh_t = u.conj().swapaxes(1, 2)
        for i, sc in enumerate(complex_mats):
            c = u @ sc
            b = (c * u.conj()).sum(axis=2).real
            w = u * b[:, :, None]
            g = (uh_t @ w).sum(axis=0)
            sums[i] += 0.5 * (g + g.conj())
        done += count
        chunk_index += 1
    return sums, resampled
