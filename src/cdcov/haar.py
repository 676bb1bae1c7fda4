"""Monte-Carlo oracle for the CD estimator over Haar-random compressions.

The oracle validates the closed-form shrinkage coefficients by explicit
averaging of decompressed covariances phi* (phi S phi*) phi over Haar
k x p unitaries, without using those coefficients anywhere in the sampler.

Two exact variance-reduction devices keep the Monte-Carlo error small
enough for tight acceptance gates while preserving unbiasedness:

* subset averaging: the k rows of phi are taken from a Haar p x p unitary
  U, and the average over all C(p, k) row subsets of U has a closed
  combinatorial form (subset-membership probabilities only), so each draw
  of U contributes that exact average instead of a single subset;
* conjugate pairing: conj(U) is Haar whenever U is, and pairing each draw
  with its conjugate makes every contribution exactly real. In IEEE
  arithmetic the imaginary part of g + conj(g) is b + (-b) = +0, so the
  average's imaginary residue (the report's ``max_imag``) is exactly zero,
  not an O(1/sqrt(M)) fluctuation.

Because the per-draw statistic G = U^H diag(U S U^H) U does not depend on
k, :func:`haar_mc_oracle_grid` amortizes one set of draws over many test
matrices and compressed dimensions; :func:`haar_mc_oracle` is its view
for one matrix and one k, and a report does not depend on which other
matrices and ks share the draws.

Memory and threads: a chunk is as many p x p draws as fit in
``_CHUNK_BYTES`` (512 KiB), and at least one. ``_WORKERS`` (two) threads
each draw, unitarize and sum one chunk at a time, and the calling thread
adds the chunks' sums in chunk order, so at most two chunks are in flight:
their draws, QR temporaries and products, a few chunk arrays of
max(512 KiB, 16 p^2) bytes each, so O(1 MiB + p^2) bytes whatever p and
the sample count. The results depend only on p, the sample count and the
seed, not on the thread count or the scheduling.
"""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError
from .estimator import cd_estimate
from .matrices import RngSeed, SymMat, _check_count, frob_norm

__all__ = [
    "HaarSampleReport",
    "haar_mc_oracle",
    "haar_mc_oracle_grid",
]

# Bytes of one chunk's draws. A chunk's draw count depends only on p, so the
# stream-per-chunk partition (and hence the result) does not depend on
# scheduling or on how many matrices share the draws.
_CHUNK_BYTES = 1 << 19

# Threads that sum chunks, and so the most chunks in flight at once.
_WORKERS = 2

# |R_jj| below this (relative to the draw's scale) marks a rank-deficient
# Ginibre draw; such draws are resampled and counted.
_RANK_TOL = 1e-12


def _chunk(p: int) -> int:
    """Draws per chunk: as many p x p complex matrices as fit in ``_CHUNK_BYTES``, at least one."""
    return max(1, _CHUNK_BYTES // (16 * p * p))


@dataclass(frozen=True)
class HaarSampleReport:
    """Comparison of the Monte-Carlo Haar average against the closed form."""

    samples: int
    mc_estimate: SymMat
    closed_form: SymMat
    rel_frob_gap: float
    max_imag: float
    resampled: int

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "rel_frob_gap": self.rel_frob_gap,
            "max_imag": self.max_imag,
            "resampled": self.resampled,
            "mc_estimate": self.mc_estimate.values.tolist(),
            "closed_form": self.closed_form.values.tolist(),
        }


def _ginibre(rng: np.random.Generator, count: int, p: int) -> np.ndarray:
    """``count`` standard complex Ginibre p x p draws; real and imaginary parts alternate in stream order."""
    z = rng.standard_normal((count, p, 2 * p))
    z /= np.sqrt(2.0)
    return z.view(np.complex128)


def _unitarize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase-corrected Q of each draw in ``z``, and the mask of rank-deficient draws.

    Columns of q are scaled by the phases of diag(r), which makes the
    triangular factor's diagonal real positive and the result exactly Haar.
    A masked draw's slot holds no unitary; the caller redraws it.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    del r
    mag = np.abs(d)
    bad = np.min(mag, axis=-1) <= _RANK_TOL * np.max(mag, axis=-1)
    q *= np.divide(d, mag, out=np.ones_like(d), where=mag > 0.0)[:, None, :]
    return q, bad


def _haar_batch(rng: np.random.Generator, count: int, p: int) -> tuple[np.ndarray, int]:
    """``count`` Haar p x p unitaries, and how many rank-deficient draws were redrawn.

    That count is practically always zero; each round redraws them all in one call.
    """
    u, bad = _unitarize(_ginibre(rng, count, p))
    idx = np.flatnonzero(bad)
    resampled = 0
    for _ in range(100):
        if idx.size == 0:
            return u, resampled
        resampled += idx.size
        u[idx], still_bad = _unitarize(_ginibre(rng, idx.size, p))
        idx = idx[still_bad]
    raise NumericalError("persistent rank-deficient draws during Haar sampling")


def _chunk_sums(
    complex_mats: Sequence[np.ndarray], rng: np.random.Generator, count: int, p: int
) -> tuple[list[np.ndarray], int]:
    """One chunk's conjugate-paired sums for each matrix, and its redraw count.

    Per draw, b = diag(U S U^H) and W = U diag(b); the chunk's sum is the
    sum over its draws of the p x p products conj(U)^T W.
    """
    u, resampled = _haar_batch(rng, count, p)
    uc = u.conj()
    sums = []
    for sc in complex_mats:
        b = ((u @ sc) * uc).sum(axis=2).real
        g = np.matmul(uc.transpose(0, 2, 1), u * b[:, :, None]).sum(axis=0)
        sums.append(0.5 * (g + g.conj()))
    return sums, resampled


def _g_sums(
    matrices: Sequence[np.ndarray], p: int, samples: int, seed: RngSeed
) -> tuple[list[np.ndarray], int]:
    """Conjugate-paired sums of U^H diag(U S U^H) U over ``samples`` draws.

    Chunk ``c`` holds ``_chunk(p)`` draws (fewer in the last) from the
    stream ``seed.generator(c)``. ``_WORKERS`` threads sum the chunks, at
    most that many in flight, and this thread adds their sums in chunk
    order, so the result does not depend on the scheduling.
    """
    chunk = _chunk(p)
    sums = [np.zeros((p, p), dtype=np.complex128) for _ in matrices]
    complex_mats = [s.astype(np.complex128) for s in matrices]
    resampled = 0
    in_flight: deque = deque()

    def add_oldest() -> int:
        parts, bad = in_flight.popleft().result()
        for total, part in zip(sums, parts):
            total += part
        return bad

    with ThreadPoolExecutor(_WORKERS) as pool:
        for chunk_index, start in enumerate(range(0, samples, chunk)):
            if len(in_flight) == _WORKERS:
                resampled += add_oldest()
            count = min(chunk, samples - start)
            rng = seed.generator(chunk_index)
            in_flight.append(pool.submit(_chunk_sums, complex_mats, rng, count, p))
        while in_flight:
            resampled += add_oldest()
    return sums, resampled


def _report(
    s: SymMat, k: int, closed: SymMat, g_mean: np.ndarray, samples: int, resampled: int
) -> HaarSampleReport:
    p = s.dim
    q_pair = k * (k - 1) / (p * (p - 1))
    mean = q_pair * s.values + (k / p - q_pair) * g_mean
    max_imag = float(np.max(np.abs(mean.imag)))
    mc = 0.5 * (mean.real + mean.real.T)
    mc_sym = SymMat(mc)
    num = float(np.linalg.norm(mc - closed.values))
    den = frob_norm(closed)
    if den == 0.0:
        gap = 0.0 if num == 0.0 else float("inf")
    else:
        gap = num / den
    return HaarSampleReport(
        samples=samples,
        mc_estimate=mc_sym,
        closed_form=closed,
        rel_frob_gap=gap,
        max_imag=max_imag,
        resampled=resampled,
    )


def haar_mc_oracle(s: SymMat, k: int, samples: int, seed: RngSeed) -> HaarSampleReport:
    """Average phi*(phi S phi*) phi over ``samples`` independent Haar draws.

    Each draw is a full Haar p x p unitary; the contribution of a draw is
    the exact average of phi*(phi S phi*)phi over all k-row subsets phi of
    it, paired with the conjugate draw (see module docstring). In closed
    combinatorial form, with q = k(k-1)/(p(p-1)) the probability that two
    distinct rows both land in a uniform k-subset:

        subset mean = q * S + (k/p - q) * U^H diag(U S U^H) U.
    """
    return haar_mc_oracle_grid([s], [k], samples, seed)[0][0]


def haar_mc_oracle_grid(
    matrices: Sequence[SymMat], ks: Sequence[int], samples: int, seed: RngSeed
) -> list[list[HaarSampleReport]]:
    """Oracle reports for every (matrix, k) pair, sharing one set of draws.

    Returns reports indexed [matrix][k]. Equivalent to calling
    :func:`haar_mc_oracle` for each pair with the same seed; the unitary
    draws (the dominant cost) are generated once. Every closed form is
    built, and so every k checked by ``cd_coeff_grid``, before any draw.
    """
    if not matrices or not len(ks):
        raise InvalidInputError("need at least one matrix and one k")
    p = matrices[0].dim
    for s in matrices:
        if s.dim != p:
            raise InvalidInputError("all matrices must share the same dimension")
    _check_count("sample count", samples)
    if samples < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {samples}")
    closed = [[cd_estimate(s, k) for k in ks] for s in matrices]
    sums, resampled = _g_sums([s.values for s in matrices], p, samples, seed)
    return [
        [_report(s, int(k), c, g_sum / samples, samples, resampled) for k, c in zip(ks, row)]
        for s, row, g_sum in zip(matrices, closed, sums)
    ]
