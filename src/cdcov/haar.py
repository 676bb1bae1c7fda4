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

Memory: the sampler holds one chunk at a time (a chunk is as many p x p
draws as fit in ``_CHUNK_BYTES``, and at least one): its draws, the QR
temporaries and the products, about 6 chunk arrays of max(1 MiB, 16 p^2)
bytes each by tracemalloc, so O(1 MiB + p^2) bytes whatever p and the
sample count. The results depend only on p, the sample count and the
seed.
"""

from __future__ import annotations

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
_CHUNK_BYTES = 1 << 20

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
    return (rng.standard_normal((count, p, 2 * p)) / np.sqrt(2.0)).view(np.complex128)


def _unitarize(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The phase-corrected Q of each draw in ``z``, and the mask of rank-deficient draws.

    Columns of q are scaled by the phases of diag(r), which makes the
    triangular factor's diagonal real positive and the result exactly Haar.
    A masked draw's slot holds no unitary; the caller redraws it.
    """
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mag = np.abs(d)
    bad = np.min(mag, axis=-1) <= _RANK_TOL * np.max(mag, axis=-1)
    phase = np.divide(d, mag, out=np.ones_like(d), where=mag > 0.0)
    return q * phase[:, None, :], bad


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


def _g_sums(
    matrices: Sequence[np.ndarray], p: int, samples: int, seed: RngSeed
) -> tuple[list[np.ndarray], int]:
    """Conjugate-paired sums of U^H diag(U S U^H) U over ``samples`` draws.

    Chunk ``c`` holds ``_chunk(p)`` draws (fewer in the last) from the
    stream ``seed.generator(c)``. For each test matrix, one chunk-wide
    GEMM conj(U)^T W forms the chunk's sum, with W = U diag(b) and
    b = diag(U S U^H) per draw.
    """
    chunk = _chunk(p)
    sums = [np.zeros((p, p), dtype=np.complex128) for _ in matrices]
    complex_mats = [s.astype(np.complex128) for s in matrices]
    resampled = 0
    for chunk_index, start in enumerate(range(0, samples, chunk)):
        count = min(chunk, samples - start)
        u, bad = _haar_batch(seed.generator(chunk_index), count, p)
        resampled += bad
        uc = u.conj()
        uc_flat = uc.reshape(count * p, p)
        for i, sc in enumerate(complex_mats):
            b = ((u @ sc) * uc).sum(axis=2).real
            g = uc_flat.T @ (u * b[:, :, None]).reshape(count * p, p)
            sums[i] += 0.5 * (g + g.conj())
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
