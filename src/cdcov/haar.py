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
  with its conjugate makes every contribution exactly real, so the
  imaginary residue of the average is pure floating-point noise rather
  than an O(1/sqrt(M)) fluctuation.

Because the per-draw statistic G = U^H diag(U S U^H) U does not depend on
k, :func:`haar_mc_oracle_grid` amortizes one set of draws over many test
matrices and compressed dimensions; its reports are bitwise identical to
single :func:`haar_mc_oracle` calls sharing the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError
from .estimator import cd_estimate
from .matrices import RngSeed, SymMat, frob_norm

__all__ = [
    "HaarSampleReport",
    "haar_mc_oracle",
    "haar_mc_oracle_grid",
]

# Fixed chunk size so the stream-per-chunk partition (and hence the result)
# does not depend on scheduling or on how many matrices share the draws.
_CHUNK = 2048

# |R_jj| below this (relative to the draw's scale) marks a rank-deficient
# Ginibre draw; such draws are resampled and counted.
_RANK_TOL = 1e-12


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
    z = rng.standard_normal((count, p, p)) + 1j * rng.standard_normal((count, p, p))
    return z / np.sqrt(2.0)


def _haar_batch(rng: np.random.Generator, count: int, p: int) -> tuple[np.ndarray, int]:
    """Batch of Haar p x p unitaries via QR with diagonal phase correction.

    Returns the batch and the number of rank-deficient draws that had to be
    resampled (practically always zero).
    """
    z = _ginibre(rng, count, p)
    resampled = 0
    for _ in range(100):
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        mag = np.abs(d)
        bad = np.min(mag, axis=-1) <= _RANK_TOL * np.max(mag, axis=-1)
        if not np.any(bad):
            # Columns of q are scaled by the phases of diag(r), which makes
            # the triangular factor's diagonal real positive and the result
            # exactly Haar.
            return q * (d / mag)[:, None, :], resampled
        resampled += int(np.count_nonzero(bad))
        z[bad] = _ginibre(rng, int(np.count_nonzero(bad)), p)
    raise NumericalError("persistent rank-deficient draws during Haar sampling")


def _g_sums(
    matrices: Sequence[np.ndarray], p: int, samples: int, seed: RngSeed
) -> tuple[list[np.ndarray], int]:
    """Conjugate-paired sums of U^H diag(U S U^H) U over ``samples`` draws."""
    sums = [np.zeros((p, p), dtype=np.complex128) for _ in matrices]
    complex_mats = [s.astype(np.complex128) for s in matrices]
    resampled = 0
    done = 0
    chunk_index = 0
    while done < samples:
        count = min(_CHUNK, samples - done)
        u, bad = _haar_batch(seed.generator(chunk_index), count, p)
        resampled += bad
        uc_flat = u.conj().reshape(count * p, p)
        for i, sc in enumerate(complex_mats):
            c = u @ sc
            b = (c * u.conj()).sum(axis=2).real
            w = (u * b[:, :, None]).reshape(count * p, p)
            g = uc_flat.T @ w
            sums[i] += 0.5 * (g + g.conj())
        done += count
        chunk_index += 1
    return sums, resampled


def _report(s: SymMat, k: int, g_mean: np.ndarray, samples: int, resampled: int) -> HaarSampleReport:
    p = s.dim
    q_pair = k * (k - 1) / (p * (p - 1))
    mean = q_pair * s.values + (k / p - q_pair) * g_mean
    max_imag = float(np.max(np.abs(mean.imag)))
    mc = 0.5 * (mean.real + mean.real.T)
    mc_sym = SymMat(mc)
    if max_imag > 1e-6 * max(frob_norm(mc_sym), np.finfo(float).tiny):
        raise NumericalError(f"imaginary residue {max_imag:g} exceeds tolerance", best=mc_sym)
    closed = cd_estimate(s, k)
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


def _check_dims(p: int, k: int, samples: int) -> None:
    if p < 2:
        raise InvalidInputError(f"ambient dimension must be >= 2, got p={p}")
    if not 1 <= k <= p:
        raise InvalidInputError(f"compressed dimension must satisfy 1 <= k <= p, got k={k}")
    if samples < 1:
        raise InvalidInputError(f"sample count must be >= 1, got {samples}")


def haar_mc_oracle(s: SymMat, k: int, samples: int, seed: RngSeed) -> HaarSampleReport:
    """Average phi*(phi S phi*) phi over ``samples`` independent Haar draws.

    Each draw is a full Haar p x p unitary; the contribution of a draw is
    the exact average of phi*(phi S phi*)phi over all k-row subsets phi of
    it, paired with the conjugate draw (see module docstring). In closed
    combinatorial form, with q = k(k-1)/(p(p-1)) the probability that two
    distinct rows both land in a uniform k-subset:

        subset mean = q * S + (k/p - q) * U^H diag(U S U^H) U.
    """
    _check_dims(s.dim, k, samples)
    sums, resampled = _g_sums([s.values], s.dim, samples, seed)
    return _report(s, k, sums[0] / samples, samples, resampled)


def haar_mc_oracle_grid(
    matrices: Sequence[SymMat], ks: Sequence[int], samples: int, seed: RngSeed
) -> list[list[HaarSampleReport]]:
    """Oracle reports for every (matrix, k) pair, sharing one set of draws.

    Returns reports indexed [matrix][k]. Equivalent to calling
    :func:`haar_mc_oracle` for each pair with the same seed; the unitary
    draws (the dominant cost) are generated once.
    """
    if not matrices or not len(ks):
        raise InvalidInputError("need at least one matrix and one k")
    p = matrices[0].dim
    for s in matrices:
        if s.dim != p:
            raise InvalidInputError("all matrices must share the same dimension")
    for k in ks:
        _check_dims(p, int(k), samples)
    sums, resampled = _g_sums([s.values for s in matrices], p, samples, seed)
    return [
        [_report(s, int(k), g_sum / samples, samples, resampled) for k in ks]
        for s, g_sum in zip(matrices, sums)
    ]

