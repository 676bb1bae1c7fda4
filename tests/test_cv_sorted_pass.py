"""The one-pass cross-validation of the thresholding delta against the
per-delta loop in ``_cv_oracle``, including exact ties."""

import numpy as np
import pytest

from cdcov import AtConfig, DataMatrix, RngSeed, center_columns, cross_validate_delta
from cdcov.baselines import _fold_losses, _kept_counts
from _cv_oracle import cross_validate_delta_direct, fold_losses_direct, fold_parts

GRIDS = {"default": AtConfig().delta_grid, "with_zero": (0.0, 0.2, 0.45, 0.9, 1.7, 3.0)}


def kept_counts_direct(a, b, grid):
    return sum((a > d * b).astype(np.int64) for d in grid)


def upper_mask(p):
    return np.triu(np.ones((p, p), dtype=bool), 1)


def assert_matches_oracle(x, cfg, seed):
    grid = np.asarray(cfg.delta_grid)
    for s, v, base in fold_parts(x, cfg, seed):
        got = _fold_losses(s, v, base, grid, upper_mask(x.p))
        np.testing.assert_allclose(got, fold_losses_direct(s, v, base, grid), rtol=1e-12, atol=0.0)
    assert cross_validate_delta(x, cfg, seed) == cross_validate_delta_direct(x, cfg, seed)


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
@pytest.mark.parametrize("p,n", [(15, 60), (40, 20)], ids=["p<n", "p>n"])
def test_fold_losses_and_choice_match_per_delta_loop(p, n, grid):
    rng = np.random.default_rng(41 + p)
    cfg = AtConfig(delta_grid=grid)
    for rep in range(4):
        mix = np.eye(p) + rng.uniform(0.0, 0.8) * rng.standard_normal((p, p)) / np.sqrt(p)
        x = center_columns(DataMatrix.from_array(mix @ rng.standard_normal((p, n))))
        assert_matches_oracle(x, cfg, RngSeed(500 + rep))


def test_ratios_equal_to_grid_values_with_unit_base():
    grid = np.asarray(GRIDS["with_zero"])
    a = np.concatenate([grid, grid, [0.0, 0.1, 5.0]])
    b = np.ones_like(a)
    counts = _kept_counts(a, b, grid)
    np.testing.assert_array_equal(counts, kept_counts_direct(a, b, grid))
    # |s| == delta * base is dropped at that delta: the predicate is strict
    np.testing.assert_array_equal(counts[: grid.size], np.arange(grid.size))


def test_product_and_quotient_rounding_disagree():
    # a = fl(d * b) is dropped at d, its successor kept; fl(a / b) lands on
    # either side of d, so both step directions are needed
    rng = np.random.default_rng(7)
    grid = np.asarray(AtConfig().delta_grid)
    d = rng.choice(grid, 20000)
    b = rng.uniform(0.01, 3.0, d.size)
    on = d * b
    a = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, 0.0)])
    b = np.tile(b, 3)
    np.testing.assert_array_equal(_kept_counts(a, b, grid), kept_counts_direct(a, b, grid))


def test_grid_of_adjacent_floats_with_subnormal_products():
    # every grid value times a subnormal b rounds to the same a, so the
    # quotient misplaces a by several grid points, not one
    rng = np.random.default_rng(8)
    grid = np.array([0.75])
    for _ in range(7):
        grid = np.append(grid, np.nextafter(grid[-1], np.inf))
    b = np.concatenate([rng.uniform(1e-320, 1e-316, 1000), rng.uniform(0.01, 3.0, 1000)])
    on = rng.choice(grid, b.size) * b
    a = np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, 0.0)])
    b = np.tile(b, 3)
    with np.errstate(divide="ignore"):
        assert np.max(np.abs(np.searchsorted(grid, a / b) - kept_counts_direct(a, b, grid))) > 1
    np.testing.assert_array_equal(_kept_counts(a, b, grid), kept_counts_direct(a, b, grid))


def test_zero_base():
    grid = np.asarray(GRIDS["with_zero"])
    a = np.array([0.0, 1e-300, 2.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    # x / 0 is kept at every delta, 0 / 0 and 0 / 1 at none
    np.testing.assert_array_equal(_kept_counts(a, b, grid), [0, grid.size, grid.size, 0])
    np.testing.assert_array_equal(_kept_counts(a, b, grid), kept_counts_direct(a, b, grid))


@pytest.mark.parametrize("grid", GRIDS.values(), ids=GRIDS.keys())
def test_constant_row(grid):
    # a constant variable centers to zero: its row of s and of the product
    # variances is zero, so every fold meets 0 / 0
    rng = np.random.default_rng(9)
    values = rng.standard_normal((10, 30))
    values[3] = 2.5
    x = center_columns(DataMatrix.from_array(values))
    assert_matches_oracle(x, AtConfig(delta_grid=grid), RngSeed(12))


def test_huge_delta():
    rng = np.random.default_rng(10)
    x = center_columns(DataMatrix.from_array(rng.standard_normal((12, 40))))
    assert cross_validate_delta(x, AtConfig(delta_grid=(1e9,)), RngSeed(3)) == 1e9
    assert_matches_oracle(x, AtConfig(delta_grid=(0.5, 1e9)), RngSeed(3))
