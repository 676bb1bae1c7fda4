"""The one-pass cross-validation of the thresholding delta against the
per-delta loop in ``_cv_oracle``, and its per-entry counts against the
fit's kept sets, including exact ties. Both evaluate one rule: an entry
is kept at delta when its ratio |s| / base exceeds delta. The counts come
from one comparison sweep over the grid; they, and the fold losses built
on them, equal a left-sided sorted search's bit for bit."""

import numpy as np
import pytest

from cdcov import (
    AtConfig,
    DataMatrix,
    RngSeed,
    center_columns,
    cov_pair,
    cross_validate_delta,
    hard_threshold_estimate,
)
from cdcov.baselines import _apply_hard, _fold_losses, _kept_counts, _ratios, _threshold_base
from _cv_oracle import cross_validate_delta_direct, fold_losses_direct, fold_losses_sorted, fold_parts, upper_mask

GRIDS = {"default": AtConfig().delta_grid, "with_zero": (0.0, 0.2, 0.45, 0.9, 1.7, 3.0)}


def kept_counts(a, b, grid):
    """Each entry's kept-delta count as ``_fold_losses`` finds it: one comparison sweep over the grid."""
    return _kept_counts(_ratios(a, b), grid)


def kept_counts_direct(a, b, grid):
    ratio = _ratios(a, b)
    return sum((ratio > d).astype(np.int64) for d in grid)


def product_counts(a, b, grid):
    """The same rule in product form, |s| > fl(delta * base), which rounds differently."""
    return sum((a > d * b).astype(np.int64) for d in grid)


def assert_matches_oracle(x, cfg, seed):
    grid = np.asarray(cfg.delta_grid)
    upper = upper_mask(x.p)
    for s, v, base in fold_parts(x, cfg, seed):
        got = _fold_losses(s, v, base, grid, upper)
        assert got.tobytes() == fold_losses_sorted(s, v, base, grid, upper).tobytes()
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


def unit_base_ties():
    grid = np.asarray(GRIDS["with_zero"])
    a = np.concatenate([grid, grid, [0.0, 0.1, 5.0]])
    return a, np.ones_like(a), grid


def product_neighbours():
    # a = fl(d * b) and its two neighbours: fl(a / b) lands on either side of d
    rng = np.random.default_rng(7)
    grid = np.asarray(AtConfig().delta_grid)
    d = rng.choice(grid, 20000)
    b = rng.uniform(0.01, 3.0, d.size)
    on = d * b
    return np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, 0.0)]), np.tile(b, 3), grid


def subnormal_products():
    # every grid value times a subnormal b rounds to the same fl(d * b)
    rng = np.random.default_rng(8)
    grid = np.array([0.75])
    for _ in range(7):
        grid = np.append(grid, np.nextafter(grid[-1], np.inf))
    b = np.concatenate([rng.uniform(1e-320, 1e-316, 1000), rng.uniform(0.01, 3.0, 1000)])
    on = rng.choice(grid, b.size) * b
    return np.concatenate([on, np.nextafter(on, np.inf), np.nextafter(on, 0.0)]), np.tile(b, 3), grid


def zero_bases():
    return np.array([0.0, 1e-300, 2.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0]), np.asarray(GRIDS["with_zero"])


def test_ratios_equal_to_grid_values_with_unit_base():
    a, b, grid = unit_base_ties()
    counts = kept_counts(a, b, grid)
    np.testing.assert_array_equal(counts, kept_counts_direct(a, b, grid))
    # |s| == delta * base is dropped at that delta: the predicate is strict
    np.testing.assert_array_equal(counts[: grid.size], np.arange(grid.size))


def test_product_and_quotient_rounding_disagree():
    # the two forms of the rule part within an ulp of fl(d * b); the sorted
    # count follows the quotient, as the fit does
    a, b, grid = product_neighbours()
    counts = kept_counts(a, b, grid)
    assert np.any(counts != product_counts(a, b, grid))
    np.testing.assert_array_equal(counts, kept_counts_direct(a, b, grid))


def test_grid_of_adjacent_floats_with_subnormal_products():
    # with a subnormal base the product form misplaces an entry by several
    # grid points, not one; the quotient keeps the grid's resolution
    a, b, grid = subnormal_products()
    counts = kept_counts(a, b, grid)
    assert np.max(np.abs(counts - product_counts(a, b, grid))) > 1
    np.testing.assert_array_equal(counts, kept_counts_direct(a, b, grid))


def test_zero_base():
    a, b, grid = zero_bases()
    # x / 0 is kept at every delta, 0 / 0 and 0 / 1 at none
    np.testing.assert_array_equal(kept_counts(a, b, grid), [0, grid.size, grid.size, 0])
    np.testing.assert_array_equal(kept_counts(a, b, grid), kept_counts_direct(a, b, grid))


def symmetric_pair(a, b, rng):
    """(s, base): a with random signs and b on the strict upper triangle, mirrored."""
    p = int(np.ceil((1.0 + np.sqrt(1.0 + 8.0 * a.size)) / 2.0))
    upper = upper_mask(p)
    s, base = np.zeros((p, p)), np.zeros((p, p))
    s[upper] = np.pad(a * rng.choice([-1.0, 1.0], a.size), (0, upper.sum() - a.size))
    base[upper] = np.pad(b, (0, upper.sum() - b.size))
    np.fill_diagonal(s, 1.0)
    return s + np.triu(s, 1).T, base + base.T


CASES = {
    "ties": unit_base_ties,
    "neighbours": product_neighbours,
    "subnormal": subnormal_products,
    "zero_base": zero_bases,
}


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_fit_keeps_exactly_the_counted_entries(case):
    a, b, grid = case()
    s, base = symmetric_pair(a, b, np.random.default_rng(11))
    upper = upper_mask(s.shape[0])
    counts = kept_counts(np.abs(s[upper]), base[upper], grid)
    np.testing.assert_array_equal(counts, np.searchsorted(grid, _ratios(np.abs(s[upper]), base[upper])))
    for i, d in enumerate(grid):
        est = _apply_hard(s, base[upper], d, upper)
        np.testing.assert_array_equal(est[upper] != 0.0, counts > i)
        # the same bytes as thresholding the whole matrix against the whole base
        dense = np.where(_ratios(np.abs(s), base) > d, s, 0.0)
        np.fill_diagonal(dense, np.diag(s))
        assert est.tobytes() == dense.tobytes()
    # against v = 0 a flipped tie moves the loss by 2 s^2, far above rounding
    # (a subnormal s moves it by nothing: the kept sets above cover those)
    v = np.zeros_like(s)
    got = _fold_losses(s, v, base[upper], grid, upper)
    assert got.tobytes() == fold_losses_sorted(s, v, base[upper], grid, upper).tobytes()
    np.testing.assert_allclose(got, fold_losses_direct(s, v, base[upper], grid), rtol=1e-12, atol=0.0)


def test_hard_threshold_estimate_keeps_exactly_the_counted_entries():
    # a constant variable gives its row 0 / 0
    rng = np.random.default_rng(12)
    values = rng.standard_normal((10, 30))
    values[3] = 2.5
    pair = cov_pair(DataMatrix.from_array(values))
    s = pair.mle.values
    upper = upper_mask(s.shape[0])
    grid = np.asarray(AtConfig().delta_grid)
    # the fit centers pair.x a second time; a base built without that may differ in the last bit
    x = pair.x.values
    counts = kept_counts(np.abs(s[upper]), _threshold_base(x - x.mean(axis=1, keepdims=True), s, upper), grid)
    assert np.unique(counts).size > 2 and not counts[(np.argwhere(upper) == 3).any(axis=1)].any()
    for i, d in enumerate(grid):
        np.testing.assert_array_equal(hard_threshold_estimate(pair, d).values[upper] != 0.0, counts > i)


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


@pytest.mark.parametrize("size", [1, 2, 50, 255, 256, 300])
@pytest.mark.parametrize("start", [0.0, 0.05], ids=["from_zero", "positive"])
def test_sweep_counts_equal_sorted_search(size, start):
    # 255 deltas fit a uint8 count and 256 need a uint16
    rng = np.random.default_rng(size)
    grid = np.concatenate([[start], np.geomspace(0.05, 5.0, size)[1:]]) if size > 1 else np.array([start])
    assert np.all(np.diff(grid) > 0.0)
    ratio = np.concatenate([
        [0.0, np.inf, 5e-324, 2.2e-308, 1e-310],
        grid,
        np.nextafter(grid, np.inf),
        np.nextafter(grid, 0.0),
        rng.uniform(0.0, 6.0, 1000),
    ])
    counts = _kept_counts(ratio, grid)
    assert counts.dtype == (np.uint8 if size < 256 else np.uint16)
    np.testing.assert_array_equal(counts, np.searchsorted(grid, ratio))
    assert counts[1] == size and counts[0] == 0
