import threading
import tracemalloc

import numpy as np
import pytest
from _haar_oracle import g_sums as g_sums_whole_chunk

import cdcov.haar as haar_mod
from cdcov import (
    InvalidInputError,
    NumericalError,
    RngSeed,
    SymMat,
    haar_mc_oracle,
)
from cdcov.estimator import cd_coeff_grid
from cdcov.haar import _CHUNK_BYTES, _WORKERS, _chunk, _g_sums, _haar_batch, haar_mc_oracle_grid


def haar_unitary(p, seed):
    """Single Haar-distributed p x p complex unitary."""
    return _haar_batch(seed.generator(), 1, p)[0][0]


def shrinkage_basis_fit(estimate, s):
    """Least-squares (eta, gamma) of ``estimate`` on the {S, Tr(S) I} basis.

    Reads the trace coefficient straight out of a Monte-Carlo average,
    which discriminates between candidate gamma conventions without
    trusting either.
    """
    t = s.trace()
    gram = np.array([[np.sum(s.values**2), t * t], [t * t, t * t * s.dim]])
    rhs = np.array([np.sum(estimate.values * s.values), t * estimate.trace()])
    eta, gamma = np.linalg.solve(gram, rhs)
    return float(eta), float(gamma)


def random_psd(rng, p, ridge=0.5):
    a = rng.standard_normal((p, p))
    return SymMat.from_array(a @ a.T / p + ridge * np.eye(p))


def test_haar_unitary_is_unitary():
    u = haar_unitary(9, RngSeed(1))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(9), atol=1e-12)


def test_full_compression_reproduces_input():
    rng = np.random.default_rng(0)
    s = random_psd(rng, 6)
    report = haar_mc_oracle(s, 6, 50, RngSeed(2))
    assert report.rel_frob_gap < 1e-13
    np.testing.assert_allclose(report.mc_estimate.values, s.values, atol=1e-13)


def test_gap_small_at_moderate_compression():
    rng = np.random.default_rng(1)
    s = random_psd(rng, 20)
    report = haar_mc_oracle(s, 5, 20_000, RngSeed(3))
    assert report.rel_frob_gap <= 0.02
    assert report.max_imag == 0.0  # conjugate pairing cancels the imaginary part exactly
    assert report.samples == 20_000


def test_trace_coefficient_discriminates_gamma_conventions():
    # regress the MC average on {S, Tr(S) I}: the fitted trace coefficient
    # must match k(p-k)/(p(p^2-1)), not the rejected (p-k)/(p(p^2-1)) that
    # misses the factor k
    rng = np.random.default_rng(2)
    s = random_psd(rng, 3, ridge=1.0)
    report = haar_mc_oracle(s, 2, 50_000, RngSeed(4))
    _, gamma_hat = shrinkage_basis_fit(report.mc_estimate, s)
    p, k = 3, 2
    g_scaled = cd_coeff_grid(p, k)[1]
    g_unscaled = (p - k) / (p * (p * p - 1))
    assert abs(gamma_hat - g_scaled) < abs(gamma_hat - g_unscaled)
    assert abs(gamma_hat - g_scaled) < 0.25 * abs(g_scaled - g_unscaled)


def test_gap_shrinks_with_more_samples():
    # matched seeds: the 40000-draw gap beats the 2500-draw gap on at least
    # 95% of random PSD inputs
    rng = np.random.default_rng(3)
    wins = 0
    total = 20
    for i in range(total):
        s = random_psd(rng, 8)
        g_small = haar_mc_oracle(s, 3, 2_500, RngSeed(100 + i)).rel_frob_gap
        g_large = haar_mc_oracle(s, 3, 40_000, RngSeed(100 + i)).rel_frob_gap
        wins += g_large < g_small
    assert wins >= int(np.ceil(0.95 * total))


def test_grid_matches_single_calls_bitwise():
    rng = np.random.default_rng(4)
    mats = [random_psd(rng, 10) for _ in range(3)]
    ks = [1, 4, 10]
    grid = haar_mc_oracle_grid(mats, ks, 3_000, RngSeed(9))
    for i, s in enumerate(mats):
        for j, k in enumerate(ks):
            single = haar_mc_oracle(s, k, 3_000, RngSeed(9))
            np.testing.assert_array_equal(grid[i][j].mc_estimate.values, single.mc_estimate.values)
            assert grid[i][j].rel_frob_gap == single.rel_frob_gap


def test_determinism_same_seed():
    rng = np.random.default_rng(5)
    s = random_psd(rng, 7)
    a = haar_mc_oracle(s, 3, 4_000, RngSeed(42, 1))
    b = haar_mc_oracle(s, 3, 4_000, RngSeed(42, 1))
    np.testing.assert_array_equal(a.mc_estimate.values, b.mc_estimate.values)
    assert a.rel_frob_gap == b.rel_frob_gap


def test_no_resampling_in_normal_runs():
    rng = np.random.default_rng(6)
    s = random_psd(rng, 6)
    assert haar_mc_oracle(s, 2, 2_000, RngSeed(8)).resampled == 0


def test_resampling_path_counts_degenerate_draws(monkeypatch):
    # inflate the rank tolerance so some draws look degenerate and get
    # redrawn; the count is surfaced and the run still completes
    monkeypatch.setattr(haar_mod, "_RANK_TOL", 0.1)
    rng = np.random.default_rng(7)
    s = random_psd(rng, 5)
    rep = haar_mc_oracle(s, 2, 1_000, RngSeed(12))
    assert rep.resampled > 0
    assert rep.rel_frob_gap < 0.2


def test_invalid_inputs(monkeypatch):
    monkeypatch.setattr(haar_mod, "_haar_batch", no_draws)
    s = SymMat.from_array(np.eye(4))
    with pytest.raises(InvalidInputError):
        haar_mc_oracle(s, 0, 100, RngSeed(0))
    with pytest.raises(InvalidInputError):
        haar_mc_oracle(s, 5, 100, RngSeed(0))
    with pytest.raises(InvalidInputError):
        haar_mc_oracle(s, 2, 0, RngSeed(0))
    for samples in (2.5, np.float64(3.0), "3"):
        with pytest.raises(InvalidInputError, match="sample count must be an integer"):
            haar_mc_oracle(s, 2, samples, RngSeed(0))
    with pytest.raises(InvalidInputError):
        haar_mc_oracle_grid([], [1], 10, RngSeed(0))


def no_draws(*args):
    raise AssertionError("Haar unitaries drawn before the dimensions were checked")


@pytest.mark.parametrize("p, k", [(4, 2.5), (4, 0), (4, 5), (1, 1)], ids=["k=2.5", "k=0", "k>p", "p=1"])
def test_bad_dimensions_rejected_before_any_draw(monkeypatch, p, k):
    # cd_coeff_grid checks every k by value while the closed forms are built,
    # so neither entry point samples a unitary for a k it would reject
    monkeypatch.setattr(haar_mod, "_haar_batch", no_draws)
    s = SymMat.from_array(np.eye(p))
    with pytest.raises(InvalidInputError):
        haar_mc_oracle(s, k, 100, RngSeed(0))
    with pytest.raises(InvalidInputError):
        haar_mc_oracle_grid([s], [1, k], 100, RngSeed(0))


def test_draw_patch_intercepts_a_valid_run(monkeypatch):
    # positive control for the test above: the same patch stops a valid k,
    # so it sits on the path every draw takes
    monkeypatch.setattr(haar_mod, "_haar_batch", no_draws)
    with pytest.raises(AssertionError, match="drawn before"):
        haar_mc_oracle(SymMat.from_array(np.eye(4)), 2, 100, RngSeed(0))


def assert_sums_match_whole_chunk(mats, samples, seed):
    """The package's sums equal the whole-chunk reference bit for bit."""
    arrays = [s.values for s in mats]
    got, got_resampled = _g_sums(arrays, mats[0].dim, samples, seed)
    want, want_resampled = g_sums_whole_chunk(arrays, mats[0].dim, samples, seed)
    assert got_resampled == want_resampled
    for g, w in zip(got, want, strict=True):
        assert g.tobytes() == w.tobytes()
    return got_resampled


@pytest.mark.parametrize(
    "p, samples",
    [(9, 3_000), (4, 2 * _chunk(4) + 5), (20, _chunk(20) + 7), (257, 3)],
    ids=["one-matrix", "two-chunks-and-partial", "one-chunk-and-partial", "one-draw-chunks"],
)
def test_sums_match_whole_chunk_reference(p, samples):
    s = random_psd(np.random.default_rng(p), p)
    assert_sums_match_whole_chunk([s], samples, RngSeed(p, 1))


def test_grid_reports_match_whole_chunk_reference(monkeypatch):
    rng = np.random.default_rng(10)
    mats = [random_psd(rng, 7) for _ in range(2)]
    ks = [2, 5]
    seed = RngSeed(77)
    assert_sums_match_whole_chunk(mats, 1_500, seed)
    got = haar_mc_oracle_grid(mats, ks, 1_500, seed)
    monkeypatch.setattr(haar_mod, "_g_sums", g_sums_whole_chunk)
    want = haar_mc_oracle_grid(mats, ks, 1_500, seed)
    for got_row, want_row in zip(got, want):
        for a, b in zip(got_row, want_row):
            assert a.to_dict() == b.to_dict()
            assert a.mc_estimate.values.tobytes() == b.mc_estimate.values.tobytes()


def test_resampled_sums_match_whole_chunk_reference(monkeypatch):
    monkeypatch.setattr(haar_mod, "_RANK_TOL", 0.1)
    s = random_psd(np.random.default_rng(11), 5)
    assert assert_sums_match_whole_chunk([s], 1_000, RngSeed(12)) > 0


def test_sums_do_not_depend_on_the_thread_count(monkeypatch):
    # five whole chunks and a partial one, summed by 1, 2 and 3 threads:
    # the chunks finish in any order, and the sums keep the same bytes
    rng = np.random.default_rng(15)
    p = 9
    mats = [random_psd(rng, p) for _ in range(3)]
    samples = 5 * _chunk(p) + 17
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(haar_mod, "_WORKERS", workers)
        sums, _ = _g_sums([s.values for s in mats], p, samples, RngSeed(16))
        runs.append([g.tobytes() for g in sums])
    assert runs[0] == runs[1] == runs[2]
    assert_sums_match_whole_chunk(mats, samples, RngSeed(16))


def test_worker_error_reaches_the_caller(monkeypatch):
    # every draw looks rank-deficient, so each worker gives up after its
    # redraw rounds; the error is raised here and no worker thread is left
    monkeypatch.setattr(haar_mod, "_RANK_TOL", 2.0)
    s = random_psd(np.random.default_rng(17), 4)
    threads_before = threading.active_count()
    with pytest.raises(NumericalError, match="persistent rank-deficient"):
        haar_mc_oracle(s, 2, 3 * _chunk(4), RngSeed(18))
    assert threading.active_count() == threads_before


def test_oracle_memory_is_a_few_chunk_arrays():
    # the chunks in flight, each with its draws, QR temporaries and products,
    # a few arrays of max(_CHUNK_BYTES, 16 p^2) bytes, whatever p and the
    # sample count are; p = 257 runs one-draw chunks, and a fixed 2048-draw
    # chunk would read 289.8 MB at p = 64
    for p, samples in ((20, 2048), (64, 2048), (257, 8)):
        s = random_psd(np.random.default_rng(13), p)
        tracemalloc.start()
        try:
            haar_mc_oracle(s, 5, samples, RngSeed(14))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (_WORKERS * _CHUNK_BYTES + 16 * p * p), p


def test_report_serializes():
    rng = np.random.default_rng(7)
    s = random_psd(rng, 4)
    d = haar_mc_oracle(s, 2, 500, RngSeed(1)).to_dict()
    assert set(d) == {
        "samples",
        "rel_frob_gap",
        "max_imag",
        "resampled",
        "mc_estimate",
        "closed_form",
    }
    assert len(d["mc_estimate"]) == 4
