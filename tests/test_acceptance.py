"""Acceptance gates.

One test per criterion, each printing a single PASS/FAIL line (visible
with ``pytest -s``). Tolerances are fixed here, not tuned at run time.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cdcov import (
    DataMatrix,
    RngSeed,
    SimConfig,
    SymMat,
    cov_pair,
    frob_norm,
    moment_coeffs,
    run_cell,
    select_k,
    sparsity_sweep,
    sure_closed,
    unbiased_moment_coeffs,
)
from _sure_oracle import cov_hat_diag_pair, sure_direct, var_hat_diag, var_hat_off
from cdcov.cli import main
from cdcov.haar import haar_mc_oracle_grid
from cdcov.matrices import center_columns
from cdcov.sure import cd_risk_curve


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_1_haar_oracle_agreement():
    # 20 random PSD matrices at p=20, k in {1,5,10,19}, M=20000:
    # rel_frob_gap <= 0.02 and max_imag <= 1e-6 * scale, within 2 minutes.
    t0 = time.time()
    p = 20
    ks = (1, 5, 10, 19)
    rng = RngSeed(20_240_101, 0).generator()
    mats = []
    for _ in range(20):
        a = rng.standard_normal((p, p))
        mats.append(SymMat.from_array(a @ a.T / p + 0.5 * np.eye(p)))
    reports = haar_mc_oracle_grid(mats, ks, 20_000, RngSeed(20_240_102, 0))
    worst_gap = 0.0
    imag_ok = True
    for row in reports:
        for rep in row:
            worst_gap = max(worst_gap, rep.rel_frob_gap)
            imag_ok &= rep.max_imag <= 1e-6 * frob_norm(rep.mc_estimate)
    elapsed = time.time() - t0
    ok = worst_gap <= 0.02 and imag_ok and elapsed <= 120.0
    report(1, ok, f"worst rel gap {worst_gap:.5f} (<=0.02), imag ok={imag_ok}, {elapsed:.1f}s (<=120s)")
    assert worst_gap <= 0.02
    assert imag_ok
    assert elapsed <= 120.0


def _draw_cov_batch(root, n, reps, rng, denom):
    """Batch of sample covariances (reps, p, p) from N(0, root root^T)."""
    p = root.shape[0]
    out = np.empty((reps, p, p))
    done = 0
    while done < reps:
        m = min(20_000, reps - done)
        z = rng.standard_normal((m, p, n))
        x = np.einsum("ij,rjt->rit", root, z)
        x -= x.mean(axis=2, keepdims=True)
        out[done : done + m] = np.einsum("rit,rjt->rij", x, x) / denom
        done += m
    return out


def test_criterion_2_moment_unbiasedness():
    # p=5, n=20: 5000-replicate MC means of the three moment estimators
    # against a 1e5-replicate empirical-moment oracle, entrywise 3 SEs.
    t0 = time.time()
    p, n = 5, 20
    d = np.array([1.0, 1.44, 2.25, 1.21, 0.81])
    idx = np.arange(p)
    sigma0 = np.sqrt(d[:, None] * d[None, :]) * 0.5 ** np.abs(idx[:, None] - idx[None, :])
    root = np.linalg.cholesky(sigma0)

    oracle_hats = _draw_cov_batch(root, n, 100_000, RngSeed(31_001, 0).generator(), n - 1)
    dev = oracle_hats - oracle_hats.mean(axis=0)
    var_emp = (dev**2).mean(axis=0)
    var_emp_se = (dev**2).std(axis=0, ddof=1) / np.sqrt(len(dev))
    diag_dev = dev[:, idx, idx]
    cov_emp = np.einsum("rl,ri->li", diag_dev, diag_dev) / len(dev)
    cov_emp_se = np.std(diag_dev[:, :, None] * diag_dev[:, None, :], axis=0, ddof=1) / np.sqrt(len(dev))

    mc_hats = _draw_cov_batch(root, n, 5_000, RngSeed(31_002, 0).generator(), n)
    c = unbiased_moment_coeffs(n)
    diag = mc_hats[:, idx, idx]
    voff = var_hat_off(mc_hats, diag[:, :, None], diag[:, None, :], c)
    vdiag = var_hat_diag(diag, c)
    cpair = cov_hat_diag_pair(mc_hats, diag[:, :, None], diag[:, None, :], c)

    def gate(values, target, target_se, mask):
        mean = values.mean(axis=0)
        se = values.std(axis=0, ddof=1) / np.sqrt(len(values))
        z = np.abs(mean - target) / np.sqrt(se**2 + target_se**2)
        return float(np.max(z[mask]))

    off = ~np.eye(p, dtype=bool)
    z_off = gate(voff, var_emp, var_emp_se, off)
    z_diag = gate(vdiag, var_emp[idx, idx], var_emp_se[idx, idx], np.ones(p, dtype=bool))
    z_cov = gate(cpair, cov_emp, cov_emp_se, off)
    elapsed = time.time() - t0
    ok = max(z_off, z_diag, z_cov) <= 3.0 and elapsed <= 180.0
    report(
        2,
        ok,
        f"max |z|: var_off {z_off:.2f}, var_diag {z_diag:.2f}, cov {z_cov:.2f} (<=3), {elapsed:.1f}s (<=180s)",
    )
    assert z_off <= 3.0
    assert z_diag <= 3.0
    assert z_cov <= 3.0
    assert elapsed <= 180.0


def test_criterion_3_sure_offset_is_k_free():
    # p=10, n=40, truth = I, 5000 replicates: mean SURE(k) - MC risk(k)
    # varies over k=1..10 by at most 3x the pooled MC standard error.
    p, n, reps = 10, 40, 5_000
    grid = np.arange(1, p + 1)
    identity = SymMat.from_array(np.eye(p))
    rng = RngSeed(31_003, 0).generator()
    deltas = np.empty((reps, grid.size))
    for r in range(reps):
        x = rng.standard_normal((p, n))
        x -= x.mean(axis=1, keepdims=True)
        pair = cov_pair(DataMatrix.from_array(x))
        curve = select_k(pair, grid)
        loss = cd_risk_curve(pair.unbiased, identity, grid)
        deltas[r] = curve.sure_values - loss
    mean_d = deltas.mean(axis=0)
    se_d = deltas.std(axis=0, ddof=1) / np.sqrt(reps)
    pooled_se = float(np.sqrt(np.mean(se_d**2)))
    spread = float(mean_d.max() - mean_d.min())
    theory = p * (p + 1) / (n - 1)
    ok = spread <= 3.0 * pooled_se
    report(
        3,
        ok,
        f"offset spread {spread:.4f} vs 3x pooled SE {3 * pooled_se:.4f}; "
        f"mean offset {mean_d.mean():.3f} (k-free constant, sum of entry variances ~ {theory:.3f})",
    )
    assert spread <= 3.0 * pooled_se


def test_criterion_4_path_equivalence():
    # 1000 random (p <= 30, n <= 100) inputs: direct and closed-form SURE
    # agree to 1e-8 relative, with either coefficient set.
    rng = np.random.default_rng(31_004)
    worst = 0.0
    for _ in range(1000):
        p = int(rng.integers(2, 31))
        n = int(rng.integers(3, 101))
        x = rng.standard_normal((p, n)) * float(rng.uniform(0.5, 2.0))
        pair = cov_pair(center_columns(DataMatrix.from_array(x)))
        k = int(rng.integers(1, p + 1))
        for coeffs in (unbiased_moment_coeffs(n), moment_coeffs(n)):
            a = sure_direct(pair, k, coeffs)
            b = sure_closed(pair, k, coeffs)
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-300))
    ok = worst <= 1e-8
    report(4, ok, f"worst relative path difference {worst:.2e} (<=1e-8) over 1000 inputs")
    assert worst <= 1e-8


def test_criterion_5_dense_cell_and_dimension_selection():
    # Setting 1, n=100, p=250, ktr=10, s=0.5, 20 replicates: CD operator
    # error within 0.25 +- 0.12, selected dimension mode within +-20 of
    # 240 and within +-20 of the locally computed k_opt; under 10 minutes.
    t0 = time.time()
    cfg = SimConfig(setting=1, n=100, p=250, ktr=10, s=0.5, replicates=20, seed=RngSeed(31_005, 0))
    (rec,) = run_cell(cfg, ["cd"], compute_k_opt=True)
    elapsed = time.time() - t0
    ok = (
        abs(rec.op_err_mean - 0.25) <= 0.12
        and abs(rec.k_hat_mode - 240) <= 20
        and abs(rec.k_hat_mode - rec.k_opt) <= 20
        and elapsed <= 600.0
    )
    report(
        5,
        ok,
        f"CD op error {rec.op_err_mean:.3f} (0.25+-0.12), k_hat {rec.k_hat_mode} "
        f"(240+-20), k_opt {rec.k_opt} (|k_hat-k_opt|<=20), {elapsed:.1f}s (<=600s)",
    )
    assert abs(rec.op_err_mean - 0.25) <= 0.12
    assert abs(rec.k_hat_mode - 240) <= 20
    assert abs(rec.k_hat_mode - rec.k_opt) <= 20
    assert elapsed <= 600.0


def test_criterion_6_error_ordering_dense_designs():
    # Setting 1, p=250, ktr=50, s in {0.1, 0.5}, 20 replicates: CD mean
    # errors strictly below AT and POET in both norms.
    lines = []
    ok = True
    for s in (0.1, 0.5):
        cfg = SimConfig(setting=1, n=100, p=250, ktr=50, s=s, replicates=20, seed=RngSeed(31_006, 0))
        by = {r.method: r for r in run_cell(cfg, ["cd", "at", "poet"])}
        cd, at, po = by["cd"], by["at"], by["poet"]
        cell_ok = (
            cd.op_err_mean < at.op_err_mean
            and cd.op_err_mean < po.op_err_mean
            and cd.fro_err_mean < at.fro_err_mean
            and cd.fro_err_mean < po.fro_err_mean
        )
        ok &= cell_ok
        lines.append(
            f"s={s}: op cd {cd.op_err_mean:.2f} < at {at.op_err_mean:.2f}, poet {po.op_err_mean:.2f}; "
            f"fro cd {cd.fro_err_mean:.2f} < at {at.fro_err_mean:.2f}, poet {po.fro_err_mean:.2f}"
        )
    report(6, ok, " | ".join(lines))
    assert ok


def test_criterion_7_misspecified_design():
    # Setting 2, p=250, ktr=50, s=0.5, 20 replicates: CD Frobenius error
    # below POET's.
    cfg = SimConfig(setting=2, n=100, p=250, ktr=50, s=0.5, replicates=20, seed=RngSeed(31_007, 0))
    by = {r.method: r for r in run_cell(cfg, ["cd", "poet"])}
    ok = by["cd"].fro_err_mean < by["poet"].fro_err_mean
    report(7, ok, f"fro cd {by['cd'].fro_err_mean:.2f} < poet {by['poet'].fro_err_mean:.2f}")
    assert ok


def test_criterion_8_sparsity_sweep_dominance():
    # n=100, p=250, s in {0.1, 0.3, 0.5, 0.7}, 20 replicates: CD mean
    # errors <= AT and POET at every sparsity level in both norms.
    base = SimConfig(setting=1, n=100, p=250, ktr=50, s=0.1, replicates=20, seed=RngSeed(31_008, 0))
    records = sparsity_sweep(base, [0.1, 0.3, 0.5, 0.7], ["cd", "at", "poet"])
    by = {(r.s, r.method): r for r in records}
    ok = True
    worst = ""
    for s in (0.1, 0.3, 0.5, 0.7):
        cd, at, po = by[(s, "cd")], by[(s, "at")], by[(s, "poet")]
        here = (
            cd.op_err_mean <= at.op_err_mean
            and cd.op_err_mean <= po.op_err_mean
            and cd.fro_err_mean <= at.fro_err_mean
            and cd.fro_err_mean <= po.fro_err_mean
        )
        if not here:
            worst = f" (violated at s={s})"
        ok &= here
    summary = "; ".join(
        f"s={s}: cd {by[(s, 'cd')].fro_err_mean:.2f} at {by[(s, 'at')].fro_err_mean:.2f} "
        f"poet {by[(s, 'poet')].fro_err_mean:.2f}"
        for s in (0.1, 0.3, 0.5, 0.7)
    )
    report(8, ok, f"fro means {summary}{worst}")
    assert ok


def _non_manifest_files(out: Path) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out.iterdir())
        if p.is_file() and p.name != "manifest.json"
    }


def test_criterion_9_manifest_rerun_determinism(tmp_path):
    # every CLI run re-executed from its manifest reproduces all numeric
    # output files byte for byte (the manifest's timestamps excepted)
    runs = {
        "sweep": [
            "sweep", "--n", "40", "--p", "24", "--ktr", "3", "--s-list", "0.3,0.6",
            "--replicates", "3", "--seed", "17", "--methods", "cd,at,poet", "--k-opt",
        ],
        "estimate": None,  # filled below (needs a data file)
        "oracle-check": [
            "oracle-check", "--p", "8", "--k", "3", "--samples", "2000", "--seed", "23",
        ],
        "risk-oracle": None,
        "sure": None,
    }
    rng = np.random.default_rng(31_009)
    data = tmp_path / "data.csv"
    with open(data, "w") as f:
        for row in rng.standard_normal((8, 40)):
            f.write(",".join(format(v, ".17g") for v in row) + "\n")
    sigma0 = tmp_path / "sigma0.csv"
    with open(sigma0, "w") as f:
        for row in np.diag(np.linspace(1.0, 3.0, 6)):
            f.write(",".join(format(v, ".17g") for v in row) + "\n")
    runs["estimate"] = ["estimate", "--input", str(data), "--method", "at", "--seed", "29"]
    runs["risk-oracle"] = [
        "risk-oracle", "--sigma0", str(sigma0), "--n", "20", "--reps", "3",
        "--seed", "31", "--grid-step", "2",
    ]
    runs["sure"] = ["sure", "--input", str(data), "--grid-step", "2"]

    ok = True
    details = []
    for name, args in runs.items():
        out1 = tmp_path / f"{name}-1"
        out2 = tmp_path / f"{name}-2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main([args[0], "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        same = _non_manifest_files(out1) == _non_manifest_files(out2)
        ok &= same
        details.append(f"{name}={'ok' if same else 'DIFFER'}")
    report(9, ok, f"byte-identical reruns: {', '.join(details)}")
    assert ok
