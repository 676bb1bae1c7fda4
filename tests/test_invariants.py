"""Every matrix the package builds is exactly symmetric (square ones) and read-only.

The SymMat and DataMatrix constructors do not symmetrize or copy: they
check shape and finiteness and set the read-only flag. So the builders
below must produce exactly symmetric arrays themselves, and this test
demands bit-for-bit equality with the transpose rather than a tolerance.
"""

import numpy as np
import pytest

import cdcov.baselines as baselines
import cdcov.cli as cli
import cdcov.simulate as simulate
from cdcov import (
    AtConfig,
    DataMatrix,
    PoetConfig,
    RngSeed,
    SimConfig,
    SymMat,
    cd_estimate,
    center_columns,
    cov_pair,
    draw_data,
    haar_mc_oracle,
    hard_threshold_estimate,
    make_sigma0,
    poet,
)

N = 20
SMALL_AT = AtConfig(delta_grid=(0.1, 0.5, 1.0), folds=2)


class Case:
    def __init__(self, p, monkeypatch, tmp_path):
        self.p = p
        self.rng = np.random.default_rng(p)
        self.monkeypatch = monkeypatch
        self.tmp_path = tmp_path

    def data(self):
        return DataMatrix.from_array(self.rng.standard_normal((self.p, N)))

    def sim(self, setting):
        return SimConfig(setting=setting, n=N, p=self.p, ktr=2, s=0.5, replicates=1, seed=RngSeed(3))

    def capture(self, module, name):
        """Record the first argument of every call to ``module.name``."""
        seen = []
        real = getattr(module, name)

        def spy(first, *args, **kwargs):
            seen.append(first)
            return real(first, *args, **kwargs)

        self.monkeypatch.setattr(module, name, spy)
        return seen


def _poet_residual(c):
    seen = c.capture(baselines, "adaptive_threshold")
    poet(cov_pair(c.data()), PoetConfig(n_factors=2, residual_threshold=SMALL_AT), RngSeed(1))
    assert len(seen) == 1
    return [seen[0].x, seen[0].mle]


def _replicate_diffs(c):
    seen = c.capture(simulate, "op_norm")
    poet_cfg = PoetConfig(2, SMALL_AT)
    simulate._replicate(c.sim(1), 0, ["cd", "at", "poet", "sample"], np.arange(1, c.p + 1), SMALL_AT, poet_cfg, False)
    assert len(seen) == 4
    return seen


def _oracle_check_matrix(c):
    seen = c.capture(cli, "haar_mc_oracle")
    argv = ["oracle-check", "--out", str(c.tmp_path), "--p", str(c.p), "--k", "2", "--samples", "4", "--seed", "1"]
    assert cli.main(argv) == 0
    return seen


BUILDERS = {
    "center_columns": lambda c: [center_columns(c.data())],
    "cov_pair": lambda c: [cov_pair(c.data()).mle],
    "CovPair.unbiased": lambda c: [cov_pair(c.data()).unbiased],
    "cd_estimate": lambda c: [cd_estimate(cov_pair(c.data()).mle, k) for k in (1, c.p // 2, c.p)],
    # a plain array inside cross-validation: only its symmetry is checked
    "_centered_cov": lambda c: [baselines._centered_cov(c.data().values[:, 1::2])[1]],
    "hard_threshold_estimate": lambda c: [hard_threshold_estimate(cov_pair(c.data()), 0.5)],
    "poet": lambda c: [poet(cov_pair(c.data()), PoetConfig(n_factors=2, residual_threshold=SMALL_AT), RngSeed(1))],
    "poet residual": _poet_residual,
    "ar1_covariance": lambda c: [simulate.ar1_covariance(c.p, -0.3, 0.4)],
    "make_sigma0": lambda c: [make_sigma0(c.sim(1)), make_sigma0(c.sim(2))],
    "draw_data": lambda c: [draw_data(make_sigma0(c.sim(1)), N, RngSeed(4))],
    "_replicate diff": _replicate_diffs,
    "haar mc mean": lambda c: [haar_mc_oracle(cov_pair(c.data()).mle, 2, 8, RngSeed(5)).mc_estimate],
    "oracle-check matrix": _oracle_check_matrix,
}


@pytest.mark.parametrize("p", [8, 40], ids=["p<n", "p>n"])
@pytest.mark.parametrize("name", list(BUILDERS))
def test_builders_are_exactly_symmetric_and_read_only(name, p, monkeypatch, tmp_path):
    outputs = BUILDERS[name](Case(p, monkeypatch, tmp_path))
    assert outputs
    for out in outputs:
        if isinstance(out, np.ndarray):
            assert np.array_equal(out, out.T)
            continue
        v = out.values
        if isinstance(out, SymMat):
            assert np.array_equal(v, v.T)
        else:
            assert isinstance(out, DataMatrix)
        assert v.flags.writeable is False
