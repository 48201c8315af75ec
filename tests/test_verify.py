"""The randomized verification suites and their internal oracles."""

import numpy as np
import pytest

from oracles import universality_replicate_per_config

from fxfolio.crossrate import SegmentConfig, cross_rate, mpcr_predict, mpo_predict
from fxfolio.errors import InvalidParams
from fxfolio.verify import (
    _universality_replicate,
    bisect_cost,
    cost_bounds_suite,
    effectiveness_estimate,
    profitability_suite,
    universality_suite,
)


class TestUniversalitySuite:
    def test_small_sweep_passes(self):
        result = universality_suite(replicates=3, seed=1, n_days=50)
        assert result.passed
        assert result.violations == []
        assert result.checked > 0
        assert result.stats["min_margin"] >= -1e-9

    def test_parallel_matches_serial(self):
        serial = universality_suite(replicates=4, seed=2, n_days=40, jobs=1)
        parallel = universality_suite(replicates=4, seed=2, n_days=40, jobs=2)
        assert serial.checked == parallel.checked
        assert serial.stats == parallel.stats
        assert serial.violations == parallel.violations

    @pytest.mark.parametrize("seed", [1, 2, 97])
    def test_batched_replicate_matches_per_config_runs(self, seed):
        for idx in range(3):
            args = (idx, seed, 250, 0.5)
            assert _universality_replicate(args) == universality_replicate_per_config(args)

    def test_rejects_zero_replicates(self):
        with pytest.raises(InvalidParams):
            universality_suite(replicates=0)


class TestEffectivenessEstimate:
    def brute_force(self, labels, seg_len, mpcr, cfg):
        n_segments = len(labels) // seg_len
        rates = []
        for n in range(n_segments):
            seg = labels[n * seg_len : (n + 1) * seg_len]
            prev = labels[n * seg_len - 1] if n else None
            rates.append(cross_rate(seg, prev))
        effective = []
        for n in range(1, n_segments):
            w_pred = mpcr_predict(mpcr, rates[:n], cfg)
            hits = 0
            for k in range(seg_len):
                day = n * seg_len + k
                hits += int(mpo_predict(1, False, w_pred, labels[:day]) == labels[day])
            effective.append(hits / seg_len >= 0.5)
        return sum(effective) / len(effective)

    @pytest.mark.parametrize("mpcr", [1, 2])
    def test_matches_brute_force(self, mpcr):
        rng = np.random.default_rng(5)
        labels = list(rng.integers(1, 3, size=200))
        cfg = SegmentConfig(L=5)
        assert effectiveness_estimate(labels, 5, mpcr, cfg) == self.brute_force(labels, 5, mpcr, cfg)


class TestProfitabilitySuite:
    def test_reference_targets_pass(self):
        result = profitability_suite(segments=5_000, seed=1)
        assert result.passed
        assert result.stats["eta_mpcr1"] >= 0.73
        assert result.stats["eta_mpcr2"] >= 0.45

    def test_hostile_targets_fail_honestly(self):
        # Betting on alternation against a process that flips only 30% of
        # the time lands well under the fixed 1/2 bar; the suite must say
        # so rather than pass.
        result = profitability_suite(segments=3_000, seed=3, flip_mass=0.3)
        assert not result.passed
        assert any("mpcr2" in v for v in result.violations)


class TestCostBoundsSuite:
    def test_small_sweep_passes(self):
        result = cost_bounds_suite(replicates=400, seed=1)
        assert result.passed
        assert result.checked == 400
        assert result.stats["worst_oracle_gap"] <= 1e-8

    def test_bisection_solves_the_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            drift = np.zeros((m, m))
            nxt = np.zeros((m, m))
            off = ~np.eye(m, dtype=bool)
            drift[off] = rng.dirichlet(np.ones(m * m - m))
            nxt[off] = rng.dirichlet(np.ones(m * m - m))
            f_k = float(rng.uniform(0.5, 2.0))
            c = float(rng.uniform(0.001, 0.05))
            t = bisect_cost(f_k, drift, nxt, c)
            residual = c * float(np.sum(np.abs(f_k * nxt - f_k * drift - t * nxt))) - t
            assert abs(residual) <= 1e-9
