"""The randomized verification suites and their internal oracles."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_cost_bounds_draws,
    oracle_cost_bounds_suite,
    random_portfolio_weights,
    universality_replicate_per_config,
)

from fxfolio import verify
from fxfolio.crossrate import SegmentConfig, cross_rate, mpcr_predict, mpo_predict
from fxfolio.data_io import SyntheticOrderSpec, order_labels, symmetric_masses
from fxfolio.errors import InvalidParams
from fxfolio.verify import (
    _cost_bounds_draws,
    _universality_replicate,
    bisect_cost,
    bisect_costs,
    cost_bounds_suite,
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
        # The suite's clause for this mpcr, against the brute force on the same order labels.
        name, same_class_mass = ("mpcr1", 0.78) if mpcr == 1 else ("mpcr2", 1.0 - 0.6)
        for seed, seg_len, segments in [(1, 5, 40), (2, 2, 60), (3, 7, 30), (5, 3, 2)]:
            spec = SyntheticOrderSpec(segments, seg_len, symmetric_masses(same_class_mass), seed)
            labels = order_labels(spec, np.random.default_rng(seed)).tolist()
            eta = profitability_suite(segments=segments, seg_len=seg_len, seed=seed).stats[f"eta_{name}"]
            assert eta == self.brute_force(labels, seg_len, mpcr, SegmentConfig(L=seg_len))


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

    def test_matches_the_per_replicate_oracle(self):
        # 2001 replicates: uneven groups, and m = 4 and 6 rows long enough that a pairwise normalizer moves bits.
        assert cost_bounds_suite(replicates=2001, seed=2) == oracle_cost_bounds_suite(2001, 2)

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


class TestBatchBisection:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.lists(
            st.tuples(
                st.one_of(st.sampled_from([1e-9, 1e12]), st.floats(1e-9, 1e12)),
                st.one_of(st.just(0.0), st.floats(0.0, 0.999)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_the_scalar_bisection(self, seed, m, rows):
        rng = np.random.default_rng(seed)
        drift = np.array([random_portfolio_weights(rng, m, sparse=True) for _ in rows])
        nxt = np.array([random_portfolio_weights(rng, m) for _ in rows])
        f_k = np.array([f for f, _ in rows])
        c = np.array([c for _, c in rows])
        t = bisect_costs(f_k, drift, nxt, c)
        for b, (f, cb) in enumerate(rows):
            assert t[b] == bisect_cost(f, drift[b], nxt[b], cb)

    @pytest.mark.parametrize("name", ["bisect_cost", "bisect_costs"])
    def test_shares_no_code_with_the_production_solve(self, name):
        tree = ast.parse(Path(verify.__file__).read_text())
        from_costs = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module in ("costs", "fxfolio.costs")
            for alias in node.names
        }
        assert "fixed_point_costs" in from_costs
        [func] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        used = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
        assert not used & (from_costs | {"costs"})


class TestCostBoundsDraws:
    """The suite's bulk draws are the oracle's dirichlet and uniform calls: same bits, same final generator state."""

    @pytest.mark.parametrize("seed", [0, 1, 97])
    @pytest.mark.parametrize("replicates", [1, 2, 3, 4, 7, 2000, 2001])
    def test_match_one_call_per_value(self, replicates, seed):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        draws, expect = _cost_bounds_draws(rng, replicates), oracle_cost_bounds_draws(ref_rng, replicates)
        assert len(draws) == len(expect) == 4
        for group, ref in zip(draws, expect):
            assert [a.shape for a in group] == [a.shape for a in ref]
            assert [a.tobytes() for a in group] == [a.tobytes() for a in ref]
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def replicate_draws(replicates, seed):
    """(f_k, c) of every cost-bounds replicate, from the oracle's one-call-per-value draws."""
    draws = oracle_cost_bounds_draws(np.random.default_rng(seed), replicates)
    return [(float(draws[idx % 4][2][idx // 4]), float(draws[idx % 4][3][idx // 4])) for idx in range(replicates)]


class TestCostBoundsViolationOrder:
    """Violation lines come in replicate order, the sandwich line first, however the suite batches its rows."""

    def run_with(self, monkeypatch, replicates, seed, moves):
        """The suite's violations, with the cost of replicate idx replaced by moves[idx](T).

        The whole result, text and stats, must also equal the per-replicate oracle's under the same moves.
        """
        by_draw = {draw: idx for idx, draw in enumerate(replicate_draws(replicates, seed))}
        solve = verify.fixed_point_costs

        def perturbed(f_k, drift, w_next, c):
            t = solve(f_k, drift, w_next, c)
            for row, draw in enumerate(zip(f_k.tolist(), c.tolist())):
                idx = by_draw[draw]
                if idx in moves:
                    t[row] = moves[idx](t[row])
            return t

        monkeypatch.setattr(verify, "fixed_point_costs", perturbed)
        result = cost_bounds_suite(replicates=replicates, seed=seed)
        assert result.checked == replicates
        assert result == oracle_cost_bounds_suite(replicates, seed)
        return [
            (int(re.search(r" replicate=(\d+) ", line).group(1)), "sandwich" if "outside sandwich" in line else "oracle")
            for line in result.violations
        ]

    def test_uneven_groups(self, monkeypatch):
        # Seven replicates: m = 2 holds 0 and 4, m = 3 holds 1 and 5, m = 4 holds 2 and 6, m = 6 holds 3.
        nudge = lambda t: t + 1e-7  # noqa: E731  past the oracle's 1e-8, inside the sandwich
        above = lambda t: 10.0 * t + 1.0  # noqa: E731
        below = lambda t: -1.0  # noqa: E731
        found = self.run_with(monkeypatch, 7, 3, {6: below, 5: nudge, 3: above, 2: nudge, 0: above})
        assert found == [
            (0, "sandwich"), (0, "oracle"),
            (2, "oracle"),
            (3, "sandwich"), (3, "oracle"),
            (5, "oracle"),
            (6, "sandwich"), (6, "oracle"),
        ]

    @pytest.mark.parametrize("replicates", [1, 2, 3])
    def test_empty_groups(self, monkeypatch, replicates):
        above = lambda t: 10.0 * t + 1.0  # noqa: E731
        found = self.run_with(monkeypatch, replicates, 1, {idx: above for idx in range(replicates)})
        assert found == [(idx, kind) for idx in range(replicates) for kind in ("sandwich", "oracle")]
