"""The randomized verification suites and their internal oracles."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_cost_bounds_suite,
    oracle_eta_law,
    random_portfolio_weights,
    universality_replicate_per_config,
)

from fxfolio import verify
from fxfolio.crossrate import SegmentConfig, cross_rate, mpcr_predict, mpo_predict
from fxfolio.data_io import SyntheticOrderSpec, symmetric_masses
from fxfolio.errors import InvalidParams, InvalidSpec
from fxfolio.verify import (
    _cost_bounds_draws,
    _eta_law,
    _law_order_labels,
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
            labels = _law_order_labels(spec, np.random.default_rng(seed)).tolist()
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


def crossings(labels, seg_len):
    """(segments, L) bool grid of the days whose label differs from the day before; the first day never does."""
    return (np.diff(labels, prepend=1) != 0).reshape(-1, seg_len)


def within(count, trials, p, z=5.0):
    """count of trials with chance p lies within z binomial sds of its mean; z = 5 misses with chance 5.7e-7."""
    return abs(count - trials * p) <= z * np.sqrt(trials * p * (1.0 - p))


class TestLawOrderLabels:
    """The suite's labels follow the order process's law.

    Each check is a count against a binomial mean at z = 5, which a correct
    sampler misses with probability about 5.7e-7 (two-sided normal tail);
    a test's false-alarm rate is at most that times its number of checks.
    """

    # Asymmetric masses, so a class swap, a count range or a missed restart shows in the pair frequencies.
    SPEC = SyntheticOrderSpec(200_000, 5, (0.5, 0.15, 0.15, 0.2), 3, dependence_gap=7)
    PI_A = 0.65

    @classmethod
    def classes_and_counts(cls):
        flags = crossings(_law_order_labels(cls.SPEC, np.random.default_rng(cls.SPEC.seed)), cls.SPEC.segment_length)
        k = flags.sum(axis=1)
        return k < 3, k, flags  # class A is a cross rate below 1/2: k < ceil(L/2)

    def test_class_pairs_inside_a_block_and_across_a_restart(self):
        # 6 in-block offsets and 1 straddling pair, 4 cells each: 28 checks, false alarm < 1.6e-5.  At one
        # offset the pairs of different blocks are independent, and each follows the masses (the chain is
        # stationary at pi_A); across a restart the classes are independent.
        is_a, _, _ = self.classes_and_counts()
        gap = self.SPEC.dependence_gap
        blocks = is_a[: len(is_a) // gap * gap].reshape(-1, gap)
        across = (self.PI_A**2, self.PI_A * (1 - self.PI_A), (1 - self.PI_A) * self.PI_A, (1 - self.PI_A) ** 2)
        pairs = [(blocks[:, j], blocks[:, j + 1], self.SPEC.masses) for j in range(gap - 1)]
        pairs.append((blocks[:-1, -1], blocks[1:, 0], across))
        for first, second, masses in pairs:
            cells = (first & second, first & ~second, ~first & second, ~first & ~second)
            for cell, mass in zip(cells, masses):
                assert within(int(cell.sum()), len(first), mass), (masses, int(cell.sum()), len(first))

    def test_each_blocks_first_class(self):
        # 1 check, false alarm 5.7e-7.
        is_a, _, _ = self.classes_and_counts()
        first = is_a[:: self.SPEC.dependence_gap]
        assert within(int(first.sum()), len(first), self.PI_A)

    def test_each_classs_crossing_counts_are_uniform_over_its_range(self):
        # Given the classes, the counts are independent: 6 checks, false alarm < 3.5e-6.  Segment 0 is capped.
        is_a, k, _ = self.classes_and_counts()
        for members, counts in ((is_a[1:], range(0, 3)), (~is_a[1:], range(3, 6))):
            drawn = k[1:][members]
            for count in counts:
                assert within(int((drawn == count).sum()), len(drawn), 1 / len(counts)), (count, len(drawn))

    def test_each_day_crosses_with_chance_k_over_L_given_k(self):
        # 4 counts k in 1..4, 5 days each: 20 checks, false alarm < 1.2e-5.
        _, k, flags = self.classes_and_counts()
        L = self.SPEC.segment_length
        for count in range(1, L):
            rows = flags[1:][k[1:] == count]
            for day in range(L):
                assert within(int(rows[:, day].sum()), len(rows), count / L), (count, day)

    @pytest.mark.parametrize("seg_len", [2, 5])
    def test_the_first_day_never_crosses(self, seg_len):
        # It has no predecessor: its key is +inf and the first segment's count at most L - 1.
        spec = SyntheticOrderSpec(3, seg_len, symmetric_masses(0.0), 0)
        firsts = [crossings(_law_order_labels(spec, np.random.default_rng(seed)), seg_len)[0] for seed in range(200)]
        assert not any(first[0] for first in firsts)
        assert sum(first.sum() for first in firsts) > 0

    def test_a_segment_count_that_cannot_be_held_is_refused(self):
        spec = SyntheticOrderSpec(10**14, 5, symmetric_masses(0.5), 0)
        with pytest.raises(InvalidSpec, match=r"^500000000000000 order labels .* do not fit in memory$"):
            _law_order_labels(spec, np.random.default_rng(0))


class TestEtaLaw:
    @pytest.mark.parametrize("mpcr", [1, 2])
    @pytest.mark.parametrize(
        "segments, seg_len, same_class_mass, gap",
        [(2_000, 5, 0.78, 50), (501, 7, 0.4, 50), (2_000, 2, 0.78, 50), (300, 4, 0.3, 7), (300, 6, 0.9, 1), (40, 2, 0.0, 5),
         (2, 3, 0.5, 1)],
    )
    def test_matches_the_enumeration(self, segments, seg_len, same_class_mass, gap, mpcr):
        # Odd and even L (the tie at k = L/2), restarts every segment to never, and masses at 0 and 1.
        spec = SyntheticOrderSpec(segments, seg_len, symmetric_masses(same_class_mass), 1, dependence_gap=gap)
        expected, sd = _eta_law(spec, mpcr)
        oracle_expected, oracle_sd = oracle_eta_law(spec, mpcr)
        assert expected == pytest.approx(oracle_expected, rel=1e-12, abs=1e-15)
        assert sd == pytest.approx(oracle_sd, rel=1e-9)

    def test_the_suite_defaults(self):
        # 0.78 * 19,600/19,999 + 0.5 * 399/19,999 and 0.6 * 19,600/19,999 + 0.5 * 399/19,999.
        stats = profitability_suite(segments=20_000, seed=1).stats
        for name, mpcr, mass, closed_form in (("mpcr1", 1, 0.78, 0.77441), ("mpcr2", 2, 0.4, 0.59800)):
            spec = SyntheticOrderSpec(20_000, 5, symmetric_masses(mass), 1)
            oracle_expected, oracle_sd = oracle_eta_law(spec, mpcr)
            assert stats[f"expected_{name}"] == pytest.approx(oracle_expected, rel=1e-12)
            assert stats[f"sd_{name}"] == pytest.approx(oracle_sd, rel=1e-6)
            assert round(stats[f"expected_{name}"], 5) == closed_form
        assert stats["z"] == 6.0

    @pytest.mark.parametrize("seg_len", [2, 5])
    def test_etas_over_seeds_center_on_the_expectation(self, seg_len):
        # Every run passes the suite, whose two-sided clause misses a correct run with chance about 2e-9 per
        # clause, and the mean over 12 independent seeds lies within 5 of its sds (false alarm 5.7e-7 per clause).
        seeds = range(1, 13)
        runs = [profitability_suite(segments=20_000, seg_len=seg_len, seed=seed) for seed in seeds]
        assert all(run.passed for run in runs), [run.violations for run in runs if not run.passed]
        for name in ("mpcr1", "mpcr2"):
            mean = np.mean([run.stats[f"eta_{name}"] for run in runs])
            expected, sd = runs[0].stats[f"expected_{name}"], runs[0].stats[f"sd_{name}"]
            assert abs(mean - expected) <= 5.0 * sd / np.sqrt(len(seeds)), (name, mean, expected)


class TestCostBoundsSuite:
    def test_small_sweep_passes(self):
        result = cost_bounds_suite(replicates=400, seed=1)
        assert result.passed
        assert result.checked == 400
        assert result.stats["worst_oracle_gap"] <= 1e-8

    def test_matches_the_per_replicate_oracle(self):
        # 2001 replicates: uneven groups.
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


class TestCostBoundsLaw:
    """The suite's draws have the days' law: independent Dirichlet(1, ..., 1) drift and target rows over the k
    off-diagonal cells, f_k uniform on [0.5, 2.0) and c uniform on [0.0, 0.05).

    Each moment check allows Z = 6 sds of its sample mean over ROWS rows, a two-sided normal tail of 2.0e-9. There
    are 258 of them: five per cell over the 50 cells of m = 2, 3, 4, 6, and two per group for f_k and c. Together
    they miss a correct draw with chance below 5.1e-7.
    """

    ROWS = 20_000
    Z = 6.0

    @pytest.fixture(scope="class")
    def draws(self):
        return _cost_bounds_draws(np.random.default_rng(11), 4 * self.ROWS)

    def assert_mean(self, samples, mean, var):
        z = (samples.mean(axis=0) - mean) / np.sqrt(var / len(samples))
        assert np.abs(z).max() <= self.Z, z

    @pytest.mark.parametrize("replicates", [1, 2, 3, 4, 7, 2000, 2001])
    def test_group_sizes(self, replicates):
        draws = _cost_bounds_draws(np.random.default_rng(0), replicates)
        assert len(draws) == 4
        for g, (m, group) in enumerate(zip((2, 3, 4, 6), draws)):
            rows, k = len(range(g, replicates, 4)), m * m - m
            assert [a.shape for a in group] == [(rows, k), (rows, k), (rows,), (rows,)]

    @pytest.mark.parametrize("seed", [0, 1, 97])
    @pytest.mark.parametrize("replicates", [1, 2, 3, 4, 7, 2000, 2001])
    def test_same_seed_and_replicates_same_draws(self, replicates, seed):
        # A violation reproduces from its config line: the same --seed and --replicates redraw every day bit for bit.
        rng, again = np.random.default_rng(seed), np.random.default_rng(seed)
        draws, redrawn = _cost_bounds_draws(rng, replicates), _cost_bounds_draws(again, replicates)
        for group, same in zip(draws, redrawn, strict=True):
            assert [a.tobytes() for a in group] == [a.tobytes() for a in same]
        assert rng.bit_generator.state == again.bit_generator.state
        other = _cost_bounds_draws(np.random.default_rng(seed + 1), replicates)
        assert any(a.tobytes() != b.tobytes() for group, diff in zip(draws, other) for a, b in zip(group, diff))

    def test_weight_rows_lie_on_the_simplex(self, draws):
        for drift, target, _, _ in draws:
            for w in (drift, target):
                assert w.min() >= 0.0
                assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12

    def test_cell_moments(self, draws):
        # A Dirichlet(1, ..., 1) cell is Beta(1, k - 1): E[w^r] = r! / (k (k + 1) ... (k + r - 1)).
        for drift, target, _, _ in draws:
            k = drift.shape[1]
            m2, m4 = 2.0 / (k * (k + 1)), 24.0 / (k * (k + 1) * (k + 2) * (k + 3))
            for w in (drift, target):
                self.assert_mean(w, 1.0 / k, m2 - 1.0 / k**2)
                self.assert_mean(w * w, m2, m4 - m2**2)
            # Independent rows: E[drift * target] = 1 / k^2 per cell.
            self.assert_mean(drift * target, 1.0 / k**2, m2**2 - 1.0 / k**4)

    def test_f_k_and_c_are_uniform_on_their_ranges(self, draws):
        for _, _, f_k, c in draws:
            for x, lo, hi in ((f_k, 0.5, 2.0), (c, 0.0, 0.05)):
                assert lo <= x.min() and x.max() < hi
                self.assert_mean(x, (lo + hi) / 2.0, (hi - lo) ** 2 / 12.0)


def replicate_draws(replicates, seed):
    """(f_k, c) of every cost-bounds replicate, from the suite's own draws."""
    draws = _cost_bounds_draws(np.random.default_rng(seed), replicates)
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
