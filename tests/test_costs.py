"""Transaction cost fixed point, its sandwich bounds, and the cost-ratio bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxfolio.costs import (
    FP_MAX_ITER,
    FP_TOL,
    CostParams,
    cost_bounds,
    cost_ratio_bound,
    fixed_point_costs,
    solve_cost_from_drift,
)
from fxfolio.errors import InvalidC, InvalidParams, NoConvergence, NonPositiveCapital
from fxfolio.portfolio import PortfolioMatrix, l1_distance

from oracles import oracle_fixed_point_cost, random_portfolio_weights, scan_cost_root


def two_pair(w12, w21, day=1):
    return PortfolioMatrix(day=day, weights=np.array([[0.0, w12], [w21, 0.0]]))


class TestCostParams:
    def test_rejects_unit_fee(self):
        with pytest.raises(InvalidC):
            CostParams(c=1.0)

    def test_rejects_negative_fee(self):
        with pytest.raises(InvalidC):
            CostParams(c=-0.01)

    @pytest.mark.parametrize("c", [1.0, -0.01, math.nan, math.inf])
    def test_scalar_api_rejects_the_fee_rate_as_it_does(self, c):
        for call in (lambda: cost_bounds(1.0, c), lambda: cost_ratio_bound("iitc", 0.1, 0.5, c)):
            with pytest.raises(InvalidC, match=rf"^fee rate c must lie in \[0, 1\), got {c!r}$"):
                call()


class TestSolveCost:
    def test_pinned_two_pair_shift(self):
        # 100 units drifted to (0.6, 0.4), retargeted to (0.4, 0.6):
        # T = 0.4 / 1.002 because each leg moves 20 plus/minus the fee drag.
        drift = np.array([[0.0, 0.6], [0.4, 0.0]])
        t = solve_cost_from_drift(100.0, drift, two_pair(0.4, 0.6).weights, CostParams(c=0.01))
        assert t == pytest.approx(0.4 / 1.002, abs=1e-10)
        assert t == pytest.approx(0.3992015968, abs=1e-9)

    def test_pinned_value_sits_in_sandwich(self):
        drift = np.array([[0.0, 0.6], [0.4, 0.0]])
        nxt = two_pair(0.4, 0.6)
        t = solve_cost_from_drift(100.0, drift, nxt.weights, CostParams(c=0.01))
        lo, hi = cost_bounds(100.0 * l1_distance(nxt, PortfolioMatrix(day=1, weights=drift)), 0.01)
        assert lo <= t <= hi
        assert (lo, hi) == (pytest.approx(0.39604, abs=1e-5), pytest.approx(0.40404, abs=1e-5))

    def test_zero_fee_is_free(self):
        drift = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert solve_cost_from_drift(50.0, drift, two_pair(0.0, 1.0).weights, CostParams(c=0.0)) == 0.0

    def test_no_move_is_free(self):
        nxt = two_pair(0.3, 0.7)
        assert solve_cost_from_drift(80.0, nxt.weights, nxt.weights, CostParams(c=0.05)) == pytest.approx(0.0, abs=1e-10)

    def test_rejects_nonpositive_capital(self):
        with pytest.raises(NonPositiveCapital):
            solve_cost_from_drift(0.0, two_pair(0.5, 0.5).weights, two_pair(0.5, 0.5).weights, CostParams(c=0.01))

    def test_large_capital_settles(self):
        # A day from a normalized backtest at capital 1.7e13: adjacent floats
        # near T are 3.8e-6 apart, so an absolute 1e-10 step never comes.
        drift = np.zeros((3, 3))
        drift[0, 1], drift[0, 2], drift[1, 2] = 0.03028007873318651, 0.07229830153064871, 0.8974216197361647
        nxt = np.zeros((3, 3))
        nxt[0, 1], nxt[0, 2], nxt[1, 2] = 0.029410472035986422, 0.06589749191679756, 0.904692036047216
        f_k = 16765245354929.578
        t = solve_cost_from_drift(f_k, drift, nxt, CostParams(c=0.005))
        assert t == pytest.approx(scan_cost_root(f_k, drift, nxt, 0.005), rel=1e-9)

    @given(st.integers(0, 100_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_independent_root_and_sandwich(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        drift = random_portfolio_weights(rng, m)
        nxt = random_portfolio_weights(rng, m)
        f_k = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.0, 0.05))
        t = solve_cost_from_drift(f_k, drift, nxt, CostParams(c=c))
        assert abs(t - scan_cost_root(f_k, drift, nxt, c)) <= 1e-8
        delta = f_k * naive_delta(nxt, drift)
        lo, hi = cost_bounds(delta, c)
        assert lo - 1e-9 <= t <= hi + 1e-9


def naive_delta(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).sum())


class TestCostBounds:
    def test_pinned_values(self):
        lo, hi = cost_bounds(50.0, 0.01)
        assert lo == pytest.approx(0.49505, abs=1e-5)
        assert hi == pytest.approx(0.50505, abs=1e-5)

    def test_zero_fee_collapses(self):
        assert cost_bounds(50.0, 0.0) == (0.0, 0.0)

    def test_rejects_negative_turnover(self):
        with pytest.raises(InvalidParams):
            cost_bounds(-1.0, 0.01)

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_rejects_non_finite_turnover(self, delta):
        with pytest.raises(InvalidParams, match=f"turnover must be finite and >= 0, got {delta!r}"):
            cost_bounds(delta, 0.01)

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_ordered(self, delta, c):
        lo, hi = cost_bounds(delta, c)
        assert 0.0 <= lo <= hi


class TestCostRatioBound:
    def test_pinned_iitc_value(self):
        got = cost_ratio_bound("iitc", 0.1, 0.5, 0.01)
        assert got == pytest.approx((0.01 / 0.99) * math.expm1(0.05), rel=1e-12)
        assert got == pytest.approx(5.179e-4, abs=5e-7)

    def test_eiitc_rescales_gamma(self):
        iitc = cost_ratio_bound("iitc", 0.1, 0.5, 0.01)
        eiitc = cost_ratio_bound("eiitc", 0.1, 0.5, 0.01)
        assert eiitc == pytest.approx(cost_ratio_bound("iitc", 0.2, 0.5, 0.01), rel=1e-12)
        assert eiitc > iitc

    def test_zero_gamma_means_no_rebalancing(self):
        assert cost_ratio_bound("iitc", 0.0, 0.5, 0.01) == 0.0

    def test_rejects_unknown_rule(self):
        with pytest.raises(InvalidParams):
            cost_ratio_bound("mirror", 0.1, 0.5, 0.01)

    @pytest.mark.parametrize("gamma", [-0.1, math.nan, math.inf])
    def test_rejects_a_bad_gamma_as_update_config_does(self, gamma):
        with pytest.raises(InvalidParams, match=rf"^gamma must be finite and >= 0, got {gamma!r}$"):
            cost_ratio_bound("iitc", gamma, 0.5, 0.01)

    def test_rejects_floor_outside_unit_interval(self):
        with pytest.raises(InvalidParams):
            cost_ratio_bound("iitc", 0.1, 1.0, 0.01)

    @given(
        st.sampled_from(["iitc", "eiitc"]),
        st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    )
    @settings(max_examples=200)
    def test_monotone_in_fee_and_gamma(self, rule, gamma, r_floor, c):
        bound = cost_ratio_bound(rule, gamma, r_floor, c)
        assert bound >= 0.0
        assert cost_ratio_bound(rule, gamma + 0.1, r_floor, c) >= bound
        assert cost_ratio_bound(rule, gamma, r_floor, min(c + 0.1, 0.99)) >= bound


def batch_solve(f_k, drift, nxt, c):
    """fixed_point_costs of (B, m, m) grids."""
    rows = len(f_k)
    return fixed_point_costs(f_k, drift.reshape(rows, -1), nxt.reshape(rows, -1), c)


class TestBatchSolve:
    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_the_scalar_solve(self, seed, rows):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 7))
        drift = np.array([random_portfolio_weights(rng, m, sparse=True) for _ in range(rows)])
        nxt = np.array([random_portfolio_weights(rng, m) for _ in range(rows)])
        f_k = rng.choice([1e-9, 0.7, 3.0, 1e12], size=rows)
        c = rng.choice([0.0, 0.005, 0.05, 0.3, 0.9], size=rows)
        t = batch_solve(f_k, drift, nxt, c)
        for b in range(rows):
            expect = solve_cost_from_drift(float(f_k[b]), drift[b], nxt[b], CostParams(float(c[b])))
            assert t[b] == expect and type(expect) is float

    def test_a_stuck_row_raises(self):
        # A full swap at c = 0.999 contracts by 0.999 a step: about 23,000
        # steps to move less than 1e-10, past the 10,000-step cap.
        drift = np.array([[0.0, 1.0], [0.0, 0.0]])
        nxt = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NoConvergence, match="within 10000 iterations"):
            solve_cost_from_drift(1.0, drift, nxt, CostParams(0.999))
        with pytest.raises(NoConvergence, match="within 10000 iterations"):
            batch_solve(np.ones(2), np.array([drift] * 2), np.array([nxt] * 2), np.array([0.5, 0.999]))

    @pytest.mark.filterwarnings("error")
    def test_a_free_row_costs_plus_zero_whatever_its_capital(self):
        # A full swap of 1.7e308 moves more cash than a float holds: c * inf is 0 * inf at c = 0.
        drift = np.array([[0.0, 1.0], [0.0, 0.0]])
        nxt = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = batch_solve(np.array([1.7e308, 1.0]), np.array([drift] * 2), np.array([nxt] * 2), np.array([0.0, 0.3]))
        assert t[0].tobytes() == np.float64(0.0).tobytes()
        assert t[1] == solve_cost_from_drift(1.0, drift, nxt, CostParams(0.3))
        assert solve_cost_from_drift(1.7e308, drift, nxt, CostParams(0.0)) == 0.0

    @pytest.mark.parametrize("scale", [2.0**-20, 0.5, 2.0, 2.0**20])
    def test_targets_are_normalized_to_the_same_bits(self, scale):
        # Scaling a row by a power of two rounds nothing, so its normalized targets and its costs keep their bits.
        rng = np.random.default_rng(17)
        drift = np.array([random_portfolio_weights(rng, 3, sparse=True) for _ in range(4)])
        nxt = np.array([random_portfolio_weights(rng, 3) for _ in range(4)])
        f_k = np.array([1e-9, 0.7, 3.0, 1e12])
        c = np.array([0.0, 0.005, 0.05, 0.3])
        t = batch_solve(f_k, drift, nxt, c)
        assert batch_solve(f_k, drift, nxt * scale, c).tobytes() == t.tobytes()
        for b in range(4):
            assert t[b] == solve_cost_from_drift(float(f_k[b]), drift[b], nxt[b] * scale, CostParams(float(c[b])))

    def test_an_empty_batch_costs_nothing(self):
        t = fixed_point_costs(np.empty(0), np.empty((0, 4)), np.empty((0, 4)), np.empty(0))
        assert t.shape == (0,) and t.dtype == np.float64


class TestFixedPointOracle:
    """The scalar solve and every row of the batch are bit-equal to the fixed-point loop from T = 0."""

    SWAP = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]]))

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=150, deadline=None)
    def test_solves_match_the_loop(self, seed, rows):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        drift = np.array([random_portfolio_weights(rng, m, sparse=True) for _ in range(rows)])
        nxt = np.array([random_portfolio_weights(rng, m) for _ in range(rows)])
        # A row that keeps its book stops at its first iterate, as do tiny capitals.
        kept = rng.random(rows) < 0.3
        nxt[kept] = drift[kept]
        f_k = rng.choice([1e-9, 1e-3, 0.7, 3.0, 1e12], size=rows)
        c = rng.choice([0.0, 0.005, 0.05, 0.3, 0.9], size=rows)
        batch = batch_solve(f_k, drift, nxt, c)
        for b in range(rows):
            expect = np.float64(oracle_fixed_point_cost(float(f_k[b]), drift[b], nxt[b], float(c[b]))).tobytes()
            scalar = solve_cost_from_drift(float(f_k[b]), drift[b], nxt[b], CostParams(float(c[b])))
            assert np.float64(scalar).tobytes() == expect
            assert batch[b].tobytes() == expect

    def test_a_first_iterate_of_exactly_the_tolerance_stops(self):
        # A full swap of 1e-10 at c = 0.5: T_1 = 0.5 * 2e-10 = FP_TOL exactly,
        # and one more evaluation would give 5e-11.
        drift, nxt = self.SWAP
        assert oracle_fixed_point_cost(1e-10, drift, nxt, 0.5) == FP_TOL
        assert solve_cost_from_drift(1e-10, drift, nxt, CostParams(0.5)) == FP_TOL
        batch = batch_solve(np.array([1e-10, 1.0]), np.array([drift] * 2), np.array([nxt] * 2), np.array([0.5, 0.3]))
        assert batch[0] == FP_TOL
        assert batch[1] == oracle_fixed_point_cost(1.0, drift, nxt, 0.3)

    # A full swap at these fee rates first steps within FP_TOL on the
    # 10,000th and the 10,001st evaluation of the map.
    @pytest.mark.parametrize("c, evaluations", [(0.9983729982, 10_000), (0.9983729993, 10_001)])
    def test_the_cap_counts_every_evaluation(self, c, evaluations):
        drift, nxt = self.SWAP
        with pytest.raises(NoConvergence):
            oracle_fixed_point_cost(1.0, drift, nxt, c, max_evaluations=evaluations - 1)
        expect = oracle_fixed_point_cost(1.0, drift, nxt, c, max_evaluations=evaluations)
        solves = (
            lambda: solve_cost_from_drift(1.0, drift, nxt, CostParams(c)),
            lambda: float(batch_solve(np.ones(2), np.array([drift] * 2), np.array([nxt] * 2), np.array([c, 0.3]))[0]),
        )
        for solve in solves:
            if evaluations <= FP_MAX_ITER:
                assert solve() == expect
            else:
                with pytest.raises(NoConvergence, match="within 10000 iterations"):
                    solve()
