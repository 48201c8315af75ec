"""The daily simulation loop, its growth metrics, and the guarantee checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxfolio.backtest import (
    BacktestLedger,
    GammaSchedule,
    GapResult,
    LinearPredictor,
    UpdateConfig,
    block_partition,
    cumulative_return,
    cumulative_return_net,
    growth_rate,
    growth_rate_net,
    pair_gap,
    predict,
    run_backtest,
    single_pair_growth_rate,
    sweep,
    universality_gap,
)
from fxfolio.costs import CostParams
from fxfolio.crossrate import PredictorConfig, SegmentConfig, segment_success_rates
from fxfolio.data_io import (
    SyntheticMarketSpec,
    SyntheticOrderSpec,
    generate_market,
    generate_order_process,
    normalized_returns,
    symmetric_masses,
    write_rates,
    write_returns,
)
from fxfolio.errors import (
    CostRatioAtLeastOne,
    EmptyLedger,
    FxfolioError,
    InvalidBlockUnit,
    InvalidParams,
    NonPositiveCapital,
    NonPositiveDiamond,
    NonPositivePairReturn,
    NormalizationViolated,
    TooFewDays,
)
from fxfolio.market import RateMatrix, ReturnMatrix, ReturnStack
from fxfolio.portfolio import PortfolioMatrix, relative_entropy, uniform_portfolio
from fxfolio.updates import tilt

from oracles import (
    greedy_partition,
    oracle_grid_order,
    predictions_day_by_day,
    random_return_entries,
    segment_success_rates_loop,
)


def upper_only(value, day):
    return ReturnMatrix(day=day, entries=np.array([[0.0, value], [0.0, 0.0]]))


def stacked(days):
    """The ReturnStack of a list of ReturnMatrix days."""
    return ReturnStack([r.day for r in days], np.stack([r.entries for r in days]))


def constant_market(value, n, m=2):
    grids = np.zeros((n, m, m))
    grids[:, 0, 1] = value
    return ReturnStack(np.arange(1, n + 1), grids)


def stub_ledger(growth, ratio, m=2, config=None, returns=None, portfolios=None, next_portfolio=None):
    n = len(growth)
    growth = np.asarray(growth, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    return BacktestLedger(
        m=m,
        f0=1.0,
        config=config or {},
        day=np.arange(1, n + 1),
        capital=np.ones(n),
        capital_net=np.ones(n),
        cost=np.zeros(n),
        ratio=ratio,
        growth=growth,
        parked=np.zeros(n, dtype=bool),
        order_actual=np.zeros(n, dtype=np.int64),
        order_pred=np.full(n, -1, dtype=np.int64),
        pred_crossed_segment=np.zeros(n, dtype=bool),
        portfolios=portfolios if portfolios is not None else [uniform_portfolio(m).weights] * n,
        realized=[uniform_portfolio(m).weights] * n,
        returns=returns if returns is not None else constant_market(1.0, n, m),
        predicted=[None] * n,
        next_portfolio=next_portfolio if next_portfolio is not None else uniform_portfolio(m).weights,
    )


def normalized_market(seed, m=3, n_days=60):
    spec = SyntheticMarketSpec(m=m, n_days=n_days, seed=seed, normalize=True, r_floor=0.5)
    return normalized_returns(generate_market(spec))


class TestBlockPartition:
    def test_pinned_ten_days(self):
        blocks = block_partition(10, 2)
        assert [list(b) for b in blocks] == [[1, 2], [3, 4, 5, 6], [7, 8, 9, 10]]

    def test_rejects_degenerate_units(self):
        with pytest.raises(InvalidBlockUnit):
            block_partition(10, 1)
        with pytest.raises(InvalidBlockUnit):
            block_partition(10, 10)

    @given(st.integers(2, 12), st.integers(3, 400))
    @settings(max_examples=200)
    def test_partitions_all_days(self, unit, n_days):
        if not (1 < unit < n_days):
            return
        blocks = block_partition(n_days, unit)
        flat = [d for b in blocks for d in b]
        assert flat == list(range(1, n_days + 1))
        for i, b in enumerate(blocks[:-1], start=1):
            assert len(b) == i * unit
        assert [list(b) for b in blocks] == greedy_partition(n_days, unit)


class TestGammaSchedule:
    def test_constant(self):
        g = GammaSchedule(mode="constant").per_day(5, 0.3)
        assert np.all(g == 0.3)

    def test_block_decaying_pinned(self):
        g = GammaSchedule(mode="block-decaying", block_unit=2).per_day(10, 0.6)
        np.testing.assert_allclose(g[1:3], 0.6)
        np.testing.assert_allclose(g[3:7], 0.3)
        np.testing.assert_allclose(g[7:11], 0.2)
        assert g[11] == g[10]  # the day after the horizon inherits the last block

    def test_rejects_unknown_mode(self):
        with pytest.raises(InvalidParams):
            GammaSchedule(mode="linear")

    @pytest.mark.parametrize("mode", ["constant", "block-decaying"])
    def test_rejects_block_unit_below_two(self, mode):
        with pytest.raises(InvalidBlockUnit, match="block unit must be >= 2, got 1"):
            GammaSchedule(mode=mode, block_unit=1)


class TestLinearPredictor:
    def test_rejects_nonconvex_weights(self):
        with pytest.raises(InvalidParams):
            LinearPredictor(weights=(0.5, 0.6))
        with pytest.raises(InvalidParams):
            LinearPredictor(weights=())

    def test_lag_one_echoes_last_day(self):
        history = constant_market(1.2, 3)
        out = LinearPredictor((1.0,)).predict(list(history.grids))
        np.testing.assert_array_equal(out, history.grids[-1])

    def test_short_history_renormalizes(self):
        history = constant_market(1.2, 1)
        out = LinearPredictor((0.5, 0.5)).predict(list(history.grids))
        np.testing.assert_array_equal(out, history.grids[0])

    def test_zero_weight_prefix_makes_no_prediction(self):
        grids = list(constant_market(1.2, 2).grids)
        lagged = LinearPredictor((0.0, 1.0))
        assert lagged.predict([]) is None
        assert lagged.predict(grids[:1]) is None
        np.testing.assert_array_equal(lagged.predict(grids), grids[0])

    def test_blend_may_straddle_the_diagonal(self):
        up = upper_only(1.2, 1)
        down = ReturnMatrix(day=2, entries=np.array([[0.0, 0.0], [1.1, 0.0]]))
        out = LinearPredictor((0.5, 0.5)).predict([up.entries, down.entries])
        assert out[0, 1] == pytest.approx(0.6)
        assert out[1, 0] == pytest.approx(0.55)


class TestRunBacktest:
    def test_needs_two_days(self):
        with pytest.raises(TooFewDays):
            run_backtest(constant_market(1.1, 1))

    def test_single_pair_geometric_growth(self):
        # Uniform start parks half the capital on the dead lower position
        # for one day, so the closed form carries a one-time factor 1/2.
        n = 12
        for rule in ("iitc", "eiitc"):
            ledger = run_backtest(
                constant_market(1.1, n),
                predictor=LinearPredictor((1.0,)),
                update=UpdateConfig(rule=rule, gamma=0.1),
            )
            assert ledger.capital[-1] == pytest.approx(0.5 * 1.1**n, rel=1e-12)

    def test_passive_run_follows_drift(self):
        rets = normalized_market(seed=5, m=3, n_days=40)
        ledger = run_backtest(rets, update=UpdateConfig(gamma=0.0), costs=CostParams(c=0.0))
        assert np.all(ledger.cost == 0.0)
        assert np.all(ledger.ratio == 0.0)
        assert ledger.capital[-1] == pytest.approx(cumulative_return(ledger), rel=1e-12)
        # With no prediction the queued portfolio is the drifted one.
        np.testing.assert_array_equal(ledger.next_portfolio, ledger.realized[-1])

    def test_capital_identities(self):
        rets = normalized_market(seed=9, m=4, n_days=80)
        ledger = run_backtest(
            rets,
            predictor=LinearPredictor((1.0,)),
            update=UpdateConfig(rule="eiitc", gamma=0.3),
            costs=CostParams(c=0.01),
        )
        f = ledger.capital
        fp = ledger.capital_net
        assert ledger.ratio[0] == 0.0
        for k in range(ledger.n_days):
            prev = ledger.f0 if k == 0 else f[k - 1]
            assert fp[k] == pytest.approx(prev - ledger.cost[k], rel=1e-12)
            if not ledger.parked[k]:
                diamond = float(np.sum(ledger.portfolios[k] * ledger.returns.grids[k]))
                assert f[k] == pytest.approx(fp[k] * diamond, rel=1e-9)

    def test_parked_day_carries_weights(self):
        rets = stacked([
            upper_only(1.2, 1),
            ReturnMatrix(day=2, entries=np.array([[0.0, 0.0], [1.3, 0.0]])),
            upper_only(1.1, 3),
        ])
        ledger = run_backtest(rets, update=UpdateConfig(gamma=0.0))
        # Day 1 drift concentrates on (0, 1); day 2 fires only (1, 0).
        assert ledger.parked[1]
        assert ledger.growth[1] == 1.0
        assert ledger.cost[1] == 0.0
        np.testing.assert_array_equal(ledger.portfolios[2], ledger.portfolios[1])

    def test_causality(self):
        rets = normalized_market(seed=11, m=3, n_days=30)
        base = run_backtest(rets, predictor=LinearPredictor((1.0,)), update=UpdateConfig(gamma=0.2))
        cut = 20
        grids = rets.grids.copy()
        grids[cut] *= 0.9
        bumped = ReturnStack(rets.days, grids)
        other = run_backtest(bumped, predictor=LinearPredictor((1.0,)), update=UpdateConfig(gamma=0.2))
        np.testing.assert_array_equal(base.capital[:cut], other.capital[:cut])
        np.testing.assert_array_equal(base.cost[: cut + 1], other.cost[: cut + 1])
        for k in range(cut):
            np.testing.assert_array_equal(base.portfolios[k], other.portfolios[k])

    def test_eiitc_degenerate_prediction_carries_drift(self):
        # On an upper-only market every flip prediction has zero overlap
        # with the drifted book; the tilt's continuous limit is no tilt.
        rets = constant_market(1.1, 12)
        cfg = PredictorConfig(mpcr=2, mpo=1, segment=SegmentConfig(L=5))
        ledger = run_backtest(rets, predictor=cfg, update=UpdateConfig(rule="eiitc", gamma=0.5))
        assert np.any(ledger.order_pred == 2)  # flips were actually predicted
        for k in range(1, ledger.n_days):
            np.testing.assert_array_equal(ledger.portfolios[k], ledger.realized[k - 1])

    def test_crossrate_predictor_waits_for_first_segment(self):
        rets = normalized_market(seed=3, m=3, n_days=20)
        cfg = PredictorConfig(mpcr=1, mpo=1, segment=SegmentConfig(L=5))
        ledger = run_backtest(rets, predictor=cfg, update=UpdateConfig(gamma=0.2))
        assert np.all(ledger.order_pred[:5] == -1)
        assert np.all(ledger.order_pred[5:] >= 0)

    def test_block_decaying_rates_come_from_the_update(self):
        rets = normalized_market(seed=2, m=3, n_days=30)
        schedule = GammaSchedule(mode="block-decaying", block_unit=5)
        ledger = run_backtest(rets, LinearPredictor((1.0,)), UpdateConfig(gamma=0.5), schedule=schedule)
        assert ledger.config["update"]["gamma"] == 0.5
        assert ledger.config["schedule"] == {"mode": "block-decaying", "block_unit": 5}
        rates = schedule.per_day(30, 0.5)
        # Blocks cover days 1-5, 6-15 and 16-30.
        assert (rates[5], rates[6], rates[16], rates[31]) == (0.5, 0.25, 0.5 / 3, 0.5 / 3)
        for k in range(1, 30):
            expect = tilt("iitc", ledger.realized[k - 1], ledger.predicted[k], float(rates[k + 1]), 0.0)
            assert same_bits(ledger.portfolios[k], expect), k

    def test_config_echo(self):
        rets = normalized_market(seed=3, m=3, n_days=10)
        ledger = run_backtest(rets, predictor=LinearPredictor((1.0,)), f0=2.5)
        assert ledger.config["f0"] == 2.5
        assert ledger.config["m"] == 3
        assert ledger.config["n_days"] == 10
        assert ledger.config["predictor"] == {"kind": "linear", "weights": [1.0]}
        assert ledger.config["update"] == {"rule": "iitc", "gamma": 0.1, "support_floor": 0.0}
        assert ledger.config["schedule"] == {"mode": "constant", "block_unit": 5}
        assert ledger.config["costs"] == {"c": 0.0}


    def test_large_capital_settles_the_cost(self):
        # Capital compounds past 1e13 on this normalized market, where
        # adjacent floats near the daily cost lie further apart than 1e-10.
        quotes = generate_market(SyntheticMarketSpec(m=3, n_days=300, seed=2, normalize=True))
        ledger = run_backtest(quotes, predictor=LinearPredictor((0.6, 0.4)), costs=CostParams(c=0.005))
        assert ledger.n_days == 300
        assert ledger.capital[-1] > 1e90


def order_market(orders):
    """2-currency days of the given orders: 1 fires (0, 1), 2 fires (1, 0), 0 fires nothing."""
    grids = np.zeros((len(orders), 2, 2))
    grids[np.array(orders) == 1, 0, 1] = 1.2
    grids[np.array(orders) == 2, 1, 0] = 1.2
    return ReturnStack(np.arange(1, len(orders) + 1), grids)


class TestCrossedSegment:
    # L = 3 and mpcr 1.  Every completed segment of FLIP has plain and
    # adjusted cross rate >= 1/2, every one of PERSIST < 1/2, so each
    # sequence keeps one branch of the flip test on all prediction days.
    # A day is crossed when its reference day lies before its segment:
    # ref <= 3 for days 4-6, ref <= 6 for days 7-9.
    FLIP = [1, 2, 1, 0, 2, 0, 1, 2, 0]
    PERSIST = [1, 1, 1, 1, 1, 0, 0, 1, 1]

    @pytest.mark.parametrize(
        "orders, mpo, adjusted, crossed",
        [
            # ref = k, the latest day.
            (FLIP, 1, False, [0, 0, 0, 1, 0, 0, 1, 0, 0]),
            # ref = k - 1.
            (FLIP, 2, False, [0, 0, 0, 1, 1, 0, 1, 1, 0]),
            # ref = latest decisive day: 3, 3, 5, 5, 7, 8.
            (FLIP, 1, True, [0, 0, 0, 1, 1, 0, 1, 0, 0]),
            # ref = the decisive day before it: 2, 2, 3, 3, 5, 7.
            (FLIP, 2, True, [0, 0, 0, 1, 1, 1, 1, 1, 0]),
            (PERSIST, 1, False, [0, 0, 0, 1, 0, 0, 1, 0, 0]),
            (PERSIST, 2, False, [0, 0, 0, 1, 0, 0, 1, 0, 0]),
            # ref = latest decisive day: 3, 4, 5, 5, 5, 8.
            (PERSIST, 1, True, [0, 0, 0, 1, 0, 0, 1, 1, 0]),
            (PERSIST, 2, True, [0, 0, 0, 1, 0, 0, 1, 1, 0]),
        ],
    )
    def test_pinned_per_branch(self, orders, mpo, adjusted, crossed):
        cfg = PredictorConfig(mpcr=1, mpo=mpo, adjusted=adjusted, segment=SegmentConfig(L=3))
        ledger = run_backtest(order_market(orders), predictor=cfg)
        assert ledger.order_actual.tolist() == orders
        assert ledger.pred_crossed_segment.tolist() == [bool(c) for c in crossed]


class TestGrowthMetrics:
    def test_final_return_product(self):
        assert cumulative_return(stub_ledger([1.1, 0.9], [0.0, 0.0])) == pytest.approx(0.99, rel=1e-12)

    def test_growth_rate_of_e(self):
        assert growth_rate(stub_ledger([math.e, math.e], [0.0, 0.0])) == pytest.approx(1.0, rel=1e-12)

    def test_log_identity(self):
        rng = np.random.default_rng(2)
        growths = rng.uniform(0.5, 1.5, 17)
        led = stub_ledger(growths, np.zeros(17))
        assert cumulative_return(led) == pytest.approx(math.exp(17 * growth_rate(led)), rel=1e-12)

    def test_net_metrics_pinned(self):
        led = stub_ledger([1.0, 1.0], [0.01, 0.01])
        assert cumulative_return_net(led) == pytest.approx(0.9801, rel=1e-12)
        assert growth_rate_net(led) == pytest.approx(math.log(0.99), rel=1e-12)

    def test_net_equals_gross_without_costs(self):
        led = stub_ledger([1.2, 0.8, 1.05], [0.0, 0.0, 0.0])
        assert cumulative_return_net(led) == cumulative_return(led)
        assert growth_rate_net(led) == growth_rate(led)

    def test_net_never_exceeds_gross(self):
        rng = np.random.default_rng(4)
        led = stub_ledger(rng.uniform(0.5, 1.5, 9), rng.uniform(0.0, 0.02, 9))
        assert growth_rate_net(led) <= growth_rate(led)

    def test_decomposition(self):
        rng = np.random.default_rng(6)
        ratios = np.concatenate([[0.0], rng.uniform(0.0, 0.05, 9)])
        led = stub_ledger(rng.uniform(0.5, 1.5, 10), ratios)
        expect = growth_rate(led) + float(np.mean(np.log1p(-led.ratio)))
        assert growth_rate_net(led) == pytest.approx(expect, rel=1e-12)

    def test_error_cases(self):
        with pytest.raises(EmptyLedger):
            cumulative_return(stub_ledger([], []))
        with pytest.raises(NonPositiveDiamond):
            growth_rate(stub_ledger([1.0, 0.0], [0.0, 0.0]))
        with pytest.raises(CostRatioAtLeastOne):
            cumulative_return_net(stub_ledger([1.0], [1.0]))


class TestSinglePairBenchmark:
    def test_pinned_value(self):
        rets = stacked([upper_only(1.21, 1), upper_only(1.0, 2)])
        assert single_pair_growth_rate(rets, 0, 1) == pytest.approx(math.log(1.21) / 2.0, rel=1e-12)

    def test_constant_one_is_flat(self):
        assert single_pair_growth_rate(constant_market(1.0, 5), 0, 1) == 0.0

    def test_dead_day_rejected(self):
        rets = stacked([upper_only(1.2, 1), upper_only(1.1, 2)])
        with pytest.raises(NonPositivePairReturn):
            single_pair_growth_rate(rets, 1, 0)


class TestMarketIsAStack:
    """Past the loaders and generators a market is a stack; a list of one-day objects is refused by type."""

    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda days, path: run_backtest(days), "QuoteStack or ReturnStack"),
            (lambda days, path: sweep(days, None, [(UpdateConfig(), CostParams(0.0))]), "QuoteStack or ReturnStack"),
            (lambda days, path: single_pair_growth_rate(days, 0, 1), "ReturnStack"),
            (write_returns, "ReturnStack"),
            (write_rates, "QuoteStack"),
        ],
        ids=["run_backtest", "sweep", "single_pair_growth_rate", "write_returns", "write_rates"],
    )
    @pytest.mark.parametrize("kind", ["returns", "quotes"])
    def test_refuses_a_list(self, tmp_path, call, expected, kind):
        if kind == "returns":
            market = constant_market(1.1, 3)
            one_day = [ReturnMatrix(day=d, entries=g) for d, g in zip(market.days.tolist(), market.grids)]
        else:
            market = generate_market(SyntheticMarketSpec(m=2, n_days=3, seed=1))
            one_day = [(RateMatrix(day=d, entries=o), RateMatrix(day=d, entries=c))
                       for d, o, c in zip(market.days.tolist(), market.open, market.close)]
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidParams, match=f"^market must be a {expected}, got list$"):
            call(one_day, path)
        assert not path.exists()


def pair_gap_args(ledger, pair):
    """pair_gap's arguments up to the rule, as universality_gap reads them from a ledger."""
    i, j = pair
    benchmark = single_pair_growth_rate(ledger.returns, i, j)
    return ledger.growth, ledger.ratio, benchmark, float(ledger.portfolios[0][i, j]), float(ledger.next_portfolio[i, j]), pair


class TestPairGap:
    def test_eiitc_bound_is_weaker(self):
        args = pair_gap_args(TestUniversalityGap().trivial_ledger(), (0, 1))
        a = pair_gap(*args, "iitc", 0.2, 0.5)
        b = pair_gap(*args, "eiitc", 0.2, 0.5)
        assert b.rhs_bound <= a.rhs_bound


class TestUniversalityGap:
    def trivial_config(self, rule="iitc", gamma=0.0):
        return {
            "predictor": {"kind": "linear", "weights": [1.0]},
            "update": {"rule": rule, "gamma": gamma, "support_floor": 0.0},
            "schedule": {"mode": "constant", "block_unit": 5},
        }

    def trivial_ledger(self):
        rets = constant_market(1.0, 2)  # pair sum exactly 1 each day
        return stub_ledger([1.0, 1.0], [0.0, 0.0], config=self.trivial_config(), returns=rets)

    def test_degenerate_bound_is_zero(self):
        out = universality_gap(self.trivial_ledger(), (0, 1), 0.5)
        assert out.rhs_bound == 0.0
        assert out.lhs_gap >= 0.0
        assert out.holds

    def test_single_normalized_run_holds(self):
        rets = normalized_market(seed=17, m=3, n_days=120)
        ledger = run_backtest(
            rets,
            predictor=LinearPredictor((1.0,)),
            update=UpdateConfig(rule="iitc", gamma=0.1),
            costs=CostParams(c=0.005),
        )
        for i in range(3):
            for j in range(i + 1, 3):
                out = universality_gap(ledger, (i, j), 0.5)
                assert out.holds, (i, j, out)

    def test_judges_the_runs_own_rule_and_gamma(self):
        rets = normalized_market(seed=5, m=3, n_days=60)
        ledger = run_backtest(rets, predictor=LinearPredictor((1.0,)), update=UpdateConfig(rule="eiitc", gamma=0.5))
        args = pair_gap_args(ledger, (0, 2))
        assert universality_gap(ledger, (0, 2), 0.5) == pair_gap(*args, "eiitc", 0.5, 0.5)
        assert universality_gap(ledger, (0, 2), 0.5) != pair_gap(*args, "iitc", 0.5, 0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -0.1])
    def test_refuses_a_bad_echoed_gamma(self, gamma):
        led = stub_ledger([1.0, 1.0], [0.0, 0.0], config=self.trivial_config(gamma=gamma), returns=constant_market(1.0, 2))
        with pytest.raises(InvalidParams, match=rf"^gamma must be finite and >= 0, got {gamma!r}$"):
            universality_gap(led, (0, 1), 0.5)

    def test_refuses_an_unknown_echoed_rule(self):
        led = stub_ledger([1.0, 1.0], [0.0, 0.0], config=self.trivial_config(rule="ogd"), returns=constant_market(1.0, 2))
        with pytest.raises(InvalidParams, match="rule must be 'iitc' or 'eiitc', got 'ogd'"):
            universality_gap(led, (0, 1), 0.5)

    def test_refuses_crossrate_predictions(self):
        led = self.trivial_ledger()
        led.config["predictor"] = {"kind": "crossrate"}
        with pytest.raises(NormalizationViolated, match="^guarantee needs a linear predictor, run used 'crossrate'$"):
            universality_gap(led, (0, 1), 0.5)
        assert isinstance(pair_gap(*pair_gap_args(led, (0, 1)), "iitc", 0.0, 0.5), GapResult)

    @pytest.mark.parametrize(
        "section, key, value, problem",
        [
            ("update", "support_floor", 0.1, "guarantee needs support_floor 0"),
            ("schedule", "mode", "block-decaying", "guarantee needs a constant learning rate"),
        ],
    )
    def test_refuses_runs_outside_the_hypotheses(self, section, key, value, problem):
        led = self.trivial_ledger()
        led.config[section][key] = value
        with pytest.raises(NormalizationViolated, match=f"^{problem}$"):
            universality_gap(led, (0, 1), 0.5)

    def test_refuses_unnormalized_returns(self):
        led = stub_ledger([1.0, 1.0], [0.0, 0.0], config=self.trivial_config(), returns=constant_market(1.3, 2))
        with pytest.raises(NormalizationViolated):
            universality_gap(led, (0, 1), 0.5)

    def test_names_the_first_unnormalized_day(self):
        rets = stacked([upper_only(1.0, 1), upper_only(1.0, 2), upper_only(0.4, 3), upper_only(1.3, 4)])
        led = stub_ledger([1.0] * 4, [0.0] * 4, config=self.trivial_config(), returns=rets)
        with pytest.raises(NormalizationViolated, match=r"^day 3: pair return sums in \[0.4, 0.4\] violate"):
            universality_gap(led, (0, 1), 0.5)

    @given(st.integers(0, 1000), st.lists(st.integers(0, 29), min_size=1, max_size=3), st.sampled_from([0.4, 0.9, 1.2]))
    @settings(max_examples=40, deadline=None)
    def test_first_unnormalized_day_matches_a_day_by_day_scan(self, seed, days, factor):
        market = normalized_market(seed, m=3, n_days=30)
        grids = market.grids.copy()
        for d in days:
            grids[d] *= factor
        first = None
        for day, r in zip(market.days.tolist(), grids):
            sums = [r[i, j] + r[j, i] for i in range(3) for j in range(i + 1, 3)]
            if abs(max(sums) - 1.0) > 1e-9 or min(sums) < 0.5 - 1e-9:
                first = day
                break
        led = stub_ledger([1.0] * 30, [0.0] * 30, m=3, config=self.trivial_config(), returns=ReturnStack(market.days, grids))
        with pytest.raises(NormalizationViolated, match=rf"^day {first}: "):
            universality_gap(led, (0, 1), 0.5)

    def test_long_run_gap_shrinks_under_decaying_schedule(self):
        # Growing blocks send gamma to zero, so the shortfall against the
        # best pair must not deepen across checkpoint horizons: either the
        # worst gap sits at the smallest horizon or every later gap clears
        # a (log N)/N envelope fitted at the first checkpoint.
        rets = normalized_market(seed=23, m=3, n_days=1600)
        checkpoints = (100, 400, 1600)
        gaps = []
        for n in checkpoints:
            ledger = run_backtest(
                ReturnStack(rets.days[:n], rets.grids[:n]),
                predictor=LinearPredictor((1.0,)),
                update=UpdateConfig(rule="iitc", gamma=0.1),
                schedule=GammaSchedule(mode="block-decaying", block_unit=5),
                costs=CostParams(c=0.005),
            )
            best = max(
                single_pair_growth_rate(ledger.returns, i, j)
                for i in range(3)
                for j in range(i + 1, 3)
            )
            gaps.append(growth_rate_net(ledger) - best)
        if min(gaps) != gaps[0]:
            scale = max(1.0, -gaps[0] * checkpoints[0] / math.log(checkpoints[0]))
            for n, gap in zip(checkpoints[1:], gaps[1:]):
                assert gap >= -scale * math.log(n) / n


class TestSegmentSuccessRates:
    def test_skips_unpredicted_segments(self):
        thetas, flags = segment_success_rates(np.array([1, 2, 1, 0, 2, 2]), np.array([-1, -1, 1, 2, 2, 2]), seg_len=2)
        assert thetas.tolist() == [0.5, 1.0]
        assert flags.tolist() == [True, True]

    def test_flat_actual_is_a_miss(self):
        thetas, flags = segment_success_rates(np.array([0, 0]), np.array([1, 2]), seg_len=2)
        assert thetas.tolist() == [0.0]
        assert flags.tolist() == [False]

    def test_rejects_bad_segment_length(self):
        with pytest.raises(InvalidParams, match="^segment length must be >= 1, got 0$"):
            segment_success_rates(np.array([1]), np.array([-1]), seg_len=0)

    @given(n=st.integers(0, 30), seg_len=st.integers(1, 6), data=st.data())
    @settings(max_examples=200)
    def test_matches_segment_by_segment(self, n, seg_len, data):
        column = lambda values: np.array(data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype=np.int64)  # noqa: E731
        order_actual = column([0, 1, 2])  # flat days included
        order_pred = column([-1, 0, 1, 2])
        thetas, flags = segment_success_rates(order_actual, order_pred, seg_len)
        assert (thetas.tolist(), flags.tolist()) == segment_success_rates_loop(order_actual, order_pred, seg_len)
        assert thetas.dtype == np.float64 and flags.dtype == bool


def drawn_market(kind, seed, m, n_days, seg_len):
    if kind == "orders":
        spec = SyntheticOrderSpec(
            segment_count=n_days // seg_len + 1, segment_length=seg_len, masses=symmetric_masses(0.78), seed=seed
        )
        return generate_order_process(spec)[0]
    quotes = generate_market(SyntheticMarketSpec(m=m, n_days=n_days, seed=seed, normalize=kind == "normalized"))
    return normalized_returns(quotes) if kind == "normalized" else quotes


class TestEngineInvariants:
    """The engine runs unchecked on grids; every ledger it writes must still check."""

    @given(
        kind=st.sampled_from(["rates", "orders", "normalized"]),
        seed=st.integers(0, 10_000),
        m=st.integers(2, 4),
        n_days=st.integers(8, 40),
        predictor=st.sampled_from(["none", "linear", "crossrate"]),
        lags=st.sampled_from([(1.0,), (0.6, 0.4), (0.5, 0.3, 0.2), (0.0, 0.6, 0.4)]),
        mpcr=st.sampled_from([1, 2]),
        mpo=st.sampled_from([1, 2]),
        adjusted=st.booleans(),
        seg_len=st.sampled_from([2, 3, 5]),
        rule=st.sampled_from(["iitc", "eiitc"]),
        gamma=st.sampled_from([0.1, 0.5, 3.0]),
        floor=st.sampled_from([0.0, 0.01, 0.2]),
        cost=st.sampled_from([0.0, 0.005, 0.05]),
    )
    @settings(max_examples=80, deadline=None)
    def test_ledger_checks(
        self, kind, seed, m, n_days, predictor, lags, mpcr, mpo, adjusted, seg_len, rule, gamma, floor, cost
    ):
        if predictor == "linear":
            pred = LinearPredictor(lags)
        elif predictor == "crossrate":
            pred = PredictorConfig(mpcr=mpcr, mpo=mpo, adjusted=adjusted, segment=SegmentConfig(L=seg_len))
        else:
            pred = None
        ledger = run_backtest(
            drawn_market(kind, seed, m, n_days, seg_len),
            predictor=pred,
            update=UpdateConfig(rule=rule, gamma=gamma, support_floor=floor),
            costs=CostParams(cost),
        )
        for k in range(ledger.n_days):
            PortfolioMatrix(day=k + 1, weights=ledger.portfolios[k])
            PortfolioMatrix(day=k + 1, weights=ledger.realized[k])
            grid = ledger.predicted[k]
            if grid is None:
                assert ledger.order_pred[k] == -1
                continue
            assert np.all(np.isfinite(grid)) and np.all(grid >= 0.0)
            assert np.all(np.diag(grid) == 0.0)
            assert ledger.order_pred[k] == oracle_grid_order(grid)
        PortfolioMatrix(day=ledger.n_days + 1, weights=ledger.next_portfolio)


def random_stack(seed, m, n_days, fire_prob):
    """Complementary random grids; with a low fire_prob many days are flat and park the book."""
    rng = np.random.default_rng(seed)
    return ReturnStack(np.arange(1, n_days + 1), [random_return_entries(rng, m, fire_prob) for _ in range(n_days)])


def drawn_predictor(kind, lags, mpcr, mpo, adjusted, seg_len):
    if kind == "linear":
        return LinearPredictor(lags)
    if kind == "crossrate":
        return PredictorConfig(mpcr=mpcr, mpo=mpo, adjusted=adjusted, segment=SegmentConfig(L=seg_len))
    return None


PREDICTORS = dict(
    kind=st.sampled_from(["none", "linear", "crossrate"]),
    lags=st.sampled_from([(1.0,), (0.6, 0.4), (0.5, 0.3, 0.2), (0.0, 0.6, 0.4)]),
    mpcr=st.sampled_from([1, 2]),
    mpo=st.sampled_from([1, 2]),
    adjusted=st.booleans(),
    seg_len=st.sampled_from([1, 2, 5]),
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestPredictionPhase:
    """predict() equals the scalar rules day by day, first days and flat days included."""

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 4),
        n_days=st.integers(1, 14),
        fire=st.sampled_from([0.3, 0.9]),
        **PREDICTORS,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_scalar_rules(self, seed, m, n_days, fire, kind, lags, mpcr, mpo, adjusted, seg_len):
        rets = random_stack(seed, m, n_days, fire)
        predictor = drawn_predictor(kind, lags, mpcr, mpo, adjusted, seg_len)
        prediction = predict(rets, predictor)
        expected = predictions_day_by_day(rets.grids, predictor)
        assert prediction.order_actual.tolist() == [oracle_grid_order(g) for g in rets.grids]
        assert len(prediction.grids) == len(expected)
        for k, (got, (grid, order, crossed)) in enumerate(zip(prediction.grids, expected)):
            assert (prediction.order_pred[k], bool(prediction.crossed[k])) == (order, crossed)
            if grid is None:
                assert got is None
            else:
                assert same_bits(got, grid) and got.flags.c_contiguous


class TestSweep:
    """Every member of a batch is bit-equal to its own run_backtest."""

    MEMBER = st.tuples(
        st.sampled_from(["iitc", "eiitc"]),
        st.sampled_from([0.0, 0.1, 0.5, 3.0]),
        st.sampled_from([0.0, 0.005, 0.05]),
    )

    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(2, 4),
        n_days=st.integers(2, 40),
        fire=st.sampled_from([0.3, 0.7, 1.0]),
        floor=st.sampled_from([0.0, 0.01]),
        f0=st.sampled_from([1.0, 3.5]),
        members=st.lists(MEMBER, min_size=1, max_size=6),
        **PREDICTORS,
    )
    @settings(max_examples=120, deadline=None)
    def test_members_match_single_runs(
        self, seed, m, n_days, fire, floor, f0, members, kind, lags, mpcr, mpo, adjusted, seg_len
    ):
        rets = random_stack(seed, m, n_days, fire)
        predictor = drawn_predictor(kind, lags, mpcr, mpo, adjusted, seg_len)
        configs = [
            (UpdateConfig(rule=rule, gamma=gamma, support_floor=floor), CostParams(c)) for rule, gamma, c in members
        ]
        runs = sweep(rets, predictor, configs, f0=f0)
        for b, (update, costs) in enumerate(configs):
            ledger = run_backtest(rets, predictor=predictor, update=update, costs=costs, f0=f0)
            for name in ("capital", "capital_net", "cost", "ratio", "growth"):
                assert same_bits(getattr(runs, name)[b], getattr(ledger, name)), name
            assert same_bits(runs.first_portfolio, ledger.portfolios[0])
            assert same_bits(runs.next_portfolio[b], ledger.next_portfolio)

    def test_parked_days_and_eiitc_fallbacks(self):
        # An upper-only market under flip predictions gives eiitc zero
        # predicted growth; its flat days park every member.
        grids = np.zeros((30, 2, 2))
        grids[::3, 0, 1] = 1.1
        rets = ReturnStack(np.arange(1, 31), grids)
        predictor = PredictorConfig(mpcr=1, mpo=1, segment=SegmentConfig(L=2))
        configs = [
            (UpdateConfig(rule=rule, gamma=gamma), CostParams(c))
            for rule in ("iitc", "eiitc")
            for gamma in (0.0, 0.5)
            for c in (0.0, 0.01)
        ]
        runs = sweep(rets, predictor, configs)
        for b, (update, costs) in enumerate(configs):
            ledger = run_backtest(rets, predictor=predictor, update=update, costs=costs)
            assert ledger.parked.sum() == 20
            assert np.any(ledger.order_pred == 2)  # flips of upper-only days
            for name in ("capital", "capital_net", "cost", "ratio", "growth"):
                assert same_bits(getattr(runs, name)[b], getattr(ledger, name)), name
            assert same_bits(runs.next_portfolio[b], ledger.next_portfolio)

    def test_needs_a_member(self):
        with pytest.raises(InvalidParams):
            sweep(constant_market(1.1, 3), None, [])

    def test_capital_underflow_names_the_day(self):
        # 1e-322 earns a quarter on day 1, then halves each day, and rounds to 0.0 on day 4.
        rets = constant_market(0.5, 8)
        message = r"^day 4: capital must be finite and > 0, got 0\.0$"
        with pytest.raises(NonPositiveCapital, match=message):
            run_backtest(rets, f0=1e-322)
        with pytest.raises(NonPositiveCapital, match=message):
            sweep(rets, None, [(UpdateConfig(), CostParams(0.0)), (UpdateConfig(), CostParams(0.01))], f0=1e-322)

def test_messages_print_plain_floats():
    messages = []

    def message(fn, *args, **kwargs):
        with pytest.raises(FxfolioError) as info:
            fn(*args, **kwargs)
        messages.append(str(info.value))

    gap_config = TestUniversalityGap().trivial_config()
    message(PortfolioMatrix, day=1, weights=np.array([[0.0, np.nan], [0.5, 0.0]]))
    upper, lower = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])
    message(relative_entropy, PortfolioMatrix(1, upper), PortfolioMatrix(1, lower))
    message(growth_rate, stub_ledger([1.0, 0.0], [0.0, 0.0]))
    message(cumulative_return_net, stub_ledger([1.0, 1.0], [0.0, 1.0]))
    message(growth_rate_net, stub_ledger([1.0, 1.0], [0.0, 1.0]))
    message(single_pair_growth_rate, constant_market(1.1, 2), 1, 0)
    message(universality_gap, stub_ledger([1.0] * 2, [0.0] * 2, config=gap_config, returns=constant_market(1.3, 2)),
            (0, 1), 0.5)
    message(pair_gap, *pair_gap_args(stub_ledger([1.0] * 2, [0.0] * 2, next_portfolio=lower), (0, 1)), "iitc", 0.0, 0.5)
    for text in messages:
        assert "np.float64" not in text, text
