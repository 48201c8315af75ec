"""Portfolio matrices, the pairwise product/growth algebra, and divergences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fxfolio import portfolio as portfolio_module
from fxfolio.errors import DimensionMismatch, FxfolioError, InvalidM, SupportViolation, ZeroReturn
from fxfolio.market import ReturnMatrix
from fxfolio.portfolio import (
    PortfolioMatrix,
    check_weights,
    gross_return,
    l1_distance,
    realized_portfolio,
    relative_entropy,
    uniform_portfolio,
)

from oracles import naive_entropy, naive_l1, random_portfolio_weights, random_return_entries


def portfolio(grid, day=1):
    return PortfolioMatrix(day=day, weights=np.array(grid, dtype=float))


def returns(grid, day=1):
    return ReturnMatrix(day=day, entries=np.array(grid, dtype=float))


def two_pair(w12, w21, day=1):
    return portfolio([[0.0, w12], [w21, 0.0]], day=day)


class TestPortfolioMatrix:
    def test_uniform_weight_value(self):
        psi = uniform_portfolio(4)
        off = ~np.eye(4, dtype=bool)
        assert np.all(psi.weights[off] == 1.0 / 12.0)
        assert np.all(np.diag(psi.weights) == 0.0)

    def test_uniform_rejects_single_currency(self):
        with pytest.raises(InvalidM):
            uniform_portfolio(1)

    def test_sum_tolerance(self):
        two_pair(0.5, 0.5 + 9e-10)  # inside the 1e-9 budget
        with pytest.raises(DimensionMismatch):
            two_pair(0.5, 0.501)

    def test_negative_weight(self):
        with pytest.raises(DimensionMismatch):
            portfolio([[0.0, 1.1], [-0.1, 0.0]])

    def test_diagonal_mass(self):
        with pytest.raises(DimensionMismatch):
            portfolio([[0.5, 0.5], [0.0, 0.0]])

    def test_weights_read_only(self):
        psi = two_pair(0.5, 0.5)
        with pytest.raises(ValueError):
            psi.weights[0, 1] = 0.9


# Weights in units of 2**-40: every partial sum of a grid is exact, so the
# package and the oracle print the same total whatever order they sum in.
UNIT = 2.0**-40


def dyadic_weights(rng, m):
    """Random weights on the off-diagonal cells, some of them zero, in units summing to exactly 1."""
    w = np.zeros((m, m))
    off = ~np.eye(m, dtype=bool)
    w[off] = rng.multinomial(2**40, rng.dirichlet(np.ones(m * (m - 1)) * 0.5)) * UNIT
    return w


def plant(grid, fault, i, j):
    """grid with one fault at (i, j), i != j: an entry rule, the diagonal at i, or the sum moved by about 1e-9."""
    big = np.unravel_index(np.argmax(grid), grid.shape)  # at least 1/(m(m-1)), so it can give up some mass
    if fault in ("nan", "inf", "-inf", "negative"):
        grid[i, j] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -UNIT}[fault]
    elif fault == "diagonal":  # mass moved onto the diagonal, so the sum still reads 1
        grid[big] -= 2.0**-20
        grid[i, i] += 2.0**-20
    elif fault == "diagonal nan":
        grid[i, i] = np.nan
    elif fault.startswith("sum"):  # 1100 units is 1.0004e-9, just past the tolerance; 1099 units is 9.995e-10
        units = 1099 if "inside" in fault else 1100
        if fault.endswith("over"):
            grid[i, j] += units * UNIT
        else:
            grid[big] -= units * UNIT
    return grid


def raised(fn, *args):
    """The class and message fn raises, or None."""
    try:
        fn(*args)
    except FxfolioError as exc:
        return type(exc), str(exc)
    return None


def weights_day_by_day(days, grids):
    for day, grid in zip(days, grids):
        oracles.oracle_check_weights(int(day), grid)


FAULTS = ["none", "nan", "inf", "-inf", "negative", "diagonal", "diagonal nan", "sum over", "sum under",
          "sum inside over", "sum inside under"]


class TestWeightRules:
    """check_weights over stacks and PortfolioMatrix, a stack of one, raise what the row-wise oracle raises."""

    @given(
        m=st.integers(2, 5),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=2),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_stacks_and_days_raise_the_oracles_error(self, m, n, seed, faults, data):
        rng = np.random.default_rng(seed)
        days = np.arange(1, n + 1) * 3
        grids = np.stack([dyadic_weights(rng, m) for _ in range(n)])
        for fault in faults:  # a second fault may land on another day, or on the same one
            k = data.draw(st.integers(0, n - 1))
            i, j = data.draw(st.permutations(range(m)))[:2]
            plant(grids[k], fault, i, j)
        assert raised(check_weights, days, grids) == raised(weights_day_by_day, days, grids)
        for day, grid in zip(days, grids):
            assert raised(PortfolioMatrix, int(day), grid) == raised(oracles.oracle_check_weights, int(day), grid)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nan", "day 5: weight at (0, 1) is nan, must be finite and >= 0"),
            ("negative", f"day 5: weight at (0, 1) is {-UNIT!r}, must be finite and >= 0"),
            ("diagonal", "day 5: diagonal weight at (0, 0) must be 0"),
            ("diagonal nan", "day 5: weight at (0, 0) is nan, must be finite and >= 0"),
            ("sum over", f"day 5: weights sum to {1.0 + 1100 * UNIT!r}, must be 1 within 1e-09"),
            ("sum under", f"day 5: weights sum to {1.0 - 1100 * UNIT!r}, must be 1 within 1e-09"),
            ("sum inside over", None),
            ("sum inside under", None),
        ],
        ids=["nan", "negative", "diagonal", "diagonal nan", "sum over", "sum under", "sum inside over", "sum inside under"],
    )
    def test_each_rule_on_the_second_of_three_days(self, fault, message):
        rng = np.random.default_rng(3)
        grids = np.stack([dyadic_weights(rng, 3) for _ in range(3)])
        plant(grids[1], fault, 0, 1)
        expected = None if message is None else (DimensionMismatch, message)
        assert raised(check_weights, [4, 5, 6], grids) == expected
        assert raised(PortfolioMatrix, 5, grids[1]) == expected
        assert raised(weights_day_by_day, [4, 5, 6], grids) == expected

    def test_the_first_failing_day_raises_as_its_row(self):
        rng = np.random.default_rng(4)
        grids = np.stack([dyadic_weights(rng, 4) for _ in range(4)])
        plant(grids[3], "negative", 2, 1)
        plant(grids[1], "sum over", 0, 3)
        plant(grids[2], "nan", 1, 0)
        with pytest.raises(DimensionMismatch, match=r"^day 2: weights sum to") as caught:
            check_weights([1, 2, 3, 4], grids)
        assert caught.value.row == 1
        assert raised(weights_day_by_day, [1, 2, 3, 4], grids) == (DimensionMismatch, str(caught.value))

    def test_a_sum_exactly_at_the_tolerance_is_inside(self, monkeypatch):
        # No float64 total lies exactly 1e-9 from 1, so a tolerance of 2**-30 stands in for it.
        monkeypatch.setattr(portfolio_module, "WEIGHT_SUM_TOL", 2.0**-30)
        two_pair(0.5, 0.5 + 2.0**-30)
        with pytest.raises(DimensionMismatch, match="weights sum to"):
            two_pair(0.5, 0.5 + 2.0**-29)


class TestGrossReturn:
    def test_pinned_value(self):
        psi = two_pair(0.5, 0.5)
        assert gross_return(psi, returns([[0.0, 1.2], [0.0, 0.0]])) == pytest.approx(0.6, abs=1e-12)

    def test_matches_hadamard_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            psi = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m))
            r = ReturnMatrix(day=1, entries=random_return_entries(rng, m))
            assert gross_return(psi, r) == pytest.approx(float((psi.weights * r.entries).sum()), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gross_return(uniform_portfolio(3), returns([[0.0, 1.2], [0.0, 0.0]]))


class TestRealizedPortfolio:
    def test_pinned_three_currency_split(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[0, 2] = 0.5
        psi = PortfolioMatrix(day=1, weights=w)
        r = np.zeros((3, 3))
        r[0, 1], r[0, 2] = 1.2, 0.8
        out = realized_portfolio(psi, ReturnMatrix(day=1, entries=r))
        assert out.weights[0, 1] == pytest.approx(0.6, abs=1e-12)
        assert out.weights[0, 2] == pytest.approx(0.4, abs=1e-12)

    def test_zero_growth_rejected(self):
        psi = two_pair(1.0, 0.0)
        with pytest.raises(ZeroReturn):
            realized_portfolio(psi, returns([[0.0, 0.0], [1.3, 0.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_stays_on_simplex_and_in_support(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        psi = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m, sparse=True))
        r = ReturnMatrix(day=1, entries=random_return_entries(rng, m, fire_prob=0.9))
        try:
            out = realized_portfolio(psi, r)
        except ZeroReturn:
            assert gross_return(psi, r) == 0.0
            return
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.weights >= 0.0)
        assert np.all(out.weights[psi.weights == 0.0] == 0.0)


class TestL1Distance:
    def test_pinned_value(self):
        assert l1_distance(two_pair(0.5, 0.5), two_pair(0.25, 0.75)) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        ps = [PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m)) for _ in range(3)]
        a, b, c = ps
        dab = l1_distance(a, b)
        assert dab == pytest.approx(naive_l1(a.weights, b.weights), rel=1e-12)
        assert dab == l1_distance(b, a)
        assert 0.0 <= dab <= 2.0 + 1e-12
        assert l1_distance(a, c) <= dab + l1_distance(b, c) + 1e-12
        assert l1_distance(a, a) == 0.0


class TestRelativeEntropy:
    def test_pinned_value(self):
        d = relative_entropy(two_pair(0.5, 0.5), two_pair(0.25, 0.75))
        assert d == pytest.approx(0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), abs=1e-12)
        assert d == pytest.approx(0.14384, abs=5e-6)

    def test_zero_on_identical(self):
        psi = two_pair(0.3, 0.7)
        assert relative_entropy(psi, psi) == 0.0

    def test_escaping_support_rejected(self):
        with pytest.raises(SupportViolation):
            relative_entropy(two_pair(0.5, 0.5), two_pair(1.0, 0.0))

    def test_zero_log_zero_dropped(self):
        # Mass missing from the left argument contributes nothing.
        d = relative_entropy(two_pair(1.0, 0.0), two_pair(0.5, 0.5))
        assert d == pytest.approx(math.log(2.0), rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        base = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m))
        nxt = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m, sparse=True))
        d = relative_entropy(nxt, base)
        assert d >= -1e-15
        assert d == pytest.approx(naive_entropy(nxt.weights, base.weights), rel=1e-10, abs=1e-12)
