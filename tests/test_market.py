"""Rate matrices, return construction, and the stacked histories of both."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fxfolio.data_io import SyntheticMarketSpec, generate_market
from fxfolio.errors import (
    ComplementarityViolation,
    FxfolioError,
    NonPositiveEntry,
    NonUnitDiagonal,
    SpreadViolation,
)
from fxfolio.market import (
    DailyQuotes,
    QuoteStack,
    RateMatrix,
    ReturnMatrix,
    ReturnStack,
    compute_return_matrix,
    compute_returns,
)

from oracles import random_return_entries


def rates(day, grid):
    return RateMatrix(day=day, entries=np.array(grid, dtype=float))


def quotes(day, open_grid, close_grid):
    return DailyQuotes.from_grids(day, np.array(open_grid, dtype=float), np.array(close_grid, dtype=float))


def random_quotes(rng, m, day=1):
    eps = rng.uniform(0.001, 0.02)
    iu, ju = np.triu_indices(m, k=1)
    out = []
    for _ in range(2):
        mids = np.exp(rng.normal(0.0, 0.2, iu.size)) + 2 * eps
        grid = np.eye(m)
        grid[iu, ju] = mids + eps
        grid[ju, iu] = mids - eps
        out.append(grid)
    return DailyQuotes.from_grids(day, out[0], out[1])


class TestRateMatrix:
    def test_two_currency_quote(self):
        # 0.7 one way, 1.429 the other; valid spread layout.
        rm = rates(1, [[1.0, 1.429], [0.7, 1.0]])
        assert rm.m == 2
        assert rm.entries[0, 1] == 1.429

    def test_equal_quotes_break_spread(self):
        with pytest.raises(SpreadViolation, match=r"\(1, 2\)|\(0, 1\)"):
            rates(1, [[1.0, 0.7], [0.7, 1.0]])

    def test_negative_entry(self):
        with pytest.raises(NonPositiveEntry):
            rates(1, [[1.0, 1.4], [-0.1, 1.0]])

    def test_non_unit_diagonal(self):
        with pytest.raises(NonUnitDiagonal):
            rates(1, [[1.1, 1.4], [0.7, 1.0]])

    def test_entries_read_only(self):
        rm = rates(1, [[1.0, 1.4], [0.7, 1.0]])
        with pytest.raises(ValueError):
            rm.entries[0, 1] = 2.0


class TestComputeReturnMatrix:
    def test_profitable_pair(self):
        q = quotes(1, [[1.0, 1.0], [0.7, 1.0]], [[1.0, 0.9], [0.8, 1.0]])
        r = compute_return_matrix(q)
        assert r.entries[0, 1] == pytest.approx(1.25, abs=1e-12)
        assert r.entries[1, 0] == 0.0

    def test_unprofitable_pair_is_zero(self):
        q = quotes(1, [[1.0, 0.8], [0.6, 1.0]], [[1.0, 1.1], [1.0, 1.0]])
        r = compute_return_matrix(q)
        assert r.entries[0, 1] == 0.0

    def test_flat_day_fires_at_spread_ratio(self):
        # Unchanged quotes still leave open-sell above close-buy by the spread.
        grid = [[1.0, 1.2], [0.9, 1.0]]
        r = compute_return_matrix(quotes(1, grid, grid))
        assert r.entries[0, 1] == pytest.approx(1.2 / 0.9, rel=1e-12)
        assert r.entries[1, 0] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_invariants_on_random_quotes(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        try:
            r = compute_return_matrix(random_quotes(rng, m))
        except ComplementarityViolation:
            return  # random walks may cross the spread; flagged, not silently fixed
        assert np.all(np.diag(r.entries) == 0.0)
        assert np.all(r.entries >= 0.0)
        both = (np.triu(r.entries, 1) > 0) & (np.tril(r.entries, -1).T > 0)
        assert not both.any()


class TestReturnMatrixType:
    def test_both_fire_rejected(self):
        with pytest.raises(ComplementarityViolation):
            ReturnMatrix(day=1, entries=np.array([[0.0, 1.2], [1.1, 0.0]]))

    def test_random_complementary_grids_accepted(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            ReturnMatrix(day=1, entries=random_return_entries(rng, m))


def day_bits(days):
    """Each day of a stack, or of a list of one-day objects, as (day, bit patterns of its grids)."""
    if isinstance(days, QuoteStack):
        return [(int(d), (o.tobytes(), c.tobytes())) for d, o, c in zip(days.days, days.open, days.close)]
    if isinstance(days, ReturnStack):
        return [(int(d), (g.tobytes(),)) for d, g in zip(days.days, days.grids)]
    grids = lambda x: (x.open_rates.entries, x.close_rates.entries) if hasattr(x, "open_rates") else (x.entries,)  # noqa: E731
    return [(x.day, tuple(g.tobytes() for g in grids(x))) for x in days]


def outcome(fn, *args):
    """The days a call returns as bits, or the class and message of what it raises."""
    try:
        return day_bits(fn(*args))
    except FxfolioError as exc:
        return type(exc), str(exc)


@st.composite
def faulty_quotes(draw):
    """A generated quote history with at most one injected fault on a drawn day."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    spec = SyntheticMarketSpec(m=m, n_days=n, seed=draw(st.integers(0, 2**32 - 1)), normalize=draw(st.booleans()))
    market = generate_market(spec)
    days, opens, closes = market.days * draw(st.integers(1, 3)), market.open.copy(), market.close.copy()
    k = draw(st.integers(0, n - 1))
    i, j = sorted(draw(st.permutations(range(m)))[:2])
    grid = draw(st.sampled_from([opens, closes]))
    fault = draw(
        st.sampled_from(["none", "nan", "inf", "zero", "negative", "diagonal", "spread", "both ways", "at par", "overflow", "days"])
    )
    if fault in ("nan", "inf", "zero", "negative"):
        a, b = draw(st.sampled_from([(i, j), (j, i)]))
        grid[k, a, b] = {"nan": np.nan, "inf": np.inf, "zero": 0.0, "negative": -1.0}[fault]
    elif fault == "diagonal":
        grid[k, i, i] = 1.5
    elif fault == "spread":
        grid[k, i, j], grid[k, j, i] = grid[k, j, i], grid[k, i, j]
    elif fault == "both ways":
        opens[k, i, j], opens[k, j, i], closes[k, i, j], closes[k, j, i] = 1.10, 1.00, 0.99, 0.98
    elif fault == "at par":  # open sell equals close buy: the pair does not fire
        closes[k, j, i] = opens[k, i, j]
        closes[k, i, j] = 2.0 * opens[k, i, j]
    elif fault == "overflow":
        opens[k, i, j], closes[k, i, j], closes[k, j, i] = 1e300, 1e-10, 1e-11
    elif fault == "days":
        days[k] = days[k - 1] if k else days[1]
    return days, opens, closes


STACKS = settings(max_examples=150, deadline=None)


class TestStacksAgainstDayByDay:
    @given(faulty_quotes())
    @STACKS
    def test_quote_stack_matches_the_one_day_checks(self, market):
        assert outcome(QuoteStack, *market) == outcome(oracles.quotes_day_by_day, *market)

    @pytest.mark.filterwarnings("ignore:overflow encountered in divide:RuntimeWarning")  # the "overflow" fault
    @given(faulty_quotes())
    @STACKS
    def test_compute_returns_matches_compute_return_matrix(self, market):
        def day_by_day(*market):
            return [compute_return_matrix(q) for q in oracles.quotes_day_by_day(*market)]

        assert outcome(lambda *a: compute_returns(QuoteStack(*a)), *market) == outcome(day_by_day, *market)

    @given(
        m=st.integers(2, 4),
        n=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        fault=st.sampled_from(["none", "nan", "inf", "negative", "diagonal", "mirrored", "days"]),
        data=st.data(),
    )
    @STACKS
    def test_return_stack_matches_the_one_day_checks(self, m, n, seed, fault, data):
        rng = np.random.default_rng(seed)
        days = np.arange(1, n + 1)
        grids = np.stack([random_return_entries(rng, m) for _ in range(n)])
        k = data.draw(st.integers(0, n - 1))
        i, j = data.draw(st.permutations(range(m)))[:2]
        if fault in ("nan", "inf", "negative"):
            grids[k, i, j] = {"nan": np.nan, "inf": np.inf, "negative": -1.0}[fault]
        elif fault == "diagonal":
            grids[k, i, i] = 0.5
        elif fault == "mirrored":
            grids[k, i, j], grids[k, j, i] = 1.1, 1.2
        elif fault == "days" and n > 1:
            days[k] = days[k - 1] if k else days[1]
        assert outcome(ReturnStack, days, grids) == outcome(oracles.returns_day_by_day, days, grids)

    def test_indexing_gives_the_one_day_objects(self):
        market = generate_market(SyntheticMarketSpec(m=3, n_days=5, seed=4))
        assert len(market) == 5 and market.m == 3
        assert isinstance(market[2], DailyQuotes) and market[2].day == 3
        np.testing.assert_array_equal(market[-1].close_rates.entries, market.close[4])
        assert isinstance(market[1:3], QuoteStack) and market[1:3].days.tolist() == [2, 3]
        returns = compute_returns(market)
        assert isinstance(returns[0], ReturnMatrix)
        assert [r.day for r in returns] == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            returns.grids[0, 0, 1] = 2.0
