"""Rate matrices, return construction, and the stacked histories of both."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fxfolio.data_io import SyntheticMarketSpec, generate_market
from fxfolio.errors import (
    ComplementarityViolation,
    DayMismatch,
    FxfolioError,
    NonMonotoneDays,
    NonPositiveEntry,
    NonUnitDiagonal,
    SpreadViolation,
)
from fxfolio.market import (
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
    """The day's opening and closing RateMatrix, the two arguments of compute_return_matrix."""
    return rates(day, open_grid), rates(day, close_grid)


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
    return rates(day, out[0]), rates(day, out[1])


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
        r = compute_return_matrix(*q)
        assert r.entries[0, 1] == pytest.approx(1.25, abs=1e-12)
        assert r.entries[1, 0] == 0.0

    def test_unprofitable_pair_is_zero(self):
        q = quotes(1, [[1.0, 0.8], [0.6, 1.0]], [[1.0, 1.1], [1.0, 1.0]])
        r = compute_return_matrix(*q)
        assert r.entries[0, 1] == 0.0

    def test_flat_day_fires_at_spread_ratio(self):
        # Unchanged quotes still leave open-sell above close-buy by the spread.
        grid = [[1.0, 1.2], [0.9, 1.0]]
        r = compute_return_matrix(*quotes(1, grid, grid))
        assert r.entries[0, 1] == pytest.approx(1.2 / 0.9, rel=1e-12)
        assert r.entries[1, 0] == 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_invariants_on_random_quotes(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        try:
            r = compute_return_matrix(*random_quotes(rng, m))
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
    """Each day of a stack, a one-day object or an oracle's (day, grids) list, as (day, bit patterns of its grids)."""
    if isinstance(days, QuoteStack):
        return [(int(d), (o.tobytes(), c.tobytes())) for d, o, c in zip(days.days, days.open, days.close)]
    if isinstance(days, ReturnStack):
        return [(int(d), (g.tobytes(),)) for d, g in zip(days.days, days.grids)]
    if isinstance(days, (RateMatrix, ReturnMatrix)):
        return [(days.day, (days.entries.tobytes(),))]
    return [(day, tuple(np.asarray(g, dtype=float).tobytes() for g in grids)) for day, grids in days]


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
        opens[k, i, j], opens[k, j, i], closes[k, i, j], closes[k, j, i] = 1e300, 1e-12, 1e-10, 1e-11
    elif fault == "days":
        days[k] = days[k - 1] if k else days[1]
    return days, opens, closes


STACKS = settings(max_examples=150, deadline=None)


class TestStacksAgainstDayByDay:
    @given(faulty_quotes())
    @STACKS
    def test_quote_stack_matches_the_rate_oracle(self, market):
        assert outcome(QuoteStack, *market) == outcome(oracles.quotes_day_by_day, *market)

    @given(faulty_quotes())
    @STACKS
    def test_compute_returns_matches_the_return_oracle(self, market):
        got = outcome(lambda *a: compute_returns(QuoteStack(*a)), *market)
        assert got == outcome(oracles.compute_returns_day_by_day, *market)

    @given(faulty_quotes())
    @STACKS
    def test_one_day_objects_are_stacks_of_one(self, market):
        def checked_rates(day, grid):
            oracles.oracle_check_rates(day, grid)
            return [(day, (grid,))]

        for day, o, c in zip(*market):
            day = int(day)
            assert outcome(RateMatrix, day, o) == outcome(checked_rates, day, o)
            got = outcome(lambda: compute_return_matrix(RateMatrix(day, o), RateMatrix(day, c)))
            assert got == outcome(oracles.compute_returns_day_by_day, [day], [o], [c])

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
        for day, grid in zip(days, grids):
            assert outcome(ReturnMatrix, int(day), grid) == outcome(oracles.returns_day_by_day, [day], [grid])


# ---------------------------------------------------------------------------
# The exact class and message of each rule, on hand-made grids of day 7.

OPEN = [[1.0, 1.2, 1.5], [0.8, 1.0, 1.1], [0.6, 0.9, 1.0]]
CLOSE = [[1.0, 1.25, 1.4], [0.85, 1.0, 1.2], [0.7, 0.95, 1.0]]
RETURNS = [[0.0, 1.1, 0.0], [0.0, 0.0, 0.0], [1.3, 0.0, 0.0]]


def edited(grid, *cells):
    """A copy of grid with each (i, j, value) of cells set."""
    out = np.array(grid, dtype=float)
    for i, j, value in cells:
        out[i, j] = value
    return out


def rate_calls(o, c):
    """The stack, the one-day objects (open, then close) and the oracle, each checking day 7's open and close quotes."""
    return [
        ("stack", lambda: QuoteStack([7], [o], [c])),
        ("day", lambda: (RateMatrix(day=7, entries=o), RateMatrix(day=7, entries=c))),
        ("oracle", lambda: oracles.quotes_day_by_day([7], [o], [c])),
    ]


def return_calls(r):
    return [
        ("stack", lambda: ReturnStack([7], [r])),
        ("day", lambda: ReturnMatrix(day=7, entries=r)),
        ("oracle", lambda: oracles.returns_day_by_day([7], [r])),
    ]


def computed_calls(o, c):
    return [
        ("stack", lambda: compute_returns(QuoteStack([7], [o], [c]))),
        ("day", lambda: compute_return_matrix(RateMatrix(day=7, entries=o), RateMatrix(day=7, entries=c))),
        ("oracle", lambda: oracles.compute_returns_day_by_day([7], [o], [c])),
    ]


BOTH_WAYS = (edited(OPEN, (0, 1, 1.10), (1, 0, 1.00)), edited(CLOSE, (0, 1, 0.99), (1, 0, 0.98)))
OVERFLOW = (edited(OPEN, (0, 1, 1e300), (1, 0, 1e-12)), edited(CLOSE, (0, 1, 1e-10), (1, 0, 1e-11)))
RULES = [
    ("rate-entry", rate_calls(edited(OPEN, (1, 0, np.nan)), CLOSE), NonPositiveEntry,
     "day 7: rate at (1, 0) is nan, must be finite and > 0"),
    ("rate-entry-close", rate_calls(OPEN, edited(CLOSE, (2, 1, 0.0))), NonPositiveEntry,
     "day 7: rate at (2, 1) is 0.0, must be finite and > 0"),
    ("rate-diagonal", rate_calls(edited(OPEN, (2, 2, 1.5)), CLOSE), NonUnitDiagonal,
     "day 7: diagonal entry (2, 2) is 1.5, must be 1"),
    ("spread", rate_calls(edited(OPEN, (0, 2, 0.6), (2, 0, 0.6)), CLOSE), SpreadViolation,
     "day 7: sell quote at (0, 2) = 0.6 does not exceed buy quote at (2, 0) = 0.6"),
    ("open-before-close", rate_calls(edited(OPEN, (1, 2, 0.5)), edited(CLOSE, (0, 1, -1.0))), SpreadViolation,
     "day 7: sell quote at (1, 2) = 0.5 does not exceed buy quote at (2, 1) = 0.9"),
    ("return-entry", return_calls(edited(RETURNS, (0, 1, -1.0))), NonPositiveEntry,
     "day 7: return at (0, 1) is -1.0, must be finite and >= 0"),
    ("return-diagonal", return_calls(edited(RETURNS, (1, 1, 0.5))), NonUnitDiagonal,
     "day 7: return diagonal at (1, 1) must be 0"),
    ("mirrored-returns", return_calls(edited(RETURNS, (0, 2, 1.2))), ComplementarityViolation,
     "day 7: both mirrored returns (0, 2) and (2, 0) are positive"),
    ("both-ways", computed_calls(*BOTH_WAYS), ComplementarityViolation,
     "day 7: pair (0, 1) fires in both directions (open sell 1.1 > close buy 0.98 and open buy 1.0 > close sell 0.99)"),
    ("overflow", computed_calls(*OVERFLOW), NonPositiveEntry,
     "day 7: return at (0, 1) is inf, must be finite and >= 0"),
]
TABLE = [
    pytest.param(call, cls, message, id=f"{rule}-{kind}")
    for rule, calls, cls, message in RULES
    for kind, call in calls
]
# A one-day grid that is not square fails the stack's shape check.
SHAPE = "expected 1 square grids of size >= 2 for days of shape (1,), got shape (1, 2, 3)"
TABLE += [
    pytest.param(lambda: RateMatrix(day=7, entries=np.ones((2, 3))), DayMismatch, SHAPE, id="rate-shape-day"),
    pytest.param(lambda: ReturnMatrix(day=7, entries=np.zeros((2, 3))), DayMismatch, SHAPE, id="return-shape-day"),
]
# Open and close quotes of different sizes, in either order, and a one-day pair quoted on two days.
OPEN_4 = np.eye(4) + np.triu(np.full((4, 4), 1.2), 1) + np.tril(np.full((4, 4), 0.8), -1)
SIZES = "open grids have shape (1, {0}, {0}) but close grids have shape (1, {1}, {1})"
TABLE += [
    pytest.param(lambda: QuoteStack([7], [OPEN], [OPEN_4]), DayMismatch, SIZES.format(3, 4), id="open-3-close-4-stack"),
    pytest.param(lambda: QuoteStack([7], [OPEN_4], [CLOSE]), DayMismatch, SIZES.format(4, 3), id="open-4-close-3-stack"),
    pytest.param(lambda: compute_return_matrix(RateMatrix(day=7, entries=OPEN), RateMatrix(day=7, entries=OPEN_4)),
                 DayMismatch, SIZES.format(3, 4), id="open-3-close-4-day"),
    pytest.param(lambda: compute_return_matrix(RateMatrix(day=7, entries=OPEN_4), RateMatrix(day=7, entries=CLOSE)),
                 DayMismatch, SIZES.format(4, 3), id="open-4-close-3-day"),
    pytest.param(lambda: compute_return_matrix(RateMatrix(day=7, entries=OPEN), RateMatrix(day=8, entries=CLOSE)),
                 DayMismatch, "open rates are for day 7 but close rates are for day 8", id="two-days-day"),
]
# A day that is not an integer is refused, not truncated, ahead of the order of the days.
TABLE += [
    pytest.param(lambda: ReturnStack([1.5, 2.7], np.zeros((2, 2, 2))), DayMismatch, "day 1.5 is not an integer",
                 id="fraction-days-stack"),
    pytest.param(lambda: ReturnStack([7, 7.5, 8.7], np.zeros((3, 2, 2))), DayMismatch, "day 7.5 is not an integer",
                 id="first-fraction-day-stack"),
    pytest.param(lambda: ReturnStack([1.5, 1.9], np.zeros((2, 2, 2))), DayMismatch, "day 1.5 is not an integer",
                 id="fraction-days-truncating-to-one-day-stack"),
    pytest.param(lambda: QuoteStack([7.0, np.nan], [OPEN, OPEN], [CLOSE, CLOSE]), DayMismatch, "day nan is not an integer",
                 id="nan-day-stack"),
    pytest.param(lambda: RateMatrix(day=2.5, entries=OPEN), DayMismatch, "day 2.5 is not an integer", id="fraction-day-day"),
    # Whole float days past int64 are refused, not cast to -2**63 (array) or left to raise OverflowError (list).
    pytest.param(lambda: ReturnStack(np.array([1e19, 2e19]), np.zeros((2, 2, 2))), DayMismatch,
                 "day 1e+19 lies outside the int64 range", id="past-int64-float-array-stack"),
    pytest.param(lambda: ReturnStack([1e19, 2e19], np.zeros((2, 2, 2))), DayMismatch,
                 "day 1e+19 lies outside the int64 range", id="past-int64-float-list-stack"),
    pytest.param(lambda: ReturnStack([7.0, 9.3e18, 1e19], np.zeros((3, 2, 2))), DayMismatch,
                 "day 9.3e+18 lies outside the int64 range", id="first-day-past-int64-stack"),
    pytest.param(lambda: ReturnStack(np.array([1.0, 2.0**63]), np.zeros((2, 2, 2))), DayMismatch,
                 "day 9.223372036854776e+18 lies outside the int64 range", id="day-at-2**63-stack"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, cls, message", TABLE)
def test_each_rule_raises_its_class_and_message(call, cls, message):
    with pytest.raises(FxfolioError) as raised:
        call()
    assert (type(raised.value), str(raised.value)) == (cls, message)


def test_days_any_distance_apart_are_ordered_without_wrapping():
    """Days more than 2**63 apart increase: the order test compares them, it does not subtract them."""
    assert ReturnStack([-(2**63), 0], np.zeros((2, 2, 2))).days.tolist() == [-(2**63), 0]
    stack = QuoteStack([-(2**63), 2**63 - 1], [OPEN, OPEN], [CLOSE, CLOSE])
    assert stack.days.tolist() == [-(2**63), 2**63 - 1]
    for days in ([0, -(2**63)], [2**63 - 1, 2**63 - 1], [-(2**63), 2**63 - 1, 0]):
        with pytest.raises(NonMonotoneDays, match="^market days must be strictly increasing$"):
            ReturnStack(days, np.zeros((len(days), 2, 2)))


def test_first_day_then_first_rule():
    """Day 8's spread fault is reported before day 9's entry fault, and an earlier overflow before a later both-ways pair."""
    bad_spread, bad_entry = edited(OPEN, (0, 1, 0.5)), edited(OPEN, (0, 1, np.nan))
    with pytest.raises(SpreadViolation, match=r"^day 8: sell quote at \(0, 1\)"):
        QuoteStack([7, 8, 9], [OPEN, bad_spread, bad_entry], [CLOSE, CLOSE, CLOSE])
    with pytest.raises(NonPositiveEntry, match=r"^day 8: return at \(0, 1\) is inf"):
        compute_returns(QuoteStack([7, 8, 9], [OPEN, OVERFLOW[0], BOTH_WAYS[0]], [CLOSE, OVERFLOW[1], BOTH_WAYS[1]]))
