"""Daily bid/ask rate matrices, the price relatives they induce, and stacked histories of both.

An m x m rate matrix quotes every currency pair once per triangle: the
entry at (i, j) with i < j is the rate at which the desk sells pair
(i, j) to the investor, the mirrored entry at (j, i) is the rate at
which it buys the pair back.  The wedge between the two is the spread,
and it must be strictly positive entrywise.

A market history is held as one stack of such grids, shape (n, m, m),
validated in one pass.  Day k of a stack is read from its arrays
(``quotes.open[k]``, ``returns.grids[k]``, ``returns.days[k]``); the
one-day objects, RateMatrix and ReturnMatrix, are each checked as a stack
of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    ComplementarityViolation,
    DayMismatch,
    InvalidParams,
    NonMonotoneDays,
    NonPositiveEntry,
    NonUnitDiagonal,
    SpreadViolation,
)


@lru_cache(maxsize=None)
def upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of an m x m grid, built once per m and read-only."""
    iu, ju = np.triu_indices(m, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


# ---------------------------------------------------------------------------
# the rules, each written once over (n, m, m) stacks
#
# A rule is the mask of shape (n, ...) where it holds, and the error it
# raises, built from the day, the day's index and the first position on
# that day where it fails.


def _raise_first(days: np.ndarray, rules) -> None:
    """Raise for the first failing day (the error's ``row``), on it the first failing rule, and in that rule the first position."""
    if all(holds.all() for holds, _ in rules):
        return
    failing = np.stack([~holds.all(axis=tuple(range(1, holds.ndim))) for holds, _ in rules])
    k = int(np.argmax(failing.any(axis=0)))
    holds, error = rules[int(np.argmax(failing[:, k]))]
    exc = error(int(days[k]), k, *(int(x) for x in np.argwhere(~holds[k])[0]))
    exc.row = k
    raise exc


def _rate_rules(grids: np.ndarray) -> list:
    iu, ju = upper_pairs(grids.shape[1])
    return [
        (np.isfinite(grids) & (grids > 0.0), lambda day, k, i, j: NonPositiveEntry(
            f"day {day}: rate at ({i}, {j}) is {float(grids[k, i, j])!r}, must be finite and > 0")),
        (np.diagonal(grids, axis1=1, axis2=2) == 1.0, lambda day, k, i: NonUnitDiagonal(
            f"day {day}: diagonal entry ({i}, {i}) is {float(grids[k, i, i])!r}, must be 1")),
        (grids[:, iu, ju] > grids[:, ju, iu], lambda day, k, p: SpreadViolation(
            f"day {day}: sell quote at ({iu[p]}, {ju[p]}) = {float(grids[k, iu[p], ju[p]])!r} does not exceed "
            f"buy quote at ({ju[p]}, {iu[p]}) = {float(grids[k, ju[p], iu[p]])!r}")),
    ]


def _entry_rules(grids: np.ndarray, noun: str) -> list:
    """The rules a return and a predicted return share, each message naming the grid by noun."""
    return [
        (np.isfinite(grids) & (grids >= 0.0), lambda day, k, i, j: NonPositiveEntry(
            f"day {day}: {noun} at ({i}, {j}) is {float(grids[k, i, j])!r}, must be finite and >= 0")),
        (np.diagonal(grids, axis1=1, axis2=2) == 0.0, lambda day, k, i: NonUnitDiagonal(
            f"day {day}: {noun} diagonal at ({i}, {i}) must be 0")),
    ]


def _return_rules(grids: np.ndarray) -> list:
    iu, ju = upper_pairs(grids.shape[1])
    return [
        *_entry_rules(grids, "return"),
        (~((grids[:, iu, ju] > 0.0) & (grids[:, ju, iu] > 0.0)), lambda day, k, p: ComplementarityViolation(
            f"day {day}: both mirrored returns ({iu[p]}, {ju[p]}) and ({ju[p]}, {iu[p]}) are positive")),
    ]


def check_rates(days: np.ndarray, *stacks: np.ndarray) -> None:
    """Check rate stacks: positive finite entries, a unit diagonal, each sell quote above its buy quote.

    The first failing day raises, and on that day the stacks are checked in
    the order given (open before close), each rule in turn, each in
    row-major order.
    """
    _raise_first(days, [rule for grids in stacks for rule in _rate_rules(grids)])


def check_returns(days: np.ndarray, grids: np.ndarray) -> None:
    """Check a return stack: nonnegative finite entries, a zero diagonal, at most one of each mirrored pair set.

    The first failing day raises, on it the first failing rule in that order.
    """
    _raise_first(days, _return_rules(grids))


def check_predictions(days: np.ndarray, grids: np.ndarray) -> None:
    """Check a stack of predicted returns: nonnegative finite entries and a zero diagonal; both mirrored cells may be set."""
    _raise_first(days, _entry_rules(grids, "predicted return"))


# ---------------------------------------------------------------------------
# stacked histories


def _read_only_stack(days, *grids) -> tuple[np.ndarray, list[np.ndarray]]:
    """Read-only copies of a day vector and its (n, m, m) float64 grid stacks, shapes checked."""
    days = np.array(days, dtype=np.int64)
    out = []
    for grid in grids:
        grid = np.array(grid, dtype=np.float64)
        if days.ndim != 1 or grid.ndim != 3 or grid.shape[0] != days.size or grid.shape[1] != grid.shape[2] or grid.shape[1] < 2:
            raise DayMismatch(f"expected {days.size} square grids of size >= 2 for days of shape {days.shape}, got shape {grid.shape}")
        grid.flags.writeable = False
        out.append(grid)
    days.flags.writeable = False
    return days, out


def _check_days(days: np.ndarray) -> None:
    if np.any(np.diff(days) <= 0):
        raise NonMonotoneDays("market days must be strictly increasing")


class _DayStack:
    days: np.ndarray

    def __len__(self) -> int:
        return self.days.size


@dataclass(frozen=True, eq=False)
class QuoteStack(_DayStack):
    """A quote history: strictly increasing days (n,) and opening and closing rate grids (n, m, m).

    Open and close share one shape, and every day passes check_rates.
    ``stack.returns`` is compute_returns(stack), computed once, on first use.
    """

    days: np.ndarray
    open: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        days, (opens, closes) = _read_only_stack(self.days, self.open, self.close)
        if opens.shape != closes.shape:
            raise DayMismatch(f"open grids have shape {opens.shape} but close grids have shape {closes.shape}")
        check_rates(days, opens, closes)
        _check_days(days)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "open", opens)
        object.__setattr__(self, "close", closes)

    @property
    def m(self) -> int:
        return self.open.shape[1]

    @cached_property
    def returns(self) -> ReturnStack:
        return compute_returns(self)


@dataclass(frozen=True, eq=False)
class ReturnStack(_DayStack):
    """A return history: strictly increasing days (n,) and price-relative grids (n, m, m).

    Every day passes check_returns.
    """

    days: np.ndarray
    grids: np.ndarray

    def __post_init__(self):
        days, (grids,) = _read_only_stack(self.days, self.grids)
        check_returns(days, grids)
        _check_days(days)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "grids", grids)

    @property
    def m(self) -> int:
        return self.grids.shape[1]


def expect_stack(market, *kinds: type):
    """market itself when it is one of the stack kinds; anything else raises InvalidParams naming its type."""
    if not isinstance(market, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise InvalidParams(f"market must be a {expected}, got {type(market).__name__}")
    return market


def compute_returns(quotes: QuoteStack) -> ReturnStack:
    """Same-day price relatives of every day at once, its opening quotes against its closing quotes.

    For each pair the upper entry is open-sell over close-buy, the lower
    entry open-buy over close-sell, and each fires only when its ratio
    exceeds one.  Both firing at once is rejected: it would price the
    pair's round trip as profitable in both directions simultaneously.
    The first day with such a pair, or with a ratio that overflows,
    raises; on one day the pair firing both ways comes first.
    """
    iu, ju = upper_pairs(quotes.m)
    grids = np.zeros(quotes.open.shape)
    fires = []
    # One direction at a time: the upper entries, then the lower ones.
    for rows, cols in ((iu, ju), (ju, iu)):
        ratio, below = quotes.open[:, rows, cols], quotes.close[:, cols, rows]
        fires.append(ratio > below)
        with np.errstate(over="ignore"):  # an overflow is an inf return, which check_returns names
            ratio /= below
        ratio *= fires[-1]  # where it does not fire the ratio is finite and at most 1, so this is +0.0
        grids[:, rows, cols] = ratio
        del ratio, below  # hold one direction's gathers at a time, and none while the stack is checked
    both = fires[0] & fires[1]
    if both.any():
        n = int(np.argmax(both.any(axis=1))) + 1  # through the first day firing both ways
        o, c = quotes.open, quotes.close
        fires_both = (~both[:n], lambda day, k, p: ComplementarityViolation(
            f"day {day}: pair ({iu[p]}, {ju[p]}) fires in both directions "
            f"(open sell {float(o[k, iu[p], ju[p]])!r} > close buy {float(c[k, ju[p], iu[p]])!r} and "
            f"open buy {float(o[k, ju[p], iu[p]])!r} > close sell {float(c[k, iu[p], ju[p]])!r})"))
        _raise_first(quotes.days[:n], [fires_both, *_return_rules(grids[:n])])
    return ReturnStack(quotes.days, grids)


# ---------------------------------------------------------------------------
# one day: a stack of one


@dataclass(frozen=True)
class RateMatrix:
    """One day's quote grid: unit diagonal, sell quotes above, buy quotes below."""

    day: int
    entries: np.ndarray

    def __post_init__(self):
        days, (grids,) = _read_only_stack([self.day], [self.entries])
        check_rates(days, grids)
        object.__setattr__(self, "entries", grids[0])

    @property
    def m(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class ReturnMatrix:
    """Price relatives for one day: zero diagonal, at most one of each mirrored pair set."""

    day: int
    entries: np.ndarray

    def __post_init__(self):
        days, (grids,) = _read_only_stack([self.day], [self.entries])
        check_returns(days, grids)
        object.__setattr__(self, "entries", grids[0])

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def compute_return_matrix(open_rates: RateMatrix, close_rates: RateMatrix) -> ReturnMatrix:
    """Price relatives of one day from its opening and closing rates: compute_returns of its one-day stack."""
    if open_rates.day != close_rates.day:
        raise DayMismatch(f"open rates are for day {open_rates.day} but close rates are for day {close_rates.day}")
    returns = compute_returns(QuoteStack([open_rates.day], [open_rates.entries], [close_rates.entries]))
    return ReturnMatrix(day=open_rates.day, entries=returns.grids[0])
