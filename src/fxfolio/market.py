"""Daily bid/ask rate matrices, the price relatives they induce, and stacked histories of both.

An m x m rate matrix quotes every currency pair once per triangle: the
entry at (i, j) with i < j is the rate at which the desk sells pair
(i, j) to the investor, the mirrored entry at (j, i) is the rate at
which it buys the pair back.  The wedge between the two is the spread,
and it must be strictly positive entrywise.

A market history is held as one stack of such grids, shape (n, m, m),
validated in one pass; indexing a stack gives the one-day objects.
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
    RunError,
)
from .errors import SpreadViolation


@lru_cache(maxsize=None)
def upper_pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs i < j of an m x m grid, built once per m and read-only."""
    iu, ju = np.triu_indices(m, k=1)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


def _as_square(grid) -> np.ndarray:
    a = np.asarray(grid, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise NonPositiveEntry(f"expected a square matrix of size >= 2, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class RateMatrix:
    """One day's quote grid: unit diagonal, sell quotes above, buy quotes below."""

    day: int
    entries: np.ndarray

    def __post_init__(self):
        grid = _as_square(self.entries).copy()
        m = grid.shape[0]
        if not np.all(np.isfinite(grid)) or np.any(grid <= 0.0):
            bad = np.argwhere(~(np.isfinite(grid) & (grid > 0.0)))[0]
            raise NonPositiveEntry(
                f"day {self.day}: rate at ({bad[0]}, {bad[1]}) is {float(grid[bad[0], bad[1]])!r}, must be finite and > 0"
            )
        diag = np.diag(grid)
        if np.any(diag != 1.0):
            i = int(np.argmax(diag != 1.0))
            raise NonUnitDiagonal(f"day {self.day}: diagonal entry ({i}, {i}) is {float(diag[i])!r}, must be 1")
        iu, ju = upper_pairs(m)
        if np.any(grid[iu, ju] <= grid[ju, iu]):
            k = int(np.argmax(grid[iu, ju] <= grid[ju, iu]))
            i, j = int(iu[k]), int(ju[k])
            raise SpreadViolation(
                f"day {self.day}: sell quote at ({i}, {j}) = {float(grid[i, j])!r} does not exceed "
                f"buy quote at ({j}, {i}) = {float(grid[j, i])!r}"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "entries", grid)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class DailyQuotes:
    """Opening and closing rate matrices for one day."""

    day: int
    open_rates: RateMatrix
    close_rates: RateMatrix

    def __post_init__(self):
        if self.open_rates.m != self.close_rates.m:
            raise DayMismatch(
                f"day {self.day}: open is {self.open_rates.m}x{self.open_rates.m} "
                f"but close is {self.close_rates.m}x{self.close_rates.m}"
            )
        if self.open_rates.day != self.day or self.close_rates.day != self.day:
            raise DayMismatch(
                f"quotes labelled day {self.day} wrap rate matrices for days "
                f"{self.open_rates.day} and {self.close_rates.day}"
            )

    @property
    def m(self) -> int:
        return self.open_rates.m

    @classmethod
    def from_grids(cls, day: int, open_grid, close_grid) -> "DailyQuotes":
        return cls(
            day=day,
            open_rates=RateMatrix(day=day, entries=open_grid),
            close_rates=RateMatrix(day=day, entries=close_grid),
        )


@dataclass(frozen=True)
class ReturnMatrix:
    """Price relatives for one day: zero diagonal, at most one of each mirrored pair set."""

    day: int
    entries: np.ndarray

    def __post_init__(self):
        grid = _as_square(self.entries).copy()
        m = grid.shape[0]
        if not np.all(np.isfinite(grid)) or np.any(grid < 0.0):
            bad = np.argwhere(~(np.isfinite(grid) & (grid >= 0.0)))[0]
            raise NonPositiveEntry(
                f"day {self.day}: return at ({bad[0]}, {bad[1]}) is {float(grid[bad[0], bad[1]])!r}, must be finite and >= 0"
            )
        if np.any(np.diag(grid) != 0.0):
            i = int(np.argmax(np.diag(grid) != 0.0))
            raise NonUnitDiagonal(f"day {self.day}: return diagonal at ({i}, {i}) must be 0")
        iu, ju = upper_pairs(m)
        both = (grid[iu, ju] > 0.0) & (grid[ju, iu] > 0.0)
        if np.any(both):
            k = int(np.argmax(both))
            i, j = int(iu[k]), int(ju[k])
            raise ComplementarityViolation(
                f"day {self.day}: both mirrored returns ({i}, {j}) and ({j}, {i}) are positive"
            )
        grid.flags.writeable = False
        object.__setattr__(self, "entries", grid)

    @property
    def m(self) -> int:
        return self.entries.shape[0]


def compute_return_matrix(quotes: DailyQuotes) -> ReturnMatrix:
    """Price relatives of one day, its opening quotes against its closing quotes.

    For each pair the upper entry is open-sell over close-buy, the lower
    entry open-buy over close-sell, and each fires only when its ratio
    exceeds one.  Both firing at once is rejected: it would price the
    pair's round trip as profitable in both directions simultaneously.
    """
    opening, closing, day = quotes.open_rates, quotes.close_rates, quotes.day
    m = opening.m
    open_sell = np.triu(opening.entries, k=1)
    open_buy = np.tril(opening.entries, k=-1).T
    close_sell = np.triu(closing.entries, k=1)
    close_buy = np.tril(closing.entries, k=-1).T

    grid = np.zeros((m, m))
    iu, ju = upper_pairs(m)
    up_fires = open_sell[iu, ju] > close_buy[iu, ju]
    down_fires = open_buy[iu, ju] > close_sell[iu, ju]
    both = up_fires & down_fires
    if np.any(both):
        k = int(np.argmax(both))
        i, j = int(iu[k]), int(ju[k])
        raise ComplementarityViolation(
            f"day {day}: pair ({i}, {j}) fires in both directions "
            f"(open sell {float(open_sell[i, j])!r} > close buy {float(close_buy[i, j])!r} and "
            f"open buy {float(open_buy[i, j])!r} > close sell {float(close_sell[i, j])!r})"
        )
    grid[iu[up_fires], ju[up_fires]] = (open_sell[iu, ju][up_fires] / close_buy[iu, ju][up_fires])
    grid[ju[down_fires], iu[down_fires]] = (open_buy[iu, ju][down_fires] / close_sell[iu, ju][down_fires])
    return ReturnMatrix(day=day, entries=grid)


# ---------------------------------------------------------------------------
# stacked histories


def _rate_faults(grids: np.ndarray) -> np.ndarray:
    """Per day of an (n, m, m) stack: does it fail a RateMatrix check."""
    iu, ju = upper_pairs(grids.shape[1])
    bad = ~(np.isfinite(grids) & (grids > 0.0)).all(axis=(1, 2))
    bad |= (np.diagonal(grids, axis1=1, axis2=2) != 1.0).any(axis=1)
    bad |= (grids[:, iu, ju] <= grids[:, ju, iu]).any(axis=1)
    return bad


def _return_faults(grids: np.ndarray) -> np.ndarray:
    """Per day of an (n, m, m) stack: does it fail a ReturnMatrix check."""
    iu, ju = upper_pairs(grids.shape[1])
    bad = ~(np.isfinite(grids) & (grids >= 0.0)).all(axis=(1, 2))
    bad |= (np.diagonal(grids, axis1=1, axis2=2) != 0.0).any(axis=1)
    bad |= ((grids[:, iu, ju] > 0.0) & (grids[:, ju, iu] > 0.0)).any(axis=1)
    return bad


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

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True, eq=False)
class QuoteStack(_DayStack):
    """A quote history: strictly increasing days (n,) and opening and closing rate grids (n, m, m).

    Every day passes the RateMatrix checks.  ``stack[k]`` is day k's
    DailyQuotes and a slice is a stack of its days.  ``stack.returns`` is
    compute_returns(stack), computed once, on first use.
    """

    days: np.ndarray
    open: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        days, (opens, closes) = _read_only_stack(self.days, self.open, self.close)
        bad = _rate_faults(opens) | _rate_faults(closes)
        if bad.any():
            k = int(np.argmax(bad))
            DailyQuotes.from_grids(int(days[k]), opens[k], closes[k])  # raises the day's own error
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

    def __getitem__(self, k):
        if isinstance(k, slice):
            return QuoteStack(self.days[k], self.open[k], self.close[k])
        return DailyQuotes.from_grids(int(self.days[k]), self.open[k], self.close[k])


@dataclass(frozen=True, eq=False)
class ReturnStack(_DayStack):
    """A return history: strictly increasing days (n,) and price-relative grids (n, m, m).

    Every day passes the ReturnMatrix checks.  ``stack[k]`` is day k's
    ReturnMatrix and a slice is a stack of its days.
    """

    days: np.ndarray
    grids: np.ndarray

    def __post_init__(self):
        days, (grids,) = _read_only_stack(self.days, self.grids)
        bad = _return_faults(grids)
        if bad.any():
            k = int(np.argmax(bad))
            ReturnMatrix(day=int(days[k]), entries=grids[k])  # raises the day's own error
        _check_days(days)
        object.__setattr__(self, "days", days)
        object.__setattr__(self, "grids", grids)

    @property
    def m(self) -> int:
        return self.grids.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return ReturnStack(self.days[k], self.grids[k])
        return ReturnMatrix(day=int(self.days[k]), entries=self.grids[k])


def expect_stack(market, *kinds: type):
    """market itself when it is one of the stack kinds; anything else raises InvalidParams naming its type."""
    if not isinstance(market, kinds):
        expected = " or ".join(kind.__name__ for kind in kinds)
        raise InvalidParams(f"market must be a {expected}, got {type(market).__name__}")
    return market


def compute_returns(quotes: QuoteStack) -> ReturnStack:
    """Same-day price relatives of every day at once, bit for bit those of compute_return_matrix.

    The first day with a pair firing both ways, or a ratio that
    overflows, raises what compute_return_matrix raises for it.
    """
    iu, ju = upper_pairs(quotes.m)
    open_sell, open_buy = quotes.open[:, iu, ju], quotes.open[:, ju, iu]
    close_sell, close_buy = quotes.close[:, iu, ju], quotes.close[:, ju, iu]
    grids = np.zeros(quotes.open.shape)
    grids[:, iu, ju] = np.where(open_sell > close_buy, open_sell / close_buy, 0.0)
    grids[:, ju, iu] = np.where(open_buy > close_sell, open_buy / close_sell, 0.0)
    try:
        return ReturnStack(quotes.days, grids)
    except RunError:
        compute_return_matrix(quotes[int(np.argmax(_return_faults(grids)))])  # raises the day's own error
        raise
