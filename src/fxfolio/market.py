"""Daily bid/ask rate matrices and the price relatives they induce.

An m x m rate matrix quotes every currency pair once per triangle: the
entry at (i, j) with i < j is the rate at which the desk sells pair
(i, j) to the investor, the mirrored entry at (j, i) is the rate at
which it buys the pair back.  The wedge between the two is the spread,
and it must be strictly positive entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplementarityViolation,
    DayMismatch,
    MissingNextDay,
    NonPositiveEntry,
    NonUnitDiagonal,
)
from .errors import SpreadViolation


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
        iu, ju = np.triu_indices(m, k=1)
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
        iu, ju = np.triu_indices(m, k=1)
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


def trading_matrix(s_k: RateMatrix, s_k1: RateMatrix, anchor_upper_on: int) -> np.ndarray:
    """Splice two consecutive days into a single trading grid.

    With anchor_upper_on == s_k.day the result keeps day-k diagonal and
    upper triangle and takes the lower triangle from day k+1; anchoring
    on day k+1 swaps the roles.  The splice is returned as a raw grid:
    mixing days can legitimately break the one-day spread invariant.
    """
    if s_k1.day != s_k.day + 1:
        raise DayMismatch(f"trading matrix needs consecutive days, got {s_k.day} and {s_k1.day}")
    if s_k.m != s_k1.m:
        raise DayMismatch(f"day {s_k.day} is {s_k.m}x{s_k.m} but day {s_k1.day} is {s_k1.m}x{s_k1.m}")
    if anchor_upper_on == s_k.day:
        upper, lower = s_k.entries, s_k1.entries
    elif anchor_upper_on == s_k1.day:
        upper, lower = s_k1.entries, s_k.entries
    else:
        raise DayMismatch(
            f"anchor_upper_on must be {s_k.day} or {s_k1.day}, got {anchor_upper_on}"
        )
    out = np.tril(lower, k=-1) + np.triu(upper, k=0)
    return out


def exchange_options(s_k: RateMatrix, s_k1: RateMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Day-(k+1) option quotes for unwinding a day-k position, per pair.

    For each pair the buy option is live when the day-(k+1) buy quote
    clears the day-k sell quote, the sell option when the day-(k+1)
    sell quote clears the day-k buy quote.  Live options are filled
    with the day-(k+1) buy quote, dead ones with 0.  Both grids carry
    the pair's value at both mirrored positions.
    """
    if s_k1.day != s_k.day + 1:
        raise DayMismatch(f"exchange options need consecutive days, got {s_k.day} and {s_k1.day}")
    if s_k.m != s_k1.m:
        raise DayMismatch(f"day {s_k.day} is {s_k.m}x{s_k.m} but day {s_k1.day} is {s_k1.m}x{s_k1.m}")
    sell_k = np.triu(s_k.entries, k=1)
    buy_k = np.tril(s_k.entries, k=-1).T
    sell_k1 = np.triu(s_k1.entries, k=1)
    buy_k1 = np.tril(s_k1.entries, k=-1).T
    # Per-pair quotes live on the upper triangle now; conditions are strict.
    buy_option = np.where(buy_k1 > sell_k, buy_k1, 0.0)
    sell_option = np.where(sell_k1 > buy_k, buy_k1, 0.0)
    buy_option = buy_option + buy_option.T
    sell_option = sell_option + sell_option.T
    return buy_option, sell_option


def compute_return_matrix(
    quotes_k: DailyQuotes,
    quotes_k1: DailyQuotes | None = None,
    horizon: str = "same-day",
) -> ReturnMatrix:
    """Price relatives from opening quotes against closing quotes.

    horizon "same-day" closes against quotes_k's own close; "next-day"
    closes against quotes_k1's close and requires it.  For each pair the
    upper entry is open-sell over close-buy, the lower entry open-buy
    over close-sell, and each fires only when its ratio exceeds one.
    Both firing at once is rejected: it would price the pair's round
    trip as profitable in both directions simultaneously.
    """
    if horizon == "same-day":
        closing = quotes_k.close_rates
        day = quotes_k.day
    elif horizon == "next-day":
        if quotes_k1 is None:
            raise MissingNextDay(f"next-day returns for day {quotes_k.day} need day {quotes_k.day + 1} quotes")
        if quotes_k1.day != quotes_k.day + 1:
            raise DayMismatch(f"expected day {quotes_k.day + 1} quotes, got day {quotes_k1.day}")
        if quotes_k1.m != quotes_k.m:
            raise DayMismatch(
                f"day {quotes_k.day} is {quotes_k.m}x{quotes_k.m} but day {quotes_k1.day} is {quotes_k1.m}x{quotes_k1.m}"
            )
        closing = quotes_k1.close_rates
        day = quotes_k1.day
    else:
        raise MissingNextDay(f"unknown horizon {horizon!r}, expected 'same-day' or 'next-day'")

    opening = quotes_k.open_rates
    m = opening.m
    open_sell = np.triu(opening.entries, k=1)
    open_buy = np.tril(opening.entries, k=-1).T
    close_sell = np.triu(closing.entries, k=1)
    close_buy = np.tril(closing.entries, k=-1).T

    grid = np.zeros((m, m))
    iu, ju = np.triu_indices(m, k=1)
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
