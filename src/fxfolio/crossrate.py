"""Daily order labels, segment cross rates, and the order predictors built on them.

A day's order says which side of the quote grid carried the unique
largest price relative: 1 for the upper triangle, 2 for the lower, 0
when the day is flat or tied.  The cross rate of a segment of days is
the fraction whose order flipped against the previous day; predictors
first guess the next segment's cross rate, then turn that guess into a
next-day order and return matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    EmptyHistory,
    EmptyRange,
    InsufficientHistory,
    InvalidParams,
    LengthMismatch,
    NoPredecessor,
    TooShort,
)
from .errors import EmptySequence
from .market import ReturnMatrix

# Order labels.
FLAT = 0
UPPER = 1
LOWER = 2

# The order a day takes once its grid is transposed.
SWAP = {FLAT: FLAT, UPPER: LOWER, LOWER: UPPER}


@dataclass(frozen=True)
class SegmentConfig:
    """Segment length and the two fallback cross-rate guesses."""

    L: int = 5
    c_a: float = 0.25
    c_b: float = 0.75

    def __post_init__(self):
        if self.L < 1:
            raise InvalidParams(f"segment length must be >= 1, got {self.L!r}")
        if not (0.0 <= self.c_a < 0.5):
            raise InvalidParams(f"c_a must lie in [0, 0.5), got {self.c_a!r}")
        if not (0.5 <= self.c_b <= 1.0):
            raise InvalidParams(f"c_b must lie in [0.5, 1], got {self.c_b!r}")


@dataclass(frozen=True)
class PredictorConfig:
    """Which cross-rate guess (mpcr) and order rule (mpo) to run, plain or adjusted."""

    mpcr: int = 1
    mpo: int = 1
    adjusted: bool = False
    segment: SegmentConfig = field(default_factory=SegmentConfig)

    def __post_init__(self):
        if self.mpcr not in (1, 2):
            raise InvalidParams(f"mpcr must be 1 or 2, got {self.mpcr!r}")
        if self.mpo not in (1, 2):
            raise InvalidParams(f"mpo must be 1 or 2, got {self.mpo!r}")


def order_of(returns: ReturnMatrix) -> int:
    """1 if the unique maximum return sits strictly above the diagonal, 2 if below, else 0."""
    return grid_order(returns.entries)


def grid_order(grid: np.ndarray) -> int:
    """order_of for a bare grid, such as a blended prediction."""
    top = float(grid.max())
    if top == 0.0:
        return FLAT
    hits = np.argwhere(grid == top)
    if len(hits) != 1:
        return FLAT
    i, j = int(hits[0][0]), int(hits[0][1])
    return UPPER if i < j else LOWER


def grid_orders(grids: np.ndarray) -> np.ndarray:
    """grid_order of every grid of an (n, m, m) stack at once, as an int64 array."""
    n, m = grids.shape[0], grids.shape[1]
    flat = grids.reshape(n, m * m)
    top = flat.max(axis=1)
    hits = flat == top[:, None]
    i, j = np.divmod(hits.argmax(axis=1), m)
    orders = np.where(i < j, UPPER, LOWER)
    orders[(top == 0.0) | (hits.sum(axis=1) != 1)] = FLAT
    return orders.astype(np.int64)


def transpose(returns: ReturnMatrix) -> ReturnMatrix:
    """Swap every pair's position side; flips order 1 days into order 2 days."""
    return ReturnMatrix(day=returns.day, entries=returns.entries.T)


def cross_rate(orders: Sequence[int], prev_order: int | None = None) -> float:
    """Fraction of days whose order differs from the day before.

    The first day compares against prev_order when given and is simply
    not counted as a flip otherwise; the denominator is always the
    number of days.
    """
    if len(orders) == 0:
        raise EmptyRange("cross rate of an empty day range is undefined")
    crossings = 0
    prev = prev_order
    for o in orders:
        if prev is not None and o != prev:
            crossings += 1
        prev = o
    return crossings / len(orders)


def nearest_nonzero_day(orders: Sequence[int], day: int) -> int:
    """Latest day strictly before `day` (1-based) with a decisive order."""
    for k in range(min(day - 1, len(orders)), 0, -1):
        if orders[k - 1] != FLAT:
            return k
    raise NoPredecessor(f"no decisive order before day {day}")


def adjusted_cross_rate(orders: Sequence[int], history: Sequence[int] = ()) -> float:
    """Cross rate over decisive days only, comparing each against the last decisive day.

    Flat days drop out of both numerator and denominator; `history`
    supplies days before the window so early comparisons can reach back.
    A window with no decisive day has rate 0.
    """
    if len(orders) == 0:
        raise EmptyRange("cross rate of an empty day range is undefined")
    full = list(history) + list(orders)
    offset = len(history)
    decisive = 0
    crossings = 0
    for idx, o in enumerate(orders):
        if o == FLAT:
            continue
        decisive += 1
        try:
            back = nearest_nonzero_day(full, offset + idx + 1)
        except NoPredecessor:
            continue
        if full[back - 1] != o:
            crossings += 1
    if decisive == 0:
        return 0.0
    return crossings / decisive


def transition_probabilities(values: Sequence[float]) -> tuple[float, float, float, float]:
    """Empirical masses of consecutive half-interval moves (AA, AB, BA, BB).

    A is [0, 1/2), B is [1/2, 1]; each consecutive pair of cross rates
    contributes one count.
    """
    if len(values) < 2:
        raise TooShort(f"need at least two cross rates, got {len(values)}")
    high = [v >= 0.5 for v in values]
    counts = {(False, False): 0, (False, True): 0, (True, False): 0, (True, True): 0}
    for a, b in zip(high, high[1:]):
        counts[(a, b)] += 1
    total = len(values) - 1
    return (
        counts[(False, False)] / total,
        counts[(False, True)] / total,
        counts[(True, False)] / total,
        counts[(True, True)] / total,
    )


def mpcr_predict(method: int, history: Sequence[float], cfg: SegmentConfig) -> float:
    """Guess the next segment's cross rate from the observed ones.

    Method 1 carries the latest observed rate forward; method 2 bets on
    the class flipping, answering c_a after a high-rate segment and c_b
    after a low-rate one.
    """
    if method not in (1, 2):
        raise InvalidParams(f"mpcr method must be 1 or 2, got {method!r}")
    if len(history) == 0:
        raise EmptyHistory("no completed segments to predict from")
    last = float(history[-1])
    if method == 1:
        return last
    return cfg.c_a if last >= 0.5 else cfg.c_b


def reference_day(method: int, adjusted: bool, w_pred: float, orders: Sequence[int]) -> tuple[int, bool]:
    """The 1-based observed day a next-day prediction copies, and whether its side is swapped.

    When the guess is in [1/2, 1] a flip is the likely move: method 1
    swaps the reference day's side, method 2 copies the day one step
    further back as it is.  Otherwise both copy the reference day.
    Plain mode steps back over days as they come; adjusted mode steps
    back over decisive days only.
    """
    if method not in (1, 2):
        raise InvalidParams(f"mpo method must be 1 or 2, got {method!r}")
    k = len(orders)
    if k == 0:
        raise InsufficientHistory("no observed orders to predict from")
    flip = w_pred >= 0.5
    reach_back = method == 2 and flip
    if not adjusted:
        if reach_back and k < 2:
            raise InsufficientHistory("two observed days needed to reach one day back")
        ref = k - 1 if reach_back else k
    else:
        try:
            ref = nearest_nonzero_day(orders, k + 1)
            if reach_back:
                ref = nearest_nonzero_day(orders, ref)
        except NoPredecessor as e:
            need = "two decisive orders" if reach_back else "a decisive order"
            raise InsufficientHistory(f"{need} needed, fewer in {k} observed days") from e
    return ref, method == 1 and flip


def mpo_predict(method: int, adjusted: bool, w_pred: float, orders: Sequence[int]) -> int:
    """Next-day order implied by a cross-rate guess: the reference day's order, swapped on a flip."""
    ref, swap = reference_day(method, adjusted, w_pred, orders)
    return SWAP[orders[ref - 1]] if swap else orders[ref - 1]


def predict_return(
    method: int,
    adjusted: bool,
    w_pred: float,
    returns: Sequence[ReturnMatrix],
    orders: Sequence[int] | None = None,
) -> ReturnMatrix:
    """Next-day return matrix implied by a cross-rate guess.

    The reference day's matrix, transposed when its side is swapped, so
    its order equals mpo_predict's.  `orders` are the orders of
    `returns` when the caller already has them.
    """
    if orders is None:
        orders = [order_of(r) for r in returns]
    ref, swap = reference_day(method, adjusted, w_pred, orders)
    return transpose(returns[ref - 1]) if swap else returns[ref - 1]


def prediction_hits(predicted: Sequence[int], actual: Sequence[int]) -> int:
    """Count matches, never crediting flat outcomes: a flat day has no side to call."""
    if len(predicted) != len(actual):
        raise LengthMismatch(f"got {len(predicted)} predictions for {len(actual)} outcomes")
    return sum(1 for p, a in zip(predicted, actual) if a != FLAT and p == a)


def effectiveness_ratio(flags: Sequence[bool]) -> float:
    """Fraction of segments whose predictor was effective."""
    if len(flags) == 0:
        raise EmptySequence("effectiveness over no segments is undefined")
    return sum(bool(f) for f in flags) / len(flags)
