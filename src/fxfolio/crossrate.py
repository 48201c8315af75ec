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
    EmptySequence,
    InsufficientHistory,
    InvalidParams,
    NoPredecessor,
)
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
    """The order of one day's returns: grid_order of its grid."""
    return grid_order(returns.entries)


def grid_order(grid: np.ndarray) -> int:
    """The order of a bare grid, such as a blended prediction: grid_orders of a stack of one."""
    return int(grid_orders(np.asarray(grid)[None])[0])


def grid_orders(grids: np.ndarray) -> np.ndarray:
    """The order of every grid of an (n, m, m) stack, as an int64 array.

    1 if the grid's unique maximum sits strictly above the diagonal, 2 if
    below, 0 when the maximum is 0 or is reached more than once.
    """
    n, m = grids.shape[0], grids.shape[1]
    flat = grids.reshape(n, m * m)
    top = flat.max(axis=1)
    hits = flat == top[:, None]
    i, j = np.divmod(hits.argmax(axis=1), m)
    orders = np.where(i < j, UPPER, LOWER)
    orders[(top == 0.0) | (hits.sum(axis=1) != 1)] = FLAT
    return orders.astype(np.int64)


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


def mpcr_predict(method: int, history: Sequence[float], cfg: SegmentConfig) -> float:
    """Guess the next segment's cross rate from the observed ones.

    Method 1 carries the latest observed rate forward; method 2 bets on
    the class flipping, answering c_a after a high-rate segment and c_b
    after a low-rate one.
    """
    PredictorConfig(mpcr=method)
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
    PredictorConfig(mpo=method)
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
) -> ReturnMatrix:
    """Next-day return matrix implied by a cross-rate guess.

    The reference day's matrix, transposed when its side is swapped, so
    its order equals mpo_predict's.
    """
    ref, swap = reference_day(method, adjusted, w_pred, [order_of(r) for r in returns])
    r = returns[ref - 1]
    return ReturnMatrix(day=r.day, entries=r.entries.T) if swap else r


# ---------------------------------------------------------------------------
# The same rules over a whole order history at once.  Each entry depends on
# the orders up to its own day only, and equals the scalar rule above.


def _last_decisive(orders: np.ndarray) -> np.ndarray:
    """Index of the latest decisive day at or before each day, -1 before the first."""
    last = np.where(orders != FLAT, _day_indexes(len(orders)), -1)
    return np.maximum.accumulate(last, out=last)


def _day_indexes(n: int) -> np.ndarray:
    """0..n-1 as int32: a day index fits, and the profitability suite's 100,000-day histories stay small."""
    return np.arange(n, dtype=np.int32)


def _before(last: np.ndarray) -> np.ndarray:
    """Shift a running index one day later: the latest decisive day strictly before each day."""
    return np.concatenate(([-1], last[:-1]))


def segment_cross_rates(orders: np.ndarray, seg_len: int, adjusted: bool) -> np.ndarray:
    """cross_rate (or adjusted_cross_rate) of every complete segment, each reaching back before it.

    Segment s covers days s*seg_len .. (s+1)*seg_len - 1 (0-based); its
    first day compares against the day before the segment, as the
    engine's bookkeeping does.
    """
    count = len(orders) // seg_len
    if count == 0:
        return np.empty(0)
    orders = np.asarray(orders[: count * seg_len])
    if adjusted:
        decisive = orders != FLAT
        prev = _before(_last_decisive(orders))
        crossed = decisive & (prev >= 0) & (orders[prev] != orders)
        crossings = crossed.reshape(count, seg_len).sum(axis=1)
        decisive_days = decisive.reshape(count, seg_len).sum(axis=1)
        return np.where(decisive_days > 0, crossings / np.maximum(decisive_days, 1), 0.0)
    crossed = np.zeros(len(orders), dtype=bool)
    crossed[1:] = orders[1:] != orders[:-1]
    return crossed.reshape(count, seg_len).sum(axis=1) / seg_len


def mpcr_guesses(cfg: PredictorConfig, rates: np.ndarray) -> np.ndarray:
    """mpcr_predict(cfg.mpcr, ...) after each segment: entry s guesses from rates[:s + 1]."""
    if cfg.mpcr == 1:
        return np.asarray(rates, dtype=float)
    return np.where(rates >= 0.5, cfg.segment.c_a, cfg.segment.c_b)


def reference_days(cfg: PredictorConfig, flip: np.ndarray, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """reference_day(cfg.mpo, cfg.adjusted, ...) for every prefix of an order history, from each prefix's flip test.

    Entry k is reference_day(cfg.mpo, cfg.adjusted, w, orders[:k + 1]) for
    any guess w with (w >= 1/2) == flip[k]: a 0-based day index, or -1
    where that raises InsufficientHistory, and whether the day's side is
    swapped.
    """
    flip = np.asarray(flip, dtype=bool)
    if cfg.adjusted:
        ref = _last_decisive(np.asarray(orders))
        if cfg.mpo == 2:
            ref = np.where(flip & (ref >= 0), _before(ref)[ref], ref)
    else:
        ref = _day_indexes(len(orders))
        if cfg.mpo == 2:
            ref -= flip
    swap = flip & (ref >= 0) if cfg.mpo == 1 else np.zeros(len(orders), dtype=bool)
    return ref, swap


def predicted_references(cfg: PredictorConfig, orders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reference day and swap flag of every next-day prediction over an order history.

    Entry k is the prediction made after observing orders[:k + 1]: the
    mpcr guess from the segments complete by then decides the flip, and
    reference_days turns it into a 0-based day index, -1 while no
    segment is complete or the history is too short.
    """
    n = len(orders)
    seg_len = cfg.segment.L
    rates = segment_cross_rates(orders, seg_len, cfg.adjusted)
    if not len(rates):
        return np.full(n, -1, dtype=np.int32), np.zeros(n, dtype=bool)
    # Entry k >= seg_len - 1 sees the guess made after segment (k + 1) // seg_len - 1.
    flip = np.zeros(n, dtype=bool)
    flip[seg_len - 1 :] = np.repeat(mpcr_guesses(cfg, rates) >= 0.5, seg_len)[: n - seg_len + 1]
    ref, swap = reference_days(cfg, flip, orders)
    ref[: seg_len - 1] = -1
    return ref, swap


def referenced_orders(orders: np.ndarray, ref: np.ndarray, swap: np.ndarray) -> np.ndarray:
    """The order each prediction calls: the reference day's, swapped where flagged, -1 where none."""
    source = orders[ref]
    swapped = np.where(source == FLAT, FLAT, UPPER + LOWER - source)
    return np.where(ref >= 0, np.where(swap, swapped, source), -1)


def segment_success_rates(
    order_actual: np.ndarray, order_pred: np.ndarray, seg_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment prediction success theta, and theta >= 1/2, over complete, fully predicted segments.

    Day d's prediction order_pred[d] (-1 for none) is aligned as the
    engine's order_pred column: made after days 0..d-1.  A day counts as
    a hit only when its predicted order equals a decisive actual order;
    segments containing any day without a prediction are skipped.
    """
    SegmentConfig(L=seg_len)
    seg_len = min(seg_len, len(order_actual) + 1)  # clamped as in predict
    count = len(order_actual) // seg_len
    pred = order_pred[: count * seg_len].reshape(count, seg_len)
    actual = order_actual[: count * seg_len].reshape(count, seg_len)
    hits = ((actual != FLAT) & (pred == actual)).sum(axis=1)
    thetas = hits[(pred >= 0).all(axis=1)] / seg_len
    return thetas, thetas >= 0.5


def effectiveness_ratio(flags: Sequence[bool]) -> float:
    """Fraction of segments whose predictor was effective."""
    if len(flags) == 0:
        raise EmptySequence("effectiveness over no segments is undefined")
    return int(np.count_nonzero(flags)) / len(flags)
