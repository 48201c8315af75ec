"""Day-by-day simulation of the trading rules over a rate or return history.

The daily cycle, starting from uniform weights and capital f0:

  1. pay the cost charged for last night's rebalance: F'_k = F_{k-1} - T_k
  2. let the day's returns act: F_k = F'_k * (psi_k . R_k) and the
     weights drift to the realized portfolio; a day whose weighted
     return is zero parks the book (factor 1, weights carried)
  3. predict the next day's return matrix from data through day k only
  4. tilt the drifted weights toward the prediction (iitc/eiitc) and
     solve the transaction-cost fixed point for tomorrow's charge

Every day's inputs precede its outputs, so perturbing day j never
changes the ledger at days before j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .costs import CostParams, fixed_point_costs, solve_cost_from_drift
from .crossrate import PredictorConfig, grid_orders, predicted_references, referenced_orders
from .errors import (
    CostRatioAtLeastOne,
    EmptyLedger,
    InvalidBlockUnit,
    InvalidParams,
    NonPositiveCapital,
    NonPositiveDiamond,
    NonPositivePairReturn,
    NormalizationViolated,
    TooFewDays,
)
from .market import QuoteStack, ReturnStack, expect_stack, upper_pairs
from .portfolio import uniform_portfolio
from .updates import UpdateConfig, tilt, tilts


@dataclass(frozen=True)
class GammaSchedule:
    """The shape of the learning rate: constant, or gamma/i on the i-th growing block of days."""

    mode: str = "constant"
    block_unit: int = 5

    def __post_init__(self):
        if self.mode not in ("constant", "block-decaying"):
            raise InvalidParams(f"mode must be 'constant' or 'block-decaying', got {self.mode!r}")
        if self.block_unit < 2:
            raise InvalidBlockUnit(f"block unit must be >= 2, got {self.block_unit!r}")

    def per_day(self, n_days: int, gamma: float) -> np.ndarray:
        """The rate for days 1..n_days+1 (index 0 unused) of a run at learning rate gamma."""
        out = np.full(n_days + 2, gamma)
        if self.mode == "block-decaying":
            for i, block in enumerate(block_partition(n_days, self.block_unit), start=1):
                out[block.start : block.stop] = gamma / i
            out[n_days + 1] = out[n_days]
        return out


@dataclass(frozen=True)
class LinearPredictor:
    """Predict tomorrow as a fixed convex combination of the latest days."""

    weights: tuple[float, ...] = (1.0,)

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if len(w) == 0 or not all(x >= 0.0 for x in w) or abs(sum(w) - 1.0) > 1e-12:
            raise InvalidParams(f"lag weights must be nonnegative and sum to 1, got {self.weights!r}")
        object.__setattr__(self, "weights", w)

    def predict(self, history: Sequence[np.ndarray]) -> np.ndarray | None:
        """Blend of the latest return grids, newest first; None while the weights of the lags seen sum to 0.

        Days whose maxima sit on opposite triangles blend into a grid with
        mass at both mirrored positions, which no ReturnMatrix may hold.
        """
        depth = min(len(self.weights), len(history))
        w = np.array(self.weights[:depth])
        total = w.sum()
        if total == 0.0:
            return None
        w = w / total
        return sum(w[l] * history[-1 - l] for l in range(depth))


def block_partition(n_days: int, unit: int) -> list[range]:
    """Split days 1..n_days into blocks of lengths unit, 2*unit, 3*unit, ...

    The i-th block covers days i(i-1)unit/2 + 1 through i(i+1)unit/2,
    except the last, which is cut at n_days.
    """
    if not (1 < unit < n_days):
        raise InvalidBlockUnit(f"block unit must satisfy 1 < unit < n_days, got unit={unit}, n_days={n_days}")
    blocks = []
    start, length = 1, unit
    while start <= n_days:
        end = min(start + length - 1, n_days)
        blocks.append(range(start, end + 1))
        start, length = end + 1, length + unit
    return blocks


@dataclass
class BacktestLedger:
    """Columnar per-day record of a run plus the portfolio queued for the next day."""

    m: int
    f0: float
    config: dict
    day: np.ndarray
    capital: np.ndarray
    capital_net: np.ndarray
    cost: np.ndarray
    ratio: np.ndarray
    growth: np.ndarray
    parked: np.ndarray
    order_actual: np.ndarray
    order_pred: np.ndarray
    pred_crossed_segment: np.ndarray
    portfolios: list[np.ndarray]
    realized: list[np.ndarray]
    returns: ReturnStack
    predicted: list[np.ndarray | None]
    next_portfolio: np.ndarray = field(default=None)

    @property
    def n_days(self) -> int:
        return len(self.day)


@dataclass(frozen=True)
class Prediction:
    """Every prediction a run uses, computed from the market alone before any day loop.

    Entry k (k = 0..n) is what the predictor says after observing days
    1..k, about day k+1; entry 0, and every day on which the predictor
    still lacks history, holds no prediction.  ``grids[k]`` is the
    predicted return grid, or None: a cross-rate prediction is the
    reference day's grid, mirrored across the diagonal into a C-contiguous
    copy where its side is swapped; a linear one is the blend of the latest
    days.
    """

    order_actual: np.ndarray
    order_pred: np.ndarray
    crossed: np.ndarray
    grids: list[np.ndarray | None]


def predict(rets: ReturnStack, predictor: PredictorConfig | LinearPredictor | None) -> Prediction:
    """The prediction phase: every day's order and every next-day prediction of a run.

    Each entry depends on the days it has observed only, and equals what
    the scalar API (LinearPredictor.predict, cross_rate or
    adjusted_cross_rate, mpcr_predict and reference_day) gives on that
    prefix, bit for bit.
    """
    grids = rets.grids
    n = len(grids)
    order_actual = grid_orders(grids)
    no_order = np.full(n + 1, -1, dtype=np.int64)
    no_flag = np.zeros(n + 1, dtype=bool)
    if predictor is None:
        return Prediction(order_actual, no_order, no_flag, [None] * (n + 1))
    if isinstance(predictor, LinearPredictor):
        blend, has = _linear_blends(predictor, grids)
        order_pred = np.where(has, np.concatenate(([-1], grid_orders(blend[1:]))), -1)
        preds = [grid if h else None for grid, h in zip(blend, has.tolist())]
        return Prediction(order_actual, order_pred, no_flag, preds)

    ref = no_order.copy()
    swap = no_flag.copy()
    ref[1:], swap[1:] = predicted_references(predictor, order_actual)
    order_pred = referenced_orders(order_actual, ref, swap)
    # No segment completes within the run once L > n, so clamping L there keeps every entry.
    seg_len = min(predictor.segment.L, n + 1)
    crossed = (ref >= 0) & (ref + 1 <= np.arange(n + 1) // seg_len * seg_len)
    preds: list[np.ndarray | None] = [None] * (n + 1)
    for k, (day, swapped) in enumerate(zip(ref.tolist(), swap.tolist())):
        if day >= 0:
            preds[k] = grids[day].T.copy() if swapped else grids[day]
    return Prediction(order_actual, order_pred, crossed, preds)


def _linear_blends(lin: LinearPredictor, grids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LinearPredictor.predict(grids[:k]) for k = 1..n in rows 1..n, summed in the same order, and which rows hold one."""
    n = len(grids)
    depth = len(lin.weights)
    out = np.zeros((n + 1,) + grids.shape[1:])
    has = np.arange(n + 1) > 0
    # The first days renormalize a shorter prefix of the weights.
    for k in range(1, min(depth, n + 1)):
        pred = lin.predict(grids[:k])
        has[k] = pred is not None
        if has[k]:
            out[k] = pred
    if n >= depth:
        w = np.array(lin.weights)
        w = w / w.sum()
        full = out[depth:]
        for lag in range(depth):
            full += w[lag] * grids[depth - 1 - lag : n - lag]
    return out, has


def _returns(market: QuoteStack | ReturnStack, f0: float) -> ReturnStack:
    """The run's return stack, after the checks that every run of the engine makes."""
    if f0 <= 0.0 or not math.isfinite(f0):
        raise InvalidParams(f"starting capital must be finite and > 0, got {f0!r}")
    if len(expect_stack(market, QuoteStack, ReturnStack)) < 2:
        raise TooFewDays(f"a backtest needs at least 2 days, got {len(market)}")
    return market.returns if isinstance(market, QuoteStack) else market


def run_backtest(
    market: QuoteStack | ReturnStack,
    predictor: PredictorConfig | LinearPredictor | None = None,
    update: UpdateConfig = UpdateConfig(),
    schedule: GammaSchedule = GammaSchedule(),
    costs: CostParams = CostParams(0.0),
    f0: float = 1.0,
) -> BacktestLedger:
    """Run the daily cycle over a QuoteStack or ReturnStack.

    Every day's returns, order and next-day prediction come from the
    market alone, before the day loop (see predict); the loop holds the
    drift, parking, tilt and cost solve of one configuration.  With no
    predictor (or while the predictor still lacks history) the weights
    simply drift with the returns, which is the gamma = 0 behaviour.
    Day indices in the ledger are positional, 1..N.
    """
    rets = _returns(market, f0)
    n = len(rets)
    m = rets.m
    gammas = schedule.per_day(n, update.gamma)

    f_col = np.empty(n)
    fp_col = np.empty(n)
    t_col = np.empty(n)
    c_col = np.empty(n)
    g_col = np.empty(n)
    parked_col = np.zeros(n, dtype=bool)
    psi_list: list[np.ndarray] = []
    drift_list: list[np.ndarray] = []

    # Validated once, in the stack; from here on the loop runs on bare grids.
    grids = rets.grids
    prediction = predict(rets, predictor)
    preds = prediction.grids
    gamma_at = gammas.tolist()
    rule, support_floor = update.rule, update.support_floor
    psi = uniform_portfolio(m, day=1).weights
    f_prev = f0
    t_charge = 0.0

    for day_idx, r_k in enumerate(grids):
        k = day_idx + 1
        fp = f_prev - t_charge
        if fp <= 0.0:
            raise NonPositiveCapital(f"day {k}: costs of {t_charge!r} exhaust capital {f_prev!r}")
        held = psi * r_k
        diamond = float(np.add.reduce(held, None))
        if diamond > 0.0:
            f_k = fp * diamond
            drift = held / diamond
            growth = diamond
        else:
            f_k = fp
            drift = psi
            growth = 1.0
            parked_col[day_idx] = True

        psi_list.append(psi)
        drift_list.append(drift)
        f_col[day_idx] = f_k
        fp_col[day_idx] = fp
        t_col[day_idx] = t_charge
        c_col[day_idx] = 0.0 if k == 1 else t_charge / f_prev
        g_col[day_idx] = growth

        pred_next = preds[k]
        gamma_next = gamma_at[k + 1]
        if pred_next is not None and gamma_next > 0.0:
            psi = tilt(rule, drift, pred_next, gamma_next, support_floor)
        else:
            psi = drift

        try:
            t_charge = solve_cost_from_drift(f_k, drift, psi, costs)
        except NonPositiveCapital as exc:
            raise NonPositiveCapital(f"day {k}: {exc}") from None
        f_prev = f_k

    config = {
        "f0": f0,
        "m": m,
        "n_days": n,
        "update": {"rule": update.rule, "gamma": update.gamma, "support_floor": update.support_floor},
        "schedule": {"mode": schedule.mode, "block_unit": schedule.block_unit},
        "costs": {"c": costs.c},
        "predictor": _predictor_config(predictor),
    }
    return BacktestLedger(
        m=m,
        f0=f0,
        config=config,
        day=np.arange(1, n + 1),
        capital=f_col,
        capital_net=fp_col,
        cost=t_col,
        ratio=c_col,
        growth=g_col,
        parked=parked_col,
        order_actual=prediction.order_actual,
        order_pred=prediction.order_pred[:n],
        pred_crossed_segment=prediction.crossed[:n],
        portfolios=psi_list,
        realized=drift_list,
        returns=rets,
        predicted=preds[:n],
        next_portfolio=psi,
    )


@dataclass(frozen=True)
class Sweep:
    """Columns of a batch of runs over one market; row b belongs to the batch's member b."""

    capital: np.ndarray
    capital_net: np.ndarray
    cost: np.ndarray
    ratio: np.ndarray
    growth: np.ndarray
    first_portfolio: np.ndarray
    next_portfolio: np.ndarray


def sweep(
    market: QuoteStack | ReturnStack,
    predictor: PredictorConfig | LinearPredictor | None,
    members: Sequence[tuple[UpdateConfig, CostParams]],
    f0: float = 1.0,
) -> Sweep:
    """run_backtest for each (update, costs) member at once, one day at a time.

    The members share the market, the predictor's one prediction phase
    and f0, and each runs at its own constant learning rate.  Each day
    takes run_backtest's steps in run_backtest's order on a (B, m, m)
    book, one row per member: pay the last charge, drift and park, tilt
    with updates.tilts, check the capital, then solve every member's
    charge with one fixed_point_costs call.  A step that fails raises for
    the first member it fails, so row b of every column is bit-equal to
    run_backtest(market, predictor, *members[b], f0=f0)'s, and so is every
    error, with its day.  Two numpy warnings differ, both overflows that
    run_backtest does not report: a member's capital that overflows to
    inf warns ``overflow encountered in multiply`` ahead of that day's
    error, and since tilts computes eiitc's predicted growth on iitc rows
    too, an iitc member may warn ``overflow encountered in reduce``.
    run_backtest stays the loop for a single configuration: at B = 1 this
    one costs more per day.
    """
    rets = _returns(market, f0)
    n = len(rets)
    m = rets.m
    b = len(members)
    if b == 0:
        raise InvalidParams("a sweep needs at least one member")
    eiitc = np.array([update.rule == "eiitc" for update, _ in members])
    gamma = np.array([update.gamma for update, _ in members], dtype=float)
    floor = np.array([update.support_floor for update, _ in members], dtype=float)
    fee = np.array([costs.c for _, costs in members], dtype=float)

    columns = np.empty((5, b, n))
    f_col, fp_col, t_col, c_col, g_col = columns
    grids = rets.grids
    preds = predict(rets, predictor).grids
    first = uniform_portfolio(m, day=1).weights
    psi = np.repeat(first[None], b, axis=0)
    f_prev = np.full(b, float(f0))
    t_charge = np.zeros(b)

    for d, r_k in enumerate(grids):
        k = d + 1
        fp = np.subtract(f_prev, t_charge, out=fp_col[:, d])
        # One reduction settles a day whose members all keep capital; only the others need the mask.
        if not fp.min() > 0.0 and (fp <= 0.0).any():
            i = int(np.argmax(fp <= 0.0))
            raise NonPositiveCapital(f"day {k}: costs of {float(t_charge[i])!r} exhaust capital {float(f_prev[i])!r}")
        held = psi * r_k
        growth = np.add.reduce(held.reshape(b, m * m), 1, out=g_col[:, d])
        if not growth.min() > 0.0:
            # A day whose weighted return is not > 0 parks the member: growth 1, book carried.
            parked = ~(growth > 0.0)
            growth[parked] = 1.0
            held[parked] = psi[parked]
        drift = held / growth[:, None, None]
        f_k = np.multiply(fp, growth, out=f_col[:, d])
        t_col[:, d] = t_charge

        pred = preds[k]
        psi = drift if pred is None else tilts(eiitc, drift, pred, gamma, floor)
        # Two reductions settle a day whose capital is all finite and > 0; only the others need the mask.
        if not (0.0 < f_k.min() and f_k.max() < np.inf):
            bad = ~np.isfinite(f_k) | (f_k <= 0.0)
            raise NonPositiveCapital(f"day {k}: capital must be finite and > 0, got {float(f_k[np.argmax(bad)])!r}")
        t_charge = fixed_point_costs(f_k, drift.reshape(b, m * m), psi.reshape(b, m * m), fee)
        f_prev = f_k

    prev_f = np.concatenate((np.full((b, 1), float(f0)), f_col[:, :-1]), axis=1)
    np.divide(t_col, prev_f, out=c_col)
    return Sweep(
        capital=f_col,
        capital_net=fp_col,
        cost=t_col,
        ratio=c_col,
        growth=g_col,
        first_portfolio=first,
        next_portfolio=psi,
    )


def _predictor_config(predictor) -> dict:
    if predictor is None:
        return {"kind": "none"}
    if isinstance(predictor, LinearPredictor):
        return {"kind": "linear", "weights": list(predictor.weights)}
    return {
        "kind": "crossrate",
        "mpcr": predictor.mpcr,
        "mpo": predictor.mpo,
        "adjusted": predictor.adjusted,
        "L": predictor.segment.L,
        "c_a": predictor.segment.c_a,
        "c_b": predictor.segment.c_b,
    }


def _require_days(ledger: BacktestLedger) -> None:
    if ledger.n_days == 0:
        raise EmptyLedger("ledger holds no days")


def cumulative_return(ledger: BacktestLedger) -> float:
    """Product of daily growth factors, costs ignored."""
    _require_days(ledger)
    return float(np.prod(ledger.growth))


def growth_rate(ledger: BacktestLedger) -> float:
    """Average log growth factor per day, costs ignored. Parked days count log 1."""
    _require_days(ledger)
    return row_growth_rate(ledger.growth)


def row_growth_rate(growth: np.ndarray) -> float:
    """growth_rate of one column of daily growth factors."""
    if np.any(growth <= 0.0):
        k = int(np.argmax(growth <= 0.0))
        raise NonPositiveDiamond(f"day {k + 1}: growth factor {float(growth[k])!r} has no log")
    return float(np.mean(np.log(growth)))


def cumulative_return_net(ledger: BacktestLedger) -> float:
    """Product of growth factors discounted by the daily cost ratios."""
    _require_days(ledger)
    _check_cost_ratios(ledger.ratio)
    return float(np.prod(ledger.growth * (1.0 - ledger.ratio)))


def growth_rate_net(ledger: BacktestLedger) -> float:
    """Average log growth per day net of costs."""
    _require_days(ledger)
    log_cost = row_log_cost(ledger.ratio)
    return row_growth_rate(ledger.growth) + log_cost


def row_log_cost(ratio: np.ndarray) -> float:
    """Mean log(1 - c_k) of one cost-ratio column: the part of the net growth rate that costs take."""
    _check_cost_ratios(ratio)
    return float(np.mean(np.log1p(-ratio)))


def _check_cost_ratios(ratio: np.ndarray) -> None:
    """Refuse a cost-ratio column with a day whose cost takes all its capital: its net factor has no log."""
    if np.any(ratio >= 1.0):
        k = int(np.argmax(ratio >= 1.0))
        raise CostRatioAtLeastOne(f"day {k + 1}: cost ratio {float(ratio[k])!r} >= 1")


def single_pair_growth_rate(returns: ReturnStack, i: int, j: int) -> float:
    """Average log return of parking all weight on position (i, j)."""
    if len(expect_stack(returns, ReturnStack)) == 0:
        raise EmptyLedger("no days to average over")
    vals = returns.grids[:, i, j]
    if np.any(vals <= 0.0):
        k = int(np.argmax(vals <= 0.0))
        raise NonPositivePairReturn(f"day {k + 1}: pair ({i}, {j}) returned {float(vals[k])!r}, benchmark undefined")
    return float(np.mean(np.log(vals)))


# Slack on the gap inequality for float rounding in the run's sums.
_GAP_TOL = 1e-9


@dataclass(frozen=True)
class GapResult:
    lhs_gap: float
    rhs_bound: float
    holds: bool


def universality_gap(ledger: BacktestLedger, pair: tuple[int, int], r_floor: float) -> GapResult:
    """Net growth over the single-pair benchmark against the guaranteed floor of the run's own rule and gamma.

    The guarantee assumes a normalized market (every pair's daily return
    sum in [r_floor, 1] with maximum exactly 1), a linear predictor, a
    constant learning rate, and no support floor; runs outside those
    hypotheses are refused.  The arithmetic is pair_gap's, which checks
    the inequality for any rule and gamma.
    """
    _require_days(ledger)
    if not (0.0 < r_floor < 1.0):
        raise InvalidParams(f"return floor must lie in (0, 1), got {r_floor!r}")
    cfg = ledger.config
    update = UpdateConfig(**cfg["update"])  # the run's own rule and gamma, checked as the run checked them
    if cfg["predictor"]["kind"] != "linear":
        raise NormalizationViolated(f"guarantee needs a linear predictor, run used {cfg['predictor']['kind']!r}")
    if update.support_floor != 0.0:
        raise NormalizationViolated("guarantee needs support_floor 0")
    if cfg["schedule"]["mode"] != "constant":
        raise NormalizationViolated("guarantee needs a constant learning rate")
    check_normalized(ledger.returns, r_floor)
    i, j = pair
    benchmark = single_pair_growth_rate(ledger.returns, i, j)
    psi_first, psi_after = float(ledger.portfolios[0][i, j]), float(ledger.next_portfolio[i, j])
    # The weights are refused before the growth and cost-ratio columns, as pair_gap refuses them.
    _check_pair_weights(psi_first, psi_after, pair)
    log_cost = row_log_cost(ledger.ratio)
    net_rate = row_growth_rate(ledger.growth) + log_cost
    return pair_gap(
        net_rate, log_cost, ledger.n_days, benchmark, psi_first, psi_after, pair, update.rule, update.gamma, r_floor
    )


def check_normalized(returns: ReturnStack, r_floor: float) -> None:
    """Refuse a market whose daily pair return sums leave [r_floor, 1] or miss a maximum of 1."""
    grids = returns.grids
    iu, ju = upper_pairs(returns.m)
    pair_sums = grids[:, iu, ju] + grids[:, ju, iu]
    lo, hi = pair_sums.min(axis=1), pair_sums.max(axis=1)
    bad = (np.abs(hi - 1.0) > 1e-9) | (lo < r_floor - 1e-9)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise NormalizationViolated(
            f"day {int(returns.days[k])}: pair return sums in [{float(lo[k])!r}, {float(hi[k])!r}] "
            f"violate the [{r_floor}, 1] normalization"
        )


def pair_gap(
    net_rate: float,
    log_cost: float,
    n_days: int,
    benchmark: float,
    psi_first: float,
    psi_after: float,
    pair: tuple[int, int],
    rule: str,
    gamma: float,
    r_floor: float,
) -> GapResult:
    """The gap inequality of one run against one pair's benchmark.

    net_rate is the run's growth_rate_net and log_cost its row_log_cost
    over its n_days days, so a caller checking many pairs of one run
    computes them once.

    rhs = (1/N) log(psi_1_ij / psi_{N+1}_ij) + (1/N) sum log(1 - c_k)
          + gamma * r_floor - gamma            (iitc)
          + gamma * r_floor - gamma / r_floor  (eiitc)
    """
    _check_pair_weights(psi_first, psi_after, pair)
    penalty = gamma if rule == "iitc" else gamma / r_floor
    rhs = (math.log(psi_first) - math.log(psi_after)) / n_days + log_cost + gamma * r_floor - penalty
    lhs = net_rate - benchmark
    return GapResult(lhs_gap=lhs, rhs_bound=rhs, holds=bool(lhs >= rhs - _GAP_TOL))


def _check_pair_weights(psi_first: float, psi_after: float, pair: tuple[int, int]) -> None:
    """Refuse a pair whose weight on day 1 or after the run is not positive: its log ratio is undefined."""
    if psi_first <= 0.0 or psi_after <= 0.0:
        raise NonPositivePairReturn(
            f"pair ({pair[0]}, {pair[1]}) has weight {psi_first!r} on day 1 and {psi_after!r} after the run; "
            "the guarantee needs both positive"
        )
