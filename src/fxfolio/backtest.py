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

from .costs import CostParams, solve_cost_from_drift
from .crossrate import (
    SWAP,
    PredictorConfig,
    adjusted_cross_rate,
    cross_rate,
    grid_order,
    grid_orders,
    mpcr_predict,
    prediction_hits,
    reference_day,
)
from .errors import (
    CostRatioAtLeastOne,
    EmptyLedger,
    InsufficientHistory,
    InvalidBlockUnit,
    InvalidParams,
    NonPositiveCapital,
    NonPositiveDiamond,
    NonPositivePairReturn,
    NormalizationViolated,
    TooFewDays,
)
from .market import QuoteStack, ReturnStack, as_stack, compute_returns, upper_pairs
from .portfolio import uniform_portfolio
from .updates import tilt


@dataclass(frozen=True)
class UpdateConfig:
    """Tilt rule, learning rate, and optional uniform mix-in to keep support alive."""

    rule: str = "iitc"
    gamma: float = 0.1
    support_floor: float = 0.0

    def __post_init__(self):
        if self.rule not in ("iitc", "eiitc"):
            raise InvalidParams(f"rule must be 'iitc' or 'eiitc', got {self.rule!r}")
        if self.gamma < 0.0 or not math.isfinite(self.gamma):
            raise InvalidParams(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (0.0 <= self.support_floor < 1.0):
            raise InvalidParams(f"support_floor must lie in [0, 1), got {self.support_floor!r}")


@dataclass(frozen=True)
class GammaSchedule:
    """Constant learning rate, or gamma0/i on the i-th growing block of days."""

    mode: str = "constant"
    gamma0: float = 0.1
    block_unit: int = 5

    def __post_init__(self):
        if self.mode not in ("constant", "block-decaying"):
            raise InvalidParams(f"mode must be 'constant' or 'block-decaying', got {self.mode!r}")
        if self.gamma0 < 0.0 or not math.isfinite(self.gamma0):
            raise InvalidParams(f"gamma0 must be finite and >= 0, got {self.gamma0!r}")

    def per_day(self, n_days: int) -> np.ndarray:
        """Gamma for days 1..n_days+1 (index 0 unused)."""
        out = np.full(n_days + 2, self.gamma0)
        if self.mode == "block-decaying":
            for i, block in enumerate(block_partition(n_days, self.block_unit), start=1):
                for d in block:
                    out[d] = self.gamma0 / i
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

    def predict(self, history: Sequence[np.ndarray]) -> np.ndarray:
        """Blend of the latest return grids, newest first.

        Days whose maxima sit on opposite triangles blend into a grid with
        mass at both mirrored positions, which no ReturnMatrix may hold.
        """
        depth = min(len(self.weights), len(history))
        w = np.array(self.weights[:depth])
        w = w / w.sum()
        return sum(w[l] * history[-1 - l] for l in range(depth))


def block_partition(n_days: int, unit: int) -> list[range]:
    """Split days 1..n_days into blocks of lengths unit, 2*unit, 3*unit, ...

    The i-th block covers days i(i-1)unit/2 + 1 through i(i+1)unit/2,
    except the last, which is cut at n_days.
    """
    if not (1 < unit < n_days):
        raise InvalidBlockUnit(f"block unit must satisfy 1 < unit < n_days, got unit={unit}, n_days={n_days}")
    count = math.ceil((math.sqrt(1.0 + 8.0 * n_days / unit) - 1.0) / 2.0)
    # Guard the float sqrt near integer roots.
    while count * (count + 1) * unit // 2 < n_days:
        count += 1
    while count > 1 and (count - 1) * count * unit // 2 >= n_days:
        count -= 1
    blocks = []
    for i in range(1, count + 1):
        start = i * (i - 1) * unit // 2 + 1
        end = i * (i + 1) * unit // 2 if i < count else n_days
        blocks.append(range(start, end + 1))
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


def run_backtest(
    market: QuoteStack | ReturnStack | Sequence,
    predictor: PredictorConfig | LinearPredictor | None = None,
    update: UpdateConfig = UpdateConfig(),
    schedule: GammaSchedule | None = None,
    costs: CostParams | None = None,
    f0: float = 1.0,
) -> BacktestLedger:
    """Run the daily cycle over a QuoteStack or ReturnStack (or a sequence of their one-day objects).

    Every day's returns and order are computed over the whole stack
    before the loop; each depends on its own day only.  With no
    predictor (or while the predictor still lacks history) the weights
    simply drift with the returns, which is the gamma = 0 behaviour.
    Day indices in the ledger are positional, 1..N.
    """
    if f0 <= 0.0 or not math.isfinite(f0):
        raise NonPositiveCapital(f"starting capital must be finite and > 0, got {f0!r}")
    if len(market) < 2:
        raise TooFewDays(f"a backtest needs at least 2 days, got {len(market)}")
    rets = as_stack(market)
    if isinstance(rets, QuoteStack):
        rets = compute_returns(rets)
    n = len(rets)
    m = rets.m
    if costs is None:
        costs = CostParams(0.0)
    if schedule is None:
        schedule = GammaSchedule(mode="constant", gamma0=update.gamma)
    gammas = schedule.per_day(n)

    cfg = predictor if isinstance(predictor, PredictorConfig) else None
    lin = predictor if isinstance(predictor, LinearPredictor) else None
    seg_len = cfg.segment.L if cfg is not None else 0

    f_col = np.empty(n)
    fp_col = np.empty(n)
    t_col = np.empty(n)
    c_col = np.empty(n)
    g_col = np.empty(n)
    parked_col = np.zeros(n, dtype=bool)
    op_col = np.full(n, -1, dtype=np.int64)
    crossed_col = np.zeros(n, dtype=bool)
    psi_list: list[np.ndarray] = []
    drift_list: list[np.ndarray] = []
    pred_list: list[np.ndarray | None] = [None] * n

    # Validated once, in the stack; from here on the loop runs on bare grids.
    grids = rets.grids
    oa_col = grid_orders(grids)
    day_orders = oa_col.tolist()
    psi = uniform_portfolio(m, day=1).weights
    f_prev = f0
    t_charge = 0.0
    orders: list[int] = []
    w_hist: list[float] = []
    pred_next: np.ndarray | None = None
    order_next = -1
    crossed_next = False

    for k in range(1, n + 1):
        r_k = grids[k - 1]
        fp = f_prev - t_charge
        if fp <= 0.0:
            raise NonPositiveCapital(f"day {k}: costs of {t_charge!r} exhaust capital {f_prev!r}")
        diamond = float(np.sum(psi * r_k))
        if diamond > 0.0:
            f_k = fp * diamond
            drift = psi * r_k / diamond
            growth = diamond
        else:
            f_k = fp
            drift = psi
            growth = 1.0
            parked_col[k - 1] = True

        orders.append(day_orders[k - 1])

        psi_list.append(psi)
        drift_list.append(drift)
        pred_list[k - 1] = pred_next
        day_idx = k - 1
        f_col[day_idx] = f_k
        fp_col[day_idx] = fp
        t_col[day_idx] = t_charge
        c_col[day_idx] = 0.0 if k == 1 else t_charge / f_prev
        g_col[day_idx] = growth
        op_col[day_idx] = order_next
        crossed_col[day_idx] = crossed_next

        # Segment bookkeeping, then the prediction for day k+1.
        if cfg is not None and seg_len > 0 and k % seg_len == 0:
            seg = k // seg_len
            seg_orders = orders[(seg - 1) * seg_len : k]
            if cfg.adjusted:
                w_hist.append(adjusted_cross_rate(seg_orders, history=orders[: (seg - 1) * seg_len]))
            else:
                prev = orders[(seg - 1) * seg_len - 1] if seg > 1 else None
                w_hist.append(cross_rate(seg_orders, prev))

        pred_next = None
        order_next = -1
        crossed_next = False
        if lin is not None:
            pred_next = lin.predict(grids[:k])
            order_next = grid_order(pred_next)
        elif cfg is not None and w_hist:
            w_pred = mpcr_predict(cfg.mpcr, w_hist, cfg.segment)
            try:
                ref, swap = reference_day(cfg.mpo, cfg.adjusted, w_pred, orders)
            except InsufficientHistory:
                pass
            else:
                pred_next = grids[ref - 1].T.copy() if swap else grids[ref - 1]
                order_next = SWAP[orders[ref - 1]] if swap else orders[ref - 1]
                crossed_next = ref <= (k // seg_len) * seg_len

        gamma_next = gammas[min(k + 1, n + 1)]
        if pred_next is not None and gamma_next > 0.0:
            psi = tilt(update.rule, drift, pred_next, gamma_next, update.support_floor)
        else:
            psi = drift

        t_charge = solve_cost_from_drift(f_k, drift, psi, costs)
        f_prev = f_k

    config = {
        "f0": f0,
        "m": m,
        "n_days": n,
        "update": {"rule": update.rule, "gamma": update.gamma, "support_floor": update.support_floor},
        "schedule": {"mode": schedule.mode, "gamma0": schedule.gamma0, "block_unit": schedule.block_unit},
        "costs": {"c": costs.c, "fp_tol": costs.fp_tol, "fp_max_iter": costs.fp_max_iter},
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
        order_actual=oa_col,
        order_pred=op_col,
        pred_crossed_segment=crossed_col,
        portfolios=psi_list,
        realized=drift_list,
        returns=rets,
        predicted=pred_list,
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
    if np.any(ledger.growth <= 0.0):
        k = int(np.argmax(ledger.growth <= 0.0))
        raise NonPositiveDiamond(f"day {k + 1}: growth factor {float(ledger.growth[k])!r} has no log")
    return float(np.mean(np.log(ledger.growth)))


def cumulative_return_net(ledger: BacktestLedger) -> float:
    """Product of growth factors discounted by the daily cost ratios."""
    _require_days(ledger)
    if np.any(ledger.ratio >= 1.0):
        k = int(np.argmax(ledger.ratio >= 1.0))
        raise CostRatioAtLeastOne(f"day {k + 1}: cost ratio {float(ledger.ratio[k])!r} >= 1")
    return float(np.prod(ledger.growth * (1.0 - ledger.ratio)))


def growth_rate_net(ledger: BacktestLedger) -> float:
    """Average log growth per day net of costs."""
    if np.any(ledger.ratio >= 1.0):
        k = int(np.argmax(ledger.ratio >= 1.0))
        raise CostRatioAtLeastOne(f"day {k + 1}: cost ratio {float(ledger.ratio[k])!r} >= 1")
    return growth_rate(ledger) + float(np.mean(np.log1p(-ledger.ratio)))


def single_pair_growth_rate(returns: ReturnStack | Sequence, i: int, j: int) -> float:
    """Average log return of parking all weight on position (i, j)."""
    if len(returns) == 0:
        raise EmptyLedger("no days to average over")
    vals = as_stack(returns).grids[:, i, j]
    if np.any(vals <= 0.0):
        k = int(np.argmax(vals <= 0.0))
        raise NonPositivePairReturn(f"day {k + 1}: pair ({i}, {j}) returned {float(vals[k])!r}, benchmark undefined")
    return float(np.mean(np.log(vals)))


@dataclass(frozen=True)
class GapResult:
    lhs_gap: float
    rhs_bound: float
    holds: bool


def universality_gap(
    ledger: BacktestLedger,
    pair: tuple[int, int],
    rule: str,
    gamma: float,
    r_floor: float,
    force: bool = False,
    tol: float = 1e-9,
) -> GapResult:
    """Net growth over the single-pair benchmark against its guaranteed floor.

    The guarantee assumes a normalized market (every pair's daily return
    sum in [r_floor, 1] with maximum exactly 1), a linear predictor, a
    constant learning rate, and no support floor.  Runs outside those
    hypotheses are refused unless force is set.

    rhs = (1/N) log(psi_1_ij / psi_{N+1}_ij) + (1/N) sum log(1 - c_k)
          + gamma * r_floor - gamma            (iitc)
          + gamma * r_floor - gamma / r_floor  (eiitc)
    """
    _require_days(ledger)
    if rule not in ("iitc", "eiitc"):
        raise InvalidParams(f"rule must be 'iitc' or 'eiitc', got {rule!r}")
    if not (0.0 < r_floor < 1.0):
        raise InvalidParams(f"return floor must lie in (0, 1), got {r_floor!r}")
    if gamma < 0.0:
        raise InvalidParams(f"gamma must be >= 0, got {gamma!r}")
    if not force:
        cfg = ledger.config
        if cfg["predictor"]["kind"] != "linear":
            raise NormalizationViolated(
                f"guarantee needs a linear predictor, run used {cfg['predictor']['kind']!r} (pass force to override)"
            )
        if cfg["update"]["rule"] != rule or cfg["update"]["gamma"] != gamma:
            raise NormalizationViolated(
                f"run used rule {cfg['update']['rule']!r} with gamma {cfg['update']['gamma']!r}, "
                f"not {rule!r} with {gamma!r} (pass force to override)"
            )
        if cfg["update"]["support_floor"] != 0.0:
            raise NormalizationViolated("guarantee needs support_floor 0 (pass force to override)")
        if cfg["schedule"]["mode"] != "constant":
            raise NormalizationViolated("guarantee needs a constant learning rate (pass force to override)")
        grids = ledger.returns.grids
        iu, ju = upper_pairs(ledger.m)
        pair_sums = grids[:, iu, ju] + grids[:, ju, iu]
        lo, hi = pair_sums.min(axis=1), pair_sums.max(axis=1)
        bad = (np.abs(hi - 1.0) > 1e-9) | (lo < r_floor - 1e-9)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise NormalizationViolated(
                f"day {int(ledger.returns.days[k])}: pair return sums in [{float(lo[k])!r}, {float(hi[k])!r}] "
                f"violate the [{r_floor}, 1] normalization (pass force to override)"
            )
    i, j = pair
    benchmark = single_pair_growth_rate(ledger.returns, i, j)
    psi_first = float(ledger.portfolios[0][i, j])
    psi_after = float(ledger.next_portfolio[i, j])
    if psi_first <= 0.0 or psi_after <= 0.0:
        raise NonPositivePairReturn(
            f"pair ({i}, {j}) has weight {psi_first!r} on day 1 and {psi_after!r} after the run; "
            "the guarantee needs both positive"
        )
    n = ledger.n_days
    penalty = gamma if rule == "iitc" else gamma / r_floor
    rhs = (
        (math.log(psi_first) - math.log(psi_after)) / n
        + float(np.mean(np.log1p(-ledger.ratio)))
        + gamma * r_floor
        - penalty
    )
    lhs = growth_rate_net(ledger) - benchmark
    return GapResult(lhs_gap=lhs, rhs_bound=rhs, holds=bool(lhs >= rhs - tol))


def segment_success_rates(ledger: BacktestLedger, seg_len: int) -> tuple[list[float], list[bool]]:
    """Per-segment prediction success over complete, fully predicted segments.

    A day counts as a hit only when its predicted order equals a
    decisive actual order; segments containing any day without a
    prediction are skipped.
    """
    if seg_len < 1:
        raise InvalidParams(f"segment length must be >= 1, got {seg_len!r}")
    thetas: list[float] = []
    flags: list[bool] = []
    n = ledger.n_days
    for start in range(0, (n // seg_len) * seg_len, seg_len):
        pred = ledger.order_pred[start : start + seg_len]
        actual = ledger.order_actual[start : start + seg_len]
        if np.any(pred < 0):
            continue
        theta = prediction_hits(list(pred), list(actual)) / seg_len
        thetas.append(theta)
        flags.append(theta >= 0.5)
    return thetas, flags
