"""Proportional transaction costs charged on rebalancing.

The fee is proportional to the cash that actually moves, and the cash
that moves depends on the fee (paying it shrinks every target position),
so the daily cost is the fixed point of a contraction with constant at
most the fee rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidC, InvalidParams, NoConvergence, NonPositiveCapital
from .updates import UpdateConfig


# Both solves stop at a step of at most FP_TOL, taken relative to T once T
# exceeds 1: above about 1e6 adjacent floats lie further apart than 1e-10.
FP_TOL = 1e-10
FP_MAX_ITER = 10_000
_STUCK = f"cost fixed point did not move less than {FP_TOL!r} (relative above 1) within {FP_MAX_ITER} iterations"


@dataclass(frozen=True)
class CostParams:
    """Fee rate."""

    c: float

    def __post_init__(self):
        if not (0.0 <= self.c < 1.0) or not math.isfinite(self.c):
            raise InvalidC(f"fee rate c must lie in [0, 1), got {self.c!r}")


def solve_cost_from_drift(
    f_k: float,
    realized_weights: np.ndarray,
    next_weights: np.ndarray,
    params: CostParams,
) -> float:
    """Fixed point of T = c * sum_ij |f_k next_ij - f_k realized_ij - T next_ij|.

    realized_weights are the post-return position weights (they may be a
    carried portfolio on a day with no return), next_weights the target
    portfolio's.  Starts at T = 0 and iterates; the map is a contraction
    with constant <= c, so the fixed point is unique and the iteration
    converges geometrically.  It stops at the first step within FP_TOL.
    """
    if f_k <= 0.0 or not math.isfinite(f_k):
        raise NonPositiveCapital(f"capital must be finite and > 0, got {f_k!r}")
    c = params.c
    if c == 0.0:
        return 0.0
    w_next = next_weights / np.add.reduce(next_weights, None)
    gap = f_k * w_next - f_k * realized_weights
    # The first iterate, from T = 0: the 0 * w_next term could only flip the
    # sign of a zero, which abs drops.  Its step from 0 is within FP_TOL
    # exactly when it is at most FP_TOL, or inf (inf <= FP_TOL * inf).
    t = c * float(np.add.reduce(np.abs(gap), None))
    if t <= FP_TOL or t == math.inf:
        return t
    for _ in range(FP_MAX_ITER - 1):
        t_new = c * float(np.add.reduce(np.abs(gap - t * w_next), None))
        if abs(t_new - t) <= FP_TOL * max(1.0, t_new):
            return t_new
        t = t_new
    raise NoConvergence(_STUCK)


def fixed_point_costs(f_k: np.ndarray, drift: np.ndarray, next_weights: np.ndarray, c: np.ndarray) -> np.ndarray:
    """solve_cost_from_drift for each row of flat (rows, m*m) grids.

    Each row of next_weights is normalized to sum 1, then every row
    iterates from T = 0 with its own stopping test and keeps the iterate
    at which it first stops, as solve_cost_from_drift does.  The capital
    check is the caller's.
    """
    w_next = next_weights / np.add.reduce(next_weights, 1, keepdims=True)
    # A row with c = 0 costs +0.0 whatever its capital: the scalar solve does no arithmetic for it.
    f = np.where(c == 0.0, 0.0, f_k)[:, None]
    gap = f * w_next - f * drift
    # The first iterate, as in the scalar solve.
    t = c * np.add.reduce(np.abs(gap), 1)
    # Most days of a sweep over a normalized market stop here: once the books settle, every
    # member's first iterate is within FP_TOL, and one max settles the day (an empty batch too).
    if t.max(initial=0.0) <= FP_TOL:
        return t
    inf = t == np.inf
    todo = ~((t <= FP_TOL) | inf)
    if not todo.any():
        return t
    # An inf first iterate times a zero target weight would be nan, so a row done at inf waits
    # out the loop on a zero gap at T = 0 and gets inf back at the end.
    held = inf.any()
    if held:
        gap[inf], t = 0.0, np.where(inf, 0.0, t)
    for _ in range(FP_MAX_ITER - 1):
        t_new = c * np.add.reduce(np.abs(gap - t[:, None] * w_next), 1)
        stop = np.abs(t_new - t) <= FP_TOL * np.maximum(1.0, t_new)
        t = np.where(todo, t_new, t)
        todo &= ~stop
        if not todo.any():
            return np.where(inf, np.inf, t) if held else t
    raise NoConvergence(_STUCK)


def cost_bounds(delta: float, c: float) -> tuple[float, float]:
    """Sandwich for the daily cost: (c/(1+c)) * delta <= T <= (c/(1-c)) * delta."""
    CostParams(c)
    if delta < 0.0 or not math.isfinite(delta):
        raise InvalidParams(f"turnover must be finite and >= 0, got {delta!r}")
    return (c / (1.0 + c)) * delta, (c / (1.0 - c)) * delta


def cost_ratio_bound(rule: str, gamma: float, r_floor: float, c: float) -> float:
    """Worst-case next-day cost ratio when all pair returns lie in [r_floor, 1].

    For the iitc rule the bound is (c/(1-c)) * (exp(gamma*(1-r)) - 1); the
    eiitc rule replaces gamma with gamma/r.  Tight exactly when one
    position carries the floor return and another the ceiling.
    """
    UpdateConfig(rule, gamma)
    if not (0.0 < r_floor < 1.0) or not math.isfinite(r_floor):
        raise InvalidParams(f"return floor must lie in (0, 1), got {r_floor!r}")
    CostParams(c)
    rate = gamma if rule == "iitc" else gamma / r_floor
    return (c / (1.0 - c)) * math.expm1(rate * (1.0 - r_floor))
