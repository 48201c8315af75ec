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


@dataclass(frozen=True)
class CostParams:
    """Fee rate and fixed-point iteration controls."""

    c: float
    fp_tol: float = 1e-10
    fp_max_iter: int = 10_000

    def __post_init__(self):
        if not (0.0 <= self.c < 1.0) or not math.isfinite(self.c):
            raise InvalidC(f"fee rate c must lie in [0, 1), got {self.c!r}")
        if self.fp_tol <= 0.0:
            raise InvalidParams(f"fp_tol must be > 0, got {self.fp_tol!r}")
        if self.fp_max_iter < 1:
            raise InvalidParams(f"fp_max_iter must be >= 1, got {self.fp_max_iter!r}")


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
    converges geometrically.  It stops
    at a step of at most fp_tol, taken relative to T once T exceeds 1:
    above about 1e6 adjacent floats lie further apart than 1e-10.
    """
    if f_k <= 0.0 or not math.isfinite(f_k):
        raise NonPositiveCapital(f"capital must be finite and > 0, got {f_k!r}")
    if params.c == 0.0:
        return 0.0
    w_next = next_weights / next_weights.sum()
    held = f_k * realized_weights
    target = f_k * w_next
    t = 0.0
    for _ in range(params.fp_max_iter):
        t_new = params.c * float(np.abs(target - held - t * w_next).sum())
        if abs(t_new - t) <= params.fp_tol * max(1.0, t_new):
            return t_new
        t = t_new
    raise NoConvergence(
        f"cost fixed point did not move less than {params.fp_tol!r} (relative above 1) "
        f"within {params.fp_max_iter} iterations"
    )


def solve_costs_from_drift(
    f_k: np.ndarray,
    realized_weights: np.ndarray,
    next_weights: np.ndarray,
    c: np.ndarray,
    fp_tol: np.ndarray,
    fp_max_iter: np.ndarray,
) -> np.ndarray:
    """solve_cost_from_drift for each row of a batch: row b solves with f_k[b], its grids, c[b] and its controls.

    Every row iterates from T = 0 with its own stopping test and keeps the
    iterate at which it first stops, so each row is bit-equal to the
    scalar solve.
    """
    bad = ~np.isfinite(f_k) | (f_k <= 0.0)
    if bad.any():
        raise NonPositiveCapital(f"capital must be finite and > 0, got {float(f_k[np.argmax(bad)])!r}")
    rows = len(f_k)
    t = np.zeros(rows)
    todo = c != 0.0
    if not todo.any():
        return t
    w_next = next_weights / next_weights.reshape(rows, -1).sum(axis=1)[:, None, None]
    gap = f_k[:, None, None] * w_next - f_k[:, None, None] * realized_weights
    for step in range(1, int(fp_max_iter[todo].max()) + 1):
        t_new = c * np.abs(gap - t[:, None, None] * w_next).reshape(rows, -1).sum(axis=1)
        stop = np.abs(t_new - t) <= fp_tol * np.maximum(1.0, t_new)
        t = np.where(todo, t_new, t)
        todo &= ~stop
        stuck = todo & (step >= fp_max_iter)
        if stuck.any():
            b = int(np.argmax(stuck))
            raise NoConvergence(
                f"cost fixed point did not move less than {float(fp_tol[b])!r} (relative above 1) "
                f"within {int(fp_max_iter[b])} iterations"
            )
        if not todo.any():
            break
    return t

def cost_bounds(delta: float, c: float) -> tuple[float, float]:
    """Sandwich for the daily cost: (c/(1+c)) * delta <= T <= (c/(1-c)) * delta."""
    if not (0.0 <= c < 1.0) or not math.isfinite(c):
        raise InvalidC(f"fee rate c must lie in [0, 1), got {c!r}")
    if delta < 0.0:
        raise InvalidParams(f"turnover must be >= 0, got {delta!r}")
    return (c / (1.0 + c)) * delta, (c / (1.0 - c)) * delta


def cost_ratio_bound(rule: str, gamma: float, r_floor: float, c: float) -> float:
    """Worst-case next-day cost ratio when all pair returns lie in [r_floor, 1].

    For the iitc rule the bound is (c/(1-c)) * (exp(gamma*(1-r)) - 1); the
    eiitc rule replaces gamma with gamma/r.  Tight exactly when one
    position carries the floor return and another the ceiling.
    """
    if rule not in ("iitc", "eiitc"):
        raise InvalidParams(f"rule must be 'iitc' or 'eiitc', got {rule!r}")
    if not (0.0 < r_floor < 1.0) or not math.isfinite(r_floor):
        raise InvalidParams(f"return floor must lie in (0, 1), got {r_floor!r}")
    if gamma < 0.0 or not math.isfinite(gamma):
        raise InvalidParams(f"gamma must be >= 0, got {gamma!r}")
    if not (0.0 <= c < 1.0) or not math.isfinite(c):
        raise InvalidC(f"fee rate c must lie in [0, 1), got {c!r}")
    rate = gamma if rule == "iitc" else gamma / r_floor
    return (c / (1.0 - c)) * math.expm1(rate * (1.0 - r_floor))
