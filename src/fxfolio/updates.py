"""Multiplicative weight updates tilted toward predicted returns.

Both rules move the drifted weights toward positions with high predicted
price relatives while a relative-entropy penalty keeps them close to
where the returns already put them.  The iitc rule tilts by the raw
prediction; the eiitc rule rescales the tilt by the predicted growth of
the drifted portfolio, which sharpens it whenever that growth is below
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, ZeroDiamond
from .market import ReturnMatrix
from .portfolio import PortfolioMatrix, gross_return, relative_entropy, uniform_weights


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


def _check_inputs(realized: PortfolioMatrix, r_pred: ReturnMatrix, gamma: float, support_floor: float) -> None:
    UpdateConfig(gamma=gamma, support_floor=support_floor)
    if realized.m != r_pred.m:
        raise InvalidParams(f"portfolio is {realized.m}x{realized.m} but prediction is {r_pred.m}x{r_pred.m}")


def _tilt(w: np.ndarray, r_pred: np.ndarray, gamma: float, growth: float, support_floor: float) -> np.ndarray:
    """w * exp((gamma / growth) * r_pred) on w's support, renormalized, then mixed with uniform."""
    rate = float(gamma) / growth
    active = w > 0.0
    # Off the support the exponent is -inf, so its factor is exactly 0, and it
    # never overflows there: the rate multiplies the support alone.
    out = np.where(active, r_pred, -np.inf)
    # Shift before exponentiating; with a zero shift the factors are exactly 1.
    # Rounding is monotone, so this is exactly the largest active exponent.
    shift = rate * float(np.maximum.reduce(out, None))
    if not math.isfinite(shift):
        raise InvalidParams(f"gamma {float(gamma)!r} overflows the tilt exponent: {shift!r} at the best return")
    np.multiply(rate, out, out=out, where=active)
    out -= shift
    np.exp(out, out=out)
    out *= w
    out /= np.add.reduce(out, None)
    if support_floor > 0.0:
        out = (1.0 - support_floor) * out + support_floor * uniform_weights(w.shape[0])
    return out


def tilt(rule: str, drift: np.ndarray, pred: np.ndarray, gamma: float, support_floor: float) -> np.ndarray:
    """The engine's unchecked update of a drifted weight grid toward a predicted grid.

    Where eiitc's predicted growth is <= 0 the prediction is 0 on every
    held position, so the tilt's limit, the drift itself, is returned.
    """
    if rule == "iitc":
        return _tilt(drift, pred, gamma, 1.0, support_floor)
    growth = float(np.add.reduce(drift * pred, None))
    if growth <= 0.0:
        return drift
    return _tilt(drift, pred, gamma, growth, support_floor)


def tilts(
    eiitc: np.ndarray, drift: np.ndarray, pred: np.ndarray, gamma: np.ndarray, support_floor: np.ndarray
) -> np.ndarray:
    """tilt for each row of a (B, m, m) batch of drifted grids toward one shared prediction.

    Row b follows rule eiitc[b] at gamma[b] and support_floor[b], bit for
    bit as tilt does; a row with gamma 0, or an eiitc row whose predicted
    growth is <= 0, keeps its drift.
    """
    rows = len(drift)
    growth = np.where(eiitc, np.add.reduce((drift * pred).reshape(rows, -1), 1), 1.0)
    tilted = (gamma > 0.0) & ~(growth <= 0.0)
    if not tilted.any():
        return drift
    active = drift > 0.0
    out = np.where(active, pred, -np.inf)
    with np.errstate(over="ignore"):  # an overflowing row is refused just below, as tilt refuses it
        rate = np.where(tilted, gamma / np.where(tilted, growth, 1.0), 0.0)
        shift = rate * np.maximum.reduce(out.reshape(rows, -1), 1)
    overflow = tilted & ~np.isfinite(shift)
    if overflow.any():
        b = int(np.argmax(overflow))
        raise InvalidParams(
            f"gamma {float(gamma[b])!r} overflows the tilt exponent: {float(shift[b])!r} at the best return"
        )
    np.multiply(rate[:, None, None], out, out=out, where=active)
    out -= shift[:, None, None]
    np.exp(out, out=out)
    out *= drift
    out /= np.add.reduce(out.reshape(rows, -1), 1)[:, None, None]
    if np.any(support_floor > 0.0):
        floor = support_floor[:, None, None]
        out = np.where(floor > 0.0, (1.0 - floor) * out + floor * uniform_weights(drift.shape[1]), out)
    return np.where(tilted[:, None, None], out, drift)


def iitc_update(
    realized: PortfolioMatrix,
    r_pred: ReturnMatrix,
    gamma: float,
    support_floor: float = 0.0,
) -> PortfolioMatrix:
    """Next-day weights proportional to realized * exp(gamma * predicted return)."""
    _check_inputs(realized, r_pred, gamma, support_floor)
    out = _tilt(realized.weights, r_pred.entries, gamma, 1.0, support_floor)
    return PortfolioMatrix(day=realized.day + 1, weights=out)


def eiitc_update(
    realized: PortfolioMatrix,
    r_pred: ReturnMatrix,
    gamma: float,
    support_floor: float = 0.0,
) -> PortfolioMatrix:
    """Like iitc_update with the exponent divided by the predicted drift growth."""
    _check_inputs(realized, r_pred, gamma, support_floor)
    drift_growth = gross_return(realized, r_pred)
    if drift_growth <= 0.0:
        raise ZeroDiamond(f"predicted growth of the drifted portfolio is {drift_growth!r}, tilt undefined")
    out = _tilt(realized.weights, r_pred.entries, gamma, drift_growth, support_floor)
    return PortfolioMatrix(day=realized.day + 1, weights=out)


def objective_value(
    rule: str,
    psi_next: PortfolioMatrix,
    realized: PortfolioMatrix,
    r_pred: ReturnMatrix,
    gamma: float,
) -> float:
    """Regularized objective each update maximizes over the simplex.

    iitc:  gamma * (psi_next . r_pred) - KL(psi_next || realized)

    eiitc: gamma * (log(realized . r_pred)
                    + sum_ij r_pred_ij * (psi_next_ij - realized_ij) / (realized . r_pred))
           - KL(psi_next || realized)

    The eiitc expression is the first-order expansion of the log growth
    around the drifted weights; expanding there (and not at psi_next)
    is what makes its closed-form maximizer the eiitc_update tilt.
    """
    UpdateConfig(rule, gamma)
    penalty = relative_entropy(psi_next, realized)
    if rule == "iitc":
        return gamma * gross_return(psi_next, r_pred) - penalty
    drift_growth = gross_return(realized, r_pred)
    next_growth = gross_return(psi_next, r_pred)
    if drift_growth <= 0.0 or next_growth <= 0.0:
        raise ZeroDiamond(
            f"predicted growth must be positive, got {drift_growth!r} for the drifted "
            f"weights and {next_growth!r} for the candidate"
        )
    linear_term = (next_growth - drift_growth) / drift_growth
    return gamma * (math.log(drift_growth) + linear_term) - penalty
