"""Portfolio matrices over currency pairs and the algebra the engine uses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidM, SupportViolation, ZeroReturn
from .market import ReturnMatrix, _raise_first

WEIGHT_SUM_TOL = 1e-9


def check_weights(days: np.ndarray, grids: np.ndarray) -> None:
    """Check a weight stack: finite entries >= 0, a zero diagonal, a sum within WEIGHT_SUM_TOL of 1, in that order."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf and -inf sum to nan, huge weights to inf: a rule names each
        _raise_first(days, [
            (np.isfinite(grids) & (grids >= 0.0), lambda day, k, i, j: DimensionMismatch(
                f"day {day}: weight at ({i}, {j}) is {float(grids[k, i, j])!r}, must be finite and >= 0")),
            (np.diagonal(grids, axis1=1, axis2=2) == 0.0, lambda day, k, i: DimensionMismatch(
                f"day {day}: diagonal weight at ({i}, {i}) must be 0")),
            (np.abs(grids.sum(axis=(1, 2)) - 1.0) <= WEIGHT_SUM_TOL, lambda day, k: DimensionMismatch(
                f"day {day}: weights sum to {float(grids[k].sum())!r}, must be 1 within {WEIGHT_SUM_TOL}")),
        ])


@dataclass(frozen=True)
class PortfolioMatrix:
    """Nonnegative weights over ordered currency pairs, zero diagonal, summing to one: check_weights of a stack of one."""

    day: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).copy()
        if w.ndim != 2 or w.shape[0] != w.shape[1] or w.shape[0] < 2:
            raise DimensionMismatch(f"weights must be square with m >= 2, got shape {w.shape}")
        check_weights([self.day], w[np.newaxis])
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def m(self) -> int:
        return self.weights.shape[0]


def uniform_portfolio(m: int, day: int = 1) -> PortfolioMatrix:
    """Equal weight 1/(m(m-1)) on every ordered off-diagonal pair."""
    if m < 2:
        raise InvalidM(f"need at least two currencies, got m={m}")
    return PortfolioMatrix(day=day, weights=uniform_weights(m))


def uniform_weights(m: int) -> np.ndarray:
    """The weight grid of uniform_portfolio, unchecked."""
    w = np.full((m, m), 1.0 / (m * (m - 1)))
    np.fill_diagonal(w, 0.0)
    return w


def gross_return(psi: PortfolioMatrix, returns: ReturnMatrix) -> float:
    """The day's growth factor: sum of weights times price relatives."""
    if psi.m != returns.m:
        raise DimensionMismatch(f"portfolio is {psi.m}x{psi.m} but returns are {returns.m}x{returns.m}")
    return float(np.sum(psi.weights * returns.entries))


def realized_portfolio(psi: PortfolioMatrix, returns: ReturnMatrix) -> PortfolioMatrix:
    """Weights after the day's returns act on the positions.

    Each position grows by its own price relative and the grid is
    renormalized by the day's growth factor, so positions in pairs that
    did not fire drop to zero weight.
    """
    growth = gross_return(psi, returns)
    if growth <= 0.0:
        raise ZeroReturn(f"day {returns.day}: portfolio return is {growth!r}, realized weights undefined")
    return PortfolioMatrix(day=returns.day, weights=psi.weights * returns.entries / growth)


def l1_distance(a: PortfolioMatrix, b: PortfolioMatrix) -> float:
    """Entrywise absolute difference, summed. At most 2 for two portfolios."""
    if a.m != b.m:
        raise DimensionMismatch(f"portfolios are {a.m}x{a.m} and {b.m}x{b.m}")
    return float(np.sum(np.abs(a.weights - b.weights)))


def relative_entropy(next_psi: PortfolioMatrix, base: PortfolioMatrix) -> float:
    """KL divergence of next_psi from base in nats, with 0 log 0 = 0.

    Mass in next_psi where base has none makes the divergence infinite;
    that is reported as a SupportViolation rather than returned.
    """
    if next_psi.m != base.m:
        raise DimensionMismatch(f"portfolios are {next_psi.m}x{next_psi.m} and {base.m}x{base.m}")
    p = next_psi.weights
    q = base.weights
    escaped = (p > 0.0) & (q == 0.0)
    if np.any(escaped):
        i, j = np.argwhere(escaped)[0]
        raise SupportViolation(
            f"weight {float(p[i, j])!r} at ({i}, {j}) has no support in the base portfolio"
        )
    mask = p > 0.0
    return float(np.sum(p[mask] * np.log(p[mask] / q[mask])))
