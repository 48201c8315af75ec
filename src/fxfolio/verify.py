"""Randomized verification suites behind the ``verify`` subcommand.

Each suite replays a guarantee on freshly generated synthetic data and
reports every violation with the seed that produced it, so a failure is
reproducible from the command line.  Replicate r always uses seed + r.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .backtest import (
    LinearPredictor,
    UpdateConfig,
    check_normalized,
    pair_gap,
    row_growth_rate,
    row_growth_rate_net,
    single_pair_growth_rate,
    sweep,
)
from .costs import CostParams, cost_bounds, cost_ratio_bound, solve_costs_from_drift
from .crossrate import (
    PredictorConfig,
    SegmentConfig,
    effectiveness_ratio,
    predicted_references,
    referenced_orders,
    segment_success_rates,
)
from .data_io import (
    SyntheticMarketSpec,
    SyntheticOrderSpec,
    generate_market,
    normalized_returns,
    order_labels,
    symmetric_masses,
)
from .errors import InvalidParams


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checked: int
    violations: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


def _check_run(replicates: int, seed: int) -> None:
    if replicates < 1:
        raise InvalidParams(f"replicates must be >= 1, got {replicates}")
    if seed < 0:
        raise InvalidParams(f"seed must be >= 0, got {seed}")


# ---------------------------------------------------------------------------
# universality sweep (gap inequality + cost-ratio bound + ledger identities)

_GAMMAS = (0.0, 0.1, 0.5)
_COST_LEVELS = (0.0, 0.005)
_MEMBERS = [
    (UpdateConfig(rule=rule, gamma=gamma), CostParams(c))
    for rule in ("iitc", "eiitc")
    for gamma in _GAMMAS
    for c in _COST_LEVELS
]


def _universality_replicate(args) -> tuple[int, list[str], float]:
    """One market's checks: every (rule, gamma, c) member runs in one sweep, then each is checked per pair."""
    idx, base_seed, n_days, r_floor = args
    seed = base_seed + idx
    m = 2 + idx % 3
    quotes = generate_market(SyntheticMarketSpec(m=m, n_days=n_days, seed=seed, normalize=True, r_floor=r_floor))
    rets = normalized_returns(quotes)
    check_normalized(rets, r_floor)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    benchmarks = [single_pair_growth_rate(rets, i, j) for i, j in pairs]
    f0 = 1.0
    runs = sweep(rets, LinearPredictor((1.0,)), _MEMBERS, f0=f0)
    violations: list[str] = []
    checked = 0
    min_margin = math.inf
    for b, (update, costs) in enumerate(_MEMBERS):
        rule, gamma, c = update.rule, update.gamma, costs.c
        capital, capital_net, cost = runs.capital[b], runs.capital_net[b], runs.cost[b]
        ratio, growth = runs.ratio[b], runs.growth[b]
        tag = f"seed={seed} m={m} rule={rule} gamma={gamma} c={c}"
        prev_f = np.concatenate(([f0], capital[:-1]))
        err = np.abs(capital_net - (prev_f - cost))
        scale = np.maximum(1.0, np.abs(prev_f))
        if np.any(err > 1e-9 * scale):
            violations.append(f"{tag}: capital identity off by {float((err / scale).max()):.3e}")
        decomp = row_growth_rate(growth) + float(np.mean(np.log1p(-ratio)))
        if abs(decomp - row_growth_rate_net(growth, ratio)) > 1e-9 * max(1.0, abs(decomp)):
            violations.append(f"{tag}: net growth-rate decomposition broken")
        bound = cost_ratio_bound(rule, gamma, r_floor, c)
        worst = float(ratio[1:].max(initial=0.0))
        if worst > bound + 1e-9:
            violations.append(f"{tag}: realized cost ratio {worst!r} exceeds bound {bound!r}")
        for (i, j), benchmark in zip(pairs, benchmarks):
            res = pair_gap(
                growth,
                ratio,
                benchmark,
                float(runs.first_portfolio[i, j]),
                float(runs.next_portfolio[b, i, j]),
                (i, j),
                rule,
                gamma,
                r_floor,
            )
            checked += 1
            min_margin = min(min_margin, res.lhs_gap - res.rhs_bound)
            if not res.holds:
                violations.append(f"{tag} pair=({i},{j}): gap {res.lhs_gap!r} < bound {res.rhs_bound!r}")
    return checked, violations, min_margin


def universality_suite(replicates: int = 100, seed: int = 1, n_days: int = 250, r_floor: float = 0.5, jobs: int = 1) -> SuiteResult:
    _check_run(replicates, seed)
    args = [(idx, seed, n_days, r_floor) for idx in range(replicates)]
    workers = min(jobs, replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_universality_replicate, args))
    else:
        results = [_universality_replicate(a) for a in args]
    checked = sum(r[0] for r in results)
    violations = [v for r in results for v in r[1]]
    min_margin = min(r[2] for r in results)
    return SuiteResult(
        suite="universality",
        passed=not violations,
        checked=checked,
        violations=violations,
        stats={"replicates": replicates, "gap_checks": checked, "min_margin": min_margin},
    )


# ---------------------------------------------------------------------------
# profitability Monte Carlo (segment effectiveness frequency)


# How far below its nominal level each effectiveness clause may fall.
_SLACK = 0.05


def profitability_suite(
    segments: int = 20_000,
    seg_len: int = 5,
    seed: int = 1,
    same_class_mass: float = 0.78,
    flip_mass: float = 0.6,
) -> SuiteResult:
    """Monte Carlo check that segment-level prediction stays effective.

    Day-level predictions use the engine's plain one-day-back order rule
    (mpo 1); the cross rate method under test picks the persist-or-flip
    regime per segment from the segments before it.  Each clause's
    effectiveness is scored as the CLI scores a run's eta.
    Clause 1: persistence-heavy targets (P_AA + P_BB = same_class_mass)
    under the persistence cross-rate method; expected effectiveness is
    the same-class mass.  Clause 2: flip-heavy targets (P_AB + P_BA =
    flip_mass) under the alternation method; effectiveness at least 1/2.
    Both clauses allow _SLACK below their nominal level.
    """
    if segments < 2:
        raise InvalidParams(f"segments must be >= 2, got {segments}: the first segment only seeds the prediction")
    cfg = SegmentConfig(L=seg_len)
    clauses = [
        ("mpcr1", 1, symmetric_masses(same_class_mass), same_class_mass - _SLACK),
        ("mpcr2", 2, symmetric_masses(1.0 - flip_mass), 0.5 - _SLACK),
    ]
    violations: list[str] = []
    stats: dict = {"segments": segments, "seg_len": seg_len}
    for name, mpcr, masses, threshold in clauses:
        spec = SyntheticOrderSpec(segment_count=segments, segment_length=seg_len, masses=masses, seed=seed)
        orders = order_labels(spec, np.random.default_rng(spec.seed))
        # Aligned as backtest.predict aligns it: day d's call is made after days 0..d-1.
        order_pred = np.full(len(orders), -1, dtype=np.int8)
        ref, swap = predicted_references(PredictorConfig(mpcr=mpcr, mpo=1, segment=cfg), orders[:-1])
        order_pred[1:] = referenced_orders(orders[:-1], ref, swap)
        eta = effectiveness_ratio(segment_success_rates(orders, order_pred, seg_len)[1])
        stats[f"eta_{name}"] = eta
        stats[f"threshold_{name}"] = threshold
        if eta < threshold:
            violations.append(f"seed={seed} {name}: effectiveness {eta!r} below {threshold!r}")
    return SuiteResult(
        suite="profitability",
        passed=not violations,
        checked=2 * max(segments - 1, 0),
        violations=violations,
        stats=stats,
    )


# ---------------------------------------------------------------------------
# cost-bound sweep (fixed point vs. sandwich and an independent root finder)


# Bracket width, relative to max(1, hi), at which the bisection stops.
_BISECT_TOL = 1e-12


def bisect_cost(f_k: float, drift_weights: np.ndarray, next_weights: np.ndarray, c: float) -> float:
    """Root of c * sum|f_k w - f_k w' - T w| - T by bisection: bisect_costs of a batch of one.

    Kept deliberately separate from the production fixed-point iteration
    so the two can check each other.
    """
    return float(bisect_costs(np.array([f_k]), np.array([drift_weights]), np.array([next_weights]), np.array([c]))[0])


def bisect_costs(f_k: np.ndarray, drift_weights: np.ndarray, next_weights: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The root T of c * sum|f_k w - f_k w' - T w| - T for each row of a batch: row b with f_k[b], its grids and c[b].

    Every row keeps its own bracket [0, c/(1-c) f_k sum|w - w'| + 1e-6] and
    stopping test and stops moving once that test holds; a row with c = 0
    is 0.  This shares no code with the production solves in costs.py.
    """
    flat = (len(f_k), math.prod(drift_weights.shape[1:]))
    gap = (f_k[:, None, None] * next_weights - f_k[:, None, None] * drift_weights).reshape(flat)
    w = next_weights.reshape(flat)
    lo = np.zeros(len(f_k))
    hi = c / (1.0 - c) * f_k * np.abs(next_weights - drift_weights).reshape(flat).sum(axis=1) + 1e-6
    todo = c != 0.0
    for _ in range(200):
        if not todo.any():
            break
        mid = 0.5 * (lo + hi)
        up = c * np.abs(gap - mid[:, None] * w).sum(axis=1) - mid >= 0.0
        lo = np.where(todo & up, mid, lo)
        hi = np.where(todo & ~up, mid, hi)
        todo &= hi - lo > _BISECT_TOL * np.maximum(1.0, hi)
    return np.where(c == 0.0, 0.0, 0.5 * (lo + hi))


_SIZES = (2, 3, 4, 6)


def cost_bounds_suite(replicates: int = 10_000, seed: int = 1) -> SuiteResult:
    """Check the cost solve against its sandwich and the bisection oracle on random days.

    Replicate idx draws an m = _SIZES[idx % 4] day into row idx // 4 of that
    m's group.  Every draw is made first, in replicate order, so the random
    stream is the same as one replicate at a time; then each group is solved
    and bisected at once, and the checks run in replicate order.
    """
    _check_run(replicates, seed)
    rng = np.random.default_rng(seed)
    # Per group: the off-diagonal weights of the drift and the target, f_k and c.
    draws = []
    for g, m in enumerate(_SIZES):
        rows = len(range(g, replicates, len(_SIZES)))
        draws.append((np.empty((rows, m * m - m)), np.empty((rows, m * m - m)), np.empty(rows), np.empty(rows)))
    alphas = [np.ones(m * m - m) for m in _SIZES]
    for idx in range(replicates):
        g, row = idx % len(_SIZES), idx // len(_SIZES)
        drift_off, next_off, f_k, c = draws[g]
        drift_off[row] = rng.dirichlet(alphas[g])
        next_off[row] = rng.dirichlet(alphas[g])
        f_k[row] = rng.uniform(0.5, 2.0)
        c[row] = rng.uniform(0.0, 0.05)
    # Per group: one column (c, T, turnover, bisection root) per row.
    solved = []
    for m, (drift_off, next_off, f_k, c) in zip(_SIZES, draws):
        drift, psi_next = np.zeros((2, len(f_k), m, m))
        off = ~np.eye(m, dtype=bool)
        drift[:, off], psi_next[:, off] = drift_off, next_off
        t = solve_costs_from_drift(f_k, drift, psi_next, c)
        delta = f_k * np.abs(psi_next - drift).reshape(len(f_k), m * m).sum(axis=1)
        solved.append(np.stack((c, t, delta, bisect_costs(f_k, drift, psi_next, c))))
    violations: list[str] = []
    worst_oracle_gap = 0.0
    for idx in range(replicates):
        m = _SIZES[idx % len(_SIZES)]
        c, t, delta, oracle = solved[idx % len(_SIZES)][:, idx // len(_SIZES)].tolist()
        lo, hi = cost_bounds(delta, c)
        tag = f"seed={seed} replicate={idx} m={m} c={c}"
        if not (lo - 1e-9 <= t <= hi + 1e-9):
            violations.append(f"{tag}: T={t!r} outside sandwich [{lo!r}, {hi!r}]")
        worst_oracle_gap = max(worst_oracle_gap, abs(t - oracle))
        if abs(t - oracle) > 1e-8:
            violations.append(f"{tag}: fixed point {t!r} vs bisection {oracle!r}")
    return SuiteResult(
        suite="cost-bounds",
        passed=not violations,
        checked=replicates,
        violations=violations,
        stats={"replicates": replicates, "worst_oracle_gap": worst_oracle_gap},
    )
