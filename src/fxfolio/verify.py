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
    row_log_cost,
    single_pair_growth_rate,
    sweep,
)
from .costs import CostParams, cost_ratio_bound, fixed_point_costs
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
        log_cost = row_log_cost(ratio)
        net_rate = row_growth_rate(growth) + log_cost
        # F_N = f0 * prod g_k (1 - c_k), so the capital column must tell the same rate as the growth and ratio columns.
        if abs(math.log(capital[-1] / f0) / len(capital) - net_rate) > 1e-9 * max(1.0, abs(net_rate)):
            violations.append(f"{tag}: net growth-rate decomposition broken")
        bound = cost_ratio_bound(rule, gamma, r_floor, c)
        worst = float(ratio[1:].max(initial=0.0))
        if worst > bound + 1e-9:
            violations.append(f"{tag}: realized cost ratio {worst!r} exceeds bound {bound!r}")
        for (i, j), benchmark in zip(pairs, benchmarks):
            res = pair_gap(
                net_rate,
                log_cost,
                len(growth),
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


def _clause_eta(spec: SyntheticOrderSpec, mpcr: int, cfg: SegmentConfig) -> float:
    """One clause's eta, in a function so its arrays are freed before the next clause's."""
    orders = order_labels(spec, np.random.default_rng(spec.seed))
    # Aligned as backtest.predict aligns it: day d's call is made after days 0..d-1.
    order_pred = np.full(len(orders), -1, dtype=np.int8)
    ref, swap = predicted_references(PredictorConfig(mpcr=mpcr, mpo=1, segment=cfg), orders[:-1])
    order_pred[1:] = referenced_orders(orders[:-1], ref, swap)
    return effectiveness_ratio(segment_success_rates(orders, order_pred, cfg.L)[1])


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
    if not 0.0 <= flip_mass <= 1.0:
        raise InvalidParams(f"flip mass must lie in [0, 1], got {flip_mass!r}")
    cfg = SegmentConfig(L=seg_len)
    clauses = [
        ("mpcr1", 1, symmetric_masses(same_class_mass), same_class_mass - _SLACK),
        ("mpcr2", 2, symmetric_masses(1.0 - flip_mass), 0.5 - _SLACK),
    ]
    violations: list[str] = []
    stats: dict = {"segments": segments, "seg_len": seg_len}
    for name, mpcr, masses, threshold in clauses:
        spec = SyntheticOrderSpec(segment_count=segments, segment_length=seg_len, masses=masses, seed=seed)
        eta = _clause_eta(spec, mpcr, cfg)
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


def _cost_bounds_draws(rng: np.random.Generator, replicates: int) -> list[tuple[np.ndarray, ...]]:
    """Per m in _SIZES: the off-diagonal weights of each row's drift and target, its f_k and its c.

    Replicate idx is row idx // 4 of group idx % 4.  In replicate order, one
    standard_exponential call fills its (2, k) exponentials and one random
    call its two uniforms; then every group is normalized and scaled at once.
    """
    exps, unis = [], []
    for g, m in enumerate(_SIZES):
        rows = len(range(g, replicates, len(_SIZES)))
        exps.append(np.empty((rows, 2, m * m - m)))
        unis.append(np.empty((rows, 2)))
    for idx in range(replicates):
        g, row = idx % len(_SIZES), idx // len(_SIZES)
        rng.standard_exponential(out=exps[g][row])
        rng.random(out=unis[g][row])
    draws = []
    for e, u in zip(exps, unis):
        # cumsum adds left to right, as dirichlet does; np.add.reduce regroups the terms from k = 8 on.
        w = e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])
        draws.append((w[:, 0], w[:, 1], 0.5 + (2.0 - 0.5) * u[:, 0], 0.0 + (0.05 - 0.0) * u[:, 1]))
    return draws


def cost_bounds_suite(replicates: int = 10_000, seed: int = 1) -> SuiteResult:
    """Check the cost solve against its sandwich and the bisection oracle on random days.

    Replicate idx draws an m = _SIZES[idx % 4] day into row idx // 4 of that
    m's group: two dirichlet(ones(k)) rows, f_k ~ uniform(0.5, 2.0) and
    c ~ uniform(0.0, 0.05), in replicate order.  They are drawn in bulk
    (_cost_bounds_draws): NumPy's Dirichlet(1, ..., 1) is k standard
    exponentials times the reciprocal of their left-to-right sum, and
    uniform(a, b) is a + (b - a) * random(), so the bits and the generator's
    final state are those of the per-value calls, which
    tests/oracles.py::oracle_cost_bounds_draws makes.  Each group is solved
    and bisected at once; then the sandwich c/(1+c) delta <= T <= c/(1-c)
    delta and the oracle gap are checked as arrays, and only violating
    replicates are formatted, in replicate order.
    """
    _check_run(replicates, seed)
    try:
        # Rows c, T, turnover and bisection root, one column per replicate.
        solved = np.empty((4, replicates))
        draws = _cost_bounds_draws(np.random.default_rng(seed), replicates)
    except (MemoryError, ValueError):
        raise InvalidParams(f"{replicates} cost-bounds replicates do not fit in memory") from None
    for g, (m, (drift_off, next_off, f_k, c)) in enumerate(zip(_SIZES, draws)):
        drift, psi_next = np.zeros((2, len(f_k), m, m))
        off = ~np.eye(m, dtype=bool)
        drift[:, off], psi_next[:, off] = drift_off, next_off
        t = fixed_point_costs(f_k, drift.reshape(len(f_k), m * m), psi_next.reshape(len(f_k), m * m), c)
        delta = f_k * np.abs(psi_next - drift).reshape(len(f_k), m * m).sum(axis=1)
        solved[:, g :: len(_SIZES)] = (c, t, delta, bisect_costs(f_k, drift, psi_next, c))
    c, t, delta, oracle = solved
    # costs.cost_bounds' sandwich, elementwise.
    lo, hi = (c / (1.0 + c)) * delta, (c / (1.0 - c)) * delta
    outside = ~((lo - 1e-9 <= t) & (t <= hi + 1e-9))
    gap = np.abs(t - oracle)
    apart = gap > 1e-8
    violations: list[str] = []
    for idx in np.flatnonzero(outside | apart).tolist():
        ci, ti, loi, hii, oi = (float(a[idx]) for a in (c, t, lo, hi, oracle))
        tag = f"seed={seed} replicate={idx} m={_SIZES[idx % len(_SIZES)]} c={ci}"
        if outside[idx]:
            violations.append(f"{tag}: T={ti!r} outside sandwich [{loi!r}, {hii!r}]")
        if apart[idx]:
            violations.append(f"{tag}: fixed point {ti!r} vs bisection {oi!r}")
    return SuiteResult(
        suite="cost-bounds",
        passed=not violations,
        checked=replicates,
        violations=violations,
        # fmax skips a nan gap, as the oracle's running max over Python floats does.
        stats={"replicates": replicates, "worst_oracle_gap": float(np.fmax.reduce(gap, initial=0.0))},
    )
