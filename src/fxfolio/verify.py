"""Randomized verification suites behind the ``verify`` subcommand.

Each suite replays a guarantee on freshly generated synthetic data and
reports every violation with the seed that produced it, so a failure is
reproducible from the command line.  Replicate r always uses seed + r.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

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
from .costs import CostParams, cost_bounds, cost_ratio_bound, solve_cost_from_drift
from .crossrate import PredictorConfig, SegmentConfig, predicted_references, referenced_orders
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


def effectiveness_estimate(labels: list[int], seg_len: int, mpcr: int, cfg: SegmentConfig) -> float:
    """Fraction of predicted segments with at least half the orders right.

    Day-level predictions use the engine's plain one-day-back order rule
    (mpo 1); the cross rate method under test picks the persist-or-flip
    regime per segment from the segments before it.  A flat day is
    predicted right when its predecessor was flat.
    """
    n_segments = len(labels) // seg_len
    if n_segments < 2:
        return 0.0
    orders = np.asarray(labels, dtype=np.int8)[: n_segments * seg_len]
    rule = PredictorConfig(mpcr=mpcr, mpo=1, segment=replace(cfg, L=seg_len))
    ref, swap = predicted_references(rule, orders[:-1])
    # Entry k calls day k + 1; the days of the first segment are never called.
    called = referenced_orders(orders[:-1], ref, swap)
    hits = (called == orders[1:])[seg_len - 1 :].reshape(n_segments - 1, seg_len).sum(axis=1)
    return int((hits / seg_len >= 0.5).sum()) / (n_segments - 1)


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
        labels = order_labels(spec, np.random.default_rng(spec.seed))
        eta = effectiveness_estimate(labels, seg_len, mpcr, cfg)
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
    """Root of c * sum|f_k w - f_k w' - T w| - T by bisection.

    Kept deliberately separate from the production fixed-point iteration
    so the two can check each other.
    """
    if c == 0.0:
        return 0.0
    held = f_k * drift_weights
    target = f_k * next_weights

    def residual(t: float) -> float:
        return c * float(np.sum(np.abs(target - held - t * next_weights))) - t

    lo = 0.0
    hi = c / (1.0 - c) * f_k * float(np.sum(np.abs(next_weights - drift_weights))) + 1e-6
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if residual(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _BISECT_TOL * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _random_weights(rng: np.random.Generator, m: int) -> np.ndarray:
    w = np.zeros((m, m))
    off = ~np.eye(m, dtype=bool)
    w[off] = rng.dirichlet(np.ones(m * m - m))
    return w


def cost_bounds_suite(replicates: int = 10_000, seed: int = 1) -> SuiteResult:
    _check_run(replicates, seed)
    rng = np.random.default_rng(seed)
    sizes = (2, 3, 4, 6)
    violations: list[str] = []
    worst_oracle_gap = 0.0
    for idx in range(replicates):
        m = sizes[idx % len(sizes)]
        drift = _random_weights(rng, m)
        psi_next = _random_weights(rng, m)
        f_k = float(rng.uniform(0.5, 2.0))
        c = float(rng.uniform(0.0, 0.05))
        t = solve_cost_from_drift(f_k, drift, psi_next, CostParams(c))
        delta = f_k * float(np.sum(np.abs(psi_next - drift)))
        lo, hi = cost_bounds(delta, c)
        tag = f"seed={seed} replicate={idx} m={m} c={c}"
        if not (lo - 1e-9 <= t <= hi + 1e-9):
            violations.append(f"{tag}: T={t!r} outside sandwich [{lo!r}, {hi!r}]")
        oracle = bisect_cost(f_k, drift, psi_next, c)
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
