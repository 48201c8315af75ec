"""Randomized verification suites behind the ``verify`` subcommand.

Each suite replays a guarantee on freshly generated synthetic data and
reports every violation with the seed that produced it, so a failure is
reproducible from the command line.  Universality replicate r uses seed + r;
a cost-bounds violation reproduces from the printed config line (the same
--seed and --replicates).
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
    crossing_labels,
    generate_market,
    normalized_returns,
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
# How many standard deviations eta may sit from its expectation: a correct
# run lands further out with probability about 2e-9 per clause.
_Z = 6.0
# Crossing-day keys the suite's sampler draws at once: with their ranks they
# take 16 bytes a day, so all of them would outweigh the labels' one.
_KEY_DAYS = 8192


def _law_classes(spec: SyntheticOrderSpec, rng: np.random.Generator) -> np.ndarray:
    """Each segment's class, True for A, by the chain's law.

    A segment's uniform sets its class (a restart, or a draw that sends both
    classes to one), copies it or flips it: each class is the last set value
    XOR the parity of the flips since.
    """
    pi_a, stay_a, stay_b = spec.class_chain()
    u = rng.random(spec.segment_count)
    at = np.arange(spec.segment_count)
    restart = at % spec.dependence_gap == 0
    a_after_a, a_after_b = u < stay_a, u >= stay_b
    sets = restart | (a_after_a == a_after_b)
    flips = np.cumsum(~sets & ~a_after_a)
    last = np.where(sets, at, 0)
    np.maximum.accumulate(last, out=last)
    flips -= flips[last]
    return np.where(restart, u < pi_a, a_after_a)[last] ^ (flips & 1).astype(bool)


def _law_order_labels(spec: SyntheticOrderSpec, rng: np.random.Generator) -> np.ndarray:
    """Daily order labels with order_labels' law, drawn as arrays.

    A segment crosses on the k days whose uniform keys rank lowest, a
    uniform k-subset.  The first segment's first day has no predecessor,
    so its key is +inf and its k at most L - 1.
    """
    S, L = spec.segment_count, spec.segment_length
    half = math.ceil(L / 2)
    flags = spec.crossing_flags()
    is_a = _law_classes(spec, rng)
    k = rng.integers(np.where(is_a, 0, half), np.where(is_a, half, L + 1))
    k[0] = min(k[0], L - 1)
    step = max(1, _KEY_DAYS // L)
    for start in range(0, S, step):
        rows = flags[start : start + step]
        keys = rng.random(rows.shape)
        if start == 0:
            keys[0, 0] = np.inf
        np.put_along_axis(rows, keys.argsort(axis=1), np.arange(L) < k[start : start + step, None], axis=1)
    return crossing_labels(flags)


def _eta_law(spec: SyntheticOrderSpec, mpcr: int) -> tuple[float, float]:
    """E[eta] and sd(eta) of one clause, exactly, on symmetric masses.

    Segment n >= 1 is effective iff it keeps its class (mpcr 1) or changes
    it (mpcr 2), an independent coin: the same-class mass s in a block, 1/2
    at a restart.  Even L adds a tie at k = L/2, chance t = 1/(L/2 + 1) in
    class B: a change from A (mpcr 1) or a kept B (mpcr 2) is effective too,
    which couples segments n < m by -/+ (t^2/4) w_n w_m prod (2 s_i - 1)
    over n < i < m, w the chance of the other outcome.
    """
    scored = spec.segment_count - 1
    keep = np.where(np.arange(1, scored + 1) % spec.dependence_gap == 0, 0.5, spec.masses[0] + spec.masses[3])
    L = spec.segment_length
    tie = 1.0 / (L // 2 + 1) if L % 2 == 0 else 0.0
    hit = keep if mpcr == 1 else 1.0 - keep
    w = 1.0 - hit
    p = hit + w * tie / 2.0
    var = float(np.sum(p * (1.0 - p)))
    if tie:
        run = pairs = 0.0  # run: sum over n < m of w_n times the product of (2 s_i - 1) over n < i < m
        for w_m, rho in zip(w.tolist(), (2.0 * keep - 1.0).tolist()):
            pairs += w_m * run
            run = rho * run + w_m
        var += (-1.0 if mpcr == 1 else 1.0) * tie * tie / 2.0 * pairs
    return float(p.mean()), math.sqrt(var) / scored


def _clause_eta(spec: SyntheticOrderSpec, mpcr: int, cfg: SegmentConfig) -> float:
    """One clause's eta, in a function so its arrays are freed before the next clause's."""
    orders = _law_order_labels(spec, np.random.default_rng(spec.seed))
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
    Both clauses allow _SLACK below their nominal level, and each eta must
    also lie within _Z sds of its exact expectation (_eta_law).
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
    stats: dict = {"segments": segments, "seg_len": seg_len, "z": _Z}
    for name, mpcr, masses, threshold in clauses:
        spec = SyntheticOrderSpec(segment_count=segments, segment_length=seg_len, masses=masses, seed=seed)
        eta = _clause_eta(spec, mpcr, cfg)
        expected, sd = _eta_law(spec, mpcr)
        stats.update({f"eta_{name}": eta, f"threshold_{name}": threshold, f"expected_{name}": expected, f"sd_{name}": sd})
        if eta < threshold:
            violations.append(f"seed={seed} {name}: effectiveness {eta!r} below {threshold!r}")
        if abs(eta - expected) > _Z * sd:
            violations.append(f"seed={seed} {name}: effectiveness {eta!r} more than {_Z!r} sd ({sd!r}) from {expected!r}")
    return SuiteResult(
        suite="profitability",
        passed=not violations,
        checked=2 * (segments - 1),
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

    Replicate idx is row idx // 4 of group idx % 4.  Each group is one
    dirichlet call for its drift and target rows and one uniform call per
    scalar.
    """
    draws = []
    for g, m in enumerate(_SIZES):
        rows = len(range(g, replicates, len(_SIZES)))
        w = rng.dirichlet(np.ones(m * m - m), size=(rows, 2))
        draws.append((w[:, 0], w[:, 1], rng.uniform(0.5, 2.0, rows), rng.uniform(0.0, 0.05, rows)))
    return draws


def cost_bounds_suite(replicates: int = 10_000, seed: int = 1) -> SuiteResult:
    """Check the cost solve against its sandwich and the bisection oracle on random days.

    Replicate idx is an m = _SIZES[idx % 4] day in row idx // 4 of that m's
    group: drift and target weights from Dirichlet(1, ..., 1) over the
    off-diagonal cells, f_k ~ uniform(0.5, 2.0) and c ~ uniform(0.0, 0.05),
    drawn a group at a time (_cost_bounds_draws).  Each group is solved and
    bisected at once; then the sandwich c/(1+c) delta <= T <= c/(1-c) delta
    and the oracle gap are checked as arrays, and only violating replicates
    are formatted, in replicate order.
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
