"""Independent reference implementations used to pin expected values.

Everything here is written the slow, obvious way (explicit loops, no
shared code with the package) so the production implementations and
these oracles can only agree by both being right.
"""

from __future__ import annotations

import math

import numpy as np


def scan_cost_root(f_k: float, drift: np.ndarray, nxt: np.ndarray, c: float) -> float:
    """Coarse scan for the sign change of c*sum|F w - F w' - T w| - T, then bisect."""
    if c == 0.0:
        return 0.0

    def g(t: float) -> float:
        total = 0.0
        for a, b in zip(nxt.ravel(), drift.ravel()):
            total += abs(f_k * a - f_k * b - t * a)
        return c * total - t

    hi = 2.0 * c / (1.0 - c) * f_k + 1.0
    grid = np.linspace(0.0, hi, 10_001)
    lo = 0.0
    for t in grid[1:]:
        if g(t) < 0.0:
            hi = t
            break
        lo = t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_scan_cost(f_k: float, drift: np.ndarray, nxt: np.ndarray, c: float, points: int = 2001) -> float:
    """Vectorized variant of scan_cost_root for large sweeps.

    Evaluates g on a grid at once to bracket the root, then bisects the
    bracket; same residual, no shared code with the fixed-point solver.
    """
    if c == 0.0:
        return 0.0
    target = f_k * nxt.ravel()
    held = f_k * drift.ravel()
    w = nxt.ravel()

    def g(t: float) -> float:
        return c * float(np.sum(np.abs(target - held - t * w))) - t

    hi = 2.0 * c / (1.0 - c) * f_k + 1.0
    grid = np.linspace(0.0, hi, points)
    residuals = c * np.sum(np.abs(target[None, :] - held[None, :] - grid[:, None] * w[None, :]), axis=1) - grid
    below = np.nonzero(residuals < 0.0)[0]
    lo = 0.0
    if below.size:
        hi = float(grid[below[0]])
        lo = float(grid[below[0] - 1])
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def naive_tilt(weights: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Unstabilized multiplicative update, straight from the formula."""
    out = np.zeros_like(weights)
    z = 0.0
    m = weights.shape[0]
    for i in range(m):
        for j in range(m):
            z += weights[i, j] * math.exp(exponents[i, j])
    for i in range(m):
        for j in range(m):
            out[i, j] = weights[i, j] * math.exp(exponents[i, j]) / z
    return out


def oracle_masked_tilt(rule: str, drift: np.ndarray, pred: np.ndarray, gamma: float, support_floor: float) -> np.ndarray:
    """The engine's tilt as the boolean-mask formula writes it: exponentiate the support's entries alone.

    The eiitc rate is gamma over the drift's predicted growth, and a growth
    <= 0 keeps the drift.  A shift that is not finite raises InvalidParams
    with the engine's message.
    """
    from fxfolio.errors import InvalidParams

    growth = 1.0
    if rule == "eiitc":
        growth = float((drift * pred).sum())
        if growth <= 0.0:
            return drift
    rate = float(gamma) / growth
    active = drift > 0.0
    shift = rate * float(pred[active].max())
    if not math.isfinite(shift):
        raise InvalidParams(f"gamma {float(gamma)!r} overflows the tilt exponent: {shift!r} at the best return")
    factors = np.zeros_like(drift)
    factors[active] = np.exp(rate * pred[active] - shift)
    out = drift * factors
    out = out / out.sum()
    if support_floor > 0.0:
        m = drift.shape[0]
        uniform = np.full((m, m), 1.0 / (m * (m - 1)))
        np.fill_diagonal(uniform, 0.0)
        out = (1.0 - support_floor) * out + support_floor * uniform
    return out


def oracle_fixed_point_cost(
    f_k: float, realized: np.ndarray, nxt: np.ndarray, c: float, max_evaluations: int = 10_000
) -> float:
    """The cost fixed point iterated from T = 0, stopping at the first step within 1e-10 (relative above 1).

    Raises NoConvergence when max_evaluations evaluations of the map pass
    without such a step.
    """
    from fxfolio.errors import NoConvergence

    if c == 0.0:
        return 0.0
    w = nxt / nxt.sum()
    gap = f_k * w - f_k * realized
    t = 0.0
    for _ in range(max_evaluations):
        t_new = c * float(np.abs(gap - t * w).sum())
        if abs(t_new - t) <= 1e-10 * max(1.0, t_new):
            return t_new
        t = t_new
    raise NoConvergence(f"no step within 1e-10 in {max_evaluations} evaluations")


def naive_entropy(nxt: np.ndarray, base: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(nxt.ravel(), base.ravel()):
        if a > 0.0:
            total += a * math.log(a / b)
    return total


def naive_l1(a: np.ndarray, b: np.ndarray) -> float:
    return float(sum(abs(x - y) for x, y in zip(a.ravel(), b.ravel())))


def count_crossings(orders: list[int], prev: int | None) -> tuple[int, int]:
    """(crossings, days); the first day is skipped when prev is None."""
    crossings = 0
    last = prev
    for o in orders:
        if last is not None and o != last:
            crossings += 1
        last = o
    return crossings, len(orders)


def greedy_partition(n_days: int, unit: int) -> list[list[int]]:
    """Blocks of lengths unit, 2*unit, ... built day by day until n_days."""
    blocks: list[list[int]] = []
    day = 1
    i = 1
    while day <= n_days:
        block = []
        for _ in range(i * unit):
            if day > n_days:
                break
            block.append(day)
            day += 1
        blocks.append(block)
        i += 1
    return blocks


def random_portfolio_weights(rng: np.random.Generator, m: int, sparse: bool = False) -> np.ndarray:
    """Random point of the off-diagonal simplex; optionally with dead zones."""
    w = np.zeros((m, m))
    off = [(i, j) for i in range(m) for j in range(m) if i != j]
    raw = rng.dirichlet(np.ones(len(off)))
    if sparse:
        keep = rng.random(len(raw)) < 0.7
        if not keep.any():
            keep[rng.integers(len(raw))] = True
        raw = raw * keep
        raw = raw / raw.sum()
    for (i, j), v in zip(off, raw):
        w[i, j] = v
    return w


def random_return_entries(rng: np.random.Generator, m: int, fire_prob: float = 0.7) -> np.ndarray:
    """Random complementary return grid: per pair, one side or neither pays."""
    r = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            u = rng.random()
            if u < fire_prob:
                value = rng.uniform(0.5, 1.5)
                if rng.random() < 0.5:
                    r[i, j] = value
                else:
                    r[j, i] = value
    return r


# ---------------------------------------------------------------------------
# The market rules one grid at a time, in loops: what the package's stack
# checks, its one-day types, compute_returns and grid_orders must raise or
# give.  They share with the package only the error classes, whose messages
# they repeat.


def oracle_check_rates(day, grid):
    """Raise the first broken rate rule of one grid: every entry, then the diagonal, then each spread, row-major."""
    from fxfolio.errors import NonPositiveEntry, NonUnitDiagonal, SpreadViolation

    m = len(grid)
    for i in range(m):
        for j in range(m):
            value = float(grid[i][j])
            if not (math.isfinite(value) and value > 0.0):
                raise NonPositiveEntry(f"day {day}: rate at ({i}, {j}) is {value!r}, must be finite and > 0")
    for i in range(m):
        if float(grid[i][i]) != 1.0:
            raise NonUnitDiagonal(f"day {day}: diagonal entry ({i}, {i}) is {float(grid[i][i])!r}, must be 1")
    for i in range(m):
        for j in range(i + 1, m):
            sell, buy = float(grid[i][j]), float(grid[j][i])
            if not sell > buy:
                raise SpreadViolation(
                    f"day {day}: sell quote at ({i}, {j}) = {sell!r} does not exceed buy quote at ({j}, {i}) = {buy!r}"
                )


def oracle_check_returns(day, grid):
    """Raise the first broken return rule of one grid: every entry, then the diagonal, then each mirrored pair."""
    from fxfolio.errors import ComplementarityViolation, NonPositiveEntry, NonUnitDiagonal

    m = len(grid)
    for i in range(m):
        for j in range(m):
            value = float(grid[i][j])
            if not (math.isfinite(value) and value >= 0.0):
                raise NonPositiveEntry(f"day {day}: return at ({i}, {j}) is {value!r}, must be finite and >= 0")
    for i in range(m):
        if float(grid[i][i]) != 0.0:
            raise NonUnitDiagonal(f"day {day}: return diagonal at ({i}, {i}) must be 0")
    for i in range(m):
        for j in range(i + 1, m):
            if float(grid[i][j]) > 0.0 and float(grid[j][i]) > 0.0:
                raise ComplementarityViolation(f"day {day}: both mirrored returns ({i}, {j}) and ({j}, {i}) are positive")


def oracle_check_weights(day, grid):
    """Raise the first broken weight rule of one grid: every entry, then the diagonal, then the sum within 1e-9.

    The total is summed cell by cell in row-major order.  The package sums
    in another order, so the printed totals agree where every partial sum
    is exact, as on grids of multiples of a power of two.
    """
    from fxfolio.errors import DimensionMismatch

    m = len(grid)
    for i in range(m):
        for j in range(m):
            value = float(grid[i][j])
            if not (math.isfinite(value) and value >= 0.0):
                raise DimensionMismatch(f"day {day}: weight at ({i}, {j}) is {value!r}, must be finite and >= 0")
    for i in range(m):
        if float(grid[i][i]) != 0.0:
            raise DimensionMismatch(f"day {day}: diagonal weight at ({i}, {i}) must be 0")
    total = 0.0
    for i in range(m):
        for j in range(m):
            total += float(grid[i][j])
    if not abs(total - 1.0) <= 1e-9:
        raise DimensionMismatch(f"day {day}: weights sum to {total!r}, must be 1 within 1e-09")


def oracle_day_returns(day, open_grid, close_grid):
    """One day's price relatives from valid quotes; a pair firing both ways comes before any overflow."""
    from fxfolio.errors import ComplementarityViolation

    m = len(open_grid)
    out = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            open_sell, open_buy = float(open_grid[i][j]), float(open_grid[j][i])
            close_sell, close_buy = float(close_grid[i][j]), float(close_grid[j][i])
            if open_sell > close_buy and open_buy > close_sell:
                raise ComplementarityViolation(
                    f"day {day}: pair ({i}, {j}) fires in both directions (open sell {open_sell!r} > close buy "
                    f"{close_buy!r} and open buy {open_buy!r} > close sell {close_sell!r})"
                )
            if open_sell > close_buy:
                out[i, j] = open_sell / close_buy  # a float quotient overflows to inf, as numpy's does
            if open_buy > close_sell:
                out[j, i] = open_buy / close_sell
    oracle_check_returns(day, out)
    return out


def oracle_grid_order(grid):
    """1 if the grid's unique maximum sits above the diagonal, 2 if on or below it, 0 if it is 0 or tied."""
    cells = [(float(value), i, j) for i, row in enumerate(grid) for j, value in enumerate(row)]
    top = max(value for value, _, _ in cells)
    hits = [(i, j) for value, i, j in cells if value == top]
    if top == 0.0 or len(hits) != 1:
        return 0
    i, j = hits[0]
    return 1 if i < j else 2


# ---------------------------------------------------------------------------
# File formats, row by row.  These readers parse each csv row with int and
# float, fill per-day dicts and check each day with the oracles above; they
# share with the package only the error classes, whose messages they must
# repeat.  A reader returns (day, grids) per day.  The writers return the
# text a json_value-style recursive formatter produces.


def _oracle_field_error(path, ln, header, row, exc):
    from fxfolio.errors import ParseError

    for col, (name, text) in enumerate(zip(header, row)):
        try:
            (int if col < 3 else float)(text)
        except ValueError as bad:
            return ParseError(f"{path}: line {ln}: column {col + 1} ({name}): {bad}")
    return ParseError(f"{path}: line {ln}: {exc}")


def load_rates_rowwise(path):
    import csv

    from fxfolio.errors import FxfolioError, InvariantError, NonMonotoneDays, ParseError

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["day", "i", "j", "open_rate", "close_rate"]:
        raise ParseError(f"{path}: line 1: expected header day,i,j,open_rate,close_rate")
    by_day = {}
    day_first_seen = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"{path}: line {ln}: expected 5 fields, got {len(row)}")
        try:
            day, i, j = int(row[0]), int(row[1]), int(row[2])
            open_rate, close_rate = float(row[3]), float(row[4])
        except ValueError as exc:
            raise _oracle_field_error(path, ln, rows[0], row, exc) from exc
        if i < 1 or j < 1:
            raise ParseError(f"{path}: line {ln}: indices are 1-based, got i={i}, j={j}")
        if i == j:
            raise ParseError(f"{path}: line {ln}: diagonal entries are implied, got i=j={i}")
        if day not in by_day:
            by_day[day] = {}
            day_first_seen.append(day)
        if (i, j) in by_day[day]:
            raise ParseError(f"{path}: line {ln}: duplicate entry for day {day}, pair ({i}, {j})")
        by_day[day][(i, j)] = (open_rate, close_rate)
    if not by_day:
        raise ParseError(f"{path}: no data rows")
    if sorted(day_first_seen) != day_first_seen:
        raise NonMonotoneDays(f"{path}: days must appear in strictly increasing order")
    quotes = []
    for day in day_first_seen:
        pairs = by_day[day]
        m = max(max(i, j) for i, j in pairs)
        if len(pairs) != m * (m - 1):
            raise ParseError(f"{path}: day {day}: expected {m * (m - 1)} off-diagonal rows for m={m}, got {len(pairs)}")
        open_grid = np.eye(m)
        close_grid = np.eye(m)
        for (i, j), (o, c) in pairs.items():
            open_grid[i - 1, j - 1] = o
            close_grid[i - 1, j - 1] = c
        try:
            oracle_check_rates(day, open_grid)
            oracle_check_rates(day, close_grid)
        except FxfolioError as exc:
            raise InvariantError(f"{path}: {exc}") from exc
        quotes.append((day, (open_grid, close_grid)))
    # No pair may profit both ways on one day, and no ratio may overflow.
    for day, grids in quotes:
        try:
            oracle_day_returns(day, *grids)
        except FxfolioError as exc:
            raise InvariantError(f"{path}: {exc}") from exc
    return quotes


def read_returns_rowwise(path):
    import csv

    from fxfolio.errors import FxfolioError, InvariantError, NonMonotoneDays, ParseError

    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["day", "i", "j", "value"]:
        raise ParseError(f"{path}: line 1: expected header day,i,j,value")
    by_day = {}
    order = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"{path}: line {ln}: expected 4 fields, got {len(row)}")
        try:
            day, i, j, value = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise _oracle_field_error(path, ln, rows[0], row, exc) from exc
        if i < 1 or j < 1 or i == j:
            raise ParseError(f"{path}: line {ln}: bad pair ({i}, {j})")
        if day not in by_day:
            by_day[day] = {}
            order.append(day)
        if (i, j) in by_day[day]:
            raise ParseError(f"{path}: line {ln}: duplicate entry for day {day}, pair ({i}, {j})")
        by_day[day][(i, j)] = value
    if not by_day:
        raise ParseError(f"{path}: no data rows")
    if sorted(order) != order:
        raise NonMonotoneDays(f"{path}: days must appear in strictly increasing order")
    out = []
    for day in order:
        pairs = by_day[day]
        m = max(max(i, j) for i, j in pairs)
        if len(pairs) != m * (m - 1):
            raise ParseError(f"{path}: day {day}: expected {m * (m - 1)} rows for m={m}, got {len(pairs)}")
        grid = np.zeros((m, m))
        for (i, j), v in pairs.items():
            grid[i - 1, j - 1] = v
        try:
            oracle_check_returns(day, grid)
        except FxfolioError as exc:
            raise InvariantError(f"{path}: {exc}") from exc
        out.append((day, (grid,)))
    return out


def json_text(obj) -> str:
    """JSON with every float as format(x, '.17g'), built recursively."""
    import json

    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{json_text(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_text(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return json_text(obj.ravel().tolist())
    raise TypeError(type(obj).__name__)


def rates_text(quotes) -> str:
    out, m = ["day,i,j,open_rate,close_rate\n"], quotes.m
    for day, open_grid, close_grid in zip(quotes.days.tolist(), quotes.open, quotes.close):
        for i in range(m):
            for j in range(m):
                if i != j:
                    o = format(float(open_grid[i, j]), ".17g")
                    c = format(float(close_grid[i, j]), ".17g")
                    out.append(f"{day},{i + 1},{j + 1},{o},{c}\n")
    return "".join(out)


def returns_text(returns) -> str:
    out, m = ["day,i,j,value\n"], returns.m
    for day, grid in zip(returns.days.tolist(), returns.grids):
        for i in range(m):
            for j in range(m):
                if i != j:
                    out.append(f"{day},{i + 1},{j + 1},{format(float(grid[i, j]), '.17g')}\n")
    return "".join(out)


def oracle_ledger_text(ledger) -> str:
    """A ledger file's text: the meta line, then one JSON object per day, every float as format(x, '.17g') on its own."""
    meta = {"kind": "fxfolio-ledger", "m": ledger.m, "f0": ledger.f0, "config": ledger.config, "next_psi": ledger.next_portfolio}
    lines = [json_text(meta)]
    for k in range(ledger.n_days):
        record = {
            "day": int(ledger.day[k]),
            "F": float(ledger.capital[k]),
            "Fp": float(ledger.capital_net[k]),
            "T": float(ledger.cost[k]),
            "c": float(ledger.ratio[k]),
            "diamond": 0.0 if ledger.parked[k] else float(ledger.growth[k]),
            "order_actual": int(ledger.order_actual[k]),
            "order_pred": None if ledger.order_pred[k] < 0 else int(ledger.order_pred[k]),
            "crossed": bool(ledger.pred_crossed_segment[k]),
            "psi": ledger.portfolios[k],
            "psi_prime": ledger.realized[k],
            "R": ledger.returns.grids[k],
            "R_pred": ledger.predicted[k],
        }
        lines.append(json_text(record))
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Stacked histories, one day at a time: what a stack constructor must
# raise or hold, as (day, grids) per day, checked by the oracles above in
# day order.


def _check_days_increase(days):
    from fxfolio.errors import NonMonotoneDays

    if any(b <= a for a, b in zip(days, days[1:])):
        raise NonMonotoneDays("market days must be strictly increasing")


def quotes_day_by_day(days, opens, closes):
    for d, o, c in zip(days, opens, closes):
        oracle_check_rates(int(d), o)
        oracle_check_rates(int(d), c)
    _check_days_increase(list(days))
    return [(int(d), (np.asarray(o, dtype=float), np.asarray(c, dtype=float))) for d, o, c in zip(days, opens, closes)]


def returns_day_by_day(days, grids):
    for d, g in zip(days, grids):
        oracle_check_returns(int(d), g)
    _check_days_increase(list(days))
    return [(int(d), (np.asarray(g, dtype=float),)) for d, g in zip(days, grids)]


def compute_returns_day_by_day(days, opens, closes):
    """The returns of a quote history: its rate checks, then each day's returns in day order."""
    quotes = quotes_day_by_day(days, opens, closes)
    return [(day, (oracle_day_returns(day, *grids),)) for day, grids in quotes]


# ---------------------------------------------------------------------------
# The engine one day and one configuration at a time: what the prediction
# phase, the batched sweep and the vectorized summaries must reproduce bit
# for bit.  These call the package's scalar cross-rate API in the order
# the day loop used to, with the order labels from oracle_grid_order.


def predictions_day_by_day(grids, predictor):
    """(grid or None, order or -1, crossed) predicted after each of days 0..n, from the scalar rules."""
    from fxfolio.backtest import LinearPredictor
    from fxfolio.crossrate import SWAP, adjusted_cross_rate, cross_rate, mpcr_predict, reference_day
    from fxfolio.errors import InsufficientHistory

    orders = [oracle_grid_order(g) for g in grids]
    out = [(None, -1, False)]
    w_hist = []
    for k in range(1, len(grids) + 1):
        if predictor is None:
            out.append((None, -1, False))
            continue
        if isinstance(predictor, LinearPredictor):
            pred = predictor.predict(grids[:k])
            out.append((None, -1, False) if pred is None else (pred, oracle_grid_order(pred), False))
            continue
        seg_len = predictor.segment.L
        if k % seg_len == 0:
            start = k - seg_len
            if predictor.adjusted:
                w_hist.append(adjusted_cross_rate(orders[start:k], history=orders[:start]))
            else:
                w_hist.append(cross_rate(orders[start:k], orders[start - 1] if start else None))
        entry = (None, -1, False)
        if w_hist:
            w_pred = mpcr_predict(predictor.mpcr, w_hist, predictor.segment)
            try:
                ref, swap = reference_day(predictor.mpo, predictor.adjusted, w_pred, orders[:k])
            except InsufficientHistory:
                pass
            else:
                grid = grids[ref - 1].T.copy() if swap else grids[ref - 1]
                order = SWAP[orders[ref - 1]] if swap else orders[ref - 1]
                entry = (grid, order, ref <= (k // seg_len) * seg_len)
        out.append(entry)
    return out


def segment_success_rates_loop(order_actual, order_pred, seg_len):
    """Per-segment theta and flag, one segment at a time, counting hits day by day."""
    thetas, flags = [], []
    n = len(order_actual)
    for start in range(0, (n // seg_len) * seg_len, seg_len):
        pred = order_pred[start : start + seg_len]
        actual = order_actual[start : start + seg_len]
        if np.any(pred < 0):
            continue
        # A flat day (order 0) has no side to call, so it is never a hit.
        hits = sum(1 for p, a in zip(pred.tolist(), actual.tolist()) if a != 0 and p == a)
        theta = hits / seg_len
        thetas.append(theta)
        flags.append(theta >= 0.5)
    return thetas, flags


def universality_replicate_per_config(args):
    """One universality replicate as 12 separate backtests, each checked pair by pair with universality_gap."""
    from fxfolio.backtest import LinearPredictor, UpdateConfig, growth_rate_net, run_backtest, universality_gap
    from fxfolio.costs import CostParams, cost_ratio_bound
    from fxfolio.data_io import SyntheticMarketSpec, generate_market, normalized_returns

    idx, base_seed, n_days, r_floor = args
    seed = base_seed + idx
    m = 2 + idx % 3
    quotes = generate_market(SyntheticMarketSpec(m=m, n_days=n_days, seed=seed, normalize=True, r_floor=r_floor))
    rets = normalized_returns(quotes)
    violations = []
    checked = 0
    min_margin = math.inf
    for rule in ("iitc", "eiitc"):
        for gamma in (0.0, 0.1, 0.5):
            for c in (0.0, 0.005):
                ledger = run_backtest(
                    rets,
                    predictor=LinearPredictor((1.0,)),
                    update=UpdateConfig(rule=rule, gamma=gamma),
                    costs=CostParams(c),
                )
                tag = f"seed={seed} m={m} rule={rule} gamma={gamma} c={c}"
                prev_f = np.concatenate(([ledger.f0], ledger.capital[:-1]))
                err = np.abs(ledger.capital_net - (prev_f - ledger.cost))
                scale = np.maximum(1.0, np.abs(prev_f))
                if np.any(err > 1e-9 * scale):
                    violations.append(f"{tag}: capital identity off by {float((err / scale).max()):.3e}")
                net_rate = growth_rate_net(ledger)
                if abs(math.log(ledger.capital[-1] / ledger.f0) / ledger.n_days - net_rate) > 1e-9 * max(1.0, abs(net_rate)):
                    violations.append(f"{tag}: net growth-rate decomposition broken")
                bound = cost_ratio_bound(rule, gamma, r_floor, c)
                worst = float(ledger.ratio[1:].max(initial=0.0))
                if worst > bound + 1e-9:
                    violations.append(f"{tag}: realized cost ratio {worst!r} exceeds bound {bound!r}")
                for i in range(m):
                    for j in range(i + 1, m):
                        res = universality_gap(ledger, (i, j), r_floor)
                        checked += 1
                        min_margin = min(min_margin, res.lhs_gap - res.rhs_bound)
                        if not res.holds:
                            violations.append(
                                f"{tag} pair=({i},{j}): gap {res.lhs_gap!r} < bound {res.rhs_bound!r}"
                            )
    return checked, violations, min_margin


def oracle_order_labels(spec, rng: np.random.Generator) -> list[int]:
    """Daily order labels, drawn with one ``rng.choice`` per crossing count and per set of crossing days.

    The reference for the random stream that every ``generate --orders``
    file and every profitability eta depends on.  It leaves the P_AB = P_BA
    check to ``SyntheticOrderSpec``.
    """
    paa, pab, pba, pbb = spec.masses
    pi_a = paa + pab
    stay_a = paa / pi_a if pi_a > 0.0 else 1.0
    stay_b = pbb / (1.0 - pi_a) if pi_a < 1.0 else 1.0
    L = spec.segment_length
    low_counts = np.arange(0, math.ceil(L / 2))          # W in [0, 1/2)
    high_counts = np.arange(math.ceil(L / 2), L + 1)     # W in [1/2, 1]

    labels: list[int] = []
    cls = None
    for n in range(spec.segment_count):
        if n % spec.dependence_gap == 0:
            cls = "A" if rng.random() < pi_a else "B"
        else:
            stay = stay_a if cls == "A" else stay_b
            if rng.random() >= stay:
                cls = "B" if cls == "A" else "A"
        counts = low_counts if cls == "A" else high_counts
        crossings = int(rng.choice(counts))
        if n == 0:
            # No predecessor: the first day never counts as a crossing.
            crossings = min(crossings, L - 1)
            positions = rng.choice(np.arange(1, L), size=crossings, replace=False)
        else:
            positions = rng.choice(np.arange(0, L), size=crossings, replace=False)
        cross_here = np.zeros(L, dtype=bool)
        cross_here[positions] = True
        prev = labels[-1] if labels else 1
        for flag in cross_here:
            prev = (3 - prev) if flag else prev
            labels.append(prev)
    return labels
