"""File formats and seeded synthetic generators.

Formats:
  rates-csv   header ``day,i,j,open_rate,close_rate``; one row per ordered
              pair i != j with 1-based indices; the unit diagonal is implied.
  returns-csv header ``day,i,j,value``; one row per ordered pair, zeros
              included, so a day block reassembles to a full return matrix.
  ledger      JSON lines: a meta object, then one object per day with keys
              day, F, Fp, T, c, diamond, order_actual, order_pred, crossed
              and the flattened psi, psi_prime, R, R_pred matrices.
  summary     CSV with one row per run: I_N, LI_N, F_N, R_N, eta.

All floats serialize with 17 significant digits, enough to reproduce the
exact binary value on read-back, and all generators are pure functions of
their spec, so identical seeds give byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .backtest import BacktestLedger
from .errors import (
    EmptyLedger,
    InfeasibleTargets,
    InvalidSpec,
    InvariantError,
    IoError,
    FxfolioError,
    NonMonotoneDays,
    NormalizationViolated,
    ParseError,
)
from .market import DailyQuotes, ReturnMatrix, compute_return_matrix

_ORDER_VALUE_LOW = 1.05
_ORDER_VALUE_HIGH = 1.25
_ORDER_SIDE_VALUES = (0.9, 0.85)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def json_value(obj) -> str:
    """JSON with .17g floats so serialized numbers are reproducible bytes."""
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(str(k))}:{json_value(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(json_value(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return json_value(obj.ravel().tolist())
    raise IoError(f"cannot serialize {type(obj).__name__}")


def _field_error(path, ln: int, header: list[str], row: list[str], exc: ValueError) -> ParseError:
    """Name the first field of a csv data row that does not parse: day, i, j are ints, the rest floats."""
    for col, (name, text) in enumerate(zip(header, row)):
        try:
            (int if col < 3 else float)(text)
        except ValueError as bad:
            return ParseError(f"{path}: line {ln}: column {col + 1} ({name}): {bad}")
    return ParseError(f"{path}: line {ln}: {exc}")


# ---------------------------------------------------------------------------
# rate files


def write_rates(quotes: Sequence[DailyQuotes], path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write("day,i,j,open_rate,close_rate\n")
            for q in quotes:
                for i in range(q.m):
                    for j in range(q.m):
                        if i == j:
                            continue
                        fh.write(
                            f"{q.day},{i + 1},{j + 1},{_fmt(q.open_rates.entries[i, j])},{_fmt(q.close_rates.entries[i, j])}\n"
                        )
    except OSError as exc:
        raise IoError(f"cannot write rates file {path}: {exc}") from exc


def load_rates(path) -> list[DailyQuotes]:
    """Parse a rates-csv file into validated per-day quotes."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read rates file {path}: {exc}") from exc
    if not rows or rows[0] != ["day", "i", "j", "open_rate", "close_rate"]:
        raise ParseError(f"{path}: line 1: expected header day,i,j,open_rate,close_rate")
    by_day: dict[int, dict[tuple[int, int], tuple[float, float]]] = {}
    day_first_seen: list[int] = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"{path}: line {ln}: expected 5 fields, got {len(row)}")
        try:
            day, i, j = int(row[0]), int(row[1]), int(row[2])
            open_rate, close_rate = float(row[3]), float(row[4])
        except ValueError as exc:
            raise _field_error(path, ln, rows[0], row, exc) from exc
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
    if any(b <= a for a, b in zip(day_first_seen, day_first_seen[1:])) or sorted(day_first_seen) != day_first_seen:
        raise NonMonotoneDays(f"{path}: days must appear in strictly increasing order")

    quotes = []
    for day in day_first_seen:
        pairs = by_day[day]
        m = max(max(i, j) for i, j in pairs)
        expected = m * (m - 1)
        if len(pairs) != expected:
            raise ParseError(f"{path}: day {day}: expected {expected} off-diagonal rows for m={m}, got {len(pairs)}")
        open_grid = np.eye(m)
        close_grid = np.eye(m)
        for (i, j), (o, c) in pairs.items():
            open_grid[i - 1, j - 1] = o
            close_grid[i - 1, j - 1] = c
        try:
            quotes.append(DailyQuotes.from_grids(day, open_grid, close_grid))
        except FxfolioError as exc:
            raise InvariantError(f"{path}: {exc}") from exc
    return quotes


# ---------------------------------------------------------------------------
# return-matrix files


def write_returns(returns: Sequence[ReturnMatrix], path) -> None:
    try:
        with open(path, "w", newline="") as fh:
            fh.write("day,i,j,value\n")
            for r in returns:
                for i in range(r.m):
                    for j in range(r.m):
                        if i != j:
                            fh.write(f"{r.day},{i + 1},{j + 1},{_fmt(r.entries[i, j])}\n")
    except OSError as exc:
        raise IoError(f"cannot write returns file {path}: {exc}") from exc


def read_returns(path) -> list[ReturnMatrix]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read returns file {path}: {exc}") from exc
    if not rows or rows[0] != ["day", "i", "j", "value"]:
        raise ParseError(f"{path}: line 1: expected header day,i,j,value")
    by_day: dict[int, dict[tuple[int, int], float]] = {}
    order: list[int] = []
    for ln, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"{path}: line {ln}: expected 4 fields, got {len(row)}")
        try:
            day, i, j, value = int(row[0]), int(row[1]), int(row[2]), float(row[3])
        except ValueError as exc:
            raise _field_error(path, ln, rows[0], row, exc) from exc
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
    if sorted(order) != order or len(set(order)) != len(order):
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
            out.append(ReturnMatrix(day=day, entries=grid))
        except FxfolioError as exc:
            raise InvariantError(f"{path}: {exc}") from exc
    return out


# ---------------------------------------------------------------------------
# synthetic markets


@dataclass(frozen=True)
class SyntheticMarketSpec:
    """Controls for the seeded quote generator."""

    m: int
    n_days: int
    seed: int
    spread_epsilon: float = 0.005
    drift: float = 0.0
    vol: float = 0.01
    normalize: bool = False
    r_floor: float = 0.5

    def __post_init__(self):
        if self.m <= 1:
            raise InvalidSpec(f"m must be > 1, got {self.m}")
        if self.n_days < 2:
            raise InvalidSpec(f"n_days must be >= 2, got {self.n_days}")
        if not (self.spread_epsilon > 0.0) or not math.isfinite(self.spread_epsilon):
            raise InvalidSpec(f"spread_epsilon must be > 0, got {self.spread_epsilon!r}")
        if not math.isfinite(self.drift) or not (math.isfinite(self.vol) and self.vol >= 0.0):
            raise InvalidSpec(f"drift/vol must be finite with vol >= 0, got {self.drift!r}/{self.vol!r}")
        if self.normalize and not (0.0 < self.r_floor < 1.0):
            raise InvalidSpec(f"r_floor must lie in (0, 1) in normalize mode, got {self.r_floor!r}")


def generate_market(spec: SyntheticMarketSpec) -> list[DailyQuotes]:
    """Seeded quote history; every day passes the rate-matrix validators.

    Plain mode: per-pair mid rates follow an exponentiated random walk
    sampled at opens and closes, quoted symmetrically at mid +- epsilon.
    Intraday drops are clipped just under the 2*epsilon spread, which
    keeps the two directions of a pair from both turning a profit on
    the same day.

    Normalize mode: quotes are reverse-engineered so each pair's daily
    buy-low/sell-high ratio hits a drawn target; after dividing a day by
    its best pair the pair values lie in [r_floor, 1] with the maximum
    exactly 1 (see normalized_returns).
    """
    rng = np.random.default_rng(spec.seed)
    if spec.normalize:
        return _generate_normalized(spec, rng)
    eps = spec.spread_epsilon
    n_pairs = spec.m * (spec.m - 1) // 2
    iu, ju = np.triu_indices(spec.m, k=1)
    log_mid = np.zeros(n_pairs)
    quotes = []
    for day in range(1, spec.n_days + 1):
        log_open = log_mid + rng.normal(spec.drift, spec.vol, n_pairs)
        mid_open = np.maximum(np.exp(log_open), 2.0 * eps)
        log_close = log_open + rng.normal(spec.drift, spec.vol, n_pairs)
        # A drop beyond the spread would make both trade directions win.
        mid_close = np.maximum(np.exp(log_close), np.maximum(mid_open - 1.98 * eps, 2.0 * eps))
        quotes.append(_quotes_from_mids(day, spec.m, iu, ju, mid_open, mid_close, eps))
        log_mid = np.log(mid_close)
    return quotes


def _generate_normalized(spec: SyntheticMarketSpec, rng: np.random.Generator) -> list[DailyQuotes]:
    eps = spec.spread_epsilon
    iu, ju = np.triu_indices(spec.m, k=1)
    n_pairs = iu.size
    gross = 1.25 / spec.r_floor
    quotes = []
    for day in range(1, spec.n_days + 1):
        targets = rng.uniform(spec.r_floor + 1e-6, 0.999, n_pairs)
        targets[rng.integers(0, n_pairs)] = 1.0
        ratios = gross * targets
        # Close buy small enough that the reverse direction stays unprofitable.
        close_buy = 0.99 * 4.0 * eps / (ratios - 1.0)
        mid_close = close_buy + eps
        # Open sell lands exactly on ratio * close_buy, so the traded
        # buy-low/sell-high ratio equals the drawn target.
        mid_open = ratios * close_buy - eps
        quotes.append(_quotes_from_mids(day, spec.m, iu, ju, mid_open, mid_close, eps))
    return quotes


def _quotes_from_mids(day, m, iu, ju, mid_open, mid_close, eps) -> DailyQuotes:
    open_grid = np.eye(m)
    close_grid = np.eye(m)
    open_grid[iu, ju] = mid_open + eps
    open_grid[ju, iu] = mid_open - eps
    close_grid[iu, ju] = mid_close + eps
    close_grid[ju, iu] = mid_close - eps
    return DailyQuotes.from_grids(day, open_grid, close_grid)


def normalized_returns(quotes: Sequence[DailyQuotes]) -> list[ReturnMatrix]:
    """Same-day return matrices rescaled so each day's best pair sum is 1."""
    out = []
    for q in quotes:
        r = compute_return_matrix(q)
        pair_sums = r.entries + r.entries.T
        top = float(pair_sums.max())
        if top <= 0.0:
            raise NormalizationViolated(f"day {q.day}: no pair traded, cannot rescale")
        out.append(ReturnMatrix(day=r.day, entries=r.entries / top))
    return out


# ---------------------------------------------------------------------------
# synthetic order processes


@dataclass(frozen=True)
class SyntheticOrderSpec:
    """Controls for the seeded segment-class process generator.

    masses are the stationary joint probabilities of consecutive segment
    classes (AA, AB, BA, BB).  Segments are grouped into blocks of
    dependence_gap; the class chain is Markov inside a block and restarts
    independently at block boundaries, so segments a block apart are
    independent by construction.
    """

    segment_count: int
    segment_length: int
    masses: tuple[float, float, float, float]
    seed: int
    dependence_gap: int = 50

    def __post_init__(self):
        if self.segment_count < 1:
            raise InvalidSpec(f"segment_count must be >= 1, got {self.segment_count}")
        if self.segment_length < 2:
            raise InvalidSpec(f"segment_length must be >= 2, got {self.segment_length}")
        if self.dependence_gap < 1:
            raise InvalidSpec(f"dependence_gap must be >= 1, got {self.dependence_gap}")
        masses = tuple(float(x) for x in self.masses)
        if len(masses) != 4 or any(x < 0.0 for x in masses):
            raise InvalidSpec(f"masses must be four nonnegative numbers, got {self.masses!r}")
        if abs(sum(masses) - 1.0) > 1e-12:
            raise InvalidSpec(f"masses must sum to 1 within 1e-12, got sum {sum(masses)!r}")
        object.__setattr__(self, "masses", masses)


def symmetric_masses(same_class_mass: float) -> tuple[float, float, float, float]:
    """Joint masses with P(AA)+P(BB) = same_class_mass, split evenly."""
    if not (0.0 <= same_class_mass <= 1.0):
        raise InvalidSpec(f"same-class mass must lie in [0, 1], got {same_class_mass!r}")
    same = same_class_mass / 2.0
    flip = (1.0 - same_class_mass) / 2.0
    return (same, flip, flip, same)


def order_labels(spec: SyntheticOrderSpec, rng: np.random.Generator) -> list[int]:
    """Daily order labels realizing the per-segment class process."""
    paa, pab, pba, pbb = spec.masses
    if abs(pab - pba) > 1e-9:
        raise InfeasibleTargets(
            f"stationary consecutive-pair masses need P_AB = P_BA, got {pab!r} and {pba!r}"
        )
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


def _matrix_for_label(day: int, label: int, value: float) -> ReturnMatrix:
    """3-currency matrix whose unique best trade sits on the labeled side.

    Two fixed side positions, one above and one below the diagonal, pay
    on every day regardless of the label, so a drifting portfolio always
    keeps support that the next day rewards.
    """
    grid = np.zeros((3, 3))
    grid[1, 2] = _ORDER_SIDE_VALUES[0]
    grid[2, 0] = _ORDER_SIDE_VALUES[1]
    if label == 1:
        grid[0, 1] = value
    else:
        grid[1, 0] = value
    return ReturnMatrix(day=day, entries=grid)


def generate_order_process(spec: SyntheticOrderSpec) -> tuple[list[ReturnMatrix], list[int]]:
    """Seeded daily return matrices plus the order labels they realize."""
    rng = np.random.default_rng(spec.seed)
    labels = order_labels(spec, rng)
    values = rng.uniform(_ORDER_VALUE_LOW, _ORDER_VALUE_HIGH, len(labels))
    matrices = [_matrix_for_label(day, lab, val) for day, (lab, val) in enumerate(zip(labels, values), start=1)]
    return matrices, labels


# ---------------------------------------------------------------------------
# ledgers and summaries


def write_ledger(ledger: BacktestLedger, path) -> None:
    """JSON-lines dump: a meta line, then one line per day."""
    if ledger.n_days == 0:
        raise EmptyLedger("refusing to write a ledger with no days")
    try:
        with open(path, "w") as fh:
            meta = {
                "kind": "fxfolio-ledger",
                "m": ledger.m,
                "f0": ledger.f0,
                "config": ledger.config,
                "next_psi": ledger.next_portfolio,
            }
            fh.write(json_value(meta) + "\n")
            for k in range(ledger.n_days):
                diamond = 0.0 if ledger.parked[k] else float(ledger.growth[k])
                record = {
                    "day": int(ledger.day[k]),
                    "F": float(ledger.capital[k]),
                    "Fp": float(ledger.capital_net[k]),
                    "T": float(ledger.cost[k]),
                    "c": float(ledger.ratio[k]),
                    "diamond": diamond,
                    "order_actual": int(ledger.order_actual[k]),
                    "order_pred": None if ledger.order_pred[k] < 0 else int(ledger.order_pred[k]),
                    "crossed": bool(ledger.pred_crossed_segment[k]),
                    "psi": ledger.portfolios[k],
                    "psi_prime": ledger.realized[k],
                    "R": ledger.returns[k].entries,
                    "R_pred": ledger.predicted[k],
                }
                fh.write(json_value(record) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write ledger {path}: {exc}") from exc


def read_ledger(path) -> BacktestLedger:
    records = []
    try:
        with open(path) as fh:
            for ln, line in enumerate(fh, start=1):
                if line.strip():
                    records.append((ln, json.loads(line)))
    except OSError as exc:
        raise IoError(f"cannot read ledger {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {ln}: bad JSON: {exc}") from exc
    if not records or not isinstance(records[0][1], dict) or records[0][1].get("kind") != "fxfolio-ledger":
        raise ParseError(f"{path}: missing fxfolio-ledger meta line")
    (meta_ln, meta), days = records[0], records[1:]
    if not days:
        raise ParseError(f"{path}: ledger has no day records")

    def field(ln, record, key, convert):
        try:
            return convert(record[key])
        except (KeyError, TypeError, ValueError) as exc:
            problem = "missing" if isinstance(exc, KeyError) else f"bad value: {exc}"
            raise ParseError(f"{path}: line {ln}: key {key!r}: {problem}") from exc

    m = field(meta_ln, meta, "m", int)

    def grid(flat):
        return np.array(flat, dtype=float).reshape(m, m)

    def column(key, convert):
        return [field(ln, d, key, convert) for ln, d in days]

    def returns_at(ln, k, entries):
        try:
            return ReturnMatrix(day=k, entries=entries)
        except FxfolioError as exc:
            raise ParseError(f"{path}: line {ln}: key 'R': {exc}") from exc

    day = column("day", int)
    diamond = np.array(column("diamond", float))
    return BacktestLedger(
        m=m,
        f0=field(meta_ln, meta, "f0", float),
        config=field(meta_ln, meta, "config", dict),
        day=np.array(day),
        capital=np.array(column("F", float)),
        capital_net=np.array(column("Fp", float)),
        cost=np.array(column("T", float)),
        ratio=np.array(column("c", float)),
        growth=np.where(diamond > 0.0, diamond, 1.0),
        parked=diamond == 0.0,
        order_actual=np.array(column("order_actual", int), dtype=np.int64),
        order_pred=np.array(column("order_pred", lambda v: -1 if v is None else int(v)), dtype=np.int64),
        pred_crossed_segment=np.array(column("crossed", bool)),
        portfolios=column("psi", grid),
        realized=column("psi_prime", grid),
        returns=[returns_at(ln, k, r) for (ln, _), k, r in zip(days, day, column("R", grid))],
        predicted=column("R_pred", lambda v: None if v is None else grid(v)),
        next_portfolio=field(meta_ln, meta, "next_psi", grid),
    )


_SUMMARY_FIELDS = ("I_N", "LI_N", "F_N", "R_N", "eta")


def write_summary(metrics: dict, path) -> None:
    """One-row CSV with the headline run metrics."""
    missing = [k for k in _SUMMARY_FIELDS if k not in metrics]
    if missing:
        raise IoError(f"summary metrics missing fields: {missing}")
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(_SUMMARY_FIELDS) + "\n")
            fh.write(",".join(_fmt(metrics[k]) for k in _SUMMARY_FIELDS) + "\n")
    except OSError as exc:
        raise IoError(f"cannot write summary {path}: {exc}") from exc


def read_summary(path) -> dict:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read summary {path}: {exc}") from exc
    if len(rows) != 2 or tuple(rows[0]) != _SUMMARY_FIELDS:
        raise ParseError(f"{path}: expected header {','.join(_SUMMARY_FIELDS)} and one data row")
    out = {}
    for k, v in zip(rows[0], rows[1]):
        try:
            out[k] = float(v)
        except ValueError as exc:
            raise ParseError(f"{path}: line 2: field {k}: {exc}") from exc
    return out
