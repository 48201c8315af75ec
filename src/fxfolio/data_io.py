"""File formats and seeded synthetic generators.

Formats:
  rates-csv   header ``day,i,j,open_rate,close_rate``; one row per ordered
              pair i != j with 1-based indices; the unit diagonal is implied.
              No pair may profit in both directions on the same day.
  returns-csv header ``day,i,j,value``; one row per ordered pair, zeros
              included, so a day block reassembles to a full return matrix.

Both csv formats hold plain decimal numbers (ints within int64), and
every day of a file quotes the same number of currencies.
  ledger      JSON lines: a meta object, then one object per day with keys
              day, F, Fp, T, c, diamond, order_actual, order_pred, crossed
              and the flattened psi, psi_prime, R, R_pred matrices.
  summary     CSV with one row per run: I_N, LI_N, F_N, R_N, eta.

All floats serialize with 17 significant digits, enough to reproduce the
exact binary value on read-back, and all generators are pure functions of
their spec, so identical seeds give byte-identical files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import re
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backtest import BacktestLedger
from .errors import (
    EmptyLedger,
    InfeasibleTargets,
    InvalidSpec,
    InvariantError,
    IoError,
    FxfolioError,
    InputError,
    NonMonotoneDays,
    NormalizationViolated,
    ParseError,
    RunError,
)
from .market import QuoteStack, ReturnStack, check_predictions, compute_returns, expect_stack, upper_pairs
from .portfolio import PortfolioMatrix, check_weights

_ORDER_VALUE_LOW = 1.05
_ORDER_VALUE_HIGH = 1.25
_ORDER_SIDE_VALUES = (0.9, 0.85)
# Normalize mode draws each non-best pair's daily target from uniform(r_floor + _TARGET_MARGIN, _TARGET_HIGH).
_TARGET_MARGIN = 1e-6
_TARGET_HIGH = 0.999


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


# ---------------------------------------------------------------------------
# rate and return tables

_RATES_HEADER = ("day", "i", "j", "open_rate", "close_rate")
_RETURNS_HEADER = ("day", "i", "j", "value")
_INT64 = np.iinfo(np.int64)
# Data rows parsed per np.loadtxt call.  The loader holds one such block
# (40 bytes a rates row) at a time, never the whole table.
_CHUNK_ROWS = 16384


def _parse_field(col: int, text: str):
    """Python's int (day, i, j) or float, narrowed to what np.loadtxt accepts: plain ASCII decimals, ints in int64."""
    value = (int if col < 3 else float)(text)
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"{text!r} is not a plain decimal literal")
    if col < 3 and not _INT64.min <= value <= _INT64.max:
        raise ValueError(f"{text!r} does not fit in 64 bits")
    return value


def _pair_fault(kind: str, i: int, j: int) -> str | None:
    if kind == "returns":
        return f"bad pair ({i}, {j})" if i < 1 or j < 1 or i == j else None
    if i < 1 or j < 1:
        return f"indices are 1-based, got i={i}, j={j}"
    if i == j:
        return f"diagonal entries are implied, got i=j={i}"
    return None


def _first_fault(path, kind: str, header: Sequence[str], otherwise: InputError) -> InputError:
    """Rescan a regular file row by row for the first bad line, else return ``otherwise``.

    Only the error path runs this: a row fault (field count, parse, pair,
    duplicate) comes before any fault of a whole day, and only a row-wise
    scan knows the line it sits on.  A pipe, named or not, cannot be read
    twice (reopening a named one waits for a writer), so it gets ``otherwise``.
    """
    seen: set[tuple[int, int, int]] = set()
    try:
        if not os.path.isfile(path):
            return otherwise
        with open(path, newline="") as fh:
            rows = csv.reader(fh)
            next(rows, None)  # the header, checked already
            for ln, row in enumerate(rows, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    return ParseError(f"{path}: line {ln}: expected {len(header)} fields, got {len(row)}")
                for col, (name, text) in enumerate(zip(header, row)):
                    try:
                        row[col] = _parse_field(col, text)
                    except ValueError as bad:
                        return ParseError(f"{path}: line {ln}: column {col + 1} ({name}): {bad}")
                day, i, j, *_ = row
                fault = _pair_fault(kind, i, j)
                if fault is not None:
                    return ParseError(f"{path}: line {ln}: {fault}")
                if (day, i, j) in seen:
                    return ParseError(f"{path}: line {ln}: duplicate entry for day {day}, pair ({i}, {j})")
                seen.add((day, i, j))
    except OSError as exc:
        return IoError(f"cannot read {kind} file {path}: {exc}")
    except (UnicodeDecodeError, csv.Error) as exc:
        return ParseError(f"{path}: {exc}")
    return otherwise


def _row_blocks(path, kind: str, header: tuple[str, ...]):
    """A csv's data rows as structured arrays of at most _CHUNK_ROWS rows.

    The open handle goes to np.loadtxt as an iterator of lines, so each
    call consumes exactly its own rows; blank lines are not rows.
    """
    dtype = np.dtype([(name, np.int64 if col < 3 else np.float64) for col, name in enumerate(header)])
    try:
        with open(path) as fh:
            if next(csv.reader([fh.readline()]), None) != list(header):
                raise ParseError(f"{path}: line 1: expected header {','.join(header)}")
            while True:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # an empty block ends the file
                    # numpy 1.x reads "1.0" as the int 1 with a DeprecationWarning; int() refuses it.
                    warnings.simplefilter("error", DeprecationWarning)
                    block = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, quotechar='"', ndmin=1, max_rows=_CHUNK_ROWS)
                if block.size == 0:
                    return
                yield block
    except OSError as exc:
        raise IoError(f"cannot read {kind} file {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except (ValueError, DeprecationWarning) as exc:
        raise _first_fault(path, kind, header, ParseError(f"{path}: {exc}")) from exc


def _resized(a: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Zeros of the given shape with a copied into its leading corner."""
    out = np.zeros(shape, dtype=a.dtype)
    out[tuple(slice(s) for s in a.shape)] = a
    return out


def _read_table(path, kind: str, header: tuple[str, ...], diagonal: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """Parse a rates or returns csv into its days and one stacked (n, m, m) grid per value column.

    Days may interleave but must first appear in increasing order; each
    day needs all m(m-1) off-diagonal rows, with one m for every day.

    Each block of rows is scattered into grids that grow in place and is
    then dropped, so the whole table is never held.  A valid file has
    n * m(m-1) rows, so grids wait until the rows read could hold n - 1
    days and one whole day: an index too large for that keeps its blocks
    pending, and if it is still too large at the end the day checks name
    the fault.  The bound counts rows, not bytes, so pipes read the same.
    """
    days, counts, span = (np.zeros(0, dtype=np.int64) for _ in range(3))
    filled = np.zeros((0, 0, 0), dtype=bool)
    grids = [np.zeros((0, 0, 0)) for _ in header[3:]]
    pending = []  # (cells, block) read but not yet scattered
    n = m = rows = 0
    with contextlib.closing(_row_blocks(path, kind, header)) as blocks:
        for block in blocks:
            day, i, j = block["day"], block["i"], block["j"]
            bad_pair = (i < 1) | (j < 1) | (i == j)
            if bad_pair.any():
                k = int(np.argmax(bad_pair))
                raise _first_fault(path, kind, header, ParseError(f"{path}: data row {rows + k + 1}: bad pair ({i[k]}, {j[k]})"))
            seen, first, local = np.unique(day, return_index=True, return_inverse=True)
            # Known days are found in the sorted days so far; a day not yet known must exceed them all.
            new = seen > days[n - 1] if n else np.ones(seen.size, dtype=bool)
            old = seen[~new]
            if np.any(days[np.searchsorted(days[:n], old)] != old) or np.any(np.diff(first[new]) <= 0):
                raise _first_fault(path, kind, header, NonMonotoneDays(f"{path}: days must appear in strictly increasing order"))
            fresh = seen[new]
            if n + fresh.size > days.size:
                for a in (days, counts, span):
                    a.resize(max(n + fresh.size, 2 * days.size), refcheck=False)
            days[n : n + fresh.size] = fresh
            n += fresh.size
            at = np.searchsorted(days[:n], seen)
            counts[at] += np.bincount(local)
            top = np.zeros(seen.size, dtype=np.int64)
            np.maximum.at(top, local, np.maximum(i, j))
            span[at] = np.maximum(span[at], top)
            rows += block.size
            m = max(m, int(top.max()))
            pending.append(((at[local], i - 1, j - 1), block))
            if max(n - 1, 1) * m * (m - 1) > rows:
                continue
            if filled.shape[1] != m:
                filled, *grids = (_resized(a, (days.size, m, m)) for a in (filled, *grids))
            for a in (filled, *grids):
                a.resize((days.size, m, m), refcheck=False)  # realloc: no second copy of the grids
            for cells, values in pending:
                filled[cells] = True
                for grid, name in zip(grids, header[3:]):
                    grid[cells] = values[name]
            pending.clear()
    if rows == 0:
        raise ParseError(f"{path}: no data rows")

    days, counts, span = days[:n], counts[:n], span[:n]
    # span <= counts keeps span * (span - 1) inside int64 wherever it decides.
    complete = (span <= counts) & (span * (span - 1) == counts)
    m = int(span[0])
    bad_day = ~complete | (span != m)
    if bad_day.any():
        k = int(np.argmax(bad_day))
        d, mk = int(days[k]), int(span[k])
        if not complete[k]:
            noun = "off-diagonal rows" if kind == "rates" else "rows"
            fault = ParseError(f"{path}: day {d}: expected {mk * (mk - 1)} {noun} for m={mk}, got {int(counts[k])}")
        else:
            fault = ParseError(f"{path}: day {d}: quotes m={mk} currencies, but day {int(days[0])} quotes m={m}")
        raise _first_fault(path, kind, header, fault)
    # Every day passed, so rows == n * m(m-1) and the last block emptied pending.
    if filled.sum() != rows:
        raise _first_fault(path, kind, header, ParseError(f"{path}: duplicate entries"))
    for grid in grids:
        grid.resize((n, m, m), refcheck=False)
        grid[:, np.arange(m), np.arange(m)] = diagonal
    return days, grids


def _write_table(path, kind: str, header: tuple[str, ...], days: np.ndarray, grids: Sequence[np.ndarray]) -> None:
    """Write a rates or returns csv from (n, m, m) stacks: one row per ordered pair, row-major, values as .17g."""
    m = grids[0].shape[1]
    cells = ",".join(["%.17g"] * len(grids))
    # "\0" stands for the day, which is filled in before the values.
    template = "".join(f"\0,{i + 1},{j + 1},{cells}\n" for i in range(m) for j in range(m) if i != j)
    off = ~np.eye(m, dtype=bool)
    values = np.stack([grid[:, off] for grid in grids], axis=-1).reshape(len(days), -1)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for day, row in zip(days.tolist(), values):
                fh.write(template.replace("\0", str(day)) % tuple(row.tolist()))
    except OSError as exc:
        raise IoError(f"cannot write {kind} file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# rate files


def write_rates(quotes: QuoteStack, path) -> None:
    expect_stack(quotes, QuoteStack)
    _write_table(path, "rates", _RATES_HEADER, quotes.days, (quotes.open, quotes.close))


def load_rates(path) -> QuoteStack:
    """Parse a rates-csv file into one validated quote stack."""
    days, grids = _read_table(path, "rates", _RATES_HEADER, diagonal=1.0)
    try:
        quotes = QuoteStack(days, *grids)
    except FxfolioError as exc:
        raise InvariantError(f"{path}: {exc}") from exc
    del grids  # the stack holds its own copies; free these before the returns are computed
    # A pair that profits both ways, or a ratio that overflows, is found
    # by computing the returns.  The stack keeps them for the run that follows.
    try:
        quotes.returns
    except FxfolioError as exc:
        raise InvariantError(f"{path}: {exc}") from exc
    return quotes


# ---------------------------------------------------------------------------
# return-matrix files


def write_returns(returns: ReturnStack, path) -> None:
    expect_stack(returns, ReturnStack)
    _write_table(path, "returns", _RETURNS_HEADER, returns.days, (returns.grids,))


def read_returns(path) -> ReturnStack:
    """Parse a returns-csv file into one validated return stack."""
    days, (grids,) = _read_table(path, "returns", _RETURNS_HEADER, diagonal=0.0)
    try:
        return ReturnStack(days, grids)
    except FxfolioError as exc:
        raise InvariantError(f"{path}: {exc}") from exc


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
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
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
        # numpy's uniform refuses high < low.
        if self.normalize and _TARGET_HIGH - (self.r_floor + _TARGET_MARGIN) < 0:
            raise InvalidSpec(f"r_floor + {_TARGET_MARGIN} must not exceed {_TARGET_HIGH} in normalize mode, got {self.r_floor!r}")


def generate_market(spec: SyntheticMarketSpec) -> QuoteStack:
    """Seeded quote history, every day checked by check_rates.

    Plain mode: per-pair mid rates follow an exponentiated random walk
    sampled at opens and closes, quoted symmetrically at mid +- epsilon.
    Intraday drops are clipped just under the 2*epsilon spread, which
    keeps the two directions of a pair from both turning a profit on
    the same day.

    Normalize mode: quotes are reverse-engineered so each pair's daily
    buy-low/sell-high ratio hits a drawn target; after dividing a day by
    its best pair the pair values lie in [r_floor, 1] with the maximum
    exactly 1 (see normalized_returns).

    A draw that breaks a rate rule (an overflowing walk, or a mid so large
    that mid +- epsilon rounds to one value) raises InvalidSpec, and so do
    quote grids that cannot be allocated.
    """
    try:
        grids = np.tile(np.eye(spec.m), (2, spec.n_days, 1, 1))  # opens and closes, filled after the walk
    except (MemoryError, ValueError):
        raise InvalidSpec(f"{2 * spec.n_days * spec.m**2} quotes (2 * n_days * m * m) do not fit in memory") from None
    rng = np.random.default_rng(spec.seed)
    with np.errstate(over="ignore"):  # a walk that overflows quotes inf, which the rate check names
        mid_open, mid_close = _normalized_mids(spec, rng) if spec.normalize else _walk_mids(spec, rng)
    try:
        return _quotes_from_mids(grids, mid_open, mid_close, spec.spread_epsilon)
    except RunError as exc:
        raise InvalidSpec(f"vol={spec.vol!r} and spread_epsilon={spec.spread_epsilon!r} give no valid market: {exc}") from exc


def _walk_mids(spec: SyntheticMarketSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    eps = spec.spread_epsilon
    n_pairs = spec.m * (spec.m - 1) // 2
    log_mid = np.zeros(n_pairs)
    mid_open = np.empty((spec.n_days, n_pairs))
    mid_close = np.empty((spec.n_days, n_pairs))
    for k in range(spec.n_days):
        log_open = log_mid + rng.normal(spec.drift, spec.vol, n_pairs)
        mid_open[k] = np.maximum(np.exp(log_open), 2.0 * eps)
        log_close = log_open + rng.normal(spec.drift, spec.vol, n_pairs)
        # A drop beyond the spread would make both trade directions win.
        mid_close[k] = np.maximum(np.exp(log_close), np.maximum(mid_open[k] - 1.98 * eps, 2.0 * eps))
        log_mid = np.log(mid_close[k])
    return mid_open, mid_close


def _normalized_mids(spec: SyntheticMarketSpec, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    eps = spec.spread_epsilon
    n_pairs = spec.m * (spec.m - 1) // 2
    gross = 1.25 / spec.r_floor
    targets = np.empty((spec.n_days, n_pairs))
    for k in range(spec.n_days):
        targets[k] = rng.uniform(spec.r_floor + _TARGET_MARGIN, _TARGET_HIGH, n_pairs)
        targets[k, rng.integers(0, n_pairs)] = 1.0
    ratios = gross * targets
    # Close buy small enough that the reverse direction stays unprofitable.
    close_buy = 0.99 * 4.0 * eps / (ratios - 1.0)
    # Open sell lands exactly on ratio * close_buy, so the traded
    # buy-low/sell-high ratio equals the drawn target.
    return ratios * close_buy - eps, close_buy + eps


def _quotes_from_mids(grids, mid_open, mid_close, eps) -> QuoteStack:
    """Days 1..n quoted at mid +- eps from (n, pairs) opening and closing mids, into unit-diagonal (2, n, m, m) grids."""
    open_grid, close_grid = grids
    iu, ju = upper_pairs(grids.shape[-1])
    open_grid[:, iu, ju] = mid_open + eps
    open_grid[:, ju, iu] = mid_open - eps
    close_grid[:, iu, ju] = mid_close + eps
    close_grid[:, ju, iu] = mid_close - eps
    return QuoteStack(np.arange(1, len(mid_open) + 1), open_grid, close_grid)


def normalized_returns(quotes: QuoteStack) -> ReturnStack:
    """Same-day returns rescaled so each day's best pair sum is 1."""
    rets = compute_returns(quotes)
    top = (rets.grids + rets.grids.transpose(0, 2, 1)).max(axis=(1, 2))
    if np.any(top <= 0.0):
        k = int(np.argmax(top <= 0.0))
        raise NormalizationViolated(f"day {int(rets.days[k])}: no pair traded, cannot rescale")
    return ReturnStack(rets.days, rets.grids / top[:, None, None])


# ---------------------------------------------------------------------------
# synthetic order processes


@dataclass(frozen=True)
class SyntheticOrderSpec:
    """Controls for the seeded segment-class process generator.

    masses are the stationary joint probabilities of consecutive segment
    classes (AA, AB, BA, BB), so P_AB must equal P_BA (within 1e-9); other
    masses raise InfeasibleTargets.  Segments are grouped into blocks of
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
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        if self.segment_count < 1:
            raise InvalidSpec(f"segment_count must be >= 1, got {self.segment_count}")
        if self.segment_length < 2:
            raise InvalidSpec(f"segment_length must be >= 2, got {self.segment_length}")
        if self.dependence_gap < 1:
            raise InvalidSpec(f"dependence_gap must be >= 1, got {self.dependence_gap}")
        masses = tuple(float(x) for x in self.masses)
        if len(masses) != 4 or not all(x >= 0.0 for x in masses):
            raise InvalidSpec(f"masses must be four nonnegative numbers, got {self.masses!r}")
        if abs(sum(masses) - 1.0) > 1e-12:
            raise InvalidSpec(f"masses must sum to 1 within 1e-12, got sum {sum(masses)!r}")
        if abs(masses[1] - masses[2]) > 1e-9:
            raise InfeasibleTargets(
                f"stationary consecutive-pair masses need P_AB = P_BA, got {masses[1]!r} and {masses[2]!r}"
            )
        object.__setattr__(self, "masses", masses)

    def class_chain(self) -> tuple[float, float, float]:
        """P(class A) at a restart, and the chance that class A, and class B, stays put."""
        paa, pab, _, pbb = self.masses
        pi_a = paa + pab
        stay_a = paa / pi_a if pi_a > 0.0 else 1.0
        stay_b = pbb / (1.0 - pi_a) if pi_a < 1.0 else 1.0
        return pi_a, stay_a, stay_b

    def crossing_flags(self) -> np.ndarray:
        """An all-zero (segment_count, segment_length) int8 grid; InvalidSpec if it cannot be held."""
        try:
            return np.zeros((self.segment_count, self.segment_length), dtype=np.int8)
        except (MemoryError, ValueError):
            raise InvalidSpec(
                f"{self.segment_count * self.segment_length} order labels (segment_count * segment_length)"
                " do not fit in memory"
            ) from None


def symmetric_masses(same_class_mass: float) -> tuple[float, float, float, float]:
    """Joint masses with P(AA)+P(BB) = same_class_mass, split evenly."""
    if not (0.0 <= same_class_mass <= 1.0):
        raise InvalidSpec(f"same-class mass must lie in [0, 1], got {same_class_mass!r}")
    same = same_class_mass / 2.0
    flip = (1.0 - same_class_mass) / 2.0
    return (same, flip, flip, same)


def order_labels(spec: SyntheticOrderSpec, rng: np.random.Generator) -> np.ndarray:
    """Daily order labels (an int8 array of 1s and 2s) realizing the per-segment class process.

    Per segment the draws are, in order: ``rng.random()`` for the class (a
    block restart or a stay-or-switch); ``rng.integers`` for the crossing
    count k, uniform over [0, ceil(L/2)) for class A and over [ceil(L/2), L]
    for class B; then ``rng.choice(population, size=k, replace=False)``
    for the crossing days.  The first segment's first day is not in the
    population, as it has no predecessor, so its k is at most L - 1.
    Labels are the running parity of the crossing flags.

    Every generated order file is this stream, pinned with the generator's
    final state by ``oracle_order_labels`` in ``tests/oracles.py``.
    """
    pi_a, stay_a, stay_b = spec.class_chain()
    L, gap = spec.segment_length, spec.dependence_gap
    half = math.ceil(L / 2)  # W in [0, 1/2) for class A, [1/2, 1] for class B
    flags = spec.crossing_flags()
    for n in range(spec.segment_count):
        u = rng.random()
        if n % gap == 0:
            is_a = u < pi_a
        elif u >= (stay_a if is_a else stay_b):
            is_a = not is_a
        first = 1 if n == 0 else 0
        crossings = int(rng.integers(0, half)) if is_a else half + int(rng.integers(0, L + 1 - half))
        flags[n, first + rng.choice(L - first, size=min(crossings, L - first), replace=False)] = 1
    return crossing_labels(flags)


def crossing_labels(flags: np.ndarray) -> np.ndarray:
    """Labels 1 and 2 from a (segments, L) int8 grid of crossing flags: their running parity, plus 1, in place."""
    labels = flags.reshape(-1)
    np.bitwise_xor.accumulate(labels, out=labels)
    labels += 1
    return labels


def generate_order_process(spec: SyntheticOrderSpec) -> tuple[ReturnStack, np.ndarray]:
    """Seeded daily 3-currency return matrices plus the order labels they realize.

    Each day's unique best trade sits on its labeled side.  Two fixed side
    positions, one above and one below the diagonal, pay on every day
    regardless of the label, so a drifting portfolio always keeps support
    that the next day rewards.
    """
    rng = np.random.default_rng(spec.seed)
    labels = order_labels(spec, rng)
    values = rng.uniform(_ORDER_VALUE_LOW, _ORDER_VALUE_HIGH, len(labels))
    upper = labels == 1
    grids = np.zeros((len(labels), 3, 3))
    grids[:, 1, 2] = _ORDER_SIDE_VALUES[0]
    grids[:, 2, 0] = _ORDER_SIDE_VALUES[1]
    grids[upper, 0, 1] = values[upper]
    grids[~upper, 1, 0] = values[~upper]
    return ReturnStack(np.arange(1, len(labels) + 1), grids), labels


# ---------------------------------------------------------------------------
# ledgers and summaries


# The % format of each key of a ledger day line, in key order: json_value's
# bytes for the scalars, and the four grids' cell texts filled in as strings.
_DAY_FORMATS = {
    "day": "%d",
    "F": "%.17g",
    "Fp": "%.17g",
    "T": "%.17g",
    "c": "%.17g",
    "diamond": "%.17g",
    "order_actual": "%d",
    "order_pred": "%s",
    "crossed": "%s",
    "psi": "[%s]",
    "psi_prime": "[%s]",
    "R": "[%s]",
    "R_pred": "%s",
}
_DAY_LINE = "{" + ",".join(f"{json.dumps(key)}:{spec}" for key, spec in _DAY_FORMATS.items()) + "}\n"
# Days that write_ledger formats together, scalars and grids alike.  What a
# block holds at once is what the write adds to resident memory, which the
# process keeps: on a 2,000-day m = 12 run, 32-day blocks peaked about
# 0.65 MB higher than 8-day ones and were barely faster.
_LEDGER_BLOCK = 8


def _cell_texts(cells: np.ndarray) -> list[str]:
    """'%.17g' % x of every cell, row-major, formatting each distinct bit pattern once.

    '%.17g' % x depends only on x's bits.  +0.0 is "0" with no formatting;
    bits, not values, are compared, so -0.0 keeps its "-0".
    """
    bits = cells.reshape(-1).view(np.uint64)
    texts = np.full(bits.size, "0", dtype=object)
    nonzero = bits != 0
    unique, inverse = np.unique(bits[nonzero], return_inverse=True)
    formatted = "\0".join(["%.17g"] * len(unique)) % tuple(unique.view(np.float64).tolist())
    texts[nonzero] = np.array(formatted.split("\0"), dtype=object)[inverse]
    return texts.tolist()


def write_ledger(ledger: BacktestLedger, path) -> None:
    """JSON-lines dump: a meta line, then one line per day."""
    n = ledger.n_days
    if n == 0:
        raise EmptyLedger("refusing to write a ledger with no days")
    mm = ledger.m * ledger.m
    returns = ledger.returns.grids.reshape(n, mm)
    columns = (
        ledger.day,
        ledger.capital,
        ledger.capital_net,
        ledger.cost,
        ledger.ratio,
        np.where(ledger.parked, 0.0, ledger.growth),
        ledger.order_actual,
    )
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
            for start in range(0, n, _LEDGER_BLOCK):
                stop = min(start + _LEDGER_BLOCK, n)
                heads = zip(
                    *(column[start:stop].tolist() for column in columns),
                    ["null" if order < 0 else order for order in ledger.order_pred[start:stop].tolist()],
                    ["true" if crossed else "false" for crossed in ledger.pred_crossed_segment[start:stop].tolist()],
                )
                predicted = ledger.predicted[start:stop]
                # Each day's psi, psi_prime, R and R_pred, with zeros where no prediction was made.
                cells = np.zeros((stop - start, 4, mm))
                cells[:, 0] = np.reshape(ledger.portfolios[start:stop], (-1, mm))
                cells[:, 1] = np.reshape(ledger.realized[start:stop], (-1, mm))
                cells[:, 2] = returns[start:stop]
                for d, grid in enumerate(predicted):
                    if grid is not None:
                        cells[d, 3] = grid.reshape(mm)
                texts = _cell_texts(cells)
                grids = [",".join(texts[at : at + mm]) for at in range(0, len(texts), mm)]
                lines = []
                for d, (head, grid) in enumerate(zip(heads, predicted)):
                    psi, psi_prime, r, r_pred = grids[4 * d : 4 * d + 4]
                    lines.append(_DAY_LINE % (*head, psi, psi_prime, r, "null" if grid is None else f"[{r_pred}]"))
                fh.write("".join(lines))
    except OSError as exc:
        raise IoError(f"cannot write ledger {path}: {exc}") from exc


_JSON_KINDS = {"integer": (int,), "number": (int, float), "bool": (bool,), "object": (dict,)}


def _typed(kind: str, value):
    """value, if JSON gave it this kind; type() keeps out bools, which Python counts as ints."""
    if type(value) not in _JSON_KINDS[kind]:
        raise ValueError(f"{value!r} is not a JSON {kind}")
    return value


def _number(value) -> float:
    """A finite JSON number as a float; ints count, since %.17g writes 1.0 as 1."""
    x = float(_typed("number", value))
    if not math.isfinite(x):
        raise ValueError(f"{x!r} is not finite")
    return x


def _config(value) -> dict:
    """A JSON object whose numbers are finite at any depth.

    Python's json reads NaN, Infinity and 1e400, which write_ledger could not write back as JSON.
    """
    pending = [_typed("object", value)]
    while pending:
        item = pending.pop()
        if isinstance(item, dict):
            pending.extend(item.values())
        elif isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, float) and not math.isfinite(item):
            raise ValueError(f"{item!r} is not finite")
    return value


def _order(value) -> int:
    if _typed("integer", value) not in (0, 1, 2):
        raise ValueError(f"order {value!r} is not 0, 1 or 2")
    return value


def _diamond(value) -> float:
    x = float(_typed("number", value))
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{x!r} is not finite" if x == math.inf else f"weighted return {x!r} must be >= 0")
    return x


def _json_int(text: str):
    """A JSON integer token as an int, except -0: it is how write_ledger writes -0.0, so it reads back as -0.0."""
    return -0.0 if text == "-0" else int(text)


# A -0 token.  Only lines holding one pay for _json_int, which costs about
# 0.1 s on a 2,000-day m = 12 ledger, where most cells are the int token 0.
_NEGATIVE_ZERO = re.compile(r"-0(?![.eE\d])")


def read_ledger(path) -> BacktestLedger:
    records = []
    try:
        with open(path, "rb") as fh:
            for ln, raw in enumerate(fh, start=1):
                line = raw.decode("utf-8")
                if line.strip():
                    hook = {"parse_int": _json_int} if _NEGATIVE_ZERO.search(line) else {}
                    records.append((ln, json.loads(line, **hook)))
    except OSError as exc:
        raise IoError(f"cannot read ledger {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: line {ln}: not UTF-8: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: line {ln}: bad JSON: nested too deeply") from exc
    except ValueError as exc:  # a JSONDecodeError, or an int too long to convert
        raise ParseError(f"{path}: line {ln}: bad JSON: {exc}") from exc
    if not records or not isinstance(records[0][1], dict) or records[0][1].get("kind") != "fxfolio-ledger":
        raise ParseError(f"{path}: missing fxfolio-ledger meta line")
    (meta_ln, meta), days = records[0], records[1:]
    if not days:
        raise ParseError(f"{path}: ledger has no day records")

    def field(ln, record, key, convert):
        try:
            return convert(record[key])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            problem = "missing" if isinstance(exc, KeyError) else f"bad value: {exc}"
            raise ParseError(f"{path}: line {ln}: key {key!r}: {problem}") from exc
        except FxfolioError as exc:
            raise ParseError(f"{path}: line {ln}: key {key!r}: {exc}") from exc

    m = field(meta_ln, meta, "m", lambda v: _typed("integer", v))
    if m < 2:
        raise ParseError(f"{path}: line {meta_ln}: key 'm': need m >= 2, got {m}")

    def grid(flat):
        return np.array(flat, dtype=float).reshape(m, m)

    def column(key, convert):
        return [field(ln, d, key, convert) for ln, d in days]

    def grid_column(key, convert, check):
        """key's grid on every line, read by convert and checked by check(day, stack), zeros for None: check's stack, else the grids."""
        out = column(key, convert)
        try:
            stack = check(day, np.array([np.zeros((m, m)) if g is None else g for g in out]))
        except (FxfolioError, OverflowError) as exc:
            # A fault of one row names its line; one of no row (days not increasing, beyond int64) is the day column's.
            where = f"line {days[exc.row][0]}: key {key!r}" if hasattr(exc, "row") else "key 'day'"
            raise ParseError(f"{path}: {where}: {exc}") from exc
        return out if stack is None else stack

    day = column("day", lambda v: _typed("integer", v))
    diamond = np.array(column("diamond", _diamond))
    ledger = BacktestLedger(
        m=m,
        f0=field(meta_ln, meta, "f0", _number),
        config=field(meta_ln, meta, "config", _config),
        day=np.array(day),
        capital=np.array(column("F", _number)),
        capital_net=np.array(column("Fp", _number)),
        cost=np.array(column("T", _number)),
        ratio=np.array(column("c", _number)),
        growth=np.where(diamond > 0.0, diamond, 1.0),
        parked=diamond == 0.0,
        order_actual=np.array(column("order_actual", _order), dtype=np.int64),
        order_pred=np.array(column("order_pred", lambda v: -1 if v is None else _order(v)), dtype=np.int64),
        pred_crossed_segment=np.array(column("crossed", lambda v: _typed("bool", v))),
        portfolios=grid_column("psi", grid, check_weights),
        realized=grid_column("psi_prime", grid, check_weights),
        returns=grid_column("R", grid, ReturnStack),
        predicted=grid_column("R_pred", lambda flat: None if flat is None else grid(flat), check_predictions),
        next_portfolio=field(meta_ln, meta, "next_psi", lambda flat: PortfolioMatrix(day=day[-1] + 1, weights=grid(flat)).weights),
    )
    # A day has a predicted order exactly when it has a predicted grid, and only a prediction can cross a segment.
    for (ln, _), order, predicted, crossed in zip(
        days, ledger.order_pred.tolist(), ledger.predicted, ledger.pred_crossed_segment.tolist()
    ):
        if (order < 0) != (predicted is None):
            found = f"{order} but R_pred is null" if predicted is None else "null but R_pred holds a prediction"
            raise ParseError(f"{path}: line {ln}: key 'order_pred': {found}")
        if crossed and order < 0:
            raise ParseError(f"{path}: line {ln}: key 'crossed': true but order_pred is null")
    return ledger


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
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise IoError(f"cannot read summary {path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if len(rows) != 2 or tuple(rows[0]) != _SUMMARY_FIELDS:
        raise ParseError(f"{path}: expected header {','.join(_SUMMARY_FIELDS)} and one data row")
    out = {}
    for k, v in zip(rows[0], rows[1]):
        try:
            out[k] = float(v)
        except ValueError as exc:
            raise ParseError(f"{path}: line 2: field {k}: {exc}") from exc
    return out
