"""Spans around fxfolio's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in every
fxfolio module that holds it by name (``fxfolio.backtest.solve_cost_from_drift``
and ``fxfolio.verify.solve_cost_from_drift`` are both patched), and the
``__post_init__`` of each validated matrix class, whose time is reported as
the module's ``validations``.  ``uninstall`` puts the originals back.

Spans are kept in memory as parallel arrays (name, start, end, parent span,
op id) and written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import os
import statistics
import sys
import time
from array import array
from collections import Counter

TRACED = {
    "market": ("compute_return_matrix",),
    "portfolio": ("gross_return", "realized_portfolio"),
    "updates": ("iitc_update", "eiitc_update"),
    "costs": ("solve_cost_from_drift",),
    "crossrate": ("order_of", "predict_return", "mpcr_predict", "mpo_predict", "adjusted_cross_rate"),
    "backtest": ("run_backtest", "universality_gap"),
    "data_io": ("load_rates", "read_returns", "write_ledger", "write_summary", "generate_market", "normalized_returns"),
    "verify": ("universality_suite", "profitability_suite", "cost_bounds_suite", "bisect_cost"),
    "cli": ("main",),
}
VALIDATED = {
    "market.validations": (("market", "RateMatrix"), ("market", "ReturnMatrix")),
    "portfolio.validations": (("portfolio", "PortfolioMatrix"),),
}
# Position of the path argument of each file reader and writer.
READERS = {"data_io.load_rates": 0, "data_io.read_returns": 0}
WRITERS = {"data_io.write_ledger": 1, "data_io.write_summary": 1}


class Tracer:
    """Span recorder for fxfolio's public functions, active between install and uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack = [-1]
        self.raised: Counter = Counter()
        self.io_bytes: Counter = Counter()
        self.days = 0
        self.parked_days = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "fxfolio" or n.startswith("fxfolio.")]
        for module, funcs in TRACED.items():
            owner = sys.modules[f"fxfolio.{module}"]
            for func in funcs:
                original = getattr(owner, func)
                wrapper = self._wrap(f"{module}.{func}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for span, classes in VALIDATED.items():
            for module, cls_name in classes:
                cls = getattr(sys.modules[f"fxfolio.{module}"], cls_name)
                original = cls.__dict__["__post_init__"]
                self._patches.append((cls, "__post_init__", original))
                setattr(cls, "__post_init__", self._wrap(span, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter
        stack = self._stack
        after = self._after_hook(name)

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1])
            self.op.append(self.op_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = clock()
                self.raised[(name, type(exc).__name__)] += 1
                raise
            else:
                self.end[idx] = clock()
            finally:
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _after_hook(self, name: str):
        if name == "backtest.run_backtest":
            def count_days(args, kwargs, ledger):
                self.days += int(ledger.n_days)
                self.parked_days += int(ledger.parked.sum())
            return count_days
        if name in READERS or name in WRITERS:
            pos = READERS.get(name, WRITERS.get(name))

            def count_bytes(args, kwargs, result):
                self.io_bytes[name] += os.path.getsize(kwargs["path"] if "path" in kwargs else args[pos])
            return count_bytes
        return None

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        n = len(self.start)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                lo = max(self.start[i], self.start[p])
                hi = min(self.end[i], self.end[p])
                if hi > lo:
                    covered[p] += hi - lo
        return [self.end[i] - self.start[i] - covered[i] for i in range(n)]

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\t{self.op[i]}\n"
                )


def layer_metrics(tracer: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics, each a mean per traced round, plus the trace's own accounting."""
    rounds = len(traced_walls)
    selfs = tracer.self_times()
    calls: Counter = Counter()
    ms: Counter = Counter()
    self_ms: Counter = Counter()
    root_s = 0.0
    for i, s in enumerate(selfs):
        name = tracer.names[tracer.name_id[i]]
        calls[name] += 1
        ms[name] += (tracer.end[i] - tracer.start[i]) * 1e3
        self_ms[name] += s * 1e3
        if tracer.parent[i] < 0:
            root_s += tracer.end[i] - tracer.start[i]

    out: dict[str, tuple[float, str]] = {}
    for module, funcs in TRACED.items():
        for func in funcs:
            name = f"{module}.{func}"
            out[f"{name}.calls"] = (calls[name] / rounds, "count")
            out[f"{name}.ms"] = (ms[name] / rounds, "ms")
            out[f"{name}.self_ms"] = (self_ms[name] / rounds, "ms")
    for name in VALIDATED:
        out[name] = (calls[name] / rounds, "count")
        out[f"{name}.ms"] = (ms[name] / rounds, "ms")

    zero = tracer.raised[("updates.eiitc_update", "ZeroDiamond")]
    tilts = calls["updates.eiitc_update"]
    out["updates.eiitc_zero_diamond"] = (zero / rounds, "count")
    out["updates.eiitc_useful_ratio"] = ((tilts - zero) / tilts if tilts else 1.0, "ratio")
    insufficient = tracer.raised[("crossrate.predict_return", "InsufficientHistory")]
    out["crossrate.predict_return.insufficient"] = (insufficient / rounds, "count")
    out["backtest.days"] = (tracer.days / rounds, "count")
    out["backtest.parked_ratio"] = (tracer.parked_days / tracer.days if tracer.days else 0.0, "ratio")
    for name in (*READERS, *WRITERS):
        seconds = ms[name] / 1e3
        out[f"{name}.mb_per_s"] = (tracer.io_bytes[name] / 1e6 / seconds if seconds > 0 else 0.0, "MB/s")

    wall_ms = sum(traced_walls) * 1e3
    self_total_ms = sum(selfs) * 1e3
    unattributed_ms = wall_ms - root_s * 1e3
    if abs(wall_ms - (self_total_ms + unattributed_ms)) > 1e-6 * wall_ms:
        raise RuntimeError(
            f"trace accounting broken: self {self_total_ms} + unattributed {unattributed_ms} != wall {wall_ms} ms"
        )
    out["trace.wall_ms"] = (wall_ms / rounds, "ms")
    out["trace.self_ms_total"] = (self_total_ms / rounds, "ms")
    out["trace.unattributed_ms"] = (unattributed_ms / rounds, "ms")
    out["trace.spans"] = (len(selfs) / rounds, "count")
    out["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(untraced_walls), "s")
    return out
