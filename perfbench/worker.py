"""One benchmark process: generate a workload's inputs, or set up and time its ops.

  worker.py generate --workload W --seed N --dir D
  worker.py run --workload W --seed N --dir D --seconds S --trace 0|1 [--spans F]

``run`` imports fxfolio, makes the round's first op once untimed, notes
the moment it is ready, then repeats timed rounds until S seconds have
passed.  With ``--trace 1`` it alternates untraced and traced rounds and
writes its spans to F.  Its last stdout line is a JSON object that
perfbench/run.py reads.  Both modes expect the repository's ``src`` on
PYTHONPATH, which run.py sets.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback

from workloads import BACKTEST_WORKLOADS, generate_inputs, round_ops
from tracer import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
SUMMARY_FIELDS = ("I_N", "LI_N", "F_N", "R_N", "eta")
REL_TOL = 1e-9


def call_op(cli, argv) -> tuple[int | None, str, str]:
    """Run one CLI op in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # a raw traceback is a failed op, not a crashed benchmark
            traceback.print_exc(file=err)
            rc = None
    return rc, out.getvalue(), err.getvalue()


def read_summary_values(path: str) -> dict[str, float]:
    with open(path) as fh:
        header, row = fh.read().splitlines()
    return dict(zip(header.split(","), (float(v) for v in row.split(","))))


def close_enough(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _digest(text: str, *paths: str | None) -> str:
    h = hashlib.sha256(text.encode())
    for path in paths:
        if path is not None:
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
    return h.hexdigest()


class Checker:
    """Correctness gate for every op; a failed check marks the op failed."""

    def __init__(self, workload: str, seed: int):
        self.reference = None
        if workload in BACKTEST_WORKLOADS:
            with open(REFERENCE_FILE) as fh:
                self.reference = json.load(fh)[workload].get(str(seed))
        self.first_digest: dict[str, str] = {}
        self.problems: list[str] = []

    def check(self, op, rc, out: str, err: str) -> bool:
        problems = []
        if rc != 0:
            problems.append(f"exit code {rc}: {err.strip()[-300:]}")
        elif op.pass_line is not None and out.rstrip("\n").rsplit("\n", 1)[-1] != op.pass_line:
            problems.append(f"last line {out.strip().splitlines()[-1:]!r}, expected {op.pass_line!r}")
        if not problems and op.summary is not None:
            got = read_summary_values(op.summary)
            if self.reference is not None:
                want = self.reference[op.label]
                for key in SUMMARY_FIELDS:
                    if not close_enough(got[key], want[key]):
                        problems.append(f"{key}={got[key]!r}, reference {want[key]!r}")
        if not problems:
            digest = _digest(out, op.summary, op.ledger)
            first = self.first_digest.setdefault(op.label, digest)
            if digest != first:
                problems.append("output bytes differ from the first run of this op")
        self.problems.extend(f"{op.label}: {p}" for p in problems)
        return not problems

    def round_trip(self, op) -> bool:
        """The ledger must read back and rewrite to the same bytes and summary."""
        from fxfolio.backtest import cumulative_return, cumulative_return_net, growth_rate, growth_rate_net
        from fxfolio.data_io import read_ledger, write_ledger

        copy = op.ledger + ".roundtrip"
        try:
            ledger = read_ledger(op.ledger)
            write_ledger(ledger, copy)
            same = _digest("", op.ledger) == _digest("", copy)
            summary = read_summary_values(op.summary)
            recomputed = {
                "I_N": cumulative_return(ledger),
                "LI_N": growth_rate(ledger),
                "F_N": cumulative_return_net(ledger),
                "R_N": growth_rate_net(ledger),
            }
            mismatched = [k for k, v in recomputed.items() if not close_enough(v, summary[k])]
        except Exception as exc:  # any failure to read back fails the check
            self.problems.append(f"{op.label}: ledger round trip raised {exc!r}")
            return False
        finally:
            if os.path.exists(copy):
                os.remove(copy)
        if not same:
            self.problems.append(f"{op.label}: ledger rewritten from read_ledger differs in bytes")
        if mismatched:
            self.problems.append(f"{op.label}: summary fields {mismatched} differ after read_ledger")
        return same and not mismatched


def run(args) -> dict:
    import numpy
    from fxfolio import cli

    ops = round_ops(args.workload, args.seed, args.dir)
    checker = Checker(args.workload, args.seed)
    # One untimed warm-up op; its outputs become the baseline its repeats must match.
    warm_ok = checker.check(ops[0], *call_op(cli, ops[0].argv))
    ready = time.monotonic()

    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    cpus: list[float] = []
    latencies_ms: list[float] = []
    attempted = failed = 0
    op_id = 0
    began = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.install()
        gc.collect()
        results = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op_id = op_id
            s = time.perf_counter()
            rc, out, err = call_op(cli, op.argv)
            latencies_ms.append((time.perf_counter() - s) * 1e3)
            results.append((op, rc, out, err))
            op_id += 1
        walls[traced].append(time.perf_counter() - t0)
        cpus.append(time.process_time() - cpu0)
        if traced:
            tracer.uninstall()
        for op, rc, out, err in results:
            attempted += 1
            failed += not checker.check(op, rc, out, err)
        if time.perf_counter() - began >= args.seconds and (tracer is None or (walls[True] and walls[False])):
            break
        traced = tracer is not None and not traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for op in ops:
        if op.ledger is not None and not checker.round_trip(op):
            failed = attempted  # every repetition wrote these same bytes
    if not warm_ok:
        failed = attempted

    result = {
        "ready": ready,
        "numpy": numpy.__version__,
        "attempted": attempted,
        "failed": failed,
        "problems": checker.problems[:20],
        "reference_checked": checker.reference is not None,
        "round_walls_s": walls[False],
    }
    if tracer is None:
        result.update({"round_cpus_s": cpus, "op_latencies_ms": latencies_ms, "peak_rss_mb": peak_rss_mb})
    else:
        result.update({"traced_rounds": len(walls[True]), "layers": layer_metrics(tracer, walls[True], walls[False])})
        tracer.write(args.spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("generate", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "generate":
        generate_inputs(args.workload, args.seed, args.dir)
        return 0
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
