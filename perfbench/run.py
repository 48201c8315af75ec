"""Run one workload of the fxfolio benchmark and print its metrics.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every process this starts is a fresh
interpreter with one BLAS/OpenMP thread and ``src`` on PYTHONPATH.  A
set-up is a generator process that writes the inputs, then a worker that
imports fxfolio and makes one untimed warm-up op.  With ``--trace 0`` the
run sets up three workers one after another; each times rounds of ops for
a third of S seconds, and the run reports the median set-up time and the
medians over all their rounds.  With ``--trace 1`` one worker reports
per-layer metrics from traced rounds.  The last stdout line is the JSON
result; a copy with the samples, the machine and every problem found goes
to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

from workloads import BACKTEST_WORKLOADS, WORKLOADS  # noqa: E402  (perfbench/ is sys.path[0])

# A --trace 0 run sets up this many workers, each timing rounds for a share of --seconds.
WORKERS = 3
TIME_LIMIT_S = 170.0
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "cpu_s": "s", "peak_rss_mb": "MB"}


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        FXFOLIO_JOBS="1",
        PYTHONHASHSEED="0",
        PYTHONDONTWRITEBYTECODE="1",
    )
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def git_sha() -> str:
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts the benchmark's processes one at a time, each bounded by the run's deadline."""

    def __init__(self, args):
        self.args = args
        self.env = pinned_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.worker = os.path.join(HERE, "worker.py")

    def _run(self, mode: str, workdir: str, *extra: str) -> str:
        cmd = [sys.executable, self.worker, mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--dir", workdir, *extra]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=max(1.0, self.deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} process exited {proc.returncode}:\n{proc.stderr.strip()}")
        return proc.stdout

    def set_up_and_measure(self, workdir: str, seconds: float, *extra: str) -> tuple[float, dict]:
        """Generate inputs, then run a worker; returns seconds until it was ready, and its report."""
        os.makedirs(workdir)
        began = time.monotonic()
        if self.args.workload in BACKTEST_WORKLOADS:
            self._run("generate", workdir)
        out = self._run("run", workdir, "--seconds", repr(seconds), "--trace", str(self.args.trace), *extra)
        report = json.loads(out.strip().splitlines()[-1])
        return report["ready"] - began, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "fxfolio", "cli.py")):
        print(f"no fxfolio sources under {os.path.join(ROOT, 'src')}; run from a full checkout", file=sys.stderr)
        return 2

    runner = Runner(args)
    state = os.path.join(ROOT, ".perfbench")
    workroot = os.path.join(state, f"work-{os.getpid()}")
    results_dir = os.path.join(state, "results")
    os.makedirs(results_dir, exist_ok=True)
    # One spans file per workload, from its latest traced run, so traced runs do not pile up on disk.
    extra = ("--spans", os.path.join(results_dir, f"{args.workload}.spans.tsv.gz")) if args.trace else ()
    workers = 1 if args.trace else WORKERS
    setups: list[float] = []
    reports: list[dict] = []
    try:
        for k in range(workers):
            workdir = os.path.join(workroot, f"worker-{k}")
            seconds, report = runner.set_up_and_measure(workdir, args.seconds / workers, *extra)
            setups.append(seconds)
            reports.append(report)
            shutil.rmtree(workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)

    walls = [w for r in reports for w in r["round_walls_s"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in reports[0]["layers"].items()}
        counts = {}
    else:
        latencies = [t for r in reports for t in r["op_latencies_ms"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "op_p50_ms": statistics.median(latencies),
            "cpu_s": statistics.median([c for r in reports for c in r["round_cpus_s"]]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        counts = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"median of {len(walls)} rounds",
            "op_p50_ms": f"median of {len(latencies)} ops",
            "cpu_s": f"median of {len(walls)} rounds",
            "peak_rss_mb": f"highest of {len(reports)} workers",
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    machine = {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": reports[0]["numpy"],
    }
    reference_checked = all(r["reference_checked"] for r in reports)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "machine": machine, "setup_s_samples": setups, "round_walls_s": walls,
                   "traced_rounds": sum(r.get("traced_rounds", 0) for r in reports),
                   "reference_checked": reference_checked, "problems": problems, "result": result}, fh, indent=1)
        fh.write("\n")

    print(f"fxfolio benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(" ".join(f"{k}={v}" for k, v in machine.items()))
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']:<6} {counts.get(name, '')}")
    print(f"  {'error_rate':<44} {failed / attempted:>16.6g} {'ratio':<6} {failed} failed of {attempted} ops")
    if not reference_checked and args.workload in BACKTEST_WORKLOADS:
        print(f"  note: perfbench/reference.json has no summaries for seed {args.seed}; other checks still ran")
    for problem in problems:
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
