"""Record the reference summaries that the benchmark checks each op against.

  PYTHONPATH=src python3 perfbench/make_reference.py --seeds 0-127

For every seed and every workload in ``workloads.BACKTEST_WORKLOADS`` this
generates the inputs, runs each op of a round once through
``fxfolio.cli.main`` and stores the summary's I_N, LI_N, F_N, R_N and eta
in ``perfbench/reference.json``, replacing what it held for those seeds.  Run it from the repository root;
re-record only on purpose, when a change is meant to alter what a
backtest computes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

from workloads import BACKTEST_WORKLOADS, generate_inputs, round_ops
from worker import HERE, REFERENCE_FILE, SUMMARY_FIELDS, call_op, read_summary_values


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-127", help="inclusive range, e.g. 0-127")
    args = parser.parse_args(argv)
    from fxfolio import cli

    reference: dict = {w: {} for w in BACKTEST_WORKLOADS}
    if os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE) as fh:
            reference.update(json.load(fh))
    work_root = os.path.join(os.path.dirname(HERE), ".perfbench")
    os.makedirs(work_root, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for workload in BACKTEST_WORKLOADS:
            workdir = tempfile.mkdtemp(prefix="reference-", dir=work_root)
            try:
                generate_inputs(workload, seed, workdir)
                for op in round_ops(workload, seed, workdir):
                    rc, _, err = call_op(cli, op.argv)
                    if rc != 0:
                        print(f"seed {seed} {workload} {op.label}: exit {rc}: {err}", file=sys.stderr)
                        return 1
                    values = read_summary_values(op.summary)
                    reference[workload].setdefault(str(seed), {})[op.label] = {k: values[k] for k in SUMMARY_FIELDS}
            finally:
                shutil.rmtree(workdir)
        print(f"seed {seed} done", flush=True)
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
