"""The benchmark's workloads: the inputs each one generates and the ops of one round.

An op is one call into ``fxfolio.cli.main(argv)``.  A round is the fixed,
ordered list of ops a workload repeats; every op of a round writes to its
own paths, so a round's outputs can be checked after the round is timed.
Why each workload exists is written down in README.md beside this file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must show."""

    label: str
    argv: tuple[str, ...]
    summary: str | None = None
    ledger: str | None = None
    # Last stdout line a verify suite must print.
    pass_line: str | None = None


# Input sizes, fixed here so every seed does the same amount of work.
UNIVERSALITY_REPLICATES = 3  # replicate r uses m = 2 + r % 3, so one op covers m = 2, 3, 4
UNIVERSALITY_DAYS = 250
ORDER_SEGMENTS = 1000
ORDER_SEGMENT_LENGTH = 5
ORDER_SAME_CLASS_MASS = 0.78
FILES_M = 12
FILES_DAYS = 2000
COST_BOUNDS_REPLICATES = 2000
PROFITABILITY_SEGMENTS = 20_000
COST = "0.005"

WORKLOADS = ("universality", "crossrate-orders", "files-m12", "verify-mc")

# Backtests over generated input files; their summaries are checked against reference.json.
BACKTEST_WORKLOADS = ("crossrate-orders", "files-m12")


def generate_inputs(workload: str, seed: int, workdir: str) -> None:
    """Write the workload's input files for ``seed`` into ``workdir``."""
    from fxfolio.data_io import (
        SyntheticMarketSpec,
        SyntheticOrderSpec,
        generate_market,
        generate_order_process,
        symmetric_masses,
        write_rates,
        write_returns,
    )

    if workload == "crossrate-orders":
        spec = SyntheticOrderSpec(
            segment_count=ORDER_SEGMENTS,
            segment_length=ORDER_SEGMENT_LENGTH,
            masses=symmetric_masses(ORDER_SAME_CLASS_MASS),
            seed=seed,
        )
        matrices, _ = generate_order_process(spec)
        write_returns(matrices, os.path.join(workdir, "orders.csv"))
    elif workload == "files-m12":
        quotes = generate_market(SyntheticMarketSpec(m=FILES_M, n_days=FILES_DAYS, seed=seed))
        write_rates(quotes, os.path.join(workdir, "rates.csv"))


def round_ops(workload: str, seed: int, workdir: str) -> list[Op]:
    """The ops of one round, in order."""
    path = lambda name: os.path.join(workdir, name)  # noqa: E731
    if workload == "universality":
        # Gap checks per replicate: 12 configs times m(m-1)/2 pairs.
        checks = sum(12 * m * (m - 1) // 2 for m in (2 + r % 3 for r in range(UNIVERSALITY_REPLICATES)))
        return [
            Op(
                "universality",
                ("verify", "--suite", "universality", "--replicates", str(UNIVERSALITY_REPLICATES),
                 "--jobs", "1", "--days", str(UNIVERSALITY_DAYS), "--seed", str(seed)),
                pass_line=f"[PASS] universality: {checks} checks, 0 violations",
            )
        ]
    if workload == "crossrate-orders":
        common = ("backtest", "--input", path("orders.csv"), "--input-kind", "returns",
                  "--predictor", "crossrate", "--cost", COST, "--L", str(ORDER_SEGMENT_LENGTH))
        return [
            Op("mpcr1-mpo1-iitc",
               common + ("--mpcr", "1", "--mpo", "1", "--rule", "iitc", "--summary", path("summary-iitc.csv")),
               summary=path("summary-iitc.csv")),
            Op("adjusted-mpcr2-mpo2-eiitc",
               common + ("--adjusted", "--mpcr", "2", "--mpo", "2", "--rule", "eiitc",
                         "--summary", path("summary-eiitc.csv")),
               summary=path("summary-eiitc.csv")),
        ]
    if workload == "files-m12":
        return [
            Op("m12-crossrate-eiitc",
               ("backtest", "--input", path("rates.csv"), "--predictor", "crossrate", "--rule", "eiitc",
                "--cost", COST, "--ledger", path("ledger.jsonl"), "--summary", path("summary.csv")),
               summary=path("summary.csv"), ledger=path("ledger.jsonl")),
        ]
    if workload == "verify-mc":
        return [
            Op("cost-bounds",
               ("verify", "--suite", "cost-bounds", "--replicates", str(COST_BOUNDS_REPLICATES), "--seed", str(seed)),
               pass_line=f"[PASS] cost-bounds: {COST_BOUNDS_REPLICATES} checks, 0 violations"),
            Op("profitability",
               ("verify", "--suite", "profitability", "--segments", str(PROFITABILITY_SEGMENTS), "--seed", str(seed)),
               pass_line=f"[PASS] profitability: {2 * (PROFITABILITY_SEGMENTS - 1)} checks, 0 violations"),
        ]
    raise ValueError(f"unknown workload {workload!r}")
