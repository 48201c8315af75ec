"""Print a sha256 for every output of a fixed matrix of fxfolio CLI runs.

  PYTHONPATH=src python3 tools/digests.py OUTDIR > digests.txt

The runs go through ``fxfolio.cli.main`` in this process, with OUTDIR as
the working directory and relative paths, so the printed configuration
lines do not depend on where OUTDIR is.  Every output gets one
``sha256  label`` line on stdout: each generated file, and for each
backtest and verify run its stdout (prefixed with the exit code), ledger
and summary.  Each ledger gets a second line, ``sha256  LEDGER days``,
over its day lines alone, so a deliberate change to the meta line (the
config echo) shows apart from any change to a day record.  Runs that must
fail, backtests on damaged inputs and generate specs that give no valid
market, hash their exit code, stdout and stderr, so their error messages
are compared too.  The fxfolio
package used is the first one on the import path, and its location is
printed to stderr.  The tool exits with a message if its copy of the
benchmark's crossrate-orders input differs from the file that
``perfbench/workloads.py`` writes at seed 1.

To check that a change keeps every byte, run this against the parent's
``src`` and the change's ``src`` into two directories and ``diff`` the two
listings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys

SEEDS = (1, 2, 3)
COST = "0.005"
# (label, input file, --input-kind) for the backtest matrix.
BACKTEST_INPUTS = (
    ("orders", "gen/orders-s1.csv", "returns"),
    ("m3", "gen/market-m3-s1.csv", "rates"),
    ("m4", "gen/market-m4-s1.csv", "rates"),
    ("normalized", "gen/normalized-m3-s1.csv", "rates"),
)


# (label, flags) for order processes beyond the default one: the shortest
# segment, one-segment blocks, and masses that pin every segment to one
# class or make every segment switch class.
ORDER_VARIANTS = (
    ("L2", ["--L", "2"]),
    ("L7-K1", ["--L", "7", "--K", "1"]),
    ("all-A", ["--masses", "1,0,0,0"]),
    ("all-switch", ["--masses", "0,0.5,0.5,0"]),
)


# (label, source file, --input-kind, {(day, i, j): new values, None to keep one}) for
# backtests on a generated input that is damaged so it breaks one rule.
DAMAGED_INPUTS = (
    ("rates-nan", "gen/market-m3-s1.csv", "rates", {(5, 2, 3): ("nan", None)}),
    ("rates-zero", "gen/market-m3-s1.csv", "rates", {(8, 3, 1): (None, "0")}),
    ("rates-spread", "gen/market-m3-s1.csv", "rates", {(9, 1, 2): ("0.5", None)}),
    ("rates-both-ways", "gen/market-m3-s1.csv", "rates", {(12, 1, 2): ("1.10", "0.99"), (12, 2, 1): ("1.00", "0.98")}),
    ("rates-overflow", "gen/market-m3-s1.csv", "rates", {(20, 1, 2): ("1e300", "1e-10"), (20, 2, 1): ("1e-12", "1e-11")}),
    ("returns-negative", "gen/orders-s1.csv", "returns", {(7, 2, 1): ("-1",)}),
    ("returns-mirrored", "gen/orders-s1.csv", "returns", {(7, 1, 2): ("1.1",), (7, 2, 1): ("1.2",)}),
)
# The benchmark's crossrate-orders input at seed 1, which main checks against perfbench's own.
ORDERS_BENCH = "gen/orders-n1000-s1.csv"
CROSSRATE_ORDERS = ["--predictor", "crossrate", "--cost", COST, "--L", "5"]
# (label, input file, --input-kind, {(day, i, j): new values} or None, flags) for single
# backtests beyond the matrix, each with its ledger and summary: the benchmark's files-m12
# op, a returns file with -0 in a zero cell, whose -0.0 reaches R, psi_prime and psi, and
# the benchmark's two crossrate-orders ops.
SINGLE_BACKTESTS = (
    ("files-m12", "gen/market-m12-d2000-s1.csv", "rates", None, ["--predictor", "crossrate", "--rule", "eiitc", "--cost", COST]),
    ("returns-negative-zero", "gen/orders-s1.csv", "returns", {(1, 1, 3): ("-0",)}, ["--cost", COST]),
    ("crossrate-orders-mpcr1-mpo1-iitc", ORDERS_BENCH, "returns", None,
     CROSSRATE_ORDERS + ["--mpcr", "1", "--mpo", "1", "--rule", "iitc"]),
    ("crossrate-orders-adjusted-mpcr2-mpo2-eiitc", ORDERS_BENCH, "returns", None,
     CROSSRATE_ORDERS + ["--adjusted", "--mpcr", "2", "--mpo", "2", "--rule", "eiitc"]),
)
# (label, input file, --input-kind, flags) for backtests that must fail on valid inputs,
# hashed with their exit code, stdout and stderr: capital underflows to 0.0 on day 2,921.
FAILING_BACKTESTS = (
    ("capital-underflow", ORDERS_BENCH, "returns", ["--predictor", "crossrate", "--rule", "eiitc", "--support-floor", "0.5"]),
)
# (out, flags) for generate specs whose walk breaks a rate rule.
FAILING_GENERATE = (
    ("gen/walk-vol0.1-d2000.csv", ["--vol", "0.1", "--days", "2000"]),
    ("gen/walk-vol0.5-d250.csv", ["--vol", "0.5", "--days", "250"]),
)


def generate_runs() -> list[tuple[str, list[str]]]:
    runs = []
    for seed in SEEDS:
        per_seed = []
        for m in (2, 3, 4):
            per_seed.append((f"gen/market-m{m}-s{seed}.csv", ["--market", "--m", str(m), "--days", "250"]))
            per_seed.append((f"gen/normalized-m{m}-s{seed}.csv", ["--market", "--normalize", "--m", str(m), "--days", "250"]))
        per_seed.append((f"gen/orders-s{seed}.csv", ["--orders", "--segments", "100"]))
        for label, flags in ORDER_VARIANTS:
            per_seed.append((f"gen/orders-{label}-s{seed}.csv", ["--orders", "--segments", "100", *flags]))
        runs += [(out, ["generate", *args, "--seed", str(seed), "--out", out]) for out, args in per_seed]
    # Long enough that the order-label draws span several decoder blocks.
    runs.append(("gen/orders-n5000-s1.csv", ["generate", "--orders", "--segments", "5000", "--seed", "1", "--out", "gen/orders-n5000-s1.csv"]))
    runs.append((ORDERS_BENCH, ["generate", "--orders", "--segments", "1000", "--seed", "1", "--out", ORDERS_BENCH]))
    # The benchmark's files-m12 input at seed 1.
    out = "gen/market-m12-d2000-s1.csv"
    runs.append((out, ["generate", "--market", "--m", "12", "--days", "2000", "--seed", "1", "--out", out]))
    return runs


def backtest_configs() -> list[tuple[str, list[str]]]:
    configs = []
    for mpcr, mpo, adjusted, rule, seg_len in itertools.product((1, 2), (1, 2), (False, True), ("iitc", "eiitc"), (2, 5)):
        name = f"mpcr{mpcr}-mpo{mpo}-{'adjusted' if adjusted else 'plain'}-{rule}-L{seg_len}"
        args = ["--predictor", "crossrate", "--mpcr", str(mpcr), "--mpo", str(mpo), "--rule", rule, "--L", str(seg_len)]
        configs.append((name, args + (["--adjusted"] if adjusted else []) + ["--cost", COST]))
    configs += [
        ("none", ["--predictor", "none", "--cost", COST]),
        ("linear-1", ["--predictor", "linear", "--lags", "1", "--cost", COST]),
        ("linear-2", ["--predictor", "linear", "--lags", "0.6,0.4", "--rule", "eiitc", "--cost", COST]),
        ("linear-3", ["--predictor", "linear", "--lags", "0.5,0.3,0.2", "--cost", COST]),
        ("support-floor", ["--support-floor", "0.05", "--rule", "eiitc", "--cost", COST]),
        ("block-decaying", ["--schedule", "block-decaying", "--block-unit", "5", "--gamma", "0.5", "--cost", COST]),
        ("zero-cost", ["--cost", "0"]),
    ]
    return configs


def verify_runs() -> list[tuple[str, list[str]]]:
    runs = [
        (f"verify/universality-s{seed}", ["--suite", "universality", "--replicates", "6", "--seed", str(seed)])
        for seed in (1, 2, 97)
    ]
    runs += [
        ("verify/profitability", ["--suite", "profitability", "--segments", "2000"]),
        # The benchmark's size, at its tuning seed and its held-out seed.
        ("verify/profitability-n20000-s1", ["--suite", "profitability", "--segments", "20000", "--seed", "1"]),
        ("verify/profitability-n20000-s97", ["--suite", "profitability", "--segments", "20000", "--seed", "97"]),
        ("verify/profitability-L2-s2", ["--suite", "profitability", "--segments", "2000", "--L", "2", "--seed", "2"]),
        ("verify/profitability-L7-n501", ["--suite", "profitability", "--L", "7", "--segments", "501"]),
        # Fails: alternation against a persistence-heavy process prints violation lines.
        ("verify/profitability-pab0.3-s3", ["--suite", "profitability", "--segments", "2000", "--pab-pba", "0.3", "--seed", "3"]),
        ("verify/cost-bounds", ["--suite", "cost-bounds", "--replicates", "500"]),
        # Group sizes by m that differ from one another.
        ("verify/cost-bounds-r7-s3", ["--suite", "cost-bounds", "--replicates", "7", "--seed", "3"]),
        ("verify/cost-bounds-r2001-s2", ["--suite", "cost-bounds", "--replicates", "2001", "--seed", "2"]),
    ]
    return [(label, ["verify", *args, "--jobs", "1"]) for label, args in runs]


def check_benchmark_orders(path: str) -> None:
    """Exit unless path holds the bytes of perfbench's crossrate-orders input at seed 1."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))
    from workloads import generate_inputs

    os.makedirs("perfbench-input", exist_ok=True)
    generate_inputs("crossrate-orders", 1, "perfbench-input")
    if sha256_file(path) != sha256_file("perfbench-input/orders.csv"):
        sys.exit(f"{path} differs from perfbench's crossrate-orders input at seed 1")


def sha256_file(path: str, skip_first_line: bool = False) -> str:
    with open(path, "rb") as fh:
        if skip_first_line:
            fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(main, argv: list[str], with_stderr: bool = False) -> str:
    """The exit code and stdout of one CLI run, and its stderr if asked, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}" + (f"stderr\n{err.getvalue()}" if with_stderr else "")


def write_damaged(source: str, target: str, edits: dict) -> None:
    """Copy a csv input, replacing the values of the (day, i, j) rows that edits names."""
    with open(source) as fh:
        header, *rows = fh.read().splitlines()
    out = [header]
    for row in rows:
        day, i, j, *values = row.split(",")
        new = edits.get((int(day), int(i), int(j)), values)
        out.append(",".join([day, i, j, *(old if text is None else text for old, text in zip(values, new))]))
    with open(target, "w") as fh:
        fh.write("\n".join(out) + "\n")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    import fxfolio
    from fxfolio.cli import main as cli_main

    print(f"fxfolio from {os.path.dirname(fxfolio.__file__)}", file=sys.stderr)
    os.makedirs(argv[0], exist_ok=True)
    os.chdir(argv[0])
    for sub in ("gen", "bt", "bad", "verify"):
        os.makedirs(sub, exist_ok=True)

    def emit(digest: str, label: str) -> None:
        print(f"{digest}  {label}", flush=True)

    def emit_text(text: str, label: str) -> None:
        emit(hashlib.sha256(text.encode()).hexdigest(), label)

    for out, args in generate_runs():
        emit_text(run_cli(cli_main, args), f"{out} stdout")
        emit(sha256_file(out), out)

    def backtest(stem: str, path: str, kind: str, args: list[str]) -> None:
        ledger, summary = f"{stem}.jsonl", f"{stem}.csv"
        cli_args = ["backtest", "--input", path, "--input-kind", kind, *args, "--ledger", ledger, "--summary", summary]
        emit_text(run_cli(cli_main, cli_args), f"{stem} stdout")
        for written in (ledger, summary):
            emit(sha256_file(written) if os.path.exists(written) else "missing", written)
        emit(sha256_file(ledger, skip_first_line=True) if os.path.exists(ledger) else "missing", f"{ledger} days")

    check_benchmark_orders(ORDERS_BENCH)
    for (input_name, path, kind), (name, args) in itertools.product(BACKTEST_INPUTS, backtest_configs()):
        backtest(f"bt/{input_name}-{name}", path, kind, args)
    for label, source, kind, edits, args in SINGLE_BACKTESTS:
        path = source
        if edits is not None:
            path = f"gen/{label}.csv"
            write_damaged(source, path, edits)
            emit(sha256_file(path), path)
        backtest(f"bt/{label}", path, kind, args)
    for label, path, kind, args in FAILING_BACKTESTS:
        cli_args = ["backtest", "--input", path, "--input-kind", kind, *args]
        emit_text(run_cli(cli_main, cli_args, with_stderr=True), f"bt/{label} backtest exit, stdout, stderr")
    for label, args in verify_runs():
        emit_text(run_cli(cli_main, args), f"{label} stdout")
    for label, source, kind, edits in DAMAGED_INPUTS:
        path = f"bad/{label}.csv"
        write_damaged(source, path, edits)
        args = ["backtest", "--input", path, "--input-kind", kind, "--predictor", "none"]
        emit_text(run_cli(cli_main, args, with_stderr=True), f"{path} backtest exit, stdout, stderr")
    for out, flags in FAILING_GENERATE:
        args = ["generate", "--market", "--m", "3", "--seed", "1", *flags, "--out", out]
        emit_text(run_cli(cli_main, args, with_stderr=True), f"{out} exit, stdout, stderr")
        emit(sha256_file(out) if os.path.exists(out) else "missing", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
