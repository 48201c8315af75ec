"""Print a sha256 for every output of a fixed matrix of fxfolio CLI runs.

  PYTHONPATH=src python3 tools/digests.py OUTDIR > digests.txt

The runs go through ``fxfolio.cli.main`` in this process, with OUTDIR as
the working directory and relative paths, so the printed configuration
lines do not depend on where OUTDIR is.  Every output gets one
``sha256  label`` line on stdout: each generated file, and for each
backtest and verify run its stdout (prefixed with the exit code), ledger
and summary.  Each ledger gets a second line, ``sha256  LEDGER days``,
over its day lines alone, so a deliberate change to the meta line (the
config echo) shows apart from any change to a day record.  The fxfolio
package used is the first one on the import path, and its location is
printed to stderr.

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


def generate_runs() -> list[tuple[str, list[str]]]:
    runs = []
    for seed in SEEDS:
        for m in (2, 3, 4):
            runs.append((f"gen/market-m{m}-s{seed}.csv", ["--market", "--m", str(m), "--days", "250"]))
            runs.append((f"gen/normalized-m{m}-s{seed}.csv", ["--market", "--normalize", "--m", str(m), "--days", "250"]))
        runs.append((f"gen/orders-s{seed}.csv", ["--orders", "--segments", "100"]))
        runs[-7:] = [(out, ["generate", *args, "--seed", str(seed), "--out", out]) for out, args in runs[-7:]]
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
        ("verify/cost-bounds", ["--suite", "cost-bounds", "--replicates", "500"]),
    ]
    return [(label, ["verify", *args, "--jobs", "1"]) for label, args in runs]


def sha256_file(path: str, skip_first_line: bool = False) -> str:
    with open(path, "rb") as fh:
        if skip_first_line:
            fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def run_cli(main, argv: list[str]) -> str:
    """The exit code and stdout of one CLI run, as one text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return f"exit {code}\n{out.getvalue()}"


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
    for sub in ("gen", "bt", "verify"):
        os.makedirs(sub, exist_ok=True)

    def emit(digest: str, label: str) -> None:
        print(f"{digest}  {label}", flush=True)

    def emit_text(text: str, label: str) -> None:
        emit(hashlib.sha256(text.encode()).hexdigest(), label)

    for out, args in generate_runs():
        emit_text(run_cli(cli_main, args), f"{out} stdout")
        emit(sha256_file(out), out)
    for (input_name, path, kind), (name, args) in itertools.product(BACKTEST_INPUTS, backtest_configs()):
        stem = f"bt/{input_name}-{name}"
        ledger, summary = f"{stem}.jsonl", f"{stem}.csv"
        cli_args = ["backtest", "--input", path, "--input-kind", kind, *args, "--ledger", ledger, "--summary", summary]
        emit_text(run_cli(cli_main, cli_args), f"{stem} stdout")
        for written in (ledger, summary):
            emit(sha256_file(written) if os.path.exists(written) else "missing", written)
        emit(sha256_file(ledger, skip_first_line=True) if os.path.exists(ledger) else "missing", f"{ledger} days")
    for label, args in verify_runs():
        emit_text(run_cli(cli_main, args), f"{label} stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
