"""Command-line driver: generate | backtest | verify.

Exit codes: 0 success, 1 I/O or unreadable input, 2 bad configuration,
3 a run-time or verification failure.  Every run prints its resolved
configuration on one line before any results, and all randomness flows
from --seed, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import ctypes
import math
import os
import sys

from .backtest import (
    BacktestLedger,
    GammaSchedule,
    LinearPredictor,
    UpdateConfig,
    cumulative_return,
    cumulative_return_net,
    growth_rate,
    growth_rate_net,
    run_backtest,
    segment_success_rates,
)
from .costs import CostParams
from .crossrate import PredictorConfig, SegmentConfig, effectiveness_ratio
from .data_io import (
    SyntheticMarketSpec,
    SyntheticOrderSpec,
    generate_market,
    generate_order_process,
    json_value,
    load_rates,
    read_returns,
    symmetric_masses,
    write_ledger,
    write_rates,
    write_returns,
    write_summary,
)
from .errors import ConfigError, InputError, InvalidParams, InvalidSpec, RunError
from .verify import cost_bounds_suite, profitability_suite, universality_suite

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors end in the CLI's own ``config error:`` line."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InvalidParams(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fxfolio", description="Currency-pair portfolio backtesting toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic rates or returns file")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--market", action="store_true", help="generate a quote history (rates-csv)")
    kind.add_argument("--orders", action="store_true", help="generate an order process (returns-csv)")
    gen.add_argument("--out", required=True, help="output path")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--m", type=int, default=3, help="currency count (market mode)")
    gen.add_argument("--days", type=int, default=250, help="number of days (market mode)")
    gen.add_argument("--epsilon", type=float, default=0.005, help="half spread")
    gen.add_argument("--drift", type=float, default=0.0)
    gen.add_argument("--vol", type=float, default=0.01)
    gen.add_argument("--normalize", action="store_true", help="target best-pair-return 1 per day")
    gen.add_argument("--r-floor", type=float, default=0.5)
    gen.add_argument("--segments", type=int, default=100, help="segment count (orders mode)")
    gen.add_argument("--L", type=int, default=5, help="segment length")
    gen.add_argument("--paa-pbb", type=float, default=0.78, help="same-class transition mass (orders mode)")
    gen.add_argument("--masses", default=None, help="explicit P_AA,P_AB,P_BA,P_BB (overrides --paa-pbb)")
    gen.add_argument("--K", type=int, default=50, help="dependence gap in segments")

    bt = sub.add_parser("backtest", help="run the daily strategy over a rates or returns file")
    bt.add_argument("--input", required=True)
    bt.add_argument("--input-kind", choices=("rates", "returns"), default="rates")
    bt.add_argument("--rule", choices=("iitc", "eiitc"), default="iitc")
    bt.add_argument("--gamma", type=float, default=0.1)
    bt.add_argument("--support-floor", type=float, default=0.0)
    bt.add_argument("--predictor", choices=("crossrate", "linear", "none"), default="crossrate")
    bt.add_argument("--mpcr", type=int, choices=(1, 2), default=1)
    bt.add_argument("--mpo", type=int, choices=(1, 2), default=1)
    bt.add_argument("--adjusted", action="store_true", help="use the decisive-day variants")
    bt.add_argument("--L", type=int, default=5)
    bt.add_argument("--c-a", type=float, default=0.25)
    bt.add_argument("--c-b", type=float, default=0.75)
    bt.add_argument("--lags", default="1", help="comma weights for the linear predictor, newest first")
    bt.add_argument("--schedule", choices=("constant", "block-decaying"), default="constant")
    bt.add_argument("--block-unit", type=int, default=5)
    bt.add_argument("--cost", type=float, default=0.0)
    bt.add_argument("--f0", type=float, default=1.0)
    bt.add_argument("--ledger", default=None, help="write the per-day ledger here (jsonl)")
    bt.add_argument("--summary", default=None, help="write the one-row summary here (csv)")

    ver = sub.add_parser("verify", help="run a randomized verification suite")
    ver.add_argument("--suite", choices=("universality", "profitability", "cost-bounds"), required=True)
    ver.add_argument("--replicates", type=int, default=100)
    ver.add_argument("--seed", type=int, default=1)
    ver.add_argument("--jobs", type=int, default=1, help="parallel replicates")
    ver.add_argument("--days", type=int, default=250)
    ver.add_argument("--r-floor", type=float, default=0.5)
    ver.add_argument("--segments", type=int, default=20_000)
    ver.add_argument("--L", type=int, default=5)
    ver.add_argument("--paa-pbb", type=float, default=0.78)
    ver.add_argument("--pab-pba", type=float, default=0.6)
    ver.add_argument("--max-violations", type=int, default=20, help="violation lines to print")
    return parser


def _parse_masses(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidSpec(f"--masses needs four comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise InvalidSpec(f"--masses: {exc}") from exc


def _parse_lags(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise InvalidParams(f"--lags: {exc}") from exc


def _cmd_generate(ns) -> int:
    if ns.market:
        spec = SyntheticMarketSpec(
            m=ns.m,
            n_days=ns.days,
            seed=ns.seed,
            spread_epsilon=ns.epsilon,
            drift=ns.drift,
            vol=ns.vol,
            normalize=ns.normalize,
            r_floor=ns.r_floor,
        )
        print(f"config {json_value({'command': 'generate', 'mode': 'market', **spec.__dict__, 'out': ns.out})}")
        write_rates(generate_market(spec), ns.out)
    else:
        masses = _parse_masses(ns.masses) if ns.masses else symmetric_masses(ns.paa_pbb)
        spec = SyntheticOrderSpec(
            segment_count=ns.segments,
            segment_length=ns.L,
            masses=masses,
            seed=ns.seed,
            dependence_gap=ns.K,
        )
        print(f"config {json_value({'command': 'generate', 'mode': 'orders', **spec.__dict__, 'out': ns.out})}")
        matrices, _ = generate_order_process(spec)
        write_returns(matrices, ns.out)
    print(f"wrote {ns.out}")
    return EXIT_OK


def _build_predictor(ns):
    if ns.predictor == "none":
        return None
    if ns.predictor == "linear":
        return LinearPredictor(_parse_lags(ns.lags))
    return PredictorConfig(
        mpcr=ns.mpcr,
        mpo=ns.mpo,
        adjusted=ns.adjusted,
        segment=SegmentConfig(L=ns.L, c_a=ns.c_a, c_b=ns.c_b),
    )


def _cmd_backtest(ns) -> int:
    predictor = _build_predictor(ns)
    update = UpdateConfig(rule=ns.rule, gamma=ns.gamma, support_floor=ns.support_floor)
    schedule = GammaSchedule(mode=ns.schedule, block_unit=ns.block_unit)
    costs = CostParams(ns.cost)
    print(f"config {json_value(vars(ns))}")
    market = load_rates(ns.input) if ns.input_kind == "rates" else read_returns(ns.input)
    ledger = run_backtest(market, predictor=predictor, update=update, schedule=schedule, costs=costs, f0=ns.f0)
    metrics = _summary_metrics(ledger)
    if ns.ledger:
        write_ledger(ledger, ns.ledger)
    if ns.summary:
        write_summary(metrics, ns.summary)
    print(
        "summary "
        + " ".join(f"{k}={json_value(float(metrics[k]))}" for k in ("I_N", "LI_N", "F_N", "R_N", "eta"))
    )
    return EXIT_OK


def _summary_metrics(ledger: BacktestLedger) -> dict:
    eta = math.nan
    predictor = ledger.config["predictor"]
    if predictor["kind"] == "crossrate":
        _, flags = segment_success_rates(ledger, predictor["L"])
        if flags:
            eta = effectiveness_ratio(flags)
    return {
        "I_N": cumulative_return(ledger),
        "LI_N": growth_rate(ledger),
        "F_N": cumulative_return_net(ledger),
        "R_N": growth_rate_net(ledger),
        "eta": eta,
    }


def _cmd_verify(ns) -> int:
    if ns.jobs < 1:
        raise InvalidParams(f"--jobs must be >= 1, got {ns.jobs}")
    if ns.max_violations < 0:
        raise InvalidParams(f"--max-violations must be >= 0, got {ns.max_violations}")
    print(f"config {json_value(vars(ns))}")
    if ns.suite == "universality":
        result = universality_suite(replicates=ns.replicates, seed=ns.seed, n_days=ns.days, r_floor=ns.r_floor, jobs=ns.jobs)
    elif ns.suite == "profitability":
        result = profitability_suite(
            segments=ns.segments,
            seg_len=ns.L,
            seed=ns.seed,
            same_class_mass=ns.paa_pbb,
            flip_mass=ns.pab_pba,
        )
    else:
        result = cost_bounds_suite(replicates=ns.replicates, seed=ns.seed)
    for line in result.violations[: ns.max_violations]:
        print(f"violation {line}")
    if len(result.violations) > ns.max_violations:
        print(f"... {len(result.violations) - ns.max_violations} more violations suppressed")
    print(f"stats {json_value(result.stats)}")
    print(f"[{'PASS' if result.passed else 'FAIL'}] {result.suite}: {result.checked} checks, {len(result.violations)} violations")
    if result.passed:
        return EXIT_OK
    print(f"run failed: {result.suite} suite found {len(result.violations)} violations", file=sys.stderr)
    return EXIT_VERIFY


def _fix_mmap_threshold() -> None:
    """Map every block of 4 MiB or more on its own and unmap it when freed (glibc only).

    glibc raises its threshold to the largest mapped block freed so far, putting a run's big
    tables on the heap, where earlier runs' holes moved peak memory by ~10 MB with the seed
    or a path's length.  Smaller blocks reuse the heap and skip a page fault per 4 KiB.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):
        return
    if libc.startswith("glibc"):
        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 4 << 20)  # -3 is glibc's M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _fix_mmap_threshold()
    try:
        ns = build_parser().parse_args(argv)
        if ns.command == "generate":
            return _cmd_generate(ns)
        if ns.command == "backtest":
            return _cmd_backtest(ns)
        return _cmd_verify(ns)
    except SystemExit as exc:  # --help
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InputError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
