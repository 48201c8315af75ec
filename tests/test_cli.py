"""Command-line driver: flags, exit codes, printed output, file side effects."""

import argparse
import ctypes
import gc
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fxfolio
from fxfolio import cli, errors, verify
from fxfolio.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VERIFY, main
from fxfolio.data_io import load_rates, read_ledger, read_returns, read_summary


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


def parse_summary_line(lines):
    [line] = [l for l in lines if l.startswith("summary ")]
    out = {}
    for token in line[len("summary "):].split():
        key, value = token.split("=")
        out[key] = float(value)
    return out


class TestGenerate:
    def test_market_happy_path(self, capsys, tmp_path):
        out = tmp_path / "rates.csv"
        code, lines, _ = run_cli(capsys, "generate", "--market", "--m", "3", "--days", "40", "--seed", "7", "--out", str(out))
        assert code == EXIT_OK
        assert lines[0].startswith("config ")
        assert json.loads(lines[0][len("config "):])["command"] == "generate"
        assert f"wrote {out}" in lines
        assert len(load_rates(out)) == 40

    def test_single_currency_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate", "--market", "--m", "1", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_CONFIG
        assert "m must be > 1" in err

    def test_same_seed_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(capsys, "generate", "--market", "--days", "30", "--seed", "3", "--out", str(path))
            assert code == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_orders_mode(self, capsys, tmp_path):
        out = tmp_path / "orders.csv"
        code, _, _ = run_cli(capsys, "generate", "--orders", "--segments", "30", "--L", "5", "--seed", "2", "--out", str(out))
        assert code == EXIT_OK
        assert len(read_returns(out)) == 150

    def test_explicit_masses_validated(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "generate", "--orders", "--masses", "0.5,0.2,0.2,0.2", "--out", str(tmp_path / "x.csv")
        )
        assert code == EXIT_CONFIG
        assert "sum" in err

    def test_asymmetric_masses_rejected_before_the_config_line(self, capsys, tmp_path):
        out = tmp_path / "x.csv"
        code, lines, err = run_cli(capsys, "generate", "--orders", "--masses", "0.2,0.3,0.1,0.4", "--out", str(out))
        assert (code, lines) == (EXIT_CONFIG, [])
        assert err.startswith("config error: stationary consecutive-pair masses need P_AB = P_BA")
        assert not out.exists()


@pytest.fixture()
def rates_file(capsys, tmp_path):
    out = tmp_path / "rates.csv"
    assert main(["generate", "--market", "--m", "3", "--days", "60", "--seed", "11", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    return out


class TestBacktest:
    def test_zero_gamma_zero_cost_summary(self, capsys, rates_file, tmp_path):
        code, lines, _ = run_cli(
            capsys, "backtest", "--input", str(rates_file), "--gamma", "0", "--cost", "0",
            "--summary", str(tmp_path / "s.csv"),
        )
        assert code == EXIT_OK
        metrics = parse_summary_line(lines)
        assert metrics["R_N"] == metrics["LI_N"]
        assert metrics["F_N"] == metrics["I_N"]
        on_disk = read_summary(tmp_path / "s.csv")
        assert on_disk["R_N"] == metrics["R_N"]

    def test_full_flag_smoke(self, capsys, rates_file, tmp_path):
        ledger_path = tmp_path / "run.jsonl"
        code, lines, _ = run_cli(
            capsys, "backtest", "--input", str(rates_file),
            "--rule", "eiitc", "--gamma", "0.1", "--mpcr", "2", "--mpo", "1", "--L", "5", "--cost", "0.005",
            "--ledger", str(ledger_path),
        )
        assert code == EXIT_OK
        metrics = parse_summary_line(lines)
        assert math.isfinite(metrics["F_N"])
        ledger = read_ledger(ledger_path)
        assert ledger.n_days == 60
        assert ledger.config["update"]["rule"] == "eiitc"
        # Costs start the morning after the first rebalance, never day 1.
        assert ledger.ratio[0] == 0.0
        assert np.any(ledger.cost > 0.0)

    def test_linear_predictor_lags(self, capsys, rates_file):
        code, lines, _ = run_cli(
            capsys, "backtest", "--input", str(rates_file), "--predictor", "linear", "--lags", "0.7,0.3"
        )
        assert code == EXIT_OK
        assert math.isnan(parse_summary_line(lines)["eta"])

    @pytest.mark.filterwarnings("error")
    def test_zero_first_lag_waits_for_history(self, capsys, rates_file, tmp_path):
        ledger_path = tmp_path / "lagged.jsonl"
        code, _, err = run_cli(
            capsys, "backtest", "--input", str(rates_file), "--predictor", "linear", "--lags", "0,1",
            "--ledger", str(ledger_path),
        )
        assert (code, err) == (EXIT_OK, "")
        ledger = read_ledger(ledger_path)
        assert ledger.order_pred[:2].tolist() == [-1, -1] and ledger.order_pred[2] >= 0
        assert ledger.predicted[1] is None
        np.testing.assert_array_equal(ledger.portfolios[1], ledger.realized[0])

    def test_returns_input_kind(self, capsys, tmp_path):
        orders = tmp_path / "orders.csv"
        assert main(["generate", "--orders", "--segments", "20", "--seed", "5", "--out", str(orders)]) == EXIT_OK
        capsys.readouterr()
        code, lines, _ = run_cli(capsys, "backtest", "--input", str(orders), "--input-kind", "returns")
        assert code == EXIT_OK
        assert 0.0 <= parse_summary_line(lines)["eta"] <= 1.0

    def test_missing_input(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "backtest", "--input", str(tmp_path / "absent.csv"))
        assert code == EXIT_IO
        assert "io error" in err

    def test_overflowing_gamma_is_a_config_error(self, capsys, tmp_path):
        market = tmp_path / "n.csv"
        assert main(["generate", "--market", "--m", "3", "--days", "30", "--seed", "1", "--normalize",
                     "--out", str(market)]) == EXIT_OK
        capsys.readouterr()
        code, _, err = run_cli(
            capsys, "backtest", "--input", str(market), "--predictor", "linear", "--rule", "iitc",
            "--gamma", "1e308", "--cost", "0.005",
        )
        assert code == EXIT_CONFIG
        assert "gamma 1e+308 overflows" in err

    def test_segment_longer_than_an_array_can_hold(self, capsys, rates_file):
        # Any L past the 60 days completes no segment, so 2**70 runs as 1000 does.
        code, lines, err = run_cli(capsys, "backtest", "--input", str(rates_file), "--L", str(2**70))
        assert (code, err) == (EXIT_OK, "")
        _, past_history, _ = run_cli(capsys, "backtest", "--input", str(rates_file), "--L", "1000")
        assert lines[-1] == past_history[-1]

    def test_bad_rule_flag(self, capsys, rates_file):
        code, _, _ = run_cli(capsys, "backtest", "--input", str(rates_file), "--rule", "bogus")
        assert code == EXIT_CONFIG

    def test_byte_identical_rerun(self, capsys, rates_file, tmp_path):
        files = []
        for tag in ("one", "two"):
            led, summ = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.csv"
            code, _, _ = run_cli(
                capsys, "backtest", "--input", str(rates_file), "--gamma", "0.2", "--cost", "0.003",
                "--ledger", str(led), "--summary", str(summ),
            )
            assert code == EXIT_OK
            files.append((led.read_bytes(), summ.read_bytes()))
        assert files[0] == files[1]


class TestVerify:
    def test_cost_bounds_suite_passes(self, capsys):
        code, lines, _ = run_cli(capsys, "verify", "--suite", "cost-bounds", "--replicates", "300", "--seed", "1")
        assert code == EXIT_OK
        assert any(l.startswith("[PASS] cost-bounds") for l in lines)
        assert any(l.startswith("stats ") for l in lines)

    def test_profitability_suite_passes(self, capsys):
        code, lines, _ = run_cli(capsys, "verify", "--suite", "profitability", "--segments", "4000", "--seed", "1")
        assert code == EXIT_OK
        assert any(l.startswith("[PASS] profitability") for l in lines)

    def test_universality_suite_passes(self, capsys):
        code, lines, _ = run_cli(
            capsys, "verify", "--suite", "universality", "--replicates", "2", "--days", "60", "--seed", "1"
        )
        assert code == EXIT_OK
        assert any(l.startswith("[PASS] universality") for l in lines)

    def test_unknown_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "everything")
        assert code == EXIT_CONFIG

    def test_config_precedes_results(self, capsys):
        _, lines, _ = run_cli(capsys, "verify", "--suite", "cost-bounds", "--replicates", "20")
        assert lines[0].startswith("config ")

    @pytest.mark.parametrize("replicates, pool_sizes", [("1", []), ("2", [2])])
    def test_jobs_above_replicates_start_one_worker_each(self, capsys, monkeypatch, replicates, pool_sizes):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
        argv = ["verify", "--suite", "universality", "--replicates", replicates, "--days", "30"]
        code, lines, _ = run_cli(capsys, *argv, "--jobs", "3")
        assert code == EXIT_OK
        assert started == pool_sizes
        assert run_cli(capsys, *argv, "--jobs", "1")[1][1:] == lines[1:]
        assert started == pool_sizes


# The config line's keys: the subcommand, then every flag it parsed, in parser order.
CONFIG_KEYS = {
    "backtest": [
        "command", "input", "input_kind", "rule", "gamma", "support_floor", "predictor", "mpcr", "mpo", "adjusted",
        "L", "c_a", "c_b", "lags", "schedule", "block_unit", "cost", "f0", "ledger", "summary",
    ],
    "verify": [
        "command", "suite", "replicates", "seed", "jobs", "days", "r_floor", "segments", "L", "paa_pbb", "pab_pba",
        "max_violations",
    ],
}


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (["backtest", "--cost", "0.005", "--lags", "0.6,0.4"], {"cost": 0.005, "lags": "0.6,0.4"}),
        (["verify", "--suite", "cost-bounds", "--replicates", "20", "--max-violations", "3"], {"max_violations": 3}),
    ],
    ids=["backtest", "verify"],
)
def test_config_line_echoes_every_parsed_flag(capsys, rates_file, argv, echoed):
    command = argv[0]
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert CONFIG_KEYS[command] == ["command"] + [a.dest for a in subparsers.choices[command]._actions if a.dest != "help"]
    if command == "backtest":
        argv = argv + ["--input", str(rates_file)]
    _, lines, _ = run_cli(capsys, *argv)
    config = json.loads(lines[0][len("config "):])
    assert list(config) == CONFIG_KEYS[command]
    assert config["command"] == command
    assert {key: config[key] for key in echoed} == echoed


# Every float-valued flag, whose value a config line echoes.
FLOAT_FLAGS = {
    "generate": ["--epsilon", "--drift", "--vol", "--r-floor", "--paa-pbb"],
    "backtest": ["--gamma", "--support-floor", "--c-a", "--c-b", "--cost", "--f0"],
    "verify": ["--r-floor", "--paa-pbb", "--pab-pba"],
}


class TestRejectedArguments:
    """Values that used to slip past validation, or ran checks on nothing, exit 2 with a typed message."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["generate", "--market", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["generate", "--orders", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["generate", "--orders", "--masses", "nan,nan,nan,nan"], "masses must be four nonnegative numbers"),
            (["verify", "--suite", "cost-bounds", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["verify", "--suite", "universality", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["verify", "--suite", "profitability", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["verify", "--suite", "cost-bounds", "--replicates", "0"], "replicates must be >= 1, got 0"),
            (["verify", "--suite", "cost-bounds", "--replicates", "-5"], "replicates must be >= 1, got -5"),
            (["verify", "--suite", "profitability", "--segments", "1"], "segments must be >= 2, got 1"),
            (["verify", "--suite", "cost-bounds", "--max-violations", "-1"], "--max-violations must be >= 0, got -1"),
            (["verify", "--suite", "cost-bounds", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["generate", "--market", "--days", "x"], "argument --days: invalid int value: 'x'"),
            (["generate", "--market", "--normalize", "--r-floor", "0.9995"],
             "r_floor + 1e-06 must not exceed 0.999 in normalize mode, got 0.9995"),
            (["verify", "--suite", "universality", "--r-floor", "0.999"],
             "r_floor + 1e-06 must not exceed 0.999 in normalize mode, got 0.999"),
        ],
    )
    def test_exits_2(self, capsys, tmp_path, argv, message):
        if argv[0] == "generate":
            argv = argv + ["--out", str(tmp_path / "x.csv")]
        code, lines, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert err.splitlines()[-1].startswith("config error: ")
        assert message in err
        assert not (tmp_path / "x.csv").exists()
        assert not any(line.startswith("[") for line in lines)

    @pytest.mark.parametrize("schedule", ["constant", "block-decaying"])
    def test_block_unit_below_two(self, capsys, rates_file, schedule):
        code, lines, err = run_cli(
            capsys, "backtest", "--input", str(rates_file), "--schedule", schedule, "--block-unit", "-3"
        )
        assert code == EXIT_CONFIG
        assert err.splitlines()[-1] == "config error: block unit must be >= 2, got -3"
        assert lines == []

    @pytest.mark.parametrize(
        "f0, message",
        [
            pytest.param("0", "starting capital must be finite and > 0, got 0.0", id="0"),
            pytest.param("-1", "starting capital must be finite and > 0, got -1.0", id="-1"),
            pytest.param("nan", "fxfolio backtest: argument --f0: must be a finite number, got 'nan'", id="nan"),
            pytest.param("inf", "fxfolio backtest: argument --f0: must be a finite number, got 'inf'", id="inf"),
        ],
    )
    def test_bad_starting_capital(self, capsys, rates_file, f0, message):
        code, _, err = run_cli(capsys, "backtest", "--input", str(rates_file), "--f0", f0)
        assert code == EXIT_CONFIG
        assert err.splitlines()[-1] == f"config error: {message}"

    @pytest.mark.parametrize("command, flag", [(command, flag) for command, flags in FLOAT_FLAGS.items() for flag in flags])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "-Infinity"])
    def test_non_finite_float_flags(self, capsys, rates_file, command, flag, value):
        # Rejected while parsing: the config line, which would echo a bare nan or inf, is never printed.
        argv = {
            "generate": ["generate", "--market", "--out", str(rates_file.parent / "x.csv")],
            "backtest": ["backtest", "--input", str(rates_file)],
            "verify": ["verify", "--suite", "cost-bounds"],
        }[command]
        code, lines, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == EXIT_CONFIG
        assert err.splitlines()[-1] == f"config error: fxfolio {command}: argument {flag}: must be a finite number, got {value!r}"
        assert lines == []

    def test_every_float_flag_is_checked_for_finiteness(self):
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command, flags in FLOAT_FLAGS.items():
            actions = subparsers.choices[command]._actions
            assert [a.option_strings[0] for a in actions if a.type is cli._finite_float] == flags
            assert not [a.dest for a in actions if a.type is float]

    def test_nan_lags(self, capsys, rates_file):
        code, _, err = run_cli(capsys, "backtest", "--input", str(rates_file), "--predictor", "linear", "--lags", "nan")
        assert code == EXIT_CONFIG
        assert "config error: lag weights must be nonnegative and sum to 1, got (nan,)" in err


# Values drawn for every flag, beside a few valid ones; sizes stay small.
ODD = ["nan", "inf", "-inf", "-1", "0", "1e308", "", "x", str(2**70)]
SMALL = ["nan", "inf", "-1", "0", "1e308", "", "x", "1", "2", "3"]
FLAGS = {
    "generate": {
        "--seed": ODD + ["1"], "--m": SMALL + ["4"], "--days": SMALL + ["60"], "--epsilon": ODD + ["0.005"],
        "--drift": ODD, "--vol": ODD + ["0.01"], "--r-floor": ODD + ["0.5"], "--segments": SMALL + ["12"],
        "--L": SMALL + ["5"], "--paa-pbb": ODD + ["0.78"], "--masses": ODD + ["0.4,0.1,0.1,0.4", "nan,0,0,1"],
        "--K": ODD + ["50"],
    },
    "backtest": {
        "--rule": ODD + ["iitc", "eiitc"], "--gamma": ODD + ["0.1"], "--support-floor": ODD + ["0.1"],
        "--predictor": ODD + ["crossrate", "linear", "none"], "--mpcr": ODD + ["2"], "--mpo": ODD + ["2"],
        "--L": ODD + ["2", "5"], "--c-a": ODD + ["0.25"], "--c-b": ODD + ["0.75"],
        "--lags": ODD + ["0.6,0.4", "nan,1", "1,"], "--schedule": ODD + ["block-decaying"],
        "--block-unit": ODD + ["5"], "--cost": ODD + ["0.005"], "--f0": ODD + ["2"],
    },
    "verify": {
        "--suite": ODD + ["universality", "profitability", "cost-bounds"], "--replicates": SMALL, "--seed": ODD + ["1"],
        "--days": SMALL + ["60"], "--r-floor": ODD + ["0.5"], "--segments": SMALL + ["50"], "--L": SMALL + ["5"],
        "--paa-pbb": ODD + ["0.78"], "--pab-pba": ODD + ["0.6"], "--max-violations": ODD + ["2"],
    },
}


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@st.composite
def argvs(draw, workdir):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command == "generate":
        argv += [draw(st.sampled_from(["--market", "--orders"])), "--out", os.path.join(workdir, "out.csv")]
        if draw(st.booleans()):
            argv.append("--normalize")
    elif command == "backtest":
        kind = draw(st.sampled_from(["rates", "returns"]))
        argv += ["--input", os.path.join(workdir, f"{kind}.csv"), "--input-kind", kind,
                 "--ledger", os.path.join(workdir, "ledger.jsonl"), "--summary", os.path.join(workdir, "summary.csv")]
        if draw(st.booleans()):
            argv.append("--adjusted")
    else:
        argv += ["--jobs", "1", "--suite", draw(st.sampled_from(["universality", "profitability", "cost-bounds"])),
                 "--replicates", "1", "--days", "30", "--segments", "20"]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), max_size=4, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAGS[command][flag]))]
    return argv


class TestArgumentFuzz:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        assert main(["generate", "--market", "--m", "3", "--days", "40", "--seed", "3", "--out", str(d / "rates.csv")]) == 0
        assert main(["generate", "--orders", "--segments", "8", "--seed", "3", "--out", str(d / "returns.csv")]) == 0
        return str(d)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_exit_is_typed(self, capsys, workdir, data):
        argv = data.draw(argvs(workdir))
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_IO, EXIT_CONFIG, EXIT_VERIFY), argv
        for line in out.splitlines():
            if line.startswith("config "):
                json.loads(line[len("config "):], parse_constant=reject_constant)
        if code != EXIT_OK:
            assert err.splitlines()[-1].startswith(("config error: ", "io error: ", "run failed: ")), (argv, err)

    def test_failed_suite_ends_in_run_failed(self, capsys):
        # A verification that finds violations is a run failure like any other.
        code, lines, err = run_cli(capsys, "verify", "--suite", "profitability", "--segments", "20", "--pab-pba", "0")
        assert code == EXIT_VERIFY
        assert lines[-1] == "[FAIL] profitability: 38 checks, 1 violations"
        assert err.splitlines()[-1] == "run failed: profitability suite found 1 violations"


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What an installer writes as the console-script wrapper for "module:func".
WRAPPER = """\
import sys
from {module} import {func}
sys.argv[0] = "fxfolio"
sys.exit({func}())
"""


def declared_script(name):
    """The "module:func" target that [project.scripts] declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


class TestEntrypoint:
    def test_console_script(self, tmp_path):
        # Run the declared target the way an installed wrapper does, against
        # the imported package rather than whatever may be installed.
        module, func = declared_script("fxfolio").split(":")
        env = dict(os.environ)
        package_root = str(Path(fxfolio.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        commands = [[sys.executable, "-c", WRAPPER.format(module=module, func=func)]]
        installed = shutil.which("fxfolio")
        if installed:
            commands.append([installed])
        for i, command in enumerate(commands):
            out = tmp_path / f"rates{i}.csv"
            proc = subprocess.run(
                [*command, "generate", "--market", "--days", "10", "--seed", "1", "--out", str(out)],
                capture_output=True, text=True, env=env, cwd=tmp_path,
            )
            assert proc.returncode == EXIT_OK, (command, proc.stderr)
            assert len(load_rates(out)) == 10
            # A usage error must reach the process exit status, which only
            # sys.exit(main()) does; a bare main() would exit 0 here.
            bad = tmp_path / f"bad{i}.csv"
            proc = subprocess.run(
                [*command, "generate", "--market", "--m", "1", "--out", str(bad)],
                capture_output=True, text=True, env=env, cwd=tmp_path,
            )
            assert proc.returncode == EXIT_CONFIG, (command, proc.stderr)
            assert "m must be > 1" in proc.stderr
            assert not bad.exists()

    def test_exit_codes_are_stable(self):
        assert (EXIT_OK, EXIT_IO, EXIT_CONFIG, EXIT_VERIFY) == (0, 1, 2, 3)


def run_warnings_as_errors(workdir, *args):
    """Exit code, stdout and stderr of the CLI in a child Python that turns every warning into an error."""
    env = dict(os.environ)
    package_root = str(Path(fxfolio.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "fxfolio.cli", *args], capture_output=True, text=True, env=env, cwd=workdir
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestMarketsBreakingARule:
    def test_overflowing_rates_file_exits_1_naming_the_file(self, tmp_path):
        # Valid quotes whose day-1 ratio 1e300 / 1e-11 overflows to an inf return.
        path = tmp_path / "rates.csv"
        path.write_text("day,i,j,open_rate,close_rate\n1,1,2,1e300,1e-10\n1,2,1,1e-12,1e-11\n2,1,2,1.2,1.3\n2,2,1,0.8,0.9\n")
        code, _, err = run_warnings_as_errors(tmp_path, "backtest", "--input", str(path), "--predictor", "none")
        assert (code, err) == (EXIT_IO, f"io error: {path}: day 1: return at (0, 1) is inf, must be finite and >= 0\n")

    @pytest.mark.parametrize(
        "flags, found",
        [
            (["--vol", "0.1", "--days", "2000"], "vol=0.1 and spread_epsilon=0.005 give no valid market: day 757: sell quote at (0, 1)"),
            (["--vol", "0.5", "--days", "250"], "vol=0.5 and spread_epsilon=0.005 give no valid market: day 166: sell quote at (0, 1)"),
            (["--vol", "50", "--days", "5"], "vol=50.0 and spread_epsilon=0.005 give no valid market: day 1: sell quote at (0, 2)"),
        ],
        ids=["long walk", "wide walk", "overflowing walk"],
    )
    def test_generated_market_breaking_a_rate_rule_is_a_config_error(self, tmp_path, flags, found):
        # The walk's close clip ratchets mids up until mid +- epsilon rounds to one value, or overflows.
        out = tmp_path / "rates.csv"
        code, _, err = run_warnings_as_errors(tmp_path, "generate", "--market", "--m", "3", "--seed", "1", *flags, "--out", str(out))
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {found}") and err.count("\n") == 1, err
        assert not out.exists()


EXIT_CODE_OF = {
    **dict.fromkeys(("IoError", "ParseError", "InvariantError", "NonMonotoneDays"), EXIT_IO),
    **dict.fromkeys(
        ("InvalidSpec", "InvalidParams", "InvalidC", "InvalidM", "InvalidBlockUnit", "InfeasibleTargets"), EXIT_CONFIG
    ),
    **dict.fromkeys(
        (
            "NonUnitDiagonal", "NonPositiveEntry", "SpreadViolation", "DayMismatch",
            "ComplementarityViolation", "DimensionMismatch", "ZeroReturn", "SupportViolation", "NonPositiveCapital",
            "NoConvergence", "ZeroDiamond", "EmptyRange", "NoPredecessor", "EmptyHistory",
            "InsufficientHistory", "EmptySequence", "TooFewDays", "EmptyLedger",
            "NonPositiveDiamond", "CostRatioAtLeastOne", "NonPositivePairReturn", "NormalizationViolated",
        ),
        EXIT_VERIFY,
    ),
}


class TestErrorExitCodes:
    def test_every_error_class_is_pinned(self):
        bases = (errors.FxfolioError, errors.InputError, errors.ConfigError, errors.RunError)
        defined = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.FxfolioError) and obj not in bases
        }
        assert defined == set(EXIT_CODE_OF)

    @pytest.mark.parametrize("name", sorted(EXIT_CODE_OF))
    def test_exit_code(self, capsys, monkeypatch, tmp_path, name):
        def fail(ns):
            raise getattr(errors, name)("planted")

        monkeypatch.setattr(cli, "_cmd_generate", fail)
        code, _, err = run_cli(capsys, "generate", "--market", "--out", str(tmp_path / "x.csv"))
        assert code == EXIT_CODE_OF[name]
        assert "planted" in err


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost",
    )]


def _mallinfo2():
    """glibc's mallinfo2, or None where the C library has none (not glibc, or glibc < 2.33)."""
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (AttributeError, OSError, TypeError):
        return None
    fn.argtypes, fn.restype = (), _Mallinfo2
    return fn


class TestMmapThreshold:
    def test_freed_large_block_leaves_later_ones_mapped(self, capsys):
        """Freeing a 16 MiB block would raise glibc's threshold and put the next 6 MiB block on the heap."""
        mallinfo2 = _mallinfo2()
        if mallinfo2 is None:
            pytest.skip("needs glibc >= 2.33")
        assert run_cli(capsys, "--help")[0] == EXIT_OK
        # A cyclic collection between the reads could free some other mapped block.
        gc.collect()
        gc.disable()
        try:
            big = bytearray(16 << 20)
            del big
            before = mallinfo2().hblks
            block = bytearray(6 << 20)
            assert mallinfo2().hblks == before + 1
            del block
            assert mallinfo2().hblks == before
        finally:
            gc.enable()
