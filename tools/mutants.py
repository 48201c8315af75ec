"""Check that the tests catch a fixed list of single-edit mutants of the package.

  python3 tools/mutants.py            # every mutant
  python3 tools/mutants.py 3 5        # mutants 3 and 5 only

Each mutant names a file, an exact old text that must occur in it once, a
new text, and the pytest node ids that must catch it.  The tool copies the
tree (``src``, ``tests``, ``perfbench`` and ``pyproject.toml``) to a
temporary directory, then for each mutant writes the edited file, runs
``pytest -x -q`` on its node ids against the copy's ``src``, one process at
a time, and puts the file back.  It prints ``killed`` or ``survived`` per
mutant, and ``stale`` when the old text does not occur exactly once, so
the list has to keep up with the code.  It exits 1 if any mutant survived
or is stale.

A change to a guarded function adds its mutants here and states the run.
Each mutant costs a pytest start-up, so the run is kept out of the tier-1 suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


TABLE = "tests/test_market.py::test_each_rule_raises_its_class_and_message"
ORDERS = "tests/test_data_io.py::TestOrderProcess"
LEDGER = "tests/test_data_io.py::TestLedgerBytes"
FIXED_POINT = "tests/test_costs.py::TestFixedPointOracle"
BLOCKS = "tests/test_data_io.py::TestRowBlocks"
WEIGHTS = "tests/test_portfolio.py::TestWeightRules"
DAMAGED = "tests/test_data_io.py::TestDamagedLedgerAndSummaryFiles::test_ledger_errors_are_typed"
SWEEP = "tests/test_backtest.py::TestSweep"
COST_LAW = "tests/test_verify.py::TestCostBoundsLaw"
REJECTED = "tests/test_cli.py::TestRejectedArguments::test_exits_2"
LAW = "tests/test_verify.py::TestLawOrderLabels"
ETA = "tests/test_verify.py::TestEtaLaw"
MUTANTS = (
    Mutant(
        "rate entry mask admits 0",
        "src/fxfolio/market.py",
        "(np.isfinite(grids) & (grids > 0.0), lambda day, k, i, j: NonPositiveEntry(",
        "(np.isfinite(grids) & (grids >= 0.0), lambda day, k, i, j: NonPositiveEntry(",
        (f"{TABLE}[rate-entry-close-stack]", f"{TABLE}[rate-entry-close-day]"),
    ),
    Mutant(
        "a float day of exactly 2**63 is cast, not refused",
        "src/fxfolio/market.py",
        "past = (given < -(2.0**63)) | (given >= 2.0**63)",
        "past = (given < -(2.0**63)) | (given > 2.0**63)",
        (f"{TABLE}[day-at-2**63-stack]",),
    ),
    Mutant(
        "rate diagonal mask dropped",
        "src/fxfolio/market.py",
        "(np.diagonal(grids, axis1=1, axis2=2) == 1.0, lambda",
        "(np.ones(grids.shape[:2], dtype=bool), lambda",
        (f"{TABLE}[rate-diagonal-stack]", f"{TABLE}[rate-diagonal-day]"),
    ),
    Mutant(
        "spread mask admits a zero spread",
        "src/fxfolio/market.py",
        "(grids[:, iu, ju] > grids[:, ju, iu], lambda",
        "(grids[:, iu, ju] >= grids[:, ju, iu], lambda",
        (f"{TABLE}[spread-stack]", f"{TABLE}[spread-day]"),
    ),
    Mutant(
        "close checked before open",
        "src/fxfolio/market.py",
        "for grids in stacks for rule in _rate_rules(grids)",
        "for grids in stacks[::-1] for rule in _rate_rules(grids)",
        (f"{TABLE}[open-before-close-stack]", f"{TABLE}[open-before-close-day]"),
    ),
    Mutant(
        "open and close grids of different sizes let through",
        "src/fxfolio/market.py",
        "if opens.shape != closes.shape:",
        "if False:",
        (f"{TABLE}[open-3-close-4-stack]", f"{TABLE}[open-4-close-3-day]"),
    ),
    Mutant(
        "a later pair firing both ways reported before an earlier overflow",
        "src/fxfolio/market.py",
        "_raise_first(quotes.days[:n], [fires_both, *_return_rules(grids[:n])])",
        "_raise_first(quotes.days[:n], [fires_both])",
        ("tests/test_market.py::test_first_day_then_first_rule",),
    ),
    Mutant(
        "a tied maximum labels the day",
        "src/fxfolio/crossrate.py",
        "orders[(top == 0.0) | (hits.sum(axis=1) != 1)] = FLAT",
        "orders[(top == 0.0) | (hits.sum(axis=1) > 2)] = FLAT",
        ("tests/test_crossrate.py::TestGridOrders", "tests/test_crossrate.py::TestOrderOf::test_tie_is_flat"),
    ),
    Mutant(
        "load_rates lets an overflowing ratio through as a run failure",
        "src/fxfolio/data_io.py",
        "        quotes.returns\n    except FxfolioError as exc:",
        "        quotes.returns\n    except InputError as exc:",
        ("tests/test_cli.py::TestMarketsBreakingARule::test_overflowing_rates_file_exits_1_naming_the_file",),
    ),
    Mutant(
        "a generated market breaking a rate rule is a run failure",
        "src/fxfolio/data_io.py",
        "    except RunError as exc:\n        raise InvalidSpec(",
        "    except InputError as exc:\n        raise InvalidSpec(",
        ("tests/test_cli.py::TestMarketsBreakingARule",),
    ),
    Mutant(
        "a market whose grids are too big for an array shape is a traceback",
        "src/fxfolio/data_io.py",
        "    except (MemoryError, ValueError):\n        raise InvalidSpec(f\"{2 * spec.n_days",
        "    except MemoryError:\n        raise InvalidSpec(f\"{2 * spec.n_days",
        (REJECTED,),
    ),
    Mutant(
        "cost-bounds replicates that cannot be allocated are a traceback",
        "src/fxfolio/verify.py",
        "    except (MemoryError, ValueError):\n        raise InvalidParams(f\"{replicates}",
        "    except ValueError:\n        raise InvalidParams(f\"{replicates}",
        (REJECTED,),
    ),
    Mutant(
        "weights summing to 1 plus exactly the tolerance are refused",
        "src/fxfolio/portfolio.py",
        "(np.abs(grids.sum(axis=(1, 2)) - 1.0) <= WEIGHT_SUM_TOL, lambda",
        "(np.abs(grids.sum(axis=(1, 2)) - 1.0) < WEIGHT_SUM_TOL, lambda",
        (f"{WEIGHTS}::test_a_sum_exactly_at_the_tolerance_is_inside",),
    ),
    Mutant(
        "weight diagonal rule dropped",
        "src/fxfolio/portfolio.py",
        "(np.diagonal(grids, axis1=1, axis2=2) == 0.0, lambda day, k, i: DimensionMismatch(",
        "(np.ones(grids.shape[:2], dtype=bool), lambda day, k, i: DimensionMismatch(",
        (f"{WEIGHTS}::test_each_rule_on_the_second_of_three_days[diagonal]",),
    ),
    Mutant(
        "a ledger grid fault is named by the line before its row's",
        "src/fxfolio/data_io.py",
        'where = f"line {days[exc.row][0]}: key {key!r}"',
        'where = f"line {days[exc.row - 1][0]}: key {key!r}"',
        ("tests/test_data_io.py::TestLedgerFiles::test_faults_on_two_lines_name_the_first_checked",),
    ),
    Mutant(
        "compute_returns warns on an overflow",
        "src/fxfolio/market.py",
        'with np.errstate(over="ignore"):',
        'with np.errstate(over="warn"):',
        ("tests/test_cli.py::TestMarketsBreakingARule::test_overflowing_rates_file_exits_1_naming_the_file",),
    ),
    Mutant(
        "compute_returns keeps the ratio of a direction that does not fire",
        "src/fxfolio/market.py",
        "ratio *= fires[-1]  #",
        "pass  #",
        ("tests/test_market.py::TestComputeReturnMatrix::test_unprofitable_pair_is_zero",),
    ),
    Mutant(
        "csv loader names a bad pair by its row in the block",
        "src/fxfolio/data_io.py",
        "data row {rows + k + 1}: bad pair",
        "data row {k + 1}: bad pair",
        (f"{BLOCKS}::test_the_fallback_counts_data_rows_over_the_file",),
    ),
    Mutant(
        "csv loader takes a new day below the last known day",
        "src/fxfolio/data_io.py",
        "if np.any(days[np.searchsorted(days[:n], old)] != old) or np.any(",
        "if np.any(",
        (f"{BLOCKS}::test_faults_in_the_second_block[new-day-below-block-1]",),
    ),
    Mutant(
        "csv loader counts each day's rows in the last block only",
        "src/fxfolio/data_io.py",
        "counts[at] += np.bincount(local)",
        "counts[at] = np.bincount(local)",
        (f"{BLOCKS}::test_days_across_block_edges_read_the_same",),
    ),
    Mutant(
        "csv loader sizes grids from any index",
        "src/fxfolio/data_io.py",
        "if max(n - 1, 1) * m * (m - 1) > rows:",
        "if False:",
        (f"{BLOCKS}::test_an_index_the_rows_could_not_hold_sizes_no_grid[rates-1000000000-pipe]",
         f"{BLOCKS}::test_an_index_the_rows_could_not_hold_sizes_no_grid[returns-1000000000-file]"),
    ),
    Mutant(
        "order labels count the restart gap from one segment off",
        "src/fxfolio/data_io.py",
        "        if n % gap == 0:\n            is_a = u < pi_a",
        "        if (n - 1) % gap == 0 or n == 0:\n            is_a = u < pi_a",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels drop the first segment's offset",
        "src/fxfolio/data_io.py",
        "flags[n, first + rng.choice(",
        "flags[n, rng.choice(",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "the suite's labels restart one segment off",
        "src/fxfolio/verify.py",
        "restart = at % spec.dependence_gap == 0",
        "restart = (at + 1) % spec.dependence_gap == 0",
        (f"{LAW}::test_class_pairs_inside_a_block_and_across_a_restart",),
    ),
    Mutant(
        "the suite's class B draws one count from class A's range",
        "src/fxfolio/verify.py",
        "rng.integers(np.where(is_a, 0, half),",
        "rng.integers(np.where(is_a, 0, half - 1),",
        (f"{LAW}::test_each_classs_crossing_counts_are_uniform_over_its_range",),
    ),
    Mutant(
        "the suite's crossing days favour early days",
        "src/fxfolio/verify.py",
        "keys.argsort(axis=1)",
        "(keys * np.arange(1, L + 1)).argsort(axis=1)",
        (f"{LAW}::test_each_day_crosses_with_chance_k_over_L_given_k",),
    ),
    Mutant(
        "the suite's first segment may cross on its first day",
        "src/fxfolio/verify.py",
        "keys[0, 0] = np.inf",
        "keys[0, -1] = np.inf",
        (f"{LAW}::test_the_first_day_never_crosses",),
    ),
    Mutant(
        "the suite runs its order rule as mpo 2",
        "src/fxfolio/verify.py",
        "PredictorConfig(mpcr=mpcr, mpo=1, segment=cfg)",
        "PredictorConfig(mpcr=mpcr, mpo=2, segment=cfg)",
        (f"{ETA}::test_etas_over_seeds_center_on_the_expectation",),
    ),
    Mutant(
        "the suite predicts one day late",
        "src/fxfolio/verify.py",
        "order_pred[1:] = referenced_orders(orders[:-1], ref, swap)",
        "order_pred[2:] = referenced_orders(orders[:-1], ref, swap)[:-1]",
        (f"{ETA}::test_etas_over_seeds_center_on_the_expectation",),
    ),
    Mutant(
        "ledger cells tested for zero by value, so -0.0 prints as 0",
        "src/fxfolio/data_io.py",
        "    nonzero = bits != 0\n",
        "    nonzero = cells.reshape(-1) != 0.0\n",
        (f"{LEDGER}::test_negative_zero_cells_keep_their_sign",),
    ),
    Mutant(
        "ledger blocks one day too long",
        "src/fxfolio/data_io.py",
        "stop = min(start + _LEDGER_BLOCK, n)",
        "stop = min(start + _LEDGER_BLOCK + 1, n)",
        (f"{LEDGER}::test_runs_of_any_length",),
    ),
    Mutant(
        "ledger R_pred null taken from the day before",
        "src/fxfolio/data_io.py",
        '"null" if grid is None else f"[{r_pred}]"',
        '"null" if ledger.predicted[start + d - 1] is None else f"[{r_pred}]"',
        (f"{LEDGER}::test_days_with_and_without_predictions",),
    ),
    Mutant(
        "ledger cell texts mapped one distinct value off",
        "src/fxfolio/data_io.py",
        "dtype=object)[inverse]",
        "dtype=object)[inverse - 1]",
        (f"{LEDGER}::test_runs_of_any_length",),
    ),
    Mutant(
        "read_ledger lets non-finite config numbers through",
        "src/fxfolio/data_io.py",
        'config=field(meta_ln, meta, "config", _config),',
        'config=field(meta_ln, meta, "config", dict),',
        (f"{DAMAGED}[nan config]", f"{DAMAGED}[nested infinite config]"),
    ),
    Mutant(
        "read_ledger reads -0 as the int 0",
        "src/fxfolio/data_io.py",
        'return -0.0 if text == "-0" else int(text)',
        "return int(text)",
        (f"{LEDGER}::test_negative_zero_return_round_trips",),
    ),
    Mutant(
        "tilt exponent computed off the support too",
        "src/fxfolio/updates.py",
        "np.multiply(rate, out, out=out, where=active)",
        "np.multiply(rate, r_pred, out=out)",
        ("tests/test_updates.py::TestTilt::test_matches_the_masked_formula",),
    ),
    Mutant(
        "tilts reduces eiitc growth on iitc rows too",
        "src/fxfolio/updates.py",
        "reshape(rows, -1), 1, where=eiitc[:, None], initial=0.0)",
        "reshape(rows, -1), 1)",
        (f"{SWEEP}::test_an_iitc_member_computes_no_eiitc_growth",),
    ),
    Mutant(
        "cost solve goes on past a first iterate of exactly FP_TOL",
        "src/fxfolio/costs.py",
        "if t <= FP_TOL or t == math.inf:",
        "if t < FP_TOL or t == math.inf:",
        (f"{FIXED_POINT}::test_a_first_iterate_of_exactly_the_tolerance_stops",),
    ),
    Mutant(
        "cost solve makes one evaluation past the cap",
        "src/fxfolio/costs.py",
        "for _ in range(FP_MAX_ITER - 1):\n        t_new = c * float(",
        "for _ in range(FP_MAX_ITER):\n        t_new = c * float(",
        (f"{FIXED_POINT}::test_the_cap_counts_every_evaluation",),
    ),
    Mutant(
        "batch cost solve iterates rows that stopped at their first iterate",
        "src/fxfolio/costs.py",
        "    todo = ~((t <= FP_TOL) | inf)\n",
        "    todo = np.ones(len(t), dtype=bool)\n",
        (f"{FIXED_POINT}::test_a_first_iterate_of_exactly_the_tolerance_stops",),
    ),
    Mutant(
        "batch cost solve charges a c = 0 row its first iterate",
        "src/fxfolio/costs.py",
        "    f = np.where(c == 0.0, 0.0, f_k)[:, None]\n",
        "    f = f_k[:, None]\n",
        (
            "tests/test_costs.py::TestBatchSolve::test_a_free_row_costs_plus_zero_whatever_its_capital",
            f"{SWEEP}::test_a_free_member_pays_nothing_at_the_largest_capital",
        ),
    ),
    Mutant(
        "batch cost solve takes the max of an empty batch",
        "src/fxfolio/costs.py",
        "if t.max(initial=0.0) <= FP_TOL:",
        "if t.max() <= FP_TOL:",
        ("tests/test_costs.py::TestBatchSolve::test_an_empty_batch_costs_nothing",),
    ),
    Mutant(
        "batch cost solve multiplies a done row's inf first iterate in the loop",
        "src/fxfolio/costs.py",
        "    held = inf.any()\n",
        "    held = False\n",
        ("tests/test_costs.py::TestBatchSolve::test_a_row_done_at_an_inf_first_iterate_warns_as_its_scalar_solve",),
    ),
    Mutant(
        "cost-bounds draws swap the f_k and c uniforms",
        "src/fxfolio/verify.py",
        "rng.uniform(0.5, 2.0, rows), rng.uniform(0.0, 0.05, rows)",
        "rng.uniform(0.0, 0.05, rows), rng.uniform(0.5, 2.0, rows)",
        (f"{COST_LAW}::test_f_k_and_c_are_uniform_on_their_ranges",),
    ),
    Mutant(
        "cost-bounds weights drawn from Dirichlet(2, ..., 2)",
        "src/fxfolio/verify.py",
        "rng.dirichlet(np.ones(m * m - m), size=(rows, 2))",
        "rng.dirichlet(np.full(m * m - m, 2.0), size=(rows, 2))",
        (f"{COST_LAW}::test_cell_moments",),
    ),
    Mutant(
        "cost-bounds target row equal to its drift row",
        "src/fxfolio/verify.py",
        "draws.append((w[:, 0], w[:, 1],",
        "draws.append((w[:, 0], w[:, 0],",
        (f"{COST_LAW}::test_cell_moments",),
    ),
    Mutant(
        "cost-bounds c drawn from [0, 0.5)",
        "src/fxfolio/verify.py",
        "rng.uniform(0.0, 0.05, rows)",
        "rng.uniform(0.0, 0.5, rows)",
        (f"{COST_LAW}::test_f_k_and_c_are_uniform_on_their_ranges",),
    ),
    Mutant(
        "cost-bounds sandwich top uses 1 + c",
        "src/fxfolio/verify.py",
        "(c / (1.0 - c)) * delta",
        "(c / (1.0 + c)) * delta",
        ("tests/test_verify.py::TestCostBoundsSuite::test_small_sweep_passes",),
    ),
    Mutant(
        "sweep's last capital cell off by 1%",
        "src/fxfolio/backtest.py",
        "    np.divide(t_col, prev_f, out=c_col)\n",
        "    np.divide(t_col, prev_f, out=c_col)\n    f_col[:, -1] *= 1.01\n",
        ("tests/test_verify.py::TestUniversalitySuite::test_small_sweep_passes",),
    ),
    Mutant(
        "sweep checks the day's capital before the tilt",
        "src/fxfolio/backtest.py",
        "        pred = preds[k]\n",
        "        if not (0.0 < f_k.min() and f_k.max() < np.inf):\n"
        '            raise NonPositiveCapital(f"day {k}: capital must be finite and > 0")\n'
        "        pred = preds[k]\n",
        (f"{SWEEP}::test_exhausted_capital_against_an_overflowing_tilt",),
    ),
    Mutant(
        "sweep drops the exhausted-capital check",
        "src/fxfolio/backtest.py",
        "        if not fp.min() > 0.0 and (fp <= 0.0).any():\n",
        "        if False:\n",
        (f"{SWEEP}::test_exhausted_capital_against_an_overflowing_tilt",),
    ),
    Mutant(
        "sweep's parked day grows by 2, not 1",
        "src/fxfolio/backtest.py",
        "            growth[parked] = 1.0\n",
        "            growth[parked] = 2.0\n",
        (f"{SWEEP}::test_parked_days_and_eiitc_fallbacks",),
    ),
)


def run(mutant: Mutant, tree: Path) -> str:
    """killed, survived or stale, for one mutant applied to the copy at tree."""
    target = tree / mutant.path
    original = target.read_text()
    if original.count(mutant.old) != 1:
        return "stale"
    target.write_text(original.replace(mutant.old, mutant.new))
    try:
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    finally:
        target.write_text(original)
    # 1 is a failed test; any other nonzero code (a missing node id, say) is not a kill.
    return "killed" if proc.returncode == 1 else "survived"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    bad = 0
    with tempfile.TemporaryDirectory(prefix="fxfolio-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, tree / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, tree / name)
        for index in chosen:
            mutant = MUTANTS[index]
            verdict = run(mutant, tree)
            bad += verdict != "killed"
            print(f"{index:2d} {verdict:8s} {mutant.name} ({mutant.path})", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
