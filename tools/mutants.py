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
DRAWS = "tests/test_verify.py::TestCostBoundsDraws::test_match_one_call_per_value"
REJECTED = "tests/test_cli.py::TestRejectedArguments::test_exits_2"
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
        "order labels skip choice's Fisher-Yates draws",
        "src/fxfolio/data_io.py",
        "draws = list(range(0, 2 * L + 1, 2))",
        "draws = list(range(1, L + 2))",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels ignore the carried-in half word",
        "src/fxfolio/data_io.py",
        'is_a, 1, 1, start["has_uint32"], *tables',
        "is_a, 1, 1, 0, *tables",
        (f"{ORDERS}::test_carried_in_half_word_keeps_the_oracle_stream",),
    ),
    Mutant(
        "order labels decode random() from 52 bits",
        "src/fxfolio/data_io.py",
        "(words >> np.uint64(11)) * 2.0**-53",
        "(words >> np.uint64(12)) * 2.0**-53",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels leave the generator one word short",
        "src/fxfolio/data_io.py",
        "bitgen.advance(p - 1)",
        "bitgen.advance(p - 2)",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels leave the generator one word long",
        "src/fxfolio/data_io.py",
        "bitgen.advance(p - 1)",
        "bitgen.advance(p)",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels decode segments of 10,001 days in blocks",
        "src/fxfolio/data_io.py",
        "if n and L <= 10_000:",
        "if n and L <= 10_001:",
        (f"{ORDERS}::test_long_runs_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels drop the first segment's offset in NumPy's calls",
        "src/fxfolio/data_io.py",
        "flags[n, first + rng.choice(",
        "flags[n, rng.choice(",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels carry the other class into the next block",
        "src/fxfolio/data_io.py",
        "_walk_block(rows, -n % gap, gap, is_a, 1,",
        "_walk_block(rows, -n % gap, gap, not is_a, 1,",
        (f"{ORDERS}::test_the_profitability_suites_streams_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels drop the buffered half at a block boundary",
        "src/fxfolio/data_io.py",
        'np.array([start["uinteger"] << 32], dtype=np.uint64)',
        "np.array([0], dtype=np.uint64)",
        (f"{ORDERS}::test_the_profitability_suites_streams_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels skip the block's rejection check",
        "src/fxfolio/data_io.py",
        "good = int(row[rejected.argmax()]) if rejected.any() else len(k)",
        "good = len(k)",
        (f"{ORDERS}::test_a_zero_word_anywhere_keeps_the_oracle_stream",),
    ),
    Mutant(
        "order labels count the restart gap from one segment off",
        "src/fxfolio/data_io.py",
        "_walk_block(rows, -n % gap,",
        "_walk_block(rows, (1 - n) % gap,",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
    ),
    Mutant(
        "order labels take Floyd's j one step late in a block's last few rows",
        "src/fxfolio/data_io.py",
        "first[r] + 1 + row_k].tolist(), t):",
        "first[r] + 1 + row_k].tolist(), t + 1):",
        (f"{ORDERS}::test_labels_keep_the_oracle_stream",),
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
        "cost-bounds draws sum the Dirichlet normalizer pairwise",
        "src/fxfolio/verify.py",
        "(1.0 / np.cumsum(e, axis=-1)[..., -1:])",
        "(1.0 / np.add.reduce(e, axis=-1, keepdims=True))",
        (f"{DRAWS}[2000-1]",),
    ),
    Mutant(
        "cost-bounds draws divide by the normalizer",
        "src/fxfolio/verify.py",
        "e * (1.0 / np.cumsum(e, axis=-1)[..., -1:])",
        "e / np.cumsum(e, axis=-1)[..., -1:]",
        (f"{DRAWS}[2000-1]",),
    ),
    Mutant(
        "cost-bounds draws swap the f_k and c uniforms",
        "src/fxfolio/verify.py",
        "0.5 + (2.0 - 0.5) * u[:, 0], 0.0 + (0.05 - 0.0) * u[:, 1]",
        "0.5 + (2.0 - 0.5) * u[:, 1], 0.0 + (0.05 - 0.0) * u[:, 0]",
        (f"{DRAWS}[1-0]",),
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
