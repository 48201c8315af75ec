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
MUTANTS = (
    Mutant(
        "rate entry mask admits 0",
        "src/fxfolio/market.py",
        "(np.isfinite(grids) & (grids > 0.0), lambda day, k, i, j: NonPositiveEntry(",
        "(np.isfinite(grids) & (grids >= 0.0), lambda day, k, i, j: NonPositiveEntry(",
        (f"{TABLE}[rate-entry-close-stack]", f"{TABLE}[rate-entry-close-day]"),
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
        "a ledger day beyond int64 is blamed on its return matrix",
        "src/fxfolio/data_io.py",
        'matrices("R", lambda k, flat: -(2**63) <= k < 2**63 and ReturnMatrix(',
        'matrices("R", lambda k, flat: ReturnMatrix(',
        ("tests/test_data_io.py::TestDamagedLedgerAndSummaryFiles::test_ledger_errors_are_typed",),
    ),
    Mutant(
        "compute_returns warns on an overflow",
        "src/fxfolio/market.py",
        'with np.errstate(over="ignore"):',
        'with np.errstate(over="warn"):',
        ("tests/test_cli.py::TestMarketsBreakingARule::test_overflowing_rates_file_exits_1_naming_the_file",),
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
