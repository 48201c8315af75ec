"""End-to-end acceptance checks, one numbered criterion per test.

Each test computes its verdict, prints a single [PASS]/[FAIL] line (echoed
again in the terminal summary), and then asserts it, so a red line and a
red test always agree.  Runtimes are measured and reported, not asserted.
"""

import itertools
import os
import time

import numpy as np
import pytest

from fxfolio.backtest import (
    GammaSchedule,
    LinearPredictor,
    UpdateConfig,
    growth_rate,
    growth_rate_net,
    run_backtest,
)
from fxfolio.cli import main
from fxfolio.costs import CostParams, cost_bounds, solve_cost_from_drift
from fxfolio.crossrate import PredictorConfig, SegmentConfig, cross_rate, mpcr_predict, mpo_predict
from fxfolio.data_io import SyntheticMarketSpec, generate_market, normalized_returns
from fxfolio.market import ReturnMatrix, ReturnStack
from fxfolio.portfolio import PortfolioMatrix, l1_distance
from fxfolio.updates import eiitc_update, iitc_update, objective_value
from fxfolio.verify import profitability_suite, universality_suite

from oracles import grid_scan_cost, random_portfolio_weights, random_return_entries

MS = (2, 3, 4, 6)


def random_instance(rng: np.random.Generator, m: int) -> tuple[PortfolioMatrix, ReturnMatrix]:
    """Random (realized weights, prediction) with one live position firing.

    The guaranteed overlap keeps the predicted growth of the drifted book
    positive, so both tilt rules are defined on every instance.
    """
    weights = random_portfolio_weights(rng, m, sparse=bool(rng.integers(2)))
    entries = random_return_entries(rng, m, fire_prob=0.7)
    live = np.argwhere(weights > 0.0)
    i, j = live[rng.integers(len(live))]
    entries[i, j] = rng.uniform(0.5, 1.5)
    entries[j, i] = 0.0
    psi = PortfolioMatrix(day=1, weights=weights)
    pred = ReturnMatrix(day=2, entries=entries)
    return psi, pred


@pytest.fixture(scope="module")
def universality_result():
    jobs = min(os.cpu_count() or 1, 8)
    started = time.perf_counter()
    result = universality_suite(replicates=100, seed=1, n_days=250, r_floor=0.5, jobs=jobs)
    return result, time.perf_counter() - started, jobs


def test_criterion_01_simplex_preservation(report):
    started = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_sum = 0.0
    worst_neg = 0.0
    worst_diag = 0.0
    for n in range(10_000):
        psi, pred = random_instance(rng, MS[n % 4])
        gamma = float(rng.uniform(0.0, 2.0))
        for update in (iitc_update, eiitc_update):
            w = update(psi, pred, gamma).weights
            worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
            worst_neg = max(worst_neg, -float(w.min()))
            worst_diag = max(worst_diag, float(np.abs(np.diag(w)).max()))
    ok = worst_sum <= 1e-12 and worst_neg <= 0.0 and worst_diag == 0.0
    line = report(
        1,
        "update outputs stay on the simplex",
        ok,
        f"10000 instances x 2 rules, worst |sum-1|={worst_sum:.2e}, "
        f"worst negative={worst_neg:.2e}, {time.perf_counter() - started:.1f}s",
    )
    assert ok, line


def test_criterion_02_zero_gamma_identity(report):
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    bitwise_misses = 0
    worst_abs = 0.0
    for n in range(1_000):
        psi, pred = random_instance(rng, MS[n % 4])
        renormalized = psi.weights / psi.weights.sum()
        for update in (iitc_update, eiitc_update):
            out = update(psi, pred, 0.0).weights
            bitwise_misses += int(not np.array_equal(out, renormalized))
            worst_abs = max(worst_abs, float(np.abs(out - psi.weights).max()))
    ok = bitwise_misses == 0 and worst_abs <= 1e-15
    line = report(
        2,
        "zero learning rate returns the realized weights",
        ok,
        f"1000 instances x 2 rules, bitwise misses={bitwise_misses}, "
        f"worst |out-realized|={worst_abs:.2e}, {time.perf_counter() - started:.1f}s",
    )
    assert ok, line


def _perturbed(rng: np.random.Generator, base: np.ndarray, support: np.ndarray) -> PortfolioMatrix:
    # stays inside the realized support so the entropy penalty is finite
    if rng.integers(2):
        noise = np.where(support, rng.normal(0.0, 0.5, base.shape), 0.0)
        w = base * np.exp(noise)
    else:
        point = np.zeros_like(base)
        point[support] = rng.dirichlet(np.ones(int(support.sum())))
        t = rng.uniform()
        w = (1.0 - t) * base + t * point
    return PortfolioMatrix(day=1, weights=w / w.sum())


def test_criterion_03_update_maximizes_objective(report):
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    violations = 0
    worst_excess = -np.inf
    for n in range(1_000):
        psi, pred = random_instance(rng, MS[n % 4])
        gamma = float(rng.uniform(0.05, 1.5))
        support = psi.weights > 0.0
        for rule, update in (("iitc", iitc_update), ("eiitc", eiitc_update)):
            best = update(psi, pred, gamma)
            base_val = objective_value(rule, best, psi, pred, gamma)
            for _ in range(50):
                trial = _perturbed(rng, best.weights, support)
                excess = objective_value(rule, trial, psi, pred, gamma) - base_val
                worst_excess = max(worst_excess, excess)
                violations += int(excess > 1e-9)
    ok = violations == 0
    line = report(
        3,
        "each update maximizes its regularized objective",
        ok,
        f"1000 instances x 2 rules x 50 perturbations, violations={violations}, "
        f"worst excess={worst_excess:.2e}, {time.perf_counter() - started:.1f}s",
    )
    assert ok, line


def test_criterion_04_cost_sandwich_and_oracle(report):
    started = time.perf_counter()
    rng = np.random.default_rng(4)
    sandwich_misses = 0
    worst_gap = 0.0
    for n in range(10_000):
        m = MS[n % 4]
        f_k = float(rng.uniform(0.25, 4.0))
        c = 0.0 if n % 100 == 0 else float(rng.uniform(0.0, 0.05))
        drift = random_portfolio_weights(rng, m, sparse=bool(rng.integers(2)))
        nxt = drift.copy() if n % 50 == 0 else random_portfolio_weights(rng, m, sparse=bool(rng.integers(2)))
        psi_next = PortfolioMatrix(day=2, weights=nxt)
        t = solve_cost_from_drift(f_k, drift, nxt, CostParams(c))
        delta = f_k * l1_distance(psi_next, PortfolioMatrix(day=1, weights=drift))
        lo, hi = cost_bounds(delta, c)
        sandwich_misses += int(not (lo - 1e-9 <= t <= hi + 1e-9))
        worst_gap = max(worst_gap, abs(t - grid_scan_cost(f_k, drift, nxt, c)))
    ok = sandwich_misses == 0 and worst_gap <= 1e-8
    line = report(
        4,
        "fixed-point cost sits in the turnover sandwich and matches a grid scan",
        ok,
        f"10000 solves, sandwich misses={sandwich_misses}, "
        f"worst |fixed point - oracle|={worst_gap:.2e}, {time.perf_counter() - started:.1f}s",
    )
    assert ok, line


def test_criterion_05_shared_interval_hit_rate(report):
    started = time.perf_counter()
    cfg = SegmentConfig()
    combos = [(mpcr, mpo) for mpcr in (1, 2) for mpo in (1, 2)]
    counter = {combo: 0 for combo in combos}
    shared = {combo: 0 for combo in combos}
    example = {combo: None for combo in combos}
    rng = np.random.default_rng(5)
    spot_checks = 0
    for seg_len in range(2, 9):
        seqs = list(itertools.product((1, 2), repeat=seg_len))
        # coming segment's cross rate given the current segment's last order
        w_next = {(last, s): cross_rate(s, last) for last in (1, 2) for s in seqs}
        # day-level hit rate per branch; the plain order methods only read
        # the last one or two orders of history, so two seeds suffice
        theta = {}
        for mpo in (1, 2):
            for w_branch in (0.25, 0.75):
                for last2 in (1, 2):
                    for last1 in (1, 2):
                        for s in seqs:
                            hist = [last2, last1]
                            hits = 0
                            for actual in s:
                                hits += int(mpo_predict(mpo, False, w_branch, hist) == actual)
                                hist.append(actual)
                            theta[(mpo, w_branch, last2, last1, s)] = hits / seg_len
        for prev in (None, 1, 2):
            for s_n in seqs:
                w_n = cross_rate(s_n, prev)
                last2, last1 = s_n[-2], s_n[-1]
                for mpcr in (1, 2):
                    w_pred = mpcr_predict(mpcr, [w_n], cfg)
                    w_branch = 0.75 if w_pred >= 0.5 else 0.25
                    for s_n1 in seqs:
                        if (w_pred >= 0.5) != (w_next[(last1, s_n1)] >= 0.5):
                            continue
                        for mpo in (1, 2):
                            shared[(mpcr, mpo)] += 1
                            th = theta[(mpo, w_branch, last2, last1, s_n1)]
                            if th < 0.5:
                                counter[(mpcr, mpo)] += 1
                                if example[(mpcr, mpo)] is None:
                                    example[(mpcr, mpo)] = (prev, s_n, s_n1, w_pred, th)
                            if rng.integers(5_000) == 0:
                                # honesty check: replay the table entry with the
                                # full untruncated history
                                hist = list(s_n)
                                hits = 0
                                for actual in s_n1:
                                    hits += int(mpo_predict(mpo, False, w_pred, hist) == actual)
                                    hist.append(actual)
                                assert hits / seg_len == th
                                spot_checks += 1
    assert spot_checks > 20
    total = sum(counter.values())
    counts = ", ".join(
        f"mpcr{mpcr}/mpo{mpo}: {counter[(mpcr, mpo)]} of {shared[(mpcr, mpo)]}" for mpcr, mpo in combos
    )
    detail = f"exhaustive L=2..8, counterexamples {counts}, {time.perf_counter() - started:.1f}s"
    first_bad = next((example[c] for c in combos if example[c] is not None), None)
    if first_bad is not None:
        prev, s_n, s_n1, w_pred, th = first_bad
        detail += f"; e.g. prev={prev} seen={s_n} next={s_n1} predicted rate={w_pred} hit rate={th}"
    ok = total == 0
    line = report(5, "shared half-interval implies hit rate >= 1/2 for all four predictors", ok, detail)
    assert ok, line


def test_criterion_06_profitability_monte_carlo(report):
    started = time.perf_counter()
    result = profitability_suite(segments=20_000, seed=1)
    eta1 = result.stats["eta_mpcr1"]
    eta2 = result.stats["eta_mpcr2"]
    ok = result.passed and eta1 >= 0.73 and eta2 >= 0.45
    line = report(
        6,
        "segment predictions stay effective on the synthetic order process",
        ok,
        f"20000 segments, persistence eta={eta1:.4f} (>=0.73), "
        f"alternation eta={eta2:.4f} (>=0.45), {time.perf_counter() - started:.1f}s",
    )
    assert ok, line


def test_criterion_07_universality_floor(report, universality_result):
    result, elapsed, jobs = universality_result
    gap_violations = [v for v in result.violations if "gap" in v]
    ok = result.checked > 0 and not gap_violations
    line = report(
        7,
        "net growth over the best pair clears the guaranteed floor",
        ok,
        f"100 replicates, {result.checked} pair checks, "
        f"min margin={result.stats['min_margin']:.3e}, jobs={jobs}, {elapsed:.1f}s",
    )
    assert ok, (line, gap_violations[:5])


def test_criterion_08_cost_ratio_bound(report, universality_result):
    result, elapsed, jobs = universality_result
    ratio_violations = [v for v in result.violations if "cost ratio" in v]
    ok = result.checked > 0 and not ratio_violations
    line = report(
        8,
        "realized per-day cost ratios stay under the closed-form bound",
        ok,
        f"same sweep as criterion 7, violations={len(ratio_violations)}",
    )
    assert ok, (line, ratio_violations[:5])


def test_criterion_09_ledger_integrity_and_causality(report, universality_result):
    started = time.perf_counter()
    result, _, _ = universality_result
    identity_violations = [
        v for v in result.violations if "capital identity" in v or "decomposition" in v
    ]
    worst_identity = 0.0
    worst_decomp = 0.0
    causality_breaks = 0
    for i in range(20):
        m = (2, 3, 4)[i % 3]
        quotes = generate_market(SyntheticMarketSpec(m=m, n_days=100, seed=900 + i, normalize=True))
        rets = normalized_returns(quotes)
        if i % 2:
            predictor = LinearPredictor((0.6, 0.4))
        else:
            predictor = PredictorConfig(mpcr=1 + i % 2, mpo=1 + (i // 2) % 2)
        update = UpdateConfig(rule="iitc" if i % 3 else "eiitc", gamma=0.1 + 0.2 * (i % 2))
        costs = CostParams(0.004 if i % 4 else 0.0)
        base = run_backtest(rets, predictor=predictor, update=update, costs=costs)

        prev_f = np.concatenate(([base.f0], base.capital[:-1]))
        err = np.abs(base.capital_net - (prev_f - base.cost)) / np.maximum(1.0, np.abs(prev_f))
        worst_identity = max(worst_identity, float(err.max()))
        decomp = growth_rate(base) + float(np.mean(np.log1p(-base.ratio)))
        worst_decomp = max(
            worst_decomp, abs(decomp - growth_rate_net(base)) / max(1.0, abs(decomp))
        )

        cut = 80
        grids = rets.grids.copy()
        grids[cut] *= 0.9
        bumped = ReturnStack(rets.days, grids)
        other = run_backtest(bumped, predictor=predictor, update=update, costs=costs)
        same = (
            np.array_equal(base.capital[:cut], other.capital[:cut])
            and np.array_equal(base.capital_net[:cut], other.capital_net[:cut])
            and np.array_equal(base.cost[: cut + 1], other.cost[: cut + 1])
            and np.array_equal(base.growth[:cut], other.growth[:cut])
            and all(np.array_equal(a, b) for a, b in zip(base.portfolios[:cut], other.portfolios[:cut]))
        )
        causality_breaks += int(not same)
    ok = (
        not identity_violations
        and worst_identity <= 1e-9
        and worst_decomp <= 1e-9
        and causality_breaks == 0
    )
    line = report(
        9,
        "ledger capital identity, net decomposition, and causality hold",
        ok,
        f"sweep violations={len(identity_violations)}, worst identity err={worst_identity:.2e}, "
        f"worst decomposition err={worst_decomp:.2e}, causality breaks={causality_breaks} of 20, "
        f"{time.perf_counter() - started:.1f}s",
    )
    assert ok, line


def test_criterion_10_cli_determinism(report, tmp_path, capsys):
    started = time.perf_counter()
    blobs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        rates = d / "rates.csv"
        ledger = d / "ledger.jsonl"
        summary = d / "summary.csv"
        assert main(["generate", "--market", "--m", "3", "--days", "80", "--seed", "7",
                     "--out", str(rates)]) == 0
        assert main(["backtest", "--input", str(rates), "--rule", "eiitc", "--gamma", "0.3",
                     "--mpcr", "2", "--mpo", "1", "--cost", "0.004",
                     "--ledger", str(ledger), "--summary", str(summary)]) == 0
        blobs.append((rates.read_bytes(), ledger.read_bytes(), summary.read_bytes()))
    capsys.readouterr()
    ok = blobs[0] == blobs[1]
    line = report(
        10,
        "reruns with the same seed produce byte-identical ledger and summary files",
        ok,
        f"rates {len(blobs[0][0])}B, ledger {len(blobs[0][1])}B, summary {len(blobs[0][2])}B, "
        f"{time.perf_counter() - started:.1f}s",
    )
    assert ok, line
