"""File formats, seeded generators, and ledger round trips."""

import functools
import itertools
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from fxfolio import cli, data_io, market
from fxfolio.backtest import BacktestLedger, LinearPredictor, UpdateConfig, run_backtest
from fxfolio.costs import CostParams
from fxfolio.crossrate import PredictorConfig, cross_rate, order_of
from fxfolio.data_io import (
    SyntheticMarketSpec,
    SyntheticOrderSpec,
    generate_market,
    generate_order_process,
    load_rates,
    normalized_returns,
    order_labels,
    read_ledger,
    read_returns,
    read_summary,
    symmetric_masses,
    write_ledger,
    write_rates,
    write_returns,
    write_summary,
)
from fxfolio.errors import (
    EmptyLedger,
    FxfolioError,
    InfeasibleTargets,
    InvalidSpec,
    InvariantError,
    IoError,
    NonMonotoneDays,
    ParseError,
)
from fxfolio.market import QuoteStack, ReturnStack, compute_returns


GOOD_RATES = """day,i,j,open_rate,close_rate
1,1,2,1.4,1.5
1,2,1,0.7,0.72
2,1,2,1.45,1.38
2,2,1,0.71,0.69
"""


GOOD_RETURNS = """day,i,j,value
1,1,2,1.2
1,2,1,0
"""


def write_text(path, text):
    path.write_text(text)
    return path


@pytest.mark.parametrize("token", ["x", "nan"])
@pytest.mark.parametrize(
    "reader, text, col",
    [(load_rates, GOOD_RATES, col) for col in range(5)] + [(read_returns, GOOD_RETURNS, col) for col in range(4)],
)
def test_corrupted_column_is_named(tmp_path, reader, text, col, token):
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[2].split(",")
    fields[col] = token
    lines[2] = ",".join(fields)
    with pytest.raises((ParseError, InvariantError)) as info:
        reader(write_text(tmp_path / "in.csv", "\n".join(lines) + "\n"))
    message = str(info.value)
    if col < 3 or token == "x":
        assert info.type is ParseError
        assert f"line 3: column {col + 1} ({header[col]}): " in message
    else:
        # A nan quote parses, then fails its day's matrix check.
        assert info.type is InvariantError
        assert message.count("day 1:") == 1
        assert " is nan, " in message
    assert "np." not in message


class TestRatesFiles:
    def test_happy_path(self, tmp_path):
        quotes = load_rates(write_text(tmp_path / "r.csv", GOOD_RATES))
        assert [q.day for q in quotes] == [1, 2]
        assert quotes[0].open_rates.entries[0, 1] == 1.4
        assert quotes[1].close_rates.entries[1, 0] == 0.69

    def test_round_trip(self, tmp_path):
        quotes = generate_market(SyntheticMarketSpec(m=3, n_days=6, seed=2))
        path = tmp_path / "gen.csv"
        write_rates(quotes, path)
        back = load_rates(path)
        assert len(back) == 6
        for q, b in zip(quotes, back):
            assert b.day == q.day
            np.testing.assert_array_equal(b.open_rates.entries, q.open_rates.entries)
            np.testing.assert_array_equal(b.close_rates.entries, q.close_rates.entries)

    def test_returns_are_computed_once_per_load(self, tmp_path, monkeypatch):
        path = tmp_path / "gen.csv"
        write_rates(generate_market(SyntheticMarketSpec(m=3, n_days=6, seed=2)), path)
        calls = []
        monkeypatch.setattr(market, "compute_returns", lambda quotes: calls.append(1) or compute_returns(quotes))
        quotes = load_rates(path)
        ledger = run_backtest(quotes, LinearPredictor((1.0,)))
        assert len(calls) == 1 and ledger.returns is quotes.returns
        np.testing.assert_array_equal(quotes.returns.grids, compute_returns(quotes).grids)

    def test_collapsed_spread_names_the_day(self, tmp_path):
        bad = GOOD_RATES.replace("2,1,2,1.45,1.38\n2,2,1,0.71,0.69\n", "2,1,2,0.7,1.38\n2,2,1,0.7,0.69\n")
        with pytest.raises(InvariantError, match="day 2"):
            load_rates(write_text(tmp_path / "r.csv", bad))

    def test_shuffled_days(self, tmp_path):
        lines = GOOD_RATES.strip().splitlines()
        shuffled = "\n".join([lines[0]] + lines[3:] + lines[1:3]) + "\n"
        with pytest.raises(NonMonotoneDays):
            load_rates(write_text(tmp_path / "r.csv", shuffled))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            load_rates(write_text(tmp_path / "r.csv", "day,i,j,open,close\n1,1,2,1.4,1.5\n"))

    def test_bad_field_count_names_the_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            load_rates(write_text(tmp_path / "r.csv", "day,i,j,open_rate,close_rate\n1,1,2,1.4,1.5\n1,2,1,0.7\n"))

    def test_duplicate_pair(self, tmp_path):
        dup = GOOD_RATES + "2,1,2,1.4,1.5\n"
        with pytest.raises(ParseError, match="duplicate"):
            load_rates(write_text(tmp_path / "r.csv", dup))

    def test_incomplete_day(self, tmp_path):
        with pytest.raises(ParseError, match="expected 2"):
            load_rates(write_text(tmp_path / "r.csv", "day,i,j,open_rate,close_rate\n1,1,2,1.4,1.5\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            load_rates(tmp_path / "absent.csv")


class TestReturnsFiles:
    def test_round_trip_exact(self, tmp_path):
        spec = SyntheticMarketSpec(m=3, n_days=8, seed=4, normalize=True)
        rets = normalized_returns(generate_market(spec))
        path = tmp_path / "returns.csv"
        write_returns(rets, path)
        back = read_returns(path)
        assert len(back) == len(rets)
        for r, b in zip(rets, back):
            assert b.day == r.day
            np.testing.assert_array_equal(b.entries, r.entries)

    def test_read_validates_complementarity(self, tmp_path):
        text = "day,i,j,value\n1,1,2,1.2\n1,2,1,1.1\n"
        with pytest.raises(InvariantError, match="day 1"):
            read_returns(write_text(tmp_path / "r.csv", text))


class TestGenerateMarket:
    def test_deterministic(self, tmp_path):
        spec = SyntheticMarketSpec(m=4, n_days=20, seed=11)
        a, b = generate_market(spec), generate_market(spec)
        for qa, qb in zip(a, b):
            np.testing.assert_array_equal(qa.open_rates.entries, qb.open_rates.entries)
            np.testing.assert_array_equal(qa.close_rates.entries, qb.close_rates.entries)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_rates(a, p1)
        write_rates(b, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_spread_is_two_epsilon(self):
        eps = 0.004
        quotes = generate_market(SyntheticMarketSpec(m=3, n_days=15, seed=8, spread_epsilon=eps))
        for q in quotes:
            for grid in (q.open_rates.entries, q.close_rates.entries):
                iu, ju = np.triu_indices(3, k=1)
                np.testing.assert_allclose(grid[iu, ju] - grid[ju, iu], 2 * eps, atol=1e-15)

    def test_normalize_mode_hits_the_band(self):
        spec = SyntheticMarketSpec(m=4, n_days=50, seed=13, normalize=True, r_floor=0.5)
        rets = normalized_returns(generate_market(spec))
        for r in rets:
            sums = r.entries + r.entries.T
            iu, ju = np.triu_indices(r.m, k=1)
            pair_sums = sums[iu, ju]
            assert pair_sums.max() == 1.0
            assert pair_sums.min() >= 0.5
            # Quote-induced profits always sit above the diagonal.
            assert np.all(np.tril(r.entries, k=-1) == 0.0)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpec):
            SyntheticMarketSpec(m=1, n_days=10, seed=0)
        with pytest.raises(InvalidSpec):
            SyntheticMarketSpec(m=2, n_days=1, seed=0)
        with pytest.raises(InvalidSpec):
            SyntheticMarketSpec(m=2, n_days=10, seed=0, spread_epsilon=0.0)
        with pytest.raises(InvalidSpec):
            SyntheticMarketSpec(m=2, n_days=10, seed=0, normalize=True, r_floor=1.0)


def segment_rates(labels, seg_len):
    rates = []
    for start in range(0, len(labels), seg_len):
        seg = labels[start : start + seg_len]
        prev = labels[start - 1] if start else None
        rates.append(cross_rate(seg, prev_order=prev))
    return rates


def transition_masses(rates):
    """Empirical masses (AA, AB, BA, BB) of consecutive cross-rate classes, A = [0, 1/2) and B = [1/2, 1]."""
    high = [w >= 0.5 for w in rates]
    counts = Counter(zip(high, high[1:]))
    return tuple(counts[pair] / (len(rates) - 1) for pair in ((False, False), (False, True), (True, False), (True, True)))


@functools.cache
def oracle_streams(seg_len, seed):
    """(spec, oracle labels, generator state after them) for every class mix and block size at one length and seed.

    40 segments a case keeps the stream tests fast; over the 28 lengths and
    seeds each crossing-count and crossing-day branch is still drawn
    thousands of times.
    """
    out = []
    for same_class_mass, gap in itertools.product((0.0, 0.3, 0.78, 1.0), (1, 7, 50)):
        spec = SyntheticOrderSpec(40, seg_len, symmetric_masses(same_class_mass), seed, dependence_gap=gap)
        rng = np.random.default_rng(seed)
        labels = oracles.oracle_order_labels(spec, rng)
        out.append((spec, labels, rng.bit_generator.state))
    return out


class TestOrderProcess:
    def test_deterministic(self):
        spec = SyntheticOrderSpec(segment_count=40, segment_length=5, masses=symmetric_masses(0.7), seed=21)
        a = generate_order_process(spec)
        b = generate_order_process(spec)
        assert a[1] == b[1]
        for ra, rb in zip(a[0], b[0]):
            np.testing.assert_array_equal(ra.entries, rb.entries)

    def test_matrices_realize_labels(self):
        spec = SyntheticOrderSpec(segment_count=60, segment_length=5, masses=symmetric_masses(0.6), seed=3)
        matrices, labels = generate_order_process(spec)
        assert len(matrices) == 300
        for r, lab in zip(matrices, labels):
            assert order_of(r) == lab

    def test_degenerate_target_pins_the_class(self):
        spec = SyntheticOrderSpec(segment_count=200, segment_length=5, masses=(1.0, 0.0, 0.0, 0.0), seed=5)
        labels = order_labels(spec, np.random.default_rng(spec.seed))
        rates = segment_rates(labels, 5)
        assert all(w < 0.5 for w in rates)
        probs = transition_masses(rates)
        assert probs[0] == 1.0

    def test_empirical_masses_near_targets(self):
        # Blocks of 50 resample independently, diluting the in-block
        # same-class mass 0.78 toward 0.5 by one part in fifty.
        spec = SyntheticOrderSpec(
            segment_count=20_000, segment_length=5, masses=(0.39, 0.11, 0.11, 0.39), seed=1
        )
        labels = order_labels(spec, np.random.default_rng(spec.seed))
        paa, pab, pba, pbb = transition_masses(segment_rates(labels, 5))
        assert 0.76 <= paa + pbb <= 0.80

    @given(
        segments=st.integers(1, 60),
        seg_len=st.integers(2, 8),
        same_class_mass=st.sampled_from([0.0, 0.3, 0.78, 1.0]),
        gap=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_labels_are_never_flat(self, segments, seg_len, same_class_mass, gap, seed):
        # The profitability suite scores a flat day as a miss, so its stats rely on there being none.
        spec = SyntheticOrderSpec(segments, seg_len, symmetric_masses(same_class_mass), seed, dependence_gap=gap)
        labels = order_labels(spec, np.random.default_rng(seed))
        assert len(labels) == segments * seg_len and set(labels) <= {1, 2}

    def test_asymmetric_masses_rejected(self):
        with pytest.raises(InfeasibleTargets, match=r"need P_AB = P_BA, got 0\.2 and 0\.1"):
            SyntheticOrderSpec(segment_count=10, segment_length=5, masses=(0.4, 0.2, 0.1, 0.3), seed=0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 97])
    @pytest.mark.parametrize("seg_len", range(2, 9))
    def test_labels_keep_the_oracle_stream(self, seg_len, seed):
        # Equal labels and an equal generator state after the call: the same numbers were drawn, and no others.
        for spec, expected, state in oracle_streams(seg_len, seed):
            rng = np.random.default_rng(seed)
            assert order_labels(spec, rng) == expected, spec
            assert rng.bit_generator.state == state, spec

    @pytest.mark.parametrize("seed", [0, 1, 2, 97])
    @pytest.mark.parametrize("seg_len", range(2, 9))
    def test_grids_keep_the_oracle_stream(self, seg_len, seed):
        # The day values are drawn after the labels, so they too pin the labels' stream.
        for spec, expected_labels, state in oracle_streams(seg_len, seed):
            matrices, labels = generate_order_process(spec)
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            values = rng.uniform(data_io._ORDER_VALUE_LOW, data_io._ORDER_VALUE_HIGH, len(expected_labels))
            expected = np.zeros((len(expected_labels), 3, 3))
            for day, (label, value) in enumerate(zip(expected_labels, values)):
                expected[day, 1, 2], expected[day, 2, 0] = data_io._ORDER_SIDE_VALUES
                if label == 1:
                    expected[day, 0, 1] = value
                else:
                    expected[day, 1, 0] = value
            assert labels == expected_labels, spec
            assert matrices.grids.tobytes() == expected.tobytes(), spec

    def test_spec_validation(self):
        with pytest.raises(InvalidSpec):
            SyntheticOrderSpec(segment_count=0, segment_length=5, masses=symmetric_masses(0.5), seed=0)
        with pytest.raises(InvalidSpec):
            SyntheticOrderSpec(segment_count=1, segment_length=1, masses=symmetric_masses(0.5), seed=0)
        with pytest.raises(InvalidSpec):
            SyntheticOrderSpec(segment_count=1, segment_length=5, masses=(0.5, 0.2, 0.2, 0.2), seed=0)
        with pytest.raises(InvalidSpec):
            symmetric_masses(1.2)


def small_ledger(seed=7):
    spec = SyntheticMarketSpec(m=3, n_days=24, seed=seed, normalize=True)
    rets = normalized_returns(generate_market(spec))
    return run_backtest(
        rets,
        predictor=PredictorConfig(mpcr=1, mpo=1),
        update=UpdateConfig(rule="iitc", gamma=0.2),
        costs=CostParams(c=0.004),
    )


class TestLedgerFiles:
    def test_round_trip(self, tmp_path):
        ledger = small_ledger()
        path = tmp_path / "run.jsonl"
        write_ledger(ledger, path)
        back = read_ledger(path)
        assert back.m == ledger.m
        assert back.f0 == ledger.f0
        assert back.config == ledger.config
        for col in ("day", "capital", "capital_net", "cost", "ratio", "growth", "parked", "order_actual", "order_pred", "pred_crossed_segment"):
            np.testing.assert_array_equal(getattr(back, col), getattr(ledger, col), err_msg=col)
        for k in range(ledger.n_days):
            np.testing.assert_array_equal(back.portfolios[k], ledger.portfolios[k])
            np.testing.assert_array_equal(back.realized[k], ledger.realized[k])
            np.testing.assert_array_equal(back.returns[k].entries, ledger.returns[k].entries)
            if ledger.predicted[k] is None:
                assert back.predicted[k] is None
            else:
                np.testing.assert_array_equal(back.predicted[k], ledger.predicted[k])
        np.testing.assert_array_equal(back.next_portfolio, ledger.next_portfolio)

    def test_rewrite_is_byte_identical(self, tmp_path):
        ledger = small_ledger()
        p1, p2, p3 = (tmp_path / n for n in ("a.jsonl", "b.jsonl", "c.jsonl"))
        write_ledger(ledger, p1)
        write_ledger(ledger, p2)
        write_ledger(read_ledger(p1), p3)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    def test_empty_ledger_refused(self, tmp_path):
        ledger = small_ledger()
        ledger.day = np.array([], dtype=np.int64)
        with pytest.raises(EmptyLedger):
            write_ledger(ledger, tmp_path / "never.jsonl")
        assert not (tmp_path / "never.jsonl").exists()

    def test_missing_meta_line(self, tmp_path):
        path = write_text(tmp_path / "bad.jsonl", '{"day":1}\n')
        with pytest.raises(ParseError, match="meta"):
            read_ledger(path)

    def test_bad_json(self, tmp_path):
        path = write_text(tmp_path / "bad.jsonl", "not json\n")
        with pytest.raises(ParseError):
            read_ledger(path)

    @staticmethod
    def edit_last_day(tmp_path, edit):
        path = tmp_path / "run.jsonl"
        write_ledger(small_ledger(), path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[-1])
        edit(record)
        lines[-1] = json.dumps(record)
        return write_text(path, "\n".join(lines) + "\n"), len(lines)

    @pytest.mark.parametrize("key", ["day", "F", "diamond", "order_pred", "crossed", "psi", "R_pred"])
    def test_missing_key_names_line_and_key(self, tmp_path, key):
        path, ln = self.edit_last_day(tmp_path, lambda record: record.pop(key))
        with pytest.raises(ParseError, match=rf"line {ln}: key '{key}': missing"):
            read_ledger(path)

    @pytest.mark.parametrize("key", ["psi", "psi_prime", "R", "R_pred"])
    def test_wrong_matrix_size_names_line_and_key(self, tmp_path, key):
        path, ln = self.edit_last_day(tmp_path, lambda record: record[key].pop())
        with pytest.raises(ParseError, match=rf"line {ln}: key '{key}': bad value"):
            read_ledger(path)

    def test_invalid_return_matrix_names_line(self, tmp_path):
        def fire_both_ways(record):
            m = round(len(record["R"]) ** 0.5)
            record["R"][1] = record["R"][m] = 1.1  # positions (0, 1) and (1, 0)

        path, ln = self.edit_last_day(tmp_path, fire_both_ways)
        with pytest.raises(ParseError, match=rf"line {ln}: key 'R': day \d+: both mirrored returns"):
            read_ledger(path)

    @staticmethod
    def set_cell(key, index, value):
        def edit(record):
            if record[key] is None:
                record[key] = [0.0] * len(record["R"])
            record[key][index] = value

        return edit

    @pytest.mark.parametrize(
        "key, index, value, problem",
        [
            ("psi", 1, -5.0, r"weight at \(0, 1\) is -5.0, must be finite and >= 0"),
            ("psi", 0, 0.25, r"diagonal weight at \(0, 0\) must be 0"),
            ("psi_prime", 1, -5.0, r"weight at \(0, 1\) is -5.0, must be finite and >= 0"),
            ("psi_prime", 1, 3.0, r"weights sum to"),
            ("R_pred", 1, -1.0, r"predicted return at \(0, 1\) is -1.0, must be finite and >= 0"),
            ("R_pred", 1, float("inf"), r"predicted return at \(0, 1\) is inf, must be finite and >= 0"),
            ("R_pred", 0, 0.5, r"predicted return diagonal at \(0, 0\) must be 0"),
        ],
    )
    def test_invalid_matrix_names_line_and_key(self, tmp_path, key, index, value, problem):
        path, ln = self.edit_last_day(tmp_path, self.set_cell(key, index, value))
        with pytest.raises(ParseError, match=rf"line {ln}: key '{key}': .*day \d+: {problem}"):
            read_ledger(path)

    def test_predicted_mass_on_both_mirrored_cells_reads_back(self, tmp_path):
        # A linear prediction may blend days whose best trades sit on opposite sides.
        def both_sides(record):
            m = round(len(record["R"]) ** 0.5)
            record["R_pred"] = [0.0] * (m * m)
            record["R_pred"][1], record["R_pred"][m] = 0.4, 0.6  # positions (0, 1) and (1, 0)

        path, _ = self.edit_last_day(tmp_path, both_sides)
        predicted = read_ledger(path).predicted[-1]
        assert (predicted[0, 1], predicted[1, 0]) == (0.4, 0.6)

    def test_invalid_next_portfolio_names_meta_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_ledger(small_ledger(), path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["next_psi"][1] = -5.0
        lines[0] = json.dumps(meta)
        with pytest.raises(ParseError, match=r"line 1: key 'next_psi': day \d+: weight at \(0, 1\) is -5.0"):
            read_ledger(write_text(path, "\n".join(lines) + "\n"))


class TestDamagedLedgerAndSummaryFiles:
    """Readers of damaged files raise only ParseError, naming the file and, where known, the line."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("written")
        write_ledger(small_ledger(), d / "run.jsonl")
        write_summary(TestSummaryFiles.METRICS, d / "summary.csv")
        return (d / "run.jsonl").read_bytes(), (d / "summary.csv").read_bytes()

    @pytest.mark.parametrize(
        "index, edit, message",
        [
            (2, lambda line: b"\xff" + line, r"line 3: not UTF-8: "),
            (2, lambda line: b"[" * 100_000, r"line 3: bad JSON: nested too deeply"),
            (2, lambda line: b"1" * 5000, r"line 3: bad JSON: "),
            (0, lambda line: line.replace(b'"m":3', b'"m":1e400'), r"line 1: key 'm': bad value"),
            (2, lambda line: line.replace(b'"day":2', b'"day":1e400'), r"line 3: key 'day': bad value"),
            (2, lambda line: line.replace(b'"day":2', b'"day":1'), r"key 'day': market days must be strictly increasing"),
            (2, lambda line: line.replace(b'"day":2', b'"day":%d' % 2**70), r"key 'day': Python int too large"),
            (0, lambda line: line.replace(b'"m":3', b'"m":"3"'), r"line 1: key 'm': bad value: '3' is not a JSON integer"),
            (0, lambda line: line.replace(b'"f0":1,"config"', b'"f0":true,"config"'),
             r"line 1: key 'f0': bad value: True is not a JSON number"),
            (2, lambda line: line.replace(b'"day":2', b'"day":1.7'), r"line 3: key 'day': bad value: 1.7 is not a JSON integer"),
            (2, lambda line: line.replace(b'"day":2', b'"day":true'), r"line 3: key 'day': bad value: True is not a JSON integer"),
            (2, lambda line: re.sub(rb'"order_actual":\d', b'"order_actual":1.9', line),
             r"line 3: key 'order_actual': bad value: 1.9 is not a JSON integer"),
            (2, lambda line: re.sub(rb'"order_actual":\d', b'"order_actual":7', line),
             r"line 3: key 'order_actual': bad value: order 7 is not 0, 1 or 2"),
            (2, lambda line: line.replace(b'"order_pred":null', b'"order_pred":-1'),
             r"line 3: key 'order_pred': bad value: order -1 is not 0, 1 or 2"),
            (2, lambda line: line.replace(b'"order_pred":null', b'"order_pred":false'),
             r"line 3: key 'order_pred': bad value: False is not a JSON integer"),
            (2, lambda line: re.sub(rb'"crossed":\w+', b'"crossed":"no"', line),
             r"line 3: key 'crossed': bad value: 'no' is not a JSON bool"),
            (2, lambda line: re.sub(rb'"crossed":\w+', b'"crossed":0', line),
             r"line 3: key 'crossed': bad value: 0 is not a JSON bool"),
            (2, lambda line: re.sub(rb'"F":[^,]+', b'"F":"1.5"', line), r"line 3: key 'F': bad value: '1.5' is not a JSON number"),
            (2, lambda line: re.sub(rb'"T":[^,]+', b'"T":false', line), r"line 3: key 'T': bad value: False is not a JSON number"),
            (2, lambda line: re.sub(rb'"diamond":[^,]+', b'"diamond":-3.0', line),
             r"line 3: key 'diamond': bad value: weighted return -3.0 must be >= 0"),
            (2, lambda line: re.sub(rb'"diamond":[^,]+', b'"diamond":NaN', line),
             r"line 3: key 'diamond': bad value: weighted return nan must be >= 0"),
            (2, lambda line: line.replace(b'"order_pred":null', b'"order_pred":1'),
             r"line 3: key 'order_pred': 1 but R_pred is null$"),
            (7, lambda line: re.sub(rb'"R_pred":\[[^]]*\]', b'"R_pred":null', line.replace(b'"order_pred":1', b'"order_pred":2')),
             r"line 8: key 'order_pred': 2 but R_pred is null$"),
            (7, lambda line: line.replace(b'"order_pred":1', b'"order_pred":null'),
             r"line 8: key 'order_pred': null but R_pred holds a prediction$"),
            (2, lambda line: re.sub(rb'"crossed":\w+', b'"crossed":true', line),
             r"line 3: key 'crossed': true but order_pred is null$"),
        ],
        ids=[
            "non-utf8", "deep nesting", "long int", "huge m", "huge day", "repeated day", "day beyond int64", "string m", "bool f0",
            "float day", "bool day", "float order", "order out of range", "negative order_pred", "bool order_pred",
            "string crossed", "int crossed", "string F", "bool T", "negative diamond", "nan diamond",
            "order_pred without R_pred", "order_pred 2 with R_pred nulled", "R_pred without order_pred",
            "crossed without order_pred",
        ],
    )
    def test_ledger_errors_are_typed(self, tmp_path, written, index, edit, message):
        lines = written[0].splitlines(keepends=True)
        lines[index] = edit(lines[index])
        path = tmp_path / "run.jsonl"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: {message}"):
            read_ledger(path)

    def test_summary_non_utf8_is_typed(self, tmp_path, written):
        path = tmp_path / "summary.csv"
        path.write_bytes(written[1].replace(b"eta", b"\xffta"))
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: "):
            read_summary(path)

    @given(
        which=st.sampled_from([0, 1]),
        kind=st.sampled_from(["flip", "truncate", "nest"]),
        position=st.floats(0.0, 1.0),
        value=st.integers(0, 255),
        depth=st.integers(1, 200_000),
    )
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_damaged_files_raise_only_parse_errors(self, tmp_path, written, which, kind, position, value, depth):
        data = bytearray(written[which])
        at = int(position * (len(data) - 1))
        if kind == "flip":
            data[at] ^= value or 0x80
        elif kind == "truncate":
            del data[at:]
        else:
            data[at:at] = b"[" * depth
        path = tmp_path / ("run.jsonl" if which == 0 else "summary.csv")
        path.write_bytes(bytes(data))
        try:
            (read_ledger if which == 0 else read_summary)(path)
        except ParseError as exc:
            assert str(exc).startswith(f"{path}: ")


class TestSummaryFiles:
    METRICS = {"I_N": 1.23456789012345678, "LI_N": 0.01, "F_N": 1.2, "R_N": 0.009, "eta": 0.75}

    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary(self.METRICS, path)
        back = read_summary(path)
        assert back == self.METRICS

    def test_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary(self.METRICS, path)
        assert path.read_text().splitlines()[0] == "I_N,LI_N,F_N,R_N,eta"

    def test_missing_field_refused(self, tmp_path):
        with pytest.raises(IoError, match="eta"):
            write_summary({k: v for k, v in self.METRICS.items() if k != "eta"}, tmp_path / "s.csv")

    def test_malformed_read(self, tmp_path):
        with pytest.raises(ParseError):
            read_summary(write_text(tmp_path / "s.csv", "a,b\n1,2\n"))

    @pytest.mark.parametrize("field", ["I_N", "LI_N", "F_N", "R_N", "eta"])
    def test_non_float_names_the_field(self, tmp_path, field):
        path = tmp_path / "summary.csv"
        write_summary(self.METRICS, path)
        header, row = path.read_text().splitlines()
        cells = row.split(",")
        cells[header.split(",").index(field)] = "zero"
        write_text(path, f"{header}\n{','.join(cells)}\n")
        with pytest.raises(ParseError, match=f"line 2: field {field}: "):
            read_summary(path)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            write_summary(self.METRICS, tmp_path / "no" / "such" / "dir.csv")


# ---------------------------------------------------------------------------
# The columnar readers and writers against the row-wise oracles.

FLOATS = st.floats(width=64)  # nan, inf and -0.0 included
MUTATION_TOKENS = ["x", "nan", "", "0", "-1"]


def swap_days(lines, ln, other):
    """Swap the day fields of two csv lines in place."""
    a, b = lines[ln].split(","), lines[other].split(",")
    a[0], b[0] = b[0], a[0]
    lines[ln], lines[other] = ",".join(a), ",".join(b)


def mutate(data, text, tokens=MUTATION_TOKENS):
    """One single-cell or single-line mutation of a csv text, drawn from data."""
    lines = text.splitlines()
    body = range(1, len(lines))
    kind = data.draw(st.sampled_from(["cell", "duplicate", "drop", "swap lines", "swap days", "blank", "extra field"]))
    ln, other = data.draw(st.sampled_from(body)), data.draw(st.sampled_from(body))
    if kind == "cell":
        fields = lines[ln].split(",")
        fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(st.sampled_from(tokens))
        lines[ln] = ",".join(fields)
    elif kind == "duplicate":
        lines.insert(data.draw(st.integers(ln + 1, len(lines))), lines[ln])
    elif kind == "drop":
        del lines[ln]
    elif kind == "swap lines":
        lines[ln], lines[other] = lines[other], lines[ln]
    elif kind == "swap days":
        swap_days(lines, ln, other)
    elif kind == "blank":
        lines.insert(ln, "")
    else:
        lines[ln] += ",1"
    return "\n".join(lines) + "\n"


def base_file(tmp_path, kind, m, seed):
    """A small valid rates or returns file."""
    path = tmp_path / f"{kind}.csv"
    quotes = generate_market(SyntheticMarketSpec(m=m, n_days=4, seed=seed, normalize=kind == "returns"))
    if kind == "rates":
        write_rates(quotes, path)
    else:
        write_returns(normalized_returns(quotes), path)
    return path


def outcome(reader, path):
    """What a reader makes of a file: each day's bit pattern, or the error class and message."""
    try:
        items = reader(path)
    except FxfolioError as exc:
        return type(exc), str(exc)
    if isinstance(items, QuoteStack):
        items = [(int(d), (o, c)) for d, o, c in zip(items.days, items.open, items.close)]
    elif isinstance(items, ReturnStack):
        items = [(int(d), (g,)) for d, g in zip(items.days, items.grids)]
    return [(day, len(grids[0]), tuple(g.tobytes() for g in grids)) for day, grids in items]


@st.composite
def raw_ledgers(draw):
    """Ledgers of arbitrary float64 values, parked days, missing predictions and orders."""
    m, n = draw(st.sampled_from([2, 3, 12])), draw(st.integers(1, 4))
    column = lambda elements: np.array(draw(st.lists(elements, min_size=n, max_size=n)))  # noqa: E731
    grid = lambda: draw(hnp.arrays(np.float64, (m, m), elements=FLOATS))  # noqa: E731
    nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.just(-0.0)
    returns = ReturnStack(
        np.arange(1, n + 1), [np.triu(draw(hnp.arrays(np.float64, (m, m), elements=nonneg)), k=1) for _ in range(n)]
    )
    return BacktestLedger(
        m=m,
        f0=draw(FLOATS),
        config={"rule": draw(st.sampled_from(["iitc", "eiitc"])), "gamma": draw(FLOATS), "lags": [1, 0.5], "none": None},
        day=column(st.integers(-(2**63), 2**63 - 1)).astype(np.int64),
        capital=column(FLOATS),
        capital_net=column(FLOATS),
        cost=column(FLOATS),
        ratio=column(FLOATS),
        growth=column(FLOATS),
        parked=column(st.booleans()).astype(bool),
        order_actual=column(st.sampled_from([1, 2])).astype(np.int64),
        order_pred=column(st.sampled_from([-1, 1, 2])).astype(np.int64),
        pred_crossed_segment=column(st.booleans()).astype(bool),
        portfolios=[grid() for _ in range(n)],
        realized=[grid() for _ in range(n)],
        returns=returns,
        predicted=[draw(st.none() | st.builds(grid)) for _ in range(n)],
        next_portfolio=grid(),
    )


LENIENT = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestColumnarFilesAgainstRowwise:
    @given(m=st.sampled_from([2, 3, 12]), n_days=st.integers(2, 5), seed=st.integers(0, 2**32 - 1), normalize=st.booleans())
    @LENIENT
    def test_market_files_are_the_same_bytes(self, tmp_path, m, n_days, seed, normalize):
        quotes = generate_market(SyntheticMarketSpec(m=m, n_days=n_days, seed=seed, normalize=normalize))
        write_rates(quotes, tmp_path / "rates.csv")
        assert (tmp_path / "rates.csv").read_bytes() == oracles.rates_text(quotes).encode()
        returns = normalized_returns(quotes) if normalize else compute_returns(quotes)
        write_returns(returns, tmp_path / "returns.csv")
        assert (tmp_path / "returns.csv").read_bytes() == oracles.returns_text(returns).encode()

    @given(data=st.data(), m=st.sampled_from([2, 3, 12]))
    @LENIENT
    def test_extreme_returns_are_the_same_bytes(self, tmp_path, data, m):
        nonneg = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False) | st.just(-0.0)
        grids = np.stack([
            np.triu(data.draw(hnp.arrays(np.float64, (m, m), elements=nonneg)), k=1)
            for _ in range(data.draw(st.integers(1, 3)))
        ])
        returns = ReturnStack(np.arange(1, len(grids) + 1), grids)
        write_returns(returns, tmp_path / "returns.csv")
        assert (tmp_path / "returns.csv").read_bytes() == oracles.returns_text(returns).encode()

    @given(
        m=st.sampled_from([2, 3, 12]),
        seed=st.integers(0, 2**32 - 1),
        predictor=st.sampled_from(
            [None, LinearPredictor((0.6, 0.4)), PredictorConfig(), PredictorConfig(mpcr=2, mpo=2, adjusted=True)]
        ),
        rule=st.sampled_from(["iitc", "eiitc"]),
        cost=st.sampled_from([0.0, 0.005]),
    )
    @LENIENT
    def test_backtest_ledgers_are_the_same_bytes(self, tmp_path, m, seed, predictor, rule, cost):
        quotes = generate_market(SyntheticMarketSpec(m=m, n_days=8, seed=seed))
        ledger = run_backtest(quotes, predictor=predictor, update=UpdateConfig(rule=rule), costs=CostParams(c=cost))
        write_ledger(ledger, tmp_path / "run.jsonl")
        assert (tmp_path / "run.jsonl").read_bytes() == oracles.ledger_text(ledger).encode()

    @given(ledger=raw_ledgers())
    @LENIENT
    def test_arbitrary_ledgers_are_the_same_bytes(self, tmp_path, ledger):
        write_ledger(ledger, tmp_path / "run.jsonl")
        assert (tmp_path / "run.jsonl").read_bytes() == oracles.ledger_text(ledger).encode()

    @given(data=st.data(), kind=st.sampled_from(["rates", "returns"]), m=st.sampled_from([2, 3]), seed=st.integers(0, 1000))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_files_read_the_same(self, tmp_path, data, kind, m, seed):
        path = base_file(tmp_path, kind, m, seed)
        write_text(path, mutate(data, path.read_text()))
        reader, oracle = (load_rates, oracles.load_rates_rowwise) if kind == "rates" else (read_returns, oracles.read_returns_rowwise)
        assert outcome(reader, path) == outcome(oracle, path)

    # These four of the 576 day swaps of the m=3, seed-185 rates file make pair (1, 2) fire both ways on one day.
    @pytest.mark.parametrize("ln, other", [(4, 10), (6, 12), (10, 4), (12, 6)])
    def test_swapped_days_firing_both_ways_read_the_same(self, tmp_path, ln, other):
        path = base_file(tmp_path, "rates", 3, 185)
        lines = path.read_text().splitlines()
        swap_days(lines, ln, other)
        write_text(path, "\n".join(lines) + "\n")
        got = outcome(load_rates, path)
        assert got == outcome(oracles.load_rates_rowwise, path)
        assert got[0] is InvariantError and "pair (1, 2) fires in both directions" in got[1]

    @pytest.mark.parametrize(
        "old, new, column",
        [
            ("1,2,1,0.7,0.72", "1,2,1,0.7,0.7_2", "column 5 (close_rate): '0.7_2' is not a plain decimal literal"),
            ("1,2,1,0.7,0.72", "1,0_2,1,0.7,0.72", "column 2 (i): '0_2' is not a plain decimal literal"),
            ("1,2,1,0.7,0.72", "1,2,1,0.7,٠.72", "column 5 (close_rate): '٠.72' is not a plain decimal literal"),
        ],
        ids=["float separator", "int separator", "arabic-indic digit"],
    )
    def test_separators_and_non_ascii_digits_are_rejected(self, tmp_path, old, new, column):
        path = write_text(tmp_path / "r.csv", GOOD_RATES.replace(old, new))
        assert len(oracles.load_rates_rowwise(path)) == 2  # a row-wise int/float parse accepted these
        with pytest.raises(ParseError, match=re.escape(f"line 3: {column}")):
            load_rates(path)

    @pytest.mark.parametrize(
        "reader, text",
        [(load_rates, GOOD_RATES), (read_returns, GOOD_RETURNS + "2,1,2,0\n2,2,1,1.3\n")],
        ids=["rates", "returns"],
    )
    def test_days_beyond_int64_are_rejected(self, tmp_path, reader, text):
        path = write_text(tmp_path / "in.csv", text.replace("\n2,", f"\n{2**63},"))
        with pytest.raises(ParseError, match=f"line 4: column 1 \\(day\\): '{2**63}' does not fit in 64 bits"):
            reader(path)

    def test_pair_firing_both_ways_is_rejected(self, tmp_path):
        text = GOOD_RATES.replace("1,1,2,1.4,1.5\n1,2,1,0.7,0.72", "1,1,2,1.10,0.99\n1,2,1,1.00,0.98")
        path = write_text(tmp_path / "r.csv", text)
        assert outcome(load_rates, path) == outcome(oracles.load_rates_rowwise, path)
        with pytest.raises(InvariantError, match=r"r.csv: day 1: pair \(0, 1\) fires in both directions"):
            load_rates(path)

    @pytest.mark.parametrize(
        "reader, text",
        [
            (load_rates, GOOD_RATES + "".join(f"3,{i},{j},1.2,1.1\n3,{j},{i},0.8,0.9\n" for i, j in ((1, 2), (1, 3), (2, 3)))),
            (read_returns, GOOD_RETURNS + "".join(f"2,{i},{j},0\n2,{j},{i},1.1\n" for i, j in ((1, 2), (1, 3), (2, 3)))),
        ],
        ids=["rates", "returns"],
    )
    def test_mixed_currency_counts_are_rejected(self, tmp_path, reader, text):
        path = write_text(tmp_path / "in.csv", text)
        oracle = oracles.load_rates_rowwise if reader is load_rates else oracles.read_returns_rowwise
        assert [len(grids[0]) for _, grids in oracle(path)][-1] == 3
        with pytest.raises(ParseError, match=r"in.csv: day \d: quotes m=3 currencies, but day 1 quotes m=2"):
            reader(path)


class TestMalformedInputThroughTheCli:
    TOKENS = MUTATION_TOKENS + ["1_0", str(2**63), "١", "inf", "1e400", "\"1\"", " "]

    @given(data=st.data(), kind=st.sampled_from(["rates", "returns"]), m=st.sampled_from([2, 3]), seed=st.integers(0, 1000))
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_is_clean(self, tmp_path, capsys, data, kind, m, seed):
        path = base_file(tmp_path, kind, m, seed)
        write_text(path, mutate(data, path.read_text(), self.TOKENS))
        code = cli.main(["backtest", "--input", str(path), "--input-kind", kind, "--predictor", "crossrate", "--L", "2"])
        err = capsys.readouterr().err
        assert code in (cli.EXIT_OK, cli.EXIT_IO), err
        assert err == "" if code == cli.EXIT_OK else err.startswith("io error: ")

    def test_pair_firing_both_ways_exits_1(self, tmp_path, capsys):
        path = write_text(tmp_path / "r.csv", GOOD_RATES.replace("1,1,2,1.4,1.5\n1,2,1,0.7,0.72", "1,1,2,1.10,0.99\n1,2,1,1.00,0.98"))
        assert cli.main(["backtest", "--input", str(path), "--predictor", "none"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"io error: {path}: day 1: pair (0, 1) fires in both directions")

    def test_mixed_currency_counts_exit_1(self, tmp_path, capsys):
        path = write_text(tmp_path / "r.csv", GOOD_RATES.replace("2,1,2,1.45,1.38\n2,2,1,0.71,0.69\n", "".join(
            f"2,{i},{j},1.2,1.1\n2,{j},{i},0.8,0.9\n" for i, j in ((1, 2), (1, 3), (2, 3)))))
        assert cli.main(["backtest", "--input", str(path), "--predictor", "none"]) == cli.EXIT_IO
        assert capsys.readouterr().err.startswith(f"io error: {path}: day 2: quotes m=3 currencies, but day 1 quotes m=2")
