"""File formats, seeded generators, and ledger round trips."""

import json

import numpy as np
import pytest

from fxfolio.backtest import LinearPredictor, UpdateConfig, run_backtest
from fxfolio.costs import CostParams
from fxfolio.crossrate import PredictorConfig, cross_rate, order_of, transition_probabilities
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
    InfeasibleTargets,
    InvalidSpec,
    InvariantError,
    IoError,
    NonMonotoneDays,
    ParseError,
)
from fxfolio.market import ReturnMatrix


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
        probs = transition_probabilities(rates)
        assert probs[0] == 1.0

    def test_empirical_masses_near_targets(self):
        # Blocks of 50 resample independently, diluting the in-block
        # same-class mass 0.78 toward 0.5 by one part in fifty.
        spec = SyntheticOrderSpec(
            segment_count=20_000, segment_length=5, masses=(0.39, 0.11, 0.11, 0.39), seed=1
        )
        labels = order_labels(spec, np.random.default_rng(spec.seed))
        paa, pab, pba, pbb = transition_probabilities(segment_rates(labels, 5))
        assert 0.76 <= paa + pbb <= 0.80

    def test_asymmetric_masses_rejected(self):
        spec = SyntheticOrderSpec(segment_count=10, segment_length=5, masses=(0.4, 0.2, 0.1, 0.3), seed=0)
        with pytest.raises(InfeasibleTargets):
            order_labels(spec, np.random.default_rng(0))

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
