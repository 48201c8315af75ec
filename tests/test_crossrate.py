"""Order labels, cross rates over segments, and the MPCR/MPO predictors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fxfolio.crossrate import (
    FLAT,
    LOWER,
    UPPER,
    PredictorConfig,
    SegmentConfig,
    adjusted_cross_rate,
    cross_rate,
    effectiveness_ratio,
    grid_order,
    grid_orders,
    mpcr_predict,
    mpo_predict,
    nearest_nonzero_day,
    order_of,
    predict_return,
    predicted_references,
    reference_day,
    reference_days,
    referenced_orders,
    segment_cross_rates,
)
from fxfolio.errors import (
    EmptyHistory,
    EmptyRange,
    EmptySequence,
    InsufficientHistory,
    InvalidParams,
    NoPredecessor,
)
from fxfolio.market import ReturnMatrix

from oracles import count_crossings, oracle_grid_order, predictions_day_by_day, random_return_entries


def returns(grid, day=1):
    return ReturnMatrix(day=day, entries=np.array(grid, dtype=float))


def upper_only(value=1.2, day=1):
    return returns([[0.0, value], [0.0, 0.0]], day=day)


def lower_only(value=0.9, day=1):
    return returns([[0.0, 0.0], [value, 0.0]], day=day)


CFG = SegmentConfig(L=5, c_a=0.25, c_b=0.75)


class TestOrderOf:
    def test_unique_upper_max(self):
        assert order_of(upper_only(1.2)) == UPPER

    def test_unique_lower_max(self):
        assert order_of(lower_only(0.9)) == LOWER

    def test_tie_is_flat(self):
        grid = np.zeros((3, 3))
        grid[0, 1] = grid[0, 2] = 1.1
        assert order_of(ReturnMatrix(day=1, entries=grid)) == FLAT

    def test_zero_matrix_is_flat(self):
        assert order_of(returns([[0.0, 0.0], [0.0, 0.0]])) == FLAT

    def test_max_must_be_unique_across_triangles(self):
        grid = np.zeros((3, 3))
        grid[0, 1] = grid[2, 1] = 1.3
        assert order_of(ReturnMatrix(day=1, entries=grid)) == FLAT


class TestGridOrders:
    @given(m=st.integers(2, 4), n=st.integers(0, 8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_order_oracle_day_by_day(self, m, n, data):
        # Few distinct values, so flat days and ties, on and off the diagonal, are common.
        values = st.sampled_from([0.0, -0.0, 0.0, 0.9, 1.1, 1.2])
        stack = data.draw(hnp.arrays(np.float64, (n, m, m), elements=values))
        got = grid_orders(stack)
        assert got.dtype == np.int64
        expected = [oracle_grid_order(g) for g in stack]
        assert got.tolist() == expected
        assert [grid_order(g) for g in stack] == expected

    def test_flat_and_tied_days(self):
        stack = np.zeros((4, 2, 2))
        stack[1, 0, 1] = 1.2
        stack[2, 1, 0] = 1.2
        stack[3, 0, 1] = stack[3, 1, 0] = 1.2
        assert grid_orders(stack).tolist() == [FLAT, UPPER, LOWER, FLAT]


class TestCrossRate:
    def test_hand_counted_segment(self):
        assert cross_rate([1, 1, 2, 1]) == 0.5

    def test_constant_orders(self):
        assert cross_rate([1, 1, 1, 1]) == 0.0

    def test_alternating_with_predecessor(self):
        assert cross_rate([1, 2, 1, 2], prev_order=2) == 1.0

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            cross_rate([])

    @given(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=30), st.sampled_from([None, 0, 1, 2]))
    @settings(max_examples=200)
    def test_matches_oracle_and_range(self, orders, prev):
        w = cross_rate(orders, prev_order=prev)
        crossings, days = count_crossings(orders, prev)
        assert w == crossings / days
        assert 0.0 <= w <= 1.0


class TestNearestNonzeroDay:
    def test_scans_past_flat_day(self):
        assert nearest_nonzero_day([1, 0, 2], 3) == 1

    def test_immediate_predecessor(self):
        assert nearest_nonzero_day([1, 2], 2) == 1

    def test_no_decisive_predecessor(self):
        with pytest.raises(NoPredecessor):
            nearest_nonzero_day([0, 0, 1], 2)


class TestAdjustedCrossRate:
    def test_hand_traced_example(self):
        # Decisive days 1, 3, 5; day 1 has nothing to compare against,
        # days 3 and 5 both cross: 2 crossings over 3 decisive days.
        assert adjusted_cross_rate([1, 0, 2, 0, 1]) == pytest.approx(2.0 / 3.0)

    def test_all_flat_degenerates_to_zero(self):
        assert adjusted_cross_rate([0, 0, 0]) == 0.0

    def test_history_supplies_predecessor(self):
        assert adjusted_cross_rate([2], history=[1]) == 1.0
        assert adjusted_cross_rate([2], history=[2]) == 0.0

    def test_empty_range(self):
        with pytest.raises(EmptyRange):
            adjusted_cross_rate([])

    @given(
        st.lists(st.sampled_from([1, 2]), min_size=1, max_size=20),
        st.lists(st.sampled_from([1, 2]), min_size=0, max_size=5),
    )
    @settings(max_examples=200)
    def test_agrees_with_plain_on_strictly_unequal(self, orders, history):
        prev = history[-1] if history else None
        assert adjusted_cross_rate(orders, history=history) == cross_rate(orders, prev_order=prev)


class TestMpcrPredict:
    def test_persistence_forecast(self):
        assert mpcr_predict(1, [0.6, 0.3], CFG) == 0.3

    def test_anti_persistence_after_high_rate(self):
        assert mpcr_predict(2, [0.7], CFG) == 0.25

    def test_anti_persistence_after_low_rate(self):
        assert mpcr_predict(2, [0.2], CFG) == 0.75

    def test_boundary_half_counts_as_high(self):
        assert mpcr_predict(2, [0.5], CFG) == CFG.c_a

    def test_empty_history(self):
        with pytest.raises(EmptyHistory):
            mpcr_predict(1, [], CFG)

    def test_bad_method(self):
        with pytest.raises(InvalidParams, match="^mpcr must be 1 or 2, got 3$"):
            mpcr_predict(3, [0.4], CFG)


class TestMpoPredict:
    @pytest.mark.parametrize("method", [0, 3])
    def test_bad_method(self, method):
        with pytest.raises(InvalidParams, match=f"^mpo must be 1 or 2, got {method}$"):
            mpo_predict(method, False, 0.8, [1])

    def test_mpo1_flip(self):
        assert mpo_predict(1, False, 0.8, [1]) == 2

    def test_mpo1_persist(self):
        assert mpo_predict(1, False, 0.2, [1]) == 1

    def test_mpo2_reaches_back(self):
        assert mpo_predict(2, False, 0.9, [2, 1]) == 2

    def test_mpo2_persist_uses_latest(self):
        assert mpo_predict(2, False, 0.1, [2, 1]) == 1

    def test_mpo2_flip_needs_two_days(self):
        with pytest.raises(InsufficientHistory):
            mpo_predict(2, False, 0.9, [1])

    def test_boundary_half_flips(self):
        assert mpo_predict(1, False, 0.5, [1]) == 2

    def test_adjusted_skips_flat_days(self):
        assert mpo_predict(1, True, 0.8, [1, 0, 0]) == 2
        assert mpo_predict(2, True, 0.8, [2, 0, 1, 0]) == 2

    def test_adjusted_without_decisive_history(self):
        with pytest.raises(InsufficientHistory):
            mpo_predict(1, True, 0.8, [0, 0])

    def test_empty_history(self):
        with pytest.raises(InsufficientHistory):
            mpo_predict(1, False, 0.8, [])


class TestPredictReturn:
    def test_persistence_returns_latest_verbatim(self):
        r = upper_only(1.3)
        out = predict_return(1, False, 0.2, [r])
        np.testing.assert_array_equal(out.entries, r.entries)

    def test_flip_transposes_latest(self):
        r = upper_only(1.3)
        out = predict_return(1, False, 0.9, [r])
        np.testing.assert_array_equal(out.entries, r.entries.T)

    @given(st.integers(0, 10_000), st.sampled_from([1, 2]), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_consistent_with_order_prediction(self, seed, method, adjusted):
        # Step 3's matrix must carry exactly the order Step 2 called.
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        history = [
            ReturnMatrix(day=d + 1, entries=random_return_entries(rng, m, fire_prob=0.8))
            for d in range(int(rng.integers(1, 8)))
        ]
        orders = [order_of(r) for r in history]
        w_pred = float(rng.random())
        try:
            predicted_order = mpo_predict(method, adjusted, w_pred, orders)
        except InsufficientHistory:
            with pytest.raises(InsufficientHistory):
                predict_return(method, adjusted, w_pred, history)
            return
        out = predict_return(method, adjusted, w_pred, history)
        assert order_of(out) == predicted_order


class TestSuccessStatistics:
    def test_effectiveness_fraction(self):
        assert effectiveness_ratio([True, True, False]) == pytest.approx(2.0 / 3.0)
        assert effectiveness_ratio([True]) == 1.0
        assert effectiveness_ratio([False, False]) == 0.0

    def test_effectiveness_of_an_array_is_a_plain_float(self):
        # Violation lines print it with repr, which would show np.float64(...).
        assert type(effectiveness_ratio(np.array([True, False, False]))) is float

    def test_effectiveness_empty(self):
        with pytest.raises(EmptySequence):
            effectiveness_ratio([])



ORDER_SEQUENCES = st.lists(st.sampled_from([FLAT, UPPER, LOWER]), min_size=1, max_size=40)


class TestOrderRulesOverAHistory:
    """The vectorized rules equal the scalar ones on every prefix, flat days included."""

    @given(ORDER_SEQUENCES, st.sampled_from([1, 2, 5]), st.booleans())
    @settings(max_examples=200)
    def test_segment_cross_rates(self, orders, seg_len, adjusted):
        rates = segment_cross_rates(np.array(orders), seg_len, adjusted)
        expected = []
        for start in range(0, len(orders) // seg_len * seg_len, seg_len):
            seg = orders[start : start + seg_len]
            if adjusted:
                expected.append(adjusted_cross_rate(seg, history=orders[:start]))
            else:
                expected.append(cross_rate(seg, orders[start - 1] if start else None))
        assert rates.tolist() == expected

    @pytest.mark.parametrize("method", [1, 2])
    @pytest.mark.parametrize("adjusted", [False, True])
    @given(orders=ORDER_SEQUENCES, guesses=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=40, max_size=40))
    @settings(max_examples=100)
    def test_reference_days(self, method, adjusted, orders, guesses):
        w_pred = np.array(guesses[: len(orders)])
        ref, swap = reference_days(PredictorConfig(mpo=method, adjusted=adjusted), w_pred >= 0.5, np.array(orders))
        for k in range(len(orders)):
            try:
                day, swapped = reference_day(method, adjusted, float(w_pred[k]), orders[: k + 1])
            except InsufficientHistory:
                assert ref[k] == -1
            else:
                assert (ref[k], bool(swap[k])) == (day - 1, swapped)

    @pytest.mark.parametrize("mpcr", [1, 2])
    @pytest.mark.parametrize("mpo", [1, 2])
    @pytest.mark.parametrize("adjusted", [False, True])
    @pytest.mark.parametrize("seg_len", [1, 2, 5])
    @given(orders=ORDER_SEQUENCES)
    @settings(max_examples=40)
    def test_predicted_references(self, mpcr, mpo, adjusted, seg_len, orders):
        cfg = PredictorConfig(mpcr=mpcr, mpo=mpo, adjusted=adjusted, segment=SegmentConfig(L=seg_len))
        # Order 1 fires (0, 1), order 2 fires (1, 0), a flat day fires nothing.
        grids = np.zeros((len(orders), 2, 2))
        grids[np.array(orders) == UPPER, 0, 1] = 1.2
        grids[np.array(orders) == LOWER, 1, 0] = 1.2
        ref, swap = predicted_references(cfg, np.array(orders))
        called = referenced_orders(np.array(orders), ref, swap)
        for k, (grid, order, _) in enumerate(predictions_day_by_day(grids, cfg)[1:]):
            assert called[k] == order
            if grid is None:
                assert ref[k] == -1
            else:
                assert np.array_equal(grids[ref[k]].T if swap[k] else grids[ref[k]], grid)

class TestConfigValidation:
    def test_segment_bounds(self):
        with pytest.raises(InvalidParams):
            SegmentConfig(L=0)
        with pytest.raises(InvalidParams):
            SegmentConfig(c_a=0.5)
        with pytest.raises(InvalidParams):
            SegmentConfig(c_b=0.4)

    def test_predictor_enums(self):
        with pytest.raises(InvalidParams):
            PredictorConfig(mpcr=3)
        with pytest.raises(InvalidParams):
            PredictorConfig(mpo=0)
