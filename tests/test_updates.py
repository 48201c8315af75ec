"""Multiplicative tilt updates and the objectives they maximize."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fxfolio.errors import InvalidParams, ZeroDiamond
from fxfolio.market import ReturnMatrix
from fxfolio.portfolio import PortfolioMatrix, gross_return, uniform_portfolio
from fxfolio.updates import eiitc_update, iitc_update, objective_value, tilt, tilts

from oracles import naive_tilt, oracle_masked_tilt, random_portfolio_weights, random_return_entries


def two_pair(w12, w21, day=1):
    return PortfolioMatrix(day=day, weights=np.array([[0.0, w12], [w21, 0.0]]))


def returns(grid, day=1):
    return ReturnMatrix(day=day, entries=np.array(grid, dtype=float))


def random_case(seed, sparse=True):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    realized = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m, sparse=sparse))
    r_pred = ReturnMatrix(day=1, entries=random_return_entries(rng, m, fire_prob=0.9))
    gamma = float(rng.uniform(0.0, 2.0))
    return rng, realized, r_pred, gamma


class TestIitcUpdate:
    def test_pinned_two_pair_value(self):
        # Even split, prediction 1 on one pair only, gamma 1: odds e to 1.
        out = iitc_update(two_pair(0.5, 0.5), returns([[0.0, 1.0], [0.0, 0.0]]), gamma=1.0)
        assert out.weights[0, 1] == pytest.approx(math.e / (math.e + 1.0), abs=1e-15)
        assert out.weights[0, 1] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_zero_gamma_is_identity_after_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            psi = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m, sparse=True))
            r = ReturnMatrix(day=1, entries=random_return_entries(rng, m))
            out = iitc_update(psi, r, gamma=0.0)
            # All tilt factors are exactly one, so only the final
            # renormalization touches the weights.
            np.testing.assert_array_equal(out.weights, psi.weights / psi.weights.sum())
            np.testing.assert_allclose(out.weights, psi.weights, atol=1e-15)
            assert out.day == psi.day + 1

    def test_rejects_negative_gamma(self):
        with pytest.raises(InvalidParams):
            iitc_update(two_pair(0.5, 0.5), returns([[0.0, 1.0], [0.0, 0.0]]), gamma=-0.1)

    def test_rejects_bad_floor(self):
        with pytest.raises(InvalidParams):
            iitc_update(two_pair(0.5, 0.5), returns([[0.0, 1.0], [0.0, 0.0]]), gamma=0.1, support_floor=1.0)

    def test_support_floor_mixes_uniform(self):
        out = iitc_update(two_pair(1.0, 0.0), returns([[0.0, 1.0], [0.0, 0.0]]), gamma=0.5, support_floor=0.1)
        np.testing.assert_allclose(out.weights, [[0.0, 0.95], [0.05, 0.0]], atol=1e-15)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_softmax(self, seed):
        _, realized, r_pred, gamma = random_case(seed)
        out = iitc_update(realized, r_pred, gamma)
        expect = naive_tilt(realized.weights, gamma * r_pred.entries)
        # The oracle tilts dead positions by exp(0); they stay dead anyway.
        np.testing.assert_allclose(out.weights, expect, atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_simplex_and_support_preserved(self, seed):
        _, realized, r_pred, gamma = random_case(seed)
        out = iitc_update(realized, r_pred, gamma)
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.weights[realized.weights == 0.0] == 0.0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_monotone_tilt(self, seed):
        # Whichever live position predicts the higher return gains relative mass.
        _, realized, r_pred, gamma = random_case(seed)
        w, r = realized.weights, r_pred.entries
        out = iitc_update(realized, r_pred, gamma).weights
        live = np.argwhere(w > 0.0)
        for a in range(len(live)):
            for b in range(a + 1, len(live)):
                i, j = live[a]
                k, l = live[b]
                if r[i, j] > r[k, l]:
                    assert out[i, j] * w[k, l] >= out[k, l] * w[i, j] - 1e-12
                elif r[i, j] < r[k, l]:
                    assert out[i, j] * w[k, l] <= out[k, l] * w[i, j] + 1e-12


class TestEiitcUpdate:
    def test_pinned_two_pair_value(self):
        # Same setup but the even split halves the predicted growth to 0.5,
        # doubling the effective tilt: odds e^2 to 1.
        out = eiitc_update(two_pair(0.5, 0.5), returns([[0.0, 1.0], [0.0, 0.0]]), gamma=1.0)
        assert out.weights[0, 1] == pytest.approx(math.e**2 / (math.e**2 + 1.0), abs=1e-15)
        assert out.weights[0, 1] == pytest.approx(0.8807970779778823, abs=1e-15)

    def test_zero_predicted_growth_rejected(self):
        with pytest.raises(ZeroDiamond):
            eiitc_update(two_pair(1.0, 0.0), returns([[0.0, 0.0], [1.2, 0.0]]), gamma=0.5)

    def test_equals_iitc_with_rescaled_gamma(self):
        for seed in range(30):
            _, realized, r_pred, gamma = random_case(seed)
            growth = gross_return(realized, r_pred)
            if growth <= 0.0:
                continue
            a = eiitc_update(realized, r_pred, gamma)
            b = iitc_update(realized, r_pred, gamma / growth)
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-13)

    @given(st.integers(0, 10_000))
    @settings(max_examples=150, deadline=None)
    def test_simplex_and_support_preserved(self, seed):
        _, realized, r_pred, gamma = random_case(seed)
        try:
            out = eiitc_update(realized, r_pred, gamma)
        except ZeroDiamond:
            assert gross_return(realized, r_pred) == 0.0
            return
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.weights[realized.weights == 0.0] == 0.0)


class TestTilt:
    @given(st.integers(0, 10_000), st.sampled_from(["iitc", "eiitc"]), st.sampled_from([0.0, 0.05]))
    @settings(max_examples=100, deadline=None)
    def test_matches_the_typed_updates(self, seed, rule, floor):
        _, realized, r_pred, gamma = random_case(seed)
        out = tilt(rule, realized.weights, r_pred.entries, gamma, floor)
        update = iitc_update if rule == "iitc" else eiitc_update
        try:
            expect = update(realized, r_pred, gamma, floor).weights
        except ZeroDiamond:
            expect = realized.weights
        np.testing.assert_array_equal(out, expect)

    def test_eiitc_keeps_the_drift_at_zero_predicted_growth(self):
        drift = two_pair(1.0, 0.0).weights
        assert tilt("eiitc", drift, np.array([[0.0, 0.0], [1.2, 0.0]]), 0.5, 0.0) is drift

    @given(st.integers(0, 10_000), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_batch_rows_match_tilt(self, seed, rows):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        drift = np.array([random_portfolio_weights(rng, m, sparse=True) for _ in range(rows)])
        pred = random_return_entries(rng, m, fire_prob=0.6)
        eiitc = rng.random(rows) < 0.5
        gamma = rng.choice([0.0, 0.3, 2.0], size=rows)
        floor = rng.choice([0.0, 0.05], size=rows)
        out = tilts(eiitc, drift, pred, gamma, floor)
        for b in range(rows):
            rule = "eiitc" if eiitc[b] else "iitc"
            expect = tilt(rule, drift[b], pred, gamma[b], floor[b]) if gamma[b] > 0.0 else drift[b]
            assert out[b].tobytes() == expect.tobytes()

    # Edges of the masked formula: signed zeros, a rate that underflows to 0
    # (1e-320 / growth), a prediction that is 0 on the whole support, a
    # prediction so much larger off the support that exp would overflow
    # there, and a gamma whose shift overflows.
    MASKED = dict(
        rule=st.sampled_from(["iitc", "eiitc"]),
        gamma=st.sampled_from([1e-320, 5e-324, 0.3, 2.0, 1e308]),
        floor=st.sampled_from([0.0, 0.05, 0.5]),
        off_scale=st.sampled_from([1.0, 1e4]),
        pred_scale=st.sampled_from([1.0, 1e5]),
        signed_zeros=st.booleans(),
        dead_support=st.booleans(),
    )

    @staticmethod
    def masked_case(seed, rows, off_scale, pred_scale, signed_zeros, dead_support):
        """rows drifted grids and one prediction, scaled off and zeroed on the first row's support."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        drift = np.array([random_portfolio_weights(rng, m, sparse=True) for _ in range(rows)])
        pred = random_return_entries(rng, m, fire_prob=0.8) * pred_scale
        support = drift[0] > 0.0
        pred[~support] *= off_scale
        if dead_support:
            pred[support] = 0.0
        if signed_zeros:
            drift[(drift == 0.0) & (rng.random(drift.shape) < 0.5)] = -0.0
            pred[(pred == 0.0) & (rng.random(pred.shape) < 0.5)] = -0.0
        return drift, pred

    @staticmethod
    def outcome(call):
        """The bytes a tilt returns, or the message of the InvalidParams it raises."""
        try:
            return call().tobytes()
        except InvalidParams as exc:
            return str(exc)

    @given(seed=st.integers(0, 10_000), **MASKED)
    @example(seed=0, rule="iitc", gamma=2.0, floor=0.0, off_scale=1e4, pred_scale=1.0, signed_zeros=True, dead_support=False)
    @settings(max_examples=300, deadline=None)
    def test_matches_the_masked_formula(self, seed, rule, gamma, floor, off_scale, pred_scale, signed_zeros, dead_support):
        [drift], pred = self.masked_case(seed, 1, off_scale, pred_scale, signed_zeros, dead_support)
        expect = self.outcome(lambda: oracle_masked_tilt(rule, drift, pred, gamma, floor))
        assert self.outcome(lambda: tilt(rule, drift, pred, gamma, floor)) == expect

    @given(
        seed=st.integers(0, 10_000),
        members=st.lists(st.tuples(MASKED["rule"], st.sampled_from([0.0, 1e-320, 0.3, 2.0, 1e308]), MASKED["floor"]),
                         min_size=1, max_size=5),
        off_scale=MASKED["off_scale"],
        pred_scale=MASKED["pred_scale"],
        signed_zeros=MASKED["signed_zeros"],
        dead_support=MASKED["dead_support"],
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_rows_match_the_masked_formula(self, seed, members, off_scale, pred_scale, signed_zeros, dead_support):
        drift, pred = self.masked_case(seed, len(members), off_scale, pred_scale, signed_zeros, dead_support)
        rules, gammas, floors = zip(*members)
        expect = [
            drift[b].tobytes() if gamma == 0.0 else self.outcome(lambda: oracle_masked_tilt(rule, drift[b], pred, gamma, floor))
            for b, (rule, gamma, floor) in enumerate(members)
        ]
        raised = [e for e in expect if isinstance(e, str)]
        got = self.outcome(
            lambda: tilts(np.array(rules) == "eiitc", drift, pred, np.array(gammas), np.array(floors))
        )
        if raised:
            assert got == raised[0]
        else:
            assert got == b"".join(expect)

    def test_batch_overflow_names_the_row(self):
        drift = np.array([two_pair(0.5, 0.5).weights] * 2)
        with pytest.raises(InvalidParams, match=r"gamma 1e\+308"):
            tilts(np.array([False, True]), drift, np.array([[0.0, 2.5], [0.0, 0.0]]), np.array([0.1, 1e308]), np.zeros(2))

    @pytest.mark.parametrize("update", [iitc_update, eiitc_update])
    def test_overflowing_gamma_is_invalid(self, update):
        # gamma * 2.5 overflows to inf, and exp(inf - inf) would be NaN.
        with pytest.raises(InvalidParams, match=r"gamma 1e\+308"):
            update(two_pair(0.5, 0.5), returns([[0.0, 2.5], [0.0, 0.0]]), gamma=1e308)


class TestObjectiveValue:
    def test_iitc_at_realized_weights(self):
        psi = two_pair(0.5, 0.5)
        r = returns([[0.0, 1.1], [0.0, 0.0]])
        # KL term vanishes at the base point, leaving gamma times the growth.
        assert objective_value("iitc", psi, psi, r, gamma=0.7) == pytest.approx(0.7 * 0.55, abs=1e-12)

    def test_eiitc_at_realized_weights(self):
        psi = two_pair(0.5, 0.5)
        r = returns([[0.0, 1.1], [0.0, 0.0]])
        assert objective_value("eiitc", psi, psi, r, gamma=0.7) == pytest.approx(0.7 * math.log(0.55), abs=1e-12)

    def test_rejects_unknown_rule(self):
        psi = two_pair(0.5, 0.5)
        with pytest.raises(InvalidParams):
            objective_value("softmax", psi, psi, returns([[0.0, 1.0], [0.0, 0.0]]), gamma=0.1)

    @given(st.integers(0, 10_000), st.sampled_from(["iitc", "eiitc"]))
    @settings(max_examples=150, deadline=None)
    def test_update_maximizes_objective(self, seed, rule):
        # The closed-form tilt beats random simplex points and local
        # support-preserving perturbations of itself.
        rng, realized, r_pred, gamma = random_case(seed, sparse=False)
        update = iitc_update if rule == "iitc" else eiitc_update
        try:
            best = update(realized, r_pred, gamma)
        except ZeroDiamond:
            return
        if gross_return(best, r_pred) <= 0.0:
            return
        score = objective_value(rule, best, realized, r_pred, gamma)
        for _ in range(10):
            trial = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, realized.m))
            if rule == "eiitc" and gross_return(trial, r_pred) <= 0.0:
                continue
            assert objective_value(rule, trial, realized, r_pred, gamma) <= score + 1e-9
        for _ in range(10):
            w = best.weights * np.exp(rng.normal(0.0, 0.05, best.weights.shape))
            np.fill_diagonal(w, 0.0)
            trial = PortfolioMatrix(day=1, weights=w / w.sum())
            if rule == "eiitc" and gross_return(trial, r_pred) <= 0.0:
                continue
            assert objective_value(rule, trial, realized, r_pred, gamma) <= score + 1e-9
