"""Portfolio matrices, the pairwise product/growth algebra, and divergences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fxfolio.errors import DimensionMismatch, InvalidM, SupportViolation, ZeroReturn
from fxfolio.market import ReturnMatrix
from fxfolio.portfolio import (
    PortfolioMatrix,
    gross_return,
    l1_distance,
    realized_portfolio,
    relative_entropy,
    uniform_portfolio,
)

from oracles import naive_entropy, naive_l1, random_portfolio_weights, random_return_entries


def portfolio(grid, day=1):
    return PortfolioMatrix(day=day, weights=np.array(grid, dtype=float))


def returns(grid, day=1):
    return ReturnMatrix(day=day, entries=np.array(grid, dtype=float))


def two_pair(w12, w21, day=1):
    return portfolio([[0.0, w12], [w21, 0.0]], day=day)


class TestPortfolioMatrix:
    def test_uniform_weight_value(self):
        psi = uniform_portfolio(4)
        off = ~np.eye(4, dtype=bool)
        assert np.all(psi.weights[off] == 1.0 / 12.0)
        assert np.all(np.diag(psi.weights) == 0.0)

    def test_uniform_rejects_single_currency(self):
        with pytest.raises(InvalidM):
            uniform_portfolio(1)

    def test_sum_tolerance(self):
        two_pair(0.5, 0.5 + 9e-10)  # inside the 1e-9 budget
        with pytest.raises(DimensionMismatch):
            two_pair(0.5, 0.501)

    def test_negative_weight(self):
        with pytest.raises(DimensionMismatch):
            portfolio([[0.0, 1.1], [-0.1, 0.0]])

    def test_diagonal_mass(self):
        with pytest.raises(DimensionMismatch):
            portfolio([[0.5, 0.5], [0.0, 0.0]])

    def test_weights_read_only(self):
        psi = two_pair(0.5, 0.5)
        with pytest.raises(ValueError):
            psi.weights[0, 1] = 0.9


class TestGrossReturn:
    def test_pinned_value(self):
        psi = two_pair(0.5, 0.5)
        assert gross_return(psi, returns([[0.0, 1.2], [0.0, 0.0]])) == pytest.approx(0.6, abs=1e-12)

    def test_matches_hadamard_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(2, 6))
            psi = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m))
            r = ReturnMatrix(day=1, entries=random_return_entries(rng, m))
            assert gross_return(psi, r) == pytest.approx(float((psi.weights * r.entries).sum()), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gross_return(uniform_portfolio(3), returns([[0.0, 1.2], [0.0, 0.0]]))


class TestRealizedPortfolio:
    def test_pinned_three_currency_split(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[0, 2] = 0.5
        psi = PortfolioMatrix(day=1, weights=w)
        r = np.zeros((3, 3))
        r[0, 1], r[0, 2] = 1.2, 0.8
        out = realized_portfolio(psi, ReturnMatrix(day=1, entries=r))
        assert out.weights[0, 1] == pytest.approx(0.6, abs=1e-12)
        assert out.weights[0, 2] == pytest.approx(0.4, abs=1e-12)

    def test_zero_growth_rejected(self):
        psi = two_pair(1.0, 0.0)
        with pytest.raises(ZeroReturn):
            realized_portfolio(psi, returns([[0.0, 0.0], [1.3, 0.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_stays_on_simplex_and_in_support(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 6))
        psi = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m, sparse=True))
        r = ReturnMatrix(day=1, entries=random_return_entries(rng, m, fire_prob=0.9))
        try:
            out = realized_portfolio(psi, r)
        except ZeroReturn:
            assert gross_return(psi, r) == 0.0
            return
        assert out.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(out.weights >= 0.0)
        assert np.all(out.weights[psi.weights == 0.0] == 0.0)


class TestL1Distance:
    def test_pinned_value(self):
        assert l1_distance(two_pair(0.5, 0.5), two_pair(0.25, 0.75)) == pytest.approx(0.5, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        ps = [PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m)) for _ in range(3)]
        a, b, c = ps
        dab = l1_distance(a, b)
        assert dab == pytest.approx(naive_l1(a.weights, b.weights), rel=1e-12)
        assert dab == l1_distance(b, a)
        assert 0.0 <= dab <= 2.0 + 1e-12
        assert l1_distance(a, c) <= dab + l1_distance(b, c) + 1e-12
        assert l1_distance(a, a) == 0.0


class TestRelativeEntropy:
    def test_pinned_value(self):
        d = relative_entropy(two_pair(0.5, 0.5), two_pair(0.25, 0.75))
        assert d == pytest.approx(0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0), abs=1e-12)
        assert d == pytest.approx(0.14384, abs=5e-6)

    def test_zero_on_identical(self):
        psi = two_pair(0.3, 0.7)
        assert relative_entropy(psi, psi) == 0.0

    def test_escaping_support_rejected(self):
        with pytest.raises(SupportViolation):
            relative_entropy(two_pair(0.5, 0.5), two_pair(1.0, 0.0))

    def test_zero_log_zero_dropped(self):
        # Mass missing from the left argument contributes nothing.
        d = relative_entropy(two_pair(1.0, 0.0), two_pair(0.5, 0.5))
        assert d == pytest.approx(math.log(2.0), rel=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        base = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m))
        nxt = PortfolioMatrix(day=1, weights=random_portfolio_weights(rng, m, sparse=True))
        d = relative_entropy(nxt, base)
        assert d >= -1e-15
        assert d == pytest.approx(naive_entropy(nxt.weights, base.weights), rel=1e-10, abs=1e-12)
