"""Grid functions, weighted Lebesgue norms, and the two-scale norms."""

import math

import numpy as np
import pytest

from morreyemb.norms import (Ball, Complement, GridFunction, _inner_norm,
                             dual_lm_norm, fubini_weight, lm_norm,
                             weighted_lp_norm)
from morreyemb.profiles import PowerProfile, constant, truncated_power
from morreyemb.weights import Side, Weight

INF = math.inf


@pytest.fixture
def unit_weight():
    return Weight(1, constant(1.0))


def indicator(lo, hi, span=(1e-3, 1e3)):
    """Exact indicator of (lo, hi] as a GridFunction with aligned knots."""
    knots = sorted({span[0], max(lo, span[0]), min(hi, span[1]), span[1]})
    mids = np.sqrt(np.array(knots[:-1]) * np.array(knots[1:]))
    values = ((mids > lo) & (mids <= hi)).astype(float)
    return GridFunction(np.array(knots), values)


class TestGridFunction:
    def test_knots_must_ascend(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0, 1.0, 2.0]), np.array([0.0, 0.0]))

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            GridFunction(np.array([1.0, 2.0]), np.array([math.nan]))

    def test_call_outside_support_is_zero(self):
        g = GridFunction(np.array([1.0, 2.0]), np.array([3.0]))
        assert g(0.5) == 0.0
        assert g(1.5) == 3.0
        assert g(2.5) == 0.0

    def test_array_call_matches_scalar_calls(self):
        # values live on (knots[i], knots[i+1]] and vanish outside
        g = GridFunction(np.array([1.0, 2.0, 4.0, 8.0]),
                         np.array([3.0, 0.0, 5.0]))
        rs = np.array([0.5, 1.0, 1.5, 2.0, 2.0 + 1e-12, 3.0, 4.0, 6.0, 8.0,
                       8.0 + 1e-12, 9.0])
        got = g(rs)
        assert isinstance(got, np.ndarray) and got.shape == rs.shape
        assert got.tolist() == [g(float(r)) for r in rs]
        assert got.tolist() == [0.0, 0.0, 3.0, 3.0, 0.0, 0.0, 0.0, 5.0,
                                5.0, 0.0, 0.0]
        assert type(g(1.5)) is float
        assert g(rs.reshape(1, -1)).shape == (1, rs.size)

    def test_csv_round_trip(self, tmp_path):
        g = GridFunction.log_spaced(32, 1e-2, 1e2)
        rng = np.random.default_rng(7)
        g = g.with_values(rng.uniform(0.0, 5.0, 32))
        path = tmp_path / "fn.csv"
        g.to_csv(path)
        assert GridFunction.from_csv(path) == g


class TestWeightedLpNorm:
    def test_indicator_unweighted(self, unit_weight):
        f = indicator(1.0, 2.0)
        # ||chi||_2 over the 1-d annulus: (2 * (2 - 1))^(1/2)
        got = float(weighted_lp_norm(f, 2.0, unit_weight))
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_ball_region(self, unit_weight):
        f = indicator(1.0, 2.0)
        assert float(weighted_lp_norm(f, 1.0, unit_weight, Ball(1.5))) == \
            pytest.approx(1.0, rel=1e-9)
        assert float(weighted_lp_norm(f, 1.0, unit_weight,
                                      Complement(1.5))) == \
            pytest.approx(1.0, rel=1e-9)

    def test_power_weight(self):
        w = Weight(1, PowerProfile(1.0, 1.0))
        f = indicator(1.0, 2.0)
        # 2 * integral_1^2 rho drho = 3
        assert float(weighted_lp_norm(f, 1.0, w)) == pytest.approx(3.0,
                                                                   rel=1e-9)

    def test_sup_norm(self):
        w = Weight(1, PowerProfile(1.0, 1.0))
        f = indicator(1.0, 2.0)
        got = float(weighted_lp_norm(f, INF, w))
        assert got == pytest.approx(2.0, rel=1e-6)


class TestTwoScaleNorms:
    def test_lm_norm_of_indicator(self, unit_weight):
        f = indicator(0.0, 1.0)
        om = truncated_power(1.0, -1.0, 1.0, None)
        # inner ball norm saturates at ||f||_2 for t >= 1;
        # outer: (integral_1^inf ||f||_2^2 t^(-2) dt)^(1/2) = ||f||_2
        want = math.sqrt(2.0 * (1.0 - 1e-3))
        got = float(lm_norm(f, 2.0, 2.0, om, unit_weight))
        assert got == pytest.approx(want, rel=1e-6)

    def test_lm_norm_monotone_in_f(self, unit_weight):
        om = truncated_power(1.0, -1.0, 1.0, None)
        f = indicator(0.0, 1.0)
        g = f.scaled(2.0)
        a = float(lm_norm(f, 2.0, 2.0, om, unit_weight))
        b = float(lm_norm(g, 2.0, 2.0, om, unit_weight))
        assert b == pytest.approx(2.0 * a, rel=1e-9)

    def test_dual_lm_norm_uses_head(self, unit_weight):
        f = indicator(1.0, INF)
        f = indicator(1.0, 1e3)
        om = truncated_power(1.0, 0.0, None, 1.0)  # supported on (0, 1]
        got = float(dual_lm_norm(f, 1.0, 1.0, om, unit_weight))
        # complement norm is constant 2*(1e3 - 1) for t <= 1
        assert got == pytest.approx(2.0 * (1e3 - 1.0), rel=1e-4)


    def test_sup_norms_find_an_interior_maximum(self, unit_weight):
        # f = 1 on (1, 2] in R^1: ||f||_{1,B(0,r)} = 2 (r - 1) there, so
        # r^-3 times it peaks at r = 3/2 with 8/27, and r^2 times the
        # complement norm 2 (2 - r) peaks at r = 4/3 with 64/27
        f = GridFunction([1.0, 2.0], [1.0])
        assert float(lm_norm(f, 1.0, INF, PowerProfile(1.0, -3.0),
                             unit_weight)) == pytest.approx(8.0 / 27.0,
                                                            rel=1e-12)
        assert float(dual_lm_norm(f, 1.0, INF, PowerProfile(1.0, 2.0),
                                  unit_weight)) == pytest.approx(
            64.0 / 27.0, rel=1e-12)

    @pytest.mark.parametrize("z", [10.0, 30.0])
    def test_sup_norm_finds_the_higher_of_two_bumps(self, unit_weight, z):
        # r^-80 times the ball norm peaks inside (1, 1.02] and, higher,
        # inside (1.03, 1.23] near 1.04: a peak about 1% wide, narrower
        # than a step of the scan, which alone read it 11% and 69% low
        f = GridFunction([1.0, 1.02, 1.03, 1.23], [1.0, 0.0, z])
        om = PowerProfile(1.0, -80.0)
        inner = _inner_norm(f, 1.0, unit_weight, Side.BALL)
        rs = np.concatenate([np.geomspace(a, b, 200001)
                             for a, b in zip(f.knots[:-1], f.knots[1:])])
        dense = np.max(om(rs) * inner(rs))
        assert float(lm_norm(f, 1.0, INF, om, unit_weight)) == pytest.approx(
            dense, rel=1e-8)


class TestFubiniWeight:
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_tail_identity(self, p, unit_weight):
        om = PowerProfile(1.0, -2.0 / p)  # tail norms finite
        f = indicator(1.0, 3.0)
        lhs = float(lm_norm(f, p, p, om, unit_weight))
        u = fubini_weight(om, p, unit_weight, "tail")
        rhs = float(weighted_lp_norm(f, p, u))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_head_identity(self, p, unit_weight):
        om = PowerProfile(1.0, -0.5 / p)  # head norms finite
        f = indicator(1.0, 3.0)
        lhs = float(dual_lm_norm(f, p, p, om, unit_weight))
        u = fubini_weight(om, p, unit_weight, "head")
        rhs = float(weighted_lp_norm(f, p, u))
        assert lhs == pytest.approx(rhs, rel=1e-6)
