"""Grid functions, weighted Lebesgue norms, and the two-scale norms."""

import math

import mpmath
import numpy as np
import pytest

from morreyemb.norms import (ALL, Ball, Complement, GridFunction,
                             _InnerNorm, dual_lm_norm, fubini_weight,
                             lm_norm, weighted_lp_norm)
from morreyemb.profiles import (PiecewisePowerProfile, PowerProfile, constant,
                                truncated_power)
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

    @pytest.mark.parametrize("p", [1.0, 2.0, INF])
    @pytest.mark.parametrize("t", [3.0, 2.0, 16.0],
                             ids=["in_a_cell", "on_a_knot", "beyond"])
    @pytest.mark.parametrize("kind", ["ball", "complement", "all"])
    def test_ball_region(self, kind, t, p):
        # f = 3, 1, 2 on (1, 2], (2, 4], (4, 8] with v = |x|^-1/2 in R^2:
        # the shell a < |x| < b carries 2 pi (2/3) (b^1.5 - a^1.5) of v,
        # and v's esssup there is a^-1/2
        f = GridFunction([1.0, 2.0, 4.0, 8.0], [3.0, 1.0, 2.0])
        w = Weight(2, PowerProfile(1.0, -0.5))
        lo, hi = {"ball": (0.0, t), "complement": (t, INF),
                  "all": (0.0, INF)}[kind]
        parts = [(c, max(a, lo), min(b, hi)) for a, b, c in
                 zip(f.knots[:-1], f.knots[1:], f.values)]
        parts = [(c, a, b) for c, a, b in parts if a < b]
        if p == INF:
            want = max((c / math.sqrt(a) for c, a, _ in parts), default=0.0)
        else:
            want = sum(c ** p * 2.0 * math.pi * (2.0 / 3.0)
                       * (b ** 1.5 - a ** 1.5) for c, a, b in parts) \
                ** (1.0 / p)
        region = {"ball": Ball(t), "complement": Complement(t),
                  "all": ALL}[kind]
        assert float(weighted_lp_norm(f, p, w, region)) == pytest.approx(
            want, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("top", [(10.0, 0.0), (30.0, -1.0)],
                             ids=["flat", "falling"])
    def test_sup_norms_find_a_spike_of_omega(self, unit_weight, top):
        # omega = 10 (or 30 / t, which tends to 10 at 3+ only) on a cell of
        # width 0.01 beyond the knots of f, next to 1 (0 on its other
        # side), times the whole norm 2 of f = 1 on (1, 2]
        f = GridFunction([1.0, 2.0], [1.0])
        spike = PiecewisePowerProfile([3.0, 3.01], [(1.0, 0.0), top,
                                                    (0.0, 0.0)])
        assert float(lm_norm(f, 1.0, INF, spike, unit_weight)) == 20.0
        spike = PiecewisePowerProfile([0.5, 0.51], [(0.0, 0.0), (10.0, 0.0),
                                                    (1.0, 0.0)])
        assert float(dual_lm_norm(f, 1.0, INF, spike, unit_weight)) == 20.0

    @pytest.mark.parametrize("z", [10.0, 30.0])
    def test_sup_norm_finds_the_higher_of_two_bumps(self, unit_weight, z):
        # r^-80 times the ball norm peaks inside (1, 1.02] and, higher,
        # inside (1.03, 1.23] near 1.04: a peak about 1% wide, narrower
        # than a step of the scan, which alone read it 11% and 69% low
        f = GridFunction([1.0, 1.02, 1.03, 1.23], [1.0, 0.0, z])
        om = PowerProfile(1.0, -80.0)
        inner = _InnerNorm(f, 1.0, unit_weight, Side.BALL)
        rs = np.concatenate([np.geomspace(a, b, 200001)
                             for a, b in zip(f.knots[:-1], f.knots[1:])])
        dense = np.max(om(rs) * inner(rs))
        assert float(lm_norm(f, 1.0, INF, om, unit_weight)) == pytest.approx(
            dense, rel=1e-8)


# f = 3, 1, 2 on (1, 2], (2, 4], (4, 8] with v = |x|^-1/2 in R^2, as in
# test_ball_region
STEPS = GridFunction([1.0, 2.0, 4.0, 8.0], [3.0, 1.0, 2.0])
ROOT_WEIGHT = Weight(2, PowerProfile(1.0, -0.5))


def _fubini(direction, alpha, p):
    """||STEPS||_{p,u} with the weight u of the p = theta Fubini identity,
    a closed-form power, for omega = t^alpha."""
    u = fubini_weight(PowerProfile(1.0, alpha), p, ROOT_WEIGHT, direction)
    return float(weighted_lp_norm(STEPS, p, u))


def _ball_norm_1(r):
    """||STEPS||_{1,v,B(0,r)}: each shell a < |x| < b carries
    2 pi (2/3) (b^1.5 - a^1.5) of v."""
    return sum(c * 2 * mpmath.pi * mpmath.mpf(2) / 3
               * (min(b, r) ** 1.5 - a ** 1.5)
               for a, b, c in zip(STEPS.knots[:-1], STEPS.knots[1:],
                                  STEPS.values) if a < r)


def _mpmath_lm_1_2(alpha):
    """(int (r^alpha ||STEPS||_{1,v,B(0,r)})^2 dr)^(1/2) by mpmath."""
    with mpmath.workdps(30):
        return float(mpmath.sqrt(mpmath.quad(
            lambda r: (r ** alpha * _ball_norm_1(r)) ** 2,
            [1, 2, 4, 8, mpmath.inf])))


class TestFiniteTheta:
    @pytest.mark.parametrize("norm, alpha, p, theta, want", [
        (lm_norm, -1.5, 2.0, 2.0, lambda: _fubini("tail", -1.5, 2.0)),
        (lm_norm, -2.0, 1.0, 1.0, lambda: _fubini("tail", -2.0, 1.0)),
        # omega^2 = t^-1.02 beyond the knots: a slow tail
        (lm_norm, -0.51, 2.0, 2.0, lambda: _fubini("tail", -0.51, 2.0)),
        # omega^2 = t^-0.8 beyond the knots: a divergent tail
        (lm_norm, -0.4, 2.0, 2.0, lambda: INF),
        (lm_norm, -1.5, 1.0, 2.0, lambda: _mpmath_lm_1_2(-1.5)),
        (dual_lm_norm, 0.5, 1.0, 1.0, lambda: _fubini("head", 0.5, 1.0)),
        # omega^2 = t^-0.98 below the knots: a slow head
        (dual_lm_norm, -0.49, 2.0, 2.0, lambda: _fubini("head", -0.49, 2.0)),
        # omega^2 = t^-1.2 below the knots: a divergent head
        (dual_lm_norm, -0.6, 2.0, 2.0, lambda: INF),
    ], ids=["tail", "tail_p1", "slow_tail", "divergent_tail", "mpmath",
            "head", "slow_head", "divergent_head"])
    def test_against_an_independent_value(self, norm, alpha, p, theta,
                                          want):
        got = float(norm(STEPS, p, theta, PowerProfile(1.0, alpha),
                         ROOT_WEIGHT))
        assert got == pytest.approx(want(), rel=1e-12, abs=0.0)


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
