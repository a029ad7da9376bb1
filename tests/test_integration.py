"""Half-line quadrature, geometric constants, and Stieltjes integrals."""

import math

import numpy as np
import pytest

from morreyemb.errors import UndefinedStieltjes
from morreyemb.integration import (MonotoneIntegrator, ball_volume,
                                   integrate_halfline, sphere_area,
                                   stieltjes_integral)
from morreyemb.profiles import ExpProfile, FnProfile, PowerProfile

INF = math.inf


@pytest.mark.parametrize("n,volume", [
    (1, 2.0),
    (2, math.pi),
    (3, 4.0 * math.pi / 3.0),
    (4, math.pi ** 2 / 2.0),
])
def test_unit_ball_volume(n, volume):
    assert ball_volume(n, 1.0) == pytest.approx(volume, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sphere_area_consistent_with_volume(n):
    # d/dr vol(B_r) = area(S_r) at r = 1
    assert sphere_area(n) == pytest.approx(n * ball_volume(n, 1.0), rel=1e-14)


def test_halfline_exponential():
    val, err = integrate_halfline(ExpProfile(1.0, -1.0), (0.0, INF))
    assert float(val) == pytest.approx(1.0, rel=1e-9)


def test_halfline_divergent_power():
    val, _ = integrate_halfline(PowerProfile(1.0, -1.0), (1.0, INF))
    assert val.is_inf


def test_halfline_integrable_singularity():
    val, _ = integrate_halfline(PowerProfile(1.0, -0.5), (0.0, 1.0))
    assert float(val) == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.002])
@pytest.mark.parametrize("interval,sign", [((1.0, INF), -1.0),
                                           ((0.0, 1.0), 1.0)])
def test_halfline_slow_power_end(eps, interval, sign):
    # t^(-1 -+ eps) has dyadic ratio 2^(-eps) toward its slow end; the
    # 400-piece budget runs out there and the geometric remainder is added
    val, err = integrate_halfline(
        FnProfile(lambda t: t ** (-1.0 + sign * eps)), interval)
    assert float(val) == pytest.approx(1.0 / eps, rel=1e-9)
    assert abs(float(val) - 1.0 / eps) <= err <= 1e-9 / eps


class TestStieltjes:
    # integrands and integrators take arrays of points
    def test_single_atom_is_exact(self):
        h = MonotoneIntegrator.from_function(
            lambda t: np.where(t < 2.0, 0.0, 5.0), "increasing",
            left=lambda t: np.where(t <= 2.0, 0.0, 5.0),
            right=lambda t: np.where(t < 2.0, 0.0, 5.0),
            jump_points=(2.0,))
        val = stieltjes_integral(lambda t: 4.0, h, (0.0, INF))
        assert float(val) == 20.0

    def test_absolutely_continuous_matches_density(self):
        h = MonotoneIntegrator.from_function(np.exp, "increasing")
        val = stieltjes_integral(lambda t: np.exp(-2.0 * t), h, (0.0, INF))
        # integral of e^(-2t) e^t dt = 1
        assert float(val) == pytest.approx(1.0, rel=1e-6)

    def test_decreasing_integrator(self):
        h = MonotoneIntegrator.from_function(lambda t: 1.0 / t, "decreasing")
        val = stieltjes_integral(np.sqrt, h, (1.0, INF))
        # integral_1^inf sqrt(t) d(-1/t) = integral_1^inf t^(-3/2) dt = 2
        assert float(val) == pytest.approx(2.0, rel=1e-6)

    def test_infinite_integrator_region_requires_vanishing_f(self):
        h = MonotoneIntegrator.from_function(
            lambda t: np.where(t < 1.0, t, INF), "increasing",
            infinite_from=1.0)
        with pytest.raises(UndefinedStieltjes):
            stieltjes_integral(lambda t: 1.0, h, (0.0, INF))

    def test_infinite_region_ok_when_f_vanishes(self):
        h = MonotoneIntegrator.from_function(
            lambda t: np.where(t < 1.0, t, INF), "increasing",
            infinite_from=1.0)
        val = stieltjes_integral(lambda t: np.where(t < 1.0, 1.0, 0.0),
                                 h, (0.0, INF))
        assert float(val) == pytest.approx(1.0, rel=1e-6)

    def test_mixed_atom_and_density(self):
        # h = t on (0,1), jumps by 1 at t=1, then 1 + t
        def h(t):
            return np.where(t < 1.0, t, 1.0 + t)

        hi = MonotoneIntegrator.from_function(
            h, "increasing",
            left=lambda t: np.where(t <= 1.0, t, 1.0 + t),
            right=lambda t: np.where(t < 1.0, t, 1.0 + t),
            jump_points=(1.0,))
        val = stieltjes_integral(lambda t: np.exp(-t), hi, (0.0, INF))
        want = (1.0 - math.exp(-1.0)) + math.exp(-1.0) + math.exp(-1.0)
        assert float(val) == pytest.approx(want, rel=1e-8)

    def test_divergent_is_infinite(self):
        h = MonotoneIntegrator.from_function(lambda t: t, "increasing")
        val = stieltjes_integral(lambda t: 1.0, h, (0.0, INF))
        assert val.is_inf
