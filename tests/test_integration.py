"""Half-line quadrature and its G7-K15 rule, geometric constants, the
ball-slice measure, and Stieltjes integrals."""

import math

import mpmath
import numpy as np
import pytest

from morreyemb import GridFunction, Weight, weighted_lp_norm
from morreyemb.errors import QuadratureFailure, UndefinedStieltjes
from morreyemb.integration import (_G7, _K15, _NODES, MonotoneIntegrator,
                                   ball_integral, ball_volume,
                                   complement_integral, integrate_halfline,
                                   sphere_area, stieltjes_integral)
from morreyemb.profiles import (ExpProfile, FnProfile, PiecewisePowerProfile,
                                PowerProfile, ShiftedPowerProfile)
from morreyemb.weights import (_ball_slice_measure, _off_center_ball_integral,
                               tail_norm)

INF = math.inf


@pytest.mark.parametrize("n,volume", [
    (1, 2.0),
    (2, math.pi),
    (3, 4.0 * math.pi / 3.0),
    (4, math.pi ** 2 / 2.0),
])
def test_unit_ball_volume(n, volume):
    assert ball_volume(n, 1.0) == pytest.approx(volume, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_sphere_area_consistent_with_volume(n):
    # d/dr vol(B_r) = area(S_r) at r = 1
    assert sphere_area(n) == pytest.approx(n * ball_volume(n, 1.0), rel=1e-14,
                                           abs=0.0)


def test_halfline_exponential():
    val, err = integrate_halfline(ExpProfile(1.0, -1.0), (0.0, INF))
    assert float(val) == pytest.approx(1.0, rel=1e-9)


def test_halfline_divergent_power():
    val, _ = integrate_halfline(PowerProfile(1.0, -1.0), (1.0, INF))
    assert val.is_inf


def test_halfline_integrable_singularity():
    val, _ = integrate_halfline(PowerProfile(1.0, -0.5), (0.0, 1.0))
    assert float(val) == pytest.approx(2.0, rel=1e-8)


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.002, 0.001])
@pytest.mark.parametrize("interval,sign", [((1.0, INF), -1.0),
                                           ((0.0, 1.0), 1.0)])
def test_halfline_slow_power_end(eps, interval, sign):
    # t^(-1 -+ eps) has dyadic ratio 2^(-eps) toward its slow end, where
    # the geometric remainder is added, also when the ratio lies within
    # _DIVERGENCE_DELTA of 1 (eps = 0.001)
    val, err = integrate_halfline(
        FnProfile(lambda t: t ** (-1.0 + sign * eps)), interval)
    assert float(val) == pytest.approx(1.0 / eps, rel=1e-9)
    assert abs(float(val) - 1.0 / eps) <= err <= 1e-9 / eps


@pytest.mark.parametrize("eps", [0.05, 0.01, 0.002, 0.001])
def test_slow_tail_norm(eps):
    # the tail norm of t^(-1-eps) over (1, inf) with theta = 1 is 1/eps
    got = float(tail_norm(FnProfile(lambda t: t ** (-1.0 - eps)), 1.0, 1.0))
    assert got == pytest.approx(1.0 / eps, rel=1e-9)


def test_walk_budget_exhausted():
    # at eps = 1e-5 the dyadic budget runs out before the geometric rest is
    # known to tolerance; the stable ratios still give it
    got = float(tail_norm(FnProfile(lambda t: t ** -1.00001), 1.0, 1.0))
    assert got == pytest.approx(1e5, rel=1e-11)
    # an oscillating slow tail has no stable ratios: the walk gives up,
    # carrying the partial sum and its error bound
    with pytest.raises(QuadratureFailure, match="budget exhausted") as exc:
        integrate_halfline(lambda t: t ** -1.01 * (2.0 + np.sin(np.log(t))),
                           (1.0, INF))
    assert exc.value.value == pytest.approx(188.58, abs=0.005)
    assert exc.value.error_bound == pytest.approx(0.125, abs=0.0005)


def test_halfline_power_tail_stops_on_its_ratios(counted):
    # t^(-1.25) has the dyadic ratio 2^(-1/4) exactly: once 8 ratios agree
    # the rest is summed, so the core and the first block of the walk,
    # evaluated in one call, are all it takes
    f, calls = counted(lambda t: t ** -1.25)
    val, _ = integrate_halfline(f, (1.0, INF))
    assert abs(float(val) - 4.0) <= 4e-14
    assert len(calls) <= 2


def test_halfline_drifting_ratios_walk_on():
    # t^(-2) (1 + log t) has dyadic ratios 1/2 (1 + 1/k) to first order:
    # they never agree to 1e-6, so the walk runs until its pieces are small
    val, err = integrate_halfline(lambda t: t ** -2.0 * (1.0 + np.log(t)),
                                  (1.0, INF))
    assert abs(float(val) - 2.0) <= 2e-10
    assert abs(float(val) - 2.0) <= err


@pytest.mark.parametrize("eps", [0.0, 1e-4])
@pytest.mark.parametrize("interval,sign", [((1.0, INF), 1.0),
                                           ((0.0, 1.0), -1.0)])
def test_halfline_borderline_power_end_diverges(eps, interval, sign):
    # 1/t (dyadic ratio 1) and t^(-1 +- 1e-4) toward the end where it
    # grows (ratio 2^(1e-4) > 1) are not geometric tails below 1
    val, err = integrate_halfline(
        FnProfile(lambda t: t ** (-1.0 + sign * eps)), interval)
    assert val.is_inf and math.isinf(err)


# ---------------------------------------------------------------------------
# the G7-K15 rule

@pytest.mark.parametrize("weights,degree", [(_K15, 22), (_G7, 13)])
def test_rule_integrates_polynomials_exactly(weights, degree):
    # K15 is exact through degree 3*7+1 = 22, G7 through 2*7-1 = 13, and
    # neither at the next even degree
    for k in range(degree + 1):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(weights @ _NODES ** k - exact) <= 1e-14, k
    k = degree + 2 - degree % 2
    assert abs(weights @ _NODES ** k - 2.0 / (k + 1)) > 1e-10


def hardy_e_integrand(t):
    """The integrand of case (e) on hardy.e: v(t) times the integral of
    w^-1 over B(0, t) in R^1, v = e^-t, w = (1 + t)^2."""
    return ExpProfile(1.0, -1.0)(t) * ball_integral(
        ShiftedPowerProfile(1.0, 1.0, -2.0), 1, t)


PIECEWISE = PiecewisePowerProfile([0.5, 2.0, 7.0], [(1.0, 0.3), (2.0, -0.5),
                                                    (0.25, 1.0), (40.0, -2.5)])


def piecewise_exact():
    """c (b^e - a^e) / e with e = alpha + 1 on each segment."""
    segs = [(0, "0.5", 1, "0.3"), ("0.5", 2, 2, "-0.5"), (2, 7, "0.25", 1),
            (7, mpmath.inf, 40, "-2.5")]
    total = mpmath.mpf(0)
    for a, b, c, alpha in segs:
        a, b, c, e = (mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(c),
                      mpmath.mpf(alpha) + 1)
        total += c * ((0 if mpmath.isinf(b) else b ** e) - a ** e) / e
    return total


# (integrand, interval, exact value at 30 digits)
with mpmath.workdps(30):
    MPMATH_CASES = {
        "exp": (ExpProfile(1.0, -1.0), (0.0, INF), mpmath.mpf(1)),
        "inverse_sqrt": (FnProfile(lambda t: t ** -0.5), (0.0, 1.0),
                         mpmath.mpf(2)),
        "piecewise": (PIECEWISE, (0.0, INF), piecewise_exact()),
        "slow_tail": (lambda t: t ** -1.01, (1.0, INF), mpmath.mpf(100)),
        "hardy.e": (hardy_e_integrand, (0.0, INF),
                    2 * (1 - mpmath.e * mpmath.e1(1))),
    }


@pytest.mark.parametrize("name", sorted(MPMATH_CASES))
def test_halfline_matches_mpmath(name):
    f, interval, exact = MPMATH_CASES[name]
    val, err = integrate_halfline(f, interval)
    exact = float(exact)
    assert float(val) == pytest.approx(exact, rel=1e-9)
    assert abs(float(val) - exact) <= err


@pytest.mark.parametrize("f, breaks", [
    (lambda t: np.where(t < 1000.0, 1.0, 0.0), (1000.0,)),
    (lambda t: np.where(t > 1e-3, t ** -2.0, 0.0), (1e-3,)),
], ids=["step_down_at_1000", "inverse_square_from_1e-3"])
def test_halfline_core_spans_the_breakpoints(f, breaks):
    # both integrals are 1000; from a core of [1, 2] the walk toward the
    # breakpoint saw its pieces double and read inf
    val, _ = integrate_halfline(f, (0.0, INF), breakpoints=breaks)
    assert float(val) == pytest.approx(1000.0, rel=1e-12, abs=0.0)


def test_halfline_zero_pieces_do_not_stop_a_walk_with_mass_ahead():
    # f = 1 on (0, 1/10) and 0 up to 1: the walk down from the core
    # (1/2, 1) starts on zero pieces, and a loose rest bracket puts mass
    # 1/10 beyond them
    def rest(x, up):
        mass = np.minimum(x, 0.1)
        return (None if up else (0.5 * mass, 2.0 * mass))

    val, _ = integrate_halfline(lambda t: np.where(t < 0.1, 1.0, 0.0),
                                (0.0, 1.0), rest=rest)
    assert float(val) == pytest.approx(0.1, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("prof,norm", [
    (FnProfile(lambda t: 1e-9), lambda g: tail_norm(g, 2.0, 1.0)),
    (FnProfile(lambda t: 1e-18), lambda g: complement_integral(g, 1, 1.0)),
    (FnProfile(lambda t: 1e-20 / t), lambda g: ball_integral(g, 1, 1.0)),
], ids=["constant_tail", "constant_complement", "inverse_ball"])
def test_halfline_negligible_pieces_that_do_not_fall_read_divergence(prof,
                                                                   norm):
    # each first dyadic piece is below the absolute tolerance, but the
    # pieces do not fall: the walk goes on until the ratios read divergence
    assert norm(prof).is_inf


def test_halfline_negligible_pieces_that_fall_stay_finite():
    # t^-2 with coefficient 1e-12 over (1, inf), and t^-3 with coefficient
    # 1e-20 from the breakpoint 5, whose exact integral is 2e-22
    assert float(tail_norm(FnProfile(lambda t: 1e-12 * t ** -2), 1.0,
                           1.0)) == pytest.approx(1e-12, rel=1e-12, abs=0.0)
    cubic = FnProfile(lambda t: 1e-20 * t ** -3, breakpoints=(5.0,))
    assert float(tail_norm(cubic, 1.0, 5.0)) == pytest.approx(
        2e-22, rel=1e-12, abs=0.0)


def test_integrand_error_propagates():
    # an exception is a fault of the integrand, not divergence
    def broken(t):
        raise ValueError("broken integrand")

    with pytest.raises(ValueError, match="broken integrand"):
        integrate_halfline(broken, (0.0, INF))


def test_nan_integrand_raises_naming_the_piece():
    def holed(t):
        return np.where((t > 2.0) & (t < 2.5), math.nan, np.exp(-t))

    with pytest.raises(QuadratureFailure, match=r"\(2, 4\)"):
        integrate_halfline(holed, (0.0, INF))


def test_fn_profile_shell_integral():
    # a FnProfile weight has no closed form; the shell 0.5 < |x| < 2 in R^2
    # of sqrt(r) + 1 / (1 + r) is 2 pi times the integral of r^1.5 and
    # r / (1 + r) over (0.5, 2)
    w = Weight(2, FnProfile(lambda r: r ** 0.5 + 1.0 / (1.0 + r)))
    f = GridFunction([0.5, 2.0], [1.0])
    exact = 2.0 * math.pi * ((2.0 ** 2.5 - 0.5 ** 2.5) / 2.5
                             + 1.5 - math.log(3.0 / 1.5))
    assert float(weighted_lp_norm(f, 1.0, w)) == pytest.approx(exact,
                                                               rel=1e-12,
                                                               abs=0.0)


@pytest.mark.parametrize("n", [3, 4])
def test_ball_slice_cap(n):
    # the sphere |x| = rho cut by B(x0, r), |x0| = d, subtends the polar
    # angle gamma; its measure is rho^(n-1) |S^(n-2)| times the integral of
    # sin^(n-2) over (0, gamma): 1 - cos gamma for n = 3 and
    # gamma / 2 - sin(2 gamma) / 4 for n = 4
    d, r = 1.0, 0.7
    rho = np.array([0.35, 0.6, 1.0, 1.4, 1.69])
    cosg = (rho ** 2 + d ** 2 - r ** 2) / (2.0 * rho * d)
    gamma = np.arccos(cosg)
    cap = 1.0 - cosg if n == 3 else gamma / 2.0 - np.sin(2.0 * gamma) / 4.0
    want = rho ** (n - 1) * sphere_area(n - 1) * cap
    np.testing.assert_allclose(_ball_slice_measure(n, d, r, rho), want,
                               rtol=1e-13)


def _mp_slice(d, r, rho):
    """2 rho gamma in R^2, with the angle from the law of cosines at 40
    digits."""
    with mpmath.workdps(40):
        R, D, Rr = mpmath.mpf(rho), mpmath.mpf(d), mpmath.mpf(r)
        return 2 * R * mpmath.acos((R * R + D * D - Rr * Rr) / (2 * R * D))


@pytest.mark.parametrize("offset", [1e-12, 1e-9, 1e-6])
def test_ball_slice_angle_near_the_edges(offset):
    # a small ball far out: the cosine of the angle is within 1e-4 of +-1
    # on the whole cut, and within offset / r of it next to the edges
    d, r = 10.0, 0.1
    rho = np.array([d - r + offset, d, d + r - offset])
    got = _ball_slice_measure(2, d, r, rho)
    want = [_mp_slice(d, r, x) for x in rho]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-15 * w


def test_off_center_ball_integral_of_root_weight():
    # |x|^(1/2) over B(x0, 0.1), |x0| = 10, in R^2: the integral over
    # (d - r, d + r) of rho^(1/2) times the slice measure 2 rho gamma
    d, r = 10.0, 0.1
    with mpmath.workdps(30):
        want = mpmath.quad(lambda x: mpmath.sqrt(x) * _mp_slice(d, r, x),
                           [d - r, d, d + r])
    got = _off_center_ball_integral(PowerProfile(1.0, 0.5), 2, d, r)
    assert got == pytest.approx(float(want), rel=1e-13, abs=0.0)


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
        # integral of e^(-2t) e^t dt = 1; h has no jumps, so every piece
        # edge reads the evaluator, not a numeric one-sided limit
        assert float(val) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_decreasing_integrator(self):
        h = MonotoneIntegrator.from_function(lambda t: 1.0 / t, "decreasing")
        val = stieltjes_integral(np.sqrt, h, (1.0, INF))
        # integral_1^inf sqrt(t) d(-1/t) = integral_1^inf t^(-3/2) dt = 2
        assert float(val) == pytest.approx(2.0, rel=1e-12, abs=0.0)

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
        assert float(val) == pytest.approx(1.0, rel=1e-11)

    @pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 700.0])
    @pytest.mark.parametrize("direction", ["increasing", "decreasing"])
    def test_integrator_infinite_past_a_sampled_cut(self, direction, c):
        # h = t up to c and inf above (increasing), or 1/t from c on and
        # inf below (decreasing), the cut found by sampling: there is no
        # infinite_from.  f = 1 where h is finite reads c, or 1/c
        up = direction == "increasing"
        finite = (lambda t: t <= c) if up else (lambda t: t >= c)
        h = MonotoneIntegrator.from_function(
            lambda t: np.where(finite(t), t if up else 1.0 / t, INF),
            direction)
        val = stieltjes_integral(lambda t: np.where(finite(t), 1.0, 0.0), h)
        assert float(val) == pytest.approx(c if up else 1.0 / c, rel=1e-11,
                                           abs=0.0)
        with pytest.raises(UndefinedStieltjes):
            stieltjes_integral(lambda t: 1.0, h)

    # the jump at c is the core's lower edge (1), splits one of the dyadic
    # steps that widen the core to span it (3, 0.3), or lies far below or
    # above the seed core (1e-3, 700)
    @pytest.mark.parametrize("c", [1.0, 3.0, 0.3, 1e-3, 700.0])
    def test_mixed_atom_and_density(self, c):
        # h = t on (0, c), jumps by 1 at t = c, then 1 + t
        hi = MonotoneIntegrator.from_function(
            lambda t: np.where(t < c, t, 1.0 + t), "increasing",
            left=lambda t: np.where(t <= c, t, 1.0 + t),
            right=lambda t: np.where(t < c, t, 1.0 + t),
            jump_points=(c,))
        val = stieltjes_integral(lambda t: np.exp(-t), hi, (0.0, INF))
        want = 1.0 + math.exp(-c)
        assert float(val) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_divergent_is_infinite(self):
        h = MonotoneIntegrator.from_function(lambda t: t, "increasing")
        val = stieltjes_integral(lambda t: 1.0, h, (0.0, INF))
        assert val.is_inf
        # toward 0: 1/t against dt on (0, 1)
        val = stieltjes_integral(lambda t: 1.0 / t, h, (0.0, 1.0))
        assert val.is_inf

    def test_nan_sum_raises_naming_the_stage(self):
        # a nan is an integrand fault, never divergence
        h = MonotoneIntegrator.from_function(lambda t: t, "increasing")
        with pytest.raises(QuadratureFailure, match=r"stage \(1, 3\)"):
            stieltjes_integral(
                lambda t: np.where(t > 2.0, math.nan, np.exp(-t)), h,
                (1.0, 3.0))

    def test_nan_at_an_atom_raises_naming_the_point(self):
        # f is nan at the jump of h alone, which no midpoint sum samples
        h = MonotoneIntegrator.from_function(
            lambda t: np.where(t < 2.0, 0.0, 5.0), "increasing",
            left=lambda t: np.where(t <= 2.0, 0.0, 5.0),
            right=lambda t: np.where(t < 2.0, 0.0, 5.0),
            jump_points=(2.0,))
        with pytest.raises(QuadratureFailure, match=r"t = 2\b"):
            stieltjes_integral(
                lambda t: np.where(t == 2.0, math.nan, 4.0), h, (0.0, INF))
