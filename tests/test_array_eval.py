"""Array evaluation: profiles, extended-real products and quotients,
inner norms and the supremum-form functionals give the same numbers on
arrays as on single radii, the integral-form functionals call their
integrands on arrays only, and the Stieltjes callers match exact or mpmath
references."""

import math
import os

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreyemb import (EmbeddingProblem, GridFunction, HardyProblem, Weight,
                       associate_norm, closed_form_constant, constant,
                       embedding_constant, hardy_constant, truncated_power,
                       unweighted_reference)
from morreyemb import embeddings, hardy
from morreyemb.errors import (IndeterminatePower, QuadratureFailure,
                              UndefinedStieltjes)
from morreyemb.extreal import ExtReal, ext_div, ext_mul, ext_pow
from morreyemb.integration import (_profile_integral, ball_integral,
                                   complement_integral)
from morreyemb.norms import _InnerNorm, lm_norm
from morreyemb.profiles import (ExpProfile, FnProfile, PiecewisePowerProfile,
                                PowerProfile, ProductProfile,
                                ShiftedPowerProfile)
from morreyemb.weights import Side, head_norm, lp_norm_interval, tail_norm
from test_acceptance import FINITE_INSTANCES, INFINITE_INSTANCES

INF = math.inf
# numpy's pow, exp and log may differ from libm's by an ulp; an interval
# integral c (b^e - a^e) / e cancels, which scales that up by about
# max(a^e, b^e) / |b^e - a^e|, so integrals are compared over ends at least
# 1% apart with exponents e kept away from 0
RTOL = 1e-13
RTOL_INTEGRAL = 1e-9
SPREAD = 1.01

# ---------------------------------------------------------------------------
# closed-form profiles

coefs = st.one_of(st.sampled_from([0.0, INF, 1.0]),
                  st.floats(0.01, 100.0))
exponents = st.one_of(st.sampled_from([0.0, -1.0, -0.5, 2.0]),
                      st.floats(-4.0, 4.0).filter(
                          lambda a: abs(a + 1.0) > 1e-3))
rates = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
breaks = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4,
                  unique=True).map(sorted)


@st.composite
def piecewise(draw):
    bs = draw(breaks)
    if any(b2 / b1 < SPREAD for b1, b2 in zip(bs, bs[1:])):
        bs = bs[:1]
    segs = [(draw(coefs), draw(exponents)) for _ in range(len(bs) + 1)]
    return PiecewisePowerProfile(bs, segs)


profiles = st.one_of(
    st.builds(PowerProfile, coefs, exponents),
    piecewise(),
    st.builds(ShiftedPowerProfile, st.floats(0.0, 10.0),
              st.floats(0.1, 5.0), exponents),
    st.builds(ExpProfile, st.floats(0.0, 10.0), rates),
)


def radii_for(prof, extra, near=True):
    """0, inf, the breakpoints, points just off them (if near), and the
    extra radii; with near=False the finite positive radii are at least
    SPREAD apart."""
    bs = list(prof.breakpoints())
    if near:
        return np.array(sorted({0.0, INF, *bs, *extra,
                                *(b * (1.0 + s) for b in bs
                                  for s in (-1e-9, 1e-9))}))
    kept = []
    for r in sorted({*bs, *extra}):
        if not kept or r >= SPREAD * kept[-1]:
            kept.append(r)
    return np.array([0.0, *kept, INF])


def check_same(array_result, scalars, rtol=RTOL, atol=0.0):
    assert isinstance(array_result, np.ndarray)
    assert array_result.shape == (len(scalars),)
    np.testing.assert_allclose(array_result, np.array(scalars, dtype=float),
                               rtol=rtol, atol=atol)


radii_lists = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(profiles, radii_lists)
@example(ExpProfile(2.0, 0.0), [1.0])   # rate * rho = 0 * inf at rho = inf
def test_array_call_matches_scalar(prof, extra):
    rs = radii_for(prof, extra)
    assert not np.isnan(prof(rs)).any()
    check_same(prof(rs), [prof(float(r)) for r in rs])
    check_same(prof.right_limit(rs), [prof.right_limit(float(r)) for r in rs])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(profiles, radii_lists, st.floats(1e-3, 1e3))
@example(ExpProfile(1.0, 1e300), [1.0, 1e10], 2.0)   # rate * rho overflows
@example(ExpProfile(2.0, 0.9921875), [715.0], 1.0)   # c * exp(...) overflows
def test_array_integral_and_esssup_match_scalar(prof, extra, pivot):
    for method, rtol, rs in (
            (prof.esssup, RTOL, radii_for(prof, extra)),
            (prof.integral, RTOL_INTEGRAL, radii_for(prof, extra, False))):
        # array start with a fixed end, fixed start with an array end, and
        # both ends arrays
        lows = rs[rs < INF]
        check_same(method(lows, INF), [method(float(a), INF) for a in lows],
                   rtol)
        highs = rs[rs > 0.0]
        check_same(method(0.0, highs),
                   [method(0.0, float(b)) for b in highs], rtol)
        a = rs[rs * SPREAD <= pivot]
        check_same(method(a, pivot), [method(float(x), pivot) for x in a],
                   rtol)
        lo, hi = rs[:-1], rs[1:]
        check_same(method(lo, hi),
                   [method(float(x), float(y)) for x, y in zip(lo, hi)], rtol)
        # an empty interval reads 0, on arrays and on radii
        check_same(method(rs, rs), [method(float(x), float(x)) for x in rs])
        check_same(method(rs, rs), np.zeros(rs.size))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prof,edge", [
    (ExpProfile(2.0, 0.9921875), 715.0),
    (PowerProfile(4.0, 307.8), 10.0),
    (PiecewisePowerProfile([1.0], [(1.0, 0.0), (4.0, 307.8)]), 10.0),
    (ShiftedPowerProfile(4.0, 1.0, 307.8), 9.0),
], ids=["exp", "power", "piecewise_power", "shifted_power"])
def test_closed_forms_overflow_to_inf_without_a_warning(prof, edge):
    # the coefficient times a finite value past the largest float
    assert prof(edge) == INF
    assert prof.esssup(1.0, edge) == INF
    np.testing.assert_array_equal(prof(np.array([1.0, edge]))[1:], [INF])
    np.testing.assert_array_equal(prof.esssup(0.5, np.array([edge])), [INF])


TINY = np.finfo(float).tiny


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(coefs, exponents, st.floats(0.05, 20.0),
       st.floats(-3.0, 3.0).filter(lambda e: abs(e) > 1e-3),
       profiles.filter(lambda p: not 0.0 < getattr(p, "c", 1.0) < TINY),
       radii_lists)
@example(1.0, 0.0, 0.05000000000000001, 1.0,   # breaks one ulp apart
         PiecewisePowerProfile([0.05], [(0.0, 0.0), (1.0, 0.0)]), [1.0])
def test_power_is_the_one_segment_piecewise_power(c, alpha, cut, e, other,
                                                  extra):
    """A power and the same power split at a break read the same, on
    radii and on arrays of them, also after power(e) and times(...).  A
    constant times a shifted-power or exponential profile scales it, where
    the split power multiplies values: the two round alike only down to the
    smallest normal float, so values and coefficients below it are left
    out."""
    whole = PowerProfile(c, alpha)
    halves = PiecewisePowerProfile([cut], [(c, alpha), (c, alpha)])
    for one, two in ((whole, halves), (whole.power(e), halves.power(e)),
                     (whole.times(other), halves.times(other))):
        rs = radii_for(two, extra)
        for method in ("__call__", "right_limit"):
            f, g = getattr(one, method), getattr(two, method)
            check_same(f(rs), [g(float(r)) for r in rs], atol=TINY)
            check_same(g(rs), [f(float(r)) for r in rs], atol=TINY)
        if not (one.closed_form and two.closed_form):
            continue
        for method, rtol, rs in (
                ("esssup", RTOL, rs),
                ("integral", RTOL_INTEGRAL, radii_for(two, extra, False))):
            f, g = getattr(one, method), getattr(two, method)
            lows, highs = rs[rs < INF], rs[rs > 0.0]
            check_same(f(lows, INF), [g(float(a), INF) for a in lows],
                       rtol, TINY)
            check_same(f(0.0, highs), [g(0.0, float(b)) for b in highs],
                       rtol, TINY)
            check_same(g(rs[:-1], rs[1:]),
                       [f(float(a), float(b)) for a, b in zip(rs, rs[1:])],
                       rtol, TINY)


def test_power_products_that_stay_closed_form():
    # a constant times a shifted-power or exponential profile scales it
    for prod in (constant(2.0).times(ExpProfile(1.0, -1.0)),
                 ExpProfile(1.0, -1.0).times(constant(2.0)),
                 constant(2.0).times(ShiftedPowerProfile(1.0, 1.0, -2.0))):
        assert prod.integral(0.0, INF) == pytest.approx(2.0, rel=RTOL,
                                                        abs=0.0)
    # a zero power times anything is the zero power
    zero = PowerProfile(0.0, 0.0).times(FnProfile(lambda r: 1.0 / r))
    assert isinstance(zero, PiecewisePowerProfile)
    assert (zero.breaks, zero.segments) == ([], [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# the one pass of integrals without a closed form: each closed-form kind as an
# evaluator with its breakpoints, and t^2 e^-t as a product that does not
# simplify, against the closed form (mpmath's incomplete gamma for the
# product)

HUMP = ProductProfile(ExpProfile(1.0, -1.0), PowerProfile(1.0, 2.0))


def _hump_integral(a, b):
    return np.array([float(mpmath.gammainc(3, mpmath.mpf(x), mpmath.mpf(y)))
                     for x, y in zip(a, b)])


ONE_PASS = {
    "split_power": PiecewisePowerProfile([2.0], [(1.0, 0.5), (3.0, -2.5)]),
    "truncated_power": truncated_power(2.0, -0.5, 0.5, 8.0),
    "exp": ExpProfile(3.0, -0.7),
    "shifted_power": ShiftedPowerProfile(2.0, 0.5, -3.0),
}


@pytest.mark.parametrize("name", sorted(ONE_PASS) + ["product"])
def test_one_pass_matches_closed_forms(name):
    if name == "product":
        prof, exact = HUMP, _hump_integral
    else:
        closed = ONE_PASS[name]
        prof = FnProfile(closed, closed.breakpoints())
        exact = closed.integral
    bks = np.array(prof.breakpoints())
    t = np.unique(np.concatenate((np.geomspace(1e-3, 1e3, 25), bks,
                                  bks * (1.0 - 1e-9), bks * (1.0 + 1e-9))))
    families = {
        "ball": (np.zeros(t.size), t),
        "complement": (t, np.full(t.size, INF)),
        "cells": (t[:-1], t[1:]),
        "on_breaks": (np.concatenate((0.5 * bks, bks, np.zeros(bks.size),
                                      bks)),
                      np.concatenate((bks, 2.0 * bks, bks,
                                      np.full(bks.size, INF)))),
        "empty": (np.append(t, INF), np.append(t, INF)),
        "whole": (np.zeros(1), np.full(1, INF)),
    }
    # every family alone, and all of them in one call
    families["all"] = tuple(np.concatenate(ends)
                            for ends in zip(*families.values()))
    for a, b in families.values():
        got, want = _profile_integral(prof, a, b), exact(a, b)
        assert got.shape == a.shape
        # below 1e-6 the walks' absolute tolerance governs
        big = want >= 1e-6
        np.testing.assert_allclose(got[big], want[big], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(got[~big], want[~big], rtol=0.0,
                                   atol=1e-13)
        assert not got[a == b].any()


@pytest.mark.parametrize("prof", [FnProfile(lambda t: math.exp(-t)), HUMP],
                         ids=["evaluator", "product"])
def test_one_pass_empty_intervals_and_nan_ends(prof):
    # an empty interval reads 0, as the closed forms do: the complement of
    # the ball of radius inf, scalar or among other radii
    assert complement_integral(prof, 1, INF) == 0.0
    assert complement_integral(prof, 3, INF) == 0.0
    got = complement_integral(prof, 1, np.array([1.0, INF]))
    assert got[0] > 0.0 and got[1] == 0.0
    np.testing.assert_array_equal(
        _profile_integral(prof, np.array([1.0, 2.0]), np.array([1.0, 2.0])),
        [0.0, 0.0])
    # a nan end never reads a number
    for call in (lambda: ball_integral(prof, 1, np.array([1.0, math.nan])),
                 lambda: ball_integral(prof, 1, math.nan),
                 lambda: complement_integral(prof, 1, math.nan),
                 lambda: complement_integral(prof, 2,
                                             np.array([math.nan, 1.0])),
                 lambda: _profile_integral(prof, math.nan, 1.0)):
        with pytest.raises(ValueError):
            call()


def test_one_pass_keeps_a_nan_in_its_own_interval():
    holed = FnProfile(lambda t: math.nan if 2.0 < t < 3.0 else 1.0)
    # the piece (2, 3) between the intervals is skipped
    got = _profile_integral(holed, np.array([1.0, 3.0]), np.array([2.0, 4.0]))
    np.testing.assert_allclose(got, [1.0, 1.0], rtol=1e-15, atol=0.0)
    with pytest.raises(QuadratureFailure,
                       match=r"nan on the piece \(2\.2, 2\.8\)"):
        _profile_integral(holed, np.array([1.0, 2.2]), np.array([2.0, 2.8]))


# ---------------------------------------------------------------------------
# the public scalar boundary: a radius runs on the array path and comes back
# as a float from a profile, as an ExtReal from a norm, an integral or ext_*

SCALAR_PROFILES = [PowerProfile(2.0, -0.5),
                   PiecewisePowerProfile([1.0], [(1.0, -0.5), (2.0, 1.0)]),
                   ShiftedPowerProfile(1.0, 1.0, -2.0), ExpProfile(2.0, -1.0),
                   ProductProfile(PowerProfile(1.0, 1.0),
                                  ShiftedPowerProfile(1.0, 1.0, -3.0)),
                   FnProfile(lambda r: 1.0 / (1.0 + r * r))]


@pytest.mark.parametrize("prof", SCALAR_PROFILES,
                         ids=lambda prof: type(prof).__name__)
def test_public_scalar_boundary(prof):
    for got in (prof(0.5), prof.esssup(0.5, 2.0), prof.right_limit(1.0)):
        assert type(got) is float
    if prof.closed_form:
        assert type(prof.integral(0.5, 2.0)) is float
    for got in (tail_norm(prof, 2.0, 0.5), head_norm(prof, 2.0, 0.5),
                lp_norm_interval(prof, INF, (0.5, 2.0)),
                ball_integral(prof, 2, 1.0),
                Side.BALL.region_norm(prof, INF, 1, 1.0),
                ext_mul(2.0, 3.0), ext_div(2.0, 3.0), ext_pow(2.0, 3.0)):
        assert type(got) is ExtReal


def test_scalar_conventions():
    assert ext_mul(0.0, INF) == ExtReal(0.0)
    assert ext_mul(INF, ExtReal(0.0)) == ExtReal(0.0)
    assert ext_div(0.0, 0.0) == ExtReal(0.0)
    assert ext_div(ExtReal(0.0), ExtReal(0.0)) == ExtReal(0.0)
    assert ext_pow(0.0, -1.0) == ExtReal(INF)
    with pytest.raises(IndeterminatePower):
        ext_pow(0.0, 0.0)


# ---------------------------------------------------------------------------
# extended-real products and quotients

ext_values = st.one_of(st.sampled_from([0.0, 1.0, INF]),
                       st.floats(0.0, 1e300), st.floats(1e-300, 1e-3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(ext_values, ext_values), min_size=1, max_size=8),
       st.sampled_from([math.nan, -1.0, -INF, -1e-300]), st.integers(0, 7))
@example([(0.0, INF), (INF, 0.0), (0.0, 0.0), (3.0, INF), (2.0, 0.0),
          (INF, INF), (1e300, 1e300), (1e300, 1e-300)], math.nan, 0)
def test_array_ext_mul_and_div_match_scalar(pairs, bad, k):
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    for op in (ext_mul, ext_div):
        # array with array, array with an ExtReal, float with array
        for got, want in (
                (op(a, b), [op(x, y) for x, y in pairs]),
                (op(a, ExtReal(b[0])), [op(x, b[0]) for x in a]),
                (op(float(a[0]), b), [op(a[0], y) for y in b])):
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, [float(w) for w in want])
        # a nan or negative entry anywhere raises, as in ExtReal
        for x, y in ((a.copy(), b), (b.copy(), a)):
            x[k % len(x)] = bad
            with pytest.raises(ValueError):
                op(x, y)
            with pytest.raises(ValueError):
                op(y, x)
        with pytest.raises(ValueError):
            op(a, bad)


# ---------------------------------------------------------------------------
# inner norms of grid functions


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("p", [1.0, 2.5, INF])
@pytest.mark.parametrize("v", [constant(1.0), PowerProfile(2.0, -0.5)])
def test_inner_norm_array_lookup_matches_scalar(side, p, v):
    knots = np.geomspace(0.1, 10.0, 9)
    values = np.array([1.0, 0.0, 2.0, 0.5, 0.0, 3.0, 1.5, 0.25])
    f = GridFunction(knots, values)
    ev = _InnerNorm(f, p, Weight(2, v), side)
    mids = np.sqrt(knots[:-1] * knots[1:])
    rs = np.concatenate([[0.0, 1e-3, 0.1 * (1 - 1e-12)], knots, mids,
                         [10.0 * (1 + 1e-12), 1e3, INF]])
    check_same(ev(rs), [ev(float(r)) for r in rs])
    # all of R^n at the other side's end, for either side
    other = _InnerNorm(f, p, Weight(2, v), side.other)
    assert ev(side.other.end) == other(side.end) > 0.0


# ---------------------------------------------------------------------------
# the Stieltjes callers against references independent of the library: an
# exact form where one is derived, else mpmath quadrature of the defining
# density integral

ONE = Weight(1, constant(1.0))
F16 = GridFunction(np.geomspace(1e-2, 1e2, 16), np.exp(np.sin(np.arange(15.0))))
F17 = GridFunction(np.geomspace(1e-2, 1e2, 17), np.exp(np.sin(np.arange(16.0))))
DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "bench", "data")


def split(left, right):
    return PiecewisePowerProfile([1.0], [left, right])


def grid_mass(f, pp, ball, power=1):
    """t -> (int |f|^p')^power over the ball B_t (ball) or its complement
    in R^1, with weight 1, in mpmath."""
    cells = [(mpmath.mpf(a), mpmath.mpf(b), 2 * mpmath.mpf(v) ** pp)
             for a, b, v in zip(f.knots[:-1], f.knots[1:], f.values)]

    def mass(t):
        total = mpmath.mpf(0)
        for a, b, dens in cells:
            lo, hi = (a, min(b, t)) if ball else (max(a, t), b)
            total += dens * max(hi - lo, 0)
        return total ** power
    return mass


def density_reference(f, T, omega, theta, rho, points):
    """(integral of f against |d T^(-rho/theta)|)^(1/rho) by mpmath
    quadrature between the points, with |dT| = omega^theta dt: the main
    term of a Stieltjes caller whose boundary term is 0, T(t) being the
    theta-th power of the outer norm of omega at t."""
    theta, rho = mpmath.mpf(theta), mpmath.mpf(rho)
    with mpmath.workdps(30):
        main = mpmath.quad(lambda t: f(t) * rho / theta
                           * T(t) ** (-rho / theta - 1) * omega(t) ** theta,
                           [mpmath.mpf(x) for x in points])
        return float(main ** (1 / rho))


def lm_inverse_power_exact(f, p, theta):
    """Associate norm of kind "lm" with omega = 1/r and v = 1 on R^1,
    1 < theta <= inf, exactly.  ||omega||_{theta,(t,inf)}^(-theta') = c t
    with c = (theta - 1)^(1/(theta - 1)) (c = 1 and theta' = 1 for
    theta = inf), and the whole norm of omega is infinite, so the norm is
    (c int_0^inf S(t)^m dt)^(1/theta') with m = theta'/p' and
    S(t) = int_{|x| > t} |f|^p'.  Below the first knot S is the whole
    mass; on a cell (a, b) with value v it falls linearly with slope
    2 v^p', and S^m integrates to
    (S(a)^(m+1) - S(b)^(m+1)) / (2 v^p' (m + 1))."""
    with mpmath.workdps(40):
        pp = mpmath.mpf(p) / (p - 1)
        if math.isinf(theta):
            tp = c = mpmath.mpf(1)
        else:
            tp = mpmath.mpf(theta) / (theta - 1)
            c = mpmath.mpf(theta - 1) ** (1 / mpmath.mpf(theta - 1))
        m = tp / pp
        mass = grid_mass(f, pp, ball=False)
        total = f.knots[0] * mass(0) ** m
        for a, b, v in zip(f.knots[:-1], f.knots[1:], f.values):
            slope = 2 * mpmath.mpf(v) ** pp
            lo, hi = mass(mpmath.mpf(a)), mass(mpmath.mpf(b))
            total += (lo ** (m + 1) - hi ** (m + 1)) / (slope * (m + 1))
        return float((c * total) ** (1 / tp))


def theta_inf_reference(f, parts, knots, atoms=()):
    """The main term of a theta = inf Stieltjes caller with rho = 1 and a
    boundary term 0, by mpmath: f against h, where h has the density
    dens on each (a, b, dens) of parts and the atoms (t, mass), with the
    knots as extra quadrature points."""
    with mpmath.workdps(30):
        total = sum(f(mpmath.mpf(t)) * mass for t, mass in atoms)
        for a, b, dens in parts:
            pts = sorted({a, b} | {k for k in knots if a < k < b})
            total += mpmath.quad(lambda t: f(t) * dens(t),
                                 [mpmath.mpf(x) for x in pts])
        return float(total)


def sup_beyond(f):
    """t -> esssup of f over |x| > t."""
    return lambda t: max([v for b, v in zip(f.knots[1:], f.values) if b > t],
                         default=0.0)


def reverse_complement_reference():
    """reverse_complement, p = 1/2, q = 2, u = t^(1/2), w = t | t^(-3) split
    at 1: r = 2/3, the ball integral of w is t^2 below 1 and 2 - t^(-2)
    above, and h = (t^2 / 2)^(-1/3); the whole norm of u is infinite."""
    with mpmath.workdps(30):
        r = mpmath.mpf(2) / 3
        tail = mpmath.quad(lambda t: (2 - t ** -2) ** r * t ** (-r - 1),
                           [1, mpmath.inf])
        return float((r * mpmath.cbrt(2) * (mpmath.mpf(3) / 2 + tail))
                     ** (1 / r))


# (caller, reference): each test id keeps the value it pinned when the
# callers summed Riemann-Stieltjes stages, good to about 1e-8; CHANGES.md
# lists each old -> new value.
STIELTJES_CALLERS = [
    pytest.param(
        lambda: associate_norm(F17, "lm", 2.0, 3.0, PowerProfile(1.0, -1.0),
                               ONE),
        lambda: lm_inverse_power_exact(F17, 2.0, 3.0),
        id="<lambda>-542.739756133531"),
    # T = t (head norm of 1), F^2 the ball mass
    pytest.param(
        lambda: associate_norm(F17, "dual_lm", 2.0, 3.0, constant(1.0), ONE),
        lambda: density_reference(
            grid_mass(F17, 2, ball=True, power=0.75), lambda t: t,
            lambda t: 1, 3, 1.5, [0, *F17.knots, mpmath.inf]),
        id="<lambda>-10.188299358193458"),
    # p = 1: F = esssup of f beyond t and h = t, so the norm is the square
    # root of knots[0] max(f)^2 plus the cells' widths times F^2
    pytest.param(
        lambda: associate_norm(F17, "lm", 1.0, 2.0, PowerProfile(1.0, -1.0),
                               ONE),
        lambda: math.sqrt(F17.knots[0] * sup_beyond(F17)(0.0) ** 2 + sum(
            (b - a) * sup_beyond(F17)(a) ** 2
            for a, b in zip(F17.knots[:-1], F17.knots[1:]))),
        id="<lambda>-23.842542546785243"),
    # the tail esssup of omega is t^(-1/2) below 1/4, 2 up to 1 and 2/t
    # above, so h = 1/N is continuous with density 1/(2 sqrt(t)), 0 and
    # 1/2 there; F^3 the complement mass, and the whole norm of omega is
    # infinite
    pytest.param(
        lambda: associate_norm(F16, "lm", 1.5, INF,
                               split((1.0, -0.5), (2.0, -1.0)), ONE),
        lambda: theta_inf_reference(
            grid_mass(F16, 3, ball=False, power=mpmath.mpf(1) / 3),
            [(0.0, 0.25, lambda t: 1 / (2 * mpmath.sqrt(t))),
             (1.0, 100.0, lambda t: mpmath.mpf(1) / 2)], F16.knots),
        id="<lambda>-545.9775902105794"),
    # omega^3 = t^(3/2) | 8 integrates to T = t^(5/2) / (5/2) below 1 and
    # 2/5 + 8 (t - 1) above; F^3 the ball mass
    pytest.param(
        lambda: associate_norm(F16, "dual_lm", 1.5, 3.0,
                               split((1.0, 0.5), (2.0, 0.0)), ONE),
        lambda: density_reference(
            grid_mass(F16, 3, ball=True, power=0.5),
            lambda t: t ** 2.5 / 2.5 if t <= 1 else 0.4 + 8 * (t - 1),
            lambda t: mpmath.sqrt(t) if t < 1 else 2, 3, 1.5,
            sorted({0.0, 1.0, *F16.knots}) + [mpmath.inf]),
        id="<lambda>-32.27311792211255"),
    # rho = 2, f = 2 (8/7 - t) below 1 and 2 t^(-7) / 7 above, h = 5 t^5:
    # 65/21 + 75/21 = 20/3
    pytest.param(
        lambda: embedding_constant(EmbeddingProblem(
            "lm_to_lebesgue", 1, 1.0, 2.0, 2.0,
            Weight(1, split((1.0, 0.0), (1.0, -4.0))), ONE,
            PowerProfile(1.0, -3.0))),
        lambda: math.sqrt(20.0 / 3.0),
        id="<lambda>-2.5819888947018264"),
    # rho = 3/2, f = 1 below 1 and t^(-6) above, h = 8^(1/2) t^4: the main
    # term is 6 sqrt(2), whose 2/3 power is 72^(1/3)
    pytest.param(
        lambda: embedding_constant(EmbeddingProblem(
            "lm_to_lebesgue", 2, 1.0, 1.0, 3.0,
            Weight(2, split((1.0, 0.0), (1.0, -4.0))), Weight(2, constant(1.0)),
            PowerProfile(1.0, -3.0))),
        lambda: 72.0 ** (1.0 / 3.0),
        id="<lambda>-4.160167638701828"),
    # rho = 3/2, f = t^3 below 1 and 1 above, h = t^(-1/2): 1/5 + 1
    pytest.param(
        lambda: embedding_constant(EmbeddingProblem(
            "dual_lm_to_lebesgue", 1, 1.0, 1.0, 3.0,
            Weight(1, split((1.0, 2.0), (1.0, -2.0))), ONE, constant(1.0))),
        lambda: 1.2 ** (2.0 / 3.0),
        id="<lambda>-1.1292432276117421"),
    # r = 2/3, f = (1 + t)^(-4/3), h = 3^(1/3) (1 + t): main term 9,
    # boundary term 1 / (1/3)^(1/2)
    pytest.param(
        lambda: hardy_constant(HardyProblem(
            "reverse", 0.5, 2.0, ShiftedPowerProfile(1.0, 1.0, -2.0),
            Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0)))),
        lambda: 9.0 + math.sqrt(3.0),
        id="<lambda>-10.732050799425759"),
    pytest.param(
        lambda: hardy_constant(HardyProblem(
            "reverse_complement", 0.5, 2.0, PowerProfile(1.0, 0.5),
            Weight(1, split((1.0, 1.0), (1.0, -3.0))))),
        reverse_complement_reference,
        id="<lambda>-5.415112831634192"),
    # r = p = 1/2 and h = t^(-1/4): below 1, f = t gives 1/3; above,
    # f = (2 - t^(-2))^(1/2) against t^(-5/4) / 4 becomes, with
    # t = s^(-4), the integral of (2 - s^8)^(1/2) over (0, 1)
    pytest.param(
        lambda: hardy_constant(HardyProblem(
            "reverse_complement", 0.5, INF, PowerProfile(1.0, 0.5),
            Weight(1, split((1.0, 1.0), (1.0, -3.0))))),
        lambda: float((mpmath.mpf(1) / 3 + mpmath.quad(
            lambda s: mpmath.sqrt(2 - s ** 8), [0, 1])) ** 2),
        id="<lambda>-2.907275042963404"),
]


@pytest.mark.parametrize("value, reference", STIELTJES_CALLERS)
def test_stieltjes_callers_match_recorded(value, reference):
    assert float(value()) == pytest.approx(reference(), rel=1e-12, abs=0.0)


def fubini_dual_norm(f, p, beta):
    """theta = p, kind "lm", omega = r^beta, v = 1 on R^1: the associate
    norm is ||f||_{p', u^{1-p'}} with u(r) = r^e / (-e), e = beta p + 1;
    every cell integrates in closed form."""
    pp = p / (p - 1.0)
    e = beta * p + 1.0
    g = e * (1.0 - pp) + 1.0
    total = sum(2.0 * v ** pp * (-e) ** (pp - 1.0) * (b ** g - a ** g) / g
                for a, b, v in zip(f.knots[:-1], f.knots[1:], f.values))
    return total ** (1.0 / pp)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_associate_norm_at_theta_p_is_fubini_dual_norm(p):
    got = float(associate_norm(F17, "lm", p, p, PowerProfile(1.0, -1.0), ONE))
    assert got == pytest.approx(fubini_dual_norm(F17, p, -1.0), rel=1e-12,
                                abs=0.0)


@pytest.mark.parametrize("theta", [2.0, 3.0, 5.0, INF])
def test_associate_lm_inverse_power_on_the_bench_grid(theta):
    f = GridFunction.from_csv(os.path.join(DATA, "f_32.csv"))
    got = float(associate_norm(f, "lm", 2.0, theta, PowerProfile(1.0, -1.0),
                               ONE))
    assert got == pytest.approx(lm_inverse_power_exact(f, 2.0, theta),
                                rel=1e-12, abs=0.0)


@pytest.mark.parametrize("direction, v1, omega, exact", [
    ("lm_to_lebesgue", split((1.0, 0.0), (1.0, -4.0)),
     PowerProfile(1.0, -3.0), math.sqrt(40.0 / 3.0)),
    ("dual_lm_to_lebesgue", split((1.0, 2.0), (1.0, -2.0)),
     constant(1.0), 2.0 / math.sqrt(3.0)),
])
def test_morrey_source_case_b_exact(direction, v1, omega, exact):
    prob = EmbeddingProblem(direction, 1, 1.0, 1.0, 2.0, Weight(1, v1), ONE,
                            omega)
    assert float(embedding_constant(prob)) == pytest.approx(exact, rel=1e-12,
                                                            abs=0.0)


def test_dual_associate_at_theta_inf_across_a_jump_of_h():
    # the head esssup of omega = t^(1/2) | 2 t^(1/2) is omega itself, so
    # h = 1/N has the density t^(-3/2) / 2 below 1 and t^(-3/2) / 4 above,
    # and falls by 1/2 at t = 1; F^2 is the ball mass, which vanishes at
    # the first knot, and the whole norm of omega is infinite
    f = grid_mass(F17, 2, ball=True, power=mpmath.mpf(1) / 2)
    got = associate_norm(F17, "dual_lm", 2.0, INF,
                         split((1.0, 0.5), (2.0, 0.5)), ONE)
    want = theta_inf_reference(
        f, [(0.0, 1.0, lambda t: t ** -1.5 / 2),
            (1.0, mpmath.inf, lambda t: t ** -1.5 / 4)],
        F17.knots, atoms=[(1.0, mpmath.mpf(1) / 2)])
    assert float(got) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_morrey_source_case_b_at_theta_inf():
    # rho = p1 = 1 and sigma = 2: f = (2 (8/7 - t))^(1/2) below 1 and
    # (2/7)^(1/2) t^(-7/2) above, against h = t^3; above 1 the integral is
    # 6 (2/7)^(1/2)
    prob = EmbeddingProblem("lm_to_lebesgue", 1, 1.0, 2.0, INF,
                            Weight(1, split((1.0, 0.0), (1.0, -4.0))), ONE,
                            PowerProfile(1.0, -3.0))
    with mpmath.workdps(30):
        want = float(mpmath.quad(
            lambda t: mpmath.sqrt(2 * (mpmath.mpf(8) / 7 - t)) * 3 * t ** 2,
            [0, 1]) + 6 * mpmath.sqrt(mpmath.mpf(2) / 7))
    assert float(embedding_constant(prob)) == pytest.approx(want, rel=1e-12,
                                                            abs=0.0)


def test_reverse_at_q_inf_exact():
    # p = 1/2, q = inf: r = 1/2, h = 1/N^(1/2) = 1 + t with h(0+) = 1,
    # f = ((1 + t)^(-4) / 2)^(1/2), so the main term is 1/sqrt(2), and the
    # boundary term is the whole norm of w, 1/2: 1/2 + 1/2
    prob = HardyProblem("reverse", 0.5, INF,
                        ShiftedPowerProfile(1.0, 1.0, -2.0),
                        Weight(1, ShiftedPowerProfile(1.0, 1.0, -5.0)))
    assert float(hardy_constant(prob)) == pytest.approx(1.0, rel=1e-12,
                                                        abs=0.0)


def test_reverse_slow_end_is_bracketed():
    # u = t^(-1/2) | t^(-2), w = t | t^(-2) split at 1, p = 1, q = 2: below
    # 1, h(t) = 1 / (log(1/t) + 1/3) falls to h(0+) = 0 like 1 / log and f
    # is 1, its limit; above, f = t^(-4) against h = 3 t^3, so the main
    # term is 3 + 9
    prob = HardyProblem("reverse", 1.0, 2.0, split((1.0, -0.5), (1.0, -2.0)),
                        Weight(1, split((1.0, 1.0), (1.0, -2.0))))
    assert float(hardy_constant(prob)) == pytest.approx(math.sqrt(12.0),
                                                        rel=1e-12, abs=0.0)


# theta = inf: h = N^(-rho) with N a running esssup has the density
# rho h |(log omega)'| where N follows omega, none where N is flat, and
# atoms at omega's jumps

# u = 1/t | 5/t: N = 1/t below 1/5, 5 up to 1 and 5/t beyond, so h = 1/N
# is t, then flat at 1/5, then t/5, with no atom at 1
FLAT_U = split((1.0, -1.0), (5.0, -1.0))


def test_exact_two_reads_two():
    # p = 1, q = inf, u = e^(-t), w = e^(-2t): f = e^(-2t) against
    # h = e^t gives 1, and the boundary term is 1
    prob = HardyProblem("reverse", 1.0, INF, ExpProfile(1.0, -1.0),
                        Weight(1, ExpProfile(1.0, -2.0)))
    assert float(hardy_constant(prob)) == pytest.approx(2.0, rel=1e-12,
                                                        abs=0.0)


def test_reverse_across_a_flat_stretch_of_the_outer_norm():
    # p = 1, q = inf, w = e^(-2t): f = e^(-2t) against h, where the walk
    # toward 0 starts on the flat stretch (1/5, 1) of h
    prob = HardyProblem("reverse", 1.0, INF, FLAT_U,
                        Weight(1, ExpProfile(1.0, -2.0)))
    want = (1.0 - math.exp(-0.4)) / 2.0 + math.exp(-2.0) / 10.0
    assert float(hardy_constant(prob)) == pytest.approx(want, rel=1e-12,
                                                        abs=0.0)


def test_morrey_source_p1_eq_p2_at_theta_inf_across_a_flat_stretch():
    # rho = 2, sigma = inf: f = 1 up to 2 and t^(-3) beyond, against
    # h = t^2, flat 1/25 on (1/5, 1), then t^2 / 25: 1/25 + 3/25 + 1/25
    prob = EmbeddingProblem("lm_to_lebesgue", 1, 2.0, 2.0, INF,
                            Weight(1, PiecewisePowerProfile(
                                [2.0], [(1.0, 0.0), (1.0, -3.0)])),
                            ONE, FLAT_U)
    assert float(embedding_constant(prob)) == pytest.approx(
        1.0 / math.sqrt(5.0), rel=1e-12, abs=0.0)


# omega = 1/t | 1/(2t): N = omega, h = 1/N is t below 1 and 2t above, with
# an atom 1 at 1
JUMP_OMEGA = split((1.0, -1.0), (0.5, -1.0))
JUMP_FN = FnProfile(lambda t: 1.0 / t if t <= 1.0 else 0.5 / t,
                    breakpoints=(1.0,))


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_evaluator_omega_with_a_jump_at_theta_inf(p):
    pw = float(associate_norm(F17, "lm", p, INF, JUMP_OMEGA, ONE))
    if p == 1.0:
        # F = esssup of f beyond t against h
        big = sup_beyond(F17)
        pts = sorted({0.0, 1.0, *F17.knots})
        want = big(1.0) + math.fsum(
            big(0.5 * (a + b)) * (b - a) * (1 if b <= 1.0 else 2)
            for a, b in zip(pts[:-1], pts[1:]))
        assert pw == pytest.approx(want, rel=1e-12, abs=0.0)
    fn = float(associate_norm(F17, "lm", p, INF, JUMP_FN, ONE))
    assert fn == pytest.approx(pw, rel=1e-10, abs=0.0)


def test_evaluator_inverse_power_at_theta_inf():
    fn = float(associate_norm(F17, "lm", 2.0, INF,
                              FnProfile(lambda t: 1.0 / t), ONE))
    assert fn == pytest.approx(lm_inverse_power_exact(F17, 2.0, INF),
                               rel=1e-10, abs=0.0)


# omega = 1/t on (0, 10] and f = 1 on (1, 10]: near the cut at 10, where h
# becomes infinite, the density integrand behaves like
# s^(theta' (1/2 - 1/theta) - 1) in s = 10 - t
CUT_OMEGA = truncated_power(1.0, -1.0, None, 10.0)
CUT_F = GridFunction([1.0, 10.0], [1.0])


@pytest.mark.parametrize("theta", [1.5, 2.0])
def test_divergence_at_a_finite_cut_reads_inf(theta):
    assert math.isinf(float(associate_norm(CUT_F, "lm", 2.0, theta,
                                           CUT_OMEGA, ONE)))


def test_walk_to_a_finite_cut_fails_at_its_resolution():
    # theta = 3 converges like s^(-3/4), to 37.968967635583394598 by mpmath;
    # the walk needs s far below 1e-15 * 10, where 10 - s rounds to 10, and
    # must fail there rather than return the integral truncated
    with pytest.raises(QuadratureFailure, match="cut at t = 10"):
        associate_norm(CUT_F, "lm", 2.0, 3.0, CUT_OMEGA, ONE)


@pytest.mark.parametrize("theta", [2.0, INF])
def test_positive_f_beyond_the_cut_is_undefined(theta):
    f = GridFunction([1.0, 100.0], [1.0])
    with pytest.raises(UndefinedStieltjes):
        associate_norm(f, "lm", 2.0, theta, CUT_OMEGA, ONE)


# ---------------------------------------------------------------------------
# supremum-form functionals: sup_over_t calls its functional on arrays only

# the acceptance instances whose case is a supremum over t: direct Hardy
# cases, Lebesgue-to-LM cases and the Morrey-source case (a) on both sides
SUP_FORM_ACCEPTANCE = ("hardy.a", "hardy.c", "hardy.d", "hardy.f", "hardy.h",
                       "emb.i", "emb.iii", "emb.iv", "emb.vi", "emb.viii",
                       "emb.dual_target", "emb.source.a", "emb.dual_source.a")
DECAY = split((1.0, -0.5), (1.0, -3.0))
DECAY_INVERTED = split((1.0, 3.0), (1.0, 0.5))   # DECAY(1/y)
OMR15 = truncated_power(1.0, -1.5, 1.0, None)

# with the acceptance instances, one or more instances of every caller of
# sup_over_t
SUP_FORM_PROBLEMS = {
    **{f"accept.{name}": FINITE_INSTANCES[name][0]
       for name in SUP_FORM_ACCEPTANCE},
    **{f"accept.inf.{name}": prob
       for name, prob in INFINITE_INSTANCES.items()},
    "hardy.a.n2": HardyProblem("direct", 2.0, 3.0, DECAY,
                               Weight(2, split((1.0, -0.5), (1.0, 2.0)))),
    "hardy.h.complement": HardyProblem(
        "direct_complement", 1.0, INF, DECAY_INVERTED,
        Weight(2, split((1.0, -2.0), (1.0, 0.5)))),
    "sup": HardyProblem("sup", INF, INF, DECAY,
                        Weight(1, split((1.0, -0.5), (1.0, 1.0)))),
    "sup.complement": HardyProblem(
        "sup_complement", INF, INF, DECAY_INVERTED,
        Weight(1, split((1.0, -1.0), (1.0, 0.5)))),
    "reverse.a": HardyProblem(
        "reverse", 0.5, 0.5, ShiftedPowerProfile(1.0, 1.0, -4.0),
        Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0))),
    "emb.i.n2": EmbeddingProblem(
        "lebesgue_to_lm", 2, 3.0, 2.0, 4.0,
        Weight(2, split((1.0, -1.0), (1.0, -1.0))),
        Weight(2, split((1.0, 0.0), (1.0, -1.0))),
        split((1.0, -0.5), (1.0, -2.0))),
}
SUP_FORM = {
    **{name: (lambda prob=prob: closed_form_constant(prob))
       for name, prob in SUP_FORM_PROBLEMS.items()},
    "associate.lm": lambda: associate_norm(
        F17, "lm", 2.0, 0.5, PowerProfile(1.0, -3.0), ONE),
    "associate.dual_lm": lambda: associate_norm(
        F17, "dual_lm", 2.0, 0.5, constant(1.0), ONE),
    "unweighted": lambda: unweighted_reference(3.0, 2.0, 4.0, OMR15, 1),
    "unweighted.n2": lambda: unweighted_reference(3.0, 2.0, 3.0, OMR15, 2),
}


@pytest.mark.parametrize("name", sorted(SUP_FORM))
def test_sup_over_t_scans_its_grid_in_one_array_call(name, monkeypatch):
    scans = []
    real = hardy.sup_over_t

    def spy(fn, *args, **kwargs):
        calls = []

        def counted(t):
            calls.append(t)
            return fn(t)

        scans.append((fn, calls))
        return real(counted, *args, **kwargs)

    monkeypatch.setattr(hardy, "sup_over_t", spy)
    monkeypatch.setattr(embeddings, "sup_over_t", spy)
    SUP_FORM[name]()
    assert scans, name
    grid = np.geomspace(1e-6, 1e6, 512)
    for fn, calls in scans:
        # the scan, the extension and the zoom rounds all take arrays
        assert calls and all(isinstance(t, np.ndarray) for t in calls)
        ts = calls[0]
        assert np.isin(grid, ts).all()
        # infinities must sit at the same t
        check_same(fn(ts), [fn(float(t)) for t in ts])


def test_sup_over_t_raises_on_nan():
    with pytest.raises(QuadratureFailure, match="nan"):
        hardy.sup_over_t(lambda t: np.where(t > 1.0, math.nan, t))


# a weight that is nan on (2, 3): the products and powers inside the
# functionals run unchecked, yet each functional fails loudly, naming a
# piece of its quadrature that meets (2, 3)
HOLED = FnProfile(lambda r: math.nan if 2.0 < r < 3.0 else 1.0)
NAN_WEIGHTED = {
    "emb.ii": lambda: embedding_constant(EmbeddingProblem(
        "lebesgue_to_lm", 1, 3.0, 2.0, 2.0, ONE, Weight(1, HOLED),
        split((1.0, 0.0), (1.0, -2.0)))),
    "emb.i": lambda: embedding_constant(EmbeddingProblem(
        "lebesgue_to_lm", 1, 3.0, 2.0, 3.0, Weight(1, HOLED), ONE,
        split((1.0, 0.0), (1.0, -2.0)))),
    "emb.b": lambda: embedding_constant(EmbeddingProblem(
        "lm_to_lebesgue", 1, 1.0, 2.0, 3.0, Weight(1, HOLED), ONE,
        truncated_power(1.0, -1.0, 1.0, None))),
    "hardy.a": lambda: hardy_constant(HardyProblem("direct", 2.0, 2.0,
                                                   HOLED, ONE)),
    "hardy.b": lambda: hardy_constant(HardyProblem("direct", 2.0, 1.0,
                                                   HOLED, ONE)),
}


@pytest.mark.parametrize("name", sorted(NAN_WEIGHTED))
def test_a_nan_weight_fails_loudly(name):
    with pytest.raises(QuadratureFailure, match="nan on the piece") as exc:
        NAN_WEIGHTED[name]()
    lo, hi = (float(x) for x in
              str(exc.value).split("(")[1].split(")")[0].split(","))
    assert lo < 3.0 and hi > 2.0, str(exc.value)


# omega (or v) nan on (2, 3) at theta = inf (q = inf): every path through
# the primal functional's pointwise rule reads the nan in sup_over_t
HOLED_AT_INF = {
    "direct": lambda: hardy_constant(HardyProblem("direct", 2.0, INF,
                                                  HOLED, ONE)),
    "direct_complement": lambda: hardy_constant(HardyProblem(
        "direct_complement", 2.0, INF, HOLED, ONE)),
    "sup": lambda: hardy_constant(HardyProblem("sup", INF, INF, HOLED, ONE)),
    "lm_norm": lambda: lm_norm(GridFunction([1.0, 2.0], [1.0]), 1.0, INF,
                               HOLED, ONE),
}


@pytest.mark.parametrize("name", sorted(HOLED_AT_INF))
def test_a_nan_omega_at_theta_inf_raises(name):
    with pytest.raises(QuadratureFailure, match="sup_over_t: fn is nan"):
        HOLED_AT_INF[name]()


# ---------------------------------------------------------------------------
# integral-form functionals: _halfline's integrand takes arrays of t

GROW = split((1.0, -0.5), (1.0, 2.0))
VSTAR = split((1.0, 1.0), (1.0, -1.5))       # DECAY(1/y) y^-2
PP_DECAY = split((1.0, 0.0), (1.0, -2.0))
OMR1 = truncated_power(1.0, -1.0, 1.0, None)
OMR2 = truncated_power(1.0, -2.0, 1.0, None)


def one(n):
    return Weight(n, constant(1.0))


def v2dec(n):
    return Weight(n, ShiftedPowerProfile(1.0, 1.0, -2.0))


# the integral-form Hardy cases: (p, q, beta) with beta / n the exponent
# of the Jacobian that inverting w brings in
DIRECT_INTEGRAL_CASES = {"b": (3.0, 1.5, 4.0), "e": (INF, 2.0, 2.0),
                         "g": (1.0, 0.5, 0.0)}
# (p1, p2, theta, v2, omega) of the integral-form embedding cases
EMBEDDING_INTEGRAL_CASES = {"ii": (3.0, 2.0, 2.0, one, PP_DECAY),
                            "v": (INF, 2.0, 2.0, v2dec, OMR1),
                            "vii": (2.0, 2.0, 1.0, one, OMR2),
                            "ix": (INF, INF, 2.0, one, OMR1)}

HALFLINE_PROBLEMS = {
    **{f"hardy.{case}.n{n}": HardyProblem("direct", p, q, DECAY,
                                          Weight(n, GROW))
       for case, (p, q, _) in DIRECT_INTEGRAL_CASES.items() for n in (1, 2)},
    # the inversions of the ball instances
    **{f"hardy.{case}.complement.n{n}": HardyProblem(
        "direct_complement", p, q, VSTAR,
        Weight(n, split((1.0, beta * n - 2.0), (1.0, beta * n + 0.5))))
       for case, (p, q, beta) in DIRECT_INTEGRAL_CASES.items()
       for n in (1, 2)},
    **{f"emb.{case}.n{n}": EmbeddingProblem(
        "lebesgue_to_lm", n, p1, p2, th, one(n), v2(n), om)
       for case, (p1, p2, th, v2, om) in EMBEDDING_INTEGRAL_CASES.items()
       for n in (1, 2)},
    "sup.q2": HardyProblem("sup", INF, 2.0, DECAY,
                           Weight(1, split((1.0, -0.5), (1.0, 1.0)))),
    "sup.q2.complement": HardyProblem(
        "sup_complement", INF, 2.0, VSTAR,
        Weight(1, split((1.0, -1.0), (1.0, 0.5)))),
    "sup.q1.infinite": HardyProblem(
        "sup", INF, 1.0, constant(1.0),
        Weight(1, split((1.0, -0.5), (1.0, 1.0)))),
    "emb.ii.dual": EmbeddingProblem(
        "lebesgue_to_dual_lm", 1, 3.0, 2.0, 2.0, one(1), v2dec(1),
        split((1.0, 0.0), (0.0, 0.0))),
    "emb.v.infinite": EmbeddingProblem(
        "lebesgue_to_lm", 1, INF, 2.0, 2.0, one(1), one(1), OMR1),
}
HALFLINE = {
    **{name: (lambda prob=prob: closed_form_constant(prob))
       for name, prob in HALFLINE_PROBLEMS.items()},
    "unweighted": lambda: unweighted_reference(3.0, 2.0, 2.0, OMR15, 1),
    "unweighted.n2": lambda: unweighted_reference(3.0, 2.0, 2.0, OMR15, 2),
    "unweighted.infinite": lambda: unweighted_reference(3.0, 1.0, 2.0,
                                                        OMR2, 3),
}
# values recorded from the implementation that called each integrand one
# t at a time (scipy quad)
HALFLINE_PINS = {
    "hardy.b.n1": 1.0780716017936727,
    "hardy.b.n2": 1.7263781070369928,
    "hardy.b.complement.n1": 1.0780716017936727,
    "hardy.b.complement.n2": 1.7263781070369926,
    "hardy.e.n1": 1.6183471874253736,
    "hardy.e.n2": 4.698087311651381,
    "hardy.e.complement.n1": 1.6183471874253736,
    "hardy.e.complement.n2": 4.698087311651073,
    "hardy.g.n1": 1.2916666666665535,
    "hardy.g.n2": 1.2916666666665535,
    "hardy.g.complement.n1": 1.2916666666666672,
    "hardy.g.complement.n2": 1.2916666666666672,
    "sup.q2": 1.095445115010249,
    "sup.q2.complement": 0.816496580927726,
    "sup.q1.infinite": INF,
    "emb.ii.n1": 0.8989630680066713,
    "emb.ii.n2": 0.8739175825203006,
    "emb.v.n1": 1.1774100225154744,
    "emb.v.n2": 2.0869049285025216,
    "emb.vii.n1": 0.7071067811865476,
    "emb.vii.n2": 0.7071067811865476,
    "emb.ix.n1": 1.0,
    "emb.ix.n2": 1.0,
    "emb.ii.dual": 0.4673276325920347,
    "emb.v.infinite": INF,
    "unweighted": 0.7289233736074586,
    "unweighted.n2": 0.6740030772986049,
    "unweighted.infinite": INF,
}


@pytest.mark.parametrize("name", sorted(HALFLINE))
def test_halfline_integrands_take_arrays(name, monkeypatch):
    calls = []
    real = hardy._halfline

    def spy(fn, *args, **kwargs):
        def recorded(t):
            calls.append(type(t))
            return fn(t)

        return real(recorded, *args, **kwargs)

    monkeypatch.setattr(hardy, "_halfline", spy)
    monkeypatch.setattr(embeddings, "_halfline", spy)
    got, pin = float(HALFLINE[name]()), HALFLINE_PINS[name]
    assert calls and all(tp is np.ndarray for tp in calls), name
    if math.isinf(pin):
        assert got == pin
    else:
        assert got == pytest.approx(pin, rel=1e-10)
