"""Weight profiles, interval norms, and the omega class checks."""

import math

import numpy as np
import pytest

from morreyemb.embeddings import EmbeddingProblem, embedding_constant
from morreyemb.errors import NotAWeight, QuadratureFailure
from morreyemb.hardy import HardyProblem, hardy_A
from morreyemb.integration import ball_integral, complement_integral
from morreyemb.profiles import (ExpProfile, FnProfile, PiecewisePowerProfile,
                                PowerProfile, ProductProfile,
                                ShiftedPowerProfile, constant, tabulated,
                                truncated_power)
from morreyemb.weights import (Side, Weight, head_norm, head_norm_right_limit,
                               lp_norm_interval, muckenhoupt_ap_estimate,
                               omega_class_check, profile_from_dict,
                               tail_norm)

INF = math.inf


def closed_form_tail(alpha, q, t):
    """(integral_t^inf rho^(alpha q) drho)^(1/q) for a unit power profile."""
    e = alpha * q
    if e < -1.0:
        return (t ** (e + 1.0) / (-e - 1.0)) ** (1.0 / q)
    return INF


def closed_form_head(alpha, q, t):
    e = alpha * q
    if e > -1.0:
        return (t ** (e + 1.0) / (e + 1.0)) ** (1.0 / q)
    return INF


@pytest.mark.parametrize("alpha", [-3.0, -2.0, -1.5, -0.5, 0.0, 1.0])
@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
def test_power_tail_and_head_norms(alpha, q, t):
    om = PowerProfile(1.0, alpha)
    want = closed_form_tail(alpha, q, t)
    got = float(tail_norm(om, q, t))
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-9)
    want = closed_form_head(alpha, q, t)
    got = float(head_norm(om, q, t))
    if math.isinf(want):
        assert math.isinf(got)
    else:
        assert got == pytest.approx(want, rel=1e-9)


def test_tail_norm_infinite_exponent_is_esssup():
    om = PowerProfile(2.0, -1.0)
    assert float(tail_norm(om, INF, 4.0)) == pytest.approx(0.5)
    assert math.isinf(float(head_norm(om, INF, 4.0)))


def test_omega_class_accepts_truncated_power():
    om = truncated_power(1.0, -1.0, 1.0, None)
    assert omega_class_check(om, 2.0).in_omega_theta


def test_omega_class_rejects_nonintegrable_tail():
    om = PowerProfile(1.0, -0.25)
    assert not omega_class_check(om, 2.0).in_omega_theta


def test_dual_omega_class_needs_positive_head():
    om = truncated_power(1.0, 0.0, 1.0, None)  # vanishes near the origin
    assert not omega_class_check(om, 2.0).in_dual_omega_theta
    assert omega_class_check(constant(1.0), 0.5).in_dual_omega_theta


def test_weight_rejects_bad_dimension():
    with pytest.raises(ValueError):
        Weight(0, constant(1.0))


def test_profile_from_dict_round_trip():
    p = profile_from_dict({"kind": "power", "c": 2.0, "alpha": -1.0})
    assert p(4.0) == pytest.approx(0.5)
    pw = profile_from_dict({
        "kind": "piecewise_power",
        "breakpoints": [1.0],
        "segments": [[1.0, 0.0], [1.0, -2.0]],
    })
    assert pw(0.5) == pytest.approx(1.0)
    assert pw(2.0) == pytest.approx(0.25)


def test_tabulated_is_a_step_profile():
    # values[i] on (knots[i], knots[i+1]], the end values outside
    spec = {"knots": [1, 2, 4], "values": [3, 5]}
    for prof in (tabulated(**spec),
                 profile_from_dict(dict(spec, kind="tabulated"))):
        assert prof(np.array([0.5, 1.5, 3.0, 8.0])).tolist() == \
            [3.0, 3.0, 5.0, 5.0]
        assert tuple(prof.breakpoints()) == (1.0, 2.0, 4.0)
    assert repr(profile_from_dict(dict(spec, kind="tabulated"))) == \
        repr(tabulated(**spec))


def test_profile_from_dict_product_and_power_of():
    prod = profile_from_dict({
        "kind": "product", "left": {"kind": "power", "c": 2, "alpha": 1},
        "right": {"kind": "exp", "c": 1, "rate": -1}})
    assert float(prod(np.array([1.0]))[0]) == 0.7357588823428847
    sq = profile_from_dict({
        "kind": "power_of", "base": {"kind": "exp", "c": 2, "rate": -1},
        "exponent": 2})
    assert isinstance(sq, ExpProfile) and (sq.c, sq.rate) == (4.0, -2.0)


def test_head_norm_right_limit():
    # omega = 1 on (0, 1], 3 beyond: the sup norm jumps at 1
    om = PiecewisePowerProfile([1.0], [(1.0, 0.0), (3.0, 0.0)])
    assert float(head_norm(om, INF, 1.0)) == 1.0
    assert float(head_norm_right_limit(om, INF, 1.0)) == 3.0
    assert float(head_norm_right_limit(om, 2.0, 1.0)) == \
        float(head_norm(om, 2.0, 1.0))
    assert head_norm_right_limit(
        om, INF, np.array([0.5, 1.0, 2.0])).tolist() == [1.0, 3.0, 3.0]


def test_profile_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "power", "c": 1.0, "alpha": 0.0, "x": 1})
    with pytest.raises(ValueError):
        profile_from_dict({"kind": "mystery"})


@pytest.mark.parametrize("make", [
    lambda: PowerProfile(1.0, INF),
    lambda: PowerProfile(1.0, -INF),
    lambda: ExpProfile(1.0, -INF),
    lambda: ExpProfile(1.0, INF),
    lambda: ShiftedPowerProfile(1.0, INF, 1.0),
    lambda: ShiftedPowerProfile(1.0, 1.0, INF),
    lambda: PiecewisePowerProfile([1.0], [(1.0, 0.0), (1.0, -INF)]),
], ids=["power.alpha", "power.-alpha", "exp.-rate", "exp.rate",
        "shifted_power.shift", "shifted_power.alpha",
        "piecewise_power.alpha"])
def test_profile_rejects_infinite_parameter(make):
    # ExpProfile(1, -inf) would read 0 at every rho > 0 and still call
    # itself positive a.e.
    with pytest.raises(ValueError, match="must be finite"):
        make()


def test_lp_norm_interval_exp_profile():
    om = ExpProfile(1.0, -1.0)
    # (integral_0^inf e^(-2s) ds)^(1/2) = (1/2)^(1/2)
    assert float(lp_norm_interval(om, 2.0, (0.0, INF))) == \
        pytest.approx(math.sqrt(0.5), rel=1e-8)


def test_muckenhoupt_estimate_unweighted_is_one():
    w = Weight(1, constant(1.0))
    est = muckenhoupt_ap_estimate(w, 2.0)
    assert float(est) == pytest.approx(1.0, rel=1e-6)


def test_muckenhoupt_estimate_power_weight_finite():
    w = Weight(1, PowerProfile(1.0, 0.5))
    est = muckenhoupt_ap_estimate(w, 2.0)
    assert math.isfinite(float(est))


# omega class membership of the exponential and shifted-power kinds:
# tails finite for rate < 0 (rate <= 0 at theta = inf) and for
# alpha theta < -1 (alpha <= 0 at theta = inf), heads finite for both
# kinds, also for e^t, whose head norms overflow far out, and every norm
# positive
@pytest.mark.parametrize("theta", [0.5, 2.0, INF])
@pytest.mark.parametrize("omega, tail_ok", [
    (ExpProfile(1.0, -1.0), lambda th: True),
    (ExpProfile(3.0, -1e-3), lambda th: True),
    (ExpProfile(1.0, 0.0), math.isinf),
    (ExpProfile(1.0, 1.0), lambda th: False),
    (ShiftedPowerProfile(1.0, 1.0, -2.0), lambda th: -2.0 * th < -1.0),
    (ShiftedPowerProfile(2.0, 1.0, -0.25), math.isinf),
    (ShiftedPowerProfile(2.0, 1.0, 0.0), math.isinf),
    (ShiftedPowerProfile(1.0, 1.0, 2.0), lambda th: False),
])
def test_omega_class_of_sampled_kinds(omega, tail_ok, theta):
    member = omega_class_check(omega, theta)
    assert (member.in_omega_theta, member.in_dual_omega_theta) == \
        (tail_ok(theta), True)


def test_underflowed_tail_norm_is_positive():
    # the tail norm of e^(-t) underflows to 0 far out, but the support is
    # unbounded, so every tail norm is positive
    assert float(tail_norm(ExpProfile(1.0, -1.0), 2.0, 1e6)) == 0.0
    assert omega_class_check(ExpProfile(1.0, -1.0), 2.0).in_omega_theta
    bounded = truncated_power(1.0, -2.0, None, 5.0).times(
        ExpProfile(1.0, -1.0))
    assert isinstance(bounded, ProductProfile)
    assert not omega_class_check(bounded, 2.0).in_omega_theta


# ---------------------------------------------------------------------------
# one-sided limits, sampled suprema and log slopes

def test_sampled_esssup_reads_the_open_interval():
    # 5 | 1 split at 1, times e^(-t): its value at 1 is 5/e, but over
    # (1, inf) it is at most 1/e
    om = PiecewisePowerProfile([1.0], [(5.0, 0.0), (1.0, 0.0)]).times(
        ExpProfile(1.0, -1.0))
    assert isinstance(om, ProductProfile)
    assert om(1.0) == pytest.approx(5.0 / math.e, rel=1e-15)
    assert om.esssup(1.0, INF) == pytest.approx(1.0 / math.e, rel=1e-15,
                                                abs=0.0)
    assert float(tail_norm(om, INF, 1.0)) == pytest.approx(
        1.0 / math.e, rel=1e-15, abs=0.0)
    # an evaluator that takes the right value at its jump: over (1/2, 1)
    # it is 1
    step = FnProfile(lambda t: 1.0 if t < 1.0 else 5.0, breakpoints=(1.0,))
    assert step.esssup(0.5, 1.0) == 1.0
    assert float(head_norm(step, INF, 1.0)) == 1.0


def test_sampled_esssup_reads_the_limit_at_zero():
    # (1 + t)^(-3) falls from its limit 1 at 0+, which no grid point in
    # (0, 2) reaches
    falling = ShiftedPowerProfile(1.0, 1.0, 3.0).power(-1.0).times(
        constant(1.0))
    assert isinstance(falling, ProductProfile)
    assert falling.esssup(0.0, 2.0) == 1.0
    # so with p1 = p2 = 1 the embedding's esssup of v1^(-1) over the ball
    # is 1 near the origin, and its constant is the Hardy functional of
    # the same data: q = theta, v = omega^theta, w = v1
    v1 = Weight(1, ShiftedPowerProfile(1.0, 1.0, 3.0))
    emb = EmbeddingProblem("lebesgue_to_lm", 1, 1.0, 1.0, 0.5, v1,
                           Weight(1, constant(1.0)), ExpProfile(1.0, -2.0))
    hardy = HardyProblem("direct", 1.0, 0.5, ExpProfile(1.0, -1.0), v1)
    assert float(embedding_constant(emb)) == pytest.approx(
        float(hardy_A(hardy)), rel=1e-15, abs=0.0)
    # an evaluator gives no limit at 0+: the sample alone reads it
    assert math.isnan(FnProfile(lambda t: 1.0 / t).right_limit(0.0))
    assert FnProfile(lambda t: 1.0 / t).esssup(0.0, 1.0) == pytest.approx(
        1e9, rel=1e-12)
    # also where a short (0, b) holds no point of the sample
    assert FnProfile(lambda t: 1.0).esssup(0.0, 1e-10) == 1.0


# t^2 e^-t peaks at t = 2 with 4 e^-2: as a product of closed forms and as
# an evaluator
HUMP = ProductProfile(ExpProfile(1.0, -1.0), PowerProfile(1.0, 2.0))


@pytest.mark.parametrize("prof", [HUMP, FnProfile(lambda t: t * t
                                                  * math.exp(-t))],
                         ids=["product", "evaluator"])
@pytest.mark.parametrize("t", [0.0, 0.5, 1.9, 2.0, 2.5, 40.0])
def test_sampled_esssup_of_a_hump_over_tails(prof, t):
    # below 2 the largest sample strictly inside (t, inf) reads the peak
    # within |(log phi)''| dx^2 / 2 = dx^2, dx half the sample's step in
    # log t: the peak sits midway between two samples, 2.55e-5 low; from
    # 2 on the maximum is the limit at t from inside
    got = prof.esssup(t, INF)
    if t < 2.0:
        dx = 0.5 * math.log(1e18) / 4096
        assert 0.0 <= 1.0 - got / (4.0 * math.exp(-2.0)) <= dx * dx
    else:
        assert got == prof.right_limit(t)


def _calls_of_an_evaluator(run):
    """The number of calls run(omega) makes of the evaluator omega, which
    is e^(-t)."""
    calls = []

    def fn(t):
        calls.append(t)
        return math.exp(-t)

    run(FnProfile(fn))
    return len(calls)


@pytest.mark.parametrize("run, most", [
    # 2,000 tails: the 2,731 samples from 1e-3 on and one limit per
    # interval, 4,731 calls; a sample per interval made 4,098,000
    (lambda om: om.esssup(np.geomspace(1e-3, 1e3, 2000), INF), 5000),
    # 49 tail and 49 head esssups at theta = inf: one sample each, 6,926
    # calls; one t at a time made 200,802
    (lambda om: omega_class_check(om, INF), 7500),
], ids=["tail_esssups", "omega_class_check"])
def test_sampled_suprema_read_one_sample(run, most):
    assert _calls_of_an_evaluator(run) <= most


@pytest.mark.parametrize("run, most", [
    # 2,000 tails at theta = 2: one G7-K15 pass over the pieces between
    # the t and one walk beyond the last, 30,240 calls; a walk per t made
    # 592,920
    (lambda om: tail_norm(om, 2.0, np.geomspace(1e-3, 1e3, 2000)), 40000),
    # 49 tail and 49 head norms at theta = 2: one pass each, 2,130 calls;
    # a walk per t made 38,760
    (lambda om: omega_class_check(om, 2.0), 4000),
], ids=["tail_norms", "omega_class_check"])
def test_integrals_without_a_closed_form_take_one_pass(run, most):
    assert _calls_of_an_evaluator(run) <= most


# 1 outside (2, 3) and nan inside it
NAN_WEIGHT = Weight(1, FnProfile(lambda t: math.nan if 2.0 < t < 3.0
                                 else 1.0))
# the Morrey-source problems at p1 = p2 = 1, theta = 2 (the omegas of the
# acceptance instances emb.source.b and emb.dual_source.b) with it as v1
# or v2
_ONE = Weight(1, constant(1.0))
NAN_PROBLEMS = {
    f"{direction}.{which}": EmbeddingProblem(direction, 1, 1.0, 1.0, 2.0,
                                             v1, v2, omega)
    for direction, omega in (("lm_to_lebesgue", PowerProfile(1.0, -3.0)),
                             ("dual_lm_to_lebesgue", constant(1.0)))
    for which, v1, v2 in (("v1", NAN_WEIGHT, _ONE), ("v2", _ONE, NAN_WEIGHT))}


@pytest.mark.parametrize("a, b", [(0.0, 10.0), (2.2, 2.8)])
def test_sampled_esssup_raises_on_nan(a, b):
    # dropping the nan samples would read 1 over (0, 10), 0 over (2.2, 2.8)
    with pytest.raises(QuadratureFailure, match=rf"nan on \({a:g}, {b:g}\)"):
        NAN_WEIGHT.profile.esssup(a, b)


@pytest.mark.parametrize("name", sorted(NAN_PROBLEMS))
def test_nan_weight_raises(name):
    # with the nan samples dropped the v1 cases read inf and the v2 cases
    # ran on for more than 20 s
    with pytest.raises(QuadratureFailure, match="sampled esssup is nan"):
        embedding_constant(NAN_PROBLEMS[name])


def test_evaluator_one_sided_limits():
    jump = FnProfile(lambda t: 1.0 / t if t <= 1.0 else 0.5 / t,
                     breakpoints=(1.0,))
    assert jump.left_limit(1.0) == pytest.approx(1.0, rel=1e-11)
    assert jump.right_limit(1.0) == pytest.approx(0.5, rel=1e-11)
    np.testing.assert_allclose(jump.right_limit(np.array([0.5, 1.0, 2.0])),
                               [2.0, 0.5, 0.25], rtol=1e-11)


SPLIT = PiecewisePowerProfile([1.0, 3.0], [(1.0, -1.0), (0.5, 2.0),
                                           (4.0, -0.5)])
SLOPE_RADII = np.array([0.01, 0.5, 1.0 - 1e-7, 1.0 + 1e-7, 2.0, 3.0 - 1e-9,
                        3.0 + 1e-6, 50.0])


# (profile, exact log slope, tolerance of the difference within h of a
# break, where it is one-sided: exact for powers, good to h elsewhere)
@pytest.mark.parametrize("prof, exact, near_tol", [
    (SPLIT, lambda t: np.select([t <= 1.0, t <= 3.0], [-1.0, 2.0], -0.5) / t,
     1e-8),
    (ExpProfile(2.0, -1.5), lambda t: np.full(t.shape, -1.5), None),
    (ShiftedPowerProfile(1.0, 2.0, -3.0), lambda t: -3.0 / (2.0 + t), None),
    (SPLIT.times(ExpProfile(1.0, 0.25)), lambda t: np.select(
        [t <= 1.0, t <= 3.0], [-1.0, 2.0], -0.5) / t + 0.25, 1e-5),
])
def test_log_slope_closed_forms_and_the_difference(prof, exact, near_tol):
    want = exact(SLOPE_RADII)
    np.testing.assert_allclose(prof.log_slope(SLOPE_RADII), want,
                               rtol=1e-14)
    # the difference is good to h^2 = 1e-10 away from a break, and it
    # never straddles one, which would read the jump
    fn = FnProfile(prof, breakpoints=prof.breakpoints())
    got = fn.log_slope(SLOPE_RADII)
    near = np.abs(np.log(SLOPE_RADII[:, None] / np.append(
        prof.breakpoints(), 1e300))).min(axis=1) < 1e-5
    np.testing.assert_allclose(got[~near], want[~near], rtol=1e-8)
    if near.any():
        np.testing.assert_allclose(got[near], want[near], rtol=near_tol,
                                   atol=near_tol)
    assert fn.log_slope(2.0) == pytest.approx(exact(np.array([2.0]))[0],
                                              rel=1e-8)


# ---------------------------------------------------------------------------
# profile conventions at the ends: 0 * inf = 0 and overflow to inf

@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_constant_shifted_power_at_infinity():
    assert ShiftedPowerProfile(2.0, 1.0, 0.0)(INF) == 2.0
    np.testing.assert_array_equal(
        ShiftedPowerProfile(2.0, 1.0, 0.0)(np.array([0.0, 1.0, INF])), 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prof", [ExpProfile(INF, -1.0),
                                  ShiftedPowerProfile(INF, 1.0, -1.0)])
def test_infinite_coefficient_times_a_vanishing_factor(prof):
    assert prof(INF) == 0.0
    assert prof(1.0) == INF


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("prof", [PowerProfile(1e200, 0.0),
                                  ExpProfile(1e200, 0.0),
                                  ShiftedPowerProfile(1e200, 1.0, 1.0)])
def test_coefficient_power_overflows_to_inf(prof):
    # c ** 2 is past the float range; c ** -2 underflows to 0 as before
    assert prof.power(2.0)(1.0) == INF
    assert prof.power(-2.0)(1.0) == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exp_integral_is_plus_zero_where_both_ends_underflow():
    val = float(tail_norm(ExpProfile(1.0, -1.0), 2.0, 700.0))
    assert val == 0.0 and math.copysign(1.0, val) == 1.0
    val = ExpProfile(1.0, -1.0).integral(800.0, 900.0)
    assert val == 0.0 and math.copysign(1.0, val) == 1.0


# profiles whose norms over all of R^n are read at a side's end
WHOLE = {
    "split_power": PiecewisePowerProfile([2.0], [(1.0, 0.5), (3.0, -2.5)]),
    "truncated_power": truncated_power(2.0, -0.5, 0.5, 8.0),
    "exp": ExpProfile(3.0, -0.7),
    "shifted_power": ShiftedPowerProfile(2.0, 0.5, -3.0),
    "product": ExpProfile(1.0, -1.0).times(ShiftedPowerProfile(1.0, 1.0, 1.0)),
    "evaluator": FnProfile(lambda t: 1.0 / (1.0 + t * t)),
}


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("s", [1.0, 2.5, INF])
@pytest.mark.parametrize("name", sorted(WHOLE))
def test_region_norm_at_the_end_is_the_whole_space_norm(name, s, n):
    # at a side's end the other side's region is all of R^n: the complement
    # of B(0, 0) and the ball B(0, inf), against the ball and the
    # complement of radius 1 together, or the esssup over (0, inf)
    g = WHOLE[name]
    if math.isinf(s):
        want = float(g.esssup(0.0, INF))
    else:
        want = (float(ball_integral(g.power(s), n, 1.0))
                + float(complement_integral(g.power(s), n, 1.0))) ** (1 / s)
    assert [side.end for side in Side] == [0.0, INF]
    for side in Side:
        got = side.other.region_norm(g, s, n, side.end)
        if math.isinf(want):
            assert got.is_inf
        else:
            assert float(got) == pytest.approx(want, rel=1e-12, abs=0.0)
