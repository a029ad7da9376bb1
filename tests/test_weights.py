"""Weight profiles, interval norms, and the omega class checks."""

import math

import numpy as np
import pytest

from morreyemb.errors import NotAWeight
from morreyemb.profiles import (ExpProfile, PiecewisePowerProfile,
                                PowerProfile, ShiftedPowerProfile, constant,
                                truncated_power)
from morreyemb.weights import (Weight, head_norm, lp_norm_interval,
                               muckenhoupt_ap_estimate, omega_class_check,
                               profile_from_dict, tail_norm)

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
