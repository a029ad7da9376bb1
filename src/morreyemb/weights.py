"""Radial weights, their interval Lebesgue norms with one-sided limits,
weight-class membership tests, and a sampled Muckenhoupt A_p estimate.

Weights on R^n are radial: w(x) = profile(|x|).  All the characterization
formulas downstream depend on weights only through integrals over balls,
complements and one-dimensional intervals, so this loses nothing; the A_p
estimator compensates with off-center sampled balls.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import NotAWeight
from .extreal import ExtReal, ext_pow
from .integration import (DEFAULT_CONFIG, _profile_integral, ball_integral,
                          complement_integral, esssup_ball, esssup_complement,
                          sphere_area)
from .profiles import (ExpProfile, PiecewisePowerProfile, PowerProfile,
                       RadialProfile, ShiftedPowerProfile, tabulated,
                       truncated_power)

__all__ = [
    "Weight",
    "OmegaMembership",
    "lp_norm_interval",
    "tail_norm",
    "head_norm",
    "tail_norm_left_limit",
    "head_norm_right_limit",
    "Side",
    "omega_class_check",
    "muckenhoupt_ap_estimate",
    "default_ball_family",
    "profile_from_dict",
    "DEFAULT_SAMPLE_GRID",
]

_INF = math.inf

DEFAULT_SAMPLE_GRID = tuple(np.geomspace(1e-6, 1e6, 49))


@dataclass(frozen=True)
class Weight:
    """A radial weight on R^n."""

    dimension: int
    profile: RadialProfile

    def __post_init__(self):
        if self.dimension < 1 or self.dimension != int(self.dimension):
            raise ValueError("dimension must be a positive integer")
        if not self.profile.is_positive_finite_ae():
            raise NotAWeight("profile is not positive and finite a.e.")

    def __call__(self, x):
        """Evaluate at |x| given directly as a radius."""
        return self.profile(x)


@dataclass(frozen=True)
class OmegaMembership:
    in_omega_theta: bool
    in_dual_omega_theta: bool
    witness_t: float
    analytic: bool = True


def _least(t):
    """The smallest of a radius or of an array of radii."""
    return t.min() if isinstance(t, np.ndarray) else t


def lp_norm_interval(profile: RadialProfile, q, interval, cfg=None) -> ExtReal:
    """One-dimensional norm ||phi||_{q,(a,b)} with 0 <= a < b <= inf.

    Either end may be an array of radii; the norms then come back as a
    float array of the broadcast shape instead of an ExtReal."""
    a, b = interval
    arrays = isinstance(a, np.ndarray) or isinstance(b, np.ndarray)
    if not (np.all((0.0 <= a) & (a < b)) if arrays else 0.0 <= a < b):
        raise ValueError("need 0 <= a < b")
    q = float(q)
    if q <= 0:
        raise ValueError("q must be in (0, inf]")
    if math.isinf(q):
        val = profile.esssup(a, b)
        return val if arrays else ExtReal(val)
    return ext_pow(_profile_integral(profile.power(q), a, b, cfg), 1.0 / q)


def tail_norm(omega: RadialProfile, theta, t, cfg=None) -> ExtReal:
    """||omega||_{theta,(t,inf)}; t = 0 gives the full-line norm.  An array
    of t gives a float array of norms."""
    if _least(t) < 0:
        raise ValueError("t must be >= 0")
    return lp_norm_interval(omega, theta, (t, _INF), cfg)


def head_norm(omega: RadialProfile, theta, t, cfg=None) -> ExtReal:
    """||omega||_{theta,(0,t)}; an array of t gives a float array."""
    if _least(t) <= 0:
        raise ValueError("t must be positive")
    return lp_norm_interval(omega, theta, (0.0, t), cfg)


def _with_limit(plain, limit):
    if isinstance(plain, np.ndarray):
        return np.maximum(plain, limit)
    return ExtReal(max(float(plain), limit))


def tail_norm_left_limit(omega: RadialProfile, theta, t, cfg=None) -> ExtReal:
    """lim_{s -> t-} ||omega||_{theta,(s,inf)}.

    For theta < inf this coincides with the plain tail norm; for
    theta = inf the approach from the left picks up the left-limit value
    of the profile at t.
    """
    if _least(t) <= 0:
        raise ValueError("t must be positive")
    if math.isfinite(float(theta)):
        return tail_norm(omega, theta, t, cfg)
    return _with_limit(tail_norm(omega, theta, t, cfg), omega.left_limit(t))


def head_norm_right_limit(omega: RadialProfile, theta, t, cfg=None) -> ExtReal:
    """lim_{s -> t+} ||omega||_{theta,(0,s)}."""
    if _least(t) <= 0:
        raise ValueError("t must be positive")
    if math.isfinite(float(theta)):
        return head_norm(omega, theta, t, cfg)
    return _with_limit(head_norm(omega, theta, t, cfg), omega.right_limit(t))


class Side(enum.Enum):
    """The Morrey-type side of a problem: BALL for norms over the balls
    B(0, t), COMPLEMENT for norms over their exteriors.

    The two sides are images of each other under the inversion t -> 1/t.
    A side owns its region, the outer norm over t that pairs with it (the
    tail norm over (t, inf) for balls, the head norm over (0, t) for
    complements) with the one-sided limit of that norm, the direction of
    the Stieltjes integrator built from the limit, and its Omega_theta
    class.  Every t may be an array of radii, as in the functions used.
    """

    BALL = "ball"
    COMPLEMENT = "complement"

    @property
    def other(self):
        return Side.COMPLEMENT if self is Side.BALL else Side.BALL

    def integral(self, g, n, t, cfg=None):
        """Integral of g(|x|) over the region at radius t in R^n."""
        if self is Side.BALL:
            return ball_integral(g, n, t, cfg)
        return complement_integral(g, n, t, cfg)

    def esssup(self, g, t):
        """Essential supremum of the profile over the region's radii."""
        if self is Side.BALL:
            return esssup_ball(g, t)
        return esssup_complement(g, t)

    def region_norm(self, g, s, n, t, cfg=None) -> ExtReal:
        """||g||_s over the region at radius t in R^n, s in (0, inf]."""
        s = float(s)
        if math.isinf(s):
            return self.esssup(g, t)
        return ext_pow(self.integral(g.power(s), n, t, cfg), 1.0 / s)

    def outer_norm(self, omega, theta, t, cfg=None):
        """The outer norm paired with the side: tail or head norm."""
        if self is Side.BALL:
            return tail_norm(omega, theta, t, cfg)
        return head_norm(omega, theta, t, cfg)

    def outer_norm_limit(self, omega, theta, t, cfg=None):
        """The outer norm's one-sided limit at t: from the left for tails,
        from the right for heads."""
        if self is Side.BALL:
            return tail_norm_left_limit(omega, theta, t, cfg)
        return head_norm_right_limit(omega, theta, t, cfg)

    @property
    def direction(self):
        """Direction of an integrator built from a power of the outer norm
        limit with a negative exponent."""
        return "increasing" if self is Side.BALL else "decreasing"

    def infinite_from(self, omega):
        """Where that integrator becomes identically infinite: past the
        last point of the support for tails, below the first for heads;
        None when it never does."""
        if self is Side.BALL:
            hi = getattr(omega, "support_sup", lambda: _INF)()
            return hi if math.isfinite(hi) else None
        lo = getattr(omega, "support_inf", lambda: 0.0)()
        return lo if lo > 0.0 else None

    def in_omega(self, member: OmegaMembership) -> bool:
        """Whether omega lies in the side's class: Omega_theta (finite
        positive tail norms) or its dual (finite positive head norms)."""
        if self is Side.BALL:
            return member.in_omega_theta
        return member.in_dual_omega_theta


def _whole_space_norm(g, s, n, cfg=None) -> ExtReal:
    """||g||_s over all of R^n, s in (0, inf]."""
    s = float(s)
    if math.isinf(s):
        return esssup_complement(g, 0.0)
    val = ball_integral(g.power(s), n, 1.0, cfg) + \
        complement_integral(g.power(s), n, 1.0, cfg)
    return ext_pow(val, 1.0 / s)


def _power_omega_membership(c, alpha, theta):
    """Analytic tail/head finiteness for omega = c * rho^alpha."""
    if c == 0.0 or math.isinf(c):
        return False, False
    if math.isinf(theta):
        return alpha <= 0.0, alpha >= 0.0
    return alpha * theta < -1.0, alpha * theta > -1.0


def omega_class_check(omega: RadialProfile, theta,
                      sample_grid=DEFAULT_SAMPLE_GRID, cfg=None) -> OmegaMembership:
    """Membership in Omega_theta (finite positive tail norms for all t > 0)
    and its dual (finite positive head norms)."""
    theta = float(theta)
    if isinstance(omega, PowerProfile):
        tail_ok, head_ok = _power_omega_membership(omega.c, omega.alpha, theta)
        return OmegaMembership(tail_ok, head_ok, witness_t=1.0, analytic=True)
    if isinstance(omega, PiecewisePowerProfile):
        # only the unbounded end segments decide integrability; interior
        # segments just need finite coefficients
        c_last, a_last = omega.segments[-1]
        c_first, a_first = omega.segments[0]
        all_finite = all(c < _INF for c, _ in omega.segments)
        tail_ok = (all_finite and c_last > 0.0
                   and _power_omega_membership(c_last, a_last, theta)[0])
        head_ok = (all_finite and c_first > 0.0
                   and _power_omega_membership(c_first, a_first, theta)[1])
        witness = omega.breaks[0]
        return OmegaMembership(bool(tail_ok), bool(head_ok),
                               witness_t=witness, analytic=True)
    # sampled check
    tail_ok = head_ok = True
    witness = sample_grid[0]
    for t in sample_grid:
        tv = float(tail_norm(omega, theta, t, cfg))
        hv = float(head_norm(omega, theta, t, cfg))
        if not (0.0 < tv < _INF):
            tail_ok, witness = False, t
        if not (0.0 < hv < _INF):
            head_ok, witness = False, t
        if not tail_ok and not head_ok:
            break
    return OmegaMembership(tail_ok, head_ok, witness_t=witness, analytic=False)


def _ball_slice_measure(n, d, r, rho):
    """(n-1)-measure of the sphere of radius rho intersected with the ball
    of radius r centered at distance d from the origin."""
    if rho <= 0:
        return 0.0
    if d == 0.0:
        return sphere_area(n) * rho ** (n - 1) if rho < r else 0.0
    if n == 1:
        cnt = (1 if abs(rho - d) < r else 0) + (1 if rho < r - d else 0)
        return float(cnt)
    if rho <= r - d:
        return sphere_area(n) * rho ** (n - 1)
    if rho >= r + d or rho <= d - r:
        return 0.0
    cosg = (rho * rho + d * d - r * r) / (2.0 * rho * d)
    cosg = min(1.0, max(-1.0, cosg))
    gamma = math.acos(cosg)
    if n == 2:
        return 2.0 * rho * gamma
    cap, _ = quad(lambda ph: math.sin(ph) ** (n - 2), 0.0, gamma)
    return rho ** (n - 1) * sphere_area(n - 1) * cap


def _off_center_ball_integral(profile, n, d, r, cfg):
    """Integral of profile(|x|) over the ball B(x0, r) with |x0| = d."""
    if d == 0.0:
        return float(ball_integral(profile, n, r, cfg))
    lo = max(d - r, 0.0)
    hi = d + r
    def integrand(rho):
        return profile(rho) * _ball_slice_measure(n, d, r, rho)
    val, _ = quad(integrand, lo, hi, limit=200,
                  epsabs=(cfg or DEFAULT_CONFIG).abs_tol, epsrel=1e-9)
    return val


def default_ball_family(radii=None, offset_factors=(0.0, 1.0, 3.0, 10.0)):
    """(center offset, radius) pairs; includes origin-centered balls."""
    if radii is None:
        radii = np.geomspace(1e-3, 1e3, 13)
    return [(f * r, r) for r in radii for f in offset_factors]


def muckenhoupt_ap_estimate(w: Weight, p, ball_family=None, cfg=None) -> ExtReal:
    """Sampled lower bound on the Muckenhoupt A_p constant of w.

    sup over the family of (int_B w)(int_B w^{1-p'})^{p-1} / |B|^p.
    """
    p = float(p)
    if not 1.0 < p < _INF:
        raise ValueError("p must be in (1, inf)")
    if ball_family is None:
        ball_family = default_ball_family()
    pp = float(ext_pow(p / (p - 1.0), 1.0))  # p' for p in (1, inf)
    n = w.dimension
    dual = w.profile.power(1.0 - pp)
    from .integration import ball_volume
    best = 0.0
    for d, r in ball_family:
        vol = ball_volume(n, r)
        m1 = _off_center_ball_integral(w.profile, n, d, r, cfg)
        m2 = _off_center_ball_integral(dual, n, d, r, cfg)
        if math.isinf(m1) or math.isinf(m2):
            return ExtReal(_INF)
        val = (m1 / vol) * (m2 / vol) ** (p - 1.0)
        best = max(best, val)
    return ExtReal(best)


def profile_from_dict(spec: dict) -> RadialProfile:
    """Build a profile from a declarative description (the CLI JSON schema)."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ValueError("profile spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    known = {
        "power": {"c", "alpha"},
        "piecewise_power": {"breakpoints", "segments"},
        "truncated_power": {"c", "alpha", "lo", "hi"},
        "shifted_power": {"c", "shift", "alpha"},
        "exp": {"c", "rate"},
        "tabulated": {"knots", "values"},
        "product": {"left", "right"},
        "power_of": {"base", "exponent"},
    }
    if kind not in known:
        raise ValueError(f"unknown profile kind {kind!r}")
    extra = set(spec) - known[kind] - {"kind"}
    if extra:
        raise ValueError(f"unknown keys for {kind!r}: {sorted(extra)}")
    if kind == "power":
        return PowerProfile(spec["c"], spec["alpha"])
    if kind == "piecewise_power":
        return PiecewisePowerProfile(spec["breakpoints"], spec["segments"])
    if kind == "truncated_power":
        return truncated_power(spec["c"], spec["alpha"],
                               spec.get("lo"), spec.get("hi"))
    if kind == "shifted_power":
        return ShiftedPowerProfile(spec["c"], spec["shift"], spec["alpha"])
    if kind == "exp":
        return ExpProfile(spec["c"], spec["rate"])
    if kind == "tabulated":
        return tabulated(spec["knots"], spec["values"])
    if kind == "product":
        return profile_from_dict(spec["left"]).times(profile_from_dict(spec["right"]))
    if kind == "power_of":
        return profile_from_dict(spec["base"]).power(float(spec["exponent"]))
    raise AssertionError
