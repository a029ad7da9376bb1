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

from .errors import NotAWeight, QuadratureFailure
from .extreal import ExtReal, ext_mul, ext_pow, scalar_results
from .integration import (MonotoneIntegrator, _defined_range, _gauss_kronrod,
                          _profile_integral, _sorted_unique, _values,
                          ball_integral, complement_integral, esssup_ball,
                          esssup_complement, integrate_halfline, sphere_area,
                          stieltjes_integral)
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


@scalar_results(ExtReal)
def lp_norm_interval(profile: RadialProfile, q, interval) -> ExtReal:
    """One-dimensional norm ||phi||_{q,(a,b)} with 0 <= a < b <= inf.

    Either end may be an array of radii; the norms then come back as a
    float array of the broadcast shape instead of an ExtReal."""
    a, b = interval
    if not np.all((0.0 <= a) & (a < b)):
        raise ValueError("need 0 <= a < b")
    q = float(q)
    if q <= 0:
        raise ValueError("q must be in (0, inf]")
    if math.isinf(q):
        return profile.esssup(a, b)
    return ext_pow(_profile_integral(profile.power(q), a, b), 1.0 / q)


def tail_norm(omega: RadialProfile, theta, t) -> ExtReal:
    """||omega||_{theta,(t,inf)}; t = 0 gives the full-line norm.  An array
    of t gives a float array of norms."""
    if np.min(t) < 0:
        raise ValueError("t must be >= 0")
    return lp_norm_interval(omega, theta, (t, _INF))


def head_norm(omega: RadialProfile, theta, t) -> ExtReal:
    """||omega||_{theta,(0,t)}; an array of t gives a float array."""
    if np.min(t) <= 0:
        raise ValueError("t must be positive")
    return lp_norm_interval(omega, theta, (0.0, t))


@scalar_results(ExtReal)
def _with_limit(norm, limit, omega, theta, t):
    """norm(omega, theta, t) and, for theta = inf, at least limit(t): the
    one-sided limit of an outer norm at t > 0."""
    if np.min(t) <= 0:
        raise ValueError("t must be positive")
    plain = norm(omega, theta, np.asarray(t, dtype=float))
    if math.isfinite(float(theta)):
        return plain
    return np.maximum(plain, limit(t))


def tail_norm_left_limit(omega: RadialProfile, theta, t) -> ExtReal:
    """lim_{s -> t-} ||omega||_{theta,(s,inf)}.

    For theta < inf this coincides with the plain tail norm; for
    theta = inf the approach from the left picks up the left-limit value
    of the profile at t.
    """
    return _with_limit(tail_norm, omega.left_limit, omega, theta, t)


def head_norm_right_limit(omega: RadialProfile, theta, t) -> ExtReal:
    """lim_{s -> t+} ||omega||_{theta,(0,s)}."""
    return _with_limit(head_norm, omega.right_limit, omega, theta, t)


def _norm_slope(norm, phi, s, n, rho):
    """The slope (|f'|, rho / s) of f = N^rho for Side.stieltjes, where
    N(t) = norm(t) is the s-norm, 0 < s < inf, over a region of R^n bounded
    by the sphere of radius t of a radial function whose s-th power is phi:
    |f'| = (rho / s) N^(rho - s) phi(t) |S^(n-1)| t^(n-1), and 0 where N
    or phi is.  f vanishes like the distance to a point where the region's
    mass does, to the power rho / s.  norm, phi and |f'| take arrays of t."""
    c = rho / s * sphere_area(n)

    def df(t):
        nv, dens = norm(t), phi(t)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            val = c * np.power(nv, rho - s) * dens * t ** (n - 1)
        return np.where((nv == 0.0) | (dens == 0.0), 0.0, val)
    return df, rho / s


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

    def integral(self, g, n, t):
        """Integral of g(|x|) over the region at radius t in R^n."""
        if self is Side.BALL:
            return ball_integral(g, n, t)
        return complement_integral(g, n, t)

    def esssup(self, g, t):
        """Essential supremum of the profile over the region's radii."""
        if self is Side.BALL:
            return esssup_ball(g, t)
        return esssup_complement(g, t)

    def region_norm(self, g, s, n, t) -> ExtReal:
        """||g||_s over the region at radius t in R^n, s in (0, inf]."""
        s = float(s)
        if math.isinf(s):
            return self.esssup(g, t)
        return ext_pow(self.integral(g.power(s), n, t), 1.0 / s)

    def outer_norm(self, omega, theta, t):
        """The outer norm paired with the side: tail or head norm."""
        if self is Side.BALL:
            return tail_norm(omega, theta, t)
        return head_norm(omega, theta, t)

    def outer_norm_limit(self, omega, theta, t):
        """The outer norm's one-sided limit at t: from the left for tails,
        from the right for heads."""
        if self is Side.BALL:
            return tail_norm_left_limit(omega, theta, t)
        return head_norm_right_limit(omega, theta, t)

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

    def stieltjes(self, f, f_end, omega, theta, rho, breaks, slope):
        """The integral over t > 0 of f against h = N^(-rho), rho > 0, where
        N(t) is the outer norm of omega with exponent theta at t.

        f >= 0 takes an array of t and is monotone, with limit f_end at the
        end where h has a finite limit h_end = ||omega||_theta^(-rho): t -> 0
        for balls, t -> inf for complements.  breaks are the data's
        breakpoints.  slope, read at theta = inf only, is None or, for a
        continuous f, the pair (|f'|, a) that _norm_slope returns.

        For finite theta, h has the density |h'| = (rho / theta)
        N^(-rho-theta) omega^theta and no atoms, and f |h'| goes to
        integrate_halfline with breaks as breakpoints.  Toward h_end the
        walk stops once the rest, f(xi) |h(x) - h_end| with f(xi) between
        f(x) and f_end, is bracketed to tolerance.  Toward a finite cut,
        where h becomes infinite for an omega of bounded support, it walks
        in the distance s to the cut, so that a divergence there reads inf;
        a walk that reaches the float resolution of the cut raises
        QuadratureFailure.

        For theta = inf, h comes from a running esssup and may jump.  With
        a slope the integral is that of (h - h_end) |f'| (see _by_parts);
        without one, stieltjes_integral's refining Riemann-Stieltjes sums
        with breaks as jump points.
        """
        theta = float(theta)

        def h_limit(t):
            return ext_pow(self.outer_norm_limit(omega, theta, t), -rho)

        integ = MonotoneIntegrator.from_function(
            h_limit, self.direction, jump_points=breaks,
            infinite_from=self.infinite_from(omega))
        if math.isinf(theta) and slope is None:
            return stieltjes_integral(f, integ, (0.0, _INF))
        lo, hi = _defined_range(f, integ, 0.0, _INF)
        if not lo < hi:
            return ExtReal(0.0)

        def h(t):
            return ext_pow(self.outer_norm(omega, theta, t), -rho)

        up = self is Side.COMPLEMENT      # the walk toward h's finite limit
        h_end = float(ext_pow(tail_norm(omega, theta, 0.0), -rho))
        f_end = float(f_end)
        if math.isinf(theta):
            return self._by_parts(f, f_end, h, h_end, (lo, hi), slope, breaks)

        def integrand(t):
            om, norm = omega(t), self.outer_norm(omega, theta, t)
            fv = _values(f, t)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                dens = (rho / theta) * np.exp(
                    theta * np.log(om) - (rho + theta) * np.log(norm))
                # N = 0 inside (lo, hi) is rounding next to a cut: nan
                dens = np.where(om == 0.0, 0.0,
                                np.where(norm == 0.0, np.nan, dens))
                return np.where((fv == 0.0) | (dens == 0.0), 0.0, fv * dens)

        def rest(x, toward):
            if toward != up:
                return None
            fx, mass = _values(f, x), np.abs(h(x) - h_end)
            with np.errstate(invalid="ignore"):
                return tuple(np.where(mass == 0.0, 0.0, bound * mass)
                             for bound in (np.minimum(fx, f_end),
                                           np.maximum(fx, f_end)))

        cut = lo if up else hi
        if cut in (0.0, _INF):
            val, _ = integrate_halfline(integrand, (lo, hi), breaks, rest)
            return val
        # the half toward the open end in t, the half toward the cut in
        # s = |t - cut|, where t = cut is no longer a point of the walk
        mid = 2.0 * cut if up else 0.5 * cut
        far, _ = integrate_halfline(integrand, (mid, hi) if up else (lo, mid),
                                    breaks, rest)
        sign = 1.0 if up else -1.0

        def near(s):
            t = cut + sign * s
            return np.where(t == cut, np.nan, integrand(t))

        gaps = np.abs(np.asarray(breaks, dtype=float) - cut)
        try:
            close, _ = integrate_halfline(near, (0.0, abs(mid - cut)),
                                          gaps[gaps < abs(mid - cut)])
        except QuadratureFailure as exc:
            raise QuadratureFailure(
                f"Stieltjes integral toward the cut at t = {cut:g}, in the "
                f"distance s to it: {exc}") from exc
        return far + close

    def _by_parts(self, f, f_end, h, h_end, interval, slope, breaks):
        """theta = inf: the integral of f against h over the interval on
        which h is finite, as the integral of (h - h_end) |f'|.

        f is continuous and monotone the other way to h, and tends to 0 at
        the end opposite h_end, so integrating by parts leaves no boundary
        term and meets no atom of h: h may be the plain power of the outer
        norm, whatever its value at a jump.  Both h - h_end and f - f_end
        shrink toward h_end, so the rest of the walk there beyond x lies
        between 0 and |h(x) - h_end| |f(x) - f_end|.

        Where f vanishes from a breakpoint z on (the last live point for
        balls, the first for complements), |f'| grows like |t - z|^(a - 1)
        next to z.  The piece between z and the breakpoint y before it is
        integrated in x on (0, 1), with t = z + (y - z) x^(1/a), where the
        integrand is smooth."""
        df, a = slope
        lo, hi = interval
        up = self is Side.COMPLEMENT

        def integrand(t):
            d = _values(df, t)
            with np.errstate(invalid="ignore"):
                return np.where(d == 0.0, 0.0, (h(t) - h_end) * d)

        def rest(x, toward):
            if toward != up:
                return None
            mass = np.abs(h(x) - h_end) * np.abs(_values(f, x) - f_end)
            return np.zeros(mass.shape), mass

        # the breakpoints in [lo, hi], with a finite cut among them
        bks = _sorted_unique(np.concatenate(
            (breaks, [x for x in interval if 0.0 < x < _INF])))
        bks = bks[(bks >= lo) & (bks <= hi)]
        dead = bks[_values(f, bks) == 0.0] if bks.size else bks
        if not dead.size:
            val, _ = integrate_halfline(integrand, (lo, hi), bks, rest)
            return val
        z = float(dead[-1] if up else dead[0])
        live = bks[bks > z] if up else bks[bks < z][::-1]
        edge = float(live[0]) if live.size else (2.0 if up else 0.5) * z
        far, _ = integrate_halfline(
            integrand, (edge, hi) if up else (lo, edge), bks, rest)
        k, width = max(1.0 / a, 1.0), abs(edge - z)

        def piece(x):
            # dt/dx at the x that the rounded t stands for, d = |t - z| =
            # width x^k: |f'| next to z would amplify the rounding of t
            t = z + (edge - z) * x ** k
            d = np.abs(t - z)
            return integrand(t) * (k * width ** (1.0 / k)
                                   * d ** (1.0 - 1.0 / k))

        close, _ = _gauss_kronrod(piece, 0.0, 1.0)
        if np.isnan(close):
            raise QuadratureFailure(
                f"Stieltjes integrand is nan between {min(z, edge):g} and "
                f"{max(z, edge):g}")
        return far + float(close)

    def in_omega(self, member: OmegaMembership) -> bool:
        """Whether omega lies in the side's class: Omega_theta (finite
        positive tail norms) or its dual (finite positive head norms)."""
        if self is Side.BALL:
            return member.in_omega_theta
        return member.in_dual_omega_theta


def _whole_space_norm(g, s, n) -> ExtReal:
    """||g||_s over all of R^n, s in (0, inf]."""
    s = float(s)
    if math.isinf(s):
        return esssup_complement(g, 0.0)
    val = ball_integral(g.power(s), n, 1.0) + \
        complement_integral(g.power(s), n, 1.0)
    return ext_pow(val, 1.0 / s)


def _power_omega_membership(c, alpha, theta):
    """Analytic tail/head finiteness for omega = c * rho^alpha."""
    if c == 0.0 or math.isinf(c):
        return False, False
    if math.isinf(theta):
        return alpha <= 0.0, alpha >= 0.0
    return alpha * theta < -1.0, alpha * theta > -1.0


def omega_class_check(omega: RadialProfile, theta,
                      sample_grid=DEFAULT_SAMPLE_GRID) -> OmegaMembership:
    """Membership in Omega_theta (finite positive tail norms for all t > 0)
    and its dual (finite positive head norms)."""
    theta = float(theta)
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
        witness = omega.breaks[0] if omega.breaks else 1.0
        return OmegaMembership(bool(tail_ok), bool(head_ok), witness)
    # sampled check
    tail_ok = head_ok = True
    witness = sample_grid[0]
    for t in sample_grid:
        tv = float(tail_norm(omega, theta, t))
        hv = float(head_norm(omega, theta, t))
        if not (0.0 < tv < _INF):
            tail_ok, witness = False, t
        if not (0.0 < hv < _INF):
            head_ok, witness = False, t
        if not tail_ok and not head_ok:
            break
    return OmegaMembership(tail_ok, head_ok, witness)


def _ball_slice_measure(n, d, r, rho):
    """(n-1)-measures of the spheres of radii rho (a float array) intersected
    with the ball of radius r centered at distance d from the origin."""
    pos = rho > 0.0
    if d == 0.0:
        return np.where(pos & (rho < r), sphere_area(n) * rho ** (n - 1), 0.0)
    if n == 1:
        meets = pos & (d - r < rho) & (rho < d + r)
        return 1.0 * meets + (pos & (rho < r - d))
    full = pos & (rho <= r - d)
    cut = pos & ~full & (rho < r + d) & (rho > d - r)
    out = np.where(full, sphere_area(n) * rho ** (n - 1), 0.0)
    if not cut.any():
        return out
    rc = rho[cut]
    # the polar angle through its half angle, sin^2(gamma / 2) =
    # (r - (rho - d)) (r + (rho - d)) / (4 rho d), which keeps its digits
    # where the cosine is near +-1, at the ball's edges rho = d -+ r
    gamma = 2.0 * np.arcsin(np.sqrt(np.clip(
        ((d - rc) + r) * ((rc - d) + r) / (4.0 * rc * d), 0.0, 1.0)))
    if n == 2:
        out[cut] = 2.0 * rc * gamma
        return out
    cap, _ = _gauss_kronrod(lambda ph: np.sin(ph) ** (n - 2), 0.0, gamma)
    out[cut] = rc ** (n - 1) * sphere_area(n - 1) * cap
    return out


def _off_center_ball_integral(profile, n, d, r):
    """Integral of profile(|x|) over the ball B(x0, r) with |x0| = d."""
    if d == 0.0:
        return float(ball_integral(profile, n, r))
    # the slice measure has a kink where the sphere starts to leave the
    # ball, at rho = r - d
    val, _ = integrate_halfline(
        lambda rho: ext_mul(profile(rho), _ball_slice_measure(n, d, r, rho)),
        (max(d - r, 0.0), d + r), (r - d,) + profile.breakpoints())
    return float(val)


def default_ball_family(radii=None, offset_factors=(0.0, 1.0, 3.0, 10.0)):
    """(center offset, radius) pairs; includes origin-centered balls."""
    if radii is None:
        radii = np.geomspace(1e-3, 1e3, 13)
    return [(f * r, r) for r in radii for f in offset_factors]


def muckenhoupt_ap_estimate(w: Weight, p, ball_family=None) -> ExtReal:
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
        m1 = _off_center_ball_integral(w.profile, n, d, r)
        m2 = _off_center_ball_integral(dual, n, d, r)
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
