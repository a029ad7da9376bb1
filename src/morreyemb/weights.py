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

from .errors import NotAWeight, QuadratureFailure, UndefinedStieltjes
from .extreal import (ExtReal, _mul, _power, conjugate_exponent,
                      scalar_results)
from .integration import (_gauss_kronrod, _integral, _profile_integral,
                          _shell_integral, _sorted_unique, _values,
                          ball_integral, ball_volume, sphere_area)
from .profiles import (ExpProfile, PiecewisePowerProfile, PowerProfile,
                       RadialProfile, ShiftedPowerProfile, tabulated,
                       truncated_power)

__all__ = [
    "Weight",
    "OmegaMembership",
    "lp_norm_interval",
    "tail_norm",
    "head_norm",
    "Side",
    "omega_class_check",
    "muckenhoupt_ap_estimate",
    "default_ball_family",
    "profile_from_dict",
]

_INF = math.inf


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
    return _power(_profile_integral(profile.power(q), a, b), 1.0 / q)


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


def _defined_range(f, cut, increasing):
    """(0, inf) less the part beyond cut (None: none) where the monotone
    integrator of Side.stieltjes is identically infinite, increasing if it
    is infinite above cut.  The integral of f there is defined only when f
    vanishes: f is sampled strictly inside that part, from 1e-12 or two
    decades below cut up to 1e14 or two decades above it, and f > 0 there
    raises UndefinedStieltjes."""
    if cut is None:
        return 0.0, _INF
    kept, (lo, hi) = ((0.0, cut), (cut, _INF)) if increasing \
        else ((cut, _INF), (0.0, cut))
    grid = np.geomspace(max(lo, min(1e-12, hi / 100.0)) * (1.0 + 1e-9),
                        min(hi, max(1e14, lo * 100.0)) * (1.0 - 1e-9), 65)
    if np.any(_values(f, grid) > 0.0):
        raise UndefinedStieltjes(
            f"integrator infinite on ({lo:g}, {hi:g}) where f > 0")
    return kept


def _denominator(a):
    """The least k < 16 with k a an integer (to 1e-9), else 16."""
    return next((k for k in range(1, 16) if abs(k * a - round(k * a))
                 <= 1e-9), 16)


class Side(enum.Enum):
    """The Morrey-type side of a problem: BALL for norms over the balls
    B(0, t), COMPLEMENT for norms over their exteriors.

    The two sides are images of each other under the inversion t -> 1/t.
    A side owns its region through its radii, the end of (0, inf) where
    the other side's region is all of R^n, the outer norm over t that
    pairs with it (over the other side's radii: the tail norm for balls,
    the head norm for complements) with the one-sided limits of omega and
    of that norm, the edge of omega's support beyond which a negative
    power of that norm is infinite, and its Omega_theta class.  Every t
    may be an array of radii, as in the functions used.
    """

    BALL = "ball"
    COMPLEMENT = "complement"

    @property
    def other(self):
        return Side.COMPLEMENT if self is Side.BALL else Side.BALL

    def region(self, t):
        """The region's radii at radius t: (0, t) for balls, (t, inf) for
        complements."""
        return (0.0, t) if self is Side.BALL else (t, _INF)

    @scalar_results(ExtReal)
    def region_norm(self, g, s, n, t) -> ExtReal:
        """||g||_s over the region at radius t in R^n, s in (0, inf]."""
        s = float(s)
        a, b = self.region(np.asarray(t, dtype=float))
        if math.isinf(s):
            return g.esssup(a, b)
        return _power(_shell_integral(g.power(s), n, a, b), 1.0 / s)

    def outer_norm(self, omega, theta, t):
        """The outer norm paired with the side, over the other side's
        region: the tail norm for balls, the head norm for complements."""
        return lp_norm_interval(omega, theta, self.other.region(t))

    @property
    def end(self):
        """The end of (0, inf) where the other side's region is all of R^n
        and the outer norm is omega's whole-line norm: 0 for balls, inf for
        complements."""
        return 0.0 if self is Side.BALL else _INF

    def limit(self, omega):
        """omega's one-sided limit from the outer region's side, as a
        function of t: from the right for balls, from the left for
        complements."""
        return omega.right_limit if self is Side.BALL else omega.left_limit

    @scalar_results(ExtReal)
    def outer_norm_limit(self, omega, theta, t):
        """The outer norm's one-sided limit at t > 0, with omega's from the
        region's side: from the left for tails, from the right for heads.
        For theta < inf it is the outer norm; for theta = inf it is at
        least omega's limit at t."""
        if np.min(t) <= 0:
            raise ValueError("t must be positive")
        plain = self.outer_norm(omega, theta, np.asarray(t, dtype=float))
        if math.isfinite(float(theta)):
            return plain
        return np.maximum(plain, self.other.limit(omega)(t))

    def infinite_from(self, omega):
        """Where a negative power of the outer norm becomes identically
        infinite: past the last point of omega's support for tails, below
        the first for heads; None when it never does."""
        if self is Side.BALL:
            hi = omega.support_sup()
            return hi if math.isfinite(hi) else None
        lo = omega.support_inf()
        return lo if lo > 0.0 else None

    def stieltjes(self, f, f_end, omega, theta, rho, a, breaks):
        """The integral over t > 0 of f against h = N^(-rho), rho > 0, where
        N(t) is the outer norm of omega with exponent theta at t.

        f >= 0 takes an array of t and is monotone, with limit f_end at the
        end where h has a finite limit h_end = ||omega||_theta^(-rho): the
        side's end, t -> 0 for balls, t -> inf for complements.  Where f vanishes from a
        breakpoint z on, it does so like |t - z|^a.  breaks are the data's
        breakpoints.

        The integral is that of f |h'| on integrate_halfline with breaks as
        breakpoints, plus f(b) times the atoms of h.  For finite theta,
        |h'| = (rho / theta) N^(-rho-theta) omega^theta and h has no atoms.
        For theta = inf, N is a running esssup of omega: |h'| is
        rho h |(log omega)'| where N equals omega's one-sided limit on the
        region's side and omega moves the region's way (falls for balls,
        rises for complements), and 0 elsewhere, and the atoms are
        |h(b) - h_limit(b)| at omega's breakpoints b, h_limit being the
        power of the outer norm's one-sided limit.

        The integral runs over the range where h is finite, read from
        omega's support (infinite_from), cut where f vanishes.  Toward
        h_end the walk stops once the rest, f(xi) times h's continuous mass
        beyond x with f(xi) between f(x) and f_end, is bracketed to
        tolerance.  At the other end, the piece up to the breakpoint y next
        to it may go apart.  Where h becomes infinite at a finite cut c
        (omega of bounded support, finite theta), the piece is walked in the
        distance s = |t - c|, so that a divergence there reads inf; a walk
        that reaches the float resolution of c raises QuadratureFailure.
        Where instead f vanishes from z with 0 < a < 1, the piece is
        integrated in x on (0, 1), with t = z + (y - z) x^k and k the
        denominator of a (at most 16), where the integrand is smooth.
        """
        theta = float(theta)
        up = self is Side.COMPLEMENT      # the walk toward h's finite limit

        def h(t):
            return _power(self.outer_norm(omega, theta, t), -rho)

        def h_limit(t):
            return _power(self.outer_norm_limit(omega, theta, t), -rho)

        lo, hi = _defined_range(f, self.infinite_from(omega), not up)
        cut = lo if up else hi           # the end opposite h_end
        # f is monotone: it vanishes beyond its zero nearest h_end among the
        # breakpoints and the ends
        bks = _sorted_unique(np.concatenate(
            (breaks, [x for x in (lo, hi) if 0.0 < x < _INF])))
        bks = bks[(bks >= lo) & (bks <= hi)]
        dead = bks[_values(f, bks) == 0.0] if bks.size else bks
        if dead.size:
            lo, hi = (float(dead[-1]), hi) if up else (lo, float(dead[0]))
        if not lo < hi:
            return ExtReal(0.0)

        # h's atoms, with the sum of those on h_end's side of each of them
        # (itself included) and 0 past the last
        jumps = _sorted_unique(omega.breakpoints()) if math.isinf(theta) \
            else np.zeros(0)
        jumps = jumps[(jumps > lo) & (jumps < hi)]
        atoms, beyond = 0.0, np.zeros(1)
        if jumps.size:
            masses = np.abs(h(jumps) - h_limit(jumps))
            fv = _values(f, jumps)
            atoms = float(np.sum(_mul(fv, masses)))
            if math.isnan(atoms):
                raise QuadratureFailure(
                    "Stieltjes integrand is nan at an atom")
            beyond = np.append(np.cumsum(masses[::-1])[::-1], 0.0) if up \
                else np.append(0.0, np.cumsum(masses))

        def density(t):
            norm = self.outer_norm(omega, theta, t)
            with np.errstate(divide="ignore", over="ignore",
                             invalid="ignore"):
                if math.isinf(theta):
                    on = norm == self.limit(omega)(t)
                    slope = np.zeros(t.shape)
                    slope[on] = omega.log_slope(t[on])
                    slope = slope if up else -slope
                    zero = ~(slope > 0.0)
                    dens = rho * np.exp(-rho * np.log(norm)) * slope
                else:
                    om = omega(t)
                    zero = om == 0.0
                    dens = (rho / theta) * np.exp(
                        theta * np.log(om) - (rho + theta) * np.log(norm))
            # N = 0 inside (lo, hi) is rounding next to a cut: nan
            return np.where(zero, 0.0, np.where(norm == 0.0, np.nan, dens))

        def integrand(t):
            return _mul(_values(f, t), density(t))

        h_end = _power(float(self.outer_norm(omega, theta, self.end)), -rho)
        f_end = float(f_end)

        def rest(x, toward):
            if toward != up:
                return None
            at = np.searchsorted(jumps, x, side="left" if up else "right")
            mass = np.maximum(np.abs(h(x) - h_end) - beyond[at], 0.0)
            fx = _values(f, x)
            return tuple(_mul(bound, mass) for bound in
                         (np.minimum(fx, f_end), np.maximum(fx, f_end)))

        end = lo if up else hi
        k = _denominator(a) if dead.size and 0.0 < a < 1.0 else 1
        toward_cut = end == cut and 0.0 < end < _INF and \
            math.isinf(h_limit(np.array([end]))[0])
        if k == 1 and not toward_cut:
            val, _ = _integral(integrand, (lo, hi), breaks, rest)
            return ExtReal(atoms + val)
        # the piece between end and the breakpoint next to it apart
        live = bks[bks > end] if up else bks[bks < end][::-1]
        edge = float(live[0]) if live.size else (2.0 if up else 0.5) * end
        far, _ = _integral(
            integrand, (edge, hi) if up else (lo, edge), breaks, rest)
        width = abs(edge - end)
        if toward_cut:
            def near(s):
                t = end + (s if up else -s)
                return np.where(t == end, np.nan, integrand(t))

            try:
                close, _ = _integral(near, (0.0, width))
            except QuadratureFailure as exc:
                raise QuadratureFailure(
                    f"Stieltjes integral toward the cut at t = {end:g}, in "
                    f"the distance s to it: {exc}") from exc
            return ExtReal(atoms + far + close)

        def piece(x):
            # dt/dx at the x that the rounded t stands for, d = |t - z| =
            # width x^k, so that f(t) and dt/dx see the same d
            t = end + (edge - end) * x ** k
            d = np.abs(t - end)
            return integrand(t) * (k * width ** (1.0 / k)
                                   * d ** (1.0 - 1.0 / k))

        close, _ = _gauss_kronrod(piece, 0.0, 1.0)
        if np.isnan(close):
            raise QuadratureFailure(
                f"Stieltjes integrand is nan between {min(end, edge):g} and "
                f"{max(end, edge):g}")
        return ExtReal(atoms + far + float(close))

    def in_omega(self, member: OmegaMembership) -> bool:
        """Whether omega lies in the side's class: Omega_theta (finite
        positive tail norms) or its dual (finite positive head norms)."""
        if self is Side.BALL:
            return member.in_omega_theta
        return member.in_dual_omega_theta


def _power_omega_membership(c, alpha, theta):
    """Analytic tail/head finiteness for omega = c * rho^alpha."""
    if c == 0.0 or math.isinf(c):
        return False, False
    if math.isinf(theta):
        return alpha <= 0.0, alpha >= 0.0
    return alpha * theta < -1.0, alpha * theta > -1.0


def omega_class_check(omega: RadialProfile, theta) -> OmegaMembership:
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
    if isinstance(omega, (ExpProfile, ShiftedPowerProfile)):
        # bounded on every (0, t), so the heads are finite; the tails are
        # those of e^(rate t) and of the power (shift + t)^alpha
        if isinstance(omega, ExpProfile):
            tail_ok = omega.rate < 0.0 or (math.isinf(theta)
                                           and omega.rate == 0.0)
        else:
            tail_ok = _power_omega_membership(omega.c, omega.alpha,
                                              theta)[0]
        positive = 0.0 < omega.c < _INF
        return OmegaMembership(positive and tail_ok, positive, 1.0)
    # sampled check on 49 points of [1e-6, 1e6]: the norms are positive
    # for every t exactly when the support is unbounded toward their side,
    # which an underflowed norm would hide, and finite where their values are
    tail_ok = omega.support_sup() == _INF
    head_ok = omega.support_inf() == 0.0
    grid = np.geomspace(1e-6, 1e6, 49)
    tail_inf = np.isinf(tail_norm(omega, theta, grid))
    head_inf = np.isinf(head_norm(omega, theta, grid))
    # the witness is the last t with an infinite norm up to the first t
    # where both have failed, else the first t
    failed = (np.logical_or.accumulate(tail_inf) | (not tail_ok)) \
        & (np.logical_or.accumulate(head_inf) | (not head_ok))
    stop = int(np.argmax(np.append(failed, True)))
    hits = np.flatnonzero((tail_inf | head_inf)[:stop + 1])
    return OmegaMembership(bool(tail_ok and not tail_inf.any()),
                           bool(head_ok and not head_inf.any()),
                           float(grid[hits[-1] if hits.size else 0]))


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
    return _integral(
        lambda rho: _mul(profile(rho), _ball_slice_measure(n, d, r, rho)),
        (max(d - r, 0.0), d + r), (r - d,) + profile.breakpoints())[0]


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
    pp = float(conjugate_exponent(p))
    n = w.dimension
    dual = w.profile.power(1.0 - pp)
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
