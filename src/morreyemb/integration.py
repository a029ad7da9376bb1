"""Quadrature on (0, inf), radial reduction of ball integrals, and
Riemann-Stieltjes integration against monotone integrators.

Integrals are computed exactly through the profile algebra whenever the
integrand is closed-form; everything else goes through an adaptive dyadic
scheme that either converges, detects divergence (value +inf), or raises
QuadratureFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .errors import QuadratureFailure, UndefinedStieltjes
from .extreal import ExtReal
from .profiles import PowerProfile, RadialProfile, elementwise

__all__ = [
    "QuadratureConfig",
    "MonotoneIntegrator",
    "integrate_halfline",
    "ball_integral",
    "complement_integral",
    "esssup_ball",
    "esssup_complement",
    "stieltjes_integral",
    "sphere_area",
    "ball_volume",
]

_INF = math.inf

DEFAULT_CONFIG = None  # set below


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 400
    # dyadic growth threshold for declaring divergence
    divergence_delta: float = 1e-3

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 16:
            raise ValueError("max_subdivisions must be >= 16")


DEFAULT_CONFIG = QuadratureConfig()


def sphere_area(n):
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1 or n != int(n):
        raise ValueError("dimension must be a positive integer")
    n = int(n)
    return 2.0 * math.exp(0.5 * n * math.log(math.pi) - gammaln(0.5 * n))


def ball_volume(n, r=1.0):
    """Lebesgue measure of the ball of radius r in R^n."""
    return sphere_area(n) * r ** n / n


def _quad_piece(f, lo, hi, cfg):
    """Plain adaptive quadrature on a finite piece; inf/nan mean divergence."""
    try:
        val, err, *rest = quad(f, lo, hi, epsabs=cfg.abs_tol,
                               epsrel=cfg.rel_tol, limit=100, full_output=1)[:2] + ((),)
    except Exception:
        return _INF, _INF
    if math.isnan(val):
        # retry on a refined split; persistent nan means a non-integrable spot
        total, toterr = 0.0, 0.0
        edges = np.geomspace(lo, hi, 17) if lo > 0 else np.linspace(lo, hi, 17)
        for x0, x1 in zip(edges[:-1], edges[1:]):
            try:
                v, e = quad(f, x0, x1, epsabs=cfg.abs_tol,
                            epsrel=cfg.rel_tol, limit=100, full_output=1)[:2]
            except Exception:
                return _INF, _INF
            if math.isnan(v):
                return _INF, _INF
            total += v
            toterr += e
        return total, toterr
    return val, err


def integrate_halfline(f, interval, cfg=None):
    """Adaptive integral of a nonnegative f over (a, b) in (0, inf].

    Returns (value, error_bound); value is inf when dyadic partial sums
    indicate divergence at either end.
    """
    cfg = cfg or DEFAULT_CONFIG
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    breaks = tuple(f.breakpoints()) if isinstance(f, RadialProfile) else ()
    fn = f if callable(f) else None
    if fn is None:
        raise TypeError("integrand must be callable")

    # seed finite core
    core_lo = a if a > 0 else min(1.0, b / 2 if math.isfinite(b) else 1.0)
    core_hi = b if math.isfinite(b) else max(1.0, 2 * a, core_lo * 2)
    if core_lo >= core_hi:
        core_lo = core_hi / 2

    anchors = sorted({core_lo, core_hi} | {x for x in breaks if core_lo < x < core_hi})
    total, toterr = 0.0, 0.0
    for x0, x1 in zip(anchors[:-1], anchors[1:]):
        v, e = _quad_piece(fn, x0, x1, cfg)
        if math.isinf(v):
            return ExtReal(_INF), _INF
        total, toterr = total + v, toterr + e

    for outward in ("down", "up"):
        if outward == "down" and a > 0:
            continue
        if outward == "up" and math.isfinite(b):
            continue
        edge = core_lo if outward == "down" else core_hi
        pieces = []
        for k in range(cfg.max_subdivisions):
            if outward == "down":
                x0, x1 = edge / 2.0, edge
                edge = x0
            else:
                x0, x1 = edge, edge * 2.0
                edge = x1
            inner = sorted({x0, x1} | {x for x in breaks if x0 < x < x1})
            v, e = 0.0, 0.0
            for y0, y1 in zip(inner[:-1], inner[1:]):
                pv, pe = _quad_piece(fn, y0, y1, cfg)
                if math.isinf(pv):
                    return ExtReal(_INF), _INF
                v, e = v + pv, e + pe
            total, toterr = total + v, toterr + e
            pieces.append(v)
            tol = max(cfg.abs_tol, cfg.rel_tol * abs(total))
            if v <= 0.125 * tol:
                break
            if len(pieces) >= 9:
                ratios = [pieces[i + 1] / pieces[i]
                          for i in range(len(pieces) - 9, len(pieces) - 1)
                          if pieces[i] > 0]
                if len(ratios) == 8 and min(ratios) >= 1.0 - cfg.divergence_delta:
                    return ExtReal(_INF), _INF
                if len(ratios) == 8 and max(ratios) < 0.95:
                    r = ratios[-1]
                    rem = v * r / (1.0 - r)
                    if rem <= tol:
                        total += rem
                        toterr += rem
                        break
        else:
            # the budget ran out on a slow geometric tail (a power tail
            # t^(-1-eps) has dyadic ratio 2^(-eps)): add its remainder,
            # with the remainder's sensitivity to the ratio spread as error
            if len(ratios) == 8 and 0.0 < min(ratios) and max(ratios) < 1.0:
                r = ratios[-1]
                spread = (max(ratios) - min(ratios)) / r
                if spread <= 1e-6:
                    rem = v * r / (1.0 - r)
                    total += rem
                    toterr += rem * spread / (1.0 - r)
                    continue
            raise QuadratureFailure(
                "dyadic budget exhausted without convergence or divergence",
                value=total, error_bound=toterr + pieces[-1])
    return ExtReal(max(total, 0.0)), toterr


def _radial_density(g, n):
    """Profile rho -> g(rho) * rho^(n-1), simplified when possible."""
    radial = PowerProfile(1.0, float(n - 1))
    if isinstance(g, RadialProfile):
        return g.times(radial) if n > 1 else g
    raise TypeError("expected a RadialProfile")


def _profile_integral(prof, a, b, cfg):
    """Integral of prof over (a, b) as a float, or a float array for array
    ends: the closed form, else the adaptive integral of each element."""
    val = prof.integral(a, b)
    if val is None:
        val = elementwise(
            lambda x, y: float(integrate_halfline(prof, (x, y), cfg)[0]), a, b)
    return val


def _ext(val):
    return val if isinstance(val, np.ndarray) else ExtReal(val)


def _check_radius(t):
    if (t.min() if isinstance(t, np.ndarray) else t) <= 0:
        raise ValueError("radius must be positive")


def ball_integral(g, n, t, cfg=None):
    """Integral of g(|x|) over the ball B(0, t) in R^n.  An array of radii
    gives a float array of integrals."""
    _check_radius(t)
    dens = _radial_density(g, n)
    return _ext(sphere_area(n) * _profile_integral(dens, 0.0, t, cfg))


def complement_integral(g, n, t, cfg=None):
    """Integral of g(|x|) over the complement of B(0, t) in R^n."""
    _check_radius(t)
    dens = _radial_density(g, n)
    return _ext(sphere_area(n) * _profile_integral(dens, t, _INF, cfg))


def esssup_ball(g, t):
    """Essential supremum of the radial profile over (0, t)."""
    val = g.esssup(0.0, t)
    return val if isinstance(val, np.ndarray) else ExtReal(val)


def esssup_complement(g, t):
    """Essential supremum of the radial profile over (t, inf)."""
    val = g.esssup(t, _INF)
    return val if isinstance(val, np.ndarray) else ExtReal(val)


def _values(fn, x):
    """fn on the float array x, as a float array of the same shape (a
    scalar result is broadcast).  Overflow gives inf without a warning."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        val = np.asarray(fn(x), dtype=float)
    return val if val.shape == x.shape else np.broadcast_to(val, x.shape)


@dataclass
class MonotoneIntegrator:
    """Monotone extended-real integrator for Stieltjes integration.

    ``increasing`` integrators are non-decreasing and left-continuous with
    values in [0, inf], possibly identically inf beyond ``infinite_from``.
    ``decreasing`` integrators are non-increasing and right-continuous,
    possibly identically inf below ``infinite_from``; the induced measure of
    [y, z] is h(y-) - h(z+), which is nonnegative.

    The evaluator and the one-sided limits take a 1-D float array and
    return the values at its points, and so do the methods.
    """

    direction: str
    evaluator: object
    left: object = None
    right: object = None
    jump_points: tuple = field(default_factory=tuple)
    infinite_from: float = None

    def __post_init__(self):
        if self.direction not in ("increasing", "decreasing"):
            raise ValueError("direction must be 'increasing' or 'decreasing'")
        if self.left is None:
            self.left = self.evaluator
        if self.right is None:
            self.right = self.evaluator

    def __call__(self, t):
        return _values(self.evaluator, t)

    def mass(self, y, z):
        """Measure of the intervals [y, z] (one-sided limits at the ends)."""
        if self.direction == "increasing":
            return _values(self.right, z) - _values(self.left, y)
        return _values(self.left, y) - _values(self.right, z)

    def atom(self, t):
        return self.mass(t, t)

    @classmethod
    def from_function(cls, h, direction, jump_points=(), infinite_from=None,
                      left=None, right=None):
        """Wrap an array evaluator; one-sided limits default to numeric
        approach from a relative distance 1e-9, which is exact for steps
        and negligible for the absolutely continuous part."""
        if left is None:
            left = lambda t: h(t * (1.0 - 1e-9))
        if right is None:
            right = lambda t: h(t * (1.0 + 1e-9))
        return cls(direction=direction, evaluator=h, left=left, right=right,
                   jump_points=tuple(jump_points), infinite_from=infinite_from)


def _find_infinite_cut(h: MonotoneIntegrator, a, b):
    """Locate the boundary of the region where h is infinite, if any.

    h is sampled on a 129-point geometric grid; the bracket around the
    change from finite to infinite values is resampled the same way until
    it is tight to 1e-13 relative."""
    if h.infinite_from is not None:
        return h.infinite_from
    increasing = h.direction == "increasing"
    c0, c1 = max(a, 1e-9), min(b, 1e9)
    for depth in range(12):
        grid = np.geomspace(c0, c1, 129)
        finite = np.isfinite(_values(h.evaluator, grid))
        if depth == 0 and finite.all():
            return None
        if increasing:
            # infinite on (c, b): bracket the first infinite sample
            idx = int(np.argmin(finite))
            if idx == 0:
                return c0
            c0, c1 = grid[idx - 1], grid[idx]
        else:
            idx = len(grid) - 1 - int(np.argmin(finite[::-1]))
            if idx == len(grid) - 1:
                return c1
            c0, c1 = grid[idx], grid[idx + 1]
        if c1 / c0 < 1 + 1e-13:
            break
    return c0 if increasing else c1


def _rs_stage(f, h: MonotoneIntegrator, x0, x1, cfg):
    """Refining Riemann-Stieltjes midpoint sums on a jump-free stage."""
    lo = max(x0, 1e-18)
    hi = min(x1, 1e18)
    if lo >= hi:
        return 0.0, 0.0
    # the stage is open: its end values are the inner one-sided limits, so
    # atoms sitting at the endpoints (accounted for exactly elsewhere) are
    # excluded
    h_lo = _values(h.right, np.array([lo]))
    h_hi = _values(h.left, np.array([hi]))
    prev = None
    n = 256
    while n <= (1 << 17):
        edges = np.geomspace(lo, hi, n + 1)
        mids = np.sqrt(edges[:-1] * edges[1:])
        hv = np.concatenate((h_lo, _values(h.evaluator, edges[1:-1]), h_hi))
        dm = np.diff(hv) if h.direction == "increasing" else -np.diff(hv)
        dm = np.maximum(dm, 0.0)
        fv = _values(f, mids)
        with np.errstate(invalid="ignore"):
            contrib = np.where(fv == 0.0, 0.0, fv * dm)
        if np.any(np.isinf(contrib)) or np.any(np.isnan(contrib)):
            return _INF, _INF
        s = float(np.sum(contrib))
        if prev is not None:
            err = abs(s - prev)
            if err <= max(cfg.abs_tol, cfg.rel_tol * 1e4 * abs(s)):
                # midpoint refinement converges like n^-2; extrapolate
                return (4.0 * s - prev) / 3.0, err
        prev = s
        n *= 2
    return prev, abs(prev) * 1e-4 if prev else 0.0


def _nonzero_on(f, lo, hi):
    """Sample f > 0 strictly inside the open interval (lo, hi)."""
    if lo >= hi:
        return False
    grid = np.geomspace(max(lo, 1e-12) * (1.0 + 1e-9),
                        min(hi, 1e14) * (1.0 - 1e-9), 65)
    return bool(np.any(_values(f, grid) > 0.0))


def stieltjes_integral(f, h: MonotoneIntegrator, interval=(0.0, _INF), cfg=None):
    """Integral of f >= 0 against the monotone integrator h over (a, b).

    f, like the evaluators of h, takes a 1-D float array of points and
    returns the values there (a scalar result is broadcast); 0 * inf is
    taken as 0 and overflow as inf.  Jump atoms contribute f(t) times the
    jump size exactly.  Where h is identically infinite the integral is
    defined only when f vanishes there; otherwise UndefinedStieltjes is
    raised.
    """
    cfg = cfg or DEFAULT_CONFIG
    a, b = interval
    cut = _find_infinite_cut(h, a, b)
    if cut is not None:
        if h.direction == "increasing":
            if _nonzero_on(f, cut, b):
                raise UndefinedStieltjes(
                    f"integrator infinite on ({cut:g}, {b:g}) where f > 0")
            b = cut
        else:
            if _nonzero_on(f, a, cut):
                raise UndefinedStieltjes(
                    f"integrator infinite on ({a:g}, {cut:g}) where f > 0")
            a = cut
    if not a < b:
        return ExtReal(0.0)

    jumps = np.unique(np.asarray(h.jump_points, dtype=float))
    jumps = jumps[(jumps > a) & (jumps < b)]
    total = 0.0
    if jumps.size:
        mass = h.atom(jumps)
        fv = _values(f, jumps)
        hit = (mass > 0.0) & (fv > 0.0)
        if np.any(np.isinf(mass[hit]) | np.isinf(fv[hit])):
            return ExtReal(_INF)
        total = float(np.sum(fv[hit] * mass[hit]))

    stages = [a] + jumps.tolist() + [b]
    for x0, x1 in zip(stages[:-1], stages[1:]):
        # dyadic sub-stages toward infinite/zero endpoints keep each
        # refinement numerically tame; the central pieces always run, and
        # the extreme ends may stop early once contributions are negligible
        edges = _stage_edges(x0, x1)
        sub = list(zip(edges[:-1], edges[1:]))
        low = [p for p in sub if p[1] <= 1e-6][::-1]
        mid = [p for p in sub if p[1] > 1e-6 and p[0] < 1e6]
        high = [p for p in sub if p[0] >= 1e6]
        for group, stoppable in ((mid, False), (low, True), (high, True)):
            small = 0
            hist = []
            converged = not stoppable
            for y0, y1 in group:
                s, _ = _rs_stage(f, h, y0, y1, cfg)
                if math.isinf(s):
                    return ExtReal(_INF)
                total += s
                hist.append(s)
                tol = max(cfg.abs_tol, cfg.rel_tol * 1e4 * abs(total))
                small = small + 1 if s <= tol else 0
                if stoppable and small >= 3:
                    converged = True
                    break
            if not converged and len(hist) >= 2 and hist[-1] > tol:
                # the end of the range was reached with material
                # contributions left; extrapolate a geometric tail or
                # declare divergence
                q = hist[-1] / hist[-2] if hist[-2] > 0 else _INF
                if q >= 0.999:
                    return ExtReal(_INF)
                total += hist[-1] * q / (1.0 - q)
    return ExtReal(max(total, 0.0))


def _stage_edges(x0, x1):
    """Split (x0, x1) into log-dyadic sub-stages spanning at most a couple
    of decades each, so wide or semi-infinite stages refine locally."""
    lo = max(x0, 1e-16)
    hi = min(x1, 1e16)
    if lo >= hi:
        return [x0, x1]
    decades = math.log10(hi / lo)
    n = max(1, int(math.ceil(decades / 1.5)))
    return list(np.geomspace(lo, hi, n + 1))
