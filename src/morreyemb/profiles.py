"""Radial profiles on (0, inf) with closed-form calculus where possible.

A profile represents a one-variable map phi: (0, inf) -> [0, inf].  Power,
piecewise-power, shifted-power and exponential profiles carry exact
interval integrals and essential suprema; products and powers of profiles
simplify symbolically when they can and otherwise fall back to numerical
evaluation by the quadrature layer.

Evaluation, interval integrals, essential suprema and one-sided limits
accept a radius or an array of radii (for an interval, either end may be
an array) and then return a float array of the broadcast shape.  A radius
runs on the same array path as a 0-d array and comes back as a float.
The closed-form kinds compute with numpy; an evaluator (FnProfile) takes
each radius on its own, the suprema of profiles without closed forms read
one shared sample, and their integrals one pass of the quadrature layer.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left

import numpy as np

from .errors import QuadratureFailure
from .extreal import _float_pow, _mul, _power, scalar_results

__all__ = [
    "RadialProfile",
    "PowerProfile",
    "PiecewisePowerProfile",
    "ShiftedPowerProfile",
    "ExpProfile",
    "ProductProfile",
    "FnProfile",
    "tabulated",
    "constant",
    "truncated_power",
]

_INF = math.inf


def _radii(method):
    """The scalar boundary of a profile method: the radii enter as float
    arrays, and when none was an array the result leaves as a float."""
    @scalar_results(float)
    @functools.wraps(method)
    def public(self, *xs):
        return method(self, *(np.asarray(x, dtype=float) for x in xs))
    return public


def _real(x, what):
    """float(x) for a profile parameter, which must be finite."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{what} must be finite")
    return x


def _shaped(value, x):
    """value as a float array of the shape of x."""
    return np.full(x.shape, value, dtype=float)


def _end_sups(values, a, b, rising):
    """Essential suprema over the intervals (a, b) of a monotone profile
    whose values at radii the callable values gives: the values at the
    upper ends if rising, else at the lower ends, and 0 where a = b, as
    the integral there."""
    end = np.broadcast_to(b if rising else a, np.broadcast(a, b).shape)
    return np.where(a < b, values(end), 0.0)


def _near_log(alpha):
    """Whether rho^alpha integrates to a logarithm: alpha = -1, or a few
    ulps off it after the profile algebra (v^(-1/3) to the 6th times rho
    gives rho^(-1.0000000000000009)), where c (b^e - a^e) / e with e near
    1e-15 would lose every digit."""
    return abs(alpha + 1.0) <= 1e-14


def _power_integral(c, alpha, a, b):
    """Exact integrals of c*rho^alpha over the intervals (a, b),
    0 <= a <= b <= inf: c (b^e - a^e) / e with e = alpha + 1, or
    c log(b / a), where 0^e and inf^e give the infinite ends."""
    if c == 0.0 or math.isinf(c):
        val = c
    else:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            if _near_log(alpha):
                val = c * np.log(b / a)
            else:
                e = alpha + 1.0
                val = c * (np.power(b, e) - np.power(a, e)) / e
    return np.where(a == b, 0.0, val)


def _power_values(c, alpha, rho):
    """c * rho^alpha at an array of radii."""
    if c == 0.0 or math.isinf(c) or alpha == 0.0:
        return np.full(rho.shape, c)
    return _mul(c, _pow(rho, alpha))


class RadialProfile:
    """Base class; subclasses implement evaluation and, where possible,
    exact integrals and suprema."""

    #: True when interval integrals and esssup are exact closed forms.
    closed_form = False

    def __call__(self, rho):
        raise NotImplementedError

    def integral(self, a, b):
        """Exact integral over (a, b) in [0, inf], or None if not closed-form."""
        return None

    def power(self, e):
        """Profile for phi^e (e != 0)."""
        if e == 1.0:
            return self
        return FnProfile(lambda r, s=self, e=e: _pow(s(r), e),
                         breakpoints=self.breakpoints())

    def times(self, other):
        return ProductProfile(self, other)

    def __mul__(self, other):
        return self.times(other)

    @_radii
    def esssup(self, a, b):
        """Essential supremum over (a, b), 0 where a = b; exact for
        closed-form kinds, sampled otherwise."""
        return _sampled_esssup(self, a, b)

    @_radii
    def left_limit(self, t):
        return self(t)

    @_radii
    def right_limit(self, t):
        return self(t)

    @_radii
    def log_slope(self, rho):
        """(log phi)' at the radii rho: the closed form where the kind has
        one, else the difference of log phi between rho e^(-h) and
        rho e^h, h = 1e-5, over their distance in log rho, divided by rho.
        It is exact for a power and good to about h^2 elsewhere.  It never
        straddles a breakpoint: on each side it reaches at most halfway to
        the nearest one, so within h of one it is one-sided, good to about
        h."""
        r = rho.ravel()
        breaks = np.asarray(self.breakpoints(), dtype=float)
        at = np.searchsorted(breaks, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.minimum(1e-5, 0.5 * np.log(r / np.append(0.0, breaks)[at]))
            hi = np.minimum(1e-5, 0.5 * np.log(np.append(breaks, _INF)[at] / r))
            logs = np.log(self(np.concatenate((r * np.exp(-lo),
                                               r * np.exp(hi)))))
            slope = (logs[r.size:] - logs[:r.size]) / (r * (lo + hi))
        return slope.reshape(rho.shape)

    def breakpoints(self):
        """Interior points where the profile may be non-smooth."""
        return ()

    def support_sup(self):
        """Essential supremum of the support (inf when unbounded)."""
        return _INF

    def support_inf(self):
        return 0.0

    def is_positive_finite_ae(self):
        """Weight admissibility: positive and finite a.e. on (0, inf)."""
        return True


def _pow(x, e):
    """x^e with the conventions of extreal; 0 and inf stay put for e = 0."""
    if e == 0.0:
        return np.where((x == 0.0) | np.isinf(x), x, 1.0)
    return _power(x, e)


def _safe_exp(rate, x):
    """exp(rate * x); overflow of the product or of exp gives inf without
    a warning."""
    with np.errstate(over="ignore"):
        return np.exp(rate * x)


# the sample of every sampled esssup, read-only: 228 points a decade
_SAMPLE = np.geomspace(1e-9, 1e9, 4097)
_SAMPLE.flags.writeable = False


def _sampled_esssup(profile, a, b):
    """Essential suprema over the intervals (a, b), whose ends broadcast
    together, from one evaluation of the profile on the points of _SAMPLE
    that the intervals hold.  Each interval takes the largest sample
    strictly inside it, its one-sided limits from inside at its finite
    ends, and at a = 0 the limit at 0+, skipped if nan (an FnProfile reads
    none).  An empty interval reads 0.  Any other nan raises
    QuadratureFailure naming its interval."""
    a, b = np.broadcast_arrays(a, b)
    out = np.zeros(a.shape)
    live = a < b
    if not live.any():
        return out
    a, b = a[live], b[live]
    lo = np.searchsorted(_SAMPLE, a, "right")
    hi = np.searchsorted(_SAMPLE, b, "left")
    # a 0 past the last sample, where the last range ends
    vals = np.append(profile(_SAMPLE[lo.min():hi.max()]), 0.0)
    # maximum keeps a nan, so each interval sees its own nan samples only
    best = np.maximum.reduceat(vals, np.stack((lo, hi), -1).ravel()
                               - lo.min())[::2]
    best = np.where(lo < hi, best, 0.0)
    start = profile.right_limit(a)
    best = np.maximum(best, np.where((a == 0.0) & np.isnan(start), 0.0,
                                     start))
    end = np.isfinite(b)
    best[end] = np.maximum(best[end], profile.left_limit(b[end]))
    if np.isnan(best).any():
        i = int(np.argmax(np.isnan(best)))
        raise QuadratureFailure(
            f"sampled esssup is nan on ({a[i]:g}, {b[i]:g})")
    out[live] = best
    return out


class ShiftedPowerProfile(RadialProfile):
    """phi(rho) = c * (shift + rho)^alpha with shift > 0."""

    closed_form = True

    def __init__(self, c, shift, alpha):
        if c < 0.0 or math.isnan(c):
            raise ValueError("coefficient must be >= 0")
        if _real(shift, "shift") <= 0.0:
            raise ValueError("shift must be > 0")
        self.c = float(c)
        self.shift = float(shift)
        self.alpha = _real(alpha, "exponent")

    @_radii
    def __call__(self, rho):
        # a constant, also at rho = inf, where _pow keeps inf^0 = inf
        if self.c == 0.0 or self.alpha == 0.0:
            return _shaped(self.c, rho)
        return _mul(self.c, _pow(self.shift + rho, self.alpha))

    @_radii
    def integral(self, a, b):
        return _power_integral(self.c, self.alpha, self.shift + a,
                               self.shift + b)

    def power(self, e):
        if self.c == 0.0:
            return PowerProfile(_INF if e < 0 else 0.0, 0.0)
        return ShiftedPowerProfile(_float_pow(self.c, e), self.shift,
                                   self.alpha * e)

    def scale(self, c):
        return ShiftedPowerProfile(self.c * c, self.shift, self.alpha)

    @_radii
    def esssup(self, a, b):
        return _end_sups(self, a, b, self.alpha > 0)

    @_radii
    def log_slope(self, rho):
        return self.alpha / (self.shift + rho)

    def support_sup(self):
        return 0.0 if self.c == 0.0 else _INF

    def is_positive_finite_ae(self):
        return self.c > 0.0

    def __repr__(self):
        return f"ShiftedPowerProfile({self.c!r}, {self.shift!r}, {self.alpha!r})"


class ExpProfile(RadialProfile):
    """phi(rho) = c * exp(rate * rho)."""

    closed_form = True

    def __init__(self, c, rate):
        if c < 0.0 or math.isnan(c):
            raise ValueError("coefficient must be >= 0")
        self.c = float(c)
        self.rate = _real(rate, "rate")

    @_radii
    def __call__(self, rho):
        # a constant, also at rho = inf, where rate * rho would be 0 * inf
        if self.c == 0.0 or self.rate == 0.0:
            return _shaped(self.c, rho)
        return _mul(self.c, _safe_exp(self.rate, rho))

    @_radii
    def integral(self, a, b):
        c, rate = self.c, self.rate
        with np.errstate(over="ignore", invalid="ignore"):
            if rate == 0.0:
                val = c * (b - a)
            else:
                # b >= a: the absolute difference keeps +0.0 where both
                # ends underflow
                val = c * np.abs(np.exp(rate * b) - np.exp(rate * a)) \
                    / abs(rate)
        # nan where both ends overflow: inf - inf
        val = np.where(np.isnan(val), _INF, val)
        return np.where((a == b) | (c == 0.0), 0.0, val)

    def power(self, e):
        if self.c == 0.0:
            return PowerProfile(_INF if e < 0 else 0.0, 0.0)
        return ExpProfile(_float_pow(self.c, e), self.rate * e)

    def times(self, other):
        if isinstance(other, ExpProfile):
            return ExpProfile(self.c * other.c, self.rate + other.rate)
        if isinstance(other, PiecewisePowerProfile):
            return other.times(self)
        return ProductProfile(self, other)

    def scale(self, c):
        return ExpProfile(self.c * c, self.rate)

    @_radii
    def esssup(self, a, b):
        return _end_sups(self, a, b, self.rate > 0)

    @_radii
    def log_slope(self, rho):
        return _shaped(self.rate, rho)

    def support_sup(self):
        return 0.0 if self.c == 0.0 else _INF

    def is_positive_finite_ae(self):
        return self.c > 0.0

    def __repr__(self):
        return f"ExpProfile({self.c!r}, {self.rate!r})"


class PiecewisePowerProfile(RadialProfile):
    """Power segments (c_i, alpha_i) on (0, b_1], (b_1, b_2], ..., (b_k, inf).

    Supports truncated profiles via zero segments and degenerate (infinite)
    segments via c_i = inf.
    """

    closed_form = True

    def __init__(self, breaks, segments):
        breaks = [float(x) for x in breaks]
        edges = [0.0, *breaks, _INF]
        if not all(map(operator.lt, edges, edges[1:])):
            raise ValueError(
                "breakpoints must be finite, positive and strictly ascending")
        segments = [_segment(c, alpha) for c, alpha in segments]
        if len(segments) != len(breaks) + 1:
            raise ValueError("need len(breaks) + 1 segments")
        self.breaks = breaks
        self.segments = segments

    def _edges(self):
        return [0.0] + self.breaks + [_INF]

    def _values(self, rho, side):
        """Values on the segments (b_{i-1}, b_i] (side "left") or
        [b_{i-1}, b_i) (side "right") that hold each radius."""
        if not self.breaks:
            return _power_values(*self.segments[0], rho)
        idx = np.searchsorted(self.breaks, rho, side=side)
        out = np.empty(rho.shape)
        for i, (c, alpha) in enumerate(self.segments):
            sel = idx == i
            out[sel] = _power_values(c, alpha, rho[sel])
        return out

    @_radii
    def __call__(self, rho):
        return self._values(rho, "left")

    def _clipped(self, a, b):
        """(segment, lo, hi) for the parts of (a, b) on each segment, with
        lo = hi where the segment misses (a, b).  As 0 <= a <= b <= inf,
        only the finite interior edges clip."""
        for i, seg in enumerate(self.segments):
            lo, hi = a, b
            if i > 0:
                edge = self.breaks[i - 1]
                lo, hi = np.maximum(lo, edge), np.maximum(hi, edge)
            if i < len(self.breaks):
                edge = self.breaks[i]
                lo, hi = np.minimum(lo, edge), np.minimum(hi, edge)
            yield seg, lo, hi

    @_radii
    def integral(self, a, b):
        if not self.breaks:
            return _power_integral(*self.segments[0], a, b)
        return functools.reduce(np.add, (
            _power_integral(c, alpha, lo, hi)
            for (c, alpha), lo, hi in self._clipped(a, b)))

    def power(self, e):
        return _unchecked(self.breaks,
                          [_seg_pow(c, alpha, e) for c, alpha in self.segments])

    def times(self, other):
        if self.support_sup() == 0.0:
            return PowerProfile(0.0, 0.0)
        if isinstance(other, PiecewisePowerProfile):
            # each merged piece (lo, hi] lies in the segments holding hi
            breaks = sorted(set(self.breaks) | set(other.breaks))
            return _unchecked(breaks, [
                _seg_mul(*self.segments[bisect_left(self.breaks, hi)],
                         *other.segments[bisect_left(other.breaks, hi)])
                for hi in breaks + [_INF]])
        c, alpha = self.segments[0]
        # a finite constant scales these kinds; c = inf would turn the end
        # where they tend to 0 into inf * 0
        if not self.breaks and alpha == 0.0 and c < _INF and isinstance(
                other, (ShiftedPowerProfile, ExpProfile)):
            return other.scale(c)
        return ProductProfile(self, other)

    @_radii
    def esssup(self, a, b):
        best = np.zeros(np.broadcast(a, b).shape)
        for (c, alpha), lo, hi in self._clipped(a, b):
            best = np.maximum(best, _end_sups(
                lambda r: _power_values(c, alpha, r), lo, hi, alpha > 0))
        return best

    @_radii
    def right_limit(self, t):
        return self._values(t, "right")

    @_radii
    def log_slope(self, rho):
        alphas = np.array([alpha for _, alpha in self.segments])
        return alphas[np.searchsorted(self.breaks, rho)] / rho

    def breakpoints(self):
        return tuple(self.breaks)

    def support_sup(self):
        edges = self._edges()
        for i in range(len(self.segments) - 1, -1, -1):
            if self.segments[i][0] > 0.0:
                return edges[i + 1]
        return 0.0

    def support_inf(self):
        edges = self._edges()
        for i, (c, _) in enumerate(self.segments):
            if c > 0.0:
                return edges[i]
        return _INF

    def is_positive_finite_ae(self):
        return all(0.0 < c < _INF for c, _ in self.segments)

    def __repr__(self):
        return f"PiecewisePowerProfile({self.breaks!r}, {self.segments!r})"


class PowerProfile(PiecewisePowerProfile):
    """phi(rho) = c * rho^alpha with c in [0, inf]: one segment, no breaks."""

    def __init__(self, c, alpha):
        self.breaks, self.segments = [], [_segment(c, alpha)]


def _segment(c, alpha):
    """The power segment (c, alpha), c in [0, inf] and alpha finite."""
    c = float(c)
    if not c >= 0.0:
        raise ValueError(f"coefficient must be in [0, inf], got {c}")
    return c, _real(alpha, "exponent")


def _unchecked(breaks, segments):
    """The piecewise power of breaks and segments that the profile algebra
    built from checked ones, without checking them again."""
    profile = object.__new__(PiecewisePowerProfile)
    profile.breaks, profile.segments = breaks, segments
    return profile


def _seg_pow(c, alpha, e):
    if c == 0.0:
        return (_INF, 0.0) if e < 0 else (0.0, 0.0)
    if math.isinf(c):
        return (0.0, 0.0) if e < 0 else (_INF, 0.0)
    return (_float_pow(c, e), _real(alpha * e, "exponent"))


def _seg_mul(c1, a1, c2, a2):
    if c1 == 0.0 or c2 == 0.0:
        return (0.0, 0.0)
    return (c1 * c2, _real(a1 + a2, "exponent"))


class ProductProfile(RadialProfile):
    """Pointwise product of two profiles; no closed-form calculus."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    @_radii
    def __call__(self, rho):
        return _mul(self.left(rho), self.right(rho))

    def power(self, e):
        return ProductProfile(self.left.power(e), self.right.power(e))

    @_radii
    def left_limit(self, t):
        return _mul(self.left.left_limit(t), self.right.left_limit(t))

    @_radii
    def right_limit(self, t):
        return _mul(self.left.right_limit(t), self.right.right_limit(t))

    @_radii
    def log_slope(self, rho):
        return self.left.log_slope(rho) + self.right.log_slope(rho)

    def breakpoints(self):
        return tuple(sorted(set(self.left.breakpoints())
                            | set(self.right.breakpoints())))

    def support_sup(self):
        return min(self.left.support_sup(), self.right.support_sup())

    def support_inf(self):
        return max(self.left.support_inf(), self.right.support_inf())

    def __repr__(self):
        return f"ProductProfile({self.left!r}, {self.right!r})"


class FnProfile(RadialProfile):
    """Profile backed by an arbitrary evaluator; quadrature-only."""

    def __init__(self, fn, breakpoints=()):
        self.fn = fn
        self._breaks = tuple(breakpoints)

    @_radii
    def __call__(self, rho):
        return np.array([float(self.fn(r)) for r in rho.ravel().tolist()],
                        dtype=float).reshape(rho.shape)

    @_radii
    def left_limit(self, t):
        """The value at t (1 - 2^-40); right_limit reads t (1 + 2^-40)."""
        return self(t * (1.0 - 2.0 ** -40))

    @_radii
    def right_limit(self, t):
        """nan at 0, where an evaluator gives no limit to read."""
        out = np.full(t.shape, np.nan)
        out[t > 0] = self(t[t > 0] * (1.0 + 2.0 ** -40))
        return out

    def breakpoints(self):
        return self._breaks

    def __repr__(self):
        return f"FnProfile({self.fn!r})"


def tabulated(knots, values):
    """Piecewise-constant profile from samples: values[i] on
    (knots[i], knots[i+1]], extended by the end values outside the range."""
    knots = [float(k) for k in knots]
    values = [float(v) for v in values]
    if len(knots) < 2:
        raise ValueError("need at least two knots")
    if len(values) != len(knots) - 1:
        raise ValueError("need len(knots) - 1 values")
    segs = [(values[0], 0.0)] + [(v, 0.0) for v in values] + [(values[-1], 0.0)]
    return PiecewisePowerProfile(knots, segs)


def constant(c):
    return PowerProfile(c, 0.0)


def truncated_power(c, alpha, lo=None, hi=None):
    """c*rho^alpha on (lo, hi], zero elsewhere."""
    breaks, segs = [], []
    if lo is not None:
        breaks.append(float(lo))
        segs.append((0.0, 0.0))
    segs.append((c, alpha))
    if hi is not None:
        breaks.append(float(hi))
        segs.append((0.0, 0.0))
    return PiecewisePowerProfile(breaks, segs)
