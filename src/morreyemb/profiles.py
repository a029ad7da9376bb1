"""Radial profiles on (0, inf) with closed-form calculus where possible.

A profile represents a one-variable map phi: (0, inf) -> [0, inf].  Power,
piecewise-power, shifted-power and exponential profiles carry exact
interval integrals and essential suprema; products and powers of profiles
simplify symbolically when they can and otherwise fall back to numerical
evaluation by the quadrature layer.

Evaluation, interval integrals and essential suprema accept a radius or an
array of radii (for an interval, either end may be an array) and then
return a float array of the broadcast shape.  The closed-form kinds
compute arrays with numpy; profiles without closed forms evaluate each
element on its own, through `elementwise`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

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
    "power",
    "truncated_power",
    "elementwise",
]

_INF = math.inf


# Scalar evaluation is hot (quadrature integrands, sup_over_t's boundary
# extension and golden-section refinement), so each public method checks
# once for arrays and then runs either the scalar primitives
# (_power_value, _power_integral, _safe_pow) or their array counterparts.

def _is_array(a, b=None):
    return isinstance(a, np.ndarray) or isinstance(b, np.ndarray)


def _shaped(value, a, b=None):
    """value as a float array of the broadcast shape of the array
    arguments; a plain value when there are none."""
    if not _is_array(a, b):
        return value
    return np.full(np.broadcast(a, b).shape, value, dtype=float)


def elementwise(fn, *xs):
    """fn applied to each element of its array arguments (broadcast
    together), as a float array; fn(*xs) itself for scalar arguments.

    This is the one scalar loop of array evaluation: profiles without
    closed forms and adaptive integrals go through it."""
    if not _is_array(*xs):
        return fn(*xs)
    grid = np.broadcast(*xs)
    return np.array([float(fn(*map(float, x))) for x in grid],
                    dtype=float).reshape(grid.shape)


def _near_log(alpha):
    """Whether rho^alpha integrates to a logarithm: alpha = -1, or a few
    ulps off it after the profile algebra (v^(-1/3) to the 6th times rho
    gives rho^(-1.0000000000000009)), where c (b^e - a^e) / e with e near
    1e-15 would lose every digit."""
    return abs(alpha + 1.0) <= 1e-14


def _power_integral(c, alpha, a, b):
    """Exact integral of c*rho^alpha over (a, b), 0 <= a < b <= inf."""
    if c == 0.0 or a == b:
        return 0.0
    if math.isinf(c):
        return _INF
    if _near_log(alpha):
        if a == 0.0 or math.isinf(b):
            return _INF
        return c * math.log(b / a)
    e = alpha + 1.0
    if e > 0.0:
        if math.isinf(b):
            return _INF
        return c * (b ** e - a ** e) / e
    # e < 0: singular at 0, decaying at inf
    if a == 0.0:
        return _INF
    hi = 0.0 if math.isinf(b) else b ** e
    return c * (a ** e - hi) / (-e)


def _power_integral_array(c, alpha, a, b):
    """_power_integral for array ends: the same formulas, where
    inf^e = 0 for e < 0 stands in for the scalar special cases."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
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


def _power_value(c, alpha, rho):
    """c * rho^alpha at one radius."""
    if c == 0.0 or math.isinf(c) or alpha == 0.0:
        return c
    return c * _safe_pow(rho, alpha)


def _power_values(c, alpha, rho):
    """c * rho^alpha at an array of radii."""
    if c == 0.0 or math.isinf(c) or alpha == 0.0:
        return np.full(rho.shape, c)
    return c * _pow_array(rho, alpha)


def _power_esssups(c, alpha, a, b):
    """Essential suprema of c * rho^alpha over the intervals (a, b), for
    array ends: the values at the end where it is largest."""
    end = np.broadcast_to(b if alpha > 0 else a, np.broadcast(a, b).shape)
    return _power_values(c, alpha, end)


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
        return FnProfile(lambda r, s=self, e=e: _safe_pow(s(r), e),
                         breakpoints=self.breakpoints())

    def times(self, other):
        return ProductProfile(self, other)

    __mul__ = times

    def scale(self, c):
        return PowerProfile(c, 0.0).times(self)

    def esssup(self, a, b):
        """Essential supremum over (a, b); exact for closed-form kinds,
        sampled otherwise."""
        return elementwise(lambda x, y: _sampled_esssup(self, x, y), a, b)

    def left_limit(self, t):
        return self(t)

    def right_limit(self, t):
        return self(t)

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


def _pow_array(x, e):
    """_safe_pow on an array."""
    with np.errstate(divide="ignore", over="ignore"):
        if e == 0.0:   # 0 and inf stay put, as in _safe_pow
            return np.where((x == 0.0) | np.isinf(x), x, 1.0)
        return np.power(x, e)


def _safe_pow(x, e):
    x = float(x)
    if x == 0.0:
        return _INF if e < 0.0 else 0.0
    if math.isinf(x):
        return 0.0 if e < 0.0 else _INF
    try:
        return x ** e
    except OverflowError:
        return _INF


def _safe_exp(rate, x):
    """exp(rate * x); overflow of the product or of exp gives inf without
    a warning."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            return np.exp(rate * x)
    try:
        return math.exp(rate * x)
    except OverflowError:
        return _INF


def _sampled_esssup(profile, a, b, n=2049):
    lo = max(a, 1e-9) if a == 0.0 else a
    hi = min(b, 1e9) if math.isinf(b) else b
    if lo >= hi:
        lo, hi = a, b
    grid = np.geomspace(lo, hi, n) if lo > 0 else np.linspace(lo, hi, n)
    best = 0.0
    for r in grid:
        val = profile(float(r))
        if val > best:
            best = val
            if math.isinf(best):
                break
    return best


class PowerProfile(RadialProfile):
    """phi(rho) = c * rho^alpha with c in [0, inf]."""

    closed_form = True

    def __init__(self, c, alpha):
        if not math.isinf(c) and (math.isnan(c) or c < 0.0):
            raise ValueError(f"coefficient must be in [0, inf], got {c}")
        self.c = float(c)
        self.alpha = float(alpha)

    def __call__(self, rho):
        if isinstance(rho, np.ndarray):
            return _power_values(self.c, self.alpha, rho)
        return _power_value(self.c, self.alpha, rho)

    def integral(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return _power_integral_array(self.c, self.alpha, a, b)
        return _power_integral(self.c, self.alpha, a, b)

    def power(self, e):
        if self.c == 0.0:
            return PowerProfile(_INF if e < 0 else 0.0, 0.0)
        if math.isinf(self.c):
            return PowerProfile(0.0 if e < 0 else _INF, 0.0)
        return PowerProfile(self.c ** e, self.alpha * e)

    def times(self, other):
        if self.c == 0.0:
            return PowerProfile(0.0, 0.0)
        if isinstance(other, PowerProfile):
            if other.c == 0.0:
                return PowerProfile(0.0, 0.0)
            return PowerProfile(self.c * other.c, self.alpha + other.alpha)
        if isinstance(other, PiecewisePowerProfile):
            return other.times(self)
        if self.alpha == 0.0 and isinstance(other, (ShiftedPowerProfile, ExpProfile)):
            return other.scale(self.c)
        return ProductProfile(self, other)

    __mul__ = times

    def scale(self, c):
        return PowerProfile(self.c * c, self.alpha)

    def esssup(self, a, b):
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return _power_esssups(self.c, self.alpha, a, b)
        return _power_value(self.c, self.alpha, b if self.alpha > 0 else a)

    def support_sup(self):
        return 0.0 if self.c == 0.0 else _INF

    def support_inf(self):
        return _INF if self.c == 0.0 else 0.0

    def is_positive_finite_ae(self):
        return 0.0 < self.c < _INF

    def __repr__(self):
        return f"PowerProfile({self.c!r}, {self.alpha!r})"


class ShiftedPowerProfile(RadialProfile):
    """phi(rho) = c * (shift + rho)^alpha with shift > 0."""

    closed_form = True

    def __init__(self, c, shift, alpha):
        if c < 0.0 or math.isnan(c):
            raise ValueError("coefficient must be >= 0")
        if shift <= 0.0:
            raise ValueError("shift must be > 0")
        self.c = float(c)
        self.shift = float(shift)
        self.alpha = float(alpha)

    def __call__(self, rho):
        if self.c == 0.0:
            return _shaped(0.0, rho)
        pw = _pow_array if isinstance(rho, np.ndarray) else _safe_pow
        return self.c * pw(self.shift + rho, self.alpha)

    def integral(self, a, b):
        exact = _power_integral_array if _is_array(a, b) else _power_integral
        return exact(self.c, self.alpha, self.shift + a, self.shift + b)

    def power(self, e):
        if self.c == 0.0:
            return PowerProfile(_INF if e < 0 else 0.0, 0.0)
        return ShiftedPowerProfile(self.c ** e, self.shift, self.alpha * e)

    def scale(self, c):
        return ShiftedPowerProfile(self.c * c, self.shift, self.alpha)

    def esssup(self, a, b):
        if self.c == 0.0 or self.alpha == 0.0:
            return _shaped(self.c, a, b)
        end = b if self.alpha > 0 else a
        if _is_array(a, b):
            end = np.broadcast_to(end, np.broadcast(a, b).shape)
            return self.c * _pow_array(self.shift + end, self.alpha)
        return self.c * _safe_pow(self.shift + end, self.alpha)

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
        self.rate = float(rate)

    def __call__(self, rho):
        # a constant, also at rho = inf, where rate * rho would be 0 * inf
        if self.c == 0.0 or self.rate == 0.0:
            return _shaped(self.c, rho)
        return self.c * _safe_exp(self.rate, rho)

    def integral(self, a, b):
        if _is_array(a, b):
            return self._integral_array(a, b)
        if self.c == 0.0 or a == b:
            return 0.0
        if self.rate == 0.0:
            return _INF if math.isinf(b) else self.c * (b - a)
        if self.rate > 0.0:
            if math.isinf(b):
                return _INF
            try:
                return self.c * (math.exp(self.rate * b)
                                 - math.exp(self.rate * a)) / self.rate
            except OverflowError:
                return _INF
        hi = 0.0 if math.isinf(b) else math.exp(self.rate * b)
        return self.c * (math.exp(self.rate * a) - hi) / (-self.rate)

    def _integral_array(self, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        c, rate = self.c, self.rate
        with np.errstate(over="ignore", invalid="ignore"):
            if rate == 0.0:
                val = c * (b - a)
            else:
                val = c * (np.exp(rate * b) - np.exp(rate * a)) / rate
        # nan where both ends overflow: the scalar branch's OverflowError
        val = np.where(np.isnan(val), _INF, val)
        return np.where((a == b) | (c == 0.0), 0.0, val)

    def power(self, e):
        if self.c == 0.0:
            return PowerProfile(_INF if e < 0 else 0.0, 0.0)
        return ExpProfile(self.c ** e, self.rate * e)

    def times(self, other):
        if isinstance(other, ExpProfile):
            return ExpProfile(self.c * other.c, self.rate + other.rate)
        if isinstance(other, PowerProfile) and other.alpha == 0.0:
            return self.scale(other.c)
        return ProductProfile(self, other)

    __mul__ = times

    def scale(self, c):
        return ExpProfile(self.c * c, self.rate)

    def esssup(self, a, b):
        if self.c == 0.0 or self.rate == 0.0:
            return _shaped(self.c, a, b)
        end = b if self.rate > 0 else a
        if _is_array(a, b):
            end = np.broadcast_to(end, np.broadcast(a, b).shape)
        return self.c * _safe_exp(self.rate, end)

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
        if any(x <= 0 or math.isinf(x) for x in breaks):
            raise ValueError("breakpoints must be finite and positive")
        if sorted(breaks) != breaks or len(set(breaks)) != len(breaks):
            raise ValueError("breakpoints must be strictly ascending")
        segments = [(float(c), float(al)) for c, al in segments]
        if len(segments) != len(breaks) + 1:
            raise ValueError("need len(breaks) + 1 segments")
        for c, _ in segments:
            if not math.isinf(c) and (math.isnan(c) or c < 0.0):
                raise ValueError("segment coefficients must be in [0, inf]")
        self.breaks = breaks
        self.segments = segments

    def _edges(self):
        return [0.0] + self.breaks + [_INF]

    def _segment_at(self, rho):
        return self.segments[bisect_left(self.breaks, rho)]

    def _values(self, rho, side):
        """Values on the segments (b_{i-1}, b_i] (side "left") or
        [b_{i-1}, b_i) (side "right") that hold each radius."""
        if isinstance(rho, np.ndarray):
            idx = np.searchsorted(self.breaks, rho, side=side)
            out = np.empty(rho.shape)
            for i, (c, alpha) in enumerate(self.segments):
                sel = idx == i
                out[sel] = _power_values(c, alpha, rho[sel])
            return out
        pick = bisect_left if side == "left" else bisect_right
        c, alpha = self.segments[pick(self.breaks, rho)]
        return _power_value(c, alpha, rho)

    def __call__(self, rho):
        return self._values(rho, "left")

    def _clipped(self, a, b):
        """(segment, lo, hi, selection) for the parts of (a, b) on each
        segment, for array ends."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        edges = self._edges()
        for i, seg in enumerate(self.segments):
            lo = np.maximum(a, edges[i])
            hi = np.minimum(b, edges[i + 1])
            sel = lo < hi
            yield seg, lo[sel], hi[sel], sel

    def integral(self, a, b):
        if _is_array(a, b):
            total = np.zeros(np.broadcast(a, b).shape)
            for (c, alpha), lo, hi, sel in self._clipped(a, b):
                total[sel] += _power_integral_array(c, alpha, lo, hi)
            return total
        edges = self._edges()
        total = 0.0
        for i, (c, alpha) in enumerate(self.segments):
            lo, hi = max(a, edges[i]), min(b, edges[i + 1])
            if lo < hi:
                total += _power_integral(c, alpha, lo, hi)
                if math.isinf(total):
                    return _INF
        return total

    def power(self, e):
        return PiecewisePowerProfile(
            self.breaks,
            [_seg_pow(c, alpha, e) for c, alpha in self.segments])

    def times(self, other):
        if isinstance(other, PowerProfile):
            return PiecewisePowerProfile(
                self.breaks,
                [_seg_mul(c, alpha, other.c, other.alpha)
                 for c, alpha in self.segments])
        if isinstance(other, PiecewisePowerProfile):
            breaks = sorted(set(self.breaks) | set(other.breaks))
            edges = [0.0] + breaks + [_INF]
            segs = []
            for lo, hi in zip(edges[:-1], edges[1:]):
                mid = lo + 1.0 if math.isinf(hi) else 0.5 * (lo + hi)
                c1, a1 = self._segment_at(mid)
                c2, a2 = other._segment_at(mid)
                segs.append(_seg_mul(c1, a1, c2, a2))
            return PiecewisePowerProfile(breaks, segs)
        return ProductProfile(self, other)

    __mul__ = times

    def scale(self, c):
        return self.times(PowerProfile(c, 0.0))

    def esssup(self, a, b):
        if _is_array(a, b):
            best = np.zeros(np.broadcast(a, b).shape)
            for (c, alpha), lo, hi, sel in self._clipped(a, b):
                best[sel] = np.maximum(best[sel],
                                       _power_esssups(c, alpha, lo, hi))
            return best
        edges = self._edges()
        best = 0.0
        for i, (c, alpha) in enumerate(self.segments):
            lo, hi = max(a, edges[i]), min(b, edges[i + 1])
            if lo < hi:
                best = max(best, _power_value(c, alpha,
                                              hi if alpha > 0 else lo))
        return best

    def right_limit(self, t):
        return self._values(t, "right")

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


def _seg_pow(c, alpha, e):
    if c == 0.0:
        return (_INF, 0.0) if e < 0 else (0.0, 0.0)
    if math.isinf(c):
        return (0.0, 0.0) if e < 0 else (_INF, 0.0)
    return (c ** e, alpha * e)


def _seg_mul(c1, a1, c2, a2):
    if c1 == 0.0 or c2 == 0.0:
        return (0.0, 0.0)
    return (c1 * c2, a1 + a2)


def _product(a, b):
    """a * b with 0 * inf = 0, for values or arrays of values."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        with np.errstate(invalid="ignore"):
            return np.where((a == 0.0) | (b == 0.0), 0.0, a * b)
    return 0.0 if (a == 0.0 or b == 0.0) else a * b


class ProductProfile(RadialProfile):
    """Pointwise product of two profiles; no closed-form calculus."""

    def __init__(self, left, right):
        self.left = left
        self.right = right

    def __call__(self, rho):
        return _product(self.left(rho), self.right(rho))

    def power(self, e):
        return ProductProfile(self.left.power(e), self.right.power(e))

    def left_limit(self, t):
        return _product(self.left.left_limit(t), self.right.left_limit(t))

    def right_limit(self, t):
        return _product(self.left.right_limit(t), self.right.right_limit(t))

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

    def __init__(self, fn, breakpoints=(), support=(0.0, _INF)):
        self.fn = fn
        self._breaks = tuple(breakpoints)
        self._support = support

    def __call__(self, rho):
        if isinstance(rho, np.ndarray):
            return elementwise(self, rho)
        return float(self.fn(rho))

    def breakpoints(self):
        return self._breaks

    def support_inf(self):
        return self._support[0]

    def support_sup(self):
        return self._support[1]

    def __repr__(self):
        return f"FnProfile({self.fn!r})"


def tabulated(knots, values):
    """Piecewise-constant profile from samples: values[i] on
    (knots[i], knots[i+1]], extended by the end values outside the range."""
    knots = [float(k) for k in knots]
    values = [float(v) for v in values]
    if len(values) != len(knots) - 1:
        raise ValueError("need len(knots) - 1 values")
    segs = [(values[0], 0.0)] + [(v, 0.0) for v in values] + [(values[-1], 0.0)]
    return PiecewisePowerProfile(knots, segs)


def constant(c):
    return PowerProfile(c, 0.0)


def power(c, alpha):
    return PowerProfile(c, alpha)


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
