"""Closed-form constant functionals for ball-Hardy inequalities.

Covers the direct operator Hf(t) = integral of f over B(0,t) and its
complement mirror, the esssup operators S/S*, and the reverse inequalities
bounding the source norm by a norm of Hf.  hardy_constant gives the exact
expression whose finiteness characterizes each inequality; it is equivalent
to the best constant up to exponent-dependent factors, never claimed equal.
Two forms serve the embeddings too: _primal_functional the direct and
esssup inequalities and the Lebesgue-source embeddings, _dual_functional the
reverse ones, the Morrey-source embeddings and the associate norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (HypothesisViolated, InadmissibleExponents,
                     QuadratureFailure)
from .extreal import ExtReal, _div, _mul, _power, conjugate_exponent
from .integration import _integral, _sorted_unique, _values
from .profiles import RadialProfile
from .weights import Side, Weight, tail_norm

__all__ = [
    "HardyProblem",
    "hardy_constant",
    "sup_over_t",
]

_INF = math.inf

VARIANTS = ("direct", "direct_complement", "sup", "sup_complement",
            "reverse", "reverse_complement")


@dataclass(frozen=True)
class HardyProblem:
    """A one-weight/two-weight Hardy-type inequality instance.

    v_outer weighs the outer one-dimensional norm over t in (0, inf);
    w_inner weighs the n-dimensional source norm.
    """

    variant: str
    p: float
    q: float
    v_outer: RadialProfile
    w_inner: Weight
    n: int = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.n is None:
            object.__setattr__(self, "n", self.w_inner.dimension)
        if self.n != self.w_inner.dimension:
            raise ValueError("dimension disagrees with w_inner")
        p, q = float(self.p), float(self.q)
        if not (p > 0 and q > 0):
            raise InadmissibleExponents("exponents must be positive")
        if self.variant in ("direct", "direct_complement") and p < 1.0:
            raise InadmissibleExponents("direct variants require p >= 1")
        if self.variant in ("reverse", "reverse_complement") and p > 1.0:
            raise InadmissibleExponents("reverse variants require p <= 1")
        if self.variant in ("sup", "sup_complement") and p < _INF:
            raise InadmissibleExponents(
                "sup variants require p = inf: the source norm is ||f w||_inf")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def side(self):
        """COMPLEMENT for the *_complement variants, BALL otherwise."""
        return Side.COMPLEMENT if self.variant.endswith("_complement") \
            else Side.BALL


# the scan of sup_over_t, read-only
_SCAN_GRID = np.geomspace(1e-6, 1e6, 512)
_SCAN_GRID.flags.writeable = False


def sup_over_t(fn, breakpoints=()) -> ExtReal:
    """sup_{t > 0} fn(t) for a continuous, eventually monotone fn >= 0.

    fn takes a 1-D float array of t and returns the values there (a scalar
    result is broadcast); it is never called with a single t.  One call
    scans the 512-point log grid on [1e-6, 1e6] together with the
    breakpoints of the data and a decade beyond the outermost ones, all
    clipped to [1e-18, 1e18].  When an end of the scan wins, one call
    extends it by the points t 4^k out to 1e-18 or 1e18; that end still
    winning by more than 1e-9 reads inf.  Zoom rounds of 2047 points then
    narrow the bracket around the best point, each to 1/1024 of the last,
    until the bracket is under 1e-12 in log t or the maximum is known:
    either a round raises the best value by at most 1e-15 relative and its
    best point's two neighbours lie within 1e-15 of it (near a smooth
    maximum the farther one falls short by at least 4 times the best
    point's error), or the best point is a breakpoint or an end of the
    range that no zoom point beats and the zoom points rise to it on a
    straight line from each side (a kink or a monotone end, whose maximum
    is that point).  An inf value reads inf, and a nan raises
    QuadratureFailure.
    """
    breaks = np.clip(np.asarray(breakpoints, dtype=float), 1e-18, 1e18)
    beyond = [breaks.min() / 10.0, breaks.max() * 10.0] if breaks.size else []
    ts = _sorted_unique(np.concatenate((_SCAN_GRID, breaks,
                                        np.clip(beyond, 1e-18, 1e18))))
    vals = _checked(fn, ts)
    if np.isinf(vals).any():
        return ExtReal(_INF)
    i = int(np.argmax(vals))
    if i in (0, ts.size - 1):
        up = i > 0
        k = np.arange(1, 1 + int(math.log(1e18 / ts[-1] if up
                                          else ts[0] / 1e-18, 4.0)))
        if k.size:
            # an inf among these points is the supremum, read below
            more = ts[i] * (4.0 if up else 0.25) ** k
            ts, vals = np.append(ts, more), np.append(vals, _checked(fn, more))
            order = np.argsort(ts)
            ts, vals = ts[order], vals[order]
            i = int(np.argmax(vals))
        end, inner = (ts.size - 1, -2) if up else (0, 1)
        if i == end and vals[end] > vals[inner] * (1.0 + 1e-9):
            return ExtReal(_INF)
    best, at = vals[i], math.log(ts[i])
    # a kink at a breakpoint or a monotone end: the maximum may be this point
    corner = i in (0, ts.size - 1) or ts[i] in breaks
    a = math.log(ts[max(i - 1, 0)])
    b = math.log(ts[min(i + 1, ts.size - 1)])
    while b - a >= 1e-12 and best < _INF:
        xs = np.linspace(a, b, 2049)
        zoom = _checked(fn, np.exp(xs[1:-1]))
        j = int(np.argmax(zoom)) + 1
        top = zoom[j - 1]
        gain = top - best
        if gain > 0:
            best, at, corner = top, xs[j], False
        elif corner and _rises_straight_to(at, xs, zoom):
            break
        if 1 < j < 2047 and best < _INF and \
                max(gain, top - min(zoom[j - 2], zoom[j])) <= 1e-15 * best:
            break
        a, b = xs[j - 1], xs[j + 1]
    return ExtReal(best)


def _rises_straight_to(x, xs, zoom):
    """Whether the three zoom points (zoom holds the values at xs[1:-1])
    nearest x on each side of x within the bracket rise toward x on a
    straight line: the first difference at least 4 times the second.  Near
    a smooth maximum it is at most 1.5 times the second."""
    sides = []
    if x > xs[0]:
        k = int(np.searchsorted(xs, x)) - 2   # zoom[k]: the last below x
        sides.append(zoom[k - 2:k + 1][::-1] if k >= 2 else ())
    if x < xs[-1]:
        k = int(np.searchsorted(xs, x, side="right")) - 1   # the first above
        sides.append(zoom[k:k + 3])
    return all(len(p) == 3 and
               p[0] - p[1] >= 4.0 * abs(p[0] - 2.0 * p[1] + p[2])
               for p in sides)


def _checked(fn, ts):
    """fn on ts; a nan raises QuadratureFailure."""
    vals = _values(fn, ts)
    if np.isnan(vals).any():
        raise QuadratureFailure("sup_over_t: fn is nan")
    return vals


def _dual_functional(side, norm, s, omega, theta, p, breaks) -> ExtReal:
    """The reverse Hardy functional shared by the reverse inequalities, the
    Morrey-source embeddings and the associate norms.

    I(t) = norm(t) is an s-norm over the other side's region at radius t in
    R^n, and N(t) is the side's outer theta-norm of omega.  The functional
    is sup_t I(t) / N(t) for theta <= p, and otherwise
    (int I^rho d(N^-rho))^(1/rho) + I(whole) / N(0) with
    1/rho = 1/p - 1/theta, where I(whole) is norm at the side's end, whose
    region is all of R^n.  norm takes arrays of t.  Where I vanishes from a
    breakpoint on, I^rho does so like the distance to it to the power
    a = rho / s.  breaks are the data's breakpoints.
    """
    if theta <= p:
        return sup_over_t(
            lambda t: _div(norm(t), side.outer_norm(omega, theta, t)),
            breaks)
    rho = p if math.isinf(theta) else p * theta / (theta - p)
    whole = float(norm(side.end))
    main = side.stieltjes(lambda t: _power(norm(t), rho),
                          _power(whole, rho), omega, theta, rho, rho / s,
                          breaks)
    boundary = _div(whole, float(tail_norm(omega, theta, 0.0)))
    return ExtReal(_power(float(main), 1.0 / rho) + boundary)


def _primal_functional(side, inner, omega, theta, p, breaks) -> ExtReal:
    """The direct Hardy functional shared by the direct Hardy inequalities,
    the esssup operators (p = inf) and the Lebesgue-source embeddings.

    I(t) = inner(t) is a norm over the side's region at radius t in R^n,
    and N(t) is the side's outer theta-norm of omega.  The functional is
    sup_t N(t) I(t) for p <= theta, and otherwise
    (int (N^(theta/p) I)^r omega^theta dt)^(1/r) with
    1/r = 1/theta - 1/p: r = theta with no N factor at p = inf.  At
    theta = inf, I is monotone the other way from the running esssup N,
    so sup N I is sup omega I, read as the larger of omega(t) and its limit
    from the outer region's side: no sampled esssup per t.  inner takes
    arrays of t.  breaks are the data's breakpoints.
    """
    if p <= theta:
        if math.isinf(theta):
            limit = side.limit(omega)
            outer = lambda t: np.maximum(omega(t), limit(t))
        else:
            outer = lambda t: side.outer_norm(omega, theta, t)
        return sup_over_t(lambda t: _mul(outer(t), inner(t)), breaks)
    r = theta if math.isinf(p) else p * theta / (p - theta)

    def integrand(t):
        core = inner(t) if math.isinf(p) else _mul(
            _power(side.outer_norm(omega, theta, t), theta / p), inner(t))
        return _mul(_power(core, r), _power(omega(t), theta))

    return ExtReal(_power(_halfline(integrand, breaks), 1.0 / r))


def _halfline(fn, breakpoints=()) -> float:
    """Integral over (0, inf) of fn, which takes an array of t, with known
    kinks."""
    return _integral(fn, (0.0, _INF), breakpoints)[0]


def _breaks(*profiles):
    out = set()
    for p in profiles:
        out.update(b for b in p.breakpoints() if 0.0 < b < _INF)
    return tuple(sorted(out))


def hardy_constant(prob: HardyProblem) -> ExtReal:
    """The functional whose finiteness characterizes the problem's
    inequality, on its side: the twin of embedding_constant.

    direct, cases (a)-(h): the primal functional with omega = v^(1/q) (v
    itself at q = inf), theta = q, and I(t) the p'-norm of w^(-1/p) (of
    w^(-1) at p = inf) over the side's region.  sup: omega = v, theta = q,
    p = inf and I(t) the esssup of w^(-1) there.  reverse, cases (a)
    q <= p and (b) q > p: the dual functional of the outer q-norms of v
    and the p'-norms of w over the other side's region.
    """
    p, q, n = prob.p, prob.q, prob.n
    v, w, side = prob.v_outer, prob.w_inner.profile, prob.side
    pp, breaks = float(conjugate_exponent(p)), _breaks(v, w)
    if prob.variant.startswith("reverse"):
        _check_reverse_hypothesis(v, q, side)
        return _dual_functional(
            side, lambda t: side.other.region_norm(w, pp, n, t), pp, v, q,
            p, breaks)
    if prob.variant.startswith("sup"):
        w_inv = w.power(-1.0)
        return _primal_functional(side, lambda r: side.region_norm(
            w_inv, _INF, n, r), v, q, _INF, breaks)
    g = w.power(-1.0 if math.isinf(p) else -1.0 / p)
    return _primal_functional(
        side, lambda t: side.region_norm(g, pp, n, t),
        v if math.isinf(q) else v.power(1.0 / q), q, p, breaks)


def _check_reverse_hypothesis(u, q, side):
    """The reverse functionals require the side's outer u-norm finite for
    all t.

    Tail norms are non-increasing and head norms non-decreasing in t, so a
    genuine infinity shows up across the sampled range.  Sampling stays in
    a moderate window to avoid mistaking float overflow of a finite norm
    (fast-growing u at huge t) for infinity.
    """
    grid = np.geomspace(1e-2, 1e8, 11) if side is Side.BALL \
        else np.geomspace(1e-8, 1e2, 11)
    infinite = np.isinf(side.outer_norm(u, q, grid))
    if infinite.any():
        a, b = side.other.region(float(grid[np.argmax(infinite)]))
        raise HypothesisViolated(f"||u||_{{q,({a:g},{b:g})}} is infinite")
