"""Closed-form constant functionals for ball-Hardy inequalities.

Covers the direct operator Hf(t) = integral of f over B(0,t) and its
complement mirror, the esssup operators S/S*, and the reverse inequalities
bounding the source norm by a norm of Hf.  Each functional is the exact
expression whose finiteness characterizes the inequality; it is equivalent
to the best constant up to exponent-dependent factors, never claimed equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisViolated, InadmissibleExponents
from .extreal import ExtReal, conjugate_exponent, ext_div, ext_mul, ext_pow
from .integration import (DEFAULT_CONFIG, MonotoneIntegrator, _values,
                          integrate_halfline, stieltjes_integral)
from .profiles import RadialProfile
from .weights import Side, Weight, _whole_space_norm, tail_norm

__all__ = [
    "HardyProblem",
    "hardy_A",
    "hardy_A_star",
    "sup_operator_constant",
    "reverse_hardy_C",
    "reverse_hardy_C_star",
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
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    @property
    def side(self):
        """COMPLEMENT for the *_complement variants, BALL otherwise."""
        return Side.COMPLEMENT if self.variant.endswith("_complement") \
            else Side.BALL


def sup_over_t(fn, lo=1e-6, hi=1e6, grid=512, refine_iters=80) -> ExtReal:
    """sup_{t > 0} fn(t) for a continuous, eventually monotone fn >= 0.

    fn takes an array of t (a scalar result is broadcast) as well as a
    single t.  One array call scans a log grid, which must hold no nan;
    scalar calls extend it outward while the boundary keeps winning and
    refine the best interior bracket by golden section in log t.
    """
    ts = np.geomspace(lo, hi, grid)
    vals = _values(fn, ts)
    if np.isnan(vals).any():
        raise ValueError("sup_over_t: fn is nan on the scan grid")
    if np.isinf(vals).any():
        return ExtReal(_INF)
    ts, vals = list(ts), vals.tolist()

    # extend while the sup sits on a growing boundary
    for _ in range(40):
        i = int(np.argmax(vals))
        if i == 0 and vals[0] >= vals[1]:
            end, inner, at, t_new = 0, 1, 0, ts[0] / 4.0
        elif i == len(ts) - 1 and vals[-1] >= vals[-2]:
            end, inner, at, t_new = -1, -2, len(ts), ts[-1] * 4.0
        else:
            break
        if not 1e-18 <= t_new <= 1e18:
            if vals[end] > vals[inner] * (1.0 + 1e-9):
                return ExtReal(_INF)
            break
        v = float(fn(t_new))
        if math.isinf(v):
            return ExtReal(_INF)
        ts.insert(at, t_new)
        vals.insert(at, v)

    i = int(np.argmax(vals))
    a = math.log(ts[max(i - 1, 0)])
    b = math.log(ts[min(i + 1, len(ts) - 1)])
    best = vals[i]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1, f2 = float(fn(math.exp(x1))), float(fn(math.exp(x2)))
    for _ in range(refine_iters):
        if math.isinf(f1) or math.isinf(f2):
            return ExtReal(_INF)
        best = max(best, f1, f2)
        if b - a < 1e-12:
            break
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = float(fn(math.exp(x2)))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = float(fn(math.exp(x1)))
    return ExtReal(best)


def _halfline(fn, breakpoints=(), cfg=None) -> ExtReal:
    """Integral over (0, inf) of a plain callable with known kinks."""

    class _Wrapped(RadialProfile):
        def __call__(self, rho):
            return fn(rho)

        def breakpoints(self):
            return tuple(breakpoints)

    val, _ = integrate_halfline(_Wrapped(), (0.0, _INF), cfg)
    return val


def _breaks(*profiles):
    out = set()
    for p in profiles:
        out.update(b for b in p.breakpoints() if 0.0 < b < _INF)
    return tuple(sorted(out))


def hardy_A(prob: HardyProblem, cfg=None) -> ExtReal:
    """Characterizing functional for ||Hf||_{q,v,(0,inf)} <= c ||f||_{p,w}."""
    if prob.variant != "direct":
        raise ValueError("hardy_A expects the direct variant")
    return _direct_functional(prob, cfg)


def hardy_A_star(prob: HardyProblem, cfg=None) -> ExtReal:
    """Mirror functional for the complement operator H*: head integrals of
    v_outer, complement integrals of w_inner."""
    if prob.variant != "direct_complement":
        raise ValueError("hardy_A_star expects the direct_complement variant")
    return _direct_functional(prob, cfg)


def _direct_functional(prob: HardyProblem, cfg) -> ExtReal:
    """Cases (a)-(h) of the direct functional on the problem's side: outer
    norms of v paired with the side, integrals of w over its region."""
    p, q, n = prob.p, prob.q, prob.n
    v, w = prob.v_outer, prob.w_inner.profile
    side = prob.side
    cfg = cfg or DEFAULT_CONFIG
    pp = float(conjugate_exponent(p))

    def V_outer(t):
        return side.outer_norm(v, 1.0, t, cfg) ** 1.0

    def V_sup(t):
        return side.other.esssup(v, t)

    def W_region(t):
        return side.integral(w.power(1.0 - pp), n, t, cfg)

    def W_recip(t):
        return side.integral(w.power(-1.0), n, t, cfg)

    def w_sup(t):
        return side.esssup(w.power(-1.0), t)

    if 1.0 < p <= q < _INF:
        # (a)
        return sup_over_t(
            lambda t: ext_mul(ext_pow(V_outer(t), 1.0 / q),
                              ext_pow(W_region(t), 1.0 / pp)))
    if 1.0 < p < _INF and 0.0 < q < p:
        # (b)
        r = 1.0 / (1.0 / q - 1.0 / p)

        def integrand(t):
            vt = v(t)
            if vt == 0.0:
                return 0.0
            return float(ext_mul(ext_mul(ext_pow(V_outer(t), r / p), vt),
                                 ext_pow(W_region(t), r / pp)))

        return ext_pow(_halfline(integrand, _breaks(v, w), cfg), 1.0 / r)
    if 1.0 < p < _INF and math.isinf(q):
        # (c)
        return sup_over_t(
            lambda t: ext_mul(V_sup(t), ext_pow(W_region(t), 1.0 / pp)))
    if math.isinf(p) and math.isinf(q):
        # (d)
        return sup_over_t(lambda t: ext_mul(V_sup(t), W_recip(t)))
    if math.isinf(p):
        # (e)
        def integrand(t):
            vt = v(t)
            if vt == 0.0:
                return 0.0
            return float(ext_mul(vt, ext_pow(W_recip(t), q)))

        return ext_pow(_halfline(integrand, _breaks(v, w), cfg), 1.0 / q)
    if p == 1.0 and 1.0 <= q < _INF:
        # (f)
        return sup_over_t(
            lambda t: ext_mul(ext_pow(V_outer(t), 1.0 / q), w_sup(t)))
    if p == 1.0 and 0.0 < q < 1.0:
        # (g)
        qq = float(conjugate_exponent(q))

        def integrand(t):
            vt = v(t)
            if vt == 0.0:
                return 0.0
            return float(ext_mul(ext_mul(ext_pow(V_outer(t), qq), vt),
                                 ext_pow(w_sup(t), qq)))

        return ext_pow(_halfline(integrand, _breaks(v, w), cfg), 1.0 / qq)
    if p == 1.0 and math.isinf(q):
        # (h)
        return sup_over_t(lambda t: ext_mul(V_sup(t), w_sup(t)))
    raise InadmissibleExponents(
        f"no {prob.variant} case matches p={p}, q={q}")


def sup_operator_constant(prob: HardyProblem, cfg=None) -> ExtReal:
    """q-norm over (0, inf) of v(r) * esssup over the region of w^{-1},
    the constant for the ball (or complement) esssup operator."""
    if prob.variant not in ("sup", "sup_complement"):
        raise ValueError("expects the sup or sup_complement variant")
    q, v, side = prob.q, prob.v_outer, prob.side
    w_inv = prob.w_inner.profile.power(-1.0)
    inner = lambda r: side.esssup(w_inv, r)
    if math.isinf(float(q)):
        return sup_over_t(lambda r: ext_mul(v(r), inner(r)))

    def integrand(r):
        vr = v(r)
        if vr == 0.0:
            return 0.0
        return float(ext_pow(ext_mul(vr, inner(r)), float(q)))

    val = _halfline(integrand, _breaks(v, prob.w_inner.profile), cfg)
    return ext_pow(val, 1.0 / float(q))


def _check_reverse_hypothesis(u, q, side, cfg=None):
    """The reverse functionals require the side's outer u-norm finite for
    all t.

    Tail norms are non-increasing and head norms non-decreasing in t, so a
    genuine infinity shows up across the sampled range.  Sampling stays in
    a moderate window to avoid mistaking float overflow of a finite norm
    (fast-growing u at huge t) for infinity.
    """
    tail = side is Side.BALL
    grid = np.geomspace(1e-2, 1e8, 11) if tail else np.geomspace(1e-8, 1e2, 11)
    infinite = np.isinf(side.outer_norm(u, q, grid, cfg))
    if infinite.any():
        t = float(grid[np.argmax(infinite)])
        region = f"({t:g},inf)" if tail else f"(0,{t:g})"
        raise HypothesisViolated(f"||u||_{{q,{region}}} is infinite")


def reverse_hardy_C(prob: HardyProblem, cfg=None) -> ExtReal:
    """Functional for ||g w||_p <= c ||(Hg) u||_q with 0 < p <= 1."""
    if prob.variant != "reverse":
        raise ValueError("reverse_hardy_C expects the reverse variant")
    return _reverse_functional(prob, cfg)


def reverse_hardy_C_star(prob: HardyProblem, cfg=None) -> ExtReal:
    """Mirror functional with balls, head norms and a decreasing
    right-continuous integrator."""
    if prob.variant != "reverse_complement":
        raise ValueError("expects the reverse_complement variant")
    return _reverse_functional(prob, cfg)


def _reverse_functional(prob: HardyProblem, cfg) -> ExtReal:
    """Cases (a) and (b) of the reverse functional: outer norms of u paired
    with the problem's side, norms of w over the other side's region."""
    p, q, n = prob.p, prob.q, prob.n
    u, w = prob.v_outer, prob.w_inner.profile
    side = prob.side
    cfg = cfg or DEFAULT_CONFIG
    _check_reverse_hypothesis(u, q, side, cfg)
    pp = float(conjugate_exponent(p))

    def w_region(t):
        return side.other.region_norm(w, pp, n, t, cfg)

    if 0.0 < q <= p:
        # (a)
        return sup_over_t(
            lambda t: ext_div(w_region(t), side.outer_norm(u, q, t, cfg)))
    # (b): p < q <= inf, 1/r = 1/p - 1/q; f and h take arrays of t
    r = 1.0 / (1.0 / p - (0.0 if math.isinf(q) else 1.0 / q))

    def h(t):
        return ext_pow(side.outer_norm_limit(u, q, t, cfg), -r)

    def f(t):
        return ext_pow(w_region(t), r)

    integ = MonotoneIntegrator.from_function(
        h, side.direction, jump_points=_breaks(u),
        infinite_from=side.infinite_from(u))
    main = stieltjes_integral(f, integ, (0.0, _INF), cfg)
    boundary = ext_div(_whole_space_norm(w, pp, n, cfg),
                       tail_norm(u, q, 0.0, cfg))
    return ext_pow(main, 1.0 / r) + boundary
