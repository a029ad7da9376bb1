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

from .errors import QuadratureFailure, UndefinedStieltjes
from .extreal import ExtReal, _mul, scalar_results
from .profiles import PowerProfile, RadialProfile

__all__ = [
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

# the one quadrature setting: a G7-K15 piece is accepted at an error of
# max(_ABS_TOL, _REL_TOL |value|), a walk toward an open end takes at most
# _MAX_PIECES dyadic pieces, and dyadic ratios within _DIVERGENCE_DELTA of 1
# read as divergence
_REL_TOL = 1e-10
_ABS_TOL = 1e-14
_MAX_PIECES = 400
_DIVERGENCE_DELTA = 1e-3


def sphere_area(n):
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1 or n != int(n):
        raise ValueError("dimension must be a positive integer")
    half = 0.5 * int(n)
    # log Gamma(n/2) through math.gamma, which is good to an ulp or two
    # where math.lgamma is not (lgamma(1/2) is 3 ulps off log(sqrt(pi)));
    # math.gamma overflows past 171.6, where only lgamma is left
    log_gamma = math.log(math.gamma(half)) if half < 171 else math.lgamma(half)
    return 2.0 * math.exp(half * math.log(math.pi) - log_gamma)


def ball_volume(n, r=1.0):
    """Lebesgue measure of the ball of radius r in R^n."""
    return sphere_area(n) * r ** n / n


# Gauss-Kronrod G7-K15 on (-1, 1) (Piessens et al., QUADPACK, 1983, qk15):
# the positive Kronrod abscissae from the outside in, of which every second
# one (and 0) is a Gauss abscissa, with their K15 and G7 weights
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975,
       0.417959183673469387755102040816327)

# the 15 nodes in ascending order with the K15 weights and the G7 weights
# (0 off the Gauss nodes) on them
_NODES = np.array([-x for x in _XGK[:7]] + [0.0] + list(_XGK[6::-1]))
_K15 = np.array(_WGK[:7] + _WGK[7:] + _WGK[6::-1])
_G7 = np.zeros(15)
_G7[1:7:2] = _WG[:3]
_G7[7] = _WG[3]
_G7[13:7:-2] = _WG[:3]

# bisection rounds of one interval, and pieces of one interval that may be
# bisected in one round; a piece still above tolerance when either runs out
# is kept with its error estimate
_MAX_DEPTH = 64
_MAX_SPLITS = 128


def _gauss_kronrod(fn, lo, hi):
    """Integrals of fn over the intervals (lo, hi) by adaptive G7-K15.

    fn takes a 1-D float array of points and returns the values there.
    Each round evaluates the 15 nodes of every active piece in one call of
    fn; a piece whose error |K15 - G7| is at most max(_ABS_TOL,
    _REL_TOL |K15|) is accepted, the others are bisected.  Returns the
    integrals and their summed error estimates as float arrays of the
    broadcast shape of lo and hi.  An interval with an infinite node value
    reads inf and one with a nan node value reads nan.
    """
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                 np.asarray(hi, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    value, error = np.zeros(lo.size), np.zeros(lo.size)
    root = np.arange(lo.size)
    for depth in range(_MAX_DEPTH):
        if not root.size:
            break
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        x = mid[:, None] + half[:, None] * _NODES
        fv = _values(fn, x.ravel()).reshape(x.shape)
        with np.errstate(invalid="ignore", over="ignore"):
            k = half * (fv @ _K15)
            err = np.abs(half * (fv @ (_K15 - _G7)))
        err = np.where(np.isfinite(k), err, k)
        split = err > np.maximum(_ABS_TOL, _REL_TOL * np.abs(k))
        split &= (lo < mid) & (mid < hi)
        if depth == _MAX_DEPTH - 1:
            split[:] = False
        split &= np.bincount(root[split], minlength=value.size)[root] \
            <= _MAX_SPLITS
        done = ~split
        np.add.at(value, root[done], k[done])
        np.add.at(error, root[done], err[done])
        lo, mid, hi, root = lo[split], mid[split], hi[split], root[split]
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        root = np.concatenate((root, root))
    return value.reshape(shape), error.reshape(shape)


# dyadic pieces of a walk toward an open end evaluated per array call
_BLOCK = 16


# share of the tolerance below which the width of a rest bracket stops a
# walk: its midpoint can be off by much of the width (the rest of f sits
# near f(x) where the measure is heaped at x), where the pieces dropped by
# the other stopping rules are off by far less than their bound
_REST_SHARE = 1e-3


def _sorted_unique(x):
    """The values of x sorted, without repeats.  np.unique and np.union1d
    would do, but they load numpy.ma on their first call in a process."""
    x = np.sort(np.asarray(x, dtype=float).ravel())
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _dyadic_block(edge, up, first, count, breaks):
    """Pieces first, ..., first + count - 1 of the dyadic walk outward from
    edge: (edge 2^k, edge 2^(k+1)) upward, (edge 2^-(k+1), edge 2^-k)
    downward, each split at the breakpoints inside it.  Returns the ends of
    the parts in ascending order, the offset in the block of the piece that
    owns each part, and count."""
    k = np.arange(first, first + count + 1)
    ends = np.sort(np.ldexp(edge, k if up else -k))
    inside = breaks[(breaks > ends[0]) & (breaks < ends[-1])]
    pts = _sorted_unique(np.concatenate((ends, inside)))
    owner = np.searchsorted(ends, pts[:-1], side="right") - 1
    return pts[:-1], pts[1:], owner if up else count - 1 - owner, count


def _piece_values(rule, parts):
    """One call of rule over the parts of several groups of pieces, each
    given as (lo, hi, owner, count); returns the (values, errors) of the
    pieces of every group, summed over their parts."""
    lo = np.concatenate([p[0] for p in parts])
    hi = np.concatenate([p[1] for p in parts])
    vals, errs = rule(lo, hi)
    out, at = [], 0
    for _, part_hi, owner, count in parts:
        sl = slice(at, at + part_hi.size)
        at += part_hi.size
        out.append((np.bincount(owner, vals[sl], count).tolist(),
                    np.bincount(owner, errs[sl], count).tolist()))
    return out


def integrate_halfline(f, interval, breakpoints=None, rest=None):
    """Adaptive integral of a nonnegative f over (a, b) in (0, inf]: the
    dyadic walk of _walk with each piece integrated by adaptive G7-K15.

    f takes a 1-D float array of points and returns the values there (a
    scalar result is broadcast); 0 * inf is taken as 0 and overflow as inf.
    breakpoints are the interior points where f may be non-smooth, by
    default a profile's own.  rest, if given, is called as rest(x, up)
    with an array of points x where a walk toward an open end may stop
    (upward toward inf if up, else downward toward 0).  It returns None,
    or arrays (low, high) bracketing the integral of f beyond each x:
    over (x, inf) upward, (0, x) downward.  A walk stops where the bracket
    is narrower than _REST_SHARE times the tolerance, and adds its
    midpoint.

    Returns (value, error_bound); value is inf when dyadic partial sums
    indicate divergence at either end or a piece integrates to inf.
    Raises QuadratureFailure when f is nan at a node of a piece.
    """
    if not callable(f):
        raise TypeError("integrand must be callable")
    if breakpoints is None:
        breakpoints = f.breakpoints() if isinstance(f, RadialProfile) else ()
    val, err = _integral(f, interval, breakpoints, rest)
    return ExtReal(val), err


def _integral(f, interval, breakpoints=(), rest=None):
    """integrate_halfline's (value, error bound) as floats."""
    return _walk(lambda lo, hi: _gauss_kronrod(f, lo, hi), interval,
                 breakpoints, rest)


def _walk(rule, interval, breakpoints, rest):
    """integrate_halfline's walk over (a, b), whose (value, error bound) it
    returns as floats; rule(lo, hi) returns the (values, errors) arrays of
    the integrals over pieces free of breaks.
    A finite core spanning the breakpoints inside (a, b) is integrated
    piece by piece between them, and dyadic pieces in log t are added
    toward an open end until they are negligible, a geometric tail can be
    summed, or their growth shows divergence.  A tail is summed as
    v r / (1 - r) after the piece v, r the last dyadic ratio, when the
    last 8 ratios lie below 0.95 and that rest is under tolerance, or when
    they agree as those of a power tail do (see _stable_below_one) and the
    rest's sensitivity to their spread is under tolerance; that
    sensitivity is its error bound.  A negligible piece v, under
    tolerance / 8, stops the walk when it is 0 or its ratio r to the piece
    before is below 1, and adds the same rest to the value and to the
    error bound, unless a rest bracket puts more than tolerance beyond it;
    a negligible piece that does not fall leaves the walk to the ratio
    rules, which read a small constant tail as divergent.
    """
    a, b = interval
    if not a < b:
        raise ValueError("need a < b")
    breaks = _sorted_unique(breakpoints)

    # seed finite core
    core_lo = a if a > 0 else min(1.0, b / 2 if math.isfinite(b) else 1.0)
    core_hi = b if math.isfinite(b) else max(1.0, 2 * a, core_lo * 2)
    if core_lo >= core_hi:
        core_lo = core_hi / 2
    core_lo, core_hi = float(core_lo), float(core_hi)
    # widened by dyadic steps to span the breakpoints inside (a, b): a walk
    # reads divergence from the growth of its pieces, which a breakpoint
    # still ahead of it can fake (f = 1 up to t = 1000 grows along the walk
    # up from 2 until it drops to 0 there)
    inside = breaks[(breaks > a) & (breaks < b)]
    steps = []
    if a <= 0 and inside.size and inside[0] < core_lo:
        k = np.arange(1, 1 + math.ceil(math.log2(core_lo / inside[0])))
        steps.append(np.ldexp(core_lo, -k))
        core_lo = float(steps[-1][-1])
    if math.isinf(b) and inside.size and inside[-1] > core_hi:
        k = np.arange(1, 1 + math.ceil(math.log2(inside[-1] / core_hi)))
        steps.append(np.ldexp(core_hi, k))
        core_hi = float(steps[-1][-1])

    anchors = _sorted_unique(np.concatenate(
        [[core_lo, core_hi], inside[(inside > core_lo) & (inside < core_hi)]]
        + steps))
    core = (anchors[:-1], anchors[1:], np.arange(anchors.size - 1),
            anchors.size - 1)
    # (edge, upward) of the walks toward the open ends: down first
    walks = [(edge, up) for edge, up, open_end in
             ((core_lo, False, a <= 0), (core_hi, True, math.isinf(b)))
             if open_end]
    # one array call for the core and the first block of each walk, which
    # the budget holds whole (_MAX_PIECES = 400 is at least _BLOCK = 16)
    found = _piece_values(
        rule, [core] + [_dyadic_block(edge, up, 0, _BLOCK, breaks)
                        for edge, up in walks])

    total, toterr = 0.0, 0.0
    vals, errs = found[0]
    for x0, x1, v, e in zip(anchors[:-1], anchors[1:], vals, errs):
        _check_piece(v, x0, x1, total, toterr)
        if math.isinf(v):
            return _INF, _INF
        total, toterr = total + v, toterr + e

    for (edge, up), (vals, errs) in zip(walks, found[1:]):
        lows, highs = _rest_bounds(rest, edge, up, 0, len(vals))
        pieces = []
        for k in range(_MAX_PIECES):
            if k == len(vals):
                count = min(_BLOCK, _MAX_PIECES - k)
                more, = _piece_values(
                    rule, [_dyadic_block(edge, up, k, count, breaks)])
                vals, errs = vals + more[0], errs + more[1]
                more = _rest_bounds(rest, edge, up, k, count)
                lows, highs = lows + more[0], highs + more[1]
            v, e = vals[k], errs[k]
            x0, x1 = (math.ldexp(edge, k), math.ldexp(edge, k + 1)) if up \
                else (math.ldexp(edge, -k - 1), math.ldexp(edge, -k))
            _check_piece(v, x0, x1, total, toterr)
            if math.isinf(v):
                return _INF, _INF
            total, toterr = total + v, toterr + e
            pieces.append(v)
            tol = max(_ABS_TOL, _REL_TOL * abs(total))
            if highs and highs[k] - lows[k] <= _REST_SHARE * tol:
                total += 0.5 * (lows[k] + highs[k])
                toterr += 0.5 * (highs[k] - lows[k])
                break
            if v <= 0.125 * tol and not (lows and lows[k] > tol):
                # a zero piece, or one with ratio r < 1 to the piece
                # before, stops the walk and adds the rest v r / (1 - r);
                # any other is left to the ratio rules
                r = v / pieces[-2] if len(pieces) > 1 and pieces[-2] > 0 \
                    else 1.0 if v > 0.0 else 0.0
                if r < 1.0:
                    rem = v * r / (1.0 - r)
                    total, toterr = total + rem, toterr + rem
                    break
            if len(pieces) >= 9:
                ratios = [pieces[i + 1] / pieces[i]
                          for i in range(len(pieces) - 9, len(pieces) - 1)
                          if pieces[i] > 0]
                if len(ratios) == 8 and min(ratios) >= 1.0 - _DIVERGENCE_DELTA \
                        and not _stable_below_one(ratios):
                    return _INF, _INF
                if len(ratios) == 8 and max(ratios) < 0.95:
                    r = ratios[-1]
                    rem = v * r / (1.0 - r)
                    if rem <= tol:
                        total += rem
                        toterr += rem
                        break
                if len(ratios) == 8 and _stable_below_one(ratios):
                    rem, rem_err = _geometric_rest(v, ratios)
                    if rem_err <= tol:
                        total += rem
                        toterr += rem_err
                        break
        else:
            # the budget ran out on a slow geometric tail (a power tail
            # t^(-1-eps) has dyadic ratio 2^(-eps)) whose remainder is not
            # yet known to tolerance: add it with its error all the same
            if len(ratios) == 8 and _stable_below_one(ratios):
                rem, rem_err = _geometric_rest(v, ratios)
                total += rem
                toterr += rem_err
                continue
            raise QuadratureFailure(
                "dyadic budget exhausted without convergence or divergence",
                value=total, error_bound=toterr + pieces[-1])
    return max(total, 0.0), toterr


def _rest_bounds(rest, edge, up, first, count):
    """rest at the outer ends of pieces first, ..., first + count - 1 of
    the walk from edge, as two lists; empty lists without a bracket."""
    if rest is None:
        return [], []
    k = np.arange(first + 1, first + count + 1)
    bounds = rest(np.ldexp(edge, k if up else -k), up)
    if bounds is None:
        return [], []
    return [np.asarray(x, dtype=float).tolist() for x in bounds]


def _check_piece(v, x0, x1, total, toterr):
    """A nan integral is an integrand fault, never divergence."""
    if math.isnan(v):
        raise QuadratureFailure(
            f"integrand is nan on the piece ({x0:g}, {x1:g})",
            value=total, error_bound=toterr)


def _geometric_rest(v, ratios):
    """The rest v r / (1 - r) of a geometric tail after its last piece v,
    r the last of its dyadic ratios, and the rest's sensitivity to the
    spread of the ratios as its error."""
    r = ratios[-1]
    spread = (max(ratios) - min(ratios)) / r
    rem = v * r / (1.0 - r)
    return rem, rem * spread / (1.0 - r)


def _stable_below_one(ratios):
    """Whether dyadic ratios are those of a geometric tail: they agree to
    1e-6 relative and lie more than 1e-6 below 1.  Such a tail converges
    however close to 1 its ratio is (t^(-1-eps) has ratio 2^(-eps)), so the
    divergence test must not claim it; ratios within 1e-6 of 1 (1/t has
    ratio 1 up to rounding) are left to that test."""
    lo, hi = min(ratios), max(ratios)
    return 0.0 < lo and hi < 1.0 - 1e-6 and hi - lo <= 1e-6 * ratios[-1]


def _profile_integral(prof, a, b):
    """Integrals of prof over the intervals (a, b), 0 <= a <= b <= inf,
    whose ends broadcast together: the closed form, else one pass.

    The pass cuts (0, inf) at the intervals' ends and, between the finite
    ones, at prof's breakpoints.  One _gauss_kronrod call integrates the
    pieces between finite cuts, and a walk of _integral the piece from 0
    and the piece to inf; a piece that no interval holds is skipped.  Each
    interval sums its own pieces, so a lone (0, t) or (t, inf) is one walk
    and an empty interval reads 0.  A nan end raises ValueError, and a nan
    on a held piece QuadratureFailure naming the piece."""
    val = prof.integral(a, b)
    if val is not None:
        return val
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    if not np.all((0.0 <= a) & (a <= b)):
        raise ValueError("need 0 <= a <= b")
    live = a < b
    # piece j is (x[j], x[j + 1]); an interval holds pieces j0, ..., j1 - 1
    x = _sorted_unique(np.concatenate(([0.0, _INF], a[live], b[live])))
    breaks = _sorted_unique(prof.breakpoints())
    x = _sorted_unique(np.append(x, breaks[(breaks > x[1])
                                           & (breaks < x[-2])]))
    j0, j1 = np.searchsorted(x, a[live]), np.searchsorted(x, b[live])
    held = np.cumsum(np.bincount(j0, minlength=x.size)
                     - np.bincount(j1, minlength=x.size))[:-1] > 0
    # a 0 past the last piece, where the last range ends
    pieces = np.zeros(x.size)
    mid = np.flatnonzero(held[1:-1]) + 1
    pieces[mid], _ = _gauss_kronrod(prof, x[mid], x[mid + 1])
    for j in mid[np.isnan(pieces[mid])][:1]:
        _check_piece(math.nan, x[j], x[j + 1], 0.0, 0.0)
    # the walks toward the open ends, down first
    for j in sorted({0, x.size - 2}):
        if held[j]:
            pieces[j], _ = _integral(prof, (x[j], x[j + 1]), breaks)
    out = np.zeros(a.shape)
    out[live] = np.add.reduceat(pieces, np.stack((j0, j1), -1).ravel())[::2]
    return out


def _shell_integral(g, n, r0, r1):
    """Integrals of g(|x|) over the shells r0 < |x| < r1 in R^n, for radii
    or arrays of them."""
    dens = g if n == 1 else g.times(PowerProfile(1.0, n - 1.0))
    return sphere_area(n) * _profile_integral(dens, r0, r1)


def _check_radius(t):
    if np.min(t) <= 0:
        raise ValueError("radius must be positive")


@scalar_results(ExtReal)
def ball_integral(g, n, t):
    """Integral of g(|x|) over the ball B(0, t) in R^n.  An array of radii
    gives a float array of integrals."""
    _check_radius(t)
    return _shell_integral(g, n, 0.0, t)


@scalar_results(ExtReal)
def complement_integral(g, n, t):
    """Integral of g(|x|) over the complement of B(0, t) in R^n."""
    _check_radius(t)
    return _shell_integral(g, n, t, _INF)


@scalar_results(ExtReal)
def esssup_ball(g, t):
    """Essential supremum of the radial profile over (0, t)."""
    return g.esssup(0.0, t)


@scalar_results(ExtReal)
def esssup_complement(g, t):
    """Essential supremum of the radial profile over (t, inf)."""
    return g.esssup(t, _INF)


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
        # one-sided limits default to the evaluator at t (1 - 2^-40) and
        # t (1 + 2^-40), as FnProfile reads them, which is exact for steps
        h = self.evaluator
        if self.left is None:
            self.left = lambda t: h(t * (1.0 - 2.0 ** -40))
        if self.right is None:
            self.right = lambda t: h(t * (1.0 + 2.0 ** -40))

    def __call__(self, t):
        return _values(self.evaluator, t)

    def mass(self, y, z):
        """Measure of the intervals [y, z] (one-sided limits at the ends)."""
        sign = 1.0 if self.direction == "increasing" else -1.0
        return sign * (_values(self.right, z) - _values(self.left, y))

    def atom(self, t):
        return self.mass(t, t)

    @classmethod
    def from_function(cls, h, direction, jump_points=(), infinite_from=None,
                      left=None, right=None):
        """Wrap an array evaluator, with the constructor's one-sided limits
        unless given.  stieltjes_integral reads them only at the jump
        points and at the cut where h turns infinite."""
        return cls(direction=direction, evaluator=h, left=left, right=right,
                   jump_points=tuple(jump_points), infinite_from=infinite_from)


def _find_infinite_cut(h: MonotoneIntegrator, a, b):
    """The boundary of the region where h is infinite, if any: the last
    point where h is finite on the walk from the end where it is finite
    toward the end where it may turn infinite, up for increasing h.

    h is sampled on a 129-point geometric grid in walking order; the
    bracket around the first infinite sample is resampled the same way
    until it is tight to 1e-13 relative.  h is monotone, so there is no cut
    when it is finite at the walk's far end: that point is read first."""
    if h.infinite_from is not None:
        return h.infinite_from
    step = 1 if h.direction == "increasing" else -1
    ends = [max(a, 1e-9), min(b, 1e9)]       # ascending
    if np.isfinite(_values(h.evaluator, np.array(ends[::step][-1:]))).all():
        return None
    for depth in range(12):
        grid = np.geomspace(*ends, 129)[::step]
        idx = int(np.argmin(np.isfinite(_values(h.evaluator, grid))))
        if idx == 0:
            break
        ends = sorted(grid[idx - 1:idx + 1])
        if ends[1] / ends[0] < 1 + 1e-13:
            break
    return ends[::step][0]


def _rs_stage(f, h: MonotoneIntegrator, x0, x1, sharp):
    """Refining Riemann-Stieltjes midpoint sums on a jump-free piece, with
    the last change as the error; a nan sum raises naming the stage.
    sharp holds the points where h may jump or turn infinite."""
    lo = max(x0, 1e-18)
    hi = min(x1, 1e18)
    if lo >= hi:
        return 0.0, 0.0
    # the piece is open: at an end in sharp its value is the inner
    # one-sided limit, so an atom sitting there (accounted for exactly
    # elsewhere) is excluded; elsewhere h is continuous and the evaluator
    # is exact where a numeric limit would drop mass
    h_lo = _values(h.right if lo in sharp else h.evaluator, np.array([lo]))
    h_hi = _values(h.left if hi in sharp else h.evaluator, np.array([hi]))
    prev = None
    n = 256
    while n <= (1 << 17):
        edges = np.geomspace(lo, hi, n + 1)
        mids = np.sqrt(edges[:-1] * edges[1:])
        hv = np.concatenate((h_lo, _values(h.evaluator, edges[1:-1]), h_hi))
        dm = np.diff(hv) if h.direction == "increasing" else -np.diff(hv)
        dm = np.maximum(dm, 0.0)
        fv = _values(f, mids)
        contrib = _mul(fv, dm)
        if np.isnan(contrib).any():
            raise QuadratureFailure(
                f"Riemann-Stieltjes sum is nan on the stage ({lo:g}, {hi:g})")
        if np.isinf(contrib).any():
            return _INF, _INF
        s = float(np.sum(contrib))
        if prev is not None:
            err = abs(s - prev)
            if err <= max(_ABS_TOL, _REL_TOL * 1e4 * abs(s)):
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


def _defined_range(f, cut, increasing, a, b):
    """(a, b) less the part beyond cut (None: none) where a monotone
    integrator is identically infinite, on which the integral of f
    against it is defined only when f vanishes; else UndefinedStieltjes."""
    if cut is None:
        return a, b
    kept, beyond = ((a, cut), (cut, b)) if increasing else ((cut, b), (a, cut))
    if _nonzero_on(f, *beyond):
        raise UndefinedStieltjes(
            f"integrator infinite on ({beyond[0]:g}, {beyond[1]:g}) "
            "where f > 0")
    return kept


def stieltjes_integral(f, h: MonotoneIntegrator, interval=(0.0, _INF)):
    """Integral of f >= 0 against the monotone integrator h over (a, b).

    f, like the evaluators of h, takes a 1-D float array of points and
    returns the values there (a scalar result is broadcast); 0 * inf is
    taken as 0 and overflow as inf.  Jump atoms contribute f(t) times the
    jump size exactly; the rest is the dyadic walk of integrate_halfline
    with h's jump points as breakpoints, each of its jump-free pieces
    integrated by _rs_stage.  Where h is identically infinite the integral
    is defined only when f vanishes there; otherwise UndefinedStieltjes is
    raised.  A nan f at an atom or a nan Riemann-Stieltjes sum raises
    QuadratureFailure.
    """
    cut = _find_infinite_cut(h, *interval)
    a, b = _defined_range(f, cut, h.direction == "increasing", *interval)
    if not a < b:
        return ExtReal(0.0)

    jumps = _sorted_unique(h.jump_points)
    jumps = jumps[(jumps > a) & (jumps < b)]
    total = 0.0
    if jumps.size:
        mass = h.atom(jumps)
        fv = _values(f, jumps)
        holes = jumps[(mass > 0.0) & np.isnan(fv)]
        if holes.size:
            raise QuadratureFailure(
                f"Stieltjes integrand is nan at the atom t = {holes[0]:g}")
        hit = (mass > 0.0) & (fv > 0.0)
        if np.any(np.isinf(mass[hit]) | np.isinf(fv[hit])):
            return ExtReal(_INF)
        total = float(np.sum(fv[hit] * mass[hit]))

    sharp = set(map(float, h.jump_points)) | {cut}

    def rule(lo, hi):
        found = [_rs_stage(f, h, x0, x1, sharp) for x0, x1 in zip(lo, hi)]
        return np.array(found, dtype=float).reshape(-1, 2).T

    val, _ = _walk(rule, (a, b), jumps, None)
    return ExtReal(total + val)
