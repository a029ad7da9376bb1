"""Weighted Lebesgue norms of radial test functions, the local Morrey-type
norm and its complementary mirror, and the weight identity that collapses
the p = theta case to a single weighted Lebesgue norm.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAWeight, QuadratureFailure
from .extreal import ExtReal, _mul, _power, scalar_results
from .hardy import sup_over_t
from .integration import _gauss_kronrod, sphere_area
from .profiles import (FnProfile, PiecewisePowerProfile, PowerProfile,
                       RadialProfile)
from .weights import Side, Weight

__all__ = [
    "GridFunction",
    "Region",
    "Ball",
    "Complement",
    "ALL",
    "weighted_lp_norm",
    "lm_norm",
    "dual_lm_norm",
    "fubini_weight",
]

_INF = math.inf


@dataclass(frozen=True)
class Region:
    kind: str  # "ball", "complement", "all"
    t: float = _INF

    def radial_interval(self):
        if self.kind == "ball":
            return (0.0, self.t)
        if self.kind == "complement":
            return (self.t, _INF)
        return (0.0, _INF)


def Ball(t):
    if t <= 0:
        raise ValueError("ball radius must be positive")
    return Region("ball", float(t))


def Complement(t):
    if t <= 0:
        raise ValueError("radius must be positive")
    return Region("complement", float(t))


ALL = Region("all")


class GridFunction:
    """Nonnegative piecewise-constant radial function.

    values[i] lives on the cell (knots[i], knots[i+1]]; the function is
    zero outside (knots[0], knots[-1]].
    """

    def __init__(self, knots, values):
        knots = np.asarray(knots, dtype=float)
        values = np.asarray(values, dtype=float)
        if knots.ndim != 1 or len(knots) < 2:
            raise ValueError("need at least two knots")
        if np.any(knots <= 0) or np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be positive and strictly ascending")
        if len(values) != len(knots) - 1:
            raise ValueError("need len(knots) - 1 cell values")
        if np.any(values < 0) or np.any(~np.isfinite(values)):
            raise ValueError("cell values must be finite and nonnegative")
        self.knots = knots
        self.values = values

    @property
    def num_cells(self):
        return len(self.values)

    @classmethod
    def log_spaced(cls, num_cells=256, lo=1e-4, hi=1e4, values=None):
        knots = np.geomspace(lo, hi, num_cells + 1)
        if values is None:
            values = np.zeros(num_cells)
        return cls(knots, values)

    @scalar_results(float)
    def __call__(self, rho):
        """The value at the radii rho, a float or an array of them."""
        rho = np.asarray(rho, dtype=float)
        i = np.searchsorted(self.knots, rho, side="left") - 1
        inside = (rho > self.knots[0]) & (rho <= self.knots[-1])
        return np.where(inside, self.values[np.clip(i, 0, self.num_cells - 1)],
                        0.0)

    def scaled(self, c):
        return GridFunction(self.knots, c * self.values)

    def with_values(self, values):
        return GridFunction(self.knots, values)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["knot", "value"])
            writer.writerow([repr(float(self.knots[0])), repr(0.0)])
            for k, v in zip(self.knots[1:], self.values):
                writer.writerow([repr(float(k)), repr(float(v))])

    @classmethod
    def from_csv(cls, path):
        knots, values = [], []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header[:2] != ["knot", "value"]:
                raise ValueError("expected header 'knot,value'")
            for row in reader:
                knots.append(float(row[0]))
                values.append(float(row[1]))
        return cls(knots, values[1:])

    def __eq__(self, other):
        return (isinstance(other, GridFunction)
                and np.array_equal(self.knots, other.knots)
                and np.array_equal(self.values, other.values))


def _clip_cells(f: GridFunction, interval):
    """(values, r0, r1) of the parts of the cells with a positive value
    inside the interval, as arrays."""
    a, b = interval
    r0 = np.maximum(f.knots[:-1], a)
    r1 = np.minimum(f.knots[1:], b)
    live = (r0 < r1) & (f.values > 0.0)
    return f.values[live], r0[live], r1[live]


def _shell_integral(profile: RadialProfile, n, r0, r1):
    """Integrals of profile(|x|) over the shells r0 < |x| < r1 in R^n, for
    arrays of ends."""
    dens = profile if n == 1 else profile.times(PowerProfile(1.0, n - 1.0))
    val = dens.integral(r0, r1)
    if val is None:
        val, _ = _gauss_kronrod(dens, r0, r1)
        if np.isnan(val).any():
            raise QuadratureFailure("shell integrand is nan")
    return sphere_area(n) * val


def weighted_lp_norm(f: GridFunction, p, v: Weight, region: Region = ALL) -> ExtReal:
    """||f||_{p,v,region}: (int |f|^p v)^{1/p}, or esssup |f| v for p = inf."""
    p = float(p)
    vals, r0, r1 = _clip_cells(f, region.radial_interval())
    if math.isinf(p):
        return ExtReal(np.max(vals * v.profile.esssup(r0, r1), initial=0.0))
    if p <= 0:
        raise ValueError("p must be in (0, inf]")
    shells = _shell_integral(v.profile, v.dimension, r0, r1)
    return ExtReal(_power(float(np.sum(vals ** p * shells)), 1.0 / p))


class _InnerBallNorm:
    """r -> ||f||_{p,v,B(0,r)} with exact accumulation across cells.

    Called with an array of radii it returns the array of norms, found
    with one searchsorted over the prefix sums."""

    complement = False

    def __init__(self, f: GridFunction, p, v: Weight):
        self.f, self.p, self.v = f, float(p), v
        live = f.values > 0.0
        lo, hi = f.knots[:-1][live], f.knots[1:][live]
        if math.isinf(self.p):
            self.cell_sup = np.zeros(f.num_cells)
            self.cell_sup[live] = v.profile.esssup(lo, hi) * f.values[live]
            self.prefix = np.concatenate([[0.0], np.maximum.accumulate(self.cell_sup)])
            # suffix[i] = max of cell_sup[i:], 0 past the last cell
            self.suffix = np.concatenate(
                [np.maximum.accumulate(self.cell_sup[::-1])[::-1], [0.0]])
        else:
            cell_mass = np.zeros(f.num_cells)
            cell_mass[live] = _shell_integral(v.profile, v.dimension, lo, hi)
            pth = f.values ** self.p
            self.prefix = np.concatenate([[0.0], np.cumsum(pth * cell_mass)])
        self._total = self._finish(self.prefix[-1])

    def total(self):
        return self._total

    def _finish(self, acc):
        if math.isinf(self.p):
            return acc
        return np.power(np.maximum(acc, 0.0), 1.0 / self.p)

    # The pieces below take arrays of cell indices i and of radii r
    # strictly inside the knots.

    def _rest(self, i):
        """Accumulated whole cells on the region's side of cell i."""
        if math.isinf(self.p):
            return self.suffix[i + 1] if self.complement else self.prefix[i]
        if self.complement:
            return self.prefix[-1] - self.prefix[i + 1]
        return self.prefix[i]

    def _part(self, i, r):
        """Contribution of the part of cell i inside the region: (knots[i], r)
        for the ball, (r, knots[i+1]) for the complement."""
        knots, val = self.f.knots, self.f.values[i]
        a, b = (r, knots[i + 1]) if self.complement else (knots[i], r)
        if math.isinf(self.p):
            return val * self.v.profile.esssup(a, b)
        return val ** self.p * _shell_integral(self.v.profile,
                                               self.v.dimension, a, b)

    def _combine(self, rest, part):
        if math.isinf(self.p):
            return np.maximum(rest, part)
        return self._finish(rest + part)

    @scalar_results(ExtReal)
    def __call__(self, r):
        knots, values = self.f.knots, self.f.values
        below, above = (self._total, 0.0) if self.complement \
            else (0.0, self._total)
        r = np.asarray(r, dtype=float)
        out = np.where(r <= knots[0], below, above)
        inside = (r > knots[0]) & (r < knots[-1])
        i = np.searchsorted(knots, r[inside], side="left") - 1
        live = values[i] > 0
        part = np.zeros(i.shape)
        part[live] = self._part(i[live], r[inside][live])
        out[inside] = self._combine(self._rest(i), part)
        return out


class _InnerComplementNorm(_InnerBallNorm):
    """r -> ||f||_{p,v,complement of B(0,r)}."""

    complement = True


def _inner_norm(f: GridFunction, p, v: Weight, side: Side):
    """r -> ||f||_{p,v} over the side's region at radius r."""
    cls = _InnerBallNorm if side is Side.BALL else _InnerComplementNorm
    return cls(f, p, v)


def lm_norm(f: GridFunction, p, theta, omega: RadialProfile, v: Weight) -> ExtReal:
    """Local Morrey-type norm: the theta-norm over r of
    omega(r) ||f||_{p,v,B(0,r)}."""
    return _morrey_norm(f, p, theta, omega, v, Side.BALL)


def dual_lm_norm(f: GridFunction, p, theta, omega: RadialProfile, v: Weight) -> ExtReal:
    """Complementary local Morrey-type norm: theta-norm over r of
    omega(r) ||f||_{p,v,complement of B(0,r)}."""
    return _morrey_norm(f, p, theta, omega, v, Side.COMPLEMENT)


def _morrey_norm(f, p, theta, omega, v, side) -> ExtReal:
    """||omega(r) * ||f||_{p,v,region(r)}||_{theta,(0,inf)} over the side's
    regions.  The inner norm is monotone on each cell and the whole norm
    beyond the knots on the side's outer end: past the last knot for
    balls, below the first for complements."""
    inner = _inner_norm(f, p, v, side)
    whole = inner.total()
    theta = float(theta)
    k0, k1 = float(f.knots[0]), float(f.knots[-1])
    edge = k1 if side is Side.BALL else k0
    anchors = sorted({k0, k1} | set(float(k) for k in f.knots)
                     | {b for b in omega.breakpoints() if k0 < b < k1})
    if math.isinf(theta):
        best = whole * float(side.outer_norm(omega, _INF, edge)) \
            if whole > 0 else 0.0
        # each cell's 33 samples join the scan, whose step can miss a peak
        return ExtReal(max(best, float(sup_over_t(
            lambda r: _mul(omega(r), inner(r)),
            np.geomspace(anchors[:-1], anchors[1:], 33).ravel()))))
    total = 0.0
    if whole > 0:
        beyond = float(side.outer_norm(omega, theta, edge))
        if math.isinf(beyond):
            return ExtReal(_INF)
        total += (whole * beyond) ** theta
    vals, _ = _gauss_kronrod(
        lambda r: _power(_mul(omega(r), inner(r)), theta),
        anchors[:-1], anchors[1:])
    if np.isnan(vals).any():
        raise QuadratureFailure("Morrey-norm integrand is nan")
    total += float(np.sum(vals))
    return ExtReal(_power(total, 1.0 / theta))


def fubini_weight(omega: RadialProfile, p, v: Weight, direction="tail") -> Weight:
    """The weight u with ||f||_{LM_{pp,omega}(v)} = ||f||_{p,u}:
    u(x) = v(x) ||omega||_{p,(|x|,inf)}^p (tail) or with the head norm.

    Raises NotAWeight when the norm profile is identically infinite.
    """
    p = float(p)
    if not 1.0 <= p < _INF:
        raise ValueError("p must be in [1, inf)")
    if direction not in ("tail", "head"):
        raise ValueError("direction must be 'tail' or 'head'")
    side = Side.BALL if direction == "tail" else Side.COMPLEMENT
    if isinstance(omega, PiecewisePowerProfile) and not omega.breaks \
            and omega.segments[0][0] > 0:
        # c^p t^e / |e| with e = alpha p + 1: tails need e < 0, heads e > 0
        (c, alpha), = omega.segments
        e = alpha * p + 1.0
        if not (e < 0.0 if side is Side.BALL else e > 0.0):
            raise NotAWeight(
                f"{direction} norm of omega is infinite for every t")
        norm_p = PowerProfile(c ** p / abs(e), e)
    else:
        if math.isinf(float(side.outer_norm(omega, p, 1.0))):
            raise NotAWeight("the norm profile is infinite")
        norm_p = FnProfile(lambda t: float(side.outer_norm(omega, p, t)) ** p,
                           breakpoints=omega.breakpoints())
    return Weight(v.dimension, v.profile.times(norm_p))
