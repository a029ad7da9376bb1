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
from .extreal import ExtReal, scalar_results
from .hardy import _primal_functional
from .integration import _gauss_kronrod, _sorted_unique, sphere_area
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
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0][:2] != ["knot", "value"]:
            raise ValueError("expected header 'knot,value'")
        if any(len(row) < 2 for row in rows[1:]):
            raise ValueError("expected two fields, knot and value, per row")
        knots = [float(row[0]) for row in rows[1:]]
        values = [float(row[1]) for row in rows[1:]]
        return cls(knots, values[1:])

    def __eq__(self, other):
        return (isinstance(other, GridFunction)
                and np.array_equal(self.knots, other.knots)
                and np.array_equal(self.values, other.values))


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
    if not float(p) > 0:
        raise ValueError("p must be in (0, inf]")
    cls = _InnerComplementNorm if region.kind == "complement" \
        else _InnerBallNorm
    norm = cls(f, p, v)
    return ExtReal(norm.total()) if region.kind == "all" \
        else norm(region.t)


class _InnerBallNorm:
    """r -> ||f||_{p,v,B(0,r)} with exact accumulation across cells.

    Each cell gives one mass: |f|^p times the shell integral of v, or |f|
    times the esssup of v at p = inf.  The masses accumulate from both ends
    by sums (maxima at p = inf), so that an array of radii takes one
    searchsorted and the mass of the part of each radius's cell inside the
    region."""

    complement = False

    def __init__(self, f: GridFunction, p, v: Weight):
        self.f, self.p, self.v = f, float(p), v
        self.op = np.maximum if math.isinf(self.p) else np.add
        live = f.values > 0.0
        mass = np.zeros(f.num_cells)
        mass[live] = self._mass(f.values[live], f.knots[:-1][live],
                                f.knots[1:][live])
        # prefix[i] holds the cells below i, suffix[i] cell i and those above
        self.prefix = np.concatenate([[0.0], self.op.accumulate(mass)])
        self.suffix = np.concatenate(
            [self.op.accumulate(mass[::-1])[::-1], [0.0]])
        self._total = self._finish(self.prefix[-1])

    def total(self):
        return self._total

    def _mass(self, vals, a, b):
        """The masses of the parts (a, b) of cells with values vals > 0."""
        if math.isinf(self.p):
            return vals * self.v.profile.esssup(a, b)
        return vals ** self.p * _shell_integral(self.v.profile,
                                                self.v.dimension, a, b)

    def _finish(self, acc):
        return acc if math.isinf(self.p) else np.power(acc, 1.0 / self.p)

    @scalar_results(ExtReal)
    def __call__(self, r):
        knots, values = self.f.knots, self.f.values
        r = np.asarray(r, dtype=float)
        below, above = (self.prefix[-1], 0.0) if self.complement \
            else (0.0, self.prefix[-1])
        acc = np.where(r <= knots[0], below, above)
        inside = (r > knots[0]) & (r < knots[-1])
        rs = r[inside]
        # a radius on a knot takes the cell whose part inside the region,
        # (knots[i], r) or (r, knots[i+1]), is not empty
        i = np.searchsorted(knots, rs, side="right" if self.complement
                            else "left") - 1
        live = values[i] > 0.0
        a, b = (rs, knots[i + 1]) if self.complement else (knots[i], rs)
        part = np.zeros(rs.shape)
        part[live] = self._mass(values[i][live], a[live], b[live])
        rest = self.suffix[i + 1] if self.complement else self.prefix[i]
        acc[inside] = self.op(rest, part)
        return self._finish(acc)


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
    regions: the primal functional with p = inf, whose breaks are the
    knots of f and omega's breakpoints."""
    breaks = np.append(f.knots, omega.breakpoints())
    if math.isinf(float(theta)):
        # the scan's step can miss a peak: each cell between the breaks
        # within the knots adds 33 samples
        anchors = _sorted_unique(
            breaks[(breaks >= f.knots[0]) & (breaks <= f.knots[-1])])
        breaks = np.append(np.geomspace(anchors[:-1], anchors[1:], 33),
                           breaks)
    return _primal_functional(side, _inner_norm(f, p, v, side), omega,
                              float(theta), _INF, breaks)


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
