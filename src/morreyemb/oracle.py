"""Brute-force lower bounds on the best constants of the Hardy-type and
embedding inequalities by ratio maximization over piecewise-constant radial
functions.

The evaluator discretizes (0, inf) into log-spaced cells, refines each cell
into subcells, and computes all the norms by vectorized midpoint/prefix
sums, independently of the closed-form functionals it is used to audit.
Canonical families (ball indicators, complements, near-extremal dual-power
profiles, two-block combinations, power windows) are scored first; then
one search, picked from a table by the ratio's structure, goes further.
Everything is serial and seed-deterministic.

What depends on the discretization alone is built once per (grid_cells,
knot_range), in a small bounded cache, and is read-only: the knots, the
subcell edges and midpoints, the Gauss-Legendre nodes and weights of the
subcell masses, and the family rows but dual_power, one (rows, m) array.
The dual_power rows, which read the problem's weight, are built per
problem.  A returned argmax's knots are the cached array, so a write to
them raises.

On u = v^p2 (u = v for the Hardy variants, p2 = 1) the cumulative norm,
Morrey-type or Hardy, is N'(u)^(1/p2): N' is a norm of a nonnegative
linear map of u with exponent r = theta/p2 (q for Hardy), convex for
r >= 1 and a concave power mean for r <= 1.  The Lebesgue norm is
S'(u)^(1/p2), S' the weighted l^P norm of u, P = p1/p2 (p for Hardy),
convex for P >= 1 and concave for P <= 1.  The rows of the table:

- "corner": p1 = inf with the cumulative norm on top (hardy.d, hardy.e,
  emb.iv, emb.v, emb.ix and the supremum variants).  The source's unit
  ball is the box v <= 1/s and the target is nondecreasing in every
  value, so the corner v = 1/s is the maximum.
- "holder_dual": theta = inf (q = inf), 1 < P < inf and p2 < inf, the
  cumulative norm on top (hardy.c, emb.iii).  The target is a maximum
  over subcells of linear functionals of u, and over the source's unit
  sphere each one peaks at Hoelder's dual l^P' norm of its coefficients;
  one prefix sum gives them all.
- "vertex": convex over concave with p2 < inf, that is the cumulative
  norm on top with r >= 1 >= P (hardy.f, hardy.h, emb.vi, emb.viii), or
  as the source with r <= 1 <= P (emb.source.a, emb.dual_source.a, and
  reverse Hardy with q <= 1 <= p).  Such a ratio is quasi-convex
  (Schaible, 1976), so its maximum sits at a vertex of the source's unit
  ball, a one-cell function, and the scan scores all m of them.
- "eigen": the cumulative norm on top with r = P = 2, that is theta = p1
  = 2 p2 (p = q = 2 for Hardy: hardy.a, the averaged operators).  Phi =
  N'^2 is then the quadratic form u'Hu, H the Hessian of Phi over 2, and
  the ratio to the power theta (q for Hardy) is the Rayleigh quotient
  u'Hu / sum s u^2.  H is entrywise nonnegative and semiseparable, H_il =
  ic_i c_l for i < l, so H u is one prefix and one suffix sum, and
  Lanczos steps (Lanczos, 1950) with full reorthogonalization reach the
  top eigenpair of s^(-1/2) H s^(-1/2), whose vector may be taken
  nonnegative (Perron-Frobenius).
- "power": the other problems with the cumulative norm on top, 0 < p2 <=
  theta < inf and p2 < p1 < inf (hardy.b, emb.i, emb.ii,
  emb.dual_target), convex over convex.  The search is the nonlinear
  power method (Boyd, 1974).  For r <= P, that is theta <= p1 (q <= p for
  Hardy), it reaches the global maximum (Bhaskara and Vijayaraghavan,
  2011, for nonnegative maps), so it runs from one start; for r > P its
  step still never lowers the ratio, but the point it stops at may be a
  local maximum, so the restarts run too.
- "simplex": P = 1 (p1 = p2 < inf) and q < inf, the cumulative norm on
  top with r < 1 (hardy.g, emb.vii) or as the source with r > 1
  (emb.source.b, emb.dual_source.b, reverse Hardy with p = 1 < q).  S' =
  s.u is then linear, so on x = s u over the simplex sum x = 1 the ratio
  is a power of Phi = N'^r, concave for r < 1 and convex for r > 1: a
  convex program, solved by active-set Newton steps and certified by the
  Frank-Wolfe gap (Jaggi, 2013).
- "ascent": everything else (the supremum-inner rows, concave over convex
  with P != 1, q = inf under the source, and p2 = inf with finite p1).  A
  coordinate ascent scores the candidate values of one coordinate as
  whole rows through the same batch ratio pass as the families.

The first three rows are exact: they give the discrete maximum, the
corner and the Hoelder dual in one O(mK) pass, the vertex scan in m rows
of it.  The eigen row gives it to a Ritz residual of 1e-15 times the
eigenvalue, or exactly after one step per cell, and the simplex row to a
gap of 1e-13 |Phi|; neither reads a setting.  The power method and the
ascent are local searches, run from the family best and from seeded
random restarts, except the power method for r <= P, which runs from the
family best alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .embeddings import EmbeddingProblem, embedding_constant
from .errors import DegenerateRatio, WitnessNotFound
from .extreal import ExtReal, _div, _float_pow, _mul, conjugate_exponent
from .hardy import HardyProblem, hardy_constant
from .integration import sphere_area
from .norms import GridFunction
from .profiles import constant as constant_profile
from .weights import Side

__all__ = [
    "OracleConfig",
    "OracleResult",
    "EquivalenceReport",
    "best_constant_lower_bound",
    "divergence_witness",
    "equivalence_report",
    "closed_form_constant",
]

_INF = math.inf
_TINY = sys.float_info.min

# subcells per coarse cell
_SUBCELLS = 8

# rows scored together, in one pass over the grid
_BLOCK = 16

# np.polynomial.legendre.leggauss(4) moved to [0, 1], nodes (row 0) and
# weights (row 1), read-only; written out, as numpy.polynomial takes 4 ms
_GL01 = np.array([[0.06943184420297371, 0.33000947820757187,
                   0.6699905217924281, 0.9305681557970262],
                  [0.17392742256872679, 0.3260725774312732,
                   0.3260725774312732, 0.17392742256872679]])
_GL01.flags.writeable = False


@dataclass(frozen=True)
class OracleConfig:
    grid_cells: int = 256
    knot_range: tuple = (1e-4, 1e4)
    restarts: int = 16
    ascent_sweeps: int = 40
    seed: int = 0

    def __post_init__(self):
        for name in ("grid_cells", "restarts", "ascent_sweeps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.grid_cells < 16:
            raise ValueError("grid_cells must be >= 16")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.ascent_sweeps < 0:
            raise ValueError("ascent_sweeps must be >= 0")
        lo, hi = self.knot_range
        if not 0.0 < lo < hi < _INF:
            raise ValueError("knot_range must satisfy 0 < lo < hi < inf")
        # the subcell midpoints are sqrt(a b) of adjacent edges
        if not (_TINY <= lo * lo and hi * hi < _INF):
            raise ValueError(f"knot_range must have lo^2 >= {_TINY!r} "
                             "and hi^2 finite")


@dataclass
class OracleResult:
    lower_bound: ExtReal
    argmax: GridFunction
    trace: list
    family_bests: dict
    search: str


class _Grid:
    """What one discretization of (lo, hi) into m log-spaced cells holds
    for every problem, built once by `_grid` and read-only: the knots, the
    m K + 1 subcell edges and the subcell midpoints, the 4-point
    Gauss-Legendre nodes and weights of every subcell, (m K, 4) each, and
    the canonical family rows, named, with the index at which a problem's
    dual_power rows go (after the annuli)."""

    def __init__(self, m, lo, hi):
        self.knots = np.geomspace(lo, hi, m + 1)
        self.edges = edges = np.geomspace(lo, hi, m * _SUBCELLS + 1)
        self.mids = np.sqrt(edges[:-1] * edges[1:])
        x01, w01 = _GL01
        lo, hi = edges[:-1], edges[1:]
        self.nodes = lo[:, None] + (hi - lo)[:, None] * x01[None, :]
        self.weights = (hi - lo)[:, None] * w01[None, :]
        idx = np.arange(m)
        # 1..m ascending, repeats and 0 dropped (np.unique would load numpy.ma)
        probe = np.linspace(0, m, 25, dtype=int)
        self.probe = probe = probe[np.diff(probe, prepend=0) > 0]
        c = probe[:, None]
        # a ball and its complement per probe cell, interleaved
        balls = np.stack([idx < c, idx >= c - 1], axis=1).reshape(-1, m)
        annuli = np.array([(idx >= c) & (idx < c + span) for c in probe
                           for span in (m // 16, m // 4)
                           if c + span <= m]).reshape(-1, m)
        # each window raised to its own scalar exponent: numpy takes its
        # sqrt and reciprocal paths for a scalar only
        cell_mids = np.sqrt(self.knots[:-1] * self.knots[1:])
        with np.errstate(over="ignore"):
            windows = np.array([cell_mids ** gamma for gamma in (
                -2.0, -1.0, -0.5, -1.0 / 3.0, 0.5, 1.0)])
        windows = np.where(np.isfinite(windows), windows, 0.0)
        tops = np.max(windows, axis=1, initial=0.0)
        windows = windows[tops > 0] / tops[tops > 0, None]
        c = probe[probe < m, None, None]
        blocks = ((idx < c) + np.array([0.1, 1.0, 10.0])[:, None]
                  * ((idx >= c) & (idx < np.minimum(c + m // 8, m))))
        blocks = blocks.reshape(-1, m)
        self.names = ("constant",) + ("ball", "complement") * len(probe) \
            + ("annulus",) * len(annuli) + ("power_window",) * len(windows) \
            + ("two_block",) * len(blocks)
        self.dual_at = 1 + len(balls) + len(annuli)
        self.rows = np.concatenate([np.ones((1, m)), balls, annuli, windows,
                                    blocks])
        for a in (self.knots, self.edges, self.mids, self.nodes,
                  self.weights, self.probe, self.rows):
            a.flags.writeable = False


@functools.lru_cache(maxsize=8)
def _grid(m, lo, hi):
    """The read-only `_Grid` of m cells over (lo, hi), one per process."""
    return _Grid(m, lo, hi)


def _subcell_masses(profile, grid, n=1, sigma=1.0):
    """Integral of profile(rho) * rho^(n-1) * sigma over each subcell of
    the grid, by its cached 4-point Gauss-Legendre nodes and weights; the
    defaults integrate a function of the outer variable.  ``profile`` is
    called once, on the read-only array of all the nodes."""
    xs = grid.nodes
    with np.errstate(all="ignore"):
        vals = np.asarray(profile(xs.ravel()), dtype=float).reshape(xs.shape)
        vals = np.where(np.isfinite(vals), vals, 0.0)
        return np.sum(vals * xs ** (n - 1) * sigma * grid.weights, axis=1)


def _exclusive(op, terms):
    """Running op-reduction of terms along the last axis before each
    entry, 0 before the first."""
    out = np.zeros(terms.shape)
    op.accumulate(terms[..., :-1], axis=-1, out=out[..., 1:])
    return out


class _RatioEvaluator:
    """Vectorized ratio(values) for one problem on one discretization.

    A Hardy problem and an embedding are the same three discretized norms
    with different data, and one assembly builds them: the inner norm over
    the region (for Hardy the weight 1, with exponent 1, or inf for the
    supremum variants), the outer norm over t and the source norm.
    ``values`` has one entry per coarse cell; the masses live on the
    refined subcell grid as (m, K) arrays in the order in which the inner
    norm accumulates: outward from the origin over balls, inward from
    infinity over complements.  ``morrey_on_top`` decides whether the
    cumulative (Morrey/Hardy style) norm is the numerator.

    ``ratios(V)`` scores every row of V from scratch, in one pass over the
    (B, m, K) grid, and is the only scoring path: ``ratio(values)`` is its
    one-row case, and a row scores the same alone as among others.
    """

    def __init__(self, prob, cfg: OracleConfig):
        m, K = cfg.grid_cells, _SUBCELLS
        self.grid = grid = _grid(m, *cfg.knot_range)
        self.m, self.K = m, K
        # the problem as one set of data: the inner exponent and weight,
        # the outer profile v, q and the exponent e of the density v^e, and
        # the source exponent, its esssup profile and its density
        self.dual_w_profile = None
        if isinstance(prob, HardyProblem):
            w = prob.w_inner.profile
            sup = prob.variant in ("sup", "sup_complement")
            direct = prob.variant in ("direct", "direct_complement")
            # Hf integrates f over the region, Sf takes its supremum there
            inner_p, inner_w = (_INF if sup else 1.0), constant_profile(1.0)
            # the direct target has v as an outer measure density; sup and
            # reverse weigh by v as a multiplier, the density v^q
            v, q, e = prob.v_outer, prob.q, 1.0 if direct else prob.q
            # the source ||f||_{p,w} (direct), ||f w||_p (reverse) or
            # ||f w||_inf (sup, whose p is inf)
            src_p, src_sup = prob.p, w
            src_density = w if direct or sup else w.power(prob.p)
            self.morrey_on_top = prob.variant not in ("reverse",
                                                      "reverse_complement")
            if prob.variant == "direct" and 1.0 < prob.p < _INF:
                # the classical near-extremal density w^(1-p')
                pp = float(conjugate_exponent(prob.p))
                wm = np.asarray(w(grid.mids), dtype=float)
                with np.errstate(all="ignore"):
                    self.dual_w_profile = np.where(
                        wm > 0, np.minimum(wm ** (1.0 - pp), 1e10), 0.0)
        elif isinstance(prob, EmbeddingProblem):
            inner_p, inner_w = prob.p2, prob.v2.profile
            v, q, e = prob.omega, prob.theta, prob.theta
            src_p, src_sup = prob.p1, prob.v1.profile
            src_density = src_sup
            self.morrey_on_top = prob.morrey_is_target
        else:
            raise TypeError(f"unsupported problem type {type(prob)!r}")
        n, side = prob.n, prob.side
        sigma = sphere_area(n)
        self.inner_p, self.outer_q, self.src_p = inner_p, q, src_p
        self.sup_inner = math.isinf(inner_p)
        if self.sup_inner:
            self.inner_sup_weight = self._subcell_sups(inner_w)
        else:
            self.inner_mass = _subcell_masses(inner_w, grid, n, sigma)
        # the outer q-norm over t, per subcell: the mass of the density v^e
        # for finite q, the multiplier v at the midpoint for q = inf; and
        # the side's outer norm beyond the grid, where the inner norm is the
        # whole norm: past the last edge for balls, below the first for
        # complements
        edge = float(grid.edges[-1] if side is Side.BALL else grid.edges[0])
        if math.isinf(q):
            self.outer = np.asarray(v(grid.mids), dtype=float)
            self.outer_beyond = float(side.outer_norm(v, _INF, edge))
        else:
            self.outer = _subcell_masses(lambda t: np.power(v(t), e), grid)
            self.outer_beyond = float(side.outer_norm(v, e, edge)) ** e
        # the source p-norm's weight per coarse cell: the largest subcell
        # supremum of its esssup profile when p = inf, else the mass of its
        # density
        if math.isinf(src_p):
            self.src_cell = self._subcell_sups(src_sup).reshape(
                m, K).max(axis=1)
        else:
            self.src_cell = _subcell_masses(src_density, grid, n,
                                            sigma).reshape(m, K).sum(axis=1)

        # the subcell data as (m, K) arrays in accumulation order,
        # complements reversed once here, with the value-independent
        # within-cell partial masses
        self._reverse = side is Side.COMPLEMENT

        def cells(a):
            return np.ascontiguousarray((a[::-1] if self._reverse
                                         else a).reshape(m, K))

        if self.sup_inner:
            self._w = cells(self.inner_sup_weight)
        else:
            im = cells(self.inner_mass)
            self._inner_cell = im.sum(axis=1)
            # the inner mass met before each subcell's midpoint
            self._part_half = np.cumsum(im, axis=1) - 0.5 * im
        self._outer = cells(self.outer)
        self._outer_flat = self._outer.ravel()
        self._src_cell = self.src_cell[::-1] if self._reverse \
            else self.src_cell
        # the outer integrand on a subcell is the inner norm G^(1/p2) there
        # (G itself when p2 = inf), raised to q and summed for finite q,
        # maximized for q = inf
        self._q_inf = math.isinf(q)
        self._gpow = (1.0 if self._q_inf else q) \
            / (1.0 if self.sup_inner else inner_p)
        self._src_inf = math.isinf(src_p)
        self._src_op = np.maximum if self._src_inf else np.add
        # on u = v^p2 the cumulative norm is (N'(u))^(1/p2) and the source
        # norm (S'(u))^(1/p2): N' a norm of the nonnegative linear map u ->
        # G with exponent r = q/p2, S' the weighted l^P norm of u, P = p1/p2
        self._P = None if self.sup_inner else src_p / inner_p
        self.search = self._search()

    def _subcell_sups(self, profile):
        """Essential supremum of the profile on each subcell."""
        edges = self.grid.edges
        return np.asarray(profile.esssup(edges[:-1], edges[1:]),
                          dtype=float)

    def _search(self):
        """The row of the search table that the ratio's structure selects
        (see the module docstring).  N' is convex for r >= 1 and concave
        for r <= 1, S' convex for P >= 1 and concave for P <= 1."""
        p1, p2, q = self.src_p, self.inner_p, self.outer_q
        if self.morrey_on_top:
            if self._src_inf:
                return "corner"
            if self.sup_inner:
                return "ascent"
            if q >= p2 >= p1:
                return "vertex"
            if self._q_inf:
                return "holder_dual"
            if p2 <= q:
                return "eigen" if self._gpow == self._P == 2.0 else "power"
        elif not self.sup_inner and q <= p2 <= p1:
            return "vertex"
        if p1 == p2 < _INF and not self._q_inf \
                and (q < p2 if self.morrey_on_top else q > p2):
            return "simplex"
        return "ascent"

    def _cells(self, a):
        """Cell values in natural order to accumulation order, or back."""
        a = np.asarray(a, dtype=float)
        return a[..., ::-1] if self._reverse else a

    def ratio(self, values):
        return self.ratios([values])[0]

    def ratios(self, V):
        """The ratio of every row of the (B, m) array V."""
        with np.errstate(all="ignore"):
            V = np.ascontiguousarray(self._cells(V))
            G, totals = self._inner(V if self.sup_inner
                                    else V ** self.inner_p)
            if self._gpow != 1.0:
                G **= self._gpow
            G = G.reshape(len(V), -1)
            if self._q_inf:
                accs = np.maximum.reduce(G * self._outer_flat, axis=1)
            else:
                # each row its own dot product: a matrix product may round
                # a row differently with other rows beside it
                accs = np.einsum("ij,j->i", G, self._outer_flat)
            return [self._finish(acc, total, src) for acc, total, src in zip(
                accs.tolist(), totals.tolist(), self._sources(V).tolist())]

    def _inner(self, vp):
        """The inner accumulation at the subcell midpoints, (B, m, K), and
        over the whole grid, (B,), of the rows of vp in accumulation order:
        the values themselves when p2 = inf, else their p2-th powers."""
        if self.sup_inner:
            marks = vp[:, :, None] * self._w
            G = np.maximum.accumulate(marks.reshape(len(vp), -1), axis=1)
            # a copy: the caller raises G to the outer exponent in place
            return G.reshape(marks.shape), G[:, -1].copy()
        mass = vp * self._inner_cell
        before = _exclusive(np.add, mass)
        G = vp[:, :, None] * self._part_half
        G += before[:, :, None]
        return G, before[:, -1] + mass[:, -1]

    def _sources(self, V):
        """The source accumulation of every row of V."""
        terms = (V if self._src_inf else V ** self.src_p) * self._src_cell
        return self._src_op.reduce(terms, axis=1)

    def source_norm(self, values):
        """The source norm of values."""
        with np.errstate(all="ignore"):
            return self._source_norm(
                float(self._sources(self._cells(values)[None])[0]))

    def _finish(self, acc, total, src):
        """The ratio from the outer accumulation over the grid, the inner
        accumulation over the whole grid and the source accumulation."""
        beyond = self.outer_beyond * _float_pow(total, self._gpow)
        if self._q_inf:
            morrey = max(acc, beyond)
        else:
            acc += beyond
            morrey = acc ** (1.0 / self.outer_q) if acc > 0 else 0.0
        src = self._source_norm(src)
        top, bottom = (morrey, src) if self.morrey_on_top else (src, morrey)
        if bottom == 0.0:
            return 0.0 if top == 0.0 else _INF
        if bottom == _INF or top != top or bottom != bottom:
            return 0.0
        return top / bottom

    def _source_norm(self, src):
        """The source norm from its accumulation."""
        if self._src_inf:
            return src
        return src ** (1.0 / self.src_p) if src > 0 else 0.0

    # -- the power method and the simplex row ----------------------------
    def _power_terms(self, u):
        """The ratio at u = v^p2 (in accumulation order), from N'(u)^r and
        S'(u)^P = sum s u^P, and 1/r times the gradient of N'(u)^r."""
        phi, grad, _, _ = self._phi(u)
        source = np.dot(self._src_cell, u ** self._P) ** (1.0 / self.src_p)
        return phi ** (1.0 / self.outer_q) / source, grad

    def _phi(self, u):
        """Phi = N'(u)^r = sum o G^r + beyond T^r at u, 1/r times its
        gradient, G and T.  G, the inner accumulation at the subcell
        midpoints, is one prefix accumulation, and the weight o G^(r-1)
        that each cell's mass carries into the later subcells one suffix
        accumulation (infinite where G = 0 < o and r < 1)."""
        r = self._gpow
        G, total = self._inner(u[None])
        G, total = G[0], total[0]
        dG = np.where(self._outer > 0.0, self._outer * G ** (r - 1.0), 0.0)
        beyond = self.outer_beyond * total ** (r - 1.0)
        later = _exclusive(np.add, dG.sum(axis=1)[::-1])[::-1]
        grad = self._inner_cell * (later + beyond) \
            + (dG * self._part_half).sum(axis=1)
        phi = np.vdot(np.where(G > 0.0, dG, 0.0), G) + beyond * total
        return phi, grad, G, total

    def _semiseparable(self, G, total):
        """The Hessian of Phi over r(r - 1) at G and T as its generators
        (ic, c, d) over all cells: with w = o G^(r-2) (0 where G = 0) and
        S_l the w past cell l plus beyond T^(r-2), c_l = ic_l S_l + sum_k
        w_lk ph_lk and d_l = ic_l^2 S_l + sum_k w_lk ph_lk^2, so that H_il
        = ic_i c_l for i < l and H_ll = d_l."""
        w = np.where(G > 0.0, self._outer * G ** (self._gpow - 2.0), 0.0)
        past = _exclusive(np.add, w.sum(axis=1)[::-1])[::-1] \
            + self.outer_beyond * total ** (self._gpow - 2.0)
        ic, ph = self._inner_cell, self._part_half
        return ic, ic * past + (w * ph).sum(axis=1), \
            ic * ic * past + (w * ph * ph).sum(axis=1)

    def _hessian(self, G, total, cells):
        """The Hessian of Phi over r(r - 1) at G and T on the given cells
        (ascending), as a dense array."""
        ic, c, d = (a[cells] for a in self._semiseparable(G, total))
        upper = np.triu(np.outer(ic, c), 1)
        return upper + upper.T + np.diag(d)

    def _power_move(self, u, grad):
        """The power step from u with gradient grad (Boyd 1974): the
        maximizer (grad/s)^(1/(P-1)) of the linearized N' over the source's
        unit sphere, scaled to a largest entry of 1, which by N''s
        convexity never lowers the ratio.  Where a cell has no source
        weight and a positive gradient, the step is that cell's one-cell
        function, whose ratio is infinite."""
        s = self._src_cell
        free = (s == 0.0) & (grad > 0.0)
        if free.any():
            return (np.arange(self.m) == np.argmax(free)).astype(float)
        x = (np.log(grad) - np.log(s)) / (self._P - 1.0)
        top = np.fmax.reduce(x)
        if not math.isfinite(top):
            return u
        x = np.exp(x - top)
        return np.where(x == x, x, 0.0)

    # -- the exact rules ---------------------------------------------------
    def corner(self):
        """At p1 = inf the source's unit ball is the box v <= 1/s, on which
        the target, nondecreasing in every value, peaks at the corner: the
        row 1/s, scaled to a largest entry of 1, then the one-cell function
        of each cell with no source weight, whose ratio is infinite where
        that cell reaches the target."""
        s = self.src_cell
        with np.errstate(all="ignore"):
            corner = np.where(s > 0.0, np.fmin.reduce(
                np.where(s > 0.0, s, _INF)) / s, 0.0)
        return np.vstack([corner, np.eye(self.m)[s == 0.0]])

    def holder_dual(self):
        """At q = inf and 1 < P < inf the discrete maximum of the ratio, and
        values that reach it.  On u = v^p2 the target on subcell k is o_k
        (a_k . u)^(1/p2), a_k the inner masses that G_k sums, and over the
        source's unit sphere, sum s u^P = 1, a_k . u peaks at Hoelder's dual
        norm ||a_k s^(-1/P)||_P', at u proportional to (a_k/s)^(1/(P-1)).
        The dual norms of all subcells are one prefix sum; the beyond term
        is one more, with a the cell masses."""
        m, P, p2 = self.m, self._P, self.inner_p
        pc = P / (P - 1.0)
        with np.errstate(all="ignore"):
            root = self._src_cell ** (1.0 / P)
            cell = _div(self._inner_cell, root) ** pc
            own = _div(self._part_half, root[:, None]) ** pc
            before = _exclusive(np.add, cell)
            dual = np.append((before[:, None] + own).ravel(),
                             before[-1] + cell[-1]) ** (1.0 / (pc * p2))
            weight = np.append(self._outer_flat, self.outer_beyond)
            tops = _mul(weight, dual)
            best = int(np.argmax(tops))
            i, k = divmod(best, self.K)
            a = np.where(np.arange(m) < i, self._inner_cell, 0.0)
            if i < m:
                a[i] = self._part_half[i, k]
            u = self._power_move(np.zeros(m), a)
            return float(tops[best]), self._cells(u) ** (1.0 / p2)

    def grid_function(self, values):
        return GridFunction(self.grid.knots, np.asarray(values, dtype=float))


def _families(ev: _RatioEvaluator):
    """The canonical family rows on the coarse grid, their names and a
    (rows, m) array: the grid's own, with the problem's dual_power rows,
    where it has them, put in after the annuli."""
    g = ev.grid
    if ev.dual_w_profile is None:
        return g.names, g.rows
    dual_cell = ev.dual_w_profile.reshape(ev.m, ev.K).mean(axis=1)
    dual = np.where(np.arange(ev.m) < g.probe[:, None], dual_cell, 0.0)
    dual = dual[np.any(dual > 0, axis=1)]
    at = g.dual_at
    return (g.names[:at] + ("dual_power",) * len(dual) + g.names[at:],
            np.concatenate([g.rows[:at], dual, g.rows[at:]]))


class _Incumbent:
    """The highest ratio scored so far and its values, with a trace entry
    (count of candidates scored, ratio) on each rise, and the search that
    was running at the last rise."""

    def __init__(self):
        self.ratio, self.values, self.count, self.trace = 0.0, None, 0, []
        self.stage = self.search = "families"

    def offer(self, r, values):
        """Take values, of ratio r, if r is higher than the incumbent's."""
        if r > self.ratio:
            self.ratio, self.values = r, np.array(values, dtype=float)
            self.search = self.stage
            self.trace.append((self.count, r))

    def scan(self, ev, rows):
        """Score rows in blocks, offering each, up to the first infinite
        ratio; the ratios scored."""
        scored = []
        for lo in range(0, len(rows), _BLOCK):
            block = rows[lo:lo + _BLOCK]
            for vals, r in zip(block, ev.ratios(block)):
                self.count += 1
                self.offer(r, vals)
                scored.append(r)
                if math.isinf(r):
                    return scored
        return scored


def _coordinate_ascent(ev, values, cfg, incumbent):
    """Serial log-space coordinate ascent from values.  The candidate
    values of one coordinate are scored together, each as a whole row,
    then walked in order: every row differs from the current values in
    that coordinate only, so its score does not depend on which earlier
    one was taken."""
    values = np.array(values, dtype=float)
    best = ev.ratio(values)
    incumbent.offer(best, values)
    with np.errstate(all="ignore"):
        for sweep in range(cfg.ascent_sweeps):
            improved = best
            for i in range(ev.m):
                c = float(values[i])
                cands = [x for x in ([c * 0.25, c * 0.5, c * 2.0, c * 4.0, 0.0]
                                     if c > 0 else [1e-6, 1e-3, 1.0])
                         if not x > 1e12]
                rows = np.repeat(values[None], len(cands), axis=0)
                rows[:, i] = cands
                for row, r in zip(rows, ev.ratios(rows)):
                    incumbent.count += 1
                    if r > best * (1.0 + 1e-12):
                        best = r
                        values[i] = row[i]
                        incumbent.offer(r, row)
            src = ev.source_norm(values)
            if 0.0 < src < _INF:
                values /= src
            if best <= improved * (1.0 + 1e-4):
                break
            # a restart stuck far below the incumbent will not catch up
            if sweep >= 1 and best < 0.5 * incumbent.ratio:
                break


def _power_method(ev, values, cfg, incumbent):
    """Power steps from values until one gains a relative 1e-10 or less,
    at most ascent_sweeps * grid_cells of them; the start and the values
    the steps end at are offered to the incumbent."""
    with np.errstate(all="ignore"):
        u = ev._cells(values) ** ev.inner_p
        est, grad = ev._power_terms(u)
        for _ in range(cfg.ascent_sweeps * ev.m):
            step = ev._power_move(u, grad)
            incumbent.count += 1
            r, step_grad = ev._power_terms(step)
            if not r > est:
                break
            gain = r > est * (1.0 + 1e-10)
            u, est, grad = step, r, step_grad
            if not gain:
                break
        found = ev._cells(u) ** (1.0 / ev.inner_p)
    for row, r in zip((values, found), ev.ratios([values, found])):
        incumbent.offer(r, row)


def _simplex(ev, cfg, incumbent):
    """The discrete maximum at P = 1 (see the module docstring), from the
    best one-cell row, by Newton steps on the face x > 0 of the simplex,
    up to a Frank-Wolfe gap, max g - g.x, of 1e-13 |Phi|; the values
    reached are offered last.  A step stops where a cell reaches 0, which
    leaves the face; one that does not raise sign Phi is halved in log2 of
    its length until the slope along it is >= 0, then bisected.  Once the
    face is optimal, or a step moves no cell, the cells of positive
    reduced gradient past the face's first join it, save those the step
    would take below 0.  The cell j of largest reduced gradient joins by a
    step toward its one-cell row where its gradient is infinite, it lies
    before the face (G = 0 there) or the Newton step lowers it."""
    scored = incumbent.scan(ev, np.eye(ev.m))
    if math.isinf(incumbent.ratio) or not max(scored) > 0.0:
        return
    r, sign = ev._gpow, 1.0 if ev.morrey_on_top else -1.0
    live = np.flatnonzero(ev._src_cell > 0.0)
    scale, u = 1.0 / ev._src_cell[live], np.zeros(ev.m)
    x = ev._cells(np.eye(ev.m)[int(np.argmax(scored))])[live]

    def terms(x):
        """sign Phi at x, its gradient over r, and its Hessian over r(r-1)
        on given cells, as a function of them."""
        u[live] = x * scale
        phi, grad, G, total = ev._phi(u)
        return sign * phi, sign * grad[live] * scale, lambda cells: \
            ev._hessian(G, total, live[cells]) * np.outer(scale[cells],
                                                          scale[cells])

    with np.errstate(all="ignore"):
        if r == 2.0:  # Phi is the quadratic form of its Hessian (G^0 = 1)
            H = ev._hessian(np.ones((ev.m, ev.K)), 1.0, live) \
                * np.outer(scale, scale)

            def terms(x):
                return sign * (x @ H @ x), sign * (H @ x), \
                    lambda cells: H[np.ix_(cells, cells)]
        f, g, hessian = terms(x)
        stuck = False
        for _ in range(16 * ev.m):
            face, j = x > 0.0, int(np.argmax(g))
            lam, tol = g[face] @ x[face], 1e-13 * abs(f) / r
            if g[j] - lam <= tol:  # the Frank-Wolfe gap
                break
            added = stuck or np.max(g[face]) - lam <= tol
            if added:
                if face[j]:
                    break
                face |= (g - lam > tol) & (np.cumsum(face) > 0)
                face[j] = True
            d, cells = np.zeros(live.size), np.flatnonzero(face)
            A = hessian(cells)
            while not (added and (math.isinf(g[j]) or not x[:j].any())):
                # max (g - lam).d - |r - 1| d'Ad/2 over sum d = 0, solved on
                # the unit diagonal
                D = 1.0 / np.sqrt(np.diag(A))
                D = np.where(np.isfinite(D), D, 1.0)
                rhs = np.column_stack(((g[cells] - lam) * D, D))
                try:
                    z = np.linalg.solve(A * np.outer(D, D), rhs) * D[:, None]
                except np.linalg.LinAlgError:
                    z = np.full(rhs.shape, np.nan)  # no Newton step
                d[cells] = (z[:, 0] - z[:, 0].sum() / z[:, 1].sum()
                            * z[:, 1]) / abs(r - 1.0)
                out = (x[cells] == 0.0) & (d[cells] < 0.0)
                if not out.any():
                    break
                d[cells[out]] = 0.0
                cells, A = cells[~out], A[np.ix_(~out, ~out)]
            if not g[face] @ d[face] > 0.0 or added and not d[j] > 0.0:
                d = -x
                d[j] += 1.0
                face[j] = True
            # e is log2 of the step's length, at most top, where the first
            # cell reaches 0; a gain below what sign Phi resolves is taken
            slope, neg = g[face] @ d[face], np.flatnonzero(d < 0.0)
            block = neg[np.argmin(x[neg] / -d[neg])] if neg.size else -1
            top = math.log2(x[block] / -d[block]) if neg.size else 1.0
            small = 0.5 * r * slope <= 1e-15 * abs(f)
            e = start = min(0.0, top)
            lo, hi, step = None, start, None
            for _ in range(40):
                y = x + 2.0 ** e * d
                if e == top:
                    y[block] = 0.0
                y = np.maximum(y, 0.0) / np.sum(np.maximum(y, 0.0))
                fy, gy, hy = terms(y)
                if small or e == start and fy > f or gy[face] @ d[face] >= 0:
                    step, lo = (y, fy, gy, hy), e
                    if e == start:
                        break
                else:
                    hi = e
                if lo is not None and hi - lo <= 1.0:
                    break
                e = 2.0 * e - 1.0 if lo is None else 0.5 * (lo + hi)
            if step is None or added and not step[0][j] > 0.0:
                break
            stuck = not np.any(np.abs(step[0] - x) > 1e-12 * x)
            x, f, g, hessian = step
    u[live] = x * scale
    incumbent.scan(ev, [ev._cells(u) ** (1.0 / ev.inner_p)])


def _semiseparable_product(gens, u):
    """H u, H given by its generators (ic, c, d) (see
    `_RatioEvaluator._semiseparable`), in O(m): one prefix and one suffix
    sum."""
    ic, c, d = gens
    return c * _exclusive(np.add, ic * u) + d * u \
        + ic * _exclusive(np.add, (c * u)[::-1])[::-1]


def _eigen(ev, cfg, incumbent):
    """The discrete maximum at r = P = 2 (see the module docstring): the
    top eigenpair of s^(-1/2) H s^(-1/2) on the cells with s > 0, by
    Lanczos steps with full reorthogonalization from the constant vector,
    up to a Ritz residual of 1e-15 times the Ritz value (or one that is
    not a number) or one step per such cell, where the Krylov space is the
    whole space.  The absolute value of the Ritz vector is offered.  A
    cell with no source weight and H_ll > 0 is offered instead as its
    one-cell row, whose ratio is infinite."""
    gens = ev._semiseparable(np.ones((ev.m, ev.K)), 1.0)
    s = ev._src_cell
    free = (s == 0.0) & (gens[2] > 0.0)
    if free.any():
        incumbent.scan(ev, [ev._cells(np.arange(ev.m) == np.argmax(free))])
        return
    with np.errstate(all="ignore"):
        scale = np.where(s > 0.0, 1.0 / np.sqrt(s), 0.0)
        n = np.count_nonzero(scale)
        Q = np.zeros((n, ev.m))
        q = (scale > 0.0) / math.sqrt(n)
        alpha, beta = np.zeros(n), np.zeros(n)
        for k in range(n):
            Q[k] = q
            w = scale * _semiseparable_product(gens, scale * q)
            alpha[k] = q @ w
            basis = Q[:k + 1]
            # against every earlier vector, twice ("twice is enough",
            # Kahan and Parlett)
            for _ in range(2):
                w -= (basis @ w) @ basis
            beta[k] = math.sqrt(w @ w)
            theta, Y = np.linalg.eigh(np.diag(alpha[:k + 1])
                                      + np.diag(beta[:k], -1))
            # the Ritz residual of the top pair is beta_k |y_k|
            if not beta[k] * abs(Y[-1, -1]) > 1e-15 * theta[-1] \
                    or k + 1 == n:
                break
            q = w / beta[k]
        # one count per product with H, as per power step
        incumbent.count += k + 1
        u = scale * np.abs(Y[:, -1] @ basis)
        incumbent.scan(ev, [ev._cells(u) ** (1.0 / ev.inner_p)])


def _restarts(search, ev, cfg, incumbent):
    """The local search from the incumbent's values, then from each of the
    `restarts - 1` seeded lognormal starts, up to an infinite ratio.  The
    power method for r <= P reaches the global maximum from any start, so
    there it runs from the incumbent's values alone, unless ascent_sweeps
    = 0 leaves the starts to be scored as they are."""
    rng = np.random.default_rng(cfg.seed)
    single = search is _power_method and cfg.ascent_sweeps > 0 \
        and ev._gpow <= ev._P
    starts = itertools.chain([incumbent.values], (
        np.exp(rng.normal(0.0, 2.0, ev.m))
        for _ in range(0 if single else cfg.restarts - 1)))
    for start in starts:
        search(ev, start, cfg, incumbent)
        if math.isinf(incumbent.ratio):
            break


# the search table: each row's search, by the name the evaluator's
# structure selects
_SEARCHES = {
    "corner": lambda ev, cfg, inc: inc.scan(ev, ev.corner()),
    "holder_dual": lambda ev, cfg, inc: inc.scan(ev, [ev.holder_dual()[1]]),
    "vertex": lambda ev, cfg, inc: inc.scan(ev, np.eye(ev.m)),
    "power": functools.partial(_restarts, _power_method),
    "eigen": _eigen,
    "simplex": _simplex,
    "ascent": functools.partial(_restarts, _coordinate_ascent),
}


def closed_form_constant(prob) -> ExtReal:
    """Dispatch to the matching closed-form functional."""
    if isinstance(prob, EmbeddingProblem):
        return embedding_constant(prob)
    if isinstance(prob, HardyProblem):
        return hardy_constant(prob)
    raise TypeError(f"unsupported problem type {type(prob)!r}")


def best_constant_lower_bound(prob, cfg: OracleConfig = None) -> OracleResult:
    """Maximize the inequality ratio over the discretized function space.

    The family members are scored first.  Then the search of the ratio's
    row of the search table runs (see the module docstring): the corner,
    the Hoelder dual and the vertex scan score the discrete maximum
    directly.  The eigen row (r = P = 2: theta = p1 = 2 p2, p = q = 2 for
    Hardy) stops at a Ritz residual of 1e-15 times the top eigenvalue of
    the ratio's Rayleigh quotient, or after one Lanczos step per cell with
    source weight.  The simplex row (P = 1) stops at a Frank-Wolfe gap of
    1e-13 |Phi|, Phi the power of the cumulative norm whose optimum over
    the simplex is the ratio's maximum.  Neither reads a setting.  The
    power method and the coordinate ascent start from the family best and
    then from each of the `restarts - 1` seeded lognormal starts, except
    the power method for r <= P (theta <= p1, q <= p for Hardy), whose
    maximum is global: it starts from the family best alone and does not
    read `restarts`.  The power method stops once a step gains a relative
    1e-10 or less, or after `ascent_sweeps * grid_cells` steps, the
    ascent after `ascent_sweeps` sweeps.  With `ascent_sweeps = 0` there
    is no search: every start, the seeded ones included, is scored as it
    is.

    Every search offers the values it reaches to one incumbent, the best
    row scored so far: lower_bound is the evaluator's ratio of argmax,
    exactly, and the last entry of the trace of the incumbent's rises.
    `search` names the stage that set it: "families" or the table row.
    """
    cfg = cfg or OracleConfig()
    ev = _RatioEvaluator(prob, cfg)
    incumbent = _Incumbent()

    names, rows = _families(ev)
    ratios = incumbent.scan(ev, rows)
    family_bests = {}
    for fam, r in zip(names, ratios):
        if r > family_bests.get(fam, 0.0):
            family_bests[fam] = r
    if math.isinf(incumbent.ratio):
        return OracleResult(ExtReal(_INF),
                            ev.grid_function(incumbent.values),
                            incumbent.trace, {fam: _INF}, incumbent.search)

    if incumbent.values is None:
        raise DegenerateRatio("every candidate has zero ratio "
                              "(source norm vanishes or target is zero)")

    search = ev.search
    if cfg.ascent_sweeps == 0 and search not in ("power", "ascent"):
        # no local search: the starts alone are scored
        search = "ascent"
    incumbent.stage = search
    _SEARCHES[search](ev, cfg, incumbent)

    return OracleResult(ExtReal(incumbent.ratio),
                        ev.grid_function(incumbent.values), incumbent.trace,
                        family_bests, incumbent.search)


def divergence_witness(prob, cfg: OracleConfig = None, constant=None):
    """Dyadically scaled test functions with unboundedly growing ratios.

    Requires the closed-form constant to be infinite; succeeds when the
    ratio at least doubles over every 4 consecutive dyadic steps near the
    end of the scale range.  A caller that already has the closed-form
    constant passes it as `constant` instead of having it evaluated again.
    """
    cfg = cfg or OracleConfig()
    const = closed_form_constant(prob) if constant is None \
        else ExtReal(constant)
    if not const.is_inf:
        raise ValueError("divergence_witness requires an infinite "
                         "closed-form constant")
    wide = replace(cfg, knot_range=(1e-9, 1e9))
    ev = _RatioEvaluator(prob, wide)
    m = ev.m
    idx = np.arange(m)
    # 12 dyadic steps of m // 14 cells, one row per step
    step = m // 14
    c = step * np.arange(1, 13)[:, None]
    families = {"ball": idx < c, "complement": idx >= m - c,
                "annulus": (idx >= c) & (idx < c + step)}
    best_rows, best_ratios, all_ratios = None, None, {}
    for name, rows in families.items():
        rows = rows.astype(float)
        ratios = all_ratios[name] = ev.ratios(rows)
        if _has_doubling_run(ratios) and (
                best_ratios is None or ratios[-1] > best_ratios[-1]):
            best_rows, best_ratios = rows, ratios
    if best_rows is None:
        raise WitnessNotFound(
            "no dyadic family achieved doubling ratio growth",
            ratios=all_ratios)
    return [ev.grid_function(row) for row in best_rows], best_ratios


def _has_doubling_run(ratios):
    """Some window of 5 consecutive steps shows at least 2x total growth."""
    for i in range(len(ratios) - 4):
        a, b = ratios[i], ratios[i + 4]
        if a > 0 and math.isfinite(a) and (math.isinf(b) or b >= 2.0 * a):
            return True
    return False


@dataclass
class EquivalenceReport:
    constant: ExtReal
    lower_bound: ExtReal
    ratio_low: float
    family_ratios: dict


def equivalence_report(prob, cfg: OracleConfig = None,
                       constant=None) -> EquivalenceReport:
    """Empirical audit of a finite closed-form constant.

    ratio_low = lower_bound / constant measures how much of the functional
    the brute-force search recovers.  `constant`, when given, is the
    closed-form constant already evaluated by the caller.
    """
    cfg = cfg or OracleConfig()
    const = closed_form_constant(prob) if constant is None \
        else ExtReal(constant)
    if not (const.is_finite and float(const) > 0.0):
        raise ValueError("equivalence_report requires a finite positive "
                         "closed-form constant")
    result = best_constant_lower_bound(prob, cfg)
    c = float(const)
    return EquivalenceReport(
        constant=const,
        lower_bound=result.lower_bound,
        ratio_low=float(result.lower_bound) / c,
        family_ratios={k: v / c for k, v in result.family_bests.items()},
    )
