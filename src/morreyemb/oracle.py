"""Brute-force lower bounds on the best constants of the Hardy-type and
embedding inequalities by ratio maximization over piecewise-constant radial
functions.

The evaluator discretizes (0, inf) into log-spaced cells, refines each cell
into subcells, and computes all the norms by vectorized midpoint/prefix
sums, independently of the closed-form functionals it is used to audit.
Canonical families (ball indicators, complements, near-extremal dual-power
profiles, two-block combinations, power windows) seed a coordinate ascent
with randomized restarts.  Everything is serial and seed-deterministic.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingProblem, embedding_constant
from .errors import DegenerateRatio, WitnessNotFound
from .extreal import ExtReal, conjugate_exponent
from .hardy import (HardyProblem, hardy_A, hardy_A_star, reverse_hardy_C,
                    reverse_hardy_C_star, sup_operator_constant)
from .integration import sphere_area
from .norms import GridFunction
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

DEFAULT_FAMILIES = ("ball", "complement", "annulus", "dual_power",
                    "power_window", "constant", "two_block")

# family members scored in one pass over the grid
_BLOCK = 16


@dataclass(frozen=True)
class OracleConfig:
    grid_cells: int = 256
    knot_range: tuple = (1e-4, 1e4)
    restarts: int = 16
    ascent_sweeps: int = 40
    seed: int = 0
    include_families: tuple = DEFAULT_FAMILIES
    subcells: int = 8

    def __post_init__(self):
        for name in ("grid_cells", "restarts", "ascent_sweeps", "seed",
                     "subcells"):
            value = getattr(self, name)
            if isinstance(value, bool) or \
                    not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        families = set(self.include_families)
        if not families or not families <= set(DEFAULT_FAMILIES):
            raise ValueError(f"include_families must be some of "
                             f"{DEFAULT_FAMILIES}, got "
                             f"{self.include_families!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.grid_cells < 16:
            raise ValueError("grid_cells must be >= 16")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.ascent_sweeps < 0:
            raise ValueError("ascent_sweeps must be >= 0")
        if self.subcells < 1:
            raise ValueError("subcells must be >= 1")
        lo, hi = self.knot_range
        if not 0.0 < lo < hi < _INF:
            raise ValueError("knot_range must satisfy 0 < lo < hi < inf")


@dataclass
class OracleResult:
    lower_bound: ExtReal
    argmax: GridFunction
    trace: list
    family_bests: dict

    def to_json(self, argmax_path=None):
        doc = {
            "lower_bound": float(self.lower_bound),
            "trace": [[int(i), float(r)] for i, r in self.trace],
            "family_bests": {k: float(v) for k, v in self.family_bests.items()},
        }
        if argmax_path is not None:
            doc["argmax_csv"] = str(argmax_path)
        return json.dumps(doc)


@functools.lru_cache(maxsize=8)
def _gauss_legendre01(gl):
    """The gl-point Gauss-Legendre nodes and weights on [0, 1], built once
    per process and read-only."""
    x01, w01 = np.polynomial.legendre.leggauss(gl)
    x01 = 0.5 * (x01 + 1.0)
    w01 = 0.5 * w01
    x01.flags.writeable = w01.flags.writeable = False
    return x01, w01


def _subcell_masses(profile, edges, n=1, sigma=1.0, gl=4):
    """Integral of profile(rho) * rho^(n-1) * sigma over each subcell; the
    defaults integrate a function of the outer variable.  ``profile`` is
    called once, on the array of all quadrature nodes."""
    x01, w01 = _gauss_legendre01(gl)
    lo, hi = edges[:-1], edges[1:]
    xs = lo[:, None] + (hi - lo)[:, None] * x01[None, :]
    ws = (hi - lo)[:, None] * w01[None, :]
    with np.errstate(all="ignore"):
        vals = np.asarray(profile(xs.ravel()), dtype=float).reshape(xs.shape)
    vals = np.where(np.isfinite(vals), vals, 0.0)
    dens = vals * xs ** (n - 1) * sigma
    return np.sum(dens * ws, axis=1)


def _pow(x, e):
    """x ** e for floats x >= 0 and e > 0, inf where it overflows."""
    try:
        return x ** e
    except OverflowError:
        return _INF


def _exclusive(op, terms):
    """Running op-reduction of terms before each entry, 0 before the
    first."""
    out = np.zeros(len(terms))
    op.accumulate(terms[:-1], out=out[1:])
    return out


class _RatioEvaluator:
    """Vectorized ratio(values) for one problem on one discretization.

    ``values`` has one entry per coarse cell; the masses live on the
    refined subcell grid as (m, K) arrays in the order in which the inner
    norm accumulates: outward from the origin over balls, inward from
    infinity over complements.  ``morrey_on_top`` decides whether the
    cumulative (Morrey/Hardy style) norm is the numerator.

    ``_ratio(values)`` loads ``values`` into a per-cell cache: the inner
    accumulation and the outer accumulation before each cell, and the
    source accumulation over the other cells.
    ``_scores(i, cands)`` then scores every candidate value of cell i at
    once: the cells before it keep their cached terms, cell i is
    recomputed, and each later cell only sees cell i's candidate shift its
    inner accumulation (by a sum, or a running max when p2 = inf).
    ``_accept(b, c)`` loads candidate b of the last scoring into the cache
    from that scoring's outer integrand, leaving the cells before it as
    they are.  ``ratios(V)`` scores whole rows at once, apart from the
    cache.  All of them go through the same per-cell code, ``_tail`` and
    ``_finish``.
    """

    def __init__(self, prob, cfg: OracleConfig):
        m, K = cfg.grid_cells, cfg.subcells
        lo, hi = cfg.knot_range
        self.knots = np.geomspace(lo, hi, m + 1)
        self.edges = np.geomspace(lo, hi, m * K + 1)
        self.mids = np.sqrt(self.edges[:-1] * self.edges[1:])
        self.m, self.K = m, K
        self._build(prob)

    # -- problem-specific assembly ------------------------------------
    def _build(self, prob):
        if isinstance(prob, HardyProblem):
            self._build_hardy(prob)
        elif isinstance(prob, EmbeddingProblem):
            self._build_embedding(prob)
        else:
            raise TypeError(f"unsupported problem type {type(prob)!r}")
        self.dual_w_profile = self._dual_power_profile(prob)
        self._finalize(prob.side)

    def _build_hardy(self, prob: HardyProblem):
        n = prob.n
        sigma = sphere_area(n)
        v, w = prob.v_outer, prob.w_inner.profile
        sup = prob.variant in ("sup", "sup_complement")
        direct = prob.variant in ("direct", "direct_complement")
        if sup:
            # target ||(Sf) v||_q, source ||f w||_inf
            self.inner_p = _INF
            self.inner_sup_weight = np.ones(len(self.mids))
        else:
            # Hf integrates f over the region
            self.inner_p = 1.0
            self.inner_mass = _subcell_masses(np.ones_like, self.edges, n,
                                              sigma)
        self.sup_inner = sup
        # the direct target has v as an outer measure density; sup and
        # reverse weigh by v as a multiplier, the density v^q
        self._build_outer(v, prob.q, 1.0 if direct else prob.q, prob.side)
        # the source ||f||_{p,w} (direct), ||f w||_p (reverse) or
        # ||f w||_inf
        self._build_source(_INF if sup else prob.p, w,
                           w if direct else w.power(prob.p), n, sigma)
        self.morrey_on_top = prob.variant not in ("reverse",
                                                  "reverse_complement")

    def _build_embedding(self, prob: EmbeddingProblem):
        n = prob.n
        sigma = sphere_area(n)
        v1, v2 = prob.v1.profile, prob.v2.profile
        self.inner_p = prob.p2
        self.sup_inner = math.isinf(prob.p2)
        if self.sup_inner:
            self.inner_sup_weight = self._subcell_sups(v2)
        else:
            self.inner_mass = _subcell_masses(v2, self.edges, n, sigma)
        self._build_outer(prob.omega, prob.theta, prob.theta, prob.side)
        self._build_source(prob.p1, v1, v1, n, sigma)
        self.morrey_on_top = prob.morrey_is_target

    def _subcell_sups(self, profile):
        """Essential supremum of the profile on each subcell."""
        return np.asarray(profile.esssup(self.edges[:-1], self.edges[1:]),
                          dtype=float)

    def _build_source(self, p, sup_profile, density, n, sigma):
        """The source p-norm's weight per coarse cell: the largest
        subcell supremum of sup_profile when p = inf, else the mass of
        the density."""
        m, K = self.m, self.K
        self.src_p = p
        if math.isinf(p):
            self.src_cell = self._subcell_sups(sup_profile).reshape(
                m, K).max(axis=1)
        else:
            self.src_cell = _subcell_masses(density, self.edges, n,
                                            sigma).reshape(m, K).sum(axis=1)

    def _build_outer(self, v, q, e, side):
        """The outer q-norm over t, per subcell: the mass of the density
        v^e (e = q for a multiplier) for finite q, the multiplier v at the
        midpoint for q = inf; and the side's outer norm beyond the grid,
        where the inner norm is the whole norm: past the last edge for
        balls, below the first for complements."""
        edge = float(self.edges[-1] if side is Side.BALL else self.edges[0])
        self.outer_q = q
        if math.isinf(q):
            self.outer = np.asarray(v(self.mids), dtype=float)
            self.outer_beyond = float(side.outer_norm(v, _INF, edge))
        else:
            self.outer = _subcell_masses(lambda t: np.power(v(t), e),
                                         self.edges)
            self.outer_beyond = float(side.outer_norm(v, e, edge)) ** e

    def _dual_power_profile(self, prob):
        """The classical near-extremal density w^{1-p'} when meaningful."""
        if isinstance(prob, HardyProblem) and prob.variant == "direct" \
                and 1.0 < prob.p < _INF:
            pp = float(conjugate_exponent(prob.p))
            w = np.asarray(prob.w_inner.profile(self.mids), dtype=float)
            with np.errstate(all="ignore"):
                return np.where(w > 0, np.minimum(w ** (1.0 - pp), 1e10),
                                0.0)
        return None

    def _finalize(self, side):
        """Lay the subcell data out as (m, K) arrays in accumulation order,
        reversing complements once here, with the value-independent
        within-cell partial masses; fix the exponents and reductions of the
        outer and source norms."""
        m, K = self.m, self.K
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
        q = self.outer_q
        e = 1.0 if self.sup_inner else 1.0 / self.inner_p
        self._q_inf = math.isinf(q)
        if self._q_inf:
            self._gpow, self._outer_op = e, np.maximum
        else:
            self._gpow = q if self.sup_inner else q / self.inner_p
            self._outer_op = np.add
        self._src_inf = math.isinf(self.src_p)
        self._src_op = np.maximum if self._src_inf else np.add
        # the cache, filled by _ratio in accumulation order; the entries of
        # the first cell in _inner_before and _outer_before are always 0
        self._v, self._src = np.zeros(m), np.zeros(m)
        if self.sup_inner:
            self._marks = np.zeros((m, K))
        else:
            self._cell_mass, self._part = np.zeros(m), np.zeros((m, K))
        self._inner_before = np.zeros(m)
        self._outer_before = [0.0]

    # -- the cache and the per-cell code path --------------------------
    def ratio(self, values):
        with np.errstate(all="ignore"):
            return self._ratio(values)

    def ratios(self, V):
        """The ratio of every row of the (B, m) array V, in one pass over
        the grid; the cache is left as it was."""
        with np.errstate(all="ignore"):
            # contiguous rows and first cells, as _ratio has them, so that
            # numpy takes the same power loop
            V = np.asarray(V, dtype=float)
            V = np.ascontiguousarray(V[:, ::-1] if self._reverse else V)
            first, later = V[:, 0].copy(), V[:, 1:]
            _, accs, totals = self._tail(
                0, first, self._terms(slice(1, None), later))
            # the source over the later cells, accumulated as _load has it
            others = self._src_op.accumulate(
                self._src_terms(slice(1, None), later)[:, ::-1],
                axis=1)[:, -1]
            return [self._finish(acc, total, self._source(0, c, rest))
                    for acc, total, c, rest in zip(
                        accs, totals, first.tolist(), others.tolist())]

    def _ratio(self, values):
        """Load `values` into the per-cell cache and return their ratio."""
        v = np.asarray(values, dtype=float)
        if self._reverse:
            v = v[::-1]
        self._load(slice(None), v)
        G, accs, totals = self._tail(0, self._v[:1])
        self._outer_from(0, G[0])
        return self._finish(accs[0], totals[0],
                            self._source(0, float(self._v[0])))

    def _scores(self, i, cands):
        """Ratios of the loaded values with coarse cell i set to each of
        cands, in order.  The scoring is kept for `_accept`."""
        j = self.m - 1 - i if self._reverse else i
        G, accs, totals = self._tail(j, cands)
        self._scored = j, G
        return [self._finish(acc, total, self._source(j, c))
                for c, acc, total in zip(cands, accs, totals)]

    def _accept(self, b, c):
        """Load candidate b, of value c, of the last `_scores` call into the
        cache, as `_ratio` of the moved values would: the cells before it
        keep their outer accumulation, and the later ones take theirs from
        the outer integrand that scoring computed."""
        j, G = self._scored
        self._load(slice(j, j + 1), c)
        self._outer_from(j, G[b])

    def _terms(self, cells, v):
        """The inner terms of the cells (a slice in accumulation order) at
        values v (..., cells): the subcell marks when p2 = inf, else the
        cell masses and the within-cell partial masses."""
        if self.sup_inner:
            return v[..., None] * self._w[cells]
        vp = v ** self.inner_p
        return (vp * self._inner_cell[cells],
                vp[..., None] * self._part_half[cells])

    def _src_terms(self, cells, v):
        """The source terms of the cells at values v (..., cells)."""
        return (v if self._src_inf else v ** self.src_p) \
            * self._src_cell[cells]

    def _load(self, cells, v):
        """Set the cached terms of the cells (a slice in accumulation
        order) to values v, then redo the inner and source accumulations
        over the grid.  The terms are computed from the contiguous cache,
        so that a power of a value is the same however many cells are
        loaded at once."""
        self._v[cells] = v
        v = self._v[cells]
        if self.sup_inner:
            self._marks[cells] = self._terms(cells, v)
            self._inner_before = _exclusive(np.maximum,
                                            self._marks.max(axis=1))
        else:
            self._cell_mass[cells], self._part[cells] = self._terms(cells, v)
            self._inner_before = _exclusive(np.add, self._cell_mass)
        self._src[cells] = self._src_terms(cells, v)
        op = self._src_op
        self._src_others = op(_exclusive(op, self._src),
                              _exclusive(op, self._src[::-1])[::-1]).tolist()
        self.src_norm = self._source_norm(self._source(0, float(self._v[0])))

    def _outer_from(self, j, G):
        """Redo the outer accumulation before each cell after j from the
        outer integrand G on the subcells of cells j, j+1, ..., going on
        from the accumulation before cell j."""
        op, K = self._outer_op, self.K
        terms = np.empty(self.m - j)
        terms[0] = self._outer_before[j]
        terms[1:] = op.reduce((G[:-K] * self._outer_flat[j * K:-K]).reshape(
            -1, K), axis=1)
        self._outer_before[j:] = op.accumulate(terms).tolist()

    def _tail(self, j, c, after=None):
        """Cell j (in accumulation order) set to each value of c, the later
        cells as loaded, or per value with the inner terms `after` of
        `_terms`: the outer integrand G^(1/p2) (raised to q when q is
        finite) on the subcells of cells j, j+1, ..., and per value the
        outer accumulation over the grid and the inner accumulation over
        the whole grid, as lists of floats."""
        B, rest, K = len(c), self.m - j - 1, self.K
        c = np.asarray(c, dtype=float)[:, None]
        G = np.empty((B, rest + 1, K))
        own = G[:, 0]
        before = self._inner_before[j]
        if self.sup_inner:
            marks = self._marks[j + 1:] if after is None else after
            np.multiply(c, self._w[j], out=own)
            np.maximum.accumulate(own, axis=1, out=own)
            np.maximum(own, before, out=own)
            # a later subcell sees the running max up to it
            run = np.maximum.accumulate(
                marks.reshape(marks.shape[:-2] + (-1,)), axis=-1)
            np.maximum(G[:, :1, -1:], run.reshape(marks.shape), out=G[:, 1:])
            total = G[:, -1, -1].copy()
        else:
            mass, part = (self._cell_mass[j + 1:], self._part[j + 1:]) \
                if after is None else after
            cp = c if self.inner_p == 1.0 else c ** self.inner_p
            np.multiply(cp, self._part_half[j], out=own)
            own += before
            # the inner accumulation before each later cell: cell j's
            # candidate mass, then the masses in between; the last entry is
            # the accumulation over the whole grid
            met = np.empty((B, rest + 1))
            np.multiply(cp[:, 0], self._inner_cell[j], out=met[:, 0])
            met[:, 0] += before
            met[:, 1:] = mass
            np.add.accumulate(met, axis=1, out=met)
            np.add(met[:, :-1, None], part, out=G[:, 1:])
            total = met[:, -1]
        if self._gpow != 1.0:
            G **= self._gpow
        G = G.reshape(B, -1)
        outer = self._outer_flat[j * K:]
        if self._q_inf:
            accs = np.maximum(self._outer_before[j],
                              np.maximum.reduce(G * outer, axis=1))
        elif after is None:
            accs = G @ outer
            accs += self._outer_before[j]
        else:
            # rows apart from the cache each take their own dot product,
            # which is what _ratio's single row gets from the matrix
            # product; a product of several rows may round differently
            accs = np.array([g @ outer for g in G])
        return G, accs.tolist(), total.tolist()

    def _source(self, j, c, others=None):
        """The source accumulation with cell j set to c, the other cells
        accumulating to `others` (by default as loaded)."""
        if others is None:
            others = self._src_others[j]
        x = float(self._src_cell[j])
        if self._src_inf:
            x *= c
            # max(others, x), nan if either is nan, as np.max has it
            return x if x > others or x != x else others
        return others + x * _pow(c, self.src_p)

    def _finish(self, acc, total, src):
        """The ratio from the outer accumulation over the grid, the inner
        accumulation over the whole grid and the source accumulation."""
        beyond = self.outer_beyond * _pow(total, self._gpow)
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

    def grid_function(self, values):
        return GridFunction(self.knots, np.asarray(values, dtype=float))


def _family_members(ev: _RatioEvaluator, cfg: OracleConfig):
    """Yield (family, values) candidates on the coarse grid."""
    m = ev.m
    knots = ev.knots
    idx = np.arange(m)
    # ascending, so repeats are neighbours (np.unique would load numpy.ma)
    probe_cells = np.linspace(0, m, 25, dtype=int).clip(0, m)
    probe_cells = probe_cells[np.diff(probe_cells, prepend=-1) > 0]
    fams = cfg.include_families
    if "constant" in fams:
        yield "constant", np.ones(m)
    for c in probe_cells:
        if 0 < c <= m:
            if "ball" in fams:
                yield "ball", (idx < c).astype(float)
            if "complement" in fams:
                yield "complement", (idx >= c - 1).astype(float)
    if "annulus" in fams:
        for c in probe_cells:
            for span in (m // 16, m // 4):
                if 0 < c and c + span <= m:
                    yield "annulus", ((idx >= c) & (idx < c + span)).astype(float)
    if "dual_power" in fams and ev.dual_w_profile is not None:
        dual_cell = ev.dual_w_profile.reshape(m, ev.K).mean(axis=1)
        for c in probe_cells:
            if 0 < c <= m:
                vals = np.where(idx < c, dual_cell, 0.0)
                if np.any(vals > 0):
                    yield "dual_power", vals
    if "power_window" in fams:
        mids = np.sqrt(knots[:-1] * knots[1:])
        for gamma in (-2.0, -1.0, -0.5, -1.0 / 3.0, 0.5, 1.0):
            with np.errstate(over="ignore"):
                vals = mids ** gamma
            vals = np.where(np.isfinite(vals), vals, 0.0)
            top = float(np.max(vals, initial=0.0))
            if top > 0:
                yield "power_window", vals / top
    if "two_block" in fams:
        for c in probe_cells:
            for lam in (0.1, 1.0, 10.0):
                if 0 < c < m:
                    vals = np.where(idx < c, 1.0, 0.0) \
                        + lam * ((idx >= c) & (idx < min(c + m // 8, m)))
                    yield "two_block", vals


def _coordinate_ascent(ev, values, cfg, trace, counter, tracker):
    """Serial log-space coordinate ascent; returns improved values.

    ``tracker`` holds the global best ratio so the trace stays
    non-decreasing across restarts.
    """
    values = np.array(values, dtype=float)
    err = np.seterr(all="ignore")
    try:
        return _ascent_loop(ev, values, cfg, trace, counter, tracker)
    finally:
        np.seterr(**err)


def _ascent_loop(ev, values, cfg, trace, counter, tracker):
    """Score each coordinate's candidates together, then walk them in order:
    every candidate differs from the loaded values in that coordinate
    only, so its score does not depend on which earlier one was taken."""
    best = ev._ratio(values)
    for sweep in range(cfg.ascent_sweeps):
        improved = best
        for i in range(ev.m):
            c = float(values[i])
            cands = [x for x in ([c * 0.25, c * 0.5, c * 2.0, c * 4.0, 0.0]
                                 if c > 0 else [1e-6, 1e-3, 1.0])
                     if not x > 1e12]
            taken = None
            for b, r in enumerate(ev._scores(i, cands)):
                counter[0] += 1
                if r > best * (1.0 + 1e-12):
                    best, taken = r, b
                    if best > tracker[0]:
                        tracker[0] = best
                        trace.append((counter[0], best))
            if taken is not None:
                values[i] = cands[taken]
                ev._accept(taken, cands[taken])
        src = ev.src_norm
        if 0.0 < src < _INF:
            values /= src
            ev._ratio(values)
        if best <= improved * (1.0 + 1e-4):
            break
        # a restart stuck far below the incumbent will not catch up
        if sweep >= 1 and best < 0.5 * tracker[0]:
            break
        if sweep >= 3 and best < 0.98 * tracker[0]:
            break
    return values, best


def closed_form_constant(prob) -> ExtReal:
    """Dispatch to the matching closed-form functional."""
    if isinstance(prob, EmbeddingProblem):
        return embedding_constant(prob)
    if isinstance(prob, HardyProblem):
        return {
            "direct": hardy_A,
            "direct_complement": hardy_A_star,
            "sup": sup_operator_constant,
            "sup_complement": sup_operator_constant,
            "reverse": reverse_hardy_C,
            "reverse_complement": reverse_hardy_C_star,
        }[prob.variant](prob)
    raise TypeError(f"unsupported problem type {type(prob)!r}")


def best_constant_lower_bound(prob, cfg: OracleConfig = None) -> OracleResult:
    """Maximize the inequality ratio over the discretized function space.

    The returned lower_bound is attained by argmax up to the evaluator's
    quadrature, and the trace of best-so-far ratios is non-decreasing.
    """
    cfg = cfg or OracleConfig()
    ev = _RatioEvaluator(prob, cfg)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    counter = [0]

    family_bests = {}
    best_ratio, best_vals = 0.0, None
    members = _family_members(ev, cfg)
    while block := list(itertools.islice(members, _BLOCK)):
        ratios = ev.ratios([vals for _, vals in block])
        for (fam, vals), r in zip(block, ratios):
            counter[0] += 1
            if math.isinf(r):
                return OracleResult(ExtReal(_INF), ev.grid_function(vals),
                                    trace + [(counter[0], _INF)],
                                    {fam: _INF})
            if r > family_bests.get(fam, 0.0):
                family_bests[fam] = r
            if r > best_ratio:
                best_ratio, best_vals = r, vals
                trace.append((counter[0], best_ratio))

    if best_vals is None or best_ratio == 0.0:
        raise DegenerateRatio("every candidate has zero ratio "
                              "(source norm vanishes or target is zero)")

    tracker = [best_ratio]
    vals, r = _coordinate_ascent(ev, best_vals, cfg, trace, counter, tracker)
    if r > best_ratio:
        best_ratio, best_vals = r, vals

    for _ in range(cfg.restarts - 1):
        start = np.exp(rng.normal(0.0, 2.0, ev.m))
        vals, r = _coordinate_ascent(ev, start, cfg, trace, counter, tracker)
        if r > best_ratio:
            best_ratio, best_vals = r, vals

    return OracleResult(ExtReal(best_ratio), ev.grid_function(best_vals),
                        trace, family_bests)


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
    wide = OracleConfig(grid_cells=cfg.grid_cells,
                        knot_range=(1e-9, 1e9),
                        restarts=1, ascent_sweeps=0, seed=cfg.seed)
    ev = _RatioEvaluator(prob, wide)
    m = ev.m
    idx = np.arange(m)
    steps = 12
    cells_per_step = m // (steps + 2)
    candidates = []
    for k in range(steps):
        c = cells_per_step * (k + 1)
        fams = {
            "ball": (idx < c).astype(float),
            "complement": (idx >= m - c).astype(float),
            "annulus": ((idx >= c) & (idx < c + cells_per_step)).astype(float),
        }
        candidates.append(fams)
    best_series, best_ratios, all_ratios = None, None, {}
    for name in ("ball", "complement", "annulus"):
        ratios = all_ratios[name] = ev.ratios([c[name] for c in candidates])
        finite = [r for r in ratios if math.isfinite(r)]
        if not finite:
            continue
        ok = _has_doubling_run(ratios)
        if ok and (best_ratios is None or ratios[-1] > best_ratios[-1]):
            best_series = [ev.grid_function(c[name]) for c in candidates]
            best_ratios = ratios
    if best_series is None:
        raise WitnessNotFound(
            "no dyadic family achieved doubling ratio growth",
            ratios=all_ratios)
    return best_series, best_ratios


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

    def to_json(self):
        return json.dumps({
            "constant": float(self.constant),
            "lower_bound": float(self.lower_bound),
            "ratio_low": self.ratio_low,
            "family_ratios": {k: float(v) for k, v in self.family_ratios.items()},
        })


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
