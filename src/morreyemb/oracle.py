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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingProblem, embedding_constant
from .errors import DegenerateRatio, WitnessNotFound
from .extreal import ExtReal, conjugate_exponent
from .hardy import (HardyProblem, hardy_A, hardy_A_star, reverse_hardy_C,
                    reverse_hardy_C_star, sup_operator_constant)
from .integration import sphere_area
from .norms import GridFunction
from .weights import head_norm, lp_norm_interval, tail_norm

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
        if self.grid_cells < 16:
            raise ValueError("grid_cells must be >= 16")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


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


def _subcell_masses(profile, edges, n, sigma, gl=4):
    """Integral of profile(rho) * rho^(n-1) * sigma over each subcell."""
    x01, w01 = np.polynomial.legendre.leggauss(gl)
    x01 = 0.5 * (x01 + 1.0)
    w01 = 0.5 * w01
    lo, hi = edges[:-1], edges[1:]
    xs = lo[:, None] + (hi - lo)[:, None] * x01[None, :]
    ws = (hi - lo)[:, None] * w01[None, :]
    vals = np.array([[profile(float(x)) for x in row] for row in xs])
    vals = np.where(np.isfinite(vals), vals, 0.0)
    dens = vals * xs ** (n - 1) * sigma
    return np.sum(dens * ws, axis=1)


def _subcell_line_masses(fn, edges, gl=4):
    """Integral of fn(t) over each subcell of the outer variable."""
    x01, w01 = np.polynomial.legendre.leggauss(gl)
    x01 = 0.5 * (x01 + 1.0)
    w01 = 0.5 * w01
    lo, hi = edges[:-1], edges[1:]
    xs = lo[:, None] + (hi - lo)[:, None] * x01[None, :]
    ws = (hi - lo)[:, None] * w01[None, :]
    vals = np.array([[fn(float(x)) for x in row] for row in xs])
    vals = np.where(np.isfinite(vals), vals, 0.0)
    return np.sum(vals * ws, axis=1)


class _RatioEvaluator:
    """Vectorized ratio(values) for one problem on one discretization.

    ``values`` has one entry per coarse cell; all internal arrays live on
    the refined subcell grid.  ``morrey_on_top`` decides whether the
    cumulative (Morrey/Hardy style) norm is the numerator.
    """

    def __init__(self, prob, cfg: OracleConfig):
        m, K = cfg.grid_cells, cfg.subcells
        lo, hi = cfg.knot_range
        self.knots = np.geomspace(lo, hi, m + 1)
        self.edges = np.geomspace(lo, hi, m * K + 1)
        self.mids = np.sqrt(self.edges[:-1] * self.edges[1:])
        self.cell_of = np.repeat(np.arange(m), K)
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
        self._finalize()

    def _build_hardy(self, prob: HardyProblem):
        n = prob.n
        sigma = sphere_area(n)
        v, w = prob.v_outer, prob.w_inner.profile
        var = prob.variant
        if var in ("direct", "direct_complement"):
            # target ||Hf||_{q,v} with v as an outer measure density
            self.inner_p = 1.0
            self.inner_mass = _subcell_masses(
                lambda r: 1.0, self.edges, n, sigma)
            self.outer_q = prob.q
            self.outer_mass = _subcell_line_masses(v, self.edges)
            self.outer_mult = np.array([v(float(t)) for t in self.mids])
            self.outer_tail = float(tail_norm(v, 1.0, float(self.edges[-1])))
            self.outer_head = float(head_norm(v, 1.0, float(self.edges[0])))
            self.outer_tail_sup = v.esssup(float(self.edges[-1]), _INF)
            self.outer_head_sup = v.esssup(0.0, float(self.edges[0]))
            self.src_p = prob.p
            self.src_mass = _subcell_masses(w, self.edges, n, sigma)
            self.src_sup = np.array([
                w.esssup(float(a), float(b))
                for a, b in zip(self.edges[:-1], self.edges[1:])])
            self.complement = var == "direct_complement"
            self.morrey_on_top = True
            self.sup_inner = False
        elif var in ("sup", "sup_complement"):
            # target ||(Sf) v||_q (multiplicative v), source ||f w||_inf
            self.inner_p = _INF
            self.inner_sup_weight = np.ones(len(self.mids))
            q = prob.q
            self.outer_q = q
            dens = ((lambda t: v(t) ** q) if math.isfinite(q) else v)
            self.outer_mass = (_subcell_line_masses(dens, self.edges)
                               if math.isfinite(q) else None)
            self.outer_mult = np.array([v(float(t)) for t in self.mids])
            self.outer_tail = (float(lp_norm_interval(
                v, q, (float(self.edges[-1]), _INF))) ** q
                if math.isfinite(q) else 0.0)
            self.outer_head = (float(lp_norm_interval(
                v, q, (0.0, float(self.edges[0])))) ** q
                if math.isfinite(q) else 0.0)
            self.outer_tail_sup = v.esssup(float(self.edges[-1]), _INF)
            self.outer_head_sup = v.esssup(0.0, float(self.edges[0]))
            self.src_p = _INF
            self.src_sup = np.array([
                w.esssup(float(a), float(b))
                for a, b in zip(self.edges[:-1], self.edges[1:])])
            self.complement = var == "sup_complement"
            self.morrey_on_top = True
            self.sup_inner = True
        else:
            # reverse: ratio ||f w||_p / ||(Hf) u||_q, multiplicative weights
            u = v
            p, q = prob.p, prob.q
            self.inner_p = 1.0
            self.inner_mass = _subcell_masses(
                lambda r: 1.0, self.edges, n, sigma)
            self.outer_q = q
            dens = ((lambda t: u(t) ** q) if math.isfinite(q) else u)
            self.outer_mass = (_subcell_line_masses(dens, self.edges)
                               if math.isfinite(q) else None)
            self.outer_mult = np.array([u(float(t)) for t in self.mids])
            self.outer_tail = (float(lp_norm_interval(
                u, q, (float(self.edges[-1]), _INF))) ** q
                if math.isfinite(q) else 0.0)
            self.outer_head = (float(lp_norm_interval(
                u, q, (0.0, float(self.edges[0])))) ** q
                if math.isfinite(q) else 0.0)
            self.outer_tail_sup = u.esssup(float(self.edges[-1]), _INF)
            self.outer_head_sup = u.esssup(0.0, float(self.edges[0]))
            self.src_p = p
            self.src_mass = _subcell_masses(
                w.power(p) if math.isfinite(p) else w,
                self.edges, n, sigma)
            self.src_sup = np.array([
                w.esssup(float(a), float(b))
                for a, b in zip(self.edges[:-1], self.edges[1:])])
            self.complement = prob.variant == "reverse_complement"
            self.morrey_on_top = False
            self.sup_inner = False
        self.dual_w_profile = self._dual_power_profile(prob)

    def _build_embedding(self, prob: EmbeddingProblem):
        n = prob.n
        sigma = sphere_area(n)
        v1, v2, om, th = (prob.v1.profile, prob.v2.profile,
                          prob.omega, prob.theta)
        self.inner_p = prob.p2
        if math.isinf(prob.p2):
            self.sup_inner = True
            self.inner_sup_weight = np.array(
                [v2.esssup(float(a), float(b))
                 for a, b in zip(self.edges[:-1], self.edges[1:])])
        else:
            self.sup_inner = False
            self.inner_mass = _subcell_masses(v2, self.edges, n, sigma)
        self.outer_q = th
        dens = ((lambda t: om(t) ** th) if math.isfinite(th) else om)
        self.outer_mass = (_subcell_line_masses(dens, self.edges)
                           if math.isfinite(th) else None)
        self.outer_mult = np.array([om(float(t)) for t in self.mids])
        if math.isfinite(th):
            self.outer_tail = float(tail_norm(
                om, th, float(self.edges[-1]))) ** th
            self.outer_head = float(head_norm(
                om, th, float(self.edges[0]))) ** th
        else:
            self.outer_tail = self.outer_head = 0.0
        self.outer_tail_sup = om.esssup(float(self.edges[-1]), _INF)
        self.outer_head_sup = om.esssup(0.0, float(self.edges[0]))
        self.src_p = prob.p1
        if math.isinf(prob.p1):
            self.src_sup = np.array([
                v1.esssup(float(a), float(b))
                for a, b in zip(self.edges[:-1], self.edges[1:])])
        else:
            self.src_mass = _subcell_masses(v1, self.edges, n, sigma)
            self.src_sup = np.array([
                v1.esssup(float(a), float(b))
                for a, b in zip(self.edges[:-1], self.edges[1:])])
        self.complement = prob.dual_side
        self.morrey_on_top = prob.morrey_is_target
        self.dual_w_profile = self._dual_power_profile(prob)

    def _dual_power_profile(self, prob):
        """The classical near-extremal density w^{1-p'} when meaningful."""
        if isinstance(prob, HardyProblem) and prob.variant == "direct" \
                and 1.0 < prob.p < _INF:
            pp = float(conjugate_exponent(prob.p))
            w = prob.w_inner.profile
            return np.array([
                min(w(float(t)) ** (1.0 - pp) if w(float(t)) > 0 else 0.0,
                    1e10)
                for t in self.mids])
        if isinstance(prob, EmbeddingProblem) and not prob.morrey_is_target:
            return None
        return None

    def _finalize(self):
        """Pre-aggregate subcell masses to the coarse grid.

        Values are constant on each coarse cell, so only the coarse sums
        and the value-independent within-cell partial masses are needed
        per evaluation.
        """
        m, K = self.m, self.K
        if not math.isinf(self.src_p):
            self._src_coarse = self.src_mass.reshape(m, K).sum(axis=1)
        if hasattr(self, "src_sup"):
            self._src_sup_coarse = self.src_sup.reshape(m, K).max(axis=1)
        if not self.sup_inner:
            im = self.inner_mass.reshape(m, K)
            self._part_half = (np.cumsum(im, axis=1) - 0.5 * im).ravel()
            self._part_half_suffix = (
                np.cumsum(im[:, ::-1], axis=1)[:, ::-1] - 0.5 * im).ravel()
            self._inner_coarse = im.sum(axis=1)

    # -- norms ---------------------------------------------------------
    def source_norm(self, values):
        v = np.asarray(values, dtype=float)
        if math.isinf(self.src_p):
            return float(np.max(v * self._src_sup_coarse, initial=0.0))
        total = float(v ** self.src_p @ self._src_coarse)
        return total ** (1.0 / self.src_p) if total > 0 else 0.0

    def _cumulative_mid(self, values):
        """Inner norm^p2 (or running sup) at each subcell midpoint."""
        v = np.asarray(values, dtype=float)
        if self.sup_inner:
            marks = v[self.cell_of] * self.inner_sup_weight
            if self.complement:
                run = np.maximum.accumulate(marks[::-1])[::-1]
                shifted = np.concatenate([run[1:], [0.0]])
            else:
                run = np.maximum.accumulate(marks)
                shifted = np.concatenate([[0.0], run[:-1]])
            return (np.maximum(shifted, marks),
                    float(np.max(marks, initial=0.0)))
        vp = v ** self.inner_p
        cellm = vp * self._inner_coarse
        vp_sub = vp[self.cell_of]
        if self.complement:
            later = np.concatenate([np.cumsum(cellm[::-1])[::-1][1:], [0.0]])
            G = later[self.cell_of] + vp_sub * self._part_half_suffix
        else:
            earlier = np.concatenate([[0.0], np.cumsum(cellm)[:-1]])
            G = earlier[self.cell_of] + vp_sub * self._part_half
        return G, float(cellm.sum())

    def morrey_norm(self, values):
        G_mid, G_tot = self._cumulative_mid(values)
        if self.sup_inner:
            F_mid, F_tot = G_mid, G_tot
        else:
            e = 1.0 / self.inner_p
            F_mid, F_tot = G_mid ** e, G_tot ** e
        q = self.outer_q
        if math.isinf(q):
            best = float(np.max(self.outer_mult * F_mid, initial=0.0))
            if self.complement:
                best = max(best, self.outer_head_sup * F_tot)
            else:
                best = max(best, self.outer_tail_sup * F_tot)
            return best
        acc = float(self.outer_mass @ F_mid ** q)
        if self.complement:
            acc += self.outer_head * F_tot ** q
        else:
            acc += self.outer_tail * F_tot ** q
        return acc ** (1.0 / q) if acc > 0 else 0.0

    def ratio(self, values):
        with np.errstate(all="ignore"):
            return self._ratio(values)

    def _ratio(self, values):
        top = self.morrey_norm(values)
        bottom = self.source_norm(values)
        if not self.morrey_on_top:
            top, bottom = bottom, top
        if bottom == 0.0:
            return 0.0 if top == 0.0 else _INF
        if math.isinf(bottom) or math.isnan(top) or math.isnan(bottom):
            return 0.0
        return top / bottom

    def grid_function(self, values):
        return GridFunction(self.knots, np.asarray(values, dtype=float))


def _family_members(ev: _RatioEvaluator, cfg: OracleConfig):
    """Yield (family, values) candidates on the coarse grid."""
    m = ev.m
    knots = ev.knots
    idx = np.arange(m)
    probe_cells = np.unique(np.linspace(0, m, 25, dtype=int).clip(0, m))
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
        dual_cell = np.array([
            np.mean(ev.dual_w_profile[ev.cell_of == i]) for i in range(m)])
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
    best = ev._ratio(values)
    for sweep in range(cfg.ascent_sweeps):
        improved = best
        for i in range(ev.m):
            c = values[i]
            cands = ([c * 0.25, c * 0.5, c * 2.0, c * 4.0, 0.0]
                     if c > 0 else [1e-6, 1e-3, 1.0])
            for cand in cands:
                if cand > 1e12:
                    continue
                old = values[i]
                values[i] = cand
                r = ev._ratio(values)
                counter[0] += 1
                if r > best * (1.0 + 1e-12):
                    best = r
                    if best > tracker[0]:
                        tracker[0] = best
                        trace.append((counter[0], best))
                else:
                    values[i] = old
        src = ev.source_norm(values)
        if 0.0 < src < _INF:
            values /= src
        if best <= improved * (1.0 + 1e-4):
            break
        # a restart stuck far below the incumbent will not catch up
        if sweep >= 1 and best < 0.5 * tracker[0]:
            break
        if sweep >= 3 and best < 0.98 * tracker[0]:
            break
    return values, best


def closed_form_constant(prob, cfg=None) -> ExtReal:
    """Dispatch to the matching closed-form functional."""
    if isinstance(prob, EmbeddingProblem):
        return embedding_constant(prob, cfg)
    if isinstance(prob, HardyProblem):
        return {
            "direct": hardy_A,
            "direct_complement": hardy_A_star,
            "sup": sup_operator_constant,
            "sup_complement": sup_operator_constant,
            "reverse": reverse_hardy_C,
            "reverse_complement": reverse_hardy_C_star,
        }[prob.variant](prob, cfg)
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
    best_ratio, best_vals, best_family = 0.0, None, None
    for fam, vals in _family_members(ev, cfg):
        r = ev.ratio(vals)
        counter[0] += 1
        if math.isinf(r):
            return OracleResult(ExtReal(_INF), ev.grid_function(vals),
                                trace + [(counter[0], _INF)],
                                {fam: _INF})
        if r > family_bests.get(fam, 0.0):
            family_bests[fam] = r
        if r > best_ratio:
            best_ratio, best_vals, best_family = r, vals.copy(), fam
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
                        restarts=1, ascent_sweeps=0, seed=cfg.seed,
                        include_families=cfg.include_families)
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
    best_series, best_ratios = None, None
    for name in ("ball", "complement", "annulus"):
        ratios = [ev.ratio(c[name]) for c in candidates]
        finite = [r for r in ratios if math.isfinite(r)]
        if not finite:
            continue
        ok = _has_doubling_run(ratios)
        if ok and (best_ratios is None or ratios[-1] > best_ratios[-1]):
            best_series = [ev.grid_function(c[name]) for c in candidates]
            best_ratios = ratios
    if best_series is None:
        all_ratios = {name: [ev.ratio(c[name]) for c in candidates]
                      for name in ("ball", "complement", "annulus")}
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
    max_sample_ratio: float

    def to_json(self):
        return json.dumps({
            "constant": float(self.constant),
            "lower_bound": float(self.lower_bound),
            "ratio_low": self.ratio_low,
            "family_ratios": {k: float(v) for k, v in self.family_ratios.items()},
            "max_sample_ratio": self.max_sample_ratio,
        })


def equivalence_report(prob, cfg: OracleConfig = None,
                       constant=None) -> EquivalenceReport:
    """Empirical two-sided audit of a finite closed-form constant.

    ratio_low = lower_bound / constant measures how much of the functional
    the brute-force search recovers; max_sample_ratio tracks the largest
    sampled ratio relative to the constant (the empirical equivalence
    factor in the other direction).  `constant`, when given, is the
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
        max_sample_ratio=float(result.lower_bound) / c,
    )
