"""Brute-force lower bounds, divergence witnesses, and equivalence reports."""

import copy
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreyemb.errors import DegenerateRatio, WitnessNotFound
from morreyemb.extreal import _float_pow
from morreyemb.hardy import HardyProblem, hardy_constant
from morreyemb.embeddings import EmbeddingProblem
from morreyemb.integration import ball_volume, sphere_area
from morreyemb.oracle import (_BLOCK_CELLS, _GL01, _SEARCHES, OracleConfig,
                              _Incumbent, _RatioEvaluator, _coordinate_ascent,
                              _families, _grid, _power_method,
                              _semiseparable_product,
                              best_constant_lower_bound, closed_form_constant,
                              divergence_witness, equivalence_report)
from morreyemb.profiles import (ExpProfile, PowerProfile,
                                ShiftedPowerProfile, constant,
                                truncated_power)
from morreyemb.weights import Weight
from test_acceptance import AUDIT_CFG, FINITE_INSTANCES, INFINITE_INSTANCES

INF = math.inf

SMALL = OracleConfig(grid_cells=48, restarts=2, ascent_sweeps=8, seed=5)

BENCHMARK = HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, -2.0),
                         Weight(1, constant(1.0)))


class TestConfig:
    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            OracleConfig(grid_cells=4)

    def test_rejects_no_restarts(self):
        with pytest.raises(ValueError):
            OracleConfig(restarts=0)

    @pytest.mark.parametrize("knots", [(0.0, 1e4), (1e4, 1e-4), (1.0, 1.0),
                                       (-1.0, 1.0), (1e-4, INF),
                                       (math.nan, 1.0),
                                       # lo^2 or hi^2 outside the normal
                                       # float range: the subcell
                                       # midpoints sqrt(a b) would overflow
                                       # or lose their digits
                                       (1e-4, 1e160), (1e-160, 1e4)])
    def test_rejects_bad_knot_range(self, knots):
        with pytest.raises(ValueError, match="knot_range"):
            OracleConfig(knot_range=knots)

    def test_builds_every_evaluator_on_a_wide_knot_range(self):
        # 1e-4..1e100 is inside the normal float range squared: every
        # finite acceptance instance builds without a RuntimeWarning, and
        # the unit function scores a number
        cfg = OracleConfig(grid_cells=48, knot_range=(1e-4, 1e100))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for prob, _, _ in FINITE_INSTANCES.values():
                ev = _RatioEvaluator(prob, cfg)
                assert not math.isnan(ev.ratio(np.ones(ev.m)))

    def test_rejects_negative_sweeps(self):
        with pytest.raises(ValueError, match="ascent_sweeps"):
            OracleConfig(ascent_sweeps=-1)

    def test_accepts_smallest_settings(self):
        cfg = OracleConfig(grid_cells=16, ascent_sweeps=0, restarts=1,
                           knot_range=(1.0, 2.0))
        res = best_constant_lower_bound(BENCHMARK, cfg)
        assert float(res.lower_bound) > 0.0


class TestLowerBound:
    def test_benchmark_exceeds_functional(self):
        res = best_constant_lower_bound(BENCHMARK, SMALL)
        # the ball family alone achieves the A-functional value sqrt(2)
        assert float(res.lower_bound) >= math.sqrt(2.0) * (1.0 - 1e-3)
        # and the true best constant here is 2 * sqrt(2)
        assert float(res.lower_bound) <= 2.0 * math.sqrt(2.0) * (1.0 + 1e-3)

    def test_trace_is_nondecreasing(self):
        res = best_constant_lower_bound(BENCHMARK, SMALL)
        ratios = [r for _, r in res.trace]
        assert all(b >= a for a, b in zip(ratios, ratios[1:]))
        assert float(res.lower_bound) == ratios[-1]

    def test_argmax_reproduces_lower_bound(self):
        res = best_constant_lower_bound(BENCHMARK, SMALL)
        ev = _RatioEvaluator(BENCHMARK, SMALL)
        assert ev.ratio(res.argmax.values) == float(res.lower_bound)

    def test_deterministic_given_seed(self):
        a = best_constant_lower_bound(BENCHMARK, SMALL)
        b = best_constant_lower_bound(BENCHMARK, SMALL)
        assert float(a.lower_bound) == float(b.lower_bound)
        assert np.array_equal(a.argmax.values, b.argmax.values)
        assert a.trace == b.trace

    def test_degenerate_ratio(self):
        # source weight is identically infinite on the sampled grid
        prob = HardyProblem("direct", 2.0, 2.0, constant(0.0),
                            Weight(1, constant(1.0)))
        with pytest.raises(DegenerateRatio):
            best_constant_lower_bound(prob, SMALL)

    def test_embedding_problem_supported(self):
        prob = EmbeddingProblem(
            "lebesgue_to_lm", 1, 2.0, 2.0, 2.0,
            Weight(1, constant(1.0)), Weight(1, constant(1.0)),
            truncated_power(1.0, -1.0, 1.0, None))
        res = best_constant_lower_bound(prob, SMALL)
        # closed-form constant is 1; near-extremal f gets close
        assert 0.9 <= float(res.lower_bound) <= 1.5


    @pytest.mark.parametrize("build", [
        lambda: _RatioEvaluator(object(), SMALL),
        lambda: closed_form_constant(object())])
    def test_rejects_an_unsupported_problem_type(self, build):
        with pytest.raises(TypeError, match="unsupported problem type"):
            build()


class TestDivergenceWitness:
    def test_requires_infinite_constant(self):
        with pytest.raises(ValueError):
            divergence_witness(BENCHMARK, SMALL)

    def test_doubling_growth(self):
        prob = HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, -2.0),
                            Weight(1, ShiftedPowerProfile(1.0, 1.0, -1.0)))
        assert hardy_constant(prob).is_inf
        series, ratios = divergence_witness(prob, SMALL)
        assert len(series) == len(ratios)
        assert any(ratios[i + 4] >= 2.0 * ratios[i]
                   for i in range(len(ratios) - 4))


class TestEquivalenceReport:
    def test_benchmark_report(self):
        rep = equivalence_report(BENCHMARK, SMALL)
        assert rep.ratio_low >= 0.99
        assert "ball" in rep.family_ratios

    def test_rejects_infinite_constant(self):
        prob = HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, -2.0),
                            Weight(1, ShiftedPowerProfile(1.0, 1.0, -1.0)))
        with pytest.raises(ValueError):
            equivalence_report(prob, SMALL)


# ---------------------------------------------------------------------------
# one problem of every branch, scored row by row and searched

ONE = Weight(1, constant(1.0))
DECAY = ExpProfile(1.0, -1.0)
SHIFT = Weight(1, ShiftedPowerProfile(1.0, 1.0, 1.0))
OMEGA = truncated_power(1.0, -1.0, 1.0, None)
OMEGA2 = truncated_power(1.0, -2.0, 1.0, None)
V2 = Weight(2, PowerProfile(1.0, 0.5))

SCORED = {
    "direct": HardyProblem("direct", 2.0, 3.0, PowerProfile(1.0, -2.0),
                           Weight(1, PowerProfile(1.0, 0.5))),
    "direct_complement": HardyProblem("direct_complement", 1.5, 2.0,
                                      PowerProfile(1.0, -0.5), ONE),
    "direct_q_inf": HardyProblem("direct", 2.0, INF, DECAY, SHIFT),
    "sup": HardyProblem("sup", INF, 2.0, DECAY, SHIFT),
    "sup_complement_q_inf": HardyProblem("sup_complement", INF, INF,
                                         PowerProfile(1.0, 1.0), SHIFT),
    "reverse": HardyProblem("reverse", 0.5, 2.0, DECAY, SHIFT),
    "reverse_complement": HardyProblem("reverse_complement", 1.0, 0.5,
                                       PowerProfile(1.0, -3.0), ONE),
    "p2_inf": EmbeddingProblem("lebesgue_to_lm", 1, 2.0, INF, 2.0,
                               ONE, SHIFT, OMEGA),
    "theta_inf": EmbeddingProblem("lebesgue_to_dual_lm", 1, 3.0, 2.0, INF,
                                  ONE, SHIFT, PowerProfile(1.0, 0.5)),
    "p1_inf": EmbeddingProblem("lebesgue_to_lm", 2, INF, 2.0, 2.0,
                               V2, V2, OMEGA),
    "lm_to_lebesgue": EmbeddingProblem(
        "lm_to_lebesgue", 1, 1.0, 2.0, 0.5,
        Weight(1, PowerProfile(1.0, -1.0)), ONE, PowerProfile(1.0, -3.0)),
    "dual_lm_to_lebesgue": EmbeddingProblem(
        "dual_lm_to_lebesgue", 2, 2.0, 1.0, 2.0,
        V2, Weight(2, PowerProfile(1.0, 2.0)), constant(1.0)),
    "p2_below_one": EmbeddingProblem("lebesgue_to_lm", 1, 1.5, 0.5, 2.0,
                                     ONE, ONE, OMEGA2),
}
SCORE_CFG = OracleConfig(grid_cells=16, knot_range=(1e-3, 1e3))
_EVALUATORS = {}


def _evaluator(name):
    if name not in _EVALUATORS:
        _EVALUATORS[name] = _RatioEvaluator(SCORED[name], SCORE_CFG)
    return _EVALUATORS[name]


# every acceptance instance, by name, scored on AUDIT_CFG
ACCEPTANCE = {**{name: prob for name, (prob, _, _) in
                 FINITE_INSTANCES.items()},
              **{"inf." + name: prob
                 for name, prob in INFINITE_INSTANCES.items()}}
_AUDIT_EVALUATORS = {}


def _audit_evaluator(name):
    if name not in _AUDIT_EVALUATORS:
        _AUDIT_EVALUATORS[name] = _RatioEvaluator(ACCEPTANCE[name], AUDIT_CFG)
    return _AUDIT_EVALUATORS[name]


cell_values = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
candidates = st.lists(st.one_of(st.sampled_from([0.0, 1e12]),
                                st.floats(1e-6, 1e6)),
                      min_size=1, max_size=5)


def test_scored_problems_cover_every_branch():
    evs = [_evaluator(name) for name in SCORED]
    assert {ev._reverse for ev in evs} == {False, True}
    assert {ev.sup_inner for ev in evs} == {False, True}
    assert {ev._q_inf for ev in evs} == {False, True}
    assert {ev._src_inf for ev in evs} == {False, True}
    assert {ev.morrey_on_top for ev in evs} == {False, True}


@pytest.mark.parametrize("name", sorted(SCORED))
@settings(max_examples=40, deadline=None)
@given(values=st.lists(cell_values, min_size=16, max_size=16),
       i=st.integers(0, 15), cands=candidates)
@example(values=[1.0] * 16, i=0, cands=[0.0, 1e12])
@example(values=[0.0] * 15 + [1.0], i=15, cands=[0.0, 0.25, 4.0])
@example(values=[1.0] + [0.0] * 15, i=0, cands=[1e12, 0.0, 1e-6])
def test_batched_scores_equal_full_ratios(name, values, i, cands):
    # a coordinate's candidate rows, built as the ascent builds them and
    # scored in one pass, score each as its moved row does alone
    ev = _evaluator(name)
    rows = np.repeat(np.array(values, dtype=float)[None], len(cands), axis=0)
    rows[:, i] = cands
    got = ev.ratios(rows)
    want = []
    for cand in cands:
        moved = list(values)
        moved[i] = cand
        want.append(ev.ratio(moved))
    assert np.array_equal(got, want, equal_nan=True), (cands, got, want)


@pytest.mark.parametrize("name", sorted(SCORED))
@settings(max_examples=40, deadline=None)
@given(values=st.lists(cell_values, min_size=16, max_size=16))
@example(values=[1.0] * 16)
@example(values=[0.0] * 15 + [1.0])
@example(values=[1.0] + [0.0] * 15)
def test_accept_loads_as_a_full_ratio(name, values):
    # every candidate the ascent accepts is offered at the score of its
    # whole row: the incumbent's ratio is the ratio of its values, its
    # trace rises strictly, and the search never ends below its start
    ev = _evaluator(name)
    inc = _Incumbent()
    _coordinate_ascent(ev, values, SCORE_CFG, inc)
    counts = [c for c, _ in inc.trace]
    rises = [r for _, r in inc.trace]
    assert counts == sorted(counts)
    assert all(a < b for a, b in zip(rises, rises[1:]))
    if inc.values is None:
        assert inc.ratio == 0.0 and not rises
    else:
        assert ev.ratio(inc.values) == inc.ratio == rises[-1]
    start = ev.ratio(values)
    assert not inc.ratio < start


def _reference_ratio(ev, values):
    """The ratio recomputed from scratch on the subcell grid in natural
    order: the inner accumulation at every subcell midpoint is a cumulative
    sum (or running max) over all subcells."""
    v = np.repeat(np.asarray(values, dtype=float), ev.K)
    order = slice(None, None, -1) if ev._reverse else slice(None)
    if ev.sup_inner:
        marks = v * ev.inner_sup_weight
        F = np.maximum.accumulate(marks[order])[order]
        F_tot = float(np.max(marks, initial=0.0))
    else:
        mass = (v ** ev.inner_p * ev.inner_mass)[order]
        G = (np.cumsum(mass) - 0.5 * mass)[order]
        F, F_tot = G ** (1.0 / ev.inner_p), mass.sum() ** (1.0 / ev.inner_p)
    q = ev.outer_q
    if math.isinf(q):
        morrey = max(float(np.max(ev.outer * F, initial=0.0)),
                     ev.outer_beyond * F_tot)
    else:
        acc = float(ev.outer @ F ** q) + ev.outer_beyond * F_tot ** q
        morrey = acc ** (1.0 / q) if acc > 0 else 0.0
    cells = np.asarray(values, dtype=float)
    if math.isinf(ev.src_p):
        src = float(np.max(cells * ev.src_cell, initial=0.0))
    else:
        total = float(cells ** ev.src_p @ ev.src_cell)
        src = total ** (1.0 / ev.src_p) if total > 0 else 0.0
    top, bottom = (morrey, src) if ev.morrey_on_top else (src, morrey)
    if bottom == 0.0:
        return 0.0 if top == 0.0 else INF
    if math.isinf(bottom) or math.isnan(top) or math.isnan(bottom):
        return 0.0
    return top / bottom


@pytest.mark.parametrize("name", sorted(SCORED))
@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.one_of(cell_values, st.just(1e12)),
                       min_size=16, max_size=16))
@example(values=[0.0] * 16)
@example(values=[1.0] * 8 + [0.0] * 8)
def test_ratio_equals_reference(name, values):
    ev = _evaluator(name)
    got = ev.ratio(values)
    with np.errstate(all="ignore"):
        want = _reference_ratio(ev, values)
    if want == 0.0 or math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# the lower bounds the search reaches, to which it must stay: the finite
# acceptance instances under AUDIT_CFG and the averaged operator of test_06
# with 4 restarts, each from the search of its row of AUDIT_SEARCHES.  Those
# of the corner, Hoelder-dual and vertex rows are the discrete maxima
AUDIT_LOWER_BOUNDS = {
    "hardy.a": 2.7186753054014745,
    "hardy.b": 0.996945423639534,
    "hardy.c": 0.5992479580384911,
    "hardy.d": 0.38048726721793125,
    "hardy.e": 0.7282916888699292,
    "hardy.f": 0.9998110106706427,
    "hardy.g": 0.9997690249411192,
    "hardy.h": 0.9997263120659333,
    "emb.i": 0.9941174483950994,
    "emb.ii": 1.077648332895543,
    "emb.iii": 1.0958539236481668,
    "emb.iv": 0.982038694165457,
    "emb.v": 1.1773472866400596,
    "emb.vi": 0.9999999999999973,
    "emb.vii": 0.9999999999999947,
    "emb.viii": 0.9763000989628079,
    "emb.ix": 0.9999999999999972,
    "emb.dual_target": 0.5697130060064978,
    "emb.source.a": 0.23434130137958536,
    "emb.source.b": 2.1122258440226096,
    "emb.dual_source.a": 0.8934503640595814,
    "emb.dual_source.b": 0.8060888860433174,
}
AVERAGED_LOWER_BOUNDS = {1: 1.9806446315747561, 2: 1.9928452432496035}


def _assert_bound_is_the_incumbent(prob, cfg, res):
    """lower_bound is the trace's last entry and the ratio of argmax, all
    three the same float."""
    again = _RatioEvaluator(prob, cfg).ratio(res.argmax.values)
    assert float(res.lower_bound) == res.trace[-1][1] == again


# the search table's row of every acceptance instance and scored problem
AUDIT_SEARCHES = {
    "hardy.a": "eigen", "hardy.b": "power", "hardy.c": "holder_dual",
    "hardy.d": "corner", "hardy.e": "corner", "hardy.f": "vertex",
    "hardy.g": "simplex", "hardy.h": "vertex", "emb.i": "power",
    "emb.ii": "power", "emb.iii": "holder_dual", "emb.iv": "corner",
    "emb.v": "corner", "emb.vi": "vertex", "emb.vii": "simplex",
    "emb.viii": "vertex", "emb.ix": "corner", "emb.dual_target": "power",
    "emb.source.a": "vertex", "emb.source.b": "simplex",
    "emb.dual_source.a": "vertex", "emb.dual_source.b": "simplex",
}
SCORED_SEARCHES = {
    "direct": "power", "direct_complement": "power",
    "direct_q_inf": "holder_dual", "sup": "corner",
    "sup_complement_q_inf": "corner", "reverse": "ascent",
    # q = 1/2 <= p2 = 1 <= p = 1: a concave Hardy norm under the source
    "reverse_complement": "vertex", "p2_inf": "ascent",
    "theta_inf": "holder_dual", "p1_inf": "corner",
    "lm_to_lebesgue": "ascent", "dual_lm_to_lebesgue": "ascent",
    # p2 = 1/2 <= theta = 2 and p2 < p1 = 3/2: convex over convex on u = v^p2
    "p2_below_one": "power",
}
# the instances whose bound the family scan already holds, to the bit
FAMILY_HELD = {"emb.iv", "emb.v", "emb.vi", "emb.vii", "emb.viii", "emb.ix"}


def test_search_table():
    assert {name: _RatioEvaluator(prob, AUDIT_CFG).search
            for name, (prob, _, _) in FINITE_INSTANCES.items()} \
        == AUDIT_SEARCHES
    assert {name: _evaluator(name).search for name in SCORED} \
        == SCORED_SEARCHES


@pytest.mark.parametrize("name", sorted(AUDIT_LOWER_BOUNDS))
def test_audit_lower_bound_pinned(name):
    prob = FINITE_INSTANCES[name][0]
    res = best_constant_lower_bound(prob, AUDIT_CFG)
    assert float(res.lower_bound) == pytest.approx(
        AUDIT_LOWER_BOUNDS[name], rel=1e-12, abs=0.0)
    _assert_bound_is_the_incumbent(prob, AUDIT_CFG, res)
    assert res.search == ("families" if name in FAMILY_HELD
                          else AUDIT_SEARCHES[name])


AVERAGED_CFG = OracleConfig(grid_cells=256, knot_range=(1e-9, 1e9),
                            restarts=4, ascent_sweeps=40, seed=0)


def _averaged(n):
    """The averaged operator's Hardy problem of test_06."""
    p = 2.0
    sigma, cn = sphere_area(n), ball_volume(n, 1.0)
    return HardyProblem("direct", p, p,
                        PowerProfile(sigma * cn ** (-p), n - 1 - n * p),
                        Weight(n, constant(1.0)), n=n)


@pytest.mark.parametrize("n", [1, 2])
def test_averaged_operator_lower_bound_pinned(n):
    prob = _averaged(n)
    res = best_constant_lower_bound(prob, AVERAGED_CFG)
    assert float(res.lower_bound) == pytest.approx(
        AVERAGED_LOWER_BOUNDS[n], rel=1e-12, abs=0.0)
    _assert_bound_is_the_incumbent(prob, AVERAGED_CFG, res)
    assert res.search == "eigen"


# Phi's grid part sum o G^r as u.c (r = 1) or u'Hu (r = 2): the problems
# that take it, each with its evaluator, and two whose outer norm beyond
# the grid is infinite (v = t^(-1/2) as the direct Hardy target's density)
STRUCTURED = {
    **{name: (SCORED[name], SCORE_CFG) for name in (
        "direct_complement", "reverse", "p1_inf", "dual_lm_to_lebesgue")},
    **{name: (ACCEPTANCE[name], AUDIT_CFG) for name in (
        "hardy.a", "hardy.b", "hardy.e", "hardy.f", "emb.ii", "emb.v",
        "emb.vi", "emb.source.b", "emb.dual_source.b", "inf.hardy")},
    "averaged_n1": (_averaged(1), AVERAGED_CFG),
    "averaged_n2": (_averaged(2), AVERAGED_CFG),
    **{f"beyond_inf_q{q:g}": (HardyProblem(
        "direct", 2.0, q, PowerProfile(1.0, -0.5), ONE), SCORE_CFG)
       for q in (1.0, 2.0)},
}
_STRUCTURED_EVALUATORS = {}


def _structured(name):
    """The evaluator of a STRUCTURED problem and a copy of it that scores
    every row on the subcell grid."""
    if name not in _STRUCTURED_EVALUATORS:
        ev = _RatioEvaluator(*STRUCTURED[name])
        sub = copy.copy(ev)
        sub._gens, sub.block = None, _BLOCK_CELLS // (ev.m * ev.K)
        _STRUCTURED_EVALUATORS[name] = ev, sub
    return _STRUCTURED_EVALUATORS[name]


def test_structured_problems_are_those_with_r_one_or_two():
    # of the scored and acceptance problems exactly these take the O(m)
    # path, at both r, and the last two have an infinite beyond term
    evs = {name: _structured(name)[0] for name in STRUCTURED}
    assert all(ev._gens is not None for ev in evs.values())
    assert {ev._gpow for ev in evs.values()} == {1.0, 2.0}
    assert {ev._reverse for ev in evs.values()} == {False, True}
    assert {name for name, ev in evs.items()
            if math.isinf(ev.outer_beyond)} == {"beyond_inf_q1",
                                                 "beyond_inf_q2"}
    others = [_evaluator(name) for name in SCORED] \
        + [_audit_evaluator(name) for name in ACCEPTANCE]
    assert sum(ev._gens is not None for ev in others) == len(STRUCTURED) - 4


@pytest.mark.parametrize("name", sorted(STRUCTURED))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_structured_phi_is_the_subcell_sum(name, seed):
    # rows with zeros and 1e12 entries, lognormal between, and the unit and
    # one-cell rows: each ratio is the subcell path's to 1e-14, and reads 0
    # or inf exactly where that does
    ev, sub = _structured(name)
    rng = np.random.default_rng(seed)
    V = np.exp(rng.normal(0.0, 3.0, (24, ev.m)))
    V[rng.random(V.shape) < 0.3] = 0.0
    V[rng.random(V.shape) < 0.05] = 1e12
    V = np.vstack([V, np.zeros(ev.m), np.ones(ev.m), np.eye(ev.m)[[0, -1]]])
    got, want = ev.ratios(V), sub.ratios(V)
    exact = (want == 0.0) | np.isinf(want)
    assert np.array_equal(got[exact], want[exact])
    np.testing.assert_allclose(got[~exact], want[~exact], rtol=1e-14,
                               atol=0.0)
    if math.isinf(ev.outer_beyond):
        assert not np.any(np.isnan(got)) and exact.all()
        assert got[-4] == 0.0 and np.isinf(got[-3])


def _scan_one_at_a_time(inc, ev, rows):
    """Incumbent.scan one row at a time, each scored alone: the scan that
    the block scan replaced, kept as its reference."""
    scored = []
    for vals in rows:
        r = ev.ratio(vals)
        inc.count += 1
        inc.offer(r, vals)
        scored.append(r)
        if math.isinf(r):
            break
    return scored


@pytest.mark.parametrize("name", ["direct", "reverse", "sup", "p1_inf"])
@pytest.mark.parametrize("block", [1, 5, 64, None])
def test_block_scan_is_the_scan_one_row_at_a_time(name, block):
    # the families, then the unit row again (no rise), then the one-cell
    # rows, scored in blocks of every size from an incumbent already set
    ev = copy.copy(_evaluator(name))
    ev.block = block or ev.block
    rows = [_families(ev)[1], np.ones((1, ev.m)), np.eye(ev.m)]
    a, b = _Incumbent(), _Incumbent()
    for stage, part in zip(("families", "again", "cells"), rows):
        a.stage = b.stage = stage
        got, want = a.scan(ev, part), _scan_one_at_a_time(b, ev, part)
        assert got == want and all(type(r) is float for r in got)
        assert (a.count, a.ratio, a.search, a.trace) \
            == (b.count, b.ratio, b.search, b.trace)
        assert all(type(r) is float for _, r in a.trace)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("m", [16, 48, 256])
def test_scan_blocks_keep_to_the_cell_budget(m):
    # a block's largest array, (B, m, K) or (B, m), holds at most 16 * 256
    # * 8 entries, the 16 rows at m = 256 of the fixed block it replaced
    cfg = replace(SCORE_CFG, grid_cells=m)
    for name in SCORED:
        ev = _RatioEvaluator(SCORED[name], cfg)
        cells = m if ev._gens is not None else m * ev.K
        assert ev.block * cells <= _BLOCK_CELLS < (ev.block + 1) * cells
    assert _BLOCK_CELLS == 16 * 256 * 8


# reverse_complement's Hardy norm is infinite below SCORE_CFG's grid (v^q =
# t^(-3/2) near 0), so every candidate scores 0 and its search raises
# DegenerateRatio
@pytest.mark.parametrize("name", sorted(set(SCORED) - {"reverse_complement"}))
def test_scored_bound_is_the_incumbent(name):
    res = best_constant_lower_bound(SCORED[name], SCORE_CFG)
    _assert_bound_is_the_incumbent(SCORED[name], SCORE_CFG, res)


@pytest.mark.parametrize("name", sorted(SCORED))
@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(cell_values, st.just(1e12)),
                              min_size=16, max_size=16),
                     min_size=1, max_size=5),
       extra=st.integers(1, 40))
@example(rows=[[0.0] * 16, [1.0] * 16, [1.0] * 8 + [0.0] * 8], extra=1)
def test_row_ratios_equal_ratio(name, rows, extra):
    # a row scores the same, to the bit, alone or beside others, in more
    # rows than one scan block too: the drawn rows, repeated
    ev = _evaluator(name)
    V = np.resize(np.array(rows), (ev.block + extra, 16))
    want = [ev.ratio(row) for row in rows]
    got = ev.ratios(V)
    assert np.array_equal(got, np.resize(want, len(V)), equal_nan=True)
    assert isinstance(ev.ratio(rows[0]), float)


def _scalar_finish(ev, acc, total, src):
    """The ratio of one row from its three accumulations, one Python float
    at a time: the scalar finish that the array one replaced, kept as its
    reference."""
    beyond = ev.outer_beyond * _float_pow(total, ev._gpow)
    if ev._q_inf:
        morrey = max(acc, beyond)
    else:
        acc += beyond
        morrey = acc ** (1.0 / ev.outer_q) if acc > 0 else 0.0
    if not ev._src_inf:
        src = src ** (1.0 / ev.src_p) if src > 0 else 0.0
    top, bottom = (morrey, src) if ev.morrey_on_top else (src, morrey)
    if bottom == 0.0:
        return 0.0 if top == 0.0 else INF
    if bottom == INF or top != top or bottom != bottom:
        return 0.0
    return top / bottom


accumulations = st.lists(st.one_of(st.sampled_from([0.0, INF, math.nan]),
                                   st.floats(0.0, 1e30)),
                         min_size=3, max_size=3)


@pytest.mark.parametrize("name", sorted(SCORED) + sorted(ACCEPTANCE))
@settings(max_examples=40, deadline=None)
@given(accs=st.lists(accumulations, min_size=1, max_size=8))
@example(accs=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0],
               [INF, 1.0, 1.0], [1.0, INF, 1.0], [1.0, 1.0, INF],
               [INF, INF, INF], [math.nan, 1.0, 1.0], [1.0, math.nan, 1.0],
               [1.0, 1.0, math.nan], [0.0, math.nan, 0.0],
               # beyond above acc, and a beyond of nan beside a number
               [1e-30, 1e10, 1.0], [2.0, 1e-30, 3.0], [5.0, math.nan, 0.5]])
def test_array_finish_is_the_scalar_finish_to_the_bit(name, accs):
    ev = _evaluator(name) if name in SCORED else _audit_evaluator(name)
    acc, total, src = np.array(accs).T
    with np.errstate(all="ignore"):  # as ratios calls it
        got = ev._finish(acc, total, src)
    want = [_scalar_finish(ev, *row) for row in accs]
    assert got.tobytes() == np.array(want).tobytes(), (got, want)


def _families_one_at_a_time(prob, cfg):
    """The family stage of best_constant_lower_bound, each member scored
    by its own full evaluation, up to the first infinite member."""
    ev = _RatioEvaluator(prob, cfg)
    trace, best = [], 0.0
    for count, (fam, vals) in enumerate(zip(*_families(ev)), 1):
        r = ev.ratio(vals)
        if math.isinf(r):
            return vals, trace + [(count, INF)], {fam: INF}
        if r > best:
            best = r
            trace.append((count, r))
    raise AssertionError("no infinite member")


def _family_members(ev):
    """Yield (family, values) candidates on the coarse grid, one numpy row
    at a time: the construction that the oracle's family table replaced,
    kept as its reference."""
    m = ev.m
    idx = np.arange(m)
    probe_cells = np.linspace(0, m, 25, dtype=int)
    probe_cells = probe_cells[np.diff(probe_cells, prepend=0) > 0]
    yield "constant", np.ones(m)
    for c in probe_cells:
        yield "ball", (idx < c).astype(float)
        yield "complement", (idx >= c - 1).astype(float)
    for c in probe_cells:
        for span in (m // 16, m // 4):
            if c + span <= m:
                yield "annulus", ((idx >= c) & (idx < c + span)).astype(float)
    if ev.dual_w_profile is not None:
        dual_cell = ev.dual_w_profile.reshape(m, ev.K).mean(axis=1)
        for c in probe_cells:
            vals = np.where(idx < c, dual_cell, 0.0)
            if np.any(vals > 0):
                yield "dual_power", vals
    mids = np.sqrt(ev.grid.knots[:-1] * ev.grid.knots[1:])
    for gamma in (-2.0, -1.0, -0.5, -1.0 / 3.0, 0.5, 1.0):
        with np.errstate(over="ignore"):
            vals = mids ** gamma
        vals = np.where(np.isfinite(vals), vals, 0.0)
        top = float(np.max(vals, initial=0.0))
        if top > 0:
            yield "power_window", vals / top
    for c in probe_cells:
        for lam in (0.1, 1.0, 10.0):
            if c < m:
                vals = np.where(idx < c, 1.0, 0.0) \
                    + lam * ((idx >= c) & (idx < min(c + m // 8, m)))
                yield "two_block", vals


# direct Hardy with p = 1 has no dual_power rows; BENCHMARK (p = 2) has
NO_DUAL = HardyProblem("direct", 1.0, 2.0, PowerProfile(1.0, -2.0), ONE)


@pytest.mark.parametrize("m", [16, 17, 48, 100, 256])
@pytest.mark.parametrize("knots", [(1e-4, 1e4), (1e-9, 1e9)])
@pytest.mark.parametrize("dual", [True, False])
def test_family_table_is_the_row_by_row_build_to_the_bit(m, knots, dual):
    ev = _RatioEvaluator(BENCHMARK if dual else NO_DUAL,
                         OracleConfig(grid_cells=m, knot_range=knots))
    assert (ev.dual_w_profile is not None) == dual
    names, rows = _families(ev)
    want = list(_family_members(ev))
    assert list(names) == [fam for fam, _ in want]
    assert ("dual_power" in names) == dual
    assert rows.shape == (len(want), m) and rows.dtype == np.float64
    assert rows.tobytes() == np.array([vals for _, vals in want]).tobytes()


@pytest.mark.parametrize("m", [16, 17, 48])
def test_grid_is_the_geomspace_and_its_gauss_nodes(m):
    g = _grid(m, 1e-3, 1e3)
    edges = np.geomspace(1e-3, 1e3, 8 * m + 1)
    lo, hi = edges[:-1], edges[1:]
    assert g.knots.tobytes() == np.geomspace(1e-3, 1e3, m + 1).tobytes()
    assert g.edges.tobytes() == edges.tobytes()
    assert g.mids.tobytes() == np.sqrt(lo * hi).tobytes()
    assert g.nodes.tobytes() == (
        lo[:, None] + (hi - lo)[:, None] * _GL01[0]).tobytes()
    assert g.weights.tobytes() == ((hi - lo)[:, None] * _GL01[1]).tobytes()


def test_grid_is_built_once_and_read_only():
    ev = _RatioEvaluator(BENCHMARK, SMALL)
    g = _grid(SMALL.grid_cells, *SMALL.knot_range)
    assert ev.grid is g and _RatioEvaluator(NO_DUAL, SMALL).grid is g
    assert _families(_RatioEvaluator(NO_DUAL, SMALL))[1] is g.rows
    for a in (g.knots, g.edges, g.mids, g.nodes, g.weights, g.probe,
              g.rows):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0


def test_another_knot_range_gets_its_own_grid():
    near = _RatioEvaluator(BENCHMARK, SMALL).grid
    wide = _RatioEvaluator(BENCHMARK,
                           replace(SMALL, knot_range=(1e-9, 1e9))).grid
    assert wide is not near
    assert near.knots.tobytes() == np.geomspace(
        *SMALL.knot_range, SMALL.grid_cells + 1).tobytes()
    assert wide.knots.tobytes() == np.geomspace(
        1e-9, 1e9, SMALL.grid_cells + 1).tobytes()


def test_writing_to_an_argmax_cannot_change_the_next_result():
    # the argmax's knots are the grid's: a write raises, or lands on a copy
    first = best_constant_lower_bound(BENCHMARK, SMALL)
    bound, values = float(first.lower_bound), first.argmax.values.copy()
    try:
        first.argmax.knots[:] = 2.0 * first.argmax.knots
    except ValueError:
        pass
    second = best_constant_lower_bound(BENCHMARK, SMALL)
    assert float(second.lower_bound) == bound
    assert second.argmax.values.tobytes() == values.tobytes()
    assert second.argmax.knots.tobytes() == np.geomspace(
        *SMALL.knot_range, SMALL.grid_cells + 1).tobytes()


def test_block_with_infinite_member_matches_one_at_a_time():
    # v vanishes beyond 1, so a complement reaching no further in has no
    # target and an infinite reverse ratio; the first such member is the
    # 27th, inside a block whose later rows are then not offered
    prob = HardyProblem("reverse", 0.5, 2.0,
                        truncated_power(1.0, -1.0, None, 1.0), ONE)
    vals, trace, bests = _families_one_at_a_time(prob, SMALL)
    res = best_constant_lower_bound(prob, SMALL)
    assert res.lower_bound.is_inf
    assert np.array_equal(res.argmax.values, vals)
    assert res.family_bests == bests
    assert [k for k, _ in res.trace] == [k for k, _ in trace]
    assert trace[-1] == (27, INF) and res.trace[-1] == (27, INF)
    assert [r for _, r in res.trace[:-1]] == pytest.approx(
        [r for _, r in trace[:-1]], rel=1e-12, abs=0.0)


def test_witness_not_found_reports_every_ratio():
    # a finite problem passed as infinite: no family doubles, and the
    # reported ratios are those of the candidates
    with pytest.raises(WitnessNotFound) as info:
        divergence_witness(BENCHMARK, SMALL, constant=INF)
    wide = OracleConfig(grid_cells=SMALL.grid_cells, knot_range=(1e-9, 1e9),
                        restarts=1, ascent_sweeps=0, seed=SMALL.seed)
    ev = _RatioEvaluator(BENCHMARK, wide)
    m = ev.m
    idx = np.arange(m)
    step = m // 14
    for name, member in (
            ("ball", lambda c: idx < c),
            ("complement", lambda c: idx >= m - c),
            ("annulus", lambda c: (idx >= c) & (idx < c + step))):
        want = [ev.ratio(member(step * (k + 1)).astype(float))
                for k in range(12)]
        assert info.value.ratios[name] == pytest.approx(want, rel=1e-12,
                                                        abs=0.0)


# ---------------------------------------------------------------------------
# the power method, where the target is a convex norm of u = v^p2

POWERED = [name for name in sorted(SCORED)
           if SCORED_SEARCHES[name] == "power"]


@pytest.mark.parametrize("name", POWERED)
@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(1e-3, 1e3), min_size=16, max_size=16))
@example(values=[1.0] * 16)
def test_power_step_never_lowers_the_ratio(name, values):
    ev = _evaluator(name)
    before = ev.ratio(values)
    with np.errstate(all="ignore"):
        u = ev._cells(values) ** ev.inner_p
        step = ev._cells(ev._power_move(u, ev._power_terms(u)[1])) \
            ** (1.0 / ev.inner_p)
    assert np.all(step >= 0.0) and np.max(step) == 1.0
    # up to the rounding of the two ratios
    assert ev.ratio(step) >= before * (1.0 - 1e-14)


def test_power_step_without_a_gradient_stays_put():
    # no cell carries mass into the target: there is no step to take
    ev = _evaluator("direct")
    u = np.ones(ev.m)
    with np.errstate(all="ignore"):
        assert ev._power_move(u, np.zeros(ev.m)) is u


@pytest.mark.parametrize("n", [1, 2])
def test_averaged_operator_bound_is_the_top_eigenvalue(n):
    # at p = q = 2 (p2 = 1) the discrete ratio squared is u'Mu / u'Su with
    # M = L' diag(o) L + beyond c c', L the map from cell values to the
    # inner accumulation at the subcell midpoints and c the cell masses,
    # so its maximum is the top eigenvalue of S^(-1/2) M S^(-1/2)
    prob = _averaged(n)
    ev = _RatioEvaluator(prob, AVERAGED_CFG)
    m, K = ev.m, ev.K
    cells = ev._inner_cell
    L = np.where(np.arange(m)[None, :] < np.arange(m)[:, None],
                 cells[None, :], 0.0)
    L = np.repeat(L, K, axis=0)
    L[np.arange(m * K), np.repeat(np.arange(m), K)] = ev._part_half.ravel()
    M = L.T @ (ev._outer.reshape(-1, 1) * L) \
        + ev.outer_beyond * np.outer(cells, cells)
    scale = 1.0 / np.sqrt(ev._src_cell)
    top = math.sqrt(np.linalg.eigvalsh(scale[:, None] * M
                                       * scale[None, :])[-1])
    got = float(best_constant_lower_bound(prob, AVERAGED_CFG).lower_bound)
    assert got == pytest.approx(top, rel=1e-13, abs=0.0)
    assert got == pytest.approx(AVERAGED_LOWER_BOUNDS[n], rel=1e-12, abs=0.0)


def _power_search(prob, cfg):
    """The evaluator of prob and the incumbent after the families and the
    power row's search, as best_constant_lower_bound leaves it where the
    ratio takes that row; on r = P = 2 problems, which take the eigen
    row, this is how the power method is reached."""
    ev = _RatioEvaluator(prob, cfg)
    inc = _Incumbent()
    inc.scan(ev, _families(ev)[1])
    inc.stage = "power"
    _SEARCHES["power"](ev, cfg, inc)
    return ev, inc


# for r = theta/p2 <= P = p1/p2 (q <= p for Hardy) the power method reaches
# the global maximum from any start, so it runs from the family best alone;
# hardy.a and averaged_n1 (r = P = 2) take the eigen row, and the power
# method is called directly on them
GLOBAL_POWER = {**{name: (FINITE_INSTANCES[name][0], AUDIT_CFG)
                   for name in ("hardy.a", "hardy.b", "emb.i", "emb.ii",
                                "emb.dual_target")},
                "averaged_n1": (_averaged(1), AVERAGED_CFG)}
_GLOBAL_BOUNDS = {}


def _global_bound(name):
    """The evaluator of a GLOBAL_POWER problem and the incumbent of its
    power row's search."""
    if name not in _GLOBAL_BOUNDS:
        _GLOBAL_BOUNDS[name] = _power_search(*GLOBAL_POWER[name])
    return _GLOBAL_BOUNDS[name]


@pytest.mark.parametrize("name", sorted(GLOBAL_POWER))
def test_restarts_are_inert_where_the_power_method_is_global(name):
    prob, cfg = GLOBAL_POWER[name]
    ev, _ = _global_bound(name)
    assert ev.search in ("power", "eigen") and ev._gpow <= ev._P
    one, many = (_power_search(prob, replace(cfg, restarts=k))[1]
                 for k in (1, 16))
    assert one.ratio == many.ratio
    assert np.array_equal(one.values, many.values)
    assert one.trace == many.trace


def _starts_run(ev, cfg):
    """The number of starts the power row's search runs: the power method
    scores its start and end in one ratios call per start."""
    calls = []

    def ratios(V):
        calls.append(len(V))
        return _RatioEvaluator.ratios(ev, V)

    inc = _Incumbent()
    inc.offer(1.0, np.ones(ev.m))
    ev.ratios = ratios
    try:
        _SEARCHES["power"](ev, cfg, inc)
    finally:
        del ev.ratios
    return len(calls)


@pytest.mark.parametrize("name, sweeps, starts", [
    ("emb.i", 8, 1), ("emb.i", 0, 16), ("direct", 8, 16), ("direct", 0, 16),
    ("p2_below_one", 8, 16)])
def test_power_row_runs_the_restarts_only_where_they_can_help(name, sweeps,
                                                              starts):
    # one start where r <= P (emb.i: theta = p1 = 3); every start where
    # r > P (direct: q = 3 > p = 2; p2_below_one: r = 4 > P = 3), and
    # where ascent_sweeps = 0 leaves the starts alone to be scored
    if name in GLOBAL_POWER:
        ev = _global_bound(name)[0]
    else:
        ev = _RatioEvaluator(SCORED[name], SCORE_CFG)
    cfg = replace(SCORE_CFG, restarts=16, ascent_sweeps=sweeps)
    assert _starts_run(ev, cfg) == starts


@pytest.mark.parametrize("name", sorted(GLOBAL_POWER))
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_no_restart_ends_above_the_single_start(name, seed):
    # the power method from a row drawn as the restarts are, lognormal with
    # sigma 2, ends no higher than the family best's start took the bound
    ev, res = _global_bound(name)
    cfg = GLOBAL_POWER[name][1]
    row = np.exp(np.random.default_rng(seed).normal(0.0, 2.0, ev.m))
    inc = _Incumbent()
    _power_method(ev, row, cfg, inc)
    assert inc.ratio <= res.ratio * (1.0 + 1e-12)


# Lebesgue-to-Morrey problems with p2 < 1 <= theta/p2 and p2 < p1, convex
# over convex on u = v^p2: (p1, p2, theta) -> the bound under AUDIT_CFG.
# The coordinate ascent read 6.69522, 2.51766 and 1.61996.  The first has
# r = P = 2 and takes the eigen row; the power method reads
# P2_BELOW_ONE_POWER there
P2_BELOW_ONE_BOUNDS = {(1.0, 0.5, 1.0): 6.7699905921399575,
                       (1.5, 0.5, 2.0): 2.5304670333725796,
                       (2.0, 0.75, 1.5): 1.6311301525487625}
P2_BELOW_ONE_POWER = 6.7699905917799885


def _p2_below_one(exponents):
    return EmbeddingProblem("lebesgue_to_lm", 1, *exponents, ONE, ONE,
                            OMEGA2)


@pytest.mark.parametrize("exponents", sorted(P2_BELOW_ONE_BOUNDS))
def test_power_method_takes_p2_below_one(exponents):
    prob = _p2_below_one(exponents)
    res = best_constant_lower_bound(prob, AUDIT_CFG)
    assert res.search == ("eigen" if exponents == (1.0, 0.5, 1.0)
                          else "power")
    assert float(res.lower_bound) == pytest.approx(
        P2_BELOW_ONE_BOUNDS[exponents], rel=1e-12, abs=0.0)
    _assert_bound_is_the_incumbent(prob, AUDIT_CFG, res)


def test_power_method_at_r_equal_to_P_with_p2_below_one():
    # the power row's search alone on the eigen row's p2 < 1 problem
    bound = P2_BELOW_ONE_BOUNDS[(1.0, 0.5, 1.0)]
    _, inc = _power_search(_p2_below_one((1.0, 0.5, 1.0)), AUDIT_CFG)
    assert inc.ratio == pytest.approx(P2_BELOW_ONE_POWER, rel=1e-12, abs=0.0)
    assert inc.ratio <= bound


# ---------------------------------------------------------------------------
# the eigen row: at r = P = 2 the ratio^q is the Rayleigh quotient
# u'Hu / sum s u^2, H the Hessian of Phi over 2 at any u

EIGEN = {
    "hardy.a": (FINITE_INSTANCES["hardy.a"][0], AUDIT_CFG),
    "averaged_n1": (_averaged(1), AVERAGED_CFG),
    "averaged_n2": (_averaged(2), AVERAGED_CFG),
    "p2_below_one": (_p2_below_one((1.0, 0.5, 1.0)), AUDIT_CFG),
    "direct_complement": (HardyProblem("direct_complement", 2.0, 2.0,
                                       PowerProfile(1.0, -0.5), ONE),
                          SCORE_CFG),
    "lebesgue_to_lm": (EmbeddingProblem("lebesgue_to_lm", 2, 2.0, 1.0, 2.0,
                                        V2, V2, OMEGA2), SCORE_CFG),
    "lebesgue_to_dual_lm": (EmbeddingProblem(
        "lebesgue_to_dual_lm", 1, 2.0, 1.0, 2.0, ONE, SHIFT,
        PowerProfile(1.0, 0.5)), SCORE_CFG),
}
_EIGEN_BOUNDS = {}


def _eigen_bound(name):
    """The evaluator of an EIGEN problem, the dense H at r = 2 and the
    incumbent of the eigen row's search alone."""
    if name not in _EIGEN_BOUNDS:
        prob, cfg = EIGEN[name]
        ev = _RatioEvaluator(prob, cfg)
        inc = _Incumbent()
        _SEARCHES["eigen"](ev, cfg, inc)
        H = ev._hessian(np.ones((ev.m, ev.K)), 1.0, np.arange(ev.m))
        _EIGEN_BOUNDS[name] = ev, H, inc
    return _EIGEN_BOUNDS[name]


def test_eigen_instances_take_the_eigen_row_on_both_sides():
    evs = [_eigen_bound(name)[0] for name in EIGEN]
    assert {ev.search for ev in evs} == {"eigen"}
    assert {ev._reverse for ev in evs} == {False, True}
    assert {isinstance(prob, HardyProblem) for prob, _ in EIGEN.values()} \
        == {False, True}


@pytest.mark.parametrize("name", sorted(EIGEN))
def test_semiseparable_product_is_the_hessian_product(name):
    ev, H, _ = _eigen_bound(name)
    gens = ev._semiseparable(np.ones((ev.m, ev.K)), ev.outer_beyond)
    rows = np.exp(np.random.default_rng(3).normal(0.0, 2.0, (4, ev.m)))
    for u in (np.ones(ev.m), np.eye(ev.m)[0], np.eye(ev.m)[-1], *rows):
        got = _semiseparable_product(gens, u)
        # 1/2 the gradient of the quadratic form Phi is H u
        for want in (H @ u, ev._phi(u)[1]):
            np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("name", sorted(EIGEN))
def test_eigen_bound_is_the_top_eigenvalue(name):
    ev, H, inc = _eigen_bound(name)
    s = ev._src_cell
    assert np.all(s > 0.0)
    scale = 1.0 / np.sqrt(s)
    top = np.linalg.eigvalsh(scale[:, None] * H * scale[None, :])[-1]
    assert inc.ratio == pytest.approx(top ** (1.0 / ev.outer_q), rel=1e-13,
                                      abs=0.0)
    assert ev.ratio(inc.values) == inc.ratio


@pytest.mark.parametrize("name", sorted(EIGEN))
def test_collatz_wielandt_bracket_holds_the_eigen_bound(name):
    # H is entrywise nonnegative and irreducible, so for positive u the
    # least and the largest (Hu)_i / (s_i u_i) bracket its top eigenvalue
    # (Collatz-Wielandt); up to the rounding of the bound, a few ulps
    ev, H, inc = _eigen_bound(name)
    u = ev._cells(inc.values) ** ev.inner_p
    assert np.all(u > 0.0)
    cw = (H @ u) / (ev._src_cell * u)
    bound = inc.ratio ** ev.outer_q
    assert np.min(cw) <= bound * (1.0 + 1e-15)
    assert bound <= np.max(cw) * (1.0 + 1e-15)


@settings(max_examples=40, deadline=None)
@given(a=st.floats(-3.0, -1.05), b=st.floats(-3.0, 3.0))
@example(a=-2.0, b=0.0)
def test_eigen_row_reaches_the_power_method(a, b):
    # direct Hardy with p = q = 2 and v = t^a, w = t^b, a < -1 keeping the
    # outer norm beyond the grid finite: the eigen row alone reaches what
    # the families and the power method reach, which, global at r = P,
    # reach no higher
    prob = HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, a),
                        Weight(1, PowerProfile(1.0, b)))
    ev = _RatioEvaluator(prob, SCORE_CFG)
    assert ev.search == "eigen"
    inc = _Incumbent()
    _SEARCHES["eigen"](ev, SCORE_CFG, inc)
    power = _power_search(prob, SCORE_CFG)[1].ratio
    assert 0.0 < power < INF
    assert inc.ratio >= power * (1.0 - 1e-12)
    assert power <= inc.ratio * (1.0 + 1e-12)


@pytest.mark.parametrize("p, q, search", [(2.0, 2.0, "eigen"),
                                           (3.0, 3.0, "power"),
                                           (INF, 2.0, "corner"),
                                           (2.0, INF, "holder_dual"),
                                           (1.0, 2.0, "vertex"),
                                           (1.0, 0.5, "simplex")])
def test_search_finds_a_cell_with_no_source_weight(p, q, search):
    # the source weight e^(-1000 t) underflows to 0 beyond t = 0.7, where
    # the target still grows: a one-cell function there has an infinite
    # ratio, which the constant alone does not show
    prob = HardyProblem("direct", p, q, PowerProfile(1.0, -2.0),
                        Weight(1, ExpProfile(1.0, -1000.0)))
    ev = _RatioEvaluator(prob, SMALL)
    incumbent = _Incumbent()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        incumbent.scan(ev, [np.ones(ev.m)])
        incumbent.stage = ev.search
        _SEARCHES[ev.search](ev, SMALL, incumbent)
    assert incumbent.search == search
    assert incumbent.ratio == INF
    assert incumbent.trace[-1][1] == INF
    assert np.count_nonzero(incumbent.values) == 1
    assert math.isinf(ev.ratio(incumbent.values))


# ---------------------------------------------------------------------------
# the exact rules: box corner, Hoelder dual and vertex scan

EXACT = {**{name: SCORED[name] for name in SCORED
            if SCORED_SEARCHES[name] not in ("power", "ascent")},
         **{name: FINITE_INSTANCES[name][0] for name in FINITE_INSTANCES
            if AUDIT_SEARCHES[name] not in ("power", "ascent")}}
_EXACT_BOUNDS = {}


def _exact_bound(name):
    """The evaluator of an exact-rule problem on SCORE_CFG and the ratio
    its rule reaches alone, without the families."""
    if name not in _EXACT_BOUNDS:
        ev = _RatioEvaluator(EXACT[name], SCORE_CFG)
        inc = _Incumbent()
        _SEARCHES[ev.search](ev, SCORE_CFG, inc)
        _EXACT_BOUNDS[name] = ev, inc.ratio
    return _EXACT_BOUNDS[name]


@pytest.mark.parametrize("name", sorted(EXACT))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_no_restart_row_beats_an_exact_rule(name, seed):
    # rows drawn as the restarts are, lognormal with sigma 2
    ev, bound = _exact_bound(name)
    rows = np.exp(np.random.default_rng(seed).normal(0.0, 2.0, (32, ev.m)))
    assert max(ev.ratios(rows)) <= bound * (1.0 + 1e-12)


# reverse_complement scores 0 on every family member, as above
@pytest.mark.parametrize("name", sorted(set(EXACT) - {"reverse_complement"}))
def test_ascent_and_vertices_never_beat_an_exact_rule(name):
    ev, bound = _exact_bound(name)
    families = best_constant_lower_bound(
        EXACT[name], replace(SCORE_CFG, ascent_sweeps=0, restarts=1))
    assert families.search == "families"
    inc = _Incumbent()
    _coordinate_ascent(ev, families.argmax.values, SCORE_CFG, inc)
    assert inc.ratio <= bound * (1.0 + 1e-12)
    assert float(families.lower_bound) <= bound * (1.0 + 1e-12)
    assert max(ev.ratios(np.eye(ev.m))) <= bound * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(p2=st.floats(0.5, 4.0), P=st.floats(1.05, 20.0),
       kind=st.sampled_from(["lebesgue_to_lm", "lebesgue_to_dual_lm",
                             "hardy"]))
@example(p2=1.0, P=2.0, kind="hardy")
def test_holder_dual_value_is_the_ratio_of_its_values(p2, P, kind):
    if kind == "hardy":
        prob = HardyProblem("direct", P, INF, DECAY, SHIFT)
    else:
        prob = EmbeddingProblem(kind, 1, p2 * P, p2, INF, ONE, SHIFT,
                                PowerProfile(1.0, 0.5 if "dual" in kind
                                             else -0.5))
    ev = _RatioEvaluator(prob, SCORE_CFG)
    assert ev.search == "holder_dual"
    value, values = ev.holder_dual()
    assert 0.0 < value < INF
    assert ev.ratio(values) == pytest.approx(value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# the simplex row: at P = 1 the source accumulation is linear in u = v^p2,
# and the ratio a power of sign Phi over the simplex of x = s u

SIMPLEX = sorted(name for name in AUDIT_SEARCHES
                 if AUDIT_SEARCHES[name] == "simplex")


def _frank_wolfe_gap(ev, values):
    """The Frank-Wolfe gap of sign Phi at values over |Phi|: on x = s u
    scaled to sum x = 1, the largest entry of sign dPhi/dx less sign
    dPhi/dx . x, the bound on how far sign Phi is below its maximum."""
    with np.errstate(all="ignore"):
        u = ev._cells(np.asarray(values, dtype=float)) ** ev.inner_p
        s = ev._src_cell
        u = u / (s @ u)
        phi, grad, _, _ = ev._phi(u)
        sign = 1.0 if ev.morrey_on_top else -1.0
        live, x = s > 0.0, s * u
        g = sign * grad[live] / s[live]
        return ev._gpow * (np.max(g) - g @ x[live]) / abs(phi)


class _LastRow(_Incumbent):
    """An incumbent that keeps the last row offered to it."""

    def scan(self, ev, rows):
        self.last = rows[-1]
        return super().scan(ev, rows)


def _assert_simplex_row_is_the_maximum(prob, cfg, certified=True):
    """The simplex row's search on prob: the row it reaches, offered last,
    has a Frank-Wolfe gap of at most 1e-12 |Phi| (where certified), no
    row drawn as the restarts are scores above its bound, and the ascent
    under AUDIT_CFG from its best row does not raise it."""
    ev = _RatioEvaluator(prob, cfg)
    assert ev.search == "simplex"
    inc = _LastRow()
    _SEARCHES["simplex"](ev, cfg, inc)
    bound = inc.ratio
    assert 0.0 < bound < INF
    assert not certified or _frank_wolfe_gap(ev, inc.last) <= 1e-12
    rows = np.exp(np.random.default_rng(7).normal(0.0, 2.0, (32, ev.m)))
    assert max(ev.ratios(rows)) <= bound * (1.0 + 1e-12)
    ascent = _Incumbent()
    _coordinate_ascent(ev, inc.values, AUDIT_CFG, ascent)
    assert ascent.ratio <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("name", SIMPLEX)
def test_simplex_row_reaches_the_maximum_of_an_instance(name):
    _assert_simplex_row_is_the_maximum(FINITE_INSTANCES[name][0], AUDIT_CFG)


@settings(max_examples=40, deadline=None)
@given(top=st.booleans(), q=st.floats(0.1, 0.95), q_rev=st.floats(1.05, 5.0),
       a=st.floats(-3.0, -1.05), b=st.floats(-3.0, 3.0))
@example(top=True, q=0.5, q_rev=2.0, a=-2.0, b=0.0)
@example(top=False, q=0.5, q_rev=2.0, a=-3.0, b=-1.0)
def test_simplex_row_reaches_the_maximum_of_a_power_problem(top, q, q_rev,
                                                            a, b):
    # the direct Hardy norm with p = 1 on top, concave for q < 1, and the
    # reverse one under its source, convex for q > 1; v = t^a with a < -1
    # keeps the outer norm beyond the grid, and so the ratio, finite
    prob = HardyProblem("direct" if top else "reverse", 1.0,
                        q if top else q_rev, PowerProfile(1.0, a),
                        Weight(1, PowerProfile(1.0, b)))
    _assert_simplex_row_is_the_maximum(prob, SCORE_CFG)


# P = 1 problems on which the row's rarer branches run: a singular face,
# whose Newton step gives way to the step toward j (dual_lm_to_lebesgue,
# n = 1), and a face that stays optimal with j in it (n = 3); and one whose
# maximum holds masses far below rounding, where the gap stays above
# 1e-12 and only the drawn rows and the ascent are checked
RARE = {
    "singular": EmbeddingProblem(
        "dual_lm_to_lebesgue", 1, 2.6627746348433976, 2.6627746348433976,
        9.899054738117437, Weight(1, PowerProfile(1.0, 2.6307257526110464)),
        Weight(1, PowerProfile(1.0, -0.2676717697727451)),
        PowerProfile(1.0, 2.6647026533830367)),
    "optimal_face": EmbeddingProblem(
        "dual_lm_to_lebesgue", 3, 0.6374352859186556, 0.6374352859186556,
        1.6262605303110411, Weight(3, PowerProfile(1.0, -0.1960611862406969)),
        Weight(3, PowerProfile(1.0, 1.5322152879216215)),
        PowerProfile(1.0, 0.752074242341811)),
    "below_rounding": EmbeddingProblem(
        "lm_to_lebesgue", 1, 3.4999281198704266, 3.4999281198704266,
        3.7482168350860086, Weight(1, PowerProfile(1.0, 0.42446364124317615)),
        Weight(1, PowerProfile(1.0, 0.681087352704032)),
        PowerProfile(1.0, -2.7843899334691127)),
}


@pytest.mark.parametrize("name", sorted(RARE))
def test_simplex_row_on_its_rarer_branches(name):
    _assert_simplex_row_is_the_maximum(RARE[name], SCORE_CFG,
                                       certified=name != "below_rounding")


def test_ascent_keeps_a_restart_that_starts_below_the_incumbent():
    # lebesgue_to_lm with p1 = 3, p2 = 2 and theta = 1 is concave over a
    # source with P = 3/2, on the ascent row.  Its first seeded restart is
    # still below the incumbent's ratio at its fourth sweep, and rises past
    # it later: the bound reaches what that restart reaches alone
    prob = EmbeddingProblem("lebesgue_to_lm", 2, 3.0, 2.0, 1.0,
                            Weight(2, constant(1.0)), Weight(2, constant(1.0)),
                            truncated_power(1.0, -4.0, 1.0, None))
    ev = _RatioEvaluator(prob, AUDIT_CFG)
    assert ev.search == "ascent"
    res = best_constant_lower_bound(prob, AUDIT_CFG)
    start = np.exp(np.random.default_rng(AUDIT_CFG.seed).normal(0.0, 2.0,
                                                                ev.m))
    alone = _Incumbent()
    _coordinate_ascent(ev, start, AUDIT_CFG, alone)
    assert float(res.lower_bound) >= alone.ratio
