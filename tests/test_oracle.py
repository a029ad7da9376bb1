"""Brute-force lower bounds, divergence witnesses, and equivalence reports."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreyemb.errors import DegenerateRatio, WitnessNotFound
from morreyemb.hardy import HardyProblem, hardy_A
from morreyemb.embeddings import EmbeddingProblem
from morreyemb.integration import ball_volume, sphere_area
from morreyemb.oracle import (_BLOCK, _SEARCHES, OracleConfig, _Incumbent,
                              _RatioEvaluator, _coordinate_ascent,
                              _family_members, _power_method,
                              best_constant_lower_bound,
                              divergence_witness, equivalence_report)
from morreyemb.profiles import (ExpProfile, PowerProfile,
                                ShiftedPowerProfile, constant,
                                truncated_power)
from morreyemb.weights import Weight
from test_acceptance import AUDIT_CFG, FINITE_INSTANCES

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
                                       (math.nan, 1.0)])
    def test_rejects_bad_knot_range(self, knots):
        with pytest.raises(ValueError, match="knot_range"):
            OracleConfig(knot_range=knots)

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


class TestDivergenceWitness:
    def test_requires_infinite_constant(self):
        with pytest.raises(ValueError):
            divergence_witness(BENCHMARK, SMALL)

    def test_doubling_growth(self):
        prob = HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, -2.0),
                            Weight(1, ShiftedPowerProfile(1.0, 1.0, -1.0)))
        assert hardy_A(prob).is_inf
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
    "hardy.a": 2.7186753052760704,
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
    "emb.source.b": 2.1117083340345646,
    "emb.dual_source.a": 0.8934503640595814,
    "emb.dual_source.b": 0.8060888860433174,
}
AVERAGED_LOWER_BOUNDS = {1: 1.980644631023287, 2: 1.992845241065642}


def _assert_bound_is_the_incumbent(prob, cfg, res):
    """lower_bound is the trace's last entry and the ratio of argmax, all
    three the same float."""
    again = _RatioEvaluator(prob, cfg).ratio(res.argmax.values)
    assert float(res.lower_bound) == res.trace[-1][1] == again


# the search table's row of every acceptance instance and scored problem
AUDIT_SEARCHES = {
    "hardy.a": "power", "hardy.b": "power", "hardy.c": "holder_dual",
    "hardy.d": "corner", "hardy.e": "corner", "hardy.f": "vertex",
    "hardy.g": "ascent", "hardy.h": "vertex", "emb.i": "power",
    "emb.ii": "power", "emb.iii": "holder_dual", "emb.iv": "corner",
    "emb.v": "corner", "emb.vi": "vertex", "emb.vii": "ascent",
    "emb.viii": "vertex", "emb.ix": "corner", "emb.dual_target": "power",
    "emb.source.a": "vertex", "emb.source.b": "ascent",
    "emb.dual_source.a": "vertex", "emb.dual_source.b": "ascent",
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
    assert res.search == "power"


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
                     min_size=1, max_size=_BLOCK + 1))
@example(rows=[[0.0] * 16, [1.0] * 16, [1.0] * 8 + [0.0] * 8])
def test_row_ratios_equal_ratio(name, rows):
    # a row scores the same, to the bit, alone or beside others, in
    # blocks of more than one family block too
    ev = _evaluator(name)
    got = ev.ratios(np.array(rows))
    want = [ev.ratio(row) for row in rows]
    assert np.array_equal(got, want, equal_nan=True)


def _families_one_at_a_time(prob, cfg):
    """The family stage of best_constant_lower_bound, each member scored
    by its own full evaluation, up to the first infinite member."""
    ev = _RatioEvaluator(prob, cfg)
    trace, best = [], 0.0
    for count, (fam, vals) in enumerate(_family_members(ev), 1):
        r = ev.ratio(vals)
        if math.isinf(r):
            return vals, trace + [(count, INF)], {fam: INF}
        if r > best:
            best = r
            trace.append((count, r))
    raise AssertionError("no infinite member")


def test_block_with_infinite_member_matches_one_at_a_time():
    # v vanishes beyond 1, so a complement reaching no further in has no
    # target and an infinite reverse ratio; the first such member is the
    # 27th, inside the second block
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
    eig = np.linalg.eigvalsh(scale[:, None] * M * scale[None, :])
    top, rho = math.sqrt(eig[-1]), eig[-2] / eig[-1]
    got = float(best_constant_lower_bound(prob, AVERAGED_CFG).lower_bound)
    # the steps stop once one gains a relative 1e-10 or less; gains that
    # shrink by rho a step leave at most 1e-10 rho/(1 - rho) to gain
    # (n = 1: 2.8e-10 of 1.8e-9; n = 2, rho = 0.9846: 1.1e-9 of 6.4e-9)
    assert 1.0 - got / top <= 1e-10 * rho / (1.0 - rho)
    if n == 1:
        assert got == pytest.approx(top, rel=1e-9, abs=0.0)
    assert got <= top * (1.0 + 1e-12)
    assert got == pytest.approx(AVERAGED_LOWER_BOUNDS[n], rel=1e-12, abs=0.0)


# for r = theta/p2 <= P = p1/p2 (q <= p for Hardy) the power method reaches
# the global maximum from any start, so it runs from the family best alone
GLOBAL_POWER = {**{name: (FINITE_INSTANCES[name][0], AUDIT_CFG)
                   for name in ("hardy.a", "hardy.b", "emb.i", "emb.ii",
                                "emb.dual_target")},
                "averaged_n1": (_averaged(1), AVERAGED_CFG)}
_GLOBAL_BOUNDS = {}


def _global_bound(name):
    """The evaluator of a GLOBAL_POWER problem and its lower bound."""
    if name not in _GLOBAL_BOUNDS:
        prob, cfg = GLOBAL_POWER[name]
        _GLOBAL_BOUNDS[name] = (_RatioEvaluator(prob, cfg),
                                best_constant_lower_bound(prob, cfg))
    return _GLOBAL_BOUNDS[name]


@pytest.mark.parametrize("name", sorted(GLOBAL_POWER))
def test_restarts_are_inert_where_the_power_method_is_global(name):
    prob, cfg = GLOBAL_POWER[name]
    ev, _ = _global_bound(name)
    assert ev.search == "power" and ev._gpow <= ev._P
    one, many = (best_constant_lower_bound(prob, replace(cfg, restarts=k))
                 for k in (1, 16))
    assert float(one.lower_bound) == float(many.lower_bound)
    assert np.array_equal(one.argmax.values, many.argmax.values)
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
    assert inc.ratio <= float(res.lower_bound) * (1.0 + 1e-12)


# Lebesgue-to-Morrey problems with p2 < 1 <= theta/p2 and p2 < p1, convex
# over convex on u = v^p2: (p1, p2, theta) -> the bound under AUDIT_CFG.
# The coordinate ascent read 6.69522, 2.51766 and 1.61996
P2_BELOW_ONE_BOUNDS = {(1.0, 0.5, 1.0): 6.7699905917799885,
                       (1.5, 0.5, 2.0): 2.5304670333725796,
                       (2.0, 0.75, 1.5): 1.6311301525487625}


@pytest.mark.parametrize("exponents", sorted(P2_BELOW_ONE_BOUNDS))
def test_power_method_takes_p2_below_one(exponents):
    prob = EmbeddingProblem("lebesgue_to_lm", 1, *exponents, ONE, ONE,
                            OMEGA2)
    res = best_constant_lower_bound(prob, AUDIT_CFG)
    assert res.search == "power"
    assert float(res.lower_bound) == pytest.approx(
        P2_BELOW_ONE_BOUNDS[exponents], rel=1e-12, abs=0.0)
    _assert_bound_is_the_incumbent(prob, AUDIT_CFG, res)


@pytest.mark.parametrize("p, q, search", [(2.0, 2.0, "power"),
                                           (INF, 2.0, "corner"),
                                           (2.0, INF, "holder_dual"),
                                           (1.0, 2.0, "vertex")])
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
