"""Brute-force lower bounds, divergence witnesses, and equivalence reports."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreyemb.errors import DegenerateRatio, WitnessNotFound
from morreyemb.hardy import HardyProblem, hardy_A
from morreyemb.embeddings import EmbeddingProblem
from morreyemb.integration import ball_volume, sphere_area
from morreyemb.oracle import (OracleConfig, _RatioEvaluator, _family_members,
                              best_constant_lower_bound, divergence_witness,
                              equivalence_report)
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

    def test_rejects_no_subcells(self):
        with pytest.raises(ValueError, match="subcells"):
            OracleConfig(subcells=0)

    def test_rejects_negative_sweeps(self):
        with pytest.raises(ValueError, match="ascent_sweeps"):
            OracleConfig(ascent_sweeps=-1)

    def test_accepts_smallest_settings(self):
        cfg = OracleConfig(grid_cells=16, subcells=1, ascent_sweeps=0,
                           restarts=1, knot_range=(1.0, 2.0))
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
        again = ev.ratio(res.argmax.values)
        assert again == pytest.approx(float(res.lower_bound), rel=1e-12,
                                      abs=0.0)

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

    def test_json_round_trip(self):
        import json
        rep = equivalence_report(BENCHMARK, SMALL)
        doc = json.loads(rep.to_json())
        assert doc["ratio_low"] == pytest.approx(rep.ratio_low)


# ---------------------------------------------------------------------------
# a coordinate's candidates scored together

ONE = Weight(1, constant(1.0))
DECAY = ExpProfile(1.0, -1.0)
SHIFT = Weight(1, ShiftedPowerProfile(1.0, 1.0, 1.0))
OMEGA = truncated_power(1.0, -1.0, 1.0, None)
V2 = Weight(2, PowerProfile(1.0, 0.5))

SCORED = {
    "direct": HardyProblem("direct", 2.0, 3.0, PowerProfile(1.0, -2.0),
                           Weight(1, PowerProfile(1.0, 0.5))),
    "direct_complement": HardyProblem("direct_complement", 1.5, 2.0,
                                      PowerProfile(1.0, -0.5), ONE),
    "direct_q_inf": HardyProblem("direct", 2.0, INF, DECAY, SHIFT),
    "sup": HardyProblem("sup", 2.0, 2.0, DECAY, SHIFT),
    "sup_complement_q_inf": HardyProblem("sup_complement", 2.0, INF,
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
}
SCORE_CFG = OracleConfig(grid_cells=16, subcells=4, knot_range=(1e-3, 1e3))
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
    ev = _evaluator(name)
    ev.ratio(values)
    with np.errstate(all="ignore"):
        got = ev._scores(i, cands)
    for cand, score in zip(cands, got):
        moved = list(values)
        moved[i] = cand
        want = ev.ratio(moved)
        if want == 0.0 or math.isinf(want):
            assert score == want, (cand, score, want)
        else:
            assert score == pytest.approx(want, rel=1e-12, abs=0.0), cand


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
def test_cached_ratio_equals_reference(name, values):
    ev = _evaluator(name)
    got = ev.ratio(values)
    with np.errstate(all="ignore"):
        want = _reference_ratio(ev, values)
    if want == 0.0 or math.isinf(want):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


# the lower bounds the full-recompute search reached, to which the batched
# scoring must stay: the finite acceptance instances under AUDIT_CFG and
# the averaged operator of test_06 with 4 restarts
AUDIT_LOWER_BOUNDS = {
    "hardy.a": 2.69852882689807,
    "hardy.b": 0.9855493636118956,
    "hardy.c": 0.5988761716695904,
    "hardy.d": 0.2905395460907355,
    "hardy.e": 0.5533102385078741,
    "hardy.f": 0.9998110106706427,
    "hardy.g": 0.9997690249411192,
    "hardy.h": 0.9997263120659333,
    "emb.i": 0.9896700564777313,
    "emb.ii": 1.0695745545410098,
    "emb.iii": 1.0958415570480193,
    "emb.iv": 0.982038694165457,
    "emb.v": 1.1773472866400596,
    "emb.vi": 0.9999999999999973,
    "emb.vii": 0.9999999999999947,
    "emb.viii": 0.9763000989628079,
    "emb.ix": 0.9999999999999972,
    "emb.dual_target": 0.5652885834917354,
    "emb.source.a": 0.23434130137958536,
    "emb.source.b": 2.1117083340345646,
    "emb.dual_source.a": 0.8934503640595814,
    "emb.dual_source.b": 0.8060888860433174,
}
AVERAGED_LOWER_BOUNDS = {1: 1.9693530028500443, 2: 1.984990866964432}


@pytest.mark.parametrize("name", sorted(AUDIT_LOWER_BOUNDS))
def test_audit_lower_bound_pinned(name):
    prob = FINITE_INSTANCES[name][0]
    res = best_constant_lower_bound(prob, AUDIT_CFG)
    assert float(res.lower_bound) == pytest.approx(
        AUDIT_LOWER_BOUNDS[name], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_averaged_operator_lower_bound_pinned(n):
    p = 2.0
    sigma, cn = sphere_area(n), ball_volume(n, 1.0)
    prob = HardyProblem("direct", p, p,
                        PowerProfile(sigma * cn ** (-p), n - 1 - n * p),
                        Weight(n, constant(1.0)), n=n)
    cfg = OracleConfig(grid_cells=256, knot_range=(1e-9, 1e9), restarts=4,
                       ascent_sweeps=40, seed=0)
    res = best_constant_lower_bound(prob, cfg)
    assert float(res.lower_bound) == pytest.approx(
        AVERAGED_LOWER_BOUNDS[n], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# an accepted candidate loaded from its own scoring, and rows scored together

_FRESH = {}


def _fresh(name):
    """A second evaluator of the problem, to load values from scratch."""
    if name not in _FRESH:
        _FRESH[name] = _RatioEvaluator(SCORED[name], SCORE_CFG)
    return _FRESH[name]


def _cache(ev):
    """The cache's fields as bytes, to be compared bitwise."""
    fields = ["_v", "_src", "_inner_before", "_src_others", "_outer_before",
              "src_norm"]
    fields += ["_marks"] if ev.sup_inner else ["_cell_mass", "_part"]
    return {f: np.asarray(getattr(ev, f), dtype=float).tobytes()
            for f in fields}


moves = st.lists(st.tuples(st.integers(0, 15), candidates, st.integers(0, 4)),
                 min_size=1, max_size=3)


@pytest.mark.parametrize("name", sorted(SCORED))
@settings(max_examples=40, deadline=None)
@given(values=st.lists(cell_values, min_size=16, max_size=16), moves=moves,
       i=st.integers(0, 15), cands=candidates)
@example(values=[1.0] * 16, moves=[(0, [0.0, 1e12], 1), (15, [0.5], 0)],
         i=0, cands=[2.0])
@example(values=[0.0] * 15 + [1.0], moves=[(15, [0.0, 0.25, 4.0], 2)],
         i=14, cands=[1e-6])
def test_accept_loads_as_a_full_ratio(name, values, moves, i, cands):
    ev, ref = _evaluator(name), _fresh(name)
    moved = list(values)
    with np.errstate(all="ignore"):
        ev._ratio(moved)
        for cell, move_cands, b in moves:
            b %= len(move_cands)
            ev._scores(cell, move_cands)
            ev._accept(b, move_cands[b])
            moved[cell] = move_cands[b]
        ref._ratio(moved)
        assert _cache(ev) == _cache(ref)
        assert ev._scores(i, cands) == ref._scores(i, cands)


@pytest.mark.parametrize("name", sorted(SCORED))
@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(cell_values, st.just(1e12)),
                              min_size=16, max_size=16),
                     min_size=1, max_size=4))
@example(rows=[[0.0] * 16, [1.0] * 16, [1.0] * 8 + [0.0] * 8])
def test_row_ratios_equal_ratio(name, rows):
    ev = _evaluator(name)
    got = ev.ratios(np.array(rows))
    assert len(got) == len(rows)
    for row, score in zip(rows, got):
        want = ev.ratio(row)
        if want == 0.0 or math.isinf(want):
            assert score == want
        else:
            assert score == pytest.approx(want, rel=1e-12, abs=0.0)


def _families_one_at_a_time(prob, cfg):
    """The family stage of best_constant_lower_bound, each member scored
    by its own full evaluation, up to the first infinite member."""
    ev = _RatioEvaluator(prob, cfg)
    trace, best = [], 0.0
    for count, (fam, vals) in enumerate(_family_members(ev, cfg), 1):
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
