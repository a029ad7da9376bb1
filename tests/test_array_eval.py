"""Array evaluation: profiles, extended-real products and quotients,
inner norms, the Stieltjes callers and the supremum-form functionals give
the same numbers on arrays as on single radii."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morreyemb import (EmbeddingProblem, GridFunction, HardyProblem,
                       MonotoneIntegrator, Weight, associate_norm,
                       closed_form_constant, constant, embedding_constant,
                       reverse_hardy_C, reverse_hardy_C_star,
                       stieltjes_integral, truncated_power,
                       unweighted_reference)
from morreyemb import embeddings, hardy
from morreyemb.extreal import ExtReal, ext_div, ext_mul
from morreyemb.norms import _InnerBallNorm, _InnerComplementNorm
from morreyemb.profiles import (ExpProfile, PiecewisePowerProfile,
                                PowerProfile, ShiftedPowerProfile)
from test_acceptance import FINITE_INSTANCES, INFINITE_INSTANCES

INF = math.inf
# numpy's pow, exp and log may differ from libm's by an ulp; an interval
# integral c (b^e - a^e) / e cancels, which scales that up by about
# max(a^e, b^e) / |b^e - a^e|, so integrals are compared over ends at least
# 1% apart with exponents e kept away from 0
RTOL = 1e-13
RTOL_INTEGRAL = 1e-9
SPREAD = 1.01

# ---------------------------------------------------------------------------
# closed-form profiles

coefs = st.one_of(st.sampled_from([0.0, INF, 1.0]),
                  st.floats(0.01, 100.0))
exponents = st.one_of(st.sampled_from([0.0, -1.0, -0.5, 2.0]),
                      st.floats(-4.0, 4.0).filter(
                          lambda a: abs(a + 1.0) > 1e-3))
rates = st.one_of(st.just(0.0), st.floats(0.01, 3.0), st.floats(-3.0, -0.01))
breaks = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4,
                  unique=True).map(sorted)


@st.composite
def piecewise(draw):
    bs = draw(breaks)
    if any(b2 / b1 < SPREAD for b1, b2 in zip(bs, bs[1:])):
        bs = bs[:1]
    segs = [(draw(coefs), draw(exponents)) for _ in range(len(bs) + 1)]
    return PiecewisePowerProfile(bs, segs)


profiles = st.one_of(
    st.builds(PowerProfile, coefs, exponents),
    piecewise(),
    st.builds(ShiftedPowerProfile, st.floats(0.0, 10.0),
              st.floats(0.1, 5.0), exponents),
    st.builds(ExpProfile, st.floats(0.0, 10.0), rates),
)


def radii_for(prof, extra, near=True):
    """0, inf, the breakpoints, points just off them (if near), and the
    extra radii; with near=False the finite positive radii are at least
    SPREAD apart."""
    bs = list(prof.breakpoints())
    if near:
        return np.array(sorted({0.0, INF, *bs, *extra,
                                *(b * (1.0 + s) for b in bs
                                  for s in (-1e-9, 1e-9))}))
    kept = []
    for r in sorted({*bs, *extra}):
        if not kept or r >= SPREAD * kept[-1]:
            kept.append(r)
    return np.array([0.0, *kept, INF])


def check_same(array_result, scalars, rtol=RTOL):
    assert isinstance(array_result, np.ndarray)
    assert array_result.shape == (len(scalars),)
    np.testing.assert_allclose(array_result, np.array(scalars, dtype=float),
                               rtol=rtol, atol=0.0)


radii_lists = st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(profiles, radii_lists)
@example(ExpProfile(2.0, 0.0), [1.0])   # rate * rho = 0 * inf at rho = inf
def test_array_call_matches_scalar(prof, extra):
    rs = radii_for(prof, extra)
    assert not np.isnan(prof(rs)).any()
    check_same(prof(rs), [prof(float(r)) for r in rs])
    check_same(prof.right_limit(rs), [prof.right_limit(float(r)) for r in rs])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(profiles, radii_lists, st.floats(1e-3, 1e3))
@example(ExpProfile(1.0, 1e300), [1.0, 1e10], 2.0)   # rate * rho overflows
def test_array_integral_and_esssup_match_scalar(prof, extra, pivot):
    for method, rtol, rs in (
            (prof.esssup, RTOL, radii_for(prof, extra)),
            (prof.integral, RTOL_INTEGRAL, radii_for(prof, extra, False))):
        # array start with a fixed end, fixed start with an array end, and
        # both ends arrays
        lows = rs[rs < INF]
        check_same(method(lows, INF), [method(float(a), INF) for a in lows],
                   rtol)
        highs = rs[rs > 0.0]
        check_same(method(0.0, highs),
                   [method(0.0, float(b)) for b in highs], rtol)
        a = rs[rs * SPREAD <= pivot]
        check_same(method(a, pivot), [method(float(x), pivot) for x in a],
                   rtol)
        lo, hi = rs[:-1], rs[1:]
        check_same(method(lo, hi),
                   [method(float(x), float(y)) for x, y in zip(lo, hi)], rtol)


# ---------------------------------------------------------------------------
# extended-real products and quotients

ext_values = st.one_of(st.sampled_from([0.0, 1.0, INF]),
                       st.floats(0.0, 1e300), st.floats(1e-300, 1e-3))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(ext_values, ext_values), min_size=1, max_size=8),
       st.sampled_from([math.nan, -1.0, -INF, -1e-300]), st.integers(0, 7))
@example([(0.0, INF), (INF, 0.0), (0.0, 0.0), (3.0, INF), (2.0, 0.0),
          (INF, INF), (1e300, 1e300), (1e300, 1e-300)], math.nan, 0)
def test_array_ext_mul_and_div_match_scalar(pairs, bad, k):
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    for op in (ext_mul, ext_div):
        # array with array, array with an ExtReal, float with array
        for got, want in (
                (op(a, b), [op(x, y) for x, y in pairs]),
                (op(a, ExtReal(b[0])), [op(x, b[0]) for x in a]),
                (op(float(a[0]), b), [op(a[0], y) for y in b])):
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, [float(w) for w in want])
        # a nan or negative entry anywhere raises, as in ExtReal
        for x, y in ((a.copy(), b), (b.copy(), a)):
            x[k % len(x)] = bad
            with pytest.raises(ValueError):
                op(x, y)
            with pytest.raises(ValueError):
                op(y, x)
        with pytest.raises(ValueError):
            op(a, bad)


# ---------------------------------------------------------------------------
# inner norms of grid functions


@pytest.mark.parametrize("cls", [_InnerBallNorm, _InnerComplementNorm])
@pytest.mark.parametrize("p", [1.0, 2.5, INF])
@pytest.mark.parametrize("v", [constant(1.0), PowerProfile(2.0, -0.5)])
def test_inner_norm_array_lookup_matches_scalar(cls, p, v):
    knots = np.geomspace(0.1, 10.0, 9)
    values = np.array([1.0, 0.0, 2.0, 0.5, 0.0, 3.0, 1.5, 0.25])
    ev = cls(GridFunction(knots, values), p, Weight(2, v))
    mids = np.sqrt(knots[:-1] * knots[1:])
    rs = np.concatenate([[1e-3, 0.1 * (1 - 1e-12)], knots, mids,
                         [10.0 * (1 + 1e-12), 1e3]])
    check_same(ev(rs), [ev(float(r)) for r in rs])


# ---------------------------------------------------------------------------
# the Stieltjes callers; the recorded values were computed with the
# one-point-at-a-time evaluation that the array evaluation replaced

ONE = Weight(1, constant(1.0))
F16 = GridFunction(np.geomspace(1e-2, 1e2, 16), np.exp(np.sin(np.arange(15.0))))
F17 = GridFunction(np.geomspace(1e-2, 1e2, 17), np.exp(np.sin(np.arange(16.0))))


def split(left, right):
    return PiecewisePowerProfile([1.0], [left, right])


RECORDED = [
    (lambda: associate_norm(F17, "lm", 2.0, 3.0, PowerProfile(1.0, -1.0), ONE),
     542.739756133531),
    (lambda: associate_norm(F17, "dual_lm", 2.0, 3.0, constant(1.0), ONE),
     10.188299358193458),
    (lambda: associate_norm(F17, "lm", 1.0, 2.0, PowerProfile(1.0, -1.0), ONE),
     23.842542546785243),
    (lambda: associate_norm(F16, "lm", 1.5, INF,
                            split((1.0, -0.5), (2.0, -1.0)), ONE),
     545.9775902105794),
    (lambda: associate_norm(F16, "dual_lm", 1.5, 3.0,
                            split((1.0, 0.5), (2.0, 0.0)), ONE),
     32.27311792211255),
    (lambda: embedding_constant(EmbeddingProblem(
        "lm_to_lebesgue", 1, 1.0, 2.0, 2.0, Weight(1, split((1.0, 0.0),
                                                            (1.0, -4.0))),
        ONE, PowerProfile(1.0, -3.0))),
     2.5819888947018264),
    (lambda: embedding_constant(EmbeddingProblem(
        "lm_to_lebesgue", 2, 1.0, 1.0, 3.0,
        Weight(2, split((1.0, 0.0), (1.0, -4.0))), Weight(2, constant(1.0)),
        PowerProfile(1.0, -3.0))),
     4.160167638701828),
    (lambda: embedding_constant(EmbeddingProblem(
        "dual_lm_to_lebesgue", 1, 1.0, 1.0, 3.0,
        Weight(1, split((1.0, 2.0), (1.0, -2.0))), ONE, constant(1.0))),
     1.1292432276117421),
    (lambda: reverse_hardy_C(HardyProblem(
        "reverse", 0.5, 2.0, ShiftedPowerProfile(1.0, 1.0, -2.0),
        Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0)))),
     10.732050799425759),
    (lambda: reverse_hardy_C_star(HardyProblem(
        "reverse_complement", 0.5, 2.0, PowerProfile(1.0, 0.5),
        Weight(1, split((1.0, 1.0), (1.0, -3.0))))),
     5.415112831634192),
    (lambda: reverse_hardy_C_star(HardyProblem(
        "reverse_complement", 0.5, INF, PowerProfile(1.0, 0.5),
        Weight(1, split((1.0, 1.0), (1.0, -3.0))))),
     2.907275042963404),
]


@pytest.mark.parametrize("value, recorded", RECORDED)
def test_stieltjes_callers_match_recorded(value, recorded):
    assert float(value()) == pytest.approx(recorded, rel=1e-12)


def fubini_dual_norm(f, p, beta):
    """theta = p, kind "lm", omega = r^beta, v = 1 on R^1: the associate
    norm is ||f||_{p', u^{1-p'}} with u(r) = r^e / (-e), e = beta p + 1;
    every cell integrates in closed form."""
    pp = p / (p - 1.0)
    e = beta * p + 1.0
    g = e * (1.0 - pp) + 1.0
    total = sum(2.0 * v ** pp * (-e) ** (pp - 1.0) * (b ** g - a ** g) / g
                for a, b, v in zip(f.knots[:-1], f.knots[1:], f.values))
    return total ** (1.0 / pp)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_associate_norm_at_theta_p_is_fubini_dual_norm(p):
    got = float(associate_norm(F17, "lm", p, p, PowerProfile(1.0, -1.0), ONE))
    assert got == pytest.approx(fubini_dual_norm(F17, p, -1.0), rel=1e-8)


@pytest.mark.parametrize("direction, v1, omega, exact", [
    ("lm_to_lebesgue", split((1.0, 0.0), (1.0, -4.0)),
     PowerProfile(1.0, -3.0), math.sqrt(40.0 / 3.0)),
    ("dual_lm_to_lebesgue", split((1.0, 2.0), (1.0, -2.0)),
     constant(1.0), 2.0 / math.sqrt(3.0)),
])
def test_morrey_source_case_b_exact(direction, v1, omega, exact):
    prob = EmbeddingProblem(direction, 1, 1.0, 1.0, 2.0, Weight(1, v1), ONE,
                            omega)
    assert float(embedding_constant(prob)) == pytest.approx(exact, rel=1e-8)


def test_stieltjes_evaluates_arrays():
    seen = []

    def f(t):
        seen.append(type(t))
        return np.exp(-t)

    h = MonotoneIntegrator.from_function(lambda t: 1.0 - np.exp(-t),
                                         "increasing")
    # integral of e^{-t} e^{-t} dt over (0, inf)
    assert float(stieltjes_integral(f, h)) == pytest.approx(0.5, rel=1e-6)
    assert seen and all(tp is np.ndarray for tp in seen)


def test_repeated_jump_point_counts_its_atom_once():
    h = MonotoneIntegrator.from_function(
        lambda t: np.where(t < 2.0, 0.0, 5.0), "increasing",
        left=lambda t: np.where(t <= 2.0, 0.0, 5.0),
        right=lambda t: np.where(t < 2.0, 0.0, 5.0),
        jump_points=(2.0, 2.0))
    assert float(stieltjes_integral(lambda t: 4.0, h)) == 20.0


# ---------------------------------------------------------------------------
# supremum-form functionals: sup_over_t scans its grid in one array call

# the acceptance instances whose case is a supremum over t: direct Hardy
# cases, Lebesgue-to-LM cases and the Morrey-source case (a) on both sides
SUP_FORM_ACCEPTANCE = ("hardy.a", "hardy.c", "hardy.d", "hardy.f", "hardy.h",
                       "emb.i", "emb.iii", "emb.iv", "emb.vi", "emb.viii",
                       "emb.dual_target", "emb.source.a", "emb.dual_source.a")
DECAY = split((1.0, -0.5), (1.0, -3.0))
DECAY_INVERTED = split((1.0, 3.0), (1.0, 0.5))   # DECAY(1/y)
OMR15 = truncated_power(1.0, -1.5, 1.0, None)

# with the acceptance instances, one or more instances of every caller of
# sup_over_t
SUP_FORM_PROBLEMS = {
    **{f"accept.{name}": FINITE_INSTANCES[name][0]
       for name in SUP_FORM_ACCEPTANCE},
    **{f"accept.inf.{name}": prob
       for name, prob in INFINITE_INSTANCES.items()},
    "hardy.a.n2": HardyProblem("direct", 2.0, 3.0, DECAY,
                               Weight(2, split((1.0, -0.5), (1.0, 2.0)))),
    "hardy.h.complement": HardyProblem(
        "direct_complement", 1.0, INF, DECAY_INVERTED,
        Weight(2, split((1.0, -2.0), (1.0, 0.5)))),
    "sup": HardyProblem("sup", INF, INF, DECAY,
                        Weight(1, split((1.0, -0.5), (1.0, 1.0)))),
    "sup.complement": HardyProblem(
        "sup_complement", INF, INF, DECAY_INVERTED,
        Weight(1, split((1.0, -1.0), (1.0, 0.5)))),
    "reverse.a": HardyProblem(
        "reverse", 0.5, 0.5, ShiftedPowerProfile(1.0, 1.0, -4.0),
        Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0))),
    "emb.i.n2": EmbeddingProblem(
        "lebesgue_to_lm", 2, 3.0, 2.0, 4.0,
        Weight(2, split((1.0, -1.0), (1.0, -1.0))),
        Weight(2, split((1.0, 0.0), (1.0, -1.0))),
        split((1.0, -0.5), (1.0, -2.0))),
}
SUP_FORM = {
    **{name: (lambda prob=prob: closed_form_constant(prob))
       for name, prob in SUP_FORM_PROBLEMS.items()},
    "associate.lm": lambda: associate_norm(
        F17, "lm", 2.0, 0.5, PowerProfile(1.0, -3.0), ONE),
    "associate.dual_lm": lambda: associate_norm(
        F17, "dual_lm", 2.0, 0.5, constant(1.0), ONE),
    "unweighted": lambda: unweighted_reference(3.0, 2.0, 4.0, OMR15, 1),
    "unweighted.n2": lambda: unweighted_reference(3.0, 2.0, 3.0, OMR15, 2),
}


@pytest.mark.parametrize("name", sorted(SUP_FORM))
def test_sup_over_t_scans_its_grid_in_one_array_call(name, monkeypatch):
    scans = []
    real = hardy.sup_over_t

    def spy(fn, *args, **kwargs):
        arrays = []

        def counted(t):
            if isinstance(t, np.ndarray):
                arrays.append(t)
            return fn(t)

        scans.append((fn, arrays))
        return real(counted, *args, **kwargs)

    monkeypatch.setattr(hardy, "sup_over_t", spy)
    monkeypatch.setattr(embeddings, "sup_over_t", spy)
    SUP_FORM[name]()
    assert scans, name
    for fn, arrays in scans:
        assert len(arrays) == 1
        ts = arrays[0]
        assert ts.shape == (512,)
        # infinities must sit at the same t
        check_same(fn(ts), [fn(float(t)) for t in ts])


def test_sup_over_t_raises_on_nan():
    with pytest.raises(ValueError, match="nan"):
        hardy.sup_over_t(lambda t: np.where(t > 1.0, math.nan, t))
