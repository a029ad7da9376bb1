"""End-to-end acceptance suite.

One test per criterion; each prints a single summary line on success so a
verbose run doubles as an acceptance report.  Closed-form values are
checked at the stated tolerances, oracle audits at recorded regression
factors, and each criterion with a runtime budget asserts it.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from morreyemb import (EmbeddingProblem, GridFunction, HardyProblem,
                       OracleConfig, PiecewisePowerProfile, PowerProfile,
                       ShiftedPowerProfile, ExpProfile, Side, Weight,
                       associate_norm, conjugate_exponent, constant,
                       divergence_witness, embedding_constant,
                       equivalence_report, fubini_weight,
                       hardy_constant, head_norm, lm_norm, dual_lm_norm,
                       reference_normalization,
                       sphere_area, ball_volume, tail_norm, truncated_power,
                       unweighted_reference, weighted_lp_norm)
from morreyemb.cli import main
from morreyemb.errors import UndefinedStieltjes

INF = math.inf
ONE = Weight(1, constant(1.0))


def report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {num:2d}] {name}: PASS{suffix}")


# ---------------------------------------------------------------------------
# 1. conjugate-exponent table, all four branches, exact


def test_01_conjugate_exponent_table():
    table = [(0.5, 1.0), (1.0, INF), (1.5, 3.0),
             (2.0, 2.0), (3.0, 1.5), (INF, 1.0)]
    for p, want in table:
        assert float(conjugate_exponent(p)) == want
    report(1, "conjugate-exponent table", f"{len(table)} branches exact")


# ---------------------------------------------------------------------------
# 2. power-weight tail/head/ball/complement integrals vs antiderivatives


def test_02_power_weight_norms():
    start = time.monotonic()
    coeff = 1.3
    alphas = [-2.8, -2.2, -1.6, -1.2, -0.8, -0.4, 0.3, 0.9, 1.7, 2.4]
    qs = [0.5, 1.0, 2.0, 2.5, 3.0]
    ts = [0.5, 2.0]
    n = 2
    sigma = sphere_area(n)
    cases = 0
    for alpha, q, t in itertools.product(alphas, qs, ts):
        prof = PowerProfile(coeff, alpha)
        e = q * alpha + 1.0
        tl, hd = tail_norm(prof, q, t), head_norm(prof, q, t)
        if e < 0.0:
            want = (coeff ** q * t ** e / (-e)) ** (1.0 / q)
            assert abs(float(tl) - want) <= 1e-9 * want
            assert hd.is_inf
        elif e > 0.0:
            want = (coeff ** q * t ** e / e) ** (1.0 / q)
            assert abs(float(hd) - want) <= 1e-9 * want
            assert tl.is_inf
        else:
            assert tl.is_inf and hd.is_inf
        from morreyemb.integration import ball_integral, complement_integral
        e2 = alpha + n
        bi, ci = ball_integral(prof, n, t), complement_integral(prof, n, t)
        if e2 > 0.0:
            want = sigma * coeff * t ** e2 / e2
            assert abs(float(bi) - want) <= 1e-9 * want
            assert ci.is_inf
        else:
            assert bi.is_inf
            if e2 < 0.0:
                want = sigma * coeff * t ** e2 / (-e2)
                assert abs(float(ci) - want) <= 1e-9 * want
            else:
                assert ci.is_inf
        cases += 1
    elapsed = time.monotonic() - start
    assert cases == 100
    assert elapsed < 5.0
    report(2, "power-weight norms", f"{cases} cases, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. Fubini identity: LM norm with theta = p equals a weighted Lebesgue norm


def test_03_fubini_identity():
    start = time.monotonic()
    rng = np.random.default_rng(42)
    knots = np.geomspace(1e-2, 1e2, 33)
    worst = 0.0
    for k in range(20):
        p = [1.0, 1.5, 2.0][k % 3]
        vals = rng.uniform(0.0, 2.0, 32)
        vals[rng.random(32) < 0.2] = 0.0
        f = GridFunction(knots, vals)
        v = Weight(1, PowerProfile(rng.uniform(0.5, 2.0),
                                   rng.uniform(-0.5, 0.5)))
        om_tail = PowerProfile(rng.uniform(0.5, 2.0),
                               -(1.2 + 1.5 * rng.random()) / p)
        lhs = float(lm_norm(f, p, p, om_tail, v))
        rhs = float(weighted_lp_norm(f, p, fubini_weight(om_tail, p, v,
                                                         "tail")))
        assert abs(lhs - rhs) <= 1e-6 * rhs
        worst = max(worst, abs(lhs - rhs) / rhs)
        om_head = PowerProfile(rng.uniform(0.5, 2.0),
                               (-0.8 + 2.0 * rng.random()) / p)
        lhs = float(dual_lm_norm(f, p, p, om_head, v))
        rhs = float(weighted_lp_norm(f, p, fubini_weight(om_head, p, v,
                                                         "head")))
        assert abs(lhs - rhs) <= 1e-6 * rhs
        worst = max(worst, abs(lhs - rhs) / rhs)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, "Fubini identity", f"20 instances, worst rel {worst:.1e}, "
           f"{elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. Hardy closed-form benchmarks


def test_04_hardy_benchmarks():
    start = time.monotonic()
    a = float(hardy_constant(HardyProblem("direct", 2.0, 2.0,
                                   PowerProfile(1.0, -2.0), ONE)))
    assert a == pytest.approx(math.sqrt(2.0), abs=1e-6)
    c1 = float(hardy_constant(HardyProblem(
        "reverse", 0.5, 0.5, ShiftedPowerProfile(1.0, 1.0, -4.0),
        Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0)))))
    assert c1 == pytest.approx(1.0, abs=1e-6)
    c2 = float(hardy_constant(HardyProblem(
        "reverse", 1.0, INF, ExpProfile(1.0, -1.0),
        Weight(1, ExpProfile(1.0, -2.0)))))
    assert c2 == pytest.approx(2.0, abs=1e-6)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(4, "Hardy benchmarks",
           f"sqrt2={a:.8f}, C=1,2 exact, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. unweighted reduction against the classical reference functional


def test_05_unweighted_reduction():
    start = time.monotonic()
    combos = finite = infinite = 0
    branches = set()
    for p1 in (2.0, 3.0):
        for p2 in (1.0, 1.5, 2.0, 3.0):
            if p2 > p1:
                continue
            for th in (1.0, 2.0, 4.0, INF):
                for beta in (-1.5, -2.5):
                    om = truncated_power(1.0, beta, 1.0, None)
                    prob = EmbeddingProblem("lebesgue_to_lm", 1, p1, p2, th,
                                            ONE, ONE, om)
                    emb = embedding_constant(prob)
                    ref = unweighted_reference(p1, p2, th, om, 1)
                    nu = reference_normalization(p1, p2, th, 1)
                    combos += 1
                    if p2 < p1 and not math.isinf(th):
                        branches.add("s-finite" if th < p1 else "s-infinite")
                    if emb.is_inf or ref.is_inf:
                        assert emb.is_inf and ref.is_inf
                        infinite += 1
                    else:
                        want = nu * float(ref)
                        assert abs(float(emb) - want) <= 1e-6 * want
                        finite += 1
    elapsed = time.monotonic() - start
    assert combos >= 24
    assert branches == {"s-finite", "s-infinite"}
    assert infinite >= 1
    assert elapsed < 60.0
    report(5, "unweighted reduction",
           f"{combos} combos ({finite} finite, {infinite} infinite), "
           f"both s-branches, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. averaged-operator sharp constant: oracle reaches the known value 2


def test_06_averaged_operator_sharp_constant():
    start = time.monotonic()
    p = 2.0
    cfg = OracleConfig(grid_cells=256, knot_range=(1e-9, 1e9),
                       restarts=16, ascent_sweeps=40, seed=0)
    bounds = {}
    for n in (1, 2):
        sigma, cn = sphere_area(n), ball_volume(n, 1.0)
        v_outer = PowerProfile(sigma * cn ** (-p), n - 1 - n * p)
        prob = HardyProblem("direct", p, p, v_outer,
                            Weight(n, constant(1.0)), n=n)
        from morreyemb import best_constant_lower_bound
        res = best_constant_lower_bound(prob, cfg)
        lb = float(res.lower_bound)
        assert lb >= 1.95
        assert lb <= 2.0 * (1.0 + 1e-3)
        bounds[n] = lb
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(6, "averaged-operator sharp constant",
           f"n=1: {bounds[1]:.4f}, n=2: {bounds[2]:.4f}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. two-sided equivalence suite: one finite and one infinite instance per
#    closed-form family, audited by the brute-force oracle

AUDIT_CFG = OracleConfig(grid_cells=48, restarts=2, ascent_sweeps=8, seed=11)

EXPM = ExpProfile(1.0, -1.0)
SHIFT1 = ShiftedPowerProfile(1.0, 1.0, 1.0)
SHIFT2 = ShiftedPowerProfile(1.0, 1.0, 2.0)
OMR1 = truncated_power(1.0, -1.0, 1.0, None)
OMR2 = truncated_power(1.0, -2.0, 1.0, None)
V2DEC = Weight(1, ShiftedPowerProfile(1.0, 1.0, -2.0))
PP_DECAY = PiecewisePowerProfile([1.0], [(1.0, 0.0), (1.0, -2.0)])
PP_CUT = PiecewisePowerProfile([1.0], [(1.0, 0.0), (0.0, 0.0)])

# (problem, expected constant, upper factor on lower_bound / constant: 1.0
# for hardy.d and hardy.e, the sharp constant at p = inf, where f = 1/w is
# extremal; elsewhere a recorded regression factor)
FINITE_INSTANCES = {
    "hardy.a": (HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, -2.0),
                             ONE), math.sqrt(2.0), 1.95),
    "hardy.b": (HardyProblem("direct", 2.0, 1.0, EXPM, ONE),
                math.sqrt(0.5), 1.43),
    "hardy.c": (HardyProblem("direct", 2.0, INF, EXPM, ONE),
                math.exp(-0.5), 1.01),
    "hardy.d": (HardyProblem("direct", INF, INF, EXPM, Weight(1, SHIFT2)),
                0.4117620, 1.0),
    "hardy.e": (HardyProblem("direct", INF, 1.0, EXPM, Weight(1, SHIFT2)),
                0.8073043, 1.0),
    "hardy.f": (HardyProblem("direct", 1.0, 2.0, EXPM, Weight(1, SHIFT1)),
                1.0, 1.03),
    "hardy.g": (HardyProblem("direct", 1.0, 0.5, EXPM, ONE), 0.5, 2.04),
    "hardy.h": (HardyProblem("direct", 1.0, INF, EXPM, Weight(1, SHIFT1)),
                1.0, 1.03),
    "emb.i": (EmbeddingProblem("lebesgue_to_lm", 1, 3.0, 2.0, 3.0,
                               ONE, ONE, PP_DECAY), 0.8944272, 1.13),
    "emb.ii": (EmbeddingProblem("lebesgue_to_lm", 1, 3.0, 2.0, 2.0,
                                ONE, ONE, PP_DECAY), 0.8989634, 1.22),
    "emb.iii": (EmbeddingProblem("lebesgue_to_lm", 1, 3.0, 2.0, INF,
                                 ONE, ONE, OMR1), 1.1224620, 1.00),
    "emb.iv": (EmbeddingProblem("lebesgue_to_lm", 1, INF, 2.0, INF,
                                ONE, V2DEC, OMR1), 1.0, 1.01),
    "emb.v": (EmbeddingProblem("lebesgue_to_lm", 1, INF, 2.0, 2.0,
                               ONE, V2DEC, OMR1), 1.1774100, 1.03),
    "emb.vi": (EmbeddingProblem("lebesgue_to_lm", 1, 2.0, 2.0, 2.0,
                                ONE, ONE, OMR1), 1.0, 1.03),
    "emb.vii": (EmbeddingProblem("lebesgue_to_lm", 1, 2.0, 2.0, 1.0,
                                 ONE, ONE, OMR2), math.sqrt(0.5), 1.45),
    "emb.viii": (EmbeddingProblem("lebesgue_to_lm", 1, 2.0, 2.0, INF,
                                  ONE, ONE, OMR1), 1.0, 1.00),
    "emb.ix": (EmbeddingProblem("lebesgue_to_lm", 1, INF, INF, 2.0,
                                ONE, ONE, OMR1), 1.0, 1.03),
    "emb.dual_target": (EmbeddingProblem("lebesgue_to_dual_lm", 1,
                                         3.0, 2.0, 3.0, ONE, V2DEC, PP_CUT),
                        0.4898979, 1.18),
    "emb.source.a": (EmbeddingProblem(
        "lm_to_lebesgue", 1, 1.0, 1.0, 0.5,
        Weight(1, PowerProfile(1.0, -1.0)), ONE, PowerProfile(1.0, -3.0)),
        0.25, 0.96),
    "emb.source.b": (EmbeddingProblem(
        "lm_to_lebesgue", 1, 1.0, 1.0, 2.0,
        Weight(1, PiecewisePowerProfile([1.0], [(1.0, 0.0), (1.0, -4.0)])),
        ONE, PowerProfile(1.0, -3.0)),
        math.sqrt(40.0 / 3.0), 0.60),
    "emb.dual_source.a": (EmbeddingProblem(
        "dual_lm_to_lebesgue", 1, 1.0, 1.0, 0.5,
        Weight(1, PowerProfile(1.0, 2.0)), ONE, constant(1.0)), 1.0, 0.92),
    "emb.dual_source.b": (EmbeddingProblem(
        "dual_lm_to_lebesgue", 1, 1.0, 1.0, 2.0,
        Weight(1, PiecewisePowerProfile([1.0], [(1.0, 2.0), (1.0, -2.0)])),
        ONE, constant(1.0)), 2.0 / math.sqrt(3.0), 0.72),
}

INFINITE_INSTANCES = {
    "hardy": HardyProblem("direct", 2.0, 2.0, PowerProfile(1.0, -2.0),
                          Weight(1, ShiftedPowerProfile(1.0, 1.0, -1.0))),
    "emb": EmbeddingProblem("lebesgue_to_lm", 1, 3.0, 2.0, INF,
                            ONE, ONE, constant(1.0)),
    "emb.dual_target": EmbeddingProblem("lebesgue_to_dual_lm", 1,
                                        3.0, 2.0, 3.0, ONE, ONE, PP_CUT),
    "emb.source": EmbeddingProblem("lm_to_lebesgue", 1, 1.0, 1.0, 0.5,
                                   ONE, ONE, PowerProfile(1.0, -3.0)),
    "emb.dual_source": EmbeddingProblem(
        "dual_lm_to_lebesgue", 1, 1.0, 1.0, 0.5,
        Weight(1, PowerProfile(1.0, 3.0)), ONE, constant(1.0)),
}


def test_07_equivalence_suite():
    start = time.monotonic()
    for name, (prob, want, k_rec) in FINITE_INSTANCES.items():
        rep = equivalence_report(prob, AUDIT_CFG)
        assert float(rep.constant) == pytest.approx(want, rel=1e-5), name
        assert rep.ratio_low >= 0.5, (name, rep.ratio_low)
        assert rep.ratio_low <= k_rec, (name, rep.ratio_low)
    for name, prob in INFINITE_INSTANCES.items():
        series, ratios = divergence_witness(prob, AUDIT_CFG)
        assert len(series) == len(ratios)
        assert any(math.isinf(ratios[i + 4]) or ratios[i + 4] >= 2.0 * ratios[i]
                   for i in range(len(ratios) - 4)
                   if ratios[i] > 0.0 and math.isfinite(ratios[i])), name
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    report(7, "two-sided equivalence suite",
           f"{len(FINITE_INSTANCES)} finite + {len(INFINITE_INSTANCES)} "
           f"infinite instances, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 8. Stieltjes semantics


def test_08_stieltjes_semantics():
    # integrands take arrays of points.  At theta = inf a piecewise-constant
    # omega makes h = N^(-1) a step with no density: on either side N is 1
    # on one side of t = 1 and 2 on the other, so f = 4 against the atom
    # 1/2 of h there is exact
    four = lambda t: np.full(t.shape, 4.0)
    for side, levels in ((Side.BALL, (2.0, 1.0)),
                         (Side.COMPLEMENT, (1.0, 2.0))):
        step = PiecewisePowerProfile([1.0], [(c, 0.0) for c in levels])
        got = side.stieltjes(four, 4.0, step, INF, 1.0, 1.0, np.array([1.0]))
        assert float(got) == 2.0

    # a density: f = e^(-2t) against h = e^t reads 1, plus the boundary 1
    dens = HardyProblem("reverse", 1.0, INF, ExpProfile(1.0, -1.0),
                        Weight(1, ExpProfile(1.0, -2.0)))
    got = float(hardy_constant(dens))
    assert got == pytest.approx(2.0, rel=1e-12, abs=0.0)

    # h is infinite beyond the end 10 of omega's support, where f = 1 > 0
    with pytest.raises(UndefinedStieltjes):
        Side.BALL.stieltjes(lambda t: np.ones(t.shape), 1.0,
                            truncated_power(1.0, -1.0, None, 10.0), 2.0,
                            1.0, 1.0, np.zeros(0))

    om = truncated_power(1.0, -2.0, 1.0, None)
    for q in (0.5, 1.0, 3.0):
        for t in (0.5, 1.0, 2.0):
            a = float(tail_norm(om, q, t))
            b = float(Side.BALL.outer_norm_limit(om, q, t))
            assert b == pytest.approx(a, rel=1e-6)
    report(8, "Stieltjes semantics",
           "atom exact, density 1e-12, exclusion raised, left-limit collapse")


# ---------------------------------------------------------------------------
# 9. associate norm against the exact dual norm of the Fubini weight

RECORDED_ASSOCIATE_FACTOR = 10.0


def test_09_associate_norm_cross_check():
    om = PowerProfile(1.0, -1.0)
    rng = np.random.default_rng(7)
    k256 = np.geomspace(1e-3, 1e3, 257)
    k512 = np.sort(np.concatenate([k256, np.sqrt(k256[:-1] * k256[1:])]))
    worst = 0.0
    for p in (1.5, 2.0):
        pp = float(conjugate_exponent(p))
        u = fubini_weight(om, p, ONE, "tail")
        dual = Weight(1, u.profile.power(1.0 - pp))
        for _ in range(5):
            vals = np.exp(rng.normal(0.0, 0.6, 256))
            f256 = GridFunction(k256, vals)
            f512 = GridFunction(k512, np.repeat(vals, 2))
            exact = float(weighted_lp_norm(f256, pp, dual))
            fac256 = float(associate_norm(f256, "lm", p, p, om, ONE)) / exact
            fac512 = float(associate_norm(f512, "lm", p, p, om, ONE)) / exact
            assert 1.0 / RECORDED_ASSOCIATE_FACTOR <= fac256 <= \
                RECORDED_ASSOCIATE_FACTOR
            assert abs(fac512 / fac256 - 1.0) <= 0.05
            worst = max(worst, abs(fac256 - 1.0), abs(fac512 / fac256 - 1.0))
    report(9, "associate-norm cross-check",
           f"10 functions, worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 10. sweep determinism


def test_10_sweep_determinism(tmp_path):
    doc = {"sweep": {"direction": "lebesgue_to_lm", "n": 1,
                     "p1": [2, 3], "p2": [1, 2], "theta": [2, "inf"],
                     "beta": [-1.5, -2.5]}}
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps(doc))
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["sweep", "--spec", str(spec), "--out", str(out),
                     "--seed", "3"]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    report(10, "sweep determinism", f"{len(outs[0])} bytes, identical")
