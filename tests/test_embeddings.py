"""Case classification, embedding constants, and associate norms."""

import itertools
import math

import numpy as np
import pytest

from morreyemb.embeddings import (EmbeddingProblem, associate_norm,
                                  classify_case, embedding_constant,
                                  maximal_operator_constant,
                                  reference_normalization,
                                  unweighted_reference)
from morreyemb.errors import HypothesisViolated, InadmissibleExponents
from morreyemb.hardy import HardyProblem, hardy_constant
from morreyemb.norms import GridFunction, fubini_weight, weighted_lp_norm
from morreyemb.profiles import (ExpProfile, PiecewisePowerProfile,
                                PowerProfile, constant, truncated_power)
from morreyemb.weights import Weight

INF = math.inf

ONE = Weight(1, constant(1.0))
OMEGA = truncated_power(1.0, -1.0, 1.0, None)        # in Omega_theta, theta>=1
OMEGA2 = truncated_power(1.0, -2.0, 1.0, None)


def problem(direction, p1, p2, theta, v1=ONE, v2=ONE, omega=OMEGA, n=1):
    return EmbeddingProblem(direction, n, p1, p2, theta, v1, v2, omega)


class TestClassification:
    @pytest.mark.parametrize("p1,p2,theta,case", [
        (3.0, 2.0, 4.0, "i"),
        (3.0, 2.0, 3.0, "i"),     # theta = p1 belongs to the sup branch
        (3.0, 2.0, 2.0, "ii"),
        (3.0, 2.0, INF, "iii"),
        (INF, 2.0, INF, "iv"),
        (INF, 2.0, 3.0, "v"),
        (2.0, 2.0, 3.0, "vi"),
        (2.0, 2.0, 1.0, "vii"),
        (2.0, 2.0, INF, "viii"),
        (INF, INF, 3.0, "ix"),
    ])
    def test_morrey_target_cases(self, p1, p2, theta, case):
        tag = classify_case(problem("lebesgue_to_lm", p1, p2, theta))
        assert tag.case_id == case

    @pytest.mark.parametrize("p1,p2,theta,case", [
        (1.0, 2.0, 0.5, "a"),
        (2.0, 2.0, 2.0, "a"),
        (1.0, 2.0, 3.0, "b"),
        (2.0, 3.0, INF, "b"),
    ])
    def test_morrey_source_cases(self, p1, p2, theta, case):
        tag = classify_case(problem("lm_to_lebesgue", p1, p2, theta))
        assert tag.case_id == case

    def test_source_rejects_p1_above_p2(self):
        with pytest.raises(InadmissibleExponents):
            classify_case(problem("lm_to_lebesgue", 3.0, 2.0, 1.0))

    def test_target_rejects_p1_below_p2(self):
        with pytest.raises(InadmissibleExponents):
            classify_case(problem("lebesgue_to_lm", 2.0, 3.0, 1.0))

    def test_partition_is_exclusive_and_exhaustive(self):
        grid = [0.5, 1.0, 1.5, 2.0, 3.0, INF]
        for direction in ("lebesgue_to_lm", "lm_to_lebesgue"):
            for p1, p2, theta in itertools.product(grid, grid, grid):
                try:
                    prob = problem(direction, p1, p2, theta)
                except InadmissibleExponents:
                    continue
                try:
                    tag = classify_case(prob)
                except InadmissibleExponents:
                    continue
                assert tag.case_id  # exactly one case label resolved


class TestEmbeddingConstant:
    def test_case_vi_is_full_norm_of_omega(self):
        prob = problem("lebesgue_to_lm", 2.0, 2.0, 2.0, omega=OMEGA)
        # ||omega||_2 over (0,inf) = (integral_1^inf t^(-2))^(1/2) = 1
        assert float(embedding_constant(prob)) == pytest.approx(1.0,
                                                                rel=1e-8)

    def test_omega_class_enforced(self):
        bad = PowerProfile(1.0, -0.1)  # tail norms infinite for theta=2
        with pytest.raises(HypothesisViolated):
            embedding_constant(problem("lebesgue_to_lm", 2.0, 2.0, 2.0,
                                       omega=bad))

    def test_main2_closed_form(self):
        prob = problem("lm_to_lebesgue", 1.0, 1.0, 0.5,
                       v1=Weight(1, PowerProfile(1.0, -1.0)),
                       omega=PowerProfile(1.0, -3.0))
        assert float(embedding_constant(prob)) == pytest.approx(0.25,
                                                                rel=1e-6)

    def test_main200_closed_form(self):
        prob = problem("dual_lm_to_lebesgue", 1.0, 1.0, 0.5,
                       v1=Weight(1, PowerProfile(1.0, 2.0)),
                       omega=constant(1.0))
        assert float(embedding_constant(prob)) == pytest.approx(1.0,
                                                                rel=1e-6)

    def test_source_jump_off_omega_breaks(self):
        # p1 = p2 = 2, theta = sigma = inf: the integral of
        # f = (esssup_{|x| > t} g)^2 against h = (esssup_(t, inf) omega)^-2.
        # g = v1^(1/2) is 1 up to 2 and 2 r^-3 beyond, a jump of f at 2,
        # not a break of omega = min(1, 1/r): h = 1 up to 1, then t^2.
        # int f dh = int_1^2 2t dt + int_2^inf 4 t^-6 2t dt = 3 + 1/8,
        # and esssup g / esssup omega = 1 adds the boundary term.
        v1 = Weight(1, PiecewisePowerProfile([2.0], [(1.0, 0.0),
                                                     (4.0, -6.0)]))
        om = PiecewisePowerProfile([1.0], [(1.0, 0.0), (1.0, -1.0)])
        prob = problem("lm_to_lebesgue", 2.0, 2.0, INF, v1=v1, omega=om)
        assert classify_case(prob).case_id == "b"
        assert float(embedding_constant(prob)) == pytest.approx(
            math.sqrt(3.125) + 1.0, rel=1e-8)

    def test_exponential_omega_is_in_omega_theta(self):
        # omega = e^(-t), theta = 3: N(t) = 3^(-1/3) e^(-t), whose norms
        # underflow far out.  Case vi is sup_t N(t) = N(0); for the converse
        # with v1 = e^(-4t), f = e^(-12t) against h = N^(-6) = 9 e^(6t)
        # gives 9, and the boundary term is 1 / N(0)
        om = ExpProfile(1.0, -1.0)
        target = problem("lebesgue_to_lm", 2.0, 2.0, 3.0, omega=om)
        assert float(embedding_constant(target)) == pytest.approx(
            3.0 ** (-1.0 / 3.0), rel=1e-12, abs=0.0)
        source = problem("lm_to_lebesgue", 2.0, 2.0, 3.0,
                         v1=Weight(1, ExpProfile(1.0, -4.0)), omega=om)
        assert float(embedding_constant(source)) == pytest.approx(
            2.0 * 3.0 ** (1.0 / 3.0), rel=1e-12, abs=0.0)
        # with v1 = 1, f = 1 against h = 9 e^(6t), which overflows past
        # t = 118 but is finite everywhere, so the constant is inf; a cut
        # read from sampled values of h raised UndefinedStieltjes there
        flat = problem("lm_to_lebesgue", 2.0, 2.0, 3.0, omega=om)
        assert float(embedding_constant(flat)) == INF

    @pytest.mark.parametrize("k", [-2, 1, 3])
    def test_common_weight_scaling_cancels(self, k):
        c = 2.0 ** k
        p1, p2 = 3.0, 2.0
        base = problem("lebesgue_to_lm", p1, p2, 4.0, omega=OMEGA2)
        scaled = problem("lebesgue_to_lm", p1, p2, 4.0,
                         v1=Weight(1, constant(c)),
                         v2=Weight(1, constant(c)), omega=OMEGA2)
        factor = c ** (1.0 / p2 - 1.0 / p1)
        assert float(embedding_constant(scaled)) == pytest.approx(
            factor * float(embedding_constant(base)), rel=1e-9)


# the direct Hardy cases (a)-(h), one (p, q) pair each
HARDY_PAIRS = [(2.0, 3.0), (3.0, 2.0), (2.0, INF), (INF, INF), (INF, 1.0),
               (1.0, 2.0), (1.0, 0.5), (1.0, INF)]


class TestHardyReduction:
    """The direct Hardy inequality on a side is the Lebesgue-to-(dual) LM
    embedding with p1 = p, p2 = 1, theta = q, v1 = w, v2 = 1 and
    omega = v^(1/q) (v itself at q = inf)."""

    @pytest.mark.parametrize("v,w", [
        (ExpProfile(1.0, -1.0),
         PiecewisePowerProfile([1.0], [(1.0, 0.0), (1.0, 3.0)])),
        (PiecewisePowerProfile([1.0], [(1.0, 0.0), (1.0, -3.0)]),
         ExpProfile(1.0, 1.0)),
    ])
    @pytest.mark.parametrize("p,q", HARDY_PAIRS)
    @pytest.mark.parametrize("variant,direction", [
        ("direct", "lebesgue_to_lm"),
        ("direct_complement", "lebesgue_to_dual_lm"),
    ])
    def test_hardy_is_the_embedding_with_p2_one(self, variant, direction, p,
                                                q, v, w):
        want = float(hardy_constant(HardyProblem(variant, p, q, v,
                                                 Weight(1, w))))
        omega = v if math.isinf(q) else v.power(1.0 / q)
        got = float(embedding_constant(problem(
            direction, p, 1.0, q, v1=Weight(1, w), omega=omega)))
        assert 0.0 < want < INF
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)


class TestUnweightedReference:
    @pytest.mark.parametrize("p1,p2,theta", [
        (2.0, 2.0, 3.0),    # identical exponents
        (3.0, 2.0, 4.0),    # s = inf branch
        (3.0, 2.0, 2.0),    # s finite branch
        (3.0, 2.0, INF),
    ])
    def test_agrees_with_embedding_constant(self, p1, p2, theta):
        om = OMEGA2
        prob = problem("lebesgue_to_lm", p1, p2, theta, omega=om)
        emb = float(embedding_constant(prob))
        ref = float(unweighted_reference(p1, p2, theta, om, 1))
        nu = reference_normalization(p1, p2, theta, 1)
        assert emb == pytest.approx(nu * ref, rel=1e-6)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("p2", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("theta", [1.0, 2.0, 4.0, INF])
    @pytest.mark.parametrize("beta", [-1.5, -2.5])
    def test_p1_inf_uses_the_limit_s_theta(self, n, p2, theta, beta):
        # p1 = inf with finite theta: s = p1 theta / (p1 - theta) -> theta
        one = Weight(n, constant(1.0))
        om = truncated_power(1.0, beta, 1.0, None)
        prob = problem("lebesgue_to_lm", INF, p2, theta, one, one, om, n)
        emb = embedding_constant(prob)
        ref = unweighted_reference(INF, p2, theta, om, n)
        nu = reference_normalization(INF, p2, theta, n)
        assert math.isfinite(nu)
        if emb.is_inf or ref.is_inf:
            assert emb.is_inf and ref.is_inf
        else:
            assert float(emb) == pytest.approx(nu * float(ref), rel=1e-6)


    def test_fast_tail_sweep_row_reads_its_closed_form(self):
        # n = 2, p1 = 2, p2 = 1, theta = 1: s = 2 and delta = 1, so the
        # reference is (int_0^inf t T(t)^2 dt)^(1/2) with the tail norm
        # T(t) = max(t, 1)^-3 / 3 of omega = r^-4 on (1, inf):
        # 1/18 + 1/36 = 1/12.  The walk up from 2 has pieces of ratio 1/16,
        # whose rest it must add when it stops on a negligible piece.
        om = truncated_power(1.0, -4.0, 1.0, None)
        ref = float(unweighted_reference(2.0, 1.0, 1.0, om, 2))
        assert ref == pytest.approx(1.0 / math.sqrt(12.0), rel=1e-14,
                                    abs=0.0)


class TestMaximalGate:
    def test_unweighted_gate_is_unit(self):
        prob = problem("lebesgue_to_lm", 2.0, 2.0, 2.0, omega=OMEGA)
        value, gate = maximal_operator_constant(prob)
        assert gate.passed
        assert float(gate.estimate) == pytest.approx(1.0, rel=1e-6)
        assert float(value) == pytest.approx(1.0, rel=1e-8)

    def test_requires_p1_strictly_between_one_and_inf(self):
        prob = problem("lebesgue_to_lm", 1.0, 1.0, 2.0, omega=OMEGA)
        with pytest.raises(InadmissibleExponents):
            maximal_operator_constant(prob)


class TestAssociateNorm:
    def test_zero_function(self):
        f = GridFunction.log_spaced(16, 1e-2, 1e2)
        assert float(associate_norm(f, "lm", 2.0, 2.0, OMEGA, ONE)) == 0.0

    def test_theta_le_one_sup_form_power_data(self):
        # f = indicator of (1, 2], theta=1/2, p=1, omega supported near 0
        knots = np.array([1e-3, 1.0, 2.0, 1e3])
        f = GridFunction(knots, np.array([0.0, 1.0, 0.0]))
        om = PowerProfile(1.0, -3.0)
        got = float(associate_norm(f, "lm", 1.0, 0.5, om, ONE))
        # sup_t ||f||_{inf, B_t^c} / ||omega||_{1/2,(t,inf)} with
        # ||omega||_{1/2,(t,inf)} = 4/t: sup of t/4 over t < 2 is 1/2
        assert got == pytest.approx(0.5, rel=1e-6)

    def test_matches_holder_dual_within_factor(self):
        p = 2.0
        om = PowerProfile(1.0, -1.0)
        u = fubini_weight(om, p, ONE, "tail")
        knots = np.geomspace(1e-2, 1e2, 33)
        mids = np.sqrt(knots[:-1] * knots[1:])
        f = GridFunction(knots, np.exp(-mids))
        exact = float(weighted_lp_norm(
            f, 2.0, Weight(1, u.profile.power(-1.0))))
        got = float(associate_norm(f, "lm", p, p, om, ONE))
        assert 0.1 * exact <= got <= 10.0 * exact
