"""Closed-form Hardy-type functionals: direct, sup-operator, and reverse."""

import math

import numpy as np
import pytest

from morreyemb.errors import HypothesisViolated, InadmissibleExponents
from morreyemb.hardy import (HardyProblem, hardy_A, hardy_A_star,
                             reverse_hardy_C, reverse_hardy_C_star,
                             sup_operator_constant, sup_over_t)
from morreyemb.profiles import (ExpProfile, FnProfile,
                                PiecewisePowerProfile, PowerProfile,
                                ProductProfile, ShiftedPowerProfile, constant,
                                truncated_power)
from morreyemb.weights import Weight, tail_norm, tail_norm_left_limit

INF = math.inf


def direct(p, q, v, w, n=1):
    return HardyProblem("direct", p, q, v, Weight(n, w))


class TestDirect:
    def test_benchmark_sqrt2(self):
        prob = direct(2.0, 2.0, PowerProfile(1.0, -2.0), constant(1.0))
        assert float(hardy_A(prob)) == pytest.approx(math.sqrt(2.0),
                                                     rel=1e-9)

    def test_divergent_when_tail_too_fat(self):
        prob = direct(2.0, 2.0, PowerProfile(1.0, -2.0),
                      ShiftedPowerProfile(1.0, 1.0, -1.0))
        assert hardy_A(prob).is_inf

    @pytest.mark.parametrize("lam", [1.0, 1e-4, 1e-8])
    def test_case_a_supremum_outside_the_scan_window(self, lam):
        # 2t V(t) with V the tail integral of v peaks at the break 1e10 lam,
        # where it is 2e20 lam^2 1e-18 / lam^2 = 200; near t = 0 it is
        # only 2 lam
        v = PiecewisePowerProfile(
            [1e7 * lam, 1e10 * lam, 2e10 * lam],
            [(lam, -2.0), (0.0, 0.0), (1e-18 / lam ** 2, 0.0), (0.0, 0.0)])
        prob = direct(2.0, 2.0, v, constant(1.0))
        assert float(hardy_A(prob)) == pytest.approx(math.sqrt(200.0),
                                                     rel=1e-12, abs=0.0)

    def test_case_b_exponential(self):
        # p=2, q=1, r=2: A = (integral V_tail * v * W_ball dt)^(1/2)
        prob = direct(2.0, 1.0, ExpProfile(1.0, -1.0), constant(1.0))
        # integral e^(-t) e^(-t) 2t dt = 1/2
        assert float(hardy_A(prob)) == pytest.approx(math.sqrt(0.5),
                                                     rel=1e-7)

    def test_case_q_inf(self):
        prob = direct(2.0, INF, ExpProfile(1.0, -1.0), constant(1.0))
        # sup_t e^(-t) (2t)^(1/2) at t = 1/2
        want = math.exp(-0.5)
        assert float(hardy_A(prob)) == pytest.approx(want, rel=1e-7)

    def test_scaling_in_outer_weight(self):
        base = direct(2.0, 2.0, PowerProfile(1.0, -2.0), constant(1.0))
        scaled = direct(2.0, 2.0, PowerProfile(16.0, -2.0), constant(1.0))
        # A scales like c^(1/q) = 16^(1/2)
        assert float(hardy_A(scaled)) == pytest.approx(
            4.0 * float(hardy_A(base)), rel=1e-9)

    # v = e^(-t) t^2, w = 1, p = 2: sup_t v(t) (2t)^(1/2) at t = 5/2
    V_EXP_T2 = 2.0 ** 0.5 * 2.5 ** 2.5 * math.exp(-2.5)

    def test_case_q_inf_closed_form_v(self):
        prob = direct(2.0, INF, ProductProfile(ExpProfile(1.0, -1.0),
                                               PowerProfile(1.0, 2.0)),
                      constant(1.0))
        assert float(hardy_A(prob)) == pytest.approx(self.V_EXP_T2,
                                                     rel=1e-13)

    def test_case_q_inf_evaluator_v_reads_v_once_per_t(self):
        # the outer esssup of v, sampled at 2049 points per t, made 13.6
        # million calls of v and read 4.6e-13 low
        calls = []

        def v(t):
            calls.append(t)
            return math.exp(-t) * t * t

        prob = direct(2.0, INF, FnProfile(v), constant(1.0))
        assert float(hardy_A(prob)) == pytest.approx(self.V_EXP_T2,
                                                     rel=1e-13)
        assert len(calls) < 100_000

    @pytest.mark.parametrize("p", [0.25, 0.5])
    def test_direct_requires_p_at_least_one(self, p):
        with pytest.raises(InadmissibleExponents):
            direct(p, 2.0, constant(1.0), constant(1.0))

    def test_mirror_variant_finite(self):
        prob = HardyProblem("direct_complement", 2.0, 2.0,
                            ExpProfile(1.0, -1.0),
                            Weight(1, ShiftedPowerProfile(1.0, 1.0, 3.0)))
        assert math.isfinite(float(hardy_A_star(prob)))


class TestSupOperator:
    def test_constant_data(self):
        # ||v(r) esssup_{B_r} w^{-1}||_q with v = e^{-s}, w = 1:
        # (integral e^{-2s})^{1/2} = sqrt(1/2)
        prob = HardyProblem("sup", INF, 2.0, ExpProfile(1.0, -1.0),
                            Weight(1, constant(1.0)))
        assert float(sup_operator_constant(prob)) == pytest.approx(
            math.sqrt(0.5), rel=1e-7)

    def test_q_inf_reads_v_at_each_t(self):
        # sup_t e^{-t} t^2 * esssup_{(0,t)} s = 27 e^{-3} at t = 3; the
        # outer esssup of an evaluator's v per t read it 1e-12 low
        prob = HardyProblem("sup", INF, INF,
                            FnProfile(lambda t: math.exp(-t) * t * t),
                            Weight(1, PowerProfile(1.0, -1.0)))
        assert float(sup_operator_constant(prob)) == pytest.approx(
            27.0 * math.exp(-3.0), rel=1e-14)

    @pytest.mark.parametrize("variant", ["sup", "sup_complement"])
    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_sup_variants_require_p_inf(self, variant, p):
        # the source norm is ||f w||_inf: a finite p is read nowhere
        with pytest.raises(InadmissibleExponents):
            HardyProblem(variant, p, 2.0, ExpProfile(1.0, -1.0),
                         Weight(1, constant(1.0)))

    def test_scan_below_the_sample_grid_of_an_evaluator(self):
        # v = t^-2 wins at the low end of the scan, which then reads the
        # esssup of w^-1 = 1 over (0, t) with t < 1e-9, below every point
        # of the sample: only the limit at t reads it, as an evaluator
        # has no limit at 0+
        prob = HardyProblem("sup", INF, INF, PowerProfile(1.0, -2.0),
                            Weight(1, FnProfile(lambda t: 1.0)))
        assert float(sup_operator_constant(prob)) == INF


class TestReverse:
    def test_benchmark_one(self):
        prob = HardyProblem("reverse", 0.5, 0.5,
                            ShiftedPowerProfile(1.0, 1.0, -4.0),
                            Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0)))
        assert float(reverse_hardy_C(prob)) == pytest.approx(1.0, rel=1e-6)

    def test_benchmark_two(self):
        prob = HardyProblem("reverse", 1.0, INF, ExpProfile(1.0, -1.0),
                            Weight(1, ExpProfile(1.0, -2.0)))
        assert float(reverse_hardy_C(prob)) == pytest.approx(2.0, rel=1e-6)

    def test_mirror_benchmark(self):
        prob = HardyProblem("reverse_complement", 1.0, INF,
                            ExpProfile(1.0, 1.0), Weight(1, constant(1.0)))
        assert float(reverse_hardy_C_star(prob)) == pytest.approx(1.0,
                                                                  rel=1e-6)

    def test_mirror_power_benchmark(self):
        prob = HardyProblem("reverse_complement", 0.5, 0.5,
                            PowerProfile(1.0, -0.5),
                            Weight(1, PowerProfile(1.0, 0.5)))
        assert float(reverse_hardy_C_star(prob)) == pytest.approx(0.75,
                                                                  rel=1e-6)

    def test_hypothesis_violated_when_tail_norm_infinite(self):
        prob = HardyProblem("reverse", 0.5, 0.5, constant(1.0),
                            Weight(1, ShiftedPowerProfile(1.0, 1.0, -3.0)))
        with pytest.raises(HypothesisViolated):
            reverse_hardy_C(prob)

    def test_hypothesis_violated_names_first_infinite_head_norm(self):
        # head norms are finite up to t = 10 and infinite beyond; the
        # sampled t are 1e-8, 1e-7, ..., 1e2
        u = PiecewisePowerProfile([1.0, 10.0], [(1.0, 0.0), (1.0, -1.0),
                                                (math.inf, 0.0)])
        prob = HardyProblem("reverse_complement", 0.5, 0.5, u,
                            Weight(1, constant(1.0)))
        with pytest.raises(HypothesisViolated) as err:
            reverse_hardy_C_star(prob)
        assert str(err.value) == "||u||_{q,(0,100)} is infinite"

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_reverse_requires_p_at_most_one(self, p):
        with pytest.raises(InadmissibleExponents):
            HardyProblem("reverse", p, 2.0, constant(1.0),
                         Weight(1, constant(1.0)))


class TestLeftLimitCollapse:
    """For q < inf, the left-limit tail norm equals the plain tail norm."""

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("q", [0.5, 1.0, 3.0])
    def test_collapse_for_finite_q(self, q, t):
        om = truncated_power(1.0, -2.0, 1.0, None)
        a = float(tail_norm(om, q, t))
        b = float(tail_norm_left_limit(om, q, t))
        assert b == pytest.approx(a, rel=1e-7)

    def test_no_collapse_for_q_inf_at_jump(self):
        om = truncated_power(1.0, 0.0, None, 1.0)  # drops to 0 at rho = 1
        a = float(tail_norm(om, INF, 1.0))
        b = float(tail_norm_left_limit(om, INF, 1.0))
        assert a == 0.0
        assert b == 1.0


class TestSupOverT:
    """The zoom of sup_over_t stops once the maximum is known, and not
    before."""

    GRID = np.log(np.geomspace(1e-6, 1e6, 512))

    @pytest.mark.parametrize("x0", [
        GRID[260] + 0.3137 * (GRID[261] - GRID[260]),   # 17 widths off
        GRID[260] + 2e-6,    # next to a scan point, the zoom's centre
        GRID[260] - 1e-6,
    ])
    def test_sharp_interior_peak(self, counted, x0):
        # 3 / (1 + ((log t - x0) / w)^2) is 1e-3 wide in log t and peaks
        # at 3; a round that finds no higher point than the last does not
        # end the zoom while the best point's neighbours lie far below it
        w = 1e-3
        fn, calls = counted(
            lambda t: 3.0 / (1.0 + ((np.log(t) - x0) / w) ** 2))
        got = float(sup_over_t(fn))
        assert abs(got - 3.0) <= 3e-14
        assert calls[0] >= 512 and len(calls) - 1 <= 4

    def test_smooth_peak_next_to_a_breakpoint(self, counted):
        # a breakpoint 1e-6 from a smooth maximum is not taken for a kink
        x0 = 0.25
        fn, calls = counted(lambda t: 2.0 * np.exp(-(np.log(t) - x0) ** 2))
        got = float(sup_over_t(fn, (math.exp(x0 + 1e-6),)))
        assert abs(got - 2.0) <= 2e-14

    def test_kink_at_a_breakpoint_needs_one_zoom_round(self, counted):
        # min(t / 7, 7 / t) peaks at its breakpoint 7, a scan point, and
        # the first zoom round sees it rise to 7 on straight lines
        fn, calls = counted(lambda t: np.minimum(t / 7.0, 7.0 / t))
        assert float(sup_over_t(fn, (7.0,))) == 1.0
        assert len(calls) == 2
