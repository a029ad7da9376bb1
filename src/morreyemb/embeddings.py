"""Embedding constants between weighted Lebesgue and local Morrey-type
spaces: case classification, the closed-form constant functionals for all
four directions, Muckenhoupt-gated maximal-operator constants, associate
space norms, and the unweighted power-weight reference functional.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import GateFailed, HypothesisViolated, Inadmissible
from .extreal import ExtReal, _mul, _power, conjugate_exponent
from .hardy import (_breaks, _dual_functional, _halfline,
                    _primal_functional, sup_over_t)
from .integration import ball_volume
from .norms import GridFunction, _InnerNorm
from .profiles import PowerProfile, RadialProfile
from .weights import (Side, Weight, default_ball_family, lp_norm_interval,
                      muckenhoupt_ap_estimate, omega_class_check, tail_norm)

__all__ = [
    "EmbeddingProblem",
    "CaseTag",
    "MaximalGateReport",
    "classify_case",
    "embedding_constant",
    "maximal_operator_constant",
    "associate_norm",
    "unweighted_reference",
    "reference_normalization",
    "DIRECTIONS",
]

log = logging.getLogger(__name__)

_INF = math.inf

DIRECTIONS = ("lebesgue_to_lm", "lebesgue_to_dual_lm",
              "lm_to_lebesgue", "dual_lm_to_lebesgue")


@dataclass(frozen=True)
class EmbeddingProblem:
    """An embedding between a weighted Lebesgue space and a (dual) local
    Morrey-type space with outer exponent theta and outer weight omega."""

    direction: str
    n: int
    p1: float
    p2: float
    theta: float
    v1: Weight
    v2: Weight
    omega: RadialProfile

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        for nm in ("p1", "p2", "theta"):
            val = float(getattr(self, nm))
            if not val > 0:
                raise Inadmissible(f"{nm} must be positive")
            object.__setattr__(self, nm, val)
        if self.v1.dimension != self.n or self.v2.dimension != self.n:
            raise ValueError("weight dimensions disagree with n")

    @property
    def dual_side(self):
        """True when the Morrey-type space is the complement-ball kind."""
        return self.direction in ("lebesgue_to_dual_lm", "dual_lm_to_lebesgue")

    @property
    def side(self):
        """The side of the Morrey-type space."""
        return Side.COMPLEMENT if self.dual_side else Side.BALL

    @property
    def morrey_is_target(self):
        return self.direction in ("lebesgue_to_lm", "lebesgue_to_dual_lm")


@dataclass(frozen=True)
class CaseTag:
    direction: str  # "lebesgue_to_lm", "lm_to_lebesgue", ...
    case_id: str  # "i".."ix" or "a"/"b"
    notes: str = ""

    def __str__(self):
        return f"{self.direction}.{self.case_id}"


def classify_case(prob: EmbeddingProblem) -> CaseTag:
    """The unique admissible case for the problem's exponent triple.

    The boundary theta = p1 belongs to the sup-form case (i); the strict
    inequality theta < p1 selects the integral form (ii).
    """
    p1, p2, th = prob.p1, prob.p2, prob.theta
    d = prob.direction
    if prob.morrey_is_target:
        if math.isinf(p2):
            if math.isinf(p1) and not math.isinf(th):
                return CaseTag(d, "ix", "p1 = p2 = inf, theta < inf")
            raise Inadmissible(
                "p2 = inf requires p1 = inf and finite theta")
        if math.isinf(p1):
            if math.isinf(th):
                return CaseTag(d, "iv", "p1 = inf, theta = inf")
            return CaseTag(d, "v", "p1 = inf, theta < inf")
        if p2 < p1:
            if math.isinf(th):
                return CaseTag(d, "iii", "p2 < p1, theta = inf")
            if p1 <= th:
                return CaseTag(d, "i", "p2 < p1 <= theta < inf")
            return CaseTag(d, "ii", "p2 < p1, theta < p1")
        if p2 == p1:
            if math.isinf(th):
                return CaseTag(d, "viii", "p1 = p2, theta = inf")
            if p1 <= th:
                return CaseTag(d, "vi", "p1 = p2 <= theta < inf")
            return CaseTag(d, "vii", "p1 = p2, theta < p1")
        raise Inadmissible(f"p1 < p2 is not characterized ({p1} < {p2})")
    # Morrey-type source
    if math.isinf(p2) or math.isinf(p1):
        raise Inadmissible("Morrey-source directions require p1 <= p2 < inf")
    if p1 > p2:
        raise Inadmissible(f"requires p1 <= p2, got {p1} > {p2}")
    if th <= p1:
        return CaseTag(d, "a", "theta <= p1 <= p2 < inf")
    return CaseTag(d, "b", "p1 < theta <= inf")


def _inner_profile(prob: EmbeddingProblem):
    """The weight g = v1^(-1/p1) v2^(1/p2) and exponent sigma, with
    1/sigma = 1/p2 - 1/p1, of the inner norm I(t) = ||g||_sigma over the
    side's region in the Lebesgue-source functionals; a weight enters to
    the power -1 or 1 at an infinite exponent."""
    p1, p2 = prob.p1, prob.p2
    v1p, v2p = prob.v1.profile, prob.v2.profile
    if math.isinf(p1) and math.isinf(p2):
        return v1p.power(-1.0).times(v2p), _INF
    if math.isinf(p1):
        return v1p.power(-1.0).times(v2p.power(1.0 / p2)), p2
    if p1 == p2:
        p = p1
        return v1p.power(-1.0 / p).times(v2p.power(1.0 / p)), _INF
    return (v1p.power(-1.0 / p1).times(v2p.power(1.0 / p2)),
            p1 * p2 / (p1 - p2))


def _source_profile(prob: EmbeddingProblem):
    """Ratio weight and exponent of the main2-family formulas:
    v1^{1/p1} v2^{-1/p2} with exponent p1 p2 / (p2 - p1)."""
    p1, p2 = prob.p1, prob.p2
    g = prob.v1.profile.power(1.0 / p1).times(prob.v2.profile.power(-1.0 / p2))
    sigma = _INF if p1 == p2 else p1 * p2 / (p2 - p1)
    return g, sigma


def _check_omega(prob: EmbeddingProblem):
    member = omega_class_check(prob.omega, prob.theta)
    if not prob.side.in_omega(member):
        dual = "dual " if prob.dual_side else ""
        raise HypothesisViolated(
            f"omega is not in the {dual}Omega_theta class "
            f"(witness t = {member.witness_t:g})")


def embedding_constant(prob: EmbeddingProblem) -> ExtReal:
    """The closed-form functional equivalent to the embedding constant.

    The value is the right-hand side of the matching characterization; the
    true operator norm agrees with it up to exponent-dependent factors.
    """
    tag = classify_case(prob)
    _check_omega(prob)
    log.debug("evaluating case %s (%s)", tag, tag.notes)
    if prob.morrey_is_target:
        return _lebesgue_to_morrey(prob)
    return _morrey_to_lebesgue(prob)


def _lebesgue_to_morrey(prob) -> ExtReal:
    n, side = prob.n, prob.side
    g, sigma = _inner_profile(prob)
    # (i), (iii), (iv), (vi), (viii) for p1 <= theta, (ii), (v), (vii),
    # (ix) otherwise; a Lebesgue source pairs with the side's own region
    return _primal_functional(
        side, lambda t: side.region_norm(g, sigma, n, t), prob.omega,
        prob.theta, prob.p1, _breaks(prob.omega, g))


def _morrey_to_lebesgue(prob) -> ExtReal:
    n, side = prob.n, prob.side
    g, sigma = _source_profile(prob)
    # (a) for theta <= p1, (b) otherwise; a Morrey-type source pairs with
    # the other side's region
    return _dual_functional(
        side, lambda t: side.other.region_norm(g, sigma, n, t), sigma,
        prob.omega, prob.theta, prob.p1, _breaks(prob.omega, g))


@dataclass(frozen=True)
class MaximalGateReport:
    estimate: ExtReal
    refined_estimate: ExtReal
    passed: bool
    message: str


def maximal_operator_constant(prob: EmbeddingProblem):
    """Embedding constant together with a sampled Muckenhoupt gate on v1.

    The value characterizes the maximal-operator norm only when v1 lies in
    the A_{p1} class; the gate reports a sampled estimate at two refinement
    levels and flags divergence instead of raising.
    """
    if not prob.morrey_is_target:
        raise Inadmissible("maximal-operator constants require a "
                           "Lebesgue-source direction")
    p1 = prob.p1
    if not 1.0 < p1 < _INF:
        raise Inadmissible("requires 1 < p1 < inf")
    value = embedding_constant(prob)
    coarse = muckenhoupt_ap_estimate(prob.v1, p1)
    fine_family = default_ball_family(
        radii=np.geomspace(1e-4, 1e4, 25),
        offset_factors=(0.0, 0.5, 1.0, 3.0, 10.0, 30.0))
    fine = muckenhoupt_ap_estimate(prob.v1, p1, fine_family)
    if fine.is_inf or (coarse > 0 and float(fine) > 4.0 * float(coarse)):
        gate = MaximalGateReport(coarse, fine, False,
                                 GateFailed("sampled A_p estimate grows "
                                            "under refinement").args[0])
    else:
        gate = MaximalGateReport(coarse, fine, True, "stable under refinement")
    return value, gate


def associate_norm(f: GridFunction, kind, p, theta, omega: RadialProfile,
                   v: Weight) -> ExtReal:
    """Norm of f in the associate space of LM (kind="lm") or of the
    complementary space (kind="dual_lm")."""
    p = float(p)
    th = float(theta)
    if not 1.0 <= p < _INF:
        raise Inadmissible("requires 1 <= p < inf")
    if kind not in ("lm", "dual_lm"):
        raise ValueError("kind must be 'lm' or 'dual_lm'")
    pp = float(conjugate_exponent(p))
    if math.isinf(pp):
        dual_w = Weight(v.dimension, v.profile.power(-1.0))
    else:
        dual_w = Weight(v.dimension, v.profile.power(1.0 - pp))

    side = Side.BALL if kind == "lm" else Side.COMPLEMENT
    # a prefix-sum evaluator of the dual norm over the other side's region:
    # one lookup answers a whole array of radii
    return _dual_functional(
        side, _InnerNorm(f, pp, dual_w, side.other), pp, omega, th, 1.0,
        _breaks(omega) + tuple(f.knots))


def unweighted_reference(p1, p2, theta, omega: RadialProfile, n) -> ExtReal:
    """The classical unweighted functional for the Lebesgue-to-LM
    embedding: a theta-norm of r^{n(1/p2 - 1/p1)} omega(r), or for
    p2 < p1 < infinity with finite theta the s-norm of
    t^{n(1/p2-1/p1)-1/s} ||omega||_{theta,(t,inf)}."""
    p1, p2, th = float(p1), float(p2), float(theta)
    if not 0.0 < p2 <= p1:
        raise Inadmissible("requires 0 < p2 <= p1 <= inf")
    delta = n * (1.0 / p2 - (0.0 if math.isinf(p1) else 1.0 / p1))
    if p1 == p2 or math.isinf(th):
        prof = omega.times(PowerProfile(1.0, delta))
        return lp_norm_interval(prof, th, (0.0, _INF))
    s = _s_exponent(p1, th) if th < p1 else _INF
    if math.isinf(s):
        return sup_over_t(
            lambda t: _mul(t ** delta, tail_norm(omega, th, t)),
            _breaks(omega))

    def integrand(t):
        return _mul(t ** (delta * s - 1.0), _power(tail_norm(omega, th, t), s))

    val = _halfline(integrand, _breaks(omega))
    return ExtReal(_power(val, 1.0 / s))


def reference_normalization(p1, p2, theta, n) -> float:
    """Exact factor nu with embedding_constant = nu * unweighted_reference
    for identity weights v1 = v2 = 1.

    The two functionals integrate the same tail norms against different
    but proportional measures; the proportionality constants follow from
    the ball-volume normalization and an integration by parts.
    """
    p1, p2, th = float(p1), float(p2), float(theta)
    cn = ball_volume(n, 1.0)
    delta = (1.0 / p2 - (0.0 if math.isinf(p1) else 1.0 / p1))
    if p1 == p2:
        if math.isinf(th) or th >= p1 or math.isinf(p1):
            return 1.0
        s = p1 * th / (p1 - th)
        return ((p1 - th) / p1) ** (1.0 / s)
    vol_factor = cn ** delta
    if math.isinf(th) or th >= p1:
        return vol_factor
    s = _s_exponent(p1, th)
    return vol_factor * (n * delta * th) ** (1.0 / s)


def _s_exponent(p1, th):
    """s = p1 theta / (p1 - theta) for theta < p1, with its limit theta at
    p1 = inf."""
    return th if math.isinf(p1) else p1 * th / (p1 - th)
