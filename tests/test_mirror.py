"""Ball and complement functionals are images of each other under the
inversion t -> 1/t.

For each mirrored pair, the ball-side functional on (v, w) equals the
complement-side functional on the inverted data.  A weight that acts as a
density keeps the Jacobian of the inversion; a multiplier at an infinite
exponent does not.  Power and piecewise-power profiles stay closed-form
under the inversion, so both sides run the same closed-form calculus.
"""

import math

import pytest

from morreyemb.embeddings import EmbeddingProblem, embedding_constant
from morreyemb.hardy import HardyProblem, hardy_constant
from morreyemb.profiles import PiecewisePowerProfile, PowerProfile
from morreyemb.weights import Weight

INF = math.inf


def invert(profile, beta):
    """y -> profile(1/y) * y^beta."""
    return PiecewisePowerProfile(
        [1.0 / b for b in reversed(profile.breaks)],
        [(c, beta - alpha) for c, alpha in reversed(profile.segments)])


def pw(a0, a1):
    """rho^a0 on (0, 1], rho^a1 beyond."""
    return PiecewisePowerProfile([1.0], [(1.0, a0), (1.0, a1)])


def density_exp(beta, p):
    """The Jacobian exponent of a density, dropped at p = inf."""
    return 0.0 if math.isinf(p) else beta


def assert_mirror(ball, complement):
    ball, complement = float(ball), float(complement)
    if math.isinf(ball) or math.isinf(complement):
        assert ball == complement
    else:
        assert complement == pytest.approx(ball, rel=1e-9)


DIRECT_CASES = {"a": (2.0, 3.0), "b": (3.0, 1.5), "c": (2.0, INF),
                "d": (INF, INF), "e": (INF, 2.0), "f": (1.0, 2.0),
                "g": (1.0, 0.5), "h": (1.0, INF)}
# finite for every case in both dimensions
DIRECT_FINITE = (pw(-0.5, -3.0), pw(-0.5, 2.0))
DIRECT_POWER = (PowerProfile(1.0, -2.0), PowerProfile(1.0, 0.0))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("case", sorted(DIRECT_CASES))
@pytest.mark.parametrize("data", ["piecewise", "power"])
def test_direct(case, n, data):
    p, q = DIRECT_CASES[case]
    v, w = DIRECT_FINITE if data == "piecewise" else DIRECT_POWER
    v_star = invert(v, density_exp(-2.0, q))
    w_star = invert(w, 2.0 * n if math.isinf(p) else 2.0 * n * (p - 1.0))
    ball = hardy_constant(HardyProblem("direct", p, q, v, Weight(n, w)))
    comp = hardy_constant(HardyProblem("direct_complement", p, q, v_star,
                                     Weight(n, w_star)))
    if data == "piecewise":
        assert math.isfinite(float(ball)), case
    assert_mirror(ball, comp)


@pytest.mark.parametrize("q", [0.5, 1.0, 2.0, INF])
@pytest.mark.parametrize("v,w", [
    (pw(-0.5, -3.0), pw(-0.5, 1.0)),
    (PowerProfile(1.0, -1.0), PowerProfile(1.0, 1.0)),
])
def test_sup(q, v, w):
    v_star = invert(v, 0.0 if math.isinf(q) else -2.0 / q)
    ball = hardy_constant(HardyProblem("sup", INF, q, v, Weight(1, w)))
    comp = hardy_constant(HardyProblem(
        "sup_complement", INF, q, v_star, Weight(1, invert(w, 0.0))))
    assert_mirror(ball, comp)


def test_sup_piecewise_is_finite():
    w = Weight(1, pw(-0.5, 1.0))
    for q in (0.5, 1.0, 2.0, INF):
        prob = HardyProblem("sup", INF, q, pw(-0.5, -3.0), w)
        assert math.isfinite(float(hardy_constant(prob)))


@pytest.mark.parametrize("p,q,u,w", [
    (1.0, 0.5, pw(-0.5, -3.0), pw(0.0, -2.0)),      # (a): q <= p
    (0.5, 0.5, pw(-0.5, -3.0), pw(1.0, -2.0)),      # (a)
    (0.5, 1.0, pw(-0.5, -1.5), pw(0.0, -2.0)),      # (b): q > p
    (1.0, 2.0, pw(-0.5, -2.0), pw(1.0, -2.0)),      # (b)
    (0.5, INF, pw(-0.5, 0.0), pw(0.0, -2.0)),       # (b), q = inf
])
def test_reverse(p, q, u, w):
    n = 1
    u_star = invert(u, 0.0 if math.isinf(q) else -2.0 / q)
    w_star = invert(w, 2.0 * n * (1.0 - 1.0 / p))
    ball = hardy_constant(HardyProblem("reverse", p, q, u, Weight(n, w)))
    comp = hardy_constant(HardyProblem(
        "reverse_complement", p, q, u_star, Weight(n, w_star)))
    assert math.isfinite(float(ball)) and float(ball) > 0.0
    assert_mirror(ball, comp)


def mirrored_embedding(direction, n, p1, p2, theta, v1, v2, omega):
    mirror = {"lebesgue_to_lm": "lebesgue_to_dual_lm",
              "lm_to_lebesgue": "dual_lm_to_lebesgue"}[direction]
    ball = EmbeddingProblem(direction, n, p1, p2, theta, Weight(n, v1),
                            Weight(n, v2), omega)
    comp = EmbeddingProblem(
        mirror, n, p1, p2, theta,
        Weight(n, invert(v1, density_exp(-2.0 * n, p1))),
        Weight(n, invert(v2, density_exp(-2.0 * n, p2))),
        invert(omega, 0.0 if math.isinf(theta) else -2.0 / theta))
    return embedding_constant(ball), embedding_constant(comp)


EMBEDDING_CASES = {"i": (3.0, 2.0, 4.0), "ii": (3.0, 2.0, 2.0),
                   "iii": (3.0, 2.0, INF), "iv": (INF, 2.0, INF),
                   "v": (INF, 2.0, 3.0), "vi": (2.0, 2.0, 3.0),
                   "vii": (2.0, 2.0, 1.0), "viii": (2.0, 2.0, INF),
                   "ix": (INF, INF, 3.0)}


# every case in dimensions 1 and 2; the n = 1 ids are the bare case names
EMBEDDING_GRID = [pytest.param(case, n, id=case if n == 1 else f"{case}-n2")
                  for n in (1, 2) for case in sorted(EMBEDDING_CASES)]


@pytest.mark.parametrize("case,n", EMBEDDING_GRID)
def test_lebesgue_to_morrey(case, n):
    p1, p2, theta = EMBEDDING_CASES[case]
    ball, comp = mirrored_embedding("lebesgue_to_lm", n, p1, p2, theta,
                                    pw(-1.0, -1.0), pw(0.0, -1.0),
                                    pw(-0.5, -2.0))
    assert math.isfinite(float(ball)), case
    assert_mirror(ball, comp)


@pytest.mark.parametrize("case,n", EMBEDDING_GRID)
def test_lebesgue_to_morrey_power_data(case, n):
    p1, p2, theta = EMBEDDING_CASES[case]
    ball, comp = mirrored_embedding("lebesgue_to_lm", n, p1, p2, theta,
                                    PowerProfile(1.0, 0.0),
                                    PowerProfile(1.0, -1.0),
                                    pw(0.0, -2.0))
    assert_mirror(ball, comp)


@pytest.mark.parametrize("case", ["i", "ii"])
def test_lebesgue_to_morrey_exponent_near_minus_one(case):
    # v1^(-1/p1) v2^(1/p2) raised to sigma times rho^(n-1) arrives as
    # rho^(-1.000000000000001) on the complement side, which must be
    # integrated as a logarithm, as the exact -1 on the ball side is
    p1, p2, theta = EMBEDDING_CASES[case]
    ball, comp = mirrored_embedding("lebesgue_to_lm", 2, p1, p2, theta,
                                    pw(-1.0, 1.0), PowerProfile(1.0, 0.0),
                                    pw(-0.5, -1.0))
    assert math.isfinite(float(ball)), case
    assert_mirror(ball, comp)


@pytest.mark.parametrize("case,p1,p2,theta,v1,v2,omega", [
    ("a", 2.0, 2.0, 2.0, pw(-1.0, -1.0), pw(-1.0, 1.0), pw(-0.5, -1.0)),
    ("b", 1.0, 2.0, 3.0, pw(1.0, -1.0), pw(-1.0, 1.0), pw(-0.5, -1.0)),
])
def test_morrey_to_lebesgue(case, p1, p2, theta, v1, v2, omega):
    ball, comp = mirrored_embedding("lm_to_lebesgue", 1, p1, p2, theta,
                                    v1, v2, omega)
    assert math.isfinite(float(ball)), case
    assert_mirror(ball, comp)
