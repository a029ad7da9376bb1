"""References for the benchmark's checks, computed apart from the program.

Nothing here imports morreyemb.  The values come from closed forms worked
out by hand from the defining formulas (derivations in the comments), from
mpmath at 30 digits where a special function appears, and from exact
per-cell formulas for piecewise-constant grid functions.
"""

import math

import mpmath

mpmath.mp.dps = 30
INF = math.inf


def _f(x):
    return float(x)


# --------------------------------------------------------------------------
# closed-form functionals of the acceptance instances (n = 1, so the ball
# B_t = (-t, t) has measure 2t)

_GOLDEN = (mpmath.sqrt(5) - 1) / 2

CONSTANTS = {
    # (a) p = q = 2, v = t^-2: sup_t t^{-1/2} (2t)^{1/2}
    "hardy.a": _f(mpmath.sqrt(2)),
    # (b) p = 2, q = 1, v = e^-t: (int e^-t (e^-t)^1 (2t) dt)^{1/2}
    "hardy.b": _f(mpmath.sqrt(mpmath.mpf(1) / 2)),
    # (c) p = 2, q = inf: sup_t e^-t (2t)^{1/2}, maximal at t = 1/2
    "hardy.c": _f(mpmath.exp(-mpmath.mpf(1) / 2)),
    # (d) p = q = inf, w = (1+t)^2: sup_t e^-t 2t/(1+t), maximal where
    #     t^2 + t - 1 = 0
    "hardy.d": _f(2 * _GOLDEN * mpmath.exp(-_GOLDEN) / (1 + _GOLDEN)),
    # (e) p = inf, q = 1: int e^-t 2t/(1+t) dt = 2 (1 - e E1(1))
    "hardy.e": _f(2 * (1 - mpmath.e * mpmath.e1(1))),
    # (f) p = 1, q = 2, w = 1+t: sup_t (e^-t)^{1/2} sup_{B_t} 1/w, at t -> 0
    "hardy.f": 1.0,
    # (g) p = 1, q = 1/2, q' = 1: int e^-t e^-t dt
    "hardy.g": 0.5,
    # (h) p = 1, q = inf, w = 1+t: sup_t e^-t sup_{B_t} 1/w, at t -> 0
    "hardy.h": 1.0,
    # (i) sup_t (6/5 - t)^{1/3} (2t)^{1/6}, maximal at t = 2/5
    "emb.i": _f(2 / mpmath.sqrt(5)),
    # (ii) s = 6: int_0^1 2t (4/3 - t)^2 dt + int_1^inf (2/9) t^-9 dt
    #      = 1/2 + 1/36
    "emb.ii": _f((mpmath.mpf(19) / 36) ** (mpmath.mpf(1) / 6)),
    # (iii) sup_t min(1, 1/t) (2t)^{1/6}, maximal at t = 1
    "emb.iii": _f(mpmath.mpf(2) ** (mpmath.mpf(1) / 6)),
    "emb.iv": 1.0,
    # (v) int_1^inf t^-2 2t/(1+t) dt = 2 ln 2
    "emb.v": _f(mpmath.sqrt(2 * mpmath.log(2))),
    "emb.vi": 1.0,
    "emb.vii": _f(mpmath.sqrt(mpmath.mpf(1) / 2)),
    "emb.viii": 1.0,
    "emb.ix": 1.0,
    "emb.dual_target": _f(mpmath.sqrt(6) / 5),
    "emb.source.a": 0.25,
    "emb.source.b": _f(mpmath.sqrt(mpmath.mpf(40) / 3)),
    "emb.dual_source.a": 1.0,
    "emb.dual_source.b": _f(2 / mpmath.sqrt(3)),
    # the five infinite instances: each functional has a growing end
    "inf.hardy": INF,
    "inf.emb": INF,
    "inf.emb.dual_target": INF,
    "inf.emb.source": INF,
    "inf.emb.dual_source": INF,
    # test_04: sqrt(2), and the two reverse inequalities with C = 1 and 2
    "exact.sqrt2": _f(mpmath.sqrt(2)),
    "exact.one": 1.0,
    "exact.two": 2.0,
}

# sharp constant of the averaged operator f -> |B_r|^-1 int_{B_r} f on
# L^2(R^n): Hardy's p' = 2
AVERAGED_SHARP = 2.0

def hardy_factor(p, q):
    """Upper equivalence factor k with C <= k A for the direct Hardy
    inequality, where the classical theory gives it; None otherwise.

    1 < p <= q < inf: (1 + q/p')^{1/q} (1 + p'/q)^{1/p'} (Bradley 1978;
    Muckenhoupt 1972 for p = q).  p = 1 <= q, q = inf and p = inf: the
    functional is the best constant (k = 1).
    """
    if p == 1.0 and q >= 1.0 or math.isinf(q) or math.isinf(p):
        return 1.0
    if 1.0 < p <= q < INF:
        pp = p / (p - 1.0)
        return (1.0 + q / pp) ** (1.0 / q) * (1.0 + pp / q) ** (1.0 / pp)
    return None


def rel_close(got, want, rel):
    """got agrees with want to a relative tolerance; inf matches only inf."""
    if math.isinf(want) or math.isinf(got):
        return math.isinf(want) and math.isinf(got)
    if want == 0.0:
        return got == 0.0
    return abs(got - want) <= rel * abs(want)


# --------------------------------------------------------------------------
# tail integrals of slow power decay: int_1^inf t^{-1-eps} dt = 1/eps

SLOW_TAIL_EPS = (0.05, 0.01, 0.002, 0.001)


# --------------------------------------------------------------------------
# sweep rows: L^{p1}(|x|^alpha) -> LM_{p2,theta}(omega) on R^n with
# v2 = 1 and omega(r) = r^beta on (1, inf), zero on (0, 1]


def _sphere(n):
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def _power_tail(beta, theta):
    """T(t) = ||omega||_{theta,(t,inf)} = T1 * max(t, 1)^lam."""
    if math.isinf(theta):
        return 1.0, beta
    e = beta * theta + 1.0
    return (1.0 / -e) ** (1.0 / theta), e / theta


def _inner(n, p1, p2, alpha):
    """I(t) = ||v1^{-1/p1} v2^{1/p2}||_{sigma,B_t} = K t^kappa, or None
    when it is infinite for every t.  sigma = p1 p2 / (p1 - p2)."""
    if p1 == p2:
        gamma = -alpha / p1
        return (1.0, gamma) if gamma >= 0.0 else None
    if math.isinf(p1):
        gamma, sigma = -alpha, p2
    else:
        gamma, sigma = -alpha / p1, p1 * p2 / (p1 - p2)
    e = gamma * sigma + n
    if e <= 0.0:
        return None
    return (_sphere(n) / e) ** (1.0 / sigma), e / sigma


def _int_power_from_one(coef, mu):
    """int_1^inf coef t^mu dt."""
    return coef / -(mu + 1.0) if mu < -1.0 else INF


def sweep_case(p1, p2, theta):
    """Case tag of the characterization, from the exponent triple."""
    if math.isinf(p1):
        return "iv" if math.isinf(theta) else "v"
    if p2 < p1:
        if math.isinf(theta):
            return "iii"
        return "i" if p1 <= theta else "ii"
    if math.isinf(theta):
        return "viii"
    return "vi" if p1 <= theta else "vii"


def sweep_admissible(p1, p2, theta, beta):
    """p2 <= p1 and omega in Omega_theta (finite positive tail norms)."""
    if p2 > p1:
        return False
    return beta <= 0.0 if math.isinf(theta) else beta * theta < -1.0


def sweep_value(n, p1, p2, theta, alpha, beta):
    """The embedding functional of the row's case, in closed form."""
    inner = _inner(n, p1, p2, alpha)
    if inner is None:
        return INF
    k, kappa = inner
    t1, lam = _power_tail(beta, theta)
    case = sweep_case(p1, p2, theta)
    if case in ("i", "iii", "iv", "vi", "viii"):
        # sup_t T(t) I(t): increasing on (0, 1], a power of t on [1, inf)
        return t1 * k if lam + kappa <= 0.0 else INF
    if case == "v":
        # (int_1^inf (t^beta K t^kappa)^theta dt)^{1/theta}
        val = _int_power_from_one(k ** theta, (beta + kappa) * theta)
        return val ** (1.0 / theta)
    # (ii), (vii): (int_1^inf [T^{theta/p1} I]^s omega^theta dt)^{1/s}
    s = theta * p1 / (p1 - theta)
    mu = s * (lam * theta / p1 + kappa) + beta * theta
    val = _int_power_from_one((t1 ** (theta / p1) * k) ** s, mu)
    return val ** (1.0 / s)


def unweighted_value(n, p1, p2, theta, beta):
    """The classical unweighted functional (alpha = 0), with the p1 = inf
    limit s = theta of the s-norm branch written out."""
    delta = n * (1.0 / p2 - (0.0 if math.isinf(p1) else 1.0 / p1))
    t1, lam = _power_tail(beta, theta)
    if p1 == p2 or math.isinf(theta):
        # ||r^delta omega||_{theta,(0,inf)}
        if math.isinf(theta):
            return 1.0 if delta + beta <= 0.0 else INF
        val = _int_power_from_one(1.0, (delta + beta) * theta)
        return val ** (1.0 / theta)
    if theta >= p1:
        # sup_t t^delta T(t)
        return t1 if delta + lam <= 0.0 else INF
    s = theta if math.isinf(p1) else p1 * theta / (p1 - theta)
    # int_0^1 t^{delta s - 1} T1^s dt + int_1^inf t^{delta s - 1} T(t)^s dt
    head = t1 ** s / (delta * s)
    tail = _int_power_from_one(t1 ** s, delta * s - 1.0 + lam * s)
    return (head + tail) ** (1.0 / s)


def unweighted_normalization(n, p1, p2, theta):
    """nu with functional = nu * unweighted functional for v1 = v2 = 1
    (ball-volume normalization; s = theta in the p1 = inf limit)."""
    cn = _sphere(n) / n
    if p1 == p2:
        if math.isinf(theta) or theta >= p1:
            return 1.0
        s = p1 * theta / (p1 - theta)
        return ((p1 - theta) / p1) ** (1.0 / s)
    d0 = 1.0 / p2 - (0.0 if math.isinf(p1) else 1.0 / p1)
    if math.isinf(theta) or theta >= p1:
        return cn ** d0
    s = theta if math.isinf(p1) else p1 * theta / (p1 - theta)
    return cn ** d0 * (n * d0 * theta) ** (1.0 / s)


# --------------------------------------------------------------------------
# associate norms of a piecewise-constant f on R^1 (v = 1, so the dual
# weight is 1 and the measure of {t < |x| < r} is 2 (r - t)).  f takes
# values[i] on (knots[i], knots[i+1]] and vanishes outside.


def _suffix_masses(knots, values, pp):
    """S[i] = int_{|x| > knots[i]} |f|^{p'} dx, exactly."""
    cells = [2.0 * v ** pp * (b - a)
             for a, b, v in zip(knots[:-1], knots[1:], values)]
    out = [0.0] * (len(cells) + 1)
    for i in range(len(cells) - 1, -1, -1):
        out[i] = out[i + 1] + cells[i]
    return out


def fubini_dual_norm(knots, values, p, beta, kind):
    """theta = p: the associate norm is ||f||_{p', u^{1-p'}} with the
    Fubini weight u(r) = ||omega||^p_{p,(r,inf)} (kind "lm") or
    ||omega||^p_{p,(0,r)} (kind "dual_lm") of omega = r^beta."""
    pp = p / (p - 1.0)
    e = beta * p + 1.0
    c = (-e if kind == "lm" else e) ** (pp - 1.0)
    g = e * (1.0 - pp) + 1.0   # exponent of r in r^{e(1-p')} after integrating
    total = mpmath.mpf(0)
    for a, b, v in zip(knots[:-1], knots[1:], values):
        if g == 0.0:
            piece = mpmath.log(mpmath.mpf(b) / a)
        else:
            piece = (mpmath.mpf(b) ** g - mpmath.mpf(a) ** g) / g
        total += 2 * mpmath.mpf(v) ** pp * c * piece
    return _f(total ** (1 / mpmath.mpf(pp)))


def lm_associate_inv_power(knots, values, p, theta):
    """kind "lm", omega = 1/r, 1 < theta <= inf.

    h(t) = ||omega||_{theta,(t,inf)}^{-theta'} = c t with
    c = (theta - 1)^{1/(theta - 1)} (c = 1 for theta = inf), and the full
    norm of omega is infinite, so the norm is
    (c int_0^inf F(t)^{theta'} dt)^{1/theta'} with F(t) the L^{p'} norm of
    f outside B_t; on a cell F^{p'} = A - B t and the integral is exact.
    """
    pp = mpmath.mpf(p) / (p - 1)
    if math.isinf(theta):
        tp, c = mpmath.mpf(1), mpmath.mpf(1)
    else:
        tp = mpmath.mpf(theta) / (theta - 1)
        c = mpmath.mpf(theta - 1) ** (1 / mpmath.mpf(theta - 1))
    m = tp / pp
    suffix = _suffix_masses(knots, values, float(pp))
    total = mpmath.mpf(knots[0]) * mpmath.mpf(suffix[0]) ** m
    for i, (a, b, v) in enumerate(zip(knots[:-1], knots[1:], values)):
        bb = 2 * mpmath.mpf(v) ** pp
        lo, hi = mpmath.mpf(suffix[i]), mpmath.mpf(suffix[i + 1])
        total += (lo ** (m + 1) - hi ** (m + 1)) / (bb * (m + 1))
    return _f((c * total) ** (1 / tp))


def lm_associate_sup(knots, values, p, theta, beta):
    """kind "lm", theta <= 1: sup_t F(t) / ||omega||_{theta,(t,inf)} with
    omega = r^beta, beta theta < -1.  On a cell log of the ratio is
    concave, so the sup is at a knot or at the cell's critical point."""
    pp = p / (p - 1.0)
    e = beta * theta + 1.0
    c = -e / theta                      # ||omega||_{theta,(t,inf)} ~ t^-c
    scale = (1.0 / -e) ** (1.0 / theta)
    suffix = _suffix_masses(knots, values, pp)

    def ratio(t, acc):
        return acc ** (1.0 / pp) * t ** c / scale

    best = ratio(knots[0], suffix[0])
    for i, (a, b, v) in enumerate(zip(knots[:-1], knots[1:], values)):
        bb = 2.0 * v ** pp
        big_a = suffix[i + 1] + bb * b   # F(t)^{p'} = big_a - bb t on cell
        t_star = c * big_a / (bb * (c + 1.0 / pp))
        if a < t_star < b:
            best = max(best, ratio(t_star, big_a - bb * t_star))
        best = max(best, ratio(b, suffix[i + 1]))
    return best
