"""Write the committed CLI specs and grid-function CSVs under bench/specs
and bench/data.

The instances mirror tests/test_acceptance.py (the 22 finite and 5 infinite
audit instances, the exact Hardy benchmarks, the averaged-operator oracle
problem) plus the sweep grid and the associate-norm grid functions.  The
files are committed; rerun this script only to change the inputs:

    python3 bench/make_inputs.py
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
INF = "inf"


def power(c, alpha):
    return {"kind": "power", "c": c, "alpha": alpha}


def expo(c, rate):
    return {"kind": "exp", "c": c, "rate": rate}


def shifted(c, shift, alpha):
    return {"kind": "shifted_power", "c": c, "shift": shift, "alpha": alpha}


def piecewise(breaks, segments):
    return {"kind": "piecewise_power", "breakpoints": breaks,
            "segments": segments}


def trunc(c, alpha, lo):
    return {"kind": "truncated_power", "c": c, "alpha": alpha, "lo": lo}


ONE = power(1.0, 0.0)
EXPM = expo(1.0, -1.0)
SHIFT1 = shifted(1.0, 1.0, 1.0)
SHIFT2 = shifted(1.0, 1.0, 2.0)
OMR1 = trunc(1.0, -1.0, 1.0)
OMR2 = trunc(1.0, -2.0, 1.0)
V2DEC = shifted(1.0, 1.0, -2.0)
PP_DECAY = piecewise([1.0], [[1.0, 0.0], [1.0, -2.0]])
PP_CUT = piecewise([1.0], [[1.0, 0.0], [0.0, 0.0]])


def hardy(variant, p, q, v, w, n=1):
    return {"hardy": {"variant": variant, "p": p, "q": q, "n": n,
                      "v": v, "w": w}}


def emb(direction, p1, p2, theta, v1, v2, omega, n=1):
    return {"direction": direction, "n": n, "p1": p1, "p2": p2,
            "theta": theta, "weights": {"v1": v1, "v2": v2, "omega": omega}}


FINITE = {
    "hardy.a": hardy("direct", 2, 2, power(1.0, -2.0), ONE),
    "hardy.b": hardy("direct", 2, 1, EXPM, ONE),
    "hardy.c": hardy("direct", 2, INF, EXPM, ONE),
    "hardy.d": hardy("direct", INF, INF, EXPM, SHIFT2),
    "hardy.e": hardy("direct", INF, 1, EXPM, SHIFT2),
    "hardy.f": hardy("direct", 1, 2, EXPM, SHIFT1),
    "hardy.g": hardy("direct", 1, 0.5, EXPM, ONE),
    "hardy.h": hardy("direct", 1, INF, EXPM, SHIFT1),
    "emb.i": emb("lebesgue_to_lm", 3, 2, 3, ONE, ONE, PP_DECAY),
    "emb.ii": emb("lebesgue_to_lm", 3, 2, 2, ONE, ONE, PP_DECAY),
    "emb.iii": emb("lebesgue_to_lm", 3, 2, INF, ONE, ONE, OMR1),
    "emb.iv": emb("lebesgue_to_lm", INF, 2, INF, ONE, V2DEC, OMR1),
    "emb.v": emb("lebesgue_to_lm", INF, 2, 2, ONE, V2DEC, OMR1),
    "emb.vi": emb("lebesgue_to_lm", 2, 2, 2, ONE, ONE, OMR1),
    "emb.vii": emb("lebesgue_to_lm", 2, 2, 1, ONE, ONE, OMR2),
    "emb.viii": emb("lebesgue_to_lm", 2, 2, INF, ONE, ONE, OMR1),
    "emb.ix": emb("lebesgue_to_lm", INF, INF, 2, ONE, ONE, OMR1),
    "emb.dual_target": emb("lebesgue_to_dual_lm", 3, 2, 3, ONE, V2DEC,
                           PP_CUT),
    "emb.source.a": emb("lm_to_lebesgue", 1, 1, 0.5, power(1.0, -1.0), ONE,
                        power(1.0, -3.0)),
    "emb.source.b": emb("lm_to_lebesgue", 1, 1, 2,
                        piecewise([1.0], [[1.0, 0.0], [1.0, -4.0]]), ONE,
                        power(1.0, -3.0)),
    "emb.dual_source.a": emb("dual_lm_to_lebesgue", 1, 1, 0.5,
                             power(1.0, 2.0), ONE, ONE),
    "emb.dual_source.b": emb("dual_lm_to_lebesgue", 1, 1, 2,
                             piecewise([1.0], [[1.0, 2.0], [1.0, -2.0]]),
                             ONE, ONE),
}

INFINITE = {
    "inf.hardy": hardy("direct", 2, 2, power(1.0, -2.0),
                       shifted(1.0, 1.0, -1.0)),
    "inf.emb": emb("lebesgue_to_lm", 3, 2, INF, ONE, ONE, ONE),
    "inf.emb.dual_target": emb("lebesgue_to_dual_lm", 3, 2, 3, ONE, ONE,
                               PP_CUT),
    "inf.emb.source": emb("lm_to_lebesgue", 1, 1, 0.5, ONE, ONE,
                          power(1.0, -3.0)),
    "inf.emb.dual_source": emb("dual_lm_to_lebesgue", 1, 1, 0.5,
                               power(1.0, 3.0), ONE, ONE),
}

# the exact Hardy benchmarks of test_04: sqrt(2), 1 and 2
HARDY_EXACT = {
    "exact.sqrt2": hardy("direct", 2, 2, power(1.0, -2.0), ONE),
    "exact.one": hardy("reverse", 0.5, 0.5, shifted(1.0, 1.0, -4.0),
                       shifted(1.0, 1.0, -3.0)),
    "exact.two": hardy("reverse", 1, INF, expo(1.0, -1.0), expo(1.0, -2.0)),
}

# test_05: the unweighted reduction in n = 1 (theta = 2 < p1 = 3 takes the
# s-finite branch, theta = 4 the s-infinite one), one `constant` call each;
# name -> (p1, p2, theta, beta) with omega = r^beta on (1, inf)
UNWEIGHTED = {
    f"unweighted.{p1}.{p2}.{th}.{beta}": (p1, p2, th, beta)
    for p1 in (2, 3) for p2 in (1, 1.5, 2, 3) if p2 <= p1
    for th in (2, 4, INF) for beta in (-1.5, -2.5)}

# settings of AUDIT_CFG in tests/test_acceptance.py
AUDIT_ORACLE = {"grid_cells": 48, "restarts": 2, "ascent_sweeps": 8,
                "seed": 11}

# the n = 2 sweep grid, one `sweep` spec per (p1, theta) of 12 rows: a
# call of about 0.15 s, short enough to be timed many times in a run
SWEEP_P1 = (2, 3, INF)
SWEEP_THETA = (0.5, 1, 2, 4, INF)


def sweep(p1, theta):
    return {"sweep": {"direction": "lebesgue_to_lm", "n": 2,
                      "p1": [p1], "p2": [1, 2], "theta": [theta],
                      "alpha": [0, -0.5, 0.5], "beta": [-2.5, -4],
                      "omega_support": [1.0, None]}}


SWEEPS = {f"p1_{p1}.theta_{th}": sweep(p1, th)
          for p1 in SWEEP_P1 for th in SWEEP_THETA}

# the grid function of the associate workload: log-normal values on 32
# log-spaced cells over (1e-3, 1e3), also written on its 64-cell refinement
# (every cell split at its geometric midpoint); a call takes about 0.6 s
# at 32 cells and 1 s at 64, against 3.4 s and 7 s at 256 and 512
COARSE = 32
# (name, kind, p, theta, omega alpha, cells)
ASSOCIATE_CALLS = [
    ("lm_p2_t2", "lm", 2, 2, -1.0, COARSE),
    ("lm_p2_t2_fine", "lm", 2, 2, -1.0, 2 * COARSE),
    ("dual_p2_t2", "dual_lm", 2, 2, 0.0, COARSE),
    ("lm_p2_t3", "lm", 2, 3, -1.0, COARSE),
    ("lm_p2_tinf", "lm", 2, INF, -1.0, COARSE),
    ("lm_p2_thalf", "lm", 2, 0.5, -3.0, COARSE),
]


def averaged_operator(n):
    """test_06: the averaged operator as a direct Hardy problem with
    sharp constant p' = 2 for p = 2.  Four restarts, not the sixteen of
    test_06: the first already reaches the lower bound that sixteen reach
    (1.96935 for n = 1, 1.98499 for n = 2), and a call with sixteen takes
    3-3.5 s, too long to be timed many times in a run."""
    p = 2.0
    sigma = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    cn = sigma / n
    doc = hardy("direct", p, p, power(sigma * cn ** (-p), n - 1 - n * p),
                ONE, n=n)
    doc["oracle"] = {"grid_cells": 256, "knot_range": [1e-9, 1e9],
                     "restarts": 4, "ascent_sweeps": 40, "seed": 0}
    return doc


def write_json(rel, doc):
    path = os.path.join(HERE, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(rel, knots, values):
    """The GridFunction CSV layout: header, then knot,value rows with a
    leading 0 for the first knot."""
    path = os.path.join(HERE, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("knot,value\n")
        fh.write(f"{float(knots[0])!r},0.0\n")
        for k, v in zip(knots[1:], values):
            fh.write(f"{float(k)!r},{float(v)!r}\n")


def main():
    for name, doc in {**FINITE, **INFINITE, **HARDY_EXACT}.items():
        write_json(f"specs/constant/{name}.json", doc)
    for name, (p1, p2, th, beta) in UNWEIGHTED.items():
        write_json(f"specs/constant/{name}.json", emb(
            "lebesgue_to_lm", p1, p2, th, ONE, ONE, trunc(1.0, beta, 1.0)))
    for name, doc in {**FINITE, **INFINITE}.items():
        write_json(f"specs/verify/{name}.json",
                   dict(doc, oracle=AUDIT_ORACLE))
    for n in (1, 2):
        write_json(f"specs/oracle/averaged_n{n}.json", averaged_operator(n))
    for name, doc in SWEEPS.items():
        write_json(f"specs/sweep/{name}.json", doc)
    import numpy as np
    coarse = np.geomspace(1e-3, 1e3, COARSE + 1)
    fine = np.sort(np.concatenate(
        [coarse, np.sqrt(coarse[:-1] * coarse[1:])]))
    vals = np.exp(np.random.default_rng(20131).normal(0.0, 0.6, COARSE))
    write_csv(f"data/f_{COARSE}.csv", coarse, vals)
    write_csv(f"data/f_{2 * COARSE}.csv", fine, np.repeat(vals, 2))
    for name, kind, p, th, alpha, cells in ASSOCIATE_CALLS:
        write_json(f"specs/associate/{name}.json", {"associate": {
            "kind": kind, "p": p, "theta": th, "n": 1,
            "omega": power(1.0, alpha),
            "function_csv": f"bench/data/f_{cells}.csv"}})

if __name__ == "__main__":
    main()
