"""Command-line frontend: single constant evaluations, verification runs
against the brute-force oracle, parameter sweeps, and associate-norm
evaluation on tabulated functions.

Exit codes: 0 success, 2 spec or admissibility error, 3 numeric failure,
4 verification-contract failure.  All floats print with 17 significant
digits and infinity prints as the string "inf"; given identical spec and
seed the output is byte-identical.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

from .embeddings import (EmbeddingProblem, associate_norm, classify_case,
                         embedding_constant, reference_normalization,
                         unweighted_reference)
from .errors import (HypothesisViolated, InadmissibleExponents, MorreyError,
                     NotAWeight, QuadratureFailure, UndefinedStieltjes,
                     WitnessNotFound)
from .hardy import HardyProblem
from .norms import GridFunction
from .oracle import (OracleConfig, best_constant_lower_bound,
                     closed_form_constant, divergence_witness,
                     equivalence_report)
from .profiles import constant as constant_profile
from .weights import Weight, profile_from_dict

EXIT_OK = 0
EXIT_SPEC = 2
EXIT_NUMERIC = 3
EXIT_CONTRACT = 4


class SpecError(ValueError):
    """Malformed or inadmissible problem specification."""


# --------------------------------------------------------------------------
# formatting


def fmt(x) -> str:
    """17-significant-digit decimal, with unsigned/signed infinities named."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return "%.17g" % x


def dump_json(obj) -> str:
    """json.dumps with fmt() float formatting and stable key order."""
    def render(o):
        if isinstance(o, bool) or o is None:
            return json.dumps(o)
        if isinstance(o, float):
            f = fmt(o)
            return json.dumps(f) if f in ("inf", "-inf", "nan") else f
        if isinstance(o, int):
            return str(o)
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple)):
            return "[" + ", ".join(render(x) for x in o) + "]"
        if isinstance(o, dict):
            return "{" + ", ".join(
                f"{json.dumps(str(k))}: {render(v)}" for k, v in o.items()) + "}"
        return render(float(o))
    return render(obj)


# --------------------------------------------------------------------------
# spec parsing


def _number(x, name):
    if isinstance(x, str):
        if x == "inf":
            return math.inf
        raise SpecError(f"{name}: expected a number or 'inf', got {x!r}")
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise SpecError(f"{name}: expected a number, got {x!r}")
    return float(x)


def _dimension(doc):
    n = doc.get("n", 1)
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise SpecError(f"n: expected a positive integer, got {n!r}")
    return n


def _check_keys(doc, allowed, where):
    extra = set(doc) - set(allowed)
    if extra:
        raise SpecError(f"unknown keys in {where}: {sorted(extra)}")


def _profile(doc, name):
    try:
        return profile_from_dict(doc)
    except (ValueError, KeyError, TypeError) as exc:
        raise SpecError(f"bad profile for {name}: {exc}") from exc


def load_spec(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("spec must be a JSON object")
    for key in ("hardy", "weights", "oracle", "output"):
        if not isinstance(doc.get(key, {}), dict):
            raise SpecError(f"{key}: expected a JSON object, got {doc[key]!r}")
    return doc


def parse_problem(doc):
    """Build an EmbeddingProblem or HardyProblem from the spec document."""
    if "hardy" in doc:
        _check_keys(doc, {"hardy", "oracle", "output"}, "spec")
        h = doc["hardy"]
        _check_keys(h, {"variant", "p", "q", "n", "v", "w"}, "hardy")
        try:
            return HardyProblem(
                h.get("variant", "direct"),
                _number(h["p"], "p"), _number(h["q"], "q"),
                _profile(h["v"], "v"),
                Weight(_dimension(h), _profile(h["w"], "w")))
        except KeyError as exc:
            raise SpecError(f"hardy spec missing key {exc}") from exc
        except (ValueError, NotAWeight) as exc:
            raise SpecError(str(exc)) from exc
    _check_keys(doc, {"direction", "n", "p1", "p2", "theta", "weights",
                      "oracle", "output"}, "spec")
    for key in ("direction", "p1", "p2", "theta", "weights"):
        if key not in doc:
            raise SpecError(f"spec missing key {key!r}")
    w = doc["weights"]
    _check_keys(w, {"v1", "v2", "omega"}, "weights")
    n = _dimension(doc)
    try:
        return EmbeddingProblem(
            doc["direction"], n,
            _number(doc["p1"], "p1"), _number(doc["p2"], "p2"),
            _number(doc["theta"], "theta"),
            Weight(n, _profile(w.get("v1", {"kind": "power", "c": 1.0,
                                           "alpha": 0.0}), "v1")),
            Weight(n, _profile(w.get("v2", {"kind": "power", "c": 1.0,
                                            "alpha": 0.0}), "v2")),
            _profile(w["omega"], "omega"))
    except KeyError as exc:
        raise SpecError(f"weights spec missing key {exc}") from exc
    except (ValueError, NotAWeight) as exc:
        raise SpecError(str(exc)) from exc


def parse_oracle_config(doc, args):
    o = dict(doc.get("oracle", {}))
    _check_keys(o, {"grid_cells", "knot_range", "restarts", "ascent_sweeps",
                    "seed", "ratio_floor"}, "oracle")
    o.pop("ratio_floor", None)
    if args.cells is not None:
        o["grid_cells"] = args.cells
    if args.seed is not None:
        o["seed"] = args.seed
    try:
        if "knot_range" in o:
            o["knot_range"] = tuple(float(x) for x in o["knot_range"])
        return OracleConfig(**o)
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad oracle config: {exc}") from exc


def _case_string(prob):
    if isinstance(prob, EmbeddingProblem):
        return str(classify_case(prob))
    return f"hardy.{prob.variant}"


def _emit(text, args):
    if not args.quiet:
        sys.stdout.write(text + "\n")


# --------------------------------------------------------------------------
# subcommands


def cmd_constant(args) -> int:
    doc = load_spec(args.spec)
    prob = parse_problem(doc)
    case = _case_string(prob)
    value = float(closed_form_constant(prob))
    _emit(dump_json({"case": case, "value": value}), args)
    out = args.out or doc.get("output", {}).get("csv")
    if out:
        with open(out, "w") as fh:
            fh.write("case,value\n")
            fh.write(f"{case},{fmt(value)}\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = load_spec(args.spec)
    prob = parse_problem(doc)
    cfg = parse_oracle_config(doc, args)
    floor = _number(doc.get("oracle", {}).get("ratio_floor", 0.25),
                    "ratio_floor")
    case = _case_string(prob)
    const = closed_form_constant(prob)
    value = float(const)
    if value == 0.0:
        raise SpecError("constant is zero; nothing to verify")
    if math.isinf(value):
        series, ratios = divergence_witness(prob, cfg, constant=const)
        _emit(dump_json({"case": case, "value": value, "mode": "witness",
                         "ratios": [float(r) for r in ratios]}), args)
        return EXIT_OK
    rep = equivalence_report(prob, cfg, constant=const)
    ok = rep.ratio_low >= floor
    _emit(dump_json({
        "case": case, "value": value, "mode": "equivalence",
        "lower_bound": float(rep.lower_bound), "ratio_low": rep.ratio_low,
        "family_ratios": rep.family_ratios, "passed": ok}), args)
    return EXIT_OK if ok else EXIT_CONTRACT


def cmd_oracle(args) -> int:
    doc = load_spec(args.spec)
    prob = parse_problem(doc)
    cfg = parse_oracle_config(doc, args)
    res = best_constant_lower_bound(prob, cfg)
    argmax_path = args.out or doc.get("output", {}).get("argmax_csv")
    if argmax_path:
        res.argmax.to_csv(argmax_path)
    out = {"lower_bound": float(res.lower_bound), "trace": res.trace,
           "family_bests": res.family_bests}
    if argmax_path is not None:
        out["argmax_csv"] = str(argmax_path)
    _emit(dump_json(out), args)
    return EXIT_OK


def cmd_associate(args) -> int:
    doc = load_spec(args.spec)
    _check_keys(doc, {"associate"}, "spec")
    a = doc.get("associate")
    if not isinstance(a, dict):
        raise SpecError("associate spec needs an 'associate' object")
    _check_keys(a, {"kind", "p", "theta", "n", "omega", "v",
                    "function_csv"}, "associate")
    for key in ("kind", "p", "theta", "omega", "function_csv"):
        if key not in a:
            raise SpecError(f"associate spec missing key {key!r}")
    try:
        f = GridFunction.from_csv(a["function_csv"])
    except (OSError, ValueError) as exc:
        raise SpecError(f"bad function CSV: {exc}") from exc
    n = _dimension(a)
    v = Weight(n, _profile(a["v"], "v")) if "v" in a \
        else Weight(n, constant_profile(1.0))
    value = float(associate_norm(
        f, a["kind"], _number(a["p"], "p"), _number(a["theta"], "theta"),
        _profile(a["omega"], "omega"), v))
    _emit(dump_json({"kind": a["kind"], "value": value}), args)
    return EXIT_OK


SWEEP_COLUMNS = ("direction,n,p1,p2,theta,alpha,beta,case,value,"
                 "reference,lower_bound,agrees")


def cmd_sweep(args) -> int:
    doc = load_spec(args.spec)
    _check_keys(doc, {"sweep", "oracle", "output"}, "spec")
    s = doc.get("sweep")
    if not isinstance(s, dict):
        raise SpecError("sweep spec needs a 'sweep' object")
    _check_keys(s, {"direction", "n", "p1", "p2", "theta", "alpha", "beta",
                    "omega_support", "oracle"}, "sweep")
    direction = s.get("direction", "lebesgue_to_lm")
    n = _dimension(s)
    support = s.get("omega_support", [1.0, None])
    if not (isinstance(support, list) and len(support) == 2):
        raise SpecError(f"omega_support: expected [lo, hi], got {support!r}")
    lo = _number(support[0], "omega_support lo")
    hi = None if support[1] is None else _number(support[1],
                                                 "omega_support hi")
    run_oracle = bool(s.get("oracle", False))
    cfg = parse_oracle_config(doc, args) if run_oracle else None

    def axis(name):
        vals = s.get(name, [])
        if not isinstance(vals, list):
            raise SpecError(f"sweep axis {name!r} must be a list")
        return [_number(x, name) for x in vals]

    rows = []
    for p1, p2, theta, alpha, beta in itertools.product(
            axis("p1"), axis("p2"), axis("theta"),
            axis("alpha") or [0.0], axis("beta")):
        prefix = (f"{direction},{n},{fmt(p1)},{fmt(p2)},{fmt(theta)},"
                  f"{fmt(alpha)},{fmt(beta)}")
        omega = _profile({"kind": "truncated_power", "c": 1.0,
                          "alpha": beta, "lo": lo, "hi": hi}, "omega")
        v1 = Weight(n, profile_from_dict(
            {"kind": "power", "c": 1.0, "alpha": alpha}))
        v2 = Weight(n, constant_profile(1.0))
        try:
            prob = EmbeddingProblem(direction, n, p1, p2, theta, v1, v2, omega)
            case = str(classify_case(prob))
            value = float(embedding_constant(prob))
        except (InadmissibleExponents, HypothesisViolated, NotAWeight):
            rows.append(f"{prefix},inadmissible,,,,")
            continue
        ref_txt, agree_txt = "", ""
        if alpha == 0.0 and direction == "lebesgue_to_lm":
            ref = float(unweighted_reference(p1, p2, theta, omega, n))
            nu = reference_normalization(p1, p2, theta, n)
            ref_txt = fmt(ref)
            if math.isinf(value) or math.isinf(ref):
                agree = math.isinf(value) == math.isinf(ref)
            else:
                agree = abs(value - nu * ref) <= 1e-6 * nu * ref
            agree_txt = "1" if agree else "0"
        low_txt = ""
        if run_oracle and 0.0 < value < math.inf:
            low_txt = fmt(float(
                best_constant_lower_bound(prob, cfg).lower_bound))
        rows.append(f"{prefix},{case},{fmt(value)},{ref_txt},"
                    f"{low_txt},{agree_txt}")

    text = SWEEP_COLUMNS + "\n" + "".join(r + "\n" for r in rows)
    out = args.out or doc.get("output", {}).get("csv")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        _emit(text.rstrip("\n"), args)
    return EXIT_OK


# --------------------------------------------------------------------------
# entry point


def build_parser():
    """A fresh parser of the five subcommands; ``main`` builds one on its
    first call and reuses it."""
    ap = argparse.ArgumentParser(
        prog="morreyemb",
        description="Embedding constants between weighted local Morrey-type "
                    "and Lebesgue spaces, with a brute-force verification "
                    "oracle.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("constant", "verify", "sweep", "associate", "oracle"):
        p = sub.add_parser(name)
        p.add_argument("--spec", required=True, help="JSON problem spec")
        p.add_argument("--out", default=None, help="output CSV path")
        if name in ("verify", "sweep", "oracle"):   # the oracle's settings
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--cells", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
    return ap


_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    # looked up per call, so the shared parser holds no function
    run = {"constant": cmd_constant, "verify": cmd_verify,
           "sweep": cmd_sweep, "associate": cmd_associate,
           "oracle": cmd_oracle}[args.command]
    try:
        return run(args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (InadmissibleExponents, HypothesisViolated, NotAWeight) as exc:
        print(f"inadmissible: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (QuadratureFailure, UndefinedStieltjes, OverflowError,
            ZeroDivisionError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except WitnessNotFound as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except MorreyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
