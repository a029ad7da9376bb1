"""Command-line interface: spec parsing, exit codes, and output formats."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from morreyemb import cli, hardy, oracle, profiles
from morreyemb.cli import (EXIT_CONTRACT, EXIT_NUMERIC, EXIT_OK, EXIT_SPEC,
                           dump_json, fmt, main)
from morreyemb.errors import MorreyError, WitnessNotFound
from morreyemb.norms import GridFunction
from test_weights import NAN_PROBLEMS


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


CASE_VI = {
    "direction": "lebesgue_to_lm",
    "n": 1, "p1": 2, "p2": 2, "theta": 2,
    "weights": {
        "omega": {"kind": "truncated_power", "c": 1.0, "alpha": -1.0,
                  "lo": 1.0},
    },
}


class TestFormatting:
    def test_seventeen_digits(self):
        assert fmt(1.0 / 3.0) == "0.33333333333333331"

    def test_infinity(self):
        assert fmt(math.inf) == "inf"

    def test_json_floats_unquoted(self):
        assert dump_json({"x": 0.5}) == '{"x": 0.5}'
        assert dump_json({"x": math.inf}) == '{"x": "inf"}'


class TestConstant:
    def test_known_value(self, tmp_path, capsys):
        spec = write_spec(tmp_path, CASE_VI)
        assert main(["constant", "--spec", spec]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["case"] == "lebesgue_to_lm.vi"
        assert doc["value"] == pytest.approx(1.0, rel=1e-8)

    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        spec = write_spec(tmp_path, CASE_VI)
        assert main(["constant", "--spec", spec, "--out", str(out)]) == \
            EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "case,value"
        assert lines[1].startswith("lebesgue_to_lm.vi,")

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["constant", "--spec", str(path)]) == EXIT_SPEC

    def test_inadmissible_exits_2(self, tmp_path):
        doc = dict(CASE_VI, direction="lm_to_lebesgue", p1=3, p2=2, theta=1)
        spec = write_spec(tmp_path, doc)
        assert main(["constant", "--spec", spec]) == EXIT_SPEC

    @pytest.mark.parametrize("variant", ["sup", "sup_complement"])
    def test_sup_variant_with_finite_p_is_inadmissible(self, tmp_path,
                                                       capsys, variant):
        # p = q = 2, v = e^-t, w = 1 printed 0.70710678118654757
        doc = {"hardy": {"variant": variant, "p": 2, "q": 2, "n": 1,
                         "v": {"kind": "exp", "c": 1.0, "rate": -1.0},
                         "w": {"kind": "power", "c": 1.0, "alpha": 0.0}}}
        spec = write_spec(tmp_path, doc)
        assert main(["constant", "--spec", spec]) == EXIT_SPEC
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("inadmissible: sup variants require")

    def test_unknown_keys_exit_2(self, tmp_path):
        doc = dict(CASE_VI, extra_knob=1)
        spec = write_spec(tmp_path, doc)
        assert main(["constant", "--spec", spec]) == EXIT_SPEC

    @pytest.mark.parametrize("exc,code,prefix", [
        (WitnessNotFound("no dyadic family"), EXIT_CONTRACT,
         "verification failed: no dyadic family"),
        (MorreyError("boom"), EXIT_NUMERIC, "error: boom")])
    def test_package_errors_exit_codes(self, tmp_path, capsys, monkeypatch,
                                       exc, code, prefix):
        def fail(prob):
            raise exc

        monkeypatch.setattr(cli, "closed_form_constant", fail)
        spec = write_spec(tmp_path, CASE_VI)
        assert main(["constant", "--spec", spec]) == code
        assert capsys.readouterr().err == prefix + "\n"

    @pytest.mark.parametrize("name", sorted(NAN_PROBLEMS))
    def test_nan_weight_exits_3(self, tmp_path, capsys, monkeypatch, name):
        # a spec holds no evaluator profile: the parsed problem is swapped
        # for one with a weight that is nan on (2, 3)
        monkeypatch.setattr(cli, "parse_problem",
                            lambda doc: NAN_PROBLEMS[name])
        spec = write_spec(tmp_path, CASE_VI)
        assert main(["constant", "--spec", spec]) == EXIT_NUMERIC
        assert "numeric failure: sampled esssup is nan" in \
            capsys.readouterr().err


class TestVerify:
    def test_finite_case(self, tmp_path, capsys):
        doc = dict(CASE_VI)
        doc["oracle"] = {"grid_cells": 48, "restarts": 2,
                        "ascent_sweeps": 6, "ratio_floor": 0.5}
        spec = write_spec(tmp_path, doc)
        assert main(["verify", "--spec", spec, "--seed", "1"]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "equivalence"
        assert out["ratio_low"] >= 0.5

    def test_infinite_case_emits_witness(self, tmp_path, capsys):
        doc = {"hardy": {"variant": "direct", "p": 2, "q": 2,
                         "v": {"kind": "power", "c": 1.0, "alpha": -2.0},
                         "w": {"kind": "shifted_power", "c": 1.0,
                               "shift": 1.0, "alpha": -1.0}, "n": 1},
               "oracle": {"grid_cells": 48}}
        spec = write_spec(tmp_path, doc)
        assert main(["verify", "--spec", spec]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "witness"
        assert out["ratios"][-1] > 2.0 * out["ratios"][0]

    @pytest.mark.parametrize("infinite", [False, True])
    def test_closed_form_evaluated_once(self, tmp_path, capsys, monkeypatch,
                                        infinite):
        import morreyemb.oracle as oracle
        calls = []

        def counted(prob):
            calls.append(prob)
            return real(prob)

        doc = dict(CASE_VI)
        if infinite:
            # case iii with omega = 1: the constant is inf
            doc.update(p1=3, p2=2, theta="inf", weights={
                "omega": {"kind": "power", "c": 1.0, "alpha": 0.0}})
        doc["oracle"] = {"grid_cells": 48, "restarts": 1, "ascent_sweeps": 1,
                         "ratio_floor": 0.0}
        real = oracle.embedding_constant
        monkeypatch.setattr(oracle, "embedding_constant", counted)
        spec = write_spec(tmp_path, doc)
        main(["verify", "--spec", spec])
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == ("witness" if infinite else "equivalence")
        assert len(calls) == 1


    def test_bad_ratio_floor_is_a_spec_error(self, tmp_path, capsys,
                                             monkeypatch):
        calls = []
        monkeypatch.setattr(oracle, "embedding_constant",
                            lambda *a, **k: calls.append(a))
        doc = dict(CASE_VI)
        doc["oracle"] = {"grid_cells": 48, "restarts": 1, "ratio_floor": "x"}
        spec = write_spec(tmp_path, doc)
        assert main(["verify", "--spec", spec]) == EXIT_SPEC
        assert "spec error: ratio_floor" in capsys.readouterr().err
        assert calls == []


    def test_loads_no_numpy_ma(self):
        # np.unique and np.union1d import numpy.ma on first use, which
        # costs about 15 ms on the first call of a process
        code = ("import sys, io, contextlib; from morreyemb import cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    cli.main(['verify', '--spec', sys.argv[1]])\n"
                "sys.exit('numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        spec = os.path.join(ROOT, "bench", "specs", "verify",
                            "emb.source.b.json")
        assert subprocess.run([sys.executable, "-c", code, spec],
                              env=env).returncode == 0


class TestOracle:
    @pytest.mark.parametrize("bad", [{"knot_range": [0, 1e4]},
                                     {"knot_range": [1e4, 1e-4]},
                                     {"knot_range": [1e-4, "inf"]},
                                     {"knot_range": ["a", 1.0]},
                                     {"knot_range": [1e-4]},
                                     {"knot_range": [1e-4, 1e160]},
                                     {"knot_range": [1e-160, 1e4]},
                                     {"ascent_sweeps": -1},
                                     {"grid_cells": 16.5},
                                     {"restarts": 2.5},
                                     {"seed": "x"},
                                     {"seed": -1}])
    @pytest.mark.parametrize("cmd", ["oracle", "verify"])
    def test_bad_config_is_a_spec_error(self, tmp_path, capsys, cmd, bad):
        doc = dict(CASE_VI)
        doc["oracle"] = dict({"grid_cells": 48, "restarts": 1}, **bad)
        spec = write_spec(tmp_path, doc)
        assert main([cmd, "--spec", spec]) == EXIT_SPEC
        assert "bad oracle config" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["oracle", "verify"])
    def test_include_families_is_an_unknown_key(self, tmp_path, capsys, cmd):
        # the families are fixed: a spec that picks some fails like any
        # unknown key
        doc = dict(CASE_VI)
        doc["oracle"] = {"grid_cells": 48, "restarts": 1,
                         "include_families": ["ball"]}
        spec = write_spec(tmp_path, doc)
        assert main([cmd, "--spec", spec]) == EXIT_SPEC
        assert "unknown keys in oracle: ['include_families']" in \
            capsys.readouterr().err

    def test_writes_argmax(self, tmp_path, capsys):
        doc = dict(CASE_VI)
        doc["oracle"] = {"grid_cells": 48, "restarts": 1, "ascent_sweeps": 2}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "argmax.csv"
        assert main(["oracle", "--spec", spec, "--out", str(out)]) == EXIT_OK
        g = GridFunction.from_csv(out)
        assert g.num_cells == 48
        doc = json.loads(capsys.readouterr().out)
        assert doc["lower_bound"] > 0.9
        assert doc["argmax_csv"] == str(out)

    SMALL = {"grid_cells": 48, "restarts": 2, "ascent_sweeps": 8, "seed": 5}

    @staticmethod
    def no_constant(name):
        raise ValueError(f"non-JSON constant {name}")

    def test_infinite_bound_prints_the_string_inf(self, tmp_path, capsys):
        # reverse Hardy with p = 1/2, v = 1/t on (0, 1]: the complement
        # family reaches an infinite ratio
        doc = {"hardy": {"variant": "reverse", "p": 0.5, "q": 2, "n": 1,
                         "v": {"kind": "truncated_power", "c": 1.0,
                               "alpha": -1.0, "hi": 1.0},
                         "w": {"kind": "power", "c": 1.0, "alpha": 0.0}},
               "oracle": self.SMALL}
        spec = write_spec(tmp_path, doc)
        assert main(["oracle", "--spec", spec]) == EXIT_OK
        out = json.loads(capsys.readouterr().out,
                         parse_constant=self.no_constant)
        assert out["lower_bound"] == "inf"
        assert out["trace"][-1] == [27, "inf"]
        assert out["family_bests"] == {"complement": "inf"}

    def test_floats_print_with_seventeen_digits(self, tmp_path, capsys):
        doc = dict(CASE_VI, oracle=self.SMALL)
        spec = write_spec(tmp_path, doc)
        assert main(["oracle", "--spec", spec]) == EXIT_OK
        out = json.loads(capsys.readouterr().out, parse_float=str,
                         parse_constant=self.no_constant)
        res = oracle.best_constant_lower_bound(
            cli.parse_problem(doc), oracle.OracleConfig(**self.SMALL))
        assert out["lower_bound"] == fmt(res.lower_bound)
        assert out["trace"] == [[i, fmt(r)] for i, r in res.trace]
        assert out["family_bests"] == {k: fmt(v) for k, v
                                       in res.family_bests.items()}
        assert "argmax_csv" not in out


class TestAssociate:
    def test_round_trip(self, tmp_path, capsys):
        g = GridFunction.log_spaced(16, 1e-1, 1e1)
        mids = np.sqrt(g.knots[:-1] * g.knots[1:])
        g = g.with_values(np.exp(-mids))
        fn = tmp_path / "fn.csv"
        g.to_csv(fn)
        doc = {"associate": {"kind": "lm", "p": 2, "theta": 2, "n": 1,
                             "omega": {"kind": "truncated_power", "c": 1.0,
                                       "alpha": -2.0, "lo": 1.0},
                             "function_csv": str(fn)}}
        spec = write_spec(tmp_path, doc)
        assert main(["associate", "--spec", spec]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["value"] > 0.0

    @pytest.mark.parametrize("text", ["", "knot,value\n0.1,0.0\n1.0\n"],
                             ids=["empty", "one_field"])
    def test_malformed_csv_is_a_spec_error(self, tmp_path, capsys, text):
        fn = tmp_path / "fn.csv"
        fn.write_text(text)
        doc = {"associate": {"kind": "lm", "p": 2, "theta": 2, "n": 1,
                             "omega": {"kind": "power", "c": 1.0,
                                       "alpha": -2.0},
                             "function_csv": str(fn)}}
        spec = write_spec(tmp_path, doc)
        assert main(["associate", "--spec", spec]) == EXIT_SPEC
        assert "spec error: bad function CSV" in capsys.readouterr().err


class TestSweep:
    SWEEP = {"sweep": {"direction": "lebesgue_to_lm", "n": 1,
                       "p1": [2, 3], "p2": [1, 2], "theta": [2, "inf"],
                       "beta": [-1.5]}}

    def test_rows_and_agreement(self, tmp_path):
        spec = write_spec(tmp_path, self.SWEEP)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("direction,n,p1,p2,theta")
        assert len(lines) == 1 + 2 * 2 * 2
        # unweighted rows carry an agreement flag of 1
        flags = {line.rsplit(",", 1)[-1] for line in lines[1:]}
        assert flags <= {"1", ""}

    def test_empty_ranges_header_only(self, tmp_path):
        doc = {"sweep": {"p1": [], "p2": [2], "theta": [2], "beta": [-1.5]}}
        spec = write_spec(tmp_path, doc)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--spec", spec, "--out", str(out)]) == EXIT_OK
        assert len(out.read_text().splitlines()) == 1

    @pytest.mark.parametrize("support", [[1.0], ["a", None], [1.0, "b"],
                                         [1.0, None, 2.0], "x", None])
    def test_bad_omega_support_is_a_spec_error(self, tmp_path, capsys,
                                               support):
        doc = {"sweep": dict(self.SWEEP["sweep"], omega_support=support)}
        spec = write_spec(tmp_path, doc)
        assert main(["sweep", "--spec", spec]) == EXIT_SPEC
        assert "spec error: omega_support" in capsys.readouterr().err

    def test_oracle_column(self, tmp_path, capsys):
        # at the audit settings; the cell is empty where the value is inf.
        # theta = p1 = 2 p2 takes the oracle's eigen row, exact to the last
        # bits, which the power method read 1.05e-13 lower (...80087)
        doc = {"sweep": {"direction": "lebesgue_to_lm", "n": 1, "p1": [2],
                         "p2": [1], "theta": [2, "inf"], "beta": [-4, 0],
                         "oracle": True},
               "oracle": {"grid_cells": 48, "restarts": 2,
                          "ascent_sweeps": 8, "seed": 11}}
        spec = write_spec(tmp_path, doc)
        assert main(["sweep", "--spec", spec]) == EXIT_OK
        rows = {(r[4], r[6]): r for r in (
            line.split(",") for line in
            capsys.readouterr().out.splitlines()[1:])}
        assert rows["2", "-4"][10] == "0.54807984419785849"
        assert rows["inf", "-4"][10] == "1.285602426465374"
        assert rows["inf", "0"][8] == "inf" and rows["inf", "0"][10] == ""
        assert rows["2", "0"][7] == "inadmissible"

    def test_round_trip_against_constant(self, tmp_path, capsys):
        spec = write_spec(tmp_path, self.SWEEP)
        out = tmp_path / "sweep.csv"
        main(["sweep", "--spec", spec, "--out", str(out)])
        line = out.read_text().splitlines()[1].split(",")
        p1, p2, theta, beta, value = (float(line[2]), float(line[3]),
                                      float(line[4]), float(line[6]),
                                      float(line[8]))
        doc = {"direction": "lebesgue_to_lm", "n": 1, "p1": p1, "p2": p2,
               "theta": theta,
               "weights": {"omega": {"kind": "truncated_power", "c": 1.0,
                                     "alpha": beta, "lo": 1.0}}}
        spec2 = write_spec(tmp_path, doc, "cell.json")
        assert main(["constant", "--spec", spec2]) == EXIT_OK
        again = json.loads(capsys.readouterr().out)["value"]
        assert again == pytest.approx(value, rel=1e-12, abs=0.0)


HARDY_B = {"hardy": {"variant": "direct", "p": 2, "q": 2, "n": 1,
                     "v": {"kind": "power", "c": 1.0, "alpha": -2.0},
                     "w": {"kind": "power", "c": 1.0, "alpha": 0.0}}}


def spec_with_n(tmp_path, cmd, n):
    """A spec of the command (constant.hardy: a Hardy spec for constant)
    with the dimension n."""
    if cmd == "constant":
        return write_spec(tmp_path, dict(CASE_VI, n=n))
    if cmd == "constant.hardy":
        return write_spec(tmp_path, {"hardy": dict(HARDY_B["hardy"], n=n)})
    if cmd == "sweep":
        return write_spec(tmp_path,
                          {"sweep": dict(TestSweep.SWEEP["sweep"], n=n)})
    fn = tmp_path / "fn.csv"
    GridFunction.log_spaced(4, 1e-1, 1e1).with_values(np.ones(4)).to_csv(fn)
    return write_spec(tmp_path, {"associate": {
        "kind": "lm", "p": 2, "theta": 2, "n": n, "function_csv": str(fn),
        "omega": {"kind": "truncated_power", "c": 1.0, "alpha": -2.0,
                  "lo": 1.0}}})


class TestSpecShape:
    @pytest.mark.parametrize("n", ["a", 1.5, 2.5, True, 0, -1, None])
    @pytest.mark.parametrize("cmd", ["constant", "constant.hardy", "sweep",
                                     "associate"])
    def test_dimension_must_be_a_positive_integer(self, tmp_path, capsys,
                                                  cmd, n):
        spec = spec_with_n(tmp_path, cmd, n)
        assert main([cmd.split(".")[0], "--spec", spec]) == EXIT_SPEC
        assert "spec error: n: expected a positive integer" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["constant", "constant.hardy", "sweep",
                                     "associate"])
    def test_integer_dimension_is_accepted(self, tmp_path, capsys, cmd):
        spec = spec_with_n(tmp_path, cmd, 2)
        assert main([cmd.split(".")[0], "--spec", spec]) == EXIT_OK

    @pytest.mark.parametrize("cmd, doc", [
        ("verify", dict(CASE_VI, oracle=[1])),
        ("oracle", dict(CASE_VI, oracle=[1])),
        ("constant", dict(CASE_VI, output=[1])),
        ("oracle", dict(CASE_VI, output=[1],
                        oracle={"grid_cells": 48, "restarts": 1})),
        ("sweep", dict(TestSweep.SWEEP, output=[1])),
        ("sweep", dict(TestSweep.SWEEP, output="x.csv")),
        ("constant", dict(CASE_VI, weights=[1])),
        ("constant", {"hardy": 5}),
    ])
    def test_sections_must_be_objects(self, tmp_path, capsys, cmd, doc):
        spec = write_spec(tmp_path, doc)
        assert main([cmd, "--spec", spec]) == EXIT_SPEC
        assert "expected a JSON object" in capsys.readouterr().err


def without(doc, key):
    return {k: v for k, v in doc.items() if k != key}


HARDY_NO_P = {"hardy": without(HARDY_B["hardy"], "p")}
ZERO_V = {"hardy": dict(HARDY_B["hardy"],
                        v={"kind": "power", "c": 0.0, "alpha": 0.0})}
ASSOCIATE_NO_CSV = {"associate": {
    "kind": "lm", "p": 2, "theta": 2,
    "omega": {"kind": "power", "c": 1.0, "alpha": -2.0}}}


class TestSpecErrors:
    """Each malformed spec exits 2 with its spec error on stderr."""

    @pytest.mark.parametrize("cmd, doc, message", [
        ("constant", dict(CASE_VI, p1=[2]), "p1: expected a number, got [2]"),
        ("constant", None, "cannot read spec file: "),
        ("constant", [CASE_VI], "spec must be a JSON object"),
        ("constant", HARDY_NO_P, "hardy spec missing key 'p'"),
        ("constant", without(CASE_VI, "theta"), "spec missing key 'theta'"),
        ("constant", dict(CASE_VI, weights={}),
         "weights spec missing key 'omega'"),
        ("verify", ZERO_V, "constant is zero; nothing to verify"),
        ("associate", {"associate": 5},
         "associate spec needs an 'associate' object"),
        ("associate", ASSOCIATE_NO_CSV,
         "associate spec missing key 'function_csv'"),
        ("sweep", {"sweep": [1]}, "sweep spec needs a 'sweep' object"),
        ("sweep", {"sweep": dict(TestSweep.SWEEP["sweep"], p1=2)},
         "sweep axis 'p1' must be a list"),
    ], ids=["number", "unreadable", "not_an_object", "hardy_key",
            "spec_key", "weights_key", "zero_constant", "associate_object",
            "associate_key", "sweep_object", "sweep_axis"])
    def test_malformed_spec_exits_2(self, tmp_path, capsys, cmd, doc,
                                    message):
        spec = str(tmp_path / "missing.json") if doc is None \
            else write_spec(tmp_path, doc)
        assert main([cmd, "--spec", spec]) == EXIT_SPEC
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("spec error: " + message)

    @pytest.mark.parametrize("flag", ["--seed", "--cells"])
    @pytest.mark.parametrize("cmd", ["constant", "associate"])
    def test_no_oracle_flags_without_an_oracle(self, tmp_path, capsys, cmd,
                                               flag):
        # constant and associate run no oracle: --seed and --cells are no
        # options of theirs
        spec = write_spec(tmp_path, CASE_VI)
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--spec", spec, flag, "1"])
        assert exc.value.code == EXIT_SPEC
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


class TestProfileSpecs:
    def test_one_segment_piecewise_power_reads_as_power(self, tmp_path,
                                                        capsys):
        outs = []
        for omega in ({"kind": "power", "c": 1.0, "alpha": -1.0},
                      {"kind": "piecewise_power", "breakpoints": [],
                       "segments": [[1.0, -1.0]]}):
            doc = dict(CASE_VI, weights={"omega": omega})
            spec = write_spec(tmp_path, doc)
            assert main(["constant", "--spec", spec]) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[1] == outs[0]
        assert json.loads(outs[0]) == {"case": "lebesgue_to_lm.vi",
                                       "value": "inf"}

    def test_one_knot_tabulated_is_a_spec_error(self, tmp_path, capsys):
        doc = dict(CASE_VI, weights=dict(CASE_VI["weights"], v1={
            "kind": "tabulated", "knots": [1.0], "values": []}))
        spec = write_spec(tmp_path, doc)
        assert main(["constant", "--spec", spec]) == EXIT_SPEC
        assert "spec error: bad profile for v1" in capsys.readouterr().err

    @pytest.mark.parametrize("v1", [
        {"kind": "power", "c": 1.0, "alpha": "nan"},
        {"kind": "exp", "c": 1.0, "rate": "nan"},
        {"kind": "shifted_power", "c": 1.0, "shift": 1.0, "alpha": "nan"},
        # json writes a float nan as the bare token NaN, which it reads
        {"kind": "shifted_power", "c": 1.0, "shift": math.nan, "alpha": 0.0},
        {"kind": "piecewise_power", "breakpoints": [1.0],
         "segments": [[1.0, 0.0], [1.0, "nan"]]},
        {"kind": "piecewise_power", "breakpoints": ["nan"],
         "segments": [[1.0, 0.0], [1.0, 0.0]]},
    ], ids=["power.alpha", "exp.rate", "shifted_power.alpha",
            "shifted_power.shift", "piecewise_power.alpha",
            "piecewise_power.breakpoint"])
    def test_nan_parameter_is_a_spec_error(self, tmp_path, capsys, v1):
        doc = dict(CASE_VI, weights=dict(CASE_VI["weights"], v1=v1))
        spec = write_spec(tmp_path, doc)
        assert main(["constant", "--spec", spec]) == EXIT_SPEC
        assert "spec error: bad profile for v1" in capsys.readouterr().err

    def test_infinite_exponent_is_a_spec_error(self, tmp_path, capsys):
        # v1 = rho^inf is 0 below 1 and inf above: no weight
        doc = dict(CASE_VI, weights=dict(CASE_VI["weights"], v1={
            "kind": "power", "c": 1.0, "alpha": "inf"}))
        spec = write_spec(tmp_path, doc)
        assert main(["constant", "--spec", spec]) == EXIT_SPEC
        out = capsys.readouterr()
        assert out.out == ""
        assert "spec error: bad profile for v1: exponent must be finite" \
            in out.err


class TestReuse:
    """What ``main`` builds once per process carries nothing between
    calls."""

    def run(self, argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        return out.out, out.err, code

    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def counted():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "_PARSER", None, raising=False)
        monkeypatch.setattr(cli, "build_parser", counted)
        spec = write_spec(tmp_path, CASE_VI)
        for _ in range(3):
            assert main(["constant", "--spec", spec]) == EXIT_OK
        assert len(built) == 1

    def test_calls_match_a_fresh_parser(self, tmp_path, capsys, monkeypatch):
        spec = write_spec(tmp_path, CASE_VI)
        doc = dict(CASE_VI)
        doc["oracle"] = {"grid_cells": 48, "restarts": 1, "ascent_sweeps": 1}
        ospec = write_spec(tmp_path, doc, "oracle.json")
        bad = write_spec(tmp_path, dict(CASE_VI, extra_knob=1), "bad.json")
        out = str(tmp_path / "row.csv")
        calls = [
            ["constant", "--spec", spec, "--quiet"],
            ["constant", "--spec", spec],
            ["constant", "--spec", spec, "--out", out],
            ["constant", "--spec", spec],
            ["oracle", "--spec", ospec, "--seed", "3", "--cells", "32"],
            ["oracle", "--spec", ospec],
            ["constant", "--spec", bad],
            ["verify"],
            ["sweep", "--help"],
            ["constant", "--spec", spec],
        ]
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", None, raising=False)
            fresh.append(self.run(argv, capsys))
        monkeypatch.setattr(cli, "_PARSER", None, raising=False)
        shared = [self.run(argv, capsys) for argv in calls]
        assert shared == fresh
        codes = [r[2] for r in shared]
        assert codes == [EXIT_OK] * 6 + [EXIT_SPEC, ("SystemExit", 2),
                                         ("SystemExit", 0), EXIT_OK]
        assert shared[0][0] == "" and shared[1][0] != ""
        assert shared[4][0] != shared[5][0]
        assert "the following arguments are required: --spec" in shared[7][1]
        assert shared[8][0].startswith("usage: morreyemb sweep")

    def test_scan_grid_is_geomspace_and_read_only(self):
        ts = hardy._SCAN_GRID
        assert ts.tobytes() == np.geomspace(1e-6, 1e6, 512).tobytes()
        with pytest.raises(ValueError):
            ts[0] = 1.0

    def test_esssup_sample_is_geomspace_and_read_only(self):
        # every sampled esssup in the process reads this one array
        ts = profiles._SAMPLE
        assert ts.tobytes() == np.geomspace(1e-9, 1e9, 4097).tobytes()
        with pytest.raises(ValueError):
            ts[0] = 1.0

    def test_nodes_are_leggauss(self):
        x, w = np.polynomial.legendre.leggauss(4)
        x01, w01 = oracle._GL01
        assert x01.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert w01.tobytes() == (0.5 * w).tobytes()
        with pytest.raises(ValueError):
            w01[0] = 1.0
