"""One benchmark run of one workload, in one process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

The run imports the package from src/ of this checkout, builds the
workload's inputs, makes one untimed warm-up call, then runs whole rounds
of the workload's operations until --seconds have passed.  Every output is
checked against the references in references.py; an operation whose
output disagrees is counted as failed.  With --trace 1 one untraced round
runs first and the traced rounds must reproduce its outputs exactly.  The
last line of stdout is one JSON object.
"""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time

import numpy as np

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import references as ref  # noqa: E402
from make_inputs import (ASSOCIATE_CALLS, COARSE, FINITE,  # noqa: E402
                         HARDY_EXACT, INFINITE, SWEEPS, UNWEIGHTED)

PROBE_REF_S = 165e-6    # median probe_s() on the tuning host (see Clock)
REL = 1e-6              # relative tolerance against exact references
ORACLE_SLACK = 1e-3     # quadrature slack on an oracle lower bound (test_06)
AUDIT_CELLS = 48        # grid_cells of AUDIT_CFG
AVERAGED = {"averaged_n1": 256, "averaged_n2": 256}   # name: grid_cells


def number(x):
    """A spec exponent: a number or the string "inf"."""
    return math.inf if x == "inf" else float(x)


def spec(rel):
    return os.path.join("bench", "specs", rel)


def read_grid(path):
    """Knots and cell values of a GridFunction CSV."""
    with open(os.path.join(ROOT, path), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[0]) for r in rows], [float(r[1]) for r in rows[1:]]


class _Cell:
    __slots__ = ("x",)

    def __init__(self, x):
        self.x = x


_CELLS = {i: _Cell(float(i)) for i in range(0, 400_000, 151)}
_KEYS = list(_CELLS)
_ARRAY = np.linspace(0.0, 1.0, 64_000)          # 0.5 MB


def probe_s():
    """How long the host takes, at this moment, for a fixed piece of work
    of the two kinds the program does: interpreted Python over objects
    (dict lookups and attribute reads over _CELLS), and vectorised numpy
    (exp and sum over _ARRAY).  The geometric mean of the two, best of
    two runs each.  It creates no object the garbage collector tracks,
    so it never sets off a collection of the program's objects."""
    py = vec = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        s = 0.0
        for k in _KEYS:
            s += _CELLS[k].x * 0.5
        t1 = time.perf_counter()
        float(np.exp(_ARRAY).sum())
        t2 = time.perf_counter()
        py, vec = min(py, t1 - t0), min(vec, t2 - t1)
    return math.sqrt(py * vec)


class Clock:
    """Times operations in seconds at a fixed host speed.

    The shared host runs the same single-threaded code at speeds up to
    1.7x apart (CPU time grows with wall time, so the vCPU itself is
    slowed, not descheduled), changing within milliseconds, in spells
    that last from seconds to longer than a run.  Medians of wall time
    spread 20-28% between runs of the same code, and so did each
    operation's best time over a run.

    So the clock runs probe_s() before and after every operation and,
    from a SIGALRM every SAMPLE_S, during it, and scales the operation's
    wall time (less the time spent in those samples) by the mean of
    PROBE_REF_S / probe over them: the time the operation would take at
    the speed at which the probe takes PROBE_REF_S, the median probe over
    the runs on the 2.0 GHz Xeon vCPU the benchmark was tuned on (its
    fastest was 94 us).  The program's code never runs in the probe, so a
    change to the program moves the scaled times as it moves the wall
    times."""

    SAMPLE_S = 0.01

    def __init__(self, sample=True):
        self.last = probe_s()
        self.probes = [self.last]
        self.sample_s = self.SAMPLE_S if sample else 0.0
        self.active = self.sampling = False
        self.sampled, self.sampling_s = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        if self.sampling:   # a signal that arrived during a sample
            return
        self.sampling = True
        t0 = time.perf_counter()
        self.sampled.append(probe_s())
        self.sampling_s += time.perf_counter() - t0
        self.sampling = False

    def time(self, fn):
        """(scaled seconds, result) of fn(); a call inside another one
        is not timed on its own and returns None for the time."""
        if self.active:
            return None, fn()
        before = self.last
        self.active, self.sampled, self.sampling_s = True, [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.sample_s, self.sample_s)
        try:
            t0 = time.perf_counter()
            result = fn()
            dt = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.active = False
        self.last = probe_s()
        probes = [before] + self.sampled + [self.last]
        self.probes += probes[1:]
        speed = statistics.fmean(PROBE_REF_S / p for p in probes)
        return (dt - self.sampling_s) * speed, result


CLOCK = None


class Op:
    """One checked operation.  `timed` ops give latency samples; `ratio`
    is output / reference (oracle lower bound / constant on audit)."""

    def __init__(self, name, seconds, ok, output, timed=True, ratio=None):
        self.name, self.seconds, self.ok, self.output = name, seconds, ok, output
        self.timed, self.ratio = timed, ratio


class Workload:
    """Inputs, references and one round of operations."""

    def __init__(self, seed):
        self.cli = None
        self.problems = []   # failed output properties (not counted faults)

    def run_cli(self, argv):
        """cli.main in-process: (seconds, exit code, stdout text)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            dt, code = CLOCK.time(lambda: self.cli.main(argv))
        return dt, code, out.getvalue()


class ClosedForms(Workload):
    """Every closed-form functional, no oracle: the acceptance instances,
    the exact Hardy benchmarks and the unweighted reduction of test_05
    through `constant` and the sweep grid through `sweep` (in an order
    drawn from --seed), and the slow power tails of fault (a) through the
    library."""

    def __init__(self, seed):
        super().__init__(seed)
        self.refs = dict(ref.CONSTANTS)
        for name, (p1, p2, theta, beta) in UNWEIGHTED.items():
            self.refs[name] = ref.sweep_value(
                1, float(p1), float(p2), float(theta), 0.0, beta)
        self.calls = [("constant", name) for name in sorted(self.refs)]
        self.calls += [("sweep", name) for name in sorted(SWEEPS)]
        random.Random(seed).shuffle(self.calls)
        self.first_sweep = {}
        self.cells = 0

    def warmup(self):
        self.run_cli(["constant", "--spec", spec("constant/hardy.a.json")])

    def round(self):
        ops, cells = [], 0
        for command, name in self.calls:
            dt, code, text = self.run_cli(
                [command, "--spec", spec(f"{command}/{name}.json")])
            if command == "sweep":
                ops += self.sweep_ops(name, dt, code, text)
                cells += len(text.splitlines()) - 1
                continue
            want, ok, ratio = self.refs[name], False, None
            if code == 0:
                got = float(json.loads(text)["value"])
                ok = ref.rel_close(got, want, REL)
                ratio = got / want if math.isfinite(want) else None
            ops.append(Op(name, dt, ok, f"{code}:{text}", ratio=ratio))
        self.cells = cells
        ops += [slow_tail(eps) for eps in ref.SLOW_TAIL_EPS]
        return ops

    def sweep_ops(self, name, dt, code, text):
        """The call itself, untimed as a constant, and each row as an
        operation of its own."""
        if self.first_sweep.setdefault(name, text) != text:
            self.problems.append(f"sweep {name} CSV differs between rounds")
        rows = text.splitlines()[1:]
        return [Op(f"sweep.{name}", dt, code == 0, f"{code}", timed=False)] \
            + [Op(f"sweep.{name}.{i}", 0.0, check_row(r), r, timed=False)
               for i, r in enumerate(rows)]


def check_row(row):
    """One sweep row against the closed-form functional and, for alpha = 0,
    against the unweighted reference; fault (b) fails here."""
    (direction, n, p1, p2, theta, alpha, beta, case, value, reference,
     _low, agrees) = row.split(",")
    n = int(n)
    p1, p2, theta, alpha, beta = (float(x) for x in
                                  (p1, p2, theta, alpha, beta))
    admissible = ref.sweep_admissible(p1, p2, theta, beta)
    if case == "inadmissible" or not admissible:
        return case == "inadmissible" and not admissible
    want = ref.sweep_value(n, p1, p2, theta, alpha, beta)
    if case != f"{direction}.{ref.sweep_case(p1, p2, theta)}" \
            or not ref.rel_close(float(value), want, REL):
        return False
    if alpha != 0.0:
        return True
    unweighted = ref.unweighted_value(n, p1, p2, theta, beta)
    nu = ref.unweighted_normalization(n, p1, p2, theta)
    if not ref.rel_close(nu * unweighted, want, 1e-9):
        raise AssertionError(f"the benchmark's references disagree: {row}")
    return ref.rel_close(float(reference), unweighted, REL) and agrees == "1"


def slow_tail(eps):
    """Fault (a): tail_norm of t^{-1-eps} on (1, inf), theta = 1, is 1/eps."""
    from morreyemb import FnProfile, MorreyError, tail_norm
    prof = FnProfile(lambda t: t ** (-1.0 - eps))
    def call():
        try:
            return float(tail_norm(prof, 1.0, 1.0))
        except MorreyError as exc:
            return exc
    dt, got = CLOCK.time(call)
    if isinstance(got, MorreyError):
        return Op(f"tail_{eps}", dt, False,
                  f"{type(got).__name__}: {got}", timed=False)
    return Op(f"tail_{eps}", dt, ref.rel_close(got, 1.0 / eps, REL),
              repr(got), timed=False)


class Audit(Workload):
    """The oracle: `verify` on every acceptance instance with the AUDIT_CFG
    settings, and `oracle` on the averaged operator (test_06) for n = 1, 2,
    in an order drawn from --seed.  The oracle keeps the seeds of the
    tests: its search, and so its work, would change with another one."""

    cells = AUDIT_CELLS * (len(FINITE) + len(INFINITE)) + sum(AVERAGED.values())

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = [("verify", name) for name in {**FINITE, **INFINITE}]
        self.calls += [("oracle", name) for name in AVERAGED]
        random.Random(seed).shuffle(self.calls)

    def warmup(self):
        self.run_cli(["verify", "--spec", spec("verify/hardy.h.json")])

    def round(self):
        ops = []
        for command, name in self.calls:
            dt, code, text = self.run_cli(
                [command, "--spec", spec(f"{command}/{name}.json")])
            ok, ratio = False, None
            if code == 0 and command == "verify":
                ok, ratio = self.check(name, json.loads(text))
            elif code == 0:
                ratio = float(json.loads(text)["lower_bound"]) / \
                    ref.AVERAGED_SHARP
                ok = 0.0 < ratio <= 1.0 + ORACLE_SLACK
            ops.append(Op(name, dt, ok, f"{code}:{text}", ratio=ratio))
        return ops

    @staticmethod
    def check(name, doc):
        want = ref.CONSTANTS[name]
        if not ref.rel_close(float(doc["value"]), want, REL):
            return False, None
        if math.isinf(want):
            r = [float(x) for x in doc["ratios"]]
            return doc["mode"] == "witness" and any(
                0.0 < r[i] < math.inf and r[i + 4] >= 2.0 * r[i]
                for i in range(len(r) - 4)), None
        ratio = float(doc["lower_bound"]) / want
        hardy = FINITE[name].get("hardy")
        factor = (ref.hardy_factor(number(hardy["p"]), number(hardy["q"]))
                  if hardy else None)
        ok = (doc["mode"] == "equivalence" and doc["passed"] is True
              and ratio > 0.0
              and (factor is None or ratio <= factor * (1.0 + REL)))
        return ok, ratio


class Associate(Workload):
    """`associate` on one 32-cell grid function and on its 64-cell
    refinement, in an order drawn from --seed.  One committed function:
    the work of the Stieltjes stages depends on the function's values, and
    a seed-chosen function would spread the timings beyond the bounds."""

    cells = sum(call[5] for call in ASSOCIATE_CALLS)

    def __init__(self, seed):
        super().__init__(seed)
        grids = {n: read_grid(f"bench/data/f_{n}.csv")
                 for n in (COARSE, 2 * COARSE)}
        self.refs = {}
        for name, kind, p, theta, alpha, cells in ASSOCIATE_CALLS:
            knots, values = grids[cells]
            theta = number(theta)
            if theta == p:
                want = ref.fubini_dual_norm(knots, values, p, alpha, kind)
            elif theta <= 1.0:
                want = ref.lm_associate_sup(knots, values, p, theta, alpha)
            else:
                want = ref.lm_associate_inv_power(knots, values, p, theta)
            self.refs[name] = want
        self.cells_of = {call[0]: call[5] for call in ASSOCIATE_CALLS}
        self.calls = list(self.cells_of)
        random.Random(seed).shuffle(self.calls)

    def warmup(self):
        self.run_cli(["associate", "--spec", spec("associate/lm_p2_thalf.json")])

    def round(self):
        ops = {}
        for name in self.calls:
            dt, code, text = self.run_cli(
                ["associate", "--spec", spec(f"associate/{name}.json")])
            value = float(json.loads(text)["value"]) if code == 0 else None
            ok = code == 0 and ref.rel_close(value, self.refs[name], REL)
            ratio = value / self.refs[name] if code == 0 else None
            # latency per COARSE cells, so the refined call is comparable
            ops[name] = Op(name, dt * COARSE / self.cells_of[name], ok,
                           f"{code}:{text}", ratio=ratio)
        for name, op in ops.items():
            if name.endswith("_fine"):
                # the refinement is the same function: the same norm
                coarse = ops[name[:-5]]
                op.ok = op.ok and coarse.ok and ref.rel_close(
                    op.ratio, coarse.ratio, REL)
        return [ops[name] for name in self.calls]


WORKLOADS = {"closed_forms": ClosedForms, "audit": Audit,
             "associate": Associate}


def geo_mean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def import_program():
    """Import morreyemb from src/ of this checkout, and only from there."""
    sys.path.insert(0, SRC)
    import morreyemb.cli
    where = os.path.abspath(morreyemb.cli.__file__)
    if not where.startswith(SRC + os.sep):
        raise SystemExit(f"morreyemb imported from {where}, not from {SRC}")
    return morreyemb.cli


def run_rounds(wl, seconds):
    """Whole rounds until `seconds` of wall time have passed."""
    rounds, times = [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        rounds.append(wl.round())
        times.append(time.perf_counter() - t0)
    return rounds, times


def median_times(rounds):
    """Each operation's median time over the rounds of a run."""
    per = {}
    for r in rounds:
        for o in r:
            per.setdefault(o.name, []).append(o.seconds)
    return {name: statistics.median(ts) for name, ts in per.items()}


def end_to_end(wl, rounds, setup_s):
    """A round's time is the sum of its operations' median times over the
    rounds; the latencies are every timed operation of every round."""
    med = median_times(rounds)
    round_s = sum(med.values())
    latency = [o.seconds * 1e3 for r in rounds for o in r
               if o.timed and o.ok]
    if len(latency) < 2:   # quantiles need two samples
        latency = (latency or [0.0]) * 2
    recovery = [geo_mean([o.ratio for o in r if o.ok and o.ratio])
                for r in rounds]
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "constants_per_s": (len(rounds[0]) / round_s, "1/s"),
        "constant_p50_ms": (statistics.median(latency), "ms"),
        "constant_p90_ms": (statistics.quantiles(latency, n=10)[8], "ms"),
        "audit_s": (round_s, "s"),
        "audit_recovery": (statistics.median(recovery), "ratio"),
        "associate_cells_per_s": (wl.cells / round_s, "1/s"),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    os.chdir(ROOT)

    global CLOCK
    # a traced run reports no times of operations, and samples taken
    # inside its spans would add to the layers' times
    CLOCK = Clock(sample=not args.trace)
    wl = WORKLOADS[args.workload](args.seed)
    # set-up: package import, inputs, one untimed warm-up call; the
    # benchmark's own modules, numpy (which the probe uses) and the
    # references above are not part of it
    def set_up():
        wl.cli = import_program()
        wl.warmup()
    setup_s, _ = CLOCK.time(set_up)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import layertrace
        t0 = time.perf_counter()
        baseline = [o.output for o in wl.round()]
        untraced_s = time.perf_counter() - t0
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
        rounds, times = run_rounds(wl, args.seconds)
        if any([o.output for o in r] != baseline for r in rounds):
            wl.problems.append("traced outputs differ from untraced ones")
        metrics = tracer.per_round(len(rounds))
        print(f"round: untraced {untraced_s:.3f} s, traced "
              f"{statistics.median(times):.3f} s (median of {len(times)})",
              file=sys.stderr)
    else:
        rounds, times = run_rounds(wl, args.seconds)
        metrics = end_to_end(wl, rounds, setup_s)
    probes = CLOCK.probes
    print(f"rounds: {len(times)}, wall time {min(times):.3f}-"
          f"{max(times):.3f} s; probe {1e6 * min(probes):.1f}-"
          f"{1e6 * max(probes):.1f} us, median "
          f"{1e6 * statistics.median(probes):.1f} us", file=sys.stderr)
    for problem in wl.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    ops = [o for r in rounds for o in r]
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": len(ops),
        "failed": sum(1 for o in ops if not o.ok),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
