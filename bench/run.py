"""Benchmark entry point: one workload run, one JSON line of results.

    python3 bench/run.py --workload closed_forms|audit|associate \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a fresh process
(bench/worker.py) with BLAS and OpenMP pinned to one thread.  With
--trace 0 the result carries the end-to-end metrics; set-up time is the
median over the measuring process and SETUP_SAMPLES - 1 extra processes
that only set up.  With --trace 1 it carries the per-layer metrics of a
traced run.  The last line of stdout is the result; on any failure the
exit code is non-zero and no result is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
WORKLOADS = ("closed_forms", "audit", "associate")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 30    # per set-up-only process
TOTAL_TIMEOUT_S = 170   # the whole command
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def run_worker(argv, env, timeout):
    """Run the worker to completion and return its last stdout line as a
    dict; raise RuntimeError if it fails or prints no result."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + argv, env=env,
                              stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    env.update({var: "1" for var in THREAD_VARS})
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    start = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(base + ["--setup-only"], env,
                                         SETUP_TIMEOUT_S)["setup_s"])
        result = run_worker(base + ["--seconds", str(args.seconds),
                                    "--trace", str(args.trace)], env,
                            TOTAL_TIMEOUT_S - (time.monotonic() - start))
    except (RuntimeError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setup = result["metrics"]["setup_s"]
        setup["value"] = statistics.median(setups + [setup["value"]])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
