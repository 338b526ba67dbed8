"""Time to a certified quotient: the ainfkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from src/.
NAME is one of engine-b4, basis-b5, yoneda-fp, span-b6, or "all" to
run each in turn.  The workloads are described in perfbench/workloads.py
and perfbench/design.json.

Every repetition runs in a fresh single-threaded child process, so each
one builds its models with cold memos and reports its own peak resident
memory.  A set-up shorter than SETUP_BUDGET_S is repeated inside the
repetition and its median taken.  Before the set-up, between set-up and
verdict, and after the verdict the repetition times a fixed reference
loop that does not touch ainfkit (reference_loop below).

Times are reported in reference seconds: wall seconds times
REFERENCE_S over the reference loop's wall time in the same
repetition, that is, the seconds the step would take on a host that
runs the reference loop in REFERENCE_S.  The host is shared and its
speed drifts by a quarter over minutes; the reference loop slows with
it, so the quotient cancels the drift, while a change to ainfkit moves
only the numerator.  Raw wall seconds are printed next to them.

With --trace 0, repetitions run one after another for about S seconds
(at least MIN_REPS of them; the run stops at the repetition boundary
nearest to S), and the run reports over its repetitions the median
set-up time, the verdict time (total verdict time over total reference
time, times REFERENCE_S) and the median peak memory.  With --trace 1,
the run makes one untraced and one traced repetition and reports the
per-layer metrics of the traced one, plus the tracing overhead; it never
reports end-to-end numbers from a traced process.  Spans go to
.bench_trace/ in the checkout.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A repetition checks every
known answer; an operation whose outcome differs counts as failed.
"""

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")
MIN_REPS = 3
SETUP_BUDGET_S = 1.0
NAMES = ("engine-b4", "basis-b5", "yoneda-fp", "span-b6")
END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))
REFERENCE_ITERATIONS = 400000
# About the reference loop's median wall time on a 2-vCPU VM with
# Python 3.11, so that reference seconds read close to wall seconds.
REFERENCE_S = 0.25
# After a long verdict the reference loop runs until its time is this
# share of the verdict's, so that the divisor is not a short sample.
REFERENCE_SHARE = 0.25


def reference_loop():
    """Fixed pure-Python work, timed to gauge the host's current speed.

    The loop mixes what the package spends its time on (tuple
    keys in a dict, small-int arithmetic, Fraction sums) but calls none
    of it, and runs with the collector off, so neither a change to the
    package nor the size of its heap changes its cost.  Returns seconds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        acc = Fraction(0)
        for i in range(REFERENCE_ITERATIONS):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * 7 % 13
            if i % 8 == 0:
                acc += Fraction(i % 7 + 1, i % 5 + 1)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def load_package():
    """Import the package from this checkout's src/, or exit."""
    if not os.path.isfile(os.path.join(SRC, "ainfkit", "__init__.py")):
        sys.exit("perfbench: no src/ainfkit in %s; run from a checkout" % ROOT)
    sys.path[:0] = [SRC, HERE]


def repetition(name, seed, traced=False, tamper=False):
    """Set-up, verdict and control in this process; a result dict.

    tamper replaces a model by a damaged copy before the verdict (for
    the self-tests).  An exception escaping a step is recorded as one
    failed operation, so a broken input yields a result, not a crash.
    """
    import workloads

    tally = workloads.Tally()
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer(extra_modules=(workloads,))
        tracer.install()
    setups = []
    refs = [reference_loop()]
    try:
        # A short set-up is repeated, each time from a fresh instance
        # with the previous models freed, and its median is reported.
        while not setups or (not traced and sum(setups) < SETUP_BUDGET_S):
            w = None
            gc.collect()
            w = workloads.WORKLOADS[name](seed)
            t0 = time.perf_counter()
            try:
                w.setup()
            except Exception:
                tally.expect("setup", False, traceback.format_exc(limit=3))
                break
            setups.append(time.perf_counter() - t0)
        if tamper:
            w.tamper()
        refs.append(reference_loop())
        t0 = time.perf_counter()
        try:
            w.verdict(tally)
        except Exception:
            tally.expect("verdict", False, traceback.format_exc(limit=3))
        verdict_s = time.perf_counter() - t0
        after = 0.0
        while not after or after < REFERENCE_SHARE * verdict_s:
            refs.append(reference_loop())
            after += refs[-1]
    finally:
        if tracer:
            tracer.uninstall()
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = tally.attempted
    try:
        w.control(tally)
    except Exception:
        tally.expect("control", False, traceback.format_exc(limit=3))
    out = {"setup_s": statistics.median(setups) if setups else 0.0,
           "setup_samples": len(setups), "verdict_s": verdict_s,
           "ref_s": statistics.mean(refs),
           "peak_rss_mb": peak, "verdict_ops": ops,
           "attempted": tally.attempted, "failed": tally.failed,
           "mismatches": tally.mismatches}
    if tracer:
        out["layers"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in tracer.metrics().items()}
        os.makedirs(TRACE_DIR, exist_ok=True)
        path = os.path.join(TRACE_DIR, "%s-seed%d.tsv" % (name, seed))
        out["spans"] = tracer.write_spans(path)
    return out


def child(name, seed, traced):
    """Run one repetition in a fresh interpreter and parse its result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--repetition", name,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return {"attempted": 1, "failed": 1, "verdict_ops": 0,
                "mismatches": ["repetition exited with %d" % proc.returncode]}
    return json.loads(lines[-1])


def measure(name, seed, seconds):
    """Repetitions for about `seconds`; end-to-end metrics over them."""
    reps, walls = [], []
    t0 = time.perf_counter()
    while len(reps) < MIN_REPS or (time.perf_counter() - t0
                                   + statistics.median(walls) / 2 < seconds):
        start = time.perf_counter()
        reps.append(child(name, seed, False))
        walls.append(time.perf_counter() - start)
        if "setup_s" not in reps[-1]:
            break
    good = [r for r in reps if "setup_s" in r]
    if not good:
        return reps, {}
    for r in good:
        for key in ("setup_s", "verdict_s"):
            r["ref." + key] = r[key] * REFERENCE_S / r["ref_s"]
    for key in ("setup_s", "ref.setup_s", "verdict_s", "ref.verdict_s",
                "ref_s", "peak_rss_mb"):
        values = [r[key] for r in good]
        print("%-10s %-13s mean %10.4f  median %10.4f  min %10.4f  "
              "max %10.4f  n=%d processes" % (
                  name, key, statistics.mean(values),
                  statistics.median(values), min(values), max(values),
                  len(values)))
    values = {
        "setup_s": statistics.median(r["ref.setup_s"] for r in good),
        "verdict_s": (REFERENCE_S * sum(r["verdict_s"] for r in good)
                      / sum(r["ref_s"] for r in good)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    metrics = {key: {"value": values[key], "unit": unit}
               for key, unit in END_TO_END}
    print("%-10s setup_s per process is the median of its set-ups; "
          "%d set-ups in all" % (name, sum(r["setup_samples"] for r in good)))
    ops = good[0]["verdict_ops"]
    print("%-10s verdict work %d operations per repetition, %.0f ops/s "
          "(wall)" % (name, ops, ops / statistics.mean(r["verdict_s"]
                                                       for r in good)))
    return reps, metrics


def measure_traced(name, seed):
    """One untraced and one traced repetition; per-layer metrics."""
    import tracing

    plain = child(name, seed, False)
    traced = child(name, seed, True)
    reps = [plain, traced]
    if "layers" not in traced or "setup_s" not in plain:
        return reps, {}
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = {
        "value": (traced["setup_s"] + traced["verdict_s"]
                  - plain["setup_s"] - plain["verdict_s"]),
        "unit": "s"}
    for key in sorted(metrics):
        print("%-10s %-34s %14.6g %s" % (name, key, metrics[key]["value"],
                                         metrics[key]["unit"]))
    print("%-10s %d spans written to %s" % (name, traced["spans"],
                                            os.path.relpath(TRACE_DIR, ROOT)))
    zeros = tracing.predicted_zeros(name, metrics)
    bad = [k for k in zeros if metrics[k]["value"] != 0]
    reps.append({"attempted": len(zeros), "failed": len(bad),
                 "mismatches": ["predicted zero is %r: %s"
                                % (metrics[k]["value"], k) for k in bad]})
    return reps, metrics


def run(name, seed, seconds, trace_on):
    if trace_on:
        reps, metrics = measure_traced(name, seed)
    else:
        reps, metrics = measure(name, seed, seconds)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for line in r["mismatches"]:
            print("%-10s MISMATCH %s" % (name, line.splitlines()[0]))
    print("%-10s failed_share %.6f (%d of %d operations)" % (
        name, failed / attempted, failed, attempted))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=NAMES + ("all",))
    ap.add_argument("--repetition", choices=NAMES, help=argparse.SUPPRESS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_package()
    if args.repetition:
        print(json.dumps(repetition(args.repetition, args.seed,
                                    traced=bool(args.trace))))
        return 0
    if not args.workload:
        ap.error("--workload is required")
    names = NAMES if args.workload == "all" else (args.workload,)
    results = {n: run(n, args.seed, args.seconds, bool(args.trace))
               for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (n, k): v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
