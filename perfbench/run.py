#!/usr/bin/env python3
"""The attrition simulator's benchmark: build, repeat, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload steady-1k --seed 1 --seconds 20 --trace 0

It builds the simulator and the benchmark executable with dune inside
the checkout (``_build/``), then starts one ``bench.exe`` process per
repetition until the next one would overrun ``--seconds``. Each process
runs the workload once untraced (and, with ``--trace 1``, once more
traced) and prints one JSON line per run. A fresh process per
repetition gives every repetition a fresh heap and its own placement on
the host, so the median across repetitions is not hostage to one
process landing on a busy core.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the untraced runs; with ``--trace 1`` the per-layer metrics of the
traced run whose run phase is the median one. Every run is checked by the oracle, and all runs
of one seed must agree on one digest. Human-readable lines come first;
the last line of standard output is the JSON result. The exit code is
non-zero, with no result printed, when the build or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")

# Reference time of the calibration kernel (calib.ml): roughly its time
# on the 2-core VM this benchmark was written on. A repetition's times are
# scaled by REFERENCE_S / calib_s, where calib_s is the mean of the
# kernel's times just before and just after it.
REFERENCE_S = 0.2

# name, unit, function of a run; times in reference seconds.
END_TO_END = [
    ("setup_s", "s", lambda r: r["setup_s"] * host_factor(r)),
    ("run_s", "s", lambda r: r["run_s"] * host_factor(r)),
    ("wall_s", "s", lambda r: r["wall_s"] * host_factor(r)),
    ("replica_years_per_s", "replica-yr/s",
     lambda r: r["replica_years"] / (r["wall_s"] * host_factor(r))),
    ("alloc_mwords", "Mwords", lambda r: r["alloc_mwords"]),
    ("peak_heap_mb", "MB", lambda r: r["peak_heap_mb"]),
]
RAW_TIMES = ["setup_s", "run_s", "wall_s"]


def host_factor(run):
    return REFERENCE_S / run["calib_s"]


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the repository root (no dune-project/lib here)\n")
        return False
    # Keep every build artifact inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(["dune", "build", "--root", ".", "./perfbench/bench.exe"],
                          stdout=sys.stderr, env=env)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
    return proc.returncode == 0


def run_exe(args):
    proc = subprocess.run([EXE] + args, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("bench.exe exited with %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def calibrate(args):
    return run_exe(["--calibrate", "--workload", args.workload])[0]["calib_s"]


def repetition(args):
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--trace", str(args.trace), "--size", args.size]
    if args.digest:
        cmd += ["--digest", args.digest]
    return run_exe(cmd)


def spread(xs):
    """Median and quartiles, as statistics.quantiles gives them."""
    med = statistics.median(xs)
    if len(xs) < 2:
        return med, med, med
    q = statistics.quantiles(xs, n=4)
    return med, q[0], q[2]


def self_time_table(layers):
    run_s = layers["trace.run_s"]["value"]

    def row(label, v):
        share = 100.0 * v / run_s if run_s > 0 else 0.0
        print("  %-62s %10.4f s %6.1f%%" % (label, v, share))

    if layers["engine.executed"]["value"] > 0:
        print("run-phase self time (traced run_s %.4f s; the rows sum to it):" % run_s)
        for name, m in layers.items():
            if name.startswith("handler.") and name.endswith(".self_s"):
                row("handler " + name.split(".")[1], m["value"])
        row("trace sink (encode + write)", layers["trace.sink_s"]["value"])
        row("auditor feed", layers["auditor.feed_s"]["value"])
        row("engine + unlabelled events (timers, continuations, processes)",
            layers["engine.self_s"]["value"])
    else:
        print("sweep CPU by pool slot (traced run_s %.4f s, all domains):" % run_s)
        row("slot 0 (calling domain)", layers["runner.slot0.cpu_s"]["value"])
        row("slot 1", layers["runner.slot1.cpu_s"]["value"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "toy"], default="full")
    parser.add_argument("--digest", help="expected digest, overriding the pinned one")
    args = parser.parse_args()
    if not build():
        return 2
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)

    runs = []
    start, last = time.monotonic(), 0.0
    try:
        calibs = [calibrate(args)]
        while not runs or time.monotonic() - start + last <= args.seconds:
            t = time.monotonic()
            reps = repetition(args)
            calibs.append(calibrate(args))
            for r in reps:
                r["calib_s"] = (calibs[-2] + calibs[-1]) / 2
            runs += reps
            last = time.monotonic() - t
    except (RuntimeError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1

    if any(r[f] is None for r in runs for f in RAW_TIMES):
        sys.stderr.write("perfbench: a run reported a non-finite time\n")
        return 1
    digests = {r["digest"] for r in runs}
    for r in runs:
        if len(digests) > 1:
            r["problems"].append("runs of one seed disagree: digests %s" % sorted(digests))
            r["failed"] = r["attempted"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]

    print("workload %s (%s), seed %d, %d untraced and %d traced runs in %d processes"
          % (args.workload, args.size, args.seed, len(untraced), len(traced),
             len(untraced)))
    for r in runs:
        for p in r["problems"]:
            print("ORACLE FAILURE: %s" % p)
    print("end-to-end (untraced; times in reference seconds): median [p25, p75]")
    e2e = {}
    for name, unit, f in END_TO_END:
        xs = [f(r) for r in untraced]
        med, lo, hi = spread(xs)
        e2e[name] = {"value": med, "unit": unit}
        print("  %-22s %14.6g %-12s [%.6g, %.6g] n=%d" % (name, med, unit, lo, hi, len(xs)))
    for name in RAW_TIMES:
        med, lo, hi = spread([r[name] for r in untraced])
        print("  %-22s %14.6g %-12s [%.6g, %.6g] measured, not scaled"
              % ("(" + name + ")", med, "s", lo, hi))
    print("  %-22s %14.6g %-12s [%d of %d]" % ("failed_frac", failed / attempted, "frac",
                                               failed, attempted))
    calib = statistics.median(calibs)
    print("  %-22s %14.6g %-12s (calibration kernel; reference %g s)"
          % ("host.calib_s", calib, "s", REFERENCE_S))

    metrics = e2e
    if args.trace:
        # The per-layer vector of the traced run with the median run
        # phase: a whole run, so its self times still sum to its run_s.
        ranked = sorted(traced, key=lambda r: r["layers"]["trace.run_s"]["value"] or 0.0)
        metrics = dict(ranked[(len(ranked) - 1) // 2]["layers"])
        metrics["host.calib_s"] = {"value": calib, "unit": "s"}
        if any(m["value"] is None for m in metrics.values()):
            sys.stderr.write("perfbench: non-finite per-layer metric\n")
            return 1
        self_time_table(metrics)
        print("per-layer (the traced run with the median run phase, of %d):" % len(traced))
        for name, m in metrics.items():
            print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]))

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
