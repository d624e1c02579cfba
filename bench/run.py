#!/usr/bin/env python3
"""The stableshap benchmark: each workload runs in processes of its own.

    python3 bench/run.py --workload knn-stability --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``knn-stability``, ``game-m20`` and ``ridge-compare-exact``. Every workload
process runs single-threaded (BLAS/OpenMP threads pinned to 1) as a closed
loop with one client.

With --trace 0 the last stdout line carries the end-to-end metrics. Times
are CPU times of the single-threaded worker, because the wall clock of a
shared host moves by more than the bounds from one run to the next; the
wall-clock figures are in the detail line. They are: set-up time (median of
SETUPS fresh processes, CPU time from process start to the first timed call);
the CPU cost of one explanation in Reference runs (worker.py), a fixed
computation of the benchmark's own timed after every round, because the
host's speed also drifts by 20-30% over minutes and the ratio cancels most of
that (each kind of unit of work, an explain call of one strategy and budget
or one CLI invocation, counts at its median CPU time; the plain rate per CPU
second is in the detail line); model rows per explanation; peak RSS (and, in
the detail line, the peak once the inputs are built); the share of
attribution vectors that passed every check; and st-shap's top-4 Jaccard
stability. With --trace 1 it carries the per-layer metrics of a traced run
instead (times and counts per attribution vector, layer shares of the wall
time, and the tracing overhead), and the spans go to bench/out/spans-*.jsonl.

Every call also writes bench/out/result-<workload>-seed<seed>-trace<t>.json
with provenance (nproc, Python, numpy, BLAS, thread settings, seed) and the
sample count behind each metric, and prints it on the line before the last.
A run whose outputs fail a check prints ``"correct": false`` and exits 1.

Benchmark-only options: ``--size tiny`` shrinks every workload for the smoke
test, and ``--fault nan`` plants a model that returns NaN.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ("knn-stability", "game-m20", "ridge-compare-exact")
SETUPS = 3  # set-ups timed per --trace 0 run; the measuring process is the last
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--fault", choices=("none", "nan"), default="none")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args, role: str, result: Path, deadline: float) -> tuple[dict, float]:
    """Run one worker process to completion; returns its report and start time."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--fault", args.fault,
           "--role", role, "--result", str(result)]
    result.unlink(missing_ok=True)
    started = time.monotonic()
    # the worker's stdout goes to our stderr: our stdout ends with the result line
    proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr,
                          timeout=max(deadline - started, 1.0))
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"{role} worker exited {proc.returncode}")
    with open(result) as fh:
        report = json.load(fh)
    result.unlink()
    return report, started


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if args.workload == "all":
        # one detail line and one result line per workload, in turn
        return max([run_one(parse_args(argv + ["--workload", w])) for w in WORKLOADS])
    return run_one(args)


def run_one(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "stableshap" / "__init__.py").is_file():
        print(f"bench: no stableshap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    scratch = out_dir / f"worker-{os.getpid()}.json"
    setups = []  # CPU seconds of each set-up
    setup_walls = []
    try:
        if not args.trace:
            for _ in range(SETUPS - 1):
                report, started = run_worker(args, "setup", scratch, deadline)
                setups.append(report["setup_cpu_s"])
                setup_walls.append(report["setup_end"] - started)
        report, started = run_worker(args, "measure", scratch, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 3
    setups.append(report["setup_cpu_s"])
    setup_walls.append(report["setup_end"] - started)

    phases = [report[k] for k in ("untraced", "traced") if k in report]
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    values = dict(report["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    missing = set(units) - set(values)
    if missing:
        print(f"bench: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 3
    main_phase = phases[-1]
    samples = {name: main_phase["vectors"] for name in units}
    samples.update({"setup_s": len(setups), "peak_rss_mb": 1,
                    "ok_share": main_phase["attempted"],
                    "explain_cost_in_ref": sum(main_phase["units"].values()),
                    "st_jaccard": main_phase["jaccard_samples"]})
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "fault": args.fault,
        "provenance": report["provenance"],
        "setup_s_samples": setups, "setup_wall_s_samples": setup_walls,
        "build_peak_rss_mb": report["build_peak_rss_mb"],
        "phases": {k: report[k] for k in ("untraced", "traced") if k in report},
        "sample_counts": {name: samples.get(name) for name in units},
    }
    for key in ("share_mismatches", "missing_targets", "spans_file"):
        if key in report:
            detail[key] = report[key]
    for why in detail.get("share_mismatches", []):
        print(f"bench: layer share mismatch on {args.workload}: {why}", file=sys.stderr)
    for phase in phases:
        for why in phase["errors"]:
            print(f"bench: check failed on {args.workload}: {why}", file=sys.stderr)
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(detail | {"metrics": values}, fh, indent=1, sort_keys=True)

    correct = failed == 0 and attempted > 0
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]}
                    for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
