"""One workload in one process: set up, run the timed closed loop, report.

Started by run.py, which pins the BLAS/OpenMP thread counts before numpy
loads and reads the JSON report this process writes to --result.

Roles: ``setup`` stops once set-up is done (run.py times several set-ups);
``measure`` also runs the timed phase. With --trace 1 the timed phase is
split in two halves: the first untraced, the second with every layer traced,
so that the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# layer shares of the traced wall time that the workloads are built around;
# a share below half of its figure (or above 0 where it is 0) is a mismatch
EXPECTED_SHARES = {
    "knn-stability": {"models.predict": 0.97},
    "game-m20": {"sampling.materialize": 0.75, "explainer.fit": 0.20,
                 "value_function.substitute": 0.0, "models.predict": 0.0},
    "ridge-compare-exact": {"value_function.substitute": 0.73, "exact.exact_shap": 0.70},
}
SHARE_LAYERS = ("models.predict", "models.coalition_values", "sampling.materialize",
                "explainer.fit", "value_function.substitute", "exact.exact_shap")

# per-layer figures: (metric, span, kind); times and counts are per attribution vector
PER_VECTOR = (
    ("models.predict.ms", "models.predict", "self_ms"),
    ("models.predict.rows", "models.predict", "n"),
    ("models.coalition_values.ms", "models.coalition_values", "self_ms"),
    ("models.coalition_values.masks", "models.coalition_values", "n"),
    ("value_function.evaluate_batch.ms", "value_function.evaluate_batch", "self_ms"),
    ("value_function.evaluate_batch.masks", "value_function.evaluate_batch", "n"),
    ("value_function.anchors.calls", "value_function.anchors", "calls"),
    ("value_function.substitute.ms", "value_function.substitute", "self_ms"),
    ("sampling.plan_for.ms", "sampling.plan_for", "self_ms"),
    ("sampling.materialize.ms", "sampling.materialize", "self_ms"),
    ("sampling.materialize.coalitions", "sampling.materialize", "n"),
    ("coalitions.layer_masks.ms", "coalitions.layer_masks", "self_ms"),
    ("explainer.explain.self_ms", "explainer.explain", "self_ms"),
    ("explainer.fit.ms", "explainer.fit", "self_ms"),
    ("explainer.fit.rows", "explainer.fit", "n"),
    ("explainer.sparsify.ms", "explainer.sparsify", "self_ms"),
    ("exact.exact_shap.ms", "exact.exact_shap", "self_ms"),
    ("exact.exact_shap.coalitions", "exact.exact_shap", "n"),
    ("layer1.layer1_attribution.ms", "layer1.layer1_attribution", "self_ms"),
    ("cli.wire.ms", "cli.wire", "self_ms"),
    ("cli.write.ms", "cli.write", "self_ms"),
    ("cli.write.bytes", "cli.write", "n"),
    ("data.load_csv.ms", "data.load_csv", "self_ms"),
)
METRIC_SPANS = ("metrics.jaccard_n", "metrics.kendall_tau", "metrics.r2_score")


def import_library():
    """Import stableshap from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import stableshap
    import stableshap.cli  # noqa: F401  (its bindings are traced too)

    if Path(stableshap.__file__).resolve().parent != (SRC / "stableshap").resolve():
        raise SystemExit(f"stableshap came from {stableshap.__file__}, not {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; provenance only
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


class Reference:
    """A fixed computation of the benchmark's own, timed after every round.

    It does the kinds of work the workloads do (a NumPy distance matrix and a
    stable argsort, a sort of and a pass over an 8 MB array, an interpreter
    loop) on fixed inputs and never calls stableshap, so its CPU time follows
    only how fast the shared host runs at the time, which drifts by 20-30%
    over minutes. Dividing a workload's CPU time by it cancels most of that.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.big = rng.normal(size=1_000_000)
        self.rows = rng.normal(size=(400, 13))
        self.train = rng.normal(size=(120, 13))

    def run(self) -> float:
        np = self.np
        cpu = time.process_time()
        for _ in range(10):
            d2 = ((self.rows[:, None, :] - self.train[None, :, :]) ** 2).sum(axis=2)
            np.argsort(d2, axis=1, kind="stable")
        for _ in range(2):
            np.sort(self.big)
            (self.big * 1.5 + 2.0).sum()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        return time.process_time() - cpu


def run_phase(wl, ref: Reference, seconds: float, first_round: int):
    """Closed loop: whole rounds, each followed by a Reference run, until `seconds` have passed."""
    from workloads import Stats

    wl.stats = Stats()
    k = first_round
    start = time.perf_counter()
    while True:
        wl.round(k)
        wl.stats.ref_cpu_s.append(ref.run())
        k += 1
        wall = time.perf_counter() - start
        if wall >= seconds:
            return wl.stats, wall, k


def phase_report(stats, wall: float, rounds: int) -> dict:
    """Counts of one timed phase, with the sample count behind each figure."""
    return {
        "wall_s": wall, "rounds": rounds, "attempted": stats.attempted,
        "failed": stats.failed, "vectors": stats.vectors, "model_rows": stats.model_rows,
        "explain_samples": len(stats.explain_ms), "jaccard_samples": len(stats.jaccards),
        # wall time per explain call; not end-to-end metrics, as they did not
        # repeat within a tenth on a shared host
        "explain_ms_p50": statistics.median(stats.explain_ms) if stats.explain_ms else None,
        "explain_ms_p90": (statistics.quantiles(stats.explain_ms, n=10)[8]
                           if len(stats.explain_ms) >= 2 else None),
        "st_rel_err": statistics.fmean(stats.rel_errs) if stats.rel_errs else None,
        "errors": stats.errors,
        # wall-clock throughput: what the phase gave, shared host and all
        "wall_explanations_per_s": stats.vectors / wall,
        "explanations_per_cpu_s": cpu_rate(stats),
        "ref_cpu_ms_median": statistics.median(stats.ref_cpu_s) * 1000.0,
        "ref_samples": len(stats.ref_cpu_s),
        "units": {str(k): len(v) for k, v in stats.unit_cpu_s.items()},
        "unit_cpu_ms_median": {str(k): statistics.median(v) * 1000.0
                               for k, v in stats.unit_cpu_s.items()},
    }


def cpu_rate(stats) -> float:
    """Vectors per CPU second had every unit of work taken its kind's median.

    The loop runs in one thread, so a unit's CPU time is the program's work
    without the time the shared host's scheduler gave to others. Units of one
    kind do the same work, so the median per kind also drops the units that a
    burst of cache or memory contention slowed, which a mean would keep.
    """
    vectors = seconds = 0.0
    for kind, times in stats.unit_cpu_s.items():
        vectors += len(times) * stats.unit_vectors[kind]
        seconds += len(times) * statistics.median(times)
    return vectors / seconds if seconds else 0.0


def cost_in_ref(stats) -> float:
    """CPU time of one explanation, in Reference runs of the same phase."""
    rate = cpu_rate(stats)
    return 1.0 / (rate * statistics.median(stats.ref_cpu_s)) if rate else 0.0


def end_to_end(stats) -> dict:
    n = stats.vectors
    return {
        "explain_cost_in_ref": cost_in_ref(stats),
        "model_rows_per_explanation": stats.model_rows / n if n else 0.0,
        "peak_rss_mb": peak_rss_mb(),
        "ok_share": 1.0 - stats.failed / stats.attempted if stats.attempted else 0.0,
        "st_jaccard": statistics.fmean(stats.jaccards) if stats.jaccards else 0.0,
    }


def per_layer(workload: str, tracer, stats, wall: float, base) -> tuple[dict, list]:
    import stableshap.coalitions as coalitions

    timed = tracer.summary("timed")
    setup = tracer.summary("setup")
    n = max(stats.vectors, 1)

    def get(span, kind):
        row = timed.get(span)
        if row is None:
            return 0.0
        if kind == "self_ms":
            return row["self_s"] * 1000.0 / n
        if kind == "calls":
            return row["calls"] / n
        return row["counts"].get(kind, 0.0) / n

    out = {name: get(span, kind) for name, span, kind in PER_VECTOR}
    predict = timed.get("models.predict")
    out["models.predict.rows_per_s"] = (predict["counts"]["n"] / predict["self_s"]
                                        if predict and predict["self_s"] else 0.0)
    seen = sum(len(s) for s in tracer.masks_seen.values())
    masks = out["value_function.evaluate_batch.masks"] * n
    out["value_function.distinct_mask_ratio"] = seen / masks if masks else 0.0
    sub = timed.get("value_function.substitute")
    out["value_function.substitute.mb"] = sub["counts"]["n"] / 1e6 / n if sub else 0.0
    mat = timed.get("sampling.materialize")
    out["sampling.sampled_share"] = (mat["counts"]["sampled"] / mat["counts"]["budget"]
                                     if mat and mat["counts"]["budget"] else 0.0)
    layer_setup = setup.get("coalitions.layer_masks")
    out["coalitions.layer_masks.setup_ms"] = layer_setup["self_s"] * 1000.0 if layer_setup else 0.0
    info = getattr(coalitions.layer_masks, "cache_info", None)
    info = info() if info else None
    out["coalitions.layer_masks.hit_ratio"] = (info.hits / (info.hits + info.misses)
                                               if info and info.hits + info.misses else 0.0)
    out["metrics.ms"] = sum(timed[s]["self_s"] for s in METRIC_SPANS if s in timed) * 1000.0 / n

    mismatches = []
    for span in SHARE_LAYERS:
        share = timed[span]["incl_s"] / wall if span in timed else 0.0
        out[f"share.{span}"] = share
        expected = EXPECTED_SHARES[workload].get(span)
        if expected is not None and (share < expected / 2 if expected else share > 0):
            mismatches.append(f"{span}: share {share:.3f}, expected about {expected:.2f}")
    out["trace.untraced_explanations_per_cpu_s"] = cpu_rate(base)
    out["trace.traced_explanations_per_cpu_s"] = cpu_rate(stats)
    # from the costs in Reference runs, so that the host's drift between the
    # two halves does not count as overhead
    out["trace.overhead_share"] = 1.0 - cost_in_ref(base) / cost_in_ref(stats)
    out["trace.share_mismatches"] = len(mismatches)
    out["trace.spans"] = sum(1 for s in tracer.spans if s[7] == "timed")
    return out, mismatches


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--fault", choices=("none", "nan"), default="none")
    p.add_argument("--role", choices=("setup", "measure"), required=True)
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    import_library()
    from tracer import Tracer, install
    from workloads import WORKLOADS

    out_dir = BENCH / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, args.size, args.fault, workdir)
    tracer = Tracer() if args.trace else None
    report = {"provenance": provenance(args.seed)}
    try:
        undo, missing = install(tracer, wl.observers)
        ref = Reference()
        wl.build()
        report["build_peak_rss_mb"] = peak_rss_mb()
        wl.warm_up()
        undo()
        report["setup_end"] = time.monotonic()
        # CPU time since the process started: interpreter, imports and set-up
        report["setup_cpu_s"] = time.process_time()
        if args.role == "measure":
            undo, _ = install(None, wl.observers)
            stats, wall, k = run_phase(wl, ref, args.seconds / (2 if tracer else 1), 0)
            undo()
            report["untraced"] = phase_report(stats, wall, k)
            if tracer is None:
                report["metrics"] = end_to_end(stats)
            else:
                tracer.phase = "timed"
                undo, _ = install(tracer, wl.observers)
                traced, traced_wall, k2 = run_phase(wl, ref, args.seconds / 2, k)
                undo()
                report["traced"] = phase_report(traced, traced_wall, k2 - k)
                metrics, mismatches = per_layer(args.workload, tracer, traced,
                                                traced_wall, stats)
                report["metrics"] = metrics
                report["share_mismatches"] = mismatches
                report["missing_targets"] = missing
                spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
                tracer.write(spans)
                report["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        wl.close()
    with open(args.result, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
