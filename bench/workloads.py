"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed, sets up (`build`: the
inputs and the model or table; `warm_up`: one pass per (strategy, budget) so
that layer caches are filled), then runs closed-loop rounds: one client, each explanation
starts after the previous one returns. Every round uses inputs it has not
seen before, so a cache that lives across rounds cannot skip work the
workload means to measure.

Every attribution vector is checked, and a vector that raised or failed a
check counts as failed:

* local accuracy: |phi0 + sum(phis) - fx| <= 1e-9 * max(1, |fx|);
* st-shap at complete budgets is bit-identical across seeds (W1, W2);
* compare-exact on the linear model: every route has tau = 1 and
  r2 >= 1 - 1e-9 against the exact values (W3).

`fault="nan"` plants a model that returns NaN, to show the checks can fail.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import stableshap as ss
from stableshap import cli

LOCAL_ACCURACY_TOL = 1e-9
R2_FLOOR = 1.0 - 1e-9
TOP_K = 4


def seed_for(*keys: int) -> int:
    """A 63-bit seed per (workload seed, purpose, ...) tuple."""
    state = np.random.SeedSequence(list(keys)).generate_state(1, np.uint64)[0]
    return int(state) >> 1


def locally_accurate(e) -> bool:
    gap = abs(e.phi0 + math.fsum(e.phis) - e.fx)
    return gap <= LOCAL_ACCURACY_TOL * max(1.0, abs(e.fx))  # False for NaN


def top_k(phis) -> frozenset:
    order = np.argsort(-np.abs(np.asarray(phis, dtype=float)), kind="stable")
    return frozenset(int(i) for i in order[:TOP_K])


@dataclass
class Stats:
    """What one timed phase produced."""

    attempted: int = 0
    failed: int = 0
    vectors: int = 0
    model_rows: int = 0
    explain_ms: list = field(default_factory=list)
    jaccards: list = field(default_factory=list)
    rel_errs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # CPU seconds of each timed unit of work, per kind of unit (see Workload.timed)
    unit_cpu_s: dict = field(default_factory=dict)
    unit_vectors: dict = field(default_factory=dict)  # vectors one unit of a kind makes
    ref_cpu_s: list = field(default_factory=list)  # CPU seconds of each Reference.run

    def fail(self, n: int, why: str):
        self.failed += n
        if len(self.errors) < 5:
            self.errors.append(why)


class RowCounter:
    """User-side row-model wrapper: counts the rows the model receives."""

    def __init__(self, inner, owner, fault):
        self.inner = inner
        self.owner = owner
        self.fault = fault
        self.n_features = inner.n_features

    def predict(self, rows):
        out = np.asarray(self.inner.predict(rows), dtype=float)
        self.owner.stats.model_rows += len(out)
        return out * np.nan if self.fault == "nan" else out


class MaskCounter:
    """User-side game wrapper: counts the coalitions the game receives."""

    def __init__(self, inner, owner, fault):
        self.inner = inner
        self.owner = owner
        self.fault = fault
        self.n_features = inner.n_features

    def coalition_values(self, masks):
        out = np.asarray(self.inner.coalition_values(masks), dtype=float)
        self.owner.stats.model_rows += len(out)
        return out * np.nan if self.fault == "nan" else out


class Workload:
    """Base of the workloads: inputs seed, size, planted fault, and checked explain calls.

    `timed` records the CPU time of one unit of work under its kind: an
    explanation keyed by (strategy, budget) in W1 and W2, a whole CLI
    invocation in W3. Units of one kind do the same work, so their times can
    be compared across a run and across runs.
    """

    observers: dict = {}

    def __init__(self, seed: int, size: str, fault: str, workdir: Path):
        self.seed = seed
        self.cfg = self.SIZES[size]
        self.fault = fault
        self.workdir = workdir
        self.stats = Stats()

    def explain(self, x, model, strategy, budget, seed, explanation_size=None):
        """One checked, timed explanation; None when it raised or failed."""
        stats = self.stats
        stats.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            e = ss.explain(x, model, self.background, strategy, budget, seed,
                           explanation_size=explanation_size)
        except Exception as exc:  # counted, and the loop goes on
            stats.fail(1, f"{strategy} b={budget}: {exc!r}")
            return None
        stats.explain_ms.append((time.perf_counter() - start) * 1000.0)
        self.timed((strategy, budget), time.process_time() - cpu)
        stats.vectors += 1
        if not locally_accurate(e):
            stats.fail(1, f"{strategy} b={budget}: local-accuracy gap "
                          f"{abs(e.phi0 + math.fsum(e.phis) - e.fx)!r}")
            return None
        return e

    def timed(self, kind, cpu_s: float, vectors: int = 1):
        self.stats.unit_cpu_s.setdefault(kind, []).append(cpu_s)
        self.stats.unit_vectors[kind] = vectors

    def check_identical(self, runs, budget):
        """st-shap at a complete budget: every seed gives the same vector."""
        good = [e for e in runs if e is not None]
        differing = sum(1 for e in good[1:] if e.phis != good[0].phis)
        if differing:
            self.stats.fail(differing, f"st-shap b={budget}: seeds disagree")

    def close(self):
        pass


class KnnStability(Workload):
    """W1: a scaled-down `scripts/stability_sweep.py` on the k-NN classifier."""

    name = "knn-stability"
    SIZES = {
        "full": dict(m=13, n_train=120, background=10, k=5,
                     complete=(26, 182), ragged=(100, 500, 1000), runs=4),
        "tiny": dict(m=13, n_train=40, background=4, k=5,
                     complete=(26,), ragged=(100,), runs=2),
    }

    def build(self):
        c = self.cfg
        rng = np.random.default_rng(seed_for(self.seed, 0))
        X = rng.normal(size=(c["n_train"] + c["background"], c["m"]))
        self.knn = ss.KNNClassifierModel(X[:c["n_train"]], self._labels(X[:c["n_train"]]),
                                         k=c["k"])
        self.background = X[c["n_train"]:]
        self.budgets = c["complete"] + c["ragged"]

    def warm_up(self):
        x = self._instance(-1)
        model = self._model(x)
        for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP):
            for budget in self.budgets:
                self.explain(x, model, strategy, budget, seed_for(self.seed, 3, budget),
                             explanation_size=TOP_K)

    @staticmethod
    def _labels(X):
        # the sweep's nonlinear label rule
        score = (np.sin(X[:, 0]) + X[:, 1] * X[:, 2] + 0.5 * X[:, 3]
                 - 0.3 * X[:, 4] ** 2)
        return (score > 0).astype(int)

    def _instance(self, k):
        rng = np.random.default_rng(seed_for(self.seed, 1, k + 1))
        return rng.normal(size=self.cfg["m"])

    def _model(self, x):
        base = ss.ClassProbabilityModel(self.knn, self.knn.predicted_class(x))
        return RowCounter(base, self, self.fault)

    def round(self, k):
        x = self._instance(k)
        model = self._model(x)
        for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP):
            for budget in self.budgets:
                runs = [self.explain(x, model, strategy, budget,
                                     seed_for(self.seed, 2, k, budget, run),
                                     explanation_size=TOP_K)
                        for run in range(self.cfg["runs"])]
                if strategy != ss.ST_SHAP:
                    continue
                if budget in self.cfg["complete"]:
                    self.check_identical(runs, budget)
                supports = [e.support for e in runs if e is not None]
                if len(supports) >= 2:
                    self.stats.jaccards.append(ss.jaccard_n(supports))


def structured_table(m: int, rng) -> np.ndarray:
    """v(S) = sum of a_i over S + sum of b_ij over pairs in S + small noise.

    Filled by doubling: masks with highest bit h are the masks below 2^h plus
    player h, so the table costs O(m 2^m) and never needs a (2^m, m) matrix.
    """
    a = rng.normal(size=m)
    b = rng.normal(scale=0.3, size=(m, m))
    values = np.zeros(1 << m)
    for h in range(m):
        low = np.arange(1 << h)
        pair = np.zeros(1 << h)
        for j in range(h):
            pair += b[j, h] * ((low >> j) & 1)
        values[1 << h:2 << h] = values[:1 << h] + a[h] + pair
    values[1:] += rng.normal(scale=0.01, size=(1 << m) - 1)
    return values


class GameM20(Workload):
    """W2: full-length explanations of a dense M=20 table game."""

    name = "game-m20"
    SIZES = {
        # complete budgets: layers 1-4, 1-5 and 1-6; 200000 is ragged
        "full": dict(m=20, complete_layers=(4, 5, 6), ragged=(200000,),
                     st_runs=2, ks_runs=1),
        "tiny": dict(m=10, complete_layers=(2, 3), ragged=(500,),
                     st_runs=2, ks_runs=1),
    }

    def build(self):
        c = self.cfg
        rng = np.random.default_rng(seed_for(self.seed, 0))
        values = structured_table(c["m"], rng)
        game = ss.SyntheticGame.from_table(c["m"], dict(enumerate(values.tolist())))
        del values
        self.background = None
        self.model = MaskCounter(ss.GameModel(game), self, self.fault)
        self.exact = np.asarray(ss.exact_shap_game(game).phis)
        bounds = dict(ss.complete_layer_budgets(c["m"]))
        self.complete = tuple(bounds[i] for i in c["complete_layers"])
        self.budgets = self.complete + c["ragged"]

    def warm_up(self):
        for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP):
            for budget in self.budgets:
                self.explain(None, self.model, strategy, budget,
                             seed_for(self.seed, 3, budget))

    def round(self, k):
        c = self.cfg
        norm = float(np.linalg.norm(self.exact))
        for budget in self.budgets:
            st_runs = [self.explain(None, self.model, ss.ST_SHAP, budget,
                                    seed_for(self.seed, 2, k, budget, run))
                       for run in range(c["st_runs"])]
            for run in range(c["ks_runs"]):
                self.explain(None, self.model, ss.KERNEL_SHAP, budget,
                             seed_for(self.seed, 4, k, budget, run))
            if budget in self.complete:
                self.check_identical(st_runs, budget)
            good = [e for e in st_runs if e is not None]
            if len(good) >= 2:
                self.stats.jaccards.append(ss.jaccard_n([top_k(e.phis) for e in good]))
            for e in good:
                self.stats.rel_errs.append(
                    float(np.linalg.norm(np.asarray(e.phis) - self.exact)) / norm)


class RidgeCompareExact(Workload):
    """W3: `stableshap compare-exact --model ridge --strategy all` via `cli.main`.

    The CLI keeps its explanations to itself, so the benchmark observes them
    at the library's bindings (see `observers`): it times each `explain` call,
    checks every returned vector and counts the rows the ridge model predicts.
    """

    name = "ridge-compare-exact"
    # two instances per invocation: a 30 s run then holds about 15 invocations,
    # enough for a steady median of their CPU times
    SIZES = {
        "full": dict(m=16, rows=480, n_instances=2, budgets=(272, 2500, 10000)),
        "tiny": dict(m=8, rows=480, n_instances=1, budgets=(72, 200)),
    }

    def __init__(self, *args):
        super().__init__(*args)
        # checks of the current invocation's vectors, in the order the CLI makes them
        self.routes: list[bool] = []
        self.exact_ok: list[bool] = []
        self.supports: dict[tuple, list] = {}  # (instance, budget) -> st-shap top-k sets
        self.observers = {
            "explainer.explain": self._on_explain,
            "layer1.layer1_attribution": self._on_layer1,
            "exact.exact_shap": self._on_exact,
            "models.predict": self._on_predict,
        }

    def _on_explain(self, args, e, seconds):
        self.stats.explain_ms.append(seconds * 1000.0)
        self.routes.append(locally_accurate(e))
        x, strategy, budget = args[0], args[3], args[4]
        if strategy == ss.ST_SHAP:
            key = (np.asarray(x, dtype=float).tobytes(), budget)
            self.supports.setdefault(key, []).append(top_k(e.phis))

    def _on_layer1(self, args, e, seconds):
        self.routes.append(locally_accurate(e))

    def _on_exact(self, args, exact, seconds):
        self.exact_ok.append(bool(np.all(np.isfinite(exact.phis))))

    def _on_predict(self, args, result, seconds):
        self.stats.model_rows += len(result)

    def build(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.dataset = self.workdir / "data.csv"
        self._write_dataset(np.random.default_rng(seed_for(self.seed, 0)))
        self.output = self.workdir / "run"

    def warm_up(self):
        self.invoke(n_instances=1, master_seed=seed_for(self.seed, 3))

    def _write_dataset(self, rng):
        # the regression rule of scripts/generate_dataset.py, copied so that the
        # benchmark's inputs stay fixed when that script changes
        c = self.cfg
        X = rng.normal(size=(c["rows"], c["m"]))
        weights = rng.normal(size=c["m"]) * np.linspace(0.2, 2.0, c["m"])
        y = X @ weights + 0.5 * np.sin(X[:, 0] * X[:, 1]) + 0.1 * rng.normal(size=c["rows"])
        with open(self.dataset, "w") as fh:
            fh.write(",".join([f"f{i}" for i in range(c["m"])] + ["target"]) + "\n")
            for i, (row, t) in enumerate(zip(X, y)):
                target = "nan" if self.fault == "nan" and i == 0 else repr(float(t))
                fh.write(",".join(repr(float(v)) for v in row) + f",{target}\n")

    def invoke(self, n_instances, master_seed):
        c = self.cfg
        argv = ["compare-exact", "--dataset", str(self.dataset), "--target", "target",
                "--model", "ridge", "--strategy", "all",
                "--budgets", ",".join(str(b) for b in c["budgets"]),
                "--n-instances", str(n_instances), "--master-seed", str(master_seed),
                "--output", str(self.output)]
        # per instance: the exact vector, one per (sampling strategy, budget), layer-1
        expected = n_instances * (2 + 2 * len(c["budgets"]))
        stats = self.stats
        stats.attempted += expected
        self.routes = []
        self.exact_ok = []
        cpu = time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:  # counted, and the loop goes on
            stats.fail(expected, f"compare-exact raised {exc!r}")
            return
        self.timed("compare-exact", time.process_time() - cpu, expected)
        if code != 0:
            stats.fail(expected, f"compare-exact exited {code}")
            return
        agreement = self._read_agreement()
        if len(agreement) != len(self.routes) or len(agreement) != expected - n_instances:
            stats.fail(expected, f"compare-exact reported {len(agreement)} routes, "
                                 f"observed {len(self.routes)}")
            return
        bad = sum(1 for ok, seen in zip(agreement, self.routes) if not (ok and seen))
        if bad:
            stats.fail(bad, f"{bad} routes off exact or locally inaccurate")
        bad = self.exact_ok.count(False) + n_instances - len(self.exact_ok)
        if bad:
            stats.fail(bad, f"{bad} exact vectors missing or not finite")
        stats.vectors += expected

    def _read_agreement(self) -> list[bool]:
        """Per-instance routes in output order: tau == 1 and r2 >= 1 - 1e-9."""
        path = self.output / "metrics" / "compare_exact.csv"
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
        per_instance = [r for r in rows[1:] if r[0] not in ("mean", "median")]
        out = []
        for tau_row, r2_row in zip(per_instance[0::2], per_instance[1::2]):
            tau, r2 = float(tau_row[4]), float(r2_row[4])
            out.append(tau_row[3] == "kendall_tau" and r2_row[3] == "r2"
                       and tau == 1.0 and r2 >= R2_FLOOR)
        return out

    def round(self, k):
        self.invoke(self.cfg["n_instances"], seed_for(self.seed, 2, k))
        # st-shap stability across invocations, the warm-up one included
        self.stats.jaccards = [ss.jaccard_n(sets) for sets in self.supports.values()
                               if len(sets) >= 2]

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (KnnStability, GameM20, RidgeCompareExact)}
