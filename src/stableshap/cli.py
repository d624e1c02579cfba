"""Experiment harness: dataset wiring, explanation runs, sweeps, reports.

Subcommands: ``explain``, ``stability``, ``adherence``, ``compare-exact``,
``layers``. Every run writes a ``config.resolved.json`` next to its outputs,
and every output file carries the resolved configuration, so re-running a
command byte-reproduces its results.

Exit codes: 0 success, 1 other toolkit errors (such as a non-finite payoff or
a budget too small to fit), 2 configuration error, 3 external-model bridge
error, 4 exact-oracle cap refusal.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import exact, metrics
from .coalitions import layer_size, n_layers
from .data import as_int_labels, load_csv, split_indices
from .errors import (
    ConfigError,
    GameTableError,
    ModelBridgeError,
    OracleCapError,
    StableShapError,
    UndefinedMetricError,
)
from .explainer import LAYER1, explain, explain_with_training_set, plan_for
from .games import SyntheticGame
from .layer1 import layer1_attribution
from .models import (
    CallableModel,
    ClassProbabilityModel,
    ExternalProcessModel,
    GameModel,
    KNNClassifierModel,
    RidgeRegressionModel,
)
from .sampling import KERNEL_SHAP, ST_SHAP, validate_budget

SAMPLING_STRATEGIES = (KERNEL_SHAP, ST_SHAP)
ALL_STRATEGIES = (KERNEL_SHAP, ST_SHAP, LAYER1)
EXACT = "exact"  # compare-exact's reference route, run before the others

CSV_HEADER = ["instance", "budget", "strategy", "metric", "value"]


@dataclass
class RunConfig:
    """Everything a run needs; JSON config file fields mirror these names."""

    dataset: str | None = None
    target: str | None = None
    features: list[str] | None = None
    encodings: dict[str, dict] = field(default_factory=dict)  # column -> value -> number
    model: str = "ridge"                 # ridge | knn | external | game
    model_command: str | None = None
    game_file: str | None = None
    knn_k: int = 5
    explained_class: int | None = None
    task: str | None = None              # regression | classification
    background_size: int = 100
    background_rows: list[int] | None = None
    heldout_fraction: float = 0.25
    split_seed: int = 0
    instances: list[int] | None = None
    n_instances: int = 10
    strategy: str | None = None          # per-command default when omitted
    budgets: list[int] = field(default_factory=list)
    explanation_size: int | None = 4
    runs: int | None = None              # per-command default when omitted
    master_seed: int = 0
    workers: int = 1
    output: str = "stableshap-run"


_HINTS = typing.get_type_hints(RunConfig)  # field -> type hint, read once at import


def derive_seed(master: int, instance_key: int, budget: int, run: int) -> int:
    """One 64-bit seed per explanation run; distinct runs get distinct seeds."""
    ss = np.random.SeedSequence((master, instance_key, budget, run))
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# configuration loading and wiring


def _read_json(path: str, what: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer past Python's digit limit
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _conforms(value, hint) -> bool:
    """Whether a JSON value fits a RunConfig field's type hint. No field is a
    flag, so JSON true and false fit none."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is types.UnionType:
        return any(_conforms(value, arg) for arg in args)
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is dict:  # JSON object keys are strings already
        return isinstance(value, dict) and all(_conforms(v, args[1]) for v in value.values())
    return (isinstance(value, (int, float) if hint is float else hint)
            and not isinstance(value, bool))


def _load_config_file(path: str) -> dict:
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must hold a JSON object, "
                          f"not a {type(raw).__name__}")
    known = {f.name: f for f in fields(RunConfig)}
    unknown = set(raw) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for name, value in raw.items():
        if not _conforms(value, _HINTS[name]):
            raise ConfigError(f"config key {name!r} must be {known[name].type}, "
                              f"got {value!r}")
    return raw


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **_load_config_file(args.config))
    overrides = {name: value for name, value in vars(args).items()
                 if name in _HINTS and value is not None}
    cfg = replace(cfg, **overrides)
    if cfg.runs is None:
        cfg = replace(cfg, runs=_COMMANDS[args.command][2])
    for what, seed in (("master", cfg.master_seed), ("split", cfg.split_seed)):
        if seed < 0:
            raise ConfigError(f"{what} seed must be non-negative, got {seed}")
    for flag, count in (("--runs", cfg.runs), ("--n-instances", cfg.n_instances),
                        ("--workers", cfg.workers),
                        ("--background-size", cfg.background_size)):
        if count < 1:
            raise ConfigError(f"{flag} must be at least 1, got {count}")
    for flag, values in (("--instances", cfg.instances or []), ("--budgets", cfg.budgets)):
        repeated = [v for i, v in enumerate(values) if v in values[:i]]
        if repeated:  # a repeat would overwrite an output, or count twice in a mean
            raise ConfigError(f"{flag} repeats {repeated[0]}")
    for name, valid in (("model", ("ridge", "knn", "external", "game")),
                        ("task", ("regression", "classification"))):
        value = getattr(cfg, name)
        if value is not None and value not in valid:
            raise ConfigError(f"{name} must be {', '.join(valid[:-1])} or {valid[-1]}, "
                              f"got {value!r}")
    return cfg


@dataclass
class Wiring:
    """Resolved experiment pieces shared by the run commands.

    Used as a context manager; leaving it closes the external-model bridge.
    """

    cfg: RunConfig
    n_features: int
    task: str
    background: np.ndarray | None
    instances: list[tuple[int, np.ndarray | None]]  # (original row id, x)
    # x -> a new scalar adapter, one per instance for all of its routes (see _sweep)
    adapter_for: typing.Callable[[np.ndarray | None], object]
    resolved: dict                                   # reproducibility header
    bridge: ExternalProcessModel | None = None

    def close(self):
        if self.bridge is not None:
            self.bridge.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _resolve_instances(cfg: RunConfig, heldout: np.ndarray,
                       n_background: int, n_rows: int) -> list[int]:
    if cfg.instances is not None:
        bad = [i for i in cfg.instances if not 0 <= i < n_rows]
        if bad or not cfg.instances:
            raise ConfigError(f"instance rows empty or out of range: {bad}")
        return list(cfg.instances)
    pool = heldout[n_background:]
    if len(pool) < cfg.n_instances:
        raise ConfigError(
            f"held-out split leaves {len(pool)} rows after the background block; "
            f"{cfg.n_instances} instances requested"
        )
    return [int(i) for i in pool[: cfg.n_instances]]


def wire(cfg: RunConfig) -> Wiring:
    """Load data, train or attach the model, and pin all derived choices."""
    task = cfg.task or ("classification" if cfg.model == "knn" else "regression")
    background, bridge, dataset_header = None, None, {}
    if cfg.model == "game":
        if not cfg.game_file:
            raise ConfigError("model 'game' needs --game-file")
        spec = _read_json(cfg.game_file, "game file")
        try:
            game = SyntheticGame.from_json_dict(spec)
        except GameTableError as exc:
            raise ConfigError(f"game file {cfg.game_file} holds no game: {exc}") from exc
        m = game.n_players
        instances = [(0, None)]

        def adapter_for(x):
            return GameModel(game)
    else:
        if not cfg.dataset or not cfg.target:
            raise ConfigError("a dataset path and target column are required")
        ds = load_csv(cfg.dataset, cfg.target, cfg.features, cfg.encodings)
        n_rows, m = ds.X.shape
        if m < 2:
            raise ConfigError(f"{ds.path}: {m} feature columns; attributions need at least 2")
        fit_idx, heldout_idx = split_indices(n_rows, cfg.heldout_fraction, cfg.split_seed)

        if cfg.background_rows is not None:
            bad = [i for i in cfg.background_rows if not 0 <= i < n_rows]
            if bad:
                raise ConfigError(f"background rows out of range: {bad}")
            bg_rows = list(cfg.background_rows)
        else:
            bg_rows = [int(i) for i in heldout_idx[: min(cfg.background_size, len(heldout_idx))]]
        if not bg_rows:
            raise ConfigError("background set resolved to zero rows")
        background = ds.X[bg_rows]

        instance_rows = _resolve_instances(cfg, heldout_idx, len(bg_rows), n_rows)

        if cfg.model == "ridge":
            model = RidgeRegressionModel.fit(ds.X[fit_idx], ds.y[fit_idx])

            def adapter_for(x, _model=model):
                # one adapter, so one payoff memo, per instance: under --workers N
                # concurrent instances sharing an adapter would evict each other
                return RidgeRegressionModel(_model.coef, _model.intercept)
        elif cfg.model == "knn":
            labels = as_int_labels(ds.y[fit_idx], ds.path)
            try:
                knn = KNNClassifierModel(ds.X[fit_idx], labels, k=cfg.knn_k)
            except ValueError as exc:
                raise ConfigError(f"--knn-k: {exc}") from exc
            classes = [int(c) for c in knn.classes]
            if cfg.explained_class is not None and cfg.explained_class not in classes:
                raise ConfigError(f"explained class {cfg.explained_class} is not one of "
                                  f"the model's classes {classes}")

            def adapter_for(x, _knn=knn):
                cls = cfg.explained_class
                if cls is None:
                    cls = _knn.predicted_class(x)
                return ClassProbabilityModel(_knn, cls)
        else:  # external
            if not cfg.model_command:
                raise ConfigError("model 'external' needs --model-command")
            bridge = ExternalProcessModel(cfg.model_command, m)
            # one process behind its lock, but one adapter (so one memo) per instance
            adapter_for = lambda x: CallableModel(bridge.predict, m)  # noqa: E731
        instances = [(r, ds.X[r]) for r in instance_rows]
        dataset_header = {"resolved_feature_names": list(ds.feature_names),
                          "resolved_background_rows": bg_rows}

    resolved = asdict(cfg) | dataset_header | {
        "resolved_n_features": m,
        "resolved_task": task,
        "resolved_instances": [row for row, _ in instances],
    }
    return Wiring(cfg=cfg, n_features=m, task=task, background=background,
                  instances=instances, adapter_for=adapter_for, resolved=resolved,
                  bridge=bridge)


def _strategies(cfg: RunConfig, default: str, allowed: tuple[str, ...]) -> list[str]:
    tag = cfg.strategy or default
    chosen = {"both": SAMPLING_STRATEGIES, "all": ALL_STRATEGIES}.get(tag, (tag,))
    if not set(chosen) <= set(allowed):
        raise ConfigError(f"strategy {tag!r} not valid here; choose from {allowed}")
    return list(chosen)


def _routes(cfg: RunConfig, strategies: list[str]):
    """(strategy, budget) pairs in output order; budget None for unsampled routes."""
    for strategy in strategies:
        if strategy in SAMPLING_STRATEGIES:
            for budget in cfg.budgets:
                yield strategy, budget
        else:
            yield strategy, None


def _validate(cfg: RunConfig, command: str, m: int, strategies: list[str]) -> None:
    if command == "stability":
        if cfg.runs < 2:
            raise ConfigError("stability needs at least 2 runs per instance")
        if cfg.explanation_size is None:
            raise ConfigError("stability needs an explanation size (the support sets "
                              "of full-length fits are trivially identical)")
    if command == "compare-exact":
        if cfg.runs != 1:
            raise ConfigError(f"compare-exact makes one run per instance, got --runs {cfg.runs}")
        # agreement is measured on full-length vectors: the size goes unused
        if m > exact.CAP:
            raise OracleCapError(m, exact.CAP)
    elif cfg.explanation_size is not None and not 1 <= cfg.explanation_size <= m:
        raise ConfigError(f"explanation size {cfg.explanation_size} outside 1..{m}")
    if any(s in SAMPLING_STRATEGIES for s in strategies):
        if not cfg.budgets:
            raise ConfigError("at least one budget is required (--budgets)")
        for budget in cfg.budgets:
            try:
                validate_budget(m, budget)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output plumbing


class RunWriter:
    def __init__(self, out_dir: str, resolved: dict):
        self.root = Path(out_dir)
        self.resolved = resolved
        (self.root / "explanations").mkdir(parents=True, exist_ok=True)
        (self.root / "metrics").mkdir(parents=True, exist_ok=True)
        with open(self.root / "config.resolved.json", "w") as fh:
            json.dump(resolved, fh, indent=2, sort_keys=True)

    def write_explanation(self, name: str, payload: dict) -> Path:
        path = self.root / "explanations" / f"{name}.json"
        with open(path, "w") as fh:
            json.dump(payload | {"config": self.resolved}, fh, indent=2, sort_keys=True)
        return path

    def write_csv(self, name: str, header: list[str], rows: list[list]) -> Path:
        path = self.root / "metrics" / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write("# config: " + json.dumps(self.resolved, sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path


# ---------------------------------------------------------------------------
# shared run loop


def _attribution(wiring: Wiring, strategy: str, budget: int | None,
                 row_id: int, x, model, run: int = 0,
                 explanation_size: int | None = None):
    if strategy == EXACT:
        return exact.exact_shap(x, model, wiring.background)
    if strategy == LAYER1:
        # always full-length: --explanation-size does not apply to layer-1
        return layer1_attribution(x, model, wiring.background)
    seed = derive_seed(wiring.cfg.master_seed, row_id, budget, run)
    return explain(x, model, wiring.background, strategy, budget, seed,
                   explanation_size=explanation_size)


def _score(metric, row_id: int, strategy: str, budget: int | None, *args) -> float:
    """metric(*args); an undefined one is refused naming the instance row and route."""
    try:
        return metric(*args)
    except UndefinedMetricError as exc:
        route = strategy if budget is None else f"{strategy} at budget {budget}"
        raise UndefinedMetricError(f"instance row {row_id}, {route}: {exc}") from None


def _pool_map(workers: int, fn, items):
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))  # ordered collection keeps output deterministic


def _sweep(args, per_route):
    """Wire and validate a run, then call ``per_route`` on every route of
    every instance.

    ``per_route(wiring, row_id, x, model, strategy, budget)`` computes one
    route's result. Each instance gets a new adapter and runs all of its
    routes back to back, so the adapter's payoff memo serves every route and
    goes with it once they are done: at most ``--workers`` memos are alive.
    Instances go through the worker pool. compare-exact's first route is the
    exact values. Returns (wiring, writer, routes, results) with
    ``results[i][k]`` the result of instance i on route k. The bridge to an
    external model is closed however the sweep ends.
    """
    cfg = build_config(args)
    default, allowed, *_ = _COMMANDS[args.command]
    strategies = _strategies(cfg, default, allowed)
    if args.command == "compare-exact":
        strategies = [EXACT, *strategies]
    routes = list(_routes(cfg, strategies))
    with wire(cfg) as wiring:
        _validate(cfg, args.command, wiring.n_features, strategies)
        writer = RunWriter(cfg.output, wiring.resolved)

        def one_instance(item):
            row_id, x = item
            model = wiring.adapter_for(x)
            return [per_route(wiring, row_id, x, model, strategy, budget)
                    for strategy, budget in routes]

        results = _pool_map(cfg.workers, one_instance, wiring.instances)
    return wiring, writer, routes, results


def _metric_csv(args, name: str, metric: str, per_route) -> int:
    """Route-major CSV of one scalar per (route, instance), plus each route's mean."""
    wiring, writer, routes, results = _sweep(args, per_route)
    rows = []
    for k, (strategy, budget) in enumerate(routes):
        values = [per_instance[k] for per_instance in results]
        rows.extend([row_id, budget, strategy, metric, repr(v)]
                    for (row_id, _), v in zip(wiring.instances, values))
        rows.append(["mean", budget, strategy, metric, repr(float(np.mean(values)))])
    print(writer.write_csv(name, CSV_HEADER, rows))
    return 0


# ---------------------------------------------------------------------------
# commands


def layers_report(n_features: int, budget: int) -> dict:
    """Both strategies' plans for one (M, budget), in table-ready form."""
    st = plan_for(ST_SHAP, n_features, budget, seed=0)
    ks = plan_for(KERNEL_SHAP, n_features, budget, seed=0)
    sizes = [layer_size(n_features, i) for i in range(1, n_layers(n_features) + 1)]
    return {
        "M": n_features,
        "budget": budget,
        "layer_sizes": sizes,
        "st_shap_allocation": st.layer_counts(),
        "st_shap": st.to_json_dict(),
        "kernel_shap": ks.to_json_dict(),
    }


def cmd_layers(args) -> int:
    try:
        report = layers_report(args.m, args.budget)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    ks = report["kernel_shap"]
    ks_complete = set(ks["complete_layers"])
    print(f"M = {report['M']}, budget = {report['budget']}")
    print(f"{'Layer':>5}  {'Size':>8}  {'Kernel SHAP':>12}  {'ST-SHAP':>8}")
    for idx, size in enumerate(report["layer_sizes"], start=1):
        if idx in ks_complete:
            ks_cell = str(size)
        elif idx == min(ks["sampled_layers"], default=0):
            ks_cell = f"{ks['n_sampled']} random"
        else:
            ks_cell = "." if idx in ks["sampled_layers"] else "0"
        st_cell = report["st_shap_allocation"][idx - 1]
        print(f"{idx:>5}  {size:>8}  {ks_cell:>12}  {st_cell:>8}")
    if ks["sampled_layers"]:
        lo, hi = min(ks["sampled_layers"]), max(ks["sampled_layers"])
        print(f"kernel-shap draws {ks['n_sampled']} coalitions randomly "
              f"from layers {lo}-{hi}")
    if args.json:
        print(json.dumps(report, sort_keys=True))
    return 0


def cmd_explain(args) -> int:
    def payloads(wiring, row_id, x, model, strategy, budget):
        if budget is None:
            e = _attribution(wiring, strategy, None, row_id, x, model)
            return [(f"row{row_id}_{strategy}", {"instance_row": row_id} | e.to_json_dict())]
        return [(f"row{row_id}_{strategy}_b{budget}_r{run}",
                 {"instance_row": row_id, "run": run}
                 | _attribution(wiring, strategy, budget, row_id, x, model, run,
                                wiring.cfg.explanation_size).to_json_dict())
                for run in range(wiring.cfg.runs)]

    _, writer, _, results = _sweep(args, payloads)
    for per_instance in results:
        for files in per_instance:
            for name, payload in files:
                print(writer.write_explanation(name, payload))
    return 0


def cmd_stability(args) -> int:
    def jaccard(wiring, row_id, x, model, strategy, budget):
        size = wiring.cfg.explanation_size
        return metrics.jaccard_n(
            [set(_attribution(wiring, strategy, budget, row_id, x, model, run, size).support)
             for run in range(wiring.cfg.runs)])

    return _metric_csv(args, "stability", "jaccard", jaccard)


def cmd_adherence(args) -> int:
    def adherence(wiring, row_id, x, model, strategy, budget):
        cfg = wiring.cfg
        scores = []
        for run in range(cfg.runs):
            seed = derive_seed(cfg.master_seed, row_id, budget, run)
            e, cset, values = explain_with_training_set(
                x, model, wiring.background, strategy, budget, seed, cfg.explanation_size)
            scores.append(_score(metrics.adherence, row_id, strategy, budget,
                                 cset, values, e, wiring.task))
        return float(np.mean(scores))

    return _metric_csv(args, "adherence", "adherence", adherence)


def cmd_compare_exact(args) -> int:
    def phi(wiring, row_id, x, model, strategy, budget):
        # agreement metrics always use full-length attribution vectors
        return _attribution(wiring, strategy, budget, row_id, x, model).phi_array()

    wiring, writer, routes, results = _sweep(args, phi)
    rows = []  # csv writes layer-1's None budget as an empty cell
    scores: dict[tuple, list[float]] = {}  # (strategy, budget, metric) -> per instance
    for (row_id, _), (reference, *phis) in zip(wiring.instances, results):
        for (strategy, budget), p in zip(routes[1:], phis):
            for metric, fn in (("kendall_tau", metrics.kendall_tau), ("r2", metrics.r2_score)):
                value = _score(fn, row_id, strategy, budget, reference, p)
                rows.append([row_id, budget, strategy, metric, repr(value)])
                scores.setdefault((strategy, budget, metric), []).append(value)
    for (strategy, budget, metric), values in scores.items():
        rows.append(["mean", budget, strategy, metric, repr(float(np.mean(values)))])
        rows.append(["median", budget, strategy, metric,
                     repr(float(statistics.median(values)))])
    print(writer.write_csv("compare_exact", CSV_HEADER, rows))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


# run command -> (default strategy, strategies it accepts, default runs,
# handler, help line)
_COMMANDS = {
    "explain": (ST_SHAP, ALL_STRATEGIES, 1, cmd_explain, "write explanation JSON files"),
    "stability": ("both", SAMPLING_STRATEGIES, 20, cmd_stability,
                  "Jaccard stability across repeated runs"),
    "adherence": ("both", SAMPLING_STRATEGIES, 1, cmd_adherence,
                  "surrogate fidelity over the budget sweep"),
    "compare-exact": (LAYER1, ALL_STRATEGIES, 1, cmd_compare_exact,
                      "agreement of a strategy with the exact values"),
}


def _flag_type(hint):
    """A RunConfig field's flag parser: Optional unwrapped, list[T] comma-separated."""
    if typing.get_origin(hint) is types.UnionType:
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is list:
        item = typing.get_args(hint)[0]
        return lambda s: [item(v) for v in s.split(",")]
    return hint


# --<field-with-dashes> and its parser for every RunConfig field but encodings
_RUN_FLAGS = [("--" + name.replace("_", "-"), _flag_type(hint))
              for name, hint in _HINTS.items() if name != "encodings"]


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override its fields")
    for flag, kind in _RUN_FLAGS:
        p.add_argument(flag, type=kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stableshap",
        description="Stable Shapley-value attributions and their benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("layers", help="show both strategies' layer allocations")
    p.add_argument("m", type=int, help="number of features")
    p.add_argument("budget", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_layers)

    for name, (*_, fn, summary) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        _add_run_flags(p)
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModelBridgeError as exc:
        print(f"model bridge error: {exc}", file=sys.stderr)
        return 3
    except OracleCapError as exc:
        print(f"oracle cap: {exc}", file=sys.stderr)
        return 4
    except StableShapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
