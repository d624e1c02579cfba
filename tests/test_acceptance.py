"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest

import stableshap as ss
from stableshap.cli import derive_seed, layers_report
from stableshap.coalitions import complete_layer_budgets, layer_size
from stableshap.sampling import materialize, plan_st_shap
from stableshap.value_function import evaluate_batch

from conftest import CountingGameModel, kkt_constrained_wls, random_table_game


def _report(criterion: str, ok: bool, detail: str, elapsed: float):
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail} [{elapsed:.2f}s]"
    print(line)
    assert ok, line


def _mixed_game(m: int, seed: int) -> ss.SyntheticGame:
    """Fixed synthetic model: additive part + size curvature + frozen noise."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=m)
    ints = np.arange(2**m)
    bits = ((ints[:, None] >> np.arange(m)) & 1).astype(float)
    values = bits @ u + 0.3 * bits.sum(axis=1) ** 2 + 0.05 * rng.normal(size=2**m)
    return ss.SyntheticGame.from_table(m, dict(enumerate(values.tolist())))


def test_criterion_01_table_2_reproduction():
    t0 = time.perf_counter()
    report = layers_report(15, 1200)
    ok = (
        report["layer_sizes"] == [30, 210, 910, 2730, 6006, 10010, 12870]
        and report["st_shap_allocation"] == [30, 210, 910, 50, 0, 0, 0]
        and report["kernel_shap"]["complete_layers"] == [1, 2]
        and report["kernel_shap"]["n_sampled"] == 960
    )
    elapsed = time.perf_counter() - t0
    _report("C01", ok and elapsed < 1.0,
            "layer table for M=15, budget=1200 matches exactly", elapsed)


def test_criterion_02_complete_layer_determinism():
    t0 = time.perf_counter()
    worst_detail = "all complete-layer budgets bit-identical across 20 seeds"
    ok = True
    for m in (8, 13, 15):
        model = ss.GameModel(_mixed_game(m, seed=m))
        for _, budget in complete_layer_budgets(m):
            runs = [
                ss.explain(None, model, None, ss.ST_SHAP, budget,
                           seed=derive_seed(0, 0, budget, r), explanation_size=4)
                for r in range(20)
            ]
            jac = ss.jaccard_n([set(r.support) for r in runs])
            identical = len({r.phis for r in runs}) == 1
            if jac != 1.0 or not identical:
                ok = False
                worst_detail = f"M={m} budget={budget}: jaccard={jac}, identical={identical}"
    elapsed = time.perf_counter() - t0
    _report("C02", ok and elapsed < 30.0, worst_detail, elapsed)


def test_criterion_03_layer1_equals_wls_on_layer_1():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 11))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        closed = ss.layer1_attribution(None, ss.GameModel(game), None)
        cset = materialize(plan_st_shap(m, layer_size(m, 1), seed=0))
        values = evaluate_batch(cset.masks, None, None, ss.GameModel(game))
        wls = kkt_constrained_wls(cset.masks, cset.weights, values,
                                  game.value_of_mask(0), game.value_of_mask(2**m - 1))
        worst = max(worst, float(np.abs(closed.phi_array() - wls).max()))
    elapsed = time.perf_counter() - t0
    _report("C03", worst < 1e-8 and elapsed < 10.0,
            f"layer-1 vs KKT WLS on layer 1 for 100 games, worst gap {worst:.2e}", elapsed)


def test_criterion_04_full_budget_matches_exact_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 11))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        e = ss.explain(None, ss.GameModel(game), None, ss.ST_SHAP,
                       budget=2**m - 2, seed=int(rng.integers(2**32)))
        exact = ss.exact_shap_game(game)
        worst = max(worst, float(np.abs(e.phi_array() - exact.phi_array()).max()))
    elapsed = time.perf_counter() - t0
    _report("C04", worst < 1e-6 and elapsed < 60.0,
            f"full-budget fit vs exact oracle on 50 games, worst gap {worst:.2e}",
            elapsed)


def test_criterion_05_dual_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 9))
        game = random_table_game(rng, m, v_empty=float(rng.normal()))
        a = ss.exact_shap_game(game)
        b = ss.exact_shap_permutation(game)
        worst = max(worst, float(np.abs(a.phi_array() - b.phi_array()).max()))
    elapsed = time.perf_counter() - t0
    _report("C05", worst < 1e-10,
            f"subset vs permutation formulas on 50 games, worst gap {worst:.2e}",
            elapsed)


def test_criterion_06_les_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_eff = worst_lin = worst_sym = 0.0
    for _ in range(200):
        m = int(rng.integers(3, 9))
        g1 = random_table_game(rng, m, v_empty=float(rng.normal()))
        g2 = random_table_game(rng, m)
        a1, a2 = rng.uniform(-5.0, 5.0, size=2)

        e1 = ss.layer1_attribution(None, ss.GameModel(g1), None)
        delta = g1.value_of_mask(2**m - 1) - g1.value_of_mask(0)
        worst_eff = max(worst_eff, abs(sum(e1.phis) - delta))

        combined_table = {
            mask: a1 * g1.value_of_mask(mask) + a2 * g2.value_of_mask(mask)
            for mask in range(2**m)
        }
        combined = ss.layer1_attribution(
            None, ss.GameModel(ss.SyntheticGame.from_table(m, combined_table)), None)
        separate = (a1 * e1.phi_array()
                    + a2 * ss.layer1_attribution(None, ss.GameModel(g2), None).phi_array())
        worst_lin = max(worst_lin,
                        float(np.abs(combined.phi_array() - separate).max()))

        # duplicated players j,k act through one collapsed slot of a base game
        j, k = sorted(int(v) for v in rng.choice(m, size=2, replace=False))
        base = random_table_game(rng, m - 1)
        slots = [s for s in range(m) if s != k]
        slot_of = {p: slots.index(p) if p != k else slots.index(j) for p in range(m)}
        table = {}
        for mask in range(2**m):
            collapsed = 0
            for p in range(m):
                if mask >> p & 1:
                    collapsed |= 1 << slot_of[p]
            table[mask] = base.value_of_mask(collapsed)
        sym_game = ss.SyntheticGame.from_table(m, table)
        es = ss.layer1_attribution(None, ss.GameModel(sym_game), None)
        worst_sym = max(worst_sym, abs(es.phis[j] - es.phis[k]))
    elapsed = time.perf_counter() - t0
    ok = worst_eff < 1e-12 and worst_lin < 1e-10 and worst_sym < 1e-12
    _report("C06", ok,
            f"efficiency {worst_eff:.2e} (<1e-12), linearity {worst_lin:.2e} "
            f"(<1e-10), symmetry {worst_sym:.2e} (<1e-12) over 200 games", elapsed)


def test_criterion_07_additive_model_closed_form():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    worst = 0.0
    worst_adherence = 1.0
    for _ in range(20):
        m = int(rng.integers(3, 9))
        w = rng.normal(size=m)
        bias = float(rng.normal())
        model = ss.CallableModel(lambda rows, w=w, b=bias: rows @ w + b, m)
        x = rng.normal(size=m)
        bg = rng.normal(size=(int(rng.integers(1, 20)), m))
        expected = w * (x - bg.mean(axis=0))

        e_layer1 = ss.layer1_attribution(x, model, bg)
        e_full = ss.explain(x, model, bg, ss.ST_SHAP, budget=2**m - 2, seed=1)
        exact = ss.exact_shap(x, model, bg)
        for phis in (e_layer1.phi_array(), e_full.phi_array(), exact.phi_array()):
            worst = max(worst, float(np.abs(phis - expected).max()))

        cset = materialize(plan_st_shap(m, 2**m - 2, seed=1))
        values = evaluate_batch(cset.masks, x, bg, model)
        adh = ss.adherence(cset, values, e_full, "regression")
        worst_adherence = min(worst_adherence, adh)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and abs(worst_adherence - 1.0) < 1e-9
    _report("C07", ok,
            f"additive closed form worst gap {worst:.2e} (<1e-8), "
            f"adherence {worst_adherence:.12f} (=1.0)", elapsed)


def test_criterion_08_local_accuracy_sweep():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    m = 10
    w = rng.normal(size=m)

    def black_box(rows):
        return rows @ w + 0.5 * rows[:, 0] * rows[:, 1] - 0.2 * np.sin(rows[:, 2])

    model = ss.CallableModel(black_box, m)
    x = rng.normal(size=m)
    bg = rng.normal(size=(12, m))
    worst = 0.0
    n_checked = 0
    for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP):
        for budget in (10, 50, 100, 500, 2**m - 2):
            for k in (None, 4):
                e = ss.explain(x, model, bg, strategy, budget,
                               seed=derive_seed(8, 0, budget, 0),
                               explanation_size=k)
                worst = max(worst, e.local_accuracy_gap())
                n_checked += 1
    e = ss.layer1_attribution(x, model, bg)
    worst = max(worst, e.local_accuracy_gap())
    n_checked += 1
    elapsed = time.perf_counter() - t0
    _report("C08", worst < 1e-9,
            f"{n_checked} explanations, worst |phi0 + sum(phis) - f(x)| = {worst:.2e}",
            elapsed)


def test_criterion_09_evaluation_count_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    ok = True
    details = []
    for m in range(2, 11):
        counting = CountingGameModel(random_table_game(rng, m))
        ss.layer1_attribution(None, counting, None)
        expected = 4 if m == 2 else 2 * m + 2
        if counting.calls != expected:
            ok = False
            details.append(f"M={m}: {counting.calls} != {expected}")
        exact_counting = CountingGameModel(random_table_game(rng, m))
        v = ss.exact_shap(None, exact_counting, None)
        if exact_counting.calls != 2**m or v.eval_count != 2**m:
            ok = False
            details.append(f"M={m}: exact used {exact_counting.calls} != {2**m}")
    elapsed = time.perf_counter() - t0
    _report("C09", ok,
            details[0] if details else
            "layer-1 uses exactly 2M+2 evaluations (4 at M=2), exact uses 2^M",
            elapsed)


def test_criterion_10_stability_trend():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240601)
    n, m = 400, 13
    X = rng.normal(size=(n, m))
    w = rng.normal(size=m) * np.linspace(0.2, 2.0, m)
    y = X @ w + 0.5 * np.sin(X[:, 0] * X[:, 1]) + 0.1 * rng.normal(size=n)
    model = ss.RidgeRegressionModel.fit(X[:300], y[:300])
    background = X[300:325]
    instances = X[360:370]

    lines = []
    ok = True
    for budget in (50, 100, 200, 500):
        means = {}
        for strategy in (ss.ST_SHAP, ss.KERNEL_SHAP):
            jaccards = []
            for idx, x in enumerate(instances):
                supports = [
                    set(ss.explain(x, model, background, strategy, budget,
                                   seed=derive_seed(7, idx, budget, run),
                                   explanation_size=4).support)
                    for run in range(20)
                ]
                jaccards.append(ss.jaccard_n(supports))
            means[strategy] = float(np.mean(jaccards))
        if not 0.0 <= means[ss.KERNEL_SHAP] <= 1.0 or not 0.0 <= means[ss.ST_SHAP] <= 1.0:
            ok = False
        if means[ss.ST_SHAP] < means[ss.KERNEL_SHAP]:
            ok = False
        lines.append(f"b={budget}: st={means[ss.ST_SHAP]:.3f} "
                     f">= ks={means[ss.KERNEL_SHAP]:.3f}")
    elapsed = time.perf_counter() - t0
    _report("C10", ok, "; ".join(lines), elapsed)
