"""Complete budgets, layer-1 and exact values give the same bits on every
BLAS kernel and thread count.

OpenBLAS reads OPENBLAS_CORETYPE and OPENBLAS_NUM_THREADS once, when it
loads, so each configuration runs in its own child process and the variables
are set in the children only. Haswell runs only where the CPU has AVX2, and
no kernel that needs AVX-512 is forced: it would fault on a CPU without it.
On a BLAS that ignores the variables the test still runs and compares the
thread counts.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# prints one line per explanation: its name and the bytes of its phis. The
# sweep recipe's first instances (while the complete rows' sums used BLAS,
# instance 2's layer-1 support differed between Haswell and Prescott) and a
# table game with random payoffs.
CHILD = """
import numpy as np
import stableshap as ss
from stability_sweep import knn_recipe
from stableshap.coalitions import complete_layer_budgets

knn, background, instances = knn_recipe(13, 3, 10, 0)
cases = [(f"knn{idx}", x, ss.ClassProbabilityModel(knn, knn.predicted_class(x)), background)
         for idx, x in enumerate(instances)]
table = dict(enumerate(np.random.default_rng(17).normal(size=2**10).tolist()))
cases.append(("game", None, ss.GameModel(ss.SyntheticGame.from_table(10, table)), None))
for name, x, model, bg in cases:
    runs = {f"b={b} size={size}": ss.explain(x, model, bg, ss.ST_SHAP, b, seed=0,
                                             explanation_size=size).phis
            for _, b in complete_layer_budgets(model.n_features)[:3] for size in (None, 4)}
    runs["layer1"] = ss.layer1_attribution(x, model, bg).phis
    runs["exact"] = ss.exact_shap(x, model, bg).phis
    for run, phis in runs.items():
        print(name, run, np.array(phis).tobytes().hex())
"""


def _has_avx2() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX2"))


def test_complete_budgets_layer1_and_exact_are_bit_identical_across_blas_kernels():
    kernels = ("Haswell", "Prescott") if _has_avx2() else ("Prescott",)
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "scripts")])
    children = {
        (kernel, threads): subprocess.Popen(
            [sys.executable, "-c", CHILD],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=kernel,
                     OPENBLAS_NUM_THREADS=str(threads)),
            stdout=subprocess.PIPE, text=True)
        for kernel in kernels for threads in (1, 2)}
    # every child is waited for before any assertion
    outputs = {config: child.communicate(timeout=300)[0] for config, child in children.items()}
    assert [child.returncode for child in children.values()] == [0] * len(children)
    (first, want), *rest = ((config, dict(line.rsplit(" ", 1) for line in out.splitlines()))
                            for config, out in outputs.items())
    assert len(want) == 4 * 8
    for config, got in rest:
        differ = [name for name in want if got[name] != want[name]]
        assert not differ, f"{config} against {first}: {len(differ)} differ, {differ[:5]}"
