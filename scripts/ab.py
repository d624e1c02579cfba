#!/usr/bin/env python3
"""Paired CPU-time A/B of one grid of grid.py: a git revision against the
working tree.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/ab.py HEAD knn

REV's `src/` is extracted with `git archive` into a temporary directory (a
local operation: no network, nothing installed). Two long-lived worker
processes, A importing REV's stableshap and B the working tree's, run the
cells of `grid.GRIDS[GRID]` in lockstep; both use this checkout's grid.py.
Wherever a cell times a call (each `grid.median_ms`), both workers make one
untimed call, and then the pairs alternate A B, B A, A B, ...: each worker
times its own call in process CPU time, at least MIN_REPS pairs and then
until the two sides together have 2 * CELL_S of CPU time or MAX_REPS pairs
(grid.py's constants).

For each cell and timed stage it prints the cell's fields, the median over
pairs of B's time over A's (`ratio`: below 1 the working tree is faster), the
pairs in which B was faster, and both medians in ms. The workers get one BLAS
thread and the OpenBLAS kernel type CORETYPE, which the header records:
outputs and speed differ between kernel types. It writes no BENCH_*.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent
ROOT = SCRIPTS.parent
# cell fields that are timings rather than what the cell measures
TIMED = re.compile(r"(^|_)(ms|reps)(_|$)|per_cpu_s$")
# OpenBLAS kernel type of both workers
CORETYPE = "Haswell"


def serve(src: str, grid_name: str, cells: int) -> int:
    """Worker: run the grid's cells, handing each timed call to the parent."""
    sys.path[:0] = [src, str(SCRIPTS)]
    channel = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)  # anything else printed goes to stderr

    def send(message):
        channel.write(json.dumps(message) + "\n")

    import grid

    def paired(call):
        call()
        send({"site": True})
        times = []
        while sys.stdin.readline().strip() == "time":
            start = time.process_time()
            call()
            times.append(time.process_time() - start)
            send({"s": times[-1]})
        return round(1e3 * statistics.median(times), 4), len(times)

    grid.median_ms = paired
    for cell in islice(grid.GRIDS[grid_name](), cells or None):
        send({"cell": cell})
    send({"end": True})
    return 0


def worker_command(src: Path, grid_name: str, cells: int) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--worker", str(src),
            grid_name, str(cells)]


class Worker:
    def __init__(self, name: str, src: Path, grid_name: str, cells: int, env: dict):
        self.name = name
        self.proc = subprocess.Popen(worker_command(src, grid_name, cells), env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"ab: worker {self.name} exited {self.proc.wait()}")
        return json.loads(line)

    def tell(self, command: str):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def time_one(self) -> float:
        self.tell("time")
        return self.receive()["s"]

    def close(self):  # a worker that has sent its end is only exiting
        self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


def pairs(a: Worker, b: Worker, cell_s: float, min_reps: int, max_reps: int):
    """(A's, B's) CPU seconds of one timed call, pair by pair, A B then B A."""
    times_a, times_b = [], []
    while len(times_a) < min_reps or (sum(times_a) + sum(times_b) < 2 * cell_s
                                      and len(times_a) < max_reps):
        if len(times_a) % 2:
            times_b.append(b.time_one())
            times_a.append(a.time_one())
        else:
            times_a.append(a.time_one())
            times_b.append(b.time_one())
    a.tell("done")
    b.tell("done")
    return times_a, times_b


def site_line(cell: dict, stage: str, times_a, times_b) -> str:
    label = "  ".join(f"{key}={value}" for key, value in cell.items() if not TIMED.search(key))
    ratio = statistics.median(tb / ta if ta else float("inf")
                              for ta, tb in zip(times_a, times_b))
    faster = sum(tb < ta for ta, tb in zip(times_a, times_b))
    return (f"{label}  stage={stage or '-'}  ratio={ratio:.3f}  "
            f"faster={faster}/{len(times_a)}  rev_ms={1e3 * statistics.median(times_a):.4f}  "
            f"new_ms={1e3 * statistics.median(times_b):.4f}")


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["--worker"]:
        return serve(argv[1], argv[2], int(argv[3]))
    import grid

    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("rev", help="git revision to compare the working tree against")
    p.add_argument("grid", choices=list(grid.GRIDS))
    p.add_argument("--cells", type=int, default=0,
                   help="run only the grid's first CELLS cells (default: all)")
    args = p.parse_args(argv)
    try:
        sha = git("rev-parse", "--short", "--verify", f"{args.rev}^{{commit}}")
    except subprocess.CalledProcessError:
        p.error(f"{args.rev!r} names no commit of this repository")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(OPENBLAS_CORETYPE=CORETYPE, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        archive = subprocess.run(["git", "archive", "--format=tar", args.rev, "src"],
                                 cwd=ROOT, capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        print(f"# A = {args.rev} ({sha}), "
              f"B = working tree ({git('describe', '--always', '--dirty')}); "
              f"OPENBLAS_CORETYPE={CORETYPE}, one BLAS thread; "
              f"ratio = median of B/A CPU time over pairs", flush=True)
        a = Worker("A", Path(tmp) / "src", args.grid, args.cells, env)
        b = Worker("B", ROOT / "src", args.grid, args.cells, env)
        try:
            sites = []
            while True:
                got_a, got_b = a.receive(), b.receive()
                if got_a.keys() != got_b.keys():
                    raise SystemExit(f"ab: the workers left lockstep: {got_a} vs {got_b}")
                if "end" in got_a:
                    break
                if "site" in got_a:
                    sites.append(pairs(a, b, grid.CELL_S, grid.MIN_REPS, grid.MAX_REPS))
                    continue
                cell = got_b["cell"]
                stages = [key[:-len("reps")].rstrip("_") for key in cell if key.endswith("reps")]
                for stage, (times_a, times_b) in zip(stages, sites):
                    print(site_line(cell, stage, times_a, times_b), flush=True)
                sites = []
        finally:
            a.close()
            b.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
