"""Time the tree-seeded and ascent solvers, with their LAP counts and an answer hash.

    python3 tools/solve_timing.py

prints one Markdown table on one BLAS thread. Its cells are the star60
benchmark cell (n=60, m=20, star 0.01/0.30, seeds 0-4), the top of the
scale ladder (n=200, m=30, star 0.01/0.30, seeds 0-1) and three noisy
cells at n=60, m=20: uniform 0.30 (seeds 0-4), star 0.01/0.50 and
uniform 0.50 (seeds 0-1). Each row gives, for one cell and one solver of
evalbench.SOLVERS (alg1, coord, alg2-prim, alg2-kruskal), run as
`mwm bench` runs it, with the instance's seed in the config:

- ms: the mean over the seeds of each instance's best of three solves;
- LAPs: the assignment solves the solver ran (mwmatch.solver.lap_max
  calls, tree merges included), summed over the seeds;
- sha256: the first 16 hex digits of a hash of every seed's maps,
  objective trace, sweep count and converged flag.

Run at two revisions, equal hashes show the two give the same answers bit
for bit, on cells the benchmark does not cover too.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import hashlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mwmatch import EtaTopology, SolverConfig, make_instance  # noqa: E402
from mwmatch import solver  # noqa: E402
from mwmatch.evalbench import SOLVERS  # noqa: E402

CELLS = (
    ("star60", 60, 20, EtaTopology("star", 0.01, 0.30), range(5)),
    ("star200", 200, 30, EtaTopology("star", 0.01, 0.30), range(2)),
    ("uniform 0.30", 60, 20, EtaTopology("uniform", 0.0, 0.30), range(5)),
    ("star 0.50", 60, 20, EtaTopology("star", 0.01, 0.50), range(2)),
    ("uniform 0.50", 60, 20, EtaTopology("uniform", 0.0, 0.50), range(2)),
)
NAMES = ("alg1", "coord", "alg2-prim", "alg2-kruskal")


def measure(t, name: str, seed: int) -> tuple:
    """(best-of-3 ms, solver LAP calls, report) of SOLVERS[name] on t; the
    counted solve runs first, untimed, and warms the timed ones."""
    run = SOLVERS[name]
    cfg = SolverConfig(seed=seed)
    calls = 0
    real = solver.lap_max

    def counted(c):
        nonlocal calls
        calls += 1
        return real(c)

    solver.lap_max = counted
    try:
        report = run(t, cfg)
    finally:
        solver.lap_max = real
    times = []
    for _ in range(3):
        start = time.perf_counter()
        run(t, cfg)
        times.append(time.perf_counter() - start)
    return min(times) * 1e3, calls, report


def digest(reports) -> str:
    """sha256 of the reports' maps, objective traces, sweep counts and converged flags."""
    h = hashlib.sha256()
    for r in reports:
        h.update(r.solution.maps.tobytes())
        h.update(repr((r.objective_trace, r.sweeps_run, r.converged)).encode())
    return h.hexdigest()[:16]


def main() -> int:
    print("| cell | n | m | seeds | solver | ms | LAPs | sha256 |\n|---|---|---|---|---|---|---|---|")
    for cell, n, m, topology, seeds in CELLS:
        tensors = [(seed, make_instance(n, m, topology, seed)[2]) for seed in seeds]
        for name in NAMES:
            rows = [measure(t, name, seed) for seed, t in tensors]
            print(f"| {cell} | {n} | {m} | {seeds[0]}-{seeds[-1]} | {name} | "
                  f"{statistics.mean(r[0] for r in rows):.1f} | {sum(r[1] for r in rows)} | "
                  f"{digest(r[2] for r in rows)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
