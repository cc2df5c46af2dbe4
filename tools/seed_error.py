"""The tree seed's error rate under the raw and the normalized edge weight.

    python3 tools/seed_error.py

prints a Markdown table: for each layout and eta_off, the mean over seeds
0-4 of the error rate of mst_initialize on Kruskal's maximum spanning
tree, at n=60, m=20 and eta_tree 0.01, first with every pair weighted by
its raw f_score(T_ij), then with the package's alignment graph, which
weights it by f_score(T_ij) / ||T_ij||_F. The raw tree is built eagerly
here; it is the tree the package built before the weight changed. A last
column gives alg1's mean final error under the package's weight.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mwmatch import (  # noqa: E402
    AlignGraph,
    EtaTopology,
    avg_error_rate,
    build_align_graph,
    f_score,
    make_instance,
    max_spanning_tree,
    mst_initialize,
    solve_alg1,
)

N, M, ETA_TREE, SEEDS = 60, 20, 0.01, range(5)
LAYOUTS = ("star", "path", "random_tree", "uniform")
ETA_OFF = (0.03, 0.10, 0.30)


def raw_score_graph(t) -> AlignGraph:
    """Every pair weighted by the f_score of its block."""
    w = np.zeros((t.n, t.n))
    i, j = np.triu_indices(t.n, 1)
    w[i, j] = w[j, i] = [f_score(block) for block in t.packed]
    return AlignGraph(n=t.n, weights=w)


def cell(kind: str, eta_off: float) -> tuple:
    raw, normalized, final = [], [], []
    for seed in SEEDS:
        truth, _, t = make_instance(N, M, EtaTopology(kind, ETA_TREE, eta_off), seed)
        for graph, out in ((raw_score_graph(t), raw), (build_align_graph(t), normalized)):
            out.append(avg_error_rate(mst_initialize(t, max_spanning_tree(graph)), truth))
        final.append(avg_error_rate(solve_alg1(t).solution, truth))
    return tuple(statistics.fmean(v) for v in (raw, normalized, final))


def main() -> int:
    print(f"seed error rate, f_score -> f_score / ||T||_F (n={N}, m={M}, "
          f"eta_tree {ETA_TREE}, seeds {SEEDS.start}-{SEEDS.stop - 1}); alg1's final error\n")
    heads = [f"eta_off {e:.2f}" for e in ETA_OFF] + ["alg1 final error, worst cell"]
    print("| layout | " + " | ".join(heads) + " |")
    print("|---" * (len(ETA_OFF) + 2) + "|")
    for kind in LAYOUTS:
        cells = [cell(kind, eta_off) for eta_off in ETA_OFF]
        row = " | ".join(f"{raw:.3f} → {norm:.3f}" for raw, norm, _ in cells)
        final = max(f for _, _, f in cells)
        print(f"| {kind} | {row} | {final:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
