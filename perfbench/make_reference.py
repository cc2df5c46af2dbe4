"""Record the reference answer of every pool instance of every workload.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the repository root at the commit whose answers are the
reference; later runs fail any answer with a higher error rate or a lower
objective. Rewrites the named workloads (default: all) in reference.json.
Takes about 2 min for star60, 3 min for cli_io and 8 min for star200.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads as wl  # noqa: E402


def record(w, workdir: str) -> dict:
    table = {}
    for seed in range(w.pool):
        inst = wl.prepare(w, seed, workdir)
        table[str(seed)] = {}
        for step in w.steps:
            got = wl.answer(w, step, inst, wl.run_step(w, step, inst))
            if got is None:
                raise SystemExit(f"{w.name} seed {seed} {step}: invalid answer")
            table[str(seed)][step] = list(got)
        print(f"{w.name} seed {seed}: {table[str(seed)]}", file=sys.stderr, flush=True)
    return table


def main(names) -> None:
    root = Path(__file__).resolve().parent.parent
    (root / ".perfbench").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".perfbench") as workdir:
        for name in names or sorted(wl.WORKLOADS):
            table = record(wl.WORKLOADS[name], workdir)
            try:
                reference = wl.load_reference()
            except FileNotFoundError:
                reference = {}
            reference[name] = table
            with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
