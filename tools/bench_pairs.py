"""Alternating parent/change runs of perfbench, summarized into BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr N

writes BENCH_N.json. --pairs defaults to 10, the fewest pairs from which
a gain may be claimed.

Both revisions are extracted with `git archive` into a temporary
directory, so the run needs no network and leaves the working tree and
.git untouched, and each side runs from a fresh tree as a clean checkout
would. For pair p and each workload of BENCHMARK.json, both sides run

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

from their tree's root with the same seed S = p + 1 and the
run_seconds T of BENCHMARK.json; the parent runs first in even pairs and
the change in odd ones. A run that exits non-zero stops the script.

After each run the script reads the result file perfbench wrote,
.perfbench/W-seedS-trace0.json in that tree. A step's value for the run
(steps keyed by perfbench's own names: alg1, cli.gen, ...) is the median
over the file's instances of scale * best[step], each instance's fastest
step time scaled by the speed probe taken during that instance: the
values perfbench's end_to_end() takes its medians from. A run that exits
0 but leaves no such file with instances stops the script too. The
end-to-end metrics, attempted and failed operations come from the run's
last stdout line, the benchmark's contract.

The output records the machine (the first run's `environment` block,
less its git_sha, which reads "unknown" in an archive tree, and its
loadavg_at_start, which is that run's only), both shas, and per workload and end-to-end metric the median and
quartiles of each side and how many pairs the change won (ties count for
neither side), plus each side's attempted and failed operations and
every run's raw metrics. Per step it records the same statistics of the
runs' step values, so the file shows which step moved.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def extract(sha: str, dest: Path) -> None:
    """The tree of sha, as `git archive` writes it, under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple:
    """The JSON object on the last stdout line of one perfbench run, and
    the result file it wrote."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return (json.loads(done.stdout.strip().splitlines()[-1]),
            read_result(tree / ".perfbench" / f"{workload}-seed{seed}-trace0.json"))


def read_result(path: Path) -> dict:
    """A perfbench result file; the script stops unless it reads as one
    with instances."""
    try:
        result = json.loads(path.read_text(encoding="utf-8"))
        if result["instances"]:
            return result
    except (OSError, ValueError, LookupError, TypeError):
        pass
    raise SystemExit(f"{path}: no perfbench result with instances")


def step_values(result: dict) -> dict:
    """Each step's median over a result's instances of scale * best[step]."""
    instances = result["instances"]
    return {step: statistics.median(inst["scale"] * inst["best"][step] for inst in instances)
            for step in instances[0]["best"]}


def machine(environment: dict) -> dict:
    """A run's environment block without the fields that do not describe
    the machine: git_sha (the shas are recorded per side) and
    loadavg_at_start (one run's load, not the whole run's)."""
    return {k: v for k, v in environment.items() if k not in ("git_sha", "loadavg_at_start")}


def quartiles(values) -> dict:
    """Median and quartiles, inclusive method; one value is all three."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def paired(values, lower) -> dict:
    """Each side's quartiles of a per-pair list of values, and the
    change's wins; values maps each side to its list, in pair order."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    return {**{side: quartiles(values[side]) for side in SIDES},
            "change_wins": wins, "pairs": len(values["parent"])}


def summarize(runs, end_to_end) -> dict:
    """Per workload: each end-to-end metric's and each step value's
    per-side statistics and the change's wins out of pairs, and each
    side's attempted and failed operations.

    runs holds {"workload", "pair", "side", "result", "steps"} entries,
    result being a run's last stdout line parsed and steps its step
    values (see step_values); end_to_end is BENCHMARK.json's list of
    {"name", "better"} metrics. A pair is the parent and change run of
    one workload with the same pair number. A step counts over the pairs
    whose runs both report it.
    """
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items()) if set(p) == set(SIDES)]
        metrics = {
            m["name"]: paired({side: [p[side]["result"]["metrics"][m["name"]]["value"]
                                      for p in pairs] for side in SIDES},
                              m["better"] == "lower")
            for m in end_to_end}
        steps = {}
        for name in dict.fromkeys(name for p in pairs for name in p["parent"]["steps"]):
            both = [p for p in pairs if all(name in p[side]["steps"] for side in SIDES)]
            if both:
                steps[name] = paired({side: [p[side]["steps"][name] for p in both]
                                      for side in SIDES}, True)
        out[workload] = {
            "metrics": metrics,
            "steps": steps,
            **{key: {side: sum(r["result"][key] for r in mine if r["side"] == side)
                     for side in SIDES}
               for key in ("attempted", "failed")},
        }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="parent revision")
    p.add_argument("--change", default="HEAD", help="changed revision (default HEAD)")
    p.add_argument("--pr", type=int, required=True, help="number in the output file name")
    p.add_argument("--pairs", type=int, default=10)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    shas = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
            for side, rev in zip(SIDES, (args.parent, args.change))}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            extract(shas[side], trees[side])
        for pair in range(args.pairs):
            seed = pair + 1
            for workload in workloads:
                for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                    result, full = run_once(trees[side], workload, seed, seconds)
                    if not runs:
                        host = machine(full["environment"])
                    runs.append({"workload": workload, "pair": pair, "seed": seed, "side": side,
                                 "result": result, "steps": step_values(full)})
                    print(f"pair {pair} {workload} {side}: "
                          f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
    report = {
        "machine": host,
        "parent_sha": shas["parent"],
        "change_sha": shas["change"],
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "pairs": args.pairs,
        "workloads": summarize(runs, bench["end_to_end"]),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
