"""mwmatch benchmark: seeded, closed-loop solve timings with answer checks.

    python3 perfbench/run.py --workload star60 --seed 1 --seconds 25 --trace 0

Run from the repository root; mwmatch is imported from ./src. Instances
are solved one at a time, every step of the workload on one instance
before the next instance starts, until --seconds have passed (at least
one instance). Every answer is checked against reference.json outside
the timed region. The last stdout line is a JSON object with the metrics
named in BENCHMARK.json: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. Full results (environment, every sample, the
spans of a traced run) go to .perfbench/ in the repository root.

An untraced run solves each instance REPEATS times and keeps each step's
fastest time, then scales it by the speed probe (see speed_probe). The
traced run solves each instance twice, untraced and traced, in
alternating order, so that trace_overhead_frac compares like with like.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Passes per instance in an untraced run; each step's fastest pass counts,
# which filters the bursts of slowdown that a shared machine adds.
REPEATS = 2
# Pinned to one thread unless set: the loop is single-threaded, and a BLAS
# thread per core spin-waits badly whenever another process shares a core.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The speed probe's time at full speed on the machine the benchmark was
# tuned on (2-vCPU VM). End-to-end times are scaled to it; see speed_probe.
PROBE_REF_S = 0.008
PROBES_PER_STEP = 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def blas_threads() -> dict:
    """Thread count of every OpenBLAS loaded into this process, by library."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return found
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(lib)] = int(fn())
                break
    return found


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(nproc: int, loadavg) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "loadavg_at_start": list(loadavg),
    }


def setup_seconds(workload: str, first_seed: int, workdir: Path, probe):
    """Wall times of SETUP_REPEATS fresh-interpreter set-ups, and the speed
    probe times taken between them."""
    samples, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.extend(probe() for _ in range(PROBES_PER_STEP))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "fresh_setup.py"), workload,
                        str(first_seed), str(workdir)],
                       cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples, probes


def speed_probe():
    """A fixed computation that mixes what mwmatch spends its time on
    (scipy's assignment solver, small numpy gathers and sums from blocks
    spread over tens of megabytes, JSON encoding and parsing of blocks,
    interpreted loops) but runs none of mwmatch's code. A shared machine
    runs at a speed that drifts by tens of percent over tens of seconds.
    The median probe time during an instance measures that speed, and the
    instance's times are scaled by PROBE_REF_S / that median, so runs made
    at different speeds compare. A change to mwmatch cannot move the
    probe."""
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    rng = np.random.default_rng(0)
    small = list(rng.random((100, 20, 20)))
    perms = [rng.permutation(20) for _ in small]
    rows = np.arange(20)
    big = list(rng.random((4000, 30, 30)))  # 29 MB in separate blocks, like a tensor's
    picks = rng.integers(0, len(big), size=1000)
    gather = rng.permutation(30)
    texts = [json.dumps(block.tolist()) for block in small[:4]]

    def probe() -> float:
        t0 = time.perf_counter()
        c = np.zeros((20, 20))
        for block, perm in zip(small, perms):
            c += block[perm, :]
            _, cols = linear_sum_assignment(-c)
            float(c[rows, cols].sum())
        d = np.zeros((30, 30))
        for k in picks:
            d += big[k][gather, :]
        for block, text in zip(small, texts):
            json.dumps(block.tolist())
            np.array(json.loads(text))
        return time.perf_counter() - t0

    return probe


def tail(samples) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"tail n/a (n={n})"
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    value = statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return f"p{p} {value:.6f} s (n={n})"


class Run:
    """Closed-loop execution of one workload: timed passes and checks."""

    def __init__(self, wl, w, seeds, reference, workdir, probe, tracer=None):
        self.wl = wl
        self.probe = probe
        self.probes = []
        self.w = w
        self.seeds = seeds
        self.reference = reference
        self.workdir = str(workdir)
        self.tracer = tracer
        self.samples = {step: [] for step in w.steps}
        self.traced_samples = {step: [] for step in w.steps}
        self.instances = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def step_order(self, k):
        steps = self.w.steps
        if self.w.uses_cli:
            return steps  # each CLI step reads what the one before wrote
        r = k % len(steps)
        return steps[r:] + steps[:r]

    def timed_pass(self, k, inst, traced):
        """Run every step once; per step, its seconds and checked answer."""
        record = {}
        for step in self.step_order(k):
            self.probes.extend(self.probe() for _ in range(PROBES_PER_STEP))
            self.attempted += 1
            out, error = None, None
            t0 = time.perf_counter()
            try:
                if traced:
                    with self.tracer.span("step." + step):
                        out = self.wl.run_step(self.w, step, inst)
                else:
                    out = self.wl.run_step(self.w, step, inst)
            except Exception:  # a raising step is a failed operation, not a crash
                error = traceback.format_exc()
            seconds = time.perf_counter() - t0
            got = None
            if error is None:
                try:
                    got = self.wl.answer(self.w, step, inst, out)
                except Exception:
                    error = traceback.format_exc()
            ref = self.reference.get(str(inst.seed), {}).get(step)
            ok = ref is not None and self.wl.matches_reference(got, ref)
            if not ok:
                self.failed += 1
                self.errors.append({"seed": inst.seed, "step": step, "got": got,
                                    "reference": ref, "error": error})
            record[step] = {"seconds": seconds, "answer": got, "ok": ok}
        return record

    def instance(self, k):
        """Untraced: REPEATS passes, each step's fastest counts. Traced: one
        untraced and one traced pass, alternating which goes first."""
        seed = self.seeds[k % len(self.seeds)]
        if self.tracer is None:
            inst = self.wl.prepare(self.w, seed, self.workdir)
            first_probe = len(self.probes)
            passes = [self.timed_pass(k + 2 * r, inst, False) for r in range(REPEATS)]
            best = {step: min(p[step]["seconds"] for p in passes) for step in self.w.steps}
            for step, seconds in best.items():
                self.samples[step].append(seconds)
            scale = PROBE_REF_S / statistics.median(self.probes[first_probe:])
            self.instances.append({"seed": seed, "passes": passes, "best": best, "scale": scale})
            return
        self.tracer.instance = k
        gen_span = self.tracer.span("matchmodel.make_instance")
        with contextlib.nullcontext() if self.w.uses_cli else gen_span:
            inst = self.wl.prepare(self.w, seed, self.workdir)
        entry = {"seed": seed}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with self.tracer.installed():
                    entry["traced"] = self.timed_pass(k, inst, True)
            else:
                entry["passes"] = [self.timed_pass(k, inst, False)]
        self.tracer.instance = -1
        entry["best"] = {step: entry["passes"][0][step]["seconds"] for step in self.w.steps}
        for step in self.w.steps:
            self.samples[step].append(entry["best"][step])
            self.traced_samples[step].append(entry["traced"][step]["seconds"])
        self.instances.append(entry)

    def loop(self, seconds):
        deadline = time.perf_counter() + seconds
        k = 0
        while k == 0 or time.perf_counter() < deadline:
            self.instance(k)
            k += 1


def end_to_end(run, setup, setup_probes) -> dict:
    """Each instance's best-of-REPEATS step times, scaled by the speed probe
    taken during that instance; set-up times scaled by the probe taken
    between set-ups."""
    scaled = {step: [inst["scale"] * inst["best"][step] for inst in run.instances]
              for step in run.w.steps}
    totals = [inst["scale"] * sum(inst["best"].values()) for inst in run.instances]
    medians = [statistics.median(v) for v in scaled.values()]
    setup_scale = PROBE_REF_S / statistics.median(setup_probes)
    return {
        "setup_s": (setup_scale * statistics.median(setup), "s"),
        "instance_s": (statistics.median(totals), "s"),
        "step_s.geomean": (math.exp(statistics.fmean(math.log(v) for v in medians)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "mwmatch" / "__init__.py").is_file():
        return fail(f"no mwmatch sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))

    import layers
    import tracing
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    w = wl.WORKLOADS[args.workload]
    reference = wl.load_reference().get(w.name, {})
    seeds = wl.instance_seeds(w, args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl.warm_up(w, str(workdir))
        probe = speed_probe()
        probe()
        setup, setup_probes = setup_seconds(w.name, seeds[0], workdir, probe)
        env = environment(nproc, loadavg)
        too_many = {lib: n for lib, n in env["blas_threads"].items() if n > nproc}
        if too_many:
            return fail(f"BLAS threads {too_many} exceed nproc={nproc}; set OPENBLAS_NUM_THREADS")
        tracer = tracing.Tracer() if args.trace else None
        run = Run(wl, w, seeds, reference, workdir, probe, tracer)
        run.loop(args.seconds)
        if args.trace:
            metrics, notes = layers.per_layer(run, str(workdir))
        else:
            metrics, notes = end_to_end(run, setup, setup_probes), []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write_csv(str(OUT_DIR / f"{tag}-spans.csv"))
    result = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "setup_s": setup, "samples": run.samples,
        "traced_samples": run.traced_samples, "instances": run.instances,
        "failures": run.errors, "probes": run.probes, "setup_probes": setup_probes,
        "metrics": reported,
    }
    with open(OUT_DIR / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    print(f"# perfbench {w.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# setup_s samples {' '.join(f'{s:.4f}' for s in setup)} (raw seconds)")
    print(f"# speed probe median {statistics.median(run.probes) * 1e3:.4f} ms over "
          f"{len(run.probes)} calls in the loop, {statistics.median(setup_probes) * 1e3:.4f} ms "
          f"over {len(setup_probes)} during set-up")
    for step, samples in run.samples.items():
        name = step.replace("cli.", "cli_s.") if w.uses_cli else "solve_s." + step
        print(f"# {name:<22} median {statistics.median(samples):.6f} s  {tail(samples)} (raw)")
    for step in w.steps:
        errs = [p[step]["answer"] for inst in run.instances for p in inst["passes"]]
        errs = [a[0] for a in errs if a is not None]
        if errs and step != "cli.gen":
            print(f"# error_rate.{step:<13} {statistics.fmean(errs):.6f} (mean over {len(errs)})")
    print(f"# fail_frac {run.failed}/{run.attempted}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"# {name:<32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
