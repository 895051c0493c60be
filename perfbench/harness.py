"""Workload passes, set-up probes, metrics and the result line.

A pass runs every CLI call of a workload once, in this process, and is
timed from the first call to the last artifact on disk; its outputs are
checked afterwards, outside the timed region. An untraced run repeats
passes for the requested seconds and reports the end-to-end metrics; a
traced run alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

import consensuslab
from consensuslab import cli

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
# Fresh interpreters per run that time import + build; setup_s is their median.
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Prepared:
    """One workload's generated inputs for one seed."""

    runs: list
    configs: list
    references: list
    work_dir: Path


@dataclass
class PassResult:
    wall_s: float
    steps: int
    codes: list
    problems: dict

    @property
    def failed(self) -> int:
        return sum(1 for p in self.problems.values() if p)


def compute_references(runs) -> list:
    """Exact final states for the runs with an ``expm`` check, in run order."""
    cases = workloads.reference_inputs(runs)
    if not cases:
        return []
    proc = subprocess.run(
        [sys.executable, str(HERE / "reference.py")], input=json.dumps(cases),
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return json.loads(proc.stdout)


def prepare(workload: str, seed: int, work_dir: Path) -> Prepared:
    shutil.rmtree(work_dir, ignore_errors=True)
    runs = workloads.generate(workload, seed)
    configs = workloads.write_configs(runs, work_dir / "configs")
    return Prepared(runs, configs, compute_references(runs), work_dir)


def probe_setup(prep: Prepared) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         str(prep.work_dir / "probe"), *map(str, prep.configs)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(prep: Prepared, tracer=None) -> PassResult:
    """Every CLI call of the workload once; checks run after the timing."""
    if tracer is None:
        tracing.assert_unwrapped()
    out_root = prep.work_dir / "runs"
    shutil.rmtree(out_root, ignore_errors=True)
    codes = []
    with tracer if tracer is not None else contextlib.nullcontext():
        start = perf_counter()
        for run, cfg in zip(prep.runs, prep.configs):
            try:
                codes.append(cli.main(
                    ["--scenario", str(cfg), "--out", str(out_root / run.label), "--quiet"]))
            except Exception:
                traceback.print_exc()
                codes.append(None)
        wall = perf_counter() - start

    problems, steps = {}, 0
    references = iter(prep.references)
    for run, code in zip(prep.runs, codes):
        out_dir = out_root / run.label
        reference = next(references) if run.check == "expm" else None
        try:
            problems[run.label] = workloads.check_run(run, out_dir, code, reference)
            steps += workloads.steps_taken(
                run, code, workloads.read_report(out_dir / "report.txt"))
        except (OSError, ValueError) as err:
            problems[run.label] = [f"output check raised {err!r}"]
    return PassResult(wall, steps, codes, problems)


def traced_pass(prep: Prepared):
    tracer = tracing.Tracer()
    return run_pass(prep, tracer), tracer


def repeat_for(seconds: float, fn) -> list:
    """Call ``fn`` at least once, and again while the mean call so far
    predicts that the next one ends within ``seconds`` of the start."""
    results = []
    start = perf_counter()
    while True:
        results.append(fn())
        elapsed = perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(prep: Prepared, seconds: float):
    probes = [probe_setup(prep) for _ in range(SETUP_PROBES)]
    passes = repeat_for(seconds, lambda: run_pass(prep))
    wall = statistics.median(p.wall_s for p in passes)
    build = statistics.median(p["build_s"] for p in probes)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(p["import_s"] + p["build_s"] for p in probes),
        # wall_s excludes the import, so only the build part of set-up is removed.
        "steps_per_s": passes[0].steps / (wall - build),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = END_TO_END_UNITS
    info = {"passes": len(passes), "setup_probes": probes,
            "pass_wall_s": [p.wall_s for p in passes], "steps": passes[0].steps}
    return passes, metrics, units, info


def per_layer(prep: Prepared, seconds: float):
    pairs = repeat_for(seconds, lambda: (run_pass(prep), traced_pass(prep)))
    plain = [p for p, _ in pairs]
    traced = [tp for _, (tp, _) in pairs]
    tracers = [t for _, (_, t) in pairs]
    metrics = tracing.median_metrics(tracers)
    metrics["bench.trace_overhead_s"] = (statistics.median(p.wall_s for p in traced)
                                         - statistics.median(p.wall_s for p in plain))
    info = {"pairs": len(pairs),
            "untraced_wall_s": [p.wall_s for p in plain],
            "traced_wall_s": [p.wall_s for p in traced],
            "spans": [t.spans for t in tracers],
            "counts": [dict(t.counts) for t in tracers]}
    return plain + traced, metrics, tracing.PER_LAYER_UNITS, info


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, packed_name = line.partition(" ")
            if packed_name == name:
                return sha
    return "unknown"


def environment(workload: str, seed: int, trace: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "consensuslab": consensuslab.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description="consensuslab benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not Path(consensuslab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"consensuslab was imported from {consensuslab.__file__}, not {SRC}")
    env = environment(args.workload, args.seed, args.trace)
    tag = f"{args.workload}-trace{args.trace}"
    prep = prepare(args.workload, args.seed, OUT_ROOT / f"work-{tag}")
    try:
        session = per_layer if args.trace else end_to_end
        passes, metrics, units, info = session(prep, args.seconds)
    finally:
        shutil.rmtree(prep.work_dir, ignore_errors=True)

    attempted = sum(len(p.problems) for p in passes)
    failed = sum(p.failed for p in passes)
    for p in passes:
        for label, problems in p.problems.items():
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}-seed{args.seed}.json").write_text(
        json.dumps({"environment": env, "result": result, "detail": info}) + "\n")

    print("environment " + json.dumps(env))
    print(f"samples: {len(passes)} passes"
          + ("" if args.trace else f", {SETUP_PROBES} set-up probes"))
    for name, value in metrics.items():
        print(f"{name:48s} {value:>18.6g} {units[name]}")
    print(f"{'fail_share':48s} {failed / attempted:>18.6g} ratio ({failed}/{attempted} runs)")
    print(json.dumps(result))
    return 0
