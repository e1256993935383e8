"""fuselab benchmark: per-command CLI wall time on seeded synthetic cases.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Run from the root of a checkout. Each run generates the workload's inputs
five times, each in a process of its own (the median is ``setup_s``),
then runs the case's command chain in a fresh worker process for the
given seconds and checks every output. Timings are wall seconds scaled
to a fixed machine speed by a reference kernel timed next to them
(``refkernel.py``), which cancels the host's busy periods.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the worker also runs a traced pass and the line carries
the per-layer metrics. Every metric is printed by name and unit above
that line. A traced run keeps its spans in memory and writes them to
``.perfbench_spans/<workload>-<seed>.jsonl`` at the end. Scratch files
live under ``.perfbench_work/`` and are removed before exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from srcpath import ROOT, add_src_path
from workloads import (BY_NAME, END_TO_END, PER_LAYER, RUN_SECONDS, Workload,
                       benchmark_json)

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_DIR = ROOT / ".perfbench_spans"
SETUP_REPEATS = 5
# Set explicitly so that BLAS never oversubscribes the cores; one thread
# keeps the timings steady on a shared machine.
BLAS_THREADS = "1"
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": BLAS_THREADS,
             "OMP_NUM_THREADS": BLAS_THREADS, "MKL_NUM_THREADS": BLAS_THREADS}
SETUP_TIMEOUT_S = 60
WORKER_SLACK_S = 100

UNITS = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}

# What each workload claims to stress, checked on the traced run and
# reported whether or not it holds.
CLAIMS = {
    "binary-large": [
        ("staple.run_em_s is most of fuse.binary_s",
         lambda m, t: m["staple.run_em_s"] > 0.5 * t["fuse.binary"]),
    ],
    "protocol-m7": [
        ("softmask.build_soft_stack_s is most of softmask_s",
         lambda m, t: m["softmask.build_soft_stack_s"] > 0.5 * t["softmask"]),
    ],
    "wide-panel": [
        ("soft_staple.vote_patterns exceeds 2^22/2^12 = 1024",
         lambda m, t: m["soft_staple.vote_patterns"] > 2**22 / 2**12),
        ("soft_staple.run_soft_em.soft-exact_s is most of case_s",
         lambda m, t: m["soft_staple.run_soft_em.soft-exact_s"] > 0.5 * t["case_s"]),
    ],
}


def child(script: str, *args: str, timeout: float) -> dict:
    """Run a benchmark script in its own process; its last line is JSON."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT,
                          env=CHILD_ENV, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workload: Workload, seed: int, inputs: Path) -> list[dict]:
    runs = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        runs.append(child("gen.py", "--spec", json.dumps(workload.to_json()),
                          "--seed", str(seed), "--out", str(inputs),
                          timeout=SETUP_TIMEOUT_S))
    return runs


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def command_metrics(commands: dict[str, float]) -> dict[str, float]:
    """Per-command medians under their metric names (evals are not named)."""
    return {f"{name}_s": v for name, v in commands.items() if not name.startswith("eval.")}


def end_to_end(doc: dict, setup_runs: list[dict]) -> dict[str, float]:
    timed = doc["timed"]
    return {
        "case_s": timed["case_s"],
        "fuse_s": timed["fuse_s"],
        "setup_s": statistics.median(r["setup_s"] for r in setup_runs),
        "peak_rss_mb": doc["peak_rss_mb"],
        "dice_min": timed["dice_min"],
    }


def per_layer(doc: dict, setup_runs: list[dict]) -> dict[str, float]:
    timed, traced, layers = doc["timed"], doc["traced"], doc["layers"]
    values = {name: 0.0 for name, *_ in PER_LAYER}
    values.update(command_metrics(timed["commands"]))
    values.update(layers)
    if layers.get("staple.em_iters"):
        values["staple.iter_s"] = layers["staple.run_em_s"] / layers["staple.em_iters"]
    for stage in ("generate_phantom_s", "simulate_raters_s"):
        values[f"synth.{stage}"] = statistics.median(r[stage] for r in setup_runs)
    values["metrics.param_err_max"] = max(timed["param_err_max"], traced["param_err_max"])
    values["trace.overhead_s"] = traced["case_s"] - timed["case_s"]
    return values


def report(workload: Workload, seed: int, seconds: float, trace: int, doc: dict,
           setup_runs: list[dict], metrics: dict[str, float]) -> list[str]:
    timed = doc["timed"]
    env = doc["env"]
    lines = [
        f"perfbench workload={workload.name} seed={seed} seconds={seconds} trace={trace}",
        f"env: nproc={len(os.sched_getaffinity(0))} cpu={cpu_model()!r} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
        f"openblas_threads={env['openblas_threads']}",
        f"closed loop, 1 client, {timed['cases']} cases: case_s min "
        f"{timed['case_s_min']:.4f} max {timed['case_s_max']:.4f} s; measured wall "
        f"{timed['raw_case_s']:.4f} s at speed factor {timed['speed_factor']:.3f}; "
        f"setup x{len(setup_runs)}",
    ]
    for name, value in metrics.items():
        lines.append(f"  {name} = {value:.6g} {UNITS[name]}")
    if trace == 0:
        for name, value in command_metrics(timed["commands"]).items():
            lines.append(f"  {name} = {value:.6g} s (median of {timed['cases']})")
        attempted, failed = timed["attempted"], timed["failed"]
        lines.append(f"  fail_ratio = {failed / attempted:.6g} 1 ({failed}/{attempted})")
        lines.append(f"  param_err_max = {timed['param_err_max']:.6g} 1")
    else:
        traced = doc["traced"]
        lines.append(f"  traced cases: {traced['cases']}; tracing overhead "
                     f"{metrics['trace.overhead_s']:.4f} s per case")
        facts = {**traced["commands"], "case_s": traced["case_s"]}
        for text, holds in CLAIMS.get(workload.name, []):
            verdict = "holds" if holds(metrics, facts) else "DOES NOT HOLD"
            lines.append(f"  claim: {text}: {verdict}")
    for failure in timed["failures"] + doc.get("traced", {}).get("failures", []):
        lines.append(f"  FAILED: {failure}")
    return lines


def run(workload: Workload, seed: int, seconds: float, trace: int, work: Path):
    """One benchmark run; returns (report lines, result object)."""
    inputs = work / "inputs"
    setup_runs = setup(workload, seed, inputs)
    doc = child("worker.py", "--spec", json.dumps(workload.to_json()),
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                "--inputs", str(inputs), "--work", str(work / "out"),
                timeout=seconds + WORKER_SLACK_S)
    spans = doc.pop("spans", [])
    if trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"{workload.name}-{seed}.jsonl"
        spans_file.write_text("".join(json.dumps(s) + "\n" for s in spans))
    metrics = (end_to_end if trace == 0 else per_layer)(doc, setup_runs)
    attempted = doc["timed"]["attempted"] + doc.get("traced", {}).get("attempted", 0)
    failed = doc["timed"]["failed"] + doc.get("traced", {}).get("failed", 0)
    result = {
        "correct": failed == 0 and all(math.isfinite(v) for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    lines = report(workload, seed, seconds, trace, doc, setup_runs, metrics)
    if trace:
        lines.append(f"  {len(spans)} spans written to {spans_file.relative_to(ROOT)}")
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="render BENCHMARK.json from perfbench/workloads.py")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    add_src_path()

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        lines, result = run(BY_NAME[args.workload], args.seed, args.seconds,
                            args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run still uses it
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
