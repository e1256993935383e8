"""Timed pass, and with ``--trace 1`` the traced pass, of one run.

    python3 perfbench/worker.py --spec '<workload json>' --seed N \
        --seconds S --trace 0|1 --inputs DIR --work DIR

Runs in a fresh process, so ``ru_maxrss`` belongs to this workload alone.
The commands of a case run one after another through
``fuselab.cli.main`` (a closed loop with one client), and new cases start
until the time is used up. Each command's wall time is scaled to nominal
seconds by the reference kernel timed right before and after it (see
``refkernel.py``). Every output is checked by the gate after its case,
outside the timed region. Prints one JSON object as the last stdout
line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

from srcpath import add_src_path

add_src_path()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import fuselab  # noqa: E402
import fuselab.cli  # noqa: E402
from gate import check_eval, check_fuse, check_softmask  # noqa: E402
from refkernel import reference_s, speed_factor  # noqa: E402
from spans import Tracer, probe_case  # noqa: E402
from workloads import RATER_DIR, SOFT_DIR, Workload  # noqa: E402


@dataclass
class Command:
    name: str          # "softmask", "fuse.<variant>" or "eval.<variant>"
    argv: list[str]
    out: Path
    pred: Path | None = None   # eval: the file it scores
    rc: int = -1
    wall: float = 0.0
    stdout: str = ""
    stderr: str = ""


@dataclass
class Case:
    """One workload case: its input files and what the gate compares with."""

    workload: Workload
    inputs: Path
    seed: int
    truth: fuselab.VolumeGrid = field(init=False)
    empirical: dict = field(init=False)

    def __post_init__(self):
        self.truth = fuselab.read_svol(self.inputs / "truth.svol")
        t = self.truth.data > 0.5
        self.empirical = {}
        for path in self.raw_inputs():
            y = fuselab.read_svol(path).data > 0.5
            self.empirical[Path(path).stem] = (
                np.count_nonzero(y & t) / np.count_nonzero(t),
                np.count_nonzero(~y & ~t) / np.count_nonzero(~t),
            )

    def raw_inputs(self) -> list[str]:
        return [str(self.inputs / RATER_DIR / f"{r}.svol")
                for r in self.workload.rater_ids()]

    def plan(self, out: Path) -> tuple[list[Command], list[str]]:
        """The case's command chain and the files its fuse commands read."""
        raw = self.raw_inputs()
        cmds = []
        if self.workload.softmask == "command":
            soft_out = out / "softmask"
            cmds.append(Command("softmask", ["softmask", *raw, "--flair",
                                             str(self.inputs / "flair.svol"),
                                             "-o", str(soft_out)], soft_out))
            fuse_in = [str(soft_out / Path(p).name) for p in raw]
        elif self.workload.softmask == "setup":
            fuse_in = [str(self.inputs / SOFT_DIR / Path(p).name) for p in raw]
        else:
            fuse_in = raw
        for f in self.workload.fuses:
            fo = out / f"fuse-{f.variant}"
            cmds.append(Command(f"fuse.{f.variant}",
                                ["fuse", *fuse_in, "-o", str(fo), *f.flags()], fo))
            pred = fo / ("consensus.svol" if f.variant == "binary" else "posterior.svol")
            eo = out / f"eval-{f.variant}"
            cmds.append(Command(f"eval.{f.variant}",
                                ["eval", str(self.inputs / "truth.svol"), str(pred),
                                 "-o", str(eo)], eo, pred))
        return cmds, fuse_in


@dataclass
class CaseResult:
    commands: dict[str, float]    # command -> wall time in nominal seconds
    raw_s: float                  # the chain's measured wall time
    factor: float                 # mean speed factor over the chain
    failures: dict[str, list[str]]       # failed command -> messages
    quality: list[tuple[float, float]]   # (dice, param error) per fuse
    layers: dict = field(default_factory=dict)

    @property
    def case_s(self) -> float:
        return sum(self.commands.values())

    @property
    def fuse_s(self) -> float:
        return sum(v for k, v in self.commands.items() if k.startswith("fuse."))


def call_cli(argv: list[str], tracer: Tracer | None) -> int:
    """``fuselab.cli.main`` as a user meets it: an exception that escapes
    it exits 1 with its traceback on stderr, as the console script would."""
    try:
        if tracer is None:
            return fuselab.cli.main(argv)
        return tracer.run("cli.main", fuselab.cli.main, argv)
    except Exception:  # noqa: BLE001 - any crash is a failed command
        traceback.print_exc()
        return 1


def run_commands(cmds: list[Command], tracer: Tracer | None) -> list[float]:
    """Run the chain; returns each command's speed factor, from reference
    kernel timings taken right before and after it."""
    refs = [reference_s()]
    for c in cmds:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            c.rc = call_cli(c.argv, tracer)
            c.wall = time.perf_counter() - start
        c.stdout, c.stderr = out.getvalue(), err.getvalue()
        refs.append(reference_s())
    return [speed_factor(a, b) for a, b in zip(refs, refs[1:])]


def check_command(case: Case, c: Command, quality: list, fuses: list) -> list[str]:
    """Gate one command; appends a fuse's quality pair and facts."""
    if c.name == "softmask":
        return check_softmask(c.out, case.raw_inputs())
    if c.name.startswith("eval."):
        return check_eval(c.out, c.stdout, case.truth, c.pred)
    found, parsed = check_fuse(c.out, case.seed)
    if parsed:
        params = parsed["params"]
        emp = [case.empirical[e] for e in params["expert_ids"]]
        err = fuselab.param_recovery_error(
            fuselab.RaterParams(params["sens"], params["spec"]),
            fuselab.RaterParams([e[0] for e in emp], [e[1] for e in emp]),
        ).error
        quality.append((fuselab.soft_dice(case.truth, parsed["consensus"]), err))
        manifest = json.loads((c.out / "manifest.json").read_text())
        fuses.append((c.name.split(".", 1)[1], params, manifest["config"]))
    return found


def check_commands(case: Case, cmds: list[Command]):
    """Gate every command; returns failure messages by command, quality
    pairs and fuse facts. A check that raises is a failed check."""
    failures, quality, fuses = {}, [], []
    for c in cmds:
        if c.rc != 0:
            tail = c.stderr.strip().splitlines()[-1:] or [""]
            failures[c.name] = [f"exit code {c.rc}: {tail[0]}"]
            continue
        try:
            found = check_command(case, c, quality, fuses)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed check
            found = [f"{c.out}: gate raised {type(exc).__name__}: {exc}"]
        if found:
            failures[c.name] = found
    return failures, quality, fuses


def run_loop(case: Case, work: Path, seconds: float, tracer: Tracer | None,
             tag: str) -> list[CaseResult]:
    """Run cases until ``seconds`` are used up (at least one case)."""
    results: list[CaseResult] = []
    start = time.perf_counter()
    while True:
        out = work / f"{tag}-{len(results)}"
        cmds, fuse_in = case.plan(out)
        if tracer is not None:
            tracer.case = len(results)
        factors = run_commands(cmds, tracer)
        failures, quality, fuses = check_commands(case, cmds)
        result = CaseResult({c.name: c.wall * f for c, f in zip(cmds, factors)},
                            sum(c.wall for c in cmds), statistics.mean(factors),
                            failures, quality)
        if tracer is not None and not failures:
            result.layers = probe_case(fuse_in, fuses, case.raw_inputs(),
                                       case.workload.softmask == "command", case.seed)
        shutil.rmtree(out, ignore_errors=True)
        results.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(results) > seconds:
            return results


def command_medians(results: list[CaseResult]) -> dict[str, float]:
    names = results[0].commands
    return {n: statistics.median(r.commands[n] for r in results) for n in names}


def summary(results: list[CaseResult]) -> dict:
    quality = [q for r in results for q in r.quality]
    return {
        "attempted": sum(len(r.commands) for r in results),
        "failed": sum(len(r.failures) for r in results),
        "failures": [f"{name}: {msg}" for r in results
                     for name, msgs in r.failures.items() for msg in msgs][:20],
        "cases": len(results),
        "case_s": statistics.median(r.case_s for r in results),
        "case_s_min": min(r.case_s for r in results),
        "case_s_max": max(r.case_s for r in results),
        "raw_case_s": statistics.median(r.raw_s for r in results),
        "speed_factor": statistics.median(r.factor for r in results),
        "fuse_s": statistics.median(r.fuse_s for r in results),
        "commands": command_medians(results),
        "dice_min": min((q[0] for q in quality), default=0.0),
        "param_err_max": max((q[1] for q in quality), default=float("nan")),
    }


def layer_medians(results: list[CaseResult], tracer: Tracer) -> dict[str, float]:
    """Median over traced cases; times in nominal seconds like the commands."""
    totals = tracer.layer_totals()
    for i, r in enumerate(results):
        r.layers.update(totals.get(i, {}))
        for k in r.layers:
            if k.endswith(("_s", "_ms")):
                r.layers[k] *= r.factor
    names = {k for r in results for k in r.layers}
    return {k: statistics.median(r.layers.get(k, 0.0) for r in results) for k in names}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args()

    case = Case(Workload.from_json(json.loads(args.spec)), Path(args.inputs), args.seed)
    work = Path(args.work)
    doc = {}
    if args.trace == 0:
        doc["timed"] = summary(run_loop(case, work, args.seconds, None, "timed"))
    else:
        # Half untraced, half traced: the difference is the tracing overhead.
        doc["timed"] = summary(run_loop(case, work, args.seconds / 2, None, "timed"))
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_loop(case, work, args.seconds / 2, tracer, "traced")
        finally:
            tracer.uninstall()
        doc["traced"] = summary(traced)
        doc["layers"] = layer_medians(traced, tracer)
        doc["spans"] = [asdict(span) for span in tracer.spans]
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc["env"] = {"python": platform.python_version(), "numpy": np.__version__,
                  "scipy": scipy.__version__,
                  "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
