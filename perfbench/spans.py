"""Traced pass: span wrappers around the layers ``fuselab.cli`` calls,
self-time accounting, and per-case probes of the stepwise functions.

Only the traced pass installs the wrappers; the timed pass runs the
unmodified CLI. No fuselab source changes: the wrappers replace the
names that ``fuselab.cli`` imported, for the duration of the pass.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fuselab
import fuselab.cli
from fuselab import ExpertStack, RaterParams

# Span name -> per-layer metric that receives its self time.
SPAN_METRIC = {
    "cli.main": "cli.self_s",
    "read_svol": "svol_io.read_s",
    "write_svol": "svol_io.write_s",
    "validate_stack": "volume.validate_stack_s",
    "build_soft_stack": "softmask.build_soft_stack_s",
    "run_em": "staple.run_em_s",
    "binarize": "staple.binarize_s",
    "precision_recall": "metrics.precision_recall_s",
    **{f"run_soft_em.{v}": f"soft_staple.run_soft_em.{v}_s"
       for v in ("soft-exact", "simplified", "soft-mc")},
}
BYTES_METRIC = {"read_svol": "svol_io.read_bytes", "write_svol": "svol_io.write_bytes"}
MC_PROBE_VOXELS = 16


@dataclass
class Span:
    sid: int
    name: str
    case: int
    parent: int | None
    start: float
    end: float = 0.0
    nbytes: int = 0


class Tracer:
    """Records spans in memory; ``install`` wraps the CLI's layer calls."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.case = -1
        self._saved: dict = {}

    def run(self, name: str, fn, *args, **kwargs):
        span = Span(len(self.spans), name, self.case,
                    self._open[-1] if self._open else None, time.perf_counter())
        self.spans.append(span)
        self._open.append(span.sid)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if name in BYTES_METRIC:
                path = args[0] if name == "read_svol" else args[1]
                with contextlib.suppress(OSError):  # a failed call may leave no file
                    span.nbytes = os.path.getsize(path)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)
        return traced

    def _wrap_soft_em(self, fn):
        @functools.wraps(fn)
        def traced(stack, config):
            return self.run(f"run_soft_em.{config.variant}", fn, stack, config)
        return traced

    def install(self) -> None:
        for name in ("read_svol", "write_svol", "validate_stack", "build_soft_stack",
                     "run_em", "binarize", "precision_recall", "run_soft_em"):
            fn = getattr(fuselab.cli, name)
            self._saved[name] = fn
            wrapped = (self._wrap_soft_em(fn) if name == "run_soft_em"
                       else self._wrap(name, fn))
            setattr(fuselab.cli, name, wrapped)

    def uninstall(self) -> None:
        for name, fn in self._saved.items():
            setattr(fuselab.cli, name, fn)
        self._saved.clear()

    def layer_totals(self) -> dict[int, dict[str, float]]:
        """Per case: summed self time and bytes of each layer metric."""
        children = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in self.spans:
            covered = _covered(s, children[s.sid])
            totals[s.case][SPAN_METRIC[s.name]] += (s.end - s.start) - covered
            if s.name in BYTES_METRIC:
                totals[s.case][BYTES_METRIC[s.name]] += s.nbytes
        return totals


def _covered(span: Span, kids: list[Span]) -> float:
    """Length of the union of the child intervals, clipped to the span."""
    total, reach = 0.0, span.start
    for k in sorted(kids, key=lambda k: k.start):
        lo, hi = max(k.start, reach), min(k.end, span.end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - t0, result


def sorted_stack(paths) -> np.ndarray:
    """The (m, n) votes, rows in sorted-id order (ids are file stems)."""
    return np.stack([fuselab.read_svol(p).data
                     for p in sorted(paths, key=lambda p: Path(p).stem)])


def pattern_stats(q: np.ndarray) -> dict[str, float]:
    """Distinct vote columns via integer pattern codes, plus soft-voxel
    counts. ``q`` is (m, n) in sorted-id order."""
    m, n = q.shape
    levels = np.unique(q)
    if len(levels) ** m > 2**63:
        raise OverflowError(f"{len(levels)}^{m} vote patterns overflow int64 codes")
    codes = np.zeros(n, dtype=np.int64)
    for row in q:
        codes = codes * len(levels) + np.searchsorted(levels, row)
    patterns = np.unique(codes).size
    fractional = ((q > 0.0) & (q < 1.0)).sum(axis=0)
    return {
        "soft_staple.vote_patterns": patterns,
        "soft_staple.patterns_per_voxel": patterns / n,
        "soft_staple.soft_voxels": int(np.count_nonzero(fractional)),
        "soft_staple.max_fractional": int(fractional.max()),
    }


def probe_fuse(variant: str, inputs, params: dict, config: dict, seed: int) -> dict:
    """Time one call of each stepwise function of the variant, on the fuse's
    inputs at its fitted parameters."""
    grids = [fuselab.read_svol(p) for p in inputs]
    stack = ExpertStack(tuple(grids), tuple(params["expert_ids"]))
    rp = RaterParams(params["sens"], params["spec"])
    prior = params["prior"]
    out = {}
    if variant == "binary":
        out["staple.e_step_s"], w = _timed(fuselab.e_step, stack, rp, prior)
        out["staple.m_step_s"], _ = _timed(fuselab.m_step, stack, w)
        out["staple.log_likelihood_s"], _ = _timed(fuselab.log_likelihood, stack, rp, prior)
    elif variant == "soft-exact":
        out["soft_staple.soft_e_step_s"], _ = _timed(fuselab.soft_e_step, stack, rp, prior)
        out["soft_staple.soft_m_step_s"], _ = _timed(fuselab.soft_m_step, stack, rp, prior)
        out["soft_staple.soft_log_likelihood_s"], _ = _timed(
            fuselab.soft_log_likelihood, stack, rp, prior)
    elif variant == "simplified":
        out["soft_staple.simple_e_step_s"], _ = _timed(fuselab.simple_e_step, stack, rp, prior)
        out["soft_staple.simple_m_step_s"], _ = _timed(fuselab.simple_m_step, stack, rp, prior)
        out["soft_staple.simple_log_likelihood_s"], _ = _timed(
            fuselab.simple_log_likelihood, stack, rp, prior)
    else:
        order = fuselab.staple.canonical_order(stack)
        q = stack.as_matrix()[order]
        sp = rp.reordered(order)
        soft = np.flatnonzero(np.any((q > 0.0) & (q < 1.0), axis=0))
        rng = np.random.default_rng(seed)
        voxels = rng.choice(soft, min(MC_PROBE_VOXELS, soft.size), replace=False)
        t0 = time.perf_counter()
        for t in voxels:
            fuselab.mc_soft_e_step_voxel(q[:, t], sp, prior, config["mc_samples"],
                                         config["seed"], int(t))
        out["soft_staple.mc_voxel_ms"] = 1e3 * (time.perf_counter() - t0) / max(len(voxels), 1)
        # The sweep draws every soft voxel's stream in each E-step and for the
        # final posterior. The objective draws too only when it is estimated
        # (m above the enumeration guard); otherwise it is enumerated exactly.
        iters = params["iters_run"]
        sweeps = iters + 1 + (iters if params["ll_is_approximate"] else 0)
        out["soft_staple.mc_draws"] = soft.size * config["mc_samples"] * stack.m * sweeps
    return out


def probe_case(fuse_inputs, fuses: list[tuple[str, dict, dict]], raw_inputs,
               softmask_ran: bool, seed: int) -> dict:
    """All probe metrics of one traced case. ``fuses`` holds, per fuse
    command, its variant, params.json and manifest config."""
    out = pattern_stats(sorted_stack(fuse_inputs))
    for variant, params, config in fuses:
        out.update(probe_fuse(variant, fuse_inputs, params, config, seed))
        if variant == "binary":
            out["staple.em_iters"] = params["iters_run"]
        else:
            out[f"soft_staple.em_iters.{variant}"] = params["iters_run"]
    if softmask_ran:
        out["softmask.components"] = sum(
            len(fuselab.connected_components(fuselab.read_svol(p))[1])
            for p in raw_inputs)
    return out
