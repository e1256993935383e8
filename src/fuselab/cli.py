"""Batch command-line front end: simulate -> softmask -> fuse -> eval.

Every command resolves its options (CLI flags win over the optional
``--config`` JSON file, which wins over built-in defaults; the file's
values are parsed like flags), writes its outputs into a directory, and
drops a ``manifest.json`` beside them with the fully resolved
configuration so any run can be reproduced exactly.

Exit codes: 0 success, 2 invalid arguments or configuration, 3 invalid
input data, 4 numerical failure. Machine-readable output goes to stdout
or files; human logs go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy

from . import __version__
from .errors import (
    SEED_SPAN,
    CapacityError,
    ConfigError,
    DegeneratePosteriorError,
    DimensionMismatchError,
    FuselabError,
    GridError,
    InputReadError,
    StackError,
    SvolError,
    _refuse_over,
    check_number,
)
from .metrics import precision_recall
from .soft_staple import run_em, run_soft_em
from .softmask import CONNECTIVITY_RANK, SoftMaskConfig, build_soft_stack
from .staple import MSTEP_MODES, VARIANTS, FusionConfig, binarize, fold_votes, id_order
from .svol_io import read_svol, read_svol_header, read_svol_row, write_svol
from .synth import generate_phantom, load_simulation_config, simulate_raters
from .volume import LABEL_KINDS, Dim3, ExpertStack, GridKind, VolumeGrid, check_members
from .volume import validate_stack  # noqa: F401  (perfbench's traced pass wraps this name)


# Most bytes a fuse or softmask command may hold, estimated from the input
# headers before any payload is read. Both read one expert at a time, so the
# estimate does not grow with the experts: voxels x 40 for a fuse (a payload,
# its vote codes, their grouping's temporaries, the inverse and the output
# blocks), voxels x 96 where soft masks are built (softmask, fuse --flair).
# Measured peaks (tracemalloc, 64^3, 90%-full random masks, 1 and 12 experts):
# a binary fuse from one-byte files 4 and 6 bytes per voxel, with or without
# --binarize (the same on 5%-full masks), softmask 68 and 69, fuse --flair 69
# and 77 (83 at 48^3). The fold's column arrays (staple.COLUMN_VOTE_LIMIT) and
# soft-mc's tallies (soft_staple.MC_ENTRY_LIMIT) have bounds of their own.
STACK_BYTE_LIMIT = 2**32

# Config dataclass field -> CLI option where the names differ; None: no option.
_FUSION_OPTIONS = {"mc_seed": "seed"}
_SOFTMASK_OPTIONS = {"target_volume_ratio": "ratio", "threshold_value": None}


def _field_defaults(config, renames: dict) -> dict:
    """A config dataclass's defaults keyed by CLI option name."""
    names = {f.name: renames.get(f.name, f.name) for f in fields(config)}
    return {opt: getattr(config, name) for name, opt in names.items() if opt}


def _from_options(config_cls, renames: dict, resolved: dict, **fixed):
    """A config dataclass: ``fixed`` fields as given, the rest from options."""
    return config_cls(**fixed, **{f.name: resolved[renames.get(f.name, f.name)]
                                  for f in fields(config_cls) if f.name not in fixed})


_RUN_DEFAULTS = {"seed": None, "force": False}

_SOFTMASK = SoftMaskConfig()
_SOFTMASK_DEFAULTS = {
    **_field_defaults(_SOFTMASK, _SOFTMASK_OPTIONS),
    "threshold_mode": f"{_SOFTMASK.threshold_mode}:{_SOFTMASK.threshold_value:g}",
    **_RUN_DEFAULTS,
}

# After the run options, so that fuse's seed defaults to FusionConfig's mc_seed.
_FUSE_DEFAULTS = {
    **_RUN_DEFAULTS,
    **_field_defaults(FusionConfig(), _FUSION_OPTIONS),
    "binarize": False,
}

# precision_recall's keyword defaults: its parameter names are eval's option names.
_EVAL_PARAMS = inspect.signature(precision_recall).parameters.values()
_EVAL_DEFAULTS = {p.name: p.default for p in _EVAL_PARAMS if p.default is not p.empty}
_EVAL_DEFAULTS |= _RUN_DEFAULTS


def main(argv=None) -> int:
    started = time.perf_counter()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _PARSER.parse_args(argv)
        if args.config:
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, args.options)
            args = _PARSER.parse_args(argv[:at] + flags + argv[at:])
        resolved = {key: getattr(args, key) for key in args.options}
        if resolved["seed"] is not None:
            check_number("--seed", resolved["seed"], integral=True, ge=0, lt=SEED_SPAN)
        return args.handler(args, resolved, started)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (ConfigError, CapacityError) as exc:
        print(f"fuselab: {exc}", file=sys.stderr)
        return 2
    except DegeneratePosteriorError as exc:
        print(f"fuselab: numerical failure: {exc}", file=sys.stderr)
        return 4
    except (SvolError, GridError, StackError, InputReadError) as exc:
        print(f"fuselab: invalid input: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"fuselab: missing input: {exc}", file=sys.stderr)
        return 3
    except FuselabError as exc:
        print(f"fuselab: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuselab",
        description="Multi-rater label fusion: simulate, softmask, fuse, eval.",
    )
    parser.add_argument("--version", action="version", version=f"fuselab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fuse = sub.add_parser("fuse", help="fuse expert masks into a consensus")
    fuse.add_argument("inputs", nargs="+", help="expert SVOL files (all binary or all soft)")
    fuse.add_argument("-o", "--out", required=True, help="output directory")
    fuse.add_argument("--variant", choices=VARIANTS)
    fuse.add_argument("--prior", help="foreground prior in (0,1), or 'auto'")
    fuse.add_argument("--init-sens", type=float)
    fuse.add_argument("--init-spec", type=float)
    fuse.add_argument("--max-iters", type=int)
    fuse.add_argument("--tol", type=float)
    fuse.add_argument("--mstep-mode", choices=MSTEP_MODES)
    fuse.add_argument("--mc-samples", type=int)
    fuse.add_argument("--binarize", action="store_true",
                      help="also write the thresholded consensus mask")
    fuse.add_argument("--flair", help="intensity SVOL; lets binary inputs feed the soft "
                                      "variants via the default soft-mask protocol")
    _command_flags(fuse, _cmd_fuse, _FUSE_DEFAULTS)

    soft = sub.add_parser("softmask", help="turn binary masks into soft masks")
    soft.add_argument("inputs", nargs="+", help="binary expert SVOL files")
    soft.add_argument("--flair", required=True, help="intensity SVOL gating the dilation")
    soft.add_argument("-o", "--out", required=True, help="output directory")
    soft.add_argument("--gamma", type=float, help="soft label of the grown voxels")
    soft.add_argument("--ratio", type=float, help="target volume ratio of each component")
    soft.add_argument("--threshold-mode", help="'percentile:P' or 'fixed:V'")
    soft.add_argument("--connectivity", type=int, choices=tuple(CONNECTIVITY_RANK))
    soft.add_argument("--max-dilation-iters", type=int)
    _command_flags(soft, _cmd_softmask, _SOFTMASK_DEFAULTS)

    sim = sub.add_parser("simulate", help="generate a phantom plus simulated raters")
    sim.add_argument("spec", help="JSON simulation config")
    sim.add_argument("-o", "--out", required=True, help="output directory")
    _command_flags(sim, _cmd_simulate, _RUN_DEFAULTS)

    ev = sub.add_parser("eval", help="score a prediction against a truth mask")
    ev.add_argument("truth", help="truth SVOL")
    ev.add_argument("pred", help="prediction SVOL")
    ev.add_argument("--threshold", type=float)
    ev.add_argument("--binarize-truth", action="store_true",
                    help="threshold a soft truth as well")
    ev.add_argument("-o", "--out", help="optional directory for report.json + manifest")
    _command_flags(ev, _cmd_eval, _EVAL_DEFAULTS)
    return parser


def _command_flags(cmd: argparse.ArgumentParser, handler, defaults: dict) -> None:
    """The flags every command shares, its handler, and its option defaults."""
    cmd.add_argument("--seed", type=int, help="run seed where the command uses one")
    cmd.add_argument("--force", action="store_true",
                     help="allow overwriting existing output files")
    cmd.add_argument("--config", help="JSON file of option values, parsed like flags (flags win)")
    cmd.set_defaults(handler=handler, options=defaults, **defaults)


def _config_flags(path: str, defaults: dict) -> list[str]:
    """The options a --config file sets, as ``--key=value`` flags for argparse
    to check. Values are strings or numbers; an on/off flag takes a boolean."""
    try:
        doc = json.loads(_read(lambda p: Path(p).read_text(encoding="utf-8"), path))
    except ValueError as exc:  # also the int-digit limit, beside bad UTF-8 and JSON
        raise ConfigError(f"--config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("--config must hold a JSON object")
    unknown = set(doc) - set(defaults)
    if unknown:
        raise ConfigError(f"--config has unknown key(s): {sorted(unknown)}")
    flags = []
    for key, value in doc.items():
        on_off = isinstance(defaults[key], bool)
        if isinstance(value, bool) != on_off or not isinstance(value, (str, int, float)):
            kind = "true or false" if on_off else "a string or a number"
            raise ConfigError(f"--config value of {key!r} must be {kind}, got {value!r}")
        flag = "--" + key.replace("_", "-")
        if value is not False:
            flags.append(flag if value is True else f"{flag}={value}")
    return flags


def _parse_threshold_mode(text: str) -> tuple[str, float]:
    kind, sep, value = str(text).partition(":")
    if kind not in ("percentile", "fixed") or not sep:
        raise ConfigError(
            f"threshold mode must look like 'percentile:P' or 'fixed:V', got {text!r}"
        )
    try:
        return kind, float(value)
    except ValueError as exc:
        raise ConfigError(f"bad threshold value in {text!r}") from exc


def _parse_prior(text) -> float | str:
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"prior must be a number or 'auto', got {text!r}") from exc


def _read(read, path):
    """``read(path)``; an input that exists but cannot be read is invalid input."""
    try:
        return read(path)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise InputReadError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _check_headers(paths, kinds, flair=None) -> tuple[list[str], Dim3, GridKind]:
    """The experts' ids (file stems, or the paths where stems collide), dims
    and kind, once every header checks out as a member of a stack of one of
    ``kinds``, and a ``flair`` beside binary experts (it gates their masks)
    as an intensity grid of their dims; no payload is read."""
    ids = [Path(p).stem for p in paths]
    if len(set(ids)) != len(ids):
        ids = [str(p) for p in paths]
    pipes = [p for p in [*paths, flair] if p and os.path.exists(p) and not os.path.isfile(p)]
    if pipes:  # each input is opened again for its payload; a pipe would then be empty
        raise InputReadError(f"{pipes[0]} is not a regular file, so it cannot be read twice")
    dims, found = zip(*(_read(read_svol_header, p) for p in paths))
    _refuse_kind("expert", paths[0], found[0], kinds)  # the stack's kind is its first's
    check_members(ids, dims, found)
    if flair and found[0] is GridKind.BINARY:
        shape, kind = _read(read_svol_header, flair)
        _refuse_kind("flair", flair, kind, (GridKind.INTENSITY,))
        if shape != dims[0]:
            raise DimensionMismatchError(
                f"flair {flair} has dims {shape.as_tuple()}, expected {dims[0].as_tuple()}")
    return ids, dims[0], found[0]


def _refuse_kind(role: str, path, kind: GridKind, kinds) -> None:
    """Refuse an input file of a kind other than ``kinds``: invalid input."""
    if kind not in kinds:
        raise GridError(f"{role} {path} is of kind {kind.value}, not {' or '.join(kinds)}")


def _read_as(role: str, path, kinds) -> VolumeGrid:
    grid = _read(read_svol, path)
    _refuse_kind(role, path, grid.kind, kinds)
    return grid


def _refuse_stack_bytes(dims: Dim3, builds_soft: bool) -> None:
    """Refuse a run whose estimated bytes pass :data:`STACK_BYTE_LIMIT`."""
    per = 96 if builds_soft else 40
    _refuse_over(dims.n * per, STACK_BYTE_LIMIT, f"estimated bytes to hold (voxels x {per})",
                 "crop the volumes")


def _refuse_changed(path, found: tuple, dims: Dim3, kind: GridKind) -> None:
    if found != (dims, kind):
        raise SvolError(f"{path}: header changed while the inputs were read")


def _read_grid(path, dims: Dim3, kind: GridKind, flair=None, cfg=None) -> VolumeGrid:
    """The grid the header pass found at ``path`` or, given a flair, its soft mask."""
    grid = _read(read_svol, path)
    _refuse_changed(path, (grid.dims, grid.kind), dims, kind)
    if flair is None:
        return grid
    return build_soft_stack(ExpertStack((grid,), (str(path),)), flair, cfg).experts[0]


def _read_row(path, dims: Dim3, kind: GridKind):
    """The flat vote row (see ``read_svol_row``) of the input the header pass found at ``path``."""
    *found, row = _read(read_svol_row, path)
    _refuse_changed(path, tuple(found), dims, kind)
    return row


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _targets(args, filenames, inputs, resolved: dict) -> list[Path]:
    """The output files in ``args.out``, then the manifest, once none is an input,
    an existing entry other than a regular file, or an existing file without --force."""
    targets = [Path(args.out) / name for name in [*filenames, "manifest.json"]]
    # A missing target is no input either, since each input was opened before.
    existing = [target for target in targets if target.exists()]
    sources = {os.path.realpath(p) for p in inputs} if existing else set()
    for target in existing:
        if os.path.realpath(target) in sources:
            raise ConfigError(f"refusing to overwrite input file {target}")
        if not target.is_file():
            raise ConfigError(f"output {target} exists and is not a regular file")
        if not resolved["force"]:
            raise ConfigError(f"output {target} exists; pass --force to overwrite")
    return targets


@contextlib.contextmanager
def _outputs(args, filenames, inputs, resolved: dict, started: float):
    """Check the output targets, then yield a temporary path beside each.

    Once the body has written them all, the manifest is written and every
    file is renamed over its target, the manifest last. On any failure the
    temporary files are removed instead, so a crashed run leaves no
    outputs behind and needs no --force to rerun.
    """
    outdir = Path(args.out)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {outdir} cannot be made: {exc.strerror}") from exc
    targets = _targets(args, filenames, inputs, resolved)
    temps = [t.with_name(f".{t.name}.partial") for t in targets]
    try:
        yield temps[:-1]
        _write_json(temps[-1], {
            "command": args.command,
            "config": resolved,
            "inputs": [str(p) for p in inputs],
            "outputs": [str(p) for p in targets[:-1]],
            "version": __version__,
            "numpy_version": numpy.__version__,
            "duration_s": time.perf_counter() - started,
        })
        for tmp, target in zip(temps, targets):
            os.replace(tmp, target)
    finally:
        for tmp in temps:
            tmp.unlink(missing_ok=True)


def _cmd_fuse(args, resolved: dict, started: float) -> int:
    resolved["prior"] = _parse_prior(resolved["prior"])
    config = _from_options(FusionConfig, _FUSION_OPTIONS, resolved)

    inputs = list(args.inputs)
    ids, dims, kind = _check_headers(inputs, (GridKind.BINARY, GridKind.SOFT),
                                     args.flair if config.variant != "binary" else None)
    builds_soft = kind is GridKind.BINARY and config.variant != "binary"
    if args.flair is not None and not builds_soft:
        raise ConfigError("--flair builds soft masks from binary inputs for a soft variant; "
                          f"it does not apply to {kind.value} inputs under variant "
                          f"{config.variant!r}")
    if builds_soft:
        if not args.flair:
            raise ConfigError(
                "binary inputs need --variant binary, or --flair to build "
                "soft masks for the soft variants"
            )
        inputs.append(args.flair)
    _refuse_stack_bytes(dims, builds_soft)
    filenames = ["posterior.svol", "params.json"]
    if resolved["binarize"]:
        filenames.insert(1, "consensus.svol")
    _targets(args, filenames, inputs, resolved)

    # One payload at a time, dropped once folded into the vote patterns: a
    # binary input as one byte per vote. Only the soft rows hold the flair, so
    # it goes once the last soft mask is built.
    order = id_order(ids)
    if builds_soft:
        flair = _read_grid(args.flair, dims, GridKind.INTENSITY)
        rows = (_read_grid(inputs[i], dims, kind, f).data for f in [flair] for i in order)
        del flair
    else:
        rows = (_read_row(inputs[i], dims, kind) for i in order)
    votes = fold_votes(rows, order, GridKind.SOFT if builds_soft else kind, dims)

    with _outputs(args, filenames, inputs, resolved, started) as temps:
        # One runner under two names: perfbench's traced pass labels its spans by the name.
        result = (run_em(votes, config) if config.variant == "binary"
                  else run_soft_em(votes, config))
        by_name = dict(zip(filenames, temps))
        write_svol(result.posterior_map, by_name["posterior.svol"])
        if resolved["binarize"]:
            write_svol(binarize(result.posterior_map), by_name["consensus.svol"])
        _write_json(
            by_name["params.json"],
            {
                "variant": config.variant,
                "prior": result.prior,
                "expert_ids": ids,
                "sens": [float(v) for v in result.params.sens],
                "spec": [float(v) for v in result.params.spec],
                "ll_trace": [float(v) for v in result.ll_trace],
                "iters_run": result.iters_run,
                "converged": result.converged,
                "ll_is_approximate": result.ll_is_approximate,
            },
        )
    print(f"fuse: wrote {len(filenames) + 1} file(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_softmask(args, resolved: dict, started: float) -> int:
    mode, value = _parse_threshold_mode(resolved["threshold_mode"])
    cfg = _from_options(SoftMaskConfig, _SOFTMASK_OPTIONS, resolved,
                        threshold_mode=mode, threshold_value=value)
    _, dims, _ = _check_headers(args.inputs, (GridKind.BINARY,), args.flair)
    _refuse_stack_bytes(dims, builds_soft=True)
    filenames = [Path(p).name for p in args.inputs]
    if len(set(filenames)) != len(filenames):
        raise ConfigError("input basenames collide; rename inputs or split the run")
    inputs = [*args.inputs, args.flair]
    _targets(args, filenames, inputs, resolved)

    flair = _read_grid(args.flair, dims, GridKind.INTENSITY)
    with _outputs(args, filenames, inputs, resolved, started) as temps:
        for path, tmp in zip(args.inputs, temps):
            write_svol(_read_grid(path, dims, GridKind.BINARY, flair, cfg), tmp)
    print(f"softmask: wrote {len(filenames)} soft mask(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_simulate(args, resolved: dict, started: float) -> int:
    phantom_spec, rater_specs = _read(load_simulation_config, args.spec)
    if resolved["seed"] is not None:
        shift = resolved["seed"] - phantom_spec.seed
        phantom_spec = replace(phantom_spec, seed=resolved["seed"])
        rater_specs = [replace(r, seed=(r.seed + shift) % SEED_SPAN) for r in rater_specs]
    resolved["seed"] = phantom_spec.seed

    filenames = ["truth.svol", "flair.svol"] + [
        f"expert_{r.rater_id}.svol" for r in rater_specs
    ]
    with _outputs(args, filenames, [args.spec], resolved, started) as temps:
        truth, flair = generate_phantom(phantom_spec)
        stack = simulate_raters(truth, rater_specs)
        for grid, tmp in zip((truth, flair, *stack.experts), temps):
            write_svol(grid, tmp)
    print(f"simulate: wrote {len(filenames)} volume(s) to {args.out}", file=sys.stderr)
    return 0


def _cmd_eval(args, resolved: dict, started: float) -> int:
    truth = _read_as("truth", args.truth, LABEL_KINDS)
    pred = _read_as("pred", args.pred, LABEL_KINDS)
    if truth.kind is not GridKind.BINARY and not resolved["binarize_truth"]:
        raise ConfigError(f"truth {args.truth} is not binary; pass --binarize-truth to "
                          "threshold it")
    report = precision_recall(
        truth, pred,
        threshold=resolved["threshold"],
        binarize_truth=resolved["binarize_truth"],
    )
    print(report.to_json())
    if args.out:
        with _outputs(args, ["report.json"], [args.truth, args.pred], resolved,
                      started) as temps:
            _write_json(temps[0], report.to_dict())
    return 0


# Built once per process: parsing leaves it unchanged, and handlers look names up as they run.
_PARSER = _build_parser()


if __name__ == "__main__":
    sys.exit(main())
