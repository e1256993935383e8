"""Small shared builders for the test suite."""

import argparse

import numpy as np

import fuselab.cli
from fuselab import Dim3, ExpertStack, GridKind, VolumeGrid


def subcommands():
    """The CLI's subcommand parsers by name."""
    parser = fuselab.cli._build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def watch_payload_reads(monkeypatch):
    """The paths whose payload the CLI reads from now on, in read order:
    ``fuselab.cli.read_svol`` reads whole grids, ``read_svol_row`` a plain
    ``fuse``'s vote rows. Each read still happens."""
    paths = []
    for name in ("read_svol", "read_svol_row"):
        read = getattr(fuselab.cli, name)
        monkeypatch.setattr(fuselab.cli, name,
                            lambda path, read=read: paths.append(path) or read(path))
    return paths


def grid(values, kind=GridKind.BINARY, dims=None):
    """Flat values -> VolumeGrid; dims default to (len, 1, 1)."""
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if dims is None:
        dims = Dim3(values.size, 1, 1)
    return VolumeGrid(dims, values, kind)


def stack_from_rows(rows, kind=GridKind.BINARY, ids=None, dims=None):
    """(m, n) row-per-expert array -> ExpertStack."""
    rows = np.asarray(rows, dtype=np.float64)
    ids = ids or tuple(f"e{i}" for i in range(rows.shape[0]))
    return ExpertStack(
        tuple(grid(row, kind, dims) for row in rows), tuple(ids)
    )


def random_binary_stack(rng, m, n, p=0.35, dims=None):
    rows = (rng.random((m, n)) < p).astype(float)
    return stack_from_rows(rows, GridKind.BINARY, dims=dims)


def assert_monotone(trace, slack=1e-9):
    trace = list(trace)
    for k, (a, b) in enumerate(zip(trace, trace[1:])):
        assert b >= a - slack * abs(a), (
            f"objective decreased at step {k}: {a} -> {b}"
        )
