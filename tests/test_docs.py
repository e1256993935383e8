"""README documents every command-line option and states each size limit and default
as the code sets it."""

import argparse
import inspect
import re
from pathlib import Path

import pytest

from fuselab import (
    FusionConfig,
    SoftMaskConfig,
    cli,
    precision_recall,
    soft_staple,
    staple,
    synth,
)
from helpers import subcommands

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _options():
    for command, cmd in subcommands().items():
        for action in cmd._actions:
            if action.option_strings and not isinstance(action, argparse._HelpAction):
                yield pytest.param(action.option_strings, id=f"{command} {action.dest}")


@pytest.mark.parametrize("strings", _options())
def test_readme_names_option(strings):
    """Any one string of the option counts, as a whole token."""
    assert any(re.search(rf"(?<![\w-]){re.escape(s)}(?![\w-])", README) for s in strings), (
        f"README.md documents none of {strings}"
    )


def test_readme_flags_are_options():
    """Every --flag token of README's command-line section is an option of some command."""
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--\w[\w-]*", section))
    known = {s for cmd in subcommands().values() for a in cmd._actions for s in a.option_strings}
    assert named - known == set(), "README.md names options no command has"


# Each limit, and where README states it: the group is a decimal or 2^k.
LIMITS = [
    ("ENUMERATION_GUARD", soft_staple.ENUMERATION_GUARD,
     r"With more than (\d+) inputs the exact variant refuses"),
    ("MC_DRAW_LIMIT", soft_staple.MC_DRAW_LIMIT, r"larger than (2\^\d+) values per voxel"),
    ("MC_ENTRY_LIMIT", soft_staple.MC_ENTRY_LIMIT, r"could keep more than (2\^\d+) entries"),
    ("_MC_RUN_DRAW_LIMIT", soft_staple._MC_RUN_DRAW_LIMIT,
     r"more than (2\^\d+) (?:values in all|draws)"),
    ("SIMULATE_BYTE_LIMIT", synth.SIMULATE_BYTE_LIMIT, r"is more than (2\^\d+) bytes"),
    ("EXACT_TERM_LIMIT", soft_staple.EXACT_TERM_LIMIT,
     r"more than (2\^\d+) joint-vote terms"),
    ("STACK_BYTE_LIMIT", cli.STACK_BYTE_LIMIT, r"working set exceeds (2\^\d+) bytes"),
    ("COLUMN_VOTE_LIMIT", staple.COLUMN_VOTE_LIMIT, r"refuses more than (2\^\d+) column values"),
]


@pytest.mark.parametrize("name, value, pattern", LIMITS, ids=[row[0] for row in LIMITS])
def test_readme_states_limit(name, value, pattern):
    """Every statement of the limit in README gives the constant's value."""
    text = " ".join(README.split())
    stated = {2 ** int(v[2:]) if v.startswith("2^") else int(v)
              for v in re.findall(pattern, text)}
    assert stated == {value}, f"README states {name} as {stated}, the code as {value}"


# Each default README states: its owner's value, where README states it, how to read it.
DEFAULTS = [
    ("SoftMaskConfig.gamma", SoftMaskConfig.gamma, r"soft label γ \(default ([\d.]+)\)", float),
    ("SoftMaskConfig.target_volume_ratio", SoftMaskConfig.target_volume_ratio,
     r"target volume ratio \(default (\d+)%\)", lambda v: int(v) / 100),
    ("FusionConfig.tol", FusionConfig.tol, r"`tol` \(default ([\d.e-]+)\)", float),
    ("FusionConfig.max_iters", FusionConfig.max_iters, r"`max_iters` \(default (\d+)\)", int),
    ("FusionConfig.mc_seed", FusionConfig.mc_seed,
     r"`fuse` seeds `soft-mc` with it, default (\d+)", int),
    ("precision_recall threshold", inspect.signature(precision_recall).parameters["threshold"]
     .default, r"`--threshold` \(default ([\d.]+)\)", float),
]


@pytest.mark.parametrize("name, value, pattern, read", DEFAULTS,
                         ids=[row[0] for row in DEFAULTS])
def test_readme_states_default(name, value, pattern, read):
    """README states the default at least once, and every statement gives the owner's value."""
    text = " ".join(README.split())
    stated = {read(v) for v in re.findall(pattern, text)}
    assert stated == {value}, f"README states {name} as {stated}, the code as {value}"
