"""README documents every command-line option."""

import argparse
import re
from pathlib import Path

import pytest

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
