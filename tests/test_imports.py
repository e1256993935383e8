"""Every name a ``fuselab`` module imports is used in it, so a check that
moved elsewhere leaves no stale import behind. A name listed in the
module's ``__all__`` counts as used; an import line marked ``# noqa: F401``
is kept on purpose and says why."""

import ast
import functools
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fuselab"
ROOT = SRC.parents[1]
PERFBENCH = ROOT / "perfbench"


def _unused_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" not in lines[node.lineno - 1]:
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert _unused_imports(path) == []


# Runs in a fresh interpreter, since the test process itself imports SciPy (oracles.py).
_CLI_RUN = """
import json, sys
from pathlib import Path

import fuselab.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

tmp = Path(sys.argv[1])
sim = tmp / "sim.json"
sim.write_text(json.dumps({
    "dims": [10, 9, 8], "lesions": [{"center": [4, 4, 4], "radius": 2.5}],
    "background_intensity": 40.0, "lesion_intensity": 120.0,
    "intensity_noise_sd": 2.0, "seed": 3,
    "raters": [{"id": "a", "sens": 0.9, "spec": 0.95},
               {"id": "b", "sens": 0.8, "spec": 0.9, "boundary_softening": 0.4}]}))
experts = [str(tmp / "sim" / f"expert_{i}.svol") for i in "ab"]
steps = {
    "import fuselab.cli": None,
    "simulate": ["simulate", str(sim), "-o", str(tmp / "sim")],
    "fuse": ["fuse", "--variant", "binary", *experts, "-o", str(tmp / "cons")],
    "eval": ["eval", str(tmp / "sim" / "truth.svol"), str(tmp / "cons" / "posterior.svol")],
    "softmask": ["softmask", *experts, "--flair", str(tmp / "sim" / "flair.svol"),
                 "-o", str(tmp / "soft")],
    "fuse --flair": ["fuse", "--variant", "simplified", *experts,
                     "--flair", str(tmp / "sim" / "flair.svol"), "-o", str(tmp / "flair")],
}
report = {}
for step, argv in steps.items():
    rc = 0 if argv is None else fuselab.cli.main(argv)
    report[step] = [rc, scipy_modules()]
print(json.dumps(report))
"""


def test_no_cli_step_loads_scipy(tmp_path):
    """``simulate``, a binary ``fuse``, ``eval``, ``softmask`` and ``fuse
    --flair`` all succeed without loading any SciPy module."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-c", _CLI_RUN, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout.splitlines()[-1])
    steps = ["import fuselab.cli", "simulate", "fuse", "eval", "softmask", "fuse --flair"]
    assert report == {step: [0, []] for step in steps}


def _fuselab_chains(path: Path) -> set[tuple[str, ...]]:
    """The names after ``fuselab`` of each whole ``fuselab.<a>[.<b>...]``
    attribute chain in a file, and of each ``from fuselab[.<a>] import <b>``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    inner = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fuselab":
            chains |= {(*node.module.split(".")[1:], a.name) for a in node.names}
        elif isinstance(node, ast.Attribute) and id(node) not in inner:
            names = []
            while isinstance(node, ast.Attribute):
                names.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "fuselab":
                chains.add(tuple(reversed(names)))
    return chains


def test_benchmark_names_resolve(monkeypatch):
    """Every fuselab name the benchmark's modules reach exists, and its traced
    pass finds every name it wraps. ``test_perfbench.py`` is the benchmark's own
    test, so it is left out."""
    import fuselab.cli  # and with it every fuselab module

    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        if not path.name.startswith("test_"):
            chains |= _fuselab_chains(path)
    missing = [".".join(("fuselab", *chain)) for chain in sorted(chains)
               if functools.reduce(lambda obj, name: getattr(obj, name, None), chain,
                                   fuselab) is None]
    assert chains
    assert missing == []

    spec = importlib.util.spec_from_file_location("_perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclass looks itself up there
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_every_export_has_a_user():
    """Every name in ``fuselab.__all__`` has a user besides the tests: a
    ``fuselab`` module other than ``__init__.py`` reads it (an AST name or
    attribute), or a demo, a benchmark module or README names it as a word."""
    import fuselab

    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    texts = [ROOT / "README.md", *(ROOT / "demos").glob("*.py"),
             *(p for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_"))]
    for path in texts:
        used |= set(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(set(fuselab.__all__) - used) == []
