"""Makes the checkout's own ``src/fuselab`` importable.

The benchmark always measures the package in the tree it sits in, never
an installed copy, and refuses to run when that tree has no package.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def add_src_path() -> None:
    src = ROOT / "src"
    if not (src / "fuselab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fuselab package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
