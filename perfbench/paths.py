"""Locate the checkout and import cavlab from its own ``src/``."""
from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"


class MissingSource(RuntimeError):
    """The checkout holds no cavlab source to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other cavlab.

    An installed copy elsewhere would be measured silently, so the import is
    checked to come from this checkout.
    """
    if not (SRC / "cavlab" / "__init__.py").is_file():
        raise MissingSource(f"no cavlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cavlab

    if Path(cavlab.__file__).resolve().parent != SRC / "cavlab":
        raise MissingSource(f"cavlab was imported from {cavlab.__file__}, not {SRC}")
