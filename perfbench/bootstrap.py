"""Locate the checkout and import pdwg from its ``src/`` directory only."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"


def cannot_run(message: str):
    """Exit with code 2, which means nothing was measured (code 1 means a
    check failed)."""
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_pdwg():
    """Import pdwg from this checkout's sources.  Exits with code 2 when
    they are missing, rather than measuring an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import pdwg
    except ImportError as err:
        cannot_run(f"cannot import pdwg from {SRC}: {err}")
    if not Path(pdwg.__file__).resolve().is_relative_to(SRC):
        cannot_run(f"pdwg was imported from {pdwg.__file__}, not from {SRC}")
    return pdwg
