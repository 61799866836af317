"""Import vdwcp from this checkout's src/ and nowhere else.

The benchmark measures the source tree it sits in, so an installed copy of
vdwcp elsewhere on sys.path must not be picked up; importing this module
raises ImportError when src/vdwcp is missing.
"""
from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import vdwcp  # noqa: E402

if Path(vdwcp.__file__).resolve().parent != (SRC / "vdwcp").resolve():
    raise ImportError(f"vdwcp was imported from {vdwcp.__file__}, not from {SRC}")
