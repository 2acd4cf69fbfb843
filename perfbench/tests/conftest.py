"""Make ``perfbench`` and the checkout's ``repro`` importable when the
suite is run as ``pytest perfbench/tests`` (it is not part of tier-1)."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
