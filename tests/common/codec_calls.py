"""Count codec calls the way ``perfbench``'s tracer does.

The tracer wraps ``encode_record`` / ``decode_record`` /
``decode_with_resolution`` in every ``repro`` module that bound the name
with ``from … import``.  The count guards use the same seam, so a guard
that passes here is a count the benchmark's
``common.serialization.calls`` will also see.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import repro.common.serialization as serialization

CODEC_FUNCTIONS = ("encode_record", "decode_record", "decode_with_resolution")
DECODES = ("decode_record", "decode_with_resolution")


class CodecCalls(list):
    """``(function name, first schema argument)`` per call, in order."""

    def count(self, *names: str, schema=None) -> int:  # type: ignore[override]
        return sum(1 for name, first in self
                   if name in (names or CODEC_FUNCTIONS)
                   and (schema is None or first is schema))


@contextmanager
def codec_calls():
    calls = CodecCalls()
    patched = []

    def wrap(name, original):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]))
            return original(*args, **kwargs)
        return wrapper

    for name in CODEC_FUNCTIONS:
        original = getattr(serialization, name)
        wrapper = wrap(name, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for bound, value in list(vars(module).items()):
                if value is original:
                    patched.append((module, bound, original))
                    setattr(module, bound, wrapper)
    try:
        yield calls
    finally:
        for module, bound, original in reversed(patched):
            setattr(module, bound, original)
