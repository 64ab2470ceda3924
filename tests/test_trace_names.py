"""The benchmark's tracer finds every library name it wraps.

``perfbench/tracing.py`` swaps module attributes such as
``trapezoid.validate_transition`` or ``pyramid.class_size_exponent`` for
wrappers, looking each one up with ``getattr``; renaming or deleting one of
those names breaks ``perfbench/run.py --trace 1`` and nothing else.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402
from sswilf import (  # noqa: E402
    counting, kernel, oracle, pyramid, representatives, shift, trapezoid, words,
)

MODULES = (counting, kernel, oracle, pyramid, representatives, shift, trapezoid, words)


def test_install_finds_every_name_and_restore_puts_them_back():
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        assert tracer._saved
    finally:
        tracer.restore()
    assert [dict(vars(m)) for m in MODULES] == before
