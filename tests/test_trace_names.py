"""The benchmark's tracer finds every library name it wraps.

``perfbench/tracing.py`` swaps module attributes such as
``trapezoid.validate_transition`` or ``pyramid.class_size_exponent`` for
wrappers, looking each one up with ``getattr``; renaming or deleting one of
those names breaks ``perfbench/run.py --trace 1`` and nothing else.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import sswilf  # noqa: E402
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


TRACED_CLI = """
import json, sys
import tracing
from sswilf import counting
original = dict(vars(counting))
tracing.install(tracing.Tracer())
from sswilf import cli
current = {id(v): k for k, v in vars(counting).items()}
print(json.dumps({
    "wrapped": sorted(k for k, v in vars(counting).items() if v is not original[k]),
    "bound": sorted(current.get(id(f[0]), "stale") for f in cli._FAMILIES.values()),
}))
"""


def test_cli_binds_the_traced_counting_functions():
    # perfbench/cli_child.py installs the tracer and then imports the CLI,
    # whose _FAMILIES table must take the wrapped counting functions: bound
    # before install, or not at import, the counting spans would stay empty
    # and counting.class_count.cold_s would read 0.  A fresh interpreter,
    # because here the CLI has long been imported.
    path = [str(Path(sswilf.__file__).parents[1]), str(Path(tracing.__file__).parent)]
    done = subprocess.run(
        [sys.executable, "-c", TRACED_CLI], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert "class_count" in found["wrapped"]
    assert "stale" not in found["bound"]
    assert set(found["wrapped"]) <= set(found["bound"])
