"""Backend selection for the sweep kernel.

The compiled extension is used when it imports; otherwise the pure-Python
twin takes over with identical semantics and byte-identical output.
``BACKEND`` names the one in use.  Both walk permutations they generate
themselves, so no caller-supplied permutation reaches compiled code.
"""
from __future__ import annotations

from ._pykernel import MAX_N, pack_code, unpack_code, unrank

try:
    from ._ckernel import sweep_block  # type: ignore[import-not-found]

    BACKEND = "compiled"
except ImportError:
    from ._pykernel import sweep_block

    BACKEND = "python"

__all__ = [
    "BACKEND",
    "MAX_N",
    "pack_code",
    "sweep_block",
    "unpack_code",
    "unrank",
]
