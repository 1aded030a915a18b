"""Kernel backend: the compiled C library when it is built, pure Python otherwise.

``setup.py`` builds ``_ckernels.c`` next to this file as an optional
shared library, and ``_cbackend`` calls it through ctypes.  Without the
library the kernels come from ``_pykernels``.  Both backends return
identical values and witnesses, and raise the identical ``ValueError`` on a
call that breaks the kernel contract, a mask outside the vertices included:
each entry of either one first checks its call with the contract checks of
``_pykernels``.  ``BACKEND`` names the one in use (``"c"`` or ``"python"``).
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES

from ._pykernels import (
    KIND_CONNECTED_DOMINATING,
    KIND_CONVEX_DOMINATING,
    KIND_DOMINATING,
    KIND_INDEPENDENT,
    KIND_INDEPENDENT_DOMINATING,
    KIND_SUPER_DOMINATING,
    KIND_WEAKLY_CONNECTED_DOMINATING,
    MAX_ORDER,
)


def find_library() -> str | None:
    """Path of the built ``_ckernels`` library next to this file, if any."""
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_ckernels" + suffix)
        if os.path.isfile(path):
            return path
    return None


_library = find_library()
if _library is None:
    from . import _pykernels as _impl
else:
    from ._cbackend import load

    _impl = load(_library)

BACKEND: str = _impl.BACKEND
scan_min = _impl.scan_min
scan_max_independent = _impl.scan_max_independent
enumerate_size = _impl.enumerate_size
roman_min = _impl.roman_min
roman_enumerate = _impl.roman_enumerate
