"""ctypes bindings of the kernel library built from ``_ckernels.c``.

``rootdom.kernels`` imports this module only when the library exists, so a
pure-Python install never loads ctypes.  Every buffer handed to C is
checked for size in Python first, since C reads it without bounds.
"""

from __future__ import annotations

import ctypes
from array import array
from types import SimpleNamespace

from ._pykernels import (
    KIND_CONVEX_DOMINATING, KIND_WEAKLY_CONNECTED_DOMINATING, MAX_ORDER, check_kind, check_mask,
)


def load(path: str):
    """The five kernels of the compiled ``_ckernels.c`` at ``path``.

    Returns a namespace with ``BACKEND == "c"`` and the same functions, with
    the same signatures and results, as ``_pykernels``.
    """
    u64, i64, ptr = ctypes.c_uint64, ctypes.c_int64, ctypes.c_void_p
    not_found = (1 << 64) - 1

    class MaskList(ctypes.Structure):
        _fields_ = [("masks", ptr), ("count", i64), ("hit_cap", i64)]

    lib = ctypes.CDLL(path)
    for name, restype, argtypes in (
        ("scan_min", u64, (ctypes.c_int, ctypes.c_int, ptr, ptr, ptr, u64, u64)),
        ("scan_max_independent", u64, (ctypes.c_int, ptr)),
        ("enumerate_size", ctypes.c_int,
         (ctypes.c_int, ctypes.c_int, ptr, ptr, ptr, ctypes.c_int, i64, u64, u64, ptr)),
        ("roman_min", i64, (ctypes.c_int, ptr, u64, u64, ptr)),
        ("roman_enumerate", ctypes.c_int, (ctypes.c_int, ptr, i64, i64, u64, u64, ptr)),
        ("free_masks", None, (ptr,)),
    ):
        try:
            fn = getattr(lib, name)
        except AttributeError:  # e.g. a Python extension module of the same name
            raise ImportError(
                f"{path} does not export {name}; rebuild it with "
                "`python setup.py build_ext --inplace` or delete it"
            ) from None
        fn.restype, fn.argtypes = restype, argtypes
    c_scan_min, c_scan_max = lib.scan_min, lib.scan_max_independent
    c_enumerate, c_roman_min, c_roman_enumerate = lib.enumerate_size, lib.roman_min, lib.roman_enumerate

    def masks(seq, n: int, size: int):
        # The C side reads ``size`` words, so a short sequence must not reach it.
        if not 0 <= n <= MAX_ORDER:
            raise ValueError(f"the C kernels take orders 0..{MAX_ORDER}, got {n}")
        buf = array("Q", seq)
        if len(buf) < size:
            raise ValueError(f"expected {size} masks, got {len(buf)}")
        return buf

    def check_forced(n: int, forced_in: int, forced_out: int) -> None:
        # ctypes would wrap a mask outside the vertices to 64 bits silently.
        check_mask(n, forced_in, "forced_in")
        check_mask(n, forced_out, "forced_out")

    def kind_masks(kind: int, n: int, open_m, closed_m, table, forced_in: int, forced_out: int):
        check_kind(kind)
        check_forced(n, forced_in, forced_out)
        # Convex reads n * n interval masks from the table, weakly n bridge
        # masks, and no other kind reads it.
        size = {KIND_CONVEX_DOMINATING: n * n, KIND_WEAKLY_CONNECTED_DOMINATING: n}.get(kind, 0)
        return masks(open_m, n, n), masks(closed_m, n, n), masks((table or ()) if size else (), n, size)

    def take(status: int, out) -> tuple[list[int], bool]:
        if status:
            raise MemoryError("out of memory enumerating optimal sets")
        try:
            found = array("Q", ctypes.string_at(out.masks, 8 * out.count)).tolist() if out.count else []
        finally:
            lib.free_masks(out.masks)
        return found, bool(out.hit_cap)

    # In each wrapper every buffer stays bound to a local name until the C call returns.
    def scan_min(kind: int, n: int, open_m, closed_m, table=None, forced_in: int = 0, forced_out: int = 0):
        om, cm, tb = kind_masks(kind, n, open_m, closed_m, table, forced_in, forced_out)
        found = c_scan_min(
            kind, n, om.buffer_info()[0], cm.buffer_info()[0], tb.buffer_info()[0], forced_in, forced_out
        )
        return None if found == not_found else (found.bit_count(), found)

    def scan_max_independent(n: int, open_m):
        om = masks(open_m, n, n)
        found = c_scan_max(n, om.buffer_info()[0])
        return found.bit_count(), found

    def enumerate_size(
        kind: int, n: int, open_m, closed_m, table, k: int, cap: int, forced_in: int = 0, forced_out: int = 0
    ):
        om, cm, tb = kind_masks(kind, n, open_m, closed_m, table, forced_in, forced_out)
        out = MaskList()
        status = c_enumerate(
            kind, n, om.buffer_info()[0], cm.buffer_info()[0], tb.buffer_info()[0], k, cap, forced_in, forced_out,
            ctypes.byref(out),
        )
        return take(status, out)

    def roman_min(n: int, closed_m, forced_in: int = 0, forced_out: int = 0):
        cm, b2 = masks(closed_m, n, n), u64()
        check_forced(n, forced_in, forced_out)
        weight = c_roman_min(n, cm.buffer_info()[0], forced_in, forced_out, ctypes.byref(b2))
        return None if weight < 0 else (weight, b2.value)

    def roman_enumerate(n: int, closed_m, target_weight: int, cap: int, forced_in: int = 0, forced_out: int = 0):
        cm, out = masks(closed_m, n, n), MaskList()
        check_forced(n, forced_in, forced_out)
        status = c_roman_enumerate(
            n, cm.buffer_info()[0], target_weight, cap, forced_in, forced_out, ctypes.byref(out)
        )
        return take(status, out)

    return SimpleNamespace(
        BACKEND="c",
        scan_min=scan_min,
        scan_max_independent=scan_max_independent,
        enumerate_size=enumerate_size,
        roman_min=roman_min,
        roman_enumerate=roman_enumerate,
    )
