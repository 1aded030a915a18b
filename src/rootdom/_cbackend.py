"""ctypes bindings of the kernel library built from ``_ckernels.c``.

``rootdom.kernels`` imports this module only when the library exists, so a
pure-Python install never loads ctypes.  Each wrapper checks its call with
the ``_pykernels`` check of the kernel contract before C reads a buffer,
since C trusts the order, the lengths and every mask value: it reads the
buffers without bounds and indexes them by the bits of the masks.  It then
converts the open masks (and a subset scan's table) to arrays, calls C,
which derives the closed masks itself, and unpacks the result.  So both
backends give identical values and witnesses, and the identical error on a
call that breaks the contract.
"""

from __future__ import annotations

import ctypes
from array import array
from types import SimpleNamespace

from ._pykernels import check_listing, check_masks, check_scan


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
        ("scan_min", u64, (ctypes.c_int, ctypes.c_int, ptr, ptr, u64, u64)),
        ("scan_max_independent", u64, (ctypes.c_int, ptr)),
        ("enumerate_size", ctypes.c_int,
         (ctypes.c_int, ctypes.c_int, ptr, ptr, ctypes.c_int, i64, u64, u64, ptr)),
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

    def take(status: int, out) -> tuple[list[int], bool]:
        if status:
            raise MemoryError("out of memory enumerating optimal sets")
        try:
            found = array("Q", ctypes.string_at(out.masks, 8 * out.count)).tolist() if out.count else []
        finally:
            lib.free_masks(out.masks)
        return found, bool(out.hit_cap)

    # In each wrapper every buffer stays bound to a local name until the C call returns.
    def scan_min(kind: int, n: int, open_m, table=None, forced_in: int = 0, forced_out: int = 0):
        check_scan(kind, n, open_m, table, forced_in, forced_out)
        om, tb = array("Q", open_m), array("Q", table or ())
        found = c_scan_min(kind, n, om.buffer_info()[0], tb.buffer_info()[0], forced_in, forced_out)
        return None if found == not_found else (found.bit_count(), found)

    def scan_max_independent(n: int, open_m):
        check_masks(n, open_m)
        om = array("Q", open_m)
        found = c_scan_max(n, om.buffer_info()[0])
        return found.bit_count(), found

    def enumerate_size(
        kind: int, n: int, open_m, table, k: int, cap: int, forced_in: int = 0, forced_out: int = 0
    ):
        check_scan(kind, n, open_m, table, forced_in, forced_out)
        check_listing("size", k, n, cap)
        om, tb, out = array("Q", open_m), array("Q", table or ()), MaskList()
        status = c_enumerate(
            kind, n, om.buffer_info()[0], tb.buffer_info()[0], k, cap, forced_in, forced_out, ctypes.byref(out)
        )
        return take(status, out)

    def roman_min(n: int, open_m, forced_in: int = 0, forced_out: int = 0):
        check_masks(n, open_m, forced_in, forced_out)
        om, b2 = array("Q", open_m), u64()
        weight = c_roman_min(n, om.buffer_info()[0], forced_in, forced_out, ctypes.byref(b2))
        return weight, b2.value

    def roman_enumerate(n: int, open_m, target_weight: int, cap: int, forced_in: int = 0, forced_out: int = 0):
        check_masks(n, open_m, forced_in, forced_out)
        check_listing("target weight", target_weight, 2 * n, cap)
        om, out = array("Q", open_m), MaskList()
        status = c_roman_enumerate(
            n, om.buffer_info()[0], target_weight, cap, forced_in, forced_out, ctypes.byref(out)
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
