"""What both kernel backends share: the kind codes, the largest order and
the check of a forced-in or forced-out mask.

A module of its own, so that the C backend loads without compiling the
pure-Python kernels.
"""

from __future__ import annotations

KIND_DOMINATING = 0
KIND_INDEPENDENT_DOMINATING = 1
KIND_CONNECTED_DOMINATING = 2
KIND_CONVEX_DOMINATING = 3
KIND_WEAKLY_CONNECTED_DOMINATING = 4
KIND_SUPER_DOMINATING = 5
KIND_INDEPENDENT = 6

#: Largest order the kernels are called with: the C kernels keep vertex sets
#: in 64-bit masks.  It is also the ceiling of the scan budget.
MAX_ORDER = 62


def check_mask(n: int, mask: int, name: str) -> None:
    """A forced mask, named ``name`` in the error, must be a set of vertices 0..n-1."""
    if not 0 <= mask < 1 << n:
        raise ValueError(f"{name} {mask:#x} is not a set of vertices of a graph of order {n}")

