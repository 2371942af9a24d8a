"""The paper's allocator row labels (Figs. 2, 3, 6, 9 and 10).

Each label names one :class:`~repro.runtime.hip.HipRuntime` allocator
and the XNACK mode its benchmark runs with; the runtime allocates.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Row label -> (runtime allocator name, XNACK).  Plain malloc runs with
#: XNACK, as the GPU reaches pageable memory only through fault replay.
_LABELS: Dict[str, Tuple[str, bool]] = {
    "malloc": ("malloc", True),
    "malloc+register": ("malloc+register", False),
    "hipMalloc": ("hipMalloc", False),
    "hipHostMalloc": ("hipHostMalloc", False),
    "hipMallocManaged(xnack=0)": ("hipMallocManaged", False),
    "hipMallocManaged(xnack=1)": ("hipMallocManaged", True),
    "__managed__": ("managed_static", False),
}


def resolve(label: str) -> Tuple[str, bool]:
    """``(runtime allocator name, XNACK)`` of a row label."""
    try:
        return _LABELS[label]
    except KeyError:
        raise ValueError(f"unknown allocator {label!r}") from None
