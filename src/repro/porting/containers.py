"""Hidden-allocator containers (paper Section 3.3, "Hidden Allocator").

Libraries that allocate on the user's behalf — C++ containers being the
canonical case — are a porting hazard: either the container's default
allocator is used (pageable malloc memory, so the GPU later takes major
faults on it, the paper's nn outlier in Fig. 11), or the developer
plumbs a custom allocator through (hipMalloc-backed, fast but invasive).

:class:`UnifiedVector` models a ``std::vector`` with geometric growth
over the HIP runtime's allocators, supporting both choices via the
*allocator* argument — the ``std::allocator`` API swap the paper
recommends for optimal nn performance.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..core.allocators import Allocation
from ..runtime.hip import HipError, HipRuntime

#: The allocators a vector may use, and the name each gives its storage.
STORAGE_NAMES = {
    "malloc": "std::vector",
    "hipMalloc": "std::vector<hip>",
    "hipHostMalloc": "std::vector<pinned>",
}


class UnifiedVector:
    """A growable typed vector over simulated memory.

    Growth follows the libstdc++ policy (double the capacity), and every
    reallocation really happens in the simulator: a new allocation is
    made, contents are CPU-copied (touching pages), and the old buffer is
    freed.  The resulting physical layout is therefore exactly what a
    CPU-populated ``std::vector`` would have — scattered, free-list
    biased malloc pages — unless a HIP-backed allocator is selected.
    """

    def __init__(
        self,
        runtime: HipRuntime,
        dtype: np.dtype | str = np.float32,
        allocator: str = "malloc",
        initial_capacity: int = 16,
    ) -> None:
        if initial_capacity <= 0:
            raise ValueError("capacity must be positive")
        if allocator not in STORAGE_NAMES:
            raise ValueError(f"unsupported vector allocator {allocator!r}")
        self._runtime = runtime
        self._allocator = allocator
        self._dtype = np.dtype(dtype)
        self._size = 0
        self._capacity = initial_capacity
        self._allocation = self._allocate(initial_capacity)
        self._data = np.zeros(initial_capacity, dtype=self._dtype)
        self.reallocations = 0

    def _allocate(self, capacity: int) -> Allocation:
        return self._runtime.allocate(
            max(1, capacity * self._dtype.itemsize), self._allocator,
            STORAGE_NAMES[self._allocator],
        )

    @property
    def allocation(self) -> Allocation:
        """The current backing allocation (changes on growth)."""
        return self._allocation

    @property
    def data(self) -> np.ndarray:
        """The live elements as a numpy view."""
        return self._data[: self._size]

    @property
    def size(self) -> int:
        """Number of elements stored."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated element slots."""
        return self._capacity

    def push_back(self, value: float) -> None:
        """Append one element, growing geometrically when full."""
        if self._size == self._capacity:
            self._grow(self._capacity * 2)
        self._data[self._size] = value
        # First touch of the element's page happens on the CPU.
        offset = self._size * self._dtype.itemsize
        self._runtime.touch(
            self._allocation, "cpu", offset_bytes=offset,
            size_bytes=self._dtype.itemsize,
        )
        self._size += 1

    def extend(self, values: Iterable[float]) -> None:
        """Append many elements (bulk push_back)."""
        if not isinstance(values, np.ndarray):
            values = list(values)
        values = np.asarray(values, dtype=self._dtype)
        needed = self._size + len(values)
        if needed > self._capacity:
            new_capacity = self._capacity
            while new_capacity < needed:
                new_capacity *= 2
            self._grow(new_capacity)
        self._data[self._size : needed] = values
        if len(values):
            start = self._size * self._dtype.itemsize
            self._runtime.touch(
                self._allocation, "cpu", offset_bytes=start,
                size_bytes=max(1, len(values) * self._dtype.itemsize),
            )
        self._size = needed

    def _grow(self, new_capacity: int) -> None:
        """Reallocate; a failed growth frees the new storage and leaves
        the vector as it was."""
        old_allocation = self._allocation
        allocation = self._allocate(new_capacity)
        if self._size:
            # The copy touches both buffers on the CPU.
            nbytes = max(1, self._size * self._dtype.itemsize)
            try:
                self._runtime.touch(old_allocation, "cpu", size_bytes=nbytes)
                self._runtime.touch(allocation, "cpu", size_bytes=nbytes)
            except HipError:
                self._runtime.hipFree(allocation)
                raise
        data = np.zeros(new_capacity, dtype=self._dtype)
        data[: self._size] = self._data[: self._size]
        self._allocation, self._data = allocation, data
        self._runtime.hipFree(old_allocation)
        self._capacity = new_capacity
        self.reallocations += 1

    def reserve(self, capacity: int) -> None:
        """Pre-size the vector (avoids repeated reallocation)."""
        if capacity > self._capacity:
            self._grow(capacity)

    def free(self) -> None:
        """Release the backing allocation."""
        self._runtime.hipFree(self._allocation)
        self._size = 0
        self._capacity = 0

    def __len__(self) -> int:
        return self._size
