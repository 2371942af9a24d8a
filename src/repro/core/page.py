"""The not-present sentinel shared by the page tables.

The MI300A keeps two page tables: the system (CPU) page table and the GPU
page table (paper Section 2.3).  Both are held per VMA as numpy arrays
(see :mod:`repro.core.address_space` and :mod:`repro.core.page_table`);
a page with no physical backing carries :data:`NO_FRAME` in its frame
slot.
"""

from __future__ import annotations

#: Sentinel frame number for a not-present entry.
NO_FRAME = -1
