"""The fragment-aware GPU TLB's miss count for streaming kernels.

The GPU L1 TLB can store a single entry for a whole *fragment* (an aligned
power-of-two run of pages), so the reach of its limited entry count
depends directly on the fragment exponents in the GPU page table (paper
Section 3.2).  The CPU TLB holds conventional per-page entries (memory
fragments are not used in the CPU page table, paper Section 5.4).

The kernel engine counts Fig. 9's GPU TLB misses with
:func:`streaming_tlb_misses`, a closed form over the GPU page table's
fragment exponents for long sequential streams (the STREAM TRIAD access
pattern), so it never walks tens of millions of pages.  The tests hold
it to an exact LRU simulation.
"""

from __future__ import annotations

import numpy as np


def streaming_tlb_misses(
    fragment_exponents: np.ndarray,
    passes: int,
    tlb_entries: int,
    fragment_aware: bool = True,
) -> int:
    """TLB misses for *passes* sequential sweeps over a mapped range.

    For a sequential stream, every entry to a new translation unit (a
    fragment for a fragment-aware TLB, a page otherwise) is a compulsory
    miss on the first pass.  On subsequent passes the stream either fits
    in the TLB (all hits) or thrashes the LRU completely (every unit
    misses again) — the classic cyclic-access LRU cliff.

    This closed form is what the GPU profiler counter converges to in the
    TRIAD kernel (paper Fig. 9): allocators yielding ~page-sized fragments
    pay ~one miss per page per pass, hipMalloc's large fragments cut the
    unit count by the fragment size.
    """
    if passes <= 0:
        raise ValueError(f"passes must be positive, got {passes}")
    exps = np.asarray(fragment_exponents, dtype=np.int64)
    if exps.size == 0:
        return 0
    if fragment_aware:
        units = float((1.0 / np.power(2.0, exps)).sum())
    else:
        units = float(exps.size)
    units_int = int(round(units))
    if units_int <= tlb_entries:
        return units_int  # compulsory misses only; later passes hit
    return units_int * passes
