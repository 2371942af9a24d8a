"""TLB models: CPU TLB and fragment-aware GPU TLB.

The GPU L1 TLB can store a single entry for a whole *fragment* (an aligned
power-of-two run of pages), so the reach of its limited entry count
depends directly on the fragment exponents in the GPU page table (paper
Section 3.2).  The CPU TLB holds conventional per-page entries (memory
fragments are not used in the CPU page table, paper Section 5.4).

The kernel engine counts Fig. 9's GPU TLB misses with
:func:`streaming_tlb_misses`, a closed form over the GPU page table's
fragment exponents for long sequential streams (the STREAM TRIAD access
pattern), so it never walks tens of millions of pages.  :class:`TLB` is
an exact LRU simulation; no APU builds one, and the tests use it as the
reference the closed form must match.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..hw.config import TLBGeometry


@dataclass
class TLBStats:
    """Hit/miss counters of one TLB instance."""

    hits: int = 0
    misses: int = 0


class TLB:
    """LRU translation cache, optionally fragment-aware."""

    def __init__(self, geometry: TLBGeometry) -> None:
        if geometry.entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self._geometry = geometry
        self._entries: "OrderedDict[int, None]" = OrderedDict()
        self.stats = TLBStats()

    def _tag(self, vpn: int, fragment_exponent: int) -> int:
        if self._geometry.fragment_aware and fragment_exponent > 0:
            # One entry covers the whole aligned fragment block.  Tags are
            # disambiguated by folding the exponent in, since blocks of
            # different sizes must not alias.
            return ((vpn >> fragment_exponent) << 6) | fragment_exponent
        return (vpn << 6) | 0

    def access(self, vpn: int, fragment_exponent: int = 0) -> bool:
        """Translate one page access; returns True on hit."""
        tag = self._tag(vpn, fragment_exponent)
        if tag in self._entries:
            self._entries.move_to_end(tag)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._entries[tag] = None
        if len(self._entries) > self._geometry.entries:
            self._entries.popitem(last=False)
        return False

    def flush(self) -> None:
        """Invalidate all entries (TLB shootdown)."""
        self._entries.clear()


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
