"""Opportunistic GPU page-table fragment computation.

A *fragment* is a virtually and physically contiguous, naturally aligned,
power-of-two run of pages with identical flags.  The GPU L1 TLB can hold a
single entry for a whole fragment, greatly increasing its reach (paper
Section 3.2).  The amdgpu driver sets the 5-bit PTE fragment field
opportunistically by scanning for maximal contiguous page ranges when it
maps pages.

This module reproduces that scan with whole-array numpy code.  A page's
exponent is that of the largest naturally aligned power-of-two block
around it that is virtually and physically contiguous and aligned in
both address spaces (the blocks the driver's greedy walk over each
contiguous run emits).  The scan tests blocks level by level: a block of
``2**k`` pages qualifies when both of its halves did and the second
half's frames follow the first's from a frame aligned to ``2**k``.  A
page's exponent is the number of levels whose block around it
qualifies; the scan stops at the first level where none does, so
scattered layouts cost one or two levels.

Up-front allocators produce long aligned runs and therefore large
fragments; on-demand first-touch order produces mostly single-page runs
and fragment exponent 0 — the mechanism behind Fig. 9's TLB miss gap.
"""

from __future__ import annotations

import numpy as np

from ..hw.config import MAX_FRAGMENT_EXPONENT


def _run_bounds(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start index and length of each maximal physically contiguous run."""
    is_bound = np.empty(len(frames) + 1, dtype=bool)  # run starts, then the end
    is_bound[[0, -1]] = True
    np.not_equal(frames[1:] - frames[:-1], 1, out=is_bound[1:-1])
    bounds = np.flatnonzero(is_bound)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def contiguous_runs(frames: np.ndarray) -> list[tuple[int, int]]:
    """Maximal physically contiguous runs over a virtually contiguous range.

    *frames* holds the physical frame of each consecutive virtual page.
    Returns ``(start_index, length)`` pairs covering the whole range.
    """
    frames = np.asarray(frames, dtype=np.int64)
    return [(int(s), int(n)) for s, n in zip(*_run_bounds(frames))]


def compute_fragments(
    frames: np.ndarray,
    base_vpn: int,
    max_exponent: int = MAX_FRAGMENT_EXPONENT,
) -> np.ndarray:
    """Per-page fragment exponents for a mapped virtual range.

    Args:
        frames: physical frame number of each consecutive virtual page,
            starting at virtual page number *base_vpn*.
        base_vpn: virtual page number of ``frames[0]`` (fragment blocks
            must be aligned in the virtual address space).
        max_exponent: cap on the exponent (5-bit field -> 31).

    Returns:
        int8 array of the same length: entry i covers ``2**exp[i]`` pages.
    """
    frames = np.asarray(frames, dtype=np.int64)
    n = len(frames)
    top = min(max_exponent, n.bit_length() - 1)  # no block outgrows the range
    # Pad the range at both ends to whole aligned blocks of the top level
    # (and of 8 pages); padding pages belong to no block.
    align = 1 << max(top, 3)
    lead = base_vpn & (align - 1)
    width = -(-(lead + n) // align) * align
    first = np.zeros(width, dtype=np.int64)  # first frame of each block
    first[lead : lead + n] = frames
    whole = np.zeros(width, dtype=bool)
    whole[lead : lead + n] = True
    levels = []
    for k in range(1, top + 1):
        # A block of 2**k pages is whole when both halves are and the
        # second half's frames follow the first's, from a frame aligned
        # to 2**k (so the block is aligned in both address spaces).
        lo, hi = first[0::2], first[1::2]
        whole = (whole[0::2] & whole[1::2] & (hi - lo == 1 << (k - 1))
                 & (lo & ((1 << k) - 1) == 0))
        if not whole.any():
            break
        levels.append(whole)
        first = lo
    # A page's exponent counts the levels whose block around it is whole.
    # Levels past the third add up at 8-page resolution; then that sum
    # and each of the first three levels spread over their pages as 8-,
    # 2-, 4- and 8-byte words whose bytes are all equal.
    count = np.zeros(width >> max(len(levels), 3), dtype=np.uint64)
    for level in reversed(levels[3:]):
        count = np.repeat(count + level, 2)
    exps = np.zeros(width, dtype=np.int8)
    for spread, word in zip([count] + levels[:3], ["u8", "u2", "u4", "u8"]):
        exps += (spread.astype(word) * (np.iinfo(word).max // 255)).view(np.int8)
    return exps[lead : lead + n]


def fragment_histogram(exponents: np.ndarray) -> dict[int, int]:
    """Count of pages per fragment exponent (for profiling/diagnostics)."""
    exponents = np.asarray(exponents)
    values, counts = np.unique(exponents, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def distinct_fragments(exponents: np.ndarray) -> int:
    """Number of distinct fragment entries covering the range.

    Each block of ``2**exp`` pages sharing one exponent is a single TLB
    entry, so the count of distinct fragments is what a streaming kernel's
    TLB miss counter converges to (one miss per fragment per pass when the
    stream exceeds TLB reach).
    """
    exponents = np.asarray(exponents)
    if len(exponents) == 0:
        return 0
    # The sum of 2**-exp over the pages, as an integer count of
    # 2**-top units, rounded half to even as round() rounds the float sum.
    # That float sum is exact: a page of exponent e lies in a fragment of
    # 2**e pages inside a buffer of N <= 2**25 pages (the pool), so every
    # partial sum is a multiple of 2**-e no larger than N, and
    # N * 2**e <= 2**50 < 2**53.  The two forms therefore always agree.
    counts = np.bincount(exponents.astype(np.intp, copy=False))
    top = len(counts) - 1
    units = 0
    for count in counts.tolist():  # Horner: sum of count_e * 2**(top - e)
        units = 2 * units + count
    whole, rest = divmod(units, 1 << top)
    if 2 * rest > 1 << top or (2 * rest == 1 << top and whole & 1):
        whole += 1
    return whole


def average_fragment_bytes(exponents: np.ndarray, page_size: int = 4096) -> float:
    """Average fragment size in bytes over the mapped range."""
    count = distinct_fragments(exponents)
    if count == 0:
        return 0.0
    return len(exponents) * page_size / count
