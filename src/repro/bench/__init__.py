"""The paper's benchmarks (Table 2) as library functions.

* :mod:`~repro.bench.multichase` — memory latency (Fig. 2)
* :mod:`~repro.bench.stream` — memory bandwidth + TLB/fault counters
  (Figs. 3, 9, 10)
* :mod:`~repro.bench.hipbandwidth` — legacy transfers (Section 4.3)
* :mod:`~repro.bench.histogram` — coherence/atomics (Figs. 4-5)
* :mod:`~repro.bench.allocspeed` — allocation speed (Fig. 6)
* :mod:`~repro.bench.pagefault` — page-fault overhead (Figs. 7-8)
* :mod:`~repro.bench.allocators` — the allocator names the drivers share
"""

from . import allocspeed, hipbandwidth, histogram, multichase, pagefault, stream

__all__ = [
    "allocspeed",
    "hipbandwidth",
    "histogram",
    "multichase",
    "pagefault",
    "stream",
]
