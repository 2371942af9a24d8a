"""The paper's benchmarks (Table 2).

Each figure's function is the runner its :mod:`repro.exp` spec
registers: it takes one grid point's parameters and returns the rows in
the spec's ``columns`` order.

* :mod:`~repro.bench.multichase` — memory latency (Fig. 2)
* :mod:`~repro.bench.stream` — memory bandwidth + TLB/fault counters
  (Figs. 3, 9, 10)
* :mod:`~repro.bench.hipbandwidth` — legacy transfers (Section 4.3)
* :mod:`~repro.bench.histogram` — coherence/atomics (Figs. 4-5)
* :mod:`~repro.bench.allocspeed` — allocation speed (Fig. 6)
* :mod:`~repro.bench.pagefault` — page-fault overhead (Figs. 7-8)
* :mod:`~repro.bench.allocators` — the paper's allocator row labels
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
