"""Profiling interfaces mirroring the paper's tooling (Table 2):
rocprofv3 GPU counters, perf-stat CPU events, and libnuma usage
sampling.  Trace analysis of the runtime's event log lives in hipsan
(:mod:`repro.analyze.sanitizer`).
"""

from .memusage import MemoryUsageProfiler
from .perfstat import PerfStat, PerfStatReport
from .rocprof import COUNTER_MAP, ProfileRegion, RocProf

__all__ = [
    "COUNTER_MAP",
    "MemoryUsageProfiler",
    "PerfStat",
    "PerfStatReport",
    "ProfileRegion",
    "RocProf",
]
