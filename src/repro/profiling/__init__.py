"""Profiling interfaces mirroring the paper's tooling (Table 2):
rocprofv3 GPU counters, perf-stat CPU events, and libnuma usage sampling,
plus the porting advisor over the runtime's traced event log.
"""

from .memusage import MemoryUsageProfiler
from .perfstat import PerfStat, PerfStatReport
from .rocprof import COUNTER_MAP, ProfileRegion, RocProf
from .tracer import AdvisorReport, DuplicationFinding, PortingAdvisor

__all__ = [
    "AdvisorReport",
    "COUNTER_MAP",
    "DuplicationFinding",
    "MemoryUsageProfiler",
    "PerfStat",
    "PerfStatReport",
    "PortingAdvisor",
    "ProfileRegion",
    "RocProf",
]
