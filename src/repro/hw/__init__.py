"""Hardware substrate for the simulated MI300A APU.

Exports the configuration dataclasses, the simulated clock, the HBM
channel-mapping model and the Infinity Cache model.  The cache-hierarchy
latency walk lives in :mod:`repro.perf.latency`.
"""

from .clock import SimClock
from .config import (
    GiB,
    KiB,
    MAX_FRAGMENT_EXPONENT,
    MI300AConfig,
    MiB,
    PAGE_SIZE,
    TiB,
    default_config,
    small_config,
)
from .hbm import HBMSubsystem, channel_balance, effective_slice_hit_fraction
from .infinity_cache import InfinityCache

__all__ = [
    "GiB",
    "HBMSubsystem",
    "InfinityCache",
    "KiB",
    "MAX_FRAGMENT_EXPONENT",
    "MI300AConfig",
    "MiB",
    "PAGE_SIZE",
    "SimClock",
    "TiB",
    "channel_balance",
    "default_config",
    "effective_slice_hit_fraction",
    "small_config",
]
