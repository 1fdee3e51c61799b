"""Common substrate shared by every simulator subsystem.

This package holds the pieces that are not specific to any one model:
error types, deterministic random-number helpers and unit conversions.
"""

from repro.common.errors import (
    ConfigError,
    ExperimentError,
    InjectedFault,
    ReproError,
    SimulationError,
    TraceError,
    VerificationError,
)
from repro.common.rng import DeterministicRng
from repro.common.units import (
    CYCLE_TIME_NS,
    DEFAULT_CLOCK_GHZ,
    ns_to_cycles,
    parse_size,
    size_to_str,
)

__all__ = [
    "ConfigError",
    "ExperimentError",
    "InjectedFault",
    "ReproError",
    "SimulationError",
    "TraceError",
    "VerificationError",
    "DeterministicRng",
    "CYCLE_TIME_NS",
    "DEFAULT_CLOCK_GHZ",
    "ns_to_cycles",
    "parse_size",
    "size_to_str",
]
