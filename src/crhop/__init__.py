"""crhop: seeded slotted-time simulator for multihop blind rendezvous
in cognitive-radio networks."""

from .activity import ActivityRates, ChannelProcess, make_profile, state_probabilities, utilization
from .engine import Environment, RunRecord, Scenario, build_environment, run
from .errors import (
    CrhopError,
    GenerationFailureError,
    InvalidComparisonError,
    InvalidParameterError,
    NoChannelError,
    UndefinedPprError,
)
from .experiment import SweepConfig, check_table1, run_group, run_sweep
from .handshake import NeighborTables, run_handshake
from .metrics import attr, compare, ppr, summarize
from .protocols import make_strategy
from .spectrum import SpectrumMap, assign_channels, partition_prime
from .topology import Topology, generate_topology, load_positions

__all__ = [
    "ActivityRates",
    "ChannelProcess",
    "CrhopError",
    "Environment",
    "GenerationFailureError",
    "InvalidComparisonError",
    "InvalidParameterError",
    "NeighborTables",
    "NoChannelError",
    "RunRecord",
    "Scenario",
    "SpectrumMap",
    "SweepConfig",
    "Topology",
    "UndefinedPprError",
    "assign_channels",
    "attr",
    "build_environment",
    "check_table1",
    "compare",
    "generate_topology",
    "load_positions",
    "make_profile",
    "make_strategy",
    "partition_prime",
    "ppr",
    "run",
    "run_group",
    "run_handshake",
    "run_sweep",
    "state_probabilities",
    "summarize",
    "utilization",
]
