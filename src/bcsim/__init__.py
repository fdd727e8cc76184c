"""Exact simulation of classical bit-commitment protocols and their coherent attacks."""

from .engine import (
    Message,
    Party,
    Phase,
    ProtocolOutcome,
    SeparationBreachError,
    Transcript,
    run_protocol,
)
from .gf2 import BitMatrix, BitVector, dot, rank, sample_independent_rows, solve_affine
from .harness import (
    ConfigError,
    ScenarioConfig,
    TrialReport,
    compare_distributions,
    emit_report,
    exact_transcript_distribution,
    run_trials,
)
from .perm import ToyPermutation
from .qsim import (
    RegisterLayout,
    SparseState,
    UncomputationError,
    init_state,
)

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "ConfigError",
    "Message",
    "Party",
    "Phase",
    "ProtocolOutcome",
    "RegisterLayout",
    "ScenarioConfig",
    "SeparationBreachError",
    "SparseState",
    "ToyPermutation",
    "Transcript",
    "TrialReport",
    "UncomputationError",
    "compare_distributions",
    "dot",
    "emit_report",
    "exact_transcript_distribution",
    "init_state",
    "rank",
    "run_protocol",
    "run_trials",
    "sample_independent_rows",
    "solve_affine",
]
