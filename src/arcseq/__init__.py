"""Arc-annotated sequence comparison toolkit.

Data model and structure classification live in :mod:`arcseq.core`, exact
solvers in :mod:`arcseq.solvers`, independent-set reductions and the
equivalence checker in :mod:`arcseq.reductions`, and file formats, instance
generators, sweeps, and the CLI in :mod:`arcseq.formats`,
:mod:`arcseq.generate`, :mod:`arcseq.sweep`, and :mod:`arcseq.cli`.
"""

__version__ = "0.1.0"

from .core import (
    AnnotatedSequence,
    Arc,
    Mapping,
    MatchConstraint,
    StructureLevel,
    classify_structure,
    is_arc_preserving,
    validate_mapping,
)
from .errors import (
    ArcseqError,
    BudgetError,
    CapabilityError,
    FormatError,
    InstanceError,
    ValidationError,
    WrongSolverError,
)
from .reductions import (
    EquivalenceReport,
    EquivalenceRow,
    Graph,
    MaxIndependentSet,
    Provenance,
    ReductionInstance,
    check_equivalence,
    extract_independent_set,
    independence_violations,
    max_independent_set,
    reduce_theorem1,
    reduce_theorem2,
)
from .solvers import (
    SearchBudget,
    SolveResult,
    build_conflict_graph,
    diagonal_conflict_solve,
    exact_search,
    lcs_dp,
    solve,
)
from .sweep import SweepConfig, run_sweep

__all__ = [
    "AnnotatedSequence",
    "Arc",
    "Mapping",
    "MatchConstraint",
    "StructureLevel",
    "classify_structure",
    "is_arc_preserving",
    "validate_mapping",
    "ArcseqError",
    "BudgetError",
    "CapabilityError",
    "FormatError",
    "InstanceError",
    "ValidationError",
    "WrongSolverError",
    "EquivalenceReport",
    "EquivalenceRow",
    "Graph",
    "MaxIndependentSet",
    "Provenance",
    "ReductionInstance",
    "check_equivalence",
    "extract_independent_set",
    "independence_violations",
    "max_independent_set",
    "reduce_theorem1",
    "reduce_theorem2",
    "SearchBudget",
    "SolveResult",
    "build_conflict_graph",
    "diagonal_conflict_solve",
    "exact_search",
    "lcs_dp",
    "solve",
    "SweepConfig",
    "run_sweep",
]
