"""Multimodal multiway data association.

Fuses per-modality pair similarity scores across n observation sets into a
single cycle-consistent, one-to-one, distinctness-respecting assignment by
penalty continuation over a continuous relaxation, with an exhaustive exact
oracle, a synthetic generator and a benchmark harness.
"""

from .bench import (MetricsReport, all_pairs_matches, consecutive_matches,
                    optimality_gap, pair_metrics, percent_change,
                    precision_recall)
from .core import (Assignment, FeasibilityReport, InfeasibleAssignmentError,
                   Instance, InvalidInstanceError, PairwiseTable,
                   build_modality_matrices, canonical_labels,
                   check_cycle_consistency, check_feasible,
                   clusters_from_assignment, feasibility_report,
                   pairwise_from_assignment)
from .oracle import (InstanceTooLargeError, OracleConfig, OracleResult,
                     count_feasible, enumerate_feasible, solve_exact)
from .relax import (RelaxationData, build_relaxation, frobenius_objective,
                    relaxed_gradient, relaxed_objective)
from .solver import (SolverConfig, SolverResult, StageRecord, project,
                     project_row, solve)
from .synth import (GroundTruth, SynthConfig, generate, multimodal_suite,
                    restrict_modalities)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "FeasibilityReport", "GroundTruth",
    "InfeasibleAssignmentError", "Instance", "InstanceTooLargeError",
    "InvalidInstanceError", "MetricsReport", "OracleConfig", "OracleResult",
    "PairwiseTable", "RelaxationData", "SolverConfig", "SolverResult",
    "StageRecord", "SynthConfig", "all_pairs_matches",
    "build_modality_matrices", "build_relaxation", "canonical_labels",
    "check_cycle_consistency", "check_feasible", "clusters_from_assignment",
    "consecutive_matches", "count_feasible", "enumerate_feasible",
    "feasibility_report", "frobenius_objective", "generate",
    "multimodal_suite", "optimality_gap", "pair_metrics",
    "pairwise_from_assignment", "percent_change", "precision_recall",
    "project", "project_row", "relaxed_gradient", "relaxed_objective",
    "restrict_modalities", "solve", "solve_exact",
]
