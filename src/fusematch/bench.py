"""Benchmark harness: pairwise metrics, optimality gaps, baselines.

Precision and recall are counted over unordered element pairs: a pair is a
predicted match when both elements share a predicted cluster, a true match
when they share a ground-truth identity.  Predictions and truth are
PairwiseTables, boolean m-by-m match matrices whose within-set entries are
zero, and a pair is one entry of the strict upper triangle; the baselines
return such tables too.  precision_recall counts the same way on a
same-label matrix built from two labelings.
"""

from __future__ import annotations

import csv
import time
from dataclasses import astuple, dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (Instance, PairwiseTable, canonical_labels,
                   pairwise_from_assignment)
from .oracle import solve_exact
from .solver import SolverConfig, solve
from .synth import (DEFAULT_SUITE_BASE, MULTIMODAL_PROFILES, SynthConfig,
                    derive_seed, generate, multimodal_suite, restrict_modalities)

GAP_EPSILON = 1e-9

GAP_CSV_COLUMNS = ("n_o", "gap_mean", "gap_std", "dp_mean", "dp_std",
                   "dr_mean", "dr_std", "runtime_ms")

# the outlier sweep against the exact optimum: m = 9-12 elements, so the
# oracle stays within its default cap
SWEEP_BASE = SynthConfig(universe_size=3, num_sets=3, modality_count=2,
                         noise_sigma=0.15, inconclusive_rate=0.15, flip_rate=0.05)
SWEEP_OUTLIERS = (0, 1, 2, 3)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    true_positives: int
    false_positives: int
    false_negatives: int


@dataclass(frozen=True)
class TrialRow:
    """Aggregated row of the outlier sweep: mean and population std of the
    optimality gap and of the precision/recall percent changes relative to
    the exact solution, plus mean solver runtime."""

    outliers: int
    gap_mean: float
    gap_std: float
    dp_mean: float
    dp_std: float
    dr_mean: float
    dr_std: float
    runtime_ms: float


@dataclass(frozen=True)
class AblationRow:
    modalities: tuple[int, ...]
    method: str
    f1_mean: float


def _pair_report(predicted: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Metrics over the pairs of the strict upper triangle of two m-by-m
    boolean matrices, each True where the pair is a (predicted, true) match.

    An empty prediction has precision 1 by convention; an empty truth has
    recall 1.  F1 is 0 when precision and recall are both 0.
    """
    upper = np.triu(np.ones(predicted.shape, dtype=bool), k=1)
    predicted, truth = predicted & upper, truth & upper
    tp = int(np.count_nonzero(predicted & truth))
    fp = int(np.count_nonzero(predicted)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(precision=precision, recall=recall, f1=f1,
                         true_positives=tp, false_positives=fp, false_negatives=fn)


def pair_metrics(predicted: PairwiseTable, truth: PairwiseTable) -> MetricsReport:
    """Metrics of predicted cross-set matches against the true ones."""
    if predicted.set_sizes != truth.set_sizes:
        raise ValueError(f"set sizes differ: {list(predicted.set_sizes)} "
                         f"vs {list(truth.set_sizes)}")
    return _pair_report(predicted.match, truth.match)


def precision_recall(predicted, truth) -> MetricsReport:
    """Pairwise metrics of a predicted labeling against the ground truth.

    Accepts Assignment/GroundTruth objects or raw sequences of hashable
    labels; every pair of equal labels counts, whatever the sets.
    """
    pred_labels = canonical_labels(getattr(predicted, "labels", predicted))
    true_labels = canonical_labels(getattr(truth, "labels", truth))
    if len(pred_labels) != len(true_labels):
        raise ValueError(
            f"labeling lengths differ: {len(pred_labels)} vs {len(true_labels)}")
    return _pair_report(np.equal.outer(pred_labels, pred_labels),
                        np.equal.outer(true_labels, true_labels))


def optimality_gap(f_solver: float, f_oracle: float) -> float:
    """Percent excess of the solver objective over the exact optimum."""
    if f_solver < f_oracle - GAP_EPSILON:
        raise ValueError(
            f"solver value {f_solver} is below the exact optimum {f_oracle}")
    return max(0.0, 100.0 * (f_solver - f_oracle) / max(f_oracle, GAP_EPSILON))


def percent_change(new: float, ref: float) -> float:
    """Percent change of a metric against a reference; 0 when both vanish."""
    if ref <= GAP_EPSILON and new <= GAP_EPSILON:
        return 0.0
    return 100.0 * (new - ref) / max(ref, GAP_EPSILON)


def monte_carlo_gap(base: SynthConfig, n_o_values: Sequence[int],
                    trials: int) -> list[TrialRow]:
    """Outlier sweep comparing the solver against exhaustive search.

    For every outlier count, ``trials`` instances are drawn with seeds
    derived from base.rng_seed, so the whole table is reproducible.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows = []
    for n_o in n_o_values:
        gaps, dps, drs, times = [], [], [], []
        for t in range(trials):
            seed = derive_seed(base.rng_seed, n_o, t)
            instance, truth = generate(
                replace(base, outliers_per_run=int(n_o), rng_seed=seed))
            start = time.perf_counter()
            result = solve(instance,
                           SolverConfig(rng_seed=derive_seed(base.rng_seed, n_o, t, 1)))
            times.append((time.perf_counter() - start) * 1e3)
            exact = solve_exact(instance)
            gaps.append(optimality_gap(result.frobenius_value, exact.value))
            solver_metrics = precision_recall(result.assignment, truth)
            oracle_metrics = precision_recall(exact.assignment, truth)
            dps.append(percent_change(solver_metrics.precision, oracle_metrics.precision))
            drs.append(percent_change(solver_metrics.recall, oracle_metrics.recall))
        rows.append(TrialRow(
            outliers=int(n_o),
            gap_mean=float(np.mean(gaps)), gap_std=float(np.std(gaps)),
            dp_mean=float(np.mean(dps)), dp_std=float(np.std(dps)),
            dr_mean=float(np.mean(drs)), dr_std=float(np.std(drs)),
            runtime_ms=float(np.mean(times))))
    return rows


def _strong_pairs(instance: Instance, eligible: np.ndarray | bool) -> PairwiseTable:
    """Match table of the eligible stored pairs whose mean modality score
    exceeds 0.5; within-set pairs never match."""
    a, b = instance.pairs[eligible & (instance.scores.mean(axis=1) > 0.5)].T
    m = instance.num_elements
    match = np.zeros((m, m), dtype=bool)
    match[a, b] = match[b, a] = True
    return PairwiseTable(instance.set_sizes, match)


def all_pairs_matches(instance: Instance) -> PairwiseTable:
    """Naive baseline: every pair whose mean modality score exceeds 0.5."""
    return _strong_pairs(instance, True)


def consecutive_matches(instance: Instance) -> PairwiseTable:
    """Thresholding restricted to pairs from consecutive sets."""
    sets = instance.set_index[instance.pairs]
    return _strong_pairs(instance, np.abs(sets[:, 0] - sets[:, 1]) == 1)


def ablation(trials: int, base_seed: int = 0, *,
             base: SynthConfig | None = None,
             profiles: Sequence[tuple[float, float, float]] | None = None
             ) -> list[AblationRow]:
    """Mean F1 per modality subset, for the solver and both baselines.

    Each trial draws a fresh multimodality suite.  Subsets are the single
    modalities plus incremental combinations ordered by decreasing
    single-modality solver F1, mirroring a strongest-first fusion study.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    base = base if base is not None else DEFAULT_SUITE_BASE
    profiles = tuple(profiles) if profiles is not None else MULTIMODAL_PROFILES
    count = len(profiles)
    single_scores: dict[int, list[float]] = {k: [] for k in range(count)}
    suites = []
    for t in range(trials):
        suite = multimodal_suite(derive_seed(base_seed, t), base=base, profiles=profiles)
        truth = pairwise_from_assignment(suite[0][1].assignment)
        suites.append((suite[0][0], truth))
        for k in range(count):
            sub = suite[k + 1][0]
            result = solve(sub, SolverConfig(rng_seed=derive_seed(base_seed, t, k)))
            f1 = pair_metrics(pairwise_from_assignment(result.assignment), truth).f1
            single_scores[k].append(f1)
    order = sorted(range(count), key=lambda k: (-float(np.mean(single_scores[k])), k))
    subsets = [(k,) for k in range(count)]
    subsets += [tuple(order[:size]) for size in range(2, count + 1)]
    rows: list[AblationRow] = []
    for subset in subsets:
        solver_f1s, ap_f1s, cs_f1s = [], [], []
        for t, (fused, truth) in enumerate(suites):
            sub = restrict_modalities(fused, subset)
            if len(subset) == 1:
                solver_f1s.append(single_scores[subset[0]][t])
            else:
                result = solve(sub, SolverConfig(rng_seed=derive_seed(base_seed, t, *subset)))
                solver_f1s.append(
                    pair_metrics(pairwise_from_assignment(result.assignment), truth).f1)
            ap_f1s.append(pair_metrics(all_pairs_matches(sub), truth).f1)
            cs_f1s.append(pair_metrics(consecutive_matches(sub), truth).f1)
        rows.append(AblationRow(subset, "solver", float(np.mean(solver_f1s))))
        rows.append(AblationRow(subset, "all_pairs", float(np.mean(ap_f1s))))
        rows.append(AblationRow(subset, "consecutive", float(np.mean(cs_f1s))))
    return rows


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    """A header line and one line per row, parent directories made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_gap_csv(rows: Sequence[TrialRow], path: str | Path) -> None:
    _write_csv(path, GAP_CSV_COLUMNS, map(astuple, rows))   # fields in column order


def format_gap_table(rows: Sequence[TrialRow]) -> str:
    lines = [f"{'n_o':>4}  {'gap %':>14}  {'dP %':>14}  {'dR %':>14}  {'ms':>8}"]
    for row in rows:
        lines.append(
            f"{row.outliers:>4}  "
            f"{row.gap_mean:7.3f}+-{row.gap_std:5.3f}  "
            f"{row.dp_mean:7.3f}+-{row.dp_std:5.3f}  "
            f"{row.dr_mean:7.3f}+-{row.dr_std:5.3f}  "
            f"{row.runtime_ms:8.1f}")
    return "\n".join(lines)


def write_ablation_csv(rows: Sequence[AblationRow], path: str | Path) -> None:
    _write_csv(path, ("modalities", "method", "f1_mean"),
               (("+".join(str(k) for k in row.modalities), row.method, row.f1_mean)
                for row in rows))


def format_ablation_table(rows: Sequence[AblationRow]) -> str:
    lines = [f"{'modalities':<12} {'method':<12} {'mean F1':>8}"]
    for row in rows:
        subset = "+".join(str(k) for k in row.modalities)
        lines.append(f"{subset:<12} {row.method:<12} {row.f1_mean:8.4f}")
    return "\n".join(lines)
