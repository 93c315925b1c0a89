"""The three fusematch benchmark workloads.

Each workload builds chunk ``chunk`` of its cases from the workload seed
(``build``; every chunk holds different instances), runs one closed-loop
operation per case through the public API (``op``,
the only timed code) and checks every output from the outside
(``verify``).  Ops call the package through its module attributes, looked
up at call time, so the tracer's rebinding sees them; verification uses the
names bound below at import, which the tracer leaves alone, so checking an
output never shows up in a layer's numbers.  F1 is recomputed here from
the label arrays, not through ``fusematch.bench``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import fusematch.bench
import fusematch.cli
import fusematch.oracle
import fusematch.relax
import fusematch.solver
import fusematch.synth
from fusematch.bench import optimality_gap
from fusematch.cli import read_result
from fusematch.core import (build_modality_matrices, check_cycle_consistency,
                            check_feasible, clusters_from_assignment,
                            pairwise_from_assignment)
from fusematch.oracle import OracleConfig
from fusematch.relax import frobenius_from_mats
from fusematch.solver import SolverConfig
from fusematch.synth import SynthConfig, derive_seed

# The paper's outlier gap sweep and the size ladder share one corruption
# model: 2 modalities, sigma 0.15, 15% inconclusive, 5% flips.
SWEEP = SynthConfig(universe_size=3, num_sets=3, modality_count=2,
                    noise_sigma=0.15, inconclusive_rate=0.15, flip_rate=0.05)
LADDER = SynthConfig(universe_size=10, num_sets=5, modality_count=2,
                     noise_sigma=0.15, inconclusive_rate=0.15, flip_rate=0.05,
                     outliers_per_run=2)

SWEEP_OUTLIERS = (0, 1, 2, 3)
SWEEP_TRIALS = 12            # per outlier count: 48 instances, m = 9..12
SUITES = 3                   # multimodal suites of 5 instances, m ~ 21..26
ORACLE_MAX = OracleConfig().max_elements
MID_UNIVERSE, MID_CASES = 10, 40   # m = 52; see NOTES.md on m = 102, 202
LARGE_UNIVERSE = 100               # m = 502, 100,801 scored pairs

VALUE_RTOL = 1e-9   # recomputed objective vs reported objective
ORACLE_TOL = 1e-9   # solver value may not beat the exact optimum by more


@dataclass
class Case:
    label: str
    instance: object
    truth: object
    solver_seed: int = 0
    files: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outside check of one op's output."""

    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    digest: str = ""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_RTOL * max(1.0, abs(a), abs(b))


def _pair_f1(labels, truth_labels) -> float:
    """Pairwise F1 of a labelling against the truth, from same-label masks:
    a pair (i < j) is predicted (true) when both share a label."""
    upper = np.triu(np.ones((len(labels), len(labels)), dtype=bool), k=1)
    pred = np.equal.outer(labels, labels) & upper
    true = np.equal.outer(truth_labels, truth_labels) & upper
    tp, n_pred, n_true = int((pred & true).sum()), int(pred.sum()), int(true.sum())
    precision = tp / n_pred if n_pred else 1.0
    recall = tp / n_true if n_true else 1.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _assignment_failures(who: str, assignment, instance, value: float,
                         mats: np.ndarray) -> list[str]:
    """Re-check an assignment and the objective value reported for it."""
    failures = []
    if not check_feasible(assignment.entries, instance).feasible:
        failures.append(f"{who}: infeasible assignment")
    if not check_cycle_consistency(pairwise_from_assignment(assignment)):
        failures.append(f"{who}: assignment is not cycle consistent")
    recomputed = frobenius_from_mats(assignment.entries, mats)
    if not _close(recomputed, value):
        failures.append(f"{who}: objective {value!r} != recomputed {recomputed!r}")
    return failures


def _verify_solve(case: Case, result) -> Verdict:
    """Outside checks and quality of one solver result."""
    mats = build_modality_matrices(case.instance).mats
    v = Verdict(failures=_assignment_failures(
        "solver", result.assignment, case.instance, result.frobenius_value, mats))
    labels = clusters_from_assignment(result.assignment).labels
    truth_value = frobenius_from_mats(case.truth.assignment.entries, mats)
    v.quality["f1"] = _pair_f1(labels, case.truth.labels)
    v.quality["truth_excess_pct"] = 100.0 * (result.frobenius_value - truth_value) / truth_value
    v.quality["repaired"] = float(not result.converged)
    v.counts = {"stages": len(result.trace),
                "inner_iters": sum(s.inner_iterations for s in result.trace),
                "repairs": int(not result.converged),
                "clusters": result.assignment.num_clusters}
    v.digest = repr((labels, result.frobenius_value, result.relaxed_value,
                     result.converged,
                     [(s.d, s.inner_iterations, s.objective) for s in result.trace]))
    return v


class PaperSmall:
    """The paper's two studies: tiny arrays, so per-call overhead sets the
    pace; the only workload where the oracle and the metrics run."""

    name = "paper-small"

    def build(self, seed: int, chunk: int, workdir: Path) -> list[Case]:
        cases = []
        for n_o in SWEEP_OUTLIERS:
            for t in range(SWEEP_TRIALS):
                cfg = replace(SWEEP, outliers_per_run=n_o,
                              rng_seed=derive_seed(seed, 0, chunk, n_o, t))
                instance, truth = fusematch.synth.generate(cfg)
                cases.append(Case(f"chunk {chunk} sweep n_o={n_o} t={t}", instance,
                                  truth, derive_seed(seed, 0, chunk, n_o, t, 1)))
        for s in range(SUITES):
            suite = fusematch.synth.multimodal_suite(derive_seed(seed, 1, chunk, s))
            for k, (instance, truth) in enumerate(suite):
                cases.append(Case(f"chunk {chunk} suite {s} entry {k}", instance, truth,
                                  derive_seed(seed, 1, chunk, s, k)))
        return cases

    def op(self, case: Case):
        result = fusematch.solver.solve(case.instance,
                                        SolverConfig(rng_seed=case.solver_seed))
        exact = None
        if case.instance.num_elements <= ORACLE_MAX:
            exact = fusematch.oracle.solve_exact(case.instance)
        metrics = fusematch.bench.precision_recall(
            clusters_from_assignment(result.assignment), case.truth)
        return result, exact, metrics

    def verify(self, case: Case, out) -> Verdict:
        result, exact, metrics = out
        v = _verify_solve(case, result)
        if not _close(metrics.f1, v.quality["f1"]):
            v.failures.append(f"precision_recall F1 {metrics.f1} != {v.quality['f1']}")
        if exact is not None:
            v.failures += _assignment_failures(
                "oracle", exact.assignment, case.instance, exact.value,
                build_modality_matrices(case.instance).mats)
            if result.frobenius_value < exact.value - ORACLE_TOL:
                v.failures.append(f"solver value {result.frobenius_value!r} beats "
                                  f"the exact optimum {exact.value!r}")
            else:
                v.quality["gap_pct"] = optimality_gap(result.frobenius_value, exact.value)
            v.digest += repr((clusters_from_assignment(exact.assignment).labels,
                              exact.value))
        return v


class SolveMid:
    """In-process solves on the size ladder: continuation, line search and
    projection do the work, with no file I/O."""

    name = "solve-mid"

    def build(self, seed: int, chunk: int, workdir: Path) -> list[Case]:
        cases = []
        for t in range(MID_CASES):
            cfg = replace(LADDER, universe_size=MID_UNIVERSE,
                          rng_seed=derive_seed(seed, 2, MID_UNIVERSE, chunk, t))
            instance, truth = fusematch.synth.generate(cfg)
            cases.append(Case(f"chunk {chunk} m={instance.num_elements} t={t}", instance,
                              truth, derive_seed(seed, 2, MID_UNIVERSE, chunk, t, 1)))
        return cases

    def op(self, case: Case):
        return fusematch.solver.solve(case.instance,
                                      SolverConfig(rng_seed=case.solver_seed))

    def verify(self, case: Case, out) -> Verdict:
        return _verify_solve(case, out)


class IoLarge:
    """The file path at m = 502: the per-pair Python loops of cli and core
    and the dense stacks of core and relax, no solver."""

    name = "io-large"

    def build(self, seed: int, chunk: int, workdir: Path) -> list[Case]:
        cfg = replace(LADDER, universe_size=LARGE_UNIVERSE,
                      rng_seed=derive_seed(seed, 3, chunk))
        instance, truth = fusematch.synth.generate(cfg)
        result_path = workdir / "truth_result.json"
        clusters: dict[int, list[int]] = {}
        for element, label in enumerate(truth.labels):
            clusters.setdefault(label, []).append(element)
        result_path.write_text(json.dumps({"clusters": list(clusters.values())}))
        files = {"instance": workdir / "instance.json", "result": result_path}
        return [Case(f"chunk {chunk} m={instance.num_elements}", instance, truth,
                     files=files)]

    def op(self, case: Case):
        path = str(case.files["instance"])
        fusematch.cli.write_instance(case.instance, path)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = fusematch.cli.main(["check", str(case.files["result"]), path])
        data = fusematch.relax.build_relaxation(case.instance)
        value = fusematch.relax.frobenius_objective(case.truth.assignment.entries,
                                                    case.instance)
        return code, stdout.getvalue(), data, value

    def verify(self, case: Case, out) -> Verdict:
        code, message, data, value = out
        v = Verdict()
        if code != 0:
            v.failures.append(f"fusematch check exited {code}: {message.strip()}")
        truth = case.truth.assignment
        if not check_feasible(truth.entries, case.instance).feasible:
            v.failures.append("truth assignment infeasible")
        if not check_cycle_consistency(pairwise_from_assignment(truth)):
            v.failures.append("truth assignment is not cycle consistent")
        U = truth.entries.astype(float)
        identity = data.frob_const + float(((U @ U.T) * data.abar).sum())
        if not _close(identity, value):
            v.failures.append(f"frobenius_objective {value!r} != "
                              f"frob_const + <UU^T, abar> = {identity!r}")
        checked = read_result(case.files["result"])["clusters"]
        labels = np.empty(case.instance.num_elements, dtype=np.int64)
        for c, members in enumerate(checked):
            labels[members] = c
        v.quality["f1"] = _pair_f1(labels, case.truth.labels)
        v.counts = {"clusters": len(checked)}
        file_digest = hashlib.sha256(case.files["instance"].read_bytes()).hexdigest()
        v.digest = repr((code, message, file_digest, data.frob_const, value))
        return v


WORKLOADS = {w.name: w for w in (PaperSmall(), SolveMid(), IoLarge())}
