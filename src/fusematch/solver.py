"""Projected gradient descent with penalty continuation.

Rows of the iterate live in the capped simplex {x >= 0, sum(x) <= 1}.  Each
continuation stage minimizes the relaxed objective of ``build_relaxation`` at
a fixed penalty weight by projected gradient steps of exact length; the
weight then grows geometrically, warm-starting from the last iterate, until
every entry sits within binary_tol of {0, 1} and the rounded matrix is
feasible.  Snapping is therefore not rounding a fractional solution.  If the
weight cap is reached first, a greedy repair produces a feasible binary
fallback and the result is marked not converged.  The reported
``relaxed_value`` is that same function at the binary output and the last
stage's weight, so on a converged solve it agrees with the last stage's
objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Assignment, Instance, feasibility_report
from .relax import (RelaxationData, build_relaxation, frobenius_objective,
                    relaxed_gradient, relaxed_objective)

ARMIJO_SIGMA = 1e-4  # sufficient-decrease fraction of the model's slope
STAGE_JITTER = 1e-3  # warm-start perturbation between continuation stages


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs.  d_init, d_max and inner_tol default to None, meaning
    0.01 * modality_count, 1e4 * modality_count and 1e-6 * num_elements
    resolved against the instance at solve time."""

    d_init: float | None = None
    d_growth: float = 2.0
    d_max: float | None = None
    inner_tol: float | None = None
    max_inner_iters: int = 1000
    binary_tol: float = 1e-3
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.d_init is not None and self.d_init < 0:
            raise ValueError("d_init must be nonnegative")
        if self.d_growth <= 1:
            raise ValueError("d_growth must exceed 1")
        if self.d_max is not None and self.d_max <= 0:
            raise ValueError("d_max must be positive")
        if self.inner_tol is not None and self.inner_tol <= 0:
            raise ValueError("inner_tol must be positive")
        if self.max_inner_iters < 1:
            raise ValueError("max_inner_iters must be at least 1")
        if not 0 < self.binary_tol < 0.5:
            raise ValueError("binary_tol must lie in (0, 0.5)")
        if int(self.rng_seed) < 0:
            raise ValueError("rng_seed must be nonnegative")

    def resolved_d_init(self, modality_count: int) -> float:
        return 0.01 * modality_count if self.d_init is None else self.d_init

    def resolved_d_max(self, modality_count: int) -> float:
        return 1e4 * modality_count if self.d_max is None else self.d_max

    def resolved_inner_tol(self, num_elements: int) -> float:
        return 1e-6 * num_elements if self.inner_tol is None else self.inner_tol


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage: penalty weight, inner iterations, final value."""

    d: float
    inner_iterations: int
    objective: float


@dataclass(frozen=True)
class SolverResult:
    assignment: Assignment
    relaxed_value: float
    frobenius_value: float
    trace: tuple[StageRecord, ...]
    converged: bool


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    point: np.ndarray
    value: float
    accepted: bool


@dataclass(frozen=True)
class InnerResult:
    point: np.ndarray
    iterations: int
    objective: float


def project(U: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto {x >= 0, sum(x) <= 1}.

    Negative entries are clamped; rows still above the cap get the standard
    descending-sort simplex projection.  Output rows satisfy both
    constraints exactly, so re-projection is an exact no-op.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError("projection input must be finite")
    Y = np.maximum(U, 0.0)
    sums = Y.sum(axis=1)
    bad = np.flatnonzero(sums > 1.0)
    if bad.size:
        rows = Y[bad]
        k = rows.shape[1]
        sorted_desc = -np.sort(-rows, axis=1)
        csum = np.cumsum(sorted_desc, axis=1)
        counts = np.arange(1, k + 1)
        positive = sorted_desc - (csum - 1.0) / counts > 0.0
        rho = k - 1 - np.argmax(positive[:, ::-1], axis=1)
        tau = (csum[np.arange(rows.shape[0]), rho] - 1.0) / (rho + 1.0)
        rows = np.maximum(rows - tau[:, None], 0.0)
        # float guard: shave ulp-level overshoot so the cap holds exactly
        row_sums = rows.sum(axis=1)
        for _ in range(100):
            over = row_sums > 1.0
            if not over.any():
                break
            rows[over] /= row_sums[over, None]
            row_sums = rows.sum(axis=1)
        else:
            raise AssertionError("projection failed to settle under the row cap")
        Y[bad] = rows
    return Y


def project_row(x: np.ndarray) -> np.ndarray:
    """Projection of a single vector onto the capped simplex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    return project(x[None, :])[0]


def armijo_search(U: np.ndarray, direction: np.ndarray, data: RelaxationData,
                  d: float, *, f0: float, grad: np.ndarray) -> LineSearchResult:
    """Exact step along D = direction = project(U - grad) - U, checked by
    the Armijo rule.  U + t D for t in [0, 1] is feasible without projecting.
    f is quadratic, so f(U + t D) = f0 + t g + t^2 q with g = <grad, D> and
    q = f(U + D) - f0 - g; the minimizing t in [0, 1] is 1 when q <= -g / 2,
    else -g / (2 q).  The step is accepted when f <= f0 + ARMIJO_SIGMA t g;
    a D that is no descent direction at float precision is not accepted,
    which callers treat as stationarity.
    """
    slope = float((grad * direction).sum())
    if slope < 0.0:
        point = U + direction
        value = relaxed_objective(point, data, d)
        curvature = value - f0 - slope
        alpha = 1.0
        if curvature > -0.5 * slope:
            alpha = -slope / (2.0 * curvature)
            point = U + alpha * direction
            value = relaxed_objective(point, data, d)
        if value <= f0 + ARMIJO_SIGMA * alpha * slope:
            return LineSearchResult(alpha=alpha, point=point, value=value, accepted=True)
    return LineSearchResult(alpha=0.0, point=U, value=f0, accepted=False)


def pgd_inner(U0: np.ndarray, data: RelaxationData, d: float,
              config: SolverConfig) -> InnerResult:
    """Minimize the relaxed objective at fixed d from a feasible start.

    One projection per iteration gives the search direction D =
    project(U - grad) - U; stops when ||D|| <= inner_tol (default 1e-6 * m),
    after max_inner_iters steps, or when no step decreases the objective.
    """
    U = project(np.asarray(U0, dtype=float))
    m = U.shape[0]
    tol = config.resolved_inner_tol(m)
    value = relaxed_objective(U, data, d)
    iterations = 0
    for _ in range(config.max_inner_iters):
        if not np.isfinite(value):
            raise FloatingPointError("relaxed objective became non-finite")
        grad = relaxed_gradient(U, data, d)
        direction = project(U - grad) - U
        if float(np.linalg.norm(direction)) <= tol:
            break
        step = armijo_search(U, direction, data, d, f0=value, grad=grad)
        if not step.accepted or step.value >= value:
            break  # no strictly decreasing step exists at float precision
        U, value = step.point, step.value
        iterations += 1
    return InnerResult(point=U, iterations=iterations, objective=value)


def initialize(instance: Instance, config: SolverConfig) -> np.ndarray:
    """Deterministic start: scaled identity plus tiny seeded uniform noise.

    The noise breaks the symmetry between the columns a cluster could
    concentrate on; without it early iterations sit on a plateau.
    """
    m = instance.num_elements
    rng = np.random.default_rng(config.rng_seed)
    return project(0.5 * np.eye(m) + 1e-3 * rng.random((m, m)))


def _repair(U: np.ndarray, abar: np.ndarray, set_sizes: tuple[int, ...]) -> np.ndarray:
    """Feasible binary fallback for a fractional iterate.

    Each row takes its largest entry's column; within a set, rows colliding
    on a column are reassigned one by one to the free column with the
    smallest data-term increase.  Ties go to the lowest column index.
    """
    m = U.shape[0]
    cols = np.argmax(U, axis=1)  # argmax takes the lowest index on ties
    members: dict[int, list[int]] = {}
    for row, c in enumerate(cols):
        members.setdefault(int(c), []).append(row)
    offset = 0
    for size in set_sizes:
        block_rows = range(offset, offset + size)
        claimed: dict[int, list[int]] = {}
        for row in block_rows:
            claimed.setdefault(int(cols[row]), []).append(row)
        for col in sorted(c for c, rows in claimed.items() if len(rows) > 1):
            rows = claimed[col]
            keep = max(rows, key=lambda r: (U[r, col], -r))
            for row in rows:
                if row == keep:
                    continue
                members[col].remove(row)
                forbidden = {int(cols[r]) for r in block_rows if r != row}
                best_col, best_delta = -1, np.inf
                for c in range(m):
                    if c in forbidden:
                        continue
                    delta = 2.0 * sum(abar[row, b] for b in members.get(c, ()))
                    if delta < best_delta:
                        best_col, best_delta = c, delta
                cols[row] = best_col
                members.setdefault(best_col, []).append(row)
        offset += size
    repaired = np.zeros((m, m), dtype=np.int64)
    repaired[np.arange(m), cols] = 1
    return repaired


def solve(instance: Instance, config: SolverConfig | None = None) -> SolverResult:
    """Solve an association instance by penalty continuation.

    Returns a feasible binary assignment in all cases; ``converged`` is
    False exactly when the repair fallback had to run.
    """
    cfg = config if config is not None else SolverConfig()
    data = build_relaxation(instance)
    d = cfg.resolved_d_init(instance.modality_count)
    d_max = cfg.resolved_d_max(instance.modality_count)
    U = initialize(instance, cfg)
    jitter_rng = np.random.default_rng((cfg.rng_seed, 1))
    trace: list[StageRecord] = []
    converged = False
    binary: np.ndarray | None = None
    d_final = d
    while True:
        inner = pgd_inner(U, data, d, cfg)
        U = inner.point
        trace.append(StageRecord(d=d, inner_iterations=inner.iterations,
                                 objective=inner.objective))
        d_final = d
        rounded = np.rint(U)
        if (np.abs(U - rounded).max() <= cfg.binary_tol
                and feasibility_report(rounded, instance.set_sizes).feasible):
            converged = True
            binary = rounded.astype(np.int64)
            break
        d *= cfg.d_growth
        if d > d_max:
            binary = _repair(U, data.abar, instance.set_sizes)
            break
        # Rows with no net attraction can settle on an equal-spread
        # stationary ridge of the overlap penalty (row sum c/(2c-1) over c
        # columns) that persists at every d.  A seeded kick at the stage
        # boundary breaks the symmetry; concentration then amplifies it.
        U = project(U + STAGE_JITTER * jitter_rng.random(U.shape))
    if not feasibility_report(binary, instance.set_sizes).feasible:
        raise RuntimeError("internal error: repair produced an infeasible assignment")
    relaxed_value = relaxed_objective(binary.astype(float), data, d_final)
    frob_value = frobenius_objective(binary, instance)
    assignment = Assignment.from_full_matrix(binary, instance.set_sizes)
    return SolverResult(assignment=assignment, relaxed_value=relaxed_value,
                        frobenius_value=frob_value, trace=tuple(trace),
                        converged=converged)
