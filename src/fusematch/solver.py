"""Projected gradient descent with penalty continuation.

Rows of the iterate live in the capped simplex {x >= 0, sum(x) <= 1}.  Each
continuation stage minimizes the relaxed objective of ``build_relaxation`` at
a fixed penalty weight by projected gradient steps of exact length.  The
objective is quadratic, and its quadratic part is one matrix per stage, M_d
of ``stage_matrix``, plus the row sums; so an inner iteration needs one dense
product, M_d D along its direction D: it gives the step's curvature, and
M_d U (hence the gradient) and the objective are kept up to date from it,
with the row sums.  Once the
support of the iterate has settled, the projection takes a spectral step
length instead of 1 (Barzilai & Borwein 1988; Birgin, Martinez & Raydan
2000), so rows whose only curvature is the penalty's reach their vertex in
one step instead of shrinking geometrically.  A row with no net attraction
(an outlier) can spread its mass thinly over many columns no other row
uses, an equal-spread ridge of the overlap penalty that gradient steps
leave only slowly; after each step that changes the support, such a row
moves all that mass into one of those columns, which lowers the objective
in closed form, so the ridge ends inside the stage.  Once the support
stays put, a row left alone in its one private column is raised to 1
there, the minimizer of its part of the objective, instead of closing its
gap 1 - u by a factor 1 - 2d a step until the spectral step.  The weight then grows
geometrically, warm-starting from the last iterate, until every entry sits
within BINARY_TOL of {0, 1} and the rounded matrix is feasible.  Snapping
is therefore not rounding a fractional solution.  ``penalty_weights`` is
the schedule.  Every solve ends in ``_repair``: on a converged iterate that
is the row-wise argmax, and when the last weight's stage has not converged
it is a greedy repair that produces a feasible binary fallback, and the
result is marked not converged.  The reported ``relaxed_value`` is that
same function at the binary output and the last stage's weight, so on a
converged solve it agrees with the last stage's objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import Assignment, Instance, _check_counts, feasibility_report
# relaxed_gradient and frobenius_objective: not called (see pgd_inner and solve), but
# perfbench/tracing.py rebinds them and tests/test_perfbench_contract.py guards them
from .relax import (RelaxationData, _labelling_values, build_relaxation,  # noqa: F401
                    frobenius_objective, relaxed_gradient, relaxed_objective,
                    stage_matrix)

STAGE_JITTER = 1e-3  # warm-start perturbation between continuation stages
D_INIT = 0.01  # first stage's penalty weight, per modality
D_GROWTH = 2.0  # penalty weight factor from one stage to the next
D_MAX = 1e4  # penalty weight cap, per modality; past it the repair runs
INNER_TOL = 1e-6  # a stage stops at ||D|| <= INNER_TOL per element
BINARY_TOL = 1e-3  # converged once every entry is this close to {0, 1}
SETTLE = 10  # unchanged-support iterations before the spectral step length
S_MAX = 1e4  # spectral step length cap; the floor is the unit step
STOP_REASONS = ("tol", "stall", "max_iters")  # why a stage stopped; see StageRecord


@dataclass(frozen=True)
class SolverConfig:
    """Solver settings: the seed of the start and of the stage jitter, and
    the inner iteration cap.  The continuation schedule is the constants
    D_INIT, D_GROWTH, D_MAX (see ``penalty_weights``), INNER_TOL and
    BINARY_TOL."""

    max_inner_iters: int = 1000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(self, max_inner_iters=1, rng_seed=0)


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage: penalty weight, inner iterations, final value,
    why the stage stopped: ``"tol"`` (the step fell under INNER_TOL per
    element), ``"stall"`` (no step decreases the objective at float
    precision) or ``"max_iters"`` (the iteration cap ran out), how many
    rows ``merge_private`` merged over the stage (a row merged after two
    steps counts twice), and how many ``fill_lone_rows`` filled, counted
    the same way."""

    d: float
    inner_iterations: int
    objective: float
    stop: str
    merges: int
    fills: int


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
    stop: str
    merges: int
    fills: int


def penalty_weights(modality_count: int) -> Iterator[float]:
    """The continuation's penalty weights for K modalities: D_INIT K
    D_GROWTH^i for as long as that is at most D_MAX K, which at the
    defaults is 20 weights for any K.  ``solve`` runs one stage per weight
    until it converges, and ``fusematch check`` holds a trace to them."""
    d, d_max = D_INIT * modality_count, D_MAX * modality_count
    while d <= d_max:
        yield d
        d *= D_GROWTH


def project(U: np.ndarray) -> np.ndarray:
    """Row-wise Euclidean projection onto {x >= 0, sum(x) <= 1}.

    Negative entries are clamped; a row whose sum is still above 1 is
    lowered by the threshold tau = max_j (c_j - 1) / j over the prefix sums
    c_j of its descending sort (Condat 2016) and clamped again.  tau is
    clamped at 0, so a row above the cap only by rounding keeps its zeros.
    The sort and tau run only when some row is over the cap; a matrix whose
    clamped rows all fit is returned after the clamp.  Output rows satisfy
    both constraints exactly, so re-projection is an exact no-op.
    """
    U = np.asarray(U, dtype=float)
    if U.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {U.shape}")
    if not np.isfinite(U).all():
        raise ValueError("projection input must be finite")
    Y = np.maximum(U, 0.0)
    row_sums = Y.sum(axis=1)
    over = row_sums > 1.0
    if over.any():
        ascending = np.sort(Y, axis=1)
        # past a row's last positive entry c_j stays put and (c_j - 1) / j
        # falls or stays <= 0, so the prefixes up to the widest support give tau
        width = np.count_nonzero(ascending.any(axis=0))
        csum = np.cumsum(ascending[:, ::-1][:, :width], axis=1)
        tau = ((csum - 1.0) / np.arange(1, width + 1)).max(axis=1, initial=0.0)
        Y -= np.where(over, tau, 0.0)[:, None]
        np.maximum(Y, 0.0, out=Y)
        row_sums = Y.sum(axis=1)
    # float guard: shave ulp-level overshoot so the cap holds exactly
    for _ in range(100):
        over = row_sums > 1.0
        if not over.any():
            break
        Y[over] /= row_sums[over, None]
        row_sums = Y.sum(axis=1)
    else:
        raise AssertionError("projection failed to settle under the row cap")
    return Y


def project_row(x: np.ndarray) -> np.ndarray:
    """Projection of a single vector onto the capped simplex."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a vector, got shape {x.shape}")
    return project(x[None, :])[0]


def armijo_search(U: np.ndarray, direction: np.ndarray, *, f0: float,
                  grad: np.ndarray, curvature: float) -> LineSearchResult:
    """Exact step along a direction D from U.

    D = project(U - s grad) - U for a step length s >= 1, so U + t D for t in
    [0, 1] is feasible without projecting.  f is quadratic, so f(U + t D) =
    f0 + t g + t^2 q with g = <grad, D> and the given curvature q; the
    minimizing t in [0, 1] is 1 when q <= -g / 2, else -g / (2 q).  The step
    is accepted when g < 0 and the value there, f0 + t g + t^2 q, is below
    f0.  It needs no Armijo constant: t = -g / (2 q) gives f = f0 + t g / 2,
    and t = 1 needs q <= -g / 2, so f <= f0 + t g / 2 always holds.  A D
    that is no descent direction, or whose step does not lower f at float
    precision, is not accepted, which callers treat as stationarity.
    """
    slope = float(np.vdot(grad, direction))
    if slope < 0.0:
        alpha = 1.0
        if curvature > -0.5 * slope:
            alpha = -slope / (2.0 * curvature)
        value = f0 + alpha * slope + alpha * alpha * curvature
        if value < f0:
            return LineSearchResult(alpha=alpha, point=U + alpha * direction,
                                    value=value, accepted=True)
    return LineSearchResult(alpha=0.0, point=U, value=f0, accepted=False)


def merge_private(U: np.ndarray, support: np.ndarray, stage: np.ndarray,
                  stage_u: np.ndarray) -> tuple[int, float]:
    """Merge each row's mass in its private columns into the first of them.

    Column j is private to row i when i is the only row with mass in it
    (``support`` is U > 0).  Every row with mass in two or more private
    columns moves all of it into the lowest-indexed one.  Row sums and the
    data term do not change (no other row meets those columns, and abar's
    diagonal is 0), so the objective changes by -d (S^2 - sum u^2) <= 0 for
    each merged row's private entries u summing to S.  U, ``support`` and
    ``stage_u`` = M_d U are updated in place, the last by M_d[:, R] dU_R over
    the merged rows R.  Returns |R| and the sum over R of S^2 - sum u^2.
    """
    private = support & (support.sum(axis=0) == 1)
    rows = np.flatnonzero(private.sum(axis=1) >= 2)
    if rows.size == 0:
        return 0, 0.0
    mask, old = private[rows], U[rows]
    moved = np.where(mask, old, 0.0)
    total = moved.sum(axis=1)
    new = old - moved
    new[np.arange(rows.size), mask.argmax(axis=1)] = total
    stage_u += stage[:, rows] @ (new - old)
    U[rows] = new
    support[rows] = new > 0.0
    return rows.size, float(total @ total - (moved * moved).sum())


def fill_lone_rows(U: np.ndarray, support: np.ndarray, stage: np.ndarray,
                   stage_u: np.ndarray, row_sums: np.ndarray) -> tuple[int, float]:
    """Raise to 1 each row whose whole support is one private column.

    Such a row's part of the objective is d (u^2 - 2 u) for its one entry
    u: the data term is 0 (no other row meets the column, and abar's
    diagonal is 0), and its row sum, its set's column sum and its norm are
    all u.  On [0, 1] that is least at u = 1, so filling lowers the
    objective by d (1 - u)^2 and keeps the support.  U, ``row_sums`` and
    ``stage_u`` = M_d U are updated in place, the last by M_d[:, R] (1 - u)
    over the filled rows R, whose columns are distinct since each is
    private.  Returns |R| and the sum over R of (1 - u)^2.
    """
    rows = np.flatnonzero(support.sum(axis=1) == 1)
    cols = support[rows].argmax(axis=1)
    keep = ((support.sum(axis=0)[cols] == 1)
            & (U[rows, cols] < 1.0))
    if not keep.any():
        return 0, 0.0
    rows, cols = rows[keep], cols[keep]
    gap = 1.0 - U[rows, cols]
    U[rows, cols] = 1.0
    row_sums[rows] = 1.0
    stage_u[:, cols] += stage[:, rows] * gap
    return rows.size, float(gap @ gap)


def pgd_inner(U0: np.ndarray, data: RelaxationData, d: float,
              config: SolverConfig) -> InnerResult:
    """Minimize the relaxed objective at fixed d from a feasible start.

    Each iteration makes one dense product, M_d D with M_d the stage's
    ``stage_matrix``: M_d U and the row sums r are updated by t M_d D and
    t D 1, the gradient is 2 M_d U + 2 d (2 r - 1) 1^T, the step's curvature
    is q = <D, M_d D> + 2 d ||D 1||^2, and the objective is tracked as
    f + t g + t^2 q, then recomputed with ``relaxed_objective`` where the
    stage returns.  The gradient, U - s grad and M_d D are written into one
    buffer each for the stage.  The direction is D = project(U - s grad) - U,
    and ``project`` takes tau only for rows over the cap.  The step
    length s is 1 until the support (U > 0) has not changed for SETTLE
    accepted iterations; from then on it is the Barzilai-Borwein length
    <dU, dU> / <dU, d grad> of the last step, which for the quadratic f is
    ||D||^2 / (2 q), clipped to [1, S_MAX] (S_MAX when q <= 0).  A support
    change sets s back to 1.  After the first step and after every step
    that changes the support, ``merge_private`` runs and updates M_d U, and
    the objective falls by its closed-form gain.  Which columns are private
    depends on the support alone, and a merge leaves every row at most one,
    so a step that keeps the support has nothing to merge.  Each step
    compares the support with the last one once, and again only after a
    merge, which may change it.  On the first step that keeps the support
    (the first step of the stage included), ``fill_lone_rows`` raises every
    row whose whole support is one private column to 1 there, updates M_d U
    and r, and the objective falls by d times its gain; the fill keeps the
    support, so it runs once per support.  The stage stops when ||D|| <=
    INNER_TOL * m (``"tol"``; with s >= 1 no looser than the unit-step
    test), when ``armijo_search`` accepts no step (``"stall"``), or after
    config.max_inner_iters steps (``"max_iters"``).
    """
    U = project(np.asarray(U0, dtype=float))
    m = U.shape[0]
    tol = INNER_TOL * m
    value = relaxed_objective(U, data, d)
    stage = stage_matrix(data, d)
    stage_u, row_sums = stage @ U, U.sum(axis=1)
    grad, trial, stage_d = np.empty_like(U), np.empty_like(U), np.empty_like(U)
    support, settled, step_length = U > 0.0, 0, 1.0
    iterations, merges, fills, stop = 0, 0, 0, "max_iters"
    for _ in range(config.max_inner_iters):
        if not math.isfinite(value):
            raise FloatingPointError("relaxed objective became non-finite")
        np.multiply(stage_u, 2.0, out=grad)
        grad += (2.0 * d * (2.0 * row_sums - 1.0))[:, None]
        if step_length == 1.0:
            np.subtract(U, grad, out=trial)
        else:
            np.multiply(grad, step_length, out=trial)
            np.subtract(U, trial, out=trial)
        direction = project(trial)
        direction -= U
        norm = math.sqrt(np.vdot(direction, direction))
        if norm <= tol:
            stop = "tol"
            break
        np.matmul(stage, direction, out=stage_d)
        direction_sums = direction.sum(axis=1)
        curvature = (float(np.vdot(direction, stage_d))
                     + 2.0 * d * float(direction_sums @ direction_sums))
        step = armijo_search(U, direction, f0=value, grad=grad, curvature=curvature)
        if not step.accepted:
            stop = "stall"
            break
        U, value = step.point, step.value
        stage_u += step.alpha * stage_d
        row_sums += step.alpha * direction_sums
        iterations += 1
        new_support = U > 0.0
        same = (new_support == support).all()
        if iterations == 1 or not same:
            merged, gain = merge_private(U, new_support, stage, stage_u)
            value -= d * gain
            merges += merged
            if merged:
                same = (new_support == support).all()
        if same:
            settled += 1
            if settled == 1:
                filled, gain = fill_lone_rows(U, support, stage, stage_u, row_sums)
                value -= d * gain
                fills += filled
        else:
            support, settled = new_support, 0
        step_length = 1.0
        if settled >= SETTLE:
            step_length = S_MAX
            if curvature > 0.0:
                step_length = min(max(norm * norm / (2.0 * curvature), 1.0), S_MAX)
    return InnerResult(point=U, iterations=iterations,
                       objective=relaxed_objective(U, data, d), stop=stop, merges=merges,
                       fills=fills)


def initialize(instance: Instance, config: SolverConfig) -> np.ndarray:
    """Deterministic start: scaled identity plus tiny seeded uniform noise.

    The noise breaks the symmetry between the columns a cluster could
    concentrate on; without it early iterations sit on a plateau.
    """
    m = instance.num_elements
    rng = np.random.default_rng(config.rng_seed)
    return project(0.5 * np.eye(m) + 1e-3 * rng.random((m, m)))


def _repair(U: np.ndarray, abar: np.ndarray, set_index: np.ndarray) -> np.ndarray:
    """Feasible column per row: how every solve ends.

    Each row takes its largest entry's column.  Within a set, of the rows
    claiming one column the one with the largest entry there keeps it
    (lowest row on ties); the others, taken by set, then claimed column,
    then row, each move to the column with the smallest data-term increase
    2 sum_b abar[row, b] over the rows b it holds, among the columns no
    other row of their set holds.  Ties go to the lowest column index.  On
    a converged iterate every entry is within BINARY_TOL of a feasible
    binary matrix, so no two rows of a set claim one column and the result
    is the row-wise argmax, that matrix's columns.
    """
    m = U.shape[0]
    rows = np.arange(m)
    cols = np.argmax(U, axis=1)  # argmax takes the lowest index on ties
    claim = set_index * m + cols
    # each claim's rows, largest entry first and lowest row on ties; all but
    # the first are displaced
    order = np.lexsort((rows, -U[rows, cols], claim))
    displaced = order[1:][claim[order[1:]] == claim[order[:-1]]]
    for row in displaced[np.lexsort((displaced, claim[displaced]))]:
        held = np.zeros(m, dtype=bool)
        held[cols[set_index == set_index[row]]] = True
        increase = 2.0 * np.bincount(cols, weights=abar[row], minlength=m)
        cols[row] = np.argmin(np.where(held, np.inf, increase))
    return cols


def solve(instance: Instance, config: SolverConfig | None = None) -> SolverResult:
    """Solve an association instance by penalty continuation.

    One stage runs per weight of ``penalty_weights`` until the iterate
    converges, and every solve ends in ``_repair``: on a converged iterate
    that is the argmax of each row, and after the last weight a greedy
    repair.  Returns a feasible binary assignment in all cases;
    ``converged`` is False exactly when the last weight ran without
    converging.  The stage jitter's generator is built only when a second
    stage runs.  ``frobenius_value`` and ``relaxed_value`` come from the
    output labels and the instance's stored pairs through
    ``_labelling_values``, with no m x m array.
    """
    cfg = config if config is not None else SolverConfig()
    data = build_relaxation(instance)
    U = initialize(instance, cfg)
    jitter_rng = None
    trace: list[StageRecord] = []
    converged = False
    for d in penalty_weights(instance.modality_count):
        if trace:
            # pgd_inner's merge ends the equal-spread ridge of rows with no
            # net attraction inside a stage, but not a saddle on shared
            # columns: two rows that mirror each other under swapping them
            # and their two columns stay put, since the unstable direction
            # has a zero component.  A seeded kick at the stage boundary
            # breaks the symmetry; concentration then amplifies it.  Without
            # the kick, 3 of the 618 paper-small and solve-mid benchmark
            # solves (chunks 0-2, seeds 1 and 14990) end in the repair.
            if jitter_rng is None:
                jitter_rng = np.random.default_rng((cfg.rng_seed, 1))
            U = project(U + STAGE_JITTER * jitter_rng.random(U.shape))
        inner = pgd_inner(U, data, d, cfg)
        U = inner.point
        trace.append(StageRecord(d=d, inner_iterations=inner.iterations,
                                 objective=inner.objective, stop=inner.stop,
                                 merges=inner.merges, fills=inner.fills))
        rounded = np.rint(U)
        if (np.abs(U - rounded).max() <= BINARY_TOL
                and feasibility_report(rounded, instance.set_sizes).feasible):
            converged = True
            break
    cols = _repair(U, data.abar, data.set_index)
    frob_value, relaxed_value = _labelling_values(cols, instance, trace[-1].d)
    return SolverResult(assignment=Assignment(cols.tolist(), instance.set_sizes),
                        relaxed_value=relaxed_value,
                        frobenius_value=frob_value, trace=tuple(trace),
                        converged=converged)
