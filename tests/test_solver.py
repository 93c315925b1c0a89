"""Projection, exact step, inner descent loop, private-column merge, lone-row
fill, repair and the continuation driver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fusematch import (
    Instance,
    SolverConfig,
    SynthConfig,
    build_relaxation,
    check_cycle_consistency,
    check_feasible,
    generate,
    pairwise_from_assignment,
    project,
    project_row,
    relaxed_objective,
    solve,
    solve_exact,
)
from fusematch import solver as solver_module
from fusematch.bench import SWEEP_BASE
from fusematch.relax import (RelaxationData, relaxed_gradient, relaxed_objective,
                            stage_matrix)
from fusematch.solver import (INNER_TOL, SETTLE, STOP_REASONS, armijo_search,
                              fill_lone_rows, initialize, merge_private, penalty_weights,
                              pgd_inner)
from fusematch.synth import derive_seed

from conftest import polarized_curvature, qp_projection_oracle, random_instance


def scalar_relaxation(abar: float = 0.0) -> RelaxationData:
    # one element in one set: f(u) = abar u^2 + d (u^2 - 2u), i.e. the
    # row-sum penalty (u - 1)^2 - 1 alone at d = 1 when abar is 0
    return RelaxationData(abar=np.array([[abar]]), frob_const=0.0,
                          set_offsets=(0,), set_index=np.zeros(1, dtype=np.int64))


class TestProjection:
    def test_clamp_only(self):
        np.testing.assert_allclose(project_row(np.array([-0.5, 0.3])), [0.0, 0.3])

    def test_threshold_case(self):
        # tie above the cap splits the excess evenly
        np.testing.assert_allclose(project_row(np.array([0.8, 0.8])), [0.5, 0.5])

    def test_single_large_entry(self):
        np.testing.assert_allclose(project_row(np.array([2.0, 0.0])), [1.0, 0.0])

    def test_all_ones(self):
        np.testing.assert_allclose(
            project_row(np.array([1.0, 1.0, 1.0])), [1 / 3, 1 / 3, 1 / 3]
        )

    def test_idempotent_exactly(self, rng):
        Y = rng.normal(0.0, 2.0, size=(40, 7))
        once = project(Y)
        twice = project(once)
        np.testing.assert_array_equal(once, twice)

    def test_row_cap_holds_exactly(self, rng):
        Y = rng.normal(0.0, 5.0, size=(200, 9))
        P = project(Y)
        assert P.min() >= 0.0
        assert P.sum(axis=1).max() <= 1.0

    @pytest.mark.parametrize("low, high, positives", [(1, 7, None), (20, 60, 6)],
                             ids=["narrow", "wide-sparse"])
    def test_matches_qp_oracle(self, rng, low, high, positives):
        # wide rows are mostly zero with a few positives, as the solver's are
        # (a median of 2 positives per over-cap row at m = 52).  An entry
        # y_i <= 0 is 0 at the optimum, since zeroing it keeps x feasible and
        # brings it closer to y, so there the oracle runs on the positives
        for _ in range(300):
            n = int(rng.integers(low, high + 1))
            y = rng.normal(0.0, 3.0, size=n)
            if positives is None:
                want = qp_projection_oracle(y)
            else:
                y = np.where(rng.random(n) < 0.5, 0.0, -np.abs(y))
                hot = rng.choice(n, size=int(rng.integers(1, positives + 1)),
                                 replace=False)
                y[hot] = rng.uniform(0.1, 1.2, size=hot.size)
                want = np.zeros(n)
                want[hot] = qp_projection_oracle(y[hot])
            np.testing.assert_allclose(project_row(y), want, atol=1e-8)

    def test_nonpositive_entries_stay_zero(self, rng):
        # this row sums to 1.0000000000000002 pairwise, but its descending
        # prefix sums never pass 1: the threshold must not go negative and
        # lift the zero
        row = np.array([[0.2, 0.4, 0.3, 0.1, 0.0]])
        assert project(row)[0, 4] == 0.0
        for _ in range(200):
            n = int(rng.integers(2, 12))
            Y = rng.choice([-0.3, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4], size=(50, n))
            P = project(Y)
            assert not (P[Y <= 0.0] > 0.0).any()
            assert P.sum(axis=1).max() <= 1.0

    def test_oracle_extremes(self):
        np.testing.assert_allclose(
            project_row(np.array([-4.0, -1.0, -9.0])),
            qp_projection_oracle(np.array([-4.0, -1.0, -9.0])),
            atol=1e-8,
        )
        big = np.array([50.0, 49.0, 48.0])
        np.testing.assert_allclose(
            project_row(big), qp_projection_oracle(big), atol=1e-8
        )


def project_reference(U):
    """``project`` the plain way: every row sorted and tau taken for every
    row, then applied where the row sum is over 1.  ``project`` skips the
    sort when no clamped row is over the cap, and must match this bit for
    bit."""
    Y = np.maximum(np.asarray(U, dtype=float), 0.0)
    ascending = np.sort(Y, axis=1)
    width = np.count_nonzero(ascending.any(axis=0))
    csum = np.cumsum(ascending[:, ::-1][:, :width], axis=1)
    tau = ((csum - 1.0) / np.arange(1, width + 1)).max(axis=1, initial=0.0)
    Y = np.maximum(Y - np.where(Y.sum(axis=1) > 1.0, tau, 0.0)[:, None], 0.0)
    row_sums = Y.sum(axis=1)
    for _ in range(100):
        over = row_sums > 1.0
        if not over.any():
            break
        Y[over] /= row_sums[over, None]
        row_sums = Y.sum(axis=1)
    return Y


ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, -0.5, 1 / 3]),
                    st.floats(-3.0, 3.0, allow_nan=False))


@st.composite
def capped_matrices(draw):
    """1 to 8 rows of width 0 to 8, each drawn free, under the row cap, at
    it (k equal entries 1/k) or over it, with negative entries and ties."""
    rows, width = draw(st.integers(1, 8)), draw(st.integers(0, 8))
    X = np.array(draw(st.lists(ENTRIES, min_size=rows * width, max_size=rows * width)),
                 dtype=float).reshape(rows, width)
    for row in X if width else ():
        kind = draw(st.sampled_from(["free", "under", "at", "over"]))
        if kind == "under":
            row /= 2.0 * max(np.maximum(row, 0.0).sum(), 1.0)
        elif kind == "at":
            k = draw(st.sampled_from([k for k in (1, 2, 4) if k <= width]))
            np.minimum(row, 0.0, out=row)
            row[:k] = 1.0 / k
        elif kind == "over":
            row[0] = 1.5 + abs(row[0])
    return X


class TestProjectionReference:
    @settings(max_examples=300, deadline=None)
    @given(X=capped_matrices())
    @example(X=np.zeros((3, 0)))
    @example(X=np.array([[0.5, 0.5], [2.0, -1.0], [0.25, 0.25], [0.3, 0.3]]))
    # under the cap in stored order, yet its descending prefix sums pass 1
    # by rounding: tau is positive but the row must stay as it is
    @example(X=np.array([[0.1, 0.2, 0.4, 0.15, 0.15], [0.7, 0.6, 0.0, 0.0, -1.0]]))
    def test_matches_sort_every_row(self, X):
        np.testing.assert_array_equal(project(X), project_reference(X))

    def test_solver_iterates_match_sort_every_row(self, rng, monkeypatch):
        # every matrix the solver projects on a ladder rung and on random
        # instances, whose rows are mostly wide and sparse
        calls = []

        def checking(U):
            calls.append(np.array_equal(project(U), project_reference(U)))
            return project(U)

        monkeypatch.setattr(solver_module, "project", checking)
        ladder, _ = generate(replace(SWEEP_BASE, universe_size=10, num_sets=5,
                                     outliers_per_run=2, rng_seed=1))
        for inst in [ladder] + [random_instance(rng) for _ in range(6)]:
            solve(inst, SolverConfig(rng_seed=int(rng.integers(2**31))))
        assert len(calls) > 50 and all(calls)


def search_at_d1(U, direction, data):
    return armijo_search(U, direction, f0=relaxed_objective(U, data, 1.0),
                         grad=relaxed_gradient(U, data, 1.0),
                         curvature=polarized_curvature(direction, data, 1.0))


class TestArmijo:
    def test_quadratic_accepts_full_step(self):
        # f(u) = (u - 1)^2 - 1 from u = 0: the gradient is -2, so the
        # direction project(0 + 2) - 0 is +1 and the full step lands at the
        # minimum u = 1
        data = scalar_relaxation()
        U = np.zeros((1, 1))
        res = search_at_d1(U, np.array([[1.0]]), data)
        assert res.accepted
        assert res.alpha == 1.0
        assert res.point[0, 0] == pytest.approx(1.0)
        assert res.value == pytest.approx(-1.0)

    def test_step_shrinks_on_overshoot(self):
        # repulsive data term: f(u) = 3u^2 + (u - 1)^2 - 1 has its minimum
        # at u = 0.25, inside the box, so the full step from 0 overshoots
        # and the exact step along the quadratic stops at the minimum
        data = scalar_relaxation(abar=3.0)
        U = np.zeros((1, 1))
        res = search_at_d1(U, np.array([[1.0]]), data)
        assert res.accepted
        assert res.alpha == pytest.approx(0.25)
        assert res.point[0, 0] == pytest.approx(0.25)
        assert res.value == pytest.approx(-0.25)
        assert relaxed_objective(res.point, data, 1.0) == pytest.approx(-0.25)

    def test_zero_direction_is_fixed_point(self):
        data = scalar_relaxation()
        U = np.array([[0.4]])
        res = search_at_d1(U, np.zeros((1, 1)), data)
        assert not res.accepted
        assert res.point is U

    def test_exact_step_decreases_by_half_the_slope(self, rng):
        # the exact step along f0 + t g + t^2 q needs no Armijo constant:
        # t = -g / (2 q) gives f0 + t g / 2, and t = 1 needs q <= -g / 2, so
        # every accepted step meets f <= f0 + t g / 2 (up to the rounding of f)
        U = np.zeros((1, 1))
        for _ in range(2000):
            f0 = float(rng.normal(0.0, 10.0))
            slope = -10.0 ** rng.uniform(-3.0, 2.0)
            curvature = float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-3.0, 3.0)
            res = armijo_search(U, np.ones((1, 1)), f0=f0, grad=np.array([[slope]]),
                                curvature=curvature)
            assert res.accepted
            assert 0.0 < res.alpha <= 1.0
            step = res.alpha * slope
            assert res.value <= f0 + 0.5 * step + 1e-12 * (abs(f0) + abs(step))
            assert res.point[0, 0] == res.alpha

    def test_zero_or_ascent_direction_is_not_accepted(self, rng):
        U = rng.random((3, 4))
        grad = rng.normal(size=(3, 4))
        for direction in (np.zeros((3, 4)), grad, np.where(grad > 0.0, 1.0, 0.0)):
            for curvature in (-1.0, 0.0, 1.0):
                res = armijo_search(U, direction, f0=2.0, grad=grad, curvature=curvature)
                assert not res.accepted
                assert (res.alpha, res.value) == (0.0, 2.0)
                assert res.point is U


class TestInnerLoop:
    def test_objective_trace_non_increasing(self, rng):
        for _ in range(5):
            inst = random_instance(rng)
            data = build_relaxation(inst)
            cfg = SolverConfig(rng_seed=int(rng.integers(2**31)))
            U0 = initialize(inst, cfg)
            values = [pgd_inner(U0, data, 0.5, replace(cfg, max_inner_iters=k)).objective
                      for k in (1, 2, 3, 5, 8, 13, 50)]
            assert np.all(np.diff(values) <= 1e-9)

    def test_reaches_stationarity_on_scalar_problem(self):
        data = scalar_relaxation()
        res = pgd_inner(np.zeros((1, 1)), data, 1.0, SolverConfig())
        assert res.point[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_final_point_stays_in_feasible_box(self, rng):
        inst = random_instance(rng)
        data = build_relaxation(inst)
        cfg = SolverConfig(rng_seed=3)
        res = pgd_inner(initialize(inst, cfg), data, 1.0, cfg)
        assert res.point.min() >= 0.0
        assert res.point.sum(axis=1).max() <= 1.0 + 1e-12


def merge_reference(U):
    """The private-column merge, row by row: column j is private to row i
    when row i is the only row with mass in it, and a row with mass in two
    or more private columns moves it all into the first of them."""
    U = U.copy()
    owners = [np.flatnonzero(U[:, j] > 0.0) for j in range(U.shape[1])]
    for i in range(U.shape[0]):
        private = [j for j, rows in enumerate(owners) if list(rows) == [i]]
        if len(private) >= 2:
            U[i, private[0]] = sum(U[i, j] for j in private)
            U[i, private[1:]] = 0.0
    return U


def fill_reference(U):
    """The lone-row fill, row by row: a row whose only positive entry lies
    in a column where no other row has mass is set to 1 there."""
    U = U.copy()
    for i in range(U.shape[0]):
        (cols,) = np.nonzero(U[i] > 0.0)
        if cols.size == 1 and np.count_nonzero(U[:, cols[0]] > 0.0) == 1:
            U[i, cols[0]] = 1.0
    return U


def unit_step_reference(U, previous, data, d):
    """One iteration of pgd_inner before the spectral step, from U, whose
    predecessor had the support ``previous`` (None on a stage's first
    step): the unit-step direction from relaxed_gradient, the exact step
    along it with the curvature polarized from relaxed_objective, the
    private-column merge, and then the lone-row fill when the step keeps
    U's support and the step before it did not (or there was none)."""
    grad = relaxed_gradient(U, data, d)
    direction = project(U - grad) - U
    slope = float((grad * direction).sum())
    if np.linalg.norm(direction) <= INNER_TOL * U.shape[0] or slope >= 0.0:
        return U
    curvature = polarized_curvature(direction, data, d)
    alpha = 1.0 if curvature <= -0.5 * slope else -slope / (2.0 * curvature)
    after = merge_reference(U + alpha * direction)
    support = U > 0.0
    if np.array_equal(after > 0.0, support) and (
            previous is None or not np.array_equal(previous, support)):
        after = fill_reference(after)
    return after


class TestOneMatmulIteration:
    def test_unit_steps_match_reference_step(self, rng):
        # up to SETTLE iterations pgd_inner takes unit steps; each one, made
        # from M_d U kept up to date by M_d D and the curvature algebra,
        # must be the reference step from the same point, which fills lone
        # rows when the support first stays put.  Near stationarity
        # the slope <grad, D> cancels, so gradients equal to rounding give
        # steps equal to about 1e-6 of their length: hence the relative term
        for _ in range(8):
            inst = random_instance(rng)
            data = build_relaxation(inst)
            seed = int(rng.integers(2**31))
            U0 = initialize(inst, SolverConfig(rng_seed=seed))
            for d in (0.02, 0.5, 4.0):
                points = [project(U0)] + [
                    pgd_inner(U0, data, d, SolverConfig(max_inner_iters=k)).point
                    for k in range(1, SETTLE + 1)]
                supports = [None] + [point > 0.0 for point in points]
                for before, after, previous in zip(points, points[1:], supports):
                    expected = unit_step_reference(before, previous, data, d)
                    step = np.abs(expected - before).max()
                    assert np.abs(after - expected).max() <= 1e-12 + 1e-6 * step

    def test_lone_row_tail_takes_a_spectral_step(self):
        # f(u) = d (u^2 - 2u): unit steps shrink 1 - u by 1 - 2d = 0.96 per
        # iteration.  The row is alone in its column, so the lone-row fill
        # lands it on u = 1 after the first step, which keeps the support;
        # the spectral step is left to the shared-column case below
        res = pgd_inner(np.array([[0.5]]), scalar_relaxation(), 0.02, SolverConfig())
        assert abs(res.point[0, 0] - 1.0) <= 1e-12
        assert res.iterations <= SETTLE + 2
        assert res.stop == "tol"

    def test_shared_column_tail_takes_a_spectral_step(self):
        # two rows of two sets share column 0 under a weak pull a, so no
        # fill applies: f = 2 a u v + d (u^2 - 2u + v^2 - 2v), and from
        # u = v = 0.5 unit steps shrink the distance to the optimum
        # d / (d + a) > 1 by 1 - 2 (d + a) = 0.962 per iteration, reaching
        # the row cap after about 60; once the support has settled, the
        # spectral step length 1 / (2 (d + a)) lands on u = v = 1
        pull = -0.001
        data = RelaxationData(abar=np.array([[0.0, pull], [pull, 0.0]]), frob_const=0.0,
                              set_offsets=(0, 1), set_index=np.arange(2))
        res = pgd_inner(np.array([[0.5, 0.0], [0.5, 0.0]]), data, 0.02, SolverConfig())
        assert np.abs(res.point - [[1.0, 0.0], [1.0, 0.0]]).max() <= 1e-12
        assert res.iterations <= SETTLE + 2
        assert res.stop == "tol"
        assert res.fills == 0

    def test_stage_objective_is_resynced(self, rng, monkeypatch):
        # the tracked objective drifts by rounding; each StageRecord holds
        # relaxed_objective at the point its stage returned
        points = []

        def recording(*args):
            result = pgd_inner(*args)
            points.append(result.point)
            return result

        monkeypatch.setattr(solver_module, "pgd_inner", recording)
        for seed in range(4):
            inst = random_instance(rng)
            points.clear()
            res = solve(inst, SolverConfig(rng_seed=seed))
            assert len(points) == len(res.trace)
            data = build_relaxation(inst)
            for stage, point in zip(res.trace, points):
                assert stage.objective == relaxed_objective(point, data, stage.d)

    def test_stop_reasons(self, rng):
        inst = random_instance(rng)
        data = build_relaxation(inst)
        cfg = SolverConfig(max_inner_iters=1)
        capped = pgd_inner(initialize(inst, cfg), data, 0.5, cfg)
        assert (capped.iterations, capped.stop) == (1, "max_iters")
        done = pgd_inner(np.ones((1, 1)), scalar_relaxation(), 1.0, SolverConfig())
        assert (done.iterations, done.stop) == (0, "tol")
        res = solve(inst, SolverConfig(rng_seed=5))
        assert {stage.stop for stage in res.trace} <= set(STOP_REASONS)


def data_term(U, data):
    return float(((U @ U.T) * data.abar).sum())


class TestPrivateColumnMerge:
    def test_outlier_ridge_ends_inside_one_stage(self):
        # a size-ladder instance at m = 202 whose two outlier rows used to
        # ride the equal-spread ridge through 8 stages and 825 iterations
        inst, _ = generate(SynthConfig(universe_size=40, num_sets=5, modality_count=2,
                                       noise_sigma=0.15, inconclusive_rate=0.15,
                                       flip_rate=0.05, outliers_per_run=2, rng_seed=3))
        res = solve(inst, SolverConfig(rng_seed=0))
        assert res.converged
        assert len(res.trace) == 1
        assert res.trace[0].inner_iterations <= 50
        assert res.trace[0].merges > 0

    def test_merge_keeps_row_sums_and_data_term_property(self, rng):
        # random sparse iterates: each merge keeps the row sums and the data
        # term, lowers the objective by exactly d times the reported gain,
        # keeps M_d U current and leaves every row at most one private column
        merged_total = 0
        for _ in range(200):
            inst = random_instance(rng, max_universe=5, max_sets=5)
            data = build_relaxation(inst)
            m = inst.num_elements
            d = float(rng.choice([0.02, 0.5, 4.0]))
            U = project(rng.random((m, m)) * (rng.random((m, m)) < rng.uniform(0.1, 0.5)))
            stage = stage_matrix(data, d)
            after, support, stage_u = U.copy(), U > 0.0, stage @ U
            merged, gain = merge_private(after, support, stage, stage_u)
            merged_total += merged
            np.testing.assert_array_equal(support, after > 0.0)
            np.testing.assert_allclose(after.sum(axis=1), U.sum(axis=1), rtol=0, atol=1e-12)
            assert data_term(after, data) == pytest.approx(data_term(U, data), abs=1e-12)
            before_value = relaxed_objective(U, data, d)
            after_value = relaxed_objective(after, data, d)
            assert gain >= 0.0
            assert after_value <= before_value + 1e-12
            assert after_value == pytest.approx(before_value - d * gain, abs=1e-12)
            assert np.abs(stage_u - stage @ after).max() <= 1e-12
            owners = np.count_nonzero(support, axis=0)
            assert np.count_nonzero(support & (owners == 1), axis=1).max(initial=0) <= 1
        assert merged_total > 0

    def test_stage_keeps_stage_product_current(self, rng, monkeypatch):
        # merge_private updates pgd_inner's M_d U in place; after a stage with
        # merges it must still be stage_matrix(data, d) @ U
        held = []

        def holding(U, support, stage, stage_u):
            held.append(stage_u)
            return merge_private(U, support, stage, stage_u)

        monkeypatch.setattr(solver_module, "merge_private", holding)
        stages = 0
        for _ in range(30):
            inst = random_instance(rng, max_universe=6, max_sets=5)
            data = build_relaxation(inst)
            U0 = initialize(inst, SolverConfig(rng_seed=int(rng.integers(2**31))))
            for d in (0.02, 0.5, 4.0):
                held.clear()
                res = pgd_inner(U0, data, d, SolverConfig())
                if res.merges:
                    stages += 1
                    assert np.abs(held[-1] - stage_matrix(data, d) @ res.point).max() <= 1e-12
        assert stages > 0


class TestLoneRowFill:
    def test_fill_property(self, rng):
        # random sparse iterates: every filled row sums to 1, the data term
        # stays, the objective falls by exactly d sum (1 - u)^2, M_d U and
        # the row sums stay current, and a row holding any shared column is
        # untouched
        filled_total = 0
        for _ in range(300):
            inst = random_instance(rng, max_universe=5, max_sets=5)
            data = build_relaxation(inst)
            m = inst.num_elements
            d = float(rng.choice([0.02, 0.5, 4.0]))
            U = project(rng.random((m, m)) * (rng.random((m, m)) < rng.uniform(0.02, 0.3)))
            stage = stage_matrix(data, d)
            after, support = U.copy(), U > 0.0
            stage_u, row_sums = stage @ U, U.sum(axis=1)
            filled, gain = fill_lone_rows(after, support, stage, stage_u, row_sums)
            filled_total += filled
            np.testing.assert_array_equal(after, fill_reference(U))
            np.testing.assert_array_equal(support, U > 0.0)
            rows = np.flatnonzero((after != U).any(axis=1))
            assert rows.size == filled
            assert (after[rows].sum(axis=1) == 1.0).all()
            np.testing.assert_array_equal(row_sums, after.sum(axis=1))
            shared = (support & (np.count_nonzero(support, axis=0) > 1)).any(axis=1)
            np.testing.assert_array_equal(after[shared], U[shared])
            assert data_term(after, data) == pytest.approx(data_term(U, data), abs=1e-12)
            gap = 1.0 - U[rows].sum(axis=1)
            assert gain == pytest.approx(float(gap @ gap), abs=1e-12)
            assert relaxed_objective(after, data, d) == pytest.approx(
                relaxed_objective(U, data, d) - d * gain, abs=1e-12)
            assert np.abs(stage_u - stage @ after).max() <= 1e-12
        assert filled_total > 0

    def test_stage_keeps_stage_product_current(self, rng, monkeypatch):
        # fill_lone_rows updates pgd_inner's M_d U in place; after a stage
        # with fills it must still be stage_matrix(data, d) @ U
        held = []

        def holding(U, support, stage, stage_u, row_sums):
            held.append(stage_u)
            return fill_lone_rows(U, support, stage, stage_u, row_sums)

        monkeypatch.setattr(solver_module, "fill_lone_rows", holding)
        stages = 0
        for _ in range(30):
            inst = random_instance(rng, max_universe=6, max_sets=5)
            data = build_relaxation(inst)
            U0 = initialize(inst, SolverConfig(rng_seed=int(rng.integers(2**31))))
            for d in (0.02, 0.5, 4.0):
                held.clear()
                res = pgd_inner(U0, data, d, SolverConfig())
                if res.fills:
                    stages += 1
                    assert np.abs(held[-1] - stage_matrix(data, d) @ res.point).max() <= 1e-12
        assert stages > 0

    def test_ladder_outliers_fill_inside_ten_steps(self):
        # the size ladder's first rung (m = 52): once merged, each outlier
        # row sits alone in one private column at about 0.6; without the
        # fill, unit steps shrink 1 - u by 1 - 2d = 0.96 a step until the
        # spectral step, and the stage took 20 inner iterations
        inst, _ = generate(SynthConfig(universe_size=10, num_sets=5, modality_count=2,
                                       noise_sigma=0.15, inconclusive_rate=0.15,
                                       flip_rate=0.05, outliers_per_run=2, rng_seed=1))
        res = solve(inst, SolverConfig(rng_seed=0))
        assert res.converged
        assert len(res.trace) == 1
        assert res.trace[0].inner_iterations <= 10
        assert res.trace[0].fills > 0


def repair_reference(U, abar, set_sizes):
    """The repair row by row, through column member lists: each row takes
    its largest entry's column; within a set, rows colliding on a column
    are reassigned one by one to the column, held by no other row of their
    set, whose members add the least 2 sum abar[row, b]; ties go to the
    lowest column, and the row with the largest entry keeps the column
    (lowest row on ties)."""
    m = U.shape[0]
    cols = np.argmax(U, axis=1)
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
    return cols


class TestRepair:
    def test_matches_row_by_row_reference(self, rng):
        # fractional iterates whose rows crowd onto a few hot columns, with
        # entries on a coarse grid so that the claim and keeper tie rules
        # matter; most cases collide in two or more sets
        several = 0
        for _ in range(400):
            inst = random_instance(rng, max_universe=5, max_sets=5)
            data = build_relaxation(inst)
            m = inst.num_elements
            U = rng.choice([0.0, 0.05, 0.1], size=(m, m))
            hot = rng.choice(m, size=int(rng.integers(1, max(2, m // 3))), replace=False)
            U[np.arange(m), rng.choice(hot, size=m)] = rng.choice([0.4, 0.5], size=m)
            claims = np.argmax(U, axis=1)
            colliding = {int(data.set_index[a]) for a in range(m) for b in range(a)
                         if claims[a] == claims[b] and data.set_index[a] == data.set_index[b]}
            several += len(colliding) >= 2
            cols = solver_module._repair(U, data.abar, data.set_index)
            np.testing.assert_array_equal(cols, repair_reference(U, data.abar, inst.set_sizes))
            one_hot = np.eye(m, dtype=np.int64)[cols]
            assert check_feasible(one_hot, inst).feasible
        assert several >= 200

    def test_displaced_row_joins_its_true_cluster(self, forced_repair, monkeypatch):
        # a penalty weight cap far too low to bind leaves rows 3 and 5 of set
        # 1 both on column 3 (with rows 0 and 6), both at 1.0.  On the tie the
        # lower row keeps the column, so row 5 moves, and column 2, held by
        # rows 2 and 8 (sets 0 and 2), adds the least: the three make up one
        # true object
        inst, truth = generate(SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.2,
                                           flip_rate=0.1, rng_seed=179))
        iterates, repair = [], solver_module._repair

        def recording(U, abar, set_index):
            iterates.append(U.copy())
            return repair(U, abar, set_index)

        monkeypatch.setattr(solver_module, "_repair", recording)
        res = solve(inst, SolverConfig(rng_seed=0))
        assert not res.converged
        (U,) = iterates
        assert np.argmax(U, axis=1)[[0, 3, 5, 6]].tolist() == [3, 3, 3, 3]
        assert U[3, 3] == U[5, 3]
        labels = res.assignment.labels
        assert labels[5] == labels[2] == labels[8] != labels[3]
        assert truth.labels[5] == truth.labels[2] == truth.labels[8]


class TestInitialize:
    def test_deterministic_given_seed(self):
        inst = Instance(set_sizes=(2, 2), modality_count=1)
        a = initialize(inst, SolverConfig(rng_seed=11))
        b = initialize(inst, SolverConfig(rng_seed=11))
        np.testing.assert_array_equal(a, b)

    def test_near_half_identity(self):
        inst = Instance(set_sizes=(2, 2), modality_count=1)
        U0 = initialize(inst, SolverConfig(rng_seed=0))
        assert np.abs(np.diag(U0) - 0.5).max() < 2e-3
        off = U0 - np.diag(np.diag(U0))
        assert off.max() < 2e-3


class TestSolve:
    def test_noiseless_instance_recovers_truth(self):
        cfg = SynthConfig(universe_size=4, num_sets=3, outliers_per_run=1,
                          rng_seed=5)
        inst, truth = generate(cfg)
        res = solve(inst, SolverConfig(rng_seed=0))
        assert res.converged
        assert res.frobenius_value == 0.0
        assert (pairwise_from_assignment(res.assignment)
                == pairwise_from_assignment(truth.assignment))

    def test_output_always_feasible_and_consistent(self, rng):
        for _ in range(15):
            inst = random_instance(rng)
            res = solve(inst, SolverConfig(rng_seed=int(rng.integers(2**31))))
            assert check_feasible(res.assignment.entries, inst).feasible
            assert check_cycle_consistency(pairwise_from_assignment(res.assignment))
            U = res.assignment.entries
            assert np.all((U == 0.0) | (U == 1.0))

    def test_deterministic(self, rng):
        inst = random_instance(rng)
        r1 = solve(inst, SolverConfig(rng_seed=42))
        r2 = solve(inst, SolverConfig(rng_seed=42))
        np.testing.assert_array_equal(r1.assignment.entries, r2.assignment.entries)
        assert r1.relaxed_value == r2.relaxed_value
        assert r1.frobenius_value == r2.frobenius_value
        assert r1.trace == r2.trace

    def test_relaxed_value_consistent_with_output(self, rng):
        inst = random_instance(rng)
        res = solve(inst, SolverConfig(rng_seed=9))
        d_final = res.trace[-1].d
        data = build_relaxation(inst)
        U = res.assignment.entries
        full = np.zeros((inst.num_elements, inst.num_elements))
        full[:, : U.shape[1]] = U
        assert res.relaxed_value == pytest.approx(
            relaxed_objective(full, data, d_final), abs=1e-9
        )

    def test_relaxed_value_is_last_stage_objective(self):
        # the stages descend build_relaxation's function and relaxed_value is
        # that function at the binary output, so on a converged solve the two
        # agree to the last stage's distance from binary
        rng = np.random.default_rng(77)
        cases = [random_instance(rng) for _ in range(12)]
        cases += [generate(SynthConfig(universe_size=10, num_sets=5, modality_count=2,
                                       noise_sigma=0.15, inconclusive_rate=0.15,
                                       flip_rate=0.05, outliers_per_run=2,
                                       rng_seed=seed))[0] for seed in range(3)]
        converged = 0
        for seed, inst in enumerate(cases):
            res = solve(inst, SolverConfig(rng_seed=seed))
            if not res.converged:
                continue
            converged += 1
            last = res.trace[-1]
            binary = res.assignment.entries.astype(float)
            assert res.relaxed_value == pytest.approx(relaxed_objective(
                binary, build_relaxation(inst), last.d), rel=1e-12, abs=1e-12)
            assert res.relaxed_value == pytest.approx(last.objective, rel=1e-6)
        assert converged >= 12

    def test_repair_fallback_flagged(self, forced_repair):
        # a ceiling on the penalty weight below anything useful forces the
        # repair path
        cfg = SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.3,
                          flip_rate=0.3, rng_seed=1)
        inst, _ = generate(cfg)
        res = solve(inst, SolverConfig(rng_seed=0))
        assert not res.converged
        assert check_feasible(res.assignment.entries, inst).feasible
        U = res.assignment.entries
        assert np.all((U == 0.0) | (U == 1.0))

    def test_forced_repair_runs_every_weight(self, forced_repair):
        # the repair runs only once the schedule is spent: one stage per weight
        inst, _ = generate(SynthConfig(universe_size=3, num_sets=3, modality_count=2,
                                       noise_sigma=0.3, flip_rate=0.3, rng_seed=1))
        res = solve(inst, SolverConfig(rng_seed=0))
        assert not res.converged
        assert [s.d for s in res.trace] == list(penalty_weights(2)) == [2e-9, 4e-9]

    def test_trace_records_stages(self, rng):
        inst = random_instance(rng)
        res = solve(inst, SolverConfig(rng_seed=1))
        assert len(res.trace) >= 1
        ds = [stage.d for stage in res.trace]
        assert all(b > a for a, b in zip(ds, ds[1:]))


# labels, per-stage (inner_iterations, stop, merges, fills), frobenius_value
# and relaxed_value of seven solves, recorded from this solver: the size
# ladder at m = 52 (instance seeds 1-3, solver seed 0) and four paper sweep
# instances whose paths take two stages, a spectral step, 22 iterations, or
# several merges and fills.  A change meant to leave the descent alone, such
# as a speed-up, must reproduce them; one that alters the path must update
# them and say why.  Cases are named ladder-<m>-<instance seed> and
# sweep-<n_o>-<trial>
LADDER_LABELS = tuple(range(11)) + tuple(range(10)) + (11,) + tuple(range(10)) * 3
PINNED_PATHS = {
    "ladder-52-1": (LADDER_LABELS, [(9, "tol", 2, 1)],
                    374.6574394200951, -274.94457748079066),
    "ladder-52-2": (LADDER_LABELS, [(5, "tol", 2, 0)],
                    372.37018082487623, -292.4349897190904),
    "ladder-52-3": (LADDER_LABELS, [(9, "tol", 3, 2)],
                    391.93425412482605, -256.66022466452966),
    "sweep-0-11": ((0, 1, 2, 0, 3, 2, 0, 3, 2), [(6, "tol", 0, 1), (6, "tol", 0, 1)],
                   10.886245487388862, -23.68201683274261),
    "sweep-0-23": ((0, 1, 2, 0, 1, 2, 0, 1, 2), [(22, "tol", 1, 0)],
                   5.462834878976501, -20.89778675176854),
    "sweep-2-13": ((0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 2), [(17, "tol", 1, 2)],
                   14.736766503007786, -19.20681914295772),
    "sweep-2-32": ((0, 1, 2, 3, 0, 1, 2, 4, 0, 5, 2), [(10, "tol", 2, 3)],
                   14.120463524666555, -22.96005366715007),
}


@pytest.mark.parametrize("case", PINNED_PATHS)
def test_solver_path_is_pinned(case):
    kind, first, second = case.split("-")
    if kind == "ladder":
        # perfbench's LADDER: the sweep's corruption model, 5 sets of 10, 2 outliers
        cfg = replace(SWEEP_BASE, universe_size=10, num_sets=5, outliers_per_run=2,
                      rng_seed=int(second))
        solver_seed = 0
    else:   # outlier count n_o and trial t as in the paper's gap sweep
        n_o, t = int(first), int(second)
        cfg = replace(SWEEP_BASE, outliers_per_run=n_o, rng_seed=derive_seed(0, n_o, t))
        solver_seed = derive_seed(0, n_o, t, 1)
    labels, stages, frobenius, relaxed = PINNED_PATHS[case]
    res = solve(generate(cfg)[0], SolverConfig(rng_seed=solver_seed))
    assert res.converged
    assert res.assignment.labels == labels
    assert [(s.inner_iterations, s.stop, s.merges, s.fills) for s in res.trace] == stages
    assert res.frobenius_value == pytest.approx(frobenius, rel=1e-12)
    assert res.relaxed_value == pytest.approx(relaxed, rel=1e-12)


def all_ones(count: int) -> Instance:
    """3 sets of 3, every cross-set score 1 in each of ``count`` modalities:
    no score tells the objects apart, and a solve takes 9 to 11 stages with
    a seeded kick between each two; the optimum is 36 per modality."""
    pairs = [(a, b) for a in range(9) for b in range(a + 1, 9) if a // 3 != b // 3]
    return Instance(set_sizes=(3, 3, 3), modality_count=count, pairs=pairs,
                    scores=[(1.0,) * count] * len(pairs))


# a worse vertex (40 at K = 1, 80 at K = 2) that the binary polish in
# ROADMAP.md, which is to replace _repair, has to turn into the optimum
ALL_ONES_MISSES = {(1, 1), (2, 5)}


@pytest.mark.parametrize("count, seed", [
    pytest.param(count, seed, marks=pytest.mark.xfail(
        strict=True, reason="continuation ends at a worse vertex; the binary "
                            "polish is to fix it"))
    if (count, seed) in ALL_ONES_MISSES else (count, seed)
    for count in (1, 2) for seed in range(10)])
def test_all_ones_reaches_the_optimum(count, seed):
    inst = all_ones(count)
    res = solve(inst, SolverConfig(rng_seed=seed))
    assert res.converged and len(res.trace) > 1   # kicked between stages
    assert res.frobenius_value == 36.0 * count == solve_exact(inst).value


class TestPenaltyWeights:
    @pytest.mark.parametrize("count", [1, 2, 3, 4])
    def test_twenty_doubling_weights_up_to_the_cap(self, count):
        weights, growth = list(penalty_weights(count)), solver_module.D_GROWTH
        assert len(weights) == 20
        assert weights[0] == solver_module.D_INIT * count
        assert weights[1:] == [w * growth for w in weights[:-1]]
        assert weights[-1] <= solver_module.D_MAX * count < weights[-1] * growth


class TestSolverConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SolverConfig(max_inner_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(rng_seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("rng_seed", 1.5), ("rng_seed", True), ("max_inner_iters", 2.5),
        ("max_inner_iters", True)])
    def test_rejects_non_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_derived_defaults_resolve_per_instance(self):
        # the first stage's penalty weight is D_INIT = 0.01 per modality
        inst = Instance(set_sizes=(2, 2), modality_count=3)
        res = solve(inst, SolverConfig())
        assert res.trace[0].d == 0.01 * 3
