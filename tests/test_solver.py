"""Projection, line search, inner descent loop, and the continuation driver."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

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
)
from fusematch.relax import RelaxationData, relaxed_gradient, relaxed_objective
from fusematch.solver import armijo_search, initialize, pgd_inner

from conftest import qp_projection_oracle, random_instance


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

    def test_matches_qp_oracle(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 8))
            y = rng.normal(0.0, 3.0, size=n)
            np.testing.assert_allclose(
                project_row(y), qp_projection_oracle(y), atol=1e-8
            )

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


def search_at_d1(U, direction, data):
    return armijo_search(U, direction, data, 1.0, f0=relaxed_objective(U, data, 1.0),
                         grad=relaxed_gradient(U, data, 1.0))


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
        cfg = SolverConfig(inner_tol=1e-8)
        res = pgd_inner(np.zeros((1, 1)), data, 1.0, cfg)
        assert res.point[0, 0] == pytest.approx(1.0, abs=1e-7)

    def test_final_point_stays_in_feasible_box(self, rng):
        inst = random_instance(rng)
        data = build_relaxation(inst)
        cfg = SolverConfig(rng_seed=3)
        res = pgd_inner(initialize(inst, cfg), data, 1.0, cfg)
        assert res.point.min() >= 0.0
        assert res.point.sum(axis=1).max() <= 1.0 + 1e-12


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
        assert res.assignment.pair_set() == truth.assignment.pair_set()

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
            assert res.relaxed_value == relaxed_objective(
                binary, build_relaxation(inst), last.d)
            assert res.relaxed_value == pytest.approx(last.objective, rel=1e-6)
        assert converged >= 12

    def test_repair_fallback_flagged(self):
        # a ceiling on the penalty weight below anything useful forces the
        # repair path
        cfg = SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.3,
                          flip_rate=0.3, rng_seed=1)
        inst, _ = generate(cfg)
        res = solve(inst, SolverConfig(rng_seed=0, d_init=1e-9, d_max=2e-9))
        assert not res.converged
        assert check_feasible(res.assignment.entries, inst).feasible
        U = res.assignment.entries
        assert np.all((U == 0.0) | (U == 1.0))

    def test_trace_records_stages(self, rng):
        inst = random_instance(rng)
        res = solve(inst, SolverConfig(rng_seed=1))
        assert len(res.trace) >= 1
        ds = [stage.d for stage in res.trace]
        assert all(b > a for a, b in zip(ds, ds[1:]))


class TestSolverConfig:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            SolverConfig(d_growth=1.0)
        with pytest.raises(ValueError):
            SolverConfig(binary_tol=0.6)

    def test_derived_defaults_resolve_per_instance(self):
        inst = Instance(set_sizes=(2, 2), modality_count=3)
        cfg = SolverConfig()
        assert cfg.resolved_d_init(inst.modality_count) == pytest.approx(0.03)
        assert cfg.resolved_d_max(inst.modality_count) == pytest.approx(3e4)
        assert cfg.resolved_inner_tol(inst.num_elements) == pytest.approx(4e-6)
