"""Exhaustive enumeration and the exact minimizer used as ground truth."""

from __future__ import annotations

import numpy as np
import pytest

from fusematch import (
    Instance,
    InstanceTooLargeError,
    OracleConfig,
    SolverConfig,
    SynthConfig,
    count_feasible,
    enumerate_feasible,
    frobenius_objective,
    generate,
    optimality_gap,
    solve,
    solve_exact,
)
from fusematch import oracle
from fusematch.oracle import TIE_TOL
from fusematch.relax import _labelling_values
from fusematch.synth import derive_seed

from conftest import random_instance


def _assert_first_optimum(inst):
    """solve_exact returns the first assignment in enumeration order within
    TIE_TOL of the brute-force minimum, and that minimum."""
    res = solve_exact(inst)
    listed = list(enumerate_feasible(inst))
    values = [frobenius_objective(a.entries, inst) for a in listed]
    best_val = min(values)
    first = next(a for a, v in zip(listed, values) if v <= best_val + TIE_TOL)
    assert res.value == pytest.approx(best_val, abs=1e-8)
    assert res.assignment == first


class TestCountFeasible:
    def test_two_singleton_sets(self):
        # merge or keep apart
        assert count_feasible((1, 1)) == 2

    def test_one_set_of_two(self):
        # distinctness forces singletons
        assert count_feasible((2,)) == 1

    def test_three_singleton_sets(self):
        # all partitions of three items are feasible
        assert count_feasible((1, 1, 1)) == 5

    def test_matches_enumeration(self, rng):
        for _ in range(12):
            n = int(rng.integers(1, 4))
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(n))
            if sum(sizes) > 8:
                continue
            inst = Instance(set_sizes=sizes, modality_count=1)
            listed = list(enumerate_feasible(inst))
            assert len(listed) == count_feasible(sizes)
            seen = {tuple(np.argmax(a.entries, axis=1)) for a in listed}
            assert len(seen) == len(listed)


class TestEnumerate:
    def test_all_yields_feasible(self, rng):
        inst = random_instance(rng, max_universe=2, max_sets=3)
        for a in enumerate_feasible(inst):
            assert a.entries.sum() == inst.num_elements  # construction validated it

    def test_cap_enforced(self):
        inst = Instance(set_sizes=(7, 7), modality_count=1)
        with pytest.raises(InstanceTooLargeError):
            list(enumerate_feasible(inst))
        with pytest.raises(InstanceTooLargeError):
            solve_exact(inst)

    def test_cap_override(self):
        inst = Instance(set_sizes=(7, 6), modality_count=1)
        cfg = OracleConfig(max_elements=13)
        res = solve_exact(inst, cfg)
        assert res.value >= 0.0

    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_config_rejects_bad_max_elements(self, value):
        # 2.5 and True used to be accepted
        with pytest.raises(ValueError, match="max_elements"):
            OracleConfig(max_elements=value)


class TestSolveExact:
    def test_certain_match_merges(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(1.0,)])
        res = solve_exact(inst)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.assignment.num_clusters == 1

    def test_certain_mismatch_separates(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(0.0,)])
        res = solve_exact(inst)
        assert res.value == pytest.approx(0.0, abs=1e-12)
        assert res.assignment.num_clusters == 2

    def test_merge_value_when_scores_disagree(self):
        # merging against a 0 score costs (1-0)^2 twice
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(0.0,)])
        merged = None
        for a in enumerate_feasible(inst):
            if a.num_clusters == 1:
                merged = a
        assert frobenius_objective(merged.entries, inst) == pytest.approx(2.0)

    def test_matches_unpruned_enumeration(self, rng):
        # the pruned tree search against a direct scan over all feasible
        # assignments, value and argmin identity both
        for _ in range(25):
            inst = random_instance(rng, max_universe=3, max_sets=3)
            if inst.num_elements > 7:
                continue
            _assert_first_optimum(inst)

    def test_never_above_solver(self, rng):
        count = 0
        while count < 50:
            inst = random_instance(rng, max_universe=3, max_sets=3)
            if inst.num_elements > 10:
                continue
            count += 1
            res = solve(inst, SolverConfig(rng_seed=int(rng.integers(2**31))))
            orc = solve_exact(inst)
            assert orc.value <= res.frobenius_value + 1e-9

    def test_equal_labels_give_equal_values(self):
        # on the paper's outlier sweep (acceptance criterion 2, m = 9 to 12)
        # solve and solve_exact read the exact objective from the stored
        # pairs by one formula, so one labelling gets one float
        # and a zero gap
        matched = 0
        for n_o in range(4):
            for t in range(50):
                inst, _ = generate(SynthConfig(
                    universe_size=3, num_sets=3, modality_count=2, noise_sigma=0.15,
                    inconclusive_rate=0.15, flip_rate=0.05, outliers_per_run=n_o,
                    rng_seed=derive_seed(0, n_o, t)))
                res = solve(inst, SolverConfig(rng_seed=derive_seed(0, n_o, t, 1)))
                orc = solve_exact(inst)
                if res.assignment == orc.assignment:
                    matched += 1
                    assert res.frobenius_value == orc.value
                    assert optimality_gap(res.frobenius_value, orc.value) == 0.0
        assert matched >= 190

    def test_first_within_tie_tol_is_the_pruned_result(self, rng):
        # scores from a small grid, with a near-tie 1e-10 below 0.5, put many
        # assignments within TIE_TOL of one another; the pruned search must
        # still return the first of them in enumeration order
        grid = np.array([0.0, 0.25, 0.5, 0.5 - 1e-10, 0.75, 1.0])
        for _ in range(60):
            sizes = tuple(int(x) for x in rng.integers(1, 4, size=int(rng.integers(2, 4))))
            count, m = int(rng.integers(1, 3)), sum(sizes)
            pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
            scores = grid[rng.integers(0, len(grid), size=(len(pairs), count))]
            inst = Instance(sizes, count, pairs, scores)
            _assert_first_optimum(inst)

    def test_all_inconclusive_ties_everything(self):
        # every feasible assignment scores the same, so the first one wins
        inst = Instance(set_sizes=(1, 1, 1), modality_count=1)
        res = solve_exact(inst)
        listed = list(enumerate_feasible(inst))
        values = {frobenius_objective(a.entries, inst) for a in listed}
        assert len(listed) == count_feasible((1, 1, 1))
        assert max(values) - min(values) <= TIE_TOL
        np.testing.assert_array_equal(res.assignment.entries, listed[0].entries)

    def test_first_optimum_in_enumeration_order(self):
        # among exact ties the reported assignment is the earliest one
        inst = Instance(set_sizes=(2, 1), modality_count=1)
        res = solve_exact(inst)
        listed = list(enumerate_feasible(inst))
        values = [frobenius_objective(a.entries, inst) for a in listed]
        vmin = min(values)
        expected = listed[values.index(vmin)]
        np.testing.assert_array_equal(res.assignment.entries, expected.entries)
        assert sum(v <= vmin + TIE_TOL for v in values) > 1

    @pytest.mark.parametrize("merge_cheaper", [False, True])
    def test_near_tie_goes_to_first_assignment(self, merge_cheaper):
        # merging costs 4e-10 more (or less) than keeping apart, inside
        # TIE_TOL, so the merge, first in enumeration order, wins either way
        score = 0.5 + 1e-10 if merge_cheaper else 0.5 - 1e-10
        inst = Instance((1, 1), 1, [[0, 1]], [[score]])
        res = solve_exact(inst)
        assert res.assignment.num_clusters == 1

    @pytest.mark.parametrize("offset, raises", [(1e-6, True), (1e-10, False)])
    def test_incremental_value_guard(self, monkeypatch, offset, raises):
        # the search sums abar's rows as it goes; the returned value is
        # recomputed from the stored pairs, and the two must agree to rel 1e-8
        inst, _ = generate(SynthConfig(universe_size=3, num_sets=3, noise_sigma=0.2,
                                       rng_seed=5))
        exact = solve_exact(inst).value

        def shifted(labels, instance, d):
            frobenius, relaxed = _labelling_values(labels, instance, d)
            return frobenius + offset * max(1.0, abs(frobenius)), relaxed

        monkeypatch.setattr(oracle, "_labelling_values", shifted)
        if raises:
            with pytest.raises(RuntimeError, match="incremental objective .* disagrees"):
                solve_exact(inst)
        else:
            assert solve_exact(inst).value == pytest.approx(exact, rel=1e-9)

    def test_objective_equivalence_of_expansions(self, rng):
        # minimizing the residual form and minimizing the aggregate inner
        # product give identical argmin sets on the feasible lattice
        from fusematch import build_relaxation

        for _ in range(8):
            inst = random_instance(rng, max_universe=3, max_sets=2)
            if inst.num_elements > 7:
                continue
            data = build_relaxation(inst)
            listed = list(enumerate_feasible(inst))
            frob = np.array([frobenius_objective(a.entries, inst) for a in listed])
            inner = np.array(
                [float((a.entries @ a.entries.T * data.abar).sum()) for a in listed]
            )
            frob_arg = set(np.flatnonzero(frob <= frob.min() + 1e-9))
            inner_arg = set(np.flatnonzero(inner <= inner.min() + 1e-9))
            assert frob_arg == inner_arg

    def test_synthetic_truth_is_optimal_without_corruption(self):
        cfg = SynthConfig(universe_size=3, num_sets=3, observe_prob=0.8, rng_seed=3)
        inst, truth = generate(cfg)
        res = solve_exact(inst)
        assert res.value == pytest.approx(
            frobenius_objective(truth.assignment.entries, inst), abs=1e-9
        )
