"""Relaxed objective, its gradient, and the exact-objective expansion identity."""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusematch import (
    Instance,
    SynthConfig,
    build_relaxation,
    enumerate_feasible,
    frobenius_objective,
    generate,
    relaxed_gradient,
    relaxed_objective,
    solve,
    solve_exact,
)
from fusematch import cli, oracle, relax, solver
from fusematch.relax import _labelling_values, frobenius_from_mats, stage_matrix
from fusematch import build_modality_matrices

from conftest import polarized_curvature, random_feasible_assignment, random_instance


def brute_force_frobenius(U: np.ndarray, instance: Instance) -> float:
    """Direct evaluation of the sum of squared residuals, one modality at a time."""
    mats = build_modality_matrices(instance).mats
    gram = U @ U.T
    return float(sum(np.sum((gram - mat) ** 2) for mat in mats))


class TestAggregateMatrix:
    def test_inconclusive_score_maps_to_zero(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(0.5,)])
        data = build_relaxation(inst)
        assert data.abar[0, 1] == 0.0

    def test_certain_match_maps_to_minus_one(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(1.0,)])
        data = build_relaxation(inst)
        assert data.abar[0, 1] == -1.0

    def test_certain_mismatch_maps_to_plus_one(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(0.0,)])
        data = build_relaxation(inst)
        assert data.abar[0, 1] == 1.0

    def test_four_modalities_all_certain(self):
        inst = Instance(set_sizes=(1, 1), modality_count=4,
                        pairs=[(0, 1)], scores=[(1.0, 1.0, 1.0, 1.0)])
        data = build_relaxation(inst)
        assert data.abar[0, 1] == -4.0

    def test_diagonal_equals_minus_modality_count(self):
        # the exact expansion puts -K on the diagonal; the relaxation folds
        # that constant, -K per element, into frob_const and keeps a zero
        # diagonal
        inst = Instance(set_sizes=(2, 1), modality_count=3)
        data = build_relaxation(inst)
        np.testing.assert_array_equal(np.diag(data.abar), 0.0)
        mats = build_modality_matrices(inst).mats
        assert data.frob_const == float((mats ** 2).sum()) - 3 * 3

    def test_penalty_matrices(self, rng):
        # the penalty bracket against the dense form: column overlap
        # <U^T U, 1 - I>, same-set co-assignment <U U^T, P_d> with P_d the
        # same-set indicator off the diagonal, and ||U 1 - 1||^2 - m
        inst = Instance(set_sizes=(2, 1, 3), modality_count=1)
        data = build_relaxation(inst)
        m = inst.num_elements
        p_d = (inst.set_index[:, None] == inst.set_index[None, :]).astype(float)
        np.fill_diagonal(p_d, 0.0)
        for c in (m, 2):
            U = rng.uniform(0.0, 0.6, size=(m, c))
            gap = U.sum(axis=1) - 1.0
            bracket = (float((U.T @ U * (1.0 - np.eye(c))).sum())
                       + float((U @ U.T * p_d).sum()) + float(gap @ gap) - m)
            assert relaxed_objective(U, data, 1.0) - relaxed_objective(U, data, 0.0) \
                == pytest.approx(bracket, rel=1e-12, abs=1e-12)
            dense_grad = (2.0 * (data.abar + p_d) @ U
                          + 2.0 * (U.sum(axis=1)[:, None] - U) + 2.0 * gap[:, None])
            np.testing.assert_allclose(relaxed_gradient(U, data, 1.0), dense_grad,
                                       rtol=1e-12, atol=1e-12)

    def test_frob_const(self):
        # sum_k ||S_k||_F^2 = 2 (1 + 0.9^2) less the folded diagonal, K m = 2
        inst = Instance(set_sizes=(1, 1), modality_count=1, pairs=[(0, 1)], scores=[(0.9,)])
        data = build_relaxation(inst)
        assert data.frob_const == pytest.approx(2 * 0.9**2, abs=1e-12)


class TestExpansionIdentity:
    """The exact objective equals the aggregate inner product plus a constant
    on every feasible binary point. This pins the aggregate matrix, diagonal
    included."""

    def test_small_instances_every_feasible_point(self, rng):
        for _ in range(8):
            inst = random_instance(rng, max_universe=3, max_sets=3)
            if inst.num_elements > 7:
                continue
            data = build_relaxation(inst)
            for a in enumerate_feasible(inst):
                U = a.entries
                direct = brute_force_frobenius(U, inst)
                expanded = float((U @ U.T * data.abar).sum()) + data.frob_const
                assert abs(direct - expanded) <= 1e-10

    def test_frobenius_objective_matches_brute_force(self, rng):
        for _ in range(20):
            inst = random_instance(rng)
            a = random_feasible_assignment(rng, inst.set_sizes)
            assert frobenius_objective(a.entries, inst) == pytest.approx(
                brute_force_frobenius(a.entries, inst), abs=1e-9
            )

    def test_frobenius_from_mats_accepts_fractional_points(self, rng):
        inst = random_instance(rng)
        m = inst.num_elements
        U = rng.uniform(0.0, 1.0, size=(m, m))
        mats = build_modality_matrices(inst).mats
        assert frobenius_from_mats(U, mats) == pytest.approx(
            brute_force_frobenius(U, inst), abs=1e-9
        )


class TestRelaxedObjective:
    def test_zero_matrix_with_unit_weight(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1)
        data = build_relaxation(inst)
        U = np.zeros((2, 2))
        assert relaxed_objective(U, data, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_feasible_binary_value(self, rng):
        # penalties vanish on feasible binary points, leaving the data term
        # minus d times the element count
        for _ in range(25):
            inst = random_instance(rng)
            data = build_relaxation(inst)
            a = random_feasible_assignment(rng, inst.set_sizes)
            U = a.entries
            for d in (0.0, 1.0, 17.3):
                expected = float((U @ U.T * data.abar).sum()) - d * inst.num_elements
                assert relaxed_objective(U, data, d) == pytest.approx(expected, abs=1e-9)

    def test_penalty_bracket_favors_feasible_points(self):
        inst = Instance(set_sizes=(2,), modality_count=1)
        data = build_relaxation(inst)
        both_first = np.array([[1.0, 0.0], [1.0, 0.0]])  # same-set collision

        def bracket(U):
            return relaxed_objective(U, data, 1.0) - relaxed_objective(U, data, 0.0)

        # the bracket bottoms out at -m, reached only on feasible points
        assert bracket(np.eye(2)) == pytest.approx(-2.0, abs=1e-12)
        assert bracket(both_first) > bracket(np.eye(2))
        assert bracket(np.full((2, 2), 0.5)) > bracket(np.eye(2))
        v_feas = relaxed_objective(np.eye(2), data, 0.0)
        assert relaxed_objective(np.eye(2), data, 100.0) == pytest.approx(
            v_feas - 100.0 * 2, abs=1e-9
        )

    def test_inconclusive_scores_make_all_assignments_tie(self, rng):
        # every cross-set score 0.5: the data term cannot distinguish
        # feasible binary assignments
        sizes = (2, 2, 1)
        inst = Instance(set_sizes=sizes, modality_count=2)  # absent pairs default to 0.5
        data = build_relaxation(inst)
        values = set()
        for _ in range(100):
            a = random_feasible_assignment(rng, sizes)
            values.add(round(relaxed_objective(a.entries, data, 3.0), 9))
        assert len(values) == 1

    def test_rejects_negative_entries(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1)
        data = build_relaxation(inst)
        with pytest.raises(ValueError):
            relaxed_objective(np.array([[-0.1, 0.0], [0.0, 0.5]]), data, 1.0)

    def test_rejects_negative_weight(self):
        inst = Instance(set_sizes=(1, 1), modality_count=1)
        data = build_relaxation(inst)
        with pytest.raises(ValueError):
            relaxed_objective(np.eye(2) * 0.5, data, -1.0)


class TestGradient:
    def test_matches_central_differences(self, rng):
        h = 1e-5
        for _ in range(12):
            inst = random_instance(rng, max_universe=3, max_sets=3)
            data = build_relaxation(inst)
            m = inst.num_elements
            U = rng.uniform(0.05, 0.95, size=(m, m))
            U /= U.sum(axis=1, keepdims=True) * float(rng.uniform(1.0, 2.0))
            for d in (0.0, 1.0, 10.0):
                g = relaxed_gradient(U, data, d)
                fd = np.empty_like(g)
                for i, j in itertools.product(range(m), range(m)):
                    up, um = U.copy(), U.copy()
                    up[i, j] += h
                    um[i, j] -= h
                    fd[i, j] = (
                        relaxed_objective(up, data, d)
                        - relaxed_objective(um, data, d)
                    ) / (2 * h)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-6

    def test_gradient_handles_rectangular_input(self, rng):
        inst = random_instance(rng)
        data = build_relaxation(inst)
        m = inst.num_elements
        c = max(1, m - 2)
        U = rng.uniform(0.0, 0.5, size=(m, c))
        g = relaxed_gradient(U, data, 2.0)
        assert g.shape == (m, c)
        h = 1e-6
        i, j = 0, c - 1
        up, um = U.copy(), U.copy()
        up[i, j] += h
        um[i, j] -= h
        fd = (relaxed_objective(up, data, 2.0) - relaxed_objective(um, data, 2.0)) / (2 * h)
        assert g[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-6)


class TestStageMatrix:
    """M_d = abar + d (B - 2 I) carries the whole quadratic part of the
    relaxed objective: the solver's gradient and step curvature come from it
    and the row sums alone."""

    @staticmethod
    def cases(rng):
        for _ in range(10):
            inst = random_instance(rng)
            data = build_relaxation(inst)
            m = inst.num_elements
            assert len(inst.set_sizes) > 1
            for d in (0.02, 0.5, 4.0):
                for c in (m, max(1, m - 3)):
                    yield data, d, rng.uniform(0.0, 0.6, size=(m, c))

    def test_gradient_matches_relaxed_gradient(self, rng):
        for data, d, U in self.cases(rng):
            row_sums = U.sum(axis=1)
            grad = 2.0 * stage_matrix(data, d) @ U + 2.0 * d * (2.0 * row_sums - 1.0)[:, None]
            np.testing.assert_allclose(grad, relaxed_gradient(U, data, d),
                                       rtol=1e-12, atol=1e-12)

    def test_curvature_matches_polarization(self, rng):
        for data, d, U in self.cases(rng):
            D = U - rng.uniform(0.0, 0.6, size=U.shape)
            row_sums = D.sum(axis=1)
            curvature = (float(np.vdot(D, stage_matrix(data, d) @ D))
                         + 2.0 * d * float(row_sums @ row_sums))
            assert curvature == pytest.approx(polarized_curvature(D, data, d),
                                              rel=1e-12, abs=1e-12)


def _corpus():
    """Seeded instances covering every shape the fused data must handle."""
    rng = np.random.default_rng(2024)
    yield from (random_instance(rng) for _ in range(12))
    for knobs in (dict(inconclusive_rate=1.0), dict(flip_rate=1.0),
                  dict(noise_sigma=0.3, outliers_per_run=3)):
        for seed in range(3):
            yield generate(SynthConfig(universe_size=4, num_sets=3, modality_count=3,
                                       observe_prob=0.8, rng_seed=seed, **knobs))[0]
    # from K = 8 a row-wise sum of the scores leaves the modality order
    for count in (8, 9, 12):
        for seed in range(2):
            yield generate(SynthConfig(universe_size=6, num_sets=4, modality_count=count,
                                       noise_sigma=0.3, rng_seed=seed))[0]
    yield generate(SynthConfig(universe_size=5, num_sets=1, rng_seed=0))[0]   # one set
    yield Instance(set_sizes=(1,), modality_count=2)                          # one element
    # stored within-set scores, unsorted rows and a row at its default
    yield Instance(set_sizes=(3, 2), modality_count=2,
                   pairs=[(0, 1), (0, 2), (3, 4), (2, 3), (0, 4)],
                   scores=[(0.7, 0.1), (0.5, 0.5), (0.25, 1.0), (0.9, 0.8),
                           (0.5, 0.5)])


class TestEquality:
    def test_equal_and_unequal_instances(self):
        # the default dataclass __eq__ raised on the ndarray fields
        a, b = Instance((2, 2), 1), Instance((2, 2), 1)
        scored = Instance((2, 2), 1, pairs=[(0, 2)], scores=[(0.9,)])
        assert build_relaxation(a) == build_relaxation(b)
        assert build_modality_matrices(a) == build_modality_matrices(b)
        for other in (scored, Instance((1, 3), 1)):
            assert build_relaxation(a) != build_relaxation(other)
            assert build_modality_matrices(a) != build_modality_matrices(other)


class TestFusedDataMatchesDenseStack:
    """build_relaxation and frobenius_objective work from the stored pairs;
    the dense K-by-m-by-m stack is the reference they must agree with."""

    def test_abar_bit_identical(self):
        for inst in _corpus():
            mats = build_modality_matrices(inst).mats
            abar = build_relaxation(inst).abar
            expected = inst.modality_count - 2.0 * mats.sum(axis=0)
            off = ~np.eye(inst.num_elements, dtype=bool)
            np.testing.assert_array_equal(abar[off], expected[off])
            np.testing.assert_array_equal(np.diag(abar), 0.0)

    def test_frob_const(self):
        for inst in _corpus():
            expected = (float((build_modality_matrices(inst).mats ** 2).sum())
                        - inst.modality_count * inst.num_elements)
            assert build_relaxation(inst).frob_const == pytest.approx(expected, rel=1e-12)

    def test_frobenius_objective_binary_and_fractional(self):
        rng = np.random.default_rng(5)
        for inst in _corpus():
            mats = build_modality_matrices(inst).mats
            m = inst.num_elements
            points = [random_feasible_assignment(rng, inst.set_sizes).entries,
                      rng.uniform(0.0, 1.0, size=(m, m)),
                      rng.uniform(0.0, 0.5, size=(m, max(1, m - 2)))]
            for U in points:
                expected = frobenius_from_mats(U, mats)
                assert frobenius_objective(U, inst) == pytest.approx(
                    expected, rel=1e-12, abs=1e-12)


class TestOneFusionPerCall:
    """solve, solve_exact and fusematch oracle fuse their instance into abar
    once and read a labelling's exact objective from its stored pairs, not
    from ``frobenius_objective``, which fuses it again; the check of a
    complete result builds no abar at all."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # counted through every module name a caller looks up
        calls = Counter()
        for name in ("build_relaxation", "frobenius_objective"):
            def counted(*args, name=name, original=getattr(relax, name)):
                calls[name] += 1
                return original(*args)
            for module in (relax, solver, oracle, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted)
        return calls

    @staticmethod
    def _instance():
        return generate(SynthConfig(universe_size=3, num_sets=3, modality_count=2,
                                    noise_sigma=0.15, rng_seed=4))[0]

    def test_solve(self, calls):
        solve(self._instance())
        assert dict(calls) == {"build_relaxation": 1}

    def test_solve_exact(self, calls):
        solve_exact(self._instance())
        assert dict(calls) == {"build_relaxation": 1}

    def test_oracle_command(self, calls, tmp_path, capsys):
        inst_path = tmp_path / "instance.json"
        cli.write_instance(self._instance(), inst_path)
        assert cli.main(["oracle", str(inst_path), "--out", str(tmp_path / "r.json")]) == 0
        assert dict(calls) == {"build_relaxation": 1}

    def test_check_of_a_complete_result(self, calls, tmp_path, capsys):
        inst_path, out = tmp_path / "instance.json", tmp_path / "result.json"
        cli.write_instance(self._instance(), inst_path)
        assert cli.main(["solve", str(inst_path), "--out", str(out)]) == 0
        calls.clear()
        assert cli.main(["check", str(out), str(inst_path)]) == 0
        assert dict(calls) == {}


class TestLabellingValues:
    """solve, solve_exact, fusematch oracle and fusematch check read a
    labelling's values from its stored pairs; they must agree with the dense
    values at its one-hot matrix to rel 1e-12, and depend only on which
    pairs share a label, so that one labelling gets one float whoever
    reports it, whatever label ids it carries."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           d=st.one_of(st.sampled_from([0.0, 0.02, 1.5, 1e4]), st.floats(0.0, 1e4)))
    def test_equal_dense_values_exactly(self, seed, d):
        rng = np.random.default_rng(seed)
        inst = random_instance(rng, max_universe=5, max_sets=5)
        assignment = random_feasible_assignment(rng, inst.set_sizes)
        frobenius, relaxed = _labelling_values(assignment.labels, inst, d)
        assert frobenius == pytest.approx(frobenius_objective(assignment.entries, inst),
                                          rel=1e-12, abs=1e-12)
        assert relaxed == pytest.approx(
            relaxed_objective(assignment.entries, build_relaxation(inst), d),
            rel=1e-12, abs=1e-12)
        # exactly: other label ids for the same clusters, as solve's column
        # indices are before Assignment renumbers them
        ids = rng.permutation(inst.num_elements) + 7
        assert _labelling_values(ids[list(assignment.labels)], inst, d) == (frobenius,
                                                                            relaxed)

    def test_corpus_against_dense_stack(self):
        rng = np.random.default_rng(11)
        for inst in _corpus():
            mats = build_modality_matrices(inst).mats
            data = build_relaxation(inst)
            for _ in range(3):
                assignment = random_feasible_assignment(rng, inst.set_sizes)
                U = assignment.entries
                for d in (0.0, 1.5, 1e4 * inst.modality_count):
                    frobenius, relaxed = _labelling_values(assignment.labels, inst, d)
                    assert frobenius == pytest.approx(frobenius_from_mats(U, mats),
                                                      rel=1e-12, abs=1e-12)
                    assert relaxed == pytest.approx(relaxed_objective(U, data, d),
                                                    rel=1e-12, abs=1e-12)
