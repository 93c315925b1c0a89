"""Instance containers, score-matrix assembly, and feasibility checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusematch import (
    Assignment,
    GroundTruth,
    InfeasibleAssignmentError,
    Instance,
    InvalidInstanceError,
    SynthConfig,
    build_modality_matrices,
    canonical_labels,
    check_cycle_consistency,
    check_feasible,
    clusters_from_assignment,
    feasibility_report,
    generate,
    pairwise_from_assignment,
)
from fusematch.core import MAX_ELEMENTS, PairwiseTable

from conftest import random_feasible_assignment


def make_instance(set_sizes=(1, 1), modality_count=1, pairs=(), scores=()):
    return Instance(
        set_sizes=tuple(set_sizes),
        modality_count=modality_count,
        pairs=pairs,
        scores=scores,
    )


class TestInstance:
    def test_num_elements(self):
        inst = make_instance(set_sizes=(2, 3, 1))
        assert inst.num_elements == 6
        assert inst.set_offsets == (0, 2, 5)

    def test_score_key_canonicalized(self):
        # the key must come as a < b; its dtypes are made int64 and float64
        with pytest.raises(InvalidInstanceError,
                           match=r"^entry 0: indices must satisfy 0 <= a < b < 2$"):
            make_instance(set_sizes=(1, 1), pairs=[(1, 0)], scores=[(0.9,)])
        inst = make_instance(set_sizes=(1, 1), pairs=np.array([(0, 1)], dtype=np.int32),
                             scores=[(1,)])
        np.testing.assert_array_equal(inst.pairs, [[0, 1]])
        np.testing.assert_array_equal(inst.scores, [[1.0]])
        assert inst.pairs.dtype == np.int64 and inst.scores.dtype == np.float64

    def test_score_out_of_range_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(pairs=[(0, 1)], scores=[(1.5,)])
        with pytest.raises(InvalidInstanceError):
            make_instance(pairs=[(0, 1)], scores=[(-0.1,)])

    def test_score_length_mismatch_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(modality_count=2, pairs=[(0, 1)], scores=[(0.5,)])

    def test_self_pair_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(pairs=[(0, 0)], scores=[(0.5,)])

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(pairs=[(0, 1), (1, 0)], scores=[(0.5,), (0.6,)])

    def test_empty_set_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(set_sizes=(2, 0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_score_rejected(self, bad):
        with pytest.raises(InvalidInstanceError,
                           match=r"^entry 1: scores must lie in \[0, 1\]$"):
            make_instance(set_sizes=(1, 1, 1), pairs=[(0, 1), (1, 2)],
                          scores=[(0.3,), (bad,)])

    def test_out_of_range_index_rejected(self):
        with pytest.raises(InvalidInstanceError, match="entry 0: indices must satisfy"):
            make_instance(pairs=[(0, 2)], scores=[(0.9,)])
        with pytest.raises(InvalidInstanceError, match="entry 0: indices must satisfy"):
            make_instance(pairs=[(-1, 1)], scores=[(0.9,)])

    @pytest.mark.parametrize("set_sizes", [
        (10 ** 30, 1), (MAX_ELEMENTS + 1,), (MAX_ELEMENTS, 1),
        (np.int64(2 ** 62), np.int64(2 ** 62))])
    def test_sizes_past_int64_pair_keys_rejected(self, set_sizes):
        # the pair keys a * m + b must fit int64; (10**30, 1) used to end in
        # an OverflowError.  Rejected before anything is allocated, and numpy
        # sizes are summed as Python ints, so 2**62 + 2**62 does not wrap
        m = sum(int(s) for s in set_sizes)
        with pytest.raises(InvalidInstanceError,
                           match=rf"^set_sizes: {m} elements, more than the {MAX_ELEMENTS} "):
            Instance(set_sizes, 1)
        with pytest.raises(ValueError, match=rf"^set_sizes: {m} elements"):
            Assignment([0] * len(set_sizes), set_sizes)

    def test_element_bound_is_the_int64_key_range(self):
        assert MAX_ELEMENTS ** 2 - 1 <= np.iinfo(np.int64).max < (MAX_ELEMENTS + 1) ** 2 - 1

    def test_non_integer_pairs_rejected(self):
        with pytest.raises(InvalidInstanceError):
            make_instance(pairs=[(0.0, 1.0)], scores=[(0.9,)])

    @pytest.mark.parametrize("set_sizes, modality_count, field", [
        ((1.5, 2), 1, "set_sizes"), ((True, 2), 1, "set_sizes"), ((2.0, 1), 1, "set_sizes"),
        ((2, 2), 1.9, "modality_count"), ((2, 2), True, "modality_count")])
    def test_non_integer_counts_rejected(self, set_sizes, modality_count, field):
        # int() used to turn (1.5, 2) and 1.9 into a 3-element instance with
        # K = 1, and True into 1
        with pytest.raises(InvalidInstanceError, match=field):
            make_instance(set_sizes=set_sizes, modality_count=modality_count)

    def test_numpy_integer_counts_accepted(self):
        inst = make_instance(set_sizes=np.array([2, 1], dtype=np.int32),
                             modality_count=np.int64(2))
        assert inst.set_sizes == (2, 1) and inst.modality_count == 2
        assert all(type(x) is int for x in (*inst.set_sizes, inst.modality_count))

    def test_canonical_arrays(self):
        # rows sorted by (a, b), defaults dropped, within and across sets
        inst = make_instance(set_sizes=(2, 2), modality_count=2,
                             pairs=[(1, 3), (0, 1), (0, 2), (0, 3)],
                             scores=[(0.2, 0.4), (0.0, 0.0), (0.5, 0.5), (1.0, 0.5)])
        np.testing.assert_array_equal(inst.pairs, [[0, 3], [1, 3]])
        np.testing.assert_array_equal(inst.scores, [[1.0, 0.5], [0.2, 0.4]])
        with pytest.raises(ValueError):
            inst.scores[0, 0] = 0.1
        with pytest.raises(ValueError):
            inst.pairs[0, 0] = 1
        # a reversed row and a repeat, with equal scores or other ones, are refused
        for last, message in (((3, 1), "indices must satisfy"),
                              ((1, 3), r"duplicate pair \(1, 3\)")):
            for repeat in ((0.2, 0.4), (0.3, 0.4)):
                with pytest.raises(InvalidInstanceError, match=rf"^entry 2: {message}"):
                    make_instance(set_sizes=(2, 2), modality_count=2,
                                  pairs=[(1, 3), (0, 2), last],
                                  scores=[(0.2, 0.4), (1.0, 0.5), repeat])

    @pytest.mark.parametrize("shift", range(3))
    def test_lowest_faulty_row_named(self, shift):
        # one row per fault kind after a sound row 0, in every rotation: the
        # lowest faulty row is named, whatever its kind
        rows = [((1, 0), (0.9,), "indices must satisfy 0 <= a < b < 3"),
                ((1, 2), (1.5,), r"scores must lie in \[0, 1\]"),
                ((0, 1), (0.8,), r"duplicate pair \(0, 1\)")]
        rows = [((0, 1), (0.9,), "")] + rows[shift:] + rows[:shift]
        with pytest.raises(InvalidInstanceError, match=rf"^entry 1: {rows[1][2]}$"):
            make_instance(set_sizes=(1, 1, 1), pairs=[r[0] for r in rows],
                          scores=[r[1] for r in rows])

    def test_first_fault_of_a_row_named(self):
        # a row with two faults is named for the first: indices before
        # scores, scores before a repeat
        with pytest.raises(InvalidInstanceError, match="entry 1: indices"):
            make_instance(pairs=[(0, 1), (1, 0)], scores=[(0.9,), (2.0,)])
        with pytest.raises(InvalidInstanceError, match="entry 1: scores"):
            make_instance(pairs=[(0, 1), (0, 1)], scores=[(0.9,), (2.0,)])

    @pytest.mark.parametrize("pairs, scores, message", [
        ([(0, 1), (0, 3), (1, 2)], [0.9, 0.9, 0.9],
         "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([(0, 1), (0, 2), (1, 2)], [0.9, 1.5, 0.9], r"entry 1: scores must lie in \[0, 1\]"),
        ([(0, 1), (0, 2), (0, 2)], [0.9, 0.8, 0.9], r"entry 2: duplicate pair \(0, 2\)"),
        # a * m + b of an out-of-range row equals or passes the next sound
        # row's key, or equals the one before it
        ([(0, 1), (0, 5), (1, 2)], [0.9, 0.9, 0.9],
         "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([(0, 1), (0, 6), (1, 2)], [0.9, 0.9, 0.9],
         "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([(0, 1), (1, 2), (0, 5)], [0.9, 0.9, 0.9],
         "entry 2: indices must satisfy 0 <= a < b < 3"),
        ([(-1, 4), (0, 1)], [0.9, 0.9], "entry 0: indices must satisfy 0 <= a < b < 3"),
        ([(0, 5), (1, 2), (1, 2)], [0.9, 0.9, 0.9],
         "entry 0: indices must satisfy 0 <= a < b < 3"),
        # a * m + b wraps past int64
        ([(0, 2 ** 63 - 1)], [0.9], "entry 0: indices must satisfy 0 <= a < b < 3"),
        ([(0, 1), (2 ** 63 - 1, 2 ** 63 - 1)], [0.9, 0.9],
         "entry 1: indices must satisfy 0 <= a < b < 3"),
        ([(0, 1), (2 ** 62, 2 ** 63 - 1), (1, 2)], [0.9, 0.9, 0.9],
         "entry 1: indices must satisfy 0 <= a < b < 3"),
    ], ids=["index", "score", "duplicate", "key-equal", "key-past",
            "key-equal-before", "negative-a", "before-duplicate", "b-int64-max", "a-int64-max",
            "key-wraps"])
    def test_faults_named_in_ordered_tables(self, pairs, scores, message):
        # rows already in (a, b) order, where no sort runs unless a key repeats
        with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
            make_instance(set_sizes=(1, 1, 1), pairs=np.array(pairs, dtype=np.int64),
                          scores=[(s,) for s in scores])

    @pytest.mark.parametrize("pairs", [(), np.empty((0, 2), dtype=np.int64)])
    def test_empty_table(self, pairs):
        inst = make_instance(set_sizes=(2, 1), modality_count=2, pairs=pairs,
                             scores=np.empty((0, 2)))
        assert inst.pairs.shape == (0, 2) and inst.scores.shape == (0, 2)
        assert inst.pairs.dtype == np.int64 and not inst.pairs.flags.writeable
        assert inst == make_instance(set_sizes=(2, 1), modality_count=2)

    @pytest.mark.parametrize("order", [[0, 1, 2, 3], [0, 1, 2, 3, 4], [3, 0, 2, 1]],
                             ids=["in-order", "in-order-with-default", "shuffled"])
    def test_instance_owns_its_arrays(self, order):
        # the stored arrays are read-only copies, whatever path construction
        # takes; the caller's arrays stay writeable and unchanged
        table = [((0, 2), (0.9, 0.1)), ((0, 3), (0.2, 0.3)), ((1, 2), (0.5, 0.7)),
                 ((1, 3), (1.0, 0.0)), ((2, 3), (0.0, 0.0))]   # the last at its default
        pairs = np.array([table[i][0] for i in order], dtype=np.int64)
        scores = np.array([table[i][1] for i in order])
        given = pairs.copy(), scores.copy()
        inst = make_instance(set_sizes=(2, 2), modality_count=2, pairs=pairs,
                             scores=scores)
        np.testing.assert_array_equal(inst.pairs, [(0, 2), (0, 3), (1, 2), (1, 3)])
        for stored, caller, before in zip((inst.pairs, inst.scores), (pairs, scores),
                                          given):
            assert not stored.flags.writeable
            assert not np.shares_memory(stored, caller)
            assert caller.flags.writeable
            np.testing.assert_array_equal(caller, before)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), count=st.integers(1, 3), in_order=st.booleans(),
           data=st.data())
    def test_row_order_is_free_and_faulty_rows_are_named(self, seed, count, in_order, data):
        inst, _ = generate(SynthConfig(universe_size=3, num_sets=3, modality_count=count,
                                       observe_prob=0.8, outliers_per_run=1,
                                       noise_sigma=0.2, inconclusive_rate=0.3,
                                       rng_seed=seed))
        rows = len(inst.pairs)
        order = (list(range(rows)) if in_order
                 else data.draw(st.permutations(range(rows))))
        pairs, scores = inst.pairs[order], inst.scores[order]
        assert make_instance(inst.set_sizes, count, pairs, scores) == inst
        if rows:
            j = data.draw(st.integers(0, rows - 1))
            at = data.draw(st.sampled_from((j + 1, rows)))   # right after row j, or last
            for extra, fault in ((pairs[j, ::-1], "indices must satisfy"),
                                 (pairs[j], "duplicate pair")):
                with pytest.raises(InvalidInstanceError, match=f"^entry {at}: {fault}"):
                    make_instance(inst.set_sizes, count,
                                  np.insert(pairs, at, extra, axis=0),
                                  np.insert(scores, at, scores[j], axis=0))
            faulty = scores.copy()
            faulty[j, -1] = 1.5
            with pytest.raises(InvalidInstanceError, match=f"^entry {j}: scores must lie"):
                make_instance(inst.set_sizes, count, pairs, faulty)

    def test_equality_compares_canonical_arrays(self):
        a = make_instance(set_sizes=(1, 1, 1), pairs=[(0, 2), (0, 1)],
                          scores=[(0.9,), (0.1,)])
        b = make_instance(set_sizes=(1, 1, 1), pairs=[(0, 1), (1, 2), (0, 2)],
                          scores=[(0.1,), (0.5,), (0.9,)])
        assert a == b
        assert a != make_instance(set_sizes=(1, 1, 1), pairs=[(0, 2)], scores=[(0.9,)])
        assert a != make_instance(set_sizes=(1, 2))


class TestBuildModalityMatrices:
    def test_two_singletons_with_score(self):
        inst = make_instance(set_sizes=(1, 1), pairs=[(0, 1)], scores=[(0.9,)])
        mats = build_modality_matrices(inst).mats
        assert mats.shape == (1, 2, 2)
        np.testing.assert_array_equal(mats[0], [[1.0, 0.9], [0.9, 1.0]])

    def test_absent_cross_set_pair_defaults_to_half(self):
        inst = make_instance(set_sizes=(1, 1))
        mats = build_modality_matrices(inst).mats
        np.testing.assert_array_equal(mats[0], [[1.0, 0.5], [0.5, 1.0]])

    def test_within_set_pair_defaults_to_zero(self):
        inst = make_instance(set_sizes=(2,))
        mats = build_modality_matrices(inst).mats
        np.testing.assert_array_equal(mats[0], [[1.0, 0.0], [0.0, 1.0]])

    def test_multimodal_stacking(self):
        inst = make_instance(set_sizes=(1, 1), modality_count=2,
                             pairs=[(0, 1)], scores=[(0.2, 0.8)])
        mats = build_modality_matrices(inst).mats
        assert mats.shape == (2, 2, 2)
        assert mats[0][0, 1] == 0.2
        assert mats[1][0, 1] == 0.8

    def test_symmetry_and_unit_diagonal(self, rng):
        from conftest import random_instance

        for _ in range(10):
            inst = random_instance(rng)
            mats = build_modality_matrices(inst).mats
            for mat in mats:
                np.testing.assert_array_equal(mat, mat.T)
                np.testing.assert_array_equal(np.diag(mat), 1.0)

    def test_matrices_read_only(self):
        inst = make_instance(set_sizes=(1, 1))
        mats = build_modality_matrices(inst).mats
        with pytest.raises(ValueError):
            mats[0][0, 1] = 0.3


class TestFeasibility:
    def test_identity_feasible(self):
        report = feasibility_report(np.eye(3), (1, 1, 1))
        assert report.feasible
        assert report.row_violations == ()
        assert report.column_violations == ()

    def test_row_sum_violation(self):
        entries = np.array([[1.0, 1.0], [0.0, 1.0]])
        report = feasibility_report(entries, (1, 1))
        assert not report.feasible
        assert 0 in report.row_violations

    def test_zero_row_violation(self):
        entries = np.array([[1.0, 0.0], [0.0, 0.0]])
        report = feasibility_report(entries, (1, 1))
        assert 1 in report.row_violations

    def test_within_set_collision(self):
        entries = np.array([[1.0], [1.0]])
        report = feasibility_report(entries, (2,))
        assert not report.feasible
        assert (0, 0) in report.column_violations

    def test_cross_set_sharing_allowed(self):
        entries = np.array([[1.0], [1.0]])
        assert feasibility_report(entries, (1, 1)).feasible

    def test_fractional_entries_rejected(self):
        entries = np.array([[0.5, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            feasibility_report(entries, (1, 1))

    def test_column_violations_in_set_then_column_order(self):
        entries = np.array([[0, 1, 1], [0, 1, 1], [1, 0, 0], [1, 0, 0], [1, 0, 0]])
        report = feasibility_report(entries, (2, 3))
        assert report.column_violations == ((0, 1), (0, 2), (1, 0))
        assert report.row_violations == (0, 1)

    @pytest.mark.parametrize("sizes", [(), (2, 0), (1.5, 0.5), (True, True)])
    def test_nonpositive_set_sizes_rejected(self, sizes):
        with pytest.raises(ValueError, match="set_sizes"):
            feasibility_report(np.eye(2), sizes)

    def test_check_feasible_flags_collision(self):
        inst = make_instance(set_sizes=(2,))
        report = check_feasible(np.array([[1.0], [1.0]]), inst)
        assert not report.feasible


class TestAssignment:
    def test_pairwise_matches_co_clustered_pair(self):
        table = pairwise_from_assignment(Assignment([0, 1, 0], (1, 1, 1)))
        assert np.argwhere(np.triu(table.match)).tolist() == [[0, 2]]

    def test_clusters_roundtrip(self):
        labels = (0, 1, 0, 2)
        a = Assignment(labels, (1, 1, 1, 1))
        assert a.labels == labels
        assert clusters_from_assignment(a) is a

    def test_same_set_co_clustering_rejected(self):
        with pytest.raises(InfeasibleAssignmentError,
                           match="cluster 0 holds more than one element of set 0"):
            Assignment([0, 0], (2,))
        # canonical (0, 1, 1, 2, 1): cluster 1 holds elements 2 and 4 of set 1
        with pytest.raises(InfeasibleAssignmentError,
                           match="cluster 1 holds more than one element of set 1"):
            Assignment(["x", "y", "y", "z", "y"], (2, 3))

    @pytest.mark.parametrize("labels, sizes, message", [
        ([0, 1, 2], (2, 2), "expected 4 labels"),
        ([0, 1], (), "set_sizes"),
        ([0, 1], (2, 0), "set_sizes"),
        ([0, 1], (1.5, 0.5), "set_sizes"),
        ([0, 1], (True, 1), "set_sizes"),
    ])
    def test_wrong_length_or_set_sizes_rejected(self, labels, sizes, message):
        with pytest.raises(ValueError, match=message) as info:
            Assignment(labels, sizes)
        assert type(info.value) is ValueError

    def test_labels_canonical_and_entries_one_hot(self):
        a = Assignment(["b", "a", "b"], (1, 2))
        assert a.labels == (0, 1, 0)
        assert a.num_clusters == 2
        np.testing.assert_array_equal(a.entries, [[1, 0], [0, 1], [1, 0]])
        assert a.entries.dtype == np.int64
        with pytest.raises(ValueError):
            a.entries[0, 0] = 0

    def test_canonical_labels_first_appearance(self):
        assert canonical_labels([5, 2, 5, 7]) == (0, 1, 0, 2)

    def test_equality_compares_entries(self):
        # equality is of the clustering, whatever the raw labels
        a = Assignment([0, 1, 1, 0], (2, 2))
        assert a == Assignment([0, 1, 1, 0], (2, 2)) == Assignment([5, 2, 2, 5], (2, 2))
        assert a != Assignment([0, 1, 0, 1], (2, 2))
        assert (Assignment([0, 1, 2, 3], (2, 2))
                != Assignment([0, 1, 2, 3], (1, 3)))
        truth = GroundTruth.from_labels([0, 1, 1, 0], (2, 2))
        assert truth == GroundTruth.from_labels([0, 1, 1, 0], (2, 2))
        assert truth != GroundTruth.from_labels([0, 1, 0, 1], (2, 2))


class TestPairwiseTable:
    def test_block_values(self):
        # block (0, 1) is [[0, 1], [1, 0]], block (1, 0) its transpose and the
        # within-set blocks zero
        a = Assignment([0, 1, 1, 0], (2, 2))
        table = pairwise_from_assignment(a)
        np.testing.assert_array_equal(table.match, [[0, 0, 0, 1], [0, 0, 1, 0],
                                                    [0, 1, 0, 0], [1, 0, 0, 0]])

    def test_equality_compares_match(self):
        table = pairwise_from_assignment(Assignment([0, 1, 1, 0], (2, 2)))
        assert table == pairwise_from_assignment(
            Assignment([0, 1, 1, 0], (2, 2)))
        assert table != pairwise_from_assignment(
            Assignment([0, 1, 2, 3], (2, 2)))

    def test_from_assignment_is_cross_set_part_of_u_ut(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            sizes = tuple(int(s) for s in rng.integers(1, 5, size=rng.integers(1, 5)))
            a = random_feasible_assignment(rng, sizes)
            set_index = np.repeat(np.arange(len(sizes)), sizes)
            U = a.entries
            expected = (U @ U.T > 0) & (set_index[:, None] != set_index[None, :])
            np.testing.assert_array_equal(pairwise_from_assignment(a).match, expected)

    def test_rejects_nonbinary_block(self):
        with pytest.raises(ValueError, match="binary"):
            PairwiseTable(set_sizes=(1, 1), match=np.array([[0.0, 0.4], [0.4, 0.0]]))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3-by-3"):
            PairwiseTable(set_sizes=(1, 1, 1), match=np.zeros((2, 2)))

    @pytest.mark.parametrize("sizes", [(1.5, 0.5), (True, 1)])
    def test_rejects_non_integer_set_sizes(self, sizes):
        with pytest.raises(ValueError, match="set_sizes"):
            PairwiseTable(set_sizes=sizes, match=np.zeros((2, 2)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            PairwiseTable(set_sizes=(1, 1), match=np.array([[0, 1], [0, 0]]))

    def test_within_set_entries_zeroed(self):
        table = PairwiseTable(set_sizes=(2, 1), match=np.ones((3, 3)))
        assert table.match.dtype == bool
        np.testing.assert_array_equal(table.match, [[0, 0, 1], [0, 0, 1], [1, 1, 0]])
        with pytest.raises(ValueError):
            table.match[0, 2] = False

    def test_rejects_row_sum_above_one(self):
        match = np.zeros((4, 4))
        match[0, 2:] = match[2:, 0] = 1
        table = PairwiseTable(set_sizes=(2, 2), match=match)
        with pytest.raises(ValueError, match="element 0 matches more than one element of set 1"):
            check_cycle_consistency(table)


class TestCycleConsistency:
    def test_consistent_triangle(self):
        a = Assignment([0, 0, 0], (1, 1, 1))
        assert check_cycle_consistency(pairwise_from_assignment(a))

    def test_broken_triangle(self):
        match = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        assert not check_cycle_consistency(PairwiseTable(set_sizes=(1, 1, 1), match=match))

    def test_random_assignments_are_cycle_consistent(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            sizes = tuple(int(rng.integers(1, 6)) for _ in range(n))
            if sum(sizes) > 30:
                continue
            a = random_feasible_assignment(rng, sizes)
            assert check_cycle_consistency(pairwise_from_assignment(a))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cycle_consistency_is_transitivity_property(data):
    # the row test against the definition: R = match | I is transitive,
    # (R R > 0) within R, unless an element matches two of one set
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    sizes = tuple(data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)))
    m = sum(sizes)
    if data.draw(st.booleans()):
        U = random_feasible_assignment(rng, sizes).entries.astype(np.int64)
        match = U @ U.T
    else:
        match = np.zeros((m, m), dtype=np.int64)
    for _ in range(data.draw(st.integers(0, 3))):
        a, b = rng.integers(0, m, 2)
        match[a, b] = match[b, a] = 1 - match[a, b]
    table = PairwiseTable(sizes, match)
    set_index = np.repeat(np.arange(len(sizes)), sizes)
    per_set = np.zeros((m, len(sizes)), dtype=np.int64)
    np.add.at(per_set, (slice(None), set_index), table.match.astype(np.int64))
    if (per_set > 1).any():
        with pytest.raises(ValueError):
            check_cycle_consistency(table)
        return
    R = (table.match | np.eye(m, dtype=bool)).astype(np.int64)
    assert check_cycle_consistency(table) == bool(((R @ R > 0) <= (R > 0)).all())


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_assignment_clusters_roundtrip_property(data):
    # a labeling relabeled by permuted ints or by strings is the same
    # clustering: same canonical labels, same U U^T, equal assignments
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    n = data.draw(st.integers(1, 5))
    sizes = tuple(data.draw(st.integers(1, 4)) for _ in range(n))
    base = random_feasible_assignment(rng, sizes)
    perm = rng.permutation(base.num_clusters) + 7
    for raw in ([int(perm[x]) for x in base.labels], [f"obj{x}" for x in base.labels]):
        a = Assignment(raw, sizes)
        labels = a.labels
        assert labels == base.labels
        assert all(x <= max(labels[:i], default=-1) + 1 for i, x in enumerate(labels))
        np.testing.assert_array_equal(a.entries @ a.entries.T,
                                      np.equal.outer(labels, labels))
        assert a == base and hash(a) == hash(base)
    # any raw labeling: accepted exactly when no set repeats a label
    m = sum(sizes)
    raw = data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    set_index = np.repeat(np.arange(n), sizes).tolist()
    if len(set(zip(raw, set_index))) == m:
        assert Assignment(raw, sizes).labels == canonical_labels(raw)
    else:
        with pytest.raises(InfeasibleAssignmentError):
            Assignment(raw, sizes)
