"""Metrics, the Monte Carlo sweep, baselines, and the ablation study."""

from __future__ import annotations

import csv
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusematch import (
    Instance,
    MetricsReport,
    PairwiseTable,
    SynthConfig,
    all_pairs_matches,
    check_cycle_consistency,
    consecutive_matches,
    generate,
    optimality_gap,
    pair_metrics,
    percent_change,
    precision_recall,
)
from fusematch.bench import (
    GAP_CSV_COLUMNS,
    ablation,
    format_ablation_table,
    format_gap_table,
    monte_carlo_gap,
    write_ablation_csv,
    write_gap_csv,
)

SINGLETONS = (1,) * 8   # every pair of elements is a cross-set pair


def table(set_sizes, pairs) -> PairwiseTable:
    """Match table holding exactly the given (a, b) pairs, both ways round."""
    m = sum(set_sizes)
    match = np.zeros((m, m), dtype=bool)
    for a, b in pairs:
        match[a, b] = match[b, a] = True
    return PairwiseTable(set_sizes, match)


def reference_pairs(labels) -> set[tuple[int, int]]:
    """Element pairs (a, b), a < b, whose labels are equal."""
    return {(a, b) for a, b in combinations(range(len(labels)), 2)
            if labels[a] == labels[b]}


def reference_report(predicted: set, truth: set) -> MetricsReport:
    tp, fp, fn = len(predicted & truth), len(predicted - truth), len(truth - predicted)
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return MetricsReport(precision, recall, f1, tp, fp, fn)


# 1 and '1' are different labels; so are 0 and '0'
LABEL = st.one_of(st.integers(0, 3), st.sampled_from(["0", "1", "a", "b"]))


@st.composite
def labelings(draw):
    """Set sizes and two labelings of their elements."""
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
    labels = st.lists(LABEL, min_size=sum(sizes), max_size=sum(sizes))
    return sizes, draw(labels), draw(labels)


class TestPairMetrics:
    def test_perfect_prediction(self):
        truth = table(SINGLETONS, [(0, 1), (2, 3)])
        report = pair_metrics(truth, truth)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_half_and_quarter(self):
        # one true pair and one false pair predicted, out of four true pairs
        truth = table(SINGLETONS, [(0, 1), (2, 3), (4, 5), (6, 7)])
        predicted = table(SINGLETONS, [(0, 1), (0, 2)])
        report = pair_metrics(predicted, truth)
        assert report.precision == 0.5
        assert report.recall == 0.25
        assert (report.true_positives, report.false_positives,
                report.false_negatives) == (1, 1, 3)

    def test_empty_prediction_has_unit_precision(self):
        report = pair_metrics(table(SINGLETONS, []), table(SINGLETONS, [(0, 1)]))
        assert report.precision == 1.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_empty_truth_has_unit_recall(self):
        report = pair_metrics(table(SINGLETONS, [(0, 1)]), table(SINGLETONS, []))
        assert report.recall == 1.0
        assert report.precision == 0.0

    def test_both_empty(self):
        report = pair_metrics(table(SINGLETONS, []), table(SINGLETONS, []))
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.f1 == 1.0

    def test_set_size_mismatch_raises(self):
        with pytest.raises(ValueError, match="set sizes differ"):
            pair_metrics(table((2, 2), []), table((1, 3), []))


class TestAgainstReference:
    """Both metrics count the equal-label pairs that itertools enumerates;
    pair_metrics sees only those across sets."""

    @settings(max_examples=200, deadline=None)
    @given(labelings())
    def test_precision_recall(self, drawn):
        _, predicted, truth = drawn
        assert precision_recall(predicted, truth) == reference_report(
            reference_pairs(predicted), reference_pairs(truth))

    @settings(max_examples=200, deadline=None)
    @given(labelings())
    def test_pair_metrics(self, drawn):
        sizes, predicted, truth = drawn
        set_index = np.repeat(np.arange(len(sizes)), sizes)
        cross = {(a, b) for a, b in combinations(range(sum(sizes)), 2)
                 if set_index[a] != set_index[b]}
        pred_pairs, true_pairs = reference_pairs(predicted), reference_pairs(truth)
        assert pair_metrics(table(sizes, pred_pairs), table(sizes, true_pairs)) == (
            reference_report(pred_pairs & cross, true_pairs & cross))


class TestPrecisionRecall:
    def test_label_relabeling_invariance(self):
        a = precision_recall([0, 0, 1, 2], [5, 5, 9, 1])
        assert (a.precision, a.recall) == (1.0, 1.0)

    def test_split_cluster(self):
        # truth has one 3-cluster (3 pairs), prediction splits off one element
        report = precision_recall([0, 0, 1], [0, 0, 0])
        assert report.precision == 1.0
        assert report.recall == pytest.approx(1 / 3)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            precision_recall([0, 1], [0, 1, 2])

    def test_mixed_type_labels_stay_apart(self):
        # numpy would coerce [1, '1'] to two equal strings
        report = precision_recall([1, "1", 2], [0, 0, 1])
        assert (report.true_positives, report.false_negatives) == (0, 1)


class TestGapArithmetic:
    def test_small_excess(self):
        assert optimality_gap(1.005, 1.0) == pytest.approx(0.5)

    def test_exact_match_is_zero(self):
        assert optimality_gap(3.0, 3.0) == 0.0

    def test_tiny_negative_residue_clamps_to_zero(self):
        assert optimality_gap(1.0 - 1e-12, 1.0) == 0.0

    def test_solver_below_oracle_raises(self):
        with pytest.raises(ValueError):
            optimality_gap(0.9, 1.0)

    def test_percent_change_zero_when_both_vanish(self):
        assert percent_change(0.0, 0.0) == 0.0
        assert percent_change(1.1, 1.0) == pytest.approx(10.0)
        assert percent_change(0.9, 1.0) == pytest.approx(-10.0)


class TestMonteCarloGap:
    BASE = SynthConfig(universe_size=3, num_sets=3, modality_count=2,
                       noise_sigma=0.05, rng_seed=0)

    def test_zero_corruption_rows_are_all_zero(self):
        clean = SynthConfig(universe_size=3, num_sets=3, rng_seed=0)
        rows = monte_carlo_gap(clean, [0, 1], trials=5)
        for row in rows:
            assert row.gap_mean == 0.0
            assert row.gap_std == 0.0
            assert row.dp_mean == 0.0
            assert row.dr_mean == 0.0

    def test_row_shape_and_determinism(self):
        rows_a = monte_carlo_gap(self.BASE, [0, 2], trials=4)
        rows_b = monte_carlo_gap(self.BASE, [0, 2], trials=4)
        assert [r.outliers for r in rows_a] == [0, 2]
        for a, b in zip(rows_a, rows_b):
            assert a.gap_mean == b.gap_mean
            assert a.dp_mean == b.dp_mean
            assert a.dr_mean == b.dr_mean

    def test_gap_csv_roundtrip(self, tmp_path):
        rows = monte_carlo_gap(self.BASE, [0], trials=3)
        out = tmp_path / "gap.csv"
        write_gap_csv(rows, out)
        with out.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == list(GAP_CSV_COLUMNS)
        assert len(parsed) == 2
        assert float(parsed[1][1]) == pytest.approx(rows[0].gap_mean)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            monte_carlo_gap(self.BASE, [0, 1], trials)

    def test_format_gap_table_mentions_all_rows(self):
        rows = monte_carlo_gap(self.BASE, [0, 1], trials=2)
        text = format_gap_table(rows)
        assert "n_o" in text
        assert text.count("\n") >= 2  # header plus one line per n_o


class TestBaselines:
    def test_all_pairs_thresholds_mean_score(self):
        inst, _ = generate(SynthConfig(universe_size=2, num_sets=2, rng_seed=0))
        assert all_pairs_matches(inst) == table(inst.set_sizes, [(0, 2), (1, 3)])

    def test_consecutive_only_keeps_adjacent_sets(self):
        inst, _ = generate(SynthConfig(universe_size=2, num_sets=3, rng_seed=0))
        cons, full = consecutive_matches(inst).match, all_pairs_matches(inst).match
        for a, b in np.argwhere(cons):
            assert abs(inst.set_index[a] - inst.set_index[b]) == 1
        assert (cons <= full).all() and (cons != full).any()

    def test_threshold_baseline_can_break_consistency(self):
        # a noisy threshold baseline asserts a∼b and b∼c but not a∼c; the
        # solver never does
        inst, _ = generate(SynthConfig(universe_size=2, num_sets=3, rng_seed=0))
        match = all_pairs_matches(inst).match.copy()
        assert match[0, 4]
        match[0, 4] = match[4, 0] = False
        assert not check_cycle_consistency(PairwiseTable(inst.set_sizes, match))

    def test_within_set_pair_never_matches(self):
        inst = Instance(set_sizes=(2, 1), modality_count=1,
                        pairs=[(0, 1), (0, 2)], scores=[(0.9,), (0.9,)])
        assert all_pairs_matches(inst) == table((2, 1), [(0, 2)])


class TestAblation:
    def test_noiseless_profiles_give_perfect_f1(self):
        base = SynthConfig(universe_size=3, num_sets=3, observe_prob=1.0,
                           outliers_per_run=0)
        clean = ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        rows = ablation(trials=2, base_seed=0, base=base, profiles=clean)
        solver_rows = [r for r in rows if r.method == "solver"]
        assert solver_rows
        for row in solver_rows:
            assert row.f1_mean == pytest.approx(1.0)

    def test_row_structure(self):
        base = SynthConfig(universe_size=3, num_sets=3, observe_prob=0.9)
        profiles = ((0.05, 0.3, 0.0), (0.2, 0.0, 0.05))
        rows = ablation(trials=2, base_seed=1, base=base, profiles=profiles)
        subsets = {r.modalities for r in rows}
        assert (0,) in subsets and (1,) in subsets
        assert any(len(s) == 2 for s in subsets)
        methods = {r.method for r in rows}
        assert methods == {"solver", "all_pairs", "consecutive"}

    @pytest.mark.parametrize("trials", [0, -1])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            ablation(trials=trials)

    def test_ablation_csv(self, tmp_path):
        base = SynthConfig(universe_size=2, num_sets=3)
        profiles = ((0.0, 0.0, 0.0), (0.1, 0.0, 0.0))
        rows = ablation(trials=1, base_seed=0, base=base, profiles=profiles)
        out = tmp_path / "ablation.csv"
        write_ablation_csv(rows, out)
        with out.open() as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["modalities", "method", "f1_mean"]
        assert len(parsed) == len(rows) + 1
        text = format_ablation_table(rows)
        assert "solver" in text
