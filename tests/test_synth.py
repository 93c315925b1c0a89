"""Synthetic instance generation and the multimodal evaluation suite."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from fusematch import (
    SynthConfig,
    build_relaxation,
    frobenius_objective,
    generate,
    multimodal_suite,
    restrict_modalities,
)
from fusematch.synth import MULTIMODAL_PROFILES, derive_seed


class TestConfigValidation:
    def test_ranges(self):
        with pytest.raises(ValueError):
            SynthConfig(universe_size=0, num_sets=2)
        with pytest.raises(ValueError):
            SynthConfig(universe_size=2, num_sets=2, observe_prob=0.0)
        with pytest.raises(ValueError):
            SynthConfig(universe_size=2, num_sets=2, flip_rate=1.5)

    @pytest.mark.parametrize("field, value", [
        ("universe_size", 2.5), ("num_sets", True), ("modality_count", 1.0),
        ("outliers_per_run", 1.5), ("rng_seed", 0.5)])
    def test_rejects_non_integer_counts(self, field, value):
        # 2.5 and 1.5 used to fail inside numpy with TypeError; num_sets=True
        # gave one set
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SynthConfig(**{"universe_size": 2, "num_sets": 2, field: value})

    @pytest.mark.parametrize("field, value", [
        ("noise_sigma", np.nan), ("inconclusive_rate", np.nan), ("flip_rate", np.nan),
        ("sigma_per_modality", (0.1, np.nan)), ("inconclusive_per_modality", (np.nan, 0.1)),
        ("flip_per_modality", (0.0, np.nan))])
    def test_rejects_nan(self, field, value):
        # generate's > 0 guards skip a draw whose rate is NaN, so NaN used to
        # mean 0: noise_sigma=nan gave the noise-free instance
        with pytest.raises(ValueError, match=field):
            SynthConfig(universe_size=3, num_sets=3, modality_count=2, rng_seed=4,
                        **{field: value})

    def test_per_modality_override_length(self):
        with pytest.raises(ValueError):
            SynthConfig(universe_size=2, num_sets=2, modality_count=2,
                        sigma_per_modality=(0.1,))

    def test_corruption_profile_broadcast(self):
        cfg = SynthConfig(universe_size=2, num_sets=2, modality_count=3,
                          noise_sigma=0.2, flip_rate=0.1)
        assert cfg.corruption_profile() == ((0.2, 0.0, 0.1),) * 3


class TestGenerate:
    def test_deterministic(self):
        cfg = SynthConfig(universe_size=4, num_sets=3, observe_prob=0.8,
                          noise_sigma=0.1, rng_seed=12)
        a_inst, a_truth = generate(cfg)
        b_inst, b_truth = generate(cfg)
        assert a_inst == b_inst
        assert a_truth.labels == b_truth.labels

    def test_full_observation_sizes(self):
        cfg = SynthConfig(universe_size=5, num_sets=3, rng_seed=0)
        inst, truth = generate(cfg)
        assert inst.set_sizes == (5, 5, 5)
        assert truth.labels == tuple(range(5)) * 3

    def test_outliers_round_robin(self):
        cfg = SynthConfig(universe_size=2, num_sets=3, outliers_per_run=4, rng_seed=0)
        inst, truth = generate(cfg)
        # outliers land in sets 0,1,2,0 and carry fresh identities
        assert inst.set_sizes == (4, 3, 3)
        outlier_labels = [x for x in truth.labels if x >= 2]
        assert sorted(outlier_labels) == [2, 3, 4, 5]

    def test_scores_lie_in_range(self):
        cfg = SynthConfig(universe_size=4, num_sets=4, noise_sigma=0.5,
                          flip_rate=0.3, inconclusive_rate=0.3, rng_seed=5)
        inst, _ = generate(cfg)
        assert ((inst.scores >= 0.0) & (inst.scores <= 1.0)).all()

    def test_arrays_golden_digest(self):
        # pins the pair order, the RNG stream and every drawn score
        cfg = SynthConfig(universe_size=6, num_sets=4, modality_count=2,
                          observe_prob=0.8, outliers_per_run=2, noise_sigma=0.15,
                          inconclusive_rate=0.15, flip_rate=0.05, rng_seed=2024)
        inst, truth = generate(cfg)
        assert inst.pairs.shape == (197, 2) and inst.scores.shape == (197, 2)
        h = hashlib.sha256()
        h.update(repr(inst.set_sizes).encode())
        h.update(inst.pairs.astype("<i8").tobytes())
        h.update(inst.scores.astype("<f8").tobytes())
        h.update(repr(truth.labels).encode())
        assert h.hexdigest() == (
            "99aba981f3901d369f212cb979754f794dd7346c21c760d641af026b01b8c9fc")

    def test_zero_corruption_truth_has_zero_residual(self):
        for seed in range(5):
            cfg = SynthConfig(universe_size=3, num_sets=4, observe_prob=0.9,
                              outliers_per_run=2, rng_seed=seed)
            inst, truth = generate(cfg)
            assert frobenius_objective(truth.assignment.entries, inst) == 0.0

    def test_empty_draw_exhausts_retries(self):
        cfg = SynthConfig(universe_size=1, num_sets=2, observe_prob=1e-12,
                          rng_seed=0)
        with pytest.raises(ValueError):
            generate(cfg)

    def test_all_masked_modality_is_neutral(self):
        # rate 1 masking turns a modality into pure 0.5, which contributes
        # nothing to the aggregate attraction matrix
        cfg = SynthConfig(universe_size=3, num_sets=2, modality_count=2,
                          inconclusive_per_modality=(1.0, 0.0), rng_seed=3)
        inst, _ = generate(cfg)
        single = restrict_modalities(inst, [1])
        both = build_relaxation(inst).abar
        alone = build_relaxation(single).abar
        # the masked modality shifts the diagonal by -1 and within-set
        # entries by +1 but leaves every cross-set entry untouched
        m = inst.num_elements
        cross = np.ones((m, m), dtype=bool)
        off = 0
        for size in inst.set_sizes:
            cross[off:off + size, off:off + size] = False
            off += size
        np.testing.assert_allclose(both[cross], alone[cross], atol=1e-12)

    def test_fused_attraction_is_sum_of_singles(self):
        cfg = SynthConfig(universe_size=3, num_sets=3, modality_count=3,
                          noise_sigma=0.2, flip_rate=0.1, rng_seed=9)
        inst, _ = generate(cfg)
        fused = build_relaxation(inst).abar
        parts = [build_relaxation(restrict_modalities(inst, [k])).abar
                 for k in range(3)]
        np.testing.assert_allclose(fused, sum(parts), atol=1e-12)


class TestRestrictModalities:
    def test_keeps_selected_columns(self):
        cfg = SynthConfig(universe_size=2, num_sets=2, modality_count=3,
                          noise_sigma=0.3, rng_seed=1)
        inst, _ = generate(cfg)
        sub = restrict_modalities(inst, [2, 0])
        assert sub.modality_count == 2
        np.testing.assert_array_equal(sub.pairs, inst.pairs)
        np.testing.assert_array_equal(sub.scores, inst.scores[:, [2, 0]])

    def test_rejects_bad_index(self):
        cfg = SynthConfig(universe_size=2, num_sets=2, rng_seed=0)
        inst, _ = generate(cfg)
        with pytest.raises(ValueError):
            restrict_modalities(inst, [1])
        with pytest.raises(ValueError):
            restrict_modalities(inst, [])


class TestMultimodalSuite:
    def test_structure(self):
        suite = multimodal_suite(7)
        assert len(suite) == 1 + len(MULTIMODAL_PROFILES)
        fused, truth = suite[0]
        assert fused.modality_count == len(MULTIMODAL_PROFILES)
        for k, (single, t) in enumerate(suite[1:]):
            assert single.modality_count == 1
            assert t.labels == truth.labels
            assert single.set_sizes == fused.set_sizes

    def test_restrictions_match_fused_scores(self):
        suite = multimodal_suite(3)
        fused, _ = suite[0]
        for k, (single, _) in enumerate(suite[1:]):
            # a restriction drops the pairs whose one score is the default
            kept = fused.scores[:, k] != 0.5
            np.testing.assert_array_equal(single.pairs, fused.pairs[kept])
            np.testing.assert_array_equal(single.scores[:, 0], fused.scores[kept, k])

    def test_deterministic(self):
        a = multimodal_suite(11)
        b = multimodal_suite(11)
        assert a[0][0] == b[0][0]
        assert a[0][1].labels == b[0][1].labels


class TestDeriveSeed:
    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(0, i, j) for i in range(6) for j in range(6)}
        assert len(seeds) == 36

    def test_stable(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
