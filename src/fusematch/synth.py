"""Synthetic association instances with known ground truth.

A universe of objects is observed by n sets: each set samples every object
independently, then receives its round-robin share of outliers, which match
nothing.  True pair scores are 1 for same-object pairs and 0 otherwise;
per-modality corruption then flips scores, masks them to the inconclusive
0.5, and adds clipped Gaussian noise, in that order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import Assignment, Instance, _check_counts

_REDRAW_CAP = 100


def derive_seed(base_seed: int, *key: int) -> int:
    """Stable per-trial seed from a base seed and integer coordinates."""
    seq = np.random.SeedSequence([int(base_seed), *[int(k) for k in key]])
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs.

    noise_sigma, inconclusive_rate and flip_rate apply to every modality
    unless the matching *_per_modality tuple overrides them.
    """

    universe_size: int
    num_sets: int
    modality_count: int = 1
    observe_prob: float = 1.0
    outliers_per_run: int = 0
    noise_sigma: float = 0.0
    inconclusive_rate: float = 0.0
    flip_rate: float = 0.0
    sigma_per_modality: tuple[float, ...] | None = None
    inconclusive_per_modality: tuple[float, ...] | None = None
    flip_per_modality: tuple[float, ...] | None = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        _check_counts(self, universe_size=1, num_sets=1, modality_count=1,
                      outliers_per_run=0, rng_seed=0)
        if not 0 < self.observe_prob <= 1:
            raise ValueError("observe_prob must lie in (0, 1]")
        # every range test fails on NaN, which generate's > 0 guards would
        # read as 0
        if not self.noise_sigma >= 0:
            raise ValueError("noise_sigma must be nonnegative")
        if not 0 <= self.inconclusive_rate <= 1:
            raise ValueError("inconclusive_rate must lie in [0, 1]")
        if not 0 <= self.flip_rate <= 1:
            raise ValueError("flip_rate must lie in [0, 1]")
        for name in ("sigma_per_modality", "inconclusive_per_modality", "flip_per_modality"):
            raw = getattr(self, name)
            if raw is None:
                continue
            values = tuple(float(x) for x in raw)
            if len(values) != self.modality_count:
                raise ValueError(f"{name} must list one value per modality")
            if not all(x >= 0 and (name == "sigma_per_modality" or x <= 1) for x in values):
                raise ValueError(f"{name} values out of range")
            object.__setattr__(self, name, values)

    def corruption_profile(self) -> tuple[tuple[float, float, float], ...]:
        """Per-modality (sigma, inconclusive rate, flip rate)."""
        sigmas = self.sigma_per_modality or (self.noise_sigma,) * self.modality_count
        rhos = self.inconclusive_per_modality or (self.inconclusive_rate,) * self.modality_count
        phis = self.flip_per_modality or (self.flip_rate,) * self.modality_count
        return tuple(zip(sigmas, rhos, phis))


@dataclass(frozen=True)
class GroundTruth:
    """True object identity per element; outliers get unique identities."""

    labels: tuple[int, ...]
    assignment: Assignment

    @classmethod
    def from_labels(cls, labels: Sequence[int], set_sizes: Sequence[int]) -> "GroundTruth":
        labels = tuple(int(x) for x in labels)
        return cls(labels=labels, assignment=Assignment(labels, set_sizes))


def generate(config: SynthConfig) -> tuple[Instance, GroundTruth]:
    """Draw one instance and its ground truth, deterministically per seed."""
    rng = np.random.default_rng(config.rng_seed)
    n, universe = config.num_sets, config.universe_size
    outlier_ids: list[list[int]] = [[] for _ in range(n)]
    for j in range(config.outliers_per_run):
        outlier_ids[j % n].append(universe + j)
    labels: list[int] = []
    set_sizes: list[int] = []
    for i in range(n):
        for _ in range(_REDRAW_CAP):
            mask = rng.random(universe) < config.observe_prob
            if mask.any() or outlier_ids[i]:
                break
        else:
            raise ValueError(
                f"set {i} drew no elements in {_REDRAW_CAP} attempts; "
                "raise observe_prob or add outliers")
        ids = [int(o) for o in np.flatnonzero(mask)] + outlier_ids[i]
        labels.extend(ids)
        set_sizes.append(len(ids))
    m = sum(set_sizes)
    set_index = np.repeat(np.arange(n), set_sizes)
    # cross-set pairs a < b in row-major order: (0, m_0), ..., (1, m_0), ...
    a, b = np.nonzero(np.triu(set_index[:, None] != set_index[None, :]))
    true_scores = np.equal.outer(labels, labels)[a, b].astype(float)
    table = np.empty((len(a), config.modality_count))
    for k, (sigma, rho, phi) in enumerate(config.corruption_profile()):
        s = true_scores.copy()
        if len(a):
            if phi > 0:
                flip = rng.random(len(a)) < phi
                s[flip] = 1.0 - s[flip]
            if rho > 0:
                masked = rng.random(len(a)) < rho
                s[masked] = 0.5
            if sigma > 0:
                s = np.clip(s + rng.normal(0.0, sigma, len(a)), 0.0, 1.0)
        table[:, k] = s
    instance = Instance(tuple(set_sizes), config.modality_count,
                        np.column_stack((a, b)), table)
    return instance, GroundTruth.from_labels(labels, set_sizes)


def restrict_modalities(instance: Instance, modalities: Sequence[int]) -> Instance:
    """Sub-instance keeping only the listed modalities, in the given order."""
    kept = [int(k) for k in modalities]
    if not kept:
        raise ValueError("at least one modality must be kept")
    for k in kept:
        if not 0 <= k < instance.modality_count:
            raise ValueError(f"modality {k} out of range")
    return Instance(instance.set_sizes, len(kept), instance.pairs,
                    instance.scores[:, kept])


# Heterogeneous corruption profiles: (sigma, inconclusive rate, flip rate).
MULTIMODAL_PROFILES: tuple[tuple[float, float, float], ...] = (
    (0.02, 0.60, 0.00),   # precise but frequently inconclusive
    (0.45, 0.00, 0.00),   # complete but noisy
    (0.05, 0.50, 0.08),   # sparse and occasionally inverted
    (0.35, 0.40, 0.03),   # weak all around
)

DEFAULT_SUITE_BASE = SynthConfig(universe_size=6, num_sets=4, observe_prob=0.85,
                                 outliers_per_run=2)


def multimodal_suite(seed: int, *,
                     base: SynthConfig = DEFAULT_SUITE_BASE,
                     profiles: Sequence[tuple[float, float, float]] = MULTIMODAL_PROFILES,
                     ) -> list[tuple[Instance, GroundTruth]]:
    """Fused multimodality instance plus its single-modality restrictions.

    Entry 0 carries all modalities; entry k (1-based) keeps only modality
    k - 1.  All entries share one ground truth, so per-modality solves are
    directly comparable to the fused solve.
    """
    profiles = tuple(tuple(float(x) for x in p) for p in profiles)
    config = replace(
        base,
        modality_count=len(profiles),
        sigma_per_modality=tuple(p[0] for p in profiles),
        inconclusive_per_modality=tuple(p[1] for p in profiles),
        flip_per_modality=tuple(p[2] for p in profiles),
        rng_seed=seed)
    instance, truth = generate(config)
    suite = [(instance, truth)]
    for k in range(len(profiles)):
        suite.append((restrict_modalities(instance, [k]), truth))
    return suite
