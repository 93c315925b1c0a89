"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from fusematch import Assignment, Instance, SynthConfig, generate, relaxed_objective
from fusematch import solver


def qp_projection_oracle(y: np.ndarray) -> np.ndarray:
    """Brute-force projection onto {x >= 0, sum(x) <= 1} by active-set enumeration.

    For each support set S and each cap state, solve the equality-constrained
    least squares in closed form and keep the feasible candidate closest to y.
    """
    n = len(y)
    best, best_dist = np.zeros(n), float(np.dot(y, y))
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            s = list(support)
            # interior of the cap: x_S = y_S clamped to the support
            x = np.zeros(n)
            x[s] = y[s]
            if np.all(x[s] > 0) and x.sum() <= 1 + 1e-12:
                dist = float(np.sum((x - y) ** 2))
                if dist < best_dist - 1e-15:
                    best, best_dist = x, dist
            # cap active: x_S = y_S - tau with sum exactly 1
            tau = (np.sum(y[s]) - 1.0) / r
            x = np.zeros(n)
            x[s] = y[s] - tau
            if np.all(x[s] >= -1e-12):
                x = np.clip(x, 0.0, None)
                dist = float(np.sum((x - y) ** 2))
                if dist < best_dist - 1e-15:
                    best, best_dist = x, dist
    return best


def polarized_curvature(D: np.ndarray, data, d: float) -> float:
    """q in f(U + t D) = f(U) + t <grad, D> + t^2 q, from relaxed_objective
    alone: the quadratic part Q(X) = f(X) + 2 d sum(X) at D, by polarization
    over D's positive and negative parts, as relaxed_objective takes no
    negative argument; f(U + D) - f(U) - slope would lose it to cancellation
    against f(U)."""
    def quadratic_part(X):
        return relaxed_objective(X, data, d) + 2.0 * d * X.sum()

    pos, neg = np.maximum(D, 0.0), np.maximum(-D, 0.0)
    return 2.0 * quadratic_part(pos) + 2.0 * quadratic_part(neg) - quadratic_part(pos + neg)


def random_feasible_assignment(rng: np.random.Generator, set_sizes: tuple[int, ...]) -> Assignment:
    """Sample a uniformly-ish random feasible assignment for the given set sizes.

    Elements are scanned in order; each picks an existing cluster that has no
    member from its own set yet, or opens a new one.
    """
    labels: list[int] = []
    used_by_cluster: list[set[int]] = []
    for set_idx, size in enumerate(set_sizes):
        for _ in range(size):
            open_clusters = [
                c for c, used in enumerate(used_by_cluster) if set_idx not in used
            ]
            choices = len(open_clusters) + 1
            pick = int(rng.integers(choices))
            if pick == len(open_clusters):
                labels.append(len(used_by_cluster))
                used_by_cluster.append({set_idx})
            else:
                c = open_clusters[pick]
                labels.append(c)
                used_by_cluster[c].add(set_idx)
    return Assignment(labels, set_sizes)


def random_instance(rng: np.random.Generator, *, max_universe: int = 4,
                    max_sets: int = 4, max_modalities: int = 3) -> Instance:
    """A small random corrupted instance, sized for oracle use."""
    cfg = SynthConfig(
        universe_size=int(rng.integers(2, max_universe + 1)),
        num_sets=int(rng.integers(2, max_sets + 1)),
        modality_count=int(rng.integers(1, max_modalities + 1)),
        observe_prob=float(rng.uniform(0.7, 1.0)),
        outliers_per_run=int(rng.integers(0, 3)),
        noise_sigma=float(rng.uniform(0.0, 0.2)),
        inconclusive_rate=float(rng.uniform(0.0, 0.3)),
        flip_rate=float(rng.uniform(0.0, 0.1)),
        rng_seed=int(rng.integers(0, 2**31)),
    )
    instance, _ = generate(cfg)
    return instance


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def forced_repair(monkeypatch):
    """A penalty weight schedule far below anything that binds, 1e-9 and
    2e-9 per modality, so that solves end in the greedy repair."""
    monkeypatch.setattr(solver, "D_INIT", 1e-9)
    monkeypatch.setattr(solver, "D_MAX", 2e-9)
