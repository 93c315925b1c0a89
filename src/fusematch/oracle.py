"""Exact minimization of the association objective on small instances.

Feasible assignments correspond to partitions of the elements in which no
two elements of one set share a cluster.  They are enumerated as restricted
growth strings: element t either joins an existing cluster (in creation
order) or opens a new one, skipping clusters that already contain an
element of t's set.  solve_exact searches the same tree with a
branch-and-bound and returns the first optimum in this order: objective
values within TIE_TOL of the minimum count as tied, and ties go to the
earliest assignment.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb, perm
from typing import Iterator, Sequence

import numpy as np

from .core import Assignment, Instance, _check_counts
from .relax import _labelling_values, build_relaxation

# Two objective values within this distance count as tied; ties go to the
# first assignment in enumeration order.
TIE_TOL = 1e-9


class InstanceTooLargeError(ValueError):
    """The instance exceeds the exhaustive-search element cap."""


@dataclass(frozen=True)
class OracleConfig:
    max_elements: int = 12

    def __post_init__(self) -> None:
        _check_counts(self, max_elements=1)


@dataclass(frozen=True)
class OracleResult:
    """First optimal assignment in enumeration order and its exact value."""

    assignment: Assignment
    value: float


def count_feasible(set_sizes: Sequence[int]) -> int:
    """Count feasible partitions by absorbing one set at a time.

    With c clusters built so far, k of the incoming set's s elements join
    distinct existing clusters (comb(s, k) * perm(c, k) ways) and the rest
    open singletons.  This recurrence is independent of the enumeration
    order used elsewhere in this module.
    """
    dist = {0: 1}
    for s in set_sizes:
        s = int(s)
        nxt: dict[int, int] = defaultdict(int)
        for c, ways in dist.items():
            for k in range(min(s, c) + 1):
                nxt[c + s - k] += ways * comb(s, k) * perm(c, k)
        dist = dict(nxt)
    return sum(dist.values())


def _check_cap(instance: Instance, config: OracleConfig) -> None:
    m = instance.num_elements
    if m > config.max_elements:
        raise InstanceTooLargeError(
            f"instance has {m} elements, exhaustive search is capped at "
            f"{config.max_elements}; raise max_elements explicitly to override")


def _iter_labelings(set_index: Sequence[int]) -> Iterator[list[int]]:
    """All distinctness-respecting labelings in restricted-growth order."""
    m = len(set_index)
    labels = [0] * m
    cluster_sets: list[int] = []

    def rec(t: int) -> Iterator[list[int]]:
        if t == m:
            yield labels.copy()
            return
        bit = 1 << set_index[t]
        for c, mask in enumerate(cluster_sets):
            if mask & bit:
                continue
            labels[t] = c
            cluster_sets[c] = mask | bit
            yield from rec(t + 1)
            cluster_sets[c] = mask
        labels[t] = len(cluster_sets)
        cluster_sets.append(bit)
        yield from rec(t + 1)
        cluster_sets.pop()

    yield from rec(0)


def enumerate_feasible(instance: Instance,
                       config: OracleConfig | None = None) -> Iterator[Assignment]:
    """Yield every feasible assignment of the instance, in canonical order."""
    cfg = config if config is not None else OracleConfig()
    _check_cap(instance, cfg)
    set_index = [int(s) for s in instance.set_index]
    for labels in _iter_labelings(set_index):
        yield Assignment(labels, instance.set_sizes)


def solve_exact(instance: Instance,
                config: OracleConfig | None = None) -> OracleResult:
    """Exhaustively minimize the association objective.

    Walks the restricted-growth tree with an incremental pair-sum objective
    and prunes subtrees whose admissible lower bound is not below the best
    leaf seen.  Returns the first assignment in enumeration order within
    TIE_TOL of the minimum: every leaf before it lies above it, so the
    pruning never discards it.  The returned value is recomputed from the
    whole assignment's stored pairs, a formula independent of the abar rows
    the search reads, as a cross-check on the incremental arithmetic; the
    pairs' fused values are the ones ``build_relaxation`` filled abar from.
    """
    cfg = config if config is not None else OracleConfig()
    _check_cap(instance, cfg)
    data = build_relaxation(instance)
    abar = data.abar
    m = instance.num_elements
    set_index = [int(s) for s in instance.set_index]

    # Admissible bound on the pair-sum still to come at depth t: each not yet
    # decided cross-set pair (a < b, b >= t) contributes at least
    # min(0, 2 * abar[a, b]).
    cross = np.not_equal.outer(instance.set_index, instance.set_index)
    per_element = np.tril(np.minimum(0.0, 2.0 * abar) * cross, -1).sum(axis=1)
    lower = np.append(np.cumsum(per_element[::-1])[::-1], 0.0).tolist()

    abar_rows = abar.tolist()
    labels = [0] * m
    clusters: list[list[int]] = []
    cluster_sets: list[int] = []
    best_value = np.inf
    improving: list[tuple[float, list[int]]] = []   # each strictly better leaf

    def rec(t: int, pairsum: float) -> None:
        nonlocal best_value
        if pairsum + lower[t] >= best_value:
            return
        if t == m:
            best_value = pairsum
            improving.append((pairsum, labels.copy()))
            return
        row = abar_rows[t]
        bit = 1 << set_index[t]
        for c in range(len(clusters)):
            if cluster_sets[c] & bit:
                continue
            delta = 2.0 * sum(row[b] for b in clusters[c])
            labels[t] = c
            clusters[c].append(t)
            cluster_sets[c] |= bit
            rec(t + 1, pairsum + delta)
            clusters[c].pop()
            cluster_sets[c] &= ~bit
        labels[t] = len(clusters)
        clusters.append([t])
        cluster_sets.append(bit)
        rec(t + 1, pairsum)
        clusters.pop()
        cluster_sets.pop()

    rec(0, 0.0)
    pairsum, first = next((v, lab) for v, lab in improving if v <= best_value + TIE_TOL)
    value = _labelling_values(first, data, 0.0)[0]
    incremental = data.frob_const + pairsum
    if abs(value - incremental) > 1e-8 * max(1.0, abs(value)):
        raise RuntimeError(
            f"incremental objective {incremental} disagrees with recomputed {value}")
    return OracleResult(assignment=Assignment(first, instance.set_sizes), value=value)
