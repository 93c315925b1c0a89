"""Exact minimization of the association objective on small instances.

Feasible assignments correspond to partitions of the elements in which no
two elements of one set share a cluster.  They are enumerated as restricted
growth strings: element t either joins an existing cluster (in creation
order) or opens a new one, skipping clusters that already contain an
element of t's set.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from math import comb, perm
from typing import Iterator, Sequence

import numpy as np

from .core import Assignment, Instance, assignment_from_clusters
from .relax import build_relaxation, frobenius_objective

# Two objective values within this distance count as tied; ties go to the
# first assignment in enumeration order.
TIE_TOL = 1e-9


class InstanceTooLargeError(ValueError):
    """The instance exceeds the exhaustive-search element cap."""


@dataclass(frozen=True)
class OracleConfig:
    max_elements: int = 12
    report_all_optima: bool = False

    def __post_init__(self) -> None:
        if self.max_elements < 1:
            raise ValueError("max_elements must be positive")


@dataclass(frozen=True)
class OracleResult:
    """First optimal assignment in enumeration order and its exact value.

    ``optima`` holds every assignment within TIE_TOL of the optimum when
    report_all_optima is set, otherwise just the returned one.
    """

    assignment: Assignment
    value: float
    optima: tuple[Assignment, ...]


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
        yield assignment_from_clusters(labels, instance.set_sizes)


def solve_exact(instance: Instance,
                config: OracleConfig | None = None) -> OracleResult:
    """Exhaustively minimize the association objective.

    Walks the restricted-growth tree with an incremental pair-sum objective
    and prunes subtrees whose admissible lower bound cannot beat the best
    leaf seen; the pruning never discards the first optimum.  The returned
    value is recomputed from scratch as a cross-check on the incremental
    arithmetic.
    """
    cfg = config if config is not None else OracleConfig()
    _check_cap(instance, cfg)
    data = build_relaxation(instance)
    abar = data.abar
    m = instance.num_elements
    set_index = [int(s) for s in instance.set_index]
    base = data.frob_const

    # Admissible bound on the pair-sum still to come at depth t: each not yet
    # decided cross-set pair contributes at least min(0, 2 * abar[a, b]).
    per_element = [0.0] * m
    for b in range(m):
        acc = 0.0
        for a in range(b):
            if set_index[a] != set_index[b]:
                acc += min(0.0, 2.0 * abar[a, b])
        per_element[b] = acc
    lower = [0.0] * (m + 1)
    for t in range(m - 1, -1, -1):
        lower[t] = lower[t + 1] + per_element[t]

    abar_rows = abar.tolist()
    labels = [0] * m
    clusters: list[list[int]] = []
    cluster_sets: list[int] = []
    collect_all = cfg.report_all_optima

    best_value = np.inf          # exact running minimum, used for pruning
    kept: list[int] | None = None
    kept_value = np.inf
    candidates: list[tuple[float, list[int]]] = []

    def rec(t: int, pairsum: float) -> None:
        nonlocal best_value, kept, kept_value
        bound = pairsum + lower[t]
        if collect_all:
            if bound > best_value + TIE_TOL:
                return
        elif bound >= best_value:
            return
        if t == m:
            if pairsum < best_value:
                best_value = pairsum
            if collect_all and pairsum <= best_value + TIE_TOL:
                candidates.append((pairsum, labels.copy()))
            if kept is None or pairsum < kept_value - 1e-12:
                kept = labels.copy()
                kept_value = pairsum
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
    if collect_all:
        vmin = min(v for v, _ in candidates)
        tied = [(v, lab) for v, lab in candidates if v <= vmin + TIE_TOL]
        first_value, first_labels = tied[0]
        optima = tuple(
            assignment_from_clusters(lab, instance.set_sizes) for _, lab in tied)
        assignment = optima[0]
    else:
        assert kept is not None
        first_value, first_labels = kept_value, kept
        assignment = assignment_from_clusters(first_labels, instance.set_sizes)
        optima = (assignment,)
    value = frobenius_objective(assignment.entries, instance)
    incremental = base + first_value
    if abs(value - incremental) > 1e-8 * max(1.0, abs(value)):
        raise RuntimeError(
            f"incremental objective {incremental} disagrees with recomputed {value}")
    return OracleResult(assignment=assignment, value=value, optima=optima)
