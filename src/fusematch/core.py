"""Problem data and feasibility machinery for multiway association.

Elements carry global indices: the p-th element of set i sits at
offset(i) + p where offset(i) = m_0 + ... + m_{i-1}.  An instance stores its
scores as two arrays, the element pairs (P, 2) and their per-modality
scores (P, K); every other layer reads those arrays.  An assignment is a
cluster label per element; elements that share a label are claimed to be
views of the same underlying object.  Its one-hot matrix U has one row per
element and one column per cluster.
Pairwise matches are one symmetric boolean m-by-m matrix, the cross-set
part of U U^T for an assignment U; they are cycle consistent exactly when
they are that for some one-hot U.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate
from numbers import Integral
from typing import Callable, Iterable, Sequence

import numpy as np

# Score of a pair nobody measured: across sets we know nothing, within a
# set the elements are distinct objects by construction.
CROSS_SET_DEFAULT = 0.5
WITHIN_SET_DEFAULT = 0.0


def _value_eq(self, other: object) -> bool:
    """Dataclass equality that compares ndarray fields with np.array_equal
    and the rest with ==; the generated __eq__ raises on array fields."""
    if type(other) is not type(self):
        return NotImplemented
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
               for x, y in ((getattr(self, f.name), getattr(other, f.name))
                            for f in fields(self)))


def _is_integer(value: object) -> bool:
    """A Python or numpy integer, not a bool: int() would turn 1.5 into 1
    and True into 1."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_counts(config: object, **minimums: int) -> None:
    """Each named config field must be an integer no less than its minimum;
    the ValueError names the field.  A float would fail later, deep inside
    numpy, and a bool would pass for 0 or 1."""
    for name, minimum in minimums.items():
        value = getattr(config, name)
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < minimum:
            raise ValueError(f"{name} must be at least {minimum}")


# the most elements m whose pair keys a * m + b, up to m * m - 1, fit int64
MAX_ELEMENTS = math.isqrt(np.iinfo(np.int64).max)


def _check_sizes(set_sizes: Sequence[int],
                 error: Callable[[str], Exception] = ValueError) -> tuple[int, ...]:
    """``set_sizes`` as a tuple of ints; raises ``error(message)`` unless it
    lists at least one set, every size is an integer of at least 1, and
    they sum to at most MAX_ELEMENTS."""
    sizes = tuple(set_sizes) if isinstance(set_sizes, Iterable) else ()
    if not sizes or not all(_is_integer(s) and s >= 1 for s in sizes):
        raise error("set_sizes: expected positive integers")
    sizes = tuple(int(s) for s in sizes)
    m = sum(sizes)
    if m > MAX_ELEMENTS:
        raise error(f"set_sizes: {m} elements, more than the {MAX_ELEMENTS} "
                    f"whose pair keys a * m + b fit int64")
    return sizes


class InvalidInstanceError(ValueError):
    """Instance data violates its invariants."""


class InfeasibleAssignmentError(ValueError):
    """An assignment breaks the one-to-one or distinctness constraints."""


@dataclass(frozen=True, eq=False)
class Instance:
    """A multiway association problem.

    Row i of ``pairs`` names an element pair (a, b) with 0 <= a < b < m,
    no pair in two rows, and row i of ``scores`` holds its score in each
    modality, each in [0, 1]: 1 is maximal similarity, 0 maximal
    dissimilarity, 0.5 carries no information.  Pairs without a row default
    to 0.5 across sets and 0 within a set; self-similarity is always 1.
    Faulty rows raise InvalidInstanceError at the lowest one, "entry i",
    with its first fault in the order indices, scores, duplicate pair.
    Construction stores read-only copies, int64 (P, 2) ``pairs`` sorted by
    (a, b) and float64 (P, K) ``scores``, and drops rows equal to their
    pair's default, so equal problems compare equal.  Rows are sorted only
    when they arrive out of (a, b) order; ``generate`` and the file reader
    hand them over in order.
    """

    set_sizes: tuple[int, ...]
    modality_count: int
    pairs: np.ndarray = ()
    scores: np.ndarray = ()

    def __post_init__(self) -> None:
        sizes = _check_sizes(self.set_sizes, InvalidInstanceError)
        count = self.modality_count
        if not _is_integer(count) or count < 1:
            raise InvalidInstanceError(
                f"modality_count must be an integer of at least 1, got {count!r}")
        count = int(count)
        object.__setattr__(self, "set_sizes", sizes)
        object.__setattr__(self, "modality_count", count)
        pairs, scores = np.asarray(self.pairs), np.asarray(self.scores)
        pairs = pairs.reshape(0, 2) if pairs.size == 0 else pairs
        scores = scores.reshape(0, count) if scores.size == 0 else scores
        if (pairs.ndim != 2 or pairs.shape[1] != 2 or scores.shape != (len(pairs), count)
                or (len(pairs) and pairs.dtype.kind not in "iu")
                or scores.dtype.kind not in "iuf"):
            raise InvalidInstanceError(
                f"expected (P, 2) integer pairs and (P, {count}) numeric scores, "
                f"got shapes {pairs.shape} and {scores.shape}")
        pairs = pairs.astype(np.int64, copy=False)
        scores = scores.astype(np.float64, copy=False)
        m = sum(sizes)
        a, b = pairs[:, 0], pairs[:, 1]
        # a * m + b orders sound rows as (a, b) does, one key per pair.  Only
        # rows with an index out of range can wrap past int64 (silently, as
        # array arithmetic does) or share a key with another pair, and such
        # a row is named before any repeat its key could fake after it.
        key = a * m + b
        in_order = bool((key[1:] > key[:-1]).all())   # sorted, and no row repeats
        repeat = np.zeros(len(key), bool)
        if not in_order:
            order = np.argsort(key, kind="stable")   # a repeat sorts after its row
            ordered = key[order]
            repeat[order[1:]] = ordered[1:] == ordered[:-1]
        out_of_range = np.zeros(len(key), bool)
        for column in scores.T:
            out_of_range |= ~((column >= 0.0) & (column <= 1.0))   # NaN fails both
        faults = ((a < 0) | (a >= b) | (b >= m), out_of_range, repeat)
        bad = faults[0] | faults[1] | faults[2]
        if bad.any():
            i = int(np.argmax(bad))
            kind = [fault[i] for fault in faults].index(True)
            raise InvalidInstanceError(f"entry {i}: " + (
                f"indices must satisfy 0 <= a < b < {m}", "scores must lie in [0, 1]",
                f"duplicate pair ({a[i]}, {b[i]})")[kind])
        set_index = self.set_index
        default = np.where(set_index[a] == set_index[b], WITHIN_SET_DEFAULT,
                           CROSS_SET_DEFAULT)
        keep = np.zeros(len(key), bool)
        for column in scores.T:
            keep |= column != default
        # one gather, mask or copy per array: the instance shares no memory with
        # the caller, and int64 and float64 input is copied only here
        if not in_order:
            rows = order[keep[order]]
            pairs, scores = pairs[rows], scores[rows]
        elif keep.all():
            pairs, scores = pairs.copy(), scores.copy()
        else:
            pairs, scores = pairs[keep], scores[keep]
        for arr in (pairs, scores):
            arr.setflags(write=False)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "scores", scores)

    __eq__ = _value_eq

    @property
    def num_sets(self) -> int:
        return len(self.set_sizes)

    @property
    def num_elements(self) -> int:
        return sum(self.set_sizes)

    @cached_property
    def set_offsets(self) -> tuple[int, ...]:
        """Global index of the first element of each set."""
        offsets = [0]
        for size in self.set_sizes[:-1]:
            offsets.append(offsets[-1] + size)
        return tuple(offsets)

    @cached_property
    def set_index(self) -> np.ndarray:
        """Set membership of every element, as a length-m integer array."""
        idx = np.repeat(np.arange(self.num_sets), self.set_sizes)
        idx.setflags(write=False)
        return idx


@dataclass(frozen=True, eq=False)
class ModalityMatrices:
    """Dense symmetric score matrices, one m-by-m slice per modality."""

    mats: np.ndarray  # shape (modality_count, m, m)

    __eq__ = _value_eq


def build_modality_matrices(instance: Instance) -> ModalityMatrices:
    """Expand the stored pairs into per-modality dense matrices.

    Every slice is symmetric with unit diagonal; absent pairs take the
    cross-set or within-set default.  The package itself never forms this
    K-by-m-by-m stack: it is the reference that tests and the benchmark
    check the fused relaxation data against.
    """
    m, count = instance.num_elements, instance.modality_count
    mats = np.full((count, m, m), CROSS_SET_DEFAULT)
    for offset, size in zip(instance.set_offsets, instance.set_sizes):
        mats[:, offset:offset + size, offset:offset + size] = WITHIN_SET_DEFAULT
    diag = np.arange(m)
    mats[:, diag, diag] = 1.0
    (a, b), values = instance.pairs.T, instance.scores.T
    mats[:, np.r_[a, b], np.r_[b, a]] = np.hstack((values, values))
    mats.setflags(write=False)
    return ModalityMatrices(mats)


@dataclass(frozen=True)
class FeasibilityReport:
    """Constraint violations of a binary assignment matrix.

    ``row_violations`` lists rows whose sum is not exactly one;
    ``column_violations`` lists (set index, column) pairs where a set block
    puts more than one element into the same column.
    """

    row_violations: tuple[int, ...]
    column_violations: tuple[tuple[int, int], ...]

    @property
    def feasible(self) -> bool:
        return not self.row_violations and not self.column_violations


def feasibility_report(entries: np.ndarray, set_sizes: Sequence[int]) -> FeasibilityReport:
    """Check the one-to-one and distinctness constraints of a binary matrix."""
    U = np.asarray(entries)
    sizes = _check_sizes(set_sizes)   # reduceat needs increasing offsets
    m = sum(sizes)
    if U.ndim != 2 or U.shape[0] != m:
        raise ValueError(f"expected a matrix with {m} rows, got shape {U.shape}")
    if not ((U == 0) | (U == 1)).all():
        raise ValueError("assignment entries must be binary")
    rows = tuple(np.flatnonzero(U.sum(axis=1) != 1).tolist())
    column_sums = np.add.reduceat(U, list(accumulate(sizes[:-1], initial=0)), axis=0,
                                  dtype=np.int64)
    cols = tuple(map(tuple, np.argwhere(column_sums > 1).tolist()))
    return FeasibilityReport(rows, cols)


def check_feasible(entries: np.ndarray, instance: Instance) -> FeasibilityReport:
    """Feasibility of an assignment-shaped binary matrix for an instance."""
    return feasibility_report(entries, instance.set_sizes)


def canonical_labels(raw: Sequence) -> tuple[int, ...]:
    """Relabel arbitrary hashable labels to 0, 1, ... in first-appearance order."""
    mapping: dict = {}
    out = []
    for x in raw:
        if x not in mapping:
            mapping[x] = len(mapping)
        out.append(mapping[x])
    return tuple(out)


@dataclass(frozen=True)
class Assignment:
    """A clustering of the elements: ``labels[a]`` is element a's cluster.

    Construction takes any hashable labels and canonicalises them to 0, 1,
    ... in first-appearance order, so equal clusterings compare equal.  It
    rejects two elements of one set in one cluster; a label per element is
    one-to-one and cycle consistent by construction.
    """

    labels: tuple[int, ...]
    set_sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        sizes = _check_sizes(self.set_sizes)
        labels = canonical_labels(self.labels)
        if len(labels) != sum(sizes):
            raise ValueError(
                f"expected {sum(sizes)} labels for set sizes {sizes}, got {len(labels)}")
        n = len(sizes)
        keys, counts = np.unique(np.array(labels) * n + np.repeat(np.arange(n), sizes),
                                 return_counts=True)
        if (counts > 1).any():
            cluster, set_ = divmod(int(keys[counts > 1][0]), n)
            raise InfeasibleAssignmentError(
                f"cluster {cluster} holds more than one element of set {set_}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "set_sizes", sizes)

    @property
    def num_clusters(self) -> int:
        return max(self.labels) + 1

    @cached_property
    def entries(self) -> np.ndarray:
        """The binary matrix U: one row per element, one column per cluster
        in label order, a single 1 per row; read-only int64."""
        U = np.zeros((len(self.labels), self.num_clusters), dtype=np.int64)
        U[np.arange(len(self.labels)), self.labels] = 1
        U.setflags(write=False)
        return U


def clusters_from_assignment(assignment: Assignment) -> Assignment:
    """The assignment itself, whose ``labels`` are the canonical clusters."""
    return assignment


@dataclass(frozen=True, eq=False)
class PairwiseTable:
    """Binary cross-set matches as one symmetric m-by-m matrix.

    ``match[a, b]`` is True when elements a and b, of different sets, are
    claimed to be the same object; block (i, j) is the set-pair match
    matrix P_ij.  For an assignment U it is the cross-set part of U U^T.
    Construction rejects a matrix that is not binary, not m-by-m or not
    symmetric, and zeroes the within-set entries, the diagonal included:
    they claim nothing.  The stored matrix is read-only bool.
    """

    set_sizes: tuple[int, ...]
    match: np.ndarray

    def __post_init__(self) -> None:
        sizes = _check_sizes(self.set_sizes)
        m = sum(sizes)
        raw = np.asarray(self.match)
        if raw.shape != (m, m):
            raise ValueError(f"expected a {m}-by-{m} match matrix, got shape {raw.shape}")
        if not np.isin(raw, (0, 1)).all():
            raise ValueError("match entries must be binary")
        match = raw.astype(bool)
        if not np.array_equal(match, match.T):
            raise ValueError("match matrix must be symmetric")
        set_index = np.repeat(np.arange(len(sizes)), sizes)
        match &= set_index[:, None] != set_index[None, :]
        match.setflags(write=False)
        object.__setattr__(self, "set_sizes", sizes)
        object.__setattr__(self, "match", match)

    __eq__ = _value_eq

    def block(self, i: int, j: int) -> np.ndarray:
        cut = np.cumsum((0,) + self.set_sizes)
        return self.match[cut[i]:cut[i + 1], cut[j]:cut[j + 1]]


def pairwise_from_assignment(assignment: Assignment) -> PairwiseTable:
    """Cross-set match matrix U U^T induced by an assignment.

    Every row of U has one 1, so (U U^T)[a, b] says whether a and b share a
    label; comparing labels gives it without an integer matmul, which numpy
    runs without BLAS.
    """
    labels = np.array(assignment.labels)
    return PairwiseTable(assignment.set_sizes, labels[:, None] == labels[None, :])


def check_cycle_consistency(table: PairwiseTable) -> bool:
    """Whether pairwise matches compose transitively into a valid clustering.

    Raises when an element matches more than one element of some set.
    Otherwise the matches are cycle consistent exactly when R = match | I,
    reflexive and symmetric by construction, is also transitive, i.e. an
    equivalence relation.  That holds exactly when every row R[a] equals
    R[f(a)], where f(a) is the first element a relates to.  An equivalence
    has equal rows within a class, f(a)'s included.  Conversely, let a ~ b:
    b lies in R[a] = R[f(a)], so f(a) lies in R[b] and f(b) <= f(a); in the
    same way f(a) <= f(b).  Neighbours share their first element, so they
    share rows, and a ~ b, b ~ c give c in R[b] = R[a].
    """
    match = table.match
    per_set = np.add.reduceat(match, np.cumsum((0,) + table.set_sizes[:-1]),
                              axis=1, dtype=np.int64)   # bool reduceat may OR
    over = np.argwhere(per_set > 1)
    if len(over):
        a, i = over[0]
        raise ValueError(f"element {a} matches more than one element of set {i}")
    R = match | np.eye(len(match), dtype=bool)
    return bool((R == R[R.argmax(axis=1)]).all())
