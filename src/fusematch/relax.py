"""Continuous relaxation of the association objective.

The exact problem minimizes the squared Frobenius distance between the
pairwise match pattern U U^T and every modality's score matrix, over binary
feasible assignments.  Expanding the squares shows that for such U the data
term collapses to <U U^T, abar> plus a constant, where abar fuses all
modalities into one signed affinity matrix.  The relaxation optimizes that
inner product over nonnegative U with row sums at most one, adding penalty
terms that vanish exactly on feasible binary points.  It is the one function
the solver descends and reports.  ``_fused_pairs`` is the one place that
fuses an instance, for ``build_relaxation``, which keeps the fused values
beside abar, and for a labelling's values in ``_labelling_values`` when the
caller holds only the instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import Instance, _value_eq


@dataclass(frozen=True, eq=False)
class RelaxationData:
    """Quadratic-form data of the penalized relaxation.

    ``abar`` entry (a, b) sums 1 - 2*s over the pair's modality scores s, so
    an inconclusive 0.5 contributes nothing, strong similarity pulls the
    pair together (negative entry) and strong dissimilarity pushes it apart
    (positive entry).  ``frob_const`` shifts <U U^T, abar> back to the
    original least-squares value on binary feasible points.  ``set_offsets``
    and ``set_index`` are the instance's set structure, which the same-set
    penalty reads.  ``pairs`` are the instance's stored pairs and
    ``pair_values`` their fused values, abar's entries there, from which
    ``_labelling_values`` reads a labelling's values without fusing again.

    abar's diagonal is zero.  The exact expansion puts -K there, but
    <U U^T, diag(abar)> is -K m at every feasible binary point (all row
    norms are 1), so the diagonal is folded into ``frob_const`` and no
    optimum of the integer problem moves.  On fractional iterates, however,
    a -K diagonal acts as a row-concentration force as strong as the full
    modality count; it out-pulls the cross-element attraction and locks
    rows into singleton columns before the basins have formed.  Binarity
    is still forced by the growing column-overlap penalty.
    """

    abar: np.ndarray
    frob_const: float
    set_offsets: tuple[int, ...]
    set_index: np.ndarray
    pairs: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    pair_values: np.ndarray = field(default_factory=lambda: np.empty(0))

    __eq__ = _value_eq

    @property
    def num_elements(self) -> int:
        return self.abar.shape[0]


def _fused_pairs(instance: Instance) -> tuple[np.ndarray, float]:
    """Each stored pair's fused value K - 2 sum_k s_k, summed in modality
    order as the dense stack's ``mats.sum(axis=0)`` is, so bit for bit at
    every K; and frob_const, K/4 per unstored ordered cross-set pair plus
    2 sum_k s_k^2 per stored pair."""
    m, count = instance.num_elements, instance.modality_count
    (a, b), scores = instance.pairs.T, instance.scores
    fused = count - 2.0 * sum(scores.T[1:], scores[:, 0])
    cross_entries = m * m - sum(s * s for s in instance.set_sizes)
    stored_cross = 2 * int((instance.set_index[a] != instance.set_index[b]).sum())
    frob_const = (0.25 * count * (cross_entries - stored_cross)
                  + 2.0 * float((scores ** 2).sum()))
    return fused, frob_const


def build_relaxation(instance: Instance) -> RelaxationData:
    """Fuse an instance's stored pairs into relaxation data.  Defaults give
    abar 0 on the diagonal, K within a set and 0 across sets; a stored
    pair's two entries are its ``_fused_pairs`` value."""
    m, count = instance.num_elements, instance.modality_count
    abar = np.zeros((m, m))
    for offset, size in zip(instance.set_offsets, instance.set_sizes):
        abar[offset:offset + size, offset:offset + size] = count
    np.fill_diagonal(abar, 0.0)
    fused, frob_const = _fused_pairs(instance)
    a, b = instance.pairs.T
    abar[a, b] = abar[b, a] = fused
    abar.setflags(write=False)
    fused.setflags(write=False)
    return RelaxationData(abar=abar, frob_const=frob_const,
                          set_offsets=instance.set_offsets, set_index=instance.set_index,
                          pairs=instance.pairs, pair_values=fused)


def _check_u(U: np.ndarray, m: int) -> np.ndarray:
    U = np.asarray(U, dtype=float)
    if U.ndim != 2 or U.shape[0] != m:
        raise ValueError(f"expected a matrix with {m} rows, got shape {U.shape}")
    return U


def relaxed_objective(U: np.ndarray, data: RelaxationData, d: float) -> float:
    """Penalized relaxation value at U with penalty weight d.

    With row sums r and per-set column sums C, the penalty bracket is
    2 <r, r - 1> - 2 ||U||^2 + ||C||^2: the column overlap <U^T U, 1 - I>,
    the same-set co-assignment of distinct rows, and ||r - 1||^2 - m.  Over
    the unit box it is bounded below by -m, attained exactly at binary
    feasible points, so growing d drives iterates toward feasibility.
    """
    U = _check_u(U, data.num_elements)
    if (U < 0).any():
        raise ValueError("U must be nonnegative")
    if d < 0:
        raise ValueError("penalty weight must be nonnegative")
    gram = U @ U.T
    row_sums = U.sum(axis=1)
    set_sums = np.add.reduceat(U, data.set_offsets, axis=0)
    penalty = (2.0 * float(row_sums @ (row_sums - 1.0)) - 2.0 * float((U * U).sum())
               + float((set_sums * set_sums).sum()))
    return float((gram * data.abar).sum()) + d * penalty


def relaxed_gradient(U: np.ndarray, data: RelaxationData, d: float) -> np.ndarray:
    """Gradient of the relaxed objective with respect to U:
    2 abar U + 2 d ((2 r - 1) 1^T - 2 U + C[set_index])."""
    U = _check_u(U, data.num_elements)
    if d < 0:
        raise ValueError("penalty weight must be nonnegative")
    row_sums = U.sum(axis=1)
    set_sums = np.add.reduceat(U, data.set_offsets, axis=0)
    return 2.0 * (data.abar @ U) + 2.0 * d * ((2.0 * row_sums - 1.0)[:, None] - 2.0 * U
                                              + set_sums[data.set_index])


def stage_matrix(data: RelaxationData, d: float) -> np.ndarray:
    """M_d = abar + d (B - 2 I), B the same-set ones matrix, so that
    ``relaxed_objective`` is <U, M_d U> + 2 d ||U 1||^2 - 2 d sum(U) on U >= 0.
    Its gradient is then 2 M_d U + 2 d (2 r - 1) 1^T, and its curvature
    along D is <D, M_d D> + 2 d ||D 1||^2: one dense product per direction."""
    same_set = data.set_index[:, None] == data.set_index[None, :]
    stage = data.abar + d * same_set
    stage[np.diag_indices_from(stage)] -= 2.0 * d
    return stage


def frobenius_from_mats(U: np.ndarray, mats: np.ndarray) -> float:
    """Sum over modalities of ||U U^T - S_k||_F^2 from the dense stack: the
    reference ``frobenius_objective`` is tested against."""
    U = _check_u(U, mats.shape[1])
    gram = U @ U.T
    return float(((gram[None, :, :] - mats) ** 2).sum())


def _labelling_values(labels: Sequence[int] | np.ndarray,
                      source: Instance | RelaxationData, d: float) -> tuple[float, float]:
    """``(frobenius_objective, relaxed_objective at d)`` of a feasible
    labelling, one label per element, in O(P + m) with no m x m array.  The
    stored pairs' fused values come from ``source``: an ``Instance`` is
    fused here, and a ``RelaxationData`` holds the values its
    ``build_relaxation`` fused, so a caller holding both fuses once.  At
    its one-hot U, S = <U U^T, abar> is twice the fused values of the stored
    pairs whose labels match: abar is 0 on the diagonal and on unstored
    cross-set pairs, and no feasible labelling joins two elements of a set.
    The Frobenius value is frob_const + S (the K term of
    ``frobenius_objective`` vanishes) and the relaxed value S - d m (the
    penalty is -m at a feasible binary point)."""
    if isinstance(source, Instance):
        fused, frob_const = _fused_pairs(source)
    else:
        fused, frob_const = source.pair_values, source.frob_const
    labels = np.asarray(labels)
    a, b = source.pairs.T
    pairsum = 2.0 * float(fused[labels[a] == labels[b]].sum())
    return frob_const + pairsum, pairsum - d * source.num_elements


def frobenius_objective(U: np.ndarray, instance: Instance) -> float:
    """Exact association objective sum_k ||U U^T - S_k||_F^2 at any U: with
    G = U U^T, frob_const + <G, abar> + K (||G||^2 - sum G + m - ||U||_F^2).
    K (m - ||U||_F^2) is the -K diagonal that ``RelaxationData`` folds into
    frob_const; the K term vanishes on binary feasible U (G is 0/1)."""
    data = build_relaxation(instance)
    U = _check_u(U, data.num_elements)
    gram = U @ U.T
    return (data.frob_const + float((gram * data.abar).sum())
            + instance.modality_count * (float((gram * gram).sum()) - float(gram.sum())
                                         + data.num_elements - float(np.trace(gram))))
