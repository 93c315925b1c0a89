"""Continuous relaxation of the association objective.

The exact problem minimizes the squared Frobenius distance between the
pairwise match pattern U U^T and every modality's score matrix, over binary
feasible assignments.  Expanding the squares shows that for such U the data
term collapses to <U U^T, abar> plus a constant, where abar fuses all
modalities into one signed affinity matrix.  The relaxation optimizes that
inner product over nonnegative U with row sums at most one, adding penalty
terms that vanish exactly on feasible binary points.  It is the one function
the solver descends and reports: ``build_relaxation`` keeps abar's
off-diagonal only and moves the diagonal's constant into ``frob_const``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance


@dataclass(frozen=True)
class RelaxationData:
    """Quadratic-form data of the penalized relaxation.

    ``abar`` entry (a, b) sums 1 - 2*s over the pair's modality scores s, so
    an inconclusive 0.5 contributes nothing, strong similarity pulls the
    pair together (negative entry) and strong dissimilarity pushes it apart
    (positive entry).  ``frob_const`` shifts <U U^T, abar> back to the
    original least-squares value on binary feasible points.  ``set_offsets``
    and ``set_index`` are the instance's set structure, which the same-set
    penalty reads.

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

    @property
    def num_elements(self) -> int:
        return self.abar.shape[0]


def _fuse(instance: Instance) -> tuple[np.ndarray, float]:
    """``abar`` and ``frob_const`` = sum_k ||S_k||_F^2 from the stored pairs:
    defaults give abar -K on the diagonal, K within a set, 0 across sets, and
    frob_const K per diagonal entry and K/4 per unstored ordered cross-set
    pair; a stored pair's entries are K - 2 sum_k s_k, adding 2 sum_k s_k^2."""
    m, count = instance.num_elements, instance.modality_count
    set_index = instance.set_index
    abar = np.where(set_index[:, None] == set_index[None, :], float(count), 0.0)
    abar[np.arange(m), np.arange(m)] = -float(count)
    (a, b), scores = instance.pairs.T, instance.scores
    fused = count - 2.0 * scores.sum(axis=1)
    abar[np.r_[a, b], np.r_[b, a]] = np.r_[fused, fused]
    cross_entries = m * m - sum(s * s for s in instance.set_sizes)
    stored_cross = 2 * int((set_index[a] != set_index[b]).sum())
    frob_const = (count * (m + 0.25 * (cross_entries - stored_cross))
                  + 2.0 * float((scores ** 2).sum()))
    return abar, frob_const


def build_relaxation(instance: Instance) -> RelaxationData:
    """Fuse an instance's stored pairs into relaxation data."""
    abar, frob_const = _fuse(instance)
    np.fill_diagonal(abar, 0.0)
    abar.setflags(write=False)
    return RelaxationData(
        abar=abar,
        frob_const=frob_const - instance.modality_count * instance.num_elements,
        set_offsets=instance.set_offsets, set_index=instance.set_index)


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
    grad = 2.0 * (data.abar @ U)
    if d:
        row_sums = U.sum(axis=1)
        set_sums = np.add.reduceat(U, data.set_offsets, axis=0)
        grad += 2.0 * d * ((2.0 * row_sums - 1.0)[:, None] - 2.0 * U
                           + set_sums[data.set_index])
    return grad


def frobenius_from_mats(U: np.ndarray, mats: np.ndarray) -> float:
    """Sum over modalities of ||U U^T - S_k||_F^2 from the dense stack: the
    reference ``frobenius_objective`` is tested against."""
    U = _check_u(U, mats.shape[1])
    gram = U @ U.T
    return float(((gram[None, :, :] - mats) ** 2).sum())


def frobenius_objective(U: np.ndarray, instance: Instance) -> float:
    """Exact association objective sum_k ||U U^T - S_k||_F^2 at any U.

    With G = U U^T and abar = K - 2 sum_k S_k, expanding the squares gives
    frob_const + <G, abar> + K (||G||^2 - sum G); the last term vanishes on
    binary assignments, where G is 0/1.
    """
    U = _check_u(U, instance.num_elements)
    abar, frob_const = _fuse(instance)
    gram = U @ U.T
    return (frob_const + float((gram * abar).sum()) + instance.modality_count
            * (float((gram * gram).sum()) - float(gram.sum())))
