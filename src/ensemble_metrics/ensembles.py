"""Ensembles of density matrices and their pointer-flagged representations.

An ensemble is a finite probability distribution over pairwise-distinct
density matrices.  Distinctness is measured in trace distance, so states that
agree up to 1e-9 are merged on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyEnsemble,
    InvalidState,
    OutOfRange,
    PointerReuse,
    WeightMismatch,
)
from .linalg import as_operator, pairwise_matrix, von_neumann_entropy

PROB_TOL = 1e-8
DISTINCT_TOL = 1e-9
STATE_TOL = 1e-10


def check_density(mat: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace (tol 1e-10)."""
    mat = as_operator(mat)
    herm_err = float(np.max(np.abs(mat - mat.conj().T)))
    if herm_err > STATE_TOL:
        raise InvalidState(f"not Hermitian: max|m - m†| = {herm_err:.3e}")
    tr_err = abs(float(np.trace(mat).real) - 1.0) + abs(float(np.trace(mat).imag))
    if tr_err > STATE_TOL:
        raise InvalidState(f"trace differs from 1 by {tr_err:.3e}")
    wmin = float(np.min(np.linalg.eigvalsh(mat)))
    if wmin < -STATE_TOL:
        raise InvalidState(f"negative eigenvalue {wmin:.3e}")
    return mat


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Projector |v><v| of a (re)normalized state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise InvalidState("zero vector has no direction")
    v = v / n
    return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability distribution over pairwise-distinct density matrices.

    ``index``, when the ensemble was built from a list of pairs, gives for
    each pair the state it went into, or -1 for a pair that was dropped.
    """

    states: tuple[np.ndarray, ...]
    probs: np.ndarray
    index: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.states[0].shape[0]

    @property
    def size(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(zip(self.probs, self.states))


def merge_near_equal(
    states: Sequence[np.ndarray], weights
) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the states kept, their summed weights, the trace
    distances between all the given states, and for each given state the
    position in the kept list of the state it went into: walking in order,
    a state within 1e-9 in trace distance of a kept one adds its weight (a
    number or a row) to the first such state."""
    dist = pairwise_matrix(states, "distance")
    kept: list[int] = []
    sums: list = []
    index = np.empty(len(states), dtype=int)
    for i, w in enumerate(weights):
        near = np.flatnonzero(dist[i, kept] <= DISTINCT_TOL)
        if near.size:
            index[i] = near[0]
            sums[near[0]] = sums[near[0]] + w
        else:
            index[i] = len(kept)
            kept.append(i)
            sums.append(w)
    return kept, np.asarray(sums, dtype=float), dist, index


def make_ensemble(pairs: Iterable[tuple[float, np.ndarray]]) -> Ensemble:
    """Build an Ensemble from (probability, state) pairs.

    Zero-probability entries are dropped, states closer than 1e-9 in trace
    distance are merged (first occurrence kept) and the probabilities are
    renormalized when their sum is within 1e-8 of one.  ``index`` records
    where each pair went.
    """
    pairs = list(pairs)
    states: list[np.ndarray] = []
    probs: list[float] = []
    taken: list[int] = []
    dim = None
    for k, (p, mat) in enumerate(pairs):
        p = float(p)
        if not np.isfinite(p):
            raise InvalidState(f"non-finite probability {p}")
        if p < -PROB_TOL:
            raise InvalidState(f"negative probability {p}")
        if p <= 0.0:
            continue
        mat = check_density(mat)
        if dim is None:
            dim = mat.shape[0]
        elif mat.shape[0] != dim:
            raise DimMismatch("states of mixed dimension in one ensemble")
        states.append(mat)
        probs.append(p)
        taken.append(k)
    if not states:
        raise EmptyEnsemble("no states with positive probability")
    kept, merged, _, into = merge_near_equal(states, probs)
    total = float(sum(merged))
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidState(f"probabilities sum to {total}, expected 1")
    index = np.full(len(pairs), -1)
    index[taken] = into
    return Ensemble(tuple(states[i] for i in kept), merged / total, index)


@dataclass(frozen=True, eq=False)
class SupportPair:
    """Two distributions over a shared list of distinct states, with the
    pairwise trace distances of those states.  ``index`` gives the support
    position of each state of the first ensemble, then of the second."""

    omega: tuple[np.ndarray, ...]
    p: np.ndarray
    q: np.ndarray
    dist: np.ndarray
    index: np.ndarray


def unify_support(a: Ensemble, b: Ensemble) -> SupportPair:
    """Shared support of two ensembles, zero-extending their distributions.

    States of ``a`` come first in their original order; states of ``b`` not
    already present (within 1e-9 trace distance) are appended in order, so
    the result is deterministic.  ``dist`` is sliced from the trace
    distances the merge computed, and equals ``pairwise_matrix(omega,
    "distance")``.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"ensembles of dimension {a.dim} and {b.dim}")
    states = a.states + b.states
    weights = np.zeros((len(states), 2))
    weights[: a.size, 0], weights[a.size :, 1] = a.probs, b.probs
    kept, pq, dist, index = merge_near_equal(states, weights)
    return SupportPair(
        tuple(states[i] for i in kept), pq[:, 0], pq[:, 1], dist[np.ix_(kept, kept)], index
    )


def average_state(e: Ensemble) -> np.ndarray:
    """Barycenter ``sum_i p_i rho_i`` of an ensemble."""
    out = np.zeros((e.dim, e.dim), dtype=complex)
    for p, mat in e:
        out += p * mat
    return out


def holevo_chi(e: Ensemble) -> float:
    """Holevo quantity ``S(avg) - sum_i p_i S(rho_i)`` in bits, clamped at 0."""
    chi = von_neumann_entropy(average_state(e)) - float(
        sum(p * von_neumann_entropy(mat) for p, mat in e)
    )
    return max(0.0, chi)


def average_entropy(e: Ensemble) -> float:
    """Ensemble-average entropy ``sum_i p_i S(rho_i)`` in bits."""
    return float(sum(p * von_neumann_entropy(mat) for p, mat in e))


def _binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return float(-x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x))


def fannes_avg_entropy_bound(dk: float, d: int) -> float:
    """Continuity bound on average entropies of coupled ensembles.

    For ensembles on dimension ``d`` whose optimal-coupling cost is ``dk``,
    the average entropies differ by at most
    ``dk * log2(d - 1) + H((dk, 1 - dk))`` bits.
    """
    if not 0.0 <= dk <= 1.0:
        raise OutOfRange(f"dk={dk} outside [0, 1]")
    if int(d) != d or d < 2:
        raise OutOfRange(f"dimension d={d} must be an integer >= 2")
    return dk * float(np.log2(d - 1)) + _binary_entropy(dk)


@dataclass(frozen=True, eq=False)
class EhsState:
    """Density matrix on system ⊗ pointer, block diagonal in the pointer basis.

    Each pointer block is proportional to a single ensemble state, so tracing
    out the pointer returns the ensemble average and measuring the pointer
    recovers the distribution.
    """

    mat: np.ndarray
    system_dim: int
    pointer_dim: int


def make_ehs_state(e: Ensemble, assignment: Sequence[Sequence[tuple[int, float]]]) -> EhsState:
    """Embed an ensemble into system ⊗ pointer space.

    ``assignment[i]`` lists ``(pointer_index, weight)`` pairs for state ``i``.
    Weights of a state must sum to its probability (tolerance 1e-8; they are
    rescaled to match exactly) and a pointer index may serve only one state.
    """
    if len(assignment) != e.size:
        raise WeightMismatch(f"{len(assignment)} assignments for {e.size} states")
    owner: dict[int, int] = {}
    pointer_dim = 0
    for i, rows in enumerate(assignment):
        if not rows:
            raise WeightMismatch(f"state {i} has no pointer weights")
        total = float(sum(w for _, w in rows))
        if abs(total - e.probs[i]) > PROB_TOL:
            raise WeightMismatch(
                f"weights of state {i} sum to {total}, probability is {e.probs[i]}"
            )
        for c, w in rows:
            if w < 0.0:
                raise WeightMismatch(f"negative pointer weight {w}")
            if c in owner and owner[c] != i:
                raise PointerReuse(f"pointer {c} assigned to states {owner[c]} and {i}")
            owner[c] = i
            pointer_dim = max(pointer_dim, c + 1)
    d = e.dim
    mat = np.zeros((d * pointer_dim, d * pointer_dim), dtype=complex)
    for i, rows in enumerate(assignment):
        scale = e.probs[i] / float(sum(w for _, w in rows))
        for c, w in rows:
            flag = np.zeros((pointer_dim, pointer_dim))
            flag[c, c] = 1.0
            mat += np.kron((w * scale) * e.states[i], flag)
    return EhsState(mat, d, pointer_dim)


def canonical_ehs_state(e: Ensemble) -> EhsState:
    """One pointer per state, ``sum_i p_i rho_i ⊗ |i><i|``."""
    return make_ehs_state(e, [[(i, p)] for i, p in enumerate(e.probs)])
