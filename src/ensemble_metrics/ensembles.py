"""Ensembles of density matrices and their pointer-flagged representations.

An ensemble is a finite probability distribution over pairwise-distinct
density matrices.  Distinctness is measured in trace distance, so states that
agree up to 1e-9 are merged on construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimMismatch,
    EmptyEnsemble,
    EnsembleMetricsError,
    InvalidState,
    OutOfRange,
    PointerReuse,
    WeightMismatch,
)
from .linalg import as_operator, mat_sqrt_psd, pair_values, von_neumann_entropy

PROB_TOL = 1e-8
DISTINCT_TOL = 1e-9
STATE_TOL = 1e-10


def _first_invalid(stack: np.ndarray) -> Exception | None:
    """The error :func:`check_density` raises for the first matrix of a
    stack of square matrices that is not a density matrix, or None.  The
    checks run stacked; each matrix's first failing check decides its
    error."""
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    n = int(np.argmin(finite)) if not finite.all() else len(stack)
    head = stack[:n]
    herm = np.max(np.abs(head - head.conj().swapaxes(1, 2)), axis=(1, 2), initial=0.0)
    tr = np.trace(head, axis1=1, axis2=2)
    tr_err = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    wmin = np.zeros(n)
    ok = (herm <= STATE_TOL) & (tr_err <= STATE_TOL)
    if ok.any():
        wmin[ok] = np.min(np.linalg.eigvalsh(head[ok]), axis=1)
    bad = ~ok | (wmin < -STATE_TOL)
    if bad.any():
        k = int(np.argmax(bad))
        if herm[k] > STATE_TOL:
            return InvalidState(f"not Hermitian: max|m - m†| = {herm[k]:.3e}")
        if tr_err[k] > STATE_TOL:
            return InvalidState(f"trace differs from 1 by {tr_err[k]:.3e}")
        return InvalidState(f"negative eigenvalue {wmin[k]:.3e}")
    if n < len(stack):
        return ValueError("matrix entries must be finite")
    return None


def check_density(mat: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace (tol 1e-10)."""
    mat = as_operator(mat)
    error = _first_invalid(mat[None])
    if error is not None:
        raise error
    return mat


def pure_state(vec: np.ndarray) -> np.ndarray:
    """Projector |v><v| of a (re)normalized state vector."""
    v = np.asarray(vec, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise InvalidState("state vector entries must be finite")
    n = float(np.linalg.norm(v))
    if n == 0.0:
        raise InvalidState("zero vector has no direction")
    v = v / n
    return np.outer(v, v.conj())


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Probability distribution over pairwise-distinct density matrices.

    ``states`` is one ``(n, d, d)`` complex stack, state ``k`` of
    probability ``probs[k]``.  ``index``, when the ensemble was built from a
    list of pairs, gives for each pair the state it went into, or -1 for a
    pair that was dropped.
    """

    states: np.ndarray
    probs: np.ndarray
    index: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def size(self) -> int:
        return len(self.states)

    def __iter__(self):
        return iter(zip(self.probs, self.states))


# The merge window.  A pair within DISTINCT_TOL in trace distance has
# ½‖H‖_F <= DISTINCT_TOL, ``H`` the Hermitian part of its difference, so its
# projections on a unit direction lie within 2 · DISTINCT_TOL; the window
# doubles that to cover the projection's roundoff.
_WINDOW = 4.0 * DISTINCT_TOL


@lru_cache(maxsize=None)
def _window_direction(length: int) -> np.ndarray:
    """The fixed unit direction the window projects on, read-only."""
    direction = np.sin(np.arange(1.0, length + 1.0))
    direction = direction / np.linalg.norm(direction)
    direction.flags.writeable = False
    return direction


def _near_pairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``i < j`` of a stack of states within 1e-9 in trace distance.

    The candidates are the pairs whose Hermitian parts project on one fixed
    unit direction within ``_WINDOW`` of each other (no pair within 1e-9 is
    left out), which one sort finds; there are none when no two neighbours
    in the sorted order are.  They take the exact trace distance, computed
    lower index first as :func:`pairwise_matrix` does.
    """
    n = len(stack)
    herm = (stack + stack.conj().swapaxes(1, 2)) / 2.0
    v = herm.reshape(n, -1).view(float)
    shadow = v @ _window_direction(v.shape[1])
    order = shadow.argsort(kind="stable")
    ranked = shadow[order]
    limit = ranked + _WINDOW
    if not (ranked[1:] <= limit[:-1]).any():  # no two states within reach
        none = np.empty(0, dtype=int)
        return none, none
    reach = np.searchsorted(ranked, limit, side="right")
    counts = reach - np.arange(1, n + 1)  # the sorted positions after each one in reach
    a = np.repeat(np.arange(n), counts)
    b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts, counts)
    first, second = np.sort(np.stack([order[a], order[b]]), axis=0)
    near = pair_values(stack, first, second, "distance") <= DISTINCT_TOL
    return first[near], second[near]


def merge_near_equal(
    states: Sequence[np.ndarray], weights
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Indices of the states kept, their summed weights, and for each given
    state the position in the kept list of the state it went into: walking
    in order, a state within 1e-9 in trace distance of a kept one adds its
    weight (a number or a row) to the first such state.  A complex stack is
    used as it is."""
    stack = np.asarray(states, dtype=complex)
    first, second = _near_pairs(stack)
    if not len(first):  # every state is kept with its own weight
        return list(range(len(stack))), np.array(weights, dtype=float), np.arange(len(stack))
    near: dict[int, list[int]] = {}
    for k, i in sorted(zip(first.tolist(), second.tolist())):
        near.setdefault(i, []).append(k)
    position: dict[int, int] = {}
    kept: list[int] = []
    sums: list = []
    index = np.empty(len(stack), dtype=int)
    for i, w in enumerate(weights):
        into = next((position[k] for k in near.get(i, ()) if k in position), None)
        if into is None:
            into = position[i] = len(kept)
            kept.append(i)
            sums.append(w)
        else:
            sums[into] = sums[into] + w
        index[i] = into
    return kept, np.asarray(sums, dtype=float), index


def make_ensemble(pairs: Iterable[tuple[float, np.ndarray]]) -> Ensemble:
    """Build an Ensemble from (probability, state) pairs.

    Zero-probability entries are dropped, states closer than 1e-9 in trace
    distance are merged (first occurrence kept) and the probabilities are
    renormalized when their sum is within 1e-8 of one.  ``index`` records
    where each pair went.  The states are validated in one stacked pass;
    the error raised is that of the first bad entry in input order.
    """
    pairs = list(pairs)
    mats: list[np.ndarray] = []
    probs: list[float] = []
    taken: list[int] = []
    stop = None
    for k, (p, mat) in enumerate(pairs):
        try:
            p = float(p)
            if not np.isfinite(p):
                raise InvalidState(f"non-finite probability {p}")
            if p < -PROB_TOL:
                raise InvalidState(f"negative probability {p}")
            if p <= 0.0:
                continue
            mat = np.asarray(mat, dtype=complex)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise DimMismatch(f"expected a square matrix, got shape {mat.shape}")
            if mats and mat.shape != mats[0].shape:
                check_density(mat)
                raise DimMismatch("states of mixed dimension in one ensemble")
        except (EnsembleMetricsError, TypeError, ValueError) as exc:
            # raised once the entries before this one have passed their checks
            stop = exc
            break
        mats.append(mat)
        probs.append(p)
        taken.append(k)
    stack = np.asarray(mats)
    error = _first_invalid(stack) if mats else None
    if error is not None:
        raise error
    if stop is not None:
        raise stop
    return _assemble(stack, probs, taken, len(pairs))


def _assemble(stack: np.ndarray, probs, taken, count: int) -> Ensemble:
    """The Ensemble of a stack of valid states with positive ``probs``,
    state ``k`` given as pair ``taken[k]`` of ``count``: near-equal states
    merge, the probabilities are renormalized when their sum is within 1e-8
    of one, and ``index`` records where each pair went."""
    if not len(stack):
        raise EmptyEnsemble("no states with positive probability")
    kept, merged, into = merge_near_equal(stack, probs)
    total = float(sum(merged))
    if abs(total - 1.0) > PROB_TOL:
        raise InvalidState(f"probabilities sum to {total}, expected 1")
    index = np.full(count, -1)
    index[taken] = into
    return Ensemble(stack if len(kept) == len(stack) else stack[kept], merged / total, index)


@dataclass(frozen=True, eq=False)
class SupportPair:
    """Two distributions over a shared ``(n, d, d)`` stack ``omega`` of
    distinct states.  ``index`` gives the support position of each state of
    the first ensemble, then of the second."""

    omega: np.ndarray
    p: np.ndarray
    q: np.ndarray
    index: np.ndarray

    @cached_property
    def roots(self) -> np.ndarray:
        """:func:`mat_sqrt_psd` of every state of ``omega``, computed once
        for the fidelity costs and their gradients."""
        return mat_sqrt_psd(self.omega)


def unify_support(a: Ensemble, b: Ensemble) -> SupportPair:
    """Shared support of two ensembles, zero-extending their distributions.

    States of ``a`` come first in their original order; states of ``b`` not
    already present (within 1e-9 trace distance) are appended in order, so
    the result is deterministic.
    """
    if a.dim != b.dim:
        raise DimMismatch(f"ensembles of dimension {a.dim} and {b.dim}")
    states = np.concatenate([a.states, b.states])
    weights = np.zeros((len(states), 2))
    weights[: a.size, 0], weights[a.size :, 1] = a.probs, b.probs
    kept, pq, index = merge_near_equal(states, weights)
    omega = states if len(kept) == len(states) else states[kept]
    return SupportPair(omega, pq[:, 0], pq[:, 1], index)


def average_state(e: Ensemble) -> np.ndarray:
    """Barycenter ``sum_i p_i rho_i`` of an ensemble."""
    return np.einsum("k,kij->ij", e.probs, e.states)


def holevo_chi(e: Ensemble) -> float:
    """Holevo quantity ``S(avg) - sum_i p_i S(rho_i)`` in bits, clamped at 0."""
    return max(0.0, von_neumann_entropy(average_state(e)) - average_entropy(e))


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
    if not 2 <= float(d) < np.inf or int(d) != d:
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
    Raises OutOfRange unless each pointer index is an integer >= 0 (a bool
    is not), and WeightMismatch unless each weight is a finite number >= 0.
    """
    if len(assignment) != e.size:
        raise WeightMismatch(f"{len(assignment)} assignments for {e.size} states")
    owner: dict[int, int] = {}
    pointer_dim = 0
    for i, rows in enumerate(assignment):
        if not rows:
            raise WeightMismatch(f"state {i} has no pointer weights")
        for c, w in rows:
            if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0:
                raise OutOfRange(f"pointer index must be an integer >= 0, got {c!r}")
            if not isinstance(w, (int, float, np.integer, np.floating)) or not 0.0 <= w < np.inf:
                raise WeightMismatch(f"pointer weight must be a finite number >= 0, got {w!r}")
            if c in owner and owner[c] != i:
                raise PointerReuse(f"pointer {c} assigned to states {owner[c]} and {i}")
            owner[c] = i
            pointer_dim = max(pointer_dim, c + 1)
        total = float(sum(w for _, w in rows))
        if abs(total - e.probs[i]) > PROB_TOL:
            raise WeightMismatch(
                f"weights of state {i} sum to {total}, probability is {e.probs[i]}"
            )
    d = e.dim
    mat = np.zeros((d * pointer_dim, d * pointer_dim), dtype=complex)
    for i, rows in enumerate(assignment):
        scale = e.probs[i] / float(sum(w for _, w in rows))
        for c, w in rows:
            mat[c::pointer_dim, c::pointer_dim] += (w * scale) * e.states[i]
    return EhsState(mat, d, pointer_dim)


def canonical_ehs_state(e: Ensemble) -> EhsState:
    """One pointer per state, ``sum_i p_i rho_i ⊗ |i><i|``."""
    return make_ehs_state(e, [[(i, p)] for i, p in enumerate(e.probs)])
