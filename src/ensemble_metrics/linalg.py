"""Dense complex linear algebra for density matrices and measurement operators.

All functions take plain ``numpy`` arrays.  Matrices are dense, square and
complex; Hermiticity and positivity are checked only where the contract
requires it, so hot loops stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatch, NoConvergence, NotHermitian, NotPSD, OutOfRange

HERM_TOL = 1e-10
PSD_TOL = -1e-10


def as_operator(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a square complex matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    return _as_stack(a)


def _as_stack(a: np.ndarray) -> np.ndarray:
    """Validate and return ``a`` as a stack ``(..., d, d)`` of square complex
    matrices with finite entries."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _hermitian(a: np.ndarray) -> np.ndarray:
    """:func:`_as_stack`, raising NotHermitian when some ``max|a - a†|``
    exceeds 1e-10."""
    a = _as_stack(a)
    err = float(np.abs(a - a.conj().swapaxes(-1, -2)).max(initial=0.0))
    if err > HERM_TOL:
        raise NotHermitian(f"max|a - a†| = {err:.3e}")
    return a


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise DimMismatch(f"operands have shapes {a.shape} and {b.shape}")


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted in descending order; column ``k`` of
    ``eigenvectors`` is the eigenvector paired with ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def herm_eig(a: np.ndarray) -> HermEig:
    """Full eigendecomposition of a Hermitian matrix.

    Raises NotHermitian when ``max|a - a†|`` exceeds 1e-10 and NoConvergence
    when the underlying iteration gives up.  Output is deterministic for
    identical input.
    """
    a = _hermitian(as_operator(a))
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy rarely fails here
        raise NoConvergence(str(exc)) from exc
    return HermEig(np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1]))


def trace_norm(o: np.ndarray) -> float:
    """Trace norm ``Tr sqrt(o† o)``, the sum of singular values."""
    return float(np.sum(np.linalg.svd(as_operator(o), compute_uv=False)))


def _trace_norms(o: np.ndarray) -> np.ndarray:
    """Trace norm of the Hermitian part ``(o + o†)/2`` of each matrix in a
    stack, batched: the sum of its absolute eigenvalues."""
    return np.sum(np.abs(np.linalg.eigvalsh((o + o.conj().swapaxes(-1, -2)) / 2.0)), axis=-1)


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance ``(1/2)‖rho - sigma‖_1`` between density matrices.

    The result is clipped to [0, 1].
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    _check_same_dim(rho, sigma)
    return float(pair_values((rho, sigma), [0], [1], "distance")[0])


def spectral_map(blocks: np.ndarray, f) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues ``w`` of each Hermitian matrix in a stack
    ``(..., d, d)``, and each ``V f(w) V†``; ``f`` maps all of ``w`` at once."""
    w, v = np.linalg.eigh(blocks)
    return w, (v * f(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _psd_cut(w: np.ndarray, fill: float = 0.0) -> np.ndarray:
    """Ascending PSD eigenvalues; those :func:`mat_sqrt_psd` zeroes become ``fill``."""
    if float(w.min(initial=0.0)) < PSD_TOL:
        raise NotPSD(f"minimum eigenvalue {np.min(w):.3e}")
    w = np.maximum(w, 0.0)
    return np.where(w <= 1e-14 * w[..., -1:], fill, w)


def mat_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix, or of each matrix in
    a stack ``(..., d, d)``, equal bit for bit to the per-matrix roots.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything lower raises
    NotPSD.  Eigenvalues below 1e-14 of their matrix's largest are zeroed
    outright so rank-deficient inputs do not pick up O(sqrt(eps)) dust in
    the null space.
    """
    return spectral_map(_hermitian(a), lambda w: np.sqrt(_psd_cut(w)))[1]


def mat_pinv_sqrt_psd(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse of the square root of a PSD Hermitian matrix, or of
    each matrix in a stack.

    Same cut-offs as :func:`mat_sqrt_psd`: the eigenvalues it zeroes stay
    zero, and every other one becomes ``1/sqrt(w)``.
    """
    return spectral_map(_hermitian(a), lambda w: 1.0 / np.sqrt(_psd_cut(w, np.inf)))[1]


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Square-root fidelity ``Tr sqrt(sqrt(sigma) rho sqrt(sigma))``.

    Evaluated as the nuclear norm of ``sqrt(rho) sqrt(sigma)``, which agrees
    with the trace form but never takes square roots of the triple product's
    eigenvalue roundoff.  Symmetric in its arguments and clipped to [0, 1].
    For a pure ``sigma = |phi><phi|`` this reduces to ``sqrt(<phi|rho|phi>)``.
    """
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    _check_same_dim(rho, sigma)
    return float(pair_values((rho, sigma), [0], [1], "fidelity")[0])


# Pairs per batched ``eigvalsh`` or ``svd`` call: enough to amortize the
# call, few enough that a block's stack of d×d matrices stays small.
_PAIR_BLOCK = 64


def pair_values(states: Sequence[np.ndarray], first, second, kind: str, roots=None) -> np.ndarray:
    """:func:`trace_distance` (``kind="distance"``) or :func:`fidelity` of
    ``states[first[k]]`` and ``states[second[k]]``, in that order, for each
    ``k``, over validated states.

    Entries equal the per-pair functions bit for bit.  Pairs go through one
    batched ``eigvalsh`` or ``svd`` per block of at most 64, and each block
    stacks only its own pairs; the fidelity roots the states that some pair
    reads in one stacked :func:`mat_sqrt_psd` call, unless ``roots`` gives
    that call's result for every state already.
    """
    first = np.asarray(first, dtype=int)
    second = np.asarray(second, dtype=int)
    if kind not in ("distance", "fidelity"):
        raise OutOfRange(f"unknown kind {kind!r}")
    if kind == "distance":
        stack = np.asarray(states, dtype=complex)
    elif roots is not None:
        stack = np.asarray(roots)
    else:
        stack = np.array(states, dtype=complex)
        used = np.zeros(len(states), dtype=bool)
        used[first] = used[second] = True
        if used.any():
            stack[used] = mat_sqrt_psd(stack[used])
    out = np.empty(len(first))
    for s in range(0, len(first), _PAIR_BLOCK):
        x, y = stack[first[s : s + _PAIR_BLOCK]], stack[second[s : s + _PAIR_BLOCK]]
        if kind == "distance":
            out[s : s + _PAIR_BLOCK] = 0.5 * _trace_norms(x - y)
        else:
            out[s : s + _PAIR_BLOCK] = np.sum(np.linalg.svd(x @ y, compute_uv=False), axis=-1)
    return np.clip(out, 0.0, 1.0)


def pairwise_matrix(states: Sequence[np.ndarray], kind: str) -> np.ndarray:
    """Symmetric matrix of :func:`trace_distance` (``kind="distance"``, zero
    diagonal) or :func:`fidelity` (unit diagonal) over validated states.

    Each entry is computed with the lower index first, by
    :func:`pair_values`, so it equals the per-pair function bit for bit.
    """
    return pairwise_block(states, range(len(states)), range(len(states)), kind)


def pairwise_block(states: Sequence[np.ndarray], rows, cols, kind: str, roots=None) -> np.ndarray:
    """The ``rows × cols`` block of ``pairwise_matrix(states, kind)``, bit
    for bit, evaluating only the pairs the block holds, each unordered pair
    once and with the lower index first; ``roots`` goes to
    :func:`pair_values`.  When no state is both a row and a column, every
    cell is a pair of its own and goes to :func:`pair_values` as it is."""
    if kind not in ("distance", "fidelity"):
        raise OutOfRange(f"unknown kind {kind!r}")
    rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
    is_row = np.zeros(len(states), dtype=bool)
    is_row[rows] = True
    if not is_row[cols].any():
        r, c = rows[:, None], cols[None, :]
        lo, hi = np.minimum(r, c).ravel(), np.maximum(r, c).ravel()
        return pair_values(states, lo, hi, kind, roots).reshape(len(rows), len(cols))
    r, c = np.meshgrid(rows, cols, indexing="ij")
    lo, hi = np.minimum(r, c), np.maximum(r, c)
    off = lo != hi
    pairs, where = np.unique(lo[off] * len(states) + hi[off], return_inverse=True)
    out = np.full(r.shape, 0.0 if kind == "distance" else 1.0)
    out[off] = pair_values(states, pairs // len(states), pairs % len(states), kind, roots)[where]
    return out


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy in bits, ``-Tr rho log2 rho``.

    Zero eigenvalues contribute zero; tiny negatives from roundoff are
    clamped.
    """
    dec = herm_eig(rho)
    w = np.clip(dec.eigenvalues, 0.0, 1.0)
    w = w[w > 0.0]
    return float(max(0.0, -np.sum(w * np.log2(w))))


def helstrom_pmax(rho: np.ndarray, sigma: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """Optimal success probability for discriminating ``rho`` vs ``sigma``.

    With prior ``p`` on ``rho`` the best single-shot strategy succeeds with
    probability ``(1 + ‖p rho - (1-p) sigma‖_1) / 2``; the second return
    value is the projector onto the positive eigenspace of
    ``p rho - (1-p) sigma``, which is measured to decide for ``rho``.
    """
    if not 0.0 <= p <= 1.0:
        raise OutOfRange(f"prior p={p} outside [0, 1]")
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    _check_same_dim(rho, sigma)
    x = p * rho - (1.0 - p) * sigma
    dec = herm_eig(x)
    pmax = 0.5 * (1.0 + float(np.sum(np.abs(dec.eigenvalues))))
    pos = dec.eigenvectors[:, dec.eigenvalues > 0.0]
    proj = pos @ pos.conj().T
    return pmax, proj


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two operators."""
    return np.kron(as_operator(a), as_operator(b))


def partial_trace(a: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Partial trace of a bipartite operator on ``C^dA ⊗ C^dB``.

    ``keep`` selects the surviving factor, ``"A"`` or ``"B"``.
    """
    a = as_operator(a)
    da, db = dims
    if min(da, db) < 1 or a.shape[0] != da * db:
        raise DimMismatch(f"matrix of size {a.shape[0]} is not {da}x{db} bipartite")
    t = a.reshape(da, db, da, db)
    if keep == "A":
        return np.einsum("ijkj->ik", t)
    if keep == "B":
        return np.einsum("ijil->jl", t)
    raise OutOfRange(f"keep must be 'A' or 'B', got {keep!r}")
