"""Generalized measurements and POVMs, compared through their output ensembles.

A generalized measurement is stored as outcome pairs ``(m_i, [Mbar_ij])``
where each Kraus list is normalized to ``Tr(sum_j Mbar†_ij Mbar_ij) = d`` and
the weights sum to one, so the weighted union is trace preserving.  Measures
between measurements either feed a fixed entangled input through both
(`dist_iso` / `fid_iso`) or search the input sphere for the worst case
(`dist_max` / `fid_min`).  POVMs are compared through the ensemble of their
normalized elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ehs import SolverOptions, ehs_distance, ehs_fidelity
from .ensembles import Ensemble, average_state, make_ensemble, merge_near_equal
from .errors import DimMismatch, InvalidMeasurement, InvalidParams, InvalidPovm
from .kantorovich import kantorovich_distance, kantorovich_fidelity
from .linalg import as_operator, partial_trace

MEAS_TOL = 1e-8
MARGINAL_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class GeneralizedMeasurement:
    """Outcome list ``(weight, kraus tuple)`` acting on dimension ``dim``."""

    outcomes: tuple[tuple[float, tuple[np.ndarray, ...]], ...]
    dim: int

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.outcomes])

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity."""

    elements: tuple[np.ndarray, ...]
    dim: int

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class ChoiEnsemble:
    """Ensemble of per-outcome Choi states on ``dim**2``; probabilities are
    the outcome weights."""

    ensemble: Ensemble
    dim: int


def _choi_state(kraus, d: int) -> np.ndarray:
    """Choi state ``(I ⊗ K)(Φ)`` of the map with the given Kraus list."""
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    c = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d)
    for k in kraus:
        v = np.kron(eye, k) @ phi
        c += np.outer(v, v.conj())
    return c


def make_measurement(outcomes) -> GeneralizedMeasurement:
    """Validate and canonicalize a measurement from ``(weight, kraus list)``
    pairs.

    Zero-weight outcomes are dropped; outcomes whose normalized
    superoperators coincide (Choi trace distance below 1e-9) are merged by
    adding weights.  Raises InvalidMeasurement when any per-outcome
    normalization, the weight sum, or completeness is off by more than 1e-8
    (the message carries the residual norm).
    """
    cleaned = []
    dim = None
    for weight, kraus in outcomes:
        weight = float(weight)
        if not np.isfinite(weight):
            raise InvalidMeasurement(f"non-finite outcome weight {weight}")
        if weight < -MEAS_TOL:
            raise InvalidMeasurement(f"negative outcome weight {weight}")
        if weight <= 0.0:
            continue
        kraus = tuple(as_operator(k) for k in kraus)
        if not kraus:
            raise InvalidMeasurement("outcome with empty Kraus list")
        if dim is None:
            dim = kraus[0].shape[0]
        for k in kraus:
            if k.shape[0] != dim:
                raise DimMismatch(f"Kraus operator on dim {k.shape[0]}, expected {dim}")
        norm = float(np.real(sum(np.trace(k.conj().T @ k) for k in kraus)))
        if abs(norm - dim) > MEAS_TOL * dim:
            raise InvalidMeasurement(
                f"outcome normalization Tr sum M†M = {norm:.12g}, expected {dim} "
                f"(residual {abs(norm - dim):.3e})"
            )
        cleaned.append((weight, kraus))
    if not cleaned:
        raise InvalidMeasurement("measurement with no positive-weight outcomes")

    total = sum(w for w, _ in cleaned)
    if abs(total - 1.0) > MEAS_TOL:
        raise InvalidMeasurement(
            f"outcome weights sum to {total:.12g} (residual {abs(total - 1.0):.3e})"
        )

    comp = np.zeros((dim, dim), dtype=complex)
    for w, kraus in cleaned:
        for k in kraus:
            comp += w * (k.conj().T @ k)
    residual = float(np.linalg.norm(comp - np.eye(dim)))
    if residual > MEAS_TOL * dim:
        raise InvalidMeasurement(f"completeness residual norm {residual:.3e}")

    chois = [_choi_state(kraus, dim) for _, kraus in cleaned]
    kept, weights, _ = merge_near_equal(chois, [w for w, _ in cleaned])
    merged = tuple((float(w), cleaned[i][1]) for i, w in zip(kept, weights))
    return GeneralizedMeasurement(merged, dim)


def projective_measurement(vectors) -> GeneralizedMeasurement:
    """Measurement projecting onto the given orthonormal basis vectors."""
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    d = len(vecs)
    outcomes = []
    for v in vecs:
        if v.shape[0] != d:
            raise DimMismatch(f"need {d} vectors of dimension {d}")
        proj = np.outer(v, v.conj())
        outcomes.append((1.0 / d, [np.sqrt(d) * proj]))
    return make_measurement(outcomes)


def is_unital(m: GeneralizedMeasurement, tol: float = MEAS_TOL) -> bool:
    """True when the weighted union maps the identity to itself."""
    acc = np.zeros((m.dim, m.dim), dtype=complex)
    for w, kraus in m.outcomes:
        for k in kraus:
            acc += w * (k @ k.conj().T)
    return float(np.linalg.norm(acc - np.eye(m.dim))) <= tol * m.dim


def compose_measurements(
    second: GeneralizedMeasurement, first: GeneralizedMeasurement
) -> GeneralizedMeasurement:
    """Measurement performing ``first`` and then ``second``.

    Composite outcome (i, k) carries all Kraus products; each is rescaled
    back to the per-outcome normalization convention and the weight picks up
    the rescaling factor, so duplicates merge in make_measurement.
    """
    if second.dim != first.dim:
        raise DimMismatch(f"dims {second.dim} and {first.dim} differ")
    d = first.dim
    outcomes = []
    for w2, kraus2 in second.outcomes:
        for w1, kraus1 in first.outcomes:
            prod = [k2 @ k1 for k2 in kraus2 for k1 in kraus1]
            norm = float(np.real(sum(np.trace(k.conj().T @ k) for k in prod)))
            if norm <= 0.0:
                continue
            scale = np.sqrt(d / norm)
            outcomes.append((w2 * w1 * norm / d, [scale * k for k in prod]))
    return make_measurement(outcomes)


def make_povm(elements) -> Povm:
    """Validate a POVM: PSD elements summing to the identity within 1e-8."""
    mats = [as_operator(e) for e in elements]
    if not mats:
        raise InvalidPovm("empty element list")
    d = mats[0].shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for e in mats:
        if e.shape[0] != d:
            raise DimMismatch(f"element on dim {e.shape[0]}, expected {d}")
        if np.linalg.norm(e - e.conj().T) > MEAS_TOL:
            raise InvalidPovm("element is not Hermitian")
        if float(np.linalg.eigvalsh(e)[0]) < -MEAS_TOL:
            raise InvalidPovm("element has a negative eigenvalue")
        acc += e
    residual = float(np.linalg.norm(acc - np.eye(d)))
    if residual > MEAS_TOL * d:
        raise InvalidPovm(f"elements sum residual norm {residual:.3e}")
    return Povm(tuple(mats), d)


def apply_measurement(m: GeneralizedMeasurement, rho: np.ndarray) -> Ensemble:
    """Output ensemble ``{(m_i Tr Mbar_i(rho), Mbar_i(rho) normalized)}``.

    Zero-probability outcomes are dropped and identical post-states merge.
    """
    rho = as_operator(rho)
    if rho.shape[0] != m.dim:
        raise DimMismatch(f"state dim {rho.shape[0]}, measurement dim {m.dim}")
    pairs = []
    for w, kraus in m.outcomes:
        out = np.zeros_like(rho)
        for k in kraus:
            out += k @ rho @ k.conj().T
        tr = float(np.real(np.trace(out)))
        if w * tr <= 0.0:
            continue
        pairs.append((w * tr, out / tr))
    return make_ensemble(pairs)


def _lifted(m: GeneralizedMeasurement, a_dim: int) -> GeneralizedMeasurement:
    """``m`` acting on the system half of ancilla (dim ``a_dim``) ⊗ system;
    lifting keeps validity and Choi distances, so nothing is re-checked."""
    eye = np.eye(a_dim)
    return GeneralizedMeasurement(
        tuple((w, tuple(np.kron(eye, k) for k in kraus)) for w, kraus in m.outcomes),
        a_dim * m.dim,
    )


def jamiolkowski_ensemble(m: GeneralizedMeasurement) -> ChoiEnsemble:
    """Ensemble obtained by measuring one half of a maximally entangled pair.

    Outcome probabilities equal the measurement weights (the reduced input
    on the untouched side is maximally mixed) and the average state keeps
    its untouched marginal at I/d, which is re-checked here.
    """
    d = m.dim
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    ens = apply_measurement(_lifted(m, d), np.outer(phi, phi.conj()))
    marg = partial_trace(average_state(ens), (d, d), "A")
    if float(np.linalg.norm(marg - np.eye(d) / d)) > MARGINAL_TOL:
        raise InvalidMeasurement("average Choi state has a skewed untouched marginal")
    return ChoiEnsemble(ens, d)


def _ensemble_measure(a: Ensemble, b: Ensemble, kind: str, method: str, opts) -> float:
    """Ensemble distance or fidelity (``kind``) by the named method."""
    if method == "kantorovich":
        measure = kantorovich_distance if kind == "distance" else kantorovich_fidelity
        return measure(a, b)[0]
    if method == "ehs":
        measure = ehs_distance if kind == "distance" else ehs_fidelity
        return measure(a, b, opts).value
    raise InvalidParams(f"unknown method {method!r}")


def _check_dims(x, y) -> None:
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")


def _iso(m, n, kind: str, method: str, opts) -> float:
    _check_dims(m, n)
    return _ensemble_measure(
        jamiolkowski_ensemble(m).ensemble, jamiolkowski_ensemble(n).ensemble, kind, method, opts
    )


def dist_iso(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
) -> float:
    """Ensemble distance between the Choi ensembles of two measurements."""
    return _iso(m, n, "distance", method, opts)


def fid_iso(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
) -> float:
    """Ensemble fidelity between the Choi ensembles of two measurements."""
    return _iso(m, n, "fidelity", method, opts)


# Central-difference step and the tangent-gradient norm at which an ascent
# from one start stops.
FD_STEP = 1e-5
GRAD_NORM_TOL = 1e-6


@dataclass(frozen=True)
class WorstCaseOptions:
    """Search options for the input-sphere optimizers."""

    restarts: int = 32
    max_steps: int = 500
    seed: int = 0


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def _sphere_search(score, dim: int, wopts: WorstCaseOptions, starts_extra):
    """Multi-start ascent of ``score`` over unit vectors in C^dim.

    Central finite differences in the real parametrization, tangent-space
    steps with backtracking.  Returns the best point found, a lower bound on
    the true maximum.
    """
    rng = np.random.default_rng(wopts.seed)
    starts = [np.asarray(s, dtype=complex).reshape(-1) for s in starts_extra]
    for _ in range(wopts.restarts):
        starts.append(_unit(rng.normal(size=dim) + 1j * rng.normal(size=dim)))

    def as_real(psi):
        return np.concatenate([psi.real, psi.imag])

    def as_complex(x):
        return x[:dim] + 1j * x[dim:]

    def value(x):
        return score(_unit(as_complex(x)))

    best_val = -np.inf
    best_psi = None
    for psi in starts:
        x = as_real(_unit(psi))
        val = value(x)
        for _ in range(wopts.max_steps):
            grad = np.zeros_like(x)
            for k in range(2 * dim):
                e = np.zeros_like(x)
                e[k] = FD_STEP
                grad[k] = (value(x + e) - value(x - e)) / (2.0 * FD_STEP)
            grad -= (grad @ x) * x  # tangent component on the unit sphere
            gn = float(np.linalg.norm(grad))
            if gn <= GRAD_NORM_TOL:
                break
            step = 0.5
            moved = False
            while step > 1e-6:
                cand = _unit(x + step * grad / gn)
                cv = value(cand)
                if cv > val + 1e-12:
                    x, val, moved = cand, cv, True
                    break
                step *= 0.5
            if not moved:
                break
        if val > best_val:
            best_val, best_psi = val, _unit(as_complex(x))
    return best_val, best_psi


def _worst_case(m, n, kind: str, method: str, opts, wopts, ancilla_dim):
    """Ascent of the distance, or descent of the fidelity, over pure inputs."""
    _check_dims(m, n)
    wopts = WorstCaseOptions() if wopts is None else wopts
    a_dim = m.dim if ancilla_dim is None else int(ancilla_dim)
    if a_dim < 1:
        raise InvalidParams(f"ancilla dimension {a_dim}")
    d = m.dim
    sign = 1.0 if kind == "distance" else -1.0
    lifted_m, lifted_n = _lifted(m, a_dim), _lifted(n, a_dim)

    def score(psi):
        rho = np.outer(psi, psi.conj())
        ea, eb = apply_measurement(lifted_m, rho), apply_measurement(lifted_n, rho)
        return sign * _ensemble_measure(ea, eb, kind, method, opts)

    phi = np.zeros(a_dim * d, dtype=complex)
    for j in range(min(a_dim, d)):
        phi[j * d + j] = 1.0
    phi = _unit(phi)
    val, psi = _sphere_search(score, a_dim * d, wopts, [phi])
    return float(sign * val), psi


def dist_max(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
    wopts: WorstCaseOptions | None = None,
    ancilla_dim: int | None = None,
):
    """Worst-case ensemble distance over pure inputs on ancilla ⊗ system.

    Multi-start local ascent; the returned value is a lower bound on the
    true maximum and the maximally entangled input is always among the
    starts, so the value dominates the fixed-input distance evaluated there.
    Returns ``(value, argmax state)``.
    """
    return _worst_case(m, n, "distance", method, opts, wopts, ancilla_dim)


def fid_min(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
    wopts: WorstCaseOptions | None = None,
    ancilla_dim: int | None = None,
):
    """Worst-case ensemble fidelity over pure inputs; upper bound on the
    true minimum.  Returns ``(value, argmin state)``."""
    return _worst_case(m, n, "fidelity", method, opts, wopts, ancilla_dim)


def povm_to_ensemble(p: Povm) -> Ensemble:
    """Ensemble ``{(Tr E_i / d, E_i / Tr E_i)}``; its average is I/d."""
    pairs = []
    for e in p.elements:
        tr = float(np.real(np.trace(e)))
        if tr <= 0.0:
            continue
        pairs.append((tr / p.dim, e / tr))
    if not pairs:
        raise InvalidPovm("no element with positive trace")
    return make_ensemble(pairs)


def _povm(p: Povm, q: Povm, kind: str, method: str, opts) -> float:
    _check_dims(p, q)
    return _ensemble_measure(povm_to_ensemble(p), povm_to_ensemble(q), kind, method, opts)


def povm_distance(
    p: Povm, q: Povm, method: str = "kantorovich", opts: SolverOptions | None = None
) -> float:
    """Ensemble distance between the normalized-element ensembles."""
    return _povm(p, q, "distance", method, opts)


def povm_fidelity(
    p: Povm, q: Povm, method: str = "kantorovich", opts: SolverOptions | None = None
) -> float:
    """Ensemble fidelity between the normalized-element ensembles."""
    return _povm(p, q, "fidelity", method, opts)
