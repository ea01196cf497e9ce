"""Generalized measurements and POVMs, compared through their output ensembles.

A generalized measurement has outcomes ``(m_i, [Mbar_ij])`` where each
Kraus list is normalized to ``Tr(sum_j Mbar†_ij Mbar_ij) = d`` and the
weights sum to one, so the weighted union is trace preserving; it is stored
as one stack of all its Kraus operators.  Measures
between measurements either feed a fixed entangled input through both
(`dist_iso` / `fid_iso`) or search the input sphere for the worst case
(`dist_max` / `fid_min`).  POVMs are compared through the ensemble of their
normalized elements.  :func:`measure` is the one choice of solver by kind
and method; the device measures return its :class:`SolveReport`, with the
bracket and ``converged``, and the worst-case search scores inputs by it.

The worst-case search is a multi-start ascent over pure inputs on ancilla ⊗
system.  With ``method="kantorovich"`` the score at an input is one
transportation LP whose marginals (outcome probabilities) and costs (trace
distances or fidelities of the post-measurement states) are smooth in the
input, so the optimal flow and dual potentials of that same solve give the
exact gradient (envelope theorem; Bertsimas and Tsitsiklis, *Introduction to
Linear Optimization* (1997), ch. 5).  ``method="ehs"`` reads the same
gradient off its solve's tables and duals (Danskin, *The Theory of Max-Min*
(1967)), exact to the solve's ``tol``.  Either way the value found is a
bound: below the true maximum distance, above the true minimum fidelity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ehs import JointPair, SolverOptions, check_counts, ehs_distance, ehs_fidelity
from .ensembles import (
    Ensemble,
    _assemble,
    average_state,
    check_density,
    make_ensemble,
    merge_near_equal,
)
from .errors import DimMismatch, InvalidMeasurement, InvalidParams, InvalidPovm, InvalidState
from .kantorovich import SolveReport, kantorovich_distance, kantorovich_fidelity
from .linalg import as_operator, mat_pinv_sqrt_psd, mat_sqrt_psd, partial_trace, spectral_map

MEAS_TOL = 1e-8
MARGINAL_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class GeneralizedMeasurement:
    """The Kraus operators of all outcomes in one ``(r, d, d)`` stack,
    outcome after outcome: row ``r`` of ``kraus`` belongs to outcome
    ``owner[r]``, of weight ``weights[owner[r]]``.  Every sum over an
    outcome's operators is one stacked sum over ``owner``.
    :func:`make_measurement` builds and validates the stack once."""

    weights: np.ndarray
    kraus: np.ndarray
    owner: np.ndarray

    @property
    def dim(self) -> int:
        return self.kraus.shape[1]

    @cached_property
    def adjoints(self) -> np.ndarray:
        return self.kraus.conj().swapaxes(1, 2)

    @property
    def outcomes(self) -> tuple[tuple[float, tuple[np.ndarray, ...]], ...]:
        """The ``(weight, Kraus tuple)`` of each outcome, read from the stack."""
        ends = np.cumsum(np.bincount(self.owner, minlength=len(self)))
        return tuple(
            (float(w), tuple(ks)) for w, ks in zip(self.weights, np.split(self.kraus, ends[:-1]))
        )

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True, eq=False)
class Povm:
    """Positive operators summing to the identity, as one ``(n, d, d)``
    stack."""

    elements: np.ndarray

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def _ensemble(self) -> Ensemble:
        """:func:`povm_to_ensemble`, built once: :func:`make_povm` builds
        it to check that it exists."""
        tr = np.trace(self.elements, axis1=1, axis2=2).real
        kept = tr > 0.0
        if not kept.any():
            raise InvalidPovm("no element with positive trace")
        return make_ensemble(zip(tr[kept] / self.dim, self.elements[kept] / tr[kept, None, None]))


def make_measurement(outcomes) -> GeneralizedMeasurement:
    """Validate and canonicalize a measurement from ``(weight, kraus list)``
    pairs.

    Zero-weight outcomes are dropped; outcomes whose normalized
    superoperators coincide (Choi trace distance below 1e-9) are merged by
    adding weights.  Raises InvalidMeasurement when any per-outcome
    normalization, the weight sum, or completeness is off by more than 1e-8
    (the message carries the residual norm).
    """
    weights, kraus = [], []
    for weight, ks in outcomes:
        weight = float(weight)
        if not np.isfinite(weight):
            raise InvalidMeasurement(f"non-finite outcome weight {weight}")
        if weight < -MEAS_TOL:
            raise InvalidMeasurement(f"negative outcome weight {weight}")
        if weight > 0.0:
            weights.append(weight)
            kraus.append(list(ks))
    if not weights:
        raise InvalidMeasurement("measurement with no positive-weight outcomes")
    if not all(kraus):
        raise InvalidMeasurement("outcome with empty Kraus list")
    mats = [as_operator(k) for ks in kraus for k in ks]
    _check_one_dim(mats, "Kraus operator")
    owner = np.repeat(np.arange(len(weights)), [len(ks) for ks in kraus])
    return _checked_measurement(np.array(weights), np.array(mats), owner)


def _check_one_dim(mats, noun: str) -> None:
    """Raise DimMismatch at the first of ``mats`` whose dimension is not
    that of the first."""
    dim = mats[0].shape[0]
    other = next((k.shape[0] for k in mats if k.shape[0] != dim), None)
    if other is not None:
        raise DimMismatch(f"{noun} on dim {other}, expected {dim}")


def _checked_measurement(weights, kraus, owner) -> GeneralizedMeasurement:
    """The measurement of positive ``weights`` and Kraus rows grouped by
    ``owner``, once each outcome's normalization, the weight sum and
    completeness hold to 1e-8; outcomes whose Choi states coincide merge."""
    m = GeneralizedMeasurement(weights, kraus, owner)
    dim = m.dim
    gram = m.adjoints @ m.kraus
    norms = np.bincount(owner, np.trace(gram, axis1=1, axis2=2).real, len(weights))
    off = np.abs(norms - dim) > MEAS_TOL * dim
    if off.any():
        norm = norms[np.argmax(off)]
        raise InvalidMeasurement(
            f"outcome normalization Tr sum M†M = {norm:.12g}, expected {dim} "
            f"(residual {abs(norm - dim):.3e})"
        )
    total = float(np.sum(weights))
    if abs(total - 1.0) > MEAS_TOL:
        raise InvalidMeasurement(
            f"outcome weights sum to {total:.12g} (residual {abs(total - 1.0):.3e})"
        )
    comp = np.einsum("r,rij->ij", weights[owner], gram)
    residual = float(np.linalg.norm(comp - np.eye(dim)))
    if residual > MEAS_TOL * dim:
        raise InvalidMeasurement(f"completeness residual norm {residual:.3e}")

    kept, merged, into = merge_near_equal(_choi_states(m), weights)
    rows = np.array(kept)[into[owner]] == owner  # the rows of kept outcomes
    return GeneralizedMeasurement(merged, kraus[rows], into[owner[rows]])


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
    acc = np.einsum("r,rij->ij", m.weights[m.owner], m.kraus @ m.adjoints)
    return float(np.linalg.norm(acc - np.eye(m.dim))) <= tol * m.dim


def compose_measurements(
    second: GeneralizedMeasurement, first: GeneralizedMeasurement
) -> GeneralizedMeasurement:
    """Measurement performing ``first`` and then ``second``.

    Composite outcome (i, k) carries all Kraus products ``K2 K1``, those of
    ``K2`` outer; each is rescaled back to the per-outcome normalization
    convention and the weight picks up the rescaling factor, so duplicates
    merge.  Composites whose products all vanish are dropped.
    """
    _check_dims(second, first)
    d = first.dim
    prods = (second.kraus[:, None] @ first.kraus[None]).reshape(-1, d, d)
    composite = (second.owner[:, None] * len(first) + first.owner[None]).reshape(-1)
    order = np.argsort(composite, kind="stable")  # (i, k) by (i, k), K2 outer within
    prods, composite = prods[order], composite[order]
    norms = np.bincount(composite, np.sum(np.abs(prods) ** 2, axis=(1, 2)))  # every (i, k) has rows
    weights = np.outer(second.weights, first.weights).reshape(-1) * norms / d
    kept = weights > 0.0
    rows = kept[composite]
    scale = np.sqrt(d / norms[composite[rows]])
    renumber = np.cumsum(kept) - 1
    return _checked_measurement(
        weights[kept], scale[:, None, None] * prods[rows], renumber[composite[rows]]
    )


def make_povm(elements) -> Povm:
    """Validate a POVM: PSD elements summing to the identity within 1e-8,
    whose ensemble (:func:`povm_to_ensemble`) exists.  Each element of
    positive trace, divided by it, must be a density matrix to 1e-10.
    The checks run on the whole stack: dimensions, then Hermiticity of
    every element, then positivity, then the sum."""
    mats = [as_operator(e) for e in elements]
    if not mats:
        raise InvalidPovm("empty element list")
    _check_one_dim(mats, "element")
    stack = np.array(mats)
    d = stack.shape[1]
    if np.max(np.linalg.norm(stack - stack.conj().swapaxes(1, 2), axis=(1, 2))) > MEAS_TOL:
        raise InvalidPovm("element is not Hermitian")
    if np.min(np.linalg.eigvalsh(stack)[:, 0]) < -MEAS_TOL:
        raise InvalidPovm("element has a negative eigenvalue")
    residual = float(np.linalg.norm(stack.sum(axis=0) - np.eye(d)))
    if residual > MEAS_TOL * d:
        raise InvalidPovm(f"elements sum residual norm {residual:.3e}")
    povm = Povm(stack)
    try:
        povm_to_ensemble(povm)
    except InvalidState as exc:
        raise InvalidPovm(f"elements give no ensemble: {exc}") from None
    return povm


def _post_states(m: GeneralizedMeasurement, factors: np.ndarray) -> np.ndarray:
    """Each outcome's unnormalized post-state ``Σ_j Y_j Y_j†``, given one
    factor ``Y_j`` per Kraus operator, stacked as ``m.kraus`` is.
    ``np.add.at`` adds the rows in stack order, so each outcome's sum runs
    in Kraus-list order; where every outcome has one row, its sum is that
    row's term, added to zero as ``np.add.at`` adds it (``-0.0`` becomes
    ``+0.0``).

    ``K_j B`` with ``B B† = ρ`` gives ``Σ_j K_j ρ K_j†``.  A sum of ``Y Y†``
    products is Hermitian and positive semidefinite up to rounding relative
    to its own trace, so divided by that trace it is a density matrix far
    inside the 1e-10 of :func:`check_density`, even where the trace itself
    is of rounding size, as long as it is a normal float.
    """
    terms = factors @ factors.conj().swapaxes(1, 2)
    if len(terms) == len(m):  # rows and outcomes are one to one, in order
        return np.add(terms, 0.0, out=terms)
    post = np.zeros((len(m),) + terms.shape[1:], dtype=complex)
    np.add.at(post, m.owner, terms)
    return post


def _outcome_ensembles(weights: np.ndarray, post: np.ndarray, *splits: int) -> list[Ensemble]:
    """The ensemble of outcome probabilities ``w Tr`` and post-states
    ``post / Tr`` of each run of outcomes that ``splits`` cuts out, in
    order: zero-probability outcomes are dropped (a subnormal trace,
    rounded on an absolute grid, counts as zero), near-equal states merge
    within a run, and ``index`` gives, for each outcome of the run, the
    state it went into, or -1.  The traces and the division are taken over
    all runs at once.  The states are not re-validated (see
    :func:`_post_states`)."""
    tr = np.trace(post, axis1=1, axis2=2).real
    probs = weights * tr
    taken = np.flatnonzero((probs > 0.0) & (tr >= np.finfo(float).tiny))
    states = post[taken] / tr[taken, None, None]
    ends = (0, *splits, len(weights))
    cuts = np.searchsorted(taken, ends)
    return [
        _assemble(states[lo:hi], probs[taken[lo:hi]], taken[lo:hi] - start, stop - start)
        for start, stop, lo, hi in zip(ends, ends[1:], cuts, cuts[1:])
    ]


def _choi_states(m: GeneralizedMeasurement) -> np.ndarray:
    """Unnormalized Choi state ``(I ⊗ K)(Φ)`` of each outcome, with ``Φ``
    maximally entangled on ``d × d``: ``(I ⊗ K_j)|Φ⟩`` is ``K_jᵀ`` flattened
    row by row and divided by ``√d``."""
    d = m.dim
    return _post_states(m, m.kraus.swapaxes(1, 2).reshape(-1, d * d, 1) / np.sqrt(d))


def apply_measurement(m: GeneralizedMeasurement, x) -> Ensemble:
    """Output ensemble ``{(p_k m_i Tr Mbar_i(ρ_k), Mbar_i(ρ_k) normalized)}``
    of an ensemble ``x``, a density matrix being the one-state ensemble
    (valid to 1e-10, checked once); a channel of Kraus list ``K`` is the
    measurement ``make_measurement([(1.0, K)])``.

    Pair ``(k, i)`` is outcome ``k · len(m) + i`` of one stack, and its
    post-state is built from the factors ``Mbar_ij √ρ_k``, so it is a
    density matrix by construction.  Zero-probability pairs are dropped
    and near-equal post-states merge; ``index`` gives, for each pair in
    that state-major order, the state it went into, or -1.
    """
    ens = x if isinstance(x, Ensemble) else Ensemble(check_density(x)[None], np.ones(1))
    if ens.dim != m.dim:
        raise DimMismatch(f"state dim {ens.dim}, measurement dim {m.dim}")
    pairs = GeneralizedMeasurement(  # a container: its outcomes repeat unmerged
        np.outer(ens.probs, m.weights).reshape(-1),
        np.tile(m.kraus, (ens.size, 1, 1)),
        (len(m) * np.arange(ens.size)[:, None] + m.owner).reshape(-1),
    )
    factors = pairs.kraus @ np.repeat(mat_sqrt_psd(ens.states), len(m.kraus), axis=0)
    return _outcome_ensembles(pairs.weights, _post_states(pairs, factors))[0]


def _lifted(m: GeneralizedMeasurement, a_dim: int) -> GeneralizedMeasurement:
    """``m`` acting on the system half of ancilla (dim ``a_dim``) ⊗ system;
    lifting keeps validity and Choi distances, so nothing is re-checked."""
    return GeneralizedMeasurement(m.weights, np.kron(np.eye(a_dim), m.kraus), m.owner)


def jamiolkowski_ensemble(m: GeneralizedMeasurement) -> Ensemble:
    """Ensemble obtained by measuring one half of a maximally entangled pair:
    each outcome's normalized Choi state, with probability weight × trace.

    The Choi states come from the post-state kernel with the factors
    ``vec(Kᵀ)/√d``, so they are density matrices by construction.  Outcome
    probabilities equal the measurement weights (the reduced input on the
    untouched side is maximally mixed) and the average state keeps its
    untouched marginal at I/d, which is re-checked here.  As in
    :func:`apply_measurement`, zero-probability outcomes are dropped.
    """
    d = m.dim
    ens = _outcome_ensembles(m.weights, _choi_states(m))[0]
    marg = partial_trace(average_state(ens), (d, d), "A")
    if float(np.linalg.norm(marg - np.eye(d) / d)) > MARGINAL_TOL:
        raise InvalidMeasurement("average Choi state has a skewed untouched marginal")
    return ens


def measure(a, b, kind: str, method: str = "kantorovich", opts=None) -> SolveReport:
    """Ensemble distance or fidelity (``kind``) by the named method, as the
    solver's report; ``opts`` reaches the ``"ehs"`` solvers only.  Raises
    InvalidParams for any other kind or method.  Each call looks the solver
    up among this module's globals, so a wrapper set on one here sees it."""
    if kind not in ("distance", "fidelity"):
        raise InvalidParams(f"unknown kind {kind!r}")
    if method == "kantorovich":
        return kantorovich_distance(a, b) if kind == "distance" else kantorovich_fidelity(a, b)
    if method == "ehs":
        return ehs_distance(a, b, opts) if kind == "distance" else ehs_fidelity(a, b, opts)
    raise InvalidParams(f"unknown method {method!r}")


def _check_dims(x, y) -> None:
    if x.dim != y.dim:
        raise DimMismatch(f"dims {x.dim} and {y.dim} differ")


def _device_measure(x, y, to_ensemble, kind: str, method: str, opts) -> SolveReport:
    """Ensemble measure of the ensembles two devices give through ``to_ensemble``."""
    _check_dims(x, y)
    return measure(to_ensemble(x), to_ensemble(y), kind, method, opts)


def dist_iso(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Ensemble distance between the Choi ensembles of two measurements."""
    return _device_measure(m, n, jamiolkowski_ensemble, "distance", method, opts)


def fid_iso(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
) -> SolveReport:
    """Ensemble fidelity between the Choi ensembles of two measurements."""
    return _device_measure(m, n, jamiolkowski_ensemble, "fidelity", method, opts)


# The tangent-gradient norm at which an ascent from one start stops.
GRAD_NORM_TOL = 1e-6


@dataclass(frozen=True)
class WorstCaseOptions:
    """Search options for the input-sphere optimizers.

    Raises InvalidParams unless each field is an integer >= 0.
    """

    restarts: int = 32
    max_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        check_counts(self, "restarts", "max_steps", "seed")


@dataclass(frozen=True, eq=False)
class WorstCase:
    """What a worst-case search found and what it did.

    Unpacks as ``(value, state)``.  ``iterations`` is the number of steps
    taken, summed over the starts; ``evaluations`` the number of score
    evaluations; ``stationary_starts`` the number of starts that stopped at
    a tangent gradient below ``GRAD_NORM_TOL``; ``unconverged`` the number
    of evaluations whose solve did not converge, after which the value may
    not be a bound.
    """

    value: float
    state: np.ndarray
    iterations: int
    evaluations: int
    stationary_starts: int
    unconverged: int

    def __iter__(self):
        return iter((self.value, self.state))

    def __getitem__(self, k):
        return (self.value, self.state)[k]


def _unit(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x)


def _as_real(psi: np.ndarray) -> np.ndarray:
    return np.concatenate([psi.real, psi.imag])


def _as_complex(x: np.ndarray) -> np.ndarray:
    half = len(x) // 2
    return x[:half] + 1j * x[half:]


def _sphere_search(evaluate, dim: int, wopts: WorstCaseOptions, starts_extra):
    """Multi-start ascent over unit vectors in C^dim, in the real
    parametrization (real parts, then imaginary parts).

    ``evaluate(x)`` returns the score at the unit vector ``x`` and a
    function that gives the score's gradient there; the search asks for the
    gradient only at the points it accepts.  Each step goes along the
    tangent gradient and halves its length until the score rises; the first
    length tried is twice the start's last accepted one (0.25 before its
    first step), capped at 0.5.  A start stops when the tangent gradient
    norm falls to ``GRAD_NORM_TOL``, when no step rises, or after
    ``max_steps``.  Returns the best value found (a lower bound on the true
    maximum), its point, the steps taken and the number of starts that met
    ``GRAD_NORM_TOL``.
    """
    rng = np.random.default_rng(wopts.seed)
    starts = [np.asarray(s, dtype=complex).reshape(-1) for s in starts_extra]
    for _ in range(wopts.restarts):
        starts.append(_unit(rng.normal(size=dim) + 1j * rng.normal(size=dim)))

    best_val = -np.inf
    best_psi = None
    steps = stationary = 0
    for psi in starts:
        x = _as_real(_unit(psi))
        val, gradient = evaluate(x)
        last = 0.25
        for _ in range(wopts.max_steps):
            grad = gradient()
            grad -= (grad @ x) * x  # tangent component on the unit sphere
            gn = float(np.linalg.norm(grad))
            if gn <= GRAD_NORM_TOL:
                stationary += 1
                break
            step = min(0.5, 2.0 * last)
            moved = False
            while step > 1e-6:
                cand = _unit(x + step * grad / gn)
                cv, cg = evaluate(cand)
                if cv > val + 1e-12:
                    x, val, gradient, moved, last = cand, cv, cg, True, step
                    break
                step *= 0.5
            if not moved:
                break
            steps += 1
        if val > best_val:
            best_val, best_psi = val, _unit(_as_complex(x))
    return best_val, best_psi, steps, stationary


def _cost_gradients(kind: str, omega, u, v, roots) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of the ground costs of the support cells
    ``(u[k], v[k])`` with respect to ``omega[u[k]]`` and ``omega[v[k]]``,
    as two stacks.

    Distance ``½‖ω_u − ω_v‖₁``: ``±½ S`` with ``S`` the sign matrix of
    ``ω_u − ω_v``.  Fidelity: ``∂F/∂ρ = ½ √σ (√σ ρ √σ)^{+½} √σ``, and
    symmetrically for ``σ``, from ``roots``, the :func:`mat_sqrt_psd` of
    every state of ``omega``, which the distance does not read.
    """
    omega = np.asarray(omega)
    if kind == "distance":
        signs = 0.5 * spectral_map(omega[u] - omega[v], np.sign)[1]
        return signs, -signs
    # row k < len(u) is the gradient for omega[u[k]]
    r = roots[np.concatenate([v, u])]
    grads = 0.5 * r @ mat_pinv_sqrt_psd(r @ np.concatenate([omega[u], omega[v]]) @ r) @ r
    return grads[: len(u)], grads[len(u) :]


def _flow_gradient(kind: str, plan) -> np.ndarray:
    """The flow-weighted cost gradient on each support state: a coupling
    moves its table ``π``, an extended-space fidelity pair ``√(P Q)``, on
    both sides of each off-diagonal cell (a diagonal cell's cost is
    constant); an extended-space distance pair puts ``½ P_ij Y_ij`` on
    ``ω_i`` and ``−½ Q_ij Y_ij`` on ``ω_j``, ``Y`` its solve's dual."""
    omega = plan.support.omega
    if isinstance(plan, JointPair) and kind == "distance":
        u, v = np.divmod(np.arange(plan.p_table.size), len(omega))
        fu, fv = plan.p_table.reshape(-1, 1, 1), plan.q_table.reshape(-1, 1, 1)
        gu, gv = 0.5 * plan.dual, -0.5 * plan.dual
    else:
        flow = np.sqrt(plan.p_table * plan.q_table) if isinstance(plan, JointPair) else plan.table
        u, v = (flow > 0.0).nonzero()
        off = u != v
        u, v = u[off], v[off]
        roots = plan.support.roots if kind == "fidelity" else None
        gu, gv = _cost_gradients(kind, omega, u, v, roots)
        fu = fv = flow[u, v, None, None]
    a = np.zeros(omega.shape, dtype=complex)
    np.add.at(a, np.concatenate([u, v]), np.concatenate([fu * gu, fv * gv]))
    return a


def _coupling_gradient(kind: str, factors, outputs, plan, stack) -> np.ndarray:
    """Gradient ``2 G ψ`` of a solved measure's value at the pure input ``ψ``.

    By the envelope theorem ``dV = Σ Tr(A_s dω_s) + Σ U_u dp_u + Σ W_v dq_v``
    at the flow-weighted cost gradient ``A`` (:func:`_flow_gradient`) and
    the marginal duals ``U``, ``W`` that the solve left on ``plan``.  An
    outcome ``i`` of weight ``w_i`` has ``p_i = w_i t_i``,
    ``t_i = Σ_{r∈i} ‖K_r ψ‖²``, and post-state ``ω = Ã / t_i``,
    ``Ã = Σ_{r∈i} K_r ψψ† K_r†``; ``A_s`` on a support state ``ω_s`` pulls
    back to ``H_s = (A_s − Tr(A_s ω_s) I) / t_i`` on ``Ã``.  So, over the
    rows of both stacks, ``G ψ = Σ_r K_r† M_{owner(r)} K_r ψ`` with
    ``M_i = U_{s(i)} w_i I`` for each kept outcome ``i`` of support state
    ``s(i)`` (``W`` on the second side), plus ``H_s`` on the outcome that
    ``s`` moves with: the first kept one, on the first side first, that
    went into it.  ``stack`` joins both measurements' Kraus stacks
    (see :class:`_InputScore`), ``factors`` is its rows ``K_r ψ`` and
    ``outputs`` the two output ensembles.
    """
    support = plan.support
    omega = support.omega
    a = _flow_gradient(kind, plan)

    # the outcomes of both measurements, then their Kraus rows
    first, second = outputs
    index = np.concatenate([first.index, second.index])
    kept = (index >= 0).nonzero()[0]
    side = (kept >= len(first.index)).astype(int)
    s = support.index[index[kept] + side * first.size]
    weights, owner = stack.weights, stack.owner
    t = np.bincount(owner, (np.abs(factors) ** 2).sum(axis=1), len(weights))

    dim = factors.shape[1]
    eye = np.eye(dim)
    m = np.zeros((len(weights), dim, dim), dtype=complex)
    duals = np.concatenate([plan.row_duals, plan.col_duals])[side * len(omega) + s]
    m[kept] = (duals * weights[kept])[:, None, None] * eye
    states, at = np.unique(s, return_index=True)
    moved = kept[at]
    trace = np.einsum("kij,kji->k", a[states], omega[states]).real
    m[moved] += (a[states] - trace[:, None, None] * eye) / t[moved, None, None]
    return 2.0 * np.einsum("rij,rj->i", stack.adjoints, np.einsum("rij,rj->ri", m[owner], factors))


class _InputScore:
    """Score of the worst-case search: the signed ensemble measure of the two
    measurements' outputs at a pure input on ancilla (dim ``a_dim``) ⊗
    system, with the input given as a unit vector in the real
    parametrization.

    Calling it at ``x`` returns the score and a function for its gradient
    from the same solve, as :func:`_sphere_search` wants.  ``evaluations``
    counts the scores computed, and ``unconverged`` those whose solve did
    not converge.
    """

    def __init__(self, m, n, kind: str, method: str, opts, a_dim: int):
        # both measurements' outcomes in one lifted stack, those of m first;
        # its weights sum to 2, so it is a container, not a measurement
        joined = GeneralizedMeasurement(
            np.concatenate([m.weights, n.weights]),
            np.concatenate([m.kraus, n.kraus]),
            np.concatenate([m.owner, n.owner + len(m)]),
        )
        self.stack = _lifted(joined, a_dim)
        self.split = len(m)
        self.kind, self.method, self.opts = kind, method, opts
        self.sign = 1.0 if kind == "distance" else -1.0
        self.evaluations = self.unconverged = 0

    def outputs(self, x):
        """The unit input ``ψ`` at ``x``, the factors ``K_r ψ`` of the stack's
        rows and both output ensembles there, as :func:`apply_measurement`
        gives them."""
        self.evaluations += 1
        psi = _unit(_as_complex(x))
        factors = self.stack.kraus @ psi
        post = _post_states(self.stack, factors[:, :, None])
        ens = _outcome_ensembles(self.stack.weights, post, self.split)
        return psi, factors, ens

    def __call__(self, x):
        """The score at ``x``, one :func:`measure` of the output ensembles
        (:meth:`outputs`), and a function for its gradient by the plan and
        marginal duals of that solve."""
        _, factors, ens = self.outputs(x)
        report = measure(*ens, self.kind, self.method, self.opts)
        self.unconverged += not report.converged
        return self.sign * report.value, lambda: self.sign * _as_real(
            _coupling_gradient(self.kind, factors, ens, report.plan, self.stack)
        )


def _worst_case(m, n, kind: str, method: str, opts, wopts, ancilla_dim) -> WorstCase:
    """Ascent of the distance, or descent of the fidelity, over pure inputs."""
    _check_dims(m, n)
    wopts = WorstCaseOptions() if wopts is None else wopts
    a_dim = m.dim if ancilla_dim is None else ancilla_dim
    if isinstance(a_dim, bool) or not isinstance(a_dim, (int, np.integer)) or a_dim < 1:
        raise InvalidParams(f"ancilla_dim must be an integer >= 1, got {ancilla_dim!r}")
    d = m.dim
    score = _InputScore(m, n, kind, method, opts, a_dim)
    phi = np.zeros(a_dim * d, dtype=complex)
    for j in range(min(a_dim, d)):
        phi[j * d + j] = 1.0
    phi = _unit(phi)
    val, psi, steps, stationary = _sphere_search(score, a_dim * d, wopts, [phi])
    return WorstCase(
        float(score.sign * val), psi, steps, score.evaluations, stationary, score.unconverged
    )


def dist_max(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
    wopts: WorstCaseOptions | None = None,
    ancilla_dim: int | None = None,
) -> WorstCase:
    """Worst-case ensemble distance over pure inputs on ancilla ⊗ system.

    Multi-start local ascent; the returned value is a lower bound on the
    true maximum and the maximally entangled input is always among the
    starts, so the value dominates the fixed-input distance evaluated there.
    Returns a :class:`WorstCase`, which unpacks as ``(value, argmax
    state)``.
    """
    return _worst_case(m, n, "distance", method, opts, wopts, ancilla_dim)


def fid_min(
    m: GeneralizedMeasurement,
    n: GeneralizedMeasurement,
    method: str = "kantorovich",
    opts: SolverOptions | None = None,
    wopts: WorstCaseOptions | None = None,
    ancilla_dim: int | None = None,
) -> WorstCase:
    """Worst-case ensemble fidelity over pure inputs; upper bound on the
    true minimum.  Returns a :class:`WorstCase`, which unpacks as
    ``(value, argmin state)``."""
    return _worst_case(m, n, "fidelity", method, opts, wopts, ancilla_dim)


def povm_to_ensemble(p: Povm) -> Ensemble:
    """Ensemble ``{(Tr E_i / d, E_i / Tr E_i)}``; its average is I/d."""
    return p._ensemble


def povm_distance(
    p: Povm, q: Povm, method: str = "kantorovich", opts: SolverOptions | None = None
) -> SolveReport:
    """Ensemble distance between the normalized-element ensembles."""
    return _device_measure(p, q, povm_to_ensemble, "distance", method, opts)


def povm_fidelity(
    p: Povm, q: Povm, method: str = "kantorovich", opts: SolverOptions | None = None
) -> SolveReport:
    """Ensemble fidelity between the normalized-element ensembles."""
    return _device_measure(p, q, povm_to_ensemble, "fidelity", method, opts)
