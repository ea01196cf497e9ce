import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_metrics import channels
from ensemble_metrics.channels import (
    GeneralizedMeasurement,
    WorstCaseOptions,
    _as_complex,
    _as_real,
    _cost_gradients,
    _InputScore,
    _lifted,
    _sphere_search,
    _unit,
    apply_measurement,
    compose_measurements,
    dist_iso,
    dist_max,
    fid_iso,
    fid_min,
    is_unital,
    jamiolkowski_ensemble,
    make_measurement,
    make_povm,
    povm_distance,
    povm_fidelity,
    povm_to_ensemble,
    projective_measurement,
)
from ensemble_metrics.ensembles import (
    _first_invalid,
    average_state,
    check_density,
    make_ensemble,
    pure_state,
    unify_support,
)
from ensemble_metrics.errors import (
    DimMismatch,
    InvalidMeasurement,
    InvalidParams,
    InvalidPovm,
    InvalidState,
)
from ensemble_metrics.ehs import SolverOptions, ehs_distance, ehs_fidelity
from ensemble_metrics.kantorovich import kantorovich_distance, kantorovich_fidelity
from ensemble_metrics.linalg import (
    mat_pinv_sqrt_psd,
    mat_sqrt_psd,
    partial_trace,
    tensor,
    trace_distance,
)
from ensemble_metrics.oracle import random_density, random_measurement, random_unitary

E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])
PLUS_V = np.array([1.0, 1.0]) / np.sqrt(2)
MINUS_V = np.array([1.0, -1.0]) / np.sqrt(2)


def _z_meas():
    return projective_measurement([E0, E1])


def _x_meas():
    return projective_measurement([PLUS_V, MINUS_V])


def _apply_to_ensemble(measurement, ens):
    pairs = []
    for p, state in ens:
        out = apply_measurement(measurement, state)
        pairs.extend((p * w, s) for w, s in out)
    return make_ensemble(pairs)


def test_projective_measurement_shape():
    z = _z_meas()
    assert z.dim == 2 and len(z) == 2
    assert np.allclose(z.weights, [0.5, 0.5])
    for w, kraus in z.outcomes:
        norm = sum(np.trace(k.conj().T @ k).real for k in kraus)
        assert abs(norm - 2.0) <= 1e-12


def test_make_measurement_rejects_bad_normalization():
    with pytest.raises(InvalidMeasurement):
        make_measurement([(1.0, [np.eye(2) * 0.5])])  # Tr M†M = 0.5, expected 2


def test_make_measurement_rejects_bad_weight_sum():
    proj0 = np.sqrt(2.0) * np.outer(E0, E0)
    proj1 = np.sqrt(2.0) * np.outer(E1, E1)
    with pytest.raises(InvalidMeasurement) as err:
        make_measurement([(0.3, [proj0]), (0.3, [proj1])])
    assert "0.4" in str(err.value) or "residual" in str(err.value)


def test_make_measurement_rejects_incomplete():
    # both outcomes hit the same ray: sums to 2|0><0|, not the identity
    proj0 = np.sqrt(2.0) * np.outer(E0, E0)
    with pytest.raises(InvalidMeasurement) as err:
        make_measurement([(0.5, [proj0]), (0.5, [proj0.copy()])])
    assert "completeness" in str(err.value)


def test_make_measurement_rejects_non_finite_weight():
    proj0 = np.sqrt(2.0) * np.outer(E0, E0)
    proj1 = np.sqrt(2.0) * np.outer(E1, E1)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidMeasurement, match="non-finite"):
            make_measurement([(bad, [proj0]), (0.5, [proj1])])


_P0, _P1 = np.sqrt(2.0) * np.diag([1.0, 0.0]), np.sqrt(2.0) * np.diag([0.0, 1.0])
_NAN_ENTRY = np.where(np.eye(2, dtype=bool), _P0, np.nan)

# inputs with one fault each, and the exception and message they raise
SINGLE_FAULTS = [
    pytest.param(make_measurement, [(1.0, [np.eye(2) * 0.5])], InvalidMeasurement,
                 "outcome normalization Tr sum M†M = 0.5, expected 2 (residual 1.500e+00)",
                 id="normalization"),
    pytest.param(make_measurement, [(0.5, [_P0]), (0.5, [0.5 * _P1])], InvalidMeasurement,
                 "outcome normalization Tr sum M†M = 0.5, expected 2 (residual 1.500e+00)",
                 id="normalization-of-a-later-outcome"),
    pytest.param(make_measurement, [(0.3, [_P0]), (0.3, [_P1])], InvalidMeasurement,
                 "outcome weights sum to 0.6 (residual 4.000e-01)", id="weight-sum"),
    pytest.param(make_measurement, [(0.5, [_P0]), (0.5, [_P0.copy()])], InvalidMeasurement,
                 "completeness residual norm 1.414e+00", id="completeness"),
    pytest.param(make_measurement, [(np.nan, [_P0]), (0.5, [_P1])], InvalidMeasurement,
                 "non-finite outcome weight nan", id="nan-weight"),
    pytest.param(make_measurement, [(0.5, [_P0]), (np.inf, [_P1])], InvalidMeasurement,
                 "non-finite outcome weight inf", id="inf-weight"),
    pytest.param(make_measurement, [(-0.5, [_P0]), (1.5, [_P1])], InvalidMeasurement,
                 "negative outcome weight -0.5", id="negative-weight"),
    pytest.param(make_measurement, [(0.0, [_P0])], InvalidMeasurement,
                 "measurement with no positive-weight outcomes", id="no-positive-weight"),
    pytest.param(make_measurement, [(0.5, [_P0]), (0.5, [])], InvalidMeasurement,
                 "outcome with empty Kraus list", id="empty-kraus-list"),
    pytest.param(make_measurement, [(0.5, [_P0]), (0.5, [np.sqrt(3.0) * np.diag([1.0, 0, 0])])],
                 DimMismatch, "Kraus operator on dim 3, expected 2", id="kraus-dims"),
    pytest.param(make_measurement, [(1.0, [np.ones((2, 3))])], DimMismatch,
                 "expected a square matrix, got shape (2, 3)", id="non-square-kraus"),
    pytest.param(make_measurement, [(0.5, [_NAN_ENTRY]), (0.5, [_P1])], ValueError,
                 "matrix entries must be finite", id="non-finite-kraus-entry"),
    pytest.param(make_povm, [], InvalidPovm, "empty element list", id="empty-povm"),
    pytest.param(make_povm, [np.array([[0.5, 0.1], [0.2, 0.5]]), np.eye(2) * 0.5], InvalidPovm,
                 "element is not Hermitian", id="not-hermitian"),
    pytest.param(make_povm, [np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])], InvalidPovm,
                 "element has a negative eigenvalue", id="negative-eigenvalue"),
    pytest.param(make_povm, [np.eye(2) * 0.4, np.eye(2) * 0.4], InvalidPovm,
                 "elements sum residual norm 2.828e-01", id="element-sum"),
    pytest.param(make_povm, [np.eye(2) * 0.5, np.eye(3) * 0.5], DimMismatch,
                 "element on dim 3, expected 2", id="element-dims"),
    pytest.param(make_povm, [np.ones((2, 3))], DimMismatch,
                 "expected a square matrix, got shape (2, 3)", id="non-square-element"),
]


@pytest.mark.parametrize("build, arg, error, message", SINGLE_FAULTS)
def test_single_fault_raises_its_error_and_message(build, arg, error, message):
    with pytest.raises(error) as err:
        build(arg)
    assert str(err.value) == message


def test_make_measurement_merges_equivalent_outcomes():
    proj0 = np.sqrt(2.0) * np.outer(E0, E0)
    proj1 = np.sqrt(2.0) * np.outer(E1, E1)
    m = make_measurement([(0.25, [proj0]), (0.25, [proj0 * np.exp(0.7j)]), (0.5, [proj1])])
    assert len(m) == 2
    assert abs(sorted(m.weights)[1] - 0.5) <= 1e-12


def test_make_measurement_drops_zero_weight():
    proj0 = np.sqrt(2.0) * np.outer(E0, E0)
    proj1 = np.sqrt(2.0) * np.outer(E1, E1)
    unitary = np.eye(2, dtype=complex)
    m = make_measurement([(0.5, [proj0]), (0.5, [proj1]), (0.0, [unitary])])
    assert len(m) == 2


@pytest.mark.parametrize(
    "d, outcomes, kraus, a_dim", [(2, 2, 1, 2), (2, 3, 2, 1), (3, 3, 2, 3), (3, 2, 1, 2)]
)
def test_lifted_equals_validated_lift(d, outcomes, kraus, a_dim):
    m = random_measurement(d, outcomes, seed=40 + d + outcomes, kraus_per_outcome=kraus)
    eye = np.eye(a_dim)
    want = make_measurement([(w, [np.kron(eye, k) for k in ks]) for w, ks in m.outcomes])
    got = _lifted(m, a_dim)
    assert got.dim == want.dim == a_dim * d
    assert np.array_equal(got.weights, want.weights)
    assert len(got) == len(want)
    for (_, ks_got), (_, ks_want) in zip(got.outcomes, want.outcomes):
        assert len(ks_got) == len(ks_want)
        assert all(np.array_equal(x, y) for x, y in zip(ks_got, ks_want))


def test_apply_measurement_probabilities():
    z = _z_meas()
    plus = pure_state(PLUS_V)
    out = apply_measurement(z, plus)
    assert out.size == 2
    assert np.allclose(sorted(out.probs), [0.5, 0.5])
    # post-measurement states are the basis projectors
    sp = unify_support(out, make_ensemble([(0.5, pure_state(E0)), (0.5, pure_state(E1))]))
    assert len(sp.omega) == 2


def test_apply_measurement_dim_mismatch():
    with pytest.raises(DimMismatch):
        apply_measurement(_z_meas(), np.eye(3) / 3)


def _per_kraus_outputs(m, b):
    """Output ensemble of ``m`` at ``ρ = b b†`` one outcome and one Kraus
    operator at a time, as ``Σ (K_j b)(K_j b)†``, every post-state validated
    by make_ensemble: the reference for the stacked kernel."""
    pairs, taken = [], []
    for i, (w, kraus) in enumerate(m.outcomes):
        out = np.zeros((m.dim, m.dim), dtype=complex)
        for k in kraus:
            y = k @ b
            out += y @ y.conj().T
        tr = float(np.real(np.trace(out)))
        if w * tr <= 0.0:
            continue
        pairs.append((w * tr, out / tr))
        taken.append(i)
    ens = make_ensemble(pairs)
    index = np.full(len(m), -1)
    index[taken] = ens.index
    return ens.states, ens.probs, index


def _score_cases():
    """``(m, a_dim, x)``: random instruments at d = 2, 3 with 1-3 Kraus
    operators per outcome at random inputs; Z at |00>, where its second
    outcome has probability zero; and a measurement whose two outcomes
    both leave |0> at a product input, so their post-states merge."""
    cases = []
    for d in (2, 3):
        for kraus in (1, 2, 3):
            m = random_measurement(d, 3, seed=100 + 10 * d + kraus, kraus_per_outcome=kraus)
            for a_dim in (1, d):
                cases += [(m, a_dim, _random_input(a_dim * d, s)) for s in range(3)]
    cases.append((_z_meas(), 2, _as_real(np.kron(E0, E0).astype(complex))))
    decay = make_measurement(
        [(0.5, [np.sqrt(2.0) * np.outer(E0, E0)]), (0.5, [np.sqrt(2.0) * np.outer(E0, E1)])]
    )
    product = np.kron(random_unitary(2, seed=5)[:, 0], random_unitary(2, seed=6)[:, 0])
    cases.append((decay, 2, _as_real(product)))
    return cases


def test_score_outputs_equal_the_per_kraus_reference():
    # the stacked kernel sums each outcome's terms in Kraus-list order, so
    # states, probabilities and index agree bit for bit at any Kraus count
    zero = merged = 0
    for m, a_dim, x in _score_cases():
        score = _InputScore(m, m, "distance", "kantorovich", None, a_dim)
        psi, _, (got, _) = score.outputs(x)
        states, probs, index = _per_kraus_outputs(_lifted(m, a_dim), psi[:, None])
        assert len(got.states) == len(states)
        assert all(np.array_equal(a, b) for a, b in zip(got.states, states))
        assert np.array_equal(got.probs, probs)
        assert np.array_equal(got.index, index)
        zero += int(np.any(index < 0))
        merged += int(len(set(index.tolist())) < len(index))
    assert zero >= 1 and merged >= 1


def test_apply_measurement_equals_the_per_kraus_reference():
    for m, a_dim, x in _score_cases():
        lifted = _lifted(m, a_dim)
        psi = _unit(_as_complex(x))
        rho = np.outer(psi, psi.conj())
        got = apply_measurement(lifted, rho)
        states, probs, index = _per_kraus_outputs(lifted, mat_sqrt_psd(rho))
        assert len(got.states) == len(states)
        assert all(np.array_equal(a, b) for a, b in zip(got.states, states))
        assert np.array_equal(got.probs, probs) and np.array_equal(got.index, index)


@pytest.mark.parametrize(
    "rho, error",
    [
        (np.array([[0.5, 0.5], [0.0, 0.5]]), InvalidState),  # not Hermitian
        (np.diag([1.2, -0.2]), InvalidState),  # a negative eigenvalue
        (np.diag([0.7, 0.7]), InvalidState),  # trace 1.4
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ValueError),
        (np.ones((2, 3)) / 2, DimMismatch),
    ],
)
def test_apply_measurement_still_rejects_invalid_inputs(rho, error):
    m = random_measurement(2, 2, seed=7)
    with pytest.raises(error) as found:
        apply_measurement(m, rho)
    if error is InvalidState:
        with pytest.raises(InvalidState) as want:
            check_density(rho)
        assert str(found.value) == str(want.value)


def test_apply_measurement_checks_the_input_trace_to_1e_10():
    m = random_measurement(2, 2, seed=7)
    apply_measurement(m, np.diag([0.5, 0.5 + 5e-11]))
    with pytest.raises(InvalidState, match="trace differs from 1"):
        apply_measurement(m, np.diag([0.5, 0.5 + 5e-9]))


@pytest.mark.parametrize("seed", [1, 2, 5])
def test_score_checks_outcomes_of_roundoff_probability(seed):
    # at a basis vector of a rotated projective measurement the other
    # outcomes keep probabilities of order 1e-32; their post-states are
    # built as density matrices, so the score and apply_measurement return
    # valid ensembles whose value is the one without those outcomes
    u = random_unitary(3, seed=seed)
    m = projective_measurement(u.T)
    x = _as_real(u[:, 0].astype(complex))
    score = _InputScore(m, m, "distance", "kantorovich", None, 1)
    psi, _, (got, _) = score.outputs(x)
    ens = apply_measurement(m, np.outer(psi, psi.conj()))
    for out in (got, ens):
        assert _first_invalid(np.array(out.states)) is None
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert np.sort(out.probs)[-2] <= 1e-30
    assert score(x)[0] == 0.0


def test_outcomes_of_subnormal_trace_are_dropped():
    # K_A √ρ has entries near 1e-160, so outcome A's post-state is subnormal
    # and its entries are rounded to an absolute grid far coarser than its
    # trace: it counts as probability zero
    k_a = np.sqrt(2) * np.array([[1.0, 1e-160], [0.0, 3e-161]])
    m = make_measurement([(0.5, [k_a]), (0.5, [np.sqrt(2) * np.diag([0.0, 1.0])])])
    rho = np.diag([0.0, 1.0])
    x = _as_real(np.array([0.0, 1.0], dtype=complex))
    _, _, (scored, _) = _InputScore(m, m, "distance", "kantorovich", None, 1).outputs(x)
    for ens in (apply_measurement(m, rho), scored):
        _assert_valid(ens)
        assert list(ens.index) == [-1, 0]


def _kraus_formula(m, rho, faint=0.0):
    """``(w Tr, Σ K ρ K† / Tr)`` of each outcome whose probability exceeds
    ``faint``, by the two-sided product ``K ρ K†``."""
    pairs = []
    for w, kraus in m.outcomes:
        out = sum(k @ rho @ k.conj().T for k in kraus)
        tr = float(np.real(np.trace(out)))
        if w * tr > faint:
            pairs.append((w * tr, out / tr))
    return pairs


def _assert_valid(ens):
    assert _first_invalid(np.array(ens.states)) is None
    assert abs(ens.probs.sum() - 1.0) <= 1e-12


def _assert_matches_formula(ens, pairs, faint):
    # every outcome above ``faint`` has a state within 1e-12 of the formula's
    for p, want in pairs:
        if p > faint:
            assert min(np.abs(got - want).max() for got in ens.states) <= 1e-12


# outcomes above this probability match the K ρ K† formula to 1e-12
_NOT_FAINT = 1e-3


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.booleans(), st.integers(0, 10**6))
def test_post_state_kernel_gives_density_matrices(d, kraus, ancilla, seed):
    m = random_measurement(d, 3, seed=seed, kraus_per_outcome=kraus)
    a_dim = d if ancilla else 1
    lifted = _lifted(m, a_dim)
    x = _random_input(a_dim * d, seed)
    psi, _, (scored, _) = _InputScore(m, m, "distance", "kantorovich", None, a_dim).outputs(x)
    pure = np.outer(psi, psi.conj())
    mixed = random_density(d, seed=seed)
    cases = [
        (scored, _kraus_formula(lifted, pure)),
        (apply_measurement(lifted, pure), _kraus_formula(lifted, pure)),
        (apply_measurement(m, mixed), _kraus_formula(m, mixed)),
    ]
    # the other outcomes of a projective measurement at one of its basis
    # vectors have probabilities of order 1e-32
    u = random_unitary(3, seed=seed)
    basis = projective_measurement(u.T)
    vec = _unit(u[:, 0].astype(complex))
    rho = np.outer(vec, vec.conj())
    _, _, (at_basis, _) = _InputScore(basis, basis, "distance", "kantorovich", None, 1).outputs(
        _as_real(vec)
    )
    cases += [
        (at_basis, _kraus_formula(basis, rho)),
        (apply_measurement(basis, rho), _kraus_formula(basis, rho)),
    ]
    for ens, pairs in cases:
        _assert_valid(ens)
        _assert_matches_formula(ens, pairs, _NOT_FAINT)
    # the Choi states: outcome j's is Σ vec(Kᵀ) vec(Kᵀ)† / d, normalized
    choi = jamiolkowski_ensemble(m)
    _assert_valid(choi)
    for w, ks in m.outcomes:
        v = np.array([k.T.reshape(-1) for k in ks]) / np.sqrt(d)
        want = v.T @ v.conj()
        assert min(np.abs(s - want / np.trace(want).real).max() for s in choi.states) <= 1e-12


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
@pytest.mark.parametrize("seed", [1, 2, 5])
def test_score_at_roundoff_outcomes_matches_the_kraus_formula(seed, kind):
    # the value with outcomes of probability ~1e-32 kept is the value of
    # the K ρ K† ensembles without them (in that formula they are ~1e-17
    # with states of rounding noise)
    u = random_unitary(3, seed=seed)
    m = projective_measurement(u.T)
    n = random_measurement(3, 3, seed=seed, kraus_per_outcome=2)
    x = _as_real(u[:, 0].astype(complex))
    score = _InputScore(m, n, kind, "kantorovich", None, 1)
    psi = _unit(_as_complex(x))
    rho = np.outer(psi, psi.conj())
    ea, eb = (make_ensemble(_kraus_formula(k, rho, faint=1e-12)) for k in (m, n))
    measure = kantorovich_distance if kind == "distance" else kantorovich_fidelity
    assert abs(score.sign * score(x)[0] - measure(ea, eb)[0]) <= 1e-12


def test_is_unital():
    assert is_unital(_z_meas())
    assert is_unital(_x_meas())
    # reset channel: every input collapses onto |0>
    reset = make_measurement([(1.0, [np.outer(E0, E0), np.outer(E0, E1)])])
    assert not is_unital(reset)


def test_compose_measurements_matches_sequential_application():
    for seed in range(4):
        first = random_measurement(2, 2, seed=seed)
        second = random_measurement(2, 2, seed=50 + seed)
        both = compose_measurements(second, first)
        rho = random_density(2, seed=90 + seed)
        via_composite = apply_measurement(both, rho)
        via_sequence = _apply_to_ensemble(second, apply_measurement(first, rho))
        sp = unify_support(via_composite, via_sequence)
        assert np.abs(sp.p - sp.q).max() <= 1e-9, f"seed={seed}"


def _compose_per_pair(second, first):
    """compose_measurements as a loop over pairs of outcomes, the Kraus
    products of each pair rescaled to the normalization convention."""
    d = first.dim
    outcomes = []
    for w2, kraus2 in second.outcomes:
        for w1, kraus1 in first.outcomes:
            prod = [k2 @ k1 for k2 in kraus2 for k1 in kraus1]
            norm = float(sum(np.trace(k.conj().T @ k).real for k in prod))
            if norm > 0.0:
                outcomes.append((w2 * w1 * norm / d, [np.sqrt(d / norm) * k for k in prod]))
    return make_measurement(outcomes)


def test_compose_measurements_matches_a_per_pair_loop():
    # two unitaries of which Z's projections cannot tell: (P_i, I) and (P_i, Z) merge
    flip = make_measurement([(0.5, [np.eye(2)]), (0.5, [np.diag([1.0, -1.0])])])
    cases = [(_z_meas(), _z_meas()), (_x_meas(), _z_meas()), (_z_meas(), flip)]
    for seed in range(3):
        cases.append((random_measurement(2, 3, seed=seed, kraus_per_outcome=2),
                      random_measurement(2, 2, seed=40 + seed, kraus_per_outcome=3)))
        cases.append((random_measurement(3, 2, seed=seed), random_measurement(3, 3, seed=seed)))
    merged = 0
    for second, first in cases:
        got, want = compose_measurements(second, first), _compose_per_pair(second, first)
        assert len(got) == len(want) and np.array_equal(got.owner, want.owner)
        assert np.abs(got.weights - want.weights).max() <= 1e-12
        assert np.abs(got.kraus - want.kraus).max() <= 1e-12
        merged += len(second) * len(first) - len(got)
    assert merged >= 3  # the vanishing Z∘Z products and the Z∘flip merges


def test_compose_projective_idempotent():
    z = _z_meas()
    zz = compose_measurements(z, z)
    assert len(zz) == 2
    assert np.allclose(sorted(zz.weights), [0.5, 0.5])


def test_jamiolkowski_ensemble_projective():
    z = _z_meas()
    ens = jamiolkowski_ensemble(z)
    assert ens.dim == 4
    assert np.allclose(sorted(ens.probs), [0.5, 0.5])
    # measuring half of the entangled pair leaves |i>|i> products
    want = [tensor(pure_state(E0), pure_state(E0)), tensor(pure_state(E1), pure_state(E1))]
    for state in want:
        assert min(trace_distance(state, s) for s in ens.states) <= 1e-9
    marg = partial_trace(average_state(ens), (2, 2), "A")
    assert np.abs(marg - np.eye(2) / 2).max() <= 1e-9


def test_jamiolkowski_probs_equal_weights():
    for seed in range(3):
        m = random_measurement(2, 3, seed=seed)
        ens = jamiolkowski_ensemble(m)
        assert np.allclose(sorted(m.weights), sorted(ens.probs), atol=1e-9)


@pytest.mark.parametrize("kraus", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_jamiolkowski_ensemble_equals_lifted_measurement_of_phi(d, kraus):
    # the reference: measure the system half of |Φ><Φ| with the lifted Kraus operators
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    for seed in range(4):
        m = random_measurement(d, 3, seed=700 + 10 * d + seed, kraus_per_outcome=kraus)
        want = apply_measurement(_lifted(m, d), np.outer(phi, phi))
        got = jamiolkowski_ensemble(m)
        assert got.size == want.size, f"seed={seed}"
        assert np.abs(got.probs - want.probs).max() <= 1e-14, f"seed={seed}"
        assert np.abs(np.array(got.states) - np.array(want.states)).max() <= 1e-14, f"seed={seed}"


def test_jamiolkowski_ensemble_drops_an_all_zero_outcome_quietly():
    z = _z_meas()
    zero = np.zeros((2, 2), dtype=complex)
    hand = GeneralizedMeasurement(
        np.append(z.weights, 0.25), np.concatenate([z.kraus, [zero, zero]]), np.append(z.owner, [2, 2])
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ens = jamiolkowski_ensemble(hand)
    want = jamiolkowski_ensemble(z)
    assert ens.size == want.size == 2
    assert np.array_equal(ens.probs, want.probs)
    assert all(np.array_equal(x, y) for x, y in zip(ens.states, want.states))


def test_dist_iso_z_vs_x_matches_hand_built():
    z, x = _z_meas(), _x_meas()
    # the two Choi ensembles, written out state by state
    hand_z = make_ensemble(
        [
            (0.5, tensor(pure_state(E0), pure_state(E0))),
            (0.5, tensor(pure_state(E1), pure_state(E1))),
        ]
    )
    hand_x = make_ensemble(
        [
            (0.5, tensor(pure_state(PLUS_V), pure_state(PLUS_V))),
            (0.5, tensor(pure_state(MINUS_V), pure_state(MINUS_V))),
        ]
    )
    want_d = kantorovich_distance(hand_z, hand_x)[0]
    want_f = kantorovich_fidelity(hand_z, hand_x)[0]
    assert abs(dist_iso(z, x).value - want_d) <= 1e-6
    assert abs(fid_iso(z, x).value - want_f) <= 1e-6
    assert abs(dist_iso(z, x).value - np.sqrt(3.0) / 2.0) <= 1e-9


def test_iso_identical_measurements():
    z = _z_meas()
    assert dist_iso(z, z).value <= 1e-9
    assert fid_iso(z, z).value >= 1.0 - 1e-9


def test_iso_dim_mismatch():
    z = _z_meas()
    q3 = projective_measurement(np.eye(3))
    with pytest.raises(DimMismatch):
        dist_iso(z, q3)
    with pytest.raises(InvalidParams):
        dist_iso(z, _x_meas(), method="diamond")


def test_dist_max_dominates_entangled_input():
    z, x = _z_meas(), _x_meas()
    floor = dist_iso(z, x).value
    wopts = WorstCaseOptions(restarts=2, max_steps=20)
    value, psi = dist_max(z, x, wopts=wopts)
    assert value >= floor - 1e-6
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9
    assert psi.shape == (4,)


def test_fid_min_below_entangled_input():
    z, x = _z_meas(), _x_meas()
    ceil = fid_iso(z, x).value
    value, psi = fid_min(z, x, wopts=WorstCaseOptions(restarts=2, max_steps=20))
    assert value <= ceil + 1e-6
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-9


def test_dist_max_system_only_ancilla():
    z, x = _z_meas(), _x_meas()
    value, psi = dist_max(z, x, wopts=WorstCaseOptions(restarts=2, max_steps=20), ancilla_dim=1)
    assert psi.shape == (2,)
    # without side information the bases are harder to tell apart
    assert value <= dist_max(z, x, wopts=WorstCaseOptions(restarts=2, max_steps=20))[0] + 1e-6
    with pytest.raises(InvalidParams):
        dist_max(z, x, ancilla_dim=0)


@pytest.mark.parametrize("bad", [0, -1, 2.5, 2.0, "2", True])
def test_worst_case_rejects_an_ancilla_dim_that_is_no_integer_above_0(bad):
    with pytest.raises(InvalidParams, match="ancilla_dim must be an integer >= 1"):
        dist_max(_z_meas(), _x_meas(), ancilla_dim=bad)


@pytest.mark.parametrize("worst", [dist_max, fid_min])
def test_ehs_worst_case_counts_the_solves_that_did_not_converge(worst):
    # with no solver iteration the scores are no bounds: the reported value
    # lies on the wrong side of the converged measure at the state found
    sign = 1.0 if worst is dist_max else -1.0
    kind = "distance" if worst is dist_max else "fidelity"
    wopts = WorstCaseOptions(restarts=0, max_steps=2)
    for s in range(6):
        m, n = random_measurement(2, 2, seed=s), random_measurement(2, 2, seed=50 + s)
        found = worst(m, n, "ehs", SolverOptions(max_iter=0), wopts)
        assert found.unconverged == found.evaluations > 0
        score = _InputScore(m, n, kind, "ehs", None, 2)
        assert sign * (found.value - sign * score(_as_real(found.state))[0]) > 1e-3
        assert score.unconverged == 0
        assert worst(m, n, wopts=wopts).unconverged == 0


def _gradient_gap(score, x, h=1e-6):
    """Relative gap between the tangent part of the gradient that ``score``
    returns at the unit vector ``x`` and central differences of its values;
    also the norm of the differences."""
    _, gradient = score(x)
    grad = gradient()
    diff = np.array([(score(x + h * e)[0] - score(x - h * e)[0]) / (2 * h) for e in np.eye(len(x))])
    grad, diff = (g - (g @ x) * x for g in (grad, diff))
    norm = float(np.linalg.norm(diff))
    return float(np.linalg.norm(grad - diff)) / norm, norm


def _random_input(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return _as_real(psi / np.linalg.norm(psi))


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
@pytest.mark.parametrize(
    "d, kraus, method",
    [pytest.param(d, k, "kantorovich", id=f"{d}-{k}") for d in (2, 3) for k in (1, 2)]
    + [pytest.param(2, 1, "ehs", id="2-1-ehs")],
)
def test_coupling_gradient_matches_central_differences(d, kraus, method, kind):
    # the extended-space gradient is exact only as far as its solve is: at
    # tol=1e-11 the distance's gap measured at most 7e-8 on qubit pairs and
    # the fidelity's up to 2e-4, where the ascent stalls short of its optimum
    m = random_measurement(d, 2, seed=60 + d + kraus, kraus_per_outcome=kraus)
    n = random_measurement(d, 3, seed=70 + d + kraus, kraus_per_outcome=kraus)
    opts = SolverOptions(tol=1e-11, max_iter=10**6)
    score = _InputScore(m, n, kind, method, opts, d)
    gap, norm = _gradient_gap(score, _random_input(d * d, 80 + d + kraus))
    assert norm > 1e-3
    assert gap <= (1e-6 if method == "kantorovich" else 1e-4)


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_coupling_gradient_follows_a_shared_outcome(kind):
    # n's second outcome is m's first, so unify_support merges the two at
    # every input; n's first outcome has m's second POVM element but other
    # post-states
    m = random_measurement(2, 2, seed=91)
    (w0, k0), (w1, k1) = m.outcomes
    u = random_unitary(2, seed=92)
    n = make_measurement([(w1, [u @ k for k in k1]), (w0, k0)])
    score = _InputScore(m, n, kind, "kantorovich", None, 2)
    x = _random_input(4, 93)
    _, _, outputs = score.outputs(x)
    support = kantorovich_distance(*outputs)[1].support
    assert len(support.omega) == 3 and support.index[3] == support.index[0]
    gap, norm = _gradient_gap(score, x)
    assert norm > 1e-3
    assert gap <= 1e-6


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_coupling_gradient_at_the_system_only_start(kind):
    # with ancilla_dim=1 the search starts at |0>, where Z's second outcome
    # has zero probability and is dropped from the output ensemble
    n = random_measurement(2, 2, seed=94)
    score = _InputScore(_z_meas(), n, kind, "kantorovich", None, 1)
    x = _as_real(E0.astype(complex))
    _, _, outputs = score.outputs(x)
    assert outputs[0].index.tolist() == [0, -1]
    gap, norm = _gradient_gap(score, x)
    assert norm > 1e-3
    assert gap <= 1e-6


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_coupling_gradient_without_off_diagonal_flow(kind):
    # m against itself: the two outputs share every support state, all flow
    # is on the diagonal and no cell has a cost gradient; the value is the
    # same at every input, so its gradient along the sphere vanishes
    m = random_measurement(2, 3, seed=96, kraus_per_outcome=2)
    measure = kantorovich_distance if kind == "distance" else kantorovich_fidelity
    score = _InputScore(m, m, kind, "kantorovich", None, 2)
    x = _random_input(4, 97)
    _, _, outputs = score.outputs(x)
    table = measure(*outputs)[1].table
    assert np.array_equal(table, np.diag(np.diag(table)))
    g = score(x)[1]()
    assert np.linalg.norm(g - (g @ x) * x) <= 1e-12
    search, want = (dist_max, 0.0) if kind == "distance" else (fid_min, 1.0)
    assert abs(search(m, m, wopts=WorstCaseOptions(restarts=2, max_steps=20))[0] - want) <= 1e-12


def _per_outcome_gradient(kind, psi, outputs, coupling, measurements):
    """The pull-back of the coupling gradient one cell and one outcome at a
    time, each outcome's ``Σ K†K`` summed from its Kraus list, in a matrix
    ``G`` applied to ``ψ`` at the end: the reference for the stacked sums
    over the rows of both Kraus stacks."""
    support = coupling.support
    omega, flow = support.omega, coupling.table
    cells = [(u, v) for u, v in zip(*np.nonzero(flow > 0.0)) if u != v]
    cost_grad = {}
    u, v = np.array(cells, dtype=int).reshape(-1, 2).T
    roots = support.roots if kind == "fidelity" else None
    for (a, b), gu, gv in zip(cells, *_cost_gradients(kind, omega, u, v, roots)):
        cost_grad[a] = cost_grad.get(a, 0.0) + flow[a, b] * gu
        cost_grad[b] = cost_grad.get(b, 0.0) + flow[a, b] * gv

    eye = np.eye(len(psi))
    g = np.zeros((len(psi), len(psi)), dtype=complex)
    offset, seen = 0, set()
    for ens, m, duals in zip(outputs, measurements, (coupling.row_duals, coupling.col_duals)):
        for (w, kraus), k in zip(m.outcomes, ens.index):
            if k < 0:
                continue
            s = int(support.index[offset + k])
            gram = sum(op.conj().T @ op for op in kraus)
            g += (duals[s] * w) * gram
            if s in seen:
                continue
            seen.add(s)
            if s in cost_grad:
                a = cost_grad[s]
                t = float(np.real(np.vdot(psi, gram @ psi)))
                h = (a - np.real(np.trace(a @ omega[s])) * eye) / t
                g += sum(op.conj().T @ h @ op for op in kraus)
        offset += ens.size
    return 2.0 * (g @ psi)


def _gradient_cases():
    """``(m, n, a_dim, x)``: each of :func:`_score_cases` against a fixed
    partner, on either side, and the shared-outcome pair."""
    cases = []
    for m, a_dim, x in _score_cases():
        partner = random_measurement(m.dim, 2, seed=95 + m.dim, kraus_per_outcome=2)
        cases += [(m, partner, a_dim, x), (partner, m, a_dim, x)]
    m = random_measurement(2, 2, seed=91)
    (w0, k0), (w1, k1) = m.outcomes
    u = random_unitary(2, seed=92)
    n = make_measurement([(w1, [u @ k for k in k1]), (w0, k0)])
    return cases + [(m, n, 2, _random_input(4, 93))]


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_coupling_gradient_equals_the_per_outcome_reference(kind):
    measure = kantorovich_distance if kind == "distance" else kantorovich_fidelity
    for m, n, a_dim, x in _gradient_cases():
        score = _InputScore(m, n, kind, "kantorovich", None, a_dim)
        psi, factors, outputs = score.outputs(x)
        coupling = measure(*outputs)[1]
        got = channels._coupling_gradient(kind, factors, outputs, coupling, score.stack)
        lifted = (_lifted(m, a_dim), _lifted(n, a_dim))
        want = _per_outcome_gradient(kind, psi, outputs, coupling, lifted)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _per_cell_fidelity_gradients(omega, cells):
    """``∂F/∂ρ = ½ √σ (√σ ρ √σ)^{+½} √σ`` and its mirror, one cell and one
    root at a time."""

    def towards(rho, sigma):
        root = mat_sqrt_psd(sigma)
        return 0.5 * root @ mat_pinv_sqrt_psd(root @ rho @ root) @ root

    return [(towards(omega[u], omega[v]), towards(omega[v], omega[u])) for u, v in cells]


@pytest.mark.parametrize("d", [2, 3, 4])
def test_stacked_fidelity_cost_gradients_equal_the_per_cell_formula(d):
    rng = np.random.default_rng(40 + d)
    for _ in range(6):
        n = int(rng.integers(2, 7))
        ranks = rng.integers(1, d + 1, size=n)
        omega = [random_density(d, int(r), seed=int(rng.integers(2**31))) for r in ranks]
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        cells = [pairs[k] for k in rng.permutation(len(pairs))[: int(rng.integers(1, len(pairs)))]]
        roots = mat_sqrt_psd(np.asarray(omega))
        got_u, got_v = _cost_gradients("fidelity", omega, *np.transpose(cells), roots)
        want = _per_cell_fidelity_gradients(omega, cells)
        assert len(got_u) == len(got_v) == len(want)
        for gu, gv, (wu, wv) in zip(got_u, got_v, want):
            assert np.array_equal(gu, wu) and np.array_equal(gv, wv)


def test_worst_case_evaluation_counts():
    # Z vs X at 2 restarts and 12 steps.  With the gradient from the
    # coupling's flow and duals and each line search started from twice the
    # last accepted step, this took 81 (dist) and 75 (fid) score
    # evaluations; starting every line search at 0.5 took 249 and 220.  The
    # bounds allow 25% over the measured counts.
    z, x = _z_meas(), _x_meas()
    wopts = WorstCaseOptions(restarts=2, max_steps=12)
    for search, bound in ((dist_max, 101), (fid_min, 94)):
        found = search(z, x, wopts=wopts)
        assert found.evaluations <= bound, search.__name__
        assert found.evaluations > found.iterations + 3  # three starts, one score each
        assert 0 <= found.stationary_starts <= 3
    # method="ehs" takes the same gradient from each solve's own plan and
    # duals: 65 evaluations for Z vs X (449 with central differences) and
    # 87 for the random pair's fid_min
    found = dist_max(z, x, "ehs", wopts=wopts)
    assert found.evaluations <= 81
    assert abs(found.value - np.sqrt(3.0) / 2.0) <= 1e-9
    m, n = random_measurement(2, 2, seed=1), random_measurement(2, 2, seed=51)
    found = fid_min(m, n, "ehs", wopts=wopts)
    assert found.evaluations <= 108
    assert found.value <= fid_iso(m, n, "ehs").value + 1e-6
    # here the entangled input is not the worst one: the search climbs from it
    m, n = random_measurement(2, 2, seed=0), random_measurement(2, 2, seed=50)
    found, iso = dist_max(m, n, "ehs", wopts=wopts), dist_iso(m, n, "ehs").value
    assert found.value >= iso - 1e-6 and found.value > iso + 1e-2


def _counting(evaluate):
    """Wrap a sphere-search score so that it counts its calls."""

    def counted(x):
        counted.calls += 1
        return evaluate(x)

    counted.calls = 0
    return counted


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_sphere_search_finds_the_top_eigenvalue_of_a_rayleigh_quotient(dim):
    rng = np.random.default_rng(70 + dim)
    a = rng.normal(size=(2 * dim, 2 * dim))
    a = a + a.T
    score = _counting(lambda x: (x @ a @ x, lambda: 2.0 * (a @ x)))
    value, _, steps, _ = _sphere_search(score, dim, WorstCaseOptions(restarts=3, max_steps=2000), [])
    assert abs(value - np.linalg.eigvalsh(a)[-1]) <= 1e-10
    # starting every line search at 0.5 took 9.5-10.5 evaluations per step here
    assert score.calls <= 3.5 * steps


def _cold_start_search(evaluate, dim, wopts, starts_extra):
    """The sphere search with every line search started at length 0.5."""
    rng = np.random.default_rng(wopts.seed)
    starts = [np.asarray(s, dtype=complex).reshape(-1) for s in starts_extra]
    for _ in range(wopts.restarts):
        starts.append(_unit(rng.normal(size=dim) + 1j * rng.normal(size=dim)))
    best_val, best_psi, steps, stationary = -np.inf, None, 0, 0
    for psi in starts:
        x = _as_real(_unit(psi))
        val, gradient = evaluate(x)
        for _ in range(wopts.max_steps):
            grad = gradient()
            grad -= (grad @ x) * x
            gn = float(np.linalg.norm(grad))
            if gn <= channels.GRAD_NORM_TOL:
                stationary += 1
                break
            step, moved = 0.5, False
            while step > 1e-6 and not moved:
                cand = _unit(x + step * grad / gn)
                cv, cg = evaluate(cand)
                if cv > val + 1e-12:
                    x, val, gradient, moved = cand, cv, cg, True
                step *= 0.5
            if not moved:
                break
            steps += 1
        if val > best_val:
            best_val, best_psi = val, _unit(_as_complex(x))
    return best_val, best_psi, steps, stationary


@pytest.mark.parametrize("search", [dist_max, fid_min])
def test_warm_started_line_search_takes_the_cold_start_steps(search, monkeypatch):
    z, x = _z_meas(), _x_meas()
    wopts = WorstCaseOptions(restarts=2, max_steps=12)
    warm = search(z, x, wopts=wopts)
    monkeypatch.setattr(channels, "_sphere_search", _cold_start_search)
    cold = search(z, x, wopts=wopts)
    assert warm.value == cold.value
    assert np.array_equal(warm.state, cold.state)
    assert (warm.iterations, warm.stationary_starts) == (cold.iterations, cold.stationary_starts)
    assert warm.evaluations < cold.evaluations


def _direct_measure(kind, method):
    if method == "kantorovich":
        return kantorovich_distance if kind == "distance" else kantorovich_fidelity
    return ehs_distance if kind == "distance" else ehs_fidelity


def _fields(report):
    return report.value, report.iterations, report.bracket, report.converged, report.status


@pytest.mark.parametrize("method", ["kantorovich", "ehs"])
@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_device_measures_equal_direct_ensemble_measure(kind, method):
    z, x = _z_meas(), _x_meas()
    pz = make_povm([np.outer(E0, E0), np.outer(E1, E1)])
    px = make_povm([np.outer(PLUS_V, PLUS_V), np.outer(MINUS_V, MINUS_V)])
    direct = _direct_measure(kind, method)
    iso, povm, worst = (
        (dist_iso, povm_distance, dist_max) if kind == "distance" else (fid_iso, povm_fidelity, fid_min)
    )
    choi_z, choi_x = jamiolkowski_ensemble(z), jamiolkowski_ensemble(x)
    assert _fields(iso(z, x, method)) == _fields(direct(choi_z, choi_x))
    want = direct(povm_to_ensemble(pz), povm_to_ensemble(px))
    assert _fields(povm(pz, px, method)) == _fields(want)

    value, psi = worst(z, x, method, wopts=WorstCaseOptions(restarts=0, max_steps=1))
    rho = np.outer(psi, psi.conj())
    lifted = [
        make_measurement([(w, [np.kron(np.eye(2), k) for k in kraus]) for w, kraus in m.outcomes])
        for m in (z, x)
    ]
    assert value == direct(apply_measurement(lifted[0], rho), apply_measurement(lifted[1], rho))[0]


def test_device_measures_report_whether_the_ehs_solve_converged():
    # with no iteration budget the distance of the Choi ensembles stays at
    # its coupling start, above the converged value, and the report says so
    m, n = random_measurement(2, 3, seed=1), random_measurement(2, 3, seed=51)
    stopped = dist_iso(m, n, "ehs", SolverOptions(max_iter=0))
    assert not stopped.converged
    assert abs(stopped.value - 0.681894) <= 1e-6
    done = dist_iso(m, n, "ehs")
    assert done.converged
    assert abs(done.value - 0.662271) <= 1e-6
    assert done.bracket[0] <= done.value <= done.bracket[1]
    assert not fid_iso(m, n, "ehs", SolverOptions(max_iter=0)).converged
    pz = make_povm([np.outer(E0, E0), np.outer(E1, E1)])
    px = make_povm([np.outer(PLUS_V, PLUS_V), np.outer(MINUS_V, MINUS_V)])
    assert not povm_distance(pz, px, "ehs", SolverOptions(max_iter=0)).converged
    # the Z and X readouts' fidelity is certified before any sweep
    start = povm_fidelity(pz, px, "ehs", SolverOptions(max_iter=0))
    assert start.converged and start.bracket[0] == start.bracket[1]
    for device in (povm_distance, povm_fidelity):
        assert device(pz, px, "ehs").converged


@pytest.mark.parametrize("method", ["kantorovich", "ehs"])
def test_measure_rejects_an_unknown_kind(method):
    a, b = jamiolkowski_ensemble(_z_meas()), jamiolkowski_ensemble(_x_meas())
    with pytest.raises(InvalidParams, match="unknown kind 'Distance'"):
        channels.measure(a, b, "Distance", method)


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_measure_rejects_an_unknown_method(kind):
    a, b = jamiolkowski_ensemble(_z_meas()), jamiolkowski_ensemble(_x_meas())
    with pytest.raises(InvalidParams, match="unknown method 'diamond'"):
        channels.measure(a, b, kind, "diamond")


def test_make_povm_validation():
    with pytest.raises(InvalidPovm):
        make_povm([])
    with pytest.raises(InvalidPovm):
        make_povm([np.array([[0.5, 0.1], [0.2, 0.5]]), np.eye(2) * 0.5])
    with pytest.raises(InvalidPovm):
        make_povm([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
    with pytest.raises(InvalidPovm):
        make_povm([np.eye(2) * 0.4, np.eye(2) * 0.4])  # sums to 0.8 I
    with pytest.raises(DimMismatch):
        make_povm([np.eye(2) * 0.5, np.eye(3) * 0.5])


# POVMs within make_povm's 1e-8 whose elements, divided by their traces, are
# no density matrices to 1e-10, or whose element traces do not sum to d
# within 1e-8 · d
NO_ENSEMBLE_POVMS = {
    "negative eigenvalue": [np.diag([1.0, -5e-9]), np.diag([0.0, 1.0 + 5e-9])],
    "not Hermitian": [np.array([[0.5, 5e-9], [0.0, 0.5]]), np.array([[0.5, -5e-9], [0.0, 0.5]])],
    "probabilities sum": [np.diag(e) * (1.0 + 1.9e-8) for e in np.eye(4)],
}


@pytest.mark.parametrize("message", sorted(NO_ENSEMBLE_POVMS))
def test_make_povm_rejects_elements_with_no_ensemble(message):
    with pytest.raises(InvalidPovm, match=f"elements give no ensemble: {message}"):
        make_povm(NO_ENSEMBLE_POVMS[message])


def test_make_povm_keeps_elements_inside_the_state_tolerance():
    p = make_povm([np.diag([1.0, -5e-11]), np.diag([0.0, 1.0 + 5e-11])])
    assert povm_to_ensemble(p).size == 2


def test_povm_to_ensemble_average():
    p = make_povm([np.diag([0.8, 0.2]), np.diag([0.2, 0.8])])
    ens = povm_to_ensemble(p)
    assert np.abs(average_state(ens) - np.eye(2) / 2).max() <= 1e-12
    assert np.allclose(sorted(ens.probs), [0.5, 0.5])


def test_povm_distance_z_vs_x():
    pz = make_povm([np.outer(E0, E0), np.outer(E1, E1)])
    px = make_povm([np.outer(PLUS_V, PLUS_V), np.outer(MINUS_V, MINUS_V)])
    assert abs(povm_distance(pz, px).value - 1.0 / np.sqrt(2)) <= 1e-9
    assert povm_distance(pz, pz).value <= 1e-12
    assert povm_fidelity(pz, pz).value >= 1.0 - 1e-12
    f = povm_fidelity(pz, px).value
    assert 0.0 < f < 1.0
    with pytest.raises(DimMismatch):
        povm_distance(pz, make_povm([np.eye(3)]))


def test_povm_measures_accept_ehs_method():
    pz = make_povm([np.outer(E0, E0), np.outer(E1, E1)])
    px = make_povm([np.outer(PLUS_V, PLUS_V), np.outer(MINUS_V, MINUS_V)])
    d_ehs = povm_distance(pz, px, method="ehs").value
    d_lp = povm_distance(pz, px).value
    assert d_ehs <= d_lp + 1e-4


def test_random_measurement_is_valid():
    for seed in range(3):
        m = random_measurement(3, 2, seed=seed, kraus_per_outcome=2)
        assert m.dim == 3
        assert abs(m.weights.sum() - 1.0) <= 1e-9
        comp = sum(
            w * (k.conj().T @ k) for w, kraus in m.outcomes for k in kraus
        )
        assert np.abs(comp - np.eye(3)).max() <= 1e-9


def test_unitary_conjugation_preserves_iso_distance():
    z, x = _z_meas(), _x_meas()
    u = random_unitary(2, seed=5)
    zu = make_measurement([(w, [u @ k for k in kraus]) for w, kraus in z.outcomes])
    xu = make_measurement([(w, [u @ k for k in kraus]) for w, kraus in x.outcomes])
    assert abs(dist_iso(zu, xu).value - dist_iso(z, x).value) <= 1e-9
