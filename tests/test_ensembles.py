import numpy as np
import pytest

from ensemble_metrics.channels import make_measurement
from ensemble_metrics.ensembles import (
    DISTINCT_TOL,
    average_entropy,
    average_state,
    canonical_ehs_state,
    check_density,
    fannes_avg_entropy_bound,
    holevo_chi,
    make_ehs_state,
    make_ensemble,
    pure_state,
    unify_support,
)
from ensemble_metrics.errors import (
    DimMismatch,
    EmptyEnsemble,
    InvalidState,
    OutOfRange,
    PointerReuse,
    WeightMismatch,
)
from ensemble_metrics.linalg import pairwise_matrix, partial_trace, trace_distance
from ensemble_metrics.oracle import random_density

KET0 = pure_state(np.array([1.0, 0.0]))
KET1 = pure_state(np.array([0.0, 1.0]))
PLUS = pure_state(np.array([1.0, 1.0]))


def test_check_density_rejects_bad_input():
    with pytest.raises(InvalidState):
        check_density(np.array([[0.5, 0.1], [0.2, 0.5]]))  # not Hermitian
    with pytest.raises(InvalidState):
        check_density(np.eye(2))  # trace 2
    with pytest.raises(InvalidState):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_pure_state_normalizes():
    rho = pure_state(np.array([2.0, 0.0]))
    assert np.allclose(rho, KET0)
    assert abs(np.trace(pure_state(np.array([1.0, 1j, 0.5]))) - 1.0) <= 1e-14
    with pytest.raises(InvalidState):
        pure_state(np.zeros(3))


def test_make_ensemble_merges_duplicates():
    ens = make_ensemble([(0.25, KET0), (0.25, KET0.copy()), (0.5, KET1)])
    assert ens.size == 2
    assert np.allclose(sorted(ens.probs), [0.5, 0.5])


def _near_equal_states():
    """Qubit unitaries ``diag(e^{-it/2}, e^{it/2})`` at t = 0, 2e and 1.2e:
    the Choi states of the first two lie 1.5 * DISTINCT_TOL apart in trace
    distance, the third lies within DISTINCT_TOL of both and nearer the
    second.  So do the states ``U |+><+| U†``."""
    e = 1.5 * DISTINCT_TOL
    ts = (0.0, 2.0 * e, 1.2 * e)
    unitaries = [np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)]) for t in ts]
    states = [u @ PLUS @ u.conj().T for u in unitaries]
    return unitaries, states


def _merge_by_make_ensemble():
    _, (a, b, c) = _near_equal_states()
    ens = make_ensemble([(0.2, a), (0.3, b), (0.5, c)])
    return ens.states, ens.probs, (a, b)


def _merge_by_unify_support():
    _, (a, b, c) = _near_equal_states()
    sp = unify_support(make_ensemble([(0.4, a), (0.6, b)]), make_ensemble([(1.0, c)]))
    return sp.omega, np.concatenate([sp.p, sp.q]), (a, b)


def _merge_by_make_measurement():
    (u, v, w), _ = _near_equal_states()
    m = make_measurement([(0.2, [u]), (0.3, [v]), (0.5, [w])])
    return [ks[0] for _, ks in m.outcomes], m.weights, (u, v)


@pytest.mark.parametrize(
    "merge, weights",
    [
        (_merge_by_make_ensemble, [0.7, 0.3]),
        (_merge_by_unify_support, [0.4, 0.6, 1.0, 0.0]),
        (_merge_by_make_measurement, [0.7, 0.3]),
    ],
    ids=["make_ensemble", "unify_support", "make_measurement"],
)
def test_near_equal_state_merges_into_first_kept(merge, weights):
    kept, got, (first, second) = merge()
    assert len(kept) == 2
    assert np.array_equal(kept[0], first) and np.array_equal(kept[1], second)
    assert np.allclose(got, weights, rtol=0.0, atol=1e-15)


def test_make_ensemble_drops_zero_weight():
    ens = make_ensemble([(1.0, KET0), (0.0, KET1)])
    assert ens.size == 1


def test_make_ensemble_errors():
    with pytest.raises(InvalidState):
        make_ensemble([(0.5, KET0)])  # sums to 0.5
    with pytest.raises(InvalidState):
        make_ensemble([(-0.2, KET0), (1.2, KET1)])
    with pytest.raises(InvalidState):
        make_ensemble([(float("nan"), KET0), (1.0, KET1)])
    with pytest.raises(EmptyEnsemble):
        make_ensemble([])
    with pytest.raises(DimMismatch):
        make_ensemble([(0.5, KET0), (0.5, np.eye(3) / 3)])


def test_ensemble_iteration_and_dim():
    ens = make_ensemble([(0.3, KET0), (0.7, PLUS)])
    assert ens.dim == 2
    pairs = list(ens)
    assert len(pairs) == 2
    assert abs(sum(p for p, _ in pairs) - 1.0) <= 1e-12


def test_unify_support_order_and_marginals():
    a = make_ensemble([(0.6, KET0), (0.4, KET1)])
    b = make_ensemble([(0.5, KET1), (0.5, PLUS)])
    sp = unify_support(a, b)
    assert len(sp.omega) == 3
    # a's states first, then the new one from b
    assert trace_distance(sp.omega[0], KET0) <= 1e-12
    assert trace_distance(sp.omega[1], KET1) <= 1e-12
    assert trace_distance(sp.omega[2], PLUS) <= 1e-12
    assert np.allclose(sp.p, [0.6, 0.4, 0.0])
    assert np.allclose(sp.q, [0.0, 0.5, 0.5])
    with pytest.raises(DimMismatch):
        unify_support(a, make_ensemble([(1.0, np.eye(3) / 3)]))


def test_unify_support_distances_equal_the_kernel_on_the_support():
    rng = np.random.default_rng(31)
    for trial in range(40):
        d = int(rng.integers(2, 9))
        sa = [random_density(d, int(rng.integers(1, d + 1)), seed=1000 * trial + i) for i in range(6)]
        sb = [random_density(d, seed=1000 * trial + 100 + i) for i in range(5)]
        # b shares some of a's states, first among them, so the kept set has gaps
        shared = sorted(rng.choice(6, size=int(rng.integers(1, 4)), replace=False))
        sb = [sa[i] for i in shared] + sb
        a = make_ensemble(list(zip(rng.dirichlet(np.ones(6)), sa)))
        b = make_ensemble(list(zip(rng.dirichlet(np.ones(len(sb))), sb)))
        sp = unify_support(a, b)
        assert len(sp.omega) == 11
        assert np.array_equal(sp.dist, pairwise_matrix(sp.omega, "distance"))


def test_average_state_and_entropies():
    ens = make_ensemble([(0.5, KET0), (0.5, KET1)])
    assert np.allclose(average_state(ens), np.eye(2) / 2)
    assert average_entropy(ens) == 0.0
    assert abs(holevo_chi(ens) - 1.0) <= 1e-12
    # identical-state ensemble carries no information
    same = make_ensemble([(1.0, np.eye(2) / 2)])
    assert holevo_chi(same) == 0.0
    assert abs(average_entropy(same) - 1.0) <= 1e-12


def test_fannes_avg_entropy_bound_values():
    assert fannes_avg_entropy_bound(0.0, 4) == 0.0
    assert abs(fannes_avg_entropy_bound(0.5, 2) - 1.0) <= 1e-12
    d = 3
    t = (d - 1) / d
    expect = t * np.log2(d - 1) + (-t * np.log2(t) - (1 - t) * np.log2(1 - t))
    assert abs(fannes_avg_entropy_bound(t, d) - np.log2(d)) <= 1e-12
    assert abs(fannes_avg_entropy_bound(t, d) - expect) <= 1e-12
    with pytest.raises(OutOfRange):
        fannes_avg_entropy_bound(1.2, 2)
    with pytest.raises(OutOfRange):
        fannes_avg_entropy_bound(0.5, 1)


def test_canonical_ehs_state_structure():
    ens = make_ensemble([(0.3, KET0), (0.7, PLUS)])
    emb = canonical_ehs_state(ens)
    assert emb.system_dim == 2 and emb.pointer_dim == 2
    mat = emb.mat
    assert abs(np.trace(mat).real - 1.0) <= 1e-12
    assert np.allclose(mat, mat.conj().T)
    # tracing out the pointer returns the ensemble average
    assert np.allclose(partial_trace(mat, (2, 2), "A"), average_state(ens), atol=1e-12)
    # the pointer marginal is diagonal with the probabilities
    marg = partial_trace(mat, (2, 2), "B")
    assert np.allclose(marg, np.diag(ens.probs), atol=1e-12)


def test_make_ehs_state_split_weights():
    ens = make_ensemble([(0.5, KET0), (0.5, KET1)])
    emb = make_ehs_state(ens, [[(0, 0.25), (1, 0.25)], [(2, 0.5)]])
    assert emb.pointer_dim == 3
    assert np.allclose(partial_trace(emb.mat, (2, 3), "A"), average_state(ens), atol=1e-12)
    marg = partial_trace(emb.mat, (2, 3), "B")
    assert np.allclose(np.diag(marg).real, [0.25, 0.25, 0.5])


def test_make_ehs_state_errors():
    ens = make_ensemble([(0.5, KET0), (0.5, KET1)])
    with pytest.raises(WeightMismatch):
        make_ehs_state(ens, [[(0, 0.5)]])  # one assignment for two states
    with pytest.raises(WeightMismatch):
        make_ehs_state(ens, [[(0, 0.4)], [(1, 0.5)]])  # wrong total for state 0
    with pytest.raises(PointerReuse):
        make_ehs_state(ens, [[(0, 0.5)], [(0, 0.5)]])
