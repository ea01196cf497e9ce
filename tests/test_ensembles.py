import numpy as np
import pytest

from ensemble_metrics import ensembles, kantorovich
from ensemble_metrics.channels import make_measurement
from ensemble_metrics.ensembles import (
    DISTINCT_TOL,
    _near_pairs,
    average_entropy,
    average_state,
    canonical_ehs_state,
    check_density,
    fannes_avg_entropy_bound,
    holevo_chi,
    make_ehs_state,
    make_ensemble,
    merge_near_equal,
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
from ensemble_metrics.kantorovich import transportation_lp
from ensemble_metrics.linalg import pair_values, pairwise_matrix, partial_trace, trace_distance
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


@pytest.mark.parametrize("vec", [[np.nan, 0.0], [np.inf, 1.0], [1.0, complex(0.0, np.nan)]])
def test_pure_state_rejects_a_vector_that_is_not_finite(vec):
    with pytest.raises(InvalidState, match="finite"):
        pure_state(np.array(vec))


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


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_coupling_cost_equals_the_kernel_on_the_support(kind, monkeypatch):
    costs = []

    def spy(p, q, cost, sense="min"):
        costs.append(cost)
        return transportation_lp(p, q, cost, sense)

    monkeypatch.setattr(kantorovich, "transportation_lp", spy)
    rng = np.random.default_rng(31)
    for trial in range(20):
        d = int(rng.integers(2, 9))
        sa = [random_density(d, int(rng.integers(1, d + 1)), seed=1000 * trial + i) for i in range(6)]
        sb = [random_density(d, seed=1000 * trial + 100 + i) for i in range(5)]
        # b shares some of a's states, so some columns come before rows
        shared = sorted(rng.choice(6, size=int(rng.integers(1, 4)), replace=False))
        sb = [sa[i] for i in shared] + sb
        a = make_ensemble(list(zip(rng.dirichlet(np.ones(6)), sa)))
        b = make_ensemble(list(zip(rng.dirichlet(np.ones(len(sb))), sb)))
        sp = kantorovich.coupling_lp(a, b, kind).plan.support
        assert len(sp.omega) == 11
        rows, cols = np.flatnonzero(sp.p > 0.0), np.flatnonzero(sp.q > 0.0)
        assert list(cols[: len(shared)]) == shared
        want = pairwise_matrix(sp.omega, kind)[np.ix_(rows, cols)]
        assert np.array_equal(costs[-1][np.ix_(rows, cols)], want)


def _reference_merge(states, weights):
    """The merge rule over the full trace-distance matrix: walking in order,
    a state within DISTINCT_TOL of a kept one goes into the first such."""
    dist = pairwise_matrix(states, "distance")
    kept, sums, index = [], [], []
    for i, w in enumerate(weights):
        near = np.flatnonzero(dist[i, kept] <= DISTINCT_TOL)
        if near.size:
            index.append(int(near[0]))
            sums[near[0]] += w
        else:
            index.append(len(kept))
            kept.append(i)
            sums.append(w)
    return kept, sums, index


def _shifted(rho, t, rng):
    """A state at trace distance ``t`` from the full-rank ``rho``: ``rho``
    plus ``t`` times the difference of two orthogonal rank-one projectors
    in a random basis."""
    d = len(rho)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return rho + t * (np.outer(u[:, 0], u[:, 0].conj()) - np.outer(u[:, 1], u[:, 1].conj()))


def _equator(phi):
    return pure_state(np.array([1.0, np.exp(1j * phi)]))


def test_merge_screen_agrees_with_the_full_matrix_rule():
    rng = np.random.default_rng(8)
    merged = split = 0
    cases = []
    for d in (2, 3, 4, 8):
        for _ in range(4):
            base = [random_density(d, d, seed=int(rng.integers(1 << 30))) for _ in range(3)]
            states = list(base)
            for t in (0.5e-9, 1e-9, 2e-9, 0.999e-9, 1.001e-9):
                states.append(_shifted(base[int(rng.integers(3))], t, rng))
            # a chain of 0.6e-9 steps: the third state is 1.2e-9 from the first
            states.append(_shifted(states[-1], 0.6e-9, rng))
            perm = rng.permutation(len(states))
            cases.append([states[k] for k in perm])
    # equal diagonals: |+>, |->, |+i>, |-i> and states on the Bloch equator,
    # some within 1e-9 of each other in trace distance
    equator = [0.0, np.pi, np.pi / 2, -np.pi / 2, 0.3, 0.3 + 1e-9, 0.3 + 2.5e-9, np.pi + 0.8e-9]
    cases.append([_equator(phi) for phi in equator])
    cases.append([_equator(phi) for phi in equator[::-1]])
    for states in cases:
        weights = list(rng.dirichlet(np.ones(len(states))))
        kept, sums, index = merge_near_equal(states, weights)
        ref_kept, ref_sums, ref_index = _reference_merge(states, weights)
        assert kept == ref_kept
        assert list(index) == ref_index
        assert np.array_equal(sums, np.asarray(ref_sums))
        merged += len(states) - len(kept)
        split += len(kept)
    # both outcomes of the rule occur
    assert merged >= 30 and split >= 60


@pytest.mark.parametrize("d", [2, 4])
def test_no_near_pair_leaves_every_state_and_weight_in_place(d):
    # one state, and a stack whose states are all far apart: the screen
    # leaves no candidate, so no pair reaches the exact trace distance
    distant = [random_density(d, d, seed=300 + k) for k in range(6)]
    for states in ([distant[0]], distant):
        first, second = _near_pairs(np.asarray(states, dtype=complex))
        for pairs in (first, second):
            assert pairs.shape == (0,) and pairs.dtype.kind == "i"
        weights = list(np.random.default_rng(d).dirichlet(np.ones(len(states))))
        kept, sums, index = merge_near_equal(states, weights)
        assert kept == list(range(len(states)))
        assert np.array_equal(sums, np.asarray(weights))
        assert index.tolist() == list(range(len(states))) and index.dtype.kind == "i"


def _all_near_pairs(stack):
    """Every pair ``i < j`` of a stack within DISTINCT_TOL, by the exact
    trace distance of all pairs, as sorted ``(i, j)`` tuples."""
    first, second = np.triu_indices(len(stack), 1)
    near = pair_values(stack, first, second, "distance") <= DISTINCT_TOL
    return sorted(zip(first[near].tolist(), second[near].tolist()))


def test_near_pair_screen_finds_every_pair_the_full_search_finds(monkeypatch):
    rng = np.random.default_rng(9)
    stacks = []
    for d in (2, 4):
        for _ in range(6):
            base = [random_density(d, d, seed=int(rng.integers(1 << 30))) for _ in range(4)]
            planted = [_shifted(base[int(rng.integers(4))], t, rng) for t in (0.5e-9, 2e-9)]
            states = base + planted
            stacks.append(np.asarray([states[k] for k in rng.permutation(len(states))]))
            stacks.append(np.asarray(base))  # nothing near: the screen stops after its sort
    found = 0
    for stack in stacks:
        first, second = _near_pairs(stack)
        assert sorted(zip(first.tolist(), second.tolist())) == _all_near_pairs(stack)
        found += len(first)
    assert found == 12  # each 0.5e-9 copy, and no 2e-9 copy
    # projections exactly one window apart, as the screen compares them: on
    # the direction that reads entry (0, 0), diagonal states at x and at
    # x + window, rounded as the screen rounds it, then a pair 0.5e-9 apart
    monkeypatch.setattr(ensembles, "_window_direction", lambda length: np.eye(length)[0])
    window = ensembles._WINDOW
    for x in (0.25, 0.3, 0.7):
        diag = [x, x + window, x + window + 0.5e-9]
        stack = np.asarray([np.diag([t, 1.0 - t]).astype(complex) for t in diag])
        for states in (stack[:2], stack):
            first, second = _near_pairs(states)
            assert sorted(zip(first.tolist(), second.tolist())) == _all_near_pairs(states)
        assert _all_near_pairs(stack[:2]) == [] and _all_near_pairs(stack) == [(1, 2)]


def _nonherm(d):
    m = np.eye(d, dtype=complex) / d
    m[0, 1] = 0.1
    return m


def _negative(d):
    return np.diag([1.5] + [-0.5 / (d - 1)] * (d - 1)).astype(complex)


def test_make_ensemble_raises_the_first_bad_entry_in_input_order():
    good2, good3 = np.eye(2) / 2, np.eye(3) / 3
    with pytest.raises(InvalidState, match="not Hermitian"):
        make_ensemble([(0.25, good2), (0.25, _nonherm(2)), (0.25, KET0), (0.25, _negative(2))])
    with pytest.raises(InvalidState, match="negative eigenvalue"):
        make_ensemble([(0.25, good2), (0.25, _negative(2)), (0.25, KET0), (0.25, _nonherm(2))])
    with pytest.raises(InvalidState, match="trace differs"):
        make_ensemble([(0.5, 2 * good2), (0.5, _nonherm(2))])
    # a mixed dimension is found after the entries before it pass, and
    # after the entry's own checks
    with pytest.raises(DimMismatch, match="mixed dimension"):
        make_ensemble([(0.25, good2), (0.25, good3), (0.25, KET0), (0.25, _nonherm(2))])
    with pytest.raises(InvalidState, match="not Hermitian"):
        make_ensemble([(0.25, _nonherm(2)), (0.25, good3), (0.5, KET0)])
    with pytest.raises(InvalidState, match="negative eigenvalue"):
        make_ensemble([(0.25, good2), (0.25, _negative(3)), (0.5, KET0)])
    # probability and shape errors wait for the entries before them too
    with pytest.raises(InvalidState, match="not Hermitian"):
        make_ensemble([(0.5, _nonherm(2)), (float("nan"), KET0)])
    with pytest.raises(InvalidState, match="negative probability"):
        make_ensemble([(0.5, good2), (-0.5, _nonherm(2))])
    with pytest.raises(InvalidState, match="not Hermitian"):
        make_ensemble([(0.5, _nonherm(2)), (0.5, np.ones((2, 3)))])
    with pytest.raises(DimMismatch, match="square"):
        make_ensemble([(0.5, good2), (0.5, np.ones((2, 3))), (0.5, _nonherm(2))])
    bad = good2.astype(complex)
    bad[1, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        make_ensemble([(0.5, good2), (0.5, bad), (0.5, _nonherm(2))])
    with pytest.raises(InvalidState, match="not Hermitian"):
        make_ensemble([(0.5, _nonherm(2)), (0.5, bad)])
    # an invalid state with zero probability is skipped
    ens = make_ensemble([(0.0, _nonherm(2)), (1.0, KET0), (0.0, good3), (0.0, bad)])
    assert ens.size == 1 and list(ens.index) == [-1, 0, -1, -1]


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
    for d in (2.5, float("nan"), float("inf")):
        with pytest.raises(OutOfRange, match="must be an integer >= 2"):
            fannes_avg_entropy_bound(0.1, d)


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


@pytest.mark.parametrize(
    "pointer, weight, error",
    [
        (-1, 0.5, OutOfRange),
        (0.5, 0.5, OutOfRange),
        (True, 0.5, OutOfRange),
        ("1", 0.5, OutOfRange),
        (1, np.nan, WeightMismatch),
        (1, np.inf, WeightMismatch),
        (1, -0.5, WeightMismatch),
        (1, "0.5", WeightMismatch),
    ],
)
def test_make_ehs_state_rejects_bad_pointers_and_weights(pointer, weight, error):
    ens = make_ensemble([(0.5, KET0), (0.5, KET1)])
    with pytest.raises(error):
        make_ehs_state(ens, [[(0, 0.5)], [(pointer, weight)]])
    # numpy integers and floats are integers and numbers
    emb = make_ehs_state(ens, [[(np.int64(0), np.float64(0.5))], [(np.int32(1), 0.5)]])
    assert emb.pointer_dim == 2
