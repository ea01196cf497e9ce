import numpy as np
import pytest

from ensemble_metrics.ehs import (
    JointPair,
    distance_objective,
    ehs_distance,
    fidelity_objective,
)
from ensemble_metrics.ensembles import average_state, make_ensemble, pure_state, unify_support
from ensemble_metrics.errors import (
    InfeasibleCoupling,
    InfeasibleJointPair,
    InvalidParams,
    TooLarge,
)
from ensemble_metrics.kantorovich import Coupling, kantorovich_distance, transportation_lp
from ensemble_metrics.linalg import trace_distance
from ensemble_metrics.oracle import (
    fd_subgradient_check,
    lp_vertex_oracle,
    random_cptp,
    random_density,
    random_ensemble,
    random_pure_decomposition,
    random_unitary,
    simulate_ehs_game,
    simulate_kantorovich_game,
)

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])


def _singletons():
    a = make_ensemble([(1.0, pure_state(KET0))])
    b = make_ensemble([(1.0, pure_state(KET1))])
    return a, b


def test_vertex_oracle_hand_instances():
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.5])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert lp_vertex_oracle(p, q, cost, "min") == 0.0
    assert lp_vertex_oracle(p, q, cost, "max") == 1.0
    # single source: the coupling is forced
    val = lp_vertex_oracle([1.0], [0.3, 0.7], [[0.2, 0.4]], "min")
    assert abs(val - 0.34) <= 1e-12
    assert abs(lp_vertex_oracle([1.0], [0.3, 0.7], [[0.2, 0.4]], "max") - 0.34) <= 1e-12


def test_vertex_oracle_matches_simplex_solver():
    rng = np.random.default_rng(7)
    for trial in range(40):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        sense = "min" if trial % 2 == 0 else "max"
        want = lp_vertex_oracle(p, q, cost, sense)
        got = transportation_lp(p, q, cost, sense).value
        assert abs(want - got) <= 1e-9, f"trial={trial} sense={sense}"


def test_vertex_oracle_validation():
    with pytest.raises(TooLarge):
        lp_vertex_oracle(np.ones(6) / 6, np.ones(6) / 6, np.zeros((6, 6)))
    with pytest.raises(InvalidParams):
        lp_vertex_oracle([0.5, 0.5], [1.0], np.zeros((1, 2)))
    with pytest.raises(InvalidParams):
        lp_vertex_oracle([0.5, 0.5], [1.0], np.zeros((2, 1)), sense="best")
    with pytest.raises(InvalidParams):
        lp_vertex_oracle([-0.5, 1.5], [0.5, 0.5], np.zeros((2, 2)))


def test_kantorovich_game_orthogonal_pair_always_wins():
    a, b = _singletons()
    _, coupling = kantorovich_distance(a, b)
    res = simulate_kantorovich_game(a, b, coupling, trials=500, seed=0)
    assert res.trials == 500
    assert res.successes == 500
    assert res.estimate == 1.0
    assert res.stderr == 0.0


def test_kantorovich_game_identical_ensembles_are_blind():
    a = random_ensemble(2, 2, seed=11)
    _, coupling = kantorovich_distance(a, a)
    res = simulate_kantorovich_game(a, a, coupling, trials=20000, seed=1)
    assert abs(res.estimate - 0.5) <= 3.0 * res.stderr + 1e-12
    assert abs(res.stderr - np.sqrt(res.estimate * (1.0 - res.estimate) / res.trials)) <= 1e-15


def test_kantorovich_game_tracks_coupling_distance():
    a = random_ensemble(2, 2, seed=21)
    b = random_ensemble(2, 2, seed=22)
    value, coupling = kantorovich_distance(a, b)
    res = simulate_kantorovich_game(a, b, coupling, trials=40000, seed=2)
    assert abs((2.0 * res.estimate - 1.0) - value) <= 3.0 * (2.0 * res.stderr)


def test_kantorovich_game_is_deterministic():
    a = random_ensemble(2, 2, seed=31)
    b = random_ensemble(2, 2, seed=32)
    _, coupling = kantorovich_distance(a, b)
    r1 = simulate_kantorovich_game(a, b, coupling, trials=3000, seed=9)
    r2 = simulate_kantorovich_game(a, b, coupling, trials=3000, seed=9)
    assert r1.successes == r2.successes


def test_kantorovich_game_rejects_infeasible_coupling():
    a, b = _singletons()
    bad = Coupling(np.array([[1.0, 0.0], [0.0, 0.0]]))  # column sums miss q
    with pytest.raises(InfeasibleCoupling):
        simulate_kantorovich_game(a, b, bad, trials=10)
    _, good = kantorovich_distance(a, b)
    with pytest.raises(InvalidParams):
        simulate_kantorovich_game(a, b, good, trials=0)


def test_kantorovich_game_is_the_ehs_game_on_the_coupling_twice():
    # the coupled game announces each pair with its table weight and sends
    # either state with prior 1/2: the announced-pair game on (table, table)
    for seed in range(4):
        a = random_ensemble(2, 3, seed=50 + seed)
        b = random_ensemble(2, 2 + seed % 2, seed=60 + seed)
        _, coupling = kantorovich_distance(a, b)
        tables = JointPair(coupling.table, coupling.table)
        got = simulate_kantorovich_game(a, b, coupling, trials=5000, seed=seed)
        assert got == simulate_ehs_game(a, b, tables, trials=5000, seed=seed)


def test_ehs_game_tracks_embedding_distance():
    a = random_ensemble(2, 2, seed=41)
    b = random_ensemble(2, 2, seed=42)
    report = ehs_distance(a, b)
    res = simulate_ehs_game(a, b, report.plan, trials=40000, seed=3)
    assert abs((2.0 * res.estimate - 1.0) - report.value) <= 3.0 * (2.0 * res.stderr) + 1e-4


def test_ehs_game_rejects_bad_tables():
    a, b = _singletons()
    with pytest.raises(InfeasibleJointPair):
        simulate_ehs_game(a, b, JointPair(np.eye(2), np.eye(2)), trials=10)
    with pytest.raises(InfeasibleJointPair):
        simulate_ehs_game(a, b, JointPair(np.ones((3, 3)), np.ones((3, 3))), trials=10)
    report = ehs_distance(a, b)
    with pytest.raises(InvalidParams):
        simulate_ehs_game(a, b, report.plan, trials=-5)


def _uniform_product_point(a, b):
    sp = unify_support(a, b)
    n = len(sp.omega)
    tp = np.outer(sp.p, np.ones(n) / n)
    tq = np.outer(np.ones(n) / n, sp.q)
    return JointPair(tp, tq)


def test_fd_check_distance_objective():
    a = random_ensemble(2, 2, seed=51)
    b = random_ensemble(2, 2, seed=52)
    err = fd_subgradient_check(distance_objective(a, b), _uniform_product_point(a, b), directions=8, seed=0)
    assert err <= 1e-6


def test_fd_check_fidelity_objective():
    a = random_ensemble(2, 2, seed=53)
    b = random_ensemble(2, 2, seed=54)
    err = fd_subgradient_check(fidelity_objective(a, b), _uniform_product_point(a, b), directions=8, seed=1)
    assert err <= 1e-6


def test_random_density_properties():
    for d, rank in [(2, None), (3, 3), (4, 2)]:
        rho = random_density(d, rank=rank, seed=13)
        assert rho.shape == (d, d)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-12
        eigs = np.linalg.eigvalsh(rho)
        assert eigs[0] >= -1e-12
        if rank is not None:
            assert np.sum(eigs > 1e-10) == rank
    with pytest.raises(InvalidParams):
        random_density(3, rank=4)
    with pytest.raises(InvalidParams):
        random_density(0)


def test_random_ensemble_properties():
    ens = random_ensemble(3, 4, seed=5)
    assert ens.dim == 3 and ens.size == 4
    assert abs(ens.probs.sum() - 1.0) <= 1e-12
    again = random_ensemble(3, 4, seed=5)
    assert np.allclose(ens.probs, again.probs)
    for s, t in zip(ens.states, again.states):
        assert trace_distance(s, t) <= 1e-12
    with pytest.raises(InvalidParams):
        random_ensemble(3, 0)


def test_random_cptp_is_trace_preserving():
    for d_in, d_out, k in [(2, 2, 2), (3, 2, 4), (2, 4, 1)]:
        kraus = random_cptp(d_in, d_out, k, seed=d_in + k)
        assert all(m.shape == (d_out, d_in) for m in kraus)
        acc = sum(m.conj().T @ m for m in kraus)
        assert np.abs(acc - np.eye(d_in)).max() <= 1e-9
    with pytest.raises(InvalidParams):
        random_cptp(4, 2, 1, seed=0)  # 1 * 2 < 4 cannot be an isometry


def test_random_unitary_properties():
    u = random_unitary(3, seed=8)
    assert np.abs(u.conj().T @ u - np.eye(3)).max() <= 1e-12
    assert np.allclose(u, random_unitary(3, seed=8))


def test_random_pure_decomposition_reconstructs():
    rho = random_density(3, seed=2)
    ens = random_pure_decomposition(rho, 5, seed=3)
    assert ens.size <= 5
    assert np.abs(average_state(ens) - rho).max() <= 1e-10
    for s in ens.states:
        assert abs(np.trace(s @ s).real - 1.0) <= 1e-10
    with pytest.raises(InvalidParams):
        random_pure_decomposition(rho, 2)
