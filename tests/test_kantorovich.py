import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_metrics import kantorovich
from ensemble_metrics.ensembles import make_ensemble, pure_state, unify_support
from ensemble_metrics.errors import InvalidState, LengthMismatch, OutOfRange
from ensemble_metrics.kantorovich import (
    _northwest_corner,
    _simplex,
    check_average_continuity,
    coupling_lp,
    flagged_closed_form_distance,
    flagged_closed_form_fidelity,
    kantorovich_distance,
    kantorovich_fidelity,
    transportation_lp,
)
from ensemble_metrics.linalg import (
    fidelity,
    pairwise_matrix,
    tensor,
    trace_distance,
    von_neumann_entropy,
)
from ensemble_metrics.oracle import lp_vertex_oracle, random_density, random_ensemble

KET0 = pure_state(np.array([1.0, 0.0]))
KET1 = pure_state(np.array([0.0, 1.0]))
PLUS = pure_state(np.array([1.0, 1.0]))


def _basis_density(d, k):
    return pure_state(np.eye(d)[k])


def test_transportation_lp_single_cell():
    sol = transportation_lp(np.array([1.0]), np.array([1.0]), np.array([[0.3]]))
    assert sol.value == 0.3
    assert sol.plan.table[0, 0] == 1.0
    assert sol.status in ("optimal", "degenerate-resolved")


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
def test_coupling_report_carries_the_simplex_certificate(kind):
    # the bracket is the value and the dual objective of the potentials made
    # feasible; the brute-force optimum over vertices sits inside it
    solve = kantorovich_distance if kind == "distance" else kantorovich_fidelity
    rng = np.random.default_rng(43)
    checked = 0
    for trial in range(40):
        d, na, nb = int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(3, 7))
        a = random_ensemble(d, na, seed=4300 + trial)
        b = random_ensemble(d, nb, seed=4400 + trial)
        rep = solve(a, b)
        lo, hi = rep.bracket
        assert lo <= rep.value <= hi, trial
        assert hi - lo <= 1e-9, trial
        assert rep.converged, trial
        assert rep.iterations == coupling_lp(a, b, kind).iterations, trial
        sp = rep.plan.support
        rows, cols = np.flatnonzero(sp.p > 0.0), np.flatnonzero(sp.q > 0.0)
        if max(len(rows), len(cols)) > 4:
            continue  # enumerating the vertices of a 5×5 problem takes seconds
        cost = pairwise_matrix(sp.omega, kind)[np.ix_(rows, cols)]
        sense = "min" if kind == "distance" else "max"
        brute = lp_vertex_oracle(sp.p[rows], sp.q[cols], cost, sense)
        assert lo - 1e-12 <= brute <= hi + 1e-12, trial
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("sense", ["min", "max"])
def test_transportation_bracket_holds_the_optimum_when_the_simplex_stops_early(
    monkeypatch, sense
):
    # with the exit test loosened the simplex stops at a vertex that need not
    # be optimal; the potentials, shifted by the least reduced cost, still
    # bound the optimum from the other side, and the report says the gap is open
    monkeypatch.setattr(kantorovich, "_RC_TOL", 0.3)
    rng = np.random.default_rng(47)
    opened = 0
    for trial in range(30):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        rep = transportation_lp(p, q, cost, sense)
        lo, hi = rep.bracket
        assert lo <= rep.value <= hi, trial
        assert lo - 1e-12 <= lp_vertex_oracle(p, q, cost, sense) <= hi + 1e-12, trial
        assert rep.converged == (hi - lo <= 1e-9), trial
        opened += not rep.converged
    assert opened >= 5


def test_transportation_lp_known_instance():
    p = np.array([0.5, 0.5])
    q = np.array([0.5, 0.5])
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    sol = transportation_lp(p, q, cost, "min")
    assert abs(sol.value) <= 1e-15
    assert np.allclose(sol.plan.table, np.diag([0.5, 0.5]))
    sol = transportation_lp(p, q, cost, "max")
    assert abs(sol.value - 1.0) <= 1e-15


def test_transportation_lp_coupling_is_feasible():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        table = transportation_lp(p, q, cost).plan.table
        assert table.min() >= -1e-12
        assert np.abs(table.sum(axis=1) - p).max() <= 1e-12
        assert np.abs(table.sum(axis=0) - q).max() <= 1e-12


def test_transportation_lp_matches_vertex_oracle():
    rng = np.random.default_rng(11)
    for trial in range(60):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        sense = "min" if trial % 2 == 0 else "max"
        lp = transportation_lp(p, q, cost, sense).value
        brute = lp_vertex_oracle(p, q, cost, sense)
        assert abs(lp - brute) <= 1e-9, f"trial={trial} sense={sense}"


def test_transportation_lp_handles_degenerate_marginals():
    # equal staircase masses force zero-flow basic cells
    p = np.array([0.25, 0.25, 0.25, 0.25])
    q = np.array([0.25, 0.25, 0.25, 0.25])
    cost = np.arange(16, dtype=float).reshape(4, 4)
    sol = transportation_lp(p, q, cost, "min")
    brute = lp_vertex_oracle(p, q, cost, "min")
    assert abs(sol.value - brute) <= 1e-12


def test_transportation_lp_zero_mass_rows():
    p = np.array([0.0, 1.0])
    q = np.array([0.5, 0.0, 0.5])
    cost = np.array([[5.0, 1.0, 7.0], [2.0, 9.0, 4.0]])
    sol = transportation_lp(p, q, cost, "min")
    assert abs(sol.value - 3.0) <= 1e-12
    assert np.allclose(sol.plan.table[0], 0.0)


def test_transportation_lp_input_validation():
    with pytest.raises(LengthMismatch):
        transportation_lp(np.array([1.0]), np.array([1.0]), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        transportation_lp(np.array([0.5]), np.array([1.0]), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        transportation_lp(
            np.array([1.0]), np.array([1.0]), np.array([[np.nan]])
        )
    with pytest.raises(ValueError, match="finite"):
        transportation_lp(np.array([np.nan, 1.0]), np.array([0.5, 0.5]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="finite"):
        transportation_lp(np.array([0.5, 0.5]), np.array([1.0, np.inf]), np.ones((2, 2)))
    with pytest.raises(ValueError):
        transportation_lp(np.array([1.0]), np.array([1.0]), np.zeros((1, 1)), "best")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6))
def test_transportation_lp_value_bounds(m, n, seed):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(m))
    q = rng.dirichlet(np.ones(n))
    cost = rng.random((m, n))
    value = transportation_lp(p, q, cost, "min").value
    assert cost.min() - 1e-12 <= value <= cost.max() + 1e-12
    # the independent coupling is feasible, so it upper-bounds the minimum
    assert value <= float(np.outer(p, q).ravel() @ cost.ravel()) + 1e-12


def test_coupling_lp_rejects_unknown_kind():
    a = make_ensemble([(1.0, KET0)])
    with pytest.raises(OutOfRange):
        coupling_lp(a, a, "overlap")


def test_distance_orthogonal_singletons():
    a = make_ensemble([(1.0, KET0)])
    b = make_ensemble([(1.0, KET1)])
    dk, coupling = kantorovich_distance(a, b)
    assert dk == 1.0
    assert abs(coupling.table.sum() - 1.0) <= 1e-12
    fk, _ = kantorovich_fidelity(a, b)
    assert fk == 0.0


def test_distance_identical_ensembles_vanishes():
    ens = random_ensemble(2, 3, seed=7)
    dk, _ = kantorovich_distance(ens, ens)
    assert dk <= 1e-12
    fk, _ = kantorovich_fidelity(ens, ens)
    assert fk >= 1.0 - 1e-12


def test_distance_symmetry():
    a = random_ensemble(3, 2, seed=1)
    b = random_ensemble(3, 3, seed=2)
    assert abs(kantorovich_distance(a, b)[0] - kantorovich_distance(b, a)[0]) <= 1e-12
    assert abs(kantorovich_fidelity(a, b)[0] - kantorovich_fidelity(b, a)[0]) <= 1e-12


def test_classical_limit_shared_basis():
    d = 4
    basis = [_basis_density(d, k) for k in range(d)]
    rng = np.random.default_rng(3)
    for _ in range(5):
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        a = make_ensemble(list(zip(p, basis)))
        b = make_ensemble(list(zip(q, basis)))
        dk, _ = kantorovich_distance(a, b)
        fk, _ = kantorovich_fidelity(a, b)
        assert abs(dk - 0.5 * np.abs(p - q).sum()) <= 1e-9
        assert abs(fk - np.minimum(p, q).sum()) <= 1e-9


def test_classical_limit_singleton_diagonal():
    # the other classical limit: commuting singletons give the full overlap
    p = np.array([0.7, 0.3])
    q = np.array([0.4, 0.6])
    a = make_ensemble([(1.0, np.diag(p).astype(complex))])
    b = make_ensemble([(1.0, np.diag(q).astype(complex))])
    fk, _ = kantorovich_fidelity(a, b)
    assert abs(fk - np.sqrt(p * q).sum()) <= 1e-9
    dk, _ = kantorovich_distance(a, b)
    assert abs(dk - 0.5 * np.abs(p - q).sum()) <= 1e-9


def test_flagged_closed_forms_match_lp():
    rng = np.random.default_rng(17)
    for trial in range(8):
        k = int(rng.integers(2, 4))
        ps = [
            (w, random_density(2, seed=100 + 10 * trial + i))
            for i, w in enumerate(rng.dirichlet(np.ones(k)))
        ]
        qs = [
            (w, random_density(2, seed=200 + 10 * trial + i))
            for i, w in enumerate(rng.dirichlet(np.ones(k)))
        ]
        flags = [_basis_density(k, i) for i in range(k)]
        a = make_ensemble([(w, tensor(rho, flags[i])) for i, (w, rho) in enumerate(ps)])
        b = make_ensemble([(w, tensor(sig, flags[i])) for i, (w, sig) in enumerate(qs)])
        assert abs(kantorovich_distance(a, b)[0] - flagged_closed_form_distance(ps, qs)) <= 1e-9
        assert abs(kantorovich_fidelity(a, b)[0] - flagged_closed_form_fidelity(ps, qs)) <= 1e-9


def test_flagged_closed_form_handles_shared_weights():
    # equal weights reduce to the average pairwise measures
    ps = [(0.5, KET0), (0.5, KET1)]
    qs = [(0.5, PLUS), (0.5, PLUS)]
    expect_d = 0.5 * (trace_distance(KET0, PLUS) + trace_distance(KET1, PLUS))
    expect_f = 0.5 * (fidelity(KET0, PLUS) + fidelity(KET1, PLUS))
    assert abs(flagged_closed_form_distance(ps, qs) - expect_d) <= 1e-12
    assert abs(flagged_closed_form_fidelity(ps, qs) - expect_f) <= 1e-12


def test_flagged_closed_form_errors():
    with pytest.raises(LengthMismatch):
        flagged_closed_form_distance([(1.0, KET0)], [])
    with pytest.raises(LengthMismatch):
        flagged_closed_form_fidelity([], [])
    # pairs are checked in input order, each rho before its sigma
    not_hermitian = np.array([[1.0, 1.0], [0.0, 0.0]])
    ps, qs = [(0.5, KET0), (0.5, not_hermitian)], [(0.5, 2.0 * KET0), (0.5, KET1)]
    for closed_form in (flagged_closed_form_distance, flagged_closed_form_fidelity):
        with pytest.raises(InvalidState, match="trace differs"):
            closed_form(ps, qs)


@pytest.mark.parametrize("closed_form", [flagged_closed_form_distance, flagged_closed_form_fidelity])
@pytest.mark.parametrize("weight", [np.nan, np.inf, -0.5, -2e-8])
def test_flagged_closed_forms_reject_weights_make_ensemble_rejects(closed_form, weight):
    with pytest.raises(InvalidState, match="flag weight"):
        closed_form([(weight, KET0)], [(1.0, KET1)])
    with pytest.raises(InvalidState, match="flag weight"):
        closed_form([(1.0, KET0)], [(weight, KET1)])
    with pytest.raises(InvalidState):
        make_ensemble([(weight, KET0), (1.0, KET1)])
    # a weight within 1e-8 below zero passes, as it does in make_ensemble
    assert np.isfinite(closed_form([(-5e-9, KET0)], [(1.0, KET1)]))


def test_triangle_inequality_small_batch():
    for seed in range(10):
        a = random_ensemble(2, 2, seed=300 + seed)
        b = random_ensemble(2, 2, seed=400 + seed)
        c = random_ensemble(2, 2, seed=500 + seed)
        dab = kantorovich_distance(a, b)[0]
        dbc = kantorovich_distance(b, c)[0]
        dac = kantorovich_distance(a, c)[0]
        assert dac <= dab + dbc + 1e-8


def test_check_average_continuity_entropy():
    a = random_ensemble(3, 2, seed=21)
    b = random_ensemble(3, 3, seed=22)
    dk, _ = kantorovich_distance(a, b)

    def bound(t):
        t = min(max(t, 0.0), 1.0)
        h = 0.0 if t in (0.0, 1.0) else -t * np.log2(t) - (1 - t) * np.log2(1 - t)
        return t * np.log2(2) + h

    report = check_average_continuity(
        [p * von_neumann_entropy(s) for p, s in a],
        [p * von_neumann_entropy(s) for p, s in b],
        dk,
        bound,
    )
    assert bool(report)
    assert report.difference <= report.bound + 1e-9


def test_check_average_continuity_detects_violation():
    report = check_average_continuity([1.0], [0.0], 0.5, lambda t: t)
    assert not report
    assert report.difference == 1.0 and report.bound == 0.5


def _uniform_integer_costs(rng, m, n):
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n), rng.integers(0, 3, (m, n)).astype(float)


def _repeated_rows_and_columns(rng, m, n):
    # rows and columns of the cost, and the masses, are copies of a few types
    rows = rng.integers(0, 3, m)
    cols = rng.integers(0, 3, n)
    cost = rng.integers(0, 3, (3, 3)).astype(float)[np.ix_(rows, cols)]
    p = rng.integers(1, 3, 3)[rows].astype(float)
    q = rng.integers(1, 3, 3)[cols].astype(float)
    return p / p.sum(), q / q.sum(), cost


def _shared_states(rng, m, n):
    # the first min(m, n) states are on both sides: a symmetric cost with a
    # zero diagonal, rounded so that distances tie, and often equal masses
    k = max(m, n)
    pts = rng.random((k, 2))
    cost = np.round(np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2), 1)
    p = rng.integers(1, 3, m).astype(float)
    q = p.copy() if m == n and rng.random() < 0.5 else rng.integers(1, 3, n).astype(float)
    return p / p.sum(), q / q.sum(), cost[:m, :n]


DEGENERATE = [_uniform_integer_costs, _repeated_rows_and_columns, _shared_states]


@pytest.mark.parametrize("make", DEGENERATE, ids=["uniform-0-1-2", "repeated", "shared-states"])
def test_transportation_lp_matches_vertex_oracle_on_ties(make):
    rng = np.random.default_rng(23)
    degenerate = 0
    for trial in range(120):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p, q, cost = make(rng, m, n)
        for sense in ("min", "max"):
            sol = transportation_lp(p, q, cost, sense)
            table = sol.plan.table
            assert abs(sol.value - lp_vertex_oracle(p, q, cost, sense)) <= 1e-12, (trial, sense)
            assert table.min() >= 0.0
            assert np.abs(table.sum(axis=1) - p).max() <= 1e-12
            assert np.abs(table.sum(axis=0) - q).max() <= 1e-12
            degenerate += sol.status == "degenerate-resolved"
    assert degenerate >= 10  # the ties do reach degenerate pivots


def _zero_flow_cells_point_to_root(parent, flow, m):
    """Strong feasibility of a basis tree rooted at row 0: a tree cell with
    zero flow hangs a row (node < m) from its column, never a column from
    its row."""
    return all(flow[x] > 0.0 or x < m for x in range(len(parent)) if parent[x] >= 0)


@pytest.mark.parametrize("make", DEGENERATE, ids=["uniform-0-1-2", "repeated", "shared-states"])
def test_basis_stays_strongly_feasible_after_every_pivot(make):
    rng = np.random.default_rng(29)
    pivots = 0
    for trial in range(60):
        m, n = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        p, q, cost = make(rng, m, n)
        cost = cost if trial % 2 else -cost
        assert _zero_flow_cells_point_to_root(*_northwest_corner(p, q), m)
        trees = []
        _, iterations, _, _ = _simplex(
            p, q, cost, lambda parent, flow: trees.append(_zero_flow_cells_point_to_root(parent, flow, m))
        )
        assert len(trees) == iterations and all(trees)
        pivots += iterations
    assert pivots >= 100


def test_pivot_count_pins_dantzig_pricing():
    # d=8, 32 full-rank states a side, disjoint supports.  Dantzig pricing
    # took 97 pivots for the distance and 115 for the fidelity here, Bland's
    # rule 994 and 1252; the bounds allow 25% over the measured counts.
    a = random_ensemble(8, 32, seed=1)
    b = random_ensemble(8, 32, seed=2)
    assert coupling_lp(a, b, "distance").iterations <= 121
    assert coupling_lp(a, b, "fidelity").iterations <= 144


@pytest.mark.parametrize("make", DEGENERATE, ids=["uniform-0-1-2", "repeated", "shared-states"])
def test_duals_certify_the_optimum_on_ties(make):
    rng = np.random.default_rng(31)
    for trial in range(120):
        m, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        p, q, cost = make(rng, m, n)
        for sense, side in (("min", 1.0), ("max", -1.0)):
            sol = transportation_lp(p, q, cost, sense)
            u, w = sol.plan.row_duals, sol.plan.col_duals
            reduced = cost - u[:, None] - w[None, :]
            flow = sol.plan.table > 0.0
            assert np.abs(reduced[flow]).max() <= 1e-12, (trial, sense)
            assert (side * reduced).min() >= -1e-12, (trial, sense)
            assert abs(u @ p + w @ q - lp_vertex_oracle(p, q, cost, sense)) <= 1e-12, (trial, sense)


def test_duals_of_zero_mass_rows_and_columns_are_zero():
    p = np.array([0.0, 0.6, 0.4])
    q = np.array([0.5, 0.0, 0.5])
    cost = np.arange(9, dtype=float).reshape(3, 3)
    for sense in ("min", "max"):
        sol = transportation_lp(p, q, cost, sense)
        u, w = sol.plan.row_duals, sol.plan.col_duals
        assert u[0] == 0.0 and w[1] == 0.0
        assert abs(u @ p + w @ q - sol.value) <= 1e-12


@pytest.mark.parametrize(
    "p, q, cost",
    [
        ([1.0], [1.0, 5e-9], [[0.0, 1.0]]),
        ([0.5, 0.5], [0.5, 0.5 + 4e-9], [[1.0, 0.0], [0.0, 1.0]]),
        ([0.5, 0.5], [0.5, 0.5 - 4e-9], [[1.0, 0.0], [0.0, 1.0]]),
    ],
    ids=["one-row", "2x2-over", "2x2-under"],
)
def test_unequal_marginal_totals_keep_every_mass(p, q, cost):
    # the totals differ by less than the 1e-8 the input check allows; the
    # columns are scaled to the rows' total, so no mass is left off
    p, q, cost = np.array(p), np.array(q), np.array(cost)
    scaled = q * (p.sum() / q.sum())
    table = transportation_lp(p, q, cost).plan.table
    assert np.abs(table.sum(axis=1) - p).max() <= 1e-15
    assert np.abs(table.sum(axis=0) - scaled).max() <= 1e-15
    assert _zero_flow_cells_point_to_root(*_northwest_corner(p, scaled), len(p))
    trees = []
    table, iterations, _, _ = _simplex(
        p, q, cost, lambda parent, flow: trees.append(_zero_flow_cells_point_to_root(parent, flow, len(p)))
    )
    assert np.abs(table.sum(axis=0) - scaled).max() <= 1e-15
    assert len(trees) == iterations >= len(p) - 1 and all(trees)


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _small_tables():
    """``(p, q, cost)`` with at most two rows and two columns of mass:
    random and tied costs, marginals equal exactly (the Z and X outputs at
    the entangled input), totals that differ by rounding, a zero-flow cell
    on the diagonal, zero-mass rows and columns around the mass, and the
    1×1, 1×2 and 2×1 shapes."""
    rng = np.random.default_rng(67)
    cases = []
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2)):
        for _ in range(40):
            p, q = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
            cases.append((p, q, rng.random((m, n))))
            cases.append((p, q, rng.integers(0, 2, size=(m, n)).astype(float)))
    for _ in range(40):
        x = float(rng.random())
        p = np.array([x, 1.0 - x])
        cases.append((p, p.copy(), rng.random((2, 2))))
        cases.append((p, p.copy(), np.array([[0.0, 1.0], [1.0, 0.0]]) * rng.random()))
    half, swap = np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]])
    cases.append((half, half.copy(), swap))
    cases.append((half, np.array([0.5, 0.5 + 4e-9]), 1.0 - swap))
    # a column whose mass vanishes beside 1.0 leaves a zero-flow diagonal cell
    cases.append((half, np.array([1.0, 1e-17]), 1.0 - swap))
    cases.append((np.array([0.0, 0.3, 0.7]), np.array([0.6, 0.0, 0.4]), rng.random((3, 3))))
    return cases


def test_two_by_two_closed_form_equals_the_simplex_bit_for_bit(monkeypatch):
    reports = []
    for p, q, cost in _small_tables():
        for sense in ("min", "max"):
            reports.append(transportation_lp(p, q, cost, sense))
    # the reference: the same solves with the closed form turned off
    monkeypatch.setattr(kantorovich, "_two_by_two", lambda a, b, cost: None)
    statuses = set()
    for (p, q, cost), pair in zip(_small_tables(), zip(reports[::2], reports[1::2])):
        for sense, got in zip(("min", "max"), pair):
            want = transportation_lp(p, q, cost, sense)
            assert _bits(got.plan.table) == _bits(want.plan.table)
            assert _bits(got.plan.row_duals) == _bits(want.plan.row_duals)
            assert _bits(got.plan.col_duals) == _bits(want.plan.col_duals)
            assert _bits([got.value, *got.bracket]) == _bits([want.value, *want.bracket])
            assert (got.iterations, got.status, got.converged) == (
                want.iterations, want.status, want.converged
            )
            statuses.add((got.iterations, got.status))
    # no pivot, a pivot that moves flow and a pivot that moves none all occur
    assert statuses == {(0, "optimal"), (1, "optimal"), (1, "degenerate-resolved")}


def test_two_by_two_closed_form_equals_the_simplex_on_its_outputs():
    # the least reduced cost and the potentials come back as _simplex gives
    # them; a watch sends _simplex down its general path
    for p, q, cost in _small_tables():
        rows, cols = np.flatnonzero(p > 0.0), np.flatnonzero(q > 0.0)
        a, b, c = p[rows], q[cols], cost[np.ix_(rows, cols)]
        for sign in (1.0, -1.0):
            got = _simplex(a, b, sign * c)
            want = _simplex(a, b, sign * c, lambda parent, flow: None)
            assert _bits(got[0]) == _bits(want[0])
            assert got[1:3] == want[1:3]
            assert all(_bits(x) == _bits(y) for x, y in zip(got[3], want[3]))


def test_pivot_cap_returns_a_vertex_whose_bracket_holds_the_optimum(monkeypatch):
    rng = np.random.default_rng(71)
    monkeypatch.setattr(kantorovich, "_PIVOT_CAP", 2)
    for sense in ("min", "max"):
        capped = 0
        for _ in range(10):
            p, q = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
            cost = rng.random((4, 4))
            rep = transportation_lp(p, q, cost, sense)
            lo, hi = rep.bracket
            assert lo - 1e-12 <= lp_vertex_oracle(p, q, cost, sense) <= hi + 1e-12
            assert rep.iterations <= 2
            table = rep.plan.table
            assert table.min() >= 0.0 and np.abs(table.sum(axis=1) - p).max() <= 1e-12
            if rep.status == "pivot-cap":
                capped += 1
                assert rep.iterations == 2 and not rep.converged
        assert capped >= 5


def test_pivot_cap_on_a_16x16_pair_brackets_the_full_solve(monkeypatch):
    a, b = random_ensemble(4, 16, seed=73), random_ensemble(4, 16, seed=74)
    for kind in ("distance", "fidelity"):
        full = coupling_lp(a, b, kind)
        assert full.converged and full.status != "pivot-cap"
        with monkeypatch.context() as patch:
            patch.setattr(kantorovich, "_PIVOT_CAP", 2)
            rep = coupling_lp(a, b, kind)
        assert (rep.status, rep.iterations, rep.converged) == ("pivot-cap", 2, False)
        lo, hi = rep.bracket
        assert lo - 1e-12 <= full.value <= hi + 1e-12
        assert lo <= rep.value <= hi
