import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ensemble_metrics import ehs
from ensemble_metrics.ehs import (
    JointPair,
    SolverOptions,
    distance_objective,
    ehs_bures,
    ehs_distance,
    ehs_fidelity,
    fidelity_objective,
    project_rows_to_simplex,
    pure_ensemble_fidelity,
    uhlmann_pure_ensembles,
)
from ensemble_metrics.ensembles import (
    average_state,
    make_ensemble,
    pure_state,
    unify_support,
)
from ensemble_metrics.channels import WorstCaseOptions
from ensemble_metrics.cli import _sig12
from ensemble_metrics.errors import DimMismatch, InvalidParams, NotPure
from ensemble_metrics.kantorovich import (
    SolveReport,
    kantorovich_distance,
    kantorovich_fidelity,
)
from ensemble_metrics.linalg import fidelity, trace_distance
from ensemble_metrics.oracle import random_density, random_ensemble

KET0 = pure_state(np.array([1.0, 0.0]))
KET1 = pure_state(np.array([0.0, 1.0]))

# values frozen against an independent semidefinite-programming solve
# (distance) and a 200-restart long-run ascent (fidelity)
PINNED = [
    ((2, 2, 61), (2, 2, 62), 0.468207559489, 0.837460552957),
    ((2, 3, 5), (2, 3, 6), 0.608869224246, 0.774626541840),
    ((3, 2, 17), (3, 2, 18), 0.528852322507, 0.766299035271),
]


def _basis_density(d, k):
    return pure_state(np.eye(d)[k])


def test_project_rows_to_simplex_basics():
    x = np.array([[0.2, 0.9, -0.4], [2.0, 2.0, 2.0]])
    masses = np.array([1.0, 0.3])
    out = project_rows_to_simplex(x, masses)
    assert out.min() >= 0.0
    assert np.abs(out.sum(axis=1) - masses).max() <= 1e-12
    # feasible input is a fixed point
    again = project_rows_to_simplex(out, masses)
    assert np.abs(again - out).max() <= 1e-12


def test_project_rows_to_simplex_zero_mass():
    out = project_rows_to_simplex(np.array([[1.0, 2.0]]), np.array([0.0]))
    assert np.all(out == 0.0)


@settings(max_examples=40, deadline=None)
@given(
    hnp.arrays(np.float64, (3, 4), elements=st.floats(-5, 5)),
    st.floats(0.01, 2.0),
)
def test_project_rows_to_simplex_is_projection(x, mass):
    masses = np.full(3, mass)
    out = project_rows_to_simplex(x, masses)
    assert out.min() >= -1e-12
    assert np.abs(out.sum(axis=1) - mass).max() <= 1e-9
    # projection never moves farther than an arbitrary feasible point
    feas = np.full((3, 4), mass / 4.0)
    assert np.linalg.norm(out - x) <= np.linalg.norm(feas - x) + 1e-9


def test_singleton_reduction():
    for seed in range(6):
        d = 2 + seed % 2
        rho = random_density(d, seed=seed)
        sigma = random_density(d, seed=100 + seed)
        a = make_ensemble([(1.0, rho)])
        b = make_ensemble([(1.0, sigma)])
        rep = ehs_distance(a, b)
        assert abs(rep.value - trace_distance(rho, sigma)) <= 1e-4
        rep = ehs_fidelity(a, b)
        assert abs(rep.value - fidelity(rho, sigma)) <= 1e-4


def test_classical_limits():
    d = 3
    basis = [_basis_density(d, k) for k in range(d)]
    rng = np.random.default_rng(13)
    for _ in range(4):
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        a = make_ensemble(list(zip(p, basis)))
        b = make_ensemble(list(zip(q, basis)))
        assert abs(ehs_distance(a, b).value - 0.5 * np.abs(p - q).sum()) <= 1e-4
        assert abs(ehs_fidelity(a, b).value - np.sqrt(p * q).sum()) <= 1e-4


def test_pinned_instances():
    for spec_a, spec_b, want_d, want_f in PINNED:
        a = random_ensemble(*spec_a[:2], seed=spec_a[2])
        b = random_ensemble(*spec_b[:2], seed=spec_b[2])
        assert abs(ehs_distance(a, b).value - want_d) <= 2e-4
        assert abs(ehs_fidelity(a, b).value - want_f) <= 2e-4


def test_distance_report_contract():
    a = random_ensemble(2, 2, seed=61)
    b = random_ensemble(2, 2, seed=62)
    rep = ehs_distance(a, b)
    lower, upper = rep.bracket
    sp = unify_support(a, b)
    avg = trace_distance(average_state(a), average_state(b))
    bound = sp.p @ rep.plan.row_duals + sp.q @ rep.plan.col_duals
    assert abs(lower - min(max(avg, bound), rep.value)) <= 1e-12
    assert abs(upper - rep.value) <= 1e-12
    assert upper <= kantorovich_distance(a, b)[0] + 1e-12
    assert lower - 1e-12 <= rep.value <= upper + 1e-12
    assert rep.converged
    assert rep.iterations >= 1
    tp, tq = rep.plan.p_table, rep.plan.q_table
    assert tp.min() >= -1e-12 and tq.min() >= -1e-12
    assert np.abs(tp.sum(axis=1) - sp.p).max() <= 1e-9
    assert np.abs(tq.sum(axis=0) - sp.q).max() <= 1e-9


def test_fidelity_report_contract():
    a = random_ensemble(2, 2, seed=61)
    b = random_ensemble(2, 2, seed=62)
    rep = ehs_fidelity(a, b)
    lower, upper = rep.bracket
    avg = fidelity(average_state(a), average_state(b))
    assert abs(lower - rep.value) <= 1e-12
    assert abs(upper - max(rep.value, min(avg, _ascent_end(a, b, rep.plan)))) <= 1e-12
    assert lower >= kantorovich_fidelity(a, b)[0] - 1e-12
    assert lower - 1e-12 <= rep.value <= upper + 1e-12
    assert rep.converged


def _ascent_end(a, b, plan):
    """The AM-GM upper end of the ascent's plan, column by column:
    ``p·α + Σ_j q_j max_i w_ij² / (4 α_i)`` over the cells with mass, with
    ``α`` the plan's row duals and ``w`` the pairwise fidelity."""
    sp, alpha = plan.support, plan.row_duals
    end = float(sp.p @ alpha)
    for j, y in enumerate(sp.omega):
        need = [fidelity(x, y) ** 2 / 4.0 if sp.p[i] > 0.0 else 0.0 for i, x in enumerate(sp.omega)]
        worst = [np.inf if alpha[i] == 0.0 else need[i] / alpha[i] for i in range(len(need)) if need[i] > 0.0]
        end += sp.q[j] * max(worst, default=0.0) if sp.q[j] > 0.0 else 0.0
    return end


def _certificate_pairs():
    """Random pairs (d 2 and 3, 2-4 states a side, some pure), and a qutrit
    pair whose coupling start leaves the row of |0> on a cell of fidelity 0
    beside one of fidelity about 1e-3: at ``max_iter=0`` that row's dual is
    0, and its AM-GM end is infinite."""
    for seed in range(6):
        rank = 1 if seed % 3 == 0 else None
        yield (random_ensemble(2 + seed % 2, 2 + seed % 3, seed=seed, rank=rank),
               random_ensemble(2 + seed % 2, 4 - seed % 3, seed=100 + seed, rank=rank))
    psi = pure_state(np.array([1e-3, 1e-3, 1.0]))
    e = np.eye(3)
    yield (make_ensemble([(0.5, pure_state(e[0])), (0.5, psi)]),
           make_ensemble([(0.5, pure_state(e[1])), (0.5, psi)]))


def test_each_bracket_is_the_certificate_its_plan_proves():
    # both ends rebuilt from the plan: the distance's dual bound from its
    # row and column duals, the fidelity's AM-GM end from its row duals; a
    # lower end sits below every feasible value of the same pair, an upper
    # end above it
    for a, b in _certificate_pairs():
        sp = unify_support(a, b)
        dists, fids = [], []
        for opts in (SolverOptions(max_iter=0), SolverOptions(max_iter=7), SolverOptions()):
            dist, fid = ehs_distance(a, b, opts), ehs_fidelity(a, b, opts)

            avg = trace_distance(average_state(a), average_state(b))
            bound = sp.p @ dist.plan.row_duals + sp.q @ dist.plan.col_duals
            assert dist.bracket == (min(max(avg, bound), dist.value), dist.value)

            avg = fidelity(average_state(a), average_state(b))
            assert fid.bracket[0] == fid.value
            want = max(fid.value, min(avg, _ascent_end(a, b, fid.plan)))
            assert fid.bracket[1] == pytest.approx(want, abs=1e-12)

            for rep in (dist, fid):
                lo, hi = rep.bracket
                assert lo <= rep.value <= hi
                assert rep.converged == (hi - lo <= opts.tol), rep
            dists.append(dist)
            fids.append(fid)
        assert max(r.bracket[0] for r in dists) <= min(r.value for r in dists) + 1e-12
        assert max(r.value for r in fids) <= min(r.bracket[1] for r in fids) + 1e-12


def test_identical_ensembles():
    ens = random_ensemble(2, 3, seed=9)
    assert ehs_distance(ens, ens).value <= 1e-8
    assert ehs_fidelity(ens, ens).value >= 1.0 - 1e-8


def test_budget_exhaustion_is_reported():
    a = random_ensemble(2, 3, seed=5)
    b = random_ensemble(2, 3, seed=6)
    rep = ehs_distance(a, b, SolverOptions(tol=1e-9, max_iter=10))
    assert not rep.converged
    assert rep.iterations == 10
    # the value is still a feasible upper bound inside the bracket
    assert rep.bracket[0] - 1e-12 <= rep.value <= rep.bracket[1] + 1e-12


def test_fidelity_ascent_reports_the_start_it_returns():
    # With w close to all-ones the ascent from the product tables still gains
    # more than 1e-10 a sweep when a 2000-sweep cap stops it.  A coupling
    # start on the off-diagonal cells keeps its zero pattern and stalls at
    # once, lower; the returned value is the unfinished product start's.
    p = q = np.array([0.5, 0.5])
    w = np.array([[1.0, 0.999], [0.999, 1.0]])
    table = np.array([[0.0, 0.5], [0.5, 0.0]])
    val, _, sweeps = ehs._bca(p, q, w, table, SolverOptions(max_iter=2000, restarts=0))
    assert sweeps == 1 + 2000
    assert val > 0.999 + 1e-4


def _ascent_one_start_at_a_time(p, q, w, table, opts):
    """The fidelity ascent with its starts run one after another, each to
    its own stall or cap: the reference the lockstep ascent must match bit
    for bit."""
    n = len(p)
    w2 = w * w
    rng = np.random.default_rng(opts.seed)

    def rescale_rows(num, masses):
        rs = num.sum(axis=1, keepdims=True)
        spread = masses[:, None] * num / np.where(rs > 0.0, rs, 1.0)
        return np.where(rs > 0.0, spread, masses[:, None] / num.shape[1])

    def random_tables():
        pt = project_rows_to_simplex(rng.random((n, n)), p)
        qt = project_rows_to_simplex(rng.random((n, n)).T, q).T
        return pt, qt

    starts = [(table.copy(), table.copy()), (np.outer(p, q), np.outer(p, q))]
    starts += [random_tables() for _ in range(opts.restarts)]

    def value_of(pt, qt):
        return float(np.sum(np.sqrt(pt * qt) * w))

    best_val, best, total_sweeps = -np.inf, None, 0
    for pt, qt in starts:
        val = value_of(pt, qt)
        for _ in range(opts.max_iter):
            total_sweeps += 1
            pt = rescale_rows(qt * w2, p)
            qt = rescale_rows((pt * w2).T, q).T
            new_val = value_of(pt, qt)
            if new_val - val < 1e-10:
                val = max(val, new_val)
                break
            val = new_val
        if val > best_val:
            best_val, best = val, (pt, qt)
    return best_val, best, total_sweeps


def test_lockstep_ascent_equals_the_starts_run_one_at_a_time():
    # n >= 9 sums rows in numpy's pairwise regime; every even n has
    # zero-mass rows and columns and zero cells of w
    rng = np.random.default_rng(25)
    for n in range(1, 20):
        p, q = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
        w = rng.random((n, n))
        if n % 2 == 0:
            p[: n // 4] = 0.0
            q[n // 3 :: 3] = 0.0
            p, q = p / p.sum(), q / q.sum()
            w[rng.random((n, n)) < 0.3] = 0.0
        if n % 6 == 5:
            w[:] = 0.0  # every start ties at 0, and the first one is returned
        table = np.outer(p, q) * (rng.random((n, n)) < 0.5)
        for restarts, max_iter, seed in itertools.product((0, 8), (0, 3, 5000), (0, 7)):
            # no restart draws nothing, and the long runs take turns by n
            if (restarts == 0 or max_iter == 5000) and seed != (0, 7)[n % 2]:
                continue
            opts = SolverOptions(max_iter=max_iter, restarts=restarts, seed=seed)
            want = _ascent_one_start_at_a_time(p, q, w, table, opts)
            got = ehs._bca(p, q, w, table, opts)
            assert got[0] == want[0]
            assert np.array_equal(got[1][0], want[1][0])
            assert np.array_equal(got[1][1], want[1][1])
            assert got[2] == want[2]


def test_distance_iteration_trajectory_of_the_kept_benchmark_fault():
    # the benchmark's kept fault, rebuilt in the draw order of its input
    # generator: two full-rank qubit states a side whose certificate gap is
    # still open after 5000 iterations
    rng = np.random.default_rng(348)

    def draw():
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        m = 0.5 * (m + m.conj().T)
        return m / np.trace(m).real

    sa = [draw() for _ in range(2)]
    sb = [draw() for _ in range(2)]
    a = make_ensemble(list(zip(rng.dirichlet(np.ones(2)), sa)))
    b = make_ensemble(list(zip(rng.dirichlet(np.ones(2)), sb)))
    rep = ehs_distance(a, b)
    assert _sig12(rep.value) == 0.743323140732
    assert [_sig12(x) for x in rep.bracket] == [0.743206695411, 0.743323140732]
    assert rep.bracket[1] - rep.bracket[0] > SolverOptions().tol
    assert rep.iterations == 5000
    assert rep.converged is False


def test_fidelity_ascent_starts_from_the_kantorovich_coupling():
    # one coupling solve feeds the ascent its support, cost, start and lower
    # end; the cost is the pairwise fidelity on the cells with mass
    a = random_ensemble(2, 3, seed=1)
    b = random_ensemble(2, 3, seed=51)
    fk, plan = kantorovich_fidelity(a, b)
    sp = plan.support
    rows, cols = sp.p > 0.0, sp.q > 0.0
    want = np.array([[fidelity(x, y) for y in sp.omega] for x in sp.omega])
    assert np.array_equal(plan.cost[np.ix_(rows, cols)], want[np.ix_(rows, cols)])
    assert not plan.cost[~rows].any() and not plan.cost[:, ~cols].any()
    rep = ehs_fidelity(a, b, SolverOptions(max_iter=0, restarts=0))
    assert rep.bracket[0] == fk
    assert rep.value >= fk - 1e-12


def test_solver_options_defaults():
    opts = SolverOptions()
    assert opts.tol == 1e-4
    assert opts.max_iter == 5000
    assert opts.restarts == 8
    assert opts.seed == 0


@pytest.mark.parametrize("make", [
    lambda: SolverOptions(seed=-1),
    lambda: SolverOptions(tol=float("nan")),
    lambda: SolverOptions(tol=0.0),
    lambda: SolverOptions(tol=float("inf")),
    lambda: SolverOptions(tol=True),
    lambda: SolverOptions(max_iter=2.5),
    lambda: SolverOptions(restarts=True),
    lambda: WorstCaseOptions(max_steps=-1),
    lambda: WorstCaseOptions(seed=1.0),
], ids=["seed", "tol-nan", "tol-zero", "tol-inf", "tol-bool", "max_iter", "restarts-bool",
        "max_steps", "worst-seed"])
def test_options_reject_invalid_values(make):
    with pytest.raises(InvalidParams):
        make()


def test_seed_determinism():
    a = random_ensemble(2, 3, seed=31)
    b = random_ensemble(2, 3, seed=32)
    v1 = ehs_fidelity(a, b, SolverOptions(seed=3)).value
    v2 = ehs_fidelity(a, b, SolverOptions(seed=3)).value
    assert v1 == v2


def test_distance_objective_at_product_tables():
    a = random_ensemble(2, 2, seed=41)
    b = random_ensemble(2, 2, seed=42)
    sp = unify_support(a, b)
    tables = (np.outer(sp.p, sp.q), np.outer(sp.p, sp.q))
    value, gp, gq = distance_objective(a, b)(*tables)
    expect = sum(
        sp.p[i] * sp.q[j] * trace_distance(sp.omega[i], sp.omega[j])
        for i in range(len(sp.omega))
        for j in range(len(sp.omega))
    )
    assert abs(value - expect) <= 1e-10
    assert gp.shape == tables[0].shape and gq.shape == tables[1].shape


def test_fidelity_objective_at_product_tables():
    a = random_ensemble(2, 2, seed=43)
    b = random_ensemble(2, 2, seed=44)
    sp = unify_support(a, b)
    t = np.outer(sp.p, sp.q)
    value, _, _ = fidelity_objective(a, b)(t, t)
    expect = sum(
        t[i, j] * fidelity(sp.omega[i], sp.omega[j])
        for i in range(len(sp.omega))
        for j in range(len(sp.omega))
    )
    assert abs(value - expect) <= 1e-10


def test_uhlmann_pure_ensembles_overlap():
    for seed in range(6):
        d = 2 + seed % 3
        rho = random_density(d, seed=seed)
        sigma = random_density(d, seed=60 + seed)
        ens_p, ens_q, overlap = uhlmann_pure_ensembles(rho, sigma)
        assert abs(overlap - fidelity(rho, sigma)) <= 1e-9
        assert np.abs(average_state(ens_p) - rho).max() <= 1e-9
        assert np.abs(average_state(ens_q) - sigma).max() <= 1e-9


def test_uhlmann_pure_ensembles_rejects_states_of_two_dimensions():
    with pytest.raises(DimMismatch):
        uhlmann_pure_ensembles(random_density(2, seed=1), random_density(3, seed=2))


def test_pure_ensemble_fidelity_achieves_state_fidelity():
    rho = random_density(2, seed=71)
    sigma = random_density(2, seed=72)
    ens_p, ens_q, _ = uhlmann_pure_ensembles(rho, sigma)
    got = pure_ensemble_fidelity(ens_p, ens_q).value
    assert abs(got - fidelity(rho, sigma)) <= 1e-6


def test_pure_ensemble_fidelity_reports_the_fidelity_solve():
    rho, sigma = random_density(3, seed=73), random_density(3, seed=74)
    ens_p, ens_q, _ = uhlmann_pure_ensembles(rho, sigma)
    got = pure_ensemble_fidelity(ens_p, ens_q)
    want = ehs_fidelity(ens_p, ens_q)
    assert isinstance(got, SolveReport)
    assert (got.value, got.bracket, got.converged) == (want.value, want.bracket, want.converged)
    assert got.bracket[0] <= got.value <= got.bracket[1]


def test_pure_ensemble_fidelity_keeps_its_purity_threshold():
    # purity (1 - e)² + e² is about 1 - 2e: inside 1e-8 at e = 1e-9, not at 1e-8
    def nearly_pure(e):
        return make_ensemble([(1.0, np.diag([1.0 - e, e]))])

    pure_ensemble_fidelity(nearly_pure(1e-9), nearly_pure(1e-9))
    with pytest.raises(NotPure, match="below"):
        pure_ensemble_fidelity(nearly_pure(1e-8), nearly_pure(0.0))


def test_pure_ensemble_fidelity_rejects_mixed():
    mixed = make_ensemble([(1.0, np.eye(2) / 2)])
    with pytest.raises(NotPure):
        pure_ensemble_fidelity(mixed, mixed)


def test_ehs_bures_relations():
    a = random_ensemble(2, 2, seed=81)
    b = random_ensemble(2, 2, seed=82)
    f = ehs_fidelity(a, b).value
    length, angle, report = ehs_bures(a, b)
    assert report.value == f
    assert abs(length - np.sqrt(1.0 - f)) <= 1e-9
    assert abs(angle - np.arccos(f)) <= 1e-9
    same = ehs_bures(a, a)
    assert same[0] <= 1e-4 and same[1] <= 1e-2


def test_ehs_bures_reports_an_ascent_that_never_ran():
    a = random_ensemble(2, 3, seed=1)
    b = random_ensemble(2, 3, seed=51)
    length, angle, report = ehs_bures(a, b, SolverOptions(max_iter=0))
    assert not report.converged and report.iterations == 0
    assert (length, angle) == (np.sqrt(1.0 - report.value), np.arccos(report.value))
    assert (round(length, 5), round(angle, 5)) == (0.36439, 0.5212)
    length, angle, report = ehs_bures(a, b)
    assert report.converged
    assert (round(length, 5), round(angle, 5)) == (0.35811, 0.51202)


def test_orthogonal_singletons_extremes():
    a = make_ensemble([(1.0, KET0)])
    b = make_ensemble([(1.0, KET1)])
    assert abs(ehs_distance(a, b).value - 1.0) <= 1e-8
    assert ehs_fidelity(a, b).value <= 1e-8
