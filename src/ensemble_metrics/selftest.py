"""Embedded property suites behind the selftest command.

Each check raises AssertionError with the offending inputs in the message.
The quick level stays within a 30 s budget; full adds the Monte Carlo games
and wider sweeps.
"""

from __future__ import annotations

import time

import numpy as np

from .channels import apply_measurement, jamiolkowski_ensemble
from .ehs import (
    JointPair,
    distance_objective,
    ehs_distance,
    ehs_fidelity,
    fidelity_objective,
    pure_ensemble_fidelity,
    uhlmann_pure_ensembles,
)
from .ensembles import average_state, make_ensemble, pure_state, unify_support
from .errors import EnsembleMetricsError
from .kantorovich import (
    flagged_closed_form_distance,
    flagged_closed_form_fidelity,
    kantorovich_distance,
    kantorovich_fidelity,
    transportation_lp,
)
from .linalg import fidelity, helstrom_pmax, tensor, trace_distance
from .oracle import (
    fd_subgradient_check,
    lp_vertex_oracle,
    random_density,
    random_ensemble,
    random_measurement,
    simulate_ehs_game,
    simulate_kantorovich_game,
)


def _basis_density(d: int, k: int) -> np.ndarray:
    return pure_state(np.eye(d)[k])


def check_singleton_reduction():
    for seed in range(5):
        d = 2 + seed % 2
        rho = random_density(d, seed=seed)
        sigma = random_density(d, seed=100 + seed)
        a = make_ensemble([(1.0, rho)])
        b = make_ensemble([(1.0, sigma)])
        delta = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        dk, _ = kantorovich_distance(a, b)
        fk, _ = kantorovich_fidelity(a, b)
        de = ehs_distance(a, b).value
        fe = ehs_fidelity(a, b).value
        assert abs(dk - delta) <= 1e-9, f"seed={seed} d={d}: |dK-delta|={abs(dk - delta)}"
        assert abs(fk - f) <= 1e-9, f"seed={seed} d={d}: |fK-F|={abs(fk - f)}"
        assert abs(de - delta) <= 1e-4, f"seed={seed} d={d}: |dEHS-delta|={abs(de - delta)}"
        assert abs(fe - f) <= 1e-4, f"seed={seed} d={d}: |fEHS-F|={abs(fe - f)}"


def check_classical_limits():
    rng = np.random.default_rng(11)
    d = 4
    basis = [_basis_density(d, k) for k in range(d)]
    for trial in range(3):
        p = rng.dirichlet(np.ones(d))
        q = rng.dirichlet(np.ones(d))
        a = make_ensemble(list(zip(p, basis)))
        b = make_ensemble(list(zip(q, basis)))
        tv = 0.5 * float(np.abs(p - q).sum())
        ov = float(np.minimum(p, q).sum())
        bh = float(np.sqrt(p * q).sum())
        dk, _ = kantorovich_distance(a, b)
        fk, _ = kantorovich_fidelity(a, b)
        assert abs(dk - tv) <= 1e-9, f"trial={trial} p={p} q={q}: dK={dk} tv={tv}"
        assert abs(fk - ov) <= 1e-9, f"trial={trial} p={p} q={q}: fK={fk} overlap={ov}"
        de = ehs_distance(a, b).value
        fe = ehs_fidelity(a, b).value
        assert abs(de - tv) <= 1e-4, f"trial={trial} p={p} q={q}: dEHS={de} tv={tv}"
        assert abs(fe - bh) <= 1e-4, f"trial={trial} p={p} q={q}: fEHS={fe} bhat={bh}"


def check_flagged_closed_forms():
    rng = np.random.default_rng(23)
    for trial in range(3):
        k = int(rng.integers(2, 4))
        ps = [(w, random_density(2, seed=1000 + 10 * trial + i)) for i, w in enumerate(rng.dirichlet(np.ones(k)))]
        qs = [(w, random_density(2, seed=2000 + 10 * trial + i)) for i, w in enumerate(rng.dirichlet(np.ones(k)))]
        flags = [_basis_density(k, i) for i in range(k)]
        a = make_ensemble([(w, tensor(rho, flags[i])) for i, (w, rho) in enumerate(ps)])
        b = make_ensemble([(w, tensor(sig, flags[i])) for i, (w, sig) in enumerate(qs)])
        dk, _ = kantorovich_distance(a, b)
        fk, _ = kantorovich_fidelity(a, b)
        dc = flagged_closed_form_distance(ps, qs)
        fc = flagged_closed_form_fidelity(ps, qs)
        assert abs(dk - dc) <= 1e-9, f"trial={trial}: LP {dk} closed form {dc}"
        assert abs(fk - fc) <= 1e-9, f"trial={trial}: LP {fk} closed form {fc}"


def check_sandwich():
    for seed in range(5):
        a = random_ensemble(2, 3, seed=3000 + seed)
        b = random_ensemble(2, 3, seed=4000 + seed)
        davg = trace_distance(average_state(a), average_state(b))
        favg = fidelity(average_state(a), average_state(b))
        dk, _ = kantorovich_distance(a, b)
        fk, _ = kantorovich_fidelity(a, b)
        de = ehs_distance(a, b).value
        fe = ehs_fidelity(a, b).value
        assert davg - 1e-4 <= de <= dk + 1e-4, f"seed={seed}: {davg} <= {de} <= {dk}"
        assert fk - 1e-4 <= fe <= favg + 1e-4, f"seed={seed}: {fk} <= {fe} <= {favg}"


def check_vertex_oracle():
    rng = np.random.default_rng(31)
    for trial in range(10):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        for sense in ("min", "max"):
            lp = transportation_lp(p, q, cost, sense).value
            brute = lp_vertex_oracle(p, q, cost, sense)
            assert abs(lp - brute) <= 1e-9, (
                f"trial={trial} sense={sense} p={p} q={q} cost={cost}: {lp} vs {brute}"
            )


def check_uhlmann_overlap():
    for seed in range(2):
        d = 2 + seed
        rho = random_density(d, seed=5000 + seed)
        sigma = random_density(d, seed=6000 + seed)
        ens_p, ens_q, overlap = uhlmann_pure_ensembles(rho, sigma)
        f = fidelity(rho, sigma)
        assert abs(overlap - f) <= 1e-9, f"seed={seed} d={d}: overlap {overlap} vs F {f}"
        fe = pure_ensemble_fidelity(ens_p, ens_q).value
        assert abs(fe - f) <= 1e-6, f"seed={seed} d={d}: pure-ensemble value {fe} vs F {f}"


def check_measurement_monotonicity():
    for seed in range(2):
        a = random_ensemble(2, 2, seed=7000 + seed)
        b = random_ensemble(2, 2, seed=8000 + seed)
        meas = random_measurement(2, 2, seed=9000 + seed)
        ma = apply_measurement(meas, a)
        mb = apply_measurement(meas, b)
        de0 = ehs_distance(a, b).value
        de1 = ehs_distance(ma, mb).value
        fe0 = ehs_fidelity(a, b).value
        fe1 = ehs_fidelity(ma, mb).value
        assert de1 <= de0 + 5e-4, f"seed={seed}: distance rose {de0} -> {de1}"
        assert fe1 >= fe0 - 5e-4, f"seed={seed}: fidelity fell {fe0} -> {fe1}"


def check_gradients():
    a = random_ensemble(2, 3, seed=41)
    b = random_ensemble(2, 3, seed=42)
    sp = unify_support(a, b)
    n = len(sp.omega)
    point = JointPair(
        np.repeat(sp.p[:, None] / n, n, axis=1), np.repeat(sp.q[None, :] / n, n, axis=0)
    )
    err_d = fd_subgradient_check(distance_objective(a, b), point, directions=10, seed=1)
    err_f = fd_subgradient_check(fidelity_objective(a, b), point, directions=10, seed=1)
    assert err_d <= 1e-4, f"distance subgradient relative error {err_d}"
    assert err_f <= 1e-4, f"fidelity gradient relative error {err_f}"


def check_povm_basics():
    from .channels import make_povm, povm_distance, povm_fidelity

    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    pz = make_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    px = make_povm([np.outer(plus, plus), np.outer(minus, minus)])
    dzx = povm_distance(pz, px).value
    assert abs(dzx - 1.0 / np.sqrt(2)) <= 1e-9, f"Z-vs-X POVM distance {dzx}"
    assert povm_distance(pz, pz).value == 0.0
    assert povm_fidelity(pz, pz).value == 1.0


def check_helstrom_link():
    rho = random_density(2, seed=51)
    sigma = random_density(2, seed=52)
    pmax, _ = helstrom_pmax(rho, sigma, 0.5)
    delta = trace_distance(rho, sigma)
    assert abs(2.0 * pmax - 1.0 - delta) <= 1e-12, f"2pmax-1={2 * pmax - 1} delta={delta}"


def check_games():
    a = random_ensemble(2, 2, seed=61)
    b = random_ensemble(2, 2, seed=62)
    dk, coupling = kantorovich_distance(a, b)
    g = simulate_kantorovich_game(a, b, coupling, trials=100000, seed=63)
    band = 3.0 * 2.0 * g.stderr
    assert abs(2.0 * g.estimate - 1.0 - dk) <= band, (
        f"coupling game: 2e-1={2 * g.estimate - 1} dK={dk} band={band}"
    )
    rep = ehs_distance(a, b)
    g = simulate_ehs_game(a, b, rep.plan, trials=100000, seed=64)
    band = 3.0 * 2.0 * g.stderr + 1e-4
    assert abs(2.0 * g.estimate - 1.0 - rep.value) <= band, (
        f"embedding game: 2e-1={2 * g.estimate - 1} dEHS={rep.value} band={band}"
    )


def check_triangle():
    for seed in range(20):
        a = random_ensemble(2, 2, seed=10000 + seed)
        b = random_ensemble(2, 2, seed=20000 + seed)
        c = random_ensemble(2, 2, seed=30000 + seed)
        dab, _ = kantorovich_distance(a, b)
        dbc, _ = kantorovich_distance(b, c)
        dac, _ = kantorovich_distance(a, c)
        assert dac <= dab + dbc + 1e-8, f"seed={seed}: dK triangle {dac} > {dab}+{dbc}"
        eab = ehs_distance(a, b).value
        ebc = ehs_distance(b, c).value
        eac = ehs_distance(a, c).value
        assert eac <= eab + ebc + 5e-4, f"seed={seed}: dEHS triangle {eac} > {eab}+{ebc}"


def check_choi_marginals():
    for seed in range(4):
        d = 2 + seed % 2
        m = random_measurement(d, 3, seed=40000 + seed)
        weights = sorted(m.weights)
        probs = sorted(jamiolkowski_ensemble(m).probs)
        assert np.allclose(weights, probs, atol=1e-9), (
            f"seed={seed} d={d}: weights {weights} vs outcome probs {probs}"
        )


def check_worst_case_floor():
    from .channels import WorstCaseOptions, dist_iso, dist_max, projective_measurement

    z = projective_measurement([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
    x = projective_measurement(
        [np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)]
    )
    floor = dist_iso(z, x).value
    value, _ = dist_max(z, x, wopts=WorstCaseOptions(restarts=2, max_steps=20))
    assert value >= floor - 1e-6, f"worst case {value} below fixed-input value {floor}"


def check_oracle_wide():
    rng = np.random.default_rng(71)
    for trial in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        lp = transportation_lp(p, q, cost, "min").value
        brute = lp_vertex_oracle(p, q, cost, "min")
        assert abs(lp - brute) <= 1e-9, f"trial={trial}: {lp} vs {brute}"


QUICK = [
    ("singleton-reduction", check_singleton_reduction),
    ("classical-limits", check_classical_limits),
    ("flagged-closed-forms", check_flagged_closed_forms),
    ("sandwich-brackets", check_sandwich),
    ("vertex-oracle", check_vertex_oracle),
    ("uhlmann-overlap", check_uhlmann_overlap),
    ("measurement-monotonicity", check_measurement_monotonicity),
    ("objective-gradients", check_gradients),
    ("povm-basics", check_povm_basics),
    ("helstrom-link", check_helstrom_link),
]

FULL = QUICK + [
    ("discrimination-games", check_games),
    ("triangle-inequalities", check_triangle),
    ("choi-marginals", check_choi_marginals),
    ("worst-case-floor", check_worst_case_floor),
    ("vertex-oracle-wide", check_oracle_wide),
]


def run(level: str = "quick") -> int:
    checks = QUICK if level == "quick" else FULL
    start = time.time()
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        except EnsembleMetricsError as exc:
            print(f"FAIL {name}: unexpected error {exc!r}")
            return 1
        print(f"ok {name}")
    print(f"{len(checks)} checks passed in {time.time() - start:.1f}s")
    return 0
