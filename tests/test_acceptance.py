"""Release gate: one test per advertised guarantee, at its published tolerance.

Each test is self-contained and finishes in well under ten seconds, so
``pytest -v tests/test_acceptance.py`` reads as one pass/fail line per
guarantee.  Tolerances here are contractual; loosening one is an interface
change, not a test fix.
"""

import json
import time
from pathlib import Path

import numpy as np

from ensemble_metrics import selftest
from ensemble_metrics.channels import (
    WorstCaseOptions,
    apply_measurement,
    compose_measurements,
    dist_iso,
    dist_max,
    fid_iso,
    make_measurement,
    make_povm,
    povm_distance,
    povm_fidelity,
    projective_measurement,
)
from ensemble_metrics.cli import SEED_ENV, main
from ensemble_metrics.ehs import (
    JointPair,
    SolverOptions,
    distance_objective,
    ehs_distance,
    ehs_fidelity,
    fidelity_objective,
    pure_ensemble_fidelity,
    uhlmann_pure_ensembles,
)
from ensemble_metrics.ensembles import (
    average_entropy,
    average_state,
    fannes_avg_entropy_bound,
    holevo_chi,
    make_ensemble,
    pure_state,
    unify_support,
)
from ensemble_metrics.kantorovich import (
    flagged_closed_form_distance,
    flagged_closed_form_fidelity,
    kantorovich_distance,
    kantorovich_fidelity,
    transportation_lp,
)
from ensemble_metrics.linalg import fidelity, tensor, trace_distance
from ensemble_metrics.oracle import (
    fd_subgradient_check,
    lp_vertex_oracle,
    random_cptp,
    random_density,
    random_ensemble,
    random_measurement,
    random_pure_decomposition,
    random_unitary,
    simulate_ehs_game,
    simulate_kantorovich_game,
)

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

S2 = 1.0 / np.sqrt(2.0)
E0 = np.array([1.0, 0.0])
E1 = np.array([0.0, 1.0])


def _singleton(rho):
    return make_ensemble([(1.0, rho)])


def _push_measurement(m, ens):
    pairs = []
    for p, state in ens:
        pairs.extend((p * w, s) for w, s in apply_measurement(m, state))
    return make_ensemble(pairs)


def _push_kraus(kraus, ens):
    return make_ensemble(
        [(p, sum(k @ s @ k.conj().T for k in kraus)) for p, s in ens]
    )


def test_criterion_01_singletons_reduce_to_state_measures():
    for k in range(50):
        d = 2 + k % 2
        rho = random_density(d, seed=2000 + k)
        sig = random_density(d, seed=2500 + k)
        a, b = _singleton(rho), _singleton(sig)
        delta = trace_distance(rho, sig)
        f = fidelity(rho, sig)
        assert abs(kantorovich_distance(a, b)[0] - delta) <= 1e-9, f"k={k}"
        assert abs(kantorovich_fidelity(a, b)[0] - f) <= 1e-9, f"k={k}"
        assert abs(ehs_distance(a, b).value - delta) <= 1e-4, f"k={k}"
        assert abs(ehs_fidelity(a, b).value - f) <= 1e-4, f"k={k}"


def test_criterion_02_classical_ensembles_reduce_to_classical_measures():
    basis = [pure_state(np.eye(4)[i]) for i in range(4)]
    for k in range(10):
        rng = np.random.default_rng(8000 + k)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        a = make_ensemble(list(zip(p, basis)))
        b = make_ensemble(list(zip(q, basis)))
        tv = 0.5 * float(np.abs(p - q).sum())
        assert abs(kantorovich_distance(a, b)[0] - tv) <= 1e-9, f"k={k}"
        assert abs(kantorovich_fidelity(a, b)[0] - float(np.minimum(p, q).sum())) <= 1e-9
        assert abs(ehs_distance(a, b).value - tv) <= 1e-4, f"k={k}"
        assert abs(ehs_fidelity(a, b).value - float(np.sqrt(p * q).sum())) <= 1e-4


def test_criterion_03_flagged_closed_forms_and_readout_increase():
    rng = np.random.default_rng(30)
    for trial in range(50):
        k = int(rng.integers(2, 4))
        ps = [
            (w, random_density(2, seed=3000 + 10 * trial + i))
            for i, w in enumerate(rng.dirichlet(np.ones(k)))
        ]
        qs = [
            (w, random_density(2, seed=3500 + 10 * trial + i))
            for i, w in enumerate(rng.dirichlet(np.ones(k)))
        ]
        flags = [pure_state(np.eye(k)[i]) for i in range(k)]
        a = make_ensemble([(w, tensor(rho, flags[i])) for i, (w, rho) in enumerate(ps)])
        b = make_ensemble([(w, tensor(sig, flags[i])) for i, (w, sig) in enumerate(qs)])
        assert abs(kantorovich_distance(a, b)[0] - flagged_closed_form_distance(ps, qs)) <= 1e-9
        assert abs(kantorovich_fidelity(a, b)[0] - flagged_closed_form_fidelity(ps, qs)) <= 1e-9

    # reading out the flag can strictly increase the coupling distance
    p = np.array([0.75, 0.25])
    q = np.array([0.25, 0.75])
    flags = [pure_state(np.eye(2)[i]) for i in range(2)]
    ket0 = pure_state(E0)
    mixed = np.eye(2) / 2.0
    before_a = _singleton(sum(p[i] * tensor(ket0, flags[i]) for i in range(2)))
    before_b = _singleton(sum(q[i] * tensor(mixed, flags[i]) for i in range(2)))
    readout = make_measurement(
        [(0.5, [np.sqrt(2.0) * tensor(np.eye(2), flags[i])]) for i in range(2)]
    )
    d_before = kantorovich_distance(before_a, before_b)[0]
    d_after = kantorovich_distance(
        _push_measurement(readout, before_a), _push_measurement(readout, before_b)
    )[0]
    assert abs(d_before - 0.625) <= 1e-9
    assert abs(d_after - 0.75) <= 1e-9
    assert d_after > d_before + 1e-4


def test_criterion_04_values_sit_between_average_and_coupling_measures():
    for k in range(100):
        a = random_ensemble(2, 1 + k % 3, seed=4000 + k)
        b = random_ensemble(2, 1 + (k + 1) % 3, seed=4400 + k)
        davg = trace_distance(average_state(a), average_state(b))
        favg = fidelity(average_state(a), average_state(b))
        dk = kantorovich_distance(a, b)[0]
        fk = kantorovich_fidelity(a, b)[0]
        dv = ehs_distance(a, b).value
        fv = ehs_fidelity(a, b).value
        assert davg - 1e-9 <= dv <= dk + 1e-4, f"k={k}"
        assert fk - 1e-9 <= fv <= favg + 1e-4, f"k={k}"


def test_criterion_05_monotonicity_under_measurements_and_channels():
    opts = SolverOptions(tol=2e-4, restarts=2)
    for k in range(100):
        a = random_ensemble(2, 1 + k % 2, seed=5000 + k)
        b = random_ensemble(2, 1 + (k + 1) % 2, seed=5600 + k)
        m = random_measurement(2, 2, seed=5300 + k)
        a2, b2 = _push_measurement(m, a), _push_measurement(m, b)
        assert ehs_distance(a2, b2, opts).value <= ehs_distance(a, b, opts).value + 5e-4, f"k={k}"
        assert ehs_fidelity(a2, b2, opts).value >= ehs_fidelity(a, b, opts).value - 5e-4, f"k={k}"
    for k in range(20):
        a = random_ensemble(2, 2, seed=5800 + k)
        b = random_ensemble(2, 2, seed=5900 + k)
        kraus = random_cptp(2, 2, 2, seed=5850 + k)
        a2, b2 = _push_kraus(kraus, a), _push_kraus(kraus, b)
        assert kantorovich_distance(a2, b2)[0] <= kantorovich_distance(a, b)[0] + 1e-8
        assert kantorovich_fidelity(a2, b2)[0] >= kantorovich_fidelity(a, b)[0] - 1e-8


def _measured_pair(seed, rank):
    """One qubit state a side, before and after a random two-outcome
    measurement."""
    a = random_ensemble(2, 1, seed=seed, rank=rank)
    b = random_ensemble(2, 1, seed=100000 + seed, rank=rank)
    m = random_measurement(2, 2, seed=200000 + seed)
    return (a, b), (_push_measurement(m, a), _push_measurement(m, b))


def test_criterion_05_kantorovich_measures_are_not_monotone_under_measurements():
    # the paper's contrast: on these witnesses the measurement raises D_K
    # and lowers F_K, while the EHS distance falls and the EHS fidelity rises
    before, after = _measured_pair(2601, rank=1)
    assert abs(kantorovich_distance(*before)[0] - 0.29623) <= 1e-5
    assert abs(kantorovich_distance(*after)[0] - 0.34198) <= 1e-5
    ehs_before, ehs_after = ehs_distance(*before), ehs_distance(*after)
    assert ehs_before.converged and ehs_after.converged
    assert abs(ehs_after.value - 0.29519) <= 1e-4
    assert ehs_after.value < ehs_before.value - 5e-4

    before, after = _measured_pair(936, rank=None)
    assert abs(kantorovich_fidelity(*before)[0] - 0.83223) <= 1e-5
    assert abs(kantorovich_fidelity(*after)[0] - 0.65903) <= 1e-5
    ehs_before, ehs_after = ehs_fidelity(*before), ehs_fidelity(*after)
    assert ehs_before.converged and ehs_after.converged
    assert abs(ehs_after.value - 0.87956) <= 1e-4
    assert ehs_after.value > ehs_before.value + 5e-4


def test_criterion_06_pure_decompositions_recover_uhlmann_fidelity():
    for k in range(50):
        d = 2 + k % 2
        rho = random_density(d, seed=6000 + k)
        sig = random_density(d, seed=6500 + k)
        f = fidelity(rho, sig)
        a, b, overlap = uhlmann_pure_ensembles(rho, sig)
        assert np.abs(average_state(a) - rho).max() <= 1e-9
        assert np.abs(average_state(b) - sig).max() <= 1e-9
        assert abs(overlap - f) <= 1e-9, f"k={k}"
        assert abs(pure_ensemble_fidelity(a, b).value - f) <= 1e-6, f"k={k}"
        for j in range(4):
            da = random_pure_decomposition(rho, d + 1, seed=660000 + 10 * k + j)
            db = random_pure_decomposition(sig, d + 1, seed=770000 + 10 * k + j)
            assert pure_ensemble_fidelity(da, db).value <= f + 1e-6, f"k={k} j={j}"


def test_criterion_07_entropy_and_holevo_continuity():
    checked = 0
    for k in range(100):
        d = 2 + k % 3
        a = random_ensemble(d, 2, seed=7000 + k)
        b = random_ensemble(d, 2, seed=7700 + k)
        dk = kantorovich_distance(a, b)[0]
        bound = fannes_avg_entropy_bound(dk, d)
        assert abs(average_entropy(a) - average_entropy(b)) <= bound + 1e-8, f"k={k}"
        if dk <= (d - 1) / d:
            checked += 1
            assert abs(holevo_chi(a) - holevo_chi(b)) <= 2.0 * bound + 1e-8, f"k={k}"
    assert checked >= 20


def test_criterion_08_discrimination_games_replay_the_values():
    for k in range(2):
        a = random_ensemble(2, 2, seed=8100 + k)
        b = random_ensemble(2, 2, seed=8200 + k)
        value, coupling = kantorovich_distance(a, b)
        res = simulate_kantorovich_game(a, b, coupling, trials=100000, seed=80 + k)
        assert abs((2.0 * res.estimate - 1.0) - value) <= 3.0 * (2.0 * res.stderr), f"k={k}"
        report = ehs_distance(a, b)
        res = simulate_ehs_game(a, b, report.plan, trials=100000, seed=90 + k)
        assert abs((2.0 * res.estimate - 1.0) - report.value) <= 3.0 * (2.0 * res.stderr) + 1e-4


def test_criterion_09_triangle_inequalities():
    pool = [random_ensemble(2, 1 + k % 2, seed=9000 + k) for k in range(15)]
    dk_cache, de_cache = {}, {}

    def d_k(i, j):
        key = (min(i, j), max(i, j))
        if key not in dk_cache:
            dk_cache[key] = kantorovich_distance(pool[key[0]], pool[key[1]])[0]
        return dk_cache[key]

    def d_e(i, j):
        key = (min(i, j), max(i, j))
        if key not in de_cache:
            de_cache[key] = ehs_distance(pool[key[0]], pool[key[1]]).value
        return de_cache[key]

    rng = np.random.default_rng(99)
    for t in range(200):
        i, j, k = (int(x) for x in rng.choice(15, size=3, replace=False))
        assert d_k(i, k) <= d_k(i, j) + d_k(j, k) + 1e-8, f"triple={i},{j},{k}"
        assert d_e(i, k) <= d_e(i, j) + d_e(j, k) + 5e-4, f"triple={i},{j},{k}"


def test_criterion_10_independent_oracles_agree():
    rng = np.random.default_rng(10)
    for trial in range(500):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        p = rng.dirichlet(np.ones(m))
        q = rng.dirichlet(np.ones(n))
        cost = rng.random((m, n))
        sense = "min" if trial % 2 == 0 else "max"
        got = transportation_lp(p, q, cost, sense).value
        want = lp_vertex_oracle(p, q, cost, sense)
        assert abs(got - want) <= 1e-9, f"trial={trial} sense={sense}"

    worst = 0.0
    for k in range(50):
        a = random_ensemble(2, 2, seed=10000 + k)
        b = random_ensemble(2, 2, seed=10500 + k)
        sp = unify_support(a, b)
        n = len(sp.omega)
        point = JointPair(np.outer(sp.p, np.ones(n) / n), np.outer(np.ones(n) / n, sp.q))
        worst = max(worst, fd_subgradient_check(distance_objective(a, b), point, directions=6, seed=k))
        worst = max(worst, fd_subgradient_check(fidelity_objective(a, b), point, directions=6, seed=k))
    assert worst <= 1e-4


def test_criterion_11_measurement_and_povm_measures():
    z = projective_measurement(np.eye(2))
    x = projective_measurement([[S2, S2], [S2, -S2]])
    hand_z = make_ensemble(
        [
            (0.5, tensor(pure_state(E0), pure_state(E0))),
            (0.5, tensor(pure_state(E1), pure_state(E1))),
        ]
    )
    plus, minus = np.array([S2, S2]), np.array([S2, -S2])
    hand_x = make_ensemble(
        [
            (0.5, tensor(pure_state(plus), pure_state(plus))),
            (0.5, tensor(pure_state(minus), pure_state(minus))),
        ]
    )
    assert abs(dist_iso(z, x).value - kantorovich_distance(hand_z, hand_x)[0]) <= 1e-6
    assert abs(fid_iso(z, x).value - kantorovich_fidelity(hand_z, hand_x)[0]) <= 1e-6

    # the worst-case search dominates the fixed entangled input and is
    # stable under doubling the ancilla
    floor = dist_iso(z, x).value
    v2, _ = dist_max(z, x, wopts=WorstCaseOptions(restarts=2, max_steps=25))
    assert v2 >= floor - 1e-6
    v4, _ = dist_max(z, x, wopts=WorstCaseOptions(restarts=1, max_steps=15), ancilla_dim=4)
    assert abs(v4 - v2) <= 5e-4

    pz = make_povm([np.outer(E0, E0), np.outer(E1, E1)])
    px = make_povm([np.outer(plus, plus), np.outer(minus, minus)])
    assert abs(povm_distance(pz, px).value - S2) <= 1e-9
    assert abs(povm_fidelity(pz, px).value - S2) <= 1e-9

    # composition: distance between chained measurements is subadditive
    # when the second reference stage is unital
    for k in range(20):
        m1 = random_measurement(2, 2, seed=11000 + k)
        n1 = projective_measurement(random_unitary(2, seed=11100 + k).T)
        m2 = random_measurement(2, 2, seed=11200 + k)
        n2 = random_measurement(2, 2, seed=11300 + k)
        lhs = dist_iso(compose_measurements(m2, m1), compose_measurements(n2, n1), "ehs").value
        rhs = dist_iso(m2, n2, "ehs").value + dist_iso(m1, n1, "ehs").value
        assert lhs <= rhs + 5e-4, f"k={k}"


CLI_CASES = [
    ("dist_single01", ["dist", "single0.json", "single1.json"]),
    ("dist_same", ["dist", "bell.json", "bell.json"]),
    ("dist_bell_prods", ["dist", "bell.json", "prods.json"]),
    ("dist_bell_prods_ehs", ["dist", "bell.json", "prods.json", "--method", "ehs"]),
    ("dist_rand_ehs", ["dist", "rand_a.json", "rand_b.json", "--method", "ehs"]),
    ("fid_same", ["fid", "bell.json", "bell.json"]),
    ("fid_single01", ["fid", "single0.json", "single1.json"]),
    ("fid_classic_ehs", ["fid", "classic_p.json", "classic_q.json", "--method", "ehs"]),
    ("channel_zx_iso_dist", ["channel", "measz.json", "measx.json"]),
    ("channel_zz_iso_fid", ["channel", "measz.json", "measz.json", "--measure", "fid"]),
    (
        "channel_zx_worst_dist",
        [
            "channel", "measz.json", "measx.json", "--compare", "worst",
            "--worst-restarts", "2", "--worst-steps", "12", "--seed", "0",
        ],
    ),
    ("povm_zx_dist", ["povm", "povmz.json", "povmx.json"]),
    ("povm_zz_fid", ["povm", "povmz.json", "povmz.json", "--measure", "fid"]),
]


def test_criterion_12_cli_goldens_and_selftest(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    for name, argv in CLI_CASES:
        full = [argv[0]] + [
            str(DATA / tok) if tok.endswith(".json") else tok for tok in argv[1:]
        ]
        code = main(full)
        out = capsys.readouterr().out
        assert code == 0, name
        assert out == (GOLDEN / f"{name}.json").read_text(), name
        json.loads(out)  # every report is machine readable
    start = time.monotonic()
    assert selftest.run("quick") == 0
    assert time.monotonic() - start <= 30.0
    capsys.readouterr()
    # the full level adds the games, triangle, Choi-marginal, worst-case
    # floor and wide-oracle checks
    assert main(["selftest", "--level", "full"]) == 0
    assert "15 checks passed" in capsys.readouterr().out
