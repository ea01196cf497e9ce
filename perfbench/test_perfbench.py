"""Tests of the benchmark's own code: every independent check accepts the
program's report and rejects a perturbed one, the kept fault still fails,
and the tracer counts what it should and leaves the program as it found it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from ensemble_metrics import cli  # noqa: E402
from workloads import Request, fixture  # noqa: E402


def report_of(req: Request) -> dict:
    code, text = run.call(cli.main, req.argv)
    assert code == 0, req.argv
    return json.loads(text)


def assert_check_rejects(req: Request, report: dict, **changes) -> None:
    assert checks.check(req, report) is None
    assert checks.check(req, {**report, **changes}) is not None


def write_pair(tmp_path, a: dict, b: dict) -> tuple[str, str]:
    return workloads.InputWriter(tmp_path).pair(a, b)


@pytest.mark.parametrize("command", ["dist", "fid"])
def test_coupling_check_rejects_a_perturbed_value(tmp_path, command):
    a, b = write_pair(tmp_path, *workloads.random_pair(np.random.default_rng(3), 2, 5, shared=2))
    req = Request("t", (command, a, b), "coupling")
    report = report_of(req)
    assert_check_rejects(req, report, value=report["value"] + 1e-6)


def test_extended_checks_reject_values_off_reference_bracket_or_classical(tmp_path):
    ehs = ("--method", "ehs")
    ref = Request("t", ("dist", fixture("rand_a.json"), fixture("rand_b.json")) + ehs,
                  "bracket", 0.608869224246)
    report = report_of(ref)
    assert_check_rejects(ref, report, value=report["value"] + 5e-4)

    fid = Request("t", ("fid", fixture("bell.json"), fixture("prods.json")) + ehs, "bracket")
    report = report_of(fid)
    assert_check_rejects(fid, report, value=1.0 + 1e-3)

    a, b = write_pair(tmp_path, *workloads.classical_pair(np.random.default_rng(4), 4))
    for command in ("dist", "fid"):
        req = Request("t", (command, a, b) + ehs, "classical")
        report = report_of(req)
        assert_check_rejects(req, report, value=report["value"] - 1e-3)


def test_worst_case_check_rejects_a_perturbed_value_or_state():
    budget = ("--compare", "worst", "--worst-restarts", "1", "--worst-steps", "2")
    req = Request("t", ("channel", fixture("measz.json"), fixture("measx.json"),
                        "--measure", "dist") + budget, "worst")
    report = report_of(req)
    assert_check_rejects(req, report, value=report["value"] + 1e-6)
    # |00>: the Z readout is deterministic there, so the value at this
    # state differs from the reported optimum ...
    ket00 = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    assert_check_rejects(req, report, state=ket00)
    # ... and a report that is honest about |00> is still worse than the
    # maximally entangled input, which the search always starts from
    dim, m = checks.measurement(req.argv[1])
    _, n = checks.measurement(req.argv[2])
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    at00 = checks.coupling_value(checks.measurement_outputs(dim, m, psi),
                                 checks.measurement_outputs(dim, n, psi), "distance")
    assert at00 < report["value"] - 1e-3
    assert checks.check(req, {**report, "state": ket00, "value": at00}) is not None


def test_devices_checks_reject_perturbed_values(tmp_path):
    pz, px = fixture("povmz.json"), fixture("povmx.json")
    req = Request("t", ("povm", pz, px), "povm", float(np.sqrt(0.5)))
    report = report_of(req)
    assert report["value"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert_check_rejects(req, report, value=report["value"] + 1e-6)

    rng = np.random.default_rng(5)
    a, b = write_pair(tmp_path, workloads.random_instrument(rng, 3, 3, 2),
                      workloads.random_instrument(rng, 3, 3, 2))
    for measure in ("dist", "fid"):
        req = Request("t", ("channel", a, b, "--measure", measure), "iso")
        report = report_of(req)
        assert_check_rejects(req, report, value=report["value"] - 1e-6)


def test_every_round_has_one_kept_fault_and_it_exits_4(tmp_path):
    reqs = workloads.build("extended", 1, tmp_path)
    fault = [r for r in reqs if r.kept_fault]
    assert len(fault) == 1
    code, text = run.call(cli.main, fault[0].argv)
    assert code == 4
    assert json.loads(text)["solver"] == {
        "converged": False, "iterations": 5000, "max_iter": 5000,
        "restarts": 8, "seed": 0, "tol": 0.0001,
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_round_length_and_groups_do_not_depend_on_the_seed(tmp_path, workload):
    shapes = [
        [(r.group, r.argv[0], r.check, r.kept_fault) for r in workloads.build(workload, seed, tmp_path / str(seed))]
        for seed in (1, 2)
    ]
    assert shapes[0] == shapes[1]


def test_tracer_counts_layers_and_restores_the_program():
    from ensemble_metrics import ensembles, kantorovich, linalg

    before = (cli.main, ensembles.unify_support, kantorovich.trace_distance, linalg.mat_sqrt_psd)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.request = 0
        code, _ = run.call(cli.main, ["dist", fixture("rand_a.json"), fixture("rand_b.json"),
                                      "--method", "ehs"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (cli.main, ensembles.unify_support, kantorovich.trace_distance, linalg.mat_sqrt_psd) == before
    metrics = spans.layer_metrics(tracer.spans, 1)
    assert metrics["ensembles.unify_support_calls"][0] == 2  # ehs_distance unifies twice
    assert metrics["kantorovich.coupling_lp_calls"][0] == 1
    assert metrics["ehs.distance_iterations"][0] == 135
    assert metrics["ehs.distance_unconverged"][0] == 0
    assert all(s[3] == -1 for s in tracer.spans if s[0] == "cli.main")
    root = sum(e - s for name, s, e, *_ in tracer.spans if name == "cli.main")
    self_total = sum(v for k, (v, unit) in metrics.items() if unit == "ms"
                     and not k.startswith("linalg."))
    assert self_total * 1e6 == pytest.approx(root, rel=1e-9)
