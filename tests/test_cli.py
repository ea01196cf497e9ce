import json
import math
from pathlib import Path

import numpy as np
import pytest

from ensemble_metrics.cli import (
    SEED_ENV,
    build_parser,
    ensemble_to_json,
    main,
    measurement_to_json,
    parse_ensemble,
    parse_measurement,
    parse_povm,
    povm_to_json,
)

from console_script import run_console_script

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"

GOLDEN_CASES = [
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


def _expand(argv):
    return [str(DATA / tok) if tok.endswith((".json", ".txt")) else tok for tok in argv]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_reports_match_goldens(name, argv, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(_expand(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_console_script_prints_golden_bytes():
    proc = run_console_script("dist", DATA / "single0.json", DATA / "single1.json")
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / "dist_single01.json").read_bytes()


def test_solver_reports_are_byte_reproducible():
    argv = ["dist", DATA / "rand_a.json", DATA / "rand_b.json", "--method", "ehs"]
    first = run_console_script(*argv)
    second = run_console_script(*argv)
    assert first.returncode == 0 and second.returncode == 0, first.stderr.decode()
    assert first.stdout == second.stdout == (GOLDEN / "dist_rand_ehs.json").read_bytes()


@pytest.mark.parametrize("measure, bound", [("dist", "lower"), ("fid", "upper")])
def test_worst_case_report_says_what_the_search_did(measure, bound, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    argv = ["channel", "measz.json", "measx.json", "--compare", "worst", "--measure", measure,
            "--worst-restarts", "1", "--worst-steps", "3"]
    assert main(_expand(argv)) == 0
    solver = json.loads(capsys.readouterr().out)["solver"]
    assert "converged" not in solver
    assert solver["bound"] == bound
    assert (solver["max_steps"], solver["restarts"]) == (3, 1)
    # two starts: at most three steps each, and one score per start and step
    assert 0 <= solver["iterations"] <= 6
    assert solver["evaluations"] >= solver["iterations"] + 2
    assert 0 <= solver["stationary_starts"] <= 2


@pytest.mark.parametrize(
    "path",
    ["notjson.txt", "truncated.json", "badversion.json", "badfield.json", "missing.json"],
)
def test_parse_failures_exit_2(path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(["dist", str(DATA / path), str(DATA / "single0.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("parse error:")
    assert captured.out == ""


NONFINITE_CASES = [
    ("p-nan", "dist", "classic_p.json", "classic_q.json", ("states", 0, "p"), math.nan),
    ("rho-nan", "dist", "classic_p.json", "classic_q.json", ("states", 0, "rho", 0, 0, 0), math.nan),
    ("rho-inf", "fid", "classic_p.json", "classic_q.json", ("states", 1, "rho", 1, 1, 1), -math.inf),
    ("p-huge-int", "dist", "classic_p.json", "classic_q.json", ("states", 0, "p"), 10**400),
    ("dim-bool", "dist", "classic_p.json", "classic_q.json", ("dim",), True),
    ("weight-nan", "channel", "measz.json", "measx.json", ("outcomes", 0, "weight"), math.nan),
    ("kraus-nan", "channel", "measz.json", "measx.json", ("outcomes", 0, "kraus", 0, 0, 0, 0), math.nan),
    ("povm-nan", "povm", "povmz.json", "povmx.json", ("elements", 0, 0, 0, 0), math.nan),
]


@pytest.mark.parametrize(
    "command,target,other,where,value",
    [c[1:] for c in NONFINITE_CASES],
    ids=[c[0] for c in NONFINITE_CASES],
)
def test_malformed_numbers_exit_2(command, target, other, where, value, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    doc = json.loads((DATA / target).read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    bad = tmp_path / target
    bad.write_text(json.dumps(doc))
    code = main([command, str(bad), str(DATA / other)])
    captured = capsys.readouterr()
    assert code == 2
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)
    assert captured.err.startswith(f"parse error: {bad}{field}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_dim_mismatch_exits_3(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(["dist", str(DATA / "single0.json"), str(DATA / "qutrit.json")])
    assert code == 3
    assert capsys.readouterr().err.startswith("dimension mismatch:")


def test_exhausted_budget_exits_4_but_reports(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(
        _expand(["dist", "rand_a.json", "rand_b.json", "--method", "ehs"])
        + ["--tol", "1e-9", "--max-iter", "10"]
    )
    out = capsys.readouterr().out
    assert code == 4
    report = json.loads(out)
    assert report["solver"]["converged"] is False
    lo, hi = report["bracket"]
    assert lo - 1e-9 <= report["value"] <= hi + 1e-9


def test_invalid_measurement_exits_5(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(_expand(["channel", "measbad.json", "measz.json"]))
    assert code == 5
    assert capsys.readouterr().err.startswith("invalid device:")


def test_invalid_povm_exits_5(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(_expand(["povm", "povmbad.json", "povmz.json"]))
    assert code == 5
    assert capsys.readouterr().err.startswith("invalid device:")


def test_seed_env_feeds_default(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "7")
    code = main(_expand(["channel", "measz.json", "measx.json"]))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["solver"]["seed"] == 7


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "7")
    code = main(_expand(["dist", "single0.json", "single1.json", "--seed", "3"]))
    assert code == 0
    assert json.loads(capsys.readouterr().out)["solver"]["seed"] == 3


def test_garbage_seed_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv(SEED_ENV, "abc")
    code = main(_expand(["dist", "single0.json", "single1.json"]))
    assert code == 2
    assert capsys.readouterr().err.startswith("parse error:")


@pytest.mark.parametrize(
    "name,parse,to_json",
    [
        ("bell.json", parse_ensemble, ensemble_to_json),
        ("rand_a.json", parse_ensemble, ensemble_to_json),
        ("measx.json", parse_measurement, measurement_to_json),
        ("povmx.json", parse_povm, povm_to_json),
    ],
    ids=["ensemble", "random-ensemble", "measurement", "povm"],
)
def test_serialization_round_trips(name, parse, to_json):
    doc = json.loads((DATA / name).read_text())
    obj = parse(doc, name)
    again = parse(to_json(obj), name)
    assert json.dumps(to_json(obj), sort_keys=True) == json.dumps(to_json(again), sort_keys=True)


def test_parsed_matrices_are_exact():
    ens = parse_ensemble(json.loads((DATA / "bell.json").read_text()), "bell")
    v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    assert np.abs(ens.states[0] - np.outer(v, v)).max() <= 1e-15


def test_parser_covers_all_subcommands():
    parser = build_parser()
    ns = parser.parse_args(["dist", "a", "b"])
    assert ns.method == "kantorovich"
    assert (ns.tol, ns.max_iter, ns.restarts, ns.seed) == (1e-4, 5000, 8, None)
    assert parser.parse_args(["fid", "a", "b", "--method", "ehs"]).method == "ehs"
    ns = parser.parse_args(["channel", "m", "n", "--compare", "worst", "--worst-steps", "9"])
    assert (ns.compare, ns.worst_steps, ns.worst_restarts) == ("worst", 9, 32)
    assert parser.parse_args(["povm", "p", "q", "--measure", "fid"]).measure == "fid"
    assert parser.parse_args(["selftest"]).level == "quick"


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()
