import contextlib
import importlib.util
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensemble_metrics import kantorovich
from ensemble_metrics.channels import Povm
from ensemble_metrics.cli import (
    SEED_ENV,
    _parse_matrix,
    _walk_matrix,
    build_parser,
    ensemble_to_json,
    main,
    measurement_to_json,
    parse_ensemble,
    parse_measurement,
    parse_povm,
    povm_to_json,
)
from ensemble_metrics.oracle import random_ensemble

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


@pytest.mark.parametrize("max_iter, code", [("0", 4), ("5000", 0)])
def test_ehs_worst_case_exits_4_when_a_solve_did_not_converge(max_iter, code, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    argv = ["channel", "measz.json", "measx.json", "--compare", "worst", "--method", "ehs",
            "--max-iter", max_iter, "--worst-restarts", "0", "--worst-steps", "1"]
    assert main(_expand(argv)) == code
    solver = json.loads(capsys.readouterr().out)["solver"]
    assert solver["unconverged"] == (solver["evaluations"] if code else 0)
    assert solver["evaluations"] > 0


def test_dist_at_the_pivot_cap_exits_4_with_its_report(tmp_path, capsys, monkeypatch):
    # a solve stopped by the simplex's pivot cap reports its open bracket and
    # exits 4; nothing reaches stderr, so no traceback either
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.setattr(kantorovich, "_PIVOT_CAP", 2)
    paths = []
    for seed in (73, 74):
        path = tmp_path / f"ens{seed}.json"
        path.write_text(json.dumps(ensemble_to_json(random_ensemble(4, 16, seed=seed))))
        paths.append(str(path))
    assert main(["dist", *paths]) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    solver = json.loads(captured.out)["solver"]
    assert solver == {"converged": False, "iterations": 2, "seed": 0, "status": "pivot-cap"}


@pytest.mark.parametrize("measure", ["dist", "fid"])
def test_worst_case_counts_a_capped_solve_and_exits_4(measure, capsys, monkeypatch):
    # with no pivot allowed, an evaluation whose corner tree is not optimal
    # stops short of it; the search counts it and the exit code says so
    monkeypatch.delenv(SEED_ENV, raising=False)
    monkeypatch.setattr(kantorovich, "_PIVOT_CAP", 0)
    argv = ["channel", "measz.json", "measx.json", "--compare", "worst", "--measure", measure,
            "--worst-restarts", "1", "--worst-steps", "2"]
    assert main(_expand(argv)) == 4
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["solver"]["evaluations"] > 0


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    # tests/data/generate.py, pointed at an empty directory, writes every
    # committed fixture again with the same bytes
    spec = importlib.util.spec_from_file_location("fixture_generator", DATA / "generate.py")
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.HERE = tmp_path
    generator.write_fixtures()
    written = sorted(p.name for p in tmp_path.iterdir())
    committed = sorted(p.name for p in DATA.iterdir() if p.is_file() and p.name != "generate.py")
    assert written == committed and len(written) == 19
    for name in written:
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


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


def _edited(target, edits, tmp_path) -> Path:
    """A copy of the fixture ``target`` in ``tmp_path`` with each
    ``(where, value)`` of ``edits`` set, ``where`` being a path of keys."""
    doc = json.loads((DATA / target).read_text())
    for where, value in edits:
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
    bad = tmp_path / target
    bad.write_text(json.dumps(doc))
    return bad


NONFINITE_CASES = [
    ("p-nan", "dist", "classic_p.json", "classic_q.json", ("states", 0, "p"), math.nan),
    ("rho-nan", "dist", "classic_p.json", "classic_q.json", ("states", 0, "rho", 0, 0, 0), math.nan),
    ("rho-inf", "fid", "classic_p.json", "classic_q.json", ("states", 1, "rho", 1, 1, 1), -math.inf),
    ("p-huge-int", "dist", "classic_p.json", "classic_q.json", ("states", 0, "p"), 10**400),
    ("dim-bool", "dist", "classic_p.json", "classic_q.json", ("dim",), True),
    ("weight-nan", "channel", "measz.json", "measx.json", ("outcomes", 0, "weight"), math.nan),
    ("kraus-nan", "channel", "measz.json", "measx.json", ("outcomes", 0, "kraus", 0, 0, 0, 0), math.nan),
    ("povm-nan", "povm", "povmz.json", "povmx.json", ("elements", 0, 0, 0, 0), math.nan),
    ("rho-bool", "dist", "classic_p.json", "classic_q.json", ("states", 0, "rho", 1, 0, 1), False),
    ("rho-string", "fid", "classic_p.json", "classic_q.json", ("states", 1, "rho", 0, 0, 0), "0.5"),
    ("rho-triple", "dist", "classic_p.json", "classic_q.json", ("states", 0, "rho", 0, 1), [0, 0, 0]),
    ("rho-ragged", "dist", "classic_p.json", "classic_q.json", ("states", 1, "rho", 1), [[0, 0]]),
]


@pytest.mark.parametrize(
    "command,target,other,where,value",
    [c[1:] for c in NONFINITE_CASES],
    ids=[c[0] for c in NONFINITE_CASES],
)
def test_malformed_numbers_exit_2(command, target, other, where, value, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    bad = _edited(target, [(where, value)], tmp_path)
    code = main([command, str(bad), str(DATA / other)])
    captured = capsys.readouterr()
    assert code == 2
    field = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in where)
    assert captured.err.startswith(f"parse error: {bad}{field}: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


MALFORMED_CASES = [
    ("states-empty", "dist", "classic_p.json", "classic_q.json", [(("states",), [])], 2,
     ".states: expected a non-empty list"),
    ("state-not-object", "dist", "classic_p.json", "classic_q.json", [(("states", 0), 5)], 2,
     ".states[0]: expected an object"),
    ("outcome-not-object", "channel", "measz.json", "measx.json", [(("outcomes", 0), 5)], 2,
     ".outcomes[0]: expected an object"),
    ("kraus-empty", "channel", "measz.json", "measx.json", [(("outcomes", 0, "kraus"), [])], 2,
     ".outcomes[0].kraus: expected a non-empty list"),
    ("weights-zero", "channel", "measz.json", "measx.json",
     [(("outcomes", 0, "weight"), 0), (("outcomes", 1, "weight"), 0)], 5,
     "measurement with no positive-weight outcomes"),
    ("weight-negative", "channel", "measz.json", "measx.json", [(("outcomes", 0, "weight"), -0.5)], 5,
     "negative outcome weight -0.5"),
    ("elements-empty", "povm", "povmz.json", "povmx.json", [(("elements",), [])], 2,
     ".elements: expected a non-empty list"),
]


@pytest.mark.parametrize(
    "command,target,other,edits,code,message",
    [c[1:] for c in MALFORMED_CASES],
    ids=[c[0] for c in MALFORMED_CASES],
)
def test_malformed_documents_exit_with_their_code(
    command, target, other, edits, code, message, tmp_path, capsys, monkeypatch
):
    monkeypatch.delenv(SEED_ENV, raising=False)
    bad = _edited(target, edits, tmp_path)
    assert main([command, str(bad), str(DATA / other)]) == code
    captured = capsys.readouterr()
    assert captured.err.endswith(f"{message}\n")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_whole_matrix_conversion_equals_the_entry_walk():
    # ints, floats and signed zeros convert to the same bits either way
    rng = np.random.default_rng(3)
    for dim in (1, 2, 4):
        cells = rng.normal(size=(dim, dim, 2)).tolist()
        cells[0][0] = [-0.0, 2]
        cells[-1][-1] = [10**300, -0.0]
        for node in (cells, json.loads(json.dumps(cells))):
            fast = _parse_matrix(node, "m", dim)
            walked = _walk_matrix(node, "m", dim)
            assert fast.shape == (dim, dim) and fast.dtype == complex
            assert np.array_equal(fast.view(float), walked.view(float))
            assert np.array_equal(np.signbit(fast.view(float)), np.signbit(walked.view(float)))


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


def test_fid_max_iter_caps_each_start_of_the_ascent(capsys, monkeypatch):
    # with no sweep allowed every start stays where it began, unconverged
    # (the bracket of this pair is open)
    monkeypatch.delenv(SEED_ENV, raising=False)
    argv = ["fid", "classic_p.json", "classic_q.json", "--method", "ehs", "--max-iter", "0"]
    code = main(_expand(argv))
    report = json.loads(capsys.readouterr().out)
    assert code == 4
    assert report["solver"]["iterations"] == 0
    assert report["solver"]["converged"] is False
    lo, hi = report["bracket"]
    assert lo - 1e-9 <= report["value"] <= hi + 1e-9


@pytest.mark.parametrize("argv", [
    ["fid", "bell.json", "prods.json"],
    ["fid", "single0.json", "single1.json"],
    ["dist", "single0.json", "single1.json"],
])
def test_closed_bracket_certifies_the_value_when_the_budget_ran_out(argv, capsys, monkeypatch):
    # a bracket at most --tol wide pins the value whatever the solver did
    monkeypatch.delenv(SEED_ENV, raising=False)
    code = main(_expand(argv + ["--method", "ehs", "--max-iter", "0"]))
    report = json.loads(capsys.readouterr().out)
    lo, hi = report["bracket"]
    assert hi - lo <= report["solver"]["tol"]
    assert report["solver"]["iterations"] == 0
    assert report["solver"]["converged"] is True
    assert code == 0


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


@pytest.mark.parametrize(
    "elements",
    [
        [np.diag([1.0, -5e-9]), np.diag([0.0, 1.0 + 5e-9])],  # eigenvalue -5e-9 over the trace
        [np.array([[0.5, 5e-9], [0.0, 0.5]]), np.array([[0.5, -5e-9], [0.0, 0.5]])],  # not Hermitian
    ],
)
def test_povm_with_no_ensemble_exits_5(elements, tmp_path, capsys, monkeypatch):
    # within the 1e-8 of the POVM checks, but an element over its trace is
    # no density matrix to 1e-10
    monkeypatch.delenv(SEED_ENV, raising=False)
    bad = tmp_path / "povm.json"
    bad.write_text(json.dumps(povm_to_json(Povm(np.array(elements, dtype=complex)))))
    code = main(["povm", str(bad), str(DATA / "povmz.json")])
    assert code == 5
    assert capsys.readouterr().err.startswith("invalid device: elements give no ensemble:")


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
    for raw in ("abc", "-3"):
        monkeypatch.setenv(SEED_ENV, raw)
        code = main(_expand(["dist", "single0.json", "single1.json"]))
        captured = capsys.readouterr()
        assert code == 2, raw
        assert captured.err.startswith("parse error:") and captured.err.count("\n") == 1, raw
        assert captured.out == ""


OUT_OF_RANGE_FLAGS = [
    ("dist", "--tol", "nan"),
    ("dist", "--tol", "inf"),
    ("dist", "--tol", "-1"),
    ("dist", "--tol", "0"),
    ("dist", "--max-iter", "-1"),
    ("fid", "--restarts", "-1"),
    ("fid", "--seed", "-1"),
    ("channel", "--seed", "-5"),
    ("channel", "--worst-restarts", "-1"),
    ("channel", "--worst-steps", "-2"),
]


@pytest.mark.parametrize(
    "command,flag,value", OUT_OF_RANGE_FLAGS, ids=[f"{c[1]}={c[2]}" for c in OUT_OF_RANGE_FLAGS]
)
def test_out_of_range_flags_exit_2(command, flag, value, capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    pair = ["measz.json", "measx.json"] if command == "channel" else ["bell.json", "prods.json"]
    options = ["--compare", "worst"] if command == "channel" else ["--method", "ehs"]
    code = main(_expand([command, *pair, *options]) + [flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"argument {flag}: " in captured.err
    assert "Traceback" not in captured.err


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


def test_options_do_not_carry_over_between_calls(capsys, monkeypatch):
    monkeypatch.delenv(SEED_ENV, raising=False)
    pair = _expand(["bell.json", "prods.json"])
    assert main(["dist", *pair, "--method", "ehs", "--max-iter", "5"]) == 4
    assert json.loads(capsys.readouterr().out)["measure"] == "ehs_distance"
    assert main(["dist", *pair]) == 0
    assert json.loads(capsys.readouterr().out)["measure"] == "kantorovich_distance"
    budget = ["--compare", "worst", "--worst-restarts", "0"]
    meas = _expand(["measz.json", "measx.json"])
    assert main(["channel", *meas, *budget, "--worst-steps", "9"]) == 0
    assert json.loads(capsys.readouterr().out)["solver"]["max_steps"] == 9
    assert main(["channel", *meas, *budget]) == 0
    assert json.loads(capsys.readouterr().out)["solver"]["max_steps"] == 500


def test_usage_errors(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


# The fuzzed runs: a command with its pair of fixtures and options that keep
# each run short.
FUZZ_RUNS = [
    ("dist", "classic_p.json", "classic_q.json", ()),
    ("fid", "bell.json", "prods.json", ()),
    ("dist", "rand_a.json", "rand_b.json", ("--method", "ehs", "--max-iter", "20")),
    ("fid", "single0.json", "qutrit.json", ("--method", "ehs", "--max-iter", "20")),
    ("channel", "measz.json", "measx.json", ()),
    ("channel", "measx.json", "measz.json", ("--measure", "fid")),
    ("channel", "measz.json", "measx.json",
     ("--compare", "worst", "--worst-restarts", "1", "--worst-steps", "2")),
    ("povm", "povmz.json", "povmx.json", ("--measure", "fid")),
]
FUZZ_NUMBERS = st.sampled_from([0, 1, -1, 2, 0.5, -0.5, 1e-9, 1e-300, 1e300, -1e300, 10**400])
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | FUZZ_NUMBERS | st.floats() | st.text(max_size=2),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=2)
    ),
    max_leaves=5,
)


def _mutated(data, doc) -> str:
    """One random edit of a fixture document: a node replaced, scaled,
    deleted or duplicated, or the serialized text cut short."""
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        key = data.draw(st.sampled_from(keys))
        parent, node = node, node[key]
    edit = data.draw(st.sampled_from(["replace", "scale", "delete", "duplicate", "cut"]))
    if parent is None or edit == "replace":
        value = data.draw(FUZZ_VALUES)
        if parent is None:
            doc = value
        else:
            parent[key] = value
    elif edit == "scale" and isinstance(node, (int, float)) and not isinstance(node, bool):
        parent[key] = node * data.draw(st.sampled_from([-1.0, 0.0, 1.0 + 1e-9, 2.0, 1e200]))
    elif edit == "delete":
        del parent[key]
    elif edit == "duplicate" and isinstance(parent, list):
        parent.insert(key, node)
    text = json.dumps(doc)
    if edit == "cut":
        text = text[: data.draw(st.integers(0, len(text)))]
    return text


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(run=st.sampled_from(FUZZ_RUNS), data=st.data())
def test_mutated_inputs_exit_with_a_documented_code_and_one_line(run, data):
    command, first, second, options = run
    docs = [json.loads((DATA / name).read_text()) for name in (first, second)]
    which = data.draw(st.sampled_from([(0,), (1,), (0, 1)]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            path = Path(tmp) / f"{k}.json"
            path.write_text(_mutated(data, doc) if k in which else json.dumps(doc))
            paths.append(str(path))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main([command, *paths, *options])
    # a warning would print lines of its own on stderr
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 2, 3, 4, 5)
    if code in (0, 4):
        assert err.getvalue() == ""
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1, err.getvalue()
