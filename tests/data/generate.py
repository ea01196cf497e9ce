"""Rebuild the CLI fixtures and golden reports in this directory.

Usage, from the repository root (no install needed):

    PYTHONPATH=src python3 tests/data/generate.py

Fixtures are the JSON inputs the command line tests feed in; goldens are the
exact bytes the console script printed for the pinned invocations; the
script runs in a separate process through ``tests/console_script.py``.  Each
golden is sanity-checked against an independently known value before it is
written, so a broken build cannot silently pin garbage.
"""

import json
import sys
from pathlib import Path

import numpy as np

from ensemble_metrics.channels import make_povm, projective_measurement
from ensemble_metrics.cli import (
    ensemble_to_json,
    measurement_to_json,
    povm_to_json,
)
from ensemble_metrics.ensembles import make_ensemble, pure_state
from ensemble_metrics.oracle import random_ensemble

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"

sys.path.insert(0, str(HERE.parent))
from console_script import run_console_script  # noqa: E402


def mat(m):
    return [
        [[float(np.real(z)), float(np.imag(z))] for z in row]
        for row in np.asarray(m, complex)
    ]


def dump(name, doc):
    (HERE / name).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_fixtures():
    s2 = 1.0 / np.sqrt(2.0)
    e0 = np.array([1.0, 0.0])
    e1 = np.array([0.0, 1.0])

    dump("single0.json", ensemble_to_json(make_ensemble([(1.0, pure_state(e0))])))
    dump("single1.json", ensemble_to_json(make_ensemble([(1.0, pure_state(e1))])))

    bell = np.array([s2, 0.0, 0.0, s2])
    k00 = np.zeros(4)
    k00[0] = 1.0
    k11 = np.zeros(4)
    k11[3] = 1.0
    dump("bell.json", ensemble_to_json(make_ensemble([(1.0, pure_state(bell))])))
    dump(
        "prods.json",
        ensemble_to_json(make_ensemble([(0.5, pure_state(k00)), (0.5, pure_state(k11))])),
    )

    dump(
        "classic_p.json",
        ensemble_to_json(
            make_ensemble([(0.7, np.diag([1.0, 0.0])), (0.3, np.diag([0.0, 1.0]))])
        ),
    )
    dump(
        "classic_q.json",
        ensemble_to_json(
            make_ensemble([(0.4, np.diag([1.0, 0.0])), (0.6, np.diag([0.0, 1.0]))])
        ),
    )
    dump("qutrit.json", ensemble_to_json(make_ensemble([(1.0, np.eye(3) / 3.0)])))

    dump("rand_a.json", ensemble_to_json(random_ensemble(2, 3, seed=5)))
    dump("rand_b.json", ensemble_to_json(random_ensemble(2, 3, seed=6)))

    dump("measz.json", measurement_to_json(projective_measurement(np.eye(2))))
    dump("measx.json", measurement_to_json(projective_measurement([[s2, s2], [s2, -s2]])))
    half = np.sqrt(2.0) * np.outer(e0, e0)
    dump(
        "measbad.json",
        {
            "version": 1,
            "dim": 2,
            "outcomes": [
                {"weight": 0.5, "kraus": [mat(half)]},
                {"weight": 0.5, "kraus": [mat(half)]},
            ],
        },
    )

    plus = np.array([s2, s2])
    minus = np.array([s2, -s2])
    dump("povmz.json", povm_to_json(make_povm([np.outer(e0, e0), np.outer(e1, e1)])))
    dump(
        "povmx.json",
        povm_to_json(make_povm([np.outer(plus, plus), np.outer(minus, minus)])),
    )
    dump(
        "povmbad.json",
        {"version": 1, "dim": 2, "elements": [mat(0.4 * np.eye(2)), mat(0.4 * np.eye(2))]},
    )

    dump(
        "badfield.json",
        {"version": 1, "dim": 2, "states": [{"p": "half", "rho": mat(np.eye(2) / 2.0)}]},
    )
    dump(
        "badversion.json",
        {"version": 2, "dim": 2, "states": [{"p": 1.0, "rho": mat(np.eye(2) / 2.0)}]},
    )
    (HERE / "notjson.txt").write_text("this file is deliberately not JSON\n")
    (HERE / "truncated.json").write_text('{"version": 1, "dim"')


def expect(want, tol=1e-9):
    def check(report):
        got = report["value"]
        assert abs(got - want) <= tol, f"value {got}, wanted {want} within {tol}"

    return check


def bracketed(report):
    lo, hi = report["bracket"]
    assert lo - 1e-9 <= report["value"] <= hi + 1e-9, report


def expect_in_bracket(want, tol):
    """Check the value against ``want`` within ``tol`` and that the bracket,
    the solve's own certificate, holds ``want`` within 1e-8."""

    def check(report):
        expect(want, tol)(report)
        lo, hi = report["bracket"]
        assert lo - 1e-8 <= want <= hi + 1e-8, f"bracket [{lo}, {hi}] misses {want}"

    return check


def write_goldens():
    cases = [
        ("dist_single01", ["dist", "single0.json", "single1.json"], expect(1.0, 1e-12)),
        ("dist_same", ["dist", "bell.json", "bell.json"], expect(0.0, 1e-12)),
        ("dist_bell_prods", ["dist", "bell.json", "prods.json"], expect(np.sqrt(0.5))),
        (
            "dist_bell_prods_ehs",
            ["dist", "bell.json", "prods.json", "--method", "ehs"],
            bracketed,
        ),
        (
            "dist_rand_ehs",
            ["dist", "rand_a.json", "rand_b.json", "--method", "ehs"],
            expect_in_bracket(0.608869224246, 2e-4),  # frozen semidefinite-programming reference
        ),
        ("fid_same", ["fid", "bell.json", "bell.json"], expect(1.0, 1e-12)),
        ("fid_single01", ["fid", "single0.json", "single1.json"], expect(0.0, 1e-12)),
        (
            "fid_classic_ehs",
            ["fid", "classic_p.json", "classic_q.json", "--method", "ehs"],
            expect(np.sqrt(0.7 * 0.4) + np.sqrt(0.3 * 0.6), 1e-6),
        ),
        (
            "channel_zx_iso_dist",
            ["channel", "measz.json", "measx.json"],
            expect(np.sqrt(3.0) / 2.0),
        ),
        (
            "channel_zz_iso_fid",
            ["channel", "measz.json", "measz.json", "--measure", "fid"],
            expect(1.0, 1e-12),
        ),
        (
            "channel_zx_worst_dist",
            [
                "channel",
                "measz.json",
                "measx.json",
                "--compare",
                "worst",
                "--worst-restarts",
                "2",
                "--worst-steps",
                "12",
                "--seed",
                "0",
            ],
            expect(np.sqrt(3.0) / 2.0, 1e-6),
        ),
        ("povm_zx_dist", ["povm", "povmz.json", "povmx.json"], expect(np.sqrt(0.5))),
        (
            "povm_zz_fid",
            ["povm", "povmz.json", "povmz.json", "--measure", "fid"],
            expect(1.0, 1e-12),
        ),
    ]

    for name, argv, check in cases:
        proc = run_console_script(*argv, cwd=HERE)
        assert proc.returncode == 0, (name, proc.returncode, proc.stderr.decode())
        check(json.loads(proc.stdout))
        (GOLDEN / f"{name}.json").write_bytes(proc.stdout)
        print(f"{name}: ok")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    write_fixtures()
    write_goldens()
