"""Reference timings of single large requests, outside the workloads.

    python3 perfbench/baselines.py

Times, through the same in-process CLI call as ``run.py``, the cases whose
figures README.md records: ``ehs_distance`` at d=4 with 8 and 16 states a
side, the coupling distance and fidelity at d=8 with 64 states a side, and
``channel --compare worst`` on the Z and X qubit readouts at the default
search budgets.  Each case runs once per listed seed; inputs are written
under ``perfbench/out/baselines``.
"""

from __future__ import annotations

import json
import sys
import time

import run  # sets the BLAS thread count before numpy loads

import numpy as np  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
from ensemble_metrics import cli  # noqa: E402

CASES = [
    # (label, command, method, d, states a side, seeds)
    ("ehs_distance d=4 n=8", "dist", "ehs", 4, 8, (1, 2, 3)),
    ("ehs_distance d=4 n=16", "dist", "ehs", 4, 16, (1, 2)),
    ("kantorovich_distance d=8 n=64", "dist", "kantorovich", 8, 64, (1, 2)),
    ("kantorovich_fidelity d=8 n=64", "fid", "kantorovich", 8, 64, (1, 2)),
]


def timed(argv) -> tuple[float, int, dict]:
    start = time.perf_counter()
    code, text = run.call(cli.main, argv)
    return time.perf_counter() - start, code, json.loads(text)


def main() -> int:
    out = run.OUT / "baselines"
    writer = workloads.InputWriter(out)
    print("| case | seed | time s | exit | solver |")
    print("|---|---|---|---|---|")
    for label, command, method, d, n, seeds in CASES:
        for seed in seeds:
            a, b = writer.pair(*workloads.random_pair(np.random.default_rng(seed), d, n, rank=d))
            secs, code, report = timed([command, a, b, "--method", method])
            print(f"| {label} | {seed} | {secs:.2f} | {code} | {json.dumps(report['solver'])} |", flush=True)
    mz, mx = workloads.fixture("measz.json"), workloads.fixture("measx.json")
    for measure in ("dist", "fid"):
        secs, code, report = timed(["channel", mz, mx, "--compare", "worst", "--measure", measure])
        print(f"| channel --compare worst --measure {measure}, Z vs X | - | {secs:.2f} | {code} "
              f"| {json.dumps(report['solver'])} |", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
