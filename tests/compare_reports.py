"""List the benchmark requests on which two source trees print different reports.

Usage, from the repository root:

    python3 tests/compare_reports.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are directories that hold an ``ensemble_metrics``
package, such as the ``src`` of two checkouts.  Every request of the
benchmark's four workloads (``perfbench/workloads.py``) is built for seeds 1
and 2 in a temporary directory; each tree then runs
``ensemble_metrics.cli.main`` on all of them in its own interpreter, through
``perfbench/run.py``'s ``call``, with the BLAS thread count and seed
environment that importing ``run`` sets.  The script prints
each request whose exit code or stdout differs, with the report fields that
changed, then per workload the count of differing reports, the largest
absolute change of a numeric field among them (``inf`` when an exit code or
a report's shape changed) and whether any ``evaluations`` or ``iterations``
field changed; it exits 1 when any request differs.  Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
SEEDS = (1, 2)
SHOWN_FIELDS = 6  # changed report fields printed per request


def _serve() -> None:
    """Child mode: run ``cli.main`` on each argv of the JSON list on stdin and
    print the list of ``[exit code, stdout]``."""
    import run  # sets the BLAS threads and drops the seed before numpy loads

    from ensemble_metrics import cli

    json.dump([run.call(cli.main, argv) for argv in json.load(sys.stdin)], sys.stdout)


def _run(src: Path, argvs: list) -> list:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, __file__, "--serve"],
        input=json.dumps(argvs),
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(done.stdout)


def _leaves(doc, path: str = ""):
    """``(path, value)`` of every scalar in a parsed report."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, doc


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _changes(old: str, new: str) -> tuple[list[str], float, bool]:
    """The fields that differ between two reports, or a note when either is
    not JSON or their shapes differ; the largest absolute change of a
    numeric field (``inf`` for a note or a changed non-numeric field); and
    whether an ``evaluations`` or ``iterations`` field changed."""
    try:
        a, b = dict(_leaves(json.loads(old))), dict(_leaves(json.loads(new)))
    except ValueError:
        return ["stdout is not JSON on one side"], float("inf"), False
    if a.keys() != b.keys():
        return [f"fields differ: {sorted(a.keys() ^ b.keys())}"], float("inf"), False
    changed = [p for p in a if a[p] != b[p]]
    largest = max(
        (
            abs(b[p] - a[p]) if _is_number(a[p]) and _is_number(b[p]) else float("inf")
            for p in changed
        ),
        default=0.0,
    )
    effort = any(p.endswith((".evaluations", ".iterations")) for p in changed)
    return [f"{p}: {a[p]!r} -> {b[p]!r}" for p in changed], largest, effort


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)

    import workloads

    names = list(workloads.WORKLOADS)
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        cases = []
        for name in names:
            for seed in SEEDS:
                for req in workloads.build(name, seed, Path(tmp) / f"{name}-{seed}"):
                    cases.append((name, seed, list(req.argv)))
        argvs = [argv for _, _, argv in cases]
        old, new = _run(args.old_src.resolve(), argvs), _run(args.new_src.resolve(), argvs)
        counts = {name: [0, 0] for name in names}
        largest = dict.fromkeys(names, 0.0)
        effort = dict.fromkeys(names, False)
        for (name, seed, argv), (old_code, old_out), (new_code, new_out) in zip(cases, old, new):
            counts[name][1] += 1
            if (old_code, old_out) == (new_code, new_out):
                continue
            counts[name][0] += 1
            differ += 1
            shown = " ".join(str(Path(a).relative_to(tmp)) if a.startswith(tmp) else a for a in argv)
            print(f"{name} seed {seed}: {shown}")
            if old_code != new_code:
                print(f"    exit code {old_code} -> {new_code}")
                largest[name] = float("inf")
            lines = []
            if old_out != new_out:
                lines, change, moved = _changes(old_out, new_out)
                largest[name] = max(largest[name], change)
                effort[name] = effort[name] or moved
            for line in lines[:SHOWN_FIELDS]:
                print(f"    {line}")
            if len(lines) > SHOWN_FIELDS:
                print(f"    ... {len(lines) - SHOWN_FIELDS} more fields")
    for name, (changed, total) in counts.items():
        print(
            f"{name}: {changed} of {total} reports differ, largest numeric change "
            f"{largest[name]:.3g}, evaluations or iterations "
            f"{'differ' if effort[name] else 'unchanged'}"
        )
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        raise SystemExit(main())
