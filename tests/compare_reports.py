"""List the benchmark requests on which two source trees print different reports.

Usage, from the repository root:

    python3 tests/compare_reports.py OLD_SRC NEW_SRC [--time R] [--seeds S ...]
                                     [--workloads NAME ...]

``OLD_SRC`` and ``NEW_SRC`` are directories that hold an ``ensemble_metrics``
package, such as the ``src`` of two checkouts.  Every request of the
benchmark's four workloads (``perfbench/workloads.py``), or of those
``--workloads`` names, is built for seeds 1 and 2, or those ``--seeds``
names, in a temporary directory.  Each tree runs
``ensemble_metrics.cli.main`` in one long-lived interpreter of its own,
through ``perfbench/run.py``'s ``call``, with the BLAS thread count and seed
environment that importing ``run`` sets; the two interpreters take turns
request by request, and the tree that goes first alternates.  The script
prints each request whose exit code or stdout differs, with the report
fields that changed, then per workload the count of differing reports, the
largest absolute change of a numeric field among them (``inf`` when an exit
code or a report's shape changed) and whether any ``evaluations`` or
``iterations`` field changed; it exits 1 when any request differs.

With ``--time R`` every request runs R times on each tree, and per workload
the script also prints each tree's median request time (the median over the
requests of each request's median) and the median over the requests of the
ratio of the old tree's time to the new one's.  Nothing under
``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
SEEDS = [1, 2]
SHOWN_FIELDS = 6  # changed report fields printed per request


def _serve() -> None:
    """Child mode: for each line of stdin, an argv as JSON, run ``cli.main``
    and print one line ``[exit code, stdout, seconds]``."""
    import run  # sets the BLAS threads and drops the seed before numpy loads

    from ensemble_metrics import cli

    for line in sys.stdin:
        argv = json.loads(line)
        start = time.perf_counter()
        code, out = run.call(cli.main, argv)
        print(json.dumps([code, out, time.perf_counter() - start]), flush=True)


class _Tree:
    """One source tree's long-lived child interpreter."""

    def __init__(self, src: Path):
        self.src = src
        self.proc = subprocess.Popen(
            [sys.executable, __file__, "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )

    def __call__(self, argv: list) -> list:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"the interpreter of {self.src} stopped")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


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
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--time", type=int, default=0, metavar="R",
                        help="run every request R times on each tree and print the timings")
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS, metavar="S")
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS, metavar="NAME")
    args = parser.parse_args(argv)

    names = list(dict.fromkeys(args.workloads))
    times = {name: [] for name in names}  # per request: [old median, new median]
    outputs = []  # per request: [old, new] of [exit code, stdout]
    trees = _Tree(args.old_src.resolve()), _Tree(args.new_src.resolve())
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cases = []
            for name in names:
                for seed in args.seeds:
                    for req in workloads.build(name, seed, Path(tmp) / f"{name}-{seed}"):
                        cases.append((name, seed, list(req.argv)))
            for turn, (name, _, argv) in enumerate(cases):
                runs: list[list] = [[], []]
                for k in range(max(args.time, 1)):
                    for side in (0, 1) if (turn + k) % 2 == 0 else (1, 0):
                        runs[side].append(trees[side](argv))
                outputs.append([run[0][:2] for run in runs])
                times[name].append([statistics.median(r[2] for r in run) for run in runs])
    finally:
        for tree in trees:
            tree.close()

    differ = 0
    counts = {name: [0, 0] for name in names}
    largest = dict.fromkeys(names, 0.0)
    effort = dict.fromkeys(names, False)
    for (name, seed, argv), (old, new) in zip(cases, outputs):
        counts[name][1] += 1
        if old == new:
            continue
        (old_code, old_out), (new_code, new_out) = old, new
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
    if args.time:
        print(f"median request time over {args.time} runs per tree, in ms:")
        for name, pairs in times.items():
            old_ms, new_ms = (1e3 * statistics.median(t) for t in zip(*pairs))
            ratio = statistics.median(a / b for a, b in pairs)
            print(f"{name}: old {old_ms:.3f}, new {new_ms:.3f}, median old/new ratio {ratio:.3f}")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        _serve()
    else:
        raise SystemExit(main())
