"""Request benchmark for ensemble-metrics.

    python3 perfbench/run.py --workload coupling --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A request is one in-process call of the declared entry point
``ensemble_metrics.cli:main(argv)`` with stdout captured.  One client sends
the next request only after the previous one returned (closed loop).  A run
repeats whole rounds of its workload's seeded request list until
``--seconds`` have passed, then checks every distinct report against the
independent computations in ``checks.py``.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import os

# Fixed for this process and the interpreters it starts, before numpy loads;
# one thread was faster and no less steady than two on these small matrices.
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
os.environ.pop("ENSEMBLE_METRICS_SEED", None)  # every request uses the default seed 0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = workloads.OUT

# Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_STARTS = 9


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def measure_setup() -> float:
    """Median wall time of a fresh interpreter that imports ensemble_metrics."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import ensemble_metrics"]
    subprocess.run(cmd, env=env, check=True)  # writes byte code on a fresh checkout
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        # no timeout: with one, the wait polls with sleeps of up to 50 ms,
        # which would round the measured time up to the next poll
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def call(main, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


def run_rounds(cli, requests, seconds: float, tracer=None):
    """Closed loop over whole rounds until ``seconds`` have passed.

    Returns the per-request wall times, the loop's wall and CPU time, the
    wall time of each round, the first report of each request and the
    requests whose repeats differed.
    """
    times: list[float] = []
    first: list = [None] * len(requests)
    unsteady: set[int] = set()
    rounds = []
    start, cpu = time.perf_counter(), time.process_time()
    while True:
        round_start = time.perf_counter()
        for i, req in enumerate(requests):
            if tracer is not None:
                tracer.request = len(times)
            t = time.perf_counter()
            result = call(cli.main, req.argv)
            times.append(time.perf_counter() - t)
            if first[i] is None:
                first[i] = result
            elif result != first[i]:
                unsteady.add(i)
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start >= seconds:
            break
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu
    return times, wall, cpu, rounds, first, unsteady


def check_reports(requests, first, unsteady) -> tuple[set[int], list[str]]:
    """Indices of failed requests, and a line for each wrong answer."""
    import checks  # scipy loads only after the timed loop

    failed, wrong = set(), []
    for i, (req, (code, text)) in enumerate(zip(requests, first)):
        label = " ".join(req.argv)
        if code != 0:
            failed.add(i)
            if not req.kept_fault:
                print(f"perfbench: exit {code}: {label}", file=sys.stderr)
            continue
        problem = "repeats gave different reports" if i in unsteady else None
        try:
            problem = problem or checks.check(req, json.loads(text))
        except (checks.CheckError, ValueError, KeyError) as exc:
            problem = f"check could not run: {exc!r}"
        if problem:
            failed.add(i)
            wrong.append(f"{label}: {problem}")
    return failed, wrong


def run_workload(args) -> int:
    if not (SRC / "ensemble_metrics" / "cli.py").is_file():
        return _fail(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    from ensemble_metrics import cli

    setup_s = None if args.trace else measure_setup()
    requests = workloads.build(args.workload, args.seed)
    call(cli.main, requests[0].argv)  # warm-up: first-call costs are not a request's

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        times, wall, cpu, rounds, first, unsteady = run_rounds(cli, requests, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, wrong = check_reports(requests, first, unsteady)
    for line in wrong:
        print(f"perfbench: wrong answer: {line}", file=sys.stderr)
    attempted = len(times)
    failed_count = len(rounds) * len(failed)

    if tracer is None:
        metrics = {
            "requests_per_s": (attempted / wall, "1/s"),
            "request_ms_p50": (1e3 * statistics.median(times), "ms"),
            "cpu_s_per_request": (cpu / attempted, "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        metrics = spans.layer_metrics(tracer.spans, attempted)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-{args.seed}.jsonl"
        tracer.write(path)
        print(f"{len(tracer.spans)} spans written to {path}")
        print(f"traced request_ms_p50 {1e3 * statistics.median(times):.6g} ms")

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds of {len(requests)} "
          f"requests in {wall:.2f} s, OPENBLAS_NUM_THREADS={BLAS_THREADS}")
    print("round wall times s: " + " ".join(f"{t:.3f}" for t in rounds))
    print(f"attempted {attempted} failed {failed_count}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own interpreter; the last line
    maps each workload to its result."""
    results = {}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            return _fail(f"{workload} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ensemble-metrics request benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    raise SystemExit(main())
