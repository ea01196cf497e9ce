"""Batch front end: JSON descriptions in, machine-readable reports out.

Complex entries are ``[re, im]`` pairs.  Formats:

ensemble     ``{"version": 1, "dim": d, "states": [{"p": w, "rho": M}, ...]}``
measurement  ``{"version": 1, "dim": d, "outcomes": [{"weight": w, "kraus": [M, ...]}, ...]}``
povm         ``{"version": 1, "dim": d, "elements": [M, ...]}``

Reports are JSON on standard output with values at 12 significant digits and
solver diagnostics under a separate "solver" key; identical inputs and seed
reproduce a report byte for byte.  Exit codes: 0 ok, 2 parse error,
3 dimension mismatch, 4 solver did not converge (report still printed),
5 invalid measurement or POVM.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from .channels import (
    GeneralizedMeasurement,
    Povm,
    dist_max,
    fid_min,
    jamiolkowski_ensemble,
    make_measurement,
    make_povm,
    measure,
    povm_to_ensemble,
    WorstCaseOptions,
)
from .ehs import SolverOptions
from .ensembles import Ensemble, make_ensemble
from .errors import (
    DimMismatch,
    EnsembleMetricsError,
    InvalidMeasurement,
    InvalidPovm,
)

FORMAT_VERSION = 1
SEED_ENV = "ENSEMBLE_METRICS_SEED"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIM = 3
EXIT_NO_CONVERGENCE = 4
EXIT_INVALID_DEVICE = 5

# subcommand or --measure value → measure kind
KINDS = {"dist": "distance", "fid": "fidelity"}


class ParseError(ValueError):
    """Input file rejected; the message carries the file and field path."""


def _num(node, path: str) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ParseError(f"{path}: expected a number, got {type(node).__name__}")
    try:
        value = float(node)
    except OverflowError:  # an integer beyond the float range
        value = math.inf if node > 0 else -math.inf
    if not math.isfinite(value):
        raise ParseError(f"{path}: expected a finite number, got {value}")
    return value


def _parse_matrix(node, path: str, dim: int) -> np.ndarray:
    """A ``dim × dim`` matrix of ``[re, im]`` pairs.  A well-formed one of
    finite JSON numbers converts in one call; anything else takes the
    entry-by-entry walk, which names the first bad field."""
    try:
        if set(map(type, (x for row in node for cell in row for x in cell))) <= {int, float}:
            out = np.array(node, dtype=float)
            if out.shape == (dim, dim, 2) and np.isfinite(out).all():
                return out.view(complex).reshape(dim, dim)
    except (TypeError, ValueError, OverflowError):
        pass  # malformed: the walk names the field
    return _walk_matrix(node, path, dim)


def _walk_matrix(node, path: str, dim: int) -> np.ndarray:
    if not isinstance(node, list) or len(node) != dim:
        raise ParseError(f"{path}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=complex)
    for r, row in enumerate(node):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"{path}[{r}]: expected {dim} entries")
        for c, cell in enumerate(row):
            if not isinstance(cell, list) or len(cell) != 2:
                raise ParseError(f"{path}[{r}][{c}]: expected an [re, im] pair")
            out[r, c] = complex(_num(cell[0], f"{path}[{r}][{c}][0]"),
                                _num(cell[1], f"{path}[{r}][{c}][1]"))
    return out


def _header(doc, label: str) -> int:
    if not isinstance(doc, dict):
        raise ParseError(f"{label}: expected a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION:
        raise ParseError(f"{label}.version: expected {FORMAT_VERSION}, got {version!r}")
    dim = doc.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError(f"{label}.dim: expected a positive integer")
    return dim


def parse_ensemble(doc, label: str = "ensemble") -> Ensemble:
    dim = _header(doc, label)
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise ParseError(f"{label}.states: expected a non-empty list")
    pairs = []
    for k, entry in enumerate(states):
        here = f"{label}.states[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{here}: expected an object")
        prob = _num(entry.get("p"), f"{here}.p")
        rho = _parse_matrix(entry.get("rho"), f"{here}.rho", dim)
        pairs.append((prob, rho))
    try:
        return make_ensemble(pairs)
    except EnsembleMetricsError as exc:
        raise ParseError(f"{label}.states: {exc}") from exc


def parse_measurement(doc, label: str = "measurement") -> GeneralizedMeasurement:
    dim = _header(doc, label)
    outcomes = doc.get("outcomes")
    if not isinstance(outcomes, list) or not outcomes:
        raise ParseError(f"{label}.outcomes: expected a non-empty list")
    pairs = []
    for k, entry in enumerate(outcomes):
        here = f"{label}.outcomes[{k}]"
        if not isinstance(entry, dict):
            raise ParseError(f"{here}: expected an object")
        weight = _num(entry.get("weight"), f"{here}.weight")
        kraus = entry.get("kraus")
        if not isinstance(kraus, list) or not kraus:
            raise ParseError(f"{here}.kraus: expected a non-empty list")
        mats = [
            _parse_matrix(m, f"{here}.kraus[{j}]", dim) for j, m in enumerate(kraus)
        ]
        pairs.append((weight, mats))
    return make_measurement(pairs)  # InvalidMeasurement propagates (exit 5)


def parse_povm(doc, label: str = "povm") -> Povm:
    dim = _header(doc, label)
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise ParseError(f"{label}.elements: expected a non-empty list")
    mats = [
        _parse_matrix(m, f"{label}.elements[{j}]", dim) for j, m in enumerate(elements)
    ]
    return make_povm(mats)  # InvalidPovm propagates (exit 5)


def _matrix_json(mat: np.ndarray):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat, complex)]


def ensemble_to_json(ens: Ensemble) -> dict:
    return {
        "version": FORMAT_VERSION,
        "dim": ens.dim,
        "states": [{"p": float(p), "rho": _matrix_json(s)} for p, s in ens],
    }


def measurement_to_json(m: GeneralizedMeasurement) -> dict:
    return {
        "version": FORMAT_VERSION,
        "dim": m.dim,
        "outcomes": [
            {"weight": float(w), "kraus": [_matrix_json(k) for k in kraus]}
            for w, kraus in m.outcomes
        ],
    }


def povm_to_json(p: Povm) -> dict:
    return {
        "version": FORMAT_VERSION,
        "dim": p.dim,
        "elements": [_matrix_json(e) for e in p.elements],
    }


def _load(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return doc, hashlib.sha256(raw).hexdigest()


def _sig12(x: float) -> float:
    return float(f"{float(x):.12g}")


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _solver_options(args) -> SolverOptions:
    return SolverOptions(
        tol=args.tol, max_iter=args.max_iter, restarts=args.restarts, seed=args.seed
    )


def _measure_report(a: Ensemble, b: Ensemble, kind: str, args, digests, measure_name=None):
    """Shared dist/fid core: write the report and return the exit code."""
    rep = measure(a, b, kind, args.method, _solver_options(args))
    report = {
        "inputs": {"a": digests[0], "b": digests[1]},
        "measure": measure_name or f"{args.method}_{kind}",
        "value": _sig12(rep.value),
        "solver": {"converged": rep.converged, "iterations": rep.iterations, "seed": args.seed},
    }
    if args.method == "kantorovich":
        report["solver"]["status"] = rep.status
    else:
        report["bracket"] = [_sig12(rep.bracket[0]), _sig12(rep.bracket[1])]
        report["solver"].update(max_iter=args.max_iter, restarts=args.restarts, tol=args.tol)
    if measure_name:
        report["method"] = args.method
    _emit(report)
    return EXIT_OK if rep.converged else EXIT_NO_CONVERGENCE


def _load_pair(paths, parse, noun: str):
    """Load and parse two input files of one format and check that their
    dimensions match; returns both objects and the two file digests."""
    loaded = [_load(path) for path in paths]
    x, y = (parse(doc, path) for (doc, _), path in zip(loaded, paths))
    if x.dim != y.dim:
        raise DimMismatch(f"{noun} on dims {x.dim} and {y.dim}")
    return x, y, tuple(digest for _, digest in loaded)


def cmd_measure(args) -> int:
    a, b, digests = _load_pair((args.input_a, args.input_b), parse_ensemble, "ensembles")
    return _measure_report(a, b, args.kind, args, digests)


def cmd_channel(args) -> int:
    m, n, digests = _load_pair((args.input_m, args.input_n), parse_measurement, "measurements")
    kind = KINDS[args.measure]
    if args.compare == "iso":
        ea, eb = jamiolkowski_ensemble(m), jamiolkowski_ensemble(n)
        return _measure_report(ea, eb, kind, args, digests, f"{args.measure}_iso")
    wopts = WorstCaseOptions(
        restarts=args.worst_restarts, max_steps=args.worst_steps, seed=args.seed
    )
    name, search = ("dist_max", dist_max) if kind == "distance" else ("fid_min", fid_min)
    found = search(m, n, args.method, _solver_options(args), wopts)
    report = {
        "inputs": {"a": digests[0], "b": digests[1]},
        "measure": name,
        "method": args.method,
        "value": _sig12(found.value),
        "state": [[_sig12(z.real), _sig12(z.imag)] for z in found.state],
        "solver": {
            # a local search: the value bounds the worst case from one side
            "bound": "lower" if kind == "distance" else "upper",
            "evaluations": found.evaluations,
            "iterations": found.iterations,
            "max_steps": args.worst_steps,
            "restarts": args.worst_restarts,
            "seed": args.seed,
            "stationary_starts": found.stationary_starts,
        },
    }
    # an unconverged solve may leave the value on the wrong side
    code = EXIT_NO_CONVERGENCE if found.unconverged else EXIT_OK
    if args.method == "ehs":
        report["solver"]["unconverged"] = found.unconverged
    _emit(report)
    return code


def cmd_povm(args) -> int:
    p, q, digests = _load_pair((args.input_p, args.input_q), parse_povm, "POVMs")
    kind = KINDS[args.measure]
    return _measure_report(
        povm_to_ensemble(p), povm_to_ensemble(q), kind, args, digests, f"povm_{kind}"
    )


def cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run(args.level)


def _count(text: str) -> int:
    """A count or seed: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _tolerance(text: str) -> float:
    """A convergence tolerance: a finite number above zero."""
    try:
        if 0.0 < float(text) < math.inf:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number > 0, got {text!r}")


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV, "0")
    try:
        return _count(raw)
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"{SEED_ENV}: {exc}") from exc


def _add_solver_flags(sp) -> None:
    sp.add_argument("--method", choices=["kantorovich", "ehs"], default="kantorovich")
    sp.add_argument("--tol", type=_tolerance, default=SolverOptions.tol)
    sp.add_argument("--max-iter", type=_count, default=SolverOptions.max_iter, dest="max_iter")
    sp.add_argument("--restarts", type=_count, default=SolverOptions.restarts)
    sp.add_argument("--seed", type=_count, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensemble-metrics",
        description="Distances and fidelities between ensembles of quantum states, "
        "generalized measurements, and POVMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, kind in KINDS.items():
        sp = sub.add_parser(name, help=f"ensemble {kind}")
        sp.add_argument("input_a")
        sp.add_argument("input_b")
        _add_solver_flags(sp)
        sp.set_defaults(func=cmd_measure, kind=kind)

    sp = sub.add_parser("channel", help="measures between generalized measurements")
    sp.add_argument("input_m")
    sp.add_argument("input_n")
    sp.add_argument("--compare", choices=["iso", "worst"], default="iso")
    sp.add_argument("--measure", choices=["dist", "fid"], default="dist")
    sp.add_argument("--worst-restarts", type=_count, default=WorstCaseOptions.restarts)
    sp.add_argument("--worst-steps", type=_count, default=WorstCaseOptions.max_steps)
    _add_solver_flags(sp)
    sp.set_defaults(func=cmd_channel)

    sp = sub.add_parser("povm", help="measures between POVMs")
    sp.add_argument("input_p")
    sp.add_argument("input_q")
    sp.add_argument("--measure", choices=["dist", "fid"], default="dist")
    _add_solver_flags(sp)
    sp.set_defaults(func=cmd_povm)

    sp = sub.add_parser("selftest", help="run the embedded property suites")
    sp.add_argument("--level", choices=["quick", "full"], default="quick")
    sp.set_defaults(func=cmd_selftest)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call of :func:`main` and kept for the
    process; each parse starts from a fresh namespace, so no option carries
    over between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors with code 2
        return int(exc.code or 0)
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed()
        # overflow from extreme inputs fails a check with its own message;
        # numpy's warning about it would be one more line on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DimMismatch as exc:
        print(f"dimension mismatch: {exc}", file=sys.stderr)
        return EXIT_DIM
    except (InvalidMeasurement, InvalidPovm) as exc:
        print(f"invalid device: {exc}", file=sys.stderr)
        return EXIT_INVALID_DEVICE
    except EnsembleMetricsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
