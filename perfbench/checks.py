"""Independent answer checks for the benchmark's requests.

Every check reads the request's input files with its own parser, rebuilds
the quantities the report claims from the definitions with the benchmark's
own numpy code, and solves transportation problems with
``scipy.optimize.linprog`` (HiGHS).  Nothing here imports the program.  A
check returns None when the report holds and a one-line reason when it does
not.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

# Coupling values (the ``coupling`` and ``devices`` workloads, and the
# worst-case value rebuilt at the reported state) must match the LP optimum
# on the benchmark's own pairwise costs to this absolute tolerance.
LP_TOL = 1e-9
# Extended-space values must sit in their bracket up to this slack ...
BRACKET_SLACK = 1e-4
# ... match total variation / Bhattacharyya overlap on classical pairs ...
CLASSICAL_TOL = 1e-4
# ... and match a frozen reference (``expect``) to this tolerance.
REFERENCE_TOL = 2e-4


class CheckError(RuntimeError):
    """The independent computation itself could not be carried out."""


# --- reading the input formats ----------------------------------------------


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _matrix(node) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in node])


def ensemble(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Weights and stacked states, zero-weight entries dropped."""
    doc = _load(path)
    pairs = [(float(s["p"]), _matrix(s["rho"])) for s in doc["states"] if s["p"] > 0]
    return np.array([p for p, _ in pairs]), np.stack([m for _, m in pairs])


def measurement(path: str) -> tuple[int, list[tuple[float, list[np.ndarray]]]]:
    doc = _load(path)
    outcomes = [(float(o["weight"]), [_matrix(k) for k in o["kraus"]]) for o in doc["outcomes"]]
    return int(doc["dim"]), outcomes


def povm(path: str) -> list[np.ndarray]:
    return [_matrix(e) for e in _load(path)["elements"]]


# --- state measures, batched ------------------------------------------------


def _sqrt_psd(stack: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(stack)
    w = np.clip(w, 0.0, None)
    # eigenvalue round-off below 1e-14 of the largest is zeroed, or its
    # square root (1e-8) would leak into rank-deficient fidelities
    w[w <= 1e-14 * w.max(axis=-1, keepdims=True)] = 0.0
    return (v * np.sqrt(w)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def trace_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``T[i, j] = ½‖xs[i] − ys[j]‖₁``."""
    diff = xs[:, None] - ys[None, :]
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def fidelities(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``F[i, j] = ‖√xs[i] √ys[j]‖₁``, the square-root fidelity."""
    prod = _sqrt_psd(xs)[:, None] @ _sqrt_psd(ys)[None, :]
    return np.linalg.svd(prod, compute_uv=False).sum(axis=-1)


def transport(p: np.ndarray, q: np.ndarray, cost: np.ndarray, maximize: bool) -> float:
    """Optimum of the transportation LP with marginals ``p`` and ``q``."""
    m, n = cost.shape
    a_eq = np.zeros((m + n - 1, m * n))
    for i in range(m):
        a_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n - 1):  # the last column sum follows from the others
        a_eq[m + j, j::n] = 1.0
    b_eq = np.concatenate([p / p.sum(), (q / q.sum())[:-1]])
    sign = -1.0 if maximize else 1.0
    res = linprog(sign * cost.ravel(), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if res.status != 0:
        raise CheckError(f"linprog: {res.message}")
    return sign * float(res.fun)


def coupling_value(a, b, kind: str) -> float:
    """Coupling distance (min) or fidelity (max) of two (weights, states)."""
    (p, xs), (q, ys) = a, b
    if kind == "distance":
        return transport(p, q, trace_distances(xs, ys), maximize=False)
    return transport(p, q, fidelities(xs, ys), maximize=True)


def _average(e) -> np.ndarray:
    p, xs = e
    return np.einsum("k,kij->ij", p, xs)


# --- output ensembles of devices ----------------------------------------------


def _entangled(d: int) -> np.ndarray:
    phi = np.zeros(d * d, dtype=complex)
    phi[:: d + 1] = 1.0 / np.sqrt(d)
    return phi


def measurement_outputs(dim: int, outcomes, psi: np.ndarray):
    """Ensemble of (I ⊗ measurement) applied to the pure input ``psi``."""
    rho = np.outer(psi, psi.conj())
    eye = np.eye(dim)
    probs, states = [], []
    for w, kraus in outcomes:
        out = sum(np.kron(eye, k) @ rho @ np.kron(eye, k).conj().T for k in kraus)
        tr = float(np.real(np.trace(out)))
        if w * tr > 0.0:
            probs.append(w * tr)
            states.append(out / tr)
    return np.array(probs), np.stack(states)


def povm_ensemble(elements):
    d = elements[0].shape[0]
    kept = [e for e in elements if np.real(np.trace(e)) > 0.0]
    return (
        np.array([np.real(np.trace(e)) / d for e in kept]),
        np.stack([e / np.real(np.trace(e)) for e in kept]),
    )


# --- the checks -----------------------------------------------------------------


def _close(value: float, want: float, tol: float, what: str) -> str | None:
    if abs(value - want) > tol:
        return f"value {value!r} differs from {what} {want!r} by {abs(value - want):.3e} > {tol:g}"
    return None


def _expected(req, report, tol: float) -> str | None:
    if req.expect is None:
        return None
    return _close(report["value"], req.expect, tol, "the expected value")


def check_coupling(req, report) -> str | None:
    a, b = ensemble(req.argv[1]), ensemble(req.argv[2])
    want = min(max(coupling_value(a, b, req.kind), 0.0), 1.0)
    return _close(report["value"], want, LP_TOL, "the linprog coupling value")


def _bracket(a, b, kind: str) -> tuple[float, float]:
    avg_a, avg_b = _average(a)[None], _average(b)[None]
    if kind == "distance":
        return float(trace_distances(avg_a, avg_b)[0, 0]), coupling_value(a, b, kind)
    return coupling_value(a, b, kind), float(fidelities(avg_a, avg_b)[0, 0])


def check_bracket(req, report) -> str | None:
    a, b = ensemble(req.argv[1]), ensemble(req.argv[2])
    lo, hi = _bracket(a, b, req.kind)
    value = report["value"]
    if not lo - BRACKET_SLACK <= value <= hi + BRACKET_SLACK:
        return f"value {value!r} outside the bracket [{lo!r}, {hi!r}]"
    return _expected(req, report, REFERENCE_TOL)


def check_classical(req, report) -> str | None:
    """Basis-state ensembles: total variation and Bhattacharyya overlap."""
    a, b = ensemble(req.argv[1]), ensemble(req.argv[2])
    pa, pb = np.real(np.diagonal(_average(a))), np.real(np.diagonal(_average(b)))
    if req.kind == "distance":
        want = 0.5 * float(np.abs(pa - pb).sum())
    else:
        want = float(np.sqrt(pa * pb).sum())
    return check_bracket(req, report) or _close(
        report["value"], want, CLASSICAL_TOL, "the classical value"
    )


def check_worst(req, report) -> str | None:
    """Rebuild both output ensembles at the reported input; the value there
    must be the reported one and no worse than at the maximally entangled
    input, which is always among the search's starts."""
    dim, m = measurement(req.argv[1])
    _, n = measurement(req.argv[2])
    psi = np.array([complex(re, im) for re, im in report["state"]])
    psi /= np.linalg.norm(psi)

    def at(vec):
        return coupling_value(
            measurement_outputs(dim, m, vec), measurement_outputs(dim, n, vec), req.kind
        )

    value = report["value"]
    problem = _close(value, at(psi), LP_TOL, "the value rebuilt at the reported state")
    if problem:
        return problem
    start = at(_entangled(dim))
    worse = value < start - LP_TOL if req.kind == "distance" else value > start + LP_TOL
    if worse:
        return f"value {value!r} is worse than {start!r} at the maximally entangled input"
    return None


def check_iso(req, report) -> str | None:
    """Choi ensembles: per-outcome Choi states weighted by the outcome weights."""
    ensembles = []
    for path in req.argv[1:3]:
        dim, outcomes = measurement(path)
        ensembles.append(measurement_outputs(dim, outcomes, _entangled(dim)))
    want = coupling_value(*ensembles, req.kind)
    return _close(report["value"], want, LP_TOL, "the linprog Choi-ensemble value") or _expected(
        req, report, LP_TOL
    )


def check_povm(req, report) -> str | None:
    """POVM ensembles ``{(Tr E / d, E / Tr E)}``."""
    a, b = povm_ensemble(povm(req.argv[1])), povm_ensemble(povm(req.argv[2]))
    want = coupling_value(a, b, req.kind)
    return _close(report["value"], want, LP_TOL, "the linprog POVM-ensemble value") or _expected(
        req, report, LP_TOL
    )


CHECKS = {
    "coupling": check_coupling,
    "bracket": check_bracket,
    "classical": check_classical,
    "worst": check_worst,
    "iso": check_iso,
    "povm": check_povm,
}


def check(req, report: dict) -> str | None:
    """Run the independent check named by ``req.check`` on a parsed report."""
    return CHECKS[req.check](req, report)
