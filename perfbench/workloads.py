"""Seeded request lists for the four benchmark workloads.

A request is one ``ensemble-metrics`` command line.  Every workload builds
its inputs with its own numpy code from ``--seed``, writes them as JSON files
in the program's input formats and returns one round: a fixed list of
requests whose length and group sizes do not depend on the seed.  The
fixtures under ``tests/data`` are used as they are.

    python3 perfbench/workloads.py --workload coupling --seed 1

writes the inputs of one round under ``perfbench/out/inputs/`` and lists
its requests, one command line per row.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "data"
OUT = Path(__file__).resolve().parent / "out"

WORKLOADS = ("coupling", "extended", "worst-case", "devices")

# The kept fault: ``ehs_distance`` on this pair of two full-rank qubit states
# a side runs into ``--max-iter 5000`` with its certificate gap above
# ``--tol`` and the CLI exits 4.  The pair comes from a constant seed, so the
# failure is the same request in every run whatever ``--seed`` is.
FAULT_SEED = 348

# Worst-case search budgets: small enough that one request takes about a
# second; the step budget per measure makes ``dist`` and ``fid`` requests
# cost alike, so that the median request never sits between two groups.
WORST_RESTARTS = "2"
WORST_STEPS = {"dist": "6", "fid": "4"}


@dataclass(frozen=True)
class Request:
    """One command line, the like-cost group it belongs to, and how its
    report is checked (see ``checks.py``)."""

    group: str
    argv: tuple[str, ...]
    check: str
    expect: float | None = None
    kept_fault: bool = False

    @property
    def kind(self) -> str:
        argv = self.argv
        fid = argv[0] == "fid" or ("--measure" in argv and argv[argv.index("--measure") + 1] == "fid")
        return "fidelity" if fid else "distance"


# --- input generation -------------------------------------------------------


def _matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def ensemble_doc(weights, states) -> dict:
    return {
        "version": 1,
        "dim": int(states[0].shape[0]),
        "states": [{"p": float(w), "rho": _matrix(s)} for w, s in zip(weights, states)],
    }


def measurement_doc(weights, kraus_lists) -> dict:
    return {
        "version": 1,
        "dim": int(kraus_lists[0][0].shape[0]),
        "outcomes": [
            {"weight": float(w), "kraus": [_matrix(k) for k in kraus]}
            for w, kraus in zip(weights, kraus_lists)
        ],
    }


def povm_doc(elements) -> dict:
    return {"version": 1, "dim": int(elements[0].shape[0]), "elements": [_matrix(e) for e in elements]}


def random_state(rng, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    m = 0.5 * (m + m.conj().T)
    return m / np.trace(m).real


def random_pair(rng, d: int, n: int, shared: int = 0, rank=None):
    """Two ensembles of ``n`` states each; the first ``shared`` states of
    ``b`` are states of ``a``.  ``rank`` None draws each rank uniformly."""

    def draw():
        return random_state(rng, d, rank or int(rng.integers(1, d + 1)))

    sa = [draw() for _ in range(n)]
    sb = sa[:shared] + [draw() for _ in range(n - shared)]
    return (
        ensemble_doc(rng.dirichlet(np.ones(n)), sa),
        ensemble_doc(rng.dirichlet(np.ones(n)), sb),
    )


def classical_pair(rng, d: int):
    basis = [np.diag(np.eye(d)[i]).astype(complex) for i in range(d)]
    return (
        ensemble_doc(rng.dirichlet(np.ones(d)), basis),
        ensemble_doc(rng.dirichlet(np.ones(d)), basis),
    )


def _inv_sqrt(s: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(s)
    return (v / np.sqrt(w)) @ v.conj().T


def random_instrument(rng, d: int, outcomes: int, kraus: int):
    """Measurement with ``outcomes`` outcomes of ``kraus`` Kraus operators
    each, in the normalized-outcome form the program reads: weight
    ``Tr E_i / d`` and Kraus operators scaled so ``Tr sum M†M = d``."""
    gs = [
        [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(kraus)]
        for _ in range(outcomes)
    ]
    t = _inv_sqrt(sum(g.conj().T @ g for row in gs for g in row))
    weights, lists = [], []
    for row in gs:
        ks = [g @ t for g in row]
        tr = float(np.real(sum(np.trace(k.conj().T @ k) for k in ks)))
        weights.append(tr / d)
        lists.append([np.sqrt(d / tr) * k for k in ks])
    return measurement_doc(weights, lists)


def random_povm(rng, d: int, elements: int):
    gs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(elements)]
    t = _inv_sqrt(sum(g.conj().T @ g for g in gs))
    mats = []
    for g in gs:
        e = t @ g.conj().T @ g @ t
        mats.append(0.5 * (e + e.conj().T))
    return povm_doc(mats)


# --- workloads --------------------------------------------------------------


class InputWriter:
    def __init__(self, directory: Path):
        self.dir = directory
        self.dir.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def pair(self, a: dict, b: dict) -> tuple[str, str]:
        self.count += 1
        paths = []
        for tag, doc in (("a", a), ("b", b)):
            path = self.dir / f"{self.count:03d}{tag}.json"
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return paths[0], paths[1]


def fixture(name: str) -> str:
    return str(FIXTURES / name)


def coupling(rng, w: InputWriter) -> list[Request]:
    """Transportation simplex and pairwise cost matrix.

    By cost: 30 cheaper requests (d=2, 16 states a side, 8 shared), the
    median group of 96 (d=4, 16 disjoint states a side, ``dist``), then 30
    dearer ones (``fid`` at d=4 with 24 states a side and 8 shared, and
    four at d=8 with 32 states a side).  The median of 156 falls in the
    middle of the 96.  Pivot counts, and so request times, vary by about a
    fifth from pair to pair; many pairs per round keep the round's totals
    steady from seed to seed.
    """
    out = []
    for _ in range(30):
        a, b = w.pair(*random_pair(rng, 2, 16, shared=8, rank=2))
        out.append(Request("d2n16", ("dist", a, b), "coupling"))
    for _ in range(96):
        a, b = w.pair(*random_pair(rng, 4, 16, rank=4))
        out.append(Request("d4n16", ("dist", a, b), "coupling"))
    for _ in range(26):
        a, b = w.pair(*random_pair(rng, 4, 24, shared=8, rank=4))
        out.append(Request("d4n24", ("fid", a, b), "coupling"))
    for command in ("dist", "fid"):
        for shared in (0, 16):
            a, b = w.pair(*random_pair(rng, 8, 32, shared=shared, rank=8))
            out.append(Request("d8n32", (command, a, b), "coupling"))
    return out


def extended(rng, w: InputWriter) -> list[Request]:
    """PDHG distance iteration and fidelity block ascent at the default tol.

    Seeded random pairs enter only as ``fid``: random ``dist`` pairs
    exhaust ``--max-iter`` on some seeds (see README.md), so the distance
    iteration runs on classical pairs, the fixtures and the kept fault.  By
    cost: 48 classical requests and two fixtures of like cost, then four
    random ``fid`` pairs, the other two fixtures and the kept fault.  The
    median of 57 falls among the classical requests.  Few random pairs,
    because their block-ascent sweeps vary most from seed to seed.
    """
    ehs = ("--method", "ehs")
    out = []
    for _ in range(24):
        a, b = w.pair(*classical_pair(rng, 4))
        out.append(Request("classical", ("dist", a, b) + ehs, "classical"))
        out.append(Request("classical", ("fid", a, b) + ehs, "classical"))
    for d, n in ((2, 3), (2, 4), (4, 3), (4, 4)):
        a, b = w.pair(*random_pair(rng, d, n))
        out.append(Request("fid", ("fid", a, b) + ehs, "bracket"))
    rand_a, rand_b = fixture("rand_a.json"), fixture("rand_b.json")
    bell, prods = fixture("bell.json"), fixture("prods.json")
    # frozen semidefinite-programming reference from tests/data/generate.py
    out.append(Request("fixture", ("dist", rand_a, rand_b) + ehs, "bracket", 0.608869224246))
    out.append(Request("fixture", ("fid", rand_a, rand_b) + ehs, "bracket"))
    out.append(Request("fixture", ("dist", bell, prods) + ehs, "bracket"))
    out.append(Request("fixture", ("fid", bell, prods) + ehs, "bracket"))
    a, b = w.pair(*random_pair(np.random.default_rng(FAULT_SEED), 2, 2, rank=2))
    out.append(Request("fault", ("dist", a, b) + ehs, "bracket", kept_fault=True))
    return out


def worst_case(rng, w: InputWriter) -> list[Request]:
    """Sphere search over two-qubit inputs: thousands of tiny coupling LPs.

    One group of like cost: ``dist`` at 6 steps and ``fid`` at 4 steps
    per start both take about 0.75 s.  The fixture pair and 15 random
    pairs of two-outcome measurements make 32 requests.
    """
    pairs = [(fixture("measz.json"), fixture("measx.json"))]
    pairs += [w.pair(random_instrument(rng, 2, 2, 1), random_instrument(rng, 2, 2, 1)) for _ in range(15)]
    out = []
    for a, b in pairs:
        for measure, steps in WORST_STEPS.items():
            argv = ("channel", a, b, "--compare", "worst", "--measure", measure,
                    "--worst-restarts", WORST_RESTARTS, "--worst-steps", steps)
            out.append(Request("worst", argv, "worst"))
    return out


def devices(rng, w: InputWriter) -> list[Request]:
    """Parsing, validation, Choi ensembles and POVM ensembles; tiny LPs.

    By cost: the four fixture requests and 16 POVM ``dist`` requests, the
    median group of 16 POVM ``fid`` requests (d=3 and d=4, four elements),
    then 20 ``channel --compare iso`` requests (three outcomes of two Kraus
    operators; 16 at d=3 and four dearer ones at d=4).  The median of 56
    falls in the middle of the POVM ``fid`` group.
    """
    out = []
    povms = [w.pair(random_povm(rng, d, 4), random_povm(rng, d, 4)) for d in (3, 4) for _ in range(8)]
    for measure in ("dist", "fid"):
        out += [Request(f"povm-{measure}", ("povm", p, q, "--measure", measure), "povm") for p, q in povms]
    for d, pairs in ((3, 8), (4, 2)):
        for _ in range(pairs):
            a, b = w.pair(random_instrument(rng, d, 3, 2), random_instrument(rng, d, 3, 2))
            for measure in ("dist", "fid"):
                out.append(Request(f"iso-d{d}", ("channel", a, b, "--measure", measure), "iso"))
    mz, mx = fixture("measz.json"), fixture("measx.json")
    pz, px = fixture("povmz.json"), fixture("povmx.json")
    for measure in ("dist", "fid"):
        out.append(Request("fixture", ("channel", mz, mx, "--measure", measure), "iso"))
    out.append(Request("fixture", ("povm", pz, px), "povm", float(np.sqrt(0.5))))
    out.append(Request("fixture", ("povm", pz, px, "--measure", "fid"), "povm"))
    return out


_GENERATORS = {"coupling": coupling, "extended": extended, "worst-case": worst_case, "devices": devices}


def build(workload: str, seed: int, directory: Path | None = None) -> list[Request]:
    """One round of ``workload`` for ``seed``; its input files are written to
    ``directory`` (default ``perfbench/out/inputs/<workload>-<seed>``)."""
    directory = directory or OUT / "inputs" / f"{workload}-{seed}"
    return _GENERATORS[workload](np.random.default_rng(seed), InputWriter(directory))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for req in build(args.workload, args.seed):
        print(req.group, "ensemble-metrics", " ".join(req.argv))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
