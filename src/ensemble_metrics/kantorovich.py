"""Optimal-coupling distance and fidelity between ensembles.

The coupling problem is a transportation linear program: optimize
``sum_ij table[i,j] * cost[i,j]`` over nonnegative tables with prescribed row
and column sums.  It is solved exactly with the transportation (network)
simplex; the basis always forms a spanning tree of the bipartite supply /
demand graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import Ensemble, check_density, unify_support
from .errors import LengthMismatch
from .linalg import fidelity, pairwise_matrix, trace_distance

_RC_TOL = 1e-12
_PIVOT_CAP = 20000


@dataclass(frozen=True, eq=False)
class Coupling:
    """Nonnegative joint table over a shared support, marginals fixed."""

    table: np.ndarray


@dataclass(frozen=True, eq=False)
class LpSolution:
    value: float
    coupling: Coupling
    iterations: int
    status: str  # "optimal" or "degenerate-resolved"


def _northwest_corner(a: np.ndarray, b: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Initial basic feasible solution: m+n-1 cells on a staircase path."""
    m, n = len(a), len(b)
    flows = np.zeros((m, n))
    basis: list[tuple[int, int]] = []
    ai = a.astype(float).copy()
    bj = b.astype(float).copy()
    i = j = 0
    while True:
        t = min(ai[i], bj[j])
        basis.append((i, j))
        flows[i, j] = t
        ai[i] -= t
        bj[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if i == m - 1:
            j += 1
        elif j == n - 1:
            i += 1
        elif ai[i] <= bj[j]:
            i += 1
        else:
            j += 1
    return basis, flows


def _tree_duals(m: int, n: int, basis: list[tuple[int, int]], cost: np.ndarray):
    """Dual potentials u, v with u[0]=0, solved by walking the basis tree."""
    rows_adj: list[list[int]] = [[] for _ in range(m)]
    cols_adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in basis:
        rows_adj[i].append(j)
        cols_adj[j].append(i)
    u = np.full(m, np.nan)
    v = np.full(n, np.nan)
    u[0] = 0.0
    stack: list[tuple[int, bool]] = [(0, True)]
    while stack:
        k, is_row = stack.pop()
        if is_row:
            for j in rows_adj[k]:
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append((j, False))
        else:
            for i in cols_adj[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append((i, True))
    return u, v


def _tree_path(m: int, basis: list[tuple[int, int]], row: int, col: int) -> list[tuple[int, int]]:
    """Cells along the unique tree path from column node ``col`` to row node ``row``.

    Row nodes are 0..m-1, column nodes m..m+n-1; each basic cell is an edge.
    """
    adj: dict[int, list[tuple[int, tuple[int, int]]]] = {}
    for i, j in basis:
        adj.setdefault(i, []).append((m + j, (i, j)))
        adj.setdefault(m + j, []).append((i, (i, j)))
    start, goal = m + col, row
    parent: dict[int, tuple[int, tuple[int, int]]] = {start: (start, (-1, -1))}
    stack = [start]
    while stack:
        node = stack.pop()
        if node == goal:
            break
        for nxt, cell in adj.get(node, ()):
            if nxt not in parent:
                parent[nxt] = (node, cell)
                stack.append(nxt)
    path: list[tuple[int, int]] = []
    node = goal
    while node != start:
        prev, cell = parent[node]
        path.append(cell)
        node = prev
    path.reverse()
    return path


def transportation_lp(
    p: np.ndarray, q: np.ndarray, cost: np.ndarray, sense: str = "min"
) -> LpSolution:
    """Exact optimum of a transportation problem with marginals ``p`` and ``q``.

    Returns a basic feasible solution (a vertex of the transportation
    polytope).  Degenerate pivots are resolved with Bland's rule, which also
    rules out cycling.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(p), len(q)):
        raise LengthMismatch(f"cost shape {cost.shape} vs marginals {(len(p), len(q))}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost entries must be finite")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise ValueError("marginals must be finite")
    if np.any(p < -1e-12) or np.any(q < -1e-12):
        raise ValueError("marginals must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-8 or abs(q.sum() - 1.0) > 1e-8:
        raise ValueError("marginals must each sum to 1")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")

    rows = np.flatnonzero(p > 0.0)
    cols = np.flatnonzero(q > 0.0)
    c = cost[np.ix_(rows, cols)]
    if sense == "max":
        c = -c
    sub, iterations, status = _simplex(p[rows], q[cols], c)
    table = np.zeros((len(p), len(q)))
    table[np.ix_(rows, cols)] = sub
    value = float(np.sum(table * cost))
    return LpSolution(value, Coupling(table), iterations, status)


def _simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    m, n = cost.shape
    basis, flows = _northwest_corner(a, b)
    in_basis = np.zeros((m, n), dtype=bool)
    for cell in basis:
        in_basis[cell] = True
    degenerate = False
    iterations = 0
    while iterations < _PIVOT_CAP:
        u, v = _tree_duals(m, n, basis, cost)
        reduced = cost - u[:, None] - v[None, :]
        reduced[in_basis] = 0.0
        candidates = np.argwhere(reduced < -_RC_TOL)
        if len(candidates) == 0:
            break
        # Bland: smallest (row, col) index among improving cells
        ei, ej = map(int, candidates[0])
        cycle = [(ei, ej)] + _tree_path(m, basis, ei, ej)
        minus = cycle[1::2]
        theta = min(flows[cell] for cell in minus)
        leaving = min(cell for cell in minus if flows[cell] <= theta)
        if theta == 0.0:
            degenerate = True
        for k, cell in enumerate(cycle):
            flows[cell] += theta if k % 2 == 0 else -theta
        flows[leaving] = 0.0
        basis[basis.index(leaving)] = (ei, ej)
        in_basis[leaving] = False
        in_basis[ei, ej] = True
        iterations += 1
    else:  # pragma: no cover - Bland's rule prevents cycling
        raise RuntimeError("transportation simplex exceeded its pivot cap")
    return flows, iterations, "degenerate-resolved" if degenerate else "optimal"


def coupling_lp(a: Ensemble, b: Ensemble, kind: str = "distance") -> LpSolution:
    """Full transportation solution for an ensemble pair.

    ``kind`` picks the ground cost: pairwise trace distance (minimized) or
    pairwise fidelity (maximized).  Same-index diagonal entries are exact.
    """
    sp = unify_support(a, b)
    sense = "min" if kind == "distance" else "max"
    return transportation_lp(sp.p, sp.q, pairwise_matrix(sp.omega, kind), sense)


def _coupling_value(a: Ensemble, b: Ensemble, kind: str) -> tuple[float, Coupling]:
    sol = coupling_lp(a, b, kind)
    return min(max(sol.value, 0.0), 1.0), sol.coupling


def kantorovich_distance(a: Ensemble, b: Ensemble) -> tuple[float, Coupling]:
    """Minimal expected trace distance over couplings of two ensembles.

    Supports are unified first; the cost matrix is the pairwise trace
    distance on the shared support.  Returns the value (in [0, 1]) and one
    optimal coupling.
    """
    return _coupling_value(a, b, "distance")


def kantorovich_fidelity(a: Ensemble, b: Ensemble) -> tuple[float, Coupling]:
    """Maximal expected fidelity over couplings of two ensembles."""
    return _coupling_value(a, b, "fidelity")


def _check_flag_lists(ps, qs):
    if len(ps) != len(qs):
        raise LengthMismatch(f"flag lists of length {len(ps)} and {len(qs)}")
    if not ps:
        raise LengthMismatch("flag lists are empty")


def flagged_closed_form_distance(
    ps: Sequence[tuple[float, np.ndarray]], qs: Sequence[tuple[float, np.ndarray]]
) -> float:
    """Coupling distance between flag-tagged ensembles, in closed form.

    For ensembles ``{(p_i, rho_i ⊗ |i><i|)}`` and ``{(q_i, sigma_i ⊗ |i><i|)}``
    sharing orthonormal flags the optimal coupling is forced and the value is
    ``sum_i min(p_i, q_i) Δ(rho_i, sigma_i) + |p_i - q_i| / 2``.
    """
    _check_flag_lists(ps, qs)
    total = 0.0
    for (pi, rho), (qi, sigma) in zip(ps, qs):
        total += min(pi, qi) * trace_distance(check_density(rho), check_density(sigma))
        total += 0.5 * abs(pi - qi)
    return float(total)


def flagged_closed_form_fidelity(
    ps: Sequence[tuple[float, np.ndarray]], qs: Sequence[tuple[float, np.ndarray]]
) -> float:
    """Coupling fidelity between flag-tagged ensembles, in closed form:
    ``sum_i min(p_i, q_i) F(rho_i, sigma_i)``."""
    _check_flag_lists(ps, qs)
    return float(
        sum(
            min(pi, qi) * fidelity(check_density(rho), check_density(sigma))
            for (pi, rho), (qi, sigma) in zip(ps, qs)
        )
    )


@dataclass(frozen=True)
class ContinuityReport:
    ok: bool
    difference: float
    bound: float

    def __bool__(self) -> bool:
        return self.ok


def check_average_continuity(
    h_values_p, h_values_q, dk: float, g: Callable[[float], float]
) -> ContinuityReport:
    """Check ``|hbar_P - hbar_Q| <= g(dK)`` for ensemble-averaged quantities.

    ``h_values_p`` / ``h_values_q`` hold the probability-weighted
    contributions (or a single precomputed average); ``g`` is the concave
    modulus-of-continuity bound evaluated at the coupling distance ``dk``.
    Holds whenever ``|h(rho) - h(sigma)| <= g(Δ(rho, sigma))`` pointwise with
    ``g`` concave.
    """
    hp = float(np.sum(np.asarray(h_values_p, dtype=float)))
    hq = float(np.sum(np.asarray(h_values_q, dtype=float)))
    diff = abs(hp - hq)
    bound = float(g(dk))
    return ContinuityReport(diff <= bound + 1e-9, diff, bound)
