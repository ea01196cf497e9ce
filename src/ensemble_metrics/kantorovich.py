"""Optimal-coupling distance and fidelity between ensembles.

The coupling problem is a transportation linear program: optimize
``sum_ij table[i,j] * cost[i,j]`` over nonnegative tables with prescribed row
and column sums.  It is solved exactly with the network simplex.  The basis
is a spanning tree of the bipartite row / column graph, kept strongly
feasible, so pricing by the most negative reduced cost cannot cycle.  It
starts from the least-cost tree, which fills the cells in ascending cost, on
a table of more than two rows or columns where that tree is strongly
feasible, and from the northwest-corner staircase otherwise.  Potentials are
updated on the re-hung subtree only, and recomputed from scratch before
optimality is declared; their dual objective, made feasible, and the value
bracket the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .ensembles import PROB_TOL, Ensemble, SupportPair, check_density, unify_support
from .errors import InvalidState, LengthMismatch
from .linalg import fidelity, pairwise_block, trace_distance

_RC_TOL = 1e-12
_PIVOT_CAP = 20000
# the widest bracket of a transportation solve that counts as converged
_GAP_TOL = 1e-9
# the largest cost magnitude priced: a potential sums up to m+n-1 costs
_COST_MAX = 1e300


@dataclass(frozen=True, eq=False)
class Coupling:
    """Nonnegative joint table over a shared support, marginals fixed.

    A solved coupling also carries the optimal dual potentials, indexed like
    the row and column marginals: ``row_duals[i] + col_duals[j]`` equals
    the cost on every basic cell, and the value is ``row_duals @ p +
    col_duals @ q``.  When the coupling came from a pair of ensembles,
    ``support`` is their unified support and ``cost`` the ground cost the
    solve used, indexed like the table: the pairwise measure on the rows and
    columns with mass, zero elsewhere.
    """

    table: np.ndarray
    row_duals: np.ndarray | None = None
    col_duals: np.ndarray | None = None
    support: SupportPair | None = None
    cost: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class SolveReport:
    """What a solve returned and what it did; unpacks as ``(value, plan)``.

    ``plan`` is the optimal :class:`Coupling` or extended-space
    ``JointPair``; ``iterations`` counts simplex pivots, distance iterations
    or fidelity sweeps summed over all starts (each capped by ``max_iter``).
    ``bracket`` is ``(lower, upper)`` around ``value``, the interval the
    solve itself certifies: the primal and dual objectives of a
    transportation solve, or the extended-space value and the bound from
    the dual its plan carries.  ``converged``: the bracket is at most the
    solve's tolerance wide, 1e-9 for the simplex and ``tol`` for the
    extended-space solvers.  ``status`` says what ran: the simplex's
    ``"optimal"``, ``"degenerate-resolved"`` or ``"pivot-cap"``, ``"pdhg"``
    or ``"block-ascent"``.
    """

    value: float
    plan: object
    iterations: int
    bracket: tuple[float, float]
    converged: bool
    status: str

    def __iter__(self):
        return iter((self.value, self.plan))

    def __getitem__(self, k):
        return (self.value, self.plan)[k]


def transportation_lp(
    p: np.ndarray, q: np.ndarray, cost: np.ndarray, sense: str = "min"
) -> SolveReport:
    """Exact optimum of a transportation problem with marginals ``p`` and ``q``.

    Returns a basic feasible solution (a vertex of the transportation
    polytope) with its dual potentials, and the number of simplex pivots
    taken.  Rows and columns with zero mass get zero potentials.  The
    bracket's other end is the dual objective of the potentials, with the
    rows shifted by the exit test's least reduced cost to be feasible.
    ``status`` is ``"degenerate-resolved"`` when some pivot moved no flow;
    the strongly feasible basis keeps such pivots from cycling.  It is
    ``"pivot-cap"`` when the simplex stopped at its cap of 20000 pivots
    short of optimal: the table is then a feasible vertex and the bracket,
    still holding the optimum, is open.

    Raises ValueError for complex marginals or cost, for a cost entry that
    is not finite or exceeds 1e300 in magnitude (its potentials could
    overflow), and for marginals that are not finite, are negative or do
    not each sum to 1.
    """
    if any(map(np.iscomplexobj, (p, q, cost))):
        raise ValueError("marginals and cost must be real")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    if cost.shape != (len(p), len(q)):
        raise LengthMismatch(f"cost shape {cost.shape} vs marginals {(len(p), len(q))}")
    if not np.abs(cost).max(initial=0.0) <= _COST_MAX:
        raise ValueError(f"cost entries must be finite and at most {_COST_MAX:g} in magnitude")
    # a sum is finite only when every term is
    total_p, total_q = p.sum(), q.sum()
    if not (np.isfinite(total_p) and np.isfinite(total_q)) and not (
        np.isfinite(p).all() and np.isfinite(q).all()
    ):
        raise ValueError("marginals must be finite")
    if p.min(initial=0.0) < -1e-12 or q.min(initial=0.0) < -1e-12:
        raise ValueError("marginals must be nonnegative")
    if abs(total_p - 1.0) > 1e-8 or abs(total_q - 1.0) > 1e-8:
        raise ValueError("marginals must each sum to 1")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")

    rows = (p > 0.0).nonzero()[0]
    cols = (q > 0.0).nonzero()[0]
    c = cost[rows[:, None], cols]
    if sense == "max":
        c = -c
    sub, iterations, status, (u, v, rc) = _simplex(p[rows], q[cols], c)
    table = np.zeros((len(p), len(q)))
    table[rows[:, None], cols] = sub
    value = float((table * cost).sum())
    # the potentials of the negated cost flip sign for a maximum
    sign = 1.0 if sense == "min" else -1.0
    row_duals, col_duals = np.zeros(len(p)), np.zeros(len(q))
    row_duals[rows], col_duals[cols] = sign * u, sign * v
    # the marginals sum to 1, so the shift moves the dual objective by rc
    bound = float(row_duals @ p + col_duals @ q) + sign * min(rc, 0.0)
    lo, hi = sorted((value, bound))
    plan = Coupling(table, row_duals, col_duals)
    return SolveReport(value, plan, iterations, (lo, hi), hi - lo <= _GAP_TOL, status)


def _northwest_corner(a: np.ndarray, b: np.ndarray) -> tuple[list[int], list[float]]:
    """The northwest-corner staircase, :func:`_start`'s tree on at most two
    rows and two columns and where the least-cost tree is not strongly
    feasible.

    Nodes are the rows ``0..m-1`` and then the columns ``m..m+n-1``.  The
    basis is a tree rooted at row 0, given as ``parent`` pointers and, for
    every other node, the ``flow`` on the cell joining it to its parent.
    Each step of the staircase hangs the node it moves to from the node it
    leaves.  A tie moves down a row, so a zero-flow cell always hangs a row
    from its column: the tree is strongly feasible whenever the masses are
    positive and balance.
    """
    m, n = len(a), len(b)
    parent = [-1] * (m + n)
    flow = [0.0] * (m + n)
    ai = np.asarray(a, dtype=float).tolist()
    bj = np.asarray(b, dtype=float).tolist()
    i = j = 0
    parent[m] = 0
    node = m
    while True:
        t = min(ai[i], bj[j])
        flow[node] = t
        ai[i] -= t
        bj[j] -= t
        if i == m - 1 and j == n - 1:
            break
        if i < m - 1 and (j == n - 1 or ai[i] <= bj[j]):
            i += 1
            parent[i], node = m + j, i
        else:
            j += 1
            parent[m + j], node = i, m + j
    return parent, flow


def _least_cost(
    a: np.ndarray, b: np.ndarray, cost: np.ndarray
) -> tuple[list[int], list[float]] | None:
    """The least-cost (matrix-minimum) tree, given as
    :func:`_northwest_corner` gives its tree, or None when it is not
    strongly feasible.

    The cells are visited in ascending cost, ties in row-major order; each
    whose row and column are both open takes the mass both have left.  Each
    cell then closes one line, as a staircase step does: the row when it is
    not the last open row and either its mass is used up first or its
    column is the last open one, else the column.  So the m+n-1 cells filled
    span the rows and columns.  The tree is rooted at row 0 and is kept
    only if no zero-flow cell hangs a column from its row; a zero-flow
    cell comes from a row and a column used up at once, by a tie of the
    masses they have left.
    """
    m, n = cost.shape
    ai, bj = a.tolist(), b.tolist()
    row_open, col_open = [True] * m, [True] * n
    rows_left, cols_left = m, n
    adjacent: list[list[tuple[int, float]]] = [[] for _ in range(m + n)]
    filled = 0
    rows, cols = np.divmod(np.argsort(cost, axis=None, kind="stable"), n)
    for i, j in zip(rows.tolist(), cols.tolist()):
        if not (row_open[i] and col_open[j]):
            continue
        t = min(ai[i], bj[j])
        ai[i] -= t
        bj[j] -= t
        adjacent[i].append((m + j, t))
        adjacent[m + j].append((i, t))
        filled += 1
        if filled == m + n - 1:
            break
        if rows_left > 1 and (cols_left == 1 or ai[i] <= bj[j]):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    parent = [-1] * (m + n)
    flow = [0.0] * (m + n)
    order = [0]
    for x in order:
        for y, t in adjacent[x]:
            if y != parent[x]:
                if t == 0.0 and y >= m:
                    return None  # a column hung from its row by a zero-flow cell
                parent[y], flow[y] = x, t
                order.append(y)
    return parent, flow


def _start(a: np.ndarray, b: np.ndarray, cost: np.ndarray) -> tuple[list[int], list[float]]:
    """The strongly feasible tree :func:`_simplex` starts from: the
    least-cost tree on more than two rows or columns, where it is strongly
    feasible, and the northwest-corner staircase otherwise.  The staircase
    on at most two rows and two columns keeps :func:`_two_by_two` the
    simplex it mirrors; on larger tables the least-cost tree, which prices
    the cells it fills, leaves far fewer pivots."""
    if max(cost.shape) > 2:
        tree = _least_cost(a, b, cost)
        if tree is not None:
            return tree
    return _northwest_corner(a, b)


def _subtree(top: int, children: list[list[int]]) -> list[int]:
    """Nodes of the subtree under ``top``, breadth first, so each comes
    after its parent."""
    order = [top]
    for x in order:
        order.extend(children[x])
    return order


def _potentials(cost: list, parent: list[int], order: list[int], pot: np.ndarray) -> None:
    """Dual potentials from the root down ``order``, written into ``pot``:
    ``u`` (with ``u_0 = 0``) on the row nodes and ``-v`` on the column
    nodes, where ``u_i + v_j = cost_ij`` on every tree cell; ``cost`` is
    given as nested lists."""
    m = len(cost)
    pot[0] = 0.0
    for x in order[1:]:
        p = parent[x]
        if x < m:
            pot[x] = cost[x][p - m] + pot[p]
        else:
            pot[x] = pot[p] - cost[p][x - m]


def _simplex(a: np.ndarray, b: np.ndarray, cost: np.ndarray, watch=None):
    """Network simplex with Dantzig pricing on a strongly feasible tree.

    The entering cell has the most negative reduced cost.  The basis tree
    stays strongly feasible (every zero-flow cell hangs a row from its
    column, so it points toward the root), which rules out cycling under
    any entering rule: Cunningham, "A network simplex method", Math.
    Programming 11 (1976); Ahuja, Magnanti and Orlin, *Network Flows*
    (1993), §11.5.  The first tree is :func:`_start`'s.  ``watch``, if
    given, sees ``(parent, flow)`` after every pivot; without it a table of
    at most two rows and two columns is solved by :func:`_two_by_two`.
    After ``_PIVOT_CAP`` pivots the current tree is returned, with its
    fresh potentials.

    ``b`` is first scaled to the total of ``a`` unless the totals are
    equal bit for bit, so that no mass is left off the start.  Returns
    the table, the pivot count, the status and the dual ``(u, v, rc)``: the
    optimal potentials, with ``u_i + v_j = cost_ij`` on every tree cell,
    and the least reduced cost of the last exit test on them.
    """
    m, n = cost.shape
    total_a, total_b = a.sum(), b.sum()
    if total_a != total_b:
        b = b * (total_a / total_b)
    if watch is None and m <= 2 and n <= 2:
        solved = _two_by_two(a, b, cost)
        if solved is not None:
            return solved
    parent, flow = _start(a, b, cost)
    children: list[list[int]] = [[] for _ in range(m + n)]
    for x in range(1, m + n):
        children[parent[x]].append(x)
    order = _subtree(0, children)
    depth = [0] * (m + n)
    for x in order[1:]:
        depth[x] = depth[parent[x]] + 1
    c = cost.tolist()
    pot = np.empty(m + n)
    _potentials(c, parent, order, pot)

    def cell(x: int) -> tuple[int, int]:
        """The tree cell joining node ``x`` to its parent."""
        return (x, parent[x] - m) if x < m else (parent[x], x - m)

    basic = np.zeros((m, n), dtype=bool)
    for x in order[1:]:
        basic[cell(x)] = True
    reduced = np.empty((m, n))
    u, w = pot[:m, None], pot[None, m:]
    degenerate = False
    fresh = True
    iterations = 0
    while True:
        np.subtract(cost, u, out=reduced)
        np.add(reduced, w, out=reduced)
        np.putmask(reduced, basic, 0.0)
        enter = int(reduced.argmin())
        rc = float(reduced.flat[enter])
        if rc >= -_RC_TOL or iterations == _PIVOT_CAP:
            if fresh:
                break
            # rerun the test on potentials free of incremental drift
            _potentials(c, parent, _subtree(0, children), pot)
            fresh = True
            continue
        # Climb from both ends of the entering cell to the apex.  Flow runs
        # from row k into column l and back to k through the tree, so it
        # shrinks the cells that hang a row on k's side and a column on l's.
        ei, ej = divmod(enter, n)
        k, l = ei, m + ej
        k_side, l_side = [], []
        x, y = k, l
        while x != y:
            if depth[x] >= depth[y]:
                k_side.append(x)
                x = parent[x]
            else:
                l_side.append(y)
                y = parent[y]
        theta = min([flow[x] for x in k_side if x < m] + [flow[y] for y in l_side if y >= m])
        # the leaving cell is the last blocking one met going round the
        # cycle from the apex: down to k, across, then up from l
        leave = next((y for y in reversed(l_side) if y >= m and flow[y] == theta), None)
        on_k = leave is None
        if on_k:
            leave = next(x for x in k_side if x < m and flow[x] == theta)
        degenerate = degenerate or theta == 0.0
        for x in k_side:
            flow[x] += -theta if x < m else theta
        for y in l_side:
            flow[y] += -theta if y >= m else theta
        basic[cell(leave)] = False
        basic[ei, ej] = True
        # Re-hang the subtree cut off by the leaving cell from the entering
        # cell: reverse the path from the entering cell's end up to
        # ``leave``, each node taking the flow of the cell below it.
        side = k_side if on_k else l_side
        top, above = (k, l) if on_k else (l, k)
        carried = theta
        for s in side[: side.index(leave) + 1]:
            children[parent[s]].remove(s)
            children[above].append(s)
            parent[s], above = above, s
            flow[s], carried = carried, flow[s]
        # shift the subtree's potentials so the entering cell prices to
        # zero, setting the depths on the way down
        shift = rc if top < m else -rc
        depth[top] = depth[parent[top]] + 1
        moved = [top]
        for x in moved:
            pot[x] += shift
            below = depth[x] + 1
            for y in children[x]:
                depth[y] = below
                moved.append(y)
        fresh = False
        iterations += 1
        if watch is not None:
            watch(parent, flow)
    table = np.zeros((m, n))
    for x in range(1, m + n):
        table[cell(x)] = flow[x]
    return table, iterations, _status(rc, degenerate), (pot[:m], -pot[m:], rc)


def _status(rc: float, degenerate: bool) -> str:
    """The simplex's status from the least reduced cost of its last test."""
    if rc < -_RC_TOL:
        return "pivot-cap"
    return "degenerate-resolved" if degenerate else "optimal"


def _prices(c: list, cells: list) -> tuple[list, list, float]:
    """The potentials :func:`_potentials` gives the tree of ``cells``,
    listed so that each joins one new node to row 0's side (the row ones
    ``u`` and the column ones ``w``, which are ``-v``), and the least reduced
    cost of :func:`_simplex`'s exit test on them, from the cost as nested
    lists."""
    m, n = len(c), len(c[0])
    u, w = [0.0] + [None] * (m - 1), [None] * n
    for i, j in cells:
        if w[j] is None:
            w[j] = u[i] - c[i][j]
        else:
            u[i] = c[i][j] + w[j]
    reduced = [
        0.0 if (i, j) in cells else (c[i][j] - u[i]) + w[j] for i in range(m) for j in range(n)
    ]
    return u, w, min(reduced)


def _two_by_two(a: np.ndarray, b: np.ndarray, cost: np.ndarray):
    """:func:`_simplex`'s result, bit for bit, on at most two rows and two
    columns, in closed form; None when the simplex would pivot more than
    once, which exact arithmetic rules out, or not at all for its cap.

    The northwest-corner tree holds every cell but at most one, off the
    diagonal.  If that cell enters, the cycle runs through all four cells
    and the diagonal ones lose flow; the one with the least flow leaves,
    cell (0, 0) on a tie, as the simplex's ratio test picks it.  The cell
    that left prices at minus the entering reduced cost, so the simplex's
    next test, on potentials shifted over the re-hung subtree, and its
    fresh one both pass.
    """
    m, n = cost.shape
    c = cost.tolist()
    parent, flow = _northwest_corner(a, b)
    basis = {(x, parent[x] - m) if x < m else (parent[x], x - m): flow[x] for x in range(1, m + n)}
    u, w, rc = _prices(c, sorted(basis, key=sum))  # the staircase, corner first
    iterations = 0
    degenerate = False
    if rc < -_RC_TOL:
        if (m, n) != (2, 2) or _PIVOT_CAP < 1:
            return None
        enter = (0, 1) if (1, 0) in basis else (1, 0)
        theta = min(basis[1, 1], basis[0, 0])
        leave = (0, 0) if basis[0, 0] == theta else (1, 1)
        other = (enter[1], enter[0])
        i, j = leave
        if enter == (1, 0) and leave == (1, 1):  # row 1 re-hangs alone
            test = (c[1][1] - (u[1] + rc)) + w[1]
        else:  # the leaving cell's column re-hangs
            test = (c[i][j] - u[i]) + (w[j] - rc)
        basis = {
            enter: theta,
            other: basis[other] + theta,
            (0, 0): basis[0, 0] - theta,
            (1, 1): basis[1, 1] - theta,
        }
        del basis[leave]
        tree = [(0, 1), (1, 1), (1, 0)] if leave == (0, 0) else [(0, 0), (0, 1), (1, 0)]
        u, w, rc = _prices(c, tree)
        if test < -_RC_TOL or rc < -_RC_TOL:
            return None
        iterations, degenerate = 1, theta == 0.0
    table = np.array([[basis.get((i, j), 0.0) for j in range(n)] for i in range(m)])
    return table, iterations, _status(rc, degenerate), (np.array(u), -np.array(w), rc)


def coupling_lp(a: Ensemble, b: Ensemble, kind: str = "distance") -> SolveReport:
    """Transportation solve for an ensemble pair, as its report.

    ``kind`` picks the ground cost: pairwise trace distance (minimized) or
    pairwise fidelity (maximized).  Same-index diagonal entries are exact.
    The cost is evaluated only on the rows and columns with mass, the cells
    a coupling can use, and equals ``pairwise_matrix(omega, kind)`` there.
    The value and the bracket are clipped to [0, 1], and the coupling
    carries the unified support it is indexed by and that cost.
    """
    sp = unify_support(a, b)
    rows, cols = (sp.p > 0.0).nonzero()[0], (sp.q > 0.0).nonzero()[0]
    cost = np.zeros((len(sp.p), len(sp.q)))
    roots = sp.roots if kind == "fidelity" else None
    cost[rows[:, None], cols] = pairwise_block(sp.omega, rows, cols, kind, roots)
    sol = transportation_lp(sp.p, sp.q, cost, "min" if kind == "distance" else "max")
    value, lo, hi = (min(max(x, 0.0), 1.0) for x in (sol.value, *sol.bracket))
    plan = Coupling(sol.plan.table, sol.plan.row_duals, sol.plan.col_duals, sp, cost)
    return SolveReport(value, plan, sol.iterations, (lo, hi), sol.converged, sol.status)


def kantorovich_distance(a: Ensemble, b: Ensemble) -> SolveReport:
    """Minimal expected trace distance over couplings of two ensembles.

    Supports are unified first; the cost matrix is the pairwise trace
    distance on the shared support.  Returns the :func:`coupling_lp`
    report: the value (in [0, 1]) and one optimal coupling.
    """
    return coupling_lp(a, b, "distance")


def kantorovich_fidelity(a: Ensemble, b: Ensemble) -> SolveReport:
    """Maximal expected fidelity over couplings of two ensembles."""
    return coupling_lp(a, b, "fidelity")


def flagged_closed_form_distance(
    ps: Sequence[tuple[float, np.ndarray]], qs: Sequence[tuple[float, np.ndarray]]
) -> float:
    """Coupling distance between flag-tagged ensembles, in closed form.

    For ensembles ``{(p_i, rho_i ⊗ |i><i|)}`` and ``{(q_i, sigma_i ⊗ |i><i|)}``
    sharing orthonormal flags the optimal coupling is forced and the value is
    ``sum_i min(p_i, q_i) Δ(rho_i, sigma_i) + |p_i - q_i| / 2``.
    """
    return _flagged_closed_form(ps, qs, "distance")


def flagged_closed_form_fidelity(
    ps: Sequence[tuple[float, np.ndarray]], qs: Sequence[tuple[float, np.ndarray]]
) -> float:
    """Coupling fidelity between flag-tagged ensembles, in closed form:
    ``sum_i min(p_i, q_i) F(rho_i, sigma_i)``."""
    return _flagged_closed_form(ps, qs, "fidelity")


def _flagged_closed_form(ps, qs, kind: str) -> float:
    """The flag closed form of ``kind``, summed pair by pair in input order;
    the distance adds ``|p_i - q_i| / 2`` after each pair's term.  Raises
    InvalidState for a weight that is not finite or is below -1e-8, as
    ``make_ensemble`` does."""
    if len(ps) != len(qs):
        raise LengthMismatch(f"flag lists of length {len(ps)} and {len(qs)}")
    if not ps:
        raise LengthMismatch("flag lists are empty")
    for w, _ in (*ps, *qs):
        if not np.isfinite(w) or w < -PROB_TOL:
            raise InvalidState(f"flag weight {w} is not a finite number >= 0")
    pair_measure = trace_distance if kind == "distance" else fidelity
    total = 0.0
    for (pi, rho), (qi, sigma) in zip(ps, qs):
        total += min(pi, qi) * pair_measure(check_density(rho), check_density(sigma))
        if kind == "distance":
            total += 0.5 * abs(pi - qi)
    return float(total)


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
