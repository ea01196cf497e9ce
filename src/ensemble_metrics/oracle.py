"""Brute-force and Monte Carlo verifiers for the test suite.

Everything here is algorithmically independent of the production paths it
checks: the transportation optimum is recomputed by enumerating polytope
vertices, the distance values are replayed as discrimination games, and
analytic (sub)gradients are compared against finite differences.  Production
modules never import this one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .channels import GeneralizedMeasurement, make_measurement
from .ehs import JointPair
from .ensembles import Ensemble, make_ensemble, unify_support
from .errors import (
    InfeasibleCoupling,
    InfeasibleJointPair,
    InvalidParams,
    TooLarge,
)
from .kantorovich import Coupling
from .linalg import helstrom_pmax, mat_sqrt_psd

_VERTEX_CAP = 5
_FEAS_TOL = 1e-8


@dataclass(frozen=True)
class GameResult:
    trials: int
    successes: int
    estimate: float
    stderr: float


@lru_cache(maxsize=None)
def _tree_solvers(m: int, n: int):
    """All spanning trees of the complete bipartite support graph, with the
    inverse of each tree's flow-balance system.

    Arcs are indexed ``i * n + j``.  The balance system drops the last
    column-node row (it is redundant), leaving a square invertible matrix
    exactly when the arc set is a spanning tree.
    """
    arcs = [(i, j) for i in range(m) for j in range(n)]
    k = m + n - 1
    trees = []
    inverses = []
    for subset in combinations(range(m * n), k):
        parent = list(range(m + n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for a in subset:
            i, j = arcs[a]
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue
        mat = np.zeros((k, k))
        for col, a in enumerate(subset):
            i, j = arcs[a]
            mat[i, col] = 1.0
            if j < n - 1:
                mat[m + j, col] = 1.0
        trees.append(np.array(subset))
        inverses.append(np.linalg.inv(mat))
    return np.stack(trees), np.stack(inverses)


def lp_vertex_oracle(p, q, cost, sense: str = "min") -> float:
    """Exact transportation optimum by enumerating basic feasible solutions.

    Every vertex of the transportation polytope is supported on a spanning
    tree of the bipartite support graph, so scanning all trees and keeping
    the feasible ones scans all vertices.  Capped at 5x5 marginals.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    m, n = len(p), len(q)
    if m > _VERTEX_CAP or n > _VERTEX_CAP:
        raise TooLarge(f"{m}x{n} exceeds the {_VERTEX_CAP}x{_VERTEX_CAP} enumeration cap")
    if cost.shape != (m, n):
        raise InvalidParams(f"cost shape {cost.shape} does not match {m}x{n}")
    if sense not in ("min", "max"):
        raise InvalidParams(f"sense {sense!r}")
    trees, inverses = _tree_solvers(m, n)
    rhs = np.concatenate([p, q[: n - 1]])
    flows = np.einsum("tij,j->ti", inverses, rhs)
    feasible = np.all(flows >= -1e-12, axis=1)
    if not np.any(feasible):
        raise InvalidParams("no feasible vertex; marginals may not balance")
    values = np.sum(flows * cost.reshape(-1)[trees], axis=1)[feasible]
    return float(values.max() if sense == "max" else values.min())


def _unified_tables(a: Ensemble, b: Ensemble, table_p, table_q, tol, err):
    sp = unify_support(a, b)
    tp = np.asarray(table_p, dtype=float)
    tq = np.asarray(table_q, dtype=float)
    n = len(sp.omega)
    if tp.shape != (n, n) or tq.shape != (n, n):
        raise err(f"table shape {tp.shape} does not match unified support {n}")
    if tp.min() < -tol or tq.min() < -tol:
        raise err("negative table entry")
    if np.abs(tp.sum(axis=1) - sp.p).max() > tol:
        raise err("row sums do not match the first ensemble's weights")
    if np.abs(tq.sum(axis=0) - sp.q).max() > tol:
        raise err("column sums do not match the second ensemble's weights")
    return sp, np.clip(tp, 0.0, None), np.clip(tq, 0.0, None)


def simulate_kantorovich_game(
    a: Ensemble, b: Ensemble, coupling: Coupling, trials: int, seed: int = 0
) -> GameResult:
    """Replay the coupled discrimination game behind the coupling distance.

    A pair is drawn from the coupling, a fair coin picks which of the two
    states is sent, and the receiver applies the equal-prior Helstrom
    projector for that pair.  With the optimal coupling the success estimate
    converges to ``(1 + coupling distance) / 2``.  This is
    :func:`simulate_ehs_game` on the table pair ``(coupling.table,
    coupling.table)``, raising InfeasibleCoupling for a bad table.
    """
    tables = JointPair(coupling.table, coupling.table)
    return _announced_pair_game(a, b, tables, trials, seed, InfeasibleCoupling)


def simulate_ehs_game(
    a: Ensemble, b: Ensemble, joint_pair: JointPair, trials: int, seed: int = 0
) -> GameResult:
    """Replay the announced-pair game behind the embedding distance.

    The pair (rho, sigma) is announced with probability ``(P + Q) / 2`` and
    the state to discriminate is drawn with priors ``P/(P+Q)``, ``Q/(P+Q)``;
    the receiver plays the prior-weighted Helstrom projector.  Twice the
    success estimate minus one converges to the table objective.
    """
    return _announced_pair_game(a, b, joint_pair, trials, seed, InfeasibleJointPair)


def _announced_pair_game(a, b, joint_pair: JointPair, trials: int, seed: int, err) -> GameResult:
    """The game of :func:`simulate_ehs_game`; ``err`` is raised for tables
    that do not fit the ensembles."""
    sp, tp, tq = _unified_tables(a, b, joint_pair.p_table, joint_pair.q_table, _FEAS_TOL, err)
    if trials < 1:
        raise InvalidParams(f"trials {trials}")
    n = len(sp.omega)
    announce = 0.5 * (tp + tq).reshape(-1)
    announce = announce / announce.sum()
    succ = np.zeros(n * n)
    for e, w in enumerate(announce):
        if w <= 0.0:
            continue
        i, j = divmod(e, n)
        s = tp.reshape(-1)[e] + tq.reshape(-1)[e]
        prior = tp.reshape(-1)[e] / s
        _, proj = helstrom_pmax(sp.omega[i], sp.omega[j], prior)
        hit_rho = float(np.real(np.trace(proj @ sp.omega[i])))
        hit_sigma = float(np.real(np.trace(proj @ sp.omega[j])))
        succ[e] = prior * hit_rho + (1.0 - prior) * (1.0 - hit_sigma)
    rng = np.random.default_rng(seed)
    idx = rng.choice(n * n, size=trials, p=announce)
    wins = int(np.sum(rng.random(trials) < succ[idx]))
    est = wins / trials
    return GameResult(trials, wins, est, float(np.sqrt(est * (1.0 - est) / trials)))


def fd_subgradient_check(objective, point: JointPair, directions: int = 20, seed: int = 0) -> float:
    """Compare the analytic (sub)gradient of a table objective with central
    finite differences along random feasible directions.

    Directions keep both tables feasible to first order: rows of the P part
    and columns of the Q part sum to zero, and rows/columns whose marginal
    mass at the point is zero stay pinned (they are frozen by feasibility).
    Returns the largest relative error; meaningful at relative-interior,
    smooth points only.
    """
    rng = np.random.default_rng(seed)
    tp = np.asarray(point.p_table, dtype=float)
    tq = np.asarray(point.q_table, dtype=float)
    row_free = tp.sum(axis=1) > 0.0
    col_free = tq.sum(axis=0) > 0.0
    _, gp, gq = objective(tp, tq)
    eps = 1e-6
    errs = []
    for _ in range(directions):
        dp = rng.normal(size=tp.shape)
        dp -= dp.mean(axis=1, keepdims=True)
        dp[~row_free] = 0.0
        dq = rng.normal(size=tq.shape)
        dq -= dq.mean(axis=0, keepdims=True)
        dq[:, ~col_free] = 0.0
        scale = np.sqrt(np.sum(dp * dp) + np.sum(dq * dq))
        if scale <= 0.0:
            continue
        dp /= scale
        dq /= scale
        up, _, _ = objective(tp + eps * dp, tq + eps * dq)
        dn, _, _ = objective(tp - eps * dp, tq - eps * dq)
        fd = (up - dn) / (2.0 * eps)
        an = float(np.sum(gp * dp) + np.sum(gq * dq))
        errs.append(abs(fd - an) / max(1.0, abs(an)))
    return float(np.max(errs))  # NaN from leaving the domain propagates


def random_density(d: int, rank: int | None = None, seed: int = 0) -> np.ndarray:
    """Wishart-normalized random density matrix of the given rank."""
    rank = d if rank is None else rank
    if d < 1 or rank < 1 or rank > d:
        raise InvalidParams(f"dimension {d}, rank {rank}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = g @ g.conj().T
    return mat / np.real(np.trace(mat))


def random_ensemble(d: int, size: int, seed: int = 0, rank: int | None = None) -> Ensemble:
    """Dirichlet weights over independent random density matrices."""
    if size < 1:
        raise InvalidParams(f"size {size}")
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(size))
    states = [random_density(d, rank, seed=int(rng.integers(2**32))) for _ in range(size)]
    return make_ensemble(list(zip(probs, states)))


def random_cptp(d_in: int, d_out: int, kraus_count: int, seed: int = 0) -> list[np.ndarray]:
    """Kraus operators of a Haar-flavored channel from a stacked isometry."""
    if d_in < 1 or d_out < 1 or kraus_count < 1 or kraus_count * d_out < d_in:
        raise InvalidParams(f"d_in {d_in}, d_out {d_out}, kraus_count {kraus_count}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(kraus_count * d_out, d_in)) + 1j * rng.normal(
        size=(kraus_count * d_out, d_in)
    )
    v, _ = np.linalg.qr(g)
    return [v[k * d_out : (k + 1) * d_out, :] for k in range(kraus_count)]


def random_measurement(
    d: int, outcomes: int, seed: int = 0, kraus_per_outcome: int = 1
) -> GeneralizedMeasurement:
    """Random generalized measurement: a random channel's Kraus operators
    grouped into outcomes, weights read off the group traces."""
    if outcomes < 1 or kraus_per_outcome < 1:
        raise InvalidParams(f"outcomes {outcomes}, kraus_per_outcome {kraus_per_outcome}")
    kraus = random_cptp(d, d, outcomes * kraus_per_outcome, seed)
    pairs = []
    for i in range(outcomes):
        group = kraus[i * kraus_per_outcome : (i + 1) * kraus_per_outcome]
        weight = float(np.real(sum(np.trace(k.conj().T @ k) for k in group))) / d
        scale = 1.0 / np.sqrt(weight)
        pairs.append((weight, [scale * k for k in group]))
    return make_measurement(pairs)


def random_unitary(d: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_pure_decomposition(rho: np.ndarray, size: int, seed: int = 0) -> Ensemble:
    """Random pure-state ensemble averaging exactly to ``rho``.

    Columns of ``sqrt(rho) @ W`` for a random co-isometry W enumerate all
    decompositions with ``size`` terms; zero-weight columns are dropped.
    """
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    if size < d:
        raise InvalidParams(f"size {size} below dimension {d}")
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(size, d)) + 1j * rng.normal(size=(size, d))
    q, _ = np.linalg.qr(g)  # size x d isometry, q† q = I_d
    cols = mat_sqrt_psd(rho) @ q.conj().T  # d x size, sum of outer products = rho
    pairs = []
    for i in range(size):
        w = float(np.linalg.norm(cols[:, i]) ** 2)
        if w <= 1e-14:
            continue
        v = cols[:, i] / np.sqrt(w)
        pairs.append((w, np.outer(v, v.conj())))
    return make_ensemble(pairs)
