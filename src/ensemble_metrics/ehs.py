"""Ensemble distance and fidelity optimized over system ⊗ pointer embeddings.

Both measures reduce to convex programs over a pair of joint tables on the
shared support: minimize ``(1/2) sum_e ‖P_e rho_e - Q_e sigma_e‖_1`` with the
rows of P and the columns of Q marginal-constrained (distance), or maximize
``sum_e sqrt(P_e Q_e) F(rho_e, sigma_e)`` (fidelity).  The pointer register
never needs to be materialized.

The distance objective is ``max`` over Hermitian contractions U_e of the
bilinear form ``(1/2) sum_e Tr(U_e (P_e rho_e - Q_e sigma_e))``, so the
solver runs a primal-dual hybrid gradient iteration (Chambolle-Pock):
alternate a projection of the dual blocks onto the operator-norm ball with
a projection of the tables onto their marginal polytopes.  Any feasible
dual iterate yields a lower bound on the optimum (a linear objective is
minimized over the marginal polytopes row by row / column by column), so
termination is certificate-driven: the solver stops once the best primal
value is within ``tol`` of the best dual bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable

import numpy as np

from .ensembles import (
    Ensemble,
    SupportPair,
    average_state,
    make_ensemble,
    pure_state,
    unify_support,
)
from .errors import DimMismatch, InvalidParams, NotPure
from .kantorovich import SolveReport, kantorovich_distance, kantorovich_fidelity
from .linalg import fidelity, mat_sqrt_psd, pairwise_matrix, spectral_map, trace_distance

_PURITY_TOL = 1e-8


@dataclass(frozen=True)
class SolverOptions:
    """Knobs shared by the iterative solvers.

    ``tol`` is the certificate gap at which the distance solver stops;
    ``max_iter`` caps the distance iterations, and the sweeps of each start
    of the fidelity solver; ``restarts`` counts the random initializations
    of the fidelity solver (the product and warm-start initializations
    always run).  A solve reports converged exactly when the bracket its
    own solve certifies is at most ``tol`` wide.  Raises InvalidParams unless
    ``tol`` is finite and positive (a bool is not) and every count and
    ``seed`` is an integer >= 0.
    """

    tol: float = 1e-4
    max_iter: int = 5000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, Real) or not 0.0 < tol < np.inf:
            raise InvalidParams(f"tol must be a finite number > 0, got {tol!r}")
        check_counts(self, "max_iter", "restarts", "seed")


def check_counts(opts, *names: str) -> None:
    """Raise InvalidParams unless each named field of ``opts`` is an
    integer >= 0 (a bool is not)."""
    for name in names:
        value = getattr(opts, name)
        if isinstance(value, bool) or not isinstance(value, Integral) or value < 0:
            raise InvalidParams(f"{name} must be an integer >= 0, got {value!r}")


@dataclass(frozen=True, eq=False)
class JointPair:
    """The two joint tables: rows of ``p_table`` sum to P, columns of
    ``q_table`` sum to Q.  A solved pair carries, as a ``Coupling`` does,
    its ``support`` and the value's derivatives ``row_duals = dV/dP`` and
    ``col_duals = dV/dQ``; a distance pair also the contraction stack
    ``dual`` of its best bound, one block per cell in row-major order."""

    p_table: np.ndarray
    q_table: np.ndarray
    support: SupportPair | None = None
    row_duals: np.ndarray | None = None
    col_duals: np.ndarray | None = None
    dual: np.ndarray | None = None


class _RowSimplex:
    """Euclidean projection of each row of an ``(m, n)`` array onto
    ``{y >= 0, sum y = mass}`` for fixed row masses.

    Sort-and-threshold, row by row; rows with zero mass project to zero.
    The masses, ``k = 1..n`` and the row index are laid out once.
    """

    def __init__(self, masses: np.ndarray, n: int):
        pos = (masses > 0.0)[:, None]
        self.pos = None if pos.all() else pos
        self.mass = masses[:, None]
        self.k = np.arange(1, n + 1)
        self.rows = np.arange(len(masses))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        u = -x
        u.sort(axis=1)
        u = -u
        css = u.cumsum(axis=1) - self.mass
        cond = u - css / self.k > 0.0
        idx = len(self.k) - 1 - cond[:, ::-1].argmax(axis=1)
        tau = css[self.rows, idx] / (idx + 1.0)
        out = np.maximum(x - tau[:, None], 0.0)
        return out if self.pos is None else np.where(self.pos, out, 0.0)


def project_rows_to_simplex(x: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``x`` onto ``{y >= 0, sum y = mass}``.

    Sort-and-threshold; rows with zero mass project to zero.
    """
    return _RowSimplex(masses, x.shape[1])(x)


class _DistanceObjective:
    """Value, subgradient and dual bound of the table-pair distance objective."""

    def __init__(self, omega: np.ndarray, p: np.ndarray, q: np.ndarray):
        self.n = n = len(omega)
        self.p = p
        self.q = q
        self.rho = np.repeat(omega, n, axis=0)  # block e=(i,j): rho_i
        self.sigma = np.tile(omega, (n, 1, 1))  # block e=(i,j): sigma_j
        fro2 = np.real(np.einsum("kij,kji->k", omega, omega))
        self.step_norm = 0.5 * float(np.sqrt(2.0 * fro2.max()))  # ‖K‖ bound

    def blocks(self, ptab: np.ndarray, qtab: np.ndarray) -> np.ndarray:
        return ptab.reshape(-1, 1, 1) * self.rho - qtab.reshape(-1, 1, 1) * self.sigma

    def value(self, ptab: np.ndarray, qtab: np.ndarray) -> float:
        w = np.linalg.eigvalsh(self.blocks(ptab, qtab))
        return 0.5 * float(np.abs(w).sum())

    def __call__(self, ptab: np.ndarray, qtab: np.ndarray):
        w, sgn = spectral_map(self.blocks(ptab, qtab), np.sign)
        value = 0.5 * float(np.abs(w).sum())
        gp, gq = self.contract(sgn)
        return value, gp, gq

    def contract(self, dual: np.ndarray):
        """Pair the dual blocks with the state stacks: the coefficients of the
        tables in the bilinear form, also the (sub)gradient direction."""
        gp = 0.5 * np.einsum("eij,eji->e", dual, self.rho).real.reshape(self.n, self.n)
        gq = -0.5 * np.einsum("eij,eji->e", dual, self.sigma).real.reshape(self.n, self.n)
        return gp, gq

    def dual_bound(self, gp: np.ndarray, gq: np.ndarray) -> float:
        """Lower bound on the optimum from any contraction-feasible dual.

        With the dual blocks frozen the objective is linear with coefficients
        ``gp``/``gq``; its exact minimum over the feasible set is
        ``sum_i p_i min_j gp[i,j] + sum_j q_j min_i gq[i,j]``.
        """
        return float(self.p @ np.min(gp, axis=1) + self.q @ np.min(gq, axis=0))


def _solve_distance(obj: _DistanceObjective, start, opts: SolverOptions, lower: float):
    """Primal-dual iteration from the table pair ``(start, start)``."""
    ptab, qtab = start.copy(), start.copy()
    best_val, best = obj.value(ptab, qtab), (ptab, qtab)
    pbar, qbar = ptab, qtab
    _, y = spectral_map(obj.blocks(ptab, qtab), np.sign)
    dual, dual_best = y, -np.inf  # the dual stack of the best bound it gave
    step = 1.0 / obj.step_norm
    n = obj.n
    project = _RowSimplex(np.concatenate([obj.p, obj.q]), n)
    moved = np.empty((2 * n, n))
    iterations = 0
    while iterations < opts.max_iter:
        iterations += 1
        # project each dual block onto the contractions: eigenvalues into [-1, 1]
        y = y + (0.5 * step) * obj.blocks(pbar, qbar)
        y = 0.5 * (y + y.conj().swapaxes(-1, -2))
        w, v = np.linalg.eigh(y)
        y = (v * np.minimum(np.maximum(w, -1.0), 1.0)[..., None, :]) @ v.conj().swapaxes(-1, -2)
        gp, gq = obj.contract(y)
        # the P rows and the Q columns, projected row by row in one call
        np.subtract(ptab, step * gp, out=moved[:n])
        np.subtract(qtab.T, step * gq.T, out=moved[n:])
        rows = project(moved)
        pnew, qnew = rows[:n], rows[n:].T
        pbar, qbar = 2.0 * pnew - ptab, 2.0 * qnew - qtab
        ptab, qtab = pnew, qnew
        if iterations % 5 == 0 or iterations == opts.max_iter:
            val = obj.value(ptab, qtab)
            if val < best_val:
                best_val, best = val, (ptab.copy(), qtab.copy())
            bound = obj.dual_bound(gp, gq)
            if bound > dual_best:
                dual, dual_best = y, bound
            if best_val - max(lower, dual_best) <= opts.tol:
                break
    return best_val, best, dual, iterations


def ehs_distance(a: Ensemble, b: Ensemble, opts: SolverOptions | None = None) -> SolveReport:
    """Minimal trace distance between pointer embeddings of two ensembles.

    Solves ``(1/2) min sum ‖P(rho,sigma) rho - Q(rho,sigma) sigma‖_1`` over
    table pairs whose P-rows sum to P(rho) and Q-columns sum to Q(sigma),
    warm-started from the coupling.  The bracket is the certificate the
    solve proves: the value, a feasible pair's, is the upper end; the
    lower end is the larger of the trace distance of the ensemble averages
    and the plan's dual bound ``p·row_duals + q·col_duals``, capped at the
    value.  ``converged`` means the bracket is at most ``tol`` wide.
    """
    opts = SolverOptions() if opts is None else opts
    sp = unify_support(a, b)
    lower = trace_distance(average_state(a), average_state(b))
    coupling = kantorovich_distance(a, b).plan
    obj = _DistanceObjective(sp.omega, sp.p, sp.q)
    val, (ptab, qtab), dual, iters = _solve_distance(obj, coupling.table, opts, lower)
    value = float(min(max(val, 0.0), 1.0))
    gp, gq = obj.contract(dual)
    lo = min(max(lower, obj.dual_bound(gp, gq)), value)
    plan = JointPair(ptab, qtab, sp, gp.min(1), gq.min(0), dual)
    return SolveReport(value, plan, iters, (lo, value), value - lo <= opts.tol, "pdhg")


def _rescale_rows(num: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Each row of ``num``, or of each table in a stack ``(s, n, n)``, scaled
    to sum to its mass; a row summing to 0 spreads its mass evenly."""
    rs = num.sum(axis=-1, keepdims=True)
    spread = masses[:, None] * num / np.where(rs > 0.0, rs, 1.0)
    return np.where(rs > 0.0, spread, masses[:, None] / num.shape[-1])


def _bca(p: np.ndarray, q: np.ndarray, w: np.ndarray, table: np.ndarray, opts: SolverOptions):
    """Block coordinate ascent for ``max sum sqrt(P_e Q_e) w_e``, started
    from ``(table, table)``, from the product tables and from
    ``opts.restarts`` random ones.

    For fixed Q the optimal P-row is proportional to ``Q w²`` (Cauchy-Schwarz)
    and symmetrically for Q-columns, so each half-sweep is an exact block
    maximum and the objective never decreases.  The starts sweep in lockstep
    as one stack; each leaves it on the sweep where it stalls (gains less
    than 1e-10) or reaches ``opts.max_iter``, and keeps its own sweep count.
    The first start of highest value is returned, with the sweeps summed
    over the starts.  ``w`` is read only on the rows of ``p`` and the
    columns of ``q`` with mass.
    """
    n = len(p)
    w2 = w * w
    rng = np.random.default_rng(opts.seed)
    project_p, project_q = _RowSimplex(p, n), _RowSimplex(q, n)
    pts, qts = [table, np.outer(p, q)], [table, np.outer(p, q)]
    for _ in range(opts.restarts):
        pts.append(project_p(rng.random((n, n))))
        qts.append(project_q(rng.random((n, n)).T).T)

    def value_of(pt, qt):
        return np.sum(np.sqrt(pt * qt) * w, axis=(1, 2))

    # the stacks hold each start's last tables; the live starts sweep on
    ptabs, qtabs = pt, qt = np.stack(pts), np.stack(qts)
    vals = val = value_of(pt, qt)
    sweeps = np.zeros(len(vals), dtype=int)
    live = np.arange(len(vals))
    for _ in range(opts.max_iter):
        sweeps[live] += 1
        pt = _rescale_rows(qt * w2, p)
        qt = _rescale_rows((pt * w2).swapaxes(1, 2), q).swapaxes(1, 2)
        new = value_of(pt, qt)
        stall = new - val < 1e-10
        val = np.where(stall, np.maximum(val, new), new)
        if stall.any():
            done, keep = live[stall], ~stall
            ptabs[done], qtabs[done], vals[done] = pt[stall], qt[stall], val[stall]
            live, pt, qt, val = live[keep], pt[keep], qt[keep], val[keep]
            if not len(live):
                break
    ptabs[live], qtabs[live], vals[live] = pt, qt, val
    best = int(np.argmax(vals))
    return float(vals[best]), (ptabs[best], qtabs[best]), int(sweeps.sum())


def ehs_fidelity(a: Ensemble, b: Ensemble, opts: SolverOptions | None = None) -> SolveReport:
    """Maximal fidelity between pointer embeddings of two ensembles.

    Maximizes ``sum sqrt(P(rho,sigma) Q(rho,sigma)) F(rho,sigma)`` under the
    same marginal constraints as :func:`ehs_distance`.  The ascent runs on
    the :func:`kantorovich_fidelity` solve's support and ground cost and
    starts from its coupling.  The bracket is the certificate the solve
    proves: from the value, a feasible pair's, up to the least of F(avg)
    and the AM-GM bound ``p·α + Σ_j q_j max_i w_ij²/(4α_i)`` of the plan's
    ``row_duals`` α (inf when some α_i = 0 meets w_ij > 0), or the value
    if higher.  ``converged`` means the bracket is at most ``tol`` wide.
    """
    opts = SolverOptions() if opts is None else opts
    upper = fidelity(average_state(a), average_state(b))
    plan = kantorovich_fidelity(a, b).plan
    sp = plan.support
    val, (pt, qt), sweeps = _bca(sp.p, sp.q, plan.cost, plan.table, opts)
    value = float(min(max(val, 0.0), 1.0))
    # the block maxima's optimality: dV/dP_i = ½ Σ_j √(P_ij Q_ij) w_ij / P_i
    cells = 0.5 * np.sqrt(pt * qt) * plan.cost
    duals = [c / np.where(m > 0.0, m, 1.0) for c, m in ((cells.sum(1), sp.p), (cells.sum(0), sp.q))]
    # AM-GM, √(P Q) w <= α P + Q w²/(4α), bounds F by p·α + Σ_j q_j max_i w²/(4α_i)
    need, alpha = 0.25 * plan.cost**2, duals[0][:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        end = float(sp.p @ duals[0] + sp.q @ np.where(need > 0.0, need / alpha, 0.0).max(0))
    hi = max(value, min(upper, end))
    pair = JointPair(pt, qt, sp, *duals)
    return SolveReport(value, pair, sweeps, (value, hi), hi - value <= opts.tol, "block-ascent")


def ehs_bures(
    a: Ensemble, b: Ensemble, opts: SolverOptions | None = None
) -> tuple[float, float, SolveReport]:
    """Bures length and angle derived from one fidelity solve,
    ``sqrt(1 - F)`` and ``arccos F``, and that solve's report."""
    report = ehs_fidelity(a, b, opts)
    f = report.value
    return float(np.sqrt(1.0 - f)), float(np.arccos(f)), report


def uhlmann_pure_ensembles(rho: np.ndarray, sigma: np.ndarray):
    """Pure-state decompositions of two density matrices whose term-by-term
    overlap realizes the fidelity.

    Both states are purified with a shared reference register, the two
    purifications are aligned by the polar unitary of ``sqrt(rho) sqrt(sigma)``
    (the optimal overlap), and reading the reference register in its basis
    decomposes each state into pure components.  Returns the two ensembles
    and ``sum_i a_i b_i |<psi_i|phi_i>|``, which equals ``F(rho, sigma)`` up
    to roundoff.  Rank-deficient inputs simply produce zero-weight terms,
    which are dropped.  Raises DimMismatch for states of two dimensions.
    """
    sr = mat_sqrt_psd(rho)
    ss = mat_sqrt_psd(sigma)
    if sr.shape != ss.shape:
        raise DimMismatch(f"states of shape {sr.shape} and {ss.shape}")
    u, _, vh = np.linalg.svd(sr @ ss)
    cols_p = sr @ (u @ vh)  # column i = alpha_i |psi_i>
    cols_q = ss
    overlap = float(np.sum(np.abs(np.einsum("ki,ki->i", cols_p.conj(), cols_q))))
    weights = [np.linalg.norm(cols, axis=0) ** 2 for cols in (cols_p, cols_q)]
    ens_p, ens_q = (
        make_ensemble([(w[i], pure_state(c[:, i])) for i in range(len(w)) if w[i] > 0.0])
        for c, w in zip((cols_p, cols_q), weights)
    )
    return ens_p, ens_q, overlap


def pure_ensemble_fidelity(
    a: Ensemble, b: Ensemble, opts: SolverOptions | None = None
) -> SolveReport:
    """Pointer-embedding fidelity (:func:`ehs_fidelity`) of pure-state
    ensembles, whose pairwise fidelity is the overlap ``|<psi|phi>|``, as
    its report.

    Raises NotPure when any state has purity ``Tr rho²`` below ``1 - 1e-8``.
    """
    states = np.concatenate([a.states, b.states])
    purity = float(np.min(np.einsum("kij,kji->k", states, states).real))
    if purity < 1.0 - _PURITY_TOL:
        raise NotPure(f"state purity {purity} below {1 - _PURITY_TOL}")
    return ehs_fidelity(a, b, opts)


def distance_objective(a: Ensemble, b: Ensemble) -> Callable:
    """Handle returning ``(value, grad_p, grad_q)`` of the distance objective
    at a table pair; used for derivative cross-checks."""
    sp = unify_support(a, b)
    obj = _DistanceObjective(sp.omega, sp.p, sp.q)

    def evaluate(ptab: np.ndarray, qtab: np.ndarray):
        return obj(np.asarray(ptab, float), np.asarray(qtab, float))

    return evaluate


def fidelity_objective(a: Ensemble, b: Ensemble) -> Callable:
    """Handle returning ``(value, grad_p, grad_q)`` of the fidelity objective
    at an interior table pair."""
    sp = unify_support(a, b)
    w = pairwise_matrix(sp.omega, "fidelity")

    def evaluate(ptab: np.ndarray, qtab: np.ndarray):
        ptab = np.asarray(ptab, float)
        qtab = np.asarray(qtab, float)
        value = float(np.sum(np.sqrt(ptab * qtab) * w))
        with np.errstate(divide="ignore", invalid="ignore"):
            gp = np.where(ptab > 0.0, 0.5 * np.sqrt(qtab / np.where(ptab > 0, ptab, 1)) * w, 0.0)
            gq = np.where(qtab > 0.0, 0.5 * np.sqrt(ptab / np.where(qtab > 0, qtab, 1)) * w, 0.0)
        return value, gp, gq

    return evaluate
