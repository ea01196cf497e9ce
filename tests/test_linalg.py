import numpy as np
import pytest

from ensemble_metrics.errors import DimMismatch, NotHermitian, NotPSD, OutOfRange
from ensemble_metrics.linalg import (
    as_operator,
    fidelity,
    helstrom_pmax,
    herm_eig,
    mat_pinv_sqrt_psd,
    mat_sqrt_psd,
    pair_values,
    pairwise_block,
    pairwise_matrix,
    partial_trace,
    tensor,
    trace_distance,
    trace_norm,
    von_neumann_entropy,
)

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]])
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]])
PLUS = np.full((2, 2), 0.5)
MIXED = np.eye(2) / 2


def _rand_herm(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def _rand_density(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def test_as_operator_rejects_non_square():
    with pytest.raises(DimMismatch):
        as_operator(np.zeros((2, 3)))
    with pytest.raises(DimMismatch):
        as_operator(np.zeros(4))
    with pytest.raises(ValueError):
        as_operator(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_herm_eig_reconstructs_and_sorts():
    for seed in range(4):
        a = _rand_herm(3, seed)
        dec = herm_eig(a)
        w, v = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(w) <= 1e-12), "eigenvalues not descending"
        assert np.allclose((v * w) @ v.conj().T, a, atol=1e-12)
        assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_matches_singular_values():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(trace_norm(a) - np.linalg.svd(a, compute_uv=False).sum()) <= 1e-10
    h = _rand_herm(4, 8)
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) <= 1e-10


def test_trace_distance_known_values():
    assert trace_distance(KET0, KET1) == 1.0
    assert trace_distance(KET0, KET0) == 0.0
    assert abs(trace_distance(KET0, PLUS) - 1.0 / np.sqrt(2)) <= 1e-12
    assert abs(trace_distance(KET0, MIXED) - 0.5) <= 1e-12


def test_trace_distance_symmetric_and_bounded():
    for seed in range(5):
        rho = _rand_density(3, seed)
        sigma = _rand_density(3, 50 + seed)
        d1 = trace_distance(rho, sigma)
        assert abs(d1 - trace_distance(sigma, rho)) <= 1e-14
        assert 0.0 <= d1 <= 1.0
    with pytest.raises(DimMismatch):
        trace_distance(np.eye(2) / 2, np.eye(3) / 3)


def _rand_state(rng, d, rank):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _per_pair(kind, rho, sigma):
    """The unbatched formulas that pairwise_matrix evaluates row by row."""
    if kind == "distance":
        o = rho - sigma
        value = 0.5 * np.sum(np.abs(np.linalg.eigvalsh((o + o.conj().T) / 2.0)))
    else:
        value = np.sum(np.linalg.svd(mat_sqrt_psd(rho) @ mat_sqrt_psd(sigma), compute_uv=False))
    return min(max(float(value), 0.0), 1.0)


@pytest.mark.parametrize("kind, metric, diag", [
    ("distance", trace_distance, 0.0), ("fidelity", fidelity, 1.0),
])
def test_pairwise_matrix_matches_per_pair_functions(kind, metric, diag):
    rng = np.random.default_rng(11)
    for _ in range(12):
        d = int(rng.integers(2, 9))
        ranks = [1, d] + [int(r) for r in rng.integers(1, d + 1, size=int(rng.integers(1, 6)))]
        states = [_rand_state(rng, d, r) for r in ranks]
        got = pairwise_matrix(states, kind)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == diag)
        for i in range(len(states)):
            for j in range(i + 1, len(states)):
                assert got[i, j] == _per_pair(kind, states[i], states[j])
                assert abs(got[i, j] - metric(states[i], states[j])) <= 1e-15
    with pytest.raises(OutOfRange):
        pairwise_matrix(states, "overlap")


def _per_row(kind, states):
    """The matrix as it was computed before pairs went in blocks: one
    batched ``eigvalsh`` or ``svd`` per upper-triangle row."""
    n = len(states)
    if kind == "distance":
        stack, out = np.asarray(states, dtype=complex), np.zeros((n, n))
    else:
        stack, out = np.asarray([mat_sqrt_psd(s) for s in states]), np.eye(n)
    for i in range(n - 1):
        if kind == "distance":
            o = stack[i] - stack[i + 1 :]
            h = (o + o.conj().swapaxes(-1, -2)) / 2.0
            row = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(h)), axis=-1)
        else:
            row = np.sum(np.linalg.svd(stack[i] @ stack[i + 1 :], compute_uv=False), axis=-1)
        out[i, i + 1 :] = out[i + 1 :, i] = np.clip(row, 0.0, 1.0)
    return out


@pytest.mark.parametrize("kind", ["distance", "fidelity"])
@pytest.mark.parametrize("d", [2, 4, 8])
def test_blocked_kernels_equal_the_per_row_formula_bit_for_bit(kind, d):
    rng = np.random.default_rng(d)
    # 14 states: 91 pairs, more than one block of 64
    a = [_rand_state(rng, d, int(rng.integers(1, d + 1))) for _ in range(9)]
    b = [_rand_state(rng, d, int(rng.integers(1, d + 1))) for _ in range(5)]
    states = a + b
    ref = _per_row(kind, states)
    assert np.array_equal(pairwise_matrix(states, kind), ref)
    # a support block as a coupling reads it: every state of a against the
    # states of b, two of which merged into earlier states of a (columns 2
    # and 6), so entries below the diagonal must still be taken lower index
    # first
    rows, cols = np.arange(9), np.array([2, 6, 9, 10, 11, 12, 13])
    block = pairwise_block(states, rows, cols, kind)
    assert block.shape == (9, 7)
    assert np.array_equal(block, ref[np.ix_(rows, cols)])
    big = pairwise_block(states, np.arange(14), np.arange(14)[::-1], kind)
    assert np.array_equal(big, ref[:, ::-1])
    # rows and columns with no state in common: every cell is its own pair,
    # read lower index first either way round; given roots give the same
    a, b = np.arange(9), np.arange(9, 14)
    roots = mat_sqrt_psd(np.asarray(states)) if kind == "fidelity" else None
    for rows, cols in ((a, b), (b, a), (b[::-1], a[::2])):
        want = ref[np.ix_(rows, cols)]
        assert np.array_equal(pairwise_block(states, rows, cols, kind), want)
        assert np.array_equal(pairwise_block(states, rows, cols, kind, roots), want)
    first, second = np.triu_indices(14, 1)
    assert np.array_equal(pair_values(states, first, second, kind), ref[first, second])
    with pytest.raises(OutOfRange):
        pairwise_block(states, rows, cols, "overlap")


def test_fidelity_known_values():
    assert fidelity(KET0, KET0) == 1.0
    assert fidelity(KET0, KET1) == 0.0
    assert abs(fidelity(KET0, MIXED) - 1.0 / np.sqrt(2)) <= 1e-12
    # pure targets reduce to sqrt of the overlap
    assert abs(fidelity(MIXED, PLUS) - np.sqrt(0.5)) <= 1e-12


def test_fidelity_symmetric_and_unitarily_invariant():
    rng = np.random.default_rng(9)
    for seed in range(5):
        rho = _rand_density(3, seed)
        sigma = _rand_density(3, 70 + seed)
        f = fidelity(rho, sigma)
        assert abs(f - fidelity(sigma, rho)) <= 1e-8
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(g)
        fu = fidelity(u @ rho @ u.conj().T, u @ sigma @ u.conj().T)
        assert abs(f - fu) <= 1e-8


def test_fidelity_trace_distance_fuchs_van_de_graaf():
    for seed in range(8):
        rho = _rand_density(2, seed)
        sigma = _rand_density(2, 100 + seed)
        d = trace_distance(rho, sigma)
        f = fidelity(rho, sigma)
        assert 1.0 - f - 1e-10 <= d <= np.sqrt(1.0 - f * f) + 1e-10


def test_mat_sqrt_psd_squares_back():
    for seed in range(4):
        rho = _rand_density(4, seed)
        r = mat_sqrt_psd(rho)
        assert np.allclose(r @ r, rho, atol=1e-10)
    with pytest.raises(NotPSD):
        mat_sqrt_psd(np.diag([1.0, -0.5]))


def test_mat_pinv_sqrt_psd_inverts_the_root_on_the_support():
    # rank 2 of 4: the root and its pseudo-inverse multiply to the
    # projector onto the support, and the null space stays null
    g = _rand_density(4, 7)[:, :2]
    a = g @ g.conj().T
    proj = g @ np.linalg.pinv(g)
    inv = mat_pinv_sqrt_psd(a)
    assert np.allclose(inv @ mat_sqrt_psd(a), proj, atol=1e-9)
    assert np.allclose(inv @ a @ inv, proj, atol=1e-9)
    assert np.abs(inv @ (np.eye(4) - proj)).max() <= 1e-6
    with pytest.raises(NotPSD):
        mat_pinv_sqrt_psd(np.diag([1.0, -0.5]))


@pytest.mark.parametrize("root", [mat_sqrt_psd, mat_pinv_sqrt_psd])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_stacked_roots_equal_per_matrix_roots_bit_for_bit(root, d):
    rng = np.random.default_rng(30 + d)
    mats = [_rand_state(rng, d, r) for r in range(1, d + 1) for _ in range(3)]
    mats.append(np.zeros((d, d)))
    stacked = root(np.asarray(mats))
    assert stacked.shape == (len(mats), d, d)
    for got, mat in zip(stacked, mats):
        assert np.array_equal(got, root(mat))
    # any leading shape
    assert np.array_equal(root(np.asarray(mats[:4]).reshape(2, 2, d, d))[1, 0], root(mats[2]))


@pytest.mark.parametrize("root", [mat_sqrt_psd, mat_pinv_sqrt_psd])
def test_stacked_roots_check_every_member(root):
    good = _rand_density(3, 1)
    non_psd = np.diag([0.5, 0.7, -0.2])
    non_herm = good + np.triu(np.full((3, 3), 1e-9), 1)
    with pytest.raises(NotPSD):
        root(np.asarray([good, non_psd, good]))
    with pytest.raises(NotHermitian):
        root(np.asarray([good, good, non_herm]))
    with pytest.raises(DimMismatch):
        root(np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        root(np.asarray([good, np.full((3, 3), np.nan)]))


def test_von_neumann_entropy_limits():
    assert von_neumann_entropy(KET0) == 0.0
    assert abs(von_neumann_entropy(np.eye(4) / 4) - 2.0) <= 1e-12
    assert abs(von_neumann_entropy(np.diag([0.5, 0.5, 0.0])) - 1.0) <= 1e-12


def test_helstrom_pmax_equal_priors():
    for seed in range(5):
        rho = _rand_density(2, seed)
        sigma = _rand_density(2, 40 + seed)
        pmax, proj = helstrom_pmax(rho, sigma, 0.5)
        assert abs(2.0 * pmax - 1.0 - trace_distance(rho, sigma)) <= 1e-12
        assert np.allclose(proj, proj.conj().T, atol=1e-12)
        assert np.allclose(proj @ proj, proj, atol=1e-12)


def test_helstrom_pmax_general_prior():
    rho, sigma = _rand_density(3, 1), _rand_density(3, 2)
    for p in (0.1, 0.3, 0.9):
        pmax, proj = helstrom_pmax(rho, sigma, p)
        direct = p * np.trace(proj @ rho).real + (1 - p) * (1 - np.trace(proj @ sigma).real)
        assert abs(pmax - direct) <= 1e-12
        assert pmax >= max(p, 1 - p) - 1e-12
    with pytest.raises(OutOfRange):
        helstrom_pmax(rho, sigma, 1.5)


def test_tensor_and_partial_trace_roundtrip():
    rho = _rand_density(2, 3)
    tau = _rand_density(3, 4)
    both = tensor(rho, tau)
    assert both.shape == (6, 6)
    assert np.allclose(partial_trace(both, (2, 3), "A"), rho, atol=1e-12)
    assert np.allclose(partial_trace(both, (2, 3), "B"), tau, atol=1e-12)
    with pytest.raises(DimMismatch):
        partial_trace(both, (4, 2), "A")
    with pytest.raises(OutOfRange):
        partial_trace(both, (2, 3), "C")
    # (-2) x (-2) is 4 too, so only the sign of the factors tells it apart
    with pytest.raises(DimMismatch, match="is not -2x-2 bipartite"):
        partial_trace(np.eye(4), (-2, -2), "A")
