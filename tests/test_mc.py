"""Monte Carlo sampling, weighted histograms with jackknife errors, and
Haar-unitary group averages."""

import itertools
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal
from scipy.stats import ks_2samp

from rmtcorr import mc
from rmtcorr.ensembles import EnsembleSpec, reduced_density
from rmtcorr.engine import CorrelationRequest, evaluate
from rmtcorr.kernels import IncrementedPoint, hciz_exact
from rmtcorr.mc import (SampleBatch, sample_batch, estimate_r1, estimate_r2, gaussian_tiles,
                        haar_unitary, hciz_mc, _haar_columns,
                        _jackknife_ratio)


def gaussian_matrices(rng, N, count):
    """The matrices of gaussian_tiles as one (count, N, N) stack."""
    return np.concatenate(list(gaussian_tiles(rng, N, count)))


def test_sampling_deterministic_by_seed():
    spec = EnsembleSpec.gaussian(3)
    a = sample_batch(spec, 5000, 11)
    b = sample_batch(spec, 5000, 11)
    c = sample_batch(spec, 5000, 12)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert not np.array_equal(a.eigenvalues, c.eigenvalues)


def test_sampling_rejects_empty():
    with pytest.raises(ValueError):
        sample_batch(EnsembleSpec.gaussian(2), 0, 1)


def test_gaussian_weights_are_unit():
    batch = sample_batch(EnsembleSpec.gaussian(3), 2000, 4)
    assert np.all(batch.weights == 1.0)
    assert batch.effective_sample_size() == 2000.0


def test_ess_warning_for_heavy_weights():
    spec = EnsembleSpec.higher_trace(2, 16, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = sample_batch(spec, 20000, 3)
    assert batch.effective_sample_size() < 0.01 * batch.count
    assert batch.warnings


def test_histogram_integral_counts_levels():
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 2, 1)):
        batch = sample_batch(spec, 100000, 6)
        hist = estimate_r1(batch, (-4.0, 4.0, 60))
        # finite range loses only the far Gaussian tail
        assert abs(hist.integral() - spec.N) < 0.05


def test_gaussian_histogram_matches_closed_form():
    spec = EnsembleSpec.gaussian(2)
    batch = sample_batch(spec, 200000, 7)
    hist = estimate_r1(batch, (-3.0, 3.0, 30))
    bad = 0
    for x, d, e in zip(hist.centers(), hist.density, hist.errors):
        req = CorrelationRequest(spec, 1, [IncrementedPoint(x)],
                                 "R", "closed_form_gue")
        ref = float(np.real(evaluate(req).value))
        if abs(d - ref) > 3 * max(e, 1e-12) + 0.01:
            bad += 1
    assert bad <= 2


def test_r2_histogram_symmetric_and_normalized():
    spec = EnsembleSpec.gaussian(3)
    batch = sample_batch(spec, 50000, 9)
    hist = estimate_r2(batch, (-3.5, 3.5, 20))
    assert np.max(np.abs(hist.density - hist.density.T)) < \
        3 * np.max(hist.errors + hist.errors.T)
    width = hist.edges[1] - hist.edges[0]
    total = np.sum(hist.density) * width * width
    assert abs(total - spec.N * (spec.N - 1)) < 0.2


# -- the tridiagonal beta = 2 sampler ---------------------------------------

def tridiagonal_reference(seed, N, count):
    """The documented draw order replayed on scipy's tridiagonal solver: the
    (count, N) diagonal, then the (count, N-1) subdiagonal."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((count, N)) * np.sqrt(0.5)
    b = np.sqrt(rng.chisquare(2.0 * (N - np.arange(1, N)), (count, N - 1))) / 2
    return np.array([eigvalsh_tridiagonal(a[s], b[s]) for s in range(count)])


@pytest.mark.parametrize("N,scale,seed", [(1, 1.0, 31), (2, 0.7, 32), (4, 1.0, 33),
                                          (7, 1.6, 34)])
def test_sampler_trace_moments_exact(N, scale, seed):
    # E tr H^2 = s N^2/2 and E tr H^4 = s^2 (2N^3 + N)/4 under exp(-tr H^2/s)
    ev = sample_batch(EnsembleSpec.gaussian(N, scale), 40000, seed).eigenvalues
    for power, exact in ((2, scale * N * N / 2), (4, scale ** 2 * (2 * N ** 3 + N) / 4)):
        tr = np.sum(ev ** power, axis=1)
        assert abs(tr.mean() - exact) <= 4 * tr.std() / np.sqrt(len(tr)), (power, exact)


@pytest.mark.parametrize("N,seed", [(3, 41), (5, 42)])
def test_sampler_extreme_eigenvalues_match_dense_matrices(N, seed):
    # the tridiagonal model and the dense exp(-tr H^2) matrices share the
    # law of the spectrum, so of its smallest and largest eigenvalue
    ev = sample_batch(EnsembleSpec.gaussian(N), 20000, seed).eigenvalues
    dense = np.linalg.eigvalsh(gaussian_matrices(np.random.default_rng(seed + 100), N, 20000))
    for j in (0, -1):
        assert ks_2samp(ev[:, j], dense[:, j]).pvalue > 1e-3, j


# the first two gaussian(3) samples at seed 2026, eigenvalues ascending
PINNED_FIRST_DRAWS = [[-2.1526121776646354, -0.6529206500218683, 1.073914911995329],
                      [-0.7561597304442047, 0.4736277210285056, 1.5143254331008627]]


def test_sampler_draw_order_and_first_draws():
    got = sample_batch(EnsembleSpec.gaussian(3), 50, 2026).eigenvalues
    assert np.max(np.abs(got - tridiagonal_reference(2026, 3, 50))) <= 1e-13
    assert np.max(np.abs(got[:2] - PINNED_FIRST_DRAWS)) <= 1e-13
    one = sample_batch(EnsembleSpec.gaussian(1), 4, 5).eigenvalues
    assert np.array_equal(one, tridiagonal_reference(5, 1, 4))


def test_sampler_spreads_scale_unit_draws():
    # one node: the unit draws times sqrt(2 t0), no node draw
    unit = sample_batch(EnsembleSpec.gaussian(4), 3000, 8).eigenvalues
    spike = sample_batch(EnsembleSpec.norm_dependent(4, ("spike", 0.3)), 3000, 8)
    assert np.array_equal(spike.eigenvalues, unit * np.sqrt(0.6))
    # several nodes: one node per sample first, then the unit draws
    t = np.linspace(0.2, 1.4, 21)
    spec = EnsembleSpec.norm_dependent(4, (t, np.full(21, 1 / 1.2)))
    batch = sample_batch(spec, 3000, 8)
    nodes, w = spec.spread_nodes
    rng = np.random.default_rng(8)
    tv = rng.choice(nodes, size=3000, p=w / w.sum())
    assert np.array_equal(batch.eigenvalues,
                          mc._gaussian_eigs(rng, 4, 3000) * np.sqrt(2 * tv)[:, None])


def test_sample_batch_builds_no_dense_matrix(monkeypatch):
    def dense(*args):
        raise AssertionError("dense matrices built")

    monkeypatch.setattr(mc, "gaussian_tiles", dense)
    monkeypatch.setattr(mc, "_ginibre", dense)
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 4, 1),
                 EnsembleSpec.norm_dependent(3, ("spike", 0.4))):
        assert sample_batch(spec, 100, 1).count == 100


def test_haar_matrices_are_unitary():
    for seed in (1, 5):
        U = haar_unitary(4, seed)
        assert np.max(np.abs(U @ U.conj().T - np.eye(4))) < 1e-12


def test_haar_column_distribution():
    # Haar invariance: E|U_ab|^2 = 1/N for every entry
    acc = np.zeros((3, 3))
    M = 4000
    for seed in range(M):
        U = haar_unitary(3, seed)
        acc += np.abs(U) ** 2
    acc /= M
    assert np.max(np.abs(acc - 1.0 / 3.0)) < 0.02


def test_hciz_mc_matches_exact():
    E = np.array([0.2, -0.9, 1.1])
    R = np.array([0.5, 1.3, -0.4])
    exact = hciz_exact(E, R)
    est, err = hciz_mc(E, R, 300000, seed=21)
    assert abs(est - exact) < 3 * err


def test_hciz_mc_rejects_bad_inputs():
    with pytest.raises(ValueError):
        hciz_mc([0.1, 0.2], [0.3, 0.4], 0, seed=1)
    with pytest.raises(ValueError):
        hciz_mc([0.1, 0.2], [0.3, 0.4], -5, seed=1)
    with pytest.raises(ValueError):
        hciz_mc([0.1, 0.2], [0.3, 0.4], 99.5, seed=1)
    with pytest.raises(ValueError):
        hciz_mc([0.1, 0.2], [0.3, 0.4, 0.5], 1000, seed=1)


def test_int_power_squares_repeatedly():
    # exact where every product is: small integers
    x = np.arange(-7.0, 8.0)
    for n in range(10):
        assert np.array_equal(mc._int_power(x, n), x ** n)
    # within a few ulps of the C library's pow elsewhere
    y = np.random.default_rng(3).standard_normal(1000)
    for n in range(10):
        assert np.all(np.abs(mc._int_power(y, n) - y ** n) <= n * np.spacing(np.abs(y ** n)))
    # the (4, 1) trace-power weights are sums of squared squares
    batch = sample_batch(EnsembleSpec.higher_trace(4, 4, 1), 2000, 5)
    assert np.array_equal(batch.weights, np.sum((batch.eigenvalues ** 2) ** 2, axis=1))


# 37 tiles at N=2, and N=3 with blocks of 61 and 60 samples
@pytest.mark.parametrize("N,samples,seed", [(2, 300000, 5), (3, 12150, 8)])
def test_hciz_mc_stacked_pairs_equal_single_pair_calls(N, samples, seed):
    rng = np.random.default_rng(N)
    E, R = rng.uniform(-2, 2, (2, 3, N))
    est, err = hciz_mc(E, R, samples, seed)
    assert est.shape == err.shape == (3,)
    for p in range(3):
        assert (est[p], err[p]) == hciz_mc(E[p], R[p], samples, seed)


@pytest.mark.parametrize("E,R", [
    (np.zeros((3, 2)), np.zeros((2, 2))),
    (np.zeros((3, 2)), np.zeros((3, 3))),
    (np.zeros((3, 2)), np.zeros(2)),
    (np.zeros((1, 3, 2)), np.zeros((1, 3, 2))),
])
def test_hciz_mc_rejects_mismatched_stacks(E, R):
    with pytest.raises(ValueError, match="one shape"):
        hciz_mc(E, R, 1000, seed=1)


@pytest.mark.parametrize("bins", [(1.0, 1.0, 10), (2.0, -1.0, 10), (-1.0, 1.0, 0),
                                  (-3.0, np.inf, 4), (np.nan, 1.0, 4), (-1e308, 1e308, 4),
                                  (-1.0, 1.0, 2.5), (-1.0, 1.0, np.nan), (-1.0, 1.0, np.inf)])
def test_histograms_reject_bad_bins(bins):
    # a span hi - lo that is not finite (an end that is not, or ends too far
    # apart), or a count that is not a whole number, has its own refusal
    whole = np.isfinite(bins[1] - bins[0]) and float(bins[2]).is_integer()
    message = "hi > lo" if whole else "a finite hi - lo and a whole count"
    batch = sample_batch(EnsembleSpec.gaussian(2), 500, 3)
    with pytest.raises(ValueError, match=message):
        estimate_r1(batch, bins)
    with pytest.raises(ValueError, match=message):
        estimate_r2(batch, bins)


def test_histograms_take_a_whole_count_of_any_type():
    batch = sample_batch(EnsembleSpec.gaussian(2), 500, 3)
    for estimate in (estimate_r1, estimate_r2):
        want = estimate(batch, (-2.0, 2.0, 8))
        for nb in (8.0, np.int64(8), np.float32(8)):
            got = estimate(batch, (-2.0, 2.0, nb))
            assert np.array_equal(got.density, want.density) and np.array_equal(got.edges, want.edges)


# -- batched kernels against the per-block code they replaced ------------

def qr_haar(A):
    """LAPACK QR with the diagonal phases of R moved into Q."""
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_haar_gram_schmidt_matches_qr(N):
    count = 2000
    rng = np.random.default_rng(40 + N)
    A = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    U = _haar_columns(np.stack([A.real, A.imag])).transpose(2, 1, 0)
    assert U.shape == (count, N, N)
    assert np.max(np.abs(U - qr_haar(A))) < 1e-13
    eye = np.eye(N)
    assert np.max(np.abs(U @ U.conj().transpose(0, 2, 1) - eye)) < 1e-12
    assert np.max(np.abs(U.conj().transpose(0, 2, 1) @ U - eye)) < 1e-12
    for seed in (0, 9):
        r = np.random.default_rng(seed)
        A1 = r.standard_normal((1, N, N)) + 1j * r.standard_normal((1, N, N))
        assert np.max(np.abs(haar_unitary(N, seed) - qr_haar(A1)[0])) < 1e-13


def gaussian_reference(z, N, diag=()):
    """Hermitean matrices built entry by entry from rows z of standard
    normals: per matrix the free diagonal at variance 1/2, then the real
    parts of the upper triangle, row by row, then their imaginary parts,
    at 1/4; the first len(diag) diagonal entries are diag."""
    k = len(diag)
    iu, ju = np.triu_indices(N, 1)
    H = np.zeros((len(z), N, N), dtype=complex)
    for s, row in enumerate(z):
        for j in range(N):
            H[s, j, j] = diag[j] if j < k else row[j - k] * np.sqrt(0.5)
        for n, (a, b) in enumerate(zip(iu, ju)):
            H[s, a, b] = complex(0.5 * row[N - k + n], 0.5 * row[N - k + len(iu) + n])
            H[s, b, a] = H[s, a, b].conjugate()
    return H


@pytest.mark.parametrize("N", [2, 4])
def test_gaussian_and_haar_draws_are_two_standard_normal_calls(N):
    # gaussian_matrices: one (count, N*N) call, N*N normals a matrix;
    # haar_unitary: _ginibre's one (2, 1, N, N) call draws what two
    # successive (1, N, N) calls draw, the real parts, then the imaginary
    count = 6
    for seed in (0, 9):
        z = np.random.default_rng(seed).standard_normal((count, N * N))
        H = gaussian_matrices(np.random.default_rng(seed), N, count)
        assert np.array_equal(H, gaussian_reference(z, N))
        r = np.random.default_rng(seed)
        parts = np.stack([r.standard_normal((1, N, N)), r.standard_normal((1, N, N))])
        assert np.array_equal(haar_unitary(N, seed), _haar_columns(parts)[:, :, 0].T)


@pytest.mark.parametrize("N,diag", [(5, [0.3, -1.7, 2.5e-300]), (4, [0.1, -0.2, 0.3, 0.4]),
                                    (3, [])])
def test_gaussian_tiles_keep_the_fixed_diagonal(N, diag):
    # over several tiles: the fixed entries as given, exactly, and the free
    # ones from N*N - len(diag) normals a matrix, none drawn for diag
    count, seed = 3 * (mc.TILE // (N * N)) + 5, 4
    tiles = list(gaussian_tiles(np.random.default_rng(seed), N, count, diag))
    assert len(tiles) == 4
    H = np.concatenate(tiles)
    k = len(diag)
    assert np.array_equal(H[:, range(k), range(k)], np.broadcast_to(diag, (count, k)))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count, N * N - k))
    assert np.array_equal(H, gaussian_reference(z, N, diag))
    # the stream goes on where one call of that size leaves it
    after = np.random.default_rng(seed)
    list(gaussian_tiles(after, N, count, diag))
    assert after.standard_normal() == rng.standard_normal()


class RowRecorder:
    """A generator's standard_normal that records the rows of each call."""

    def __init__(self, seed):
        self.rng, self.rows = np.random.default_rng(seed), []

    def standard_normal(self, size):
        self.rows.append(size[0])
        return self.rng.standard_normal(size)


@pytest.mark.parametrize("N,diag", [(5, [0.3, -1.7]), (3, [])])
def test_gaussian_tiles_draw_one_tile_a_call(N, diag):
    # each tile's normals are drawn as the tile is built, at most one tile
    # of rows a call, and together they are the stream of one call
    count, seed = 3 * (mc.TILE // (N * N)) + 5, 6
    rng = RowRecorder(seed)
    tiles = []
    for H in gaussian_tiles(rng, N, count, diag):
        tiles.append(H)
        assert len(rng.rows) == len(tiles) and rng.rows[-1] == len(H)
    assert max(rng.rows) <= mc.TILE // (N * N) and sum(rng.rows) == count
    z = np.random.default_rng(seed).standard_normal((count, N * N - len(diag)))
    assert np.array_equal(np.concatenate(tiles), gaussian_reference(z, N, diag))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_haar_moduli_doubly_stochastic(N):
    # every row and column of |U_{b a}|^2 sums to 1 within 4 ulps; the last
    # column is 1 minus the rows' other entries, so its sum is off by what
    # the other columns' sums are, plus at most 4 ulps (sums in extended
    # precision, so that only the moduli's own rounding shows)
    U2 = mc._haar_moduli(np.random.default_rng(N), N, 20000)
    assert U2.shape == (N * N, 20000)
    U2 = U2.reshape(N, N, -1).astype(np.longdouble)
    ulp = np.spacing(1.0)
    rows = np.abs(U2.sum(axis=0) - 1)
    cols = np.abs(U2.sum(axis=1) - 1)
    assert np.all(U2 > 0)
    assert rows.max() <= 4 * ulp and cols[:-1].max(initial=0) <= 4 * ulp
    assert np.max(cols[-1] - cols[:-1].sum(axis=0)) <= 4 * ulp


@pytest.mark.parametrize("N", [2, 3, 5])
def test_haar_moduli_draw_only_the_first_columns(N):
    # one (2, count, N, N-1) draw, real parts, then imaginary parts; its
    # columns give the first N-1 columns of the moduli, == those of a full
    # N x N draw's Gram-Schmidt with any last column, and within 1e-13 of
    # LAPACK QR's (Gram-Schmidt and Householder round apart)
    count, seed = mc.TILE // (N * N) + 9, 30 + N
    U2 = mc._haar_moduli(np.random.default_rng(seed), N, count)
    rng = np.random.default_rng(seed)
    re, im = rng.standard_normal((2, count, N, N - 1))
    last = rng.standard_normal((2, count, N, 1))
    X = _haar_columns((np.concatenate([re, last[0]], axis=2),
                       np.concatenate([im, last[1]], axis=2)))
    head = (X.real ** 2 + X.imag ** 2)[: N - 1].reshape(N * (N - 1), count)
    assert np.array_equal(U2[: N * (N - 1)], head)
    qr = haar_moduli_qr(re, im).transpose(2, 1, 0).reshape(N * N, count)
    assert np.max(np.abs(U2 - qr)) < 1e-13
    # the last column is that of the whole unitary, completed by LAPACK
    full = qr_haar(np.concatenate([re, last[0]], axis=2) + 1j * np.concatenate([im, last[1]], axis=2))
    assert np.max(np.abs(U2 - (np.abs(full) ** 2).transpose(2, 1, 0).reshape(N * N, count))) < 1e-13


def test_haar_columns_stay_unitary_when_ill_conditioned():
    # nearly parallel columns: one Gram-Schmidt pass loses orthogonality
    # in proportion to cond(A)^2, the second pass restores it
    rng = np.random.default_rng(3)
    N, count = 5, 200
    base = rng.standard_normal((count, N, 1)) + 1j * rng.standard_normal((count, N, 1))
    noise = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    A = base + 1e-6 * noise
    X = _haar_columns(np.stack([A.real, A.imag]))
    U = X.transpose(2, 1, 0)
    assert np.max(np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(N))) < 1e-12


def r1_block_loop(batch, bins):
    lo, hi, nb = bins
    edges = np.linspace(lo, hi, nb + 1)
    width = edges[1] - edges[0]
    B = min(200, batch.count)
    idx = np.array_split(np.arange(batch.count), B)
    num = np.empty((B, nb))
    den = np.empty((B, 1))
    for b, ix in enumerate(idx):
        ev = batch.eigenvalues[ix]
        w = np.repeat(batch.weights[ix], ev.shape[1])
        num[b] = np.histogram(ev.ravel(), bins=edges, weights=w)[0]
        den[b, 0] = np.sum(batch.weights[ix]) * width
    return _jackknife_ratio(num, den)


def r2_block_loop(batch, grid):
    lo, hi, nb = grid
    edges = np.linspace(lo, hi, nb + 1)
    width = edges[1] - edges[0]
    N = batch.eigenvalues.shape[1]
    pairs = [(p, q) for p in range(N) for q in range(N) if p != q]
    B = min(200, batch.count)
    idx = np.array_split(np.arange(batch.count), B)
    num = np.empty((B, nb, nb))
    den = np.empty((B, 1, 1))
    for b, ix in enumerate(idx):
        ev = batch.eigenvalues[ix]
        x = np.concatenate([ev[:, p] for p, q in pairs])
        y = np.concatenate([ev[:, q] for p, q in pairs])
        w = np.tile(batch.weights[ix], len(pairs))
        num[b] = np.histogram2d(x, y, bins=(edges, edges), weights=w)[0]
        den[b, 0, 0] = np.sum(batch.weights[ix]) * width * width
    return _jackknife_ratio(num, den)


def edge_batch(count, N, bins, seed):
    """Eigenvalues with a share on bin edges, one ulp either side of them,
    and outside the range, and uneven positive weights."""
    lo, hi, nb = bins
    edges = np.linspace(lo, hi, nb + 1)
    rng = np.random.default_rng(seed)
    ev = rng.uniform(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo), (count, N))
    pick = rng.random((count, N))
    near = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    ev[pick < 0.3] = rng.choice(near, size=int(np.sum(pick < 0.3)))
    ev[(pick >= 0.3) & (pick < 0.35)] = hi
    return SampleBatch(ev, rng.uniform(0.1, 3.0, count), seed, None)


@pytest.mark.parametrize("count,N,bins", [
    (157, 3, (-1.0, 2.0, 7)),       # fewer samples than blocks
    (1234, 4, (-3.5, 3.5, 80)),     # blocks of 7 and of 6
    (5000, 2, (0.1, 0.7, 3)),
    (999, 3, (-2.4, 2.4, 1)),
])
def test_histograms_match_block_loop(count, N, bins):
    batch = edge_batch(count, N, bins, seed=count)
    for new, old in ((estimate_r1, r1_block_loop), (estimate_r2, r2_block_loop)):
        hist = new(batch, bins)
        est, err = old(batch, bins)
        assert np.array_equal(hist.edges, np.linspace(*bins[:2], bins[2] + 1))
        assert hist.density.shape == est.shape
        assert np.max(np.abs(hist.density - est)) <= 1e-12 * np.max(np.abs(est))
        assert np.max(np.abs(hist.errors - err)) <= 1e-12 * np.max(np.abs(err))


def test_histograms_match_block_loop_on_sampled_batch():
    spec = EnsembleSpec.higher_trace(4, 4, 1)
    batch = sample_batch(spec, 30000, 12)
    for new, old, bins in ((estimate_r1, r1_block_loop, (-3.5, 3.5, 80)),
                           (estimate_r2, r2_block_loop, (-2.4, 2.4, 8))):
        hist = new(batch, bins)
        est, err = old(batch, bins)
        assert np.max(np.abs(hist.density - est)) <= 1e-12 * np.max(est)
        assert np.max(np.abs(hist.errors - err)) <= 1e-12 * np.max(err)


def haar_moduli_qr(re, im):
    """|U_{s, b a}|^2 (count, N, N) of the Haar unitaries whose first N-1
    columns are LAPACK QR's of the (count, N, N-1) draws, the last from
    the unit rows."""
    U2 = np.abs(qr_haar(re + 1j * im)) ** 2
    return np.concatenate([U2, 1 - U2.sum(axis=2, keepdims=True)], axis=2)


def hciz_qr(E, R, samples, seed):
    """hciz_mc's estimate and jackknife error through LAPACK QR, from the
    same draws: tiles of TILE // N^2 samples, each drawn as the real parts,
    then the imaginary parts, of the first N-1 columns of its Ginibre
    matrices."""
    N, step = len(E), mc.TILE // len(E) ** 2
    rng = np.random.default_rng(seed)
    vals = []
    for s in range(0, samples, step):
        re, im = rng.standard_normal((2, min(step, samples - s), N, N - 1))
        vals.append(np.exp(1j * np.einsum("sba,a,b->s", haar_moduli_qr(re, im), E, R)))
    blocks = np.array_split(np.concatenate(vals), min(200, samples))
    sums = np.array([b.sum() for b in blocks])
    sizes = np.array([len(b) for b in blocks])
    est = sums.sum() / samples
    loo = (sums.sum() - sums) / (samples - sizes)
    B = len(blocks)
    return est, np.sqrt((B - 1) / B * np.sum(np.abs(loo - est) ** 2))


# 37 tiles at N=2, four tiles with blocks of 62 and 61 samples at N=3,
# and ten tiles at N=4
@pytest.mark.parametrize("E,R,samples,seed,value,err", [
    ((0.3, -1.1), (0.8, -0.4), 300000, 5,
     0.875773160039344 - 0.14017332314220765j, 0.0008119632275281233),
    ((0.2, -0.9, 1.1), (0.5, 1.3, -0.4), 12345, 8,
     0.8165922623047991 + 0.16137407370263576j, 0.005076172177219557),
    ((-1.2, -0.3, 0.4, 1.5), (-0.7, 0.1, 0.6, 1.9), 20000, 3,
     0.6100002289095133 + 0.11370300103167995j, 0.005525042396708752),
])
def test_hciz_mc_pinned(E, R, samples, seed, value, err):
    got, got_err = hciz_mc(E, R, samples, seed)
    for v, e in ((value, err), hciz_qr(E, R, samples, seed)):
        assert abs(got - v) <= 1e-12 * abs(v)
        assert abs(got_err - e) <= 1e-12 * e


def test_hciz_mc_small_count_has_one_sample_per_block():
    E, R = np.array([0.4, -0.6, 1.0]), np.array([1.2, 0.3, -0.8])
    samples, seed = 57, 4
    # one tile: the real parts of every sample's first two columns, then
    # their imaginary parts; the third column, up to a phase that the
    # trace does not see, is the conjugate cross product of the first two
    re, im = np.random.default_rng(seed).standard_normal((2, samples, 3, 2))
    Q = qr_haar(re + 1j * im)
    U = np.concatenate([Q, np.cross(Q[:, :, 0], Q[:, :, 1]).conj()[:, :, None]], axis=2)
    assert np.max(np.abs(U @ U.conj().transpose(0, 2, 1) - np.eye(3))) < 1e-13
    vals = np.array([np.exp(1j * np.real(np.trace(u @ np.diag(E) @ u.conj().T @ np.diag(R))))
                     for u in U])
    est, err = hciz_mc(E, R, samples, seed)
    assert abs(est - vals.mean()) < 1e-13
    # delete-1 jackknife of a mean is its standard error
    se = np.hypot(np.std(vals.real, ddof=1), np.std(vals.imag, ddof=1)) / np.sqrt(samples)
    assert abs(err - se) < 1e-12


def test_hciz_mc_at_n1_draws_nothing():
    # one unitary of order 1 has |U|^2 = 1: every phase is exp(i E R)
    rng = np.random.default_rng(2)
    before = rng.bit_generator.state
    assert np.array_equal(mc._haar_moduli(rng, 1, 1000), np.ones((1, 1000)))
    assert rng.bit_generator.state == before
    est, err = hciz_mc([0.7], [-1.3], 5000, 2)
    assert abs(est - np.exp(-0.91j)) <= 5000 * np.spacing(1.0) and err < 1e-12


# -- bounded working memory ------------------------------------------------

def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes it had allocated at once beyond what
    was allocated when it started (numpy reports its arrays to tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kwargs)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# bytes of one working array of TILE float or complex entries
TILE_F8, TILE_C16 = 8 * mc.TILE, 16 * mc.TILE


def test_sampler_and_histograms_work_in_tiles():
    # N=12: one dense (count, 12, 12) stack is 12 times the eigenvalues;
    # the sampler holds its output and a few tiles, the histograms a few
    # arrays of one tile
    spec = EnsembleSpec.gaussian(12)
    batch, peak = traced_peak(sample_batch, spec, 20000, 4)
    assert peak <= 2 * batch.eigenvalues.nbytes + 8 * TILE_F8, peak
    for estimate, bins in ((estimate_r1, (-5.0, 5.0, 40)), (estimate_r2, (-5.0, 5.0, 20))):
        _, peak = traced_peak(estimate, batch, bins)
        assert peak <= batch.eigenvalues.nbytes / 4 + 10 * TILE_F8, (estimate, peak)


def test_hciz_mc_works_in_tiles():
    # 20000 samples at N=8: the bound is what the draws of seven columns
    # (2 x 20000 x 56 floats) and the squared moduli (20000 x 64) of all the
    # samples would hold at once; they are drawn and used a tile at a time
    E, R = np.linspace(-1.0, 1.0, 8), np.linspace(-0.5, 1.5, 8)
    draws, moduli = 2 * 20000 * 56 * 8, 20000 * 64 * 8
    _, peak = traced_peak(hciz_mc, E, R, 20000, 6)
    assert peak <= draws + moduli + 6 * TILE_C16, peak


def test_reduced_density_mc_works_in_tiles():
    # 20000 samples at N=6 and k=2: the weights, one float a sample, held
    # twice (as the tiles' pieces, then joined), plus the draws, matrices
    # and powers of one tile at a time; the draws of all the samples,
    # 36 - 4 normals a sample, would pass the bound
    spec = EnsembleSpec.higher_trace(6, 2, 1)
    weights = 20000 * 8
    _, peak = traced_peak(reduced_density, spec, np.array([0.1, -0.3, 0.4, 0.2]), 2,
                          method="mc", samples=20000, seed=1)
    assert peak <= 2 * weights + 6 * TILE_C16 < 20000 * (36 - 4) * 8, peak


def tile_eigs(seed, N, count):
    """The sampler's draws rebuilt from the generator's stream: per tile of
    TILE // N^2 samples, its diagonal, then its subdiagonal, solved as one
    dense stack."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, N))
    ii = np.arange(N)
    step = mc.TILE // (N * N)
    for s in range(0, count, step):
        T = np.zeros((min(step, count - s), N, N))
        T[:, ii, ii] = rng.standard_normal(T.shape[:2]) * np.sqrt(0.5)
        T[:, ii[1:], ii[:-1]] = np.sqrt(rng.chisquare(2.0 * (N - ii[1:]), (len(T), N - 1))) / 2
        out[s: s + step] = np.linalg.eigvalsh(T)
    return out


def whole_batch_density(batch, bins, ndim, per_block=False):
    """The blocked histogram as one bincount over every value of the batch,
    or with per_block one bincount over each whole jackknife block."""
    lo, hi, nb = bins
    edges = np.linspace(lo, hi, nb + 1)
    N = batch.eigenvalues.shape[1]
    sizes = mc._block_sizes(batch.count)
    starts = np.cumsum(sizes) - sizes
    runs = zip(starts, sizes) if per_block else [(0, batch.count)]
    block = np.repeat(np.arange(len(sizes)), sizes)
    num = np.empty((len(sizes), nb ** ndim))
    for s, n in runs:
        i, keep = mc._bin_index(batch.eigenvalues[s: s + n], edges)
        cells = (block[s: s + n] - block[s])[:, None] * nb + i
        w = batch.weights[s: s + n, None] * keep
        if ndim == 2:
            cells = cells[:, :, None] * nb + i[:, None, :]
            w = w[:, :, None] * (keep[:, None, :] & ~np.eye(N, dtype=bool))
        rows = slice(block[s], block[s + n - 1] + 1)
        num[rows] = np.bincount(cells.ravel(), weights=w.ravel(),
                                minlength=num[rows].size).reshape(-1, nb ** ndim)
    den = np.add.reduceat(batch.weights, starts) * (edges[1] - edges[0]) ** ndim
    return _jackknife_ratio(num.reshape((-1,) + (nb,) * ndim), den.reshape((-1,) + (1,) * ndim))


def test_tiles_and_runs_equal_whole_batch_formulas():
    # seven tiles of draws and a part of one, and three tiles of r1 and
    # five of r2 that cut blocks of 127 and 128 samples, all equal to the
    # tile-by-tile and whole-batch formulas
    spec, count, seed = EnsembleSpec.higher_trace(3, 4, 1), 7 * (mc.TILE // 9) + 11, 17
    batch = sample_batch(spec, count, seed)
    assert np.array_equal(batch.eigenvalues, tile_eigs(seed, 3, count))
    for estimate, bins, ndim in ((estimate_r1, (-3.0, 3.0, 30), 1),
                                 (estimate_r2, (-2.4, 2.4, 8), 2)):
        hist = estimate(batch, bins)
        est, err = whole_batch_density(batch, bins, ndim)
        assert np.array_equal(hist.density, est) and np.array_equal(hist.errors, err)


def test_histograms_split_a_block_larger_than_a_tile():
    # N=12: a block of 1000 samples holds 132,000 pairs of r2, over five
    # tiles; the block's sums carried from one tile's bincount to the
    # next add in sample order, as one bincount over the whole block does
    # (uneven weights, so that a sum in another order would round apart)
    batch = sample_batch(EnsembleSpec.higher_trace(12, 2, 1), 200000, 4)
    bins = (-5.0, 5.0, 20)
    hist, peak = traced_peak(estimate_r2, batch, bins)
    est, err = whole_batch_density(batch, bins, 2, per_block=True)
    assert np.array_equal(hist.density, est) and np.array_equal(hist.errors, err)
    # whole blocks peaked at 4.4 MB: the (block, bin) sums and a few tiles
    sums = 200 * est.size * 8
    assert peak <= 2 * sums + 6 * TILE_F8, peak


@pytest.mark.parametrize("tile", [1, 50, 200])
def test_histograms_split_blocks_of_a_small_tile(monkeypatch, tile):
    # blocks of 7 and 6 samples at N=4 (4 r1 values and 12 r2 pairs a
    # sample): tiles of one sample (TILE 1), r2 tiles of four samples
    # (TILE 50), and r1 tiles of 50 samples over several blocks (TILE 200)
    monkeypatch.setattr(mc, "TILE", tile)
    bins = (-3.5, 3.5, 9)
    batch = edge_batch(1234, 4, bins, seed=5)
    for estimate, ndim in ((estimate_r1, 1), (estimate_r2, 2)):
        hist = estimate(batch, bins)
        est, err = whole_batch_density(batch, bins, ndim)
        assert np.array_equal(hist.density, est) and np.array_equal(hist.errors, err)


# -- tile solves on a thread pool ------------------------------------------

@pytest.mark.parametrize("cpus,count", [(None, 1), (5, 5)])
def test_cpu_count_without_affinity(monkeypatch, cpus, count):
    # where os has no sched_getaffinity, os.cpu_count, or 1 when unknown
    monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    assert mc._cpu_count() == count


@pytest.mark.parametrize("N", [2, 5])
@pytest.mark.parametrize("cpus", [1, 3])
def test_sampler_does_not_depend_on_worker_count(monkeypatch, N, cpus):
    # three whole tiles and a part of one
    count, seed = 3 * (mc.TILE // N ** 2) + 7, 21
    spec = EnsembleSpec.higher_trace(N, 4, 1)
    eigs = mc._gaussian_eigs(np.random.default_rng(seed), N, count)
    batch = sample_batch(spec, count, seed)
    threads = set()
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(mc, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda T: threads.add(threading.current_thread()) or eigvalsh(T))
    assert np.array_equal(mc._gaussian_eigs(np.random.default_rng(seed), N, count), eigs)
    forced = sample_batch(spec, count, seed)
    assert np.array_equal(forced.eigenvalues, batch.eigenvalues)
    assert np.array_equal(forced.weights, batch.weights)
    # one worker solves in the calling thread; a pool leaves it waiting
    if cpus == 1:
        assert threads == {threading.current_thread()}
    else:
        assert threads and threading.current_thread() not in threads


@pytest.mark.parametrize("cpus", [1, 3])
def test_sampler_tile_error_reaches_caller(monkeypatch, cpus):
    calls, error = itertools.count(), np.linalg.LinAlgError("second tile")
    eigvalsh = np.linalg.eigvalsh

    def fail_second(T):
        if next(calls) == 1:
            raise error
        return eigvalsh(T)

    monkeypatch.setattr(mc, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(np.linalg, "eigvalsh", fail_second)
    with pytest.raises(np.linalg.LinAlgError) as raised:
        sample_batch(EnsembleSpec.gaussian(4), 5 * (mc.TILE // 16), 3)
    assert raised.value is error


class RecordingRng:
    """A Generator whose draws are recorded, with the thread they ran on;
    before its second chisquare call it waits (up to 10 s) for first_solve."""

    def __init__(self, seed, events, first_solve):
        self.rng, self.events, self.first_solve = np.random.default_rng(seed), events, first_solve

    def standard_normal(self, *args, **kwargs):
        self.events.append(("normal", threading.current_thread()))
        return self.rng.standard_normal(*args, **kwargs)

    def chisquare(self, *args, **kwargs):
        if any(kind == "draw" for kind, _ in self.events):
            self.events.append(("waited", self.first_solve.wait(timeout=10)))
        self.events.append(("draw", threading.current_thread()))
        return self.rng.chisquare(*args, **kwargs)


@pytest.mark.parametrize("cpus", [1, 3])
def test_sampler_solves_a_tile_while_the_next_is_drawn(monkeypatch, cpus):
    # four tiles: the calling thread draws each tile's diagonal, then its
    # subdiagonal, and a tile's solve starts as soon as its draw exists, so
    # the second tile's draw sees the first tile solving (a sampler that
    # drew every tile first would wait in vain)
    N, count, seed = 4, 3 * (mc.TILE // 16) + 5, 6
    events, first_solve = [], threading.Event()
    eigvalsh = np.linalg.eigvalsh

    def solve(T):
        events.append(("solve", threading.current_thread()))
        first_solve.set()
        return eigvalsh(T)

    monkeypatch.setattr(mc, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    got = mc._gaussian_eigs(RecordingRng(seed, events, first_solve), N, count)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    assert np.array_equal(got, mc._gaussian_eigs(np.random.default_rng(seed), N, count))
    kinds = [kind for kind, _ in events]
    assert kinds.count("normal") == kinds.count("draw") == kinds.count("solve") == 4
    assert all(value for kind, value in events if kind == "waited")
    here = threading.current_thread()
    assert all(thread is here for kind, thread in events if kind in ("normal", "draw"))
    if cpus == 1:
        assert kinds == ["normal", "draw", "solve"] + ["normal", "waited", "draw", "solve"] * 3
