"""Monte Carlo sampling, weighted histograms with jackknife errors, and
Haar-unitary group averages."""

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
from rmtcorr.mc import (SampleBatch, sample_batch, estimate_r1, estimate_r2, gaussian_matrices,
                        haar_unitary, hciz_mc, _haar_columns,
                        _jackknife_ratio)


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

    monkeypatch.setattr(mc, "gaussian_matrices", dense)
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


@pytest.mark.parametrize("bins", [(1.0, 1.0, 10), (2.0, -1.0, 10), (-1.0, 1.0, 0)])
def test_histograms_reject_bad_bins(bins):
    batch = sample_batch(EnsembleSpec.gaussian(2), 500, 3)
    with pytest.raises(ValueError, match="hi > lo"):
        estimate_r1(batch, bins)
    with pytest.raises(ValueError, match="hi > lo"):
        estimate_r2(batch, bins)


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


@pytest.mark.parametrize("N", [2, 4])
def test_gaussian_and_haar_draws_are_two_standard_normal_calls(N):
    # _ginibre's one (2, count, N, N) call draws what two successive
    # (count, N, N) calls draw: the real parts, then the imaginary parts
    count = 6
    for seed in (0, 9):
        r = np.random.default_rng(seed)
        A = r.standard_normal((count, N, N)) + 1j * r.standard_normal((count, N, N))
        H = (A + A.conj().transpose(0, 2, 1)) * (1.0 / np.sqrt(8.0))
        H[:, range(N), range(N)] = r.standard_normal((count, N)) * np.sqrt(0.5)
        assert np.array_equal(gaussian_matrices(np.random.default_rng(seed), N, count), H)
        r = np.random.default_rng(seed)
        parts = np.stack([r.standard_normal((1, N, N)), r.standard_normal((1, N, N))])
        assert np.array_equal(haar_unitary(N, seed), _haar_columns(parts)[:, :, 0].T)


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


def hciz_qr(E, R, samples, seed):
    """hciz_mc's estimate and jackknife error through LAPACK QR, from the
    same draws: chunks of at most CHUNK // N samples, each drawn as all its
    real parts, then all its imaginary parts."""
    N, cap = len(E), mc.CHUNK // len(E)
    rng = np.random.default_rng(seed)
    vals = []
    for s in range(0, samples, cap):
        re, im = rng.standard_normal((2, min(cap, samples - s), N, N))
        U = qr_haar(re + 1j * im)
        vals.append(np.exp(1j * np.einsum("sba,a,b->s", np.abs(U) ** 2, E, R)))
    blocks = np.array_split(np.concatenate(vals), min(200, samples))
    sums = np.array([b.sum() for b in blocks])
    sizes = np.array([len(b) for b in blocks])
    est = sums.sum() / samples
    loo = (sums.sum() - sums) / (samples - sizes)
    B = len(blocks)
    return est, np.sqrt((B - 1) / B * np.sum(np.abs(loo - est) ** 2))


# three chunks at N=2, blocks of 62 and 61 samples, and N=4
@pytest.mark.parametrize("E,R,samples,seed,value,err", [
    ((0.3, -1.1), (0.8, -0.4), 300000, 5,
     0.8752416085706166 - 0.1414866380585475j, 0.0007710979354337503),
    ((0.2, -0.9, 1.1), (0.5, 1.3, -0.4), 12345, 8,
     0.8169573319556502 + 0.15284416480401752j, 0.0051316799718866025),
    ((-1.2, -0.3, 0.4, 1.5), (-0.7, 0.1, 0.6, 1.9), 20000, 3,
     0.6076105416223271 + 0.10918414168724369j, 0.005576972646276602),
])
def test_hciz_mc_pinned(E, R, samples, seed, value, err):
    got, got_err = hciz_mc(E, R, samples, seed)
    for v, e in ((value, err), hciz_qr(E, R, samples, seed)):
        assert abs(got - v) <= 1e-12 * abs(v)
        assert abs(got_err - e) <= 1e-12 * e


def test_hciz_mc_small_count_has_one_sample_per_block():
    E, R = np.array([0.4, -0.6, 1.0]), np.array([1.2, 0.3, -0.8])
    samples, seed = 57, 4
    # one chunk: every real part, then every imaginary part
    re, im = np.random.default_rng(seed).standard_normal((2, samples, 3, 3))
    vals = np.array([np.exp(1j * np.real(np.trace(U @ np.diag(E) @ U.conj().T @ np.diag(R))))
                     for U in qr_haar(re + 1j * im)])
    est, err = hciz_mc(E, R, samples, seed)
    assert abs(est - vals.mean()) < 1e-13
    # delete-1 jackknife of a mean is its standard error
    se = np.hypot(np.std(vals.real, ddof=1), np.std(vals.imag, ddof=1)) / np.sqrt(samples)
    assert abs(err - se) < 1e-12


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
    # the sampler holds its output, one chunk's subdiagonal and a few tiles,
    # the histograms a few arrays of one run of blocks
    spec = EnsembleSpec.gaussian(12)
    batch, peak = traced_peak(sample_batch, spec, 20000, 4)
    assert peak <= 2 * batch.eigenvalues.nbytes + 8 * TILE_F8, peak
    for estimate, bins in ((estimate_r1, (-5.0, 5.0, 40)), (estimate_r2, (-5.0, 5.0, 20))):
        _, peak = traced_peak(estimate, batch, bins)
        assert peak <= batch.eigenvalues.nbytes / 4 + 10 * TILE_F8, (estimate, peak)


def test_hciz_mc_works_in_tiles():
    # one chunk of 20000 samples at N=8: its draws (2 x 20000 x 64 floats)
    # and the squared moduli of one product (half as many) are all that
    # grows with the samples; the Gram-Schmidt runs on one tile at a time
    E, R = np.linspace(-1.0, 1.0, 8), np.linspace(-0.5, 1.5, 8)
    draws = 2 * 20000 * 64 * 8
    _, peak = traced_peak(hciz_mc, E, R, 20000, 6)
    assert peak <= 1.5 * draws + 6 * TILE_C16, peak


def test_reduced_density_mc_works_in_tiles():
    # one chunk of 20000 samples at N=6: the draws, Ginibre and diagonal,
    # plus the matrices and powers of one tile at a time
    spec = EnsembleSpec.higher_trace(6, 2, 1)
    draws = 20000 * (2 * 36 + 6) * 8
    _, peak = traced_peak(reduced_density, spec, np.array([0.1, -0.3, 0.4, 0.2]), 2,
                          method="mc", samples=20000, seed=1)
    assert peak <= 1.1 * draws + 6 * TILE_C16, peak


def whole_chunk_eigs(seed, N, count):
    """The sampler's draws solved as one dense stack per CHUNK."""
    rng = np.random.default_rng(seed)
    out = np.empty((count, N))
    ii = np.arange(N)
    for s in range(0, count, mc.CHUNK):
        T = np.zeros((min(mc.CHUNK, count - s), N, N))
        T[:, ii, ii] = rng.standard_normal(T.shape[:2]) * np.sqrt(0.5)
        T[:, ii[1:], ii[:-1]] = np.sqrt(rng.chisquare(2.0 * (N - ii[1:]), (len(T), N - 1))) / 2
        out[s: s + mc.CHUNK] = np.linalg.eigvalsh(T)
    return out


def whole_batch_density(batch, bins, ndim):
    """The blocked histogram as one bincount over every value of the batch."""
    lo, hi, nb = bins
    edges = np.linspace(lo, hi, nb + 1)
    N = batch.eigenvalues.shape[1]
    sizes = mc._block_sizes(batch.count)
    i, keep = mc._bin_index(batch.eigenvalues, edges)
    cells = np.repeat(np.arange(len(sizes)), sizes)[:, None] * nb + i
    w = batch.weights[:, None] * keep
    if ndim == 2:
        cells = cells[:, :, None] * nb + i[:, None, :]
        w = w[:, :, None] * (keep[:, None, :] & ~np.eye(N, dtype=bool))
    num = np.bincount(cells.ravel(), weights=w.ravel(), minlength=len(sizes) * nb ** ndim)
    den = np.add.reduceat(batch.weights, np.cumsum(sizes) - sizes) * (edges[1] - edges[0]) ** ndim
    return _jackknife_ratio(num.reshape((-1,) + (nb,) * ndim), den.reshape((-1,) + (1,) * ndim))


def test_tiles_and_runs_equal_whole_batch_formulas():
    # a count past CHUNK: two chunks of draws, tiles of the dense matrices,
    # and 20 runs of r1 and 67 runs of r2 blocks, all equal to the
    # whole-chunk and whole-batch formulas
    spec, count, seed = EnsembleSpec.higher_trace(3, 4, 1), mc.CHUNK + 1, 17
    batch = sample_batch(spec, count, seed)
    assert np.array_equal(batch.eigenvalues, whole_chunk_eigs(seed, 3, count))
    for estimate, bins, ndim in ((estimate_r1, (-3.0, 3.0, 30), 1),
                                 (estimate_r2, (-2.4, 2.4, 8), 2)):
        hist = estimate(batch, bins)
        est, err = whole_batch_density(batch, bins, ndim)
        assert np.array_equal(hist.density, est) and np.array_equal(hist.errors, err)
