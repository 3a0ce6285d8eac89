"""Monte Carlo ground truth: matrix sampling for all three families,
weighted spectral histograms with jackknife errors, and Haar-unitary
group-integral estimation.
"""

import warnings

import numpy as np

# samples drawn in one go, which fixes the order of the draws
CHUNK = 200000
# entries in a working array built from the draws (512 KB when complex)
TILE = 32768


def _tiles(count, per_sample):
    """Slices of range(count) of at most TILE entries at per_sample entries
    a sample, and at least one sample."""
    step = max(TILE // per_sample, 1)
    return [slice(a, a + step) for a in range(0, count, step)]


class SampleBatch:
    """Eigenvalues (count x N), importance weights (count,), and the
    provenance needed to reproduce the batch."""

    __slots__ = ("eigenvalues", "weights", "seed", "spec", "warnings")

    def __init__(self, eigenvalues, weights, seed, spec):
        self.eigenvalues = eigenvalues
        self.weights = weights
        self.seed = seed
        self.spec = spec
        self.warnings = []

    @property
    def count(self):
        return self.eigenvalues.shape[0]

    def effective_sample_size(self):
        w = self.weights
        return float(np.sum(w) ** 2 / np.sum(w * w))


class BinnedDensity:
    """Uniform-bin weighted histogram normalized as a level density."""

    __slots__ = ("edges", "density", "errors")

    def __init__(self, edges, density, errors):
        self.edges = edges
        self.density = density
        self.errors = errors

    def centers(self):
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    def integral(self):
        return float(np.sum(self.density * np.diff(self.edges)))


def gaussian_tiles(rng, N, count):
    """count Hermitean N x N matrices with weight exp(-tr H^2), diagonal
    variance 1/2 and off-diagonal Re/Im variance 1/4, yielded a tile at a
    time.  All draws come first: _ginibre, then the (count, N) diagonal."""
    re, im = _ginibre(rng, N, count)
    diag = rng.standard_normal((count, N)) * np.sqrt(0.5)
    ii = np.arange(N)
    for t in _tiles(count, N * N):
        A = re[t] + 1j * im[t]
        H = (A + np.transpose(A, (0, 2, 1)).conj()) * (1.0 / np.sqrt(8.0))
        H[:, ii, ii] = diag[t]
        yield H


def gaussian_matrices(rng, N, count):
    """The matrices of gaussian_tiles as one (count, N, N) stack."""
    return np.concatenate(list(gaussian_tiles(rng, N, count)))


def _gaussian_eigs(rng, N, count):
    """Eigenvalues of exp(-tr H^2) matrices from the tridiagonal beta = 2
    model (Dumitriu-Edelman 2002).  Per CHUNK of c samples: the (c, N)
    diagonal a_j ~ N(0, 1/2), then the (c, N-1) subdiagonal
    b_j = chi_(2(N-j))/2, j = 1..N-1.  The diagonal is drawn into the
    output, and the dense matrices are built and solved a tile at a time,
    each tile's eigenvalues replacing its diagonal; eigvalsh reads the lower
    triangle."""
    out = np.empty((count, N))
    ii = np.arange(N)
    for s in range(0, count, CHUNK):
        a = rng.standard_normal(out=out[s: s + CHUNK])
        a *= np.sqrt(0.5)
        b = rng.chisquare(2.0 * (N - ii[1:]), (len(a), N - 1))
        np.sqrt(b, out=b)
        b /= 2
        for t in _tiles(len(a), N * N):
            T = np.zeros((len(a[t]), N, N))
            T[:, ii, ii] = a[t]
            T[:, ii[1:], ii[:-1]] = b[t]
            a[t] = np.linalg.eigvalsh(T)
    return out


def sample_batch(spec, count, seed):
    """Draw eigenvalue samples from the ensemble: one spread node t per
    sample (drawn only when there is a choice), then exp(-tr H^2) spectra
    of the tridiagonal model (_gaussian_eigs) scaled by sqrt(2t), and the
    weight (tr H^M1)^M2 of the trace power (1 for a Gaussian mixture)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    t, w = spec.spread_nodes
    p = np.clip(w, 0, None)
    tv = t if len(t) == 1 else rng.choice(t, size=count, p=p / p.sum())
    ev = _gaussian_eigs(rng, spec.N, count)
    ev *= np.sqrt(2.0 * tv)[:, None]
    M1, M2 = spec.trace_power
    weights = np.empty(count)
    for s in _tiles(count, spec.N):
        weights[s] = np.sum(ev[s] ** M1, axis=1) ** M2
    batch = SampleBatch(ev, weights, seed, spec)
    ess = batch.effective_sample_size()
    if ess < 0.01 * count:
        msg = f"effective sample size {ess:.1f} below 1% of {count}"
        batch.warnings.append(msg)
        warnings.warn(msg)
    return batch


def _jackknife_ratio(num_blocks, den_blocks):
    """Delete-1 jackknife of sum(num)/sum(den) over axis 0."""
    num_tot = num_blocks.sum(axis=0)
    den_tot = den_blocks.sum(axis=0)
    B = num_blocks.shape[0]
    est = num_tot / den_tot
    loo = (num_tot[None] - num_blocks) / (den_tot[None] - den_blocks)
    err = np.sqrt((B - 1) / B * np.sum((loo - est[None]) ** 2, axis=0))
    return est, err


def _block_sizes(count):
    """Sizes of the min(200, count) contiguous jackknife blocks, split as
    np.array_split splits count items."""
    B = min(200, count)
    q, r = divmod(count, B)
    return np.array([q + 1] * r + [q] * (B - r))


def _check_bins(bins):
    lo, hi, nb = bins
    if not hi > lo or nb < 1:
        raise ValueError(f"bins (lo, hi, count) need hi > lo and count >= 1, got {bins!r}")
    return np.linspace(lo, hi, nb + 1)


def _bin_index(x, edges):
    """Uniform-bin index of every value under np.histogram's rule: bins are
    closed on the left, the last one also on the right.  Returns the index
    and a mask of the values inside [edges[0], edges[-1]]; values outside
    get index 0."""
    nb = len(edges) - 1
    lo, hi = edges[0], edges[-1]
    keep = (x >= lo) & (x <= hi)
    x = np.where(keep, x, lo)
    i = ((x - lo) * (nb / (hi - lo))).astype(np.intp)
    i[i == nb] -= 1
    # the arithmetic index is off by at most one next to an edge
    i -= x < edges[i]
    i += (x >= edges[i + 1]) & (i != nb - 1)
    return i, keep


def _block_density(batch, bins, ndim):
    """Weighted histogram of the eigenvalues (ndim 1) or of the ordered
    pairs of distinct eigenvalues (ndim 2), normalized by the total weight;
    delete-1 jackknife over the contiguous blocks of _block_sizes.  Runs of
    whole blocks, each of at most TILE (value, bin) cells or of one block,
    are binned with one bincount per run, which adds every (block, bin) sum
    in sample order."""
    edges = _check_bins(bins)
    nb, N = len(edges) - 1, batch.eigenvalues.shape[1]
    sizes = _block_sizes(batch.count)
    starts = np.cumsum(sizes) - sizes
    num = np.empty((len(sizes), nb ** ndim))
    step = max(TILE // (sizes[0] * N ** ndim), 1)
    for b in range(0, len(sizes), step):
        blocks = sizes[b: b + step]
        run = slice(starts[b], starts[b] + blocks.sum())
        i, keep = _bin_index(batch.eigenvalues[run], edges)
        # each value's flat (block, bin) index within the run, block-major,
        # and its weight (0 for a value that does not count)
        cells = np.repeat(np.arange(len(blocks)), blocks)[:, None] * nb + i
        w = batch.weights[run, None] * keep
        if ndim == 2:
            cells = cells[:, :, None] * nb + i[:, None, :]
            w = w[:, :, None] * (keep[:, None, :] & ~np.eye(N, dtype=bool))
        num[b: b + step] = np.bincount(cells.ravel(), weights=w.ravel(),
                                       minlength=len(blocks) * nb ** ndim).reshape(len(blocks), -1)
    den = np.add.reduceat(batch.weights, starts) * (edges[1] - edges[0]) ** ndim
    est, err = _jackknife_ratio(num.reshape((-1,) + (nb,) * ndim),
                                den.reshape((-1,) + (1,) * ndim))
    return BinnedDensity(edges, est, err)


def estimate_r1(batch, bins):
    """Weighted one-point eigenvalue histogram, normalized so the full
    density integrates to N; per-bin delete-1 jackknife errors."""
    return _block_density(batch, bins, 1)


def estimate_r2(batch, grid):
    """Weighted two-point histogram over ordered distinct eigenvalue pairs
    (self-pairs excluded); integrates to N(N-1)."""
    return _block_density(batch, grid, 2)


def _ginibre(rng, N, count):
    """count complex Ginibre N x N matrices as their real and imaginary
    parts, stacked (2, count, N, N): all real parts, then all imaginary."""
    return rng.standard_normal((2, count, N, N))


def _gram_schmidt(X):
    """Orthonormalise, in place, the columns X[j] (N, count) of a stack of
    count N x N matrices stored column by column, X[j, n, s] = A_s[n, j]:
    classical Gram-Schmidt run twice per column, then the column divided
    by its norm.  R gets a real positive diagonal, so this is the Q of
    LAPACK's QR with the diagonal phases of R divided out."""
    for j in range(len(X)):
        v = X[j]
        for _ in range(2 if j else 0):
            c = [(X[i].conj() * v).sum(axis=0) for i in range(j)]
            for i in range(j):
                v = v - c[i] * X[i]
        X[j] = v / np.sqrt((v.real ** 2 + v.imag ** 2).sum(axis=0))
    return X


def _haar_columns(A):
    """Haar unitaries U_s of complex Ginibre matrices A_s (Mezzadri 2007),
    given as their real and imaginary parts (re, im), each (count, N, N),
    and returned as X (N, N, count) with X[a, b, s] = U_s[b, a].  The sample
    axis is last so every step works on long contiguous rows; hciz_mc
    passes one tile at a time, which keeps a step's operands in cache."""
    re, im = A
    X = np.empty(re.shape[::-1], dtype=complex)
    X.real = re.transpose(2, 1, 0)
    X.imag = im.transpose(2, 1, 0)
    return _gram_schmidt(X)


def haar_unitary(N, seed):
    rng = np.random.default_rng(seed)
    return _haar_columns(_ginibre(rng, N, 1))[:, :, 0].T


def _haar_phases(rng, N, count, ER):
    """tr U E U^dag R = sum_{a,b} E_a R_b |U_{b a}|^2 of count Haar U drawn
    by one _ginibre call and orthogonalised a tile at a time; ER is the
    flat outer product of E and R.  The |U_{b a}|^2 of all count samples go
    into one product: BLAS rounds an entry by where it falls in the call,
    so a product per tile would move the phases."""
    re, im = _ginibre(rng, N, count)
    P = np.empty((N * N, count))
    for t in _tiles(count, N * N):
        # X[a, b] = U[b, a]
        X = _haar_columns((re[t], im[t]))
        P[:, t] = (X.real ** 2 + X.imag ** 2).reshape(N * N, -1)
    return ER @ P


def hciz_mc(E, R, samples, seed):
    """MC mean of exp(i tr U E U^dag R) over Haar U, with jackknife
    standard error over min(200, samples) blocks; returns (value, stderr).
    The samples are drawn (_ginibre) in chunks of at most CHUNK // N and
    orthogonalised a tile at a time; each sample's phase is added into its
    block."""
    E = np.asarray(E, dtype=float)
    R = np.asarray(R, dtype=float)
    if E.ndim != 1 or E.shape != R.shape:
        raise ValueError(f"E and R must be 1-d of one length, got shapes {E.shape} and {R.shape}")
    if samples < 1 or samples != int(samples):
        raise ValueError(f"samples must be a positive integer, got {samples}")
    samples, N = int(samples), len(E)
    cap = CHUNK // max(N, 1)
    rng = np.random.default_rng(seed)
    counts = _block_sizes(samples)
    ends = np.cumsum(counts)
    # per block, the sums of the phases' real and imaginary parts
    sums = np.zeros((2, len(counts)))
    for s in range(0, samples, cap):
        vals = np.exp(1j * _haar_phases(rng, N, min(cap, samples - s), np.outer(E, R).ravel()))
        blk = np.searchsorted(ends, np.arange(s, s + len(vals)), side="right")
        sums += [np.bincount(blk, weights=v, minlength=len(counts)) for v in (vals.real, vals.imag)]
    est, err = _jackknife_ratio(sums.T, counts[:, None])
    return complex(*est), float(np.hypot(*err))
