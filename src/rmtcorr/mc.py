"""Monte Carlo ground truth: matrix sampling for all three families,
weighted spectral histograms with jackknife errors, and Haar-unitary
group-integral estimation.
"""

import warnings

import numpy as np

CHUNK = 200000
# complex entries (512 KB) per Gram-Schmidt tile
TILE = 32768


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


def gaussian_matrices(rng, N, count):
    """count Hermitean N x N matrices with weight exp(-tr H^2): diagonal
    variance 1/2, off-diagonal Re/Im variance 1/4."""
    A = _ginibre(rng, N, count)
    H = (A + np.transpose(A, (0, 2, 1)).conj()) * (1.0 / np.sqrt(8.0))
    ii = np.arange(N)
    H[:, ii, ii] = rng.standard_normal((count, N)) * np.sqrt(0.5)
    return H


def _gaussian_eigs(rng, N, count):
    """Eigenvalues of exp(-tr H^2) matrices from the tridiagonal beta = 2
    model (Dumitriu-Edelman 2002).  Per CHUNK of c samples: the (c, N)
    diagonal a_j ~ N(0, 1/2), then the (c, N-1) subdiagonal
    b_j = chi_(2(N-j))/2, j = 1..N-1; eigvalsh reads the lower triangle."""
    out = np.empty((count, N))
    ii = np.arange(N)
    for s in range(0, count, CHUNK):
        T = np.zeros((min(CHUNK, count - s), N, N))
        T[:, ii, ii] = rng.standard_normal(T.shape[:2]) * np.sqrt(0.5)
        T[:, ii[1:], ii[:-1]] = np.sqrt(rng.chisquare(2.0 * (N - ii[1:]), (len(T), N - 1))) / 2
        out[s: s + CHUNK] = np.linalg.eigvalsh(T)
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
    batch = SampleBatch(ev, np.sum(ev ** M1, axis=1) ** M2, seed, spec)
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


def _block_density(batch, sizes, cells, weights, edges, ndim):
    """Blocked weighted ndim-point histogram from one bincount: cells holds
    each value's flat (block, bin) index, block-major, and weights its
    weight (0 for a value that does not count).  Jackknife over blocks."""
    B, shape = len(sizes), (len(edges) - 1,) * ndim
    num = np.bincount(cells.ravel(), weights=weights.ravel(), minlength=B * np.prod(shape))
    den = np.add.reduceat(batch.weights, np.cumsum(sizes) - sizes) * (edges[1] - edges[0]) ** ndim
    est, err = _jackknife_ratio(num.reshape((B,) + shape), den.reshape((B,) + (1,) * ndim))
    return BinnedDensity(edges, est, err)


def _binned_eigenvalues(batch, bins):
    """Edges, block sizes, and for each eigenvalue its (block, bin) index
    block * bins + bin, its bin index, and its in-range mask."""
    edges = _check_bins(bins)
    sizes = _block_sizes(batch.count)
    i, keep = _bin_index(batch.eigenvalues, edges)
    blk = np.repeat(np.arange(len(sizes)), sizes)[:, None]
    return edges, sizes, blk * (len(edges) - 1) + i, i, keep


def estimate_r1(batch, bins):
    """Weighted one-point eigenvalue histogram, normalized so the full
    density integrates to N; per-bin delete-1 jackknife errors."""
    edges, sizes, cells, _, keep = _binned_eigenvalues(batch, bins)
    return _block_density(batch, sizes, cells, batch.weights[:, None] * keep, edges, 1)


def estimate_r2(batch, grid):
    """Weighted two-point histogram over ordered distinct eigenvalue pairs
    (self-pairs excluded); integrates to N(N-1)."""
    edges, sizes, rows, i, keep = _binned_eigenvalues(batch, grid)
    N = batch.eigenvalues.shape[1]
    cells = rows[:, :, None] * (len(edges) - 1) + i[:, None, :]
    w = (batch.weights[:, None] * keep)[:, :, None] * (keep[:, None, :] & ~np.eye(N, dtype=bool))
    return _block_density(batch, sizes, cells, w, edges, 2)


def _ginibre(rng, N, count):
    """count complex Ginibre N x N matrices: real parts, then imaginary."""
    return rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))


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
    """Haar unitaries U_s of complex Ginibre matrices A (count, N, N)
    (Mezzadri 2007), returned as X (N, N, count) with X[a, b, s] = U_s[b, a].
    A may also be the real and imaginary parts stacked as (2, count, N, N).
    The sample axis is last so every step works on long contiguous rows;
    tiles of TILE entries keep a step's operands in cache."""
    re, im = (A.real, A.imag) if np.iscomplexobj(A) else A
    count, N = re.shape[0], re.shape[-1]
    X = np.empty((N, N, count), dtype=complex)
    tile = max(TILE // (N * N), 1)
    for s in range(0, count, tile):
        Y = np.empty((N, N, min(tile, count - s)), dtype=complex)
        Y.real = re[s: s + tile].transpose(2, 1, 0)
        Y.imag = im[s: s + tile].transpose(2, 1, 0)
        X[:, :, s: s + tile] = _gram_schmidt(Y)
    return X


def haar_unitary(N, seed):
    rng = np.random.default_rng(seed)
    return _haar_columns(_ginibre(rng, N, 1))[:, :, 0].T


def hciz_mc(E, R, samples, seed):
    """MC mean of exp(i tr U E U^dag R) over Haar U, with jackknife
    standard error over min(200, samples) blocks; returns (value, stderr).
    Each block draws its matrices at most CHUNK // N at a time; whole draws
    are gathered into chunks of at most that size and orthogonalised
    together."""
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
    draws = [(b, min(cap, c - done)) for b, c in enumerate(counts)
             for done in range(0, c, cap)]
    sums = np.zeros(len(counts), dtype=complex)
    first = 0
    while first < len(draws):
        last, total = first, 0
        while last < len(draws) and total + draws[last][1] <= cap:
            total += draws[last][1]
            last += 1
        blocks, sizes = zip(*draws[first:last])
        # every draw's real parts, then its imaginary parts, as _ginibre
        # draws them, generated in place into one buffer per chunk
        parts = np.empty((2, total, N, N))
        start = 0
        for c in sizes:
            for part in parts:
                rng.standard_normal((c, N, N), out=part[start: start + c])
            start += c
        X = _haar_columns(parts)
        # tr U E U^dag R = sum_{a,b} E_a R_b |U_{b a}|^2, X[a, b] = U[b, a]
        P = (X.real ** 2 + X.imag ** 2).reshape(N * N, -1)
        vals = np.exp(1j * (np.outer(E, R).ravel() @ P))
        np.add.at(sums, list(blocks), np.add.reduceat(vals, np.cumsum(sizes) - sizes))
        first = last
    est, err_re = _jackknife_ratio(np.real(sums)[:, None], counts[:, None])
    _, err_im = _jackknife_ratio(np.imag(sums)[:, None], counts[:, None])
    est_c = complex(np.sum(sums) / samples)
    return est_c, float(np.hypot(err_re[0], err_im[0]))
