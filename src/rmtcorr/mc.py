"""Monte Carlo ground truth: matrix sampling for all three families,
weighted spectral histograms with jackknife errors, and Haar-unitary
group-integral estimation.
"""

import os
import warnings
from collections import deque

import numpy as np

# entries in a working array built from the draws (512 KB when complex);
# the Monte Carlo layer draws, builds and solves a tile at a time
TILE = 32768


def _tiles(count, per_sample):
    """Slices of range(count) of at most TILE entries at per_sample entries
    a sample, and at least one sample."""
    step = max(TILE // max(per_sample, 1), 1)
    return [slice(a, a + step) for a in range(0, count, step)]


def _int_power(x, n):
    """x ** n of an array for an integer n >= 0 by repeated squaring (the
    result may be x itself).  numpy sends a float array to any integer
    power but 0, 1 and 2 through the C library's pow, which costs ten times
    as much as the products; these differ from pow by a few ulps."""
    out, n = None, int(n)
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return np.ones_like(x) if out is None else out


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


def gaussian_tiles(rng, N, count, diag=()):
    """count Hermitean N x N matrices with weight exp(-tr H^2), yielded a
    tile at a time, each tile's normals drawn as it is built: one
    standard_normal call of N*N - len(diag) entries a matrix, the stream
    of one call for all count.  Per matrix, its free diagonal entries
    (variance 1/2), then the real parts of its upper triangle, row by
    row, then their imaginary parts (variance 1/4 each).  The first
    len(diag) diagonal entries of every matrix are diag, as given, and
    are not drawn."""
    diag = np.asarray(diag, dtype=float)
    k, m = len(diag), N * (N - 1) // 2
    ii = np.arange(N)
    iu, ju = np.triu_indices(N, 1)
    for t in _tiles(count, N * N):
        z = rng.standard_normal((min(t.stop, count) - t.start, N * N - k))
        z[:, : N - k] *= np.sqrt(0.5)
        z[:, N - k:] *= 0.5
        H = np.empty((len(z), N, N), dtype=complex)
        H[:, ii[:k], ii[:k]] = diag
        H[:, ii[k:], ii[k:]] = z[:, : N - k]
        upper = z[:, N - k: N - k + m] + 1j * z[:, N - k + m:]
        H[:, iu, ju] = upper
        H[:, ju, iu] = upper.conj()
        yield H


def _cpu_count():
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _each_on_cores(fn, jobs, n):
    """fn(job) for each of the n jobs of the iterable jobs, on up to one
    thread per CPU (_cpu_count); with one CPU or one job, in the calling
    thread and with no thread started.  jobs is read in the calling
    thread, and each job is handed to a thread as soon as it is read, so
    the work of making the next job overlaps fn on the ones before it;
    at most one job a thread waits behind the running ones, so jobs is
    read no further ahead.  The threads overlap only where fn and the
    reading of jobs release the GIL.  The first exception a job raises
    reaches the caller unchanged."""
    workers = min(_cpu_count(), n)
    if workers <= 1:
        for job in jobs:
            fn(job)
        return
    # imported where a pool starts: loading it alone takes about 9 ms
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(workers) as pool:
        pending = deque()
        for job in jobs:
            pending.append(pool.submit(fn, job))
            # the oldest first, so the first job to fail raises first
            if len(pending) == 2 * workers:
                pending.popleft().result()
        for future in pending:
            future.result()


def _gaussian_eigs(rng, N, count):
    """Eigenvalues of exp(-tr H^2) matrices from the tridiagonal beta = 2
    model (Dumitriu-Edelman 2002).  Per tile of c samples: the (c, N)
    diagonal a_j ~ N(0, 1/2), drawn into its rows of the output, then the
    (c, N-1) subdiagonal b_j = chi_(2(N-j))/2, j = 1..N-1.  Each tile's
    dense matrices are built and solved as soon as it is drawn, its
    eigenvalues replacing its diagonal; eigvalsh reads the lower triangle.
    Every draw is made in the calling thread; the tiles are solved on up
    to one thread per CPU (eigvalsh and the draws release the GIL, so the
    next tile's draw overlaps the solves), each into its own rows, so the
    result does not depend on the thread count."""
    out = np.empty((count, N))
    ii = np.arange(N)
    df = 2.0 * (N - ii[1:])
    tiles = _tiles(count, N * N)

    def draws():
        for t in tiles:
            a = rng.standard_normal(out=out[t])
            a *= np.sqrt(0.5)
            b = rng.chisquare(df, (len(a), N - 1))
            np.sqrt(b, out=b)
            b /= 2
            yield a, b

    def solve(job):
        a, b = job
        T = np.zeros((len(a), N, N))
        T[:, ii, ii] = a
        T[:, ii[1:], ii[:-1]] = b
        a[:] = np.linalg.eigvalsh(T)

    _each_on_cores(solve, draws(), len(tiles))
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
        weights[s] = _int_power(np.sum(_int_power(ev[s], M1), axis=1), M2)
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
    if not (np.isfinite(hi - lo) and float(nb).is_integer()):
        raise ValueError(f"bins (lo, hi, count) need a finite hi - lo and a whole count, got {bins!r}")
    if not hi > lo or nb < 1:
        raise ValueError(f"bins (lo, hi, count) need hi > lo and count >= 1, got {bins!r}")
    return np.linspace(lo, hi, int(nb) + 1)


def _bin_index(x, edges):
    """Uniform-bin index of every value under np.histogram's rule: bins are
    closed on the left, the last one also on the right.  Returns the index
    and a mask of the values inside [edges[0], edges[-1]]; values outside
    get index 0."""
    nb = len(edges) - 1
    lo, hi = edges[0], edges[-1]
    keep = (x >= lo) & (x <= hi)
    x = np.where(keep, x, lo)
    # scaled in place: one array of x's size fewer at a time
    i = x - lo
    i *= nb / (hi - lo)
    i = i.astype(np.intp)
    i[i == nb] -= 1
    # the arithmetic index is off by at most one next to an edge
    i -= x < edges[i]
    i += (x >= edges[i + 1]) & (i != nb - 1)
    return i, keep


def _block_density(batch, bins, ndim):
    """Weighted histogram of the eigenvalues (ndim 1) or of the ordered
    pairs of distinct eigenvalues (ndim 2), normalized by the total weight;
    delete-1 jackknife over the contiguous blocks of _block_sizes.  A
    sample has N values or N(N-1) pairs: the self-pairs are never built.
    Each tile of at most TILE values or pairs is binned with one bincount
    over the (block, bin) cells it reaches; a value or pair outside the
    bins adds 0.  The sums of the tile's first block so far lead its
    input, so every (block, bin) sum adds in sample order."""
    edges = _check_bins(bins)
    nb, N = len(edges) - 1, batch.eigenvalues.shape[1]
    # the columns of the values, or of the two values of each pair
    cols = (slice(None),) if ndim == 1 else np.nonzero(~np.eye(N, dtype=bool))
    sizes = _block_sizes(batch.count)
    # the block of every sample: at most 200 blocks, so a byte a sample
    blocks = np.repeat(np.arange(len(sizes), dtype=np.uint8), sizes)
    num = np.zeros((len(sizes), nb ** ndim))
    for t in _tiles(batch.count, N if ndim == 1 else N * (N - 1)):
        i, keep = _bin_index(batch.eigenvalues[t], edges)
        block = blocks[t]
        first, stop = int(block[0]), int(block[-1]) + 1
        # each value's or pair's flat (block, bin) index within the tile,
        # block-major, and its weight, 0 outside the bins (a mask that
        # dropped those would cost more than binning them)
        cells, inside = (block.astype(np.intp) - first)[:, None], True
        for c in cols:
            cells = cells * nb + i[:, c]
            inside = inside & keep[:, c]
        # 0 + sum is exact, and bincount adds in input order
        cells = np.concatenate([np.arange(nb ** ndim), cells.ravel()])
        w = np.concatenate([num[first], (batch.weights[t, None] * inside).ravel()])
        num[first: stop] = np.bincount(cells, weights=w, minlength=(stop - first) * nb ** ndim
                                       ).reshape(stop - first, -1)
    den = np.add.reduceat(batch.weights, np.cumsum(sizes) - sizes) * (edges[1] - edges[0]) ** ndim
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


def _ginibre(rng, N, count, columns):
    """count complex Ginibre matrices, N x columns, as their real and
    imaginary parts, stacked (2, count, N, columns): all real parts, then
    all imaginary."""
    return rng.standard_normal((2, count, N, columns))


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
    """The first columns of Haar unitaries U_s (Mezzadri 2007): those of
    the Q of complex Ginibre matrices A_s, given as their real and
    imaginary parts (re, im), each (count, N, n), n <= N, and returned as
    X (n, N, count) with X[a, b, s] = U_s[b, a].  Column a of U depends on
    the first a + 1 columns of A alone.  The sample axis is last so every
    step works on long contiguous rows; _haar_moduli passes one tile at a
    time, which keeps a step's operands in cache."""
    re, im = A
    X = np.empty(re.shape[::-1], dtype=complex)
    X.real = re.transpose(2, 1, 0)
    X.imag = im.transpose(2, 1, 0)
    return _gram_schmidt(X)


def haar_unitary(N, seed):
    rng = np.random.default_rng(seed)
    return _haar_columns(_ginibre(rng, N, 1, N))[:, :, 0].T


def _haar_moduli(rng, N, count):
    """|U_{b a}|^2 of count Haar U, as an (N*N, count) array with sample
    s in column s and U_{b a} in row a*N + b.  One _ginibre call draws
    the first N-1 columns of every sample's Ginibre matrix, 2N(N-1)
    normals a sample (all real parts, then all imaginary); the rows of U
    are unit vectors, so the last column is |U_{b N}|^2 = 1 -
    sum_{a<N} |U_{b a}|^2.  At N = 1 nothing is drawn."""
    X = _haar_columns(_ginibre(rng, N, count, N - 1))
    head = X.real ** 2 + X.imag ** 2
    return np.concatenate([head, 1.0 - head.sum(axis=0)[None]]).reshape(N * N, count)


def hciz_mc(E, R, samples, seed):
    """MC mean of exp(i tr U E U^dag R) over Haar U, with jackknife
    standard error over min(200, samples) blocks; returns (value, stderr).
    E and R may also be (P, N) stacks of P pairs, which share the draws;
    then value and stderr are arrays of length P, each entry == the
    single-pair call.  One _haar_moduli call a tile of samples (2N(N-1)
    normals a sample); each sample's phase, cos and sin of its trace, is
    added into its block."""
    E = np.asarray(E, dtype=float)
    R = np.asarray(R, dtype=float)
    if E.ndim not in (1, 2) or E.shape != R.shape:
        raise ValueError("E and R must be of one shape, N or (P, N), "
                         f"got shapes {E.shape} and {R.shape}")
    if samples < 1 or samples != int(samples):
        raise ValueError(f"samples must be a positive integer, got {samples}")
    samples, N = int(samples), E.shape[-1]
    ER = (E[..., :, None] * R[..., None, :]).reshape(-1, N * N)
    rng = np.random.default_rng(seed)
    counts = _block_sizes(samples)
    blocks = np.repeat(np.arange(len(counts), dtype=np.uint8), counts)
    # per pair, the block sums of the phases' real and imaginary parts
    sums = np.zeros((len(ER), 2, len(counts)))
    for t in _tiles(samples, N * N):
        blk = blocks[t]
        U2 = _haar_moduli(rng, N, len(blk))
        for p, er in enumerate(ER):
            # tr U E U^dag R = sum_{a,b} E_a R_b |U_{b a}|^2: one product per
            # pair, since BLAS rounds an entry by where it falls in the call
            # (one (P, N*N) product for all pairs would move the phases)
            tr = er @ U2
            sums[p] += [np.bincount(blk, weights=f(tr), minlength=len(counts))
                        for f in (np.cos, np.sin)]
    value, err = np.empty(len(ER), complex), np.empty(len(ER))
    for p, pair in enumerate(sums):
        est, e = _jackknife_ratio(pair.T, counts[:, None])
        value[p], err[p] = complex(*est), np.hypot(*e)
    if E.ndim == 1:
        return complex(value[0]), float(err[0])
    return value, err
