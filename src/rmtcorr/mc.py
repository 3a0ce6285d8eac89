"""Monte Carlo ground truth: matrix sampling for all three families,
weighted spectral histograms with jackknife errors, and Haar-unitary
group-integral estimation.
"""

import warnings

import numpy as np

CHUNK = 200000


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


def gaussian_matrices(rng, N, count, scale):
    """count Hermitean N x N matrices with weight exp(-tr H^2 / scale):
    diagonal variance scale/2, off-diagonal Re/Im variance scale/4."""
    A = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    H = (A + np.transpose(A, (0, 2, 1)).conj()) * (np.sqrt(scale) / np.sqrt(8.0))
    ii = np.arange(N)
    H[:, ii, ii] = rng.standard_normal((count, N)) * np.sqrt(scale / 2.0)
    return H


def _gaussian_eigs(rng, N, count, scale):
    """Eigenvalues of gaussian_matrices, drawn CHUNK matrices at a time."""
    out = np.empty((count, N))
    for s in range(0, count, CHUNK):
        H = gaussian_matrices(rng, N, min(CHUNK, count - s), scale)
        out[s: s + CHUNK] = np.linalg.eigvalsh(H)
    return out


def sample_batch(spec, count, seed):
    """Draw eigenvalue samples from the ensemble; weighted for the
    trace-power family (Gaussian proposals, weight (tr H^M1)^M2)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    N = spec.N
    if spec.family == "gaussian":
        ev = _gaussian_eigs(rng, N, count, spec.params["scale"])
        return SampleBatch(ev, np.ones(count), seed, spec)
    if spec.family == "norm_dependent":
        t, w = spec._spread_nodes()
        p = np.clip(w, 0, None)
        p = p / p.sum()
        tv = rng.choice(t, size=count, p=p)
        ev = _gaussian_eigs(rng, N, count, 1.0)
        ev *= np.sqrt(2.0 * tv)[:, None]
        return SampleBatch(ev, np.ones(count), seed, spec)
    if spec.family == "higher_trace":
        M1, M2 = spec.params["M1"], spec.params["M2"]
        ev = _gaussian_eigs(rng, N, count, 1.0)
        wt = np.sum(ev ** M1, axis=1) ** M2
        batch = SampleBatch(ev, wt, seed, spec)
        ess = batch.effective_sample_size()
        if ess < 0.01 * count:
            msg = f"effective sample size {ess:.1f} below 1% of {count}"
            batch.warnings.append(msg)
            warnings.warn(msg)
        return batch
    raise ValueError(f"unknown family {spec.family!r}")


def _jackknife_ratio(num_blocks, den_blocks):
    """Delete-1 jackknife of sum(num)/sum(den) over axis 0."""
    num_tot = num_blocks.sum(axis=0)
    den_tot = den_blocks.sum(axis=0)
    B = num_blocks.shape[0]
    est = num_tot / den_tot
    loo = (num_tot[None] - num_blocks) / (den_tot[None] - den_blocks)
    err = np.sqrt((B - 1) / B * np.sum((loo - est[None]) ** 2, axis=0))
    return est, err


def estimate_r1(batch, bins):
    """Weighted one-point eigenvalue histogram, normalized so the full
    density integrates to N; per-bin delete-1 jackknife errors."""
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
    est, err = _jackknife_ratio(num, den)
    return BinnedDensity(edges, est, err)


def estimate_r2(batch, grid):
    """Weighted two-point histogram over ordered distinct eigenvalue pairs
    (self-pairs excluded); integrates to N(N-1)."""
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
    est, err = _jackknife_ratio(num, den)
    return BinnedDensity(edges, est, err)


def _haar_batch(rng, N, count):
    """Haar unitaries by QR of complex Ginibre matrices with the
    triangular factor's diagonal phases fixed."""
    A = rng.standard_normal((count, N, N)) + 1j * rng.standard_normal((count, N, N))
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R, axis1=1, axis2=2)
    return Q * (d / np.abs(d))[:, None, :]


def haar_unitary(N, seed):
    rng = np.random.default_rng(seed)
    return _haar_batch(rng, N, 1)[0]


def hciz_mc(E, R, samples, seed):
    """MC mean of exp(i tr U E U^dag R) over Haar U, with jackknife
    standard error; returns (value, stderr)."""
    E = np.asarray(E, dtype=float)
    R = np.asarray(R, dtype=float)
    N = len(E)
    rng = np.random.default_rng(seed)
    B = 200
    sums = np.empty(B, dtype=complex)
    counts = np.empty(B)
    per = [len(ix) for ix in np.array_split(np.arange(samples), B)]
    for b, c in enumerate(per):
        acc = 0j
        done = 0
        while done < c:
            cc = min(CHUNK // max(N, 1), c - done)
            U = _haar_batch(rng, N, cc)
            # tr U E U^dag R = sum_{a,b} E_a R_b |U_{b a}|^2
            P = np.abs(U) ** 2
            acc += np.sum(np.exp(1j * np.einsum('sba,a,b->s', P, E, R)))
            done += cc
        sums[b] = acc
        counts[b] = c
    est, err_re = _jackknife_ratio(np.real(sums)[:, None], counts[:, None])
    _, err_im = _jackknife_ratio(np.imag(sums)[:, None], counts[:, None])
    est_c = complex(np.sum(sums) / samples)
    return est_c, float(np.hypot(err_re[0], err_im[0]))
