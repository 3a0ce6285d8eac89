"""Correlation-function evaluation paths: determinant-factorized
convolution in the diagonal variables, the Fourier/jet eigenvalue
integral, the factorized-kernel route, trace-power and oscillator-basis
closed forms, the generating-function value, and time-domain transforms.

Every route is the sum over the separable terms of correlation_terms of
k x k determinants det[sum_{n<N} row_p(n) col_q(n)], taken by one engine
(_det_sums); each route brings its own row and column factors, which carry
its normalization (the eigenvalue-integral and factorized routes share
theirs).

Sides and variants follow one rule.  Row p carries the increment side L_p
of its point.  Rhat: a row with L = -1 is the complex conjugate of its
L = +1 row.  R: the rows are the imaginary parts of the sided rows, so R
carries prod_p L_p; its value is real.
"""

import functools
import math

import numpy as np

from .ensembles import correlation_terms, slot_phi_jet, jet_mul, _slot_phi_poly
from .kernels import IncrementedPoint
from .special import (SQRT_PI, _osc_tower, _osc_hat_tower, gauss_moments,
                      gauss_moment_cauchy, half_gauss_oscillatory)

VARIANTS = ("Rhat", "R")
METHODS = ("convolution", "eigenvalue_integral", "factorized",
           "closed_form_gue", "closed_form_higher_trace")


class CorrelationRequest:
    """One correlation evaluation: ensemble, k points with increment
    sides, variant (Rhat keeps real parts, R takes imaginary parts),
    and the method to use."""

    def __init__(self, spec, k, points, variant="Rhat", method="convolution"):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if len(points) != k or k < 1:
            raise ValueError("need exactly k points, k >= 1")
        self.spec = spec
        self.k = k
        self.points = [p if isinstance(p, IncrementedPoint) else IncrementedPoint(p)
                       for p in points]
        if not all(math.isfinite(p.value) for p in self.points):
            raise ValueError("points must be finite, got "
                             f"{[p.value for p in self.points]}")
        if any(p.epsilon != 0 for p in self.points):
            raise ValueError("the engine routes compute the epsilon -> 0+ limit; "
                             "points must have epsilon = 0")
        self.variant = variant
        self.method = method


class CorrelationResult:
    def __init__(self, value, error_estimate, metadata=None):
        self.value = value
        self.error_estimate = error_estimate
        self.metadata = metadata or {}

    def __repr__(self):
        return f"CorrelationResult({self.value}, err={self.error_estimate})"


def evaluate(req):
    fn = {"convolution": correlations_convolution,
          "eigenvalue_integral": correlations_eigenvalue_integral,
          "factorized": correlations_factorized,
          "closed_form_gue": correlations_closed_form_gue,
          "closed_form_higher_trace": correlations_higher_trace}[req.method]
    return fn(req)


# ---------------------------------------------------------------------------
# The determinant engine
# ---------------------------------------------------------------------------

def _det_sums(terms, N, row, row_pts, col, col_pts):
    """sum over terms (coef, slots) of coef det[sum_{n<N}
    row(N, x_p, L_p, *slots[p])(n) col(N, y_q, *slots[k + q])(n)], with
    row_pts[p] = (x_p, L_p) and col_pts[q] = y_q.  Terms repeat slot
    factors, so each distinct row and column factor is built once and
    shared by every term; for k >= 2 the determinants of all terms are
    taken in one stacked call."""
    k = len(row_pts)
    rows, cols = {}, {}
    for _, slots in terms:
        for p in range(k):
            if (p, slots[p]) not in rows:
                rows[p, slots[p]] = row(N, *row_pts[p], *slots[p])
            if (p, slots[k + p]) not in cols:
                cols[p, slots[k + p]] = col(N, col_pts[p], *slots[k + p])
    if k == 1:
        # a 1 x 1 determinant is its entry, and np.dot takes the sum that a
        # stacked product takes
        dets = [rows[0, slots[0]].dot(cols[0, slots[1]]) for _, slots in terms]
    else:
        # each distinct factor is stacked once, and every term's k rows and
        # columns are indexed out of the stacks
        ri = {key: i for i, key in enumerate(rows)}
        ci = {key: i for i, key in enumerate(cols)}
        R = np.array(list(rows.values()))[[[ri[p, s[p]] for p in range(k)] for _, s in terms]]
        C = np.array(list(cols.values()))[[[ci[q, s[k + q]] for q in range(k)] for _, s in terms]]
        dets = np.linalg.det(R @ C.transpose(0, 2, 1))
    return np.dot(dets, [coef for coef, _ in terms])


def _determinants(req, rows, col, metadata):
    """Evaluate req as one _det_sums over correlation_terms(req.spec, req.k),
    with error estimate 0.  rows = (Rhat row, R row) are factor functions
    f(N, x, L, v, m); an R row of None is the imaginary part of the Rhat
    row.  col is a factor function g(N, x, v, m).  Coincident points need
    no special case: the term sum is odd under swapping their columns."""
    rhat, r = rows
    row = rhat if req.variant == "Rhat" else r or (lambda *args: np.imag(rhat(*args)))
    val = complex(_det_sums(correlation_terms(req.spec, req.k), req.spec.N, row,
                            [(p.value, p.side) for p in req.points],
                            col, [p.value for p in req.points]))
    return CorrelationResult(complex(val.real) if req.variant == "R" else val, 0.0, metadata)


# ---------------------------------------------------------------------------
# Convolution and trace-power closed form: h-space factors
# ---------------------------------------------------------------------------

def _row_rhat(N, x, L, v, m):
    """row_n = (1/pi) integral (pi v)^(-1/2) e^(-a^2/v) a^m / (x - a - i L 0)^(n+1)
    da, n = 0..N-1, via the scaled Gaussian Cauchy transforms."""
    F = gauss_moment_cauchy(N - 1, m, x / math.sqrt(v), side=-L)
    return _rhat_scale(N, v, m) * F[:, m]


@functools.lru_cache(maxsize=64)
def _rhat_scale(N, v, m):
    """pi^(-3/2) v^((m - n - 1)/2), n < N, read-only."""
    n = np.arange(N)
    scale = SQRT_PI ** -3 * v ** ((m - n - 1) / 2.0)
    scale.setflags(write=False)
    return scale


def _row_r(N, x, L, v, m):
    """Imaginary-part rows: the distributional limit
    Im row_n = L * (-1)^n (1/n!) d^n/dx^n [(pi v)^(-1/2) x^m e^(-x^2/v)],
    by the Leibniz rule sum_j C(m, j) u^(m-j) e_(n-j) over the Gaussian
    derivatives e_n = (1/n!) d^n/du^n e^(-u^2) at u = x / sqrt(v), taken
    from e_(n+1) = -(2u e_n + 2e_(n-1)) / (n+1)."""
    u = x / math.sqrt(v)
    prev, cur = 0.0, float(np.exp(-u * u))
    e = [cur]
    for n in range(N - 1):
        prev, cur = cur, -(2.0 * u * cur + 2.0 * prev) / (n + 1)
        e.append(cur)
    j = np.arange(m + 1)
    d = np.convolve(e, _binomials(m + 1)[m] * u ** (m - j))[:N]
    # L = +-1 changes signs only, so it may come first
    return L * _r_scale(N, v, m) * d


@functools.lru_cache(maxsize=64)
def _r_scale(N, v, m):
    """(-1)^n (pi v)^(-1/2) v^((m - n)/2), n < N, read-only."""
    n = np.arange(N)
    scale = (-1.0) ** n * (np.pi * v) ** -0.5 * v ** ((m - n) / 2.0)
    scale.setflags(write=False)
    return scale


@functools.lru_cache(maxsize=8)
def _binomials(N):
    """C(n, j) for n, j < N (0 for j > n), read-only."""
    table = np.array([[math.comb(n, j) for j in range(N)] for n in range(N)], dtype=float)
    table.setflags(write=False)
    return table


def _col_exact(N, x, v, m):
    """col_n = integral (pi v)^(-1/2) e^(-b^2/v) b^m (x - ib)^n db
    (the second kernel slot carries the i on the diagonal variable),
    by binomial expansion into Gaussian moments: the (n, j) table
    C(n, j) x^(n-j) (-i)^j v^((m+j)/2) gamma_(m+j), summed over j."""
    j = np.arange(N)
    # the sum over j cancels like the Hermite polynomials it expands
    # (ROADMAP item 2); its terms take Python's float powers and it runs
    # left to right, so its round-off does not depend on numpy's
    # vectorized powers or summation order
    xp = np.array([x ** e for e in range(N)])[np.maximum(j[:, None] - j, 0)]
    vp = np.array([v ** ((m + e) / 2.0) for e in range(N)])
    terms = _binomials(N) * xp * (-1j) ** j * vp * gauss_moments(N - 1 + m)[m:]
    col = np.cumsum(terms, axis=1)[:, -1]
    return col.real / SQRT_PI + 1j * (col.imag / SQRT_PI)


def _col_rec(N, x, v, m):
    """The same column integrals by their recurrence in n: (x - ib)^(n+1) =
    (x - ib)^n (x - ib) and one integration by parts in b give
    col_n = (-i)^m r_n(m) with r real, r_0(j) = i^j v^(j/2) gamma_j / sqrt(pi)
    and r_(n+1)(j) = x r_n(j) + (v/2)(j r_n(j-1) - n r_(n-1)(j)), j <= m.
    Exact for every N and m; the odd-in-b part is exactly 0."""
    h = 0.5 * v
    g = gauss_moments(m).tolist()
    hn = [h * n for n in range(N - 1)]
    r = [0.0] * (N - 1)
    for j in range(m + 1):
        # one pass over n per j, reading r_n(j - 1) from the previous pass
        hj = h * j
        cur, prev = (-1.0) ** (j // 2) * v ** (j / 2.0) * g[j] / SQRT_PI, 0.0
        col = [cur]
        for below, hn_n in zip(r, hn):
            cur, prev = x * cur + hj * below - hn_n * prev, cur
            col.append(cur)
        r = col
    r = (-1.0) ** (m // 2) * np.array(r)
    return r + 0j if m % 2 == 0 else -1j * r


def correlations_convolution(req):
    """Reduced-density convolution of the fundamental determinant kernel,
    carried out termwise exactly: sided factors through Faddeeva boundary
    values, moment factors through their recurrence in n."""
    return _determinants(req, (_row_rhat, _row_r), _col_rec, {"path": "moment-recurrence"})


def correlations_higher_trace(req):
    """Trace-power closed form: the same determinant sum with every factor
    evaluated in closed form.  The moment columns are exact for every slot
    (v, m), so every spec is accepted."""
    return _determinants(req, (_row_rhat, _row_r), _col_exact, {"path": "moment-determinant"})


# ---------------------------------------------------------------------------
# Eigenvalue-integral (Fourier/jet) and factorized-kernel paths
# ---------------------------------------------------------------------------

def _halfline_vec(N, x, L, v, m):
    """i I_n, n = 0..N-1, with I_n the integral along the half-line from 0
    to L infinity of (-i r)^n e^(-i x r) (slot Fourier factor)(r) dr.  The
    orientation makes the L = -1 row the conjugate of the L = +1 row."""
    a = _slot_phi_poly(v, m)
    # r -> L r carries the half-line onto r > 0, and the term a_j G_(n+j)
    # picks up L^(n+j) = L^(n+m): a_j vanishes unless j = m mod 2
    G = half_gauss_oscillatory(N + len(a) - 2, L * x, v / 4.0)
    window, phase = _halfline_layout(N, L, len(a))
    return 1j * L ** (m + 1) * (phase * (a * G[window]).sum(axis=1))


@functools.lru_cache(maxsize=64)
def _halfline_layout(N, L, width):
    """The (N, width) window n + j into the G tower and the phases
    (-i L)^n, n < N, read-only."""
    window = np.arange(N)[:, None] + np.arange(width)
    phase = (-1j * L) ** np.arange(N)
    window.setflags(write=False)
    phase.setflags(write=False)
    return window, phase


def _jet_vec(N, x, v, m):
    """J_n = (1/pi) times the order-n Taylor coefficient of e^(-x r)
    (slot factor)(r) at 0."""
    ex = np.array([(-x) ** j / math.factorial(j) for j in range(N)], dtype=complex)
    return jet_mul(ex, _slot_jet(v, m, N - 1), N - 1) / np.pi


@functools.lru_cache(maxsize=64)
def _slot_jet(v, m, order):
    """slot_phi_jet(v, m, order), read-only: it does not depend on the point."""
    jet = slot_phi_jet(v, m, order)
    jet.setflags(write=False)
    return jet


def correlations_eigenvalue_integral(req):
    """Fourier-side route: half-line r1 integrals against r2 jets of the
    characteristic function; R takes the imaginary part of the half-line
    rows."""
    return _determinants(req, (_halfline_vec, None), _jet_vec, {"path": "fourier-jet"})


def _factorizing_scale(spec):
    # one term whose slots all have m = 0 is a single Gaussian of slot
    # variance v: the Gaussian, a spike, or a constant trace-power weight
    terms = correlation_terms(spec, 1)
    if len(terms) == 1 and not any(m for _, m in terms[0][1]):
        return terms[0][1][0][0]
    raise ValueError("factorized path needs a factorizing spec")


def factorized_kernel(spec, xp, xq, Lp=1):
    """Correlation kernel for factorizing characteristic functions,
    assembled from jet and half-line factors, in the determinant-equivalent
    gauge exp((xp^2 - xq^2)/(2v)) that matches the oscillator-basis kernel
    entrywise for the Gaussian case."""
    v = _factorizing_scale(spec)
    N = spec.N
    val = np.dot(_halfline_vec(N, xp, Lp, v, 0), _jet_vec(N, xq, v, 0))
    return val * np.exp((xp * xp - xq * xq) / (2.0 * v))


def correlations_factorized(req):
    """Determinant of the factorized kernel, whose gauge drops out (the jet
    columns are real); only specs whose correlation_terms are the one term
    of that kernel, with m = 0 on every slot."""
    _factorizing_scale(req.spec)
    return _determinants(req, (_halfline_vec, None), _jet_vec, {"path": "factorized-kernel"})


# ---------------------------------------------------------------------------
# GUE closed form: oscillator-basis factors
# ---------------------------------------------------------------------------

def _row_osc_hat(N, x, L, v, m):
    """Sided companion row v^(-1/2) phi^_n(x / sqrt v), n < N
    (Im phi^_n = phi_n); the L = -1 row is its conjugate."""
    s = math.sqrt(v)
    t = _osc_hat_tower(N - 1, x / s) / s
    return t if L == 1 else t.conj()


def _col_osc(N, x, v, m):
    """Oscillator column phi_n(x / sqrt v), n < N."""
    return _osc_tower(N - 1, x / math.sqrt(v))


def _row_osc(N, x, L, v, m):
    """Imaginary part of the sided companion row: L v^(-1/2) phi_n(x / sqrt v)."""
    return L / np.sqrt(v) * _col_osc(N, x, v, m)


def correlations_closed_form_gue(req):
    """Oscillator-basis determinant for Gaussian mixtures.  Correlation
    functions are linear in P(H), so a variance mixture is
    sum_i w_i R_k^Gauss(scale v_i) over its terms (w_i, v_i); slots with
    m > 0 have no oscillator factor and are refused."""
    if any(m for _, slots in correlation_terms(req.spec, req.k) for _, m in slots):
        raise ValueError("closed_form_gue needs a Gaussian mixture: a slot with m > 0 "
                         "has no oscillator factor")
    return _determinants(req, (_row_osc_hat, _row_osc), _col_osc,
                         {"path": "oscillator-determinant"})


# ---------------------------------------------------------------------------
# Generating function
# ---------------------------------------------------------------------------

def generating_function_value(spec, k, x, J, metric=None):
    """Z_k at source strengths J; k = 1 only.  Z_1(x, J) = 1 + 2 pi J
    M(x - J, x + J) with M the Fourier/jet kernel entry, so that
    (1/2pi) dZ/dJ at J = 0 equals Rhat_1(x) on the side of the metric."""
    if k != 1:
        raise NotImplementedError("generating function implemented for k = 1")
    L = (metric or [1])[0]
    x1 = float(np.asarray(x).reshape(-1)[0])
    J1 = float(np.asarray(J).reshape(-1)[0])
    total = _det_sums(correlation_terms(spec, 1), spec.N, _halfline_vec, [(x1 - J1, L)],
                      _jet_vec, [x1 + J1])
    return 1.0 + 2.0 * np.pi * J1 * total


# ---------------------------------------------------------------------------
# Time domain
# ---------------------------------------------------------------------------

def _simpson_weights(n, dx):
    if n % 2 == 0:
        raise ValueError("Simpson rule needs an odd number of samples")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * dx / 3.0


def time_domain_transform(grid_in, samples, grid_out, direction):
    """Unitary-convention Fourier pair between energy and time.

    direction 'to_time': g(t) = (2pi)^(-1/2) integral e^(itx) f(x) dx;
    direction 'to_energy': the inverse sign convention.  A Nyquist check
    rejects grids that cannot resolve the oscillation."""
    grid_in = np.asarray(grid_in, dtype=float)
    samples = np.asarray(samples, dtype=complex)
    grid_out = np.asarray(grid_out, dtype=float)
    dx = grid_in[1] - grid_in[0]
    if dx * np.max(np.abs(grid_out)) > np.pi:
        raise ValueError("output grid violates the Nyquist limit of the input grid")
    if direction == "to_time":
        sign = +1.0
    elif direction == "to_energy":
        sign = -1.0
    else:
        raise ValueError("direction must be to_time or to_energy")
    w = _simpson_weights(len(grid_in), dx)
    phase = np.exp(sign * 1j * np.outer(grid_out, grid_in))
    return phase @ (w * samples) / np.sqrt(2 * np.pi)
