"""Correlation-function evaluation paths: determinant-factorized
convolution in the diagonal variables, the Fourier/jet eigenvalue
integral, the factorized-kernel route, trace-power and oscillator-basis
closed forms, the generating-function value, and time-domain transforms.

Every route is the sum over the separable terms of correlation_terms of
k x k determinants det[sum_{n<N} row_p(n) col_q(n)], taken by one engine
(_det_sums); each route brings its own row and column factors, which carry
its normalization (the eigenvalue-integral and factorized routes share
theirs).

A factor function f(N, x, v, ms) returns the factors of one slot point
for every moment m in ms of the slot weight h^m e^(-h^2/v) as one stack,
(len(ms), N), built from one tower.  evaluate_grid runs the same routes on
a whole grid: x is then a (P,) array and the stack (len(ms), P, N).  The
terms read a slot's stack as it is where they take its members in stack
order (every slot of a Gaussian mixture), and gather their rows or columns
from it only where they do not (the moment families of a trace power).  An
R row that is a function of its route's other stack is declared as
(source factor, map).  A point's stacks are kept in a bounded cache
(_point_factors), so the routes, variants and metrics at one point build
each factor function's stack once, and a derived R row reads its source's;
a grid builds its own every time.

Sides and variants follow one rule.  Every factor is that of the side
L = +1 (x - i0).  Rhat: for the real weight an L = -1 row is the complex
conjugate of its L = +1 row (taken in _det_sums).  R: the rows are their
imaginary parts, so R carries prod_p L_p (_determinants); its value is real.
"""

import cmath
import functools
import itertools
import math

import numpy as np

from .ensembles import correlation_terms, slot_phi_jet, _jet_mul_index, _slot_phi_poly
from .kernels import IncrementedPoint
from .special import (SQRT_PI, _factorials, _gauss_derivatives, _num, _osc_tower, _osc_hat_tower,
                      _read_only, gauss_moments, gauss_moment_cauchy, half_gauss_oscillatory)

VARIANTS = ("Rhat", "R")
# each route's function, by its name in this module: evaluate looks it up
# at the call, so a function replaced on the module is the one it runs
_ROUTES = {"convolution": "correlations_convolution",
           "eigenvalue_integral": "correlations_eigenvalue_integral",
           "factorized": "correlations_factorized",
           "closed_form_gue": "correlations_closed_form_gue",
           "closed_form_higher_trace": "correlations_higher_trace"}
METHODS = tuple(_ROUTES)

# point stacks _point_factors keeps: the benchmark's k = 2 tables find 95%
# of theirs built, its Monte Carlo reference points 74%, from 128 entries
# on, and a one-point table, visiting each point once a route in random
# order, 13% at 512.  An entry is 0.9 KB at N = 32 for one moment, so 512
# stay below 4 MB up to the twelve moments of the trace-power cap.
_FACTOR_CACHE = 512


class CorrelationRequest:
    """One correlation evaluation: ensemble, k points with increment
    sides, variant (Rhat keeps real parts, R takes imaginary parts),
    and the method to use.  The routes read the points as xs (one value
    per slot, a (P,) array per slot for a grid) and sides."""

    def __init__(self, spec, k, points, variant="Rhat", method="convolution"):
        points = [p if isinstance(p, IncrementedPoint) else IncrementedPoint(p) for p in points]
        self._take(spec, k, [p.value for p in points], [p.side for p in points], variant, method)
        if any(p.epsilon != 0 for p in points):
            raise ValueError("the engine routes compute the epsilon -> 0+ limit; "
                             "points must have epsilon = 0")

    def _take(self, spec, k, xs, sides, variant, method):
        """The checks a point and a grid share, then the fields."""
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if len(xs) != k or k < 1:
            raise ValueError("need exactly k points, k >= 1")
        if not all(map(_finite, xs)):
            raise ValueError("points must be finite, got "
                             f"{np.asarray(xs)[~np.isfinite(xs)].tolist()}")
        self.spec, self.k, self.xs, self.sides = spec, k, xs, sides
        self.variant, self.method = variant, method


def _finite(x):
    """Whether x, a point's number or a grid's array, is finite throughout."""
    return np.isfinite(x).all() if isinstance(x, np.ndarray) else cmath.isfinite(x)


class CorrelationResult:
    def __init__(self, value, error_estimate, metadata=None):
        self.value = value
        self.error_estimate = error_estimate
        self.metadata = metadata or {}

    def __repr__(self):
        return f"CorrelationResult({self.value}, err={self.error_estimate})"


def evaluate(req):
    return globals()[_ROUTES[req.method]](req)


def evaluate_grid(spec, k, points, variant="Rhat", method="convolution", sides=None):
    """evaluate at every row of points, shape (P, k), in one call, each
    slot p on side sides[p] (default +1) for all rows.  The value is a
    length-P complex array; every route runs the factors and _det_sums of
    evaluate with a (P,) array per slot."""
    xs = np.asarray(points, dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"points must have shape (P, k), got {xs.shape}")
    sides = [1] * k if sides is None else list(sides)
    if len(sides) != k or any(s not in (1, -1) for s in sides):
        raise ValueError(f"sides must be k = {k} values of +1 or -1, got {sides}")
    # a request whose slots hold the grid's columns
    req = CorrelationRequest.__new__(CorrelationRequest)
    req._take(spec, k, list(xs.T), sides, variant, method)
    return evaluate(req)


# ---------------------------------------------------------------------------
# The determinant engine
# ---------------------------------------------------------------------------

def _det_sums(spec, row, col, xs, sides, ys=None):
    """sum over the terms (coef, slots) of correlation_terms(spec, k) of
    coef det[sum_{n<N} row_p(n) col_q(n)], row_p the factor of slot p at
    xs[p], conjugated where sides[p] = -1, and col_q that of slot k + q at
    ys[q] (default xs[q]).  Each slot point builds one stack per family of
    the spec's cached _layout.  Where the terms take a slot's members in
    stack order, they read the stack as it is; elsewhere each term's rows
    or columns are gathered from it.  _term_dets takes every term's
    determinant from the k^2 term-wise dots of its (T[, P], N) rows and
    columns."""
    N, k = spec.N, len(xs)
    coefs, fams, index = _spec_layout(spec, k)
    R, C = [], []
    for p in range(k):
        # the stacks are contiguous, and so their gathers, so that the order
        # of each dot's sum over n is fixed; slice(None) takes every member
        Rp = _factors(row, N, xs[p], fams[p])
        Cp = _factors(col, N, xs[p] if ys is None else ys[p], fams[k + p])
        Rp = Rp if isinstance(index[p], slice) else Rp[index[p]]
        # np.vecdot conjugates its first argument: an L = -1 row enters as it is
        R.append(Rp if sides[p] < 0 else Rp.conj())
        C.append(Cp if isinstance(index[k + p], slice) else Cp[index[k + p]])
    dets = _term_dets(R, C)
    if dets.ndim == 1:
        return dets.dot(coefs)
    # a grid's rows contiguous, so that each point's term sum is the same
    # dot as evaluate's: the sum can cancel to its round-off
    return np.vecdot(np.ascontiguousarray(dets.T).conj(), coefs)


def _term_dets(R, C):
    """Each term's det K, K_pq = sum_n R_p(n) C_q(n) over the k (T[, P], N)
    rows R and columns C (np.vecdot conjugates R): the entry itself at
    k = 1, K00 K11 - K01 K10 written out at k = 2 (the operations of
    _permutation_sum in its order), the permutation sum from k = 3."""
    if len(R) == 1:
        return np.vecdot(R[0], C[0])
    if len(R) == 2:
        return np.vecdot(R[0], C[0]) * np.vecdot(R[1], C[1]) \
            - np.vecdot(R[0], C[1]) * np.vecdot(R[1], C[0])
    return _permutation_sum([[np.vecdot(Rp, Cq) for Cq in C] for Rp in R])


def _permutation_sum(K):
    """det K of a k x k nested list of equal-shape arrays, entrywise:
    sum over the permutations s of sign(s) prod_p K[p][s(p)], k! products."""
    dets = None
    for sign, perm in _permutations(len(K)):
        term = K[0][perm[0]]
        for p in range(1, len(K)):
            term = term * K[p][perm[p]]
        dets = term if dets is None else dets + term if sign > 0 else dets - term
    return dets


@functools.lru_cache(maxsize=8)
def _permutations(k):
    """The (sign, permutation) pairs of range(k), the identity first."""
    return tuple(((-1) ** sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]), perm)
                 for perm in itertools.permutations(range(k)))


def _spec_layout(spec, k):
    """The _layout of correlation_terms(spec, k), cached on the spec."""
    if ("layout", k) not in spec._cache:
        spec._cache["layout", k] = _layout(correlation_terms(spec, k))
    return spec._cache["layout", k]


def _layout(terms):
    """A term list's coefficients; per slot the families ((v, ms), ...), ms
    the sorted moments the slot takes at variance v; per slot each term's
    index into the stacked families (slice(None) where term t takes member
    t, so that the stack needs no gather)."""
    fams, index = [], []
    for slot in zip(*(slots for _, slots in terms)):
        ms = {}
        for v, m in slot:
            ms.setdefault(v, set()).add(m)
        fams.append(tuple((v, tuple(sorted(family))) for v, family in ms.items()))
        order = [(v, m) for v, family in fams[-1] for m in family]
        at = {vm: i for i, vm in enumerate(order)}
        index.append(slice(None) if order == list(slot) else np.array([at[vm] for vm in slot]))
    return np.array([c for c, _ in terms]), fams, index


def _factors(f, N, x, fams):
    """The stacks f(N, x, v, ms) of the families (v, ms) one after the other,
    contiguous; at a point, read-only and kept in _point_factors."""
    if isinstance(x, np.ndarray):
        return _stack(f, N, x, fams)
    return _point_factors(f, N, x, math.copysign(1.0, x), fams)


@functools.lru_cache(maxsize=_FACTOR_CACHE)
def _point_factors(f, N, x, sign, fams):
    """_stack at a point x, read-only, kept under (f, N, x, sign, fams).  The
    key holds the factor function itself, so a route reads only stacks its
    own factor functions built; the sign of x keeps -0.0 apart from 0.0,
    whose factors differ in the signs of their zeros."""
    out = _stack(f, N, x, fams)
    out.setflags(write=False)
    return out


def _stack(f, N, x, fams):
    """The stacks f(N, x, v, ms) of the families one after the other, in
    C order: a grid's factors and their concatenation need not be.  A derived
    row f = (source, map) is map of the source's stack from _factors, which
    at a point is the cached one."""
    if isinstance(f, tuple):
        source, take = f
        return np.ascontiguousarray(take(_factors(source, N, x, fams), fams))
    stack = f(N, x, *fams[0]) if len(fams) == 1 else np.concatenate(
        [f(N, x, v, ms) for v, ms in fams])
    return np.ascontiguousarray(stack)


def _members(table, x):
    """A point-free (len(ms), ...) table, with a point axis after the first on a grid."""
    return table[:, None] if isinstance(x, np.ndarray) else table


def _determinants(req, rows, col, metadata):
    """Evaluate req as one _det_sums over correlation_terms(req.spec, req.k),
    with error estimate 0.  rows = (Rhat row, R row) and col are factor
    functions f(N, x, v, ms), or for a derived R row (source, map) (see
    _stack).  R rows are real, so R takes its sign prod_p L_p here.
    Coincident points need no special case: the term sum is odd under
    swapping their columns."""
    rhat, r = rows
    row = rhat if req.variant == "Rhat" else r
    # a point's value is a Python complex, a grid's a complex array
    val = _num(_det_sums(req.spec, row, col, req.xs, req.sides))
    if not _finite(val):
        raise ValueError(f"{req.method} gives a value that is not finite at N = {req.spec.N}")
    if req.variant == "R":
        val = math.prod(req.sides) * val.real + 0j
    return CorrelationResult(val, 0.0, metadata)


# ---------------------------------------------------------------------------
# Convolution and trace-power closed form: h-space factors
# ---------------------------------------------------------------------------

def _row_rhat(N, x, v, ms):
    """row_n = (1/pi) integral (pi v)^(-1/2) e^(-a^2/v) a^m / (x - a - i0)^(n+1)
    da, n = 0..N-1, for each m in ms, via one table of the scaled Gaussian
    Cauchy transforms to max(ms)."""
    F = gauss_moment_cauchy(N - 1, ms[-1], x / math.sqrt(v))
    F = F.swapaxes(0, 1).take(ms, axis=0).swapaxes(1, -1)
    return _members(_row_scales(N, v, ms)[0], x) * F


@_read_only(64)
def _row_scales(N, v, ms):
    """The scales of the Rhat and the R rows, m in ms, n < N, read-only:
    pi^(-3/2) v^((m - n - 1)/2) and (-1)^n (pi v)^(-1/2) v^((m - n)/2)."""
    m, n = np.array(ms)[:, None], np.arange(N)
    return (SQRT_PI ** -3 * v ** ((m - n - 1) / 2.0),
            (-1.0) ** n * (np.pi * v) ** -0.5 * v ** ((m - n) / 2.0))


def _row_r(N, x, v, ms):
    """Imaginary-part rows: the distributional limit
    Im row_n = (-1)^n (1/n!) d^n/dx^n [(pi v)^(-1/2) x^m e^(-x^2/v)],
    m in ms, from D_n(m) = (1/n!) d^n/du^n [u^m e^(-u^2)] at u = x / sqrt(v):
    D_n(0) is the Gaussian-derivative tower, and each higher moment is one
    Leibniz step D_n(m) = u D_n(m-1) + D_(n-1)(m-1), one array operation
    over n (and a grid's points) per moment."""
    u = x / math.sqrt(v)
    d = np.array(_gauss_derivatives(N - 1, u, _num(np.exp(-u * u))))
    stack = []
    for m in range(ms[-1] + 1):
        if m:
            d, prev = u * d, d
            d[1:] += prev[:-1]
        if m in ms:
            stack.append(d)
    return _members(_row_scales(N, v, ms)[1], x) * np.array(stack).swapaxes(1, -1)


@_read_only(8)
def _binomials(N):
    """C(n, j) for n, j < N (0 for j > n), read-only."""
    return np.array([[math.comb(n, j) for j in range(N)] for n in range(N)], dtype=float)


def _col_exact(N, x, v, ms):
    """col_n = integral (pi v)^(-1/2) e^(-b^2/v) b^m (x - ib)^n db, m in ms
    (the second kernel slot carries the i on the diagonal variable), by
    binomial expansion into Gaussian moments: the (n, j) table
    C(n, j) x^(n-j) (-i)^j v^((m+j)/2) gamma_(m+j), summed over j."""
    # the sum over j cancels like the Hermite polynomials it expands
    # (ROADMAP item 2); its terms take the C library's powers (as Python's
    # float powers do) and it runs left to right, so its round-off does
    # not depend on numpy's vectorized powers or summation order
    window, phase, vp, g = _exact_tables(N, v, ms)
    terms = _binomials(N) * _powers(x, N).take(window, axis=-1) * phase \
        * _members(vp, x) * _members(g, x)
    col = np.cumsum(terms, axis=-1)[..., -1]
    return col.real / SQRT_PI + 1j * (col.imag / SQRT_PI)


@_read_only(64)
def _exact_tables(N, v, ms):
    """_col_exact's point-free tables, read-only: the index n - j into x's
    powers (0 past the diagonal), the phases (-i)^j, and the (len(ms), 1, N)
    tables v^((m+j)/2) (the C library's pow) and gamma_(m+j), m in ms."""
    j, g = np.arange(N), gauss_moments(N - 1 + ms[-1])
    return (np.maximum(j[:, None] - j, 0), (-1j) ** j,
            np.array([[[v ** ((m + e) / 2.0) for e in range(N)]] for m in ms]),
            np.array([[g[m:m + N]] for m in ms]))


def _col_rec(N, x, v, ms):
    """The same column integrals by their recurrence in n: (x - ib)^(n+1) =
    (x - ib)^n (x - ib) and one integration by parts in b give
    col_n = (-i)^m r_n(m) with r real, r_0(j) = i^j v^(j/2) gamma_j / sqrt(pi)
    and r_(n+1)(j) = x r_n(j) + (v/2)(j r_n(j-1) - n r_(n-1)(j)), j <= max(ms).
    Exact for every N and m; the odd-in-b part is exactly 0."""
    h = 0.5 * v
    g = gauss_moments(ms[-1]).tolist()
    hn = [h * n for n in range(N - 1)]
    r = [0.0] * (N - 1)
    stack = []
    for j in range(ms[-1] + 1):
        # one pass over n per j, reading r_n(j - 1) from the previous pass
        hj = h * j
        # (+ 0 x gives each point of a grid its seed)
        cur, prev = (-1.0) ** (j // 2) * v ** (j / 2.0) * g[j] / SQRT_PI + 0.0 * x, 0.0
        col = [cur]
        for below, hn_n in zip(r, hn):
            cur, prev = x * cur + hj * below - hn_n * prev, cur
            col.append(cur)
        r = col
        if j in ms:
            stack.append(r)
    return _members(_col_phases(ms), x) * np.array(stack).swapaxes(1, -1)


@_read_only(64)
def _col_phases(ms):
    """The (len(ms), 1) phases (-i)^m, m in ms, read-only."""
    return np.array([[(1, -1j, -1, 1j)[m % 4]] for m in ms], dtype=complex)


def _powers(x, n):
    """x^e for e < n on a last axis, by the C library's pow: Python's float
    powers at a point, np.float_power (the same pow) on a grid."""
    if isinstance(x, np.ndarray):
        return np.float_power.outer(x, np.arange(n))
    return np.array([x ** e for e in range(n)])


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

def _halfline_vec(N, x, v, ms):
    """i I_n, n = 0..N-1, with I_n the integral along the half-line r > 0
    of (-i r)^n e^(-i x r) (slot Fourier factor)(r) dr, for each m in ms
    from one G tower.  The half-line r < 0 gives the L = -1 row, its
    conjugate."""
    G = half_gauss_oscillatory(N + ms[-1] - 1, x, v / 4.0).T
    stack = []
    for m in ms:
        a = _slot_phi_poly(v, m)
        window, phase = _halfline_layout(N, len(a))
        stack.append(1j * (phase * (a * G.take(window, axis=-1)).sum(axis=-1)))
    return np.array(stack)


def _imag(stack, fams):
    """The half-line routes' R rows Im i I_n from their Rhat rows' stack."""
    return stack.imag


@_read_only(64)
def _halfline_layout(N, width):
    """The (N, width) window n + j into the G tower and the phases
    (-i)^n, n < N, read-only."""
    return np.arange(N)[:, None] + np.arange(width), (-1j) ** np.arange(N)


def _jet_vec(N, x, v, ms):
    """J_n = (1/pi) times the order-n Taylor coefficient of e^(-x r)
    (slot factor)(r) at 0, m in ms, from one table of (-x)^i / i!."""
    ex = _powers(-x, N) / _factorials(N - 1)
    return (ex[..., None] * _members(_slot_jets(v, ms, N), x)).sum(axis=-2) / np.pi


@_read_only(64)
def _slot_jets(v, ms, N):
    """The (len(ms), N, N) tables jet_(n-i) of slot_phi_jet(v, m, N - 1),
    0 where n < i, read-only: they do not depend on the point."""
    return np.array([np.append(slot_phi_jet(v, m, N - 1), 0)[_jet_mul_index(N, N, N - 1)]
                     for m in ms])


def correlations_eigenvalue_integral(req):
    """Fourier-side route: half-line r1 integrals against r2 jets of the
    characteristic function; R takes the imaginary part of the half-line
    rows."""
    return _determinants(req, (_halfline_vec, (_halfline_vec, _imag)), _jet_vec,
                         {"path": "fourier-jet"})


def _factorizing_scale(spec):
    # one term whose slots all have m = 0 is a single Gaussian of slot
    # variance v: the Gaussian, a spike, or a constant trace-power weight
    coefs, fams, _ = _spec_layout(spec, 1)
    if len(coefs) == 1 and len(set(fams)) == 1 and fams[0][0][1] == (0,):
        return fams[0][0][0]
    raise ValueError("factorized path needs a factorizing spec")


def factorized_kernel(spec, xp, xq):
    """Correlation kernel for factorizing characteristic functions,
    assembled from jet and half-line factors, in the determinant-equivalent
    gauge exp((xp^2 - xq^2)/(2v)) that matches the oscillator-basis kernel
    entrywise for the Gaussian case.  xp sits on the L = +1 side, x - i0;
    the L = -1 kernel is its complex conjugate (the jet columns are real)."""
    v = _factorizing_scale(spec)
    N = spec.N
    val = np.dot(_halfline_vec(N, xp, v, (0,))[0], _jet_vec(N, xq, v, (0,))[0])
    return val * np.exp((xp * xp - xq * xq) / (2.0 * v))


def correlations_factorized(req):
    """Determinant of the factorized kernel, whose gauge drops out (the jet
    columns are real); only specs whose correlation_terms are the one term
    of that kernel, with m = 0 on every slot."""
    _factorizing_scale(req.spec)
    return _determinants(req, (_halfline_vec, (_halfline_vec, _imag)), _jet_vec,
                         {"path": "factorized-kernel"})


# ---------------------------------------------------------------------------
# GUE closed form: oscillator-basis factors
# ---------------------------------------------------------------------------

def _row_osc_hat(N, x, v, ms):
    """Companion row v^(-1/2) phi^_n(x / sqrt v), n < N (Im phi^_n = phi_n);
    ms = (0,)."""
    s = math.sqrt(v)
    return (_osc_hat_tower(N - 1, x / s).T / s)[None]


def _col_osc(N, x, v, ms):
    """Oscillator column phi_n(x / sqrt v), n < N, ms = (0,)."""
    return _osc_tower(N - 1, x / math.sqrt(v)).T[None]


def correlations_closed_form_gue(req):
    """Oscillator-basis determinant for Gaussian mixtures.  Correlation
    functions are linear in P(H), so a variance mixture is
    sum_i w_i R_k^Gauss(scale v_i) over its terms (w_i, v_i); slots with
    m > 0 have no oscillator factor and are refused."""
    if not _gaussian_mixture(req.spec, req.k):
        raise ValueError("closed_form_gue needs a Gaussian mixture: a slot with m > 0 "
                         "has no oscillator factor")
    return _determinants(req, (_row_osc_hat, (_col_osc, _osc_scaled)), _col_osc,
                         {"path": "oscillator-determinant"})


def _gaussian_mixture(spec, k):
    """Whether every slot of correlation_terms(spec, k) takes m = 0 alone,
    decided once per (spec, k) by _moment_free and cached on the spec."""
    if ("gaussian mixture", k) not in spec._cache:
        spec._cache["gaussian mixture", k] = _moment_free(_spec_layout(spec, k)[1])
    return spec._cache["gaussian mixture", k]


def _moment_free(fams):
    """Whether every family of every slot takes the moment m = 0 alone."""
    return not any(ms[-1] for slot in fams for _, ms in slot)


def _osc_scaled(col, fams):
    """closed_form_gue's R rows from its columns' stack: each member times v^(-1/2)."""
    scale = _osc_scales(fams)
    return (scale if col.ndim == 2 else scale[:, None]) * col


@_read_only(64)
def _osc_scales(fams):
    """The (len, 1) table of v^(-1/2), a row per member of the families, read-only:
    kept per family tuple, so that a cold R point does not rebuild it."""
    return np.array([[1 / math.sqrt(v)] for v, ms in fams for _ in ms])


# ---------------------------------------------------------------------------
# Generating function
# ---------------------------------------------------------------------------

def generating_function_value(spec, k, x, J, metric=None):
    """Z_k at source strengths J; k = 1 only.  Z_1(x, J) = 1 + 2 pi J
    M(x - J, x + J) with M the Fourier/jet kernel entry, so that
    (1/2pi) dZ/dJ at J = 0 equals Rhat_1(x) on the side of the metric."""
    if k != 1:
        raise NotImplementedError("generating function implemented for k = 1")
    x, J, metric = np.ravel(x), np.ravel(J), [1] if metric is None else list(metric)
    if not len(x) == len(J) == len(metric) == 1:
        raise ValueError(f"k = 1 takes one x, one J and one metric sign, got {len(x)}, "
                         f"{len(J)} and {len(metric)}")
    if metric[0] not in (1, -1):
        raise ValueError(f"the metric sign must be +1 or -1, got {metric[0]!r}")
    L, x1, J1 = metric[0], float(x[0]), float(J[0])
    total = _det_sums(spec, _halfline_vec, _jet_vec, [x1 - J1], [L], [x1 + J1])
    return 1.0 + 2.0 * np.pi * J1 * total


# ---------------------------------------------------------------------------
# Time domain
# ---------------------------------------------------------------------------

def _simpson_weights(n, dx):
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * dx / 3.0


def time_domain_transform(grid_in, samples, grid_out, direction):
    """Unitary-convention Fourier pair between energy and time.

    direction 'to_time': g(t) = (2pi)^(-1/2) integral e^(itx) f(x) dx;
    direction 'to_energy': the inverse sign convention.  The Simpson rule
    takes an increasing, uniformly spaced grid_in of an odd number n >= 3 of
    points and n samples; grid_out is 1-D, of any length.  A Nyquist check
    rejects grids that cannot resolve the oscillation."""
    grid_in = np.asarray(grid_in, dtype=float)
    samples = np.asarray(samples, dtype=complex)
    grid_out = np.asarray(grid_out, dtype=float)
    n = len(grid_in) if grid_in.ndim == 1 else 0
    if n < 3 or n % 2 == 0:
        raise ValueError("Simpson rule needs a 1-D grid_in of an odd number >= 3 of points, "
                         f"got shape {grid_in.shape}")
    if samples.shape != grid_in.shape:
        raise ValueError(f"need one sample per grid_in point, got {samples.shape} for {n}")
    step = (grid_in[-1] - grid_in[0]) / (n - 1)
    if not (step > 0 and np.all(np.abs(np.diff(grid_in) - step) <= 1e-9 * step)):
        raise ValueError("grid_in must be increasing and uniformly spaced, to 1e-9 of its step")
    if grid_out.ndim != 1:
        raise ValueError(f"grid_out must be 1-D, got shape {grid_out.shape}")
    dx = grid_in[1] - grid_in[0]
    if dx * np.max(np.abs(grid_out), initial=0.0) > np.pi:
        raise ValueError("output grid violates the Nyquist limit of the input grid")
    sign = {"to_time": 1.0, "to_energy": -1.0}.get(direction)
    if sign is None:
        raise ValueError("direction must be to_time or to_energy")
    w = _simpson_weights(len(grid_in), dx)
    phase = np.exp(sign * 1j * np.outer(grid_out, grid_in))
    return phase @ (w * samples) / np.sqrt(2 * np.pi)
