"""Hermite polynomials, oscillator wave functions, generalized Hermite
functions, the finite-N unitary-ensemble kernel, and Gaussian Cauchy
transform primitives built on the Faddeeva function.

Weight convention throughout: exp(-x^2), matching the density
P(H) ~ exp(-tr H^2).
"""

import functools
import math
import sys

import numpy as np
from scipy.special import wofz

SQRT_PI = math.sqrt(math.pi)
_SQRT2 = math.sqrt(2.0)
_PI_LONG = np.longdouble("3.14159265358979323846264338327950288")
HERMITE_CAP = 64


# The towers below run one body on what they are given: Python numbers for
# a point, ndarrays for a grid, whose axes follow the tower's own.  A point
# skips numpy's per-call overhead and keeps numpy's values: Python rounds
# sums and products, complex ones included, as numpy's scalars do, and
# numpy divides a complex by a real as a product with the reciprocal,
# which the towers write out.  At a real point the tower also equals the
# matching element of a grid's; off the real axis numpy's array loops
# multiply two complex numbers with fused multiply-adds, and its scalars
# and Python do not.

def _operand(x, dtype):
    """x as the towers take it: a Python number for a point (a number or a
    0-d array), an ndarray of dtype for a grid."""
    if isinstance(x, (int, float, complex, np.generic)):
        return dtype(x)
    x = np.asarray(x, dtype=dtype)
    return x if x.ndim else x.item()


def _num(a):
    """A numpy function's value at a point as a Python number; a grid's
    array as it is."""
    return a.item() if isinstance(a, np.generic) else a


def _select(cond, a, b):
    """np.where(cond, a, b) for a grid's conditions, the plain choice for a
    point's."""
    return np.where(cond, a, b) if isinstance(cond, np.ndarray) else (a if cond else b)


def _any(cond):
    """Whether a grid's condition holds anywhere, or a point's holds."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _read_only(maxsize):
    """A functools.lru_cache of maxsize entries for tables that do not depend
    on the point: the array returned, or each array of a returned tuple, is
    read-only."""
    def cache(fn):
        @functools.lru_cache(maxsize=maxsize)
        @functools.wraps(fn)
        def table(*args):
            out = fn(*args)
            for a in out if isinstance(out, tuple) else (out,):
                a.setflags(write=False)
            return out
        return table
    return cache


def hermite_poly(n, x):
    """Physicists' Hermite polynomial H_n(x) by three-term recurrence."""
    x = np.asarray(x, dtype=float)
    h0 = np.ones_like(x)
    if n == 0:
        return h0
    h1 = 2.0 * x
    for j in range(1, n):
        h0, h1 = h1, 2.0 * x * h1 - 2.0 * j * h0
    return h1


def oscillator_wavefunction(n, x):
    """phi_n(x) = (2^n n! sqrt(pi))^(-1/2) exp(-x^2/2) H_n(x).

    Evaluated by the normalized recurrence to stay finite at large n."""
    return _osc_tower(n, x)[n]


def _osc_tower(nmax, x):
    """phi_0..phi_nmax stacked, via the normalized recurrence."""
    x = _operand(x, float)
    tower = [np.pi ** -0.25 * _num(np.exp(-0.5 * x * x))]
    if nmax >= 1:
        tower.append(_SQRT2 * x * tower[0])
    for a, b in _osc_steps(nmax)[1:]:
        tower.append(x * a * tower[-1] - b * tower[-2])
    return np.array(tower)


@functools.lru_cache(maxsize=16)
def _osc_steps(nmax):
    """(sqrt(2/(n+1)), sqrt(n/(n+1))) for n = 0..nmax-1: the coefficients
    of phi_(n+1) = x a_n phi_n - b_n phi_(n-1)."""
    n = np.arange(nmax)
    return tuple(zip(np.sqrt(2.0 / (n + 1)).tolist(), np.sqrt(n / (n + 1.0)).tolist()))


def generalized_hermite(n, x):
    """Second-solution Hermite companion: a complex function whose
    imaginary part is H_n(x), defined by the half-line integral
    (i2)^(n+1) pi^(-1/2) exp(x^2) * integral_0^inf exp(-xi^2 - 2ix xi) xi^n dxi.

    Seeded in closed form through the Faddeeva function and grown by the
    recurrence F_{n+1} = 2x F_n - 2n F_{n-1} (valid from n = 1 up).
    Accuracy degrades and exp(x^2) overflows past |x| ~ 26; n is capped.
    """
    if n > HERMITE_CAP:
        raise ValueError(f"order {n} exceeds cap {HERMITE_CAP}")
    x = np.asarray(x, dtype=float)
    e = np.exp(x * x)
    f0 = 1j * e * wofz(-x)
    if n == 0:
        return f0
    f1 = 2.0 * x * f0 - (2.0 / SQRT_PI) * e
    for j in range(1, n):
        f0, f1 = f1, 2.0 * x * f1 - 2.0 * j * f0
    return f1


def _osc_hat_tower(nmax, x):
    """Normalized companions phi^_n = (2^n n! sqrt(pi))^(-1/2) e^(-x^2/2) F_n
    for n = 0..nmax, with F_n from generalized_hermite.  Im phi^_n = phi_n.

    The upward recurrence cancels severely at large |x|; there the tower
    is rebuilt from F_n(x) e^(-x^2) = (1/pi) integral e^(-u^2) H_n(u) /
    (x - u - i0) du (both sides share the recurrence and the n = 0, 1
    seeds), whose Cauchy transforms stay accurate in the far tail.  Past
    |x| ~ 37.7, where exp(x^2/2) overflows, it raises ValueError."""
    if nmax > HERMITE_CAP:
        raise ValueError(f"order {nmax} exceeds cap {HERMITE_CAP}")
    x = _operand(x, float)
    half = 0.5 * x * x
    if _any(half > _EXP_MAX):
        raise ValueError(_OVERFLOW)
    e = _num(np.exp(half))
    # wofz finds its loop fastest for a complex argument
    tower = [np.pi ** -0.25 * 1j * e * _num(wofz(-x + 0j))]
    if nmax >= 1:
        tower.append(_SQRT2 * x * tower[0] - _SQRT2 * np.pi ** -0.75 * e)
    for a, b in _osc_steps(nmax)[1:]:
        tower.append(x * a * tower[-1] - b * tower[-2])
    out = np.array(tower)
    # far tail: principal value by the sign-definite asymptotic series
    # PV_n(x) = sum_t sqrt(pi) (n+2t)!/(2^(2t) t!) x^(-(n+2t+1)), using
    # the Hermite moments int u^(n+2t) H_n e^(-u^2) du; valid while the
    # t = 0 term ratio (n+1)(n+2)/(4x^2) stays well below 1
    far = (x * x >= CAUCHY_ASYMP ** 2) & (2.0 * x * x >= (nmax + 1.0) * (nmax + 2.0))
    if _any(far):
        flat = out.reshape(nmax + 1, -1)
        xf = np.reshape(x, -1)
        ph = _osc_tower(nmax, x).reshape(nmax + 1, -1)
        n = np.arange(nmax + 1)
        t = np.arange(199)
        # pi^(-1/4) / sqrt(2^n n!), divided down one n at a time
        d = np.sqrt(2.0 * n)
        d[0] = np.pi ** -0.25
        norm = np.divide.accumulate(d)
        for i in np.nonzero(np.reshape(far, -1))[0]:
            xi = float(xf[i])
            # (n, t) term table: the first terms, then the term ratios,
            # multiplied up along t
            terms = np.empty((nmax + 1, 200))
            terms[:, 0] = SQRT_PI * _factorials(nmax) * xi ** -(n + 1.0)
            terms[:, 1:] = (n[:, None] + 2 * t + 1) * (n[:, None] + 2 * t + 2) \
                / (4.0 * (t + 1) * xi * xi)
            pv, _ = _truncated_sums(np.cumprod(terms, axis=1))
            flat[:, i] = norm * (np.exp(0.5 * xi * xi) / np.pi) * pv + 1j * ph[:, i]
    if not np.isfinite(out).all():
        raise ValueError(_OVERFLOW)
    return out


_EXP_MAX = math.log(sys.float_info.max)
_OVERFLOW = "the companion tower overflows: exp(x^2/2) is not finite past |x| ~ 37.7"


def gue_kernel(N, xp, xq, variant="full"):
    """Finite-N kernel of the Gaussian unitary ensemble.

    full: sum_{n<N} phi^_n(xp) phi_n(xq) (complex; imaginary part is the
    density kernel); imaginary_part: sum_{n<N} phi_n(xp) phi_n(xq)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    pq = _osc_tower(N - 1, xq)
    if variant == "imaginary_part":
        pp = _osc_tower(N - 1, xp)
        return np.sum(pp * pq, axis=0)
    if variant == "full":
        pp = _osc_hat_tower(N - 1, xp)
        return np.sum(pp * pq, axis=0)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Gaussian Cauchy transforms
# ---------------------------------------------------------------------------

def faddeeva_derivatives(z, nmax):
    """w(z), w'(z), ..., w^(nmax)(z) by the stable upward recurrence
    w^(j+1) = -2 z w^(j) - 2 j w^(j-1)."""
    z = _operand(z, complex)
    tower = [_num(wofz(z))]
    if nmax >= 1:
        tower.append(-2.0 * z * tower[0] + 2j / SQRT_PI)
    for j in range(1, nmax):
        tower.append(-2.0 * z * tower[-1] - 2.0 * j * tower[-2])
    return np.array(tower)


def cauchy_gauss(n, z, side=-1):
    """C_n(z) = integral exp(-u^2) / (z - u)^(n+1) du over the real line.

    For Im z != 0 the value is unambiguous; for real z the `side` selects
    the boundary value from below (side=-1, z - i0) or above (side=+1).
    """
    return cauchy_gauss_tower(n, z, side)[n]


def cauchy_gauss_tower(nmax, z, side=-1):
    """C_0(z)..C_nmax(z) stacked.

    The Faddeeva-derivative route loses relative accuracy at large real
    |z| (the recurrence w' = -2zw + 2i/sqrt(pi) cancels severely there);
    boundary values with |Re z| beyond CAUCHY_ASYMP switch to the
    principal-value asymptotic series plus the exact sided delta part."""
    z = _operand(z, complex)
    upper = (z.imag > 0) | ((z.imag == 0) & (side > 0))
    lo, hi = _cauchy_coefficients(nmax)
    col = (nmax + 1,) + (1,) * np.ndim(z)
    coef = _select(upper, hi.reshape(col), lo.reshape(col))
    fac = coef * faddeeva_derivatives(_select(upper, z, -z), nmax)
    far = (abs(z.real) >= CAUCHY_ASYMP) & (abs(z.imag) <= 1e-8)
    if _any(far):
        flat = fac.reshape(nmax + 1, -1)
        zf = np.reshape(z, -1)
        uf = np.reshape(upper, -1)
        for i in np.nonzero(np.reshape(far, -1))[0]:
            flat[:, i] = _cauchy_gauss_far(nmax, complex(zf[i]), bool(uf[i]))
    return fac


CAUCHY_ASYMP = 6.5


@_read_only(8)
def _cauchy_coefficients(nmax):
    """Factors of the Faddeeva derivatives in C_n, n = 0..nmax, read-only:
    lower half plane (or z - i0): C_n = (i pi / n!) w^(n)(-z);
    upper half plane (or z + i0): C_n = (-i pi / n!) (-1)^n w^(n)(z)."""
    n = np.arange(nmax + 1)
    # n! as the running float product 1 * 1 * 2 * ... * n
    f = np.cumprod(np.maximum(n, 1).astype(float))
    lo = 1j * (np.pi / f)
    return lo, -lo * (-1.0) ** n


def _cauchy_gauss_far(nmax, z, upper):
    """Boundary values of C_n, n = 0..nmax, at large near-real z: principal
    value by the asymptotic series sum_m C(n+m, n) gamma_m / z^(n+m+1) over
    even m <= 120, each row cut by _truncated_sums, plus the sided
    distributional part -+ i pi h_n(x) from 1/(x -+ i0)^(n+1), where
    h_n = H_n(x) e^(-x^2) / n! comes from the recurrence
    h_(n+1) = (2x h_n - 2h_(n-1)) / (n+1)."""
    n = np.arange(nmax + 1)
    # z^(-(n+1)), then divided by z^2 once per term; on the real axis the
    # complex divisions are real ones, and the table is kept real
    w = z if z.imag else z.real
    zp = np.empty((nmax + 1, 61), dtype=type(w))
    first = z ** -(n + 1)
    zp[:, 0] = first if z.imag else first.real
    zp[:, 1:] = w * w
    pv, _ = _truncated_sums(_far_coefficients(nmax) * np.divide.accumulate(zp, axis=1))
    # the recurrence runs in extended precision where the platform has it,
    # so pi h_n comes out correctly rounded to round-off
    x = np.longdouble(z.real)
    prev, cur = 0.0, np.exp(-x * x)
    h = [cur]
    for k in range(nmax):
        prev, cur = cur, (2 * x * cur - 2 * prev) / (k + 1)
        h.append(cur)
    return pv + (-1j if upper else 1j) * (_PI_LONG * np.array(h)).astype(float)


@_read_only(8)
def _far_coefficients(nmax):
    """C(n+m, n) gamma_m for n = 0..nmax and even m = 0..120, read-only."""
    g = gauss_moments(120)
    return np.array([[math.comb(n + m, n) * g[m] for m in range(0, 121, 2)]
                     for n in range(nmax + 1)])


@_read_only(8)
def _factorials(nmax):
    """n! rounded once to a float, n = 0..nmax, read-only."""
    return np.array([float(math.factorial(n)) for n in range(nmax + 1)])


def _truncated_sums(terms):
    """Sum every row of the series table terms (rows, m) up to its first
    term that does not decrease in modulus or falls to 1e-20 of the
    partial sum before it, as the scalar loop
    `if |t| >= prev or |t| <= 1e-20 |acc|: break; acc += t` does.  The
    partial sums are one left-to-right cumsum, so each sum is that loop's.
    Returns the sums and the number of terms each row kept."""
    rows, m = terms.shape
    a = np.abs(terms)
    partial = np.zeros((rows, m + 1), dtype=terms.dtype)
    np.cumsum(terms, axis=1, out=partial[:, 1:])
    stop = np.ones((rows, m + 1), dtype=bool)   # the last column ends the table
    stop[:, 0] = (a[:, 0] >= np.inf) | (a[:, 0] <= 0.0)
    stop[:, 1:m] = (a[:, 1:] >= a[:, :-1]) | (a[:, 1:] <= 1e-20 * np.abs(partial[:, 1:m]))
    cut = stop.argmax(axis=1)
    return partial[np.arange(rows), cut], cut


def gauss_moments(mmax):
    """gamma_m = integral u^m exp(-u^2) du for m = 0..mmax."""
    g = np.zeros(mmax + 1)
    g[0] = SQRT_PI
    for m in range(2, mmax + 1, 2):
        g[m] = g[m - 2] * (m - 1) / 2.0
    return g


def gauss_moment_cauchy(nmax, mmax, z, side=-1):
    """F[n, m] = integral exp(-u^2) u^m / (z - u)^(n+1) du for
    n = 0..nmax, m = 0..mmax, via F[n, m] = z F[n, m-1] - F[n-1, m-1];
    a grid of z adds its axes after (n, m)."""
    z = _operand(z, complex)
    C = cauchy_gauss_tower(nmax, z, side)
    F = np.empty((nmax + 1, mmax + 1) + C.shape[1:], dtype=complex)
    F[:, 0] = C
    g = gauss_moments(mmax)
    for m in range(1, mmax + 1):
        F[0, m] = z * F[0, m - 1] - g[m - 1]
        F[1:, m] = z * F[1:, m - 1] - F[:-1, m - 1]
    return F


def gauss_poly_derivatives(m, nmax):
    """Polynomial coefficient rows q_n with
    d^n/dx^n [x^m exp(-x^2)] = q_n(x) exp(-x^2), n = 0..nmax.

    Returned as a list of numpy coefficient arrays (ascending powers).
    Keeping the exp(-x^2) factor explicit preserves relative accuracy in
    the far tail."""
    q = np.zeros(m + 1)
    q[m] = 1.0
    rows = [q]
    for _ in range(nmax):
        p = rows[-1]
        dp = np.array([p[j] * j for j in range(1, len(p))]) if len(p) > 1 else np.zeros(0)
        new = np.zeros(len(p) + 1)
        new[: len(dp)] += dp
        new[1: len(p) + 1] -= 2.0 * p
        rows.append(new)
    return rows


def polyval_ascending(coeffs, x):
    acc = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def half_gauss_oscillatory(amax, z, c):
    """G_a(z, c) = integral_0^inf r^a exp(-c r^2 - i z r) dr, a = 0..amax.

    G_0 through the Faddeeva function, then the stable forward relation
    G_{a+1} = (a G_{a-1} - i z G_a) / (2c), with G_1 from the boundary term.
    """
    z = _operand(z, complex)
    c = float(c)
    inv = 1.0 / (2.0 * c)
    sc = math.sqrt(c)
    tower = [(SQRT_PI / (2.0 * sc)) * _num(wofz(-z * (1.0 / (2.0 * sc))))]
    iz = 1j * z
    if amax >= 1:
        tower.append((1.0 - iz * tower[0]) * inv)
    for a in range(1, amax):
        tower.append((a * tower[-2] - iz * tower[-1]) * inv)
    return np.array(tower)
