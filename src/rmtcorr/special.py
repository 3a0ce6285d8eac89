"""Hermite polynomials, oscillator wave functions, generalized Hermite
functions, the finite-N unitary-ensemble kernel, and Gaussian Cauchy
transform primitives built on the Faddeeva function.

Weight convention throughout: exp(-x^2), matching the density
P(H) ~ exp(-tr H^2).

The Faddeeva function w(z) = exp(-z^2) erfc(-iz) is the module's own
(`_faddeeva`).  On the real axis, where every engine factor is seeded,
Re w(x) is numpy's exp(-x*x) and Im w(x) = (2/sqrt(pi)) D(x), D Dawson's
integral, comes from short polynomials on cells of |x| (Cody, Paciorek &
Thacher, Math. Comp. 24 (1970) 171 use the same split), from its odd
series near 0 and from its asymptotic series past 16; against 50-digit
mpmath on the 10,207 test points with |x| <= 30 it is within 0.56 ulp,
and correctly rounded at 99% of them.  A grid goes point by point.  Off
the axis it is Weideman's rational series with N = 40 (SIAM
J. Numer. Anal. 31 (1994) 1497) above, and w(z) = 2 exp(-z^2) - w(-z)
below, within a relative 6.4e-16 on |z| < 10 and 9.7e-16 for
0 < Im z < 1e-3 on the test points.
"""

import cmath
import functools
import math
import sys

import numpy as np

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
# and Python do not.  _osc_body and _gauss_derivatives take their seeds
# from their callers and convert nothing, so they run on mpmath numbers too.

def _operand(x, dtype):
    """x as the towers take it: a Python number for a point (a number or a
    0-d array), an ndarray of dtype for a grid."""
    if isinstance(x, (int, float, complex, np.generic)):
        return dtype(x)
    x = np.asarray(x, dtype=dtype)
    return x if x.ndim else x.item()


def _num(a):
    """A numpy function's value at a point as a Python number; a grid's
    array as it is.  numpy's float64 and complex128 subclass float and
    complex, which convert them exactly and ten times faster than .item()."""
    if isinstance(a, np.float64):
        return float(a)
    if isinstance(a, np.complex128):
        return complex(a)
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


def _order(n):
    """n, refused with ValueError if it is negative."""
    if n < 0:
        raise ValueError(f"order must be >= 0, got {n}")
    return n


def hermite_poly(n, x):
    """Physicists' Hermite polynomial H_n(x) by three-term recurrence."""
    _order(n)
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
    return _osc_tower(_order(n), x)[n]


def _osc_tower(nmax, x):
    """phi_0..phi_nmax stacked, via the normalized recurrence."""
    x = _operand(x, float)
    return np.array(_osc_body(x, np.pi ** -0.25 * _num(np.exp(-0.5 * x * x)), 0.0,
                              _osc_steps(nmax)))


def _osc_body(x, phi0, c1, steps):
    """phi_0..phi_nmax of the normalized recurrence, as a list, from the
    seeds phi_0 and c1: phi_1 = x a_0 phi_0 - c1 and phi_(n+1) = x a_n phi_n
    - b_n phi_(n-1), steps the (a_n, b_n) of _osc_steps(nmax).  Real seeds
    (c1 = 0) give phi_n, complex ones the companions phi^_n."""
    tower = [phi0]
    if steps:
        tower.append(x * steps[0][0] * phi0 - c1)
    for a, b in steps[1:]:
        tower.append(x * a * tower[-1] - b * tower[-2])
    return tower


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

    Row n of _osc_hat_tower times (2^n n! sqrt(pi))^(1/2) e^(x^2/2), so it
    shares the tower's recurrence, order cap and far-tail branch.  Where
    the value is not finite (|x| past about 26.6, where exp(x^2)
    overflows) it raises ValueError.
    """
    x = np.asarray(x, dtype=float)
    row = _osc_hat_tower(_order(n), x)[n]
    with np.errstate(over="ignore"):
        f = row * (math.sqrt(2.0 ** n * math.factorial(n) * SQRT_PI) * np.exp(0.5 * x * x))
    if not np.isfinite(f).all():
        raise ValueError("the companion overflows: exp(x^2) is not finite past |x| ~ 26.6")
    return f


def _osc_hat_tower(nmax, x):
    """Normalized companions phi^_n = (2^n n! sqrt(pi))^(-1/2) e^(-x^2/2) F_n
    for n = 0..nmax (F_n = generalized_hermite(n, x)) by the normalized
    recurrence of phi_n, from Re phi^_0 = pi^(-1/4) e^(x^2/2) Re(i w(-x))
    and phi_0's own seed: Im phi^_n = phi_n to the bit.

    The recurrence cancels severely in the real parts at large |x|; at a
    far point (|x| >= CAUCHY_ASYMP, 2x^2 >= (nmax+1)(nmax+2)) it runs on
    the imaginary parts alone and _osc_hat_far gives the real parts.  Past
    |x| ~ 37.7, where exp(x^2/2) overflows, it raises ValueError."""
    if nmax > HERMITE_CAP:
        raise ValueError(f"order {nmax} exceeds cap {HERMITE_CAP}")
    x = _operand(x, float)
    half = 0.5 * x * x
    if _any(half > _EXP_MAX):
        raise ValueError(_OVERFLOW)
    e = _num(np.exp(half))
    seed = (np.pi ** -0.25 * 1j * e * _faddeeva(-x)).real
    far = (x * x >= CAUCHY_ASYMP ** 2) & (2.0 * x * x >= (nmax + 1.0) * (nmax + 2.0))
    phi0 = _select(far, 0.0, seed) + 1j * (np.pi ** -0.25 * _num(np.exp(-0.5 * x * x)))
    tower = _osc_body(x, phi0, _SQRT2 * np.pi ** -0.75 * _select(far, 0.0, e), _osc_steps(nmax))
    if isinstance(far, np.ndarray):  # a grid: each far point through the point's body
        out = np.array(tower)
        flat, xf, sf = out.reshape(nmax + 1, -1), np.reshape(x, -1), np.reshape(seed, -1)
        for i in np.flatnonzero(far).tolist():
            flat.real[:, i] = _osc_hat_far(nmax, float(xf[i]), float(sf[i]))
        if not np.isfinite(out).all():
            raise ValueError(_OVERFLOW)
        return out
    if far:
        tower = [complex(r, t.imag) for r, t in zip(_osc_hat_far(nmax, x, seed), tower)]
    # a point's tower is Python numbers: checked before it becomes an array
    if not all(map(cmath.isfinite, tower)):
        raise ValueError(_OVERFLOW)
    return np.array(tower)


def _osc_hat_far(nmax, x, seed):
    """Re phi^_0..Re phi^_nmax at a far point x, as a list, from Re phi^_0 =
    seed.  They are pi^(-3/4) e^(x^2/2) sqrt(n!/2^n) x^(-(n+1)) S_n, S_n =
    sum_t (n+2t)!/(n! t! (2x)^(2t)) by the Hermite moments, and the minimal
    solution of the tower's recurrence where n <= sqrt(2)|x|: S_n, cut at
    its first term that does not decrease or falls to 1e-20 of the sum
    before it, gives the top two orders, the recurrence run downward the
    rest (Gautschi, SIAM Rev. 9 (1967) 24), and the run is scaled to end on
    the seed, which takes the series' error out of the lower orders."""
    down = []  # from order nmax down
    q = 0.25 / (x * x)
    for n in range(max(nmax - 1, 0), nmax + 1):
        acc, prev, t = 0.0, math.inf, 1.0
        for k in range(1, 201):
            if t >= prev or t <= 1e-20 * acc:
                break
            acc, prev = acc + t, t
            t *= (n + 2 * k - 1) * (n + 2 * k) / k * q
        down.insert(0, acc)
    if nmax:
        down[0] *= math.sqrt(0.5 * nmax) / x
    for a, b in reversed(_osc_steps(nmax)[1:]):
        down.append((x * a * down[-1] - down[-2]) / b)
    f = seed / down[-1]
    return [f * v for v in reversed(down)]


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
# The Faddeeva function
# ---------------------------------------------------------------------------

def _faddeeva(z):
    """w(z) = exp(-z^2) erfc(-iz) at a point (a Python float or complex) or
    on a grid (a real or complex ndarray), whose every element goes through
    the point's body, so a point equals its grid element by construction.

    On the real axis (Im z == 0, of either sign) Re w(x) is numpy's
    exp(-x*x) and Im w(x) is _dawson's, odd in x; w(0) == 1.  Off the
    axis, Weideman's series for Im z > 0 and the reflection below
    (_faddeeva_off).  A point takes about a microsecond on the axis and a
    few off it."""
    if isinstance(z, np.ndarray):
        return np.array([_faddeeva(v) for v in z.ravel().tolist()], dtype=complex).reshape(z.shape)
    if not z.imag:
        x = z.real
        return complex(float(np.exp(-x * x)), math.copysign(_dawson(abs(x)), x))
    return complex(*_faddeeva_off(z.real, z.imag))


def _dawson(a):
    """Im w(a) = (2/sqrt(pi)) D(a) for a >= 0: the odd series below 0.25,
    the asymptotic series from 16 (which also takes inf and NaN), and
    between them the cells: cell j of the octave [2^(e-1), 2^e) holds the
    polynomial of Im w about its centre c = (j + 8.5) 2^(e-4), its constant
    term a sum of two floats; t = a - c is exact."""
    if a < 0.25:
        return _dawson_series(a)
    if not a < 16.0:
        return _dawson_asymptotic(a)
    c, hi, lo, coef = _CELLS[int(a * 32.0)]
    t = a - c
    p = 0.0
    for row in coef:
        p = p * t + row
    return hi + (lo + t * p)


def _split(a):
    """Veltkamp's split of a into two halves of 26 bits: a == hi + lo."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _product_error(a, b, p):
    """The rounding error of the product p = a*b (Dekker): a*b == p + error
    exactly, barring underflow."""
    ah, al = _split(a)
    bh, bl = _split(b)
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dawson_series(a):
    """Im w(a) = a sum_k s_k a^(2k) for a < 0.25, with s_0 a taken exactly
    as a sum of two floats (Dekker's product), so only the final addition
    rounds at full weight."""
    s0, s0_lo, coef = _SERIES
    y = a * a
    p = 0.0
    for c in coef:
        p = p * y + c
    head = s0 * a
    return head + (_product_error(s0, a, head) + a * (s0_lo + y * p))


def _dawson_asymptotic(a):
    """Im w(a) = (1/(sqrt(pi) a)) (1 + sum_k (2k-1)!! / (2a^2)^k) for
    a >= 16, ten terms.  The leading 1/(sqrt(pi) a) is rounded once: the
    quotient q = k/a, k = 1/sqrt(pi) to two floats, gets its exact
    remainder k - q a from the mantissa of a, and the remainder joins
    the series' tail before the one final addition."""
    k, k_lo = _RSQRT_PI
    q = k / a
    if not math.isfinite(a):
        return q
    r = 1.0 / a
    y = r * r
    p = 0.0
    for c in _ASYMPTOTIC:
        p = p * y + c
    m, e = math.frexp(a)
    qm = math.ldexp(q, e)
    prod = qm * m
    rem = (k - prod) - _product_error(qm, m, prod)
    return q + (rem + k_lo + k * (y * p)) / a


def _faddeeva_off(x, y):
    """(Re w, Im w) at z = x + iy with y != 0.  Above the axis, Weideman's
    series (_weideman), and past |x|, |y| = _FADDEEVA_FAR, where the
    series' denominators would overflow from about 1e154 on, the far
    field (_faddeeva_far).  Below, w(z) = 2 exp(-z^2) - w(-z), with
    -z^2 = (y^2 - x^2) - 2ixy carried to two floats each, so exp and its
    phase lose no digits to the rounding of the squares; in the far field
    exp(-z^2) is dropped where it underflows to 0, x^2 - y^2 > 750.
    Where 2 exp(y^2 - x^2), about |w|, overflows, w is infinite, and
    nothing is formed that could warn."""
    below = y < 0
    xs, ys = -x if below else x, abs(y)
    far = max(abs(xs), ys) >= _FADDEEVA_FAR
    re, im = (_faddeeva_far if far else _weideman)(xs, ys)
    if not below:
        return re, im
    if far and (abs(x) - ys) * (abs(x) + ys) > 750.0:
        return -re, -im
    if (ys - abs(x)) * (ys + abs(x)) > _EXP_MAX - math.log(2.0):
        # 2 exp(-z^2) overflows: w is infinite in each part that the phase
        # -2xy reaches, a phase past the floats taken as 0
        ph = 2.0 * x * y
        ph = ph if math.isfinite(ph) else 0.0
        im = -math.copysign(math.inf, math.sin(ph)) if ph else -im
        return math.copysign(math.inf, math.cos(ph)), im
    return _reflect(x, y, re, im)


def _weideman(x, y):
    """(Re w, Im w) at z = x + iy with y > 0: Weideman's series
    w(z) = 2 p(Z) / (L - iz)^2 + (1/sqrt(pi)) / (L - iz) with
    Z = (L + iz) / (L - iz) and p of degree 39, in real arithmetic."""
    s = _WEIDEMAN_L + y
    d = s * s + x * x
    zr = ((_WEIDEMAN_L - y) * s - x * x) / d
    zi = (2.0 * _WEIDEMAN_L) * x / d
    ur, ui = s / d, x / d
    pr = pi = 0.0
    for c in reversed(_WEIDEMAN):
        pr, pi = pr * zr - pi * zi + c, pr * zi + pi * zr
    u2r, u2i = ur * ur - ui * ui, 2.0 * ur * ui
    re = 2.0 * (pr * u2r - pi * u2i) + _RSQRT_PI[0] * ur
    im = 2.0 * (pr * u2i + pi * u2r) + _RSQRT_PI[0] * ui
    return re, im


def _faddeeva_far(x, y):
    """(Re w, Im w) at z = x + iy, y >= 0, |z| >= _FADDEEVA_FAR: the
    asymptotic series w(z) = (i / (sqrt(pi) z)) (1 + 1/(2z^2) + ...),
    whose next term, 3/(4z^4), is below 1e-32 there.  u = 1/z by Smith's
    division, which neither overflows nor underflows while |z| does not."""
    if abs(x) >= y:
        r = y / x
        d = x + y * r
        ur, ui = 1.0 / d, -r / d
    else:
        r = x / y
        d = y + x * r
        ur, ui = r / d, -1.0 / d
    fr, fi = 1.0 + 0.5 * (ur * ur - ui * ui), ur * ui
    k = _RSQRT_PI[0]
    return -k * (ur * fi + ui * fr), k * (ur * fr - ui * fi)


def _reflect(x, y, re, im):
    """(Re, Im) of 2 exp(-z^2) - (re + i im) at z = x + iy.  Where the
    squares overflow (|x| ~ |y| past 1e154), y^2 - x^2 is formed as
    (|y| - |x|)(|y| + |x|), and a phase 2xy past the floats is taken as 0,
    as _faddeeva_off does where |w| overflows: w is finite there, and
    nothing is formed that could warn.  The phase's low part ph_lo joins
    by angle addition, which is the first-order sum while |ph_lo| < 1e-8
    (|xy| below about 3e7) and stays exact where ph_lo passes 1 (|xy|
    past 2^53, the far field next to the anti-diagonal)."""
    xx, yy, xy = x * x, y * y, x * y
    if math.isinf(xx) or math.isinf(yy):
        gap = abs(y) - abs(x)
        s, lo = (gap * (abs(y) + abs(x)) if gap else 0.0), 0.0
    else:
        s = yy - xx
        b = s - yy
        lo = ((yy - (s - b)) + (-xx - b)) + (_product_error(y, y, yy) - _product_error(x, x, xx))
    mag = 2.0 * float(np.exp(s))
    mag = mag + mag * lo
    ph = 2.0 * xy
    ph, ph_lo = (ph, 2.0 * _product_error(x, y, xy)) if math.isfinite(ph) else (0.0, 0.0)
    cos, sin = float(np.cos(ph)), float(np.sin(ph))
    cos_lo, sin_lo = math.cos(ph_lo), math.sin(ph_lo)
    return (mag * (cos * cos_lo - sin * sin_lo) - re,
            -(mag * (sin * cos_lo + cos * sin_lo)) - im)


# ---------------------------------------------------------------------------
# Gaussian Cauchy transforms
# ---------------------------------------------------------------------------

def faddeeva_derivatives(z, nmax):
    """w(z), w'(z), ..., w^(nmax)(z) by the stable upward recurrence
    w^(j+1) = -2 z w^(j) - 2 j w^(j-1)."""
    _order(nmax)
    z = _operand(z, complex)
    tower = [_faddeeva(z)]
    if nmax >= 1:
        tower.append(-2.0 * z * tower[0] + 2j / SQRT_PI)
    for j in range(1, nmax):
        tower.append(-2.0 * z * tower[-1] - 2.0 * j * tower[-2])
    return np.array(tower)


def cauchy_gauss(n, z):
    """C_n(z) = integral exp(-u^2) / (z - u)^(n+1) du over the real line.

    For Im z != 0 the value is unambiguous; for real z it is the boundary
    value from below, z - i0.  The one from above, z + i0, is its conjugate.
    """
    return cauchy_gauss_tower(n, z)[n]


def cauchy_gauss_tower(nmax, z):
    """C_0(z)..C_nmax(z) stacked, computed on the lower side (Im z < 0, or
    z - i0) only: at Im z > 0 it is the conjugate of the lower at conj z.

    The Faddeeva-derivative route loses relative accuracy at large real
    |z| (the recurrence w' = -2zw + 2i/sqrt(pi) cancels severely there);
    boundary values with |Re z| beyond CAUCHY_ASYMP switch to the
    principal-value asymptotic series plus the exact sided delta part."""
    z = _operand(z, complex)
    upper = z.imag > 0
    z = _select(upper, z.conjugate(), z)
    col = (nmax + 1,) + (1,) * np.ndim(z)
    fac = _cauchy_coefficients(nmax).reshape(col) * faddeeva_derivatives(-z, nmax)
    far = (abs(z.real) >= CAUCHY_ASYMP) & (abs(z.imag) <= 1e-8)
    if _any(far):
        flat = fac.reshape(nmax + 1, -1)
        zf = np.reshape(z, -1)
        for i in np.nonzero(np.reshape(far, -1))[0]:
            flat[:, i] = _cauchy_gauss_far(nmax, complex(zf[i]))
    return _select(upper, fac.conj(), fac)


CAUCHY_ASYMP = 6.5


@_read_only(8)
def _cauchy_coefficients(nmax):
    """Factors of the Faddeeva derivatives in C_n, n = 0..nmax, on the
    lower side (Im z < 0, or z - i0), read-only: C_n = (i pi / n!) w^(n)(-z)."""
    # n! as the running float product 1 * 1 * 2 * ... * n
    f = np.cumprod(np.maximum(np.arange(nmax + 1), 1).astype(float))
    return 1j * (np.pi / f)


def _cauchy_gauss_far(nmax, z):
    """Lower-side boundary values of C_n, n = 0..nmax, at large near-real z:
    principal value by the asymptotic series sum_m C(n+m, n) gamma_m /
    z^(n+m+1) over even m <= 120, each row cut by _truncated_sums, plus the
    distributional part i pi h_n(x) from 1/(x - i0)^(n+1), where
    h_n = H_n(x) e^(-x^2) / n! = D_n(-x) of _gauss_derivatives."""
    n = np.arange(nmax + 1)
    # z^(-(n+1)), then divided by z^2 once per term; on the real axis the
    # complex divisions are real ones, and the table is kept real
    w = z if z.imag else z.real
    zp = np.empty((nmax + 1, 61), dtype=type(w))
    first = z ** -(n + 1)
    zp[:, 0] = first if z.imag else first.real
    zp[:, 1:] = w * w
    pv, _ = _truncated_sums(_far_coefficients(nmax) * np.divide.accumulate(zp, axis=1))
    # the tower in extended precision where the platform has it: pi h_n
    # is then correctly rounded at 95% of the nonzero orders n <= 63 on
    # 6.5 <= |x| <= 30, the same tower in floats at 1%
    u = -np.longdouble(z.real)
    h = _gauss_derivatives(nmax, u, np.exp(-u * u))
    return pv + 1j * (_PI_LONG * np.array(h)).astype(float)


def _gauss_derivatives(nmax, u, seed):
    """D_0..D_nmax, D_n = (1/n!) d^n/du^n e^(-u^2), as a list, from the
    seed D_0 = e^(-u^2) by D_(n+1) = -(2u D_n + 2D_(n-1)) / (n+1).  The
    caller computes the seed; the steps convert nothing, so they run in the
    arithmetic of u and the seed: Python floats at a point, float arrays on
    a grid, np.longdouble, mpmath numbers."""
    prev, cur = 0.0, seed
    tower = [cur]
    for n in range(nmax):
        prev, cur = cur, -(2.0 * u * cur + 2.0 * prev) / (n + 1)
        tower.append(cur)
    return tower


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
    g = np.zeros(_order(mmax) + 1)
    g[0] = SQRT_PI
    for m in range(2, mmax + 1, 2):
        g[m] = g[m - 2] * (m - 1) / 2.0
    return g


def gauss_moment_cauchy(nmax, mmax, z):
    """F[n, m] = integral exp(-u^2) u^m / (z - u)^(n+1) du for
    n = 0..nmax, m = 0..mmax, via F[n, m] = z F[n, m-1] - F[n-1, m-1],
    at z - i0 on the real axis; a grid of z adds its axes after (n, m)."""
    z = _operand(z, complex)
    C = cauchy_gauss_tower(nmax, z)
    g = gauss_moments(mmax)
    F = np.empty((nmax + 1, mmax + 1) + C.shape[1:], dtype=complex)
    F[:, 0] = C
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
    q = np.zeros(_order(m) + 1)
    q[m] = 1.0
    rows = [q]
    for _ in range(_order(nmax)):
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
    c must be finite and > 0.
    """
    _order(amax)
    z = _operand(z, complex)
    c = float(c)
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be finite and > 0, got c = {c!r}")
    inv = 1.0 / (2.0 * c)
    sc = math.sqrt(c)
    tower = [(SQRT_PI / (2.0 * sc)) * _faddeeva(-z * (1.0 / (2.0 * sc)))]
    iz = 1j * z
    if amax >= 1:
        tower.append((1.0 - iz * tower[0]) * inv)
    for a in range(1, amax):
        tower.append((a * tower[-2] - iz * tower[-1]) * inv)
    return np.array(tower)


# ---------------------------------------------------------------------------
# Tables of the Faddeeva function, computed once in 50-digit mpmath
# (tests/test_special.py regenerates them and compares every entry)
# ---------------------------------------------------------------------------

# Im w(c + t) = hi + lo + a_1 t + ... + a_d t^d on each cell of _dawson,
# as (hi, lo, a_1, ..., a_d), cells in increasing order: the Taylor series
# at c economized (Lanczos) to a truncation error below 2^-58 of Im w
_DAWSON_CELLS = (
    (0.2860172878584195, -2.7047415658995794e-17, 0.9764324829207273, -0.5453821661342376,
     -0.554376896694163, 0.3463192646592332, 0.18495433606267278, -0.13181591913987367,
     -0.04283614089369837, 0.035794227865011526),
    (0.31598162060170076, -2.066374269705224e-17, 0.9407650798632528, -0.5952712536859673,
     -0.5093626176167596, 0.3732441375984326, 0.1594223048715967, -0.14017254751065425,
     -0.03365529156650817),
    (0.3447840258232696, 2.688719989062822e-17, 0.9021146501489918, -0.6407903954032672,
     -0.4612368677714818, 0.39606686844422345, 0.13251096999172166, -0.14649682763103491,
     -0.024123033952585474),
    (0.37233564246858525, 2.064172384048036e-17, 0.8607629240712169, -0.6816723183065371,
     -0.4105246231198355, 0.41460229946637284, 0.1046107682731624, -0.15071323488132976,
     -0.014411767788477796),
    (0.3985566583776529, -1.547743122729799e-18, 0.8170067777379713, -0.7176999309314073,
     -0.35777016147857266, 0.4287269472491679, 0.0761194788663202, -0.15280149649923863,
     -0.004693847765862586),
    (0.4233767340563023, -2.4252957322271983e-17, 0.7711550477355076, -0.7487077698195824,
     -0.3035293048952404, 0.43837959485359507, 0.0474351653167877, -0.1527787023386639,
     0.004862069340783762),
    (0.44673532573021046, -1.3685539304865589e-17, 0.7235252781525093, -0.774582717392935,
     -0.24836165622256362, 0.44356079374636387, 0.01894926881573657, -0.1506981108604561,
     0.014094511030462154),
    (0.46858190627862467, -1.8847743389517134e-18, 0.6744404453880949, -0.7952639970133598,
     -0.19282296455651887, 0.444331307709858, -0.008960004657702797, -0.14664721838455236,
     0.022852425563725458),
    (0.49843117740892917, 1.747397985586212e-17, 0.5987960410985257, -0.8165415742425204,
     -0.11000555319302753, 0.4374910121834085, -0.04896460073748629, -0.1371595095960049,
     0.03478406290224826, 0.029655274698548464),
    (0.5326460784765336, 2.5217957864602214e-17, 0.49586194890462937, -0.8270641106386568,
     -0.0031950888145680116, 0.4144805973072742, -0.09716108440066945, -0.11893039074973215,
     0.047906054230785054, 0.022610008760733213),
    (0.5604121759567017, -3.289231040021382e-18, 0.3928381861523421, -0.8182122356191758,
     0.09607572897535024, 0.3775812692367257, -0.13754535088554412, -0.09577237034233217,
     0.057223388340167394, 0.014547182986713002),
    (0.5817975018017943, 2.7589069161010078e-17, 0.29204525825543365, -0.791705031172887,
     0.18466182192690409, 0.32948967332979184, -0.16859298595869598, -0.06943781772176501,
     0.06239635295571969, 0.006143958462694406),
    (0.5970076790429251, -3.6619569241928054e-17, 0.19555466859094264, -0.7497847638795989,
     0.2601431187873242, 0.27327397616300253, -0.1894553429289634, -0.0417539960316872,
     0.06341996243826693, -0.0019479171278489037),
    (0.6063684974977944, 1.1413528438080498e-17, 0.10513232756798484, -0.6950738988832816,
     0.32089084973806015, 0.21216112220900815, -0.19996069973268357, -0.014481429909232572,
     0.06059687192487183, -0.009157928531366846),
    (0.6103055240306783, 2.3298508093710712e-17, 0.022200404789908437, -0.6304246408715329,
     0.36608128399598194, 0.14933173862667723, -0.2005652542393002, 0.010810169048041121,
     0.054485347687180906, -0.015040037182674102),
    (0.6093219165814266, -5.108510484323575e-18, -0.05218204628100136, -0.5587705592467068,
     0.3956606836982001, 0.08773713595942138, -0.1922624039600048, 0.03283901526914641,
     0.045829496674667326, -0.019300017625105616),
    (0.5998502049539445, -4.607950949650875e-17, -0.14630251843161934, -0.4444037791203489,
     0.41232102249802693, 0.0031563463581799588, -0.16626985624957902, 0.057835125214848154,
     0.029948609800002277, -0.022413838525820722, -0.001370301368197309, 0.00476451160207574),
    (0.57541982559967, 2.60781225120755e-17, -0.2382429187037037, -0.2925063596390219,
     0.390396147183431, -0.08554453257058406, -0.11552480600209371, 0.07424341316495067,
     0.00781741632788571, -0.020881617485890815, 0.0037582820352852616, 0.0032770084546288186),
    (0.54180741666449, 2.9731063430402425e-17, -0.2938653016487736, -0.15610920825047458,
     0.3325057583184223, -0.14015229977118998, -0.05942234605442014, 0.07271470962176207,
     -0.01029014038477094, -0.014802210816887398, 0.006587993110571718, 0.0012283127557231428),
    (0.5032487142382963, -7.11146413532792e-18, -0.3184608863395893, -0.0454611901251231,
     0.25587423142970406, -0.1611790088053166, -0.009671762603940965, 0.05836074242684764,
     -0.021206175409181408, -0.006975041434257909, 0.006926906140674456),
    (0.4631910933578876, 1.165209875217291e-18, -0.31909299964788623, 0.035391718591934594,
     0.17586229289868383, -0.1550882756230841, 0.026585255069278994, 0.03784960488370107,
     -0.02449291132567976, 0.00010512910719678854, 0.005401022322498872, -0.0017056656117470763),
    (0.42416402576532436, -2.1598029311020046e-17, -0.3031744198624571, 0.08744280775257197,
     0.10374312118665814, -0.1312546623775614, 0.04709964863463895, 0.01725800180410727,
     -0.021777867368244157, 0.004873020085363604, 0.003012809849036653, -0.0019875249228159335),
    (0.38780558896973066, -1.9478811475542297e-18, -0.27741609291976105, 0.1150110794473363,
     0.04597234094762213, -0.09916797370748348, 0.05350784458835936, 0.0007283351636194936,
     -0.015665146414587588, 0.006916170235238558, 0.0006998801266988081, -0.0016336043847391202),
    (0.35499283292289147, 2.6248819301086757e-17, -0.24721806048069195, 0.12399215925844918,
     0.004655501278272082, -0.06650609649257519, 0.049680024307279205, -0.009916316844212052,
     -0.008704924534912969, 0.006695516794423842, -0.0009428457440398614, -0.0009716584648174388),
    (0.31295805614607164, -7.975238117374497e-18, -0.20169257152529185, 0.11563865834516976,
     -0.02935971830546926, -0.02662462847018405, 0.03437482152491777, -0.01547395653209446,
     -0.0004264760139351004, 0.004095150204900385, -0.001838987842078729, -4.290344275692913e-05,
     0.00034804334755720044),
    (0.2692294021788711, 9.30086940606646e-18, -0.15046049325412514, 0.0881142692996735,
     -0.03920726422173493, 0.0025014916154378203, 0.013306488654776606, -0.011368134593172654,
     0.003912237310893906, 0.0005192089366394119, -0.001143404210428356, 0.00043550994039392207,
     1.954254565805948e-05),
    (0.23652904060191737, -1.0523611561455452e-17, -0.11339829606455358, 0.06114148656753567,
     -0.03139873745015055, 0.010640099619638113, 0.0013873903788359984, -0.004760666477451834,
     0.0031741027416725964, -0.0008928354961947999, -0.00018455000377522667, 0.0002752960820050103,
     -9.708454964482005e-05),
    (0.21155213935772305, -5.4749821046814755e-18, -0.08804563421139491, 0.041579059000037985,
     -0.02099610694247493, 0.009392374229292311, -0.0024027875872664997, -0.0008281198364322735,
     0.0013667521446612371, -0.0007753398720664555, 0.0001916226532775031, 4.583646485007524e-05,
     -5.83035106819749e-05),
    (0.1918455704837867, 8.998285931034116e-18, -0.07065564842815435, 0.028953330854195984,
     -0.013215673660804983, 0.006172824667642821, -0.002429761370397629, 0.0004733932778420913,
     0.00027154499322017427, -0.0003305018414958907, 0.00016916950800672213, -3.911883777679971e-05,
     -8.441332473038684e-06),
    (0.17580661414823967, -6.1773718987145235e-18, -0.05831547840510516, 0.02100812546899029,
     -0.008391296701824775, 0.003656250449806049, -0.00157941942646992, 0.0005580967125189763,
     -8.690200312703761e-05, -6.620156029392555e-05, 6.896380043206425e-05, -3.325636651227491e-05,
     7.810167041349041e-06),
    (0.16242250837743455, 2.6875593163254432e-18, -0.04918401864088793, 0.015869559195784134,
     -0.005562088962553159, 0.0021465066467716465, -0.0008875990527415216, 0.00035701329661265343,
     -0.00011616405317097395, 1.6021565852252873e-05, 1.2909040699558442e-05, -1.2632585662886772e-05,
     5.9288030112688185e-06),
    (0.15103904187694786, -3.2296996862681612e-18, -0.0421734074508333, 0.012382911995031224,
     -0.0038735843533010223, 0.001313613686978376, -0.00048666746421775, 0.00019074091788236054,
     -7.213095499337387e-05, 2.219110675061839e-05, -2.9930607143638957e-06, -2.096115975425989e-06),
    (0.13678392160381908, -1.3478317116908207e-17, -0.03428416653694951, 0.008923786178216323,
     -0.0024279498136400663, 0.000697500264885301, -0.00021457052568146028, 7.14748224345632e-05,
     -2.5484945683971208e-05, 9.209073648899013e-06, -3.0353541016912408e-06, 7.37764900354694e-07,
     -2.6360038620292968e-09, -1.1660594843422494e-07),
    (0.12160712802218901, -4.379573134351574e-18, -0.026888549115282972, 0.006113480275405122,
     -0.0014336547952610802, 0.00034819000104189895, -8.809908385246867e-05, 2.3426882472763777e-05,
     -6.6224606431950355e-06, 2.00744910811696e-06, -6.472829445616188e-07, 2.134794816240323e-07,
     -6.710559734579438e-08, 1.6988421658243503e-08),
    (0.1095313465268624, -5.355864038105379e-19, -0.021699971436542648, 0.0043935035149866184,
     -0.0009106146780910816, 0.00019361177247408988, -4.233885099331706e-05, 9.555733226896243e-06,
     -2.2367836727110346e-06, 5.467996146146761e-07, -1.40906576705856e-07, 3.924100849461339e-08,
     -1.1429419277590952e-08),
    (0.0996768212265113, -9.503312694837292e-19, -0.017904277009367302, 0.003272771577350719,
     -0.0006094397069328304, 0.00011575336875313404, -2.245686536530294e-05, 4.457869264026101e-06,
     -9.073948208036269e-07, 1.899055960319502e-07, -4.102069599464047e-08, 9.294236436076716e-09,
     -2.181419411233855e-09),
    (0.09147329169625089, -2.9070980185784793e-18, -0.015036979107623503, 0.00250782772639597,
     -0.0004246294548990081, 7.305318336647932e-05, -1.2781176623602102e-05, 2.2763898807457092e-06,
     -4.1321107569909733e-07, 7.655279098720389e-08, -1.4596272608796202e-08, 2.835139090175497e-09),
    (0.08453287941792412, -5.6080665917104116e-18, -0.012814705046462935, 0.001966379645700684,
     -0.00030557170801053375, 4.811469168698124e-05, -7.680984403287737e-06, 1.2439842409537317e-06,
     -2.0454356774545054e-07, 3.417401895878125e-08, -5.83768350248104e-09, 1.0107219419119357e-09),
    (0.07858171044238156, -3.3223871259944732e-18, -0.011055634319020013, 0.0015716383705135328,
     -0.00022582924480185512, 3.2811827150654334e-05, -4.822600835053547e-06, 7.173429268129126e-07,
     -1.080379904609827e-07, 1.6484235794610637e-08, -2.560541243389574e-09, 4.019268868558319e-10),
    (0.07342048467702639, -4.652752339039576e-19, -0.009638345398396425, 0.0012766921605459052,
     -0.0001706792305561432, 2.303593813240076e-05, -3.1397159954606604e-06, 4.3228692651792294e-07,
     -6.014477961742802e-08, 8.459256741293785e-09, -1.2075837222268743e-09, 1.7385693821783508e-10),
    (0.06684447298834638, -4.090631002937516e-18, -0.0079768737063758, 0.0009589535158479652,
     -0.00011615411888775965, 1.4178247347428752e-05, -1.744393431030871e-06, 2.1636563213705777e-07,
     -2.7061210267704433e-08, 3.4134581936403734e-09, -4.343912188859615e-10, 5.6503505695958773e-11,
     -7.333891400431187e-12),
    (0.059723024865877966, 1.112762889150478e-18, -0.0063583053561688035, 0.0006808760177256744,
     -7.334454148336191e-05, 7.948563182817267e-06, -8.667235024733069e-07, 9.5103368918418e-08,
     -1.050241574757837e-08, 1.167353897133709e-09, -1.3062385458434437e-10, 1.4861111122177077e-11,
     -1.6876252044276094e-12),
    (0.053979418476564366, 2.0002998943249077e-18, -0.005188620912339146, 0.0005011011029966635,
     -4.8627112750536284e-05, 4.741790441907104e-06, -4.646747560983435e-07, 4.576483368106449e-08,
     -4.530281341499149e-09, 4.507700429010695e-10, -4.508949901348701e-11, 4.5696571542700155e-12,
     -4.623910048106046e-13),
    (0.049247590314516, 2.8297289913228826e-19, -0.0043154101383553745, 0.00037962627657078774,
     -3.352802813899938e-05, 2.9730235145304397e-06, -2.646969140115787e-07, 2.366365545633123e-08,
     -2.1242957803896803e-09, 1.9150529810710526e-10, -1.7437690631450096e-11, 1.586488065106319e-12),
    (0.04528100846614442, -1.836760203048505e-18, -0.0036460445580978624, 0.000294548510078856,
     -2.3874545258515126e-05, 1.9416528265502213e-06, -1.5844603031288607e-07, 1.2974180271701215e-08,
     -1.0660549070311746e-09, 8.790280746006018e-11, -7.308644081285526e-12, 6.072357899338375e-13),
    (0.04190743306896799, -1.2251034438806106e-18, -0.003121525766623175, 0.00023316478044486946,
     -1.7465846255025192e-05, 1.3120719990923692e-06, -9.885029345807295e-08, 7.468985936966931e-09,
     -5.660013986277648e-10, 4.3019128599347644e-11, -3.2927571398639386e-12, 2.5187424745238165e-13),
    (0.039002826401194665, 3.340772757151813e-18, -0.0027027985391328124, 0.00018775241623111098,
     -1.307433081219091e-05, 9.126902728760229e-07, -6.38712579564104e-08, 4.48098845777875e-09,
     -3.1516280918816424e-10, 2.2222898081142787e-11, -1.5764695675845946e-12, 1.117711155937579e-13),
    (0.03647555895307607, 1.7030863761683022e-18, -0.002363160449845573, 0.00015342801953029548,
     -9.98256858287535e-06, 6.508967527898184e-07, -4.2532430236845e-08, 2.7852979927855008e-09,
     -1.8279939041040365e-10, 1.2056449558311172e-11, -7.950011875454774e-13),
)

# Im w(a) = a (hi + lo + s_1 a^2 + ... + s_d a^(2d)) for a < 0.25, as
# (hi, lo, s_1, ..., s_d): the odd series, economized the same way
_DAWSON_SERIES = (
    1.1283791670955126, 1.5335608905242953e-17, -0.7522527780636751, 0.30090111122547003,
    -0.08597174606444466, 0.019104832458763914, -0.0034736058788702407, 0.0005344009051321145,
    -7.12612102060904e-05, 8.383580057534615e-06,
)

# 1/sqrt(pi) as the sum of two floats
_RSQRT_PI = (0.5641895835477563, 7.66772980658294e-18)

# Weideman's a_1, ..., a_40 for N = 40, L = sqrt(N/sqrt(2)):
# a_m = (1/2M) sum_k f(k pi/M) cos(m k pi/M), |k| < M = 2N,
# f(theta) = exp(-t^2) (L^2 + t^2) at t = L tan(theta/2)
_WEIDEMAN = (
    2.8996245093897053, 2.61605415276186, 2.201513794878312, 1.7253830848179776,
    1.256381567576513, 0.8472174576593817, 0.5266528988277086, 0.2998943799615006,
    0.15504263802479493, 0.07182361779074335, 0.02920291647124186, 0.01004818624278342,
    0.0027054056330737897, 0.0004398070159869664, -3.939363145489577e-05, -5.5913092642483174e-05,
    -1.8007447144750946e-05, -1.0660138984947105e-06, 1.4835661132200783e-06, 5.91213695189949e-07,
    1.4198642399935523e-08, -6.351773485044292e-08, -1.8315616783040445e-08, 3.249746518043703e-09,
    3.01778054000907e-09, 2.1086006347066422e-10, -3.563233986597654e-10, -9.05512445092828e-11,
    3.472726709304553e-11, 1.771449521401118e-11, -2.727602315820052e-12, -2.9076883421828657e-12,
    1.203145821938811e-13, 4.532966678260672e-13, 1.3725620586715298e-14, -7.074086260286856e-14,
    -5.409310282882108e-15, 1.1357687198999245e-14, 1.1280735623643963e-15, -1.8996949473949275e-15,
)
_WEIDEMAN_L = math.sqrt(40 / math.sqrt(2))
# |x| or |y| from which w off the axis is its far field, _faddeeva_far
_FADDEEVA_FAR = 1e8


def _cell_tables():
    """_DAWSON_CELLS by k = int(32 a), 0.25 <= a < 16: the cell's (centre,
    hi, lo, coefficients from the top)."""
    cells = [None] * 512
    for i, (hi, lo, *a) in enumerate(_DAWSON_CELLS):
        e, j = i // 8 - 1, i % 8
        first, end = (8 + j) << (e + 1), (9 + j) << (e + 1)
        cells[first:end] = [(math.ldexp(j + 8.5, e - 4), hi, lo, tuple(reversed(a)))] * (end - first)
    return cells


_CELLS = _cell_tables()
# the series' constant term and its coefficients from the top
_SERIES = (_DAWSON_SERIES[0], _DAWSON_SERIES[1], _DAWSON_SERIES[:1:-1])
# (2k-1)!! / 2^k for k = 10 down to 1, each exact
_ASYMPTOTIC = tuple(math.prod(range(1, 2 * k, 2)) / 2 ** k for k in range(10, 0, -1))
