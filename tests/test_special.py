"""Hermite towers, companion functions, the finite-N kernel, and the
Gaussian Cauchy transform primitives."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_hermite

from rmtcorr.special import (SQRT_PI, hermite_poly,
                             oscillator_wavefunction, generalized_hermite,
                             gue_kernel, cauchy_gauss, cauchy_gauss_tower,
                             gauss_moments, gauss_moment_cauchy,
                             gauss_poly_derivatives, polyval_ascending,
                             half_gauss_oscillatory, CAUCHY_ASYMP,
                             _far_coefficients, _gauss_derivatives, _osc_hat_tower, _osc_tower,
                             _truncated_sums, faddeeva_derivatives, HERMITE_CAP,
                             _osc_body)
from rmtcorr import special


def test_hermite_low_orders():
    assert hermite_poly(0, 1.7) == 1.0
    assert hermite_poly(1, 2.0) == 4.0


def test_hermite_against_scipy():
    xs = np.linspace(-3, 3, 13)
    for n in range(9):
        ref = eval_hermite(n, xs)
        got = hermite_poly(n, xs)
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-12


def test_oscillator_values_at_zero():
    assert abs(oscillator_wavefunction(1, 0.0)) == 0.0
    assert abs(oscillator_wavefunction(0, 0.0) - np.pi ** -0.25) < 1e-14


def test_oscillator_orthonormal():
    u, w = np.polynomial.hermite.hermgauss(60)
    for n in range(11):
        p = oscillator_wavefunction(n, u)
        val = np.sum(w * np.exp(u * u) * p * p)
        assert abs(val - 1.0) < 1e-10


def test_companion_imaginary_part_is_hermite():
    xs = np.linspace(-3, 3, 25)
    for n in range(9):
        got = np.imag(generalized_hermite(n, xs))
        ref = hermite_poly(n, xs)
        assert np.max(np.abs(got - ref)) < 1e-8 * np.max(np.abs(ref) + 1)


def test_companion_recurrence():
    xs = np.linspace(-3, 3, 11)
    for n in range(1, 9):
        lhs = generalized_hermite(n + 1, xs)
        rhs = 2 * xs * generalized_hermite(n, xs) \
            - 2 * n * generalized_hermite(n - 1, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(lhs) + 1)


def test_companion_seed_value():
    assert abs(generalized_hermite(0, np.array(0.0)) - 1j) < 1e-12


def test_companion_order_cap():
    with pytest.raises(ValueError):
        generalized_hermite(65, np.array(0.0))


def test_kernel_diagonal_value_n2():
    val = gue_kernel(2, np.array(0.0), np.array(0.0),
                     variant="imaginary_part")
    assert abs(val - 1.0 / SQRT_PI) < 1e-12


def test_kernel_diagonal_integral_counts_levels():
    for N in (2, 5):
        xs = np.linspace(-10, 10, 4001)
        vals = gue_kernel(N, xs, xs, variant="imaginary_part")
        total = np.trapezoid(vals, xs)
        assert abs(total - N) < 1e-8


def test_kernel_diagonal_nonnegative():
    xs = np.linspace(-5, 5, 101)
    vals = gue_kernel(4, xs, xs, variant="imaginary_part")
    assert np.all(vals >= 0)


def test_kernel_reproducing_property():
    ys = np.linspace(-12, 12, 4001)
    for N in (3, 8):
        for (x, z) in [(0.3, -0.9), (1.5, 1.5)]:
            left = gue_kernel(N, np.full_like(ys, x), ys,
                              variant="imaginary_part")
            right = gue_kernel(N, ys, np.full_like(ys, z),
                               variant="imaginary_part")
            integral = np.trapezoid(left * right, ys)
            direct = gue_kernel(N, np.array(x), np.array(z),
                                variant="imaginary_part")
            assert abs(integral - direct) < 1e-7


def test_full_kernel_imaginary_part_matches():
    xs = np.linspace(-4, 4, 17)
    full = gue_kernel(5, xs, xs, variant="full")
    imag = gue_kernel(5, xs, xs, variant="imaginary_part")
    assert np.max(np.abs(np.imag(full) - imag)) < 1e-10


def test_full_kernel_far_tail_accurate():
    # the far branch must splice continuously onto the recurrence branch
    eps = 1e-9
    lo = gue_kernel(8, np.array(CAUCHY_ASYMP - eps),
                    np.array(CAUCHY_ASYMP - eps), variant="full")
    hi = gue_kernel(8, np.array(CAUCHY_ASYMP + eps),
                    np.array(CAUCHY_ASYMP + eps), variant="full")
    assert abs(lo - hi) < 1e-7 * abs(lo)


def test_gauss_moments_against_quadrature():
    g = gauss_moments(8)
    for m in range(9):
        ref = quad(lambda u, m=m: u ** m * np.exp(-u * u), -np.inf, np.inf)[0]
        assert abs(g[m] - ref) < 1e-12


def test_cauchy_transform_off_axis_against_quadrature():
    for z in (0.4 + 0.8j, -1.2 - 0.5j, 2.0 + 0.01j):
        for n in range(4):
            re = quad(lambda u: np.real(np.exp(-u * u) / (z - u) ** (n + 1)),
                      -np.inf, np.inf, limit=400)[0]
            im = quad(lambda u: np.imag(np.exp(-u * u) / (z - u) ** (n + 1)),
                      -np.inf, np.inf, limit=400)[0]
            got = cauchy_gauss(n, np.array(z))
            assert abs(got - (re + 1j * im)) < 5e-9


def test_cauchy_boundary_values_sided():
    # approaching the axis from below matches the value on it, x - i0;
    # from above its conjugate, x + i0
    x = 0.7
    for n in range(3):
        below = cauchy_gauss(n, np.array(x - 1e-9j))
        above = cauchy_gauss(n, np.array(x + 1e-9j))
        lo = cauchy_gauss(n, np.array(complex(x)))
        assert abs(below - lo) < 1e-6
        assert abs(above - lo.conj()) < 1e-6


def test_cauchy_boundary_imaginary_part_is_gaussian_derivative():
    # Im C_n(x - i0) = pi (-1)^n (d/dx)^n e^(-x^2) / n!
    q = gauss_poly_derivatives(0, 4)
    for x in (0.0, 1.1, -2.3):
        for n in range(5):
            got = np.imag(cauchy_gauss(n, np.array(complex(x))))
            ref = np.pi * (-1.0) ** n / math.factorial(n) \
                * polyval_ascending(q[n], x) * np.exp(-x * x)
            assert abs(got - ref) < 1e-10


def test_cauchy_far_branch_matches_recurrence_at_crossover():
    # just below the crossover the recurrence is still accurate; the far
    # branch evaluated there must agree to its asymptotic accuracy
    import rmtcorr.special as S
    save = S.CAUCHY_ASYMP
    try:
        for x in (6.6, 7.5, -8.2):
            S.CAUCHY_ASYMP = 1e9
            rec = cauchy_gauss_tower(5, np.array(complex(x)))
            S.CAUCHY_ASYMP = 0.0
            asym = cauchy_gauss_tower(5, np.array(complex(x)))
            rel = np.max(np.abs(rec - asym) / np.abs(asym))
            assert rel < 5e-6
    finally:
        S.CAUCHY_ASYMP = save


@pytest.mark.parametrize("nmax,z,side,pins", [
    (5, 0.7, -1, {0: 1.809689765447503 + 1.9246225793649665j,
                  2: -2.5176291865766722 - 0.03849245158729944j,
                  5: 0.5036690974051216 + 0.5533007637695971j}),
    (5, 0.7, 1, {0: 1.809689765447503 - 1.9246225793649665j,
                 2: -2.5176291865766722 + 0.03849245158729944j,
                 5: 0.5036690974051216 - 0.5533007637695971j}),
    (31, -2.3, 1, {0: -0.8828697448530098 - 0.01583915699300616j,
                   15: 1.6511708087409282e-05 + 2.1654215504062833e-06j,
                   31: 2.894935057234316e-14 + 3.304593594403395e-14j}),
    (12, 1.5 + 0.8j, -1, {0: 0.8482810515255561 - 0.6618191875009121j,
                          6: 0.015051821653411943 - 0.007494807068510487j,
                          12: 1.3248925568568339e-06 - 4.266394837967382e-05j}),
    (8, 7.4, 1, {0: 0.24177062848902678 - 5.190199406374547e-24j,
                 4: 9.24406676506039e-05 - 9.80991839101073e-21j,
                 8: 4.2142601699387796e-08 - 2.256539775044309e-19j}),
    (31, -9.0, -1, {0: -0.1981782307032555 + 2.0859161112410486e-35j,
                    15: 2.4793653552444707e-15 - 5.286033434763193e-29j,
                    31: 5.16195999302732e-31 - 5.37531678707497e-32j}),
])
def test_cauchy_tower_pinned_values(nmax, z, side, pins):
    # exact values of the two-tower implementation this one replaced, on
    # both sides, inside and beyond CAUCHY_ASYMP; beyond it the imaginary
    # (sided) parts are those of the Hermite-function recurrence, each at
    # least as close to a 50-digit mpmath value as the earlier pins.  The
    # off-axis row is seeded from Weideman's series; it stays within 4e-13
    # of mpmath after twelve steps of the upward recurrence.  The side +1
    # rows, x + i0, are the conjugate of the x - i0 tower.
    tower = cauchy_gauss_tower(nmax, z)
    tower = tower.conj() if side > 0 else tower
    assert tower.shape == (nmax + 1,)
    for n, val in pins.items():
        assert complex(tower[n]) == val


def test_cauchy_tower_pinned_array_input():
    z = np.array([0.7, 7.4, -1 + 0.5j, -0.3 - 0.2j])
    tower = cauchy_gauss_tower(4, z)
    assert tower.shape == (5, 4)
    # the pins of the two real entries are x + i0, the conjugate of x - i0
    tower[:, :2] = tower[:, :2].conj()
    assert [complex(v) for v in tower[4]] == [
        1.0835816331905361 + 0.6157509172248316j,
        9.24406676506039e-05 - 9.80991839101073e-21j,
        -0.15239260235137725 + 0.21527893153248837j,
        -0.6309816082131743 + 0.5582707580172068j]


def test_moment_cauchy_against_quadrature():
    z = 1.3 - 0.7j
    F = gauss_moment_cauchy(3, 3, z)
    for n in range(4):
        for m in range(4):
            re = quad(lambda u: np.real(np.exp(-u * u) * u ** m / (z - u) ** (n + 1)),
                      -np.inf, np.inf, limit=400)[0]
            im = quad(lambda u: np.imag(np.exp(-u * u) * u ** m / (z - u) ** (n + 1)),
                      -np.inf, np.inf, limit=400)[0]
            assert abs(F[n, m] - (re + 1j * im)) < 1e-9


def test_gauss_poly_derivatives_match_finite_differences():
    h = 1e-5
    for m in (0, 2):
        rows = gauss_poly_derivatives(m, 3)
        for x in (0.3, -1.1):
            f = lambda t: t ** m * np.exp(-t * t)
            d1 = (f(x + h) - f(x - h)) / (2 * h)
            got = polyval_ascending(rows[1], x) * np.exp(-x * x)
            assert abs(got - d1) < 1e-8


def test_half_line_oscillatory_against_quadrature():
    c = 0.25
    for z in (0.5, -1.7, 3.0):
        G = half_gauss_oscillatory(3, np.array(complex(z)), c)
        for a in range(4):
            re = quad(lambda r: np.real(r ** a * np.exp(-c * r * r - 1j * z * r)),
                      0, np.inf, limit=400)[0]
            im = quad(lambda r: np.imag(r ** a * np.exp(-c * r * r - 1j * z * r)),
                      0, np.inf, limit=400)[0]
            assert abs(G[a] - (re + 1j * im)) < 1e-10


def scalar_truncated_sum(row):
    """The asymptotic-series loop that _truncated_sums replaces: add terms
    until one does not decrease in modulus or falls to 1e-20 of the sum."""
    acc, prev = 0 * row[0], math.inf
    for i, t in enumerate(row):
        if abs(t) >= prev or abs(t) <= 1e-20 * abs(acc):
            return acc, i
        acc += t
        prev = abs(t)
    return acc, len(row)


def series_tables():
    rng = np.random.default_rng(17)
    # geometric rows whose ratios cross 1, plunge below 1e-20 or never stop
    ratios = np.concatenate([rng.uniform(0.05, 1.3, (40, 29)),
                             rng.uniform(1e-9, 1e-5, (5, 29)),
                             np.full((5, 29), 0.9)])
    rows = np.cumprod(np.column_stack([rng.uniform(-2, 2, 50), ratios]), axis=1)
    rows[0, 0] = 0.0
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, rows.shape))
    # the far-branch series of the Gaussian Cauchy transform itself
    n = np.arange(48)
    tables = [rows, rows * phases]
    for x in (6.6, -7.4, 9.0, 30.0):
        zp = np.empty((48, 61))
        zp[:, 0] = (complex(x) ** -(n + 1)).real
        zp[:, 1:] = x * x
        tables.append(_far_coefficients(47) * np.divide.accumulate(zp, axis=1))
    return tables


def test_truncated_sums_match_scalar_loop():
    cuts = set()
    for table in series_tables():
        sums, cut = _truncated_sums(table)
        for row, s, c in zip(table, sums, cut):
            ref, ref_cut = scalar_truncated_sum(row.tolist())
            assert c == ref_cut
            assert s == ref
            cuts.add(min(c, 2) if c < table.shape[1] else -1)
    # every kind of stop occurs: at the first term, later, and none
    assert cuts == {0, 1, 2, -1}


def mp_cauchy_tower(nmax, x, side):
    """C_n(x -+ i0) from the Faddeeva derivatives of mpmath, with the
    digits the upward recurrence loses added to 50."""
    with mp.workdps(60 + int(2 * (nmax + 1) * math.log10(2 * abs(x) + 2))):
        z = mp.mpf(x) if side > 0 else -mp.mpf(x)
        w = [mp.exp(-z * z) * mp.erfc(-1j * z)]
        w.append(-2 * z * w[0] + 2j / mp.sqrt(mp.pi))
        for j in range(1, nmax):
            w.append(-2 * z * w[j] - 2 * j * w[j - 1])
        sgn = -1j * (-1) ** np.arange(nmax + 1) if side > 0 else np.full(nmax + 1, 1j)
        return np.array([complex(sgn[n] * mp.pi / mp.factorial(n) * w[n])
                         for n in range(nmax + 1)])


@pytest.mark.parametrize("N", [6, 32, 48])
@pytest.mark.parametrize("x", [6.6, -7.4, 9.0, -12.0])
def test_cauchy_far_branch_against_mpmath(N, x):
    # x = 6.6 and -7.4 lie inside the spectrum for N = 32 and 48 (edge
    # sqrt(2N)), 9.0 for N = 48; the rest is tail
    n = np.arange(N)
    series = [[math.comb(k + m, k) * math.gamma((m + 1) / 2) / x ** (k + m + 1)
               for m in range(0, 121, 2)] for k in n]
    converged = []
    for row in series:
        s, c = scalar_truncated_sum(row)
        converged.append(c < len(row) and abs(row[c]) <= 1e-20 * abs(s))
    lower = cauchy_gauss_tower(N - 1, x)
    for side in (1, -1):
        # x + i0 is the conjugate of the x - i0 tower
        ref = mp_cauchy_tower(N - 1, x, side)
        got = lower.conj() if side > 0 else lower
        # the sided part everywhere, on the scale of its neighbours (its
        # relative error is large next to a zero of H_n); the end orders
        # have one neighbour each
        a = np.pad(np.abs(ref.imag), 1, mode="edge")
        scale = np.max([a[:-2], a[1:-1], a[2:]], axis=0)
        assert np.all(np.abs(got.imag - ref.imag) <= 1e-13 * scale)
        if np.finfo(np.longdouble).nmant > 52:
            # with the Gaussian-derivative tower in long double it is
            # correctly rounded here (the float tower at 5-28% of the orders)
            assert np.array_equal(got.imag, ref.imag)
        # the principal value where the series reaches round-off
        assert np.all(np.abs(got.real - ref.real)[converged] <= 2e-15 * np.abs(ref.real)[converged])


# -- the Gaussian-derivative tower in any arithmetic -----------------------
# (its long-double run is checked in test_cauchy_far_branch_against_mpmath)

@pytest.mark.parametrize("u", [0.7, 5.5, -9.25, 20.0])
def test_gauss_derivatives_on_mpmath_numbers(u):
    # the body converts nothing: on 50-digit mpmath numbers it gives
    # D_n = (-1)^n H_n(u) e^(-u^2) / n! to the working precision
    with mp.workdps(50):
        u = mp.mpf(u)
        tower = _gauss_derivatives(40, u, mp.exp(-u * u))
        assert len(tower) == 41
        for n, d in enumerate(tower):
            ref = (-1) ** n * mp.hermite(n, u) * mp.exp(-u * u) / mp.factorial(n)
            assert isinstance(d, mp.mpf) and abs(d - ref) <= 1e-48 * abs(ref), n


# -- the oscillator body in any arithmetic -----------------------------------
# _osc_body runs from seeds its float entry points compute; here the seeds
# and the recurrence coefficients are 50-digit mpmath numbers, and the
# references are written apart from the recurrence.

def half_line_mpmath(a, z, c):
    """G_a(z, c) = integral_0^inf r^a e^(-c r^2 - i z r) dr from the parabolic
    cylinder function: (2c)^(-(a+1)/2) a! e^(s^2/4) D_(-a-1)(s), s = i z / sqrt(2c)."""
    s = 1j * z / mp.sqrt(2 * c)
    return (2 * c) ** (-(mp.mpf(a) + 1) / 2) * mp.factorial(a) * mp.exp(s * s / 4) \
        * mp.pcfd(-a - 1, s)


def assert_close(tower, ref, kind):
    assert len(tower) == len(ref)
    for n, (got, want) in enumerate(zip(tower, ref)):
        assert isinstance(got, kind) and abs(got - want) <= 1e-45 * abs(want), n


@pytest.mark.parametrize("x", [0.0, 0.7, -2.3, 3.1])
def test_oscillator_body_on_mpmath_numbers(x):
    # real seeds give phi_n = H_n(x) e^(-x^2/2) / sqrt(2^n n! sqrt(pi)),
    # complex ones the companions phi^_n, F_n of generalized_hermite scaled
    # the same way, F_n = (2i)^(n+1) pi^(-1/2) e^(x^2) G_n(2x, 1)
    with mp.workdps(50):
        x = mp.mpf(x)
        steps = [(mp.sqrt(mp.mpf(2) / (n + 1)), mp.sqrt(mp.mpf(n) / (n + 1))) for n in range(30)]
        norm = [mp.exp(-x * x / 2) / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi))
                for n in range(31)]
        phi = _osc_body(x, mp.pi ** mp.mpf(-0.25) * mp.exp(-x * x / 2), 0, steps)
        assert_close(phi, [mp.hermite(n, x) * norm[n] for n in range(31)], mp.mpf)
        e = mp.exp(x * x / 2)
        hat = _osc_body(x, mp.pi ** mp.mpf(-0.25) * e * 1j * mp.exp(-x * x) * mp.erfc(1j * x),
                        mp.sqrt(2) * mp.pi ** mp.mpf(-0.75) * e, steps)
        assert_close(hat, [(2j) ** (n + 1) / mp.sqrt(mp.pi) * mp.exp(x * x)
                           * half_line_mpmath(n, 2 * x, 1) * norm[n] for n in range(31)], mp.mpc)


def test_gauss_derivatives_grid_equals_points():
    # a float grid runs the point's operations entry by entry: each grid
    # entry is its point's value, zero signs included
    us = np.array([0.0, -0.0, 0.7, -3.1, 5.5, -9.25, 20.0, 27.5, -40.0])
    grid = np.array(_gauss_derivatives(63, us, np.exp(-us * us)))
    for i, u in enumerate(us.tolist()):
        point = _gauss_derivatives(63, u, float(np.exp(-u * u)))
        assert all(type(d) is float for d in point)
        assert np.array_equal(grid[:, i], point)
        assert np.array_equal(np.signbit(grid[:, i]), np.signbit(point))


def osc_hat_far_loop(nmax, x):
    """The far-tail principal values of _osc_hat_tower, one order and one
    series term at a time."""
    out = []
    ex = np.exp(0.5 * x * x) / np.pi
    norm = np.pi ** -0.25
    for n in range(nmax + 1):
        acc, prev = 0.0, math.inf
        t = SQRT_PI * math.factorial(n) * x ** (-(n + 1))
        for tt in range(200):
            if abs(t) >= prev or abs(t) <= 1e-20 * abs(acc):
                break
            acc += t
            prev = abs(t)
            t *= (n + 2 * tt + 1) * (n + 2 * tt + 2) / (4.0 * (tt + 1) * x * x)
        out.append(norm * ex * acc)
        norm /= np.sqrt(2.0 * (n + 1))
    return np.array(out)


@pytest.mark.parametrize("nmax, x", [(0, 6.5), (5, 7.3), (5, -9.0), (12, 12.0), (31, -25.0), (40, 30.0)])
def test_osc_hat_far_branch_matches_series_loop(nmax, x):
    # the term table takes numpy's powers, which may differ from Python's
    # in the last bit; everything else is the loop's arithmetic
    got = _osc_hat_tower(nmax, np.array(x))
    assert np.allclose(got.real, osc_hat_far_loop(nmax, x), rtol=1e-14, atol=0)
    assert np.array_equal(got.imag, _osc_tower(nmax, np.array(x)))


def osc_hat_real_mpmath(nmax, x):
    """Re phi^_0..Re phi^_nmax from F_n of companion_mpmath's recurrence,
    with the x^2 / ln 10 digits of e^(x^2) added to 50: the upward
    recurrence cancels fewer than those in the far tail."""
    with mp.workdps(50 + int(x * x / math.log(10))):
        x = mp.mpf(x)
        f = [mp.erfi(x), 2 * x * mp.erfi(x) - 2 / mp.sqrt(mp.pi) * mp.exp(x * x)]
        for j in range(1, nmax):
            f.append(2 * x * f[j] - 2 * j * f[j - 1])
        return np.array([float(f[n] * mp.exp(-x * x / 2)
                               / mp.sqrt(2 ** n * mp.factorial(n) * mp.sqrt(mp.pi)))
                         for n in range(nmax + 1)])


@pytest.mark.parametrize("nmax", [5, 12, 20, 40])
def test_osc_hat_far_orders_against_mpmath(nmax):
    # every order of the far branch: the series at the top two, the
    # downward recurrence below them; both signs of x, out to |x| = 30
    checked = 0
    for x in (7.3, 8.0, 9.6, 12.0, 15.3, 20.0, 25.0, 29.5, 30.0):
        if 2 * x * x < (nmax + 1) * (nmax + 2):
            continue
        for x in (x, -x):
            ref = osc_hat_real_mpmath(nmax, x)
            got = _osc_hat_tower(nmax, x).real
            # 5.7e-15 at |x| = 15.3, mostly the rounding of x^2/2 in e^(x^2/2)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), x
            checked += 1
    assert checked >= 4


def test_osc_hat_far_orders_at_the_series_limit():
    # next to the far branch's bounds the series stops on a growing term
    # before it reaches round-off: 1.1e-11 at (5, 6.5), 2.9e-10 at order 7
    # of (7, 6.54).  Scaled onto the seed, the orders the downward
    # recurrence brings down from the top two keep their own accuracy,
    # falling off towards the top as the series does; without the scaling
    # every order of (7, 6.54) would carry 1.2e-10
    for nmax, x in ((5, 6.5), (5, -6.5), (5, 6.6), (7, 6.54), (7, -6.54), (8, 6.77)):
        ref = osc_hat_real_mpmath(nmax, x)
        err = np.abs(_osc_hat_tower(nmax, x).real - ref) / np.abs(ref)
        assert np.all(err[:nmax - 3] <= 1e-13) and np.all(err <= 1e-9), (nmax, x, err)


@pytest.mark.parametrize("nmax", [0, 1, 2, 5, 12, 31, 63])
def test_osc_hat_imaginary_part_is_osc_tower(nmax):
    # the companion's imaginary parts start from phi_0's own seed, so they
    # are phi_n to the bit, bulk and far, at a point and on a grid: next to
    # zeros of phi_n too, and past |x| = 27.3, where e^(-x^2) underflows.
    # At nmax >= 50 the real parts of the bulk recurrence overflow from
    # |x| ~ 35; a far point keeps its tower up to where exp(x^2/2) overflows
    xs = np.concatenate([np.linspace(-34.5, 34.5, 277),
                         np.random.default_rng(nmax).uniform(-10.0, 10.0, 200),
                         [37.6, -37.6] if nmax <= 40 else []])
    assert np.array_equal(_osc_hat_tower(nmax, xs).imag, _osc_tower(nmax, xs))
    for x in xs[::7].tolist():
        assert np.array_equal(_osc_hat_tower(nmax, x).imag, _osc_tower(nmax, x)), x


# -- one tower body for a point and a grid ---------------------------------

# bulk, edge and past CAUCHY_ASYMP; the far series of _osc_hat_tower needs
# 2x^2 >= (nmax+1)(nmax+2) as well, so at N = 32 and 64 only the outer
# points take it.  The half-line tower's c is no power of 2, so dividing
# by 2c and multiplying by 1/(2c) round differently there.
TOWER_XS = (0.0, 0.7, -2.3, 5.9, 6.6, -7.4, 9.0, -12.0, 30.0)
TOWERS = {
    "osc": lambda N, x: _osc_tower(N - 1, x),
    "osc_hat": lambda N, x: _osc_hat_tower(N - 1, x),
    "faddeeva": lambda N, x: faddeeva_derivatives(x, N - 1),
    "cauchy_below": lambda N, x: cauchy_gauss_tower(N - 1, x),
    "moment_cauchy": lambda N, x: gauss_moment_cauchy(N - 1, 3, x),
    "half_line": lambda N, x: half_gauss_oscillatory(N - 1, x, 0.175),
}


@pytest.mark.parametrize("N", [1, 2, 6, 32, 64])
@pytest.mark.parametrize("name", sorted(TOWERS))
def test_tower_point_and_grid_agree(name, N):
    # a Python float, a 0-d array and each element of a grid give the same
    # tower to the last bit; the grid's axis follows the tower's own axes
    tower = TOWERS[name]
    grid = tower(N, np.array(TOWER_XS))
    for i, x in enumerate(TOWER_XS):
        point = tower(N, x)
        assert isinstance(point, np.ndarray) and point.shape == grid.shape[:-1]
        assert np.array_equal(tower(N, np.array(x)), point)
        assert np.array_equal(grid[..., i], point)


def test_tower_point_errors():
    # the caps and the overflow check hold for a float argument, which the
    # tower takes as a Python number
    with pytest.raises(ValueError, match="exceeds cap"):
        _osc_hat_tower(HERMITE_CAP + 1, 0.7)
    with pytest.raises(ValueError, match="exceeds cap"):
        generalized_hermite(HERMITE_CAP + 1, 0.7)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in (40.0, np.array(-40.0), np.array([0.7, 40.0])):
            with pytest.raises(ValueError, match="overflows"):
                _osc_hat_tower(5, x)


def test_companion_refuses_overflow():
    # exp(x^2) overflows past |x| ~ 26.6; the companion refuses there
    # rather than return nan
    for n, x in ((0, 27.0), (3, [1.0, 30.0]), (2, -40.0), (0, float("nan"))):
        with pytest.raises(ValueError, match="overflows"):
            generalized_hermite(n, x)
    assert np.isfinite(generalized_hermite(3, [1.0, -26.0])).all()


def companion_mpmath(n, x):
    """F_n(x) in 50-digit mpmath: F_0 = erfi(x) + i and F_1 = 2x F_0 -
    (2/sqrt(pi)) e^(x^2), then F_(j+1) = 2x F_j - 2j F_(j-1), which at
    |x| <= 12 and n <= 5 cancels away fewer than 15 of the digits."""
    with mp.workdps(50):
        x = mp.mpf(x)
        f0, f1 = mp.erfi(x) + 1j, None
        if n:
            f1 = 2 * x * f0 - 2 / mp.sqrt(mp.pi) * mp.exp(x * x)
        for j in range(1, n):
            f0, f1 = f1, 2 * x * f1 - 2 * j * f0
        return complex(f1 if n else f0)


@pytest.mark.parametrize("x", [7.3, -7.3, 10.0, 12.0, -12.0])
def test_companion_far_tail_against_mpmath(x):
    # the upward recurrence in floats lost up to 8.1e-7 of Re F_n here;
    # the tower's far-tail series keeps it to round-off
    for n in range(6):
        ref = companion_mpmath(n, x)
        got = generalized_hermite(n, x)
        assert abs(got.real - ref.real) <= 1e-13 * abs(ref.real), n
        assert abs(got.imag - ref.imag) <= 1e-13 * abs(ref.imag), n


@pytest.mark.parametrize("c", [0.0, -0.25, float("nan"), float("inf")])
def test_half_line_refuses_c_not_finite_and_positive(c):
    with pytest.raises(ValueError, match="c must be finite and > 0"):
        half_gauss_oscillatory(3, 0.5, c)


# -- the Faddeeva function ---------------------------------------------------

def _economize(a, h, bound):
    """Lanczos economization: the power series sum a_k t^k cut down, from
    the top, by multiples of the Chebyshev polynomials T_k(t/h), while the
    dropped coefficients add up to at most bound on |t| <= h."""
    T = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]]
    for _ in range(2, len(a)):
        T.append([2 * p - q for p, q in zip([0] + T[-1], T[-2] + [0, 0])])
    s = [a[k] * h ** k for k in range(len(a))]
    dropped = 0
    for k in range(len(s) - 1, 0, -1):
        ck = s[k] / 2 ** (k - 1)
        if dropped + abs(ck) > bound:
            break
        dropped += abs(ck)
        s = [sj - ck * tj for sj, tj in zip(s[:k], T[k])]
    return [s[k] / h ** k for k in range(len(s))]


def _head(b):
    """(hi, lo, b_1, ...) with b_0 = hi + lo to two floats."""
    hi = float(b[0])
    return (hi, float(b[0] - hi)) + tuple(float(c) for c in b[1:])


def faddeeva_tables():
    """special's embedded Faddeeva tables, computed in 50-digit mpmath:
    the cells, the odd series, 1/sqrt(pi) and Weideman's coefficients."""
    bound = mp.mpf(2) ** -58
    with mp.workdps(50):
        cells = []
        for e in range(-1, 5):
            for j in range(8):
                c, h = math.ldexp(j + 8.5, e - 4), math.ldexp(1, e - 5)
                # Taylor coefficients of Im w at c from Im w' = 2/sqrt(pi) - 2x Im w,
                # with the digits the recurrence loses added
                with mp.workdps(110 + int(40 * math.log10(2 * c * c + 2))):
                    a = [mp.exp(-mp.mpf(c) ** 2) * mp.erfi(c)]
                    a.append(2 / mp.sqrt(mp.pi) - 2 * c * a[0])
                    for k in range(1, 40):
                        a.append((-2 * c * a[k] - 2 * a[k - 1]) / (k + 1))
                cells.append(_head(_economize([+x for x in a], h, bound * (a[0] - h * abs(a[1])))))
        k2 = 2 / mp.sqrt(mp.pi)
        series = [k2 * (-2) ** k / mp.fac2(2 * k + 1) for k in range(40)]
        series = _head(_economize(series, mp.mpf(1) / 16, bound * k2 * 0.9))
        rsqrt_pi = _head([1 / mp.sqrt(mp.pi)])
        n = 40
        L = mp.mpf(math.sqrt(n / math.sqrt(2)))
        ks = range(1 - 2 * n, 2 * n)
        t = [L * mp.tan(k * mp.pi / (4 * n)) for k in ks]
        f = [mp.exp(-u * u) * (L * L + u * u) for u in t]
        weideman = tuple(float(mp.fsum(fk * mp.cos(m * k * mp.pi / (2 * n)) for k, fk in zip(ks, f))
                               / (4 * n)) for m in range(1, n + 1))
    return tuple(cells), series, rsqrt_pi, weideman


def test_faddeeva_tables_regenerate():
    cells, series, rsqrt_pi, weideman = faddeeva_tables()
    assert special._DAWSON_CELLS == cells
    assert special._DAWSON_SERIES == series
    assert special._RSQRT_PI == rsqrt_pi
    assert special._WEIDEMAN == weideman


def real_axis_points():
    """|x| <= 30: uniform, dense near 0, 0.5 and 6.5, and both sides of
    every cell edge and of the series' and asymptotic series' ends."""
    rng = np.random.default_rng(24)
    edges = [math.ldexp(j, e - 4) for e in range(-1, 5) for j in range(8, 17)]
    edges = np.array(edges + [math.ldexp(1, -k) for k in range(3, 60, 4)])
    xs = np.concatenate([
        rng.uniform(0, 30, 5000), 10 ** rng.uniform(-12, -0.6, 1500), rng.uniform(0, 0.25, 1000),
        rng.uniform(0.45, 0.55, 1000), rng.uniform(6.4, 6.6, 1000), rng.uniform(14, 18, 500),
        edges, np.nextafter(edges, 0), np.nextafter(edges, 30)])
    return xs


def test_faddeeva_real_axis_within_one_ulp():
    xs = real_axis_points()
    assert len(xs) >= 10 ** 4
    w = special._faddeeva(np.concatenate([xs, -xs]))
    with mp.workdps(50):
        err = []
        for x, v in zip(xs, w.imag):
            ref = mp.exp(-mp.mpf(x) ** 2) * mp.erfi(x)
            err.append(float(abs(v - ref) / math.ulp(float(ref))) if x else abs(v))
    err = np.array(err)
    # within one ulp everywhere, correctly rounded at nearly every point
    assert err.max() < 1.0
    assert np.mean(err <= 0.5) > 0.97
    # Re w is numpy's exp(-x*x), and Im w is odd, to the bit
    assert np.array_equal(w.real, np.exp(-np.concatenate([xs, -xs]) ** 2))
    assert np.array_equal(w.imag[len(xs):], -w.imag[:len(xs)])


def test_faddeeva_at_zero_and_infinity():
    assert special._faddeeva(0.0) == 1 and special._faddeeva(0j) == 1
    assert special._faddeeva(-0.0) == 1
    got = special._faddeeva(np.array([0.0, np.inf, -np.inf, np.nan]))
    assert np.array_equal(got, [1, 0, 0, complex(np.nan, np.nan)], equal_nan=True)


def off_axis_regions():
    rng = np.random.default_rng(7)
    r = 10 * np.sqrt(rng.uniform(0, 1, 600))
    theta = rng.uniform(0, np.pi, 600)
    circles = [8 + rho * np.exp(2j * np.pi * np.arange(64) / 64) for rho in (0.5, 1, 2, 4)]
    return {"upper, |z| < 10": r * np.exp(1j * theta),
            "0 < Im z < 1e-3": rng.uniform(-10, 10, 300) + 1j * 10 ** rng.uniform(-12, -3, 300),
            "lower, |z| < 10": r * np.exp(-1j * theta),
            "circles about 8": np.concatenate(circles)}


@pytest.mark.parametrize("region", sorted(off_axis_regions()))
def test_faddeeva_off_axis_against_mpmath(region):
    zs = off_axis_regions()[region]
    got = special._faddeeva(zs)
    with mp.workdps(40):
        ref = np.array([complex(mp.exp(-mp.mpc(z) ** 2) * mp.erfc(-1j * mp.mpc(z))) for z in zs])
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-15


def test_faddeeva_point_equals_grid():
    xs = real_axis_points()[::7]
    zs = np.concatenate([xs, -xs, xs + 0j, xs - 0.5j * xs, -xs + 1e-9j,
                         np.concatenate(list(off_axis_regions().values()))])
    for grid in (xs, zs):
        got = special._faddeeva(grid)
        point = [special._faddeeva(z) for z in grid.tolist()]
        assert all(type(p) is complex for p in point)
        assert np.array_equal(got, point)


def far_field_points():
    """|z| from 1e8 to 1e300 above the axis, and below it where x^2 - y^2
    is so large that exp(-z^2) underflows; the points where Weideman's
    series overflowed, and points just off the axis."""
    rng = np.random.default_rng(11)
    upper = 10 ** rng.uniform(8, 300, 60) * np.exp(1j * rng.uniform(1e-3, np.pi - 1e-3, 60))
    lower = 10 ** rng.uniform(8, 300, 30) * np.exp(1j * rng.uniform(-np.pi / 4 + 0.01, -1e-3, 30))
    edge = [1e200 + 1j, 1e160 + 1e160j, -1e200 + 1e-5j, 1e200 - 1j, 1e8 + 1e-300j,
            -1e8 - 1e-300j, 1e8j, 3e10 - 1e5j]
    return np.concatenate([upper, lower, -lower.conj(), edge])


def test_faddeeva_far_field_against_mpmath():
    # Weideman's denominators overflowed from |z| ~ 1e154 on (NaN); past
    # |x|, |y| = 1e8 two terms of the asymptotic series are exact
    zs = far_field_points()
    got = special._faddeeva(zs)
    with mp.workdps(50):
        ref = np.array([complex(mp.exp(-mp.mpc(z) ** 2) * mp.erfc(-1j * mp.mpc(z))) for z in zs])
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-15
    assert np.array_equal(got, [special._faddeeva(z) for z in zs.tolist()])


@pytest.mark.filterwarnings("error")
def test_faddeeva_overflow_below_the_axis_is_infinite():
    # below the axis |w| is about 2 exp(y^2 - x^2), which overflows from
    # y ~ -26.63 on the imaginary axis on: there w is infinite, with no NaN
    # part and no warning, and y^2 - x^2 is not formed as inf - inf
    zs = [-27j, 3 - 27j, -1e8j, 1e-5 - 1e200j, 1e160 - 1.0000001e160j]
    got = special._faddeeva(np.array(zs))
    assert np.all(np.abs(got) == np.inf)
    assert not np.isnan(got.real).any() and not np.isnan(got.imag).any()
    assert got[0].real == got[2].real == np.inf
    assert np.array_equal(got, [special._faddeeva(z) for z in zs])
    # inside the edge the value is finite and as before
    w = special._faddeeva(3 - 26.5j)
    assert w == complex(-8.134549958395898e+300, 2.231441370945079e+301)
    with mp.workdps(50):
        ref = complex(mp.exp(-mp.mpc(3, -26.5) ** 2) * mp.erfc(-1j * mp.mpc(3, -26.5)))
    assert abs(w - ref) <= 2e-15 * abs(ref)


@pytest.mark.filterwarnings("error")
def test_faddeeva_far_anti_diagonal_below_the_axis():
    # on |x| = |y| below the axis |w| is about 2: where the squares overflow
    # y^2 - x^2 was inf - inf and the phase 2xy inf (nan+nanj, with
    # warnings); now the phase past the floats is taken as 0
    zs = [1e300 - 1e300j, -1e300 - 1e300j, 1e200 - 1e200j, 1.7976931348623157e308 * (1 - 1j)]
    got = special._faddeeva(np.array(zs))
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(np.abs(got) - 2.0) <= 1e-15)
    assert np.array_equal(got, [special._faddeeva(z) for z in zs])
    # where 2xy is finite its rounding error, past 1 from |xy| ~ 2^53 on,
    # joins the phase exactly: |w| was 6.9e7 at 1.23e12 (1 - i)
    zs = np.array([1.2345678912345e9, 1.2345678912345e12, 3.3333333333e20, 1e150]) * (1 - 1j)
    got = special._faddeeva(zs)
    with mp.workdps(1400):
        ref = np.array([complex(mp.exp(-mp.mpc(z) ** 2) * mp.erfc(-1j * mp.mpc(z))) for z in zs])
    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-15


@pytest.mark.parametrize("fn, args", [
    (hermite_poly, (-1, 0.7)), (oscillator_wavefunction, (-1, 0.7)),
    (faddeeva_derivatives, (0.7, -1)), (half_gauss_oscillatory, (-1, 0.7, 1.0)),
    (gauss_moments, (-1,)), (gauss_moments, (-3,)), (gauss_moment_cauchy, (3, -1, 0.5)),
    (gauss_poly_derivatives, (-1, 2)), (gauss_poly_derivatives, (2, -1)),
    (generalized_hermite, (-1, 0.5))],
    ids=["hermite_poly", "oscillator_wavefunction", "faddeeva_derivatives",
         "half_gauss_oscillatory", "gauss_moments", "gauss_moments_-3", "gauss_moment_cauchy",
         "gauss_poly_derivatives_m", "gauss_poly_derivatives_nmax", "generalized_hermite"])
def test_negative_orders_are_refused(fn, args):
    # no order below 0 exists: the recurrences would give 2x, phi_0 and
    # one-row towers, or fail on an index or a shape
    with pytest.raises(ValueError, match="order must be >= 0"):
        fn(*args)


@pytest.mark.parametrize("N, variant, message", [(0, "full", "N must be >= 1"),
                                                 (3, "x", "unknown variant")])
def test_gue_kernel_refuses_an_empty_sum_or_an_unknown_variant(N, variant, message):
    with pytest.raises(ValueError, match=message):
        gue_kernel(N, np.array(0.3), np.array(-0.2), variant=variant)
