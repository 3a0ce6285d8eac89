"""Fundamental kernel variants, superspace Cauchy determinant, the
half-line/derivative functional, and the unitary group integrals."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from rmtcorr.kernels import (IncrementedPoint, fundamental_kernel,
                             fundamental_correlations, kernel_closed,
                             kernel_series, berezinian, berezinian_ratio,
                             ingham_siegel_pair,
                             ingham_siegel_kernel, gaussian_pairing,
                             hciz_exact, hciz_degenerate)
from rmtcorr.mc import hciz_mc


def test_point_validation():
    with pytest.raises(ValueError):
        IncrementedPoint(0.0, side=2)
    with pytest.raises(ValueError):
        IncrementedPoint(0.0, epsilon=-1.0)


def test_kernel_zero_second_slot():
    p = IncrementedPoint(0.8, side=1, epsilon=1e-10)
    for N in (1, 5, 12):
        val = fundamental_kernel(N, p, 0.0)
        assert abs(val - 1.0 / (np.pi * p.shifted())) < 1e-9


def test_kernel_series_equals_closed():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(1000):
        N = int(rng.integers(1, 31))
        a = complex(rng.uniform(-3, 3), rng.uniform(-2, -0.01))
        b = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        c1 = kernel_closed(N, a, b)
        c2 = kernel_series(N, a, b)
        worst = max(worst, abs(c1 - c2) / abs(c2))
    assert worst < 1e-12


def test_kernel_confluent_limit():
    # at a = b the closed form continues to N/(pi a)
    N = 6
    a = 0.9 - 0.3j
    val = kernel_closed(N, a, a)
    assert abs(val - N / (np.pi * a)) < 1e-12
    near = kernel_closed(N, a, a * (1 + 1e-6))
    assert abs(near - val) < 1e-4 * abs(val)


def test_kernel_geometric_ratio_identity():
    # pi * (a - b) * kernel + (b/a)^N = 1
    N = 9
    a = 1.4 - 0.2j
    b = -0.6 + 0.1j
    val = kernel_closed(N, a, b)
    assert abs(np.pi * (a - b) * val + (b / a) ** N - 1.0) < 1e-12


def test_kernel_side_conjugation():
    # flipping the increment side and the sign of the second slot
    # conjugates the kernel; the even second-slot weight then makes full
    # correlation values conjugate under a side flip alone
    N = 7
    s2 = 0.55
    for x in (0.3, -1.8):
        lo = fundamental_kernel(N, IncrementedPoint(x, side=1, epsilon=1e-9), s2)
        hi = fundamental_kernel(N, IncrementedPoint(x, side=-1, epsilon=1e-9), -s2)
        assert abs(lo - np.conj(hi)) < 1e-6


def test_imaginary_part_variant_epsilon_limit():
    N = 4
    x, s2 = 0.9, 0.4
    vals = []
    for eps in (1e-3, 5e-4, 2.5e-4):
        p = IncrementedPoint(x, side=1, epsilon=eps)
        vals.append(fundamental_kernel(N, p, s2, variant="imaginary_part"))
    # first-order in epsilon: Richardson pair agrees with the finer value
    rich = 2 * vals[1] - vals[0]
    rich2 = 2 * vals[2] - vals[1]
    assert abs(rich - rich2) < 1e-5 * max(abs(rich2), 1.0)


def test_imaginary_part_needs_epsilon():
    with pytest.raises(ValueError):
        fundamental_kernel(3, IncrementedPoint(0.0), 0.1, variant="imaginary_part")


def test_correlations_one_point_is_kernel():
    p = IncrementedPoint(0.4, side=1, epsilon=1e-9)
    a = fundamental_correlations(5, 1, [(p, 0.7)])
    b = fundamental_kernel(5, p, 0.7)
    assert abs(a - b) < 1e-14


def test_correlations_repeated_rows_vanish():
    p = IncrementedPoint(0.4, side=1, epsilon=1e-9)
    q = IncrementedPoint(0.4, side=1, epsilon=1e-9)
    val = fundamental_correlations(4, 2, [(p, 0.2), (q, 0.2)])
    assert abs(val) < 1e-14


def test_correlations_cofactor_expansion():
    rng = np.random.default_rng(8)
    pts = [(IncrementedPoint(rng.uniform(-2, 2), side=1, epsilon=1e-9),
            rng.uniform(-2, 2)) for _ in range(2)]
    N = 4
    det = fundamental_correlations(N, 2, pts)
    k00 = fundamental_kernel(N, pts[0][0], pts[0][1])
    k01 = fundamental_kernel(N, pts[0][0], pts[1][1])
    k10 = fundamental_kernel(N, pts[1][0], pts[0][1])
    k11 = fundamental_kernel(N, pts[1][0], pts[1][1])
    assert abs(det - (k00 * k11 - k01 * k10)) < 1e-12


def test_berezinian_k1():
    assert abs(berezinian(1, [2.0], [0.5]) - 1.0 / (2.0 - 0.5j)) < 1e-14


def test_berezinian_coincident_rows_vanish():
    val = berezinian(2, [0.7, 0.7], [0.2, 1.4])
    assert abs(val) < 1e-12


def test_berezinian_forms_agree():
    rng = np.random.default_rng(4)
    for k in (2, 3):
        r1 = rng.uniform(-2, 2, k)
        r2 = rng.uniform(-2, 2, k)
        a = berezinian(k, r1, r2)
        b = berezinian_ratio(k, r1, r2)
        assert abs(a - b) / abs(b) < 1e-12


def test_functional_gaussian_pairing_is_one():
    for N in range(2, 7):
        assert abs(gaussian_pairing(N) - 1.0) < 1e-8


def test_functional_constant_jet_vanishes():
    # a constant second-slot jet has no order-(N-1) coefficient for N >= 2
    jet = np.zeros(3, dtype=complex)
    jet[0] = 1.0
    val = ingham_siegel_pair(3, [(lambda r: np.exp(-r * r), jet)], epsilon=1e-3)
    assert abs(val) == 0.0


def test_functional_insufficient_jet_rejected():
    with pytest.raises(ValueError):
        ingham_siegel_pair(4, [(lambda r: np.exp(-r * r), np.zeros(2))])


def test_functional_polynomial_gaussian_case():
    # f(r) = r e^{-r^2}, jet of e^{-a r2}: analytic half-line moments
    N, a = 3, 0.6
    jet = np.array([(-a) ** j / math.factorial(j) for j in range(N)],
                   dtype=complex)
    val = ingham_siegel_pair(N, [(lambda r: r * np.exp(-r * r), jet)])
    half = quad(lambda r: r ** (N + 1) * np.exp(-r * r), 0, np.inf)[0]
    # c_N1 = 2^0 (i 2 pi (-1)^(N-1) / (N-1)!)^1, from the docstring
    c = 2j * np.pi * (-1.0) ** (N - 1) / math.factorial(N - 1)
    expect = c * (1j ** N) * half * (-1.0) ** (N - 1) \
        * math.factorial(N - 1) * jet[N - 1]
    assert abs(val - expect) < 1e-10 * abs(expect)


def test_functional_k_from_test_data():
    # k = len(test): c_N2 = 2^-2 c_N1^2, so a two-point pairing is the
    # product of one-point pairings over 4, on any metric; the
    # 'imaginary_part' constant is c_N1 / (2i) per point
    N = 3
    f1, f2 = (lambda r: np.exp(-r * r)), (lambda r: r * np.exp(-r * r - 0.3 * r))
    jet = np.array([1.0, -0.4, 0.3], dtype=complex)
    a = ingham_siegel_pair(N, [(f1, jet)])
    b = ingham_siegel_pair(N, [(f2, jet)], metric=[-1])
    both = ingham_siegel_pair(N, [(f1, jet), (f2, jet)], metric=[1, -1])
    assert abs(both - a * b / 4) < 1e-12 * abs(both)
    im = ingham_siegel_pair(N, [(f1, jet)], variant="imaginary_part")
    assert abs(im - a / 2j) < 1e-12 * abs(im)
    with pytest.raises(ValueError):
        ingham_siegel_pair(N, [(f1, jet)], variant="bogus")


def test_functional_rebuilds_kernel():
    # the e^(-eps r) damping is exactly the increment s1 - i eps, so the
    # functional route at finite eps matches the kernel at the shifted point
    # at odd and even N alike
    s1, s2, eps = 0.8, -0.5, 0.2
    for N in range(1, 6):
        via = ingham_siegel_kernel(N, s1, s2, epsilon=eps)
        direct = fundamental_kernel(N, IncrementedPoint(s1, side=1, epsilon=eps), s2)
        assert abs(via - direct) < 1e-6 * abs(direct), N


@pytest.mark.filterwarnings("error")
def test_functional_refuses_an_undamped_integral():
    # at epsilon = 1e-6 the half-line integrals do not converge: quad's
    # warning becomes an error that names epsilon, where it used to return
    # 4.9e10 (N=2) for a kernel of about 0.5; epsilon has no default
    for N in (2, 3):
        with pytest.raises(ValueError, match="epsilon = 1e-06"):
            ingham_siegel_kernel(N, 0.7, -0.4, epsilon=1e-6)
        via = ingham_siegel_kernel(N, 0.7, -0.4, epsilon=0.2)
        direct = fundamental_kernel(N, IncrementedPoint(0.7, side=1, epsilon=0.2), -0.4)
        assert abs(via - direct) < 1e-6 * abs(direct)
    with pytest.raises(TypeError):
        ingham_siegel_kernel(2, 0.7, -0.4)


def test_hciz_single_level():
    assert abs(hciz_exact([1.3], [-0.7]) - np.exp(1j * 1.3 * -0.7)) < 1e-14


def test_hciz_unit_at_zero():
    val = hciz_exact([0.4, 1.1], [0.0 + 1e-9, -1e-9])
    assert abs(val - 1.0) < 1e-5


def test_hciz_permutation_invariance():
    E = np.array([0.3, -1.2, 0.8])
    R = np.array([1.0, 0.2, -0.5])
    a = hciz_exact(E, R)
    b = hciz_exact(E[[2, 0, 1]], R)
    assert abs(a - b) < 1e-10


def test_hciz_matches_mc():
    E = np.array([0.0, 1.0])
    R = np.array([0.0, 2.0])
    exact = hciz_exact(E, R)
    est, err = hciz_mc(E, R, 200000, seed=12)
    assert abs(est - exact) < 3 * err


def test_hciz_degenerate_matches_padded_limit():
    E = np.array([-1.0, 0.2, 0.9, 1.7])
    R2k = np.array([0.6, -1.1])
    direct = hciz_degenerate(E, R2k, 4, 1)
    vals = []
    for eta in (1e-3, 5e-4):
        Rfull = np.concatenate([R2k, [eta, 2 * eta]])
        vals.append(hciz_exact(E, Rfull))
    extrap = 2 * vals[1] - vals[0]
    assert abs(extrap - direct) < 1e-5 * abs(direct)


def test_hciz_degenerate_rejects_zero_entries():
    with pytest.raises(ValueError):
        hciz_degenerate([0.0, 1.0, 2.0], [0.0, 1.0], 3, 1)


def test_hciz_near_confluent_handled():
    E = np.array([0.5, 0.5 + 1e-10])
    R = np.array([0.1, 0.9])
    val = hciz_exact(E, R)
    ref = hciz_exact(np.array([0.5, 0.5 + 1e-4]), R)
    assert np.isfinite(val)
    assert abs(val - ref) < 1e-3 * abs(ref)


def hciz_mpmath(E, R):
    """The determinant ratio of hciz_exact in 200-digit mpmath, each sorted
    spectrum spread by 1e-60 * rank, which moves the value by about 1e-60."""
    with mp.workdps(200):
        E, R = ([mp.mpf(v) + mp.mpf(10) ** -60 * i for i, v in enumerate(sorted(s))]
                for s in (E, R))
        N = len(E)
        M = mp.matrix([[mp.exp(1j * e * r) for r in R] for e in E])

        def vandermonde(v):
            return mp.fprod([v[a] - v[b] for a in range(N) for b in range(a + 1, N)])

        pref = mp.fprod([mp.factorial(n) for n in range(1, N)])
        return complex(pref * mp.det(M) / (mp.mpc(0, 1) ** (N * (N - 1) // 2)
                                           * vandermonde(E) * vandermonde(R)))


@pytest.mark.parametrize("E,R", [
    ([0.3, 0.3, 1.2], [0.1, 0.5, 1.3]),
    ([0.1, 0.5, 1.3], [0.3, 1.2, 0.3]),
    ([-1.0, 0.2, 0.2 + 1e-12, 1.7], [0.6, -1.1, 0.3, 0.9]),
])
def test_hciz_coincident_pair_against_mpmath(E, R):
    # one coincidence, in either spectrum, spread twice and extrapolated
    ref = hciz_mpmath(E, R)
    assert abs(hciz_exact(E, R) - ref) <= 1e-7 * abs(ref)


@pytest.mark.parametrize("E,R", [
    # a pair and a third entry 2e-7 away: the spread kept a coincidence
    # and recursed without end
    ([0.0, 0.0, 2e-7], [0.1, 0.5, 1.3]),
    # three and four equal entries, where exp(0.3 i tr R) is exact: the
    # spread determinant was off by 1.2e-2 and by 3.2e5
    ([0.3, 0.3, 0.3], [0.1, 0.5, 1.3]),
    ([0.3, 0.3, 0.3, 0.3], [0.1, 0.5, 1.3, -0.7]),
    # a coincidence in both spectra: round-off of about eps / d^2
    ([0.3, 1.2, 0.3], [0.2, 0.2, -0.4]),
])
def test_hciz_refuses_clusters_it_cannot_resolve(E, R):
    with pytest.raises(ValueError, match="coincidence"):
        hciz_exact(E, R)


@pytest.mark.parametrize("E", [[0.0, 2e-8, 4e-8], [0.0, 1e-6, 2e-6]])
def test_hciz_close_distinct_triple_is_refused_or_accurate(E):
    # every gap is at least DELTA_CONF, so the plain ratio is reached; it
    # was off by 1.6 and 3.6e-4 with no refusal
    R = [0.1, 0.5, 1.3]
    ref = hciz_mpmath(E, R)
    try:
        val = hciz_exact(E, R)
    except ValueError:
        return
    assert abs(val - ref) <= 1e-8 * abs(ref)
