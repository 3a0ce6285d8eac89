"""Exterior-algebra arithmetic, conjugation, dual-pair construction, and
the ordinary/super trace identity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtcorr.grassmann import (GrassmannElement, ge_mul, ge_conjugate,
                               build_dual_pair, tr_power, verify_duality, duality_report,
                               _table, _half_powers, _trace_power, _mul, _odd)


def supertrace_power(M, m, signs):
    return _trace_power(_half_powers(_table(M), m), m, signs)


def gen(idx, ngen=6):
    return GrassmannElement.generator(ngen, idx)


def test_generators_anticommute():
    a, b = gen(0), gen(1)
    lhs = ge_mul(a, b)
    rhs = ge_mul(b, a)
    assert (lhs + rhs).max_abs_coeff() == 0.0


def test_generator_squares_to_zero():
    a = gen(0)
    assert ge_mul(a, a).max_abs_coeff() == 0.0


def test_nilquadratic_bivector_squares_add():
    one = GrassmannElement.scalar(6, 1.0)
    t12 = ge_mul(gen(0), gen(1))
    e = one + t12
    sq = ge_mul(e, e)
    expect = one + 2.0 * t12
    assert (sq - expect).max_abs_coeff() < 1e-14
    # the operators: * of two elements is ge_mul, and a number adds on the left
    assert (e * e - sq).max_abs_coeff() == 0.0
    assert (2 + t12 - (t12 + 2.0 * one)).max_abs_coeff() == 0.0


def test_conjugate_scalar():
    c = GrassmannElement.scalar(4, 2.0 - 3.0j)
    assert ge_conjugate(c).scalar_part() == 2.0 + 3.0j


def test_conjugate_reverses_and_swaps():
    # conj(theta_0 theta_1) = theta_1* theta_0* = -theta_0* theta_1*
    e = ge_mul(gen(0, 4), gen(1, 4))
    c = ge_conjugate(e)
    expect = -1.0 * ge_mul(gen(2, 4), gen(3, 4))
    assert (c - expect).max_abs_coeff() == 0.0


def test_conjugate_involution():
    rng = np.random.default_rng(3)
    e = GrassmannElement(8, {int(m): complex(*rng.standard_normal(2))
                            for m in rng.integers(0, 256, size=12)})
    back = ge_conjugate(ge_conjugate(e))
    assert (back - e).max_abs_coeff() < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1),
       st.integers(0, 2 ** 6 - 1))
def test_product_associative(m1, m2, m3):
    a = GrassmannElement(6, {m1: 0.7 + 0.2j, 0: 1.0})
    b = GrassmannElement(6, {m2: -1.3j, 1: 0.5})
    c = GrassmannElement(6, {m3: 2.0, 2: -0.25})
    lhs = ge_mul(ge_mul(a, b), c)
    rhs = ge_mul(a, ge_mul(b, c))
    assert (lhs - rhs).max_abs_coeff() < 1e-12


def merge_sign(m1, m2):
    """Koszul sign of the ordered monomials m1 * m2 (disjoint masks), one
    generator of m2 at a time: each crosses every generator of m1 above it."""
    swaps = 0
    m = m2
    while m:
        j = (m & -m).bit_length() - 1
        swaps += (m1 >> (j + 1)).bit_count()
        m &= m - 1
    return -1 if swaps & 1 else 1


def test_product_kernel_signs_every_disjoint_pair():
    # every pair of the 256 monomials at G = 8, each product into its own
    # entry: overlapping pairs vanish, disjoint ones carry the Koszul sign
    G, masks = 8, np.arange(256)
    want = {(int(a) * 256 + int(b), int(a | b)): merge_sign(int(a), int(b))
            for a in masks for b in masks if not a & b}
    assert len(want) == 3 ** G
    ones, zeros = np.ones(256, complex), np.zeros(256, np.int64)
    entry, mask, coef = _mul(G, (masks, ones), (masks, ones), zeros, zeros, masks * 256, masks)
    assert dict(zip(zip(entry.tolist(), mask.tolist()), coef.tolist())) == want
    a, b = (np.array(m) for m in zip(*((a, b) for a in masks for b in masks if not a & b)))
    assert np.array_equal(np.where(_odd(a, b), -1, 1), [merge_sign(int(x), int(y)) for x, y in zip(a, b)])


def test_mismatched_universes_rejected():
    with pytest.raises(ValueError):
        ge_mul(gen(0, 4), gen(0, 6))


def test_dual_pair_k_hermitean():
    rng = np.random.default_rng(11)
    z = [rng.standard_normal(2) + 1j * rng.standard_normal(2)]
    K, B = build_dual_pair(z, 1, 2, [1])
    for i in range(2):
        for j in range(2):
            assert (K[i][j] - ge_conjugate(K[j][i])).max_abs_coeff() < 1e-12


def test_dual_pair_b_pseudo_hermitean():
    # graded adjoint (odd blocks pick up a minus sign): B^dagger = L B L
    # with L = diag(L_1..L_k, 1..1)
    rng = np.random.default_rng(5)
    for Lsign in (1, -1):
        z = [rng.standard_normal(2) + 1j * rng.standard_normal(2)]
        K, B = build_dual_pair(z, 1, 2, [Lsign])
        Lfull = [Lsign, 1]
        for i in range(2):
            for j in range(2):
                grade = -1.0 if (i < 1) != (j < 1) else 1.0
                dag = grade * ge_conjugate(B[j][i])
                lbl = Lfull[i] * Lfull[j] * B[i][j]
                assert (dag - lbl).max_abs_coeff() < 1e-12


def test_dual_pair_entries_match_block_formulas():
    # The trace identity is blind to a sign flip of both odd blocks of B,
    # so pin every entry of K and B against its block formula.
    k, N, L = 2, 3, [1, -1]
    G = 2 * k * N
    rng = np.random.default_rng(17)
    z = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(k)]
    K, B = build_dual_pair(z, k, N, L)
    sqrtL = [1.0, 1j]
    zero = GrassmannElement(G)

    def zeta(p, n):
        return GrassmannElement.generator(G, p * N + n)

    def zetac(p, n):
        return GrassmannElement.generator(G, k * N + p * N + n)

    def check(got, want):
        assert (got - want).max_abs_coeff() <= 1e-14 * max(want.max_abs_coeff(), 1.0)

    assert len(K) == N and all(len(row) == N for row in K)
    assert len(B) == 2 * k and all(len(row) == 2 * k for row in B)
    for n in range(N):
        for m in range(N):
            scalar = sum(L[p] * z[p][n] * np.conj(z[p][m]) for p in range(k))
            pairs = sum((ge_mul(zeta(p, n), zetac(p, m)) for p in range(k)), zero)
            check(K[n][m], GrassmannElement.scalar(G, scalar) - pairs)
    for p in range(k):
        for q in range(k):
            check(B[p][q], GrassmannElement.scalar(
                G, sqrtL[p] * sqrtL[q] * np.vdot(z[p], z[q])))
            check(B[p][k + q], sum((sqrtL[p] * np.conj(z[p][n]) * zeta(q, n)
                                    for n in range(N)), zero))
            check(B[k + p][q], sum((-sqrtL[q] * z[q][n] * zetac(p, n)
                                    for n in range(N)), zero))
            check(B[k + p][k + q], -sum((ge_mul(zetac(p, n), zeta(q, n))
                                         for n in range(N)), zero))


def test_trace_identity_first_power():
    rng = np.random.default_rng(7)
    z = [rng.standard_normal(3) + 1j * rng.standard_normal(3)]
    K, B = build_dual_pair(z, 1, 3, [1])
    diff = tr_power(K, 1) - supertrace_power(B, 1, [1, -1])
    assert diff.max_abs_coeff() < 1e-12


@pytest.mark.parametrize("k,N", [(1, 2), (1, 4), (2, 2), (2, 3)])
def test_trace_identity_all_powers(k, N):
    rep, scale = duality_report(k, N, 4, seed=42)
    assert rep == verify_duality(k, N, 4, seed=42)
    assert max(rep.values()) <= 1e-13 * scale


def test_trace_identity_scaled_to_coefficients():
    # coefficients of tr K^4 reach 2.2e5 here, and the deviation 1.5e-10:
    # round-off, which an absolute 1e-10 bound called a failure
    k, N, seed = 2, 4, 108
    rep, scale = duality_report(k, N, 4, seed)
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(k)]
    K, _ = build_dual_pair(z, k, N, [int(s) for s in rng.choice([1, -1], size=k)])
    assert scale == max(tr_power(K, m).max_abs_coeff() for m in range(1, 5))
    assert scale > 1e5 and max(rep.values()) > 1e-10
    assert max(rep.values()) <= 1e-13 * scale


def chain_power_trace(M, m, signs):
    """sum_i s_i (M^m)_ii with M^m = M^(m-1) M, entry by entry through ge_mul."""
    P = M
    for _ in range(m - 1):
        P = [[sum((ge_mul(P[i][l], M[l][j]) for l in range(len(M))), GrassmannElement(M[0][0].ngen))
              for j in range(len(M))] for i in range(len(M))]
    return sum((s * P[i][i] for i, s in enumerate(signs)), GrassmannElement(M[0][0].ngen))


@pytest.mark.parametrize("k,N", [(1, 2), (2, 2), (2, 3)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_half_power_traces_equal_full_chain(k, N, seed):
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(k)]
    L = [int(s) for s in rng.choice([1, -1], size=k)]
    K, B = build_dual_pair(z, k, N, L)
    for M, signs in ((K, [1] * N), (B, [1] * k + [-1] * k)):
        for m in range(1, 5):
            want = chain_power_trace(M, m, signs)
            got = supertrace_power(M, m, signs)
            assert len(want.terms) > 0
            assert (got - want).max_abs_coeff() <= 1e-12 * want.max_abs_coeff()


def test_zero_sources_pure_odd_sector():
    K, B = build_dual_pair([np.zeros(2)], 1, 2, [1])
    for i in range(2):
        for j in range(2):
            assert abs(K[i][j].scalar_part()) == 0.0
    assert abs(B[0][0].scalar_part()) == 0.0
    diff = tr_power(K, 2) - supertrace_power(B, 2, [1, -1])
    assert diff.max_abs_coeff() < 1e-12


def test_dual_pair_refuses_sources_of_another_count_or_length():
    # k = 1 with two vectors built K from the first, and N = 2 with
    # length-3 vectors built a 2 x 2 K
    z = [np.ones(3), np.ones(3)]
    for zvals, k, N, L in ((z, 1, 3, [1]), (z, 2, 2, [1, 1]), (z[:1], 2, 3, [1, 1]),
                           ([np.ones(3), np.ones(2)], 2, 3, [1, -1])):
        with pytest.raises(ValueError, match="zvals must be"):
            build_dual_pair(zvals, k, N, L)


def test_dual_pair_refuses_a_metric_sign_and_trace_a_power_below_one():
    with pytest.raises(ValueError, match="metric must be k signs"):
        build_dual_pair([np.ones(2)], 1, 2, [2])
    K, _ = build_dual_pair([np.ones(2)], 1, 2, [1])
    with pytest.raises(ValueError, match="m must be >= 1"):
        tr_power(K, 0)


def test_generator_budget_enforced():
    with pytest.raises(ResourceWarning):
        build_dual_pair([np.ones(7), np.ones(7)], 2, 7, [1, 1])
