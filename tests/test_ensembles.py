"""Matrix densities, reduced diagonal densities, characteristic
functions with jets, and the slot expansions feeding the correlators."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmtcorr.ensembles import (EnsembleSpec, flat_gauss_norm,
                               evaluate_density, reduced_density,
                               reduced_terms, correlation_terms,
                               characteristic_invariants,
                               characteristic_function, slot_phi,
                               slot_phi_jet, jet_mul,
                               superspace_density_norm_dependent,
                               TRACE_POWER_CAP, _heat_series, _trace_power,
                               _slot_phi_poly)
from rmtcorr.mc import haar_unitary, gaussian_tiles, sample_batch


def random_hermitean(N, rng):
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return (A + A.conj().T) / 2.0


def spike_spec(N, t0=0.5):
    return EnsembleSpec.norm_dependent(N, ("spike", t0))


def table_spec(N):
    t = np.linspace(0.2, 1.4, 201)
    f = np.exp(-(t - 0.8) ** 2 / 0.02)
    f /= np.trapezoid(f, t)
    return EnsembleSpec.norm_dependent(N, (t, f))


# -- density ---------------------------------------------------------------

def test_gaussian_density_at_origin():
    for N, s in [(2, 1.0), (3, 0.7)]:
        spec = EnsembleSpec.gaussian(N, s)
        val = evaluate_density(spec, np.zeros((N, N)))
        assert abs(val - 1.0 / flat_gauss_norm(N, s)) < 1e-14


def test_density_rejects_non_hermitean():
    spec = EnsembleSpec.gaussian(2)
    with pytest.raises(ValueError):
        evaluate_density(spec, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        evaluate_density(spec, np.zeros((3, 3)))


@pytest.mark.parametrize("maker", [
    lambda: EnsembleSpec.gaussian(3, 0.8),
    lambda: spike_spec(3),
    lambda: table_spec(3),
    lambda: EnsembleSpec.higher_trace(3, 2, 2),
])
def test_density_rotation_invariant(maker):
    spec = maker()
    rng = np.random.default_rng(17)
    H = random_hermitean(3, rng)
    base = evaluate_density(spec, H)
    for seed in (1, 2, 3):
        U = haar_unitary(3, seed)
        rot = evaluate_density(spec, U @ H @ U.conj().T)
        assert abs(rot - base) < 1e-10 * abs(base)


def test_trace_power_zero_exponents_recover_gaussian():
    rng = np.random.default_rng(4)
    H = random_hermitean(2, rng)
    ref = evaluate_density(EnsembleSpec.gaussian(2, 1.0), H)
    for M1, M2 in [(0, 3), (2, 0)]:
        spec = EnsembleSpec.higher_trace(2, M1, M2)
        assert abs(evaluate_density(spec, H) - ref) < 1e-12 * abs(ref)


def test_density_normalized_n1():
    # N = 1 the matrix integral is one dimensional and checkable directly
    from scipy.integrate import quad
    for spec in (EnsembleSpec.gaussian(1, 1.3), EnsembleSpec.higher_trace(1, 2, 2)):
        total = quad(lambda x, s=spec: evaluate_density(s, np.array([[x]])),
                     -np.inf, np.inf)[0]
        assert abs(total - 1.0) < 1e-8


# -- reduced density -------------------------------------------------------

def test_reduced_gaussian_is_product():
    spec = EnsembleSpec.gaussian(4, 0.9)
    h = np.array([0.3, -1.1])
    val, err = reduced_density(spec, h, 1)
    expect = np.prod((np.pi * 0.9) ** -0.5 * np.exp(-h * h / 0.9))
    assert err == 0.0
    assert abs(val - expect) < 1e-14


def test_reduced_density_integrates_to_one():
    u, w = np.polynomial.hermite.hermgauss(40)
    specs = [EnsembleSpec.gaussian(4, 1.0), spike_spec(4),
             EnsembleSpec.higher_trace(4, 4, 1), EnsembleSpec.higher_trace(4, 2, 2)]
    for spec in specs:
        total = 0.0
        scale = 2.0  # widen the grid to cover broad spreads
        for i in range(len(u)):
            for j in range(len(u)):
                x, y = scale * u[i], scale * u[j]
                v, _ = reduced_density(spec, [x, y], 1)
                # hermgauss weight carries e^(-u^2); undo it at the nodes
                total += (w[i] * w[j] * scale * scale
                          * np.exp(u[i] ** 2 + u[j] ** 2) * v)
        assert abs(total - 1.0) < 1e-5


def test_reduced_density_requires_room():
    spec = EnsembleSpec.gaussian(2)
    with pytest.raises(ValueError):
        reduced_density(spec, [0.0, 0.0, 0.0, 0.0], 2)
    with pytest.raises(ValueError):
        reduced_density(spec, [0.0], 1)


@pytest.mark.parametrize("M1,M2,N,h", [
    (2, 1, 4, [0.5, -0.3]),
    (4, 1, 4, [0.5, -0.3]),
    (2, 2, 4, [0.5, -0.3]),
    (4, 2, 5, [0.3, -0.8, 1.2, 0.1]),
], ids=["2-1", "4-1", "2-2", "4-2-N5-k2"])
def test_reduced_closed_matches_mc(M1, M2, N, h):
    spec = EnsembleSpec.higher_trace(N, M1, M2)
    h = np.array(h)
    k = len(h) // 2
    closed, _ = reduced_density(spec, h, k)
    est, err = reduced_density(spec, h, k, method="mc", samples=50000, seed=3)
    assert abs(est - closed) < 3 * err + 1e-12


# values, full moments and term counts of the index enumeration that the
# invariant-based expansion replaced
@pytest.mark.parametrize("shape,k,h,value,moment,n_terms", [
    ((4, 4, 1), 1, [0.5, -0.3], 0.18750260466954818, 33.0, 6),
    ((4, 4, 1), 2, [0.5, -0.3, 1.1, -0.7], 0.01211062921053001, 33.0, 15),
    ((4, 3, 2), 1, [0.5, -0.3], 0.12981742663713372, 97.5, 11),
    ((4, 2, 3), 2, [0.5, -0.3, 1.1, -0.7], 0.01237756768267372, 720.0, 35),
    ((5, 4, 2), 2, [0.3, -0.8, 1.2, 0.1], 0.010685344898962473, 5564.0625, 96),
    ((4, 8, 1), 1, [0.9, -0.4], 0.09887738963057822, 1181.25, 18),
])
def test_trace_power_reduced_density_pinned(shape, k, h, value, moment, n_terms):
    spec = EnsembleSpec.higher_trace(*shape)
    got, err = reduced_density(spec, h, k)
    assert err == 0.0
    assert abs(got - value) <= 1e-13 * value
    assert abs(spec.full_moment() - moment) <= 1e-13 * moment
    terms = reduced_terms(spec, k)
    assert len(terms) == n_terms
    assert all(type(c) is float for c, _ in terms)


def reduced_density_reference(spec, h, k, samples, seed):
    """The Monte Carlo estimate of reduced_density from the raw stream,
    drawn here in chunks of up to 20,000 matrices: N*N - 2k normals a
    matrix (the free diagonal at variance 1/2, then the upper triangle's
    real parts, then its imaginary parts, at 1/4), h on the first 2k
    diagonal entries, and the weight (tr H^M1)^M2 from the eigenvalues."""
    N, (M1, M2) = spec.N, spec.trace_power
    iu, ju = np.triu_indices(N, 1)
    rng = np.random.default_rng(seed)
    vals = []
    for s in range(0, samples, 20000):
        z = rng.standard_normal((min(20000, samples - s), N * N - 2 * k))
        H = np.zeros((len(z), N, N), dtype=complex)
        H[:, range(2 * k), range(2 * k)] = h
        H[:, range(2 * k, N), range(2 * k, N)] = z[:, : N - 2 * k] * np.sqrt(0.5)
        H[:, iu, ju] = 0.5 * (z[:, N - 2 * k: N - 2 * k + len(iu)] + 1j * z[:, N - 2 * k + len(iu):])
        H[:, ju, iu] = H[:, iu, ju].conj()
        vals.append(np.sum(np.linalg.eigvalsh(H) ** M1, axis=1) ** M2)
    vals = np.concatenate(vals)
    scale = np.prod(np.pi ** -0.5 * np.exp(-h * h)) / spec.full_moment()
    return scale * np.mean(vals), scale * np.std(vals) / np.sqrt(samples)


# Monte Carlo estimates pinned from N*N - 2k normals a matrix, the fixed
# diagonal never drawn, and against the same draws through eigenvalue
# power sums; the reference draws 25,000 samples in two chunks, the
# stream that gaussian_tiles draws a tile at a time
@pytest.mark.parametrize("shape,k,h,samples,seed,value,err", [
    ((4, 4, 1), 1, [0.3, -0.5], 3000, 7, 0.18443637554791809, 0.0026139506598104423),
    ((4, 2, 2), 2, [0.3, -0.5, 0.1, 0.8], 25000, 2,
     0.028660155954249415, 0.00013230218912084593),
    ((4, 3, 2), 2, [0.4, -0.7, 0.2, 0.9], 20000, 11,
     0.007860564949377915, 0.00010712585055578336),
])
def test_reduced_density_mc_pinned(shape, k, h, samples, seed, value, err):
    spec = EnsembleSpec.higher_trace(*shape)
    got, got_err = reduced_density(spec, np.array(h), k, method="mc", samples=samples, seed=seed)
    for v, e in ((value, err), reduced_density_reference(spec, np.array(h), k, samples, seed)):
        assert abs(got - v) <= 1e-12 * v
        assert abs(got_err - e) <= 1e-10 * e


@pytest.mark.parametrize("N", [1, 2, 4, 5])
def test_trace_power_matches_eigenvalue_sums(N):
    H = np.concatenate(list(gaussian_tiles(np.random.default_rng(N), N, 500)))
    ev = np.linalg.eigvalsh(H)
    for M in range(7):
        scale = np.sum(np.abs(ev) ** M, axis=1)
        assert np.max(np.abs(_trace_power(H, M) - np.sum(ev ** M, axis=1)) / scale) < 1e-13


# closed forms above the old cap of 8 against the weighted Monte Carlo
# integral; seeds fixed in advance, z = -0.27, 1.79, 1.94 at these seeds
@pytest.mark.parametrize("N,M1,M2,h,seed", [
    (2, 10, 1, [0.2, 0.1], 5),
    (4, 6, 2, [0.5, -0.3], 2024),
    (4, 3, 4, [0.5, -0.3], 2024),
], ids=["10-1-N2", "6-2", "3-4"])
def test_reduced_density_above_8_matches_mc(N, M1, M2, h, seed):
    spec = EnsembleSpec.higher_trace(N, M1, M2)
    closed, err0 = reduced_density(spec, h, 1)
    est, err = reduced_density(spec, h, 1, method="mc", samples=200000, seed=seed)
    assert err0 == 0.0
    assert abs(est - closed) < 4 * err


# -- slot expansions -------------------------------------------------------

def test_correlation_terms_match_reduced_for_even_families():
    for spec in (EnsembleSpec.gaussian(3, 0.7), spike_spec(3)):
        assert correlation_terms(spec, 1) == reduced_terms(spec, 1)


def test_correlation_terms_even_sector_agrees_with_marginal():
    # for even M1 the trace-power marginal is even in each slot and the
    # graded expansion reduces to it
    for N, h in [(4, [0.4, -0.9]), (4, [0.4, -0.9, 0.2, 1.3]),
                 (12, [0.4, -0.9]), (12, [0.4, -0.9, 0.2, 1.3])]:
        spec = EnsembleSpec.higher_trace(N, 2, 2)
        h = np.array(h)
        k = len(h) // 2
        marg = sum(c * np.prod([(np.pi * v) ** -0.5 * np.exp(-x * x / v) * x ** m
                                for x, (v, m) in zip(h, slots)])
                   for c, slots in reduced_terms(spec, k))
        grad = sum(c * np.prod([(np.pi * v) ** -0.5 * np.exp(-x * x / v) * x ** m
                                for x, (v, m) in zip(h, slots)])
                   for c, slots in correlation_terms(spec, k))
        assert abs(np.imag(grad)) < 1e-12
        assert abs(np.real(grad) - marg) < 1e-12


def _harer_zagier(N, k):
    """E tr H^(2k) under exp(-tr H^2) from the Harer-Zagier recursion
    (k+2) C_(k+1) = (4k+2) N C_k + k (4k^2-1) C_(k-1), C_0 = N, C_1 = N^2,
    for unit-variance entries; here E|H_ab|^2 = 1/2, hence the 2^-k."""
    c = [N, N * N]
    for j in range(1, k):
        num = (4 * j + 2) * N * c[j] + j * (4 * j * j - 1) * c[j - 1]
        assert num % (j + 2) == 0
        c.append(num // (j + 2))
    return c[k] / 2 ** k


def test_characteristic_invariants_constant_is_full_moment():
    # independent references: E tr H^4 = (2N^3 + N)/4, E tr H^12 from the
    # Harer-Zagier recursion, and tr H^2 is Gamma(N^2/2, 1) distributed
    # under exp(-tr H^2), so E (tr H^2)^M2 = Gamma(N^2/2 + M2) / Gamma(N^2/2)
    cases = [(4, 4, 1, (2 * 4 ** 3 + 4) / 4), (12, 4, 1, (2 * 12 ** 3 + 12) / 4)]
    assert all(_harer_zagier(N, 2) == ref for N, _, _, ref in cases)
    cases += [(N, 2 * k, 1, _harer_zagier(N, k)) for k in range(1, 7) for N in range(1, 9)]
    for N, M2 in [(4, 3), (12, 4), (16, 4), (4, 6), (6, 6)]:
        cases.append((N, 2, M2, math.prod(N * N / 2 + j for j in range(M2))))
    for N, M1, M2, ref in cases:
        spec = EnsembleSpec.higher_trace(N, M1, M2)
        inv = characteristic_invariants(spec)
        assert abs(inv[()] - ref) <= 1e-13 * ref
        assert abs(spec.full_moment() - ref) <= 1e-13 * ref


def _enumerated_invariants(N, M1, M2):
    """characteristic_invariants by Wick's theorem, independently of the
    heat series: each of the 2^(M1*M2) H/S choices of the binomial
    expansion contracted on its own, E[H_ab H_cd] = d_ad d_bc / 2."""
    raw = {}

    def contract(words, pref):
        for wi, wrd in enumerate(words):
            if "H" in wrd:
                break
        else:
            key = tuple(sorted(len(w) for w in words))
            raw[key] = raw.get(key, 0.0) + pref
            return
        w = list(words[wi])
        hpos = w.index("H")
        w = w[hpos + 1:] + w[:hpos]
        rest = [words[j] for j in range(len(words)) if j != wi]
        for p, ch in enumerate(w):
            if ch == "H":
                contract(tuple([tuple(w[:p]), tuple(w[p + 1:])] + rest), pref * 0.5)
        for rj, r in enumerate(rest):
            rl = list(r)
            for p, ch in enumerate(rl):
                if ch == "H":
                    merged = tuple(w + rl[p + 1:] + rl[:p])
                    others = [rest[j] for j in range(len(rest)) if j != rj]
                    contract(tuple([merged] + others), pref * 0.5)

    choices = list(itertools.product("HS", repeat=M1))
    for combo in itertools.product(choices, repeat=M2):
        contract(tuple(combo), 1.0)
    res = {}
    for lens, c in raw.items():
        coef = complex(c)
        js = []
        for L in lens:
            if L == 0:
                coef *= N
            else:
                coef *= (0.5j) ** L
                js.append(L)
        k2 = tuple(sorted(js))
        res[k2] = res.get(k2, 0.0) + coef
    return res


@pytest.mark.parametrize("M1,M2", [(4, 1), (4, 2), (2, 4), (8, 1), (3, 2),
                                   (0, 5), (5, 0), (1, 4), (6, 2)])
def test_characteristic_invariants_equal_enumeration(M1, M2):
    # every contribution is an integer times a power of 1/2, so the heat
    # series and the enumeration agree to the bit; the enumeration of a
    # degree-12 shape takes seconds, so it runs at one N
    for N in (5,) if M1 * M2 == 12 else (1, 3, 4, 7):
        spec = EnsembleSpec.higher_trace(N, M1, M2)
        assert characteristic_invariants(spec) == _enumerated_invariants(N, M1, M2)


def _partitions(n, most):
    """The partitions of n into parts of at most most, largest part first."""
    if n == 0:
        yield ()
    for m in range(min(n, most), 0, -1):
        for rest in _partitions(n - m, m):
            yield (m,) + rest


def test_heat_series_homogeneity():
    # for f homogeneous of degree d, integrating sum_ab d/dH_ab (H_ab f
    # exp(-tr H^2)) by parts gives E[tr H^2 f] = (N^2 + d)/2 E[f], an
    # identity the cut-and-join rule does not encode; every constant term
    # is a dyadic rational far below 2^53, so it holds to the bit
    cases = 0
    for N in range(1, 8):
        for d in range(11):
            for lam in _partitions(d, d):
                moment = _heat_series(lam, N).get((), 0.0)
                assert _heat_series(lam + (2,), N).get((), 0.0) == (N * N + d) / 2 * moment
                cases += 1
    assert cases == 973


def test_trace_power_cap_enforced():
    assert TRACE_POWER_CAP == 12
    # M1*M2 = 13 is odd times odd, a weight of both signs: refused at
    # construction
    for M1, M2 in [(13, 1), (1, 13)]:
        with pytest.raises(ValueError, match="nonnegative weight"):
            EnsembleSpec.higher_trace(4, M1, M2)
    H = np.diag([0.3, -0.2, 0.5, 1.0])
    for M1, M2 in [(14, 1), (7, 2), (2, 7)]:
        spec = EnsembleSpec.higher_trace(4, M1, M2)
        calls = [lambda: characteristic_invariants(spec), spec.full_moment,
                 spec.normalization_b, lambda: evaluate_density(spec, H),
                 lambda: reduced_density(spec, [0.2, 0.1], 1),
                 lambda: reduced_density(spec, [0.2, 0.1], 1, method="mc",
                                         samples=1000),
                 lambda: reduced_terms(spec, 1), lambda: correlation_terms(spec, 2),
                 lambda: characteristic_function(spec, [0.3], 4)]
        for call in calls:
            with pytest.raises(ValueError, match=rf"M1\*M2 = {M1 * M2} exceeds cap 12"):
                call()


# -- characteristic function ----------------------------------------------

@pytest.mark.parametrize("maker", [
    lambda: EnsembleSpec.gaussian(3, 1.0),
    lambda: spike_spec(3),
    lambda: table_spec(3),
    lambda: EnsembleSpec.higher_trace(3, 4, 1),
    lambda: EnsembleSpec.higher_trace(3, 3, 2),
])
def test_characteristic_function_unit_at_zero(maker):
    spec = maker()
    val, jets = characteristic_function(spec, [0.0], 2)
    assert abs(val - 1.0) < 1e-12
    assert abs(jets[0][0] - 1.0) < 1e-12


def test_characteristic_gaussian_value():
    spec = EnsembleSpec.gaussian(5, 1.0)
    val, _ = characteristic_function(spec, [2.0], 0)
    assert abs(val - np.exp(-1.0)) < 1e-14


def test_characteristic_spike_is_rescaled_gaussian():
    t0 = 0.5
    spec = spike_spec(4, t0)
    for r in (0.7, 1.9):
        val, _ = characteristic_function(spec, [r], 0)
        assert abs(val - np.exp(-2 * t0 * r * r / 4.0)) < 1e-13


def fd_stencils(h):
    """Seven-point finite-difference stencils for derivatives 1 to 4."""
    return {
        1: np.array([0, 1, -8, 0, 8, -1, 0]) / (12 * h),
        2: np.array([0, -1, 16, -30, 16, -1, 0]) / (12 * h * h),
        3: np.array([1, -8, 13, 0, -13, 8, -1]) / (8 * h ** 3),
        4: np.array([-1, 12, -39, 56, -39, 12, -1]) / (6 * h ** 4),
    }


def test_characteristic_jets_match_finite_differences():
    # oracle: marginal transform assembled from the separable slot terms,
    # differentiated numerically in the second-slot source
    order = 4
    h = 1e-2
    for spec in (EnsembleSpec.gaussian(3, 0.8),
                 EnsembleSpec.higher_trace(3, 2, 2),
                 EnsembleSpec.higher_trace(4, 4, 1)):
        terms = reduced_terms(spec, 1)

        def phi(r1, t):
            return sum(c * slot_phi(v0, m0, r1) * slot_phi(v1, m1, t)
                       for c, ((v0, m0), (v1, m1)) in terms)

        r1 = 0.6
        val, jets = characteristic_function(spec, [r1], order)
        assert abs(val - phi(r1, 0.0)) < 1e-10
        samples = np.array([phi(r1, j * h) for j in range(-3, 4)])
        for n, sten in fd_stencils(h).items():
            num = np.dot(sten, samples)
            got = jets[0][n] * math.factorial(n)
            assert abs(got - num) < 1e-6 * max(1.0, abs(num))


@pytest.mark.parametrize("maker", [
    lambda: EnsembleSpec.gaussian(4, 0.8),
    lambda: spike_spec(4),
    lambda: table_spec(4),
    lambda: EnsembleSpec.higher_trace(4, 2, 2),
    lambda: EnsembleSpec.higher_trace(4, 4, 1),
    lambda: EnsembleSpec.higher_trace(4, 3, 2),
], ids=["gauss-0.8", "spike", "table", "tp22", "tp41", "tp32"])
def test_characteristic_function_k2_matches_slot_oracle(maker):
    # oracle: the reduced_terms expansion transformed slot by slot; each
    # second-slot jet is differentiated numerically with the other
    # second-slot source at 0
    spec = maker()
    terms = reduced_terms(spec, 2)
    r1 = [0.6, -0.3]

    def phi(t):
        return sum(c * np.prod([slot_phi(v, m, r) for (v, m), r in zip(slots, r1 + t)])
                   for c, slots in terms)

    order, h = 4, 1e-2
    val, jets = characteristic_function(spec, r1, order)
    assert abs(val - phi([0.0, 0.0])) < 1e-10
    for p in range(2):
        samples = np.array([phi([j * h if q == p else 0.0 for q in range(2)])
                            for j in range(-3, 4)])
        assert abs(jets[p][0] - val) < 1e-12
        for n, sten in fd_stencils(h).items():
            num = np.dot(sten, samples)
            got = jets[p][n] * math.factorial(n)
            assert abs(got - num) < 1e-6 * max(1.0, abs(num))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 5), st.floats(0.3, 3.0))
def test_slot_phi_jet_leading_coefficient(m, v):
    jet = slot_phi_jet(v, m, 6)
    assert abs(jet[0] - slot_phi(v, m, np.array(0.0))) < 1e-12


@settings(max_examples=30, deadline=None)
@given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_jet_mul_matches_polynomial_product(a, b):
    p = np.array([1.0, a, b], dtype=complex)
    q = np.array([b, 1.0, a], dtype=complex)
    full = np.convolve(p, q)
    got = jet_mul(p, q, 4)
    assert np.max(np.abs(got - full[:5])) < 1e-12


def jet_mul_loop(a, b, order):
    """The truncated product as a loop over the orders of a."""
    out = np.zeros(order + 1, dtype=complex)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        hi = min(len(b), order + 1 - i)
        out[i: i + hi] += ai * np.asarray(b[:hi], dtype=complex)
    return out


def test_jet_mul_matches_loop():
    # the same products added in the same order: equal to the last bit,
    # for real and complex a, zeros in a, and a or b cut by the order
    rng = np.random.default_rng(11)
    for trial in range(400):
        na, nb, order = rng.integers(0, 40), rng.integers(1, 40), rng.integers(0, 45)
        a = rng.standard_normal(na) * 10.0 ** rng.integers(-6, 6, na)
        if trial % 2:
            a = a + 1j * rng.standard_normal(na)
        a[rng.random(na) < 0.2] = 0
        b = (rng.standard_normal(nb) + 1j * rng.standard_normal(nb)) * 10.0 ** rng.integers(-6, 6, nb)
        assert np.array_equal(jet_mul(a, b, order), jet_mul_loop(a, b, order))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.floats(0.02, 3.0), st.floats(-3.0, 3.0))
def test_slot_phi_poly_matches_slot_phi(m, v, r):
    a = _slot_phi_poly(v, m)
    got = np.polynomial.polynomial.polyval(r, a) * np.exp(-v * r * r / 4.0)
    ref = slot_phi(v, m, np.array(r))
    assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_slot_phi_jet_order_cap():
    with pytest.raises(ValueError):
        slot_phi_jet(1.0, 0, 100)


# -- construction and serialization ---------------------------------------

def test_callable_spread_evaluated_only_at_construction():
    calls = []

    def f(t):
        calls.append(t)
        return math.exp(-(t - 0.8) ** 2 / 0.02) / math.sqrt(0.02 * math.pi)

    for spread in ((f, (0.2, 1.4)), f):
        spec = EnsembleSpec.norm_dependent(4, spread)
        built = len(calls)
        assert built >= 256
        reduced_terms(spec, 1)
        reduced_density(spec, [0.2, 0.1], 1)
        with pytest.raises(ValueError, match="needs a trace-power spec"):
            reduced_density(spec, [0.2, 0.1], 1, method="mc", samples=1000)
        characteristic_function(spec, [0.3], 4)
        evaluate_density(spec, np.eye(4))
        sample_batch(spec, 10, seed=1)
        superspace_density_norm_dependent(spec, [0.1, 0.2])
        assert len(calls) == built
        del calls[:]

@pytest.mark.parametrize("maker", [
    lambda: EnsembleSpec.gaussian(4, 0.7), lambda: spike_spec(4), lambda: table_spec(4),
    lambda: EnsembleSpec.higher_trace(4, 0, 2), lambda: EnsembleSpec.higher_trace(4, 2, 0),
], ids=["gauss-0.7", "spike", "table", "tp02", "tp20"])
def test_reduced_density_mc_refuses_gaussian_mixtures(maker):
    # a mixture's reduced density is its closed form; a Monte Carlo label
    # on it would check nothing
    with pytest.raises(ValueError, match="needs a trace-power spec"):
        reduced_density(maker(), [0.2, 0.1], 1, method="mc", samples=1000)


def test_constructor_validation():
    with pytest.raises(ValueError):
        EnsembleSpec.gaussian(0)
    with pytest.raises(ValueError):
        EnsembleSpec.gaussian(2, -1.0)
    with pytest.raises(ValueError):
        EnsembleSpec(2, "bogus")
    with pytest.raises(ValueError):
        EnsembleSpec.higher_trace(3, 1, 1)
    with pytest.raises(ValueError):
        EnsembleSpec.higher_trace(3, 3, 3)
    with pytest.raises(ValueError):
        t = np.linspace(0.2, 1.0, 50)
        EnsembleSpec.norm_dependent(3, (t, np.ones_like(t)))


def test_non_integer_dimension_and_powers_refused():
    # int() would truncate these to N = 4, M1 = 4
    with pytest.raises(ValueError, match="not an integer"):
        EnsembleSpec.higher_trace(4, 4.5, 1)
    with pytest.raises(ValueError, match="not an integer"):
        EnsembleSpec.gaussian(3.5)
    for cfg in ({"N": 3.5, "family": "gaussian"},
                {"N": 4.7, "family": "higher_trace", "M1": 4.9, "M2": 1},
                {"N": 4, "family": "higher_trace", "M1": 4, "M2": 1.5}):
        with pytest.raises(ValueError, match="not an integer"):
            EnsembleSpec.from_json(json.dumps(cfg))
    assert EnsembleSpec.from_json('{"N": 4.0, "family": "higher_trace", "M1": 4, "M2": 1}').N == 4


def test_table_spread_must_be_increasing_and_matched():
    # unsorted, the trapezoid weights are 0.5, 0.5, 0 (sum 1), but the
    # sorted table integrates to 0.75
    with pytest.raises(ValueError, match="strictly increasing"):
        EnsembleSpec.norm_dependent(4, ([0.4, 1.2, 0.8], [1.25, 2.5, 0.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        EnsembleSpec.norm_dependent(4, ([0.4, 0.4, 1.4], [1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="strictly increasing"):
        EnsembleSpec.norm_dependent(4, ([0.5, 1.5], [1.0, 1.0, 1.0]))


def normal_density(mu, sigma):
    return lambda t: math.exp(-(t - mu) ** 2 / (2 * sigma ** 2)) / (sigma * math.sqrt(2 * math.pi))


def test_spread_reaching_nonpositive_t_refused():
    # each node is a Gaussian of variance 2t; at t <= 0 every route gave nan
    t = np.linspace(-0.5, 2.0, 51)
    f = np.exp(-(t - 0.8) ** 2 / 0.1)
    for spread in ((normal_density(0.8, 1.0), (-0.7, 2.3)),
                   (t, f / np.trapezoid(f, t)),
                   ("spike", -0.4), ("spike", 0.0)):
        with pytest.raises(ValueError, match="t > 0"):
            EnsembleSpec.norm_dependent(5, spread)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_spec_parameters_refused(bad):
    # a nan passes every comparison test (scale <= 0, t <= 0, |total - 1|)
    with pytest.raises(ValueError, match="positive and finite"):
        EnsembleSpec.gaussian(4, bad)
    with pytest.raises(ValueError, match="nan or inf"):
        EnsembleSpec(4, "gaussian", scale=bad)
    with pytest.raises(ValueError, match="nan or inf"):
        EnsembleSpec.norm_dependent(4, ("spike", bad))
    with pytest.raises(ValueError, match="nan or inf"):
        EnsembleSpec.norm_dependent(4, ([0.2, 0.6, bad], [1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="nan or inf"):
        EnsembleSpec.norm_dependent(4, ([0.5, 1.0, 1.5], [1.0, bad, 1.0]))
    with pytest.raises(ValueError, match="nan or inf"):
        EnsembleSpec.norm_dependent(4, (lambda t: bad if t > 0.9 else 1.0, (0.5, 1.5)))
    with pytest.raises(ValueError, match="nan or inf"):
        EnsembleSpec.norm_dependent(4, (lambda t: 1.0, (0.5, bad)))
    with pytest.raises(ValueError, match="positive and finite"):
        EnsembleSpec.from_json(json.dumps({"N": 4, "family": "gaussian", "scale": bad}))


def test_negative_spread_weights_refused():
    # integrates to 1, but f < 0 on t > 0.958: Monte Carlo clipped those
    # weights to 0 while the closed forms used them
    with pytest.raises(ValueError, match="nonnegative"):
        EnsembleSpec.norm_dependent(4, (lambda t: 3.8333 - 4 * t, (0.25, 1.0)))
    with pytest.raises(ValueError, match="nonnegative"):
        EnsembleSpec.norm_dependent(4, ([0.5, 1.0, 1.5], [1.5, -0.25, 0.75]))
    spec = EnsembleSpec.norm_dependent(4, (lambda t: (1.0 - t) / 0.28125, (0.25, 1.0)))
    assert np.all(spec.spread_nodes[1] >= 0)


def test_bare_callable_spread_away_from_unit_interval():
    f = normal_density(3.0, 0.1)
    with pytest.raises(ValueError, match=r"support search found no mass.*\(f, \(lo, hi\)\)"):
        EnsembleSpec.norm_dependent(4, f)
    spec = EnsembleSpec.norm_dependent(4, (f, (2.0, 4.0)))
    assert abs(np.sum(spec.spread_nodes[1]) - 1.0) < 1e-12


def test_serialization_roundtrip():
    specs = [EnsembleSpec.gaussian(4, 0.75), spike_spec(3, 0.4),
             table_spec(2), EnsembleSpec.higher_trace(4, 4, 1)]
    for spec in specs:
        back = EnsembleSpec.from_json(spec.to_json())
        assert back.N == spec.N and back.family == spec.family
        h = np.array([0.3, -0.2])
        a, _ = reduced_density(spec, h, 1)
        b, _ = reduced_density(back, h, 1)
        assert abs(a - b) < 1e-12
    # a bounded callable spread is a callable, not a table
    spec = EnsembleSpec.norm_dependent(4, (lambda t: 1.0, (0.25, 1.25)))
    with pytest.raises(ValueError, match="not serializable"):
        spec.to_json()


def test_from_json_rejects_numeric_b():
    # the trace-power normalization is only derived; "auto" stays readable
    cfg = {"N": 4, "family": "higher_trace", "M1": 4, "M2": 1, "b": 0.3}
    with pytest.raises(ValueError, match="derived"):
        EnsembleSpec.from_json(json.dumps(cfg))
    spec = EnsembleSpec.from_json(json.dumps(dict(cfg, b="auto")))
    assert "b" not in json.loads(spec.to_json())
    assert spec.normalization_b() == EnsembleSpec.higher_trace(4, 4, 1).normalization_b()


# -- superspace density ----------------------------------------------------

def test_superspace_spike_value():
    t0 = 0.5
    spec = spike_spec(4, t0)
    s = np.array([0.3, -0.8, 0.1, 0.6])
    got = superspace_density_norm_dependent(spec, s)
    expect = 2.0 ** (2 * 1) * np.exp(-np.sum(s * s) / (2 * t0))
    assert abs(got - expect) < 1e-12


def test_superspace_value_at_origin():
    spec = table_spec(4)
    got = superspace_density_norm_dependent(spec, np.zeros(4))
    assert abs(got - 2.0 ** 2) < 1e-6
    # the Gaussian is the one-node mixture; a trace-power weight has no
    # superspace density here
    assert superspace_density_norm_dependent(EnsembleSpec.gaussian(2), [0.0, 0.0]) == 1.0
    with pytest.raises(ValueError):
        superspace_density_norm_dependent(EnsembleSpec.higher_trace(4, 4, 1), np.zeros(2))
