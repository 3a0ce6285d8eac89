"""Correlation evaluation paths: cross-method agreement, exact
eigenvalue-space oracles, symmetries, generating function, and the
time-domain transform."""

import collections
import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from rmtcorr import engine, special
from rmtcorr.ensembles import EnsembleSpec, correlation_terms
from rmtcorr.engine import (CorrelationRequest, evaluate, factorized_kernel,
                            generating_function_value, time_domain_transform)
from rmtcorr.kernels import IncrementedPoint
from rmtcorr.special import SQRT_PI, gauss_moments


def r1(spec, x, method, variant="R", side=1):
    req = CorrelationRequest(
        spec, 1, [IncrementedPoint(x, side=side)], variant, method)
    return evaluate(req).value


def r2(spec, x, y, method, variant="R", sides=(1, 1)):
    pts = [IncrementedPoint(x, side=sides[0]), IncrementedPoint(y, side=sides[1])]
    req = CorrelationRequest(spec, 2, pts, variant, method)
    return evaluate(req).value


def oracle_r1(weight_power, N, x, M1=None, M2=None):
    """Eigenvalue-representation density by product Gauss-Hermite grids:
    R1(x) = N e^(-x^2) E[Delta^2(x, rest) w(rest, x)] / Z."""
    u, w = np.polynomial.hermite.hermgauss(40)
    rest = N - 1
    grids = np.meshgrid(*([u] * rest), indexing="ij")
    lam = np.stack([g.ravel() for g in grids], axis=1)
    wt = np.ones(lam.shape[0])
    for j in range(rest):
        wt *= w[np.searchsorted(u, lam[:, j])]

    def vandermonde_sq(pts):
        d = 1.0
        for a in range(pts.shape[1]):
            for b in range(a + 1, pts.shape[1]):
                d = d * (pts[:, a] - pts[:, b]) ** 2
        return d

    full = np.concatenate([np.full((lam.shape[0], 1), x), lam], axis=1)
    num = vandermonde_sq(full)
    if weight_power:
        num = num * (x ** M1 + np.sum(lam ** M1, axis=1)) ** M2
    num = float(np.sum(wt * num)) * np.exp(-x * x)

    gz = np.meshgrid(*([u] * N), indexing="ij")
    lz = np.stack([g.ravel() for g in gz], axis=1)
    wz = np.ones(lz.shape[0])
    for j in range(N):
        wz *= w[np.searchsorted(u, lz[:, j])]
    den = vandermonde_sq(lz)
    if weight_power:
        den = den * np.sum(lz ** M1, axis=1) ** M2
    den = float(np.sum(wz * den))
    return N * num / den


# -- cross-method agreement ------------------------------------------------

GAUSS_METHODS = ("convolution", "eigenvalue_integral", "factorized",
                 "closed_form_gue", "closed_form_higher_trace")


@pytest.mark.parametrize("scale", [1.0, 0.7])
def test_gaussian_methods_agree(scale):
    spec = EnsembleSpec.gaussian(4, scale)
    for x in (-1.3, 0.0, 0.9):
        ref = r1(spec, x, "convolution", "Rhat")
        for method in GAUSS_METHODS[1:]:
            got = r1(spec, x, method, "Rhat")
            assert abs(got - ref) < 1e-5 * max(abs(ref), 1.0)


def test_spike_methods_agree():
    spec = EnsembleSpec.norm_dependent(4, ("spike", 0.4))
    for x in (-0.8, 0.5):
        a = r1(spec, x, "convolution", "Rhat")
        b = r1(spec, x, "eigenvalue_integral", "Rhat")
        c = r1(spec, x, "factorized", "Rhat")
        d = r1(spec, x, "closed_form_gue", "Rhat")
        assert abs(a - b) < 1e-8 * max(abs(a), 1.0)
        assert abs(a - c) < 1e-8 * max(abs(a), 1.0)
        assert abs(a - d) < 1e-8 * max(abs(a), 1.0)


@pytest.mark.parametrize("M1,M2", [(4, 1), (2, 2), (3, 2)])
def test_trace_power_methods_agree(M1, M2):
    spec = EnsembleSpec.higher_trace(4, M1, M2)
    for x in (-1.1, 0.4):
        a = r1(spec, x, "convolution", "Rhat")
        b = r1(spec, x, "eigenvalue_integral", "Rhat")
        c = r1(spec, x, "closed_form_higher_trace", "Rhat")
        assert abs(a - b) < 1e-8 * max(abs(a), 1.0)
        assert abs(a - c) < 1e-8 * max(abs(a), 1.0)


# applicable routes per spec
ROUTES = {
    "g4": GAUSS_METHODS,
    "g4s07": GAUSS_METHODS,
    "spike": GAUSS_METHODS,
    "table": ("convolution", "eigenvalue_integral", "closed_form_gue",
              "closed_form_higher_trace"),
    "callable": ("convolution", "eigenvalue_integral", "closed_form_gue",
                 "closed_form_higher_trace"),
    # a constant trace-power weight: the Gaussian written as a trace power
    "tp02": GAUSS_METHODS,
    "tp41": ("convolution", "eigenvalue_integral", "closed_form_higher_trace"),
    # at the trace-power cap, M1*M2 = 12; the k = 2 expansions have 322
    # and 335 terms
    "tp121": ("convolution", "eigenvalue_integral", "closed_form_higher_trace"),
    "tp34": ("convolution", "eigenvalue_integral", "closed_form_higher_trace"),
}
METRIC_CASES = [((0.7,), "+"), ((0.7,), "-"), ((-1.2,), "-")] + [
    ((0.4, -0.9), metric) for metric in ("++", "+-", "-+", "--")]


def spread_density(t):
    return np.exp(-(t - 0.8) ** 2 / 0.02) / np.sqrt(0.02 * np.pi)


def spread_table(n):
    t = np.linspace(0.2, 1.4, n)
    f = spread_density(t)
    return t, f / np.trapezoid(f, t)


@pytest.fixture(scope="module")
def route_specs():
    return {"g4": EnsembleSpec.gaussian(4), "g4s07": EnsembleSpec.gaussian(4, 0.7),
            "spike": EnsembleSpec.norm_dependent(4, ("spike", 0.4)),
            "table": EnsembleSpec.norm_dependent(4, spread_table(101)),
            "callable": EnsembleSpec.norm_dependent(5, (spread_density, (0.2, 1.4))),
            "tp41": EnsembleSpec.higher_trace(4, 4, 1),
            "tp02": EnsembleSpec.higher_trace(4, 0, 2),
            "tp121": EnsembleSpec.higher_trace(4, 12, 1),
            "tp34": EnsembleSpec.higher_trace(4, 3, 4)}


@pytest.mark.parametrize("variant", ["Rhat", "R"])
@pytest.mark.parametrize("name", list(ROUTES))
def test_routes_agree_on_every_metric(route_specs, name, variant):
    for xs, metric in METRIC_CASES:
        pts = [IncrementedPoint(x, side=1 if s == "+" else -1)
               for x, s in zip(xs, metric)]
        vals = {m: evaluate(CorrelationRequest(route_specs[name], len(xs), pts,
                                               variant, m)).value
                for m in ROUTES[name]}
        ref = vals["convolution"]
        for m, val in vals.items():
            assert abs(val - ref) <= 1e-8 * max(abs(ref), 1.0), (m, xs, metric)


def test_gaussian_written_as_spike_gives_one_answer():
    # gaussian(4, 0.8) and the spike spread at t = 0.4 are one ensemble:
    # every route and every density gives one answer, bit for bit
    from rmtcorr.ensembles import (evaluate_density, reduced_terms,
                                   superspace_density_norm_dependent)
    from rmtcorr.mc import sample_batch
    gauss = EnsembleSpec.gaussian(4, 0.8)
    spike = EnsembleSpec.norm_dependent(4, ("spike", 0.4))
    for method in engine.METHODS:
        for variant in ("Rhat", "R"):
            for xs, metric in METRIC_CASES:
                pts = [IncrementedPoint(x, side=1 if s == "+" else -1)
                       for x, s in zip(xs, metric)]
                a, b = (evaluate(CorrelationRequest(spec, len(xs), pts, variant, method)).value
                        for spec in (gauss, spike))
                assert a == b, (method, variant, xs, metric)
    H = np.diag([0.3, -0.5, 1.1, 0.2]) + 0.1
    assert evaluate_density(gauss, H) == evaluate_density(spike, H)
    assert reduced_terms(gauss, 2) == reduced_terms(spike, 2)
    ga, sp = sample_batch(gauss, 300, 5), sample_batch(spike, 300, 5)
    assert np.array_equal(ga.eigenvalues, sp.eigenvalues)
    assert np.array_equal(ga.weights, sp.weights)
    s = [0.3, -0.8, 0.1, 0.6]
    assert superspace_density_norm_dependent(gauss, s) \
        == superspace_density_norm_dependent(spike, s)


def test_closed_form_higher_trace_on_table_spread_matches_gue():
    spec = EnsembleSpec.norm_dependent(4, spread_table(101))
    for variant in ("Rhat", "R"):
        for xs, metric in METRIC_CASES:
            pts = [IncrementedPoint(x, side=1 if s == "+" else -1)
                   for x, s in zip(xs, metric)]
            a, b = (evaluate(CorrelationRequest(spec, len(xs), pts, variant, method)).value
                    for method in ("closed_form_higher_trace", "closed_form_gue"))
            assert abs(a - b) <= 1e-13 * max(abs(b), 1.0), (variant, xs, metric)


@pytest.fixture(scope="module")
def n6_specs():
    return {"g6": EnsembleSpec.gaussian(6), "tp41": EnsembleSpec.higher_trace(6, 4, 1),
            "spike": EnsembleSpec.norm_dependent(6, ("spike", 0.4))}


@pytest.mark.parametrize("xs, metric, variant", [
    ((0.7,), "+", "R"), ((-1.2,), "-", "R"),
    ((0.4, -0.9), "++", "R"), ((0.4, -0.9), "+-", "R"),
    ((0.4, -0.9), "-+", "R"), ((0.4, -0.9), "--", "R"),
    ((0.4, -0.9, 1.3), "+++", "Rhat"), ((0.4, -0.9, 1.3), "+-+", "Rhat"),
    ((0.4, -0.9, 1.3), "--+", "R"), ((-0.3, 0.8, -1.6), "-+-", "R")])
@pytest.mark.parametrize("name", ["g6", "tp41", "spike"])
def test_eigenvalue_integral_r_and_k3_match_convolution(n6_specs, name, xs, metric, variant):
    pts = [IncrementedPoint(x, side=1 if s == "+" else -1) for x, s in zip(xs, metric)]
    a, b = (evaluate(CorrelationRequest(n6_specs[name], len(xs), pts, variant, m)).value
            for m in ("convolution", "eigenvalue_integral"))
    assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)
    if variant == "R":
        assert b.imag == 0.0


def test_k2_methods_agree():
    spec = EnsembleSpec.gaussian(4)
    for (x, y) in [(-0.7, 0.6), (0.2, 1.4)]:
        a = r2(spec, x, y, "convolution", "Rhat")
        b = r2(spec, x, y, "eigenvalue_integral", "Rhat")
        c = r2(spec, x, y, "closed_form_gue", "Rhat")
        assert abs(a - b) < 1e-7 * max(abs(a), 1.0)
        assert abs(a - c) < 1e-7 * max(abs(a), 1.0)


# -- exact oracles ---------------------------------------------------------

def test_gaussian_r1_against_eigenvalue_oracle():
    for N in (2, 3):
        spec = EnsembleSpec.gaussian(N)
        for x in (0.0, 0.8, -1.5):
            ref = oracle_r1(False, N, x)
            got = float(np.real(r1(spec, x, "convolution", "R")))
            assert abs(got - ref) < 1e-10 * max(abs(ref), 1.0)


def test_trace_power_r1_against_eigenvalue_oracle():
    for (N, M1, M2) in [(3, 4, 1), (3, 2, 2), (3, 12, 1), (3, 3, 4)]:
        spec = EnsembleSpec.higher_trace(N, M1, M2)
        for x in (0.0, 0.8, -1.5):
            ref = oracle_r1(True, N, x, M1, M2)
            got = float(np.real(r1(spec, x, "closed_form_higher_trace", "R")))
            assert abs(got - ref) < 1e-9 * max(abs(ref), 1.0)


def test_trace_power_41_reference_values():
    spec = EnsembleSpec.higher_trace(4, 4, 1)
    refs = {0.0: 0.801405658449, 0.7: 0.848490091572,
            1.2: 0.670338659289, 2.0: 0.676126166688}
    for x, ref in refs.items():
        got = float(np.real(r1(spec, x, "closed_form_higher_trace", "R")))
        assert abs(got - ref) < 1e-9


def test_r1_integrates_to_n():
    xs = np.linspace(-8, 8, 801)
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 2, 2)):
        method = ("closed_form_gue" if spec.family == "gaussian"
                  else "closed_form_higher_trace")
        vals = np.array([float(np.real(r1(spec, x, method, "R"))) for x in xs])
        total = np.trapezoid(vals, xs)
        assert abs(total - spec.N) < 1e-6


# -- factors against mpmath ------------------------------------------------

def mp_row_r(N, x, v, m):
    """Im row_n of the L = +1 side, (-1)^n (1/n!) d^n/dx^n of
    (pi v)^(-1/2) x^m e^(-x^2/v), from mpmath's Hermite polynomials."""
    with mp.workdps(50):
        v = mp.mpf(v)
        u = mp.mpf(x) / mp.sqrt(v)
        e = mp.exp(-u * u)
        out = []
        for n in range(N):
            d = sum(mp.binomial(m, j) * u ** (m - j) * (-1) ** (n - j) * mp.hermite(n - j, u)
                    / mp.factorial(n - j) for j in range(min(m, n) + 1))
            out.append(float((-1) ** n * (mp.pi * v) ** -0.5 * v ** (mp.mpf(m - n) / 2) * d * e))
        return np.array(out)


@pytest.mark.parametrize("N", [6, 32, 48])
@pytest.mark.parametrize("x", [0.7, -3.1, 5.5, -7.4, 9.0, -12.0])
def test_row_r_against_mpmath(N, x):
    # bulk and tail for each N (the spectrum edge is sqrt(2N) at v = 1);
    # errors are measured on the scale of the neighbouring orders, since
    # a row entry next to a zero of H_n has no relative accuracy; the end
    # orders have one neighbour each (edge padding, no wrap-around)
    cases = [(1.0, 0, 1e-13), (0.7, 2, 1e-13), (1.0, 3, 1e-13)]
    if N <= 32:
        # the trace-power cap's top moment, M1 M2 = 12, by twelve Leibniz
        # steps (a binomial Leibniz sum over the tower misses 1e-12 at N = 32)
        cases += [(0.7, 12, 1e-12), (1.0, 12, 1e-12)]
    for v, m, tol in cases:
        ref = mp_row_r(N, x, v, m)
        a = np.pad(np.abs(ref), 1, mode="edge")
        scale = np.max([a[:-2], a[1:-1], a[2:]], axis=0)
        got = engine._row_r(N, x, v, (m,))[0]
        assert np.all(np.abs(got - ref) <= tol * scale), (v, m)


def col_exact_loop(N, x, v, m):
    """The binomial moment column as a double loop over n and j."""
    g = gauss_moments(N - 1 + m).tolist()
    out = np.empty(N, dtype=complex)
    for n in range(N):
        acc = 0j
        for j in range(n + 1):
            acc += math.comb(n, j) * x ** (n - j) * (-1j) ** j * v ** ((m + j) / 2.0) * g[m + j]
        out[n] = acc / SQRT_PI
    return out


@pytest.mark.parametrize("N", [1, 2, 6, 32, 48])
def test_col_exact_matches_binomial_loop(N):
    # same terms summed in the same order: equal to the last bit
    for x, v, m in ((0.0, 1.0, 0), (0.7, 1.0, 0), (-3.3, 0.8, 1), (9.1, 2.0, 3)):
        assert np.array_equal(engine._col_exact(N, x, v, (m,))[0], col_exact_loop(N, x, v, m))


def mp_col(N, x, v, m):
    """The moment column as a 60-digit binomial sum over Gaussian moments."""
    with mp.workdps(60):
        x, sv = mp.mpf(x), mp.sqrt(mp.mpf(v))
        g = [mp.sqrt(mp.pi), mp.mpf(0)]
        for e in range(2, N + m):
            g.append(g[e - 2] * (e - 1) / 2)
        gv = [sv ** e * g[e] / mp.sqrt(mp.pi) for e in range(N + m)]
        xp = [x ** e for e in range(N)]
        out = []
        for n in range(N):
            # (-i)^j splits the terms with m + j even into real and imaginary parts
            parts = [mp.mpf(0), mp.mpf(0)]
            for j in range(m % 2, n + 1, 2):
                parts[j % 2] += (-1) ** ((j + 1) // 2) * math.comb(n, j) * xp[n - j] * gv[m + j]
            out.append(complex(parts[0], parts[1]))
    return np.array(out)


COL_CASES = ((1.0, 0), (0.7, 1), (2.0, 2), (1.0, 3), (1.0, 8))


@pytest.mark.parametrize("N", [1, 6, 32, 64, 128])
@pytest.mark.parametrize("x", [0.0, 0.7, -3.3, 9.1])
def test_col_rec_against_mpmath(N, x):
    # errors on the scale of the neighbouring orders, as for the rows; the
    # odd-in-b part (imaginary for even m, real for odd m) is exactly 0
    for v, m in COL_CASES:
        ref = mp_col(N, x, v, m)
        scale = np.abs(ref)
        scale[1:] = np.maximum(scale[1:], np.abs(ref[:-1]))
        scale[:-1] = np.maximum(scale[:-1], np.abs(ref[1:]))
        got = engine._col_rec(N, x, v, (m,))[0]
        assert np.all(np.abs(got - ref) <= 2e-14 * scale), (v, m)
        keep, odd = (np.real, np.imag) if m % 2 == 0 else (np.imag, np.real)
        assert np.all(odd(got) == 0.0), (v, m)


def test_col_rec_keeps_its_own_recurrence(monkeypatch):
    # the convolution columns stay independent of the closed-form
    # routes' columns and of every special-function tower
    def refuse(*args):
        raise AssertionError("shared factor")

    for module, name in ((engine, "_col_exact"), (engine, "_osc_tower"),
                         (special, "_osc_tower"), (special, "hermite_poly"),
                         (engine, "gauss_moment_cauchy"), (special, "gauss_moment_cauchy")):
        monkeypatch.setattr(module, name, refuse)
    for v, m in COL_CASES:
        assert np.all(np.isfinite(engine._col_rec(32, 7.4, v, (m,))))


def test_convolution_matches_closed_form_gue_at_large_N():
    # bulk, edge (sqrt(2N) = 16) and past it: exact columns leave only
    # the round-off of the rows and the determinant sum
    spec = EnsembleSpec.gaussian(128)
    for x in (0.3, -7.9, 12.32, -16.0, 17.6):
        ref = r1(spec, x, "closed_form_gue")
        assert abs(r1(spec, x, "convolution") - ref) <= 1e-13, x


def test_convolution_far_tail_density_matches_closed_form():
    # Im Rhat past the edge is a density of 1e-12 to 1e-20: the recurrence
    # columns carry no odd-in-b round-off into it
    spec = EnsembleSpec.gaussian(6)
    for x in (6.6, 7.3, 8.0):
        got = r1(spec, x, "convolution", "Rhat").imag
        ref = r1(spec, x, "closed_form_gue", "Rhat").imag
        assert abs(got - ref) <= 1e-13 * abs(ref), x


def test_row_r_keeps_its_own_recurrence(monkeypatch):
    # the R rows are an independent check of the oscillator route
    def refuse(*args):
        raise AssertionError("shared factor")

    monkeypatch.setattr(engine, "_osc_tower", refuse)
    monkeypatch.setattr(special, "_osc_tower", refuse)
    monkeypatch.setattr(special, "hermite_poly", refuse)
    assert np.all(np.isfinite(engine._row_r(32, 7.4, 1.0, (2,))))


# -- moment families ---------------------------------------------------------

# each route's (Rhat row, R row) and column factor functions
ROUTE_FACTORS = {
    "convolution": ((engine._row_rhat, engine._row_r), engine._col_rec),
    "closed_form_higher_trace": ((engine._row_rhat, engine._row_r), engine._col_exact),
    "eigenvalue_integral": ((engine._halfline_vec, engine._halfline_im), engine._jet_vec),
    "closed_form_gue": ((engine._row_osc_hat, engine._row_osc), engine._col_osc)}
FAMILY_GRID = np.array([-7.3, -1.2, 0.0, 0.7, 2.9, 7.3])


def slot_families(spec, k):
    """The (v, ms) families of correlation_terms(spec, k), one per slot
    and variance: ms are the sorted moments the slot takes."""
    fams = {}
    for _, slots in correlation_terms(spec, k):
        for s, (v, m) in enumerate(slots):
            fams.setdefault((s, v), set()).add(m)
    return {(v, tuple(sorted(ms))) for (_, v), ms in fams.items()}


@pytest.mark.parametrize("M1, M2", [(4, 1), (3, 2), (4, 2)])
def test_factor_family_members_equal_single_factors(M1, M2):
    # one stack per slot point and variance: its member i is the factor of
    # the one moment ms[i], bit for bit, at a point and on a grid
    N = 5
    families = slot_families(EnsembleSpec.higher_trace(N, M1, M2), 1) \
        | slot_families(EnsembleSpec.higher_trace(N, M1, M2), 2)
    assert max(len(ms) for _, ms in families) >= 3
    factors = (engine._row_rhat, engine._row_r, engine._halfline_vec,
               engine._col_rec, engine._col_exact, engine._jet_vec)
    for x in (0.7, FAMILY_GRID):
        for v, ms in families:
            for f in factors:
                stack = f(N, x, v, ms)
                assert stack.shape == (len(ms),) + np.shape(x) + (N,), f.__name__
                for i, m in enumerate(ms):
                    assert np.array_equal(stack[i], f(N, x, v, (m,))[0]), (f.__name__, m)
        # the oscillator factors exist for m = 0 only
        for f in (engine._row_osc_hat, engine._row_osc, engine._col_osc):
            assert f(N, x, 0.8, (0,)).shape == (1,) + np.shape(x) + (N,)


class CountedFloat(float):
    """A float that counts the == comparisons made on it."""

    eqs = 0
    __hash__ = float.__hash__

    def __eq__(self, other):
        CountedFloat.eqs += 1
        return float.__eq__(self, other)


def test_layout_finds_term_indices_by_hash():
    # the (6, 2) k=2 term list, every variance a fresh object: the index
    # arrays equal a scan of each slot's stacked families, and the layout
    # compares (v, m) keys a bounded number of times per term and slot,
    # where a scan or a per-term pass over the slot takes some T^2
    terms = correlation_terms(EnsembleSpec.higher_trace(5, 6, 2), 2)
    counted = [(c, [(CountedFloat(v), m) for v, m in slots]) for c, slots in terms]
    CountedFloat.eqs = 0
    coefs, fams, index = engine._layout(counted)
    assert CountedFloat.eqs <= 4 * len(terms) * len(index), CountedFloat.eqs
    for s, (families, idx) in enumerate(zip(fams, index)):
        order = [(v, m) for v, ms in families for m in ms]
        scan = [order.index(slots[s]) for _, slots in terms]
        assert np.array_equal(np.arange(len(terms))[idx], scan)
    assert np.array_equal(coefs, [c for c, _ in terms]) and len(terms) > 300


def test_layout_indexes_each_term_slot(monkeypatch):
    # every term finds its own (v, m) in each slot's stacked families, in
    # term lists from the specs and in one whose terms take a slot's
    # members out of their sorted order; a spec builds one layout per k
    lists = [correlation_terms(EnsembleSpec.higher_trace(4, M1, M2), k)
             for M1, M2 in ((4, 1), (3, 2)) for k in (1, 2)]
    lists.append([(1.0, [(1.0, 2), (0.5, 0)]), (2.0, [(1.0, 0), (0.5, 0)])])
    for terms in lists:
        coefs, fams, index = engine._layout(terms)
        assert coefs.tolist() == [c for c, _ in terms]
        for s, (families, idx) in enumerate(zip(fams, index)):
            stacked = [(v, m) for v, ms in families for m in ms]
            assert len(set(stacked)) == len(stacked)
            assert [tuple(stacked[i]) for i in np.arange(len(terms))[idx]] \
                == [tuple(slots[s]) for _, slots in terms]
    calls = collections.Counter()
    layout = engine._layout
    monkeypatch.setattr(engine, "_layout", lambda terms: calls.update([len(terms)]) or layout(terms))
    spec = EnsembleSpec.higher_trace(4, 4, 1)
    for method in ROUTES["tp41"]:
        for variant in ("Rhat", "R"):
            r1(spec, 0.3, method, variant)
            r2(spec, 0.4, -0.9, method, variant)
    assert calls == {6: 1, 15: 1}


def reference_sum(spec, k, xs, sides, variant, method):
    """The route's value summed one term at a time from single-moment
    factors: coef det[sum_n row_p(n) col_q(n)] per term, the L = -1 rows
    conjugated (Rhat) or negated (R)."""
    (rhat, r), col = ROUTE_FACTORS[method]
    row = rhat if variant == "Rhat" else r
    flip = np.conj if variant == "Rhat" else np.negative
    N, total = spec.N, 0.0
    for coef, slots in correlation_terms(spec, k):
        rows = [row(N, xs[p], slots[p][0], slots[p][1:])[0] for p in range(k)]
        R = np.stack([f if L == 1 else flip(f) for f, L in zip(rows, sides)], axis=-2)
        C = np.stack([col(N, xs[q], slots[k + q][0], slots[k + q][1:])[0]
                      for q in range(k)], axis=-2)
        total = total + coef * np.linalg.det(R @ C.swapaxes(-1, -2))
    return total.real + 0j if variant == "R" else total


@pytest.mark.parametrize("name", ["tp41", "tp32", "two_node"])
def test_evaluate_matches_term_by_term_reference(name):
    # the cached layout indexes every term's rows and columns from the
    # family stacks: its value is the plain sum over the terms
    spec = {"tp41": EnsembleSpec.higher_trace(4, 4, 1), "tp32": EnsembleSpec.higher_trace(4, 3, 2),
            "two_node": EnsembleSpec.norm_dependent(4, ([0.3, 0.9], [1 / 0.6, 1 / 0.6]))}[name]
    methods = ROUTES["table"] if name == "two_node" else ROUTES["tp41"]
    grid = np.linspace(-2.1, 1.7, 5)
    cases = {1: ([(0.7,), (-1.2,)], grid[:, None]),
             2: ([(0.4, -0.9), (0.3, 0.3)], np.array([(a, b) for a in grid for b in grid]))}
    checked = 0
    for method in methods:
        for variant in ("Rhat", "R"):
            for k, (pts, table) in cases.items():
                for sides in itertools.product((1, -1), repeat=k):
                    for pt in pts:
                        got = evaluate(CorrelationRequest(
                            spec, k, [IncrementedPoint(x, s) for x, s in zip(pt, sides)],
                            variant, method)).value
                        ref = reference_sum(spec, k, pt, sides, variant, method)
                        assert abs(got - ref) <= 1e-13 * abs(ref) + 1e-15, (method, variant, pt)
                    got = engine.evaluate_grid(spec, k, table, variant, method, sides).value
                    ref = reference_sum(spec, k, list(table.T), sides, variant, method)
                    bound = 1e-13 * np.max(np.abs(ref)) + 1e-15
                    assert np.max(np.abs(got - ref)) <= bound, (method, variant, sides)
                    checked += 1
    assert checked == len(methods) * 2 * 6


# -- determinants ------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_permutation_sum_is_the_determinant(k):
    M = np.random.default_rng(k).normal(size=(50, k, k, 2)) @ [1, 1j]
    got = engine._permutation_sum([[M[:, p, q] for q in range(k)] for p in range(k)])
    assert got.shape == (50,)
    assert np.max(np.abs(got - np.linalg.det(M))) <= 1e-13


def test_gaussian_three_points_are_the_kernel_determinant():
    # R_3 = prod L_p det[K_N(x_p, x_q)] with the density kernel and Rhat_3
    # = det[K^_N(x_p, x_q)], row p conjugated where L_p = -1, at scale
    # v = the slot variance: K(x_p / sqrt v, x_q / sqrt v) / sqrt v
    N, sides = 6, (1, -1, 1)
    spec = EnsembleSpec.gaussian(N)
    s = math.sqrt(correlation_terms(spec, 3)[0][1][0][0])
    pts = np.array([(0.3, -1.1, 2.0), (0.3, 0.3, -0.4), (-2.5, 1.7, 0.9), (3.6, -0.2, 1.1)])
    refs = {}
    for variant, kernel in (("R", "imaginary_part"), ("Rhat", "full")):
        u = pts / s
        K = special.gue_kernel(N, u[:, :, None], u[:, None, :], variant=kernel) / s
        K = np.where(np.array(sides)[:, None] == 1, K, K.conj())
        refs[variant] = np.linalg.det(K) * (np.prod(sides) if variant == "R" else 1)
    for method in GAUSS_METHODS:
        for variant, ref in refs.items():
            got = [evaluate(CorrelationRequest(
                spec, 3, [IncrementedPoint(x, L) for x, L in zip(pt, sides)], variant,
                method)).value for pt in pts]
            grid = engine.evaluate_grid(spec, 3, pts, variant, method, sides).value
            # (the convolution and Fourier Rhat values are off by up to 1e-13 at x = 3.6)
            for val in (np.array(got), grid):
                assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref)), (method, variant)


def test_engine_takes_no_lapack_determinant(monkeypatch):
    def refuse(*args):
        raise AssertionError("np.linalg.det called")
    monkeypatch.setattr(np.linalg, "det", refuse)
    specs = {"g": (EnsembleSpec.gaussian(4), GAUSS_METHODS),
             "tp41": (EnsembleSpec.higher_trace(4, 4, 1), ROUTES["tp41"])}
    for spec, methods in specs.values():
        for method in methods:
            for variant in ("Rhat", "R"):
                for k in (1, 2, 3):
                    pts = np.array([(0.3, -1.1, 0.8), (0.5, 0.5, -0.2)])[:, :k]
                    evaluate(CorrelationRequest(spec, k, list(pts[0]), variant, method))
                    engine.evaluate_grid(spec, k, pts, variant, method)
    generating_function_value(EnsembleSpec.gaussian(4), 1, 0.3, 1e-3)


# -- symmetries ------------------------------------------------------------

def test_rhat_side_flip_conjugates():
    specs = [EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 4, 1)]
    for spec in specs:
        for x in (0.3, -1.2):
            up = r1(spec, x, "convolution", "Rhat", side=1)
            dn = r1(spec, x, "convolution", "Rhat", side=-1)
            assert abs(up - np.conj(dn)) < 1e-8
    spec = EnsembleSpec.gaussian(4)
    a = r2(spec, 0.4, -0.9, "convolution", "Rhat", sides=(1, 1))
    b = r2(spec, 0.4, -0.9, "convolution", "Rhat", sides=(-1, -1))
    assert abs(a - np.conj(b)) < 1e-8


SIDE_GRID = np.array([-9.0, -6.6, -1.2, 0.0, 0.7, 2.9, 6.5, 7.3])
SIDE_PAIRS = np.array([(0.4, -0.9), (0.3, 0.3), (-7.3, 2.0), (6.6, 6.6)])


def sided_values(spec, k, table, variant, method, sides):
    """A route's values at the rows of table on the given sides: one
    evaluate per row, then one evaluate_grid."""
    pts = [evaluate(CorrelationRequest(
        spec, k, [IncrementedPoint(x, L) for x, L in zip(row, sides)], variant, method)).value
        for row in table]
    return np.array(pts), engine.evaluate_grid(spec, k, table, variant, method, sides).value


@pytest.mark.parametrize("name", list(ROUTES))
def test_side_rule_on_every_route(route_specs, name):
    # the L = -1 side mirrors the L = +1 side to the last bit, points and
    # grids, bulk and past CAUCHY_ASYMP: at k = 1 for the Gaussians and the
    # spike (real columns) Rhat conjugates and R changes sign; at k = 2 R
    # under the metric (s1, s2) is s1 s2 R(+, +) for every spec
    spec = route_specs[name]
    for method in ROUTES[name]:
        if name in ("g4", "g4s07", "spike"):
            for variant, flip in (("Rhat", np.conj), ("R", np.negative)):
                up = sided_values(spec, 1, SIDE_GRID[:, None], variant, method, (1,))
                down = sided_values(spec, 1, SIDE_GRID[:, None], variant, method, (-1,))
                for u, d in zip(up, down):
                    assert np.array_equal(d, flip(u)), (method, variant)
        ref = sided_values(spec, 2, SIDE_PAIRS, "R", method, (1, 1))
        for metric in ((1, -1), (-1, 1), (-1, -1)):
            got = sided_values(spec, 2, SIDE_PAIRS, "R", method, metric)
            for g, r in zip(got, ref):
                assert np.array_equal(g, metric[0] * metric[1] * r), (method, metric)


def test_k2_permutation_symmetric():
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 2, 2)):
        a = r2(spec, 0.3, -1.1, "convolution", "R")
        b = r2(spec, -1.1, 0.3, "convolution", "R")
        assert abs(a - b) < 1e-10 * max(abs(a), 1.0)


def test_r1_nonnegative():
    for spec in (EnsembleSpec.gaussian(5), EnsembleSpec.higher_trace(4, 4, 1)):
        method = ("closed_form_gue" if spec.family == "gaussian"
                  else "closed_form_higher_trace")
        for x in np.linspace(-3, 3, 25):
            req = CorrelationRequest(spec, 1, [IncrementedPoint(x)], "R", method)
            res = evaluate(req)
            assert float(np.real(res.value)) > -max(res.error_estimate, 1e-12)


def test_coincident_points_handled():
    spec = EnsembleSpec.gaussian(4)
    req = CorrelationRequest(spec, 2,
                             [IncrementedPoint(0.5), IncrementedPoint(0.5)],
                             "R", "closed_form_gue")
    res = evaluate(req)
    # the two-level density vanishes at coincident arguments, taken
    # directly: the result records no special case
    assert res.metadata == {"path": "oscillator-determinant"}
    assert abs(res.value) < 1e-12
    near = r2(spec, 0.5, 0.5 + 1e-4, "closed_form_gue", "R")
    assert abs(res.value - near) < 1e-3


COINCIDENT_CASES = [("g6", 0.4), ("g6", -1.7), ("g32", 0.4), ("g32", 3.1),
                    ("tp41", 0.4), ("spike", -0.8)]


@pytest.mark.parametrize("variant", ["Rhat", "R"])
@pytest.mark.parametrize("name, x", COINCIDENT_CASES)
def test_coincident_points_vanish_on_every_route(route_specs, name, x, variant):
    specs = route_specs | {"g6": EnsembleSpec.gaussian(6), "g32": EnsembleSpec.gaussian(32)}
    for method in ROUTES.get(name, GAUSS_METHODS):
        for metric in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            pts = [IncrementedPoint(x, side=s) for s in metric]
            res = evaluate(CorrelationRequest(specs[name], 2, pts, variant, method))
            assert abs(res.value) <= 1e-12, (method, metric)
            assert res.error_estimate == 0.0


# Values pinned from earlier versions of each route: convolution's from
# the per-call Gauss-Hermite rules it used before its rules were cached,
# the other routes' from their hand-written determinant loops.
REFERENCE_VALUES = [
    ("convolution", "g6", (0.7,), "+", "Rhat", 0.2700769305451727 + 1.0749775666115515j),
    ("convolution", "tp41", (0.7,), "+", "Rhat", 0.2399533629149673 + 0.848490091571944j),
    ("convolution", "g6", (0.4, -0.9), "++", "Rhat",
     -1.0359616707387982 - 0.2350525765790151j),
    ("convolution", "tp41", (0.4, -0.9), "++", "Rhat",
     -0.43758785776629866 - 0.2157660694695603j),
    ("convolution", "tp41", (0.4, -0.9), "++", "R", 0.663789413915169),
    ("convolution", "tp41", (0.4, 0.4), "++", "Rhat", 0.0),
    ("eigenvalue_integral", "g6", (0.7,), "+", "Rhat",
     0.2700769305451725 + 1.0749775666115515j),
    ("eigenvalue_integral", "tp41", (0.4, -0.9), "++", "Rhat",
     -0.4375878577662988 - 0.21576606946956042j),
    ("factorized", "g6", (0.7,), "+", "R", 1.0749775666115515),
    ("factorized", "g6", (0.4, -0.9), "++", "Rhat",
     -1.0359616707387982 - 0.23505257657901524j),
    ("closed_form_gue", "g6", (0.7,), "+", "Rhat", 0.2700769305451728 + 1.0749775666115517j),
    ("closed_form_gue", "g6", (0.4, -0.9), "++", "R", 1.1036391132202306),
    ("closed_form_higher_trace", "tp41", (0.7,), "+", "R", 0.8484900915719441),
    ("closed_form_higher_trace", "tp41", (0.4, -0.9), "++", "Rhat",
     -0.43758785776629905 - 0.21576606946956031j),
    ("closed_form_higher_trace", "g6", (0.4, -0.9), "++", "R", 1.10363911322023),
]


@pytest.fixture(scope="module")
def reference_specs():
    return {"g6": EnsembleSpec.gaussian(6), "tp41": EnsembleSpec.higher_trace(4, 4, 1)}


def reference_result(specs, method, name, xs, metric, variant, ref):
    pts = [IncrementedPoint(x, side=1 if s == "+" else -1) for x, s in zip(xs, metric)]
    res = evaluate(CorrelationRequest(specs[name], len(xs), pts, variant, method))
    assert abs(res.value - ref) <= 1e-13 * abs(ref) + 1e-14
    return res


@pytest.mark.parametrize("name, xs, metric, variant, ref",
                         [r[1:] for r in REFERENCE_VALUES if r[0] == "convolution"])
def test_convolution_reference_values(reference_specs, name, xs, metric, variant, ref):
    res = reference_result(reference_specs, "convolution", name, xs, metric, variant, ref)
    assert res.error_estimate == 0.0
    # the diagonal point is taken directly, with no extra metadata
    assert res.metadata == {"path": "moment-recurrence"}


@pytest.mark.parametrize("method, name, xs, metric, variant, ref",
                         [r for r in REFERENCE_VALUES if r[0] != "convolution"])
def test_route_reference_values(reference_specs, method, name, xs, metric, variant, ref):
    res = reference_result(reference_specs, method, name, xs, metric, variant, ref)
    assert res.error_estimate == 0.0


def test_closed_form_gue_builds_one_hat_tower_per_point(monkeypatch):
    # every metric reads the L = +1 rows: the first builds one tower per
    # point, and the others read its stacks from the point factor cache
    calls = collections.Counter()
    tower = engine._osc_hat_tower

    def counting(nmax, x):
        calls[float(x)] += 1
        return tower(nmax, x)

    monkeypatch.setattr(engine, "_osc_hat_tower", counting)
    engine._point_factors.cache_clear()
    built = {0.4: 1, -0.9: 1}
    for metric in ((1, 1), (1, -1), (-1, -1)):
        calls.clear()
        r2(EnsembleSpec.gaussian(6), 0.4, -0.9, "closed_form_gue", "Rhat", metric)
        assert calls == built, metric
        built = {}


@pytest.mark.parametrize("N", [2, 6, 32, 64])
def test_closed_form_gue_density_of_rhat_is_r(N):
    # Im phi^_n = phi_n to the bit, so Im Rhat_1 is R_1, at a point and on a
    # grid, on either side.  From N = 32 the complex and the real dot sum
    # their N products in different orders: the two agree to round-off.
    # At N = 64, x = 28 and 30, e^(-x^2) underflows and the density does not
    cases = [(28.0,), (30.0,)] if N == 64 else grid_cases(N)[1]
    spec = EnsembleSpec.gaussian(N)
    for side in (1, -1):
        rhat = engine.evaluate_grid(spec, 1, cases, "Rhat", "closed_form_gue", (side,)).value
        r = engine.evaluate_grid(spec, 1, cases, "R", "closed_form_gue", (side,)).value
        points = np.array([[r1(spec, x, "closed_form_gue", variant, side) for (x,) in cases]
                           for variant in ("Rhat", "R")])
        assert np.array_equal(points, [rhat, r])
        if N <= 6:
            assert np.array_equal(rhat.imag, r.real)
        else:
            assert np.all(r.real != 0.0)
            assert np.all(np.abs(rhat.imag - r.real) <= 1e-15 * np.abs(r.real))


@pytest.mark.parametrize("spec", [EnsembleSpec.gaussian(4, 0.02),
                                  EnsembleSpec.norm_dependent(4, ("spike", 0.01))])
def test_closed_form_gue_refuses_overflowing_companion_tower(spec):
    # x / sqrt(v) = 38.9: exp(x^2/2) in the companion tower is not finite
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="overflows"):
        r1(spec, 5.5, "closed_form_gue", "Rhat")
    assert r1(spec, 5.5, "closed_form_gue", "R") == 0.0


# -- the point factor cache --------------------------------------------------

def same_bits(a, b):
    """a and b equal, with equal signs on the real and imaginary parts."""
    return a == b and all(np.signbit(getattr(a, part)) == np.signbit(getattr(b, part))
                          for part in ("real", "imag"))


def point_value(spec, k, pt, sides, variant, method):
    """evaluate's value at one point, or its refusal."""
    try:
        return evaluate(CorrelationRequest(
            spec, k, [IncrementedPoint(x, s) for x, s in zip(pt, sides)], variant, method)).value
    except ValueError as e:
        return str(e)


@pytest.mark.parametrize("N", [2, 6, 32])
def test_warm_factor_cache_gives_cold_values(N):
    # every route, variant and metric on the grid cases and x = -0.0: a
    # value read from cached stacks, in any order, is the value built from
    # an empty cache to the bit and the sign of each zero; the factors at
    # -0.0 and 0.0 compare equal but differ in the signs of their zeros
    specs = {"g": EnsembleSpec.gaussian(N),
             "spike": EnsembleSpec.norm_dependent(N, ("spike", 0.4)),
             "tp41": EnsembleSpec.higher_trace(N, 4, 1)}
    cases = grid_cases(N)
    cases[1].append((-0.0,))
    cases[2] += [(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]
    rng = np.random.default_rng(N)
    hits = 0
    for spec in specs.values():
        requests = [(k, pt, sides, variant, method) for method in engine.METHODS
                    for variant in ("Rhat", "R") for k, pts in cases.items()
                    for sides in itertools.product((1, -1), repeat=k) for pt in pts]
        cold = []
        for req in requests:
            engine._point_factors.cache_clear()
            cold.append(point_value(spec, *req))
        engine._point_factors.cache_clear()
        for i in rng.permutation(len(requests)):
            warm = point_value(spec, *requests[i])
            if isinstance(warm, str):
                assert warm == cold[i], requests[i]
            else:
                assert same_bits(warm, cold[i]), (requests[i], warm, cold[i])
        hits += engine._point_factors.cache_info().hits
    assert hits > 0


def test_point_factor_cache_is_bounded_read_only_and_point_only():
    spec = EnsembleSpec.higher_trace(6, 4, 1)
    for method in ROUTES["tp41"]:
        for variant in ("Rhat", "R"):
            r2(spec, 0.4, -0.9, method, variant)
    _, fams, _ = engine._spec_layout(spec, 2)
    for f in (engine._row_rhat, engine._row_r, engine._col_rec, engine._col_exact,
              engine._halfline_vec, engine._halfline_im, engine._jet_vec):
        for x in (0.4, -0.9):
            misses = engine._point_factors.cache_info().misses
            stack = engine._factors(f, 6, x, fams[0])
            assert engine._point_factors.cache_info().misses == misses, f.__name__
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[...] = 0
    # the stacks at 0.0 and -0.0 compare equal but differ in the signs of
    # their zeros: each point reads its own
    factors = [f for (rhat, r), col in ROUTE_FACTORS.values() for f in (rhat, r, col)]
    for f in factors:
        for x in (0.0, -0.0, 0.0):
            stack, fresh = engine._factors(f, 6, x, ((0.5, (0,)),)), f(6, x, 0.5, (0,))
            assert np.array_equal(stack, fresh), f.__name__
            for part in (np.real, np.imag):
                assert np.array_equal(np.signbit(part(stack)), np.signbit(part(fresh))), \
                    (f.__name__, x)
    assert any(np.signbit(f(6, -0.0, 0.5, (0,)).real).any() for f in factors)
    # more distinct points than the bound: the cache keeps its bound
    bound = engine._FACTOR_CACHE
    info = engine._point_factors.cache_info()
    assert info.maxsize == bound and info.currsize <= bound
    g = EnsembleSpec.gaussian(2)
    for x in np.linspace(-3.0, 3.0, bound + 40):
        r1(g, float(x), "closed_form_gue", "Rhat")
    assert engine._point_factors.cache_info().currsize == bound
    # a grid neither reads nor adds an entry
    engine._point_factors.cache_clear()
    for method in engine.METHODS:
        for k, pts in grid_cases(6).items():
            engine.evaluate_grid(EnsembleSpec.gaussian(6), k, pts, "Rhat", method)
    info = engine._point_factors.cache_info()
    assert info.currsize == info.hits == info.misses == 0


# -- whole grids ------------------------------------------------------------

def grid_cases(N):
    """Bulk, edge, far-tail (past CAUCHY_ASYMP and the edge) and
    coincident points at k = 1 and 2."""
    edge = math.sqrt(2 * N)
    xs = [0.0, 0.3, -1.1, edge, -edge, edge + 3, 7.3, -9.0, 13.0]
    pairs = [(0.3, -1.1), (0.3, 0.3), (edge, -0.5), (7.3, 7.3), (-9.0, 2.0),
             (edge + 3, edge + 3)]
    return {1: [(x,) for x in xs], 2: pairs}


@pytest.mark.parametrize("N", [1, 2, 6, 32])
def test_evaluate_grid_matches_points(N):
    # every route on the specs it takes, both variants, k = 1 and 2 on
    # every metric: one grid call gives each point's evaluate value, and
    # refuses where a point is refused
    specs = {"g": (EnsembleSpec.gaussian(N), GAUSS_METHODS),
             "g07": (EnsembleSpec.gaussian(N, 0.7), GAUSS_METHODS),
             "spike": (EnsembleSpec.norm_dependent(N, ("spike", 0.4)), GAUSS_METHODS),
             "tp41": (EnsembleSpec.higher_trace(N, 4, 1), ROUTES["tp41"])}
    checked = 0
    for spec, methods in specs.values():
        for method in methods:
            for variant in ("Rhat", "R"):
                for k, pts in grid_cases(N).items():
                    for sides in itertools.product((1, -1), repeat=k):
                        try:
                            ref = np.array([evaluate(CorrelationRequest(
                                spec, k, [IncrementedPoint(x, s) for x, s in zip(pt, sides)],
                                variant, method)).value for pt in pts])
                        except ValueError as e:
                            with pytest.raises(ValueError, match=str(e)[:20]):
                                engine.evaluate_grid(spec, k, pts, variant, method, sides)
                            continue
                        res = engine.evaluate_grid(spec, k, pts, variant, method, sides)
                        assert res.value.shape == (len(pts),) and res.value.dtype == complex
                        if variant == "R":
                            assert not res.value.imag.any()
                        bound = 1e-13 * np.max(np.abs(ref)) + 1e-15
                        assert np.max(np.abs(res.value - ref)) <= bound, (method, variant, sides)
                        checked += 1
    assert checked > 200


@pytest.mark.parametrize("order", [1, -1])
def test_evaluate_grid_sums_terms_as_points(order):
    # at the trace-power (4,1) N=32 tail the term sum cancels to its
    # round-off (terms up to 6e32, eigenvalue_integral Rhat -1.6e16 at
    # (11, 11)): a grid equals its points to the bit, in either term order,
    # only if each row sums its terms by the same dot as a point
    spec = EnsembleSpec.higher_trace(32, 4, 1)
    spec._cache["slot_terms", 2, True] = correlation_terms(spec, 2)[::order]
    pts = grid_cases(32)[2]
    for method in ROUTES["tp41"]:
        for variant in ("Rhat", "R"):
            ref = [evaluate(CorrelationRequest(spec, 2, list(pt), variant, method)).value
                   for pt in pts]
            assert np.array_equal(engine.evaluate_grid(spec, 2, pts, variant, method).value,
                                  ref), (method, variant)


def test_evaluate_grid_refusals():
    spec = EnsembleSpec.gaussian(4)
    grid = engine.evaluate_grid
    with pytest.raises(ValueError, match="points must be finite"):
        grid(spec, 1, [[0.3], [math.nan], [1.0]])
    with pytest.raises(ValueError, match="points must be finite"):
        grid(spec, 2, [[0.3, -math.inf]])
    for pts in ([0.3, 0.4], [[[0.3]]]):
        with pytest.raises(ValueError, match="shape"):
            grid(spec, 1, pts)
    with pytest.raises(ValueError, match="need exactly k points"):
        grid(spec, 1, [[0.3, 0.4]])
    for sides in ([0], [2], [1, -1], [-1.0 + 1e-9]):
        with pytest.raises(ValueError, match="sides"):
            grid(spec, 1, [[0.3]], sides=sides)
    with pytest.raises(ValueError, match="variant"):
        grid(spec, 1, [[0.3]], "bogus")
    with pytest.raises(ValueError, match="method"):
        grid(spec, 1, [[0.3]], method="bogus")
    # a route that does not apply to the spec refuses the grid as it
    # refuses a point
    tp41 = EnsembleSpec.higher_trace(4, 4, 1)
    for method, message in (("closed_form_gue", "Gaussian mixture"),
                            ("factorized", "factorizing spec")):
        with pytest.raises(ValueError, match=message):
            r1(tp41, 0.3, method)
        with pytest.raises(ValueError, match=message):
            grid(tp41, 1, [[0.3], [0.5]], "R", method)


# -- factorized kernel -----------------------------------------------------

def test_factorized_expands_the_spec_once(monkeypatch):
    # the factorizing check reads the spec's cached layout, so repeated
    # requests on one spec expand its terms at most once
    calls = []

    def counted(spec, k):
        calls.append(k)
        return correlation_terms(spec, k)

    monkeypatch.setattr(engine, "correlation_terms", counted)
    spec = EnsembleSpec.gaussian(4, 0.7)
    for x in (0.3, -1.1, 0.3, 2.0):
        for variant in ("Rhat", "R"):
            r1(spec, x, "factorized", variant)
        factorized_kernel(spec, x, 0.5)
    assert len(calls) <= 1, calls


def test_factorized_kernel_matches_oscillator():
    from rmtcorr.special import gue_kernel
    spec = EnsembleSpec.gaussian(5)
    rng = np.random.default_rng(9)
    for _ in range(20):
        xp, xq = rng.uniform(-2, 2, 2)
        a = factorized_kernel(spec, xp, xq)
        b = gue_kernel(5, np.array(xp), np.array(xq), variant="full")
        assert abs(a - b) < 1e-8 * max(abs(b), 1.0)


def test_factorized_kernel_and_generating_function_take_signs_only():
    # a side is +1 or -1, as evaluate_grid's sides are: other numbers are
    # refused, not read as one of the two sides.  factorized_kernel takes
    # no side: it is the L = +1 kernel, and L = -1 is its conjugate
    spec = EnsembleSpec.gaussian(4)
    for L in (0, 2, -0.5, 1 + 1e-9):
        with pytest.raises(ValueError, match="metric sign must be"):
            generating_function_value(spec, 1, 0.3, 0.01, [L])


def test_factorized_requires_factorizing_spec():
    t = np.linspace(0.2, 1.0, 101)
    f = np.ones_like(t)
    f /= np.trapezoid(f, t)
    spec = EnsembleSpec.norm_dependent(3, (t, f))
    with pytest.raises(ValueError):
        r1(spec, 0.0, "factorized", "Rhat")


# -- request validation ----------------------------------------------------

def test_request_validation():
    spec = EnsembleSpec.gaussian(4)
    with pytest.raises(ValueError):
        CorrelationRequest(spec, 1, [0.0], variant="bogus")
    with pytest.raises(ValueError):
        CorrelationRequest(spec, 1, [0.0], method="bogus")
    with pytest.raises(ValueError):
        CorrelationRequest(spec, 2, [0.0])
    # eigenvalue_integral takes R and any k, like the other routes
    for k in (1, 3):
        res = evaluate(CorrelationRequest(EnsembleSpec.gaussian(6), k, [0.1, -0.5, 0.9][:k],
                                          "R", "eigenvalue_integral"))
        assert res.value.imag == 0.0 and res.value.real > 0.0
    with pytest.raises(ValueError):
        r1(EnsembleSpec.higher_trace(4, 4, 1), 0.0, "closed_form_gue")
    # the routes compute the epsilon -> 0+ limit and refuse a finite one
    for pts in ([IncrementedPoint(0.3, epsilon=0.5)],
                [IncrementedPoint(0.3), IncrementedPoint(-0.2, side=-1, epsilon=1e-9)]):
        with pytest.raises(ValueError, match="epsilon"):
            CorrelationRequest(spec, len(pts), pts)
    CorrelationRequest(spec, 1, [IncrementedPoint(0.3, epsilon=0.0)])


@pytest.mark.parametrize("method", engine.METHODS)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_request_refuses_non_finite_points(method, bad):
    # no route returns nan for a non-finite point, nor a misleading error:
    # the request refuses it, at k = 1 and 2, given as a number or a point
    spec = EnsembleSpec.gaussian(4)
    for pts in ([bad], [IncrementedPoint(bad, side=-1)], [0.3, bad], [bad, bad]):
        with pytest.raises(ValueError, match="points must be finite"):
            CorrelationRequest(spec, len(pts), pts, "R", method)
    # a nan increment is refused like a finite one
    with pytest.raises(ValueError, match="epsilon"):
        CorrelationRequest(spec, 1, [IncrementedPoint(0.3, epsilon=math.nan)], "R", method)


def test_convolution_takes_2k_beyond_N():
    # the columns are exact at every N, so k x k determinants with inner
    # dimension N < k vanish and the others agree with the closed form
    for N in (1, 2, 3):
        for k in (2, 3):
            spec = EnsembleSpec.gaussian(N)
            pts = [0.3, -0.8, 1.1][:k]
            for variant in ("Rhat", "R"):
                got, ref = (evaluate(CorrelationRequest(spec, k, pts, variant, method)).value
                            for method in ("convolution", "closed_form_gue"))
                assert abs(got - ref) <= 1e-13, (N, k, variant)
                if k > N:
                    assert abs(got) <= 1e-13, (N, k, variant)


# -- generating function ---------------------------------------------------

def test_generating_function_unit_at_zero_source():
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 4, 1)):
        for x in np.linspace(-2, 2, 10):
            val = generating_function_value(spec, 1, x, 0.0)
            assert abs(val - 1.0) < 1e-8


def test_generating_function_derivative_is_rhat():
    h = 1e-5
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 2, 2)):
        for x in (0.0, 0.8):
            for side in (1, -1):
                zp = generating_function_value(spec, 1, x, h, metric=[side])
                zm = generating_function_value(spec, 1, x, -h, metric=[side])
                deriv = (zp - zm) / (2 * h) / (2 * np.pi)
                ref = r1(spec, x, "convolution", "Rhat", side=side)
                assert abs(deriv - ref) < 1e-6 * max(abs(ref), 1.0)


def test_generating_function_refuses_more_than_one_entry():
    spec = EnsembleSpec.gaussian(4)
    with pytest.raises(NotImplementedError, match="k = 1"):
        generating_function_value(spec, 2, [0.3, 0.5], [0.01, 0.02])
    assert (generating_function_value(spec, 1, [0.3], [0.01], [-1])
            == generating_function_value(spec, 1, 0.3, 0.01, metric=(-1,)))
    for x, J, metric in (([0.3, 5.0], 0.01, None), (0.3, [0.01, 7.0], None),
                         (0.3, 0.01, [1, -1]), ([], 0.01, None)):
        with pytest.raises(ValueError, match="one x, one J and one metric sign"):
            generating_function_value(spec, 1, x, J, metric)


# -- time domain -----------------------------------------------------------

def test_time_domain_gaussian_n1():
    # N = 1: R1(x) = e^(-x^2)/sqrt(pi), so r1(t) = e^(-t^2/4)/sqrt(2 pi)
    xs = np.linspace(-12, 12, 2401)
    f = np.exp(-xs * xs) / np.sqrt(np.pi)
    ts = np.linspace(-6, 6, 121)
    g = time_domain_transform(xs, f, ts, "to_time")
    ref = np.exp(-ts * ts / 4.0) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(g - ref)) < 1e-8


def test_time_domain_roundtrip():
    xs = np.linspace(-12, 12, 2401)
    f = np.exp(-xs * xs) * (1.0 + 0.3 * xs * xs)
    ts = np.linspace(-40, 40, 4001)
    g = time_domain_transform(xs, f, ts, "to_time")
    back = time_domain_transform(ts, g, xs[::10], "to_energy")
    assert np.max(np.abs(back - f[::10])) < 1e-4


def test_time_domain_nyquist_guard():
    xs = np.linspace(-10, 10, 101)
    with pytest.raises(ValueError):
        time_domain_transform(xs, np.exp(-xs * xs), np.linspace(-50, 50, 11),
                              "to_time")
    with pytest.raises(ValueError):
        time_domain_transform(xs, np.exp(-xs * xs), np.linspace(-3, 3, 11),
                              "sideways")


def test_time_domain_refuses_grids_the_simpson_rule_cannot_take():
    # the Simpson rule takes none of these: one point, an even count, a
    # sample to broadcast across the grid, an uneven or decreasing grid
    # (0.0798 for the true 0.1995 on [0, 0.1, 0.5])
    five = np.linspace(-1.0, 1.0, 5)
    for grid_in, samples, match in (
            ([0.0], [1.0], "odd number >= 3"),
            (np.linspace(0, 1, 4), np.ones(4), "odd number >= 3"),
            (np.ones((3, 3)), np.ones((3, 3)), "odd number >= 3"),
            (five, [1.0], "one sample per grid_in point"),
            (five, np.ones((5, 1)), "one sample per grid_in point"),
            ([0.0, 0.1, 0.5], np.ones(3), "uniformly spaced"),
            (five[::-1], np.ones(5), "increasing"), (np.zeros(5), np.ones(5), "increasing"),
            (five + [0, 0, 1e-8, 0, 0], np.ones(5), "uniformly spaced"),
            ([0.0, math.nan, 1.0], np.ones(3), "uniformly spaced")):
        with pytest.raises(ValueError, match=match):
            time_domain_transform(grid_in, samples, [0.0], "to_time")
    # grid_out is 1-D, of any length: a 2-D or a 0-d one is refused, not
    # flattened, and an empty one gives an empty array
    for grid_out in (np.zeros((2, 2)), 0.0):
        with pytest.raises(ValueError, match="grid_out must be 1-D"):
            time_domain_transform(five, np.ones(5), grid_out, "to_time")
    assert time_domain_transform(five, np.ones(5), [], "to_time").shape == (0,)
    # the bench's 401-node grid lo + offset + h k, and the smallest grid
    h = 16.0 / 401
    grid = -8.0 + 0.37 * h + h * np.arange(401)
    ts = np.array([0.0, 1.0])
    got = time_domain_transform(grid, np.exp(-grid * grid), ts, "to_time")
    assert np.max(np.abs(got - np.exp(-ts * ts / 4.0) / math.sqrt(2.0))) < 1e-10
    got = time_domain_transform([0.0, 0.25, 0.5], np.ones(3), [0.0], "to_time")
    assert abs(got[0] - 0.5 / np.sqrt(2 * np.pi)) < 1e-15
