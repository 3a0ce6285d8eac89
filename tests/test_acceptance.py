"""Acceptance criteria: one test per criterion, each printing a single
PASS/FAIL line with its measured deviation.

Run with `pytest tests/test_acceptance.py -s` to see the lines inline.
"""

import time

import numpy as np
import pytest

from rmtcorr.ensembles import EnsembleSpec, flat_gauss_norm
from rmtcorr.engine import (CorrelationRequest, evaluate, evaluate_grid, factorized_kernel,
                            generating_function_value, time_domain_transform)
from rmtcorr.grassmann import verify_duality
from rmtcorr.kernels import (IncrementedPoint, kernel_closed, kernel_series,
                             gaussian_pairing, hciz_exact, hciz_degenerate)
from rmtcorr.mc import sample_batch, estimate_r1, hciz_mc
from rmtcorr.special import gue_kernel


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {n}: {detail}"


def corr(spec, k, xs, variant, method, sides=None):
    sides = sides or [1] * k
    pts = [IncrementedPoint(x, side=s) for x, s in zip(np.atleast_1d(xs), sides)]
    return evaluate(CorrelationRequest(spec, k, pts, variant, method)).value


def r1_grid(spec, xs, method, variant="R", side=1):
    return evaluate_grid(spec, 1, np.reshape(xs, (-1, 1)), variant, method, [side]).value


_shared = {}


def ht41_histogram():
    """One 10^6-sample weighted histogram shared by criteria 7 and 11."""
    if "ht41" not in _shared:
        spec = EnsembleSpec.higher_trace(4, 4, 1)
        batch = sample_batch(spec, 10 ** 6, seed=123)
        _shared["ht41"] = (spec, estimate_r1(batch, (-3.5, 3.5, 80)))
    return _shared["ht41"]


def bins_outside_3sigma(spec, hist, method):
    ref = np.real(r1_grid(spec, hist.centers(), method))
    return int(np.count_nonzero(np.abs(hist.density - ref) > 3 * np.maximum(hist.errors, 1e-12)))


def test_criterion_1_trace_duality():
    t0 = time.time()
    dev = 0.0
    for k in (1, 2):
        for N in (2, 3, 4):
            for seed in range(20):
                rep = verify_duality(k, N, 4, seed=seed)
                dev = max(dev, max(rep.values()))
    elapsed = time.time() - t0
    report(1, dev < 1e-10 and elapsed < 60.0,
           f"max_deviation={dev:.3e} elapsed={elapsed:.1f}s")


def test_criterion_2_kernel_identity():
    rng = np.random.default_rng(14)
    dev = 0.0
    for _ in range(1000):
        N = int(rng.integers(1, 31))
        a = complex(rng.uniform(-3, 3), rng.uniform(-2, -0.01))
        b = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        c1 = kernel_closed(N, a, b)
        c2 = kernel_series(N, a, b)
        dev = max(dev, abs(c1 - c2) / abs(c2))
    report(2, dev < 1e-12, f"max_rel_deviation={dev:.3e}")


def test_criterion_3_gaussian_rederivation():
    dev = 0.0
    for N in range(2, 9):
        spec = EnsembleSpec.gaussian(N)
        xs = np.linspace(-3 * np.sqrt(N), 3 * np.sqrt(N), 21)
        for variant in ("Rhat", "R"):
            a = r1_grid(spec, xs, "convolution", variant)
            b = r1_grid(spec, xs, "closed_form_gue", variant)
            dev = max(dev, float(np.max(np.abs(a - b) / np.abs(b))))
    report(3, dev < 1e-6, f"sup_rel_deviation={dev:.3e}")


def test_criterion_4_density_normalization():
    xs = np.linspace(-8.0, 8.0, 601)
    cases = [
        (EnsembleSpec.gaussian(6), ("convolution", "closed_form_gue",
                                    "factorized", "closed_form_higher_trace")),
        (EnsembleSpec.norm_dependent(4, ("spike", 0.4)),
         ("convolution", "factorized", "closed_form_gue")),
        (EnsembleSpec.higher_trace(4, 4, 1),
         ("convolution", "closed_form_higher_trace")),
        (EnsembleSpec.higher_trace(4, 2, 2), ("closed_form_higher_trace",)),
    ]
    dev = 0.0
    for spec, methods in cases:
        for method in methods:
            vals = np.real(r1_grid(spec, xs, method, "R"))
            total = np.trapezoid(vals, xs)
            dev = max(dev, abs(total - spec.N))
    report(4, dev < 1e-6, f"max_integral_deviation={dev:.3e}")


def test_criterion_5_gaussian_pairing():
    dev = max(abs(gaussian_pairing(N) - 1.0) for N in range(2, 7))
    report(5, dev < 1e-8, f"max_deviation={dev:.3e}")


def test_criterion_6_hciz():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst_sigma = 0.0
    for N in (2, 3):
        for _ in range(5):
            E = np.sort(rng.uniform(-2, 2, N))
            R = np.sort(rng.uniform(-2, 2, N))
            exact = hciz_exact(E, R)
            est, err = hciz_mc(E, R, 10 ** 6, seed=int(rng.integers(10 ** 6)))
            worst_sigma = max(worst_sigma, abs(est - exact) / err)
    dev_deg = 0.0
    for _ in range(3):
        E = np.sort(rng.uniform(-2, 2, 4))
        R2k = rng.uniform(-2, 2, 2)
        direct = hciz_degenerate(E, R2k, 4, 1)
        eta0 = 1e-3
        vals = [hciz_exact(E, np.concatenate([R2k, [eta, 2 * eta]]))
                for eta in (eta0, eta0 / 2, eta0 / 4)]
        extrap = (8 * vals[2] - 6 * vals[1] + vals[0]) / 3.0
        dev_deg = max(dev_deg, abs(extrap - direct) / max(1.0, abs(direct)))
    elapsed = time.time() - t0
    report(6, worst_sigma < 3.0 and dev_deg < 1e-6 and elapsed < 300.0,
           f"worst_mc_sigma={worst_sigma:.2f} degenerate_dev={dev_deg:.3e} "
           f"elapsed={elapsed:.1f}s")


def test_criterion_7_mc_crosscheck():
    t0 = time.time()
    gue = EnsembleSpec.gaussian(4)
    batch = sample_batch(gue, 10 ** 6, seed=77)
    hist = estimate_r1(batch, (-3.5, 3.5, 80))
    bad_gue = bins_outside_3sigma(gue, hist, "closed_form_gue")
    spec_ht, hist_ht = ht41_histogram()
    bad_ht = bins_outside_3sigma(spec_ht, hist_ht, "closed_form_higher_trace")
    elapsed = time.time() - t0
    ok = bad_gue <= 4 and bad_ht <= 4 and elapsed < 600.0
    report(7, ok, f"bins_outside_3sigma: gue={bad_gue}/80 "
           f"trace_power={bad_ht}/80 elapsed={elapsed:.1f}s")


def test_criterion_8_factorized_kernel():
    spec = EnsembleSpec.gaussian(6)
    rng = np.random.default_rng(8)
    dev = 0.0
    for _ in range(100):
        xp, xq = rng.uniform(-2.5, 2.5, 2)
        a = factorized_kernel(spec, xp, xq)
        b = gue_kernel(6, np.array(xp), np.array(xq), variant="full")
        dev = max(dev, abs(a - b))
    report(8, dev < 1e-8, f"max_deviation={dev:.3e}")


def test_criterion_9_cross_method_k2():
    spec = EnsembleSpec.gaussian(4)
    rng = np.random.default_rng(19)
    dev = 0.0
    for _ in range(10):
        x, y = rng.uniform(-2, 2, 2)
        a = corr(spec, 2, [x, y], "Rhat", "convolution")
        b = corr(spec, 2, [x, y], "Rhat", "closed_form_gue")
        dev = max(dev, abs(a - b) / abs(b))
    report(9, dev < 1e-5, f"max_rel_deviation={dev:.3e}")


def test_criterion_10_time_domain():
    from rmtcorr.special import cauchy_gauss
    spec = EnsembleSpec.gaussian(4)
    N = spec.N
    # the convolution route stays accurate far into the tails, where the
    # oscillator-product closed form overflows
    xs = np.linspace(-60, 60, 6001)
    rhat_up = r1_grid(spec, xs, "convolution", "Rhat", side=1)
    # subtract the sided Cauchy transform of a Gaussian model density with
    # matching level count and second moment; the remainder decays like
    # x^-5 and is smooth at the origin, and the model transforms in closed
    # form to a one-sided Gaussian signal
    v0 = 2.0 * (N * N / 2.0) / N
    model = (N / np.pi) * (np.pi * v0) ** -0.5 \
        * cauchy_gauss(0, xs / np.sqrt(v0) + 0j, side=-1)
    ts = np.linspace(-6, 6, 241)
    rhat_t_up = time_domain_transform(xs, rhat_up - model, ts, "to_time")
    rhat_t_up = rhat_t_up + 2j * (ts > 0) * N \
        * np.exp(-v0 * ts * ts / 4.0) / np.sqrt(2 * np.pi)
    # L = -1 signal by reflection: rhat_-(t) = conj(rhat_+(-t))
    rhat_t_dn = np.conj(rhat_t_up[::-1])
    peak = float(np.max(np.abs(rhat_t_dn)))
    leak = float(np.max(np.abs(rhat_t_dn[ts > 0.05]))) / peak

    # roundtrip R1 -> r1 -> R1
    xs2 = np.linspace(-12, 12, 2401)
    r1v = np.real(r1_grid(spec, xs2, "closed_form_gue", "R"))
    ts2 = np.linspace(-8, 8, 321)
    r1t = time_domain_transform(xs2, r1v, ts2, "to_time")
    back = time_domain_transform(ts2, r1t, xs2[::10], "to_energy")
    rt_dev = float(np.max(np.abs(back - r1v[::10])))

    # sided synthesis from the density signal: rhat_-(t) = -2i theta(-t) r1(t)
    r1t_on = time_domain_transform(xs2, r1v, ts, "to_time")
    synth = -2j * (ts < 0) * r1t_on
    mask = np.abs(ts) > 0.05
    syn_dev = float(np.max(np.abs(synth[mask] - rhat_t_dn[mask]))) / peak

    ok = leak < 1e-6 and rt_dev < 1e-4 and syn_dev < 1e-5
    report(10, ok, f"support_leak={leak:.3e} roundtrip_dev={rt_dev:.3e} "
           f"synthesis_dev={syn_dev:.3e}")


def test_criterion_11_trace_power_routes():
    # (2,1): the trace-squared weight equals minus the scale derivative of
    # the Gaussian partition-weighted density, matched through the
    # variance-mixed normalization
    N = 4
    spec21 = EnsembleSpec.higher_trace(N, 2, 1)
    b = spec21.normalization_b()
    h = 1e-4

    def weighted(x, s):
        v = 1.0 / s
        val = corr(EnsembleSpec.gaussian(N, v), 1, [x], "R", "closed_form_gue")
        return flat_gauss_norm(N, v) * float(np.real(val))

    dev21 = 0.0
    for x in (0.0, 0.7, 1.5, -1.1):
        route = -b * (weighted(x, 1 + h) - weighted(x, 1 - h)) / (2 * h)
        closed = float(np.real(corr(spec21, 1, [x], "R",
                                    "closed_form_higher_trace")))
        dev21 = max(dev21, abs(route - closed))

    spec_ht, hist_ht = ht41_histogram()
    bad = bins_outside_3sigma(spec_ht, hist_ht, "closed_form_higher_trace")
    ok = dev21 < 1e-6 and bad <= 4
    report(11, ok, f"deriv_route_dev={dev21:.3e} mc_bins_outside={bad}/80")


def test_criterion_12_generating_function_normalization():
    dev = 0.0
    for spec in (EnsembleSpec.gaussian(4), EnsembleSpec.higher_trace(4, 4, 1)):
        for x in np.linspace(-2.5, 2.5, 10):
            val = generating_function_value(spec, 1, x, 0.0)
            dev = max(dev, abs(val - 1.0))
    report(12, dev < 1e-8, f"max_deviation={dev:.3e}")
