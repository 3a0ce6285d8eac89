"""Level densities at finite N for the three ensemble families.

Evaluates R_1 on a grid through several independent routes (convolution,
Fourier/jet, oscillator determinant, trace-power closed form) and checks
them against a weighted Monte Carlo histogram.

Run: python3 demos/demo_level_density.py
"""

import numpy as np

from rmtcorr.ensembles import EnsembleSpec
from rmtcorr.engine import evaluate_grid
from rmtcorr.mc import sample_batch, estimate_r1


def density(spec, xs, method):
    """R_1 at every x of xs, in one call."""
    return evaluate_grid(spec, 1, np.reshape(xs, (-1, 1)), "R", method).value.real


def main():
    specs = [
        ("gaussian N=4", EnsembleSpec.gaussian(4),
         ["convolution", "closed_form_gue", "factorized"]),
        ("spike spread N=4, t0=0.4", EnsembleSpec.norm_dependent(4, ("spike", 0.4)),
         ["convolution", "factorized", "closed_form_gue"]),
        ("trace power N=4, (tr H^4)^1", EnsembleSpec.higher_trace(4, 4, 1),
         ["convolution", "closed_form_higher_trace"]),
    ]
    xs = np.linspace(-2.5, 2.5, 11)
    for label, spec, methods in specs:
        print(f"\n{label}")
        print("  x      " + "".join(f"{m:<28}" for m in methods))
        table = np.array([density(spec, xs, m) for m in methods]).T
        for x, vals in zip(xs, table):
            print(f"  {x:5.2f}  " + "".join(f"{v:<28.12f}" for v in vals))
        fine = np.linspace(-8, 8, 801)
        total = np.trapezoid(density(spec, fine, methods[0]), fine)
        print(f"  integral of R_1: {total:.10f} (levels: {spec.N})")

    print("\nMonte Carlo check, trace power N=4, (tr H^4)^1, 200k samples")
    spec = EnsembleSpec.higher_trace(4, 4, 1)
    batch = sample_batch(spec, 200000, seed=1)
    hist = estimate_r1(batch, (-3.0, 3.0, 13))
    width = hist.edges[1] - hist.edges[0]
    print("  x      closed (bin avg)  mc              sigma")
    # average the closed form over each bin (Simpson) to match the histogram
    xs = hist.centers()
    lo, mid, hi = density(spec, [xs - width / 2, xs, xs + width / 2],
                          "closed_form_higher_trace").reshape(3, -1)
    for x, d, e, ref in zip(xs, hist.density, hist.errors, (lo + 4 * mid + hi) / 6.0):
        print(f"  {x:5.2f}  {ref:<16.6f}  {d:<14.6f}  {abs(d - ref) / e:5.2f}")


if __name__ == "__main__":
    main()
