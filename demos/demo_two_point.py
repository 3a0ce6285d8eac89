"""Two-point correlations and the determinant structure at finite N.

Shows the k = 2 correlation function for the Gaussian family through the
convolution and oscillator-determinant routes, the cluster decomposition
R_2 = R_1 R_1 - |K|^2, and level repulsion at coincident arguments.

Run: python3 demos/demo_two_point.py
"""

import numpy as np

from rmtcorr.ensembles import EnsembleSpec
from rmtcorr.engine import evaluate_grid
from rmtcorr.special import gue_kernel


def r_k(spec, points, method, variant="R"):
    """The correlation function at every row of points, in one call."""
    points = np.asarray(points, dtype=float)
    return evaluate_grid(spec, points.shape[1], points, variant, method).value


def main():
    spec = EnsembleSpec.gaussian(4)

    print("k = 2 correlations, gaussian N=4")
    print("  x      y      convolution     determinant     cluster form")
    pairs = [(-1.0, 0.5), (0.0, 1.2), (0.3, -0.3), (1.5, 1.6)]
    conv = r_k(spec, pairs, "convolution").real
    det = r_k(spec, pairs, "closed_form_gue").real
    for (x, y), a, b in zip(pairs, conv, det):
        r1x = gue_kernel(spec.N, np.array(x), np.array(x), variant="imaginary_part")
        r1y = gue_kernel(spec.N, np.array(y), np.array(y), variant="imaginary_part")
        kxy = gue_kernel(spec.N, np.array(x), np.array(y), variant="imaginary_part")
        c = float(r1x * r1y - kxy * kxy)
        print(f"  {x:5.2f}  {y:5.2f}  {a:<14.10f}  {b:<14.10f}  {c:<14.10f}")

    print("\nlevel repulsion near coincident arguments")
    seps = (0.5, 0.1, 0.02, 0.0)
    vals = r_k(spec, [(0.4, 0.4 + d) for d in seps], "closed_form_gue").real
    for d, val in zip(seps, vals):
        print(f"  separation {d:4.2f}: R_2 = {val:.10f}")

    print("\ntrace power N=4, (tr H^2)^2: k = 2 through two routes")
    ht = EnsembleSpec.higher_trace(4, 2, 2)
    pairs = [(-0.8, 0.6), (0.2, 1.1)]
    conv = r_k(ht, pairs, "convolution", "Rhat")
    fourier = r_k(ht, pairs, "eigenvalue_integral", "Rhat")
    for (x, y), a, b in zip(pairs, conv, fourier):
        print(f"  ({x:5.2f}, {y:5.2f}): {a:.12f}  vs  {b:.12f}")


if __name__ == "__main__":
    main()
