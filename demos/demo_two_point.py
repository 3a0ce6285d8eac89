"""Two-point correlations and the determinant structure at finite N.

Shows the k = 2 correlation function for the Gaussian family through the
convolution and oscillator-determinant routes, the cluster decomposition
R_2 = R_1 R_1 - |K|^2, and level repulsion at coincident arguments.

Run: python3 demos/demo_two_point.py
"""

import numpy as np

from rmtcorr.ensembles import EnsembleSpec
from rmtcorr.engine import CorrelationRequest, evaluate
from rmtcorr.kernels import IncrementedPoint
from rmtcorr.special import gue_kernel


def r_k(spec, points, method, variant="R"):
    pts = [IncrementedPoint(x) for x in points]
    req = CorrelationRequest(spec, len(points), pts, variant, method)
    return evaluate(req).value


def main():
    spec = EnsembleSpec.gaussian(4)

    print("k = 2 correlations, gaussian N=4")
    print("  x      y      convolution     determinant     cluster form")
    for x, y in [(-1.0, 0.5), (0.0, 1.2), (0.3, -0.3), (1.5, 1.6)]:
        a = float(np.real(r_k(spec, [x, y], "convolution")))
        b = float(np.real(r_k(spec, [x, y], "closed_form_gue")))
        r1x = gue_kernel(spec.N, np.array(x), np.array(x), variant="imaginary_part")
        r1y = gue_kernel(spec.N, np.array(y), np.array(y), variant="imaginary_part")
        kxy = gue_kernel(spec.N, np.array(x), np.array(y), variant="imaginary_part")
        c = float(r1x * r1y - kxy * kxy)
        print(f"  {x:5.2f}  {y:5.2f}  {a:<14.10f}  {b:<14.10f}  {c:<14.10f}")

    print("\nlevel repulsion near coincident arguments")
    for d in (0.5, 0.1, 0.02, 0.0):
        val = float(np.real(r_k(spec, [0.4, 0.4 + d], "closed_form_gue")))
        print(f"  separation {d:4.2f}: R_2 = {val:.10f}")

    print("\ntrace power N=4, (tr H^2)^2: k = 2 through two routes")
    ht = EnsembleSpec.higher_trace(4, 2, 2)
    for x, y in [(-0.8, 0.6), (0.2, 1.1)]:
        a = r_k(ht, [x, y], "convolution", "Rhat")
        b = r_k(ht, [x, y], "eigenvalue_integral", "Rhat")
        print(f"  ({x:5.2f}, {y:5.2f}): {a:.12f}  vs  {b:.12f}")


if __name__ == "__main__":
    main()
