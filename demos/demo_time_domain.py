"""Time-domain picture: one-sided signals from sided resolvent traces.

Transforms the sided one-point function into the time domain (the signal
is supported on a half line), and rebuilds it from the level density
through the sided synthesis identity.

Run: python3 demos/demo_time_domain.py
"""

import numpy as np

from rmtcorr.ensembles import EnsembleSpec
from rmtcorr.engine import evaluate_grid, time_domain_transform
from rmtcorr.special import cauchy_gauss


def main():
    spec = EnsembleSpec.gaussian(4)
    N = spec.N

    xs = np.linspace(-60, 60, 6001)
    rhat = evaluate_grid(spec, 1, xs[:, None], "Rhat", "convolution").value

    # subtract a moment-matched Gaussian model resolvent so the remainder
    # decays fast; the model transforms in closed form
    v0 = float(N)
    model = (N / np.pi) * (np.pi * v0) ** -0.5 \
        * cauchy_gauss(0, xs / np.sqrt(v0) + 0j, side=-1)
    ts = np.linspace(-5, 5, 201)
    sig = time_domain_transform(xs, rhat - model, ts, "to_time")
    sig = sig + 2j * (ts > 0) * N * np.exp(-v0 * ts * ts / 4.0) / np.sqrt(2 * np.pi)

    # density transform and the sided synthesis -2i theta(-t) r1(t),
    # reflected here to the +1 side as +2i theta(t) r1(t)
    xs2 = np.linspace(-12, 12, 2401)
    r1 = evaluate_grid(spec, 1, xs2[:, None], "R", "closed_form_gue").value.real
    r1t = time_domain_transform(xs2, r1, ts, "to_time")
    synth = 2j * (ts > 0) * r1t

    peak = np.max(np.abs(sig))
    leak = np.max(np.abs(sig[ts < -0.05])) / peak
    dev = np.max(np.abs(sig - synth)[np.abs(ts) > 0.05]) / peak
    print("one-sided signal, gaussian N=4")
    print(f"  support leakage on the wrong half line: {leak:.3e} of peak")
    print(f"  synthesis deviation: {dev:.3e} of peak")
    print("\n  t      |signal|        |synthesis|")
    for t in (-2.0, -0.5, 0.5, 1.0, 2.0, 4.0):
        i = int(np.argmin(np.abs(ts - t)))
        print(f"  {ts[i]:5.2f}  {abs(sig[i]):<14.8f}  {abs(synth[i]):<14.8f}")


if __name__ == "__main__":
    main()
