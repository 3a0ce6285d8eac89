"""High-precision references for the benchmark's correctness checks.

The Gaussian oracle covers the exp(-tr H^2) ensemble at k = 1 and
increment side L = +1, where

    Rhat_1(x) = sum_{n<N} c_n H_n(x) (1/pi) int e^(-u^2) H_n(u) / (x - u - i0) du,
    c_n = 1 / (2^n n! sqrt(pi)),

so Im Rhat_1 = R_1 = e^(-x^2) sum_n c_n H_n(x)^2 and Re Rhat_1 is
(1/pi) sum_n c_n H_n(x) J_n(x) with the principal values
J_n = PV int e^(-u^2) H_n(u) / (x - u) du.  J_0 = pi e^(-x^2) erfi(x)
(twice sqrt(pi) times Dawson's integral) and the J_n obey the Hermite
recurrence with a source, J_{n+1} = 2x J_n - 2n J_{n-1} - 2 sqrt(pi) [n = 0].
That upward recurrence cancels badly at large |x|; it is run in mpmath
with 60 digits plus the digits it is expected to lose.

These functions are pure mpmath and share no code with rmtcorr.
"""

import math

import mpmath as mp

BASE_DPS = 60


def _dps(N, x):
    """Working digits: BASE_DPS plus the log10 of the growth ratio
    (2|x| + 2)^(2N) between the recurrence's dominant and wanted solutions."""
    return BASE_DPS + int(2 * N * math.log10(2.0 * abs(float(x)) + 2.0)) + 10


def gauss_r1(N, x):
    """(Re Rhat_1(x), R_1(x)) for the N x N exp(-tr H^2) ensemble, side +1."""
    with mp.workdps(_dps(N, x)):
        x = mp.mpf(x)
        e = mp.exp(-x * x)
        sp = mp.sqrt(mp.pi)
        H = [mp.mpf(1), 2 * x]
        J = [mp.pi * e * mp.erfi(x)]
        J.append(2 * x * J[0] - 2 * sp)
        for n in range(1, N):
            H.append(2 * x * H[n] - 2 * n * H[n - 1])
            J.append(2 * x * J[n] - 2 * n * J[n - 1])
        re = mp.mpf(0)
        dens = mp.mpf(0)
        c = 1 / sp
        for n in range(N):
            re += c * H[n] * J[n]
            dens += c * H[n] * H[n]
            c /= 2 * (n + 1)
        return float(re / mp.pi), float(dens * e)


def gauss_rhat1(N, x):
    """Rhat_1(x) = Re Rhat_1 + i R_1 as a Python complex."""
    re, dens = gauss_r1(N, x)
    return complex(re, dens)


def _density_poly(N):
    """Ascending coefficients a_m with R_1(x) = e^(-x^2) sum_m a_m x^m."""
    herm = [[mp.mpf(1)], [mp.mpf(0), mp.mpf(2)]]
    for n in range(1, N - 1):
        nxt = [mp.mpf(0)] + [2 * v for v in herm[n]]
        for i, v in enumerate(herm[n - 1]):
            nxt[i] -= 2 * n * v
        herm.append(nxt)
    coeffs = [mp.mpf(0)] * (2 * N - 1)
    c = 1 / mp.sqrt(mp.pi)
    for n in range(N):
        for i, hi in enumerate(herm[n]):
            for j, hj in enumerate(herm[n]):
                coeffs[i + j] += c * hi * hj
        c /= 2 * (n + 1)
    return coeffs


def gauss_r1_time(N, ts):
    """r_1(t) = (2 pi)^(-1/2) int e^(itx) R_1(x) dx at each t, from
    int e^(-x^2) x^m e^(itx) dx = sqrt(pi) (i/2)^m H_m(t/2) e^(-t^2/4)."""
    with mp.workdps(BASE_DPS):
        a = _density_poly(N)
        out = []
        for t in ts:
            u = mp.mpf(t) / 2
            acc = mp.mpc(0)
            for m, am in enumerate(a):
                if am != 0:
                    acc += am * mp.sqrt(mp.pi) * (mp.mpc(0, 0.5) ** m) * mp.hermite(m, u)
            out.append(complex(acc * mp.exp(-u * u) / mp.sqrt(2 * mp.pi)))
        return out
