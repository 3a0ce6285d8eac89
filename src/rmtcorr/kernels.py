"""The fundamental correlation kernel in its three variants, the
superspace Cauchy determinant, the half-line/derivative distribution
functional with its normalization pairing, and the unitary group
integrals with their degenerate limit.
"""

import math
import warnings

import numpy as np

from .special import cauchy_gauss_tower, gauss_moments

DELTA_CONF = 1e-8


class IncrementedPoint:
    """A real energy with the side and magnitude of its imaginary
    increment: the complex point is value - i * side * epsilon."""

    __slots__ = ("value", "side", "epsilon")

    def __init__(self, value, side=1, epsilon=0.0):
        if side not in (1, -1):
            raise ValueError("side must be +1 or -1")
        if epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        self.value = float(value)
        self.side = side
        self.epsilon = float(epsilon)

    def shifted(self):
        return self.value - 1j * self.side * self.epsilon

    def __repr__(self):
        return f"IncrementedPoint({self.value}, side={self.side}, eps={self.epsilon})"


def kernel_closed(N, a, b):
    """(1/pi) * (a^N - b^N) / (a^N (a - b)) with the removable point
    a = b evaluated by polynomial division."""
    a = complex(a)
    b = complex(b)
    scale = max(abs(a), abs(b), 1.0)
    if abs(a - b) < DELTA_CONF * scale:
        # sum_j (b/a)^j / a over j = 0..N-1
        t = b / a
        acc = 0j
        tp = 1.0 + 0j
        for _ in range(N):
            acc += tp
            tp *= t
        return acc / (np.pi * a)
    return (1.0 - (b / a) ** N) / (np.pi * (a - b))


def kernel_series(N, a, b):
    """(1/pi) sum_{n<N} b^n / a^(n+1); oracle form of kernel_closed."""
    a = complex(a)
    b = complex(b)
    acc = 0j
    t = 1.0 / a
    for _ in range(N):
        acc += t
        t *= b / a
    return acc / np.pi


def fundamental_kernel(N, s1, s2, variant="full"):
    """Ensemble independent kernel.

    full: (1/pi) sum_{n<N} (i s2)^n / (s1^shifted)^(n+1) in closed
    geometric form, the increment side taken from s1.
    imaginary_part: (1/pi) sum (i s2)^n Im[1/(s1^shifted)^(n+1)] at the
    finite epsilon carried by s1.
    s2 may be complex (composite second-slot arguments).
    """
    if variant == "full":
        return kernel_closed(N, s1.shifted(), 1j * complex(s2))
    if variant == "imaginary_part":
        a = s1.shifted()
        if s1.epsilon == 0.0:
            raise ValueError("imaginary_part variant needs a finite epsilon")
        b = 1j * complex(s2)
        acc = 0j
        bp = 1.0 + 0j
        ap = a
        for n in range(N):
            acc += bp * np.imag(1.0 / ap)
            bp *= b
            ap *= a
        return acc / np.pi
    raise ValueError(f"unknown variant {variant!r}")


def fundamental_correlations(N, s, variant="full"):
    """Determinant of the k x k matrix of fundamental kernel values, k = len(s).

    s: pairs (s1: IncrementedPoint, s2: real/complex); entry (p, q) pairs
    the first slot of point p with the second slot of point q."""
    M = [[fundamental_kernel(N, s1, s2, variant) for _, s2 in s] for s1, _ in s]
    return np.linalg.det(np.array(M, dtype=complex).reshape(len(s), len(s)))


def _cauchy_vectors(r1, r2):
    """r1 and r2 as complex vectors of one length, or a ValueError."""
    r1 = np.asarray(r1, dtype=complex)
    r2 = np.asarray(r2, dtype=complex)
    if r1.ndim != 1 or r1.shape != r2.shape:
        raise ValueError(f"r1 and r2 must be 1-D of one shape, got shapes {r1.shape}, {r2.shape}")
    return r1, r2


def berezinian(r1, r2):
    """Cauchy determinant det[1/(r1_p - i r2_q)], k = len(r1)."""
    r1, r2 = _cauchy_vectors(r1, r2)
    return np.linalg.det(1.0 / (r1[:, None] - 1j * r2[None, :]))


def berezinian_ratio(r1, r2):
    """Vandermonde-ratio form of the same determinant, k = len(r1):
    (-1)^(k(k-1)/2) prod_{p<q}(r1_p - r1_q)(i r2_p - i r2_q) /
    prod_{p,q}(r1_p - i r2_q)."""
    r1, r2 = _cauchy_vectors(r1, r2)
    k = len(r1)
    den = np.prod(r1[:, None] - 1j * r2[None, :])
    return (-1.0) ** (k * (k - 1) // 2) * _vandermonde(r1) * _vandermonde(1j * r2) / den


def ingham_siegel_pair(N, test, metric=None, variant="full", epsilon=0.0):
    """Pair the Ingham-Siegel distribution with per-point test data:
    c_Nk * prod_p [ integral Theta(L_p r) (i r)^N e^(-L_p eps r) f_p(r) dr ]
             * [ (-1)^(N-1) (N-1)! * (order N-1 jet coefficient)_p ].

    test: list of k pairs (f, jet) where f is a callable of the half-line
    variable and jet is a sequence of Taylor coefficients at 0 of the
    second variable, of order >= N-1.  metric holds the k signs L_p, each
    +1 or -1 (all +1 by default).  variant 'full' has the constant
    c_Nk = 2^(-k(k-1)) (i 2 pi (-1)^(N-1) / (N-1)!)^k; variant
    'imaginary_part' uses 2^(-k(k-1)) (pi (-1)^(N-1) / (N-1)!)^k.
    """
    # scipy.integrate is slow to import, and only this pairing needs it
    from scipy.integrate import IntegrationWarning, quad
    k = len(test)
    metric = list(metric) if metric is not None else [1] * k
    if len(metric) != k or any(L not in (1, -1) for L in metric):
        raise ValueError(f"metric must be k = {k} signs of +1 or -1, got {metric!r}")
    if variant not in ("full", "imaginary_part"):
        raise ValueError(f"unknown variant {variant!r}")
    base = (-1.0) ** (N - 1) / math.factorial(N - 1)
    out = 2.0 ** (-k * (k - 1)) * ((2j * np.pi if variant == "full" else np.pi) * base) ** k
    for p in range(k):
        f, jet = test[p]
        if len(jet) < N:
            raise ValueError("jet must carry at least order N-1")
        L = metric[p]
        lo, hi = (0.0, np.inf) if L == 1 else (-np.inf, 0.0)

        def integrand(r):
            return (1j * r) ** N * np.exp(-L * epsilon * r) * f(r)

        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val = quad(integrand, lo, hi, limit=200, complex_func=True)[0]
            except IntegrationWarning as e:
                raise ValueError(f"the half-line integral of point {p} did not converge at "
                                 f"epsilon = {epsilon}; a larger epsilon damps it "
                                 f"({str(e).splitlines()[0]})") from None
        out *= val * (-1.0) ** (N - 1) * math.factorial(N - 1) * jet[N - 1]
    return out


def ingham_siegel_kernel(N, s1, s2, epsilon):
    """Fundamental kernel rebuilt from the half-line/derivative functional:
    the order-(N-1) derivative of e^(-i s2 r2) / (r1 - i r2) at r2 = 0 is
    expanded by the Leibniz rule and each term is one pairing call.
    Cross-checks the closed kernel against the functional's constant: the
    functional carries c_N1 * (-1)^(N-1)(N-1)! = i 2 pi, and the Leibniz
    term with (i s2)^n pairs to (-1)^(N-1) i 2 pi (i s2)^n / (s1 - i eps)^(n+1),
    so the pairing sum equals (-1)^(N-1) i 2 pi^2 times the kernel
    (1/pi) sum_n (i s2)^n / (s1 - i eps)^(n+1).  The damping
    epsilon > 0 is the increment of s1; the half-line integrals need one
    large enough to converge (ingham_siegel_pair raises otherwise)."""
    total = 0j
    for j in range(N):
        def f(r, j=j):
            return np.exp(-1j * s1 * r) * (1j ** j) * math.factorial(j) / r ** (j + 1)

        jet = np.zeros(N, dtype=complex)
        jet[N - 1] = (-1j * s2) ** (N - 1 - j) / (
            math.factorial(j) * math.factorial(N - 1 - j))
        total += ingham_siegel_pair(N, [(f, jet)], epsilon=epsilon)
    return total * (-1.0) ** (N - 1) / (2j * np.pi ** 2)


def gaussian_pairing(N, k=1):
    """Superspace Gaussian normalization check: the integral of
    exp(-trg sigma^2 / 4) * sdetg^(-N) sigma^(-) over the 2x2 supermatrix,
    reduced to eigenvalue coordinates and evaluated through the
    half-line/derivative representation's Gaussian Cauchy transforms.
    Exact value 2^(-k(k-1)); only k = 1 is implemented.
    """
    if k != 1:
        raise NotImplementedError("pairing implemented for k = 1")
    # X = (-1/2pi) * [N * B_N - A_N / 2] with
    # A_N = int e^(-(s1^2+s2^2)/4) (i s2)^N / (s1 - i0)^N
    # B_N = int e^(-(s1^2+s2^2)/4) (i s2)^(N-1) / (s1 - i0)^(N+1)
    # s2 moments: int s2^m e^(-s2^2/4) ds2 = 2^(m+1) gamma_m
    # s1 integrals: int e^(-s1^2/4) (s1 - i0)^(-j) ds1
    #             = 2^(1-j) (-1)^j C_{j-1}(i0+), pole side above the axis
    g = gauss_moments(N)
    # C_0..C_N at z -> 0 from the upper half plane, the conjugate of 0 - i0
    C = cauchy_gauss_tower(N, 0j).conj()

    def s1_int(j):
        return 2.0 ** (1 - j) * ((-1.0) ** j) * C[j - 1]

    def s2_int(m):
        return (1j ** m) * 2.0 ** (m + 1) * g[m] if m % 2 == 0 else 0.0

    A = s2_int(N) * s1_int(N)
    B = s2_int(N - 1) * s1_int(N + 1)
    return (-1.0 / (2.0 * np.pi)) * (N * B - A / 2.0)


def _vandermonde(v):
    """prod_{a<b} (v_a - v_b)."""
    v = np.asarray(v, dtype=complex)
    a, b = np.triu_indices(len(v), 1)
    return np.prod(v[a] - v[b])


def hciz_exact(E, R):
    """Unitary group average of exp(i tr U E U^dag R) for nondegenerate
    spectra E, R, as a ratio of determinants and Vandermondes, symmetric
    in E and R.  A spectrum with a gap below DELTA_CONF is sorted and
    spread by d * rank and 2d * rank, d = 10 DELTA_CONF, to give
    2 f(d) - f(2d).  Three entries of one spectrum within 1e4 d = 1e-3
    leave the ratio a round-off of about eps / gap^2 (1.6 at the gaps
    2e-8, 3.6e-4 at 1e-6), and the spread one of about eps / (d gap); a
    gap in both spectra leaves eps / d^2.  Those raise ValueError."""
    E = np.asarray(E, dtype=float)
    R = np.asarray(R, dtype=float)
    N = len(E)
    if len(R) != N:
        raise ValueError("E and R must have equal length")
    confluent = [_min_gap(v) < DELTA_CONF for v in (E, R)]
    d = 10 * DELTA_CONF
    if all(confluent) or any(_min_gap(v, 2) < 1e4 * d for v in (E, R)):
        raise ValueError("hciz_exact takes a coincidence in one spectrum, of two entries "
                         "at least 1e-3 from any other, and no three entries of a "
                         "spectrum within 1e-3")
    if not any(confluent):
        return _hciz_ratio(E, R)
    E, R = (np.sort(R), E) if confluent[1] else (np.sort(E), R)
    spread = d * np.arange(N)
    return 2.0 * _hciz_ratio(E + spread, R) - _hciz_ratio(E + 2 * spread, R)


def _hciz_ratio(E, R):
    """The determinant ratio of hciz_exact at spectra E, R."""
    N = len(E)
    pref = np.prod([math.factorial(n) for n in range(1, N)])
    M = np.exp(1j * np.outer(E, R))
    return pref * np.linalg.det(M) / (
        (1j ** (N * (N - 1) // 2)) * _vandermonde(E) * _vandermonde(R))


def _min_gap(v, step=1):
    """The least spread of step + 1 neighbouring sorted entries of v."""
    if len(v) <= step:
        return np.inf
    s = np.sort(v)
    return np.min(s[step:] - s[:-step])


def hciz_degenerate(E, R2k):
    """Group average with only 2k = len(R2k) nonzero entries in the
    second spectrum, of length N = len(E).

    Numerator determinant columns: exp(i E_n R_1..R_2k), then the
    monomials 1, E_n, ..., E_n^(N-2k-1)."""
    E = np.asarray(E, dtype=float)
    R = np.asarray(R2k, dtype=float)
    N, k = len(E), len(R) // 2
    if len(R) % 2 or 2 * k >= N:
        raise ValueError(f"need an even len(R2k) = 2k < N = len(E), got {len(R)} and {N}")
    if np.any(np.abs(R) < DELTA_CONF):
        raise ValueError("zero entries in R2k hit the 1/R^(N-2k) pole")
    # constant fixed by the column-confluence limit of the nondegenerate
    # formula; verified against that formula with the padded entries
    # tending to zero
    q = N - 2 * k
    pref = np.prod([math.factorial(n) / (1j ** n) for n in range(q, N)])
    pref *= (-1.0) ** (q * (q - 1) // 2)
    M = np.column_stack([np.exp(1j * np.outer(E, R))] + [E ** j for j in range(q)])
    den = _vandermonde(E) * _vandermonde(R) * np.prod(R ** q)
    return pref * np.linalg.det(M) / den
