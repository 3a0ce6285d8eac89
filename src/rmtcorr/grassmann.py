"""Exact arithmetic in a finite exterior algebra with complex coefficients,
plus the dual matrix pair (K, B) and the trace identity tr K^m = trg B^m.

Generators are indexed 0..G-1.  For a dual pair with k source vectors and
dimension N there are G = 2*k*N generators: first all zeta_{p,n} (p outer,
n inner, index p*N + n), then all conjugate generators zeta*_{p,n} at
index k*N + p*N + n.  Monomials are stored as G-bit masks with the
generators in ascending index order; coefficients are complex floats.
"""

import numpy as np

GENERATOR_BUDGET = 24


class GrassmannElement:
    """Sparse element of the exterior algebra: dict {bitmask: coefficient}."""

    __slots__ = ("ngen", "terms")

    def __init__(self, ngen, terms=None):
        self.ngen = ngen
        self.terms = {mask: complex(c) for mask, c in (terms or {}).items() if c != 0}

    @classmethod
    def scalar(cls, ngen, value):
        return cls(ngen, {0: value} if value != 0 else {})

    @classmethod
    def generator(cls, ngen, index, coeff=1.0):
        return cls(ngen, {1 << index: coeff})

    def scalar_part(self):
        return self.terms.get(0, 0j)

    def __add__(self, other):
        return _element(self.ngen, _add_into(dict(self.terms), _coerce(other, self.ngen).terms))

    __radd__ = __add__

    def __neg__(self):
        return GrassmannElement(self.ngen, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other, self.ngen))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return GrassmannElement(self.ngen, {m: c * other for m, c in self.terms.items()})
        return ge_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return ge_mul(_coerce(other, self.ngen), self)

    def max_abs_coeff(self):
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def __repr__(self):
        return f"GrassmannElement({self.ngen}, {self.terms})"


def _element(ngen, terms):
    """Element over an already clean {mask: nonzero complex} dict, taken
    as it is, without a second walk."""
    e = GrassmannElement.__new__(GrassmannElement)
    e.ngen, e.terms = ngen, terms
    return e


def _add_into(out, terms):
    """Add a term dict into the clean dict out in place; exact zeros go."""
    for mask, c in terms.items():
        v = out.get(mask, 0j) + c
        if v == 0:
            out.pop(mask, None)
        else:
            out[mask] = v
    return out


def _coerce(x, ngen):
    if isinstance(x, GrassmannElement):
        return x
    return GrassmannElement.scalar(ngen, x)


def _merge_sign(m1, m2):
    """Koszul sign for multiplying ordered monomials m1 * m2 (disjoint masks).

    Each generator bit j of m2 must cross every generator of m1 with a
    higher index, picking up one transposition per crossing.
    """
    swaps = 0
    m = m2
    while m:
        j = (m & -m).bit_length() - 1
        swaps += (m1 >> (j + 1)).bit_count()
        m &= m - 1
    return -1 if swaps & 1 else 1


def ge_mul(a, b):
    """Product of two algebra elements with Koszul signs."""
    if a.ngen != b.ngen:
        raise ValueError("elements live over different generator universes")
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if m1 & m2:
                continue
            s = _merge_sign(m1, m2)
            mask = m1 | m2
            v = out.get(mask, 0j) + s * c1 * c2
            if v == 0:
                out.pop(mask, None)
            else:
                out[mask] = v
    return _element(a.ngen, out)


def ge_conjugate(a):
    """Antilinear conjugation: reverse each monomial and swap every
    generator with its conjugate partner (index +- G/2).  Applied twice
    it is the identity."""
    g = a.ngen
    half = g // 2
    out = GrassmannElement(g)
    for mask, c in a.terms.items():
        mono = GrassmannElement.scalar(g, np.conj(c))
        for j in reversed([j for j in range(g) if mask >> j & 1]):
            partner = j + half if j < half else j - half
            mono = ge_mul(mono, GrassmannElement.generator(g, partner))
        # the swap is a bijection on monomials, so no two terms collide
        out.terms.update(mono.terms)
    return out


def _mat_mul(A, B):
    """Product of two matrices of algebra elements held as nested lists;
    each entry adds its products into one term dict."""
    out = []
    for row in A:
        out.append([])
        for j in range(len(B[0])):
            acc = {}
            for l, a in enumerate(row):
                _add_into(acc, ge_mul(a, B[l][j]).terms)
            out[-1].append(_element(a.ngen, acc))
    return out


def build_dual_pair(zvals, k, N, L):
    """Build K = A L A^dagger (N x N) and B = L^(1/2) A^dagger A L^(1/2)
    (2k x 2k, boson block first) as nested lists of algebra elements.

    A is the N x 2k matrix [z_1..z_k | zeta_1..zeta_k] and A^dagger its
    graded adjoint: the conjugate transpose with the odd (fermion) rows
    negated.  zvals: sequence of k length-N complex vectors; L: sequence
    of k signs, padded with +1 on the fermion side.  The square root of
    a -1 metric entry is taken as +i.
    """
    G = 2 * k * N
    if G > GENERATOR_BUDGET:
        raise ResourceWarning(f"generator count {G} exceeds budget {GENERATOR_BUDGET}")
    L = list(L)
    if len(L) != k or any(s not in (1, -1) for s in L):
        raise ValueError("metric must be k signs in {+1,-1}")
    z = [np.asarray(v, dtype=complex) for v in zvals]
    A = [[GrassmannElement.scalar(G, z[p][n]) for p in range(k)]
         + [GrassmannElement.generator(G, p * N + n) for p in range(k)] for n in range(N)]
    Adag = [[(1 if i < k else -1) * ge_conjugate(A[n][i]) for n in range(N)]
            for i in range(2 * k)]
    metric = L + [1] * k
    sqrtL = [1.0 if s == 1 else 1j for s in metric]
    K = _mat_mul([[s * a for s, a in zip(metric, row)] for row in A], Adag)
    B = [[sqrtL[i] * e * sqrtL[j] for j, e in enumerate(row)]
         for i, row in enumerate(_mat_mul(Adag, A))]
    return K, B


def _powers(M, m_max):
    """[M, M^2, ..., M^m_max], each power one product from the last."""
    if m_max < 1:
        raise ValueError("m must be >= 1")
    out = [M]
    while len(out) < m_max:
        out.append(_mat_mul(out[-1], M))
    return out


def _signed_trace(P, signs):
    return sum((s * P[i][i] for i, s in enumerate(signs)), GrassmannElement(P[0][0].ngen))


def tr_power(K, m):
    """Ordinary trace of K^m over the algebra."""
    return _signed_trace(_powers(K, m)[-1], [1] * len(K))


def verify_duality(k, N, m_max, seed):
    """Max coefficient deviation of tr K^m - trg B^m for m = 1..m_max,
    both sides read off one chain of powers."""
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(k)]
    L = [int(s) for s in rng.choice([1, -1], size=k)]
    K, B = build_dual_pair(z, k, N, L)
    supersigns = [1] * k + [-1] * k
    report = {}
    for m, (Km, Bm) in enumerate(zip(_powers(K, m_max), _powers(B, m_max)), 1):
        diff = _signed_trace(Km, [1] * N) - _signed_trace(Bm, supersigns)
        report[m] = diff.max_abs_coeff()
    return report
