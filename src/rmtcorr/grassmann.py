"""Exact arithmetic in a finite exterior algebra with complex coefficients,
plus the dual matrix pair (K, B) and the trace identity tr K^m = trg B^m.

Generators are indexed 0..G-1.  For a dual pair with k source vectors and
dimension N there are G = 2*k*N generators: first all zeta_{p,n} (p outer,
n inner, index p*N + n), then all conjugate generators zeta*_{p,n} at
index k*N + p*N + n.  Monomials are stored as G-bit masks with the
generators in ascending index order; coefficients are complex floats.

A matrix of algebra elements is held as a term table: three arrays of its
terms' flat entry indices (row * cols + col), masks and coefficients.
Every product, of elements, of matrices, or under a trace, goes through
the one kernel _mul over such arrays.
"""

import numpy as np

GENERATOR_BUDGET = 24


class GrassmannElement:
    """Sparse element of the exterior algebra: its monomial masks (sorted,
    distinct) and their nonzero coefficients, as arrays.  Built from a
    {bitmask: coefficient} dict."""

    __slots__ = ("ngen", "masks", "coefs")

    def __init__(self, ngen, terms=None):
        terms = terms or {}
        masks = np.fromiter(terms.keys(), np.int64, len(terms))
        coefs = np.fromiter(terms.values(), complex, len(terms))
        self.ngen = ngen
        _, self.masks, self.coefs = _merge(ngen, 0, masks, coefs)

    @classmethod
    def scalar(cls, ngen, value):
        return cls(ngen, {0: value})

    @classmethod
    def generator(cls, ngen, index, coeff=1.0):
        return cls(ngen, {1 << index: coeff})

    @property
    def terms(self):
        return dict(zip(self.masks.tolist(), self.coefs.tolist()))

    def scalar_part(self):
        return complex(self.coefs[0]) if len(self.masks) and self.masks[0] == 0 else 0j

    def __add__(self, other):
        other = _coerce(other, self.ngen)
        return _element(self.ngen, *_merge(self.ngen, 0, np.concatenate([self.masks, other.masks]),
                                           np.concatenate([self.coefs, other.coefs]))[1:])

    __radd__ = __add__

    def __neg__(self):
        return _element(self.ngen, self.masks, -self.coefs)

    def __sub__(self, other):
        return self + (-_coerce(other, self.ngen))

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            coefs = self.coefs * other
            keep = coefs != 0
            return _element(self.ngen, self.masks[keep], coefs[keep])
        return ge_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self.__mul__(other)
        return ge_mul(_coerce(other, self.ngen), self)

    def max_abs_coeff(self):
        return float(np.max(np.abs(self.coefs), initial=0.0))

    def __repr__(self):
        return f"GrassmannElement({self.ngen}, {self.terms})"


def _element(ngen, masks, coefs):
    """Element over already clean arrays (sorted distinct masks, nonzero
    coefficients), taken as they are."""
    e = GrassmannElement.__new__(GrassmannElement)
    e.ngen, e.masks, e.coefs = ngen, masks, coefs
    return e


def _coerce(x, ngen):
    if isinstance(x, GrassmannElement):
        return x
    return GrassmannElement.scalar(ngen, x)


def _odd(m1, m2):
    """Koszul parity (0 or 1) of multiplying ordered monomials m1 * m2
    (disjoint masks, arrays).  Each generator j of m2 crosses every
    generator of m1 above it, so the parity is that of
    sum_{j in m2} popcount(m1 >> (j+1)).  Bit j of the suffix parity x of
    m1 is popcount(m1 >> (j+1)) mod 2, a prefix xor of m1 >> 1 taken in
    doubling shifts; the sum's parity is then popcount(m2 & x) mod 2."""
    x = m1 >> 1
    for shift in (1, 2, 4, 8, 16, 32):
        x = x ^ (x >> shift)
    return np.bitwise_count(m2 & x) & 1


def _merge(ngen, entry, mask, coef):
    """Sum the coefficients of equal (entry, mask) keys (entry may be a
    scalar); exact zeros go.
    The keys are sorted stably and each run of equal keys is added by one
    np.add.reduceat, whose pairwise sums keep a trace's coefficients, each
    a sum of up to hundreds of products, to a few ulps.  Returns the
    (entry, mask, coef) arrays sorted by entry, then mask."""
    key = (entry << ngen) | mask
    order = np.argsort(key, kind="stable")
    key = key[order]
    start = np.flatnonzero(np.diff(key, prepend=-1))
    c = np.add.reduceat(coef[order], start)
    keep = c != 0
    key = key[start[keep]]
    return key >> ngen, key & ((1 << ngen) - 1), c[keep]


def _mul(ngen, a, b, ka, kb, oa, ob):
    """The product kernel.  a and b are (mask, coef) term arrays; every term
    s of a meets every term t of b with the same key (ka[s] == kb[t]) and a
    disjoint mask, and their Koszul-signed product goes into entry
    oa[s] + ob[t].  Returns the merged (entry, mask, coef) arrays."""
    order = np.argsort(kb, kind="stable")
    kb = kb[order]
    lo = np.searchsorted(kb, ka, "left")
    cnt = np.searchsorted(kb, ka, "right") - lo
    s = np.repeat(np.arange(len(ka)), cnt)
    t = order[np.arange(len(s)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)]
    keep = (a[0][s] & b[0][t]) == 0
    s, t = s[keep], t[keep]
    m1, m2 = a[0][s], b[0][t]
    coef = a[1][s] * b[1][t]
    return _merge(ngen, oa[s] + ob[t], m1 | m2, np.where(_odd(m1, m2), -coef, coef))


def ge_mul(a, b):
    """Product of two algebra elements with Koszul signs: the kernel on
    1 x 1 matrices."""
    if a.ngen != b.ngen:
        raise ValueError("elements live over different generator universes")
    za, zb = np.zeros(len(a.masks), np.int64), np.zeros(len(b.masks), np.int64)
    _, masks, coefs = _mul(a.ngen, (a.masks, a.coefs), (b.masks, b.coefs), za, zb, za, zb)
    return _element(a.ngen, masks, coefs)


def _conjugate(ngen, mask, coef):
    """Antilinear conjugation of monomials: c z_j1..z_jr goes to
    conj(c) z*_jr..z*_j1, each generator swapped with its partner at index
    +- G/2.  Reversing r generators gives (-1)^(r(r-1)/2); the partners of
    the lower half land in the upper half and keep their order, and those
    of the upper half in the lower, so ordering the result is the Koszul
    sign of (image of the lower half) * (image of the upper half)."""
    half = ngen // 2
    up, down = (mask & ((1 << half) - 1)) << half, mask >> half
    r = np.bitwise_count(mask).astype(np.int64)
    odd = (r * (r - 1) // 2 + _odd(up, down)) & 1
    coef = np.conj(coef)
    return up | down, np.where(odd, -coef, coef)


def ge_conjugate(a):
    """Antilinear conjugation: reverse each monomial and swap every
    generator with its conjugate partner (index +- G/2).  Applied twice
    it is the identity."""
    masks, coefs = _conjugate(a.ngen, a.masks, a.coefs)
    # the swap is a bijection on monomials, so only their order changes
    order = np.argsort(masks)
    return _element(a.ngen, masks[order], coefs[order])


class _Table:
    """A rows x cols matrix of algebra elements as term arrays."""

    __slots__ = ("ngen", "rows", "cols", "entry", "mask", "coef")

    def __init__(self, ngen, rows, cols, entry, mask, coef):
        self.ngen, self.rows, self.cols = ngen, rows, cols
        self.entry, self.mask, self.coef = entry, mask, coef

    def scaled(self, row_w, col_w):
        """diag(row_w) M diag(col_w)."""
        r, c = np.divmod(self.entry, self.cols)
        return _Table(self.ngen, self.rows, self.cols, self.entry, self.mask,
                      np.asarray(row_w)[r] * self.coef * np.asarray(col_w)[c])


def _table(M):
    """Term table of a matrix held as nested lists of elements."""
    flat = [e for row in M for e in row]
    entry = np.repeat(np.arange(len(flat)), [len(e.masks) for e in flat])
    return _Table(flat[0].ngen, len(M), len(M[0]), entry,
                  np.concatenate([e.masks for e in flat]),
                  np.concatenate([e.coefs for e in flat]))


def _nested(T):
    """Nested lists of elements of a merged (entry-sorted) table."""
    cut = np.searchsorted(T.entry, np.arange(T.rows * T.cols + 1))
    return [[_element(T.ngen, T.mask[cut[e]: cut[e + 1]], T.coef[cut[e]: cut[e + 1]])
             for e in range(i * T.cols, (i + 1) * T.cols)] for i in range(T.rows)]


def _matmul(A, B):
    """A @ B: terms pair on the inner index."""
    i, ka = np.divmod(A.entry, A.cols)
    kb, j = np.divmod(B.entry, B.cols)
    return _Table(A.ngen, A.rows, B.cols,
                  *_mul(A.ngen, (A.mask, A.coef), (B.mask, B.coef), ka, kb, i * B.cols, j))


def _trace_product(A, B, signs):
    """sum_i s_i sum_j A_ij B_ji as an element: the kernel restricted to
    diagonal outputs, terms pairing on (i, j)."""
    l, j = np.divmod(B.entry, B.cols)
    A = A.scaled(signs, np.ones(A.cols))
    za, zb = np.zeros(len(A.entry), np.int64), np.zeros(len(B.entry), np.int64)
    _, masks, coefs = _mul(A.ngen, (A.mask, A.coef), (B.mask, B.coef),
                           A.entry, j * B.rows + l, za, zb)
    return _element(A.ngen, masks, coefs)


def _half_powers(T, m_max):
    """[T^0, T^1, ..., T^ceil(m_max/2)], each power one product from the last."""
    if m_max < 1:
        raise ValueError("m must be >= 1")
    n = np.arange(T.rows)
    P = [_Table(T.ngen, T.rows, T.rows, n * T.rows + n, np.zeros(T.rows, np.int64),
                np.ones(T.rows, complex)), T]
    while len(P) <= (m_max + 1) // 2:
        P.append(_matmul(P[-1], T))
    return P


def _trace_power(P, m, signs):
    """sum_i s_i (T^m)_ii from the half powers P of _half_powers:
    sum_i s_i sum_j (T^a)_ij (T^b)_ji, a = ceil(m/2), b = floor(m/2), the
    factors kept in their order."""
    return _trace_product(P[(m + 1) // 2], P[m // 2], signs)


def build_dual_pair(zvals, k, N, L):
    """Build K = A L A^dagger (N x N) and B = L^(1/2) A^dagger A L^(1/2)
    (2k x 2k, boson block first) as nested lists of algebra elements.

    A is the N x 2k matrix [z_1..z_k | zeta_1..zeta_k] and A^dagger its
    graded adjoint: the conjugate transpose with the odd (fermion) rows
    negated.  zvals: exactly k complex vectors of length N; L: sequence
    of k signs, padded with +1 on the fermion side.  The square root of
    a -1 metric entry is taken as +i.
    """
    G = 2 * k * N
    if G > GENERATOR_BUDGET:
        raise ResourceWarning(f"generator count {G} exceeds budget {GENERATOR_BUDGET}")
    L = list(L)
    if len(L) != k or any(s not in (1, -1) for s in L):
        raise ValueError("metric must be k signs in {+1,-1}")
    if len(zvals) != k or any(np.shape(v) != (N,) for v in zvals):
        raise ValueError(f"zvals must be k = {k} vectors of length N = {N}")
    z = np.array([np.asarray(v, dtype=complex) for v in zvals])
    # A[n][p] = z_p[n], A[n][k + p] = zeta_{p,n}
    n, p = np.divmod(np.arange(N * k), k)
    A = _Table(G, N, 2 * k, np.concatenate([n * 2 * k + p, n * 2 * k + k + p]),
               np.concatenate([np.zeros(N * k, np.int64), 1 << (p * N + n)]),
               np.concatenate([z[p, n], np.ones(N * k, complex)]))
    # A^dagger[i][n] = conj(A[n][i]), negated on the fermion rows i >= k
    row, col = np.divmod(A.entry, A.cols)
    Adag = _Table(G, 2 * k, N, col * N + row,
                  *_conjugate(G, A.mask, A.coef)).scaled([1.0] * k + [-1.0] * k, np.ones(N))
    metric = L + [1] * k
    sqrtL = [1.0 if s == 1 else 1j for s in metric]
    K = _matmul(A.scaled(np.ones(N), metric), Adag)
    B = _matmul(Adag, A).scaled(sqrtL, sqrtL)
    return _nested(K), _nested(B)


def tr_power(K, m):
    """Ordinary trace of K^m over the algebra, from half powers."""
    T = _table(K)
    return _trace_power(_half_powers(T, m), m, np.ones(T.rows))


def duality_report(k, N, m_max, seed):
    """(deviations, scale): verify_duality's deviations, and the largest
    coefficient of tr K^m, m = 1..m_max, on which they are round-off."""
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(k)]
    L = [int(s) for s in rng.choice([1, -1], size=k)]
    K, B = (_half_powers(_table(M), m_max) for M in build_dual_pair(z, k, N, L))
    supersigns = [1] * k + [-1] * k
    trK = {m: _trace_power(K, m, np.ones(N)) for m in range(1, m_max + 1)}
    return ({m: (t - _trace_power(B, m, supersigns)).max_abs_coeff() for m, t in trK.items()},
            max(t.max_abs_coeff() for t in trK.values()))


def verify_duality(k, N, m_max, seed):
    """Max coefficient deviation of tr K^m - trg B^m for m = 1..m_max,
    both sides read off the half powers K^j and B^j, j <= ceil(m_max/2)."""
    return duality_report(k, N, m_max, seed)[0]
