"""Rotation invariant matrix densities P(H), their reduced densities on
selected diagonal entries, and characteristic functions with derivative
jets at the origin.

Canonical weight convention: exp(-tr H^2 / scale) with scale = 1 as the
reference Gaussian.  The variance-mixed family uses the 1/(2t) form,
i.e. scale = 2t.
"""

import collections
import itertools
import json
import math

import numpy as np
from numpy.polynomial import hermite as nph

from .special import gauss_poly_derivatives

# bound on M1*M2, checked in characteristic_invariants only: it contracts
# 2^(M1*M2) H/S words, grouped by canonical state.  Above it every
# trace-power quantity (full_moment, normalization_b, evaluate_density,
# reduced_density, correlation_terms) raises ValueError; the only Monte
# Carlo path is the independent check reduced_density(method="mc")
TRACE_POWER_CAP = 12
JET_ORDER_CAP = 64

FAMILIES = ("gaussian", "norm_dependent", "higher_trace")


def flat_gauss_norm(N, s):
    """Integral of exp(-tr H^2 / s) over Hermitean H with the flat
    Lebesgue measure on the independent real entries."""
    return (np.pi * s) ** (N * N / 2.0) / 2.0 ** (N * (N - 1) / 2.0)


class EnsembleSpec:
    """Declarative ensemble: dimension N plus one of the three families.

    gaussian: {scale}; norm_dependent: {spread}; higher_trace: {M1, M2}.
    The spread is a spike ("spike", t0), a table (t array, f array), or a
    callable with optional (lo, hi) support bounds.  Both Gaussian families
    carry spread_nodes, the (t, weight) nodes of the variance mixture
    sum_i w_i exp(-tr H^2 / 2t_i); the Gaussian is the one node t = scale/2.
    """

    def __init__(self, N, family, **params):
        if N < 1:
            raise ValueError("N must be >= 1")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.N = int(N)
        self.family = family
        self.params = params
        self._cache = {}
        if family == "higher_trace":
            M1, M2 = params["M1"], params["M2"]
            if M1 < 0 or M2 < 0:
                raise ValueError("trace powers must be nonnegative integers")
            if M1 == 1 and M2 == 1:
                raise ValueError("M1 = M2 = 1 makes the normalization vanish")
            if M1 % 2 == 1 and M2 % 2 == 1:
                raise ValueError("need M1 even or M2 even for a nonnegative weight")
        else:
            # the Gaussian exp(-tr H^2 / s) is the one-node spread at t = s/2
            self.spread_nodes = _spread_nodes(params["spread"] if family == "norm_dependent"
                                              else ("spike", params["scale"] / 2.0))

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, N, scale=1.0):
        if scale <= 0:
            raise ValueError("scale must be positive")
        return cls(N, "gaussian", scale=float(scale))

    @classmethod
    def norm_dependent(cls, N, spread):
        return cls(N, "norm_dependent", spread=spread)

    @classmethod
    def higher_trace(cls, N, M1, M2):
        return cls(N, "higher_trace", M1=int(M1), M2=int(M2))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        d = {"N": self.N, "family": self.family}
        if self.family == "gaussian":
            d["scale"] = self.params["scale"]
        elif self.family == "higher_trace":
            d["M1"] = self.params["M1"]
            d["M2"] = self.params["M2"]
        else:
            sp = self.params["spread"]
            if isinstance(sp, tuple) and isinstance(sp[0], str) and sp[0] == "spike":
                d["spread"] = {"type": "spike", "t0": sp[1]}
            elif isinstance(sp, tuple) and len(sp) == 2:
                d["spread"] = {"type": "table",
                               "t": list(np.asarray(sp[0], float)),
                               "f": list(np.asarray(sp[1], float))}
            else:
                raise ValueError("callable spreads are not serializable")
        return json.dumps(d)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        fam = d["family"]
        if fam == "gaussian":
            return cls.gaussian(d["N"], d.get("scale", 1.0))
        if fam == "higher_trace":
            # older configs spell out the derived normalization as "b": "auto"
            if d.get("b", "auto") != "auto":
                raise ValueError(f"b = {d['b']!r}: the trace-power normalization is "
                                 "derived from M1, M2 and N; omit b or give \"auto\"")
            return cls.higher_trace(d["N"], d["M1"], d["M2"])
        if fam == "norm_dependent":
            sp = d["spread"]
            if sp["type"] == "spike":
                return cls.norm_dependent(d["N"], ("spike", float(sp["t0"])))
            if sp["type"] == "table":
                return cls.norm_dependent(
                    d["N"], (np.asarray(sp["t"], float), np.asarray(sp["f"], float)))
            raise ValueError(f"unknown spread type {sp['type']!r}")
        raise ValueError(f"unknown family {fam!r}")

    # -- higher-trace moments ----------------------------------------------

    def full_moment(self):
        """Full Gaussian expectation of (tr H^M1)^M2: the constant term of
        characteristic_invariants, at a cost independent of N."""
        return float(np.real(characteristic_invariants(self)[()]))

    def normalization_b(self):
        """b making b (tr H^M1)^M2 exp(-tr H^2) a normalized density."""
        return 1.0 / (self.full_moment() * flat_gauss_norm(self.N, 1.0))


def _spread_nodes(sp):
    """Discrete (t, weight) nodes with sum(w) ~ integral f dt = 1, built
    once per spec as spec.spread_nodes.  Every node is a Gaussian
    component of variance 2t, so a spread reaching t <= 0 is refused."""
    if isinstance(sp, tuple) and isinstance(sp[0], str) and sp[0] == "spike":
        t, w = np.array([sp[1]]), np.array([1.0])
    elif isinstance(sp, tuple) and len(sp) == 2 and not callable(sp[0]) \
            and not isinstance(sp[0], str):
        t = np.asarray(sp[0], float)
        f = np.asarray(sp[1], float)
        if np.any(f < 0):
            raise ValueError("spread must be nonnegative")
        w = np.zeros_like(t)
        dt = np.diff(t)
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
        w *= f
    else:
        func = sp[0] if isinstance(sp, tuple) else sp
        lo, hi = sp[1] if isinstance(sp, tuple) else (0.0, _spread_reach(func))
        x, gw = np.polynomial.legendre.leggauss(256)
        t = 0.5 * (hi - lo) * (x + 1.0) + lo
        w = 0.5 * (hi - lo) * gw * np.array([func(v) for v in t])
    if np.any(t <= 0):
        raise ValueError(f"spread reaches t = {t.min():.3g}; every component "
                         "exp(-tr H^2 / 2t) needs t > 0")
    total = float(np.sum(w))
    if callable(sp) and total < 1e-6:
        raise ValueError(f"the support search found no mass of the spread on [0, {hi:g}] "
                         "(it stops where f first falls below 1e-12); pass the spread "
                         "as (f, (lo, hi))")
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"spread integrates to {total}, not 1")
    return t, w


def _spread_reach(func):
    hi = 1.0
    while func(hi) > 1e-12 and hi < 1e6:
        hi *= 2.0
    return hi


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------

def evaluate_density(spec, H):
    """Pointwise P(H), normalized, for a Hermitean matrix H."""
    H = np.asarray(H, dtype=complex)
    if H.shape != (spec.N, spec.N) or np.max(np.abs(H - H.conj().T)) > 1e-12:
        raise ValueError("H must be Hermitean of dimension N")
    tr2 = float(np.real(np.trace(H @ H)))
    if spec.family == "higher_trace":
        M1, M2 = spec.params["M1"], spec.params["M2"]
        ev = np.linalg.eigvalsh(H)
        return spec.normalization_b() * np.sum(ev ** M1) ** M2 * np.exp(-tr2)
    t, w = spec.spread_nodes
    return float(np.sum(w * np.exp(-tr2 / (2 * t)) / flat_gauss_norm(spec.N, 2 * t)))


def reduced_terms(spec, k):
    """Separable expansion of the reduced density on 2k diagonals:
    P^red(h) = sum_terms coef * prod_j (pi v_j)^(-1/2) e^(-h_j^2/v_j) h_j^(m_j),
    returned as a list of (real coef, [(v_j, m_j)] * 2k).

    For the trace-power family this is the marginal of
    _trace_power_slot_terms (sign +1 and phase i^a on every slot), derived
    from characteristic_invariants at a cost independent of N; its
    coefficients are real up to round-off, which is checked, and terms
    that cancel to round-off are dropped."""
    if spec.family != "higher_trace":
        t, w = spec.spread_nodes
        return [(wi, [(2.0 * ti, 0)] * (2 * k)) for ti, wi in zip(t.tolist(), w.tolist())]
    key = ("reduced_terms", k)
    if key not in spec._cache:
        terms = _trace_power_slot_terms(spec, k, graded=False)
        tol = 1e-12 * max(abs(c) for c, _ in terms)
        if max(abs(c.imag) for c, _ in terms) > tol:
            raise ArithmeticError("trace-power marginal came out complex")
        # terms that cancel exactly come out as round-off; drop them
        spec._cache[key] = [(float(c.real), slots) for c, slots in terms
                            if abs(c.real) > tol]
    return spec._cache[key]


def _least_rotation(w):
    return min(w[i:] + w[:i] for i in range(len(w))) if w else w


def _wick_trace_words(words, memo):
    """Contract all Gaussian letters 'H' inside a sorted tuple of cyclic
    trace words over the alphabet {'H', 'S'}, each at its least rotation,
    using E[H_ab H_cd] = d_ad d_bc / 2.

    A same-trace pairing splits the word, tr(U H V H) -> (1/2) tr(U) tr(V);
    a cross-trace pairing merges, tr(U H) tr(V1 H V2) -> (1/2) tr(U V2 V1).
    Returns {sorted tuple of surviving (all-'S') word lengths: coefficient}.
    Every state reached is put in the same canonical form and contracted
    once per memo; the coefficients are integers times powers of 1/2."""
    if words in memo:
        return memo[words]
    wi = next((i for i, w in enumerate(words) if "H" in w), None)
    if wi is None:
        memo[words] = res = {tuple(len(w) for w in words): 1.0}
        return res
    hpos = words[wi].index("H")
    w = words[wi][hpos + 1:] + words[wi][:hpos]
    rest = words[:wi] + words[wi + 1:]
    children = [(w[:p], w[p + 1:]) + rest for p, ch in enumerate(w) if ch == "H"]
    children += [(w + r[p + 1:] + r[:p],) + rest[:rj] + rest[rj + 1:]
                 for rj, r in enumerate(rest) for p, ch in enumerate(r) if ch == "H"]
    res = {}
    for child in children:
        state = tuple(sorted(_least_rotation(c) for c in child))
        for lens, c in _wick_trace_words(state, memo).items():
            res[lens] = res.get(lens, 0.0) + 0.5 * c
    memo[words] = res
    return res


def characteristic_invariants(spec):
    """Invariant expansion of the trace-power characteristic function.

    For the weight (tr H^M1)^M2 exp(-tr H^2) the characteristic function
    is exp(-tr K^2/4) times the shifted Gaussian average
    E[(tr (H + iK/2)^M1)^M2], a polynomial in the invariants tr K^j.
    Returns {sorted tuple of trace orders: complex coefficient}; empty
    traces contribute factors of N and each tr K^j carries (i/2)^j.
    The expansion is not normalized; the constant term is the full
    moment E[(tr H^M1)^M2].  The 2^(M1*M2) H/S choices of the binomial
    expansion are grouped by canonical state before contraction.  This is
    the one place TRACE_POWER_CAP is checked, so every trace-power
    quantity raises above it."""
    key = "char_inv"
    if key in spec._cache:
        return spec._cache[key]
    M1, M2 = spec.params["M1"], spec.params["M2"]
    if M1 * M2 > TRACE_POWER_CAP:
        raise ValueError(f"M1*M2 = {M1 * M2} exceeds cap {TRACE_POWER_CAP}")
    if M1 == 0 or M2 == 0:
        res = {(): complex(spec.N) ** M2 if M1 == 0 else 1.0 + 0j}
        spec._cache[key] = res
        return res
    states = collections.Counter(
        tuple(sorted(_least_rotation("".join(c)) for c in combo))
        for combo in itertools.product(itertools.product("HS", repeat=M1), repeat=M2))
    memo = {}
    raw = {}
    for state, mult in states.items():
        for lens, c in _wick_trace_words(state, memo).items():
            raw[lens] = raw.get(lens, 0.0) + mult * c
    res = {}
    for lens, c in raw.items():
        coef = complex(c)
        js = []
        for L in lens:
            if L == 0:
                coef *= spec.N
            else:
                coef *= (0.5j) ** L
                js.append(L)
        k2 = tuple(sorted(js))
        res[k2] = res.get(k2, 0.0) + coef
    spec._cache[key] = res
    return res


def correlation_terms(spec, k):
    """Separable slot expansion consumed by the correlation routes.

    For the Gaussian and variance-mixed families this coincides with
    reduced_terms.  For the trace-power family the plain diagonal
    marginal is not the right convolution partner: the routes need the
    graded-trace form of the characteristic function, in which each
    invariant tr K^j becomes sum_p r_{p1}^j - sum_p r_{p2}^j, and a slot
    monomial r^a comes back as i^a on first-block slots and (-1)^a on
    second-block slots (see _trace_power_slot_terms).  The odd-derivative
    terms are exactly where this differs from the marginal; for densities
    even in every second-block diagonal the two expansions agree."""
    if spec.family != "higher_trace":
        return reduced_terms(spec, k)
    key = ("corr_terms", k)
    if key not in spec._cache:
        spec._cache[key] = _trace_power_slot_terms(spec, k, graded=True)
    return spec._cache[key]


def _slot_polynomial(spec, k, graded):
    """The invariant polynomial of characteristic_invariants on 2k diagonal
    sources r_1..r_2k, normalized by the full moment: each tr K^j is spread
    over the slots as sum_s sign_s r_s^j, with sign +1 on every slot for
    the marginal (graded=False) and -1 on the second k slots for the graded
    form.  Returns {exponent tuple: complex coefficient}, cached on spec."""
    key = ("slot_poly", k, graded)
    if key in spec._cache:
        return spec._cache[key]
    inv = characteristic_invariants(spec)
    pi0 = inv.get((), 0.0)
    nslots = 2 * k
    acc = {}
    for js, c in inv.items():
        cur = {(0,) * nslots: c / pi0}
        for j in js:
            nxt = {}
            for e, v in cur.items():
                for s in range(nslots):
                    e2 = e[:s] + (e[s] + j,) + e[s + 1:]
                    nxt[e2] = nxt.get(e2, 0j) + (-v if graded and s >= k else v)
            cur = nxt
        for e, v in cur.items():
            acc[e] = acc.get(e, 0j) + v
    spec._cache[key] = acc
    return acc


def _trace_power_slot_terms(spec, k, graded):
    """Slot expansion of the trace-power characteristic function, carried
    back to the diagonal variables: each monomial r^a of _slot_polynomial
    times the Gaussian factor e^(-r^2/4) is inverse-transformed to
    phase_a q_a(h) e^(-h^2) / sqrt(pi), with q_a the polynomial part of the
    a-th derivative of e^(-h^2).  The marginal (graded=False) is the plain
    inverse Fourier transform of E[exp(i tr HK)]: phase i^a on every slot.
    The graded form (graded=True) takes phase (-1)^a on the second k
    slots.  Returns [(complex coef, [(1.0, m_s)] * 2k)]; the cost does not
    depend on N."""
    qcache = {}

    def qpoly(a):
        if a not in qcache:
            qcache[a] = gauss_poly_derivatives(0, a)[a]
        return qcache[a]

    terms = {}
    for e, v in _slot_polynomial(spec, k, graded).items():
        if v == 0:
            continue
        options = []
        for s, a in enumerate(e):
            phase = (-1.0) ** a if graded and s >= k else (1j) ** a
            q = qpoly(a)
            options.append([(phase * q[m], m) for m in range(len(q)) if q[m] != 0.0])
        for pick in itertools.product(*options):
            coef = v
            ms = []
            for c2, m in pick:
                coef *= c2
                ms.append(m)
            keym = tuple(ms)
            terms[keym] = terms.get(keym, 0j) + coef
    return [(c, [(1.0, m) for m in ms]) for ms, c in terms.items() if c != 0]


def reduced_density(spec, h, k, method="closed-form", samples=None, seed=0):
    """P^red on the 2k selected diagonal entries; returns (value, error)."""
    h = np.asarray(h, dtype=float)
    if len(h) != 2 * k:
        raise ValueError("h must have length 2k")
    if 2 * k > spec.N:
        raise ValueError("need 2k <= N")
    if method == "mc":
        return _reduced_density_mc(spec, h, k, samples, seed)
    if method != "closed-form":
        raise ValueError(f"unknown method {method!r}")
    total = 0.0
    for coef, slots in reduced_terms(spec, k):
        p = coef
        for hj, (v, m) in zip(h, slots):
            p *= (np.pi * v) ** -0.5 * np.exp(-hj * hj / v) * hj ** m
        total += p
    return float(total), 0.0


def _trace_power(H, M):
    """tr H^M of a stack of Hermitean matrices without an eigensolve:
    tr H^(2a) = tr(H^a H^a), tr H^(2a+1) = tr(H^(a+1) H^a)."""
    if M < 2:
        return np.einsum('sii->s', H).real if M else np.full(len(H), float(H.shape[-1]))
    Ha = H
    for _ in range(M // 2 - 1):
        Ha = Ha @ H
    return np.einsum('sij,sji->s', Ha @ H if M % 2 else Ha, Ha).real


def _reduced_density_mc(spec, h, k, samples, seed):
    """Integrate the complement variables by sampling them from the
    exp(-tr H^2) Gaussian and averaging the conditional weight."""
    if samples is None or samples < 10 ** 3:
        raise ValueError("mc needs at least 10^3 samples")
    if spec.family != "higher_trace":
        raise ValueError("the Monte Carlo check of reduced_density needs a trace-power "
                         "spec; a Gaussian mixture has only its closed form")
    gauss = np.prod(np.pi ** -0.5 * np.exp(-h * h))
    from .mc import gaussian_matrices
    M1, M2 = spec.params["M1"], spec.params["M2"]
    rng = np.random.default_rng(seed)
    vals = np.empty(samples)
    chunk = 20000
    ii = np.arange(2 * k)
    for s in range(0, samples, chunk):
        Hm = gaussian_matrices(rng, spec.N, min(chunk, samples - s))
        Hm[:, ii, ii] = h
        vals[s: s + chunk] = _trace_power(Hm, M1) ** M2
    mean = float(np.mean(vals))
    err = float(np.std(vals) / np.sqrt(samples))
    full = spec.full_moment()
    return gauss * mean / full, gauss * err / full


# ---------------------------------------------------------------------------
# Characteristic function and jets
# ---------------------------------------------------------------------------

def jet_mul(a, b, order):
    """Truncated product of Taylor coefficient arrays."""
    out = np.zeros(order + 1, dtype=complex)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        hi = min(len(b), order + 1 - i)
        out[i: i + hi] += ai * np.asarray(b[:hi], dtype=complex)
    return out


def slot_phi(v, m, r):
    """Fourier transform of the normalized slot weight:
    integral (pi v)^(-1/2) e^(-h^2/v) h^m e^(ihr) dh
    = v^(m/2) (i/2)^m H_m(sqrt(v) r / 2) e^(-v r^2 / 4)."""
    r = np.asarray(r, dtype=complex)
    u = np.sqrt(v) * r / 2.0
    c = np.zeros(m + 1)
    c[m] = 1.0
    hm = nph.hermval(u, c)
    return v ** (m / 2.0) * (0.5j) ** m * hm * np.exp(-v * r * r / 4.0)


def slot_phi_jet(v, m, order):
    """Taylor coefficients of slot_phi(v, m, r) in r at 0."""
    if order > JET_ORDER_CAP:
        raise ValueError(f"jet order {order} exceeds cap {JET_ORDER_CAP}")
    # H_m(sqrt(v) r / 2) as ascending powers of r
    hc = nph.herm2poly([0.0] * m + [1.0]) if m else np.array([1.0])
    poly = np.array([hc[j] * (np.sqrt(v) / 2.0) ** j for j in range(len(hc))],
                    dtype=complex)
    # e^(-v r^2/4) series
    g = np.zeros(order + 1, dtype=complex)
    for j in range(0, order + 1, 2):
        g[j] = (-v / 4.0) ** (j // 2) / math.factorial(j // 2)
    out = jet_mul(poly, g, order)
    return v ** (m / 2.0) * (0.5j) ** m * out


def characteristic_function(spec, r1, r2_jet_order):
    """Fourier transform of the reduced density, evaluated at the first-slot
    arguments r1 with all second-slot arguments at 0; returns
    (value, [complex Taylor coefficient array per second-slot variable]).

    Every family is a sum of terms c prod_s r_s^(e_s) e^(-v r_s^2/4) over
    the 2k source slots: (w_i, 2t_i, 0) for each node of a Gaussian
    mixture, (c, 1, e) for each monomial of the trace-power slot
    polynomial (tr K^j read as sum_s r_s^j)."""
    r1 = np.asarray(r1, dtype=float)
    k = len(r1)
    order = r2_jet_order
    if spec.family == "higher_trace":
        terms = [(c, 1.0, e) for e, c in _slot_polynomial(spec, k, False).items()]
    else:
        t, w = spec.spread_nodes
        terms = [(wi, 2.0 * ti, (0,) * (2 * k)) for ti, wi in zip(t.tolist(), w.tolist())]
    value = 0j
    jets = [np.zeros(order + 1, dtype=complex) for _ in range(k)]
    gauss = {}
    for c, v, e in terms:
        # t^a e^(-v t^2/4) vanishes at t = 0 unless a = 0: a term with one
        # a_p > 0 reaches only jet p, as the Gaussian series shifted by a_p
        live = [p for p in range(k) if e[k + p]]
        if len(live) > 1:
            continue
        if v not in gauss:
            gauss[v] = np.exp(-v * np.sum(r1 * r1) / 4.0), slot_phi_jet(v, 0, order)
        damp, series = gauss[v]
        base = c * damp * math.prod(r ** a for r, a in zip(r1.tolist(), e))
        if not live:
            value += base
        for p in live or range(k):
            a = e[k + p]
            jets[p][a:] += base * series[: max(order + 1 - a, 0)]
    return complex(value), jets


def superspace_density_norm_dependent(spec, s):
    """Q(s) = integral f(t) 2^(k(k-1)) exp(-(1/2t) trg s^2) dt for the
    variance-mixed family, with trg s^2 = sum s1^2 + sum s2^2 under the
    rotated second-block convention.  s holds the 2k eigenvalues."""
    if spec.family != "norm_dependent":
        raise ValueError("spec must be norm_dependent")
    s = np.asarray(s, dtype=float)
    if len(s) % 2:
        raise ValueError("s must have even length 2k")
    k = len(s) // 2
    trg2 = float(np.sum(s * s))
    t, w = spec.spread_nodes
    return float(2.0 ** (k * (k - 1)) * np.sum(w * np.exp(-trg2 / (2.0 * t))))
