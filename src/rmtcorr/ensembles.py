"""Rotation invariant matrix densities P(H), their reduced densities on
selected diagonal entries, and characteristic functions with derivative
jets at the origin.

Canonical weight convention: exp(-tr H^2 / scale) with scale = 1 as the
reference Gaussian.  The variance-mixed family uses the 1/(2t) form,
i.e. scale = 2t.
"""

import itertools
import json
import math

import numpy as np
from numpy.polynomial import hermite as nph

from .special import _factorials, _read_only, gauss_poly_derivatives

# bound on M1*M2, checked in characteristic_invariants only: _heat_series
# is exact at any degree, but the cancellation in the term sums of
# correlation_terms is not measured above 12.  Above it every
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
    callable with optional (lo, hi) support bounds.  Past construction
    every family is read through one description: the variance mixture
    sum_i w_i exp(-tr H^2 / 2t_i) over spread_nodes (t, w), times
    (tr H^M1)^M2 with trace_power = (M1, M2), which is (0, 0) for a
    mixture.  The Gaussian is the one node t = scale/2, a trace power the
    one node t = 1/2.
    """

    def __init__(self, N, family, **params):
        N = _whole("N", N)
        if N < 1:
            raise ValueError("N must be >= 1")
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        self.N = N
        self.family = family
        self.params = params
        self._cache = {}
        self.trace_power = (0, 0)
        if family == "higher_trace":
            params["M1"], params["M2"] = _whole("M1", params["M1"]), _whole("M2", params["M2"])
            M1, M2 = self.trace_power = params["M1"], params["M2"]
            if M1 < 0 or M2 < 0:
                raise ValueError("trace powers must be nonnegative integers")
            if M1 == 1 and M2 == 1:
                raise ValueError("M1 = M2 = 1 makes the normalization vanish")
            if M1 % 2 == 1 and M2 % 2 == 1:
                raise ValueError("need M1 even or M2 even for a nonnegative weight")
            spread = ("spike", 0.5)
        elif family == "gaussian":
            spread = ("spike", params["scale"] / 2.0)
        else:
            spread = params["spread"]
        self.spread_nodes, self._spread_doc = _spread_nodes(spread)

    # -- constructors -------------------------------------------------------

    @classmethod
    def gaussian(cls, N, scale=1.0):
        if not 0 < scale < np.inf:
            raise ValueError(f"scale must be positive and finite, got {scale!r}")
        return cls(N, "gaussian", scale=float(scale))

    @classmethod
    def norm_dependent(cls, N, spread):
        return cls(N, "norm_dependent", spread=spread)

    @classmethod
    def higher_trace(cls, N, M1, M2):
        return cls(N, "higher_trace", M1=M1, M2=M2)

    # -- serialization ------------------------------------------------------

    def to_json(self):
        d = {"N": self.N, "family": self.family, **self.params}
        if self.family == "norm_dependent":
            if self._spread_doc is None:
                raise ValueError("callable spreads are not serializable")
            d["spread"] = self._spread_doc
        return json.dumps(d)

    @classmethod
    def from_json(cls, text):
        """The spec of a to_json document, built by the family's named
        constructor, so that a key the family does not take raises TypeError."""
        d = _json_object(json.loads(text), "an ensemble config")
        N, fam = d.pop("N"), d.pop("family")
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        # older configs spell out the derived normalization as "b": "auto"
        if fam == "higher_trace" and (b := d.pop("b", "auto")) != "auto":
            raise ValueError(f"b = {b!r}: the trace-power normalization is "
                             "derived from M1, M2 and N; omit b or give \"auto\"")
        if fam == "norm_dependent":
            sp = _json_object(d.pop("spread"), "the spread")
            kind = sp.pop("type")
            if kind == "spike":
                d["spread"] = ("spike", float(sp.pop("t0")))
            elif kind == "table":
                d["spread"] = (np.asarray(sp.pop("t"), float), np.asarray(sp.pop("f"), float))
            else:
                raise ValueError(f"unknown spread type {kind!r}")
            if sp:
                raise TypeError(f"a {kind} spread takes no {', '.join(sp)}")
        return getattr(cls, fam)(N, **d)

    # -- higher-trace moments ----------------------------------------------

    def full_moment(self):
        """Full Gaussian expectation of (tr H^M1)^M2: the constant term of
        characteristic_invariants, at a cost independent of N."""
        return float(np.real(characteristic_invariants(self)[()]))

    def normalization_b(self):
        """b making b (tr H^M1)^M2 exp(-tr H^2) a normalized density."""
        return 1.0 / (self.full_moment() * flat_gauss_norm(self.N, 1.0))


def _json_object(doc, what):
    if not isinstance(doc, dict):
        raise TypeError(f"{what} must be a JSON object, got {doc!r}")
    return doc


def _whole(name, x):
    """x as an int, refusing a value that int() would truncate."""
    if int(x) != x:
        raise ValueError(f"{name} = {x!r} is not an integer")
    return int(x)


def _spread_nodes(sp):
    """Discrete (t, weight) nodes with sum(w) ~ integral f dt = 1, built
    once per spec as spec.spread_nodes, and the spread's JSON document
    (None for a callable): the one place that tells a spike, a table and a
    callable apart.  Every node is a Gaussian component of variance 2t with
    a probability weight, so a spread with a non-finite node or weight, a
    node at t <= 0 or a negative weight is refused, whatever its kind."""
    if isinstance(sp, tuple) and isinstance(sp[0], str) and sp[0] == "spike":
        t, w = np.array([sp[1]]), np.array([1.0])
        doc = {"type": "spike", "t0": sp[1]}
    elif isinstance(sp, tuple) and len(sp) == 2 and not callable(sp[0]) \
            and not isinstance(sp[0], str):
        t = np.asarray(sp[0], float)
        f = np.asarray(sp[1], float)
        dt = np.diff(t)
        if t.ndim != 1 or t.shape != f.shape or np.any(dt <= 0):
            raise ValueError("a table spread needs strictly increasing t and f of its length")
        w = np.zeros_like(t)
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
        w *= f
        doc = {"type": "table", "t": t.tolist(), "f": f.tolist()}
    else:
        func = sp[0] if isinstance(sp, tuple) else sp
        lo, hi = sp[1] if isinstance(sp, tuple) else (0.0, _spread_reach(func))
        x, gw = np.polynomial.legendre.leggauss(256)
        t = 0.5 * (hi - lo) * (x + 1.0) + lo
        w = 0.5 * (hi - lo) * gw * np.array([func(v) for v in t])
        doc = None
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
        raise ValueError("the spread has a node or weight that is nan or inf")
    if np.any(t <= 0):
        raise ValueError(f"spread reaches t = {t.min():.3g}; every component "
                         "exp(-tr H^2 / 2t) needs t > 0")
    if np.any(w < 0):
        raise ValueError(f"spread must be nonnegative: a node weight is {w.min():.3g}")
    total = float(np.sum(w))
    if callable(sp) and total < 1e-6:
        raise ValueError(f"the support search found no mass of the spread on [0, {hi:g}] "
                         "(it stops where f first falls below 1e-12); pass the spread "
                         "as (f, (lo, hi))")
    if abs(total - 1.0) > 1e-6:
        raise ValueError(f"spread integrates to {total}, not 1")
    return (t, w), doc


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
    M1, M2 = spec.trace_power
    t, w = spec.spread_nodes
    mix = np.sum(w * np.exp(-tr2 / (2 * t)) / flat_gauss_norm(spec.N, 2 * t))
    return float(_trace_power(H[None], M1)[0] ** M2 / spec.full_moment() * mix)


def reduced_terms(spec, k):
    """Separable expansion of the reduced density on 2k diagonals:
    P^red(h) = sum_terms coef * prod_j (pi v_j)^(-1/2) e^(-h_j^2/v_j) h_j^(m_j),
    returned as a list of (real coef, [(v_j, m_j)] * 2k): the marginal
    form of _slot_terms (sign +1 and phase i^a on every slot).  Its
    coefficients are real up to round-off, which is checked, and terms
    that cancel to round-off are dropped."""
    return _slot_terms(spec, k, graded=False)


def _heat_series(lam, N):
    """E[p_lam(A + H)] under exp(-tr H^2) as a polynomial in the power sums
    p_j = tr A^j of an N x N matrix A: the heat series exp(Delta/4) p_lam,
    Delta = sum_ab d/dA_ab d/dA_ba, which cuts each part m into
    m sum_{j=0}^{m-2} p_j p_{m-2-j} and joins each pair of parts p, q into
    2 p q p_{p+q-2}, with p_0 = N (Goulden & Jackson, Proc. AMS 125 (1997)
    51).  Delta lowers the degree by 2, so the series ends after |lam|/2
    steps.  Delta^t contracts t ordered letter pairs, so its integer
    coefficients are divisible by 2^t t!: the t-th term is divided exactly
    by t!, then by 4^t, its one rounding.
    Returns {sorted tuple of nonzero parts: float coefficient}."""
    def put(acc, parts, c):
        key = tuple(sorted(p for p in parts if p))
        acc[key] = acc.get(key, 0) + c * N ** (len(parts) - len(key))

    term, res, t = {}, {}, 0
    put(term, lam, 1)
    while term:
        nxt = {}
        for parts, c in term.items():
            res[parts] = c // math.factorial(t) / 4 ** t
            for i, m in enumerate(parts):
                rest = parts[:i] + parts[i + 1:]
                for j in range(m - 1):
                    put(nxt, rest + (j, m - 2 - j), m * c)
                for r in range(i, len(rest)):
                    put(nxt, rest[:r] + rest[r + 1:] + (m + rest[r] - 2,), 2 * m * rest[r] * c)
        term, t = nxt, t + 1
    return res


def characteristic_invariants(spec):
    """Invariant expansion of the trace-power characteristic function.

    For the weight (tr H^M1)^M2 exp(-tr H^2) the characteristic function
    is exp(-tr K^2/4) times the shifted Gaussian average
    E[(tr (H + iK/2)^M1)^M2], a polynomial in the invariants tr K^j.
    Returns {sorted tuple of trace orders: complex coefficient}; each
    tr K^j carries (i/2)^j.  The average is the heat series of
    _heat_series at A = iK/2, exact in integers up to its one division by
    4^t.  The expansion is not normalized; the constant term is the full
    moment E[(tr H^M1)^M2].  This is the one place TRACE_POWER_CAP is
    checked, so every trace-power quantity raises above it."""
    key = "char_inv"
    if key in spec._cache:
        return spec._cache[key]
    M1, M2 = spec.trace_power
    if M1 * M2 > TRACE_POWER_CAP:
        raise ValueError(f"M1*M2 = {M1 * M2} exceeds cap {TRACE_POWER_CAP}")
    spec._cache[key] = res = {parts: c * 0.5j ** sum(parts)
                              for parts, c in _heat_series((M1,) * M2, spec.N).items()}
    return res


def correlation_terms(spec, k):
    """Separable slot expansion consumed by the correlation routes: the
    graded form of _slot_terms.

    The plain diagonal marginal (reduced_terms) is not the right
    convolution partner: the routes need the graded-trace form of the
    characteristic function, in which each invariant tr K^j becomes
    sum_p r_{p1}^j - sum_p r_{p2}^j, and a slot monomial r^a comes back as
    i^a on first-block slots and (-1)^a on second-block slots.  The
    odd-derivative terms are exactly where this differs from the marginal;
    for densities even in every second-block diagonal, every Gaussian
    mixture among them, the two expansions agree."""
    return _slot_terms(spec, k, graded=True)


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


def _slot_terms(spec, k, graded):
    """Slot expansion of the characteristic function, carried back to the
    diagonal variables: each monomial r^a of _slot_polynomial times the
    Gaussian factor e^(-r^2/4) is inverse-transformed to
    phase_a q_a(h) e^(-h^2) / sqrt(pi), with q_a the polynomial part of the
    a-th derivative of e^(-h^2).  The marginal (graded=False) is the plain
    inverse Fourier transform of E[exp(i tr HK)]: phase i^a on every slot;
    its coefficients must come out real, and those that cancel to
    round-off are dropped.  The graded form (graded=True) takes phase
    (-1)^a on the second k slots.  Each spread node (t, w) then carries
    every term at slot variance v = 2t with weight w: the slot polynomial,
    that of exp(-tr H^2), is the constant 1 unless the spread is the one
    node t = 1/2.  Returns [(coef, [(v_s, m_s)] * 2k)], cached on spec;
    the cost does not depend on N."""
    key = ("slot_terms", k, graded)
    if key in spec._cache:
        return spec._cache[key]
    poly = _slot_polynomial(spec, k, graded)
    qs = gauss_poly_derivatives(0, max(map(max, poly)))
    terms = {}
    for e, v in poly.items():
        if v == 0:
            continue
        options = []
        for s, a in enumerate(e):
            phase = (-1.0) ** a if graded and s >= k else (1j) ** a
            q = qs[a]
            options.append([(phase * q[m], m) for m in range(len(q)) if q[m] != 0.0])
        for pick in itertools.product(*options):
            coef = v
            ms = []
            for c2, m in pick:
                coef *= c2
                ms.append(m)
            keym = tuple(ms)
            terms[keym] = terms.get(keym, 0j) + coef
    unit = [(c, ms) for ms, c in terms.items() if c != 0]
    if not graded:
        tol = 1e-12 * max(abs(c) for c, _ in unit)
        if max(abs(c.imag) for c, _ in unit) > tol:
            raise ArithmeticError("trace-power marginal came out complex")
        # terms that cancel exactly come out as round-off; drop them
        unit = [(float(c.real), ms) for c, ms in unit if abs(c.real) > tol]
    t, w = spec.spread_nodes
    spec._cache[key] = res = [(wi * c, [(2.0 * ti, m) for m in ms])
                              for ti, wi in zip(t.tolist(), w.tolist()) for c, ms in unit]
    return res


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
    exp(-tr H^2) Gaussian and averaging the conditional weight.  The 2k
    diagonal entries h are fixed in every matrix and never drawn, so a
    sample takes N^2 - 2k normals, drawn a tile at a time
    (gaussian_tiles)."""
    if samples is None or samples < 10 ** 3:
        raise ValueError("mc needs at least 10^3 samples")
    M1, M2 = spec.trace_power
    if M1 * M2 == 0:
        raise ValueError("the Monte Carlo check of reduced_density needs a trace-power "
                         "spec; a Gaussian mixture has only its closed form")
    gauss = np.prod(np.pi ** -0.5 * np.exp(-h * h))
    from .mc import gaussian_tiles, _int_power
    rng = np.random.default_rng(seed)
    vals = np.concatenate([_int_power(_trace_power(Hm, M1), M2)
                           for Hm in gaussian_tiles(rng, spec.N, samples, h)])
    mean = float(np.mean(vals))
    err = float(np.std(vals) / np.sqrt(samples))
    full = spec.full_moment()
    return gauss * mean / full, gauss * err / full


# ---------------------------------------------------------------------------
# Characteristic function and jets
# ---------------------------------------------------------------------------

def jet_mul(a, b, order):
    """Truncated product of Taylor coefficient arrays: out_n is the sum of
    a_i b_(n-i) over i = 0..n, added in ascending i.  Leading axes of a
    (a grid's points) carry through."""
    a = np.asarray(a[..., : order + 1], dtype=complex)
    b = np.asarray(b[: order + 1], dtype=complex)
    # terms[..., i, n] = a_i b_(n-i), with the zero after b where n - i
    # falls outside it; a sum over the i axis adds the rows in order
    terms = a[..., None] * np.append(b, 0)[_jet_mul_index(a.shape[-1], len(b), order)]
    return terms.sum(axis=-2)


@_read_only(64)
def _jet_mul_index(na, nb, order):
    """(na, order + 1) table of n - i, or nb where that falls outside
    0..nb-1, read-only."""
    j = np.arange(order + 1) - np.arange(na)[:, None]
    return np.where((j >= 0) & (j < nb), j, nb)


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


@_read_only(64)
def _slot_phi_poly(v, m):
    """Ascending coefficients a_j of the polynomial part of slot_phi:
    slot_phi(v, m, r) = sum_j a_j r^j e^(-v r^2/4), read-only."""
    hc = _hermite_coefficients(m)
    return v ** (m / 2.0) * (0.5j) ** m * hc * (np.sqrt(v) / 2.0) ** np.arange(m + 1)


@_read_only(32)
def _hermite_coefficients(m):
    """Ascending monomial coefficients of H_m, read-only."""
    return nph.herm2poly([0.0] * m + [1.0]) if m else np.array([1.0])


def slot_phi_jet(v, m, order):
    """Taylor coefficients of slot_phi(v, m, r) in r at 0."""
    if order > JET_ORDER_CAP:
        raise ValueError(f"jet order {order} exceeds cap {JET_ORDER_CAP}")
    # e^(-v r^2/4) series
    g = np.zeros(order + 1, dtype=complex)
    for j in range(0, order + 1, 2):
        g[j] = (-v / 4.0) ** (j // 2) / math.factorial(j // 2)
    return jet_mul(_slot_phi_poly(v, m), g, order)


def characteristic_function(spec, r1, r2_jet_order):
    """Fourier transform of the reduced density, evaluated at the first-slot
    arguments r1 with all second-slot arguments at 0; returns
    (value, [complex Taylor coefficient array per second-slot variable]).

    Every spec is a sum of terms c prod_s r_s^(e_s) e^(-v r_s^2/4) over
    the 2k source slots: (w_i c, 2t_i, e) for each spread node (t_i, w_i)
    and each monomial c r^e of the slot polynomial (tr K^j read as
    sum_s r_s^j), as in _slot_terms."""
    r1 = np.asarray(r1, dtype=float)
    k = len(r1)
    order = r2_jet_order
    if order > JET_ORDER_CAP:
        raise ValueError(f"jet order {order} exceeds cap {JET_ORDER_CAP}")
    t, w = spec.spread_nodes
    v = 2.0 * t
    # per node: its weight times the damping e^(-v |r1|^2/4), and the
    # series of e^(-v r^2/4); each monomial takes all nodes at once
    damp = w * np.exp(-v * np.sum(r1 * r1) / 4.0)
    series = np.zeros((len(v), order + 1))
    series[:, ::2] = (-v[:, None] / 4.0) ** np.arange(order // 2 + 1) / _factorials(order // 2)
    value = 0j
    jets = [np.zeros(order + 1, dtype=complex) for _ in range(k)]
    for e, c in _slot_polynomial(spec, k, False).items():
        # t^a e^(-v t^2/4) vanishes at t = 0 unless a = 0: a term with one
        # a_p > 0 reaches only jet p, as the Gaussian series shifted by a_p
        live = [p for p in range(k) if e[k + p]]
        if len(live) > 1:
            continue
        base = c * math.prod(r ** a for r, a in zip(r1.tolist(), e)) * damp
        if not live:
            value += base.sum()
        for p in live or range(k):
            a = e[k + p]
            jets[p][a:] += base @ series[:, : max(order + 1 - a, 0)]
    return complex(value), jets


def superspace_density_norm_dependent(spec, s):
    """Q(s) = integral f(t) 2^(k(k-1)) exp(-(1/2t) trg s^2) dt for a
    Gaussian mixture, with trg s^2 = sum s1^2 + sum s2^2 under the
    rotated second-block convention.  s holds the 2k eigenvalues."""
    if math.prod(spec.trace_power):
        raise ValueError("the superspace density needs a Gaussian mixture; "
                         "the weight (tr H^M1)^M2 is not constant")
    s = np.asarray(s, dtype=float)
    if len(s) % 2:
        raise ValueError("s must have even length 2k")
    k = len(s) // 2
    trg2 = float(np.sum(s * s))
    t, w = spec.spread_nodes
    return float(2.0 ** (k * (k - 1)) * np.sum(w * np.exp(-trg2 / (2.0 * t))))
