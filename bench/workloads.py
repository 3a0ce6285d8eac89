"""The three benchmark workloads: set-up, seeded inputs, one timed pass,
and the checks of that pass's outputs.

Every pass draws fresh points from (seed, pass index), so no input point
repeats within a run and memoizing results cannot pay; state that the
program keeps across points (spec caches, quadrature nodes) still can.
One caller drives each pass in a closed loop: the next request is sent
when the previous one has returned.

Importing this module imports numpy and rmtcorr; run.py times that
import as part of set-up.
"""

import contextlib
import csv
import io
import os
import time
from functools import partial

import numpy as np

from rmtcorr import cli, engine, ensembles, grassmann, kernels, mc
from rmtcorr.ensembles import EnsembleSpec
from rmtcorr.kernels import IncrementedPoint

import checks as chk
import oracle

FAR_TAIL = 6.5          # |x| where the special-function far-tail branches start
ALL_ROUTES = engine.METHODS
METRICS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

MC_SAMPLES = 100_000
HCIZ_SAMPLES = 50_000
RD_SAMPLES = 20_000
R1_BINS = 80
R2_BINS = 8
PROBES = 16             # host-speed probes mixed into every pass

_PROBE_X = np.linspace(-2.0, 2.0, 64)


def host_probe():
    """A fixed piece of work, about 2 ms, that never calls rmtcorr: a
    Python loop, small numpy calls, a Gauss-Hermite rule and a batch of
    4 x 4 eigenvalue problems with a histogram, weighted in time like the
    workloads' own mix.  Its time follows the speed of the host only."""
    n = 0
    for i in range(12000):
        n += i * i % 7
    acc = 0.0
    for i in range(60):
        acc += float(np.dot(np.exp(-_PROBE_X ** 2 * (1 + i % 5)), _PROBE_X))
    acc += float(np.sum(np.polynomial.hermite.hermgauss(16)[1]))
    a = np.random.default_rng(n).standard_normal((300, 4, 4))
    ev = np.linalg.eigvalsh(a + a.transpose(0, 2, 1))
    return acc + float(np.histogram(ev.ravel(), bins=40, range=(-6.0, 6.0))[0][0])


class Ops:
    """Counts the calls a pass makes into rmtcorr, records the ones that
    raise, and times every request of the pass and every engine.evaluate
    call, both keyed by the request (its position in the pass, which is
    the same in every pass)."""

    def __init__(self):
        self.attempted = 0
        self.errors = []
        self.key = None
        self.task_s = {}
        self.latencies = {}
        self.probe_s = {}
        self.splits = 0

    def timed(self, key, fn):
        """Run one request of the pass and time it under `key`."""
        self.key = key
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.task_s[key] = time.perf_counter() - t0

    def probe(self, j):
        """Run and time host probe j of the pass."""
        t0 = time.perf_counter()
        host_probe()
        self.probe_s[j] = time.perf_counter() - t0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # a raising call is a failed operation; the pass goes on
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {e!r}")
            return None

    def evaluate(self, spec, xs, sides, variant, method):
        pts = [IncrementedPoint(x, side=s) for x, s in zip(xs, sides)]
        req = engine.CorrelationRequest(spec, len(xs), pts, variant, method)
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = engine.evaluate(req)
        except Exception as e:  # counted, reported, and checked as a failure
            self.errors.append(f"evaluate {method} {variant} {list(xs)}: {e!r}")
            return None
        self.latencies[self.key] = time.perf_counter() - t0
        self.splits += bool(res.metadata.get("coincidence_split"))
        return res.value


def _variants(route):
    return ("Rhat",) if route == "eigenvalue_integral" else ("Rhat", "R")


def _grid(rng, lo, hi, n):
    """n points spaced (hi - lo)/n apart behind a random offset, all in [lo, hi)."""
    h = (hi - lo) / n
    return lo + rng.uniform(0.0, h) + h * np.arange(n)


def _cli_grid(rng, lo, hi, n):
    a, b = rng.uniform(-0.25, 0.25, 2)
    return f"{float(lo + a)!r}:{float(hi + b)!r}:{n}"


def _write_cfg(workdir, name, spec):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(spec.to_json())
    return path


def _run_cli(ops, argv):
    """In-process rmtcorr CLI call: (exit code, stdout text, wall seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = ops.call(cli.main, argv)
    return code, buf.getvalue(), time.perf_counter() - t0


def _run_tasks(ops, tasks, order_seed):
    """Run a pass's requests {key: callable} and PROBES host probes one
    after another in a seeded random order, so that every kind of request
    samples the whole pass rather than one stretch of it (the speed of a
    shared host drifts over seconds).  Returns {key: result}."""
    keys = list(tasks)
    out = {}
    for j in np.random.default_rng(order_seed).permutation(len(keys) + PROBES):
        if j < len(keys):
            out[keys[j]] = ops.timed(keys[j], tasks[keys[j]])
        else:
            ops.probe(j - len(keys))
    return out


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _trace_power_setup(spec, k):
    ensembles.characteristic_invariants(spec)
    spec.normalization_b()
    ensembles.reduced_density(spec, np.full(2 * k, 0.3), k)


def _tail_share(xs):
    xs = np.abs(np.asarray(xs, dtype=float))
    return float(np.mean(np.max(xs.reshape(len(xs), -1), axis=1) >= FAR_TAIL))


# ---------------------------------------------------------------------------
# r1_table: one-point R and Rhat tables
# ---------------------------------------------------------------------------

R1_CASES = {  # case: (spec, grid (lo, hi, count), routes)
    "gauss_n6": ("g6", (-8.0, 8.0, 41), ALL_ROUTES),
    "spike_n4": ("spike", (-6.0, 6.0, 9),
                 ("convolution", "factorized", "eigenvalue_integral")),
    "tp41_n4": ("tp41", (-6.0, 6.0, 9),
                ("convolution", "closed_form_higher_trace", "eigenvalue_integral")),
    "gauss_n32": ("g32", (-12.0, 12.0, 21), ALL_ROUTES),
}
TDOM_X = (-8.0, 8.0, 401)
TDOM_T = (-6.0, 6.0, 121)
R1_CLI = (-4.0, 4.0, 11)
CLI_TABLES = 3


def setup_r1(workdir):
    specs = {"g6": EnsembleSpec.gaussian(6), "g32": EnsembleSpec.gaussian(32),
             "spike": EnsembleSpec.norm_dependent(4, ("spike", 0.4)),
             "tp41": EnsembleSpec.higher_trace(4, 4, 1)}
    for spec in specs.values():
        ensembles.correlation_terms(spec, 1)
    _trace_power_setup(specs["tp41"], 1)
    return {"specs": specs, "cfg": _write_cfg(workdir, "gauss_n6.json", specs["g6"])}


def inputs_r1(seed, i):
    rng = np.random.default_rng([seed, i])
    inp = {case: _grid(rng, *grid) for case, (_, grid, _) in R1_CASES.items()}
    inp["tdom_x"] = _grid(rng, *TDOM_X)
    inp["tdom_t"] = _grid(rng, *TDOM_T)
    inp["cli_grids"] = [_cli_grid(rng, *R1_CLI) for _ in range(CLI_TABLES)]
    inp["order_seed"] = int(rng.integers(2 ** 31))
    return inp


def run_r1(ctx, inp, ops):
    specs = ctx["specs"]
    tasks = {}
    for case, (key, _, routes) in R1_CASES.items():
        for j, x in enumerate(inp[case]):
            for route in routes:
                for variant in _variants(route):
                    tasks[case, j, route, variant] = partial(
                        ops.evaluate, specs[key], [x], [1], variant, route)
    for j, x in enumerate(inp["tdom_x"]):
        tasks["tdom", j] = partial(ops.evaluate, specs["g6"], [x], [1], "Rhat",
                                   "closed_form_gue")
    for c, grid in enumerate(inp["cli_grids"]):
        tasks["cli", c] = partial(_run_cli, ops, [
            "corr", "--ensemble", ctx["cfg"], "--grid", grid,
            "--method", "convolution", "--variant", "R"])
    out = _run_tasks(ops, tasks, inp["order_seed"])
    out["cli"] = [out.pop(("cli", c)) for c in range(CLI_TABLES)]
    rhat = [out.pop(("tdom", j)) for j in range(len(inp["tdom_x"]))]
    out["tdom_rhat"] = rhat
    out["tdom"] = None
    if all(v is not None for v in rhat):
        out["tdom"] = ops.timed("tdom_transform", partial(
            ops.call, engine.time_domain_transform, inp["tdom_x"], np.imag(rhat),
            inp["tdom_t"], "to_time"))
    return out


def check_r1(ctx, inp, out, checks):
    specs = ctx["specs"]
    for case, (key, _, routes) in R1_CASES.items():
        for j, x in enumerate(inp[case]):
            info = dict(workload="r1_table", case=case, xs=[float(x)], sides="+")
            if specs[key].family != "gaussian":
                for variant in ("Rhat", "R"):
                    checks.pairwise({r: out[case, j, r, variant] for r in routes
                                     if variant in _variants(r)}, variant=variant, **info)
                continue
            ref = oracle.gauss_rhat1(specs[key].N, x)
            for route in routes:
                for variant in _variants(route):
                    oracle_check(checks, out[case, j, route, variant],
                                 ref if variant == "Rhat" else ref.imag,
                                 route=route, variant=variant, **info)
    for x, v in zip(inp["tdom_x"], out["tdom_rhat"]):
        oracle_check(checks, v, oracle.gauss_rhat1(6, x), workload="r1_table",
                     case="tdom_gauss_n6", route="closed_form_gue", variant="Rhat",
                     xs=[float(x)], sides="+")
    ok = False
    dev = None
    if out["tdom"] is not None:
        ref = np.array(oracle.gauss_r1_time(6, inp["tdom_t"]))
        dev = float(np.max(np.abs(out["tdom"] - ref)))
        ok = dev <= chk.RTOL * float(np.max(np.abs(ref))) + chk.ATOL
    checks.add(ok, workload="r1_table", case="tdom_transform", kind="oracle",
               xs=[float(inp["tdom_t"][0]), float(inp["tdom_t"][-1])], max_dev=dev)
    for code, text, _ in out["cli"]:
        rows = _csv_rows(text) if code == 0 else []
        checks.add(code == 0 and len(rows) == R1_CLI[2], workload="r1_table",
                   case="cli_gauss_n6", kind="cli", xs=[], exit_code=code, rows=len(rows))
        for row in rows:
            x = float(row["x1"])
            oracle_check(checks, float(row["value_re"]), oracle.gauss_r1(6, x)[1],
                         workload="r1_table", case="cli_gauss_n6", route="convolution",
                         variant="R", xs=[x], sides="+")


def oracle_check(checks, value, ref, **info):
    ok = value is not None and chk.close(value, ref)
    checks.add(ok, kind="oracle", value=chk.show(value), ref=chk.show(ref), **info)


def props_r1(ctx, inp, out):
    specs = ctx["specs"]
    props = {}
    for case, (key, _, routes) in R1_CASES.items():
        props[case] = {"points": len(inp[case]), "k": 1, "N": specs[key].N,
                       "routes": len(routes), "far_tail_share": _tail_share(inp[case]),
                       "terms": len(ensembles.correlation_terms(specs[key], 1))}
    props["tdom_gauss_n6"] = {"points": len(inp["tdom_x"]), "k": 1, "N": 6,
                              "far_tail_share": _tail_share(inp["tdom_x"]),
                              "times": len(inp["tdom_t"])}
    props["cli_gauss_n6"] = {"tables": CLI_TABLES, "points": R1_CLI[2], "k": 1, "N": 6,
                             "grids": inp["cli_grids"]}
    return props


# ---------------------------------------------------------------------------
# r2_table: two-point Rhat and R on square grids, all four metrics
# ---------------------------------------------------------------------------

R2_ROUTES = {"gauss_n6": ALL_ROUTES,
             "tp41_n4": ("convolution", "closed_form_higher_trace", "eigenvalue_integral")}
R2_CLI = (-3.0, 3.0, 3)
R2_CLI_TABLES = 2


def setup_r2(workdir):
    specs = {"gauss_n6": EnsembleSpec.gaussian(6),
             "tp41_n4": EnsembleSpec.higher_trace(4, 4, 1)}
    for spec in specs.values():
        ensembles.correlation_terms(spec, 2)
    _trace_power_setup(specs["tp41_n4"], 2)
    return {"specs": specs, "cfg": _write_cfg(workdir, "gauss_n6.json", specs["gauss_n6"])}


def inputs_r2(seed, i):
    """Gaussian: a 2 x 2 grid, every point under all four metrics.  Trace
    power: one off-diagonal point under ++ and one diagonal point under
    +-, since a convolution point costs about half a second at the commit
    that added the benchmark; a short pass gives every request more
    passes to be timed in."""
    rng = np.random.default_rng([seed, i])
    g = _grid(rng, -3.5, 3.5, 2)
    a, b = _grid(rng, -2.5, 2.5, 2)
    return {"gauss_n6": [(x, y, s) for x in g for y in g for s in METRICS],
            "tp41_n4": [(a, b, (1, 1)), (a, a, (1, -1))],
            "cli_grids": [_cli_grid(rng, *R2_CLI) for _ in range(R2_CLI_TABLES)],
            "order_seed": int(rng.integers(2 ** 31))}


def run_r2(ctx, inp, ops):
    tasks = {}
    for case, routes in R2_ROUTES.items():
        spec = ctx["specs"][case]
        for j, (x, y, sides) in enumerate(inp[case]):
            for route in routes:
                for variant in _variants(route):
                    tasks[case, j, route, variant] = partial(
                        ops.evaluate, spec, [x, y], sides, variant, route)
    for c, grid in enumerate(inp["cli_grids"]):
        tasks["cli", c] = partial(_run_cli, ops, [
            "corr", "--ensemble", ctx["cfg"], "--k", "2", "--grid", grid, "--metric", "+-",
            "--method", "convolution", "--variant", "Rhat"])
    out = _run_tasks(ops, tasks, inp["order_seed"])
    out["cli"] = [out.pop(("cli", c)) for c in range(R2_CLI_TABLES)]
    return out


def check_r2(ctx, inp, out, checks):
    for case, routes in R2_ROUTES.items():
        for j, (x, y, sides) in enumerate(inp[case]):
            for variant in ("Rhat", "R"):
                checks.pairwise({r: out[case, j, r, variant] for r in routes
                                 if variant in _variants(r)},
                                workload="r2_table", case=case, variant=variant,
                                xs=[float(x), float(y)], sides=chk.sides_text(sides))
    spec = ctx["specs"]["gauss_n6"]
    rows = []
    for code, text, _ in out["cli"]:
        table = _csv_rows(text) if code == 0 else []
        checks.add(code == 0 and len(table) == R2_CLI[2] ** 2, workload="r2_table",
                   case="cli_gauss_n6", kind="cli", xs=[], exit_code=code, rows=len(table))
        rows += table
    for row in rows:
        xs = [float(row["x1"]), float(row["x2"])]
        values = {"convolution": complex(float(row["value_re"]), float(row["value_im"]))}
        for route in ALL_ROUTES:
            if route == "convolution":
                continue
            req = engine.CorrelationRequest(
                spec, 2, [IncrementedPoint(xs[0], 1), IncrementedPoint(xs[1], -1)],
                "Rhat", route)
            values[route] = engine.evaluate(req).value
        checks.pairwise(values, workload="r2_table", case="cli_gauss_n6",
                        variant="Rhat", xs=xs, sides="+-")


def props_r2(ctx, inp, out):
    props = {}
    for case, routes in R2_ROUTES.items():
        spec = ctx["specs"][case]
        pts = inp[case]
        props[case] = {"points": len(pts), "k": 2, "N": spec.N, "routes": len(routes),
                       "diagonal_share": float(np.mean([x == y for x, y, _ in pts])),
                       "far_tail_share": _tail_share([(x, y) for x, y, _ in pts]),
                       "metrics": sorted({chk.sides_text(s) for _, _, s in pts}),
                       "terms": len(ensembles.correlation_terms(spec, 2))}
    props["cli_gauss_n6"] = {"tables": R2_CLI_TABLES, "points": R2_CLI[2] ** 2, "k": 2, "N": 6,
                             "metric": "+-", "grids": inp["cli_grids"]}
    return props


# ---------------------------------------------------------------------------
# verify_mc: Monte Carlo, Haar, Grassmann and trace-power cross-checks
# ---------------------------------------------------------------------------

MC_CASES = (("tp41_n4", "closed_form_higher_trace"), ("gauss_n4", "closed_form_gue"))
CLI_STATISTICAL = ("hciz", "mc")


def setup_mc(workdir):
    specs = {"tp41_n4": EnsembleSpec.higher_trace(4, 4, 1), "gauss_n4": EnsembleSpec.gaussian(4),
             "tp42_n5": EnsembleSpec.higher_trace(5, 4, 2)}
    ensembles.correlation_terms(specs["gauss_n4"], 1)
    for k in (1, 2):
        ensembles.correlation_terms(specs["tp41_n4"], k)
    _trace_power_setup(specs["tp41_n4"], 1)
    _trace_power_setup(specs["tp42_n5"], 2)
    return {"specs": specs}


def inputs_mc(seed, i):
    rng = np.random.default_rng([seed, i])
    s = [int(v) for v in rng.integers(0, 2 ** 31, size=8)]
    d1, d2 = rng.uniform(-0.05, 0.05, 2)
    return {"cli_seed": s[0], "tp41_n4_seed": s[1], "gauss_n4_seed": s[2],
            "hciz_seed": s[3], "duality_seeds": (s[4], s[5]), "rd_seed": s[6],
            "order_seed": s[7],
            "r1_bins": (-3.5 + d1, 3.5 + d1, R1_BINS),
            "r2_bins": (-2.4 + d2, 2.4 + d2, R2_BINS),
            "hciz_E": np.sort(rng.uniform(-2, 2, 3)), "hciz_R": np.sort(rng.uniform(-2, 2, 3)),
            "rd_h": rng.uniform(-1.2, 1.2, (2, 4))}


def _centers(bins):
    lo, hi, n = bins
    edges = np.linspace(lo, hi, n + 1)
    return 0.5 * (edges[:-1] + edges[1:]), edges[1] - edges[0]


def _r2_nodes(bins):
    """2-point Gauss-Legendre nodes of every bin, bin by bin.  Histogram
    bins are compared with bin averages: the value at the bin center is
    off by several standard errors near the diagonal, where R_2 vanishes
    quadratically."""
    centers, w = _centers(bins)
    off = w / (2.0 * np.sqrt(3.0))
    return np.stack([centers - off, centers + off], axis=1).ravel()


def _mc_batch(ops, spec, seed, r1_bins, r2_bins):
    batch = ops.call(mc.sample_batch, spec, MC_SAMPLES, seed)
    if batch is None:
        return None
    return {"count": batch.count, "ess": batch.effective_sample_size(),
            "r1": ops.call(mc.estimate_r1, batch, r1_bins),
            "r2": r2_bins and ops.call(mc.estimate_r2, batch, r2_bins)}


def _hciz(ops, E, R, seed):
    return ops.call(mc.hciz_mc, E, R, HCIZ_SAMPLES, seed), ops.call(kernels.hciz_exact, E, R)


def _reduced(ops, spec, h, seed):
    return (ops.call(ensembles.reduced_density, spec, h, 2),
            ops.call(ensembles.reduced_density, spec, h, 2, method="mc",
                     samples=RD_SAMPLES, seed=seed))


def run_mc(ctx, inp, ops):
    specs = ctx["specs"]
    tasks = {"cli": partial(_run_cli, ops, ["verify", "--suite", "all",
                                            "--seed", str(inp["cli_seed"])])}
    centers, _ = _centers(inp["r1_bins"])
    nodes = _r2_nodes(inp["r2_bins"])
    for case, route in MC_CASES:
        r2_bins = inp["r2_bins"] if case == "tp41_n4" else None
        tasks[case] = partial(_mc_batch, ops, specs[case], inp[case + "_seed"],
                              inp["r1_bins"], r2_bins)
        for b, c in enumerate(centers):
            tasks[case, "r1", b] = partial(ops.evaluate, specs[case], [c], [1], "R", route)
        if r2_bins:
            for a, u in enumerate(nodes):
                for b, v in enumerate(nodes):
                    tasks[case, "r2", a, b] = partial(ops.evaluate, specs[case], [u, v],
                                                      [1, 1], "R", route)
    tasks["hciz"] = partial(_hciz, ops, inp["hciz_E"], inp["hciz_R"], inp["hciz_seed"])
    for N, seed in zip((3, 4), inp["duality_seeds"]):
        tasks["duality", N] = partial(ops.call, grassmann.verify_duality, 2, N, 4, seed)
    for j, h in enumerate(inp["rd_h"]):
        tasks["rd", j] = partial(_reduced, ops, specs["tp42_n5"], h, inp["rd_seed"])
    out = _run_tasks(ops, tasks, inp["order_seed"])
    out["cli"] = [out["cli"]]
    return out


def check_mc(ctx, inp, out, checks):
    code, text, _ = out["cli"][0]
    suites = [ln for ln in text.splitlines() if ": PASS" in ln or ": FAIL" in ln]
    checks.add(code is not None and len(suites) == 5, workload="verify_mc",
               case="cli_verify", kind="cli", xs=[], exit_code=code, suites=len(suites))
    for line in suites:
        name = line.split("(")[0]
        checks.add(": PASS" in line, statistical=name in CLI_STATISTICAL,
                   workload="verify_mc", case="cli_verify", kind="suite", suite=name,
                   xs=[], line=line)
    centers, _ = _centers(inp["r1_bins"])
    n2 = 2 * R2_BINS
    for case, route in MC_CASES:
        res = out[case] or {}
        refs = [out[case, "r1", b] for b in range(R1_BINS)]
        _mc_bins(checks, res.get("r1"), refs, case=case + "_r1", route=route,
                 xs=[[float(c)] for c in centers])
        if case == "tp41_n4":
            vals = [out[case, "r2", a, b] for a in range(n2) for b in range(n2)]
            refs = None
            if all(v is not None for v in vals):
                grid = np.real(np.array(vals, dtype=complex)).reshape(R2_BINS, 2, R2_BINS, 2)
                refs = list(grid.mean(axis=(1, 3)).ravel())
            c2, _ = _centers(inp["r2_bins"])
            _mc_bins(checks, res.get("r2"), refs, case=case + "_r2", route=route,
                     xs=[[float(x), float(y)] for x in c2 for y in c2])
    (est, exact) = out["hciz"]
    ok = est is not None and exact is not None and \
        abs(est[0] - exact) <= chk.SIGMAS * est[1]
    checks.add(ok, statistical=True, workload="verify_mc", case="hciz_n3", kind="mc",
               xs=list(inp["hciz_E"]) + list(inp["hciz_R"]))
    for N, seed in zip((3, 4), inp["duality_seeds"]):
        rep = out["duality", N]
        dev = None if rep is None else max(rep.values())
        scale = _duality_scale(N, seed)
        checks.add(dev is not None and dev <= chk.RTOL * scale + chk.ATOL,
                   workload="verify_mc", case=f"duality_k2_n{N}", kind="exact", xs=[],
                   max_dev=dev, scale=scale)
    for j, h in enumerate(inp["rd_h"]):
        closed, sampled = out["rd", j]
        ok = closed is not None and sampled is not None and \
            abs(sampled[0] - closed[0]) <= chk.SIGMAS * sampled[1]
        checks.add(ok, statistical=True, workload="verify_mc", case="tp42_n5_reduced",
                   kind="mc", xs=[float(v) for v in h])


def _duality_scale(N, seed):
    """Largest coefficient of tr K^m, m = 1..4, for the k = 2 pair that
    verify_duality(2, N, 4, seed) builds (same draws, same order): its
    deviations are round-off on coefficients that reach 1e5."""
    rng = np.random.default_rng(seed)
    z = [rng.standard_normal(N) + 1j * rng.standard_normal(N) for _ in range(2)]
    L = [int(s) for s in rng.choice([1, -1], size=2)]
    K, _ = grassmann.build_dual_pair(z, 2, N, L)
    return max(grassmann.tr_power(K, m).max_abs_coeff() for m in range(1, 5))


def _mc_bins(checks, hist, refs, case, route, xs):
    """One statistical check per histogram bin against the closed form."""
    dens = errs = None
    if hist is not None and refs is not None and all(r is not None for r in refs):
        dens, errs = hist.density.ravel(), hist.errors.ravel()
    for b, x in enumerate(xs):
        ok = dens is not None and \
            abs(dens[b] - np.real(refs[b])) <= chk.SIGMAS * max(errs[b], 1e-12)
        checks.add(ok, statistical=True, workload="verify_mc", case=case, kind="mc",
                   route=route, xs=x)


def props_mc(ctx, inp, out):
    specs = ctx["specs"]
    props = {}
    for case, _ in MC_CASES:
        res = out[case] or {"count": 0, "ess": 0.0}
        count, ess = res["count"], res["ess"]
        props[case] = {"N": specs[case].N, "samples": count, "ess": ess,
                       "ess_share": ess / count if count else 0.0,
                       "r1_bins": R1_BINS, "terms_k1": len(ensembles.correlation_terms(specs[case], 1))}
    props["tp41_n4"]["r2_bins"] = R2_BINS ** 2
    props["tp41_n4"]["r2_reference_points"] = (2 * R2_BINS) ** 2
    props["hciz_n3"] = {"samples": HCIZ_SAMPLES}
    props["duality"] = {"k": 2, "N": [3, 4]}
    props["tp42_n5_reduced"] = {"points": len(inp["rd_h"]), "k": 2, "N": 5,
                                "samples": RD_SAMPLES}
    props["cli_verify"] = {"suites": "all", "seed": inp["cli_seed"]}
    return props


WORKLOADS = {
    "r1_table": (setup_r1, inputs_r1, run_r1, check_r1, props_r1),
    "r2_table": (setup_r2, inputs_r2, run_r2, check_r2, props_r2),
    "verify_mc": (setup_mc, inputs_mc, run_mc, check_mc, props_mc),
}

