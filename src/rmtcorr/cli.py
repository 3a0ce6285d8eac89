"""Command line front end: ensemble configs in, correlation tables and
verification reports out.

Exit codes: 0 success, 1 numeric failure or failed verification
criterion, 2 configuration/usage errors.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, CONVENTIONS
from .ensembles import EnsembleSpec, characteristic_invariants
from .engine import (METHODS, VARIANTS, CorrelationRequest, evaluate, evaluate_grid)
from .kernels import (IncrementedPoint, fundamental_kernel, kernel_series,
                      hciz_exact, gaussian_pairing)
from .grassmann import duality_report
from .mc import sample_batch, estimate_r1, hciz_mc


class ConfigError(Exception):
    pass


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as e:
        raise ConfigError(str(e))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"grid ends must be finite, got {text!r}")
    if count < 1 or hi <= lo:
        raise ConfigError("grid needs hi > lo and count >= 1")
    return np.linspace(lo, hi, count)


def _parse_metric(text, k):
    if text is None:
        return [1] * k
    signs = []
    for ch in text:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise ConfigError(f"metric characters must be + or -, got {ch!r}")
    if len(signs) != k:
        raise ConfigError(f"metric needs exactly k = {k} signs")
    return signs


def _load_spec(path):
    try:
        with open(path) as fh:
            spec = EnsembleSpec.from_json(fh.read())
        # the trace-power cap, refused here once rather than at every point
        characteristic_invariants(spec)
    except FileNotFoundError:
        raise ConfigError(f"ensemble file not found: {path}")
    except OSError as e:
        raise ConfigError(f"cannot read ensemble file: {e}")
    except (ValueError, KeyError, TypeError, OverflowError) as e:
        raise ConfigError(f"bad ensemble config: {e}")
    return spec


def _config_hash(args_dict):
    text = json.dumps(args_dict, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _header(args, **extra):
    return {
        "version": __version__,
        "config_hash": _config_hash(vars(args)),
        **extra,
        "conventions": CONVENTIONS,
    }


def _fmt(x):
    return format(float(x), ".17g")


def cmd_corr(args):
    spec = _load_spec(args.ensemble)
    k = args.k
    metric = _parse_metric(args.metric, k)
    g = _parse_grid(args.grid)
    probe = g[:, None] if k == 1 else np.array([(x, y) for x in g for y in g])

    header = _header(args)
    results = _table_results(spec, k, probe, metric, args)
    rows = [(args.method, args.variant, k) + tuple(pt) + (np.real(r[0]), np.imag(r[0]), r[1])
            for pt, r in zip(probe.tolist(), results) if r is not None]

    footer = None
    if k == 1 and len(rows) > 1:
        # R_1 is Im Rhat_1 and R_1 itself
        part = 5 if args.variant == "Rhat" else 4
        xs = np.array([r[3] for r in rows])
        vals = np.array([r[part] for r in rows])
        footer = {"integral_r1": float(np.trapezoid(vals, xs))}

    _emit(args.output, args.format, header, rows, k, footer)
    return 1 if len(rows) < len(probe) else 0


def _table_results(spec, k, probe, metric, args):
    """(value, error estimate) per row of probe, or None for a failed row.
    The rows go in one call; if it raises, each half goes the same way, so
    that only a failing point ends up evaluated alone, which reports it."""
    try:
        res = evaluate_grid(spec, k, probe, args.variant, args.method, metric)
        return [(v, res.error_estimate) for v in res.value]
    except Exception:
        if len(probe) == 1:
            return [_point_result(spec, k, probe[0].tolist(), metric, args)]
    h = len(probe) // 2
    return (_table_results(spec, k, probe[:h], metric, args)
            + _table_results(spec, k, probe[h:], metric, args))


def _point_result(spec, k, pt, metric, args):
    """(value, error estimate) at one point, or None after reporting its
    failure."""
    points = [IncrementedPoint(x, side=metric[i]) for i, x in enumerate(pt)]
    try:
        res = evaluate(CorrelationRequest(spec, k, points, args.variant, args.method))
        return res.value, res.error_estimate
    except Exception as e:
        print(f"numeric failure at {tuple(pt)}: {e}", file=sys.stderr)
        return None


def _emit(path, fmt, header, rows, k, footer):
    cols = (["method", "variant", "k"] + [f"x{i + 1}" for i in range(k)]
            + ["value_re", "value_im", "error"])
    if fmt == "json":
        doc = {"header": header,
               "columns": cols,
               "rows": [[r[0], r[1], r[2]] + [_fmt(v) for v in r[3:]] for r in rows]}
        if footer:
            doc["footer"] = {key: _fmt(v) for key, v in footer.items()}
        text = json.dumps(doc, indent=1)
        _write(path, text)
        return
    lines = []
    for key, v in header.items():
        lines.append(f"# {key}: {v}")
    out = [",".join(cols)]
    for r in rows:
        out.append(",".join([str(r[0]), str(r[1]), str(r[2])]
                            + [_fmt(v) for v in r[3:]]))
    if footer:
        for key, v in footer.items():
            out.append(f"# {key}: {_fmt(v)}")
    _write(path, "\n".join(lines + out) + "\n")


def _write(path, text):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


SUITES = ("duality", "kernel-identity", "pairing", "hciz", "mc", "all")


def cmd_verify(args):
    run = [args.suite] if args.suite != "all" else list(SUITES[:-1])
    header = _header(args, seed=args.seed)
    for key, v in header.items():
        print(f"# {key}: {v}")
    ok = True
    for suite in run:
        t0 = time.perf_counter()
        name, passed, dev = _run_suite(suite, args)
        elapsed = time.perf_counter() - t0
        ok = ok and passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} max_deviation={dev:.3e}"
              f" elapsed={elapsed:.3f}s")
    return 0 if ok else 1


def _run_suite(suite, args):
    if suite == "duality":
        k = args.k or 1
        N = args.N or 2
        rep, scale = duality_report(k, N, 4, args.seed)
        dev = max(rep.values())
        # round-off on coefficients of tr K^m that reach 1e5 at N=4
        return f"duality(k={k},N={N})", dev <= 1e-13 * scale, dev
    if suite == "kernel-identity":
        N = args.N or 20
        rng = np.random.default_rng(args.seed)
        dev = 0.0
        for _ in range(200):
            x = rng.uniform(-3, 3)
            s2 = rng.uniform(-3, 3)
            p = IncrementedPoint(x, side=1, epsilon=1e-9)
            a = fundamental_kernel(N, p, s2)
            b = kernel_series(N, p.shifted(), 1j * s2)
            # on the scale of the series' terms: next to a zero of the
            # kernel, its value has no relative accuracy
            scale = kernel_series(N, abs(p.shifted()), abs(s2)).real
            dev = max(dev, abs(a - b) / scale)
        return f"kernel-identity(N={N})", dev < 1e-12, dev
    if suite == "pairing":
        dev = 0.0
        for N in range(2, 7):
            dev = max(dev, abs(gaussian_pairing(N) - 1.0))
        return "pairing(N=2..6)", dev < 1e-8, dev
    if suite == "hciz":
        N = args.N or 2
        # three pairs (E, R), drawn E, R, E, R, E, R, on one Haar sample
        ER = np.sort(np.random.default_rng(args.seed).uniform(-2, 2, (3, 2, N)), axis=-1)
        samples = 200000
        est, err = hciz_mc(ER[:, 0], ER[:, 1], samples, args.seed)
        exact = np.array([hciz_exact(E, R) for E, R in ER])
        # at N=1 every phase is the same and the jackknife error is 0:
        # floor it at the round-off of a mean of that many unit phases
        err = np.fmax(err, samples * np.finfo(float).eps)
        dev = float(np.max(np.abs(est - exact) / (3 * err)))
        return f"hciz(N={N})", dev < 1.0, dev
    if suite == "mc":
        spec = EnsembleSpec.gaussian(args.N or 4)
        batch = sample_batch(spec, 200000, args.seed)
        hist = estimate_r1(batch, (-3.5, 3.5, 40))
        xs = hist.centers()
        width = np.diff(hist.edges)
        ref = evaluate_grid(spec, 1, xs[:, None], "R", "closed_form_gue").value.real
        # a bin expecting under one sample can hold none and so carry no
        # jackknife error: floor it at the Poisson error of its count
        err = np.fmax(hist.errors, np.sqrt(ref / (batch.count * width)))
        frac = np.count_nonzero(np.abs(hist.density - ref) > 3 * err) / len(xs)
        return f"mc(N={spec.N})", frac <= 0.05, frac


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(prog="rmtcorr",
                                description="finite-N spectral correlations")
    sub = p.add_subparsers(dest="command")

    pc = sub.add_parser("corr", help="correlation table on a grid")
    pc.add_argument("--ensemble", required=True)
    pc.add_argument("--k", type=int, default=1, choices=(1, 2))
    pc.add_argument("--grid", required=True, help="lo:hi:count")
    pc.add_argument("--method", default="convolution", choices=METHODS)
    pc.add_argument("--variant", default="R", choices=VARIANTS)
    pc.add_argument("--metric", default=None, help="k signs, e.g. +- for k=2")
    pc.add_argument("--output", default="-")
    pc.add_argument("--format", default="csv", choices=("csv", "json"))

    pv = sub.add_parser("verify", help="verification suites")
    pv.add_argument("--suite", default="all", choices=SUITES)
    pv.add_argument("--k", type=int, default=None)
    pv.add_argument("--N", type=int, default=None)
    pv.add_argument("--seed", type=int, default=7)
    return p


def _join_leading_dash(argv):
    """Let values like -4:4:401 follow --grid/--metric without being
    mistaken for flags, by joining them as --flag=value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--grid", "--metric") and i + 1 < len(argv) \
                and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_leading_dash(list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    commands = {"corr": cmd_corr, "verify": cmd_verify}
    if args.command not in commands:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return commands[args.command](args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
