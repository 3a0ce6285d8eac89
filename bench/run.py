"""rmtcorr benchmark: three closed-loop workloads with checked outputs.

    python3 bench/run.py --workload r1_table --seed 1 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
src/ directory.  Workloads (see workloads.py):

  r1_table   one-point R and Rhat tables through every applicable route,
             a CLI corr table and a time-domain transform
  r2_table   two-point tables on square grids under all four metrics,
             and a CLI corr --k 2 --metric +- table
  verify_mc  CLI verify --suite all, weighted Monte Carlo histograms
             against the closed forms, Haar/HCIZ, Grassmann duality and
             the trace-power reduced density

A run sets the workload up, then repeats passes (fresh inputs from the
seed and the pass index) until --seconds have gone, checking every
pass's outputs outside the timed region.  With --trace 0 the last line
of standard output holds the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of the traced passes, which alternate with
untraced passes so that the tracing overhead can be measured.  The last
line of standard error holds the run record: machine, versions, input
properties, pass times and every failed check with its inputs.

Exit codes: 0 when a result was printed, 2 when the checkout has no
src/rmtcorr.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import checks as chk
import oracle  # noqa: F401  (mpmath; imported before set-up is timed)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 3
SETUP_PROBES = 8
# Mean per-position median and least time of workloads.host_probe over a
# run's passes on the reference host: 2 vCPUs of a shared Intel Xeon,
# Python 3.11, numpy 2.4, one BLAS thread.
PROBE_REF_S = {"median": 2.5e-3, "min": 2.2e-3}
STATS = {"median": statistics.median, "min": min}
PROBE_TIMEOUT = 60

E2E_METRICS = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "point_p50_ms": "ms",
    "point_p99_ms": "ms",
    "cli_table_s": "s",
    "pass_frac": "frac",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="rmtcorr benchmark")
    p.add_argument("--workload", required=True,
                   choices=("r1_table", "r2_table", "verify_mc"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time set-up in this fresh process, print it and exit")
    return p.parse_args(argv)


def setup_in_child(args):
    """(set-up time, host slowdown) of one fresh interpreter, imports
    included."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT, check=True)
    sample = json.loads(res.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["slowdown"]


def setup_slowdown(probe):
    """The host slowdown right after a set-up: the median time of
    SETUP_PROBES host probes over PROBE_REF_S."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / PROBE_REF_S["median"]


def measure(wl, new_ops, ctx, seed, seconds, tracer):
    """Repeat passes until `seconds` have gone.  With a tracer, pass 0
    warms up untraced and later passes alternate traced and untraced,
    at least one of each.  Returns the per-pass records, the check
    tally, and the last pass's inputs and outputs."""
    _, inputs, run, check, _ = wl
    checks = chk.Checks(chk.load_rules())
    passes = []
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = tracer is not None and i % 2 == 1
        warmup = tracer is not None and i == 0
        inp = inputs(seed, i)
        ops = new_ops()
        if traced:
            tracer.start()
        t0 = time.perf_counter()
        try:
            out = run(ctx, inp, ops)
        finally:
            wall = time.perf_counter() - t0
            if traced:
                tracer.stop()
        check(ctx, inp, out, checks)
        passes.append({"traced": traced, "warmup": warmup, "wall": wall,
                       "cli": [secs for _, _, secs in out["cli"]], "ops": ops})
        elapsed = time.perf_counter() - start
        enough = len(passes) >= (3 if tracer else 1)
        if enough and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, checks, inp, out


def per_key(per_pass, stat):
    """{key: stat of that key's times over the run's passes}, from one
    {key: seconds} mapping per pass."""
    by_key = defaultdict(list)
    for times in per_pass:
        for key, secs in times.items():
            by_key[key].append(secs)
    return {key: stat(v) for key, v in by_key.items()}


def host_slowdown(passes, stat="median"):
    """How much slower than the reference host this run's host was: the
    probes' per-position times (their `stat` over the passes), averaged,
    over the same figure on the reference host."""
    probes = per_key((p["ops"].probe_s for p in passes), STATS[stat])
    return statistics.fmean(probes.values()) / PROBE_REF_S[stat]


def end_to_end(passes, checks, setup_samples):
    """Timings are built per request: a request (a key, the same position
    in every pass, fresh inputs each time) gets its median time over the
    run's passes for the totals (wall_s, cli_table_s), and its least time
    for the latencies of single evaluate calls, most of them a millisecond
    or less.  The host's speed drifts by up to 1.7x over seconds to
    minutes.  The probes, timed the same way at random places among the
    requests, measure that drift with the same statistic, and every time
    is divided by the run's host slowdown, so the metrics are seconds at
    the reference host's speed.
    Set-up is the median of its samples, each divided by the slowdown
    probed right after it.  Returns the metrics and the same metrics
    before the host correction."""
    tasks = per_key((p["ops"].task_s for p in passes), statistics.median)
    points = sorted(per_key((p["ops"].latencies for p in passes), min).values())
    cli = per_key((dict(enumerate(p["cli"])) for p in passes), statistics.median)
    q = statistics.quantiles(points, n=100, method="inclusive")
    raw = {
        "setup_s": statistics.median(secs for secs, _ in setup_samples),
        "wall_s": sum(tasks.values()),
        "points_per_s": len(points) / sum(points),
        "point_p50_ms": q[49] * 1e3,
        "point_p99_ms": q[98] * 1e3,
        "cli_table_s": statistics.fmean(cli.values()),
        "pass_frac": 1.0 - checks.fail_frac(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    slow, fast = host_slowdown(passes), host_slowdown(passes, "min")
    return dict(raw, **{
        "setup_s": statistics.median(secs / k for secs, k in setup_samples),
        "wall_s": raw["wall_s"] / slow,
        "points_per_s": raw["points_per_s"] * fast,
        "point_p50_ms": raw["point_p50_ms"] / fast,
        "point_p99_ms": raw["point_p99_ms"] / fast,
        "cli_table_s": raw["cli_table_s"] / slow,
    }), raw


def per_layer(passes, checks, tracer):
    import tracing
    traced = [p for p in passes if p["traced"]]
    ops = [p["ops"] for p in traced]
    evals = sum(len(o.latencies) for o in ops)
    errors = sum(1 for o in ops for e in o.errors if e.startswith("evaluate"))
    extra = {
        "engine.errors": errors / len(traced),
        "engine.split_frac": sum(o.splits for o in ops) / max(evals, 1),
        "trace.overhead_s": tracing.overhead([p["wall"] for p in traced],
                                             [p["wall"] for p in passes
                                              if not (p["traced"] or p["warmup"])]),
        "checks.fail_frac": checks.fail_frac(),
    }
    return tracer.layer_metrics(len(traced), extra)


def environment(seed):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "commit": _git_commit(), "seed": seed}


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "rmtcorr" / "__init__.py").is_file():
        print(f"error: no src/rmtcorr under {ROOT}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(prefix=".bench_tmp", dir=ROOT) as workdir:
        t0 = time.perf_counter()
        import workloads  # numpy and rmtcorr: their import is part of set-up
        wl = workloads.WORKLOADS[args.workload]
        ctx = wl[0](workdir)
        setup_samples = [(time.perf_counter() - t0, setup_slowdown(workloads.host_probe))]
        if args.setup_probe:
            secs, slowdown = setup_samples[0]
            print(json.dumps({"setup_s": secs, "slowdown": slowdown}))
            return 0
        tracer = None
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
        else:
            setup_samples += [setup_in_child(args) for _ in range(SETUP_SAMPLES - 1)]
        passes, checks, inp, out = measure(wl, workloads.Ops, ctx, args.seed,
                                           args.seconds, tracer)
        if tracer is None:
            (values, raw), units = end_to_end(passes, checks, setup_samples), E2E_METRICS
        else:
            values, units = per_layer(passes, checks, tracer), tracing.LAYER_METRICS
            raw = None
        ops = [p["ops"] for p in passes]
        record = {
            "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
            "environment": environment(args.seed),
            "inputs": wl[4](ctx, inp, out),
            "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes),
            "pass_walls_s": [p["wall"] for p in passes],
            "setup_samples_s": setup_samples,
            "point_samples": sum(len(o.latencies) for o in ops),
            "checks": {"attempted": checks.attempted, "failed": checks.failed,
                       "fail_frac": checks.fail_frac(),
                       "statistical": [checks.stat_attempted, checks.stat_failed],
                       "unexpected": checks.unexpected},
            "errors": [e for o in ops for e in o.errors][:50],
            "failures": checks.failures,
            "metrics": values,
            "host_slowdown": {"median": host_slowdown(passes),
                              "min": host_slowdown(passes, "min")},
            "uncorrected_metrics": raw,
        }
    print(json.dumps(record, default=str), file=sys.stderr)
    result = {
        "correct": checks.correct() and not record["errors"],
        "attempted": sum(o.attempted for o in ops),
        "failed": sum(len(o.errors) for o in ops),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
