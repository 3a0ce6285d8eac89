"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Checks that the metrics BENCHMARK.json names are the ones a run prints,
with their units; that one seed regenerates identical inputs; that a
reference perturbed by 1e-6 relative is counted as a failed check; and
that the Gaussian oracle reproduces known values.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks as chk  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rmtcorr.engine import CorrelationRequest, evaluate  # noqa: E402
from rmtcorr.ensembles import EnsembleSpec  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def digest(inp):
    """Stable text form of a pass's inputs."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return plain(v.tolist())
        if isinstance(v, (list, tuple)):
            return [plain(u) for u in v]
        if isinstance(v, (np.floating, float)):
            return repr(float(v))
        if isinstance(v, np.integer):
            return int(v)
        return v
    return json.dumps({k: plain(v) for k, v in sorted(inp.items())})


def units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def bench_run(cwd, *argv):
    cmd = [sys.executable, "bench/run.py", *argv]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_names_match_benchmark_json():
    assert units("end_to_end") == run.E2E_METRICS
    assert units("per_layer") == tracing.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric_with_its_unit(trace, kind):
    res = bench_run(ROOT, "--workload", "r1_table", "--seed", "5", "--seconds", "1",
                    "--trace", str(trace))
    assert res.returncode == 0, res.stderr[-2000:]
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["attempted"] >= 1 and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units(kind)
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = bench_run(tmp_path, "--workload", "r1_table", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert res.returncode != 0
    assert res.stdout == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_regenerates_identical_inputs(name):
    inputs = workloads.WORKLOADS[name][1]
    first = digest(inputs(7, 0))
    assert first == digest(inputs(7, 0))
    assert first != digest(inputs(8, 0))
    assert first != digest(inputs(7, 1))


def gue_rhat(x):
    req = CorrelationRequest(EnsembleSpec.gaussian(6), 1, [x], "Rhat", "closed_form_gue")
    return evaluate(req).value


@pytest.mark.parametrize("factor,failed", [(1.0, 0), (1.0 + 1e-6, 5)])
def test_perturbed_oracle_is_counted(factor, failed):
    checks = chk.Checks(chk.load_rules())
    for x in (-1.7, -0.6, 0.3, 1.1, 2.0):
        ref = oracle.gauss_rhat1(6, x) * factor
        workloads.oracle_check(checks, gue_rhat(x), ref, workload="r1_table",
                               case="gauss_n6", route="closed_form_gue",
                               variant="Rhat", xs=[x], sides="+")
    assert (checks.attempted, checks.failed) == (5, failed)
    assert checks.fail_frac() == failed / 5
    assert checks.correct() == (failed == 0)


def test_perturbed_route_is_counted():
    checks = chk.Checks(chk.load_rules())
    v = gue_rhat(0.8)
    checks.pairwise({"a": v, "b": v}, workload="r2_table", case="t", variant="Rhat",
                    xs=[0.8, 0.1], sides="++")
    checks.pairwise({"a": v, "b": v * (1 + 1e-6)}, workload="r2_table", case="t",
                    variant="Rhat", xs=[0.8, 0.1], sides="++")
    assert (checks.attempted, checks.failed, checks.unexpected) == (2, 1, 1)


def test_known_failure_rules():
    rules = chk.load_rules()

    def rule(**info):
        return next((r["id"] for r in rules if chk.rule_matches(r, info)), None)

    mixed = dict(workload="r2_table", case="gauss_n6", variant="Rhat")
    assert rule(xs=[0.4, -0.9], sides="+-", **mixed) == "mixed-metric-sign"
    assert rule(xs=[0.4, 0.4], sides="+-", **mixed) is None
    assert rule(xs=[0.4, -0.9], sides="--", **mixed) is None
    tail = dict(workload="r1_table", case="gauss_n32", variant="Rhat", route="convolution")
    assert rule(xs=[-8.0], **tail) == "gauss-n32-rhat-tail"
    assert rule(xs=[3.0], **tail) is None
    assert rule(xs=[7.5], workload="r1_table", case="gauss_n6", variant="Rhat",
                route="closed_form_gue") is None
    suite = dict(workload="verify_mc", case="cli_verify", xs=[])
    assert rule(suite="kernel-identity", **suite) == "cli-verify-kernel-identity"
    assert rule(suite="duality", **suite) is None


def test_oracle_known_values():
    assert oracle.gauss_r1(4, 0.7)[0] == pytest.approx(0.265950069109482, rel=1e-14)
    assert oracle.gauss_r1(32, 8.0)[0] == pytest.approx(2.25414, rel=1e-5)
    # the density agrees with the routes, which hold R_1 to 1e-10 up to N = 32
    req = CorrelationRequest(EnsembleSpec.gaussian(32), 1, [2.3], "R", "closed_form_gue")
    assert oracle.gauss_r1(32, 2.3)[1] == pytest.approx(evaluate(req).value.real, rel=1e-12)


def test_oracle_time_transform_matches_density():
    """r_1(0) = (2 pi)^(-1/2) integral R_1 = N / sqrt(2 pi)."""
    assert oracle.gauss_r1_time(6, [0.0])[0] == pytest.approx(6 / math.sqrt(2 * math.pi),
                                                          rel=1e-14)
