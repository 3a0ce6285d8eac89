"""Tolerances and the tally of correctness checks.

A deterministic check compares a value with the Gaussian oracle or with
another route; it fails when |a - b| > RTOL * max(|a|, |b|) + ATOL.  A
statistical check compares a Monte Carlo estimate with a closed form and
fails outside SIGMAS standard errors.  Every failure counts in the
failure fraction.  The run is still correct when each failed
deterministic check matches a rule in known_failures.json (a defect
recorded at the commit that added the benchmark) and at most
STAT_FAIL_SHARE of the statistical checks fail.
"""

import json
import os

RTOL = 1e-8
ATOL = 1e-12
SIGMAS = 3.0
STAT_FAIL_SHARE = 0.05
KEEP_FAILURES = 200

KNOWN_FAILURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "known_failures.json")


def close(a, b):
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def sides_text(sides):
    return "".join("+" if s > 0 else "-" for s in sides)


def load_rules():
    with open(KNOWN_FAILURES) as fh:
        return json.load(fh)["rules"]


def rule_matches(rule, info):
    """A rule names a workload plus any of: case, variant, suite, sides
    (list), routes (list, matched against the check's route), diagonal
    (bool) and min_abs_x (largest |x| of the point at least this)."""
    for key in ("workload", "case", "variant", "suite"):
        if key in rule and rule[key] != info.get(key):
            return False
    if "sides" in rule and info.get("sides") not in rule["sides"]:
        return False
    if "routes" in rule and info.get("route") not in rule["routes"]:
        return False
    xs = info.get("xs", [])
    if "diagonal" in rule and (len(set(xs)) < len(xs)) != rule["diagonal"]:
        return False
    if "min_abs_x" in rule and max(abs(x) for x in xs) < rule["min_abs_x"]:
        return False
    return True


class Checks:
    """Counts checks and keeps the failed ones with their inputs."""

    def __init__(self, rules):
        self.rules = rules
        self.attempted = 0
        self.failed = 0
        self.stat_attempted = 0
        self.stat_failed = 0
        self.unexpected = 0
        self.failures = []

    def add(self, ok, statistical=False, **info):
        self.attempted += 1
        if statistical:
            self.stat_attempted += 1
        if ok:
            return
        self.failed += 1
        rule = None
        if statistical:
            self.stat_failed += 1
        else:
            rule = next((r["id"] for r in self.rules if rule_matches(r, info)), None)
            self.unexpected += rule is None
        if len(self.failures) < KEEP_FAILURES:
            self.failures.append(dict(info, rule=rule, statistical=statistical))

    def pairwise(self, values, **info):
        """One cross-route check: every pair of route values must agree."""
        vals = list(values.items())
        ok = all(v is not None for _, v in vals) and all(
            close(a, b) for i, (_, a) in enumerate(vals) for _, b in vals[i + 1:])
        detail = {r: show(v) for r, v in vals}
        self.add(ok, kind="routes", values=detail, **info)

    def fail_frac(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def correct(self):
        stat_ok = self.stat_failed <= STAT_FAIL_SHARE * self.stat_attempted
        return self.unexpected == 0 and stat_ok


def show(v):
    if v is None:
        return None
    v = complex(v)
    return [v.real, v.imag]
