"""Per-layer spans for the traced run, recorded from outside rmtcorr.

Each layer is one rmtcorr module.  Its public functions are replaced by
timing wrappers for the traced passes only: the module attribute and
every name another rmtcorr module bound with `from .x import y`.  The
numpy primitives the layers lean on (hermgauss, det, eigvalsh) are
patched on their numpy modules and named after the layer of their
nearest traced caller, so `engine.det` is a determinant taken inside an
engine route.  Spans (group, start, end, parent) stay in memory; self
time is a span's duration minus the time its child spans cover.
"""

import functools
import statistics
import time
from collections import defaultdict

import numpy.linalg
import numpy.polynomial.hermite

from rmtcorr import cli, engine, ensembles, grassmann, kernels, mc, special

MODULES = (cli, engine, ensembles, grassmann, kernels, mc, special)

GROUPS = {  # span group: (owner, public functions wrapped under that name)
    "cli.corr": (cli, ("cmd_corr",)),
    "cli.verify": (cli, ("cmd_verify",)),
    "engine.evaluate": (engine, ("evaluate",)),
    "engine.convolution": (engine, ("correlations_convolution",)),
    "engine.eigenvalue_integral": (engine, ("correlations_eigenvalue_integral",)),
    "engine.factorized": (engine, ("correlations_factorized", "factorized_kernel")),
    "engine.closed_form_gue": (engine, ("correlations_closed_form_gue",)),
    "engine.closed_form_higher_trace": (engine, ("correlations_higher_trace",)),
    "engine.generating": (engine, ("generating_function_value",)),
    "engine.time_domain": (engine, ("time_domain_transform",)),
    "special.cauchy": (special, ("gauss_moment_cauchy", "cauchy_gauss_tower",
                                 "cauchy_gauss", "faddeeva_derivatives")),
    "special.osc": (special, ("gue_kernel", "oscillator_wavefunction",
                              "generalized_hermite", "hermite_poly")),
    "special.halfline": (special, ("half_gauss_oscillatory",)),
    "special.poly": (special, ("gauss_poly_derivatives", "polyval_ascending",
                               "gauss_moments")),
    "ensembles.terms": (ensembles, ("correlation_terms", "reduced_terms")),
    "ensembles.char_inv": (ensembles, ("characteristic_invariants",)),
    "ensembles.normalization": (ensembles.EnsembleSpec, ("normalization_b", "full_moment")),
    "ensembles.reduced_density": (ensembles, ("reduced_density",)),
    "ensembles.jet": (ensembles, ("slot_phi_jet", "jet_mul", "slot_phi",
                                  "characteristic_function")),
    "kernels.fundamental": (kernels, ("fundamental_kernel", "kernel_closed",
                                      "kernel_series", "fundamental_correlations")),
    "kernels.hciz": (kernels, ("hciz_exact", "hciz_degenerate")),
    "kernels.pairing": (kernels, ("gaussian_pairing", "ingham_siegel_pair",
                                  "ingham_siegel_kernel")),
    "mc.sample": (mc, ("sample_batch",)),
    "mc.hist": (mc, ("estimate_r1", "estimate_r2")),
    "mc.haar": (mc, ("hciz_mc", "haar_unitary")),
    "grassmann.duality": (grassmann, ("verify_duality",)),
}

PRIMITIVES = {  # op: (numpy module, attribute)
    "quadrature": (numpy.polynomial.hermite, "hermgauss"),
    "det": (numpy.linalg, "det"),
    "eigvalsh": (numpy.linalg, "eigvalsh"),
}

# name -> unit; every traced run prints all of them, per traced pass
LAYER_METRICS = {
    "engine.evaluate.calls": "count",
    "engine.errors": "count",
    "engine.split_frac": "frac",
    "engine.convolution.s": "s",
    "engine.convolution.quad_frac": "frac",
    "engine.eigenvalue_integral.s": "s",
    "engine.factorized.s": "s",
    "engine.closed_form_gue.s": "s",
    "engine.closed_form_higher_trace.s": "s",
    "engine.quadrature.calls": "count",
    "engine.quadrature.s": "s",
    "engine.det.calls": "count",
    "engine.det.s": "s",
    "engine.time_domain.s": "s",
    "special.cauchy.calls": "count",
    "special.cauchy.s": "s",
    "special.osc.calls": "count",
    "special.osc.s": "s",
    "special.halfline.calls": "count",
    "special.halfline.s": "s",
    "special.poly.calls": "count",
    "special.poly.s": "s",
    "ensembles.terms.calls": "count",
    "ensembles.terms.s": "s",
    "ensembles.terms.n": "count",
    "ensembles.char_inv.s": "s",
    "ensembles.normalization.s": "s",
    "ensembles.reduced_density.s": "s",
    "ensembles.jet.s": "s",
    "kernels.fundamental.s": "s",
    "kernels.hciz.s": "s",
    "kernels.pairing.s": "s",
    "mc.sample.count": "count",
    "mc.sample.s": "s",
    "mc.samples_per_s": "1/s",
    "mc.eigvalsh.s": "s",
    "mc.ess_frac": "frac",
    "mc.hist.s": "s",
    "mc.haar.s": "s",
    "grassmann.duality.calls": "count",
    "grassmann.duality.s": "s",
    "cli.corr.s": "s",
    "cli.verify.s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "checks.fail_frac": "frac",
}


def _count_terms(tracer, args, kwargs, result):
    tracer.counts["terms"] += len(result)


def _count_samples(tracer, args, kwargs, result):
    tracer.counts["samples"] += result.count
    tracer.counts["ess"] += result.effective_sample_size()


HOOKS = {"correlation_terms": _count_terms, "sample_batch": _count_samples}


class Tracer:
    """Installs the wrappers for one traced pass at a time and keeps the
    spans and counts of all traced passes."""

    def __init__(self):
        self.spans = []      # [group, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)
        self._patches = []   # (owner, attribute, original)

    def _wrap(self, fn, group=None, op=None, hook=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if op is not None:
                if not stack:
                    return fn(*args, **kwargs)
                name = spans[stack[-1]][0].split(".")[0] + "." + op
            else:
                name = group
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result
        return traced

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        if owner in MODULES:
            for module in MODULES:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original))

    def start(self):
        for group, (owner, names) in GROUPS.items():
            for attr in names:
                fn = getattr(owner, attr)
                self._patch(owner, attr, self._wrap(fn, group=group, hook=HOOKS.get(attr)))
        for op, (owner, attr) in PRIMITIVES.items():
            self._patch(owner, attr, self._wrap(getattr(owner, attr), op=op))

    def stop(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_metrics(self, passes, extra):
        """Per-pass layer metrics over `passes` traced passes; `extra`
        supplies the values measured outside the spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        quad_in_conv = 0.0
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            self_s[s[0]] += dur - child[i]
            if s[3] < 0 or spans[s[3]][0] != s[0]:
                calls[s[0]] += 1
                incl_s[s[0]] += dur
            if s[0] == "engine.quadrature" and self._under(i, "engine.convolution"):
                quad_in_conv += dur
        out = {}
        for name in LAYER_METRICS:
            group, _, field = name.rpartition(".")
            if field == "s":
                out[name] = self_s[group] / passes
            elif field == "calls":
                out[name] = calls[group] / passes
        out["ensembles.terms.n"] = self.counts["terms"] / max(calls["ensembles.terms"], 1)
        out["engine.convolution.quad_frac"] = _ratio(quad_in_conv, incl_s["engine.convolution"])
        out["mc.sample.count"] = self.counts["samples"] / passes
        out["mc.samples_per_s"] = _ratio(self.counts["samples"], incl_s["mc.sample"])
        out["mc.ess_frac"] = _ratio(self.counts["ess"], self.counts["samples"])
        out["trace.spans"] = len(spans) / passes
        out.update(extra)
        return out

    def _under(self, i, group):
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == group:
                return True
            p = self.spans[p][3]
        return False


def _ratio(a, b):
    return a / b if b else 0.0


def overhead(traced_walls, untraced_walls):
    return statistics.median(traced_walls) - statistics.median(untraced_walls)
