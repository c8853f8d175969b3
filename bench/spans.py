"""Spans around the public functions of each cyclosc module, recorded from
outside the package.

``Tracer.install`` replaces every binding of a traced function, in every
loaded ``cyclosc`` module and in the dictionaries those modules hold (such
as ``verify.SUITES``), with a wrapper that records a span: name, start, end
and parent.  ``uninstall`` puts the originals back.  A function the program
no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter

PACKAGE = "cyclosc"
TRACED = {
    "algebra": ("validate_params", "build_fock_rep"),
    "sga": ("build_sga", "extract_f_poly", "extract_h_poly_and_casimir"),
    "coherent": ("build_cs", "normalization"),
    "stats": ("mandel_q", "quadrature_stats", "squeeze_ratios", "stats_report"),
    "measure": ("moment_target", "moment_check", "unity_reconstruction",
                "weight_lambda2", "weight_photon"),
    "specfun": ("hyper0F", "mittag_leffler", "bessel_i", "bessel_k"),
    "verify": ("suite_commutators", "suite_sga", "suite_cs", "suite_measure"),
    "cli": ("main",),
}

# (metric name, unit, better); every traced run reports all of them.
LAYER_METRICS = (
    ("import.cyclosc_s", "s", "lower"),
    ("import.scipy_integrate_s", "s", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("algebra.build_fock_rep_calls", "count", "lower"),
    ("algebra.build_fock_rep_s", "s", "lower"),
    ("algebra.levels", "count", "lower"),
    ("algebra.dense_bytes", "bytes", "lower"),
    ("sga.build_sga_s", "s", "lower"),
    ("sga.extract_s", "s", "lower"),
    ("sga.extract_calls", "count", "lower"),
    ("coherent.build_cs_calls", "count", "lower"),
    ("coherent.build_cs_s", "s", "lower"),
    ("coherent.levels", "count", "lower"),
    ("coherent.ref_states", "count", "lower"),
    ("stats.ref_useful_ratio", "ratio", "higher"),
    ("stats.quadrature_stats_calls", "count", "lower"),
    ("stats.quadrature_stats_s", "s", "lower"),
    ("stats.squeeze_ratios_s", "s", "lower"),
    ("stats.mandel_q_s", "s", "lower"),
    ("specfun.hyper0F_calls", "count", "lower"),
    ("specfun.hyper0F_s", "s", "lower"),
    ("specfun.hyper0F_terms", "count", "lower"),
    ("specfun.bessel_k_calls", "count", "lower"),
    ("specfun.bessel_k_s", "s", "lower"),
    ("measure.moment_check_calls", "count", "lower"),
    ("measure.moment_check_s", "s", "lower"),
    ("measure.weight_evals", "count", "lower"),
    ("verify.commutators_s", "s", "lower"),
    ("verify.sga_s", "s", "lower"),
    ("verify.cs_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


def _arguments(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


class Tracer:
    """Records spans and counters while installed; use as a context manager."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # counters measured at the traced boundaries
        self.ref_keys = set()    # distinct (top-level call, z = 0 state) pairs
        self._stack = []
        self._patches = []       # (namespace dict, key, original)

    # -- installing ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for short, names in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{short}.{name}", original)
                for mod in modules:
                    # the module's namespace and the dicts it holds
                    for ns in [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]:
                        for key in [k for k, v in ns.items() if v is original]:
                            self._patches.append((ns, key, original))
                            ns[key] = wrapper
        return self

    def uninstall(self):
        while self._patches:
            ns, key, original = self._patches.pop()
            ns[key] = original

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if name == "measure.moment_check" and args:
                args = (tracer._count_calls("measure.weight_evals", args[0]),) + args[1:]
            idx = len(tracer.spans)
            tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1])
            tracer._stack.append(idx)
            tracer.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx][2] = time.perf_counter()
                tracer._stack.pop()
            tracer._after(name, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_calls(self, counter, fn):
        def counted(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _after(self, name, fn, args, kwargs, result):
        if name == "algebra.build_fock_rep":
            a = _arguments(fn, args, kwargs)
            levels = int(a["n_max"]) + 1
            self.counts["algebra.levels"] += levels
            self.counts["algebra.dense_bytes"] += (a["params"].lam + 6) * levels * levels * 8
        elif name == "coherent.build_cs":
            self.counts["coherent.levels"] += len(result.coeffs)
            a = _arguments(fn, args, kwargs)
            if complex(a["z"]) == 0:
                self.counts["coherent.ref_states"] += 1
                p = a["params"]
                root = self._stack[0] if self._stack else -1
                self.ref_keys.add((root, p.lam, tuple(float(v) for v in p.alpha), int(a["mu"])))
        elif name == "specfun.hyper0F":
            self.counts["specfun.hyper0F_terms"] += result.terms_used
        elif name.startswith("verify.suite_"):
            self.counts["verify.checks"] += len(result)

    # -- summarising --------------------------------------------------------

    def totals(self):
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, incl, own = Counter(), Counter(), Counter()
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            incl[name] += end - start
            own[name] += end - start - inner
        return calls, incl, own

    def layer_metrics(self, rounds: int, imports: dict, overhead_s: float) -> dict:
        """Every LAYER_METRICS value, per traced round of the workload."""
        calls, incl, own = self.totals()
        c = self.counts
        ref_built = c["coherent.ref_states"]
        raw = {
            "cli.main_self_s": own["cli.main"],
            "algebra.build_fock_rep_calls": calls["algebra.build_fock_rep"],
            "algebra.build_fock_rep_s": incl["algebra.build_fock_rep"],
            "algebra.levels": c["algebra.levels"],
            "algebra.dense_bytes": c["algebra.dense_bytes"],
            "sga.build_sga_s": incl["sga.build_sga"],
            "sga.extract_s": incl["sga.extract_f_poly"] + incl["sga.extract_h_poly_and_casimir"],
            "sga.extract_calls": calls["sga.extract_f_poly"] + calls["sga.extract_h_poly_and_casimir"],
            "coherent.build_cs_calls": calls["coherent.build_cs"],
            "coherent.build_cs_s": incl["coherent.build_cs"],
            "coherent.levels": c["coherent.levels"],
            "coherent.ref_states": ref_built,
            "stats.quadrature_stats_calls": calls["stats.quadrature_stats"],
            "stats.quadrature_stats_s": incl["stats.quadrature_stats"],
            "stats.squeeze_ratios_s": incl["stats.squeeze_ratios"],
            "stats.mandel_q_s": incl["stats.mandel_q"],
            "specfun.hyper0F_calls": calls["specfun.hyper0F"],
            "specfun.hyper0F_s": incl["specfun.hyper0F"],
            "specfun.hyper0F_terms": c["specfun.hyper0F_terms"],
            "specfun.bessel_k_calls": calls["specfun.bessel_k"],
            "specfun.bessel_k_s": incl["specfun.bessel_k"],
            "measure.moment_check_calls": calls["measure.moment_check"],
            "measure.moment_check_s": incl["measure.moment_check"],
            "measure.weight_evals": c["measure.weight_evals"],
            "verify.commutators_s": incl["verify.suite_commutators"],
            "verify.sga_s": incl["verify.suite_sga"],
            "verify.cs_s": incl["verify.suite_cs"],
            "verify.checks": c["verify.checks"],
        }
        out = {name: value / rounds for name, value in raw.items()}
        # z = 0 references needed (one per distinct state within a top-level
        # call) / references built; 1 when none is built
        out["stats.ref_useful_ratio"] = len(self.ref_keys) / ref_built if ref_built else 1.0
        out.update(imports)
        out["trace.overhead_s"] = overhead_s
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        return {name: {"value": out[name], "unit": units[name]} for name, _, _ in LAYER_METRICS}
