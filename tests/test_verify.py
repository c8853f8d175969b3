import dataclasses
import math
import re

import numpy as np

from cyclosc import algebra, verify
from cyclosc.verify import CheckResult, SUITES, run_suites, suite_commutators, suite_cs


def test_every_check_reports_a_finite_value_and_bound():
    for name, suite in SUITES.items():
        for r in suite(seed=0):
            assert isinstance(r.value, float) and math.isfinite(r.value), (name, r)
            assert isinstance(r.bound, float) and math.isfinite(r.bound), (name, r)
            assert r.ok == (r.value <= r.bound), (name, r)
    assert not CheckResult("x", "t", math.nan, 1.0).ok


def test_nan_moment_fails_dual_route(monkeypatch):
    # a NaN among the compared moments must not be dropped by the reduction
    orig = verify.quadrature_stats

    def nan_var_p(cs, kind):
        return dataclasses.replace(orig(cs, kind), var_p=math.nan)

    monkeypatch.setattr(verify, "quadrature_stats", nan_var_p)
    found = [r for r in suite_cs(seed=0) if r.name == "dual-route-expectations"]
    assert found
    assert not any(r.ok for r in found)
    assert all(math.isnan(r.value) for r in found)


def test_zero_structure_function_fails_positivity(monkeypatch):
    # F(1) = 0 is inadmissible: structure-positivity keeps the strict F > 0,
    # and the report keeps its FAIL and suite line formats
    orig = algebra.structure_function

    def zero_at_one(params, n):
        return np.where(np.asarray(n) == 1, 0.0, orig(params, n))

    monkeypatch.setattr(algebra, "structure_function", zero_at_one)
    found = [r for r in suite_commutators(seed=0) if r.name == "structure-positivity"]
    assert found
    assert not any(r.ok for r in found)

    ok, lines = run_suites(["commutators"], seed=0)
    assert not ok
    assert lines[0] == "seed: 0"
    assert re.fullmatch(r"suite commutators: \d+/279 checks passed", lines[-1])
    fails = lines[1:-1]
    assert sum("] structure-positivity: lam=" in line for line in fails) == len(found)
    for line in fails:
        assert re.fullmatch(r"FAIL \[commutators\] [a-z0-9-]+: lam=\d .* dev=\S+ bound=\S+", line), line
