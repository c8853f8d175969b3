"""Tests of the benchmark itself: its references, its statistics, how it
counts failed operations, and the traced run's wrappers.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import pytest

import run

run.import_program()

import cyclosc  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, CliResult, Op  # noqa: E402

ALPHAS_2 = ([Fraction(0), Fraction(0)], [Fraction(1, 2), Fraction(-1, 2)],
            [Fraction(-17, 20), Fraction(17, 20)], [Fraction(3), Fraction(-3)])
ALPHAS_3 = ([Fraction(0)] * 3, [Fraction(-1, 2), Fraction(1, 4), Fraction(1, 4)],
            [Fraction(3, 10), Fraction(-7, 20), Fraction(1, 20)])


# ---------------------------------------------------------------------------
# references

@pytest.mark.parametrize("alpha", ALPHAS_2)
def test_sga_reference_lambda2_closed_form(alpha):
    s, t, c = refs.sga_polynomials(alpha)
    for mu in range(2):
        a = alpha[mu]
        assert s[mu] == [0, -2]                    # f = -2 J0
        assert t[mu] == [0, -1, -1]                # h = -J0 (J0 + 1)
        assert c[mu] == (1 + a) * (3 - a) / 16


@pytest.mark.parametrize("alpha", ALPHAS_3)
def test_sga_reference_lambda3_closed_form(alpha):
    s, t, c = refs.sga_polynomials(alpha)
    for mu in range(3):
        a0, a1 = alpha[mu], alpha[(mu + 1) % 3]
        assert s[mu] == [-(1 + a0) * (5 - a0) / 12, -(a0 + 2 * a1), -9]
        assert t[mu] == [0, -(23 + 10 * a0 + 12 * a1 - a0 * a0) / 12, -(9 + a0 + 2 * a1) / 2, -3]
        assert c[mu] == (1 + a0) * (5 - a0) * (3 + a0 + 2 * a1) / 72


@pytest.mark.parametrize("lam", range(2, 9))
def test_sga_reference_photon_limit(lam):
    # alpha = 0: F(n) = n and n = lambda J0 - 1/2 in every sector, so f and h
    # do not depend on the sector and C = prod_j (j - 1/2) / lambda^2
    s, t, c = refs.sga_polynomials([Fraction(0)] * lam)
    casimir = Fraction(1, lam * lam)
    for j in range(1, lam + 1):
        casimir *= j - Fraction(1, 2)
    assert all(row == s[0] for row in s) and all(row == t[0] for row in t)
    assert c == [casimir] * lam
    assert t[0][lam] == -Fraction(lam ** lam, lam * lam)


@pytest.mark.parametrize("mu, r", [(0, 0.3), (0, 2.5), (1, 0.7), (1, 4.0)])
def test_cs_moments_lambda2_closed_form(mu, r):
    # alpha = 0, lambda = 2: |c_n|^2 ~ x^n / n! on one parity, x = 2|z|, so
    # <N> = x tanh x (even sector) or x coth x (odd sector)
    m = refs.cs_moments([0, 0], mu, r * complex(math.cos(1.1), math.sin(1.1)))
    x = 2.0 * r
    want = x * math.tanh(x) if mu == 0 else x / math.tanh(x)
    assert m["mean_n"] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("lam, mu, z", [(3, 0, 1.5), (3, 2, 0.8 - 1.1j), (4, 1, 2.0j), (5, 4, 2.5)])
def test_cs_moments_photon_limit(lam, mu, z):
    # alpha = 0: c_{k lam + mu} ~ (lam z)^k sqrt(mu! / (k lam + mu)!)
    weights = [mpmath.mpf(abs(lam * z)) ** (2 * k) / mpmath.factorial(k * lam + mu) for k in range(80)]
    norm = mpmath.fsum(weights)
    mean = mpmath.fsum((k * lam + mu) * w for k, w in enumerate(weights)) / norm
    second = mpmath.fsum((k * lam + mu) ** 2 * w for k, w in enumerate(weights)) / norm
    m = refs.cs_moments([0] * lam, mu, z)
    assert m["mean_n"] == pytest.approx(float(mean), rel=1e-13)
    assert m["second_n"] == pytest.approx(float(second), rel=1e-13)


@pytest.mark.parametrize("alpha", [[0.5, -0.5], [-0.5, 0.25, 0.25], [0.3, -0.1, 0.2, -0.4]])
def test_cs_moments_vacuum_dispersion(alpha):
    # z = 0 is the level |mu>: var_x = var_p = (F(mu) + F(mu + 1)) / 2
    beta = refs.partial_sums(alpha)
    lam = len(alpha)
    for mu in range(lam):
        m = refs.cs_moments(alpha, mu, 0.0)
        want = (mu + beta[mu] + mu + 1 + beta[(mu + 1) % lam]) / 2
        assert m["var_x"] == pytest.approx(want, rel=1e-14)
        assert m["var_p"] == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("lam", range(2, 6))
def test_moment_target_photon_limit(lam):
    # alpha = 0: D_k^2 = (lam k + mu)! / (mu! lam^{lam k})
    for mu in range(lam):
        for k in range(7):
            d2 = math.factorial(lam * k + mu) / (math.factorial(mu) * lam ** (lam * k))
            want = d2 / (math.pi * lam ** (lam - 2))
            assert refs.moment_target([0] * lam, mu, k) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("a0", [-0.9, 0.5, 2.75])
def test_moment_target_lambda2(a0):
    # lambda = 2: D_k^2 = k! (bb_1 + mu)_k with bb_1 = (1 + alpha_0) / 2
    bb1 = (1.0 + a0) / 2.0
    for mu in (0, 1):
        for k in range(13):
            rising = math.prod(bb1 + mu + j for j in range(k))
            want = math.factorial(k) * rising / math.pi
            assert refs.moment_target([a0, -a0], mu, k) == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# statistics and op accounting

def test_no_tail_under_forty_samples():
    assert run.tail_percentile(list(range(39)), 75.0) is None
    assert run.tail_percentile(list(range(40)), 75.0) == 29
    assert run.tail_percentile(list(range(40)), 90.0) is None     # four beyond
    assert run.tail_percentile(list(range(100)), 90.0) == 89


def test_each_workload_has_a_tail():
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, 0)
        assert run.tail_percentile([0.0] * len(ops), workloads.TAIL_PCT[name]) is not None


def _ok_check(res, results):
    if res.out != "fine":
        raise CheckError("wrong output")
    return 3


def _raise():
    raise RuntimeError("boom")


def test_failed_ops_counted_and_run_goes_on():
    faults = {"known": lambda r: isinstance(r, CliResult) and r.rc == 3 and "known" in r.err}
    ops = [
        Op("ok", lambda: CliResult(0, "fine", ""), _ok_check),
        Op("exit-known", lambda: CliResult(3, "", "error: known"), _ok_check, "known"),
        Op("exit-other", lambda: CliResult(3, "", "error: other"), _ok_check, "known"),
        Op("wrong", lambda: CliResult(0, "bad", ""), _ok_check),
        Op("raises", _raise, _ok_check),
        Op("ok-again", lambda: CliResult(0, "fine", ""), _ok_check),
    ]
    tally = run.Tally(ops, faults)
    for _ in range(2):
        tally.add(*run.run_round(ops))
    assert tally.attempted == 12
    assert tally.failed == 8
    assert tally.op_items == [3, 0, 0, 0, 0, 3]
    assert set(tally.problems) == {"exit-other", "wrong", "raises"}
    assert not tally.correct
    assert tally.op_failed == [False, True, True, True, True, False]

    clean = run.Tally(ops[:2], faults)
    clean.add(*run.run_round(ops[:2]))
    assert (clean.failed, clean.correct) == (1, True)


def test_repeats_are_spread_over_the_round():
    calls = []
    ops = [Op(name, lambda name=name: calls.append(name) or CliResult(0, "fine", ""), _ok_check,
              repeat=repeat) for name, repeat in (("a", 1), ("b", 3), ("c", 2))]
    tally = run.Tally(ops, {})
    tally.add(*run.run_round(ops))
    assert calls == ["a", "b", "c", "b", "c", "b"]
    assert (tally.attempted, [len(t) for t in tally.op_times]) == (6, [1, 3, 2])


def test_fault_matchers():
    match = workloads.FAULTS
    assert match["sga-monomial-fit"](CliResult(
        3, "", "error: [J_+, J_-] is not a degree-17 polynomial in J_0 on sector 11 (validation residual 1.9e-08)"))
    assert not match["sga-monomial-fit"](CliResult(1, "", "error: inadmissible alpha"))
    diag = "FAIL [commutators] number-diagonal: lam=4 alpha=[0.1]\n"
    assert match["number-diagonal"](CliResult(2, diag, "error: verification failed"))
    other = diag + "FAIL [commutators] commutator-identity: lam=4\n"
    assert not match["number-diagonal"](CliResult(2, other, "error: verification failed"))


def test_inputs_repeat_for_a_seed():
    for name in workloads.WORKLOADS:
        first = [(op.label, op.info) for op in workloads.build(name, 7)]
        assert first == [(op.label, op.info) for op in workloads.build(name, 7)]
        assert first != [(op.label, op.info) for op in workloads.build(name, 8)]
        assert len({label for label, _ in first}) == len(first)


# ---------------------------------------------------------------------------
# tracing

def _bindings():
    from cyclosc import cli, coherent, measure, stats, verify
    return {
        "cli.main": cli.main, "cli.build_cs": cli.build_cs, "stats.build_cs": stats.build_cs,
        "verify.build_cs": verify.build_cs, "measure.build_cs": measure.build_cs,
        "coherent.build_cs": coherent.build_cs, "SUITES.cs": verify.SUITES["cs"],
        "measure.bessel_k": measure.bessel_k, "cyclosc.build_cs": cyclosc.build_cs,
    }


def test_tracer_wraps_every_binding_and_restores_originals(monkeypatch):
    monkeypatch.setitem(spans.TRACED, "algebra", spans.TRACED["algebra"] + ("no_such_function",))
    before = _bindings()
    tracer = spans.Tracer()
    with tracer:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert during["cli.build_cs"] is during["stats.build_cs"] is during["cyclosc.build_cs"]
        assert during["SUITES.cs"].__wrapped__ is before["SUITES.cs"]
        rc = workloads.run_cli(["sweep", "--lambda", "2", "--quantity", "X",
                                "--r-from", "0.5", "--r-to", "1", "--steps", "3"]).rc
    assert rc == 0
    after = _bindings()
    assert all(after[k] is before[k] for k in before)

    calls, incl, own = tracer.totals()
    assert calls["cli.main"] == 1
    assert calls["algebra.build_fock_rep"] == 3
    assert calls["stats.squeeze_ratios"] == 3
    assert 0.0 <= own["cli.main"] <= incl["cli.main"]
    metrics = tracer.layer_metrics(1, {"import.cyclosc_s": 0.5, "import.scipy_integrate_s": 0.4}, 0.0)
    assert [name for name, _, _ in spans.LAYER_METRICS] == list(metrics)
    assert metrics["coherent.ref_states"]["value"] == 3
    assert metrics["stats.ref_useful_ratio"]["value"] == pytest.approx(1 / 3)
    assert metrics["specfun.bessel_k_calls"]["value"] == 0


def test_benchmark_json_names_the_reported_metrics():
    import json
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(spans.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
