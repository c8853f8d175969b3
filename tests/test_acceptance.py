"""Acceptance gate: one test per headline requirement, each printing a PASS
line with its headline number and measured worst case.  Budgeted ones carry a
wall-clock guard so regressions in speed fail loudly too."""

import math
import time

import numpy as np
from scipy import special

from cyclosc.algebra import (
    validate_params,
    random_admissible_alpha,
    structure_function,
)
from cyclosc.sga import (
    build_sga,
    extract_f_poly,
    extract_h_poly_and_casimir,
    closed_forms,
)
from cyclosc.coherent import build_cs, eigen_residual, mittag_leffler_check
from cyclosc.stats import mandel_q, quadrature_stats, squeeze_ratios, uncertainty_rhs
from cyclosc.measure import moment_target, weight_lambda2, weight_photon, moment_check
from cyclosc.cli import main as cli_main
from cyclosc.verify import dense_operators, _brute_norm

DEFORMED = {2: [0.7, -0.7], 3: [-0.5, 0.25, 0.25], 4: [0.3, -0.1, 0.2, -0.4]}


def _mandel(params, mu, z):
    return mandel_q(build_cs(params, mu, z))


def _ratios(params, mu, z):
    return squeeze_ratios(build_cs(params, mu, z), "dressed")


def test_01_commutation_relations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for lam in (2, 3, 4, 5):
        for _ in range(25):
            p = validate_params(lam, random_admissible_alpha(lam, rng))
            n_max = 4 * lam
            fock = dense_operators(p, n_max)
            comm = fock.a @ fock.a_dag - fock.a_dag @ fock.a
            want = np.diag(1.0 + p.alpha[np.arange(n_max + 1) % lam])
            dev = np.max(np.abs((comm - want)[:n_max, :n_max]))
            worst = max(worst, float(dev))
            assert dev < 1e-12
            diag = np.diag(fock.a_dag @ fock.a)
            want_f = np.array([structure_function(p, n) for n in range(n_max + 1)])
            assert np.max(np.abs(diag - want_f)) < 1e-12
    dt = time.perf_counter() - t0
    assert dt < 5.0
    print(f"PASS 01 commutation relations: 100 draws, worst dev {worst:.2e}, {dt:.2f}s")


def test_02_sga_polynomials_match_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    for lam in (2, 3):
        for _ in range(25):
            p = validate_params(lam, random_admissible_alpha(lam, rng))
            sga = build_sga(p, 3 * lam * lam + 2 * lam)
            s = extract_f_poly(sga)
            poly = extract_h_poly_and_casimir(sga, s)
            dev = max(float(np.max(np.abs(got - want)))
                      for got, want in zip((s, poly.t, poly.c), closed_forms(p)))
            worst = max(worst, dev)
            assert dev <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"PASS 02 SGA closed forms: 50 draws, worst dev {worst:.2e}, {dt:.2f}s")


def test_03_eigenstate_property():
    worst = 0.0
    for lam in (2, 3, 4):
        for alpha in ([0.0] * lam, DEFORMED[lam]):
            p = validate_params(lam, alpha)
            for mu in range(lam):
                for z in (0.5, 2.0 + 1.0j, -3.0):
                    cs = build_cs(p, mu, z)
                    r = eigen_residual(cs)
                    worst = max(worst, r)
                    assert r < 1e-10
    print(f"PASS 03 lowering-operator eigenstates: worst residual {worst:.2e}")


def test_04_normalization_cross_checks():
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(12):
        lam = int(rng.integers(2, 6))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        r = float(rng.uniform(0.2, 3.0))
        total = _brute_norm(p, mu, r)  # term-ratio recurrence of the defining series
        got = build_cs(p, mu, r).norm_factor
        rel = abs(got - total) / total
        worst = max(worst, rel)
        assert rel < 1e-11
    # lambda = 2 closed form: Gamma(nu+1) y^{-nu/2} I_nu(2 sqrt(y)), with
    # I_nu(x) = ive(nu, x) e^x from scipy (independent of both series routes)
    for a0 in (-0.5, 0.5, 2.0):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            for r in (0.4, 1.0, 2.5):
                nu = p.beta_bar[1] - 1.0 + mu
                y = r * r
                x = 2.0 * math.sqrt(y)
                want = math.gamma(nu + 1.0) * y ** (-nu / 2.0) * special.ive(nu, x) * math.exp(x)
                for got in (build_cs(p, mu, r).norm_factor, _brute_norm(p, mu, r)):
                    rel = abs(got - want) / want
                    worst = max(worst, rel)
                    assert rel < 1e-10
    print(f"PASS 04 normalization cross-checks: worst rel dev {worst:.2e}")


def test_05_undeformed_reduction():
    worst = 0.0
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            for z in (0.5, 1.0 + 0.5j):
                cs = build_cs(p, mu, z)
                ks = np.arange((cs.n_max - mu) // lam + 1)
                idx = mu + lam * ks
                want = np.array([
                    (lam * z) ** k * math.sqrt(math.gamma(mu + 1.0) / math.gamma(k * lam + mu + 1.0))
                    for k in ks
                ])
                want /= math.sqrt(float(np.sum(np.abs(want) ** 2)))
                dev = float(np.max(np.abs(cs.coeffs[idx] - want)))
                worst = max(worst, dev)
                assert dev < 1e-12
                ml = mittag_leffler_check(cs)
                worst = max(worst, ml)
                assert ml < 1e-12
    print(f"PASS 05 undeformed reduction: worst dev {worst:.2e}")


def test_06_measure_moments():
    t0 = time.perf_counter()
    worst = 0.0
    for a0 in (-0.5, 0.0, 0.5, 2.0):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            w = lambda y: weight_lambda2(p, mu, y)
            for k in range(11):
                _, rel = moment_check(w, mu, k, moment_target(p, mu, k))
                worst = max(worst, rel)
                assert rel < 1e-8, (a0, mu, k, rel)
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            w = lambda y: weight_photon(lam, mu, y)
            for k in range(11):
                _, rel = moment_check(w, mu, k, moment_target(p, mu, k))
                worst = max(worst, rel)
                assert rel < 1e-8, (lam, mu, k, rel)
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"PASS 06 measure moments: worst rel dev {worst:.2e}, {dt:.2f}s")


def test_07_mandel_q_structure():
    p0 = validate_params(2, [0.0, 0.0])
    for r in (0.25, 0.5, 1.0, 2.0, 4.0):
        assert _mandel(p0, 0, r) > 0.0
        assert _mandel(p0, 1, r) < 0.0
    assert math.isclose(_mandel(p0, 0, 1.0), 0.14657428130346245, rel_tol=1e-12)
    assert math.isclose(_mandel(p0, 1, 1.0), -0.14657428130346245, rel_tol=1e-12)
    q0, q1 = [], []
    for a0 in (-0.5, 0.0, 0.5, 1.0):
        p = validate_params(2, [a0, -a0])
        q0.append(_mandel(p, 0, 1.0))
        q1.append(_mandel(p, 1, 1.0))
    assert all(b > a for a, b in zip(q0, q0[1:]))
    assert all(b < a for a, b in zip(q1, q1[1:]))
    pm = validate_params(2, [-0.5, 0.5])
    assert _mandel(pm, 0, 0.4) * _mandel(pm, 0, 1.0) < 0.0
    pp = validate_params(2, [0.5, -0.5])
    assert _mandel(pp, 1, 1.2) * _mandel(pp, 1, 2.0) < 0.0
    print("PASS 07 Mandel Q: signs, deformation trend, and sign reversals as predicted")


def test_08_squeezing_structure():
    p = validate_params(2, [1.0, -1.0])
    for zr in np.linspace(-6.0, -0.1, 12):
        assert _ratios(p, 0, complex(zr))[0] < 1.0
    for r in (0.5, 1.5, 3.0):
        rp = _ratios(p, 0, complex(r))
        rn = _ratios(p, 0, complex(-r))
        assert abs(rn[0] - rp[1]) < 1e-10 and abs(rn[1] - rp[0]) < 1e-10
    for lam in (3, 5):
        po = validate_params(lam, [0.0] * lam)
        for zr in np.linspace(-3.0, 3.0, 9):
            if zr != 0.0:
                assert _ratios(po, 0, complex(zr))[0] >= 1.0 - 1e-10
    p4 = validate_params(4, [0.0] * 4)
    best = min(_ratios(p4, 0, complex(-r))[2] for r in np.geomspace(0.005, 2.0, 30))
    assert best < 0.95
    print(f"PASS 08 squeezing: X < 1 region, X/P exchange, odd-lambda floor, "
          f"fourth-order dip {best:.4f}")


def test_09_uncertainty_saturation():
    for lam, alpha in ((2, [0.5, -0.5]), (3, [-0.5, 0.25, 0.25])):
        p = validate_params(lam, alpha)
        for mu in range(lam):
            cs = build_cs(p, mu, 0.0)
            m = quadrature_stats(cs, "dressed")
            gap = m.var_x * m.var_p - uncertainty_rhs(p, mu)
            if mu == 0:
                assert abs(gap) < 1e-12
            else:
                assert gap >= 1e-6
    print("PASS 09 uncertainty bound: saturated by the mu = 0 vacuum only")


def test_10_cli_end_to_end(tmp_path):
    t0 = time.perf_counter()
    args = [
        "sweep", "--lambda", "2", "--alpha", "0.5,-0.5", "--mu", "1",
        "--quantity", "mandel-q", "--r-from", "0.25", "--r-to", "4", "--steps", "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    report = tmp_path / "verify.txt"
    assert cli_main(["verify", "--suite", "all", "--out", str(report)]) == 0
    assert "FAIL" not in report.read_text()
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"PASS 10 CLI: deterministic sweeps and full verification in {dt:.1f}s")
