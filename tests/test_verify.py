import cmath
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from cyclosc import algebra, verify
from cyclosc.algebra import random_admissible_alpha, validate_params
from cyclosc.coherent import build_cs, build_states, eigen_residual, stack_coeffs
from cyclosc.measure import unity_reconstruction
from cyclosc.sga import build_sga
from cyclosc.stats import _number_moments, quadrature_stats, uncertainty_rhs
from cyclosc.verify import CheckResult, SUITES, mittag_leffler_check, run_suites, suite_commutators, suite_cs
from cyclosc.verify import dense_number_moments, dense_operators, dense_quadrature_moments, dense_quadratures


def test_every_check_reports_a_finite_value_and_bound():
    for name, suite in SUITES.items():
        for r in suite(seed=0):
            assert isinstance(r.value, float) and math.isfinite(r.value), (name, r)
            assert isinstance(r.bound, float) and math.isfinite(r.bound), (name, r)
            assert r.ok == (r.value <= r.bound), (name, r)
    assert not CheckResult("x", "t", math.nan, 1.0).ok


def test_nan_moment_fails_dual_route(monkeypatch):
    # a NaN among the compared moments must not be dropped by the reduction
    orig = verify._moments

    def nan_var_p(stack, ladder, kind):
        m = orig(stack, ladder, kind)
        m[..., 1, 1] = math.nan
        return m

    monkeypatch.setattr(verify, "_moments", nan_var_p)
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


def _param_draws(lam):
    # alpha = 0 and one seeded admissible draw
    return [validate_params(lam, [0.0] * lam),
            validate_params(lam, random_admissible_alpha(lam, np.random.default_rng([lam, 21])))]


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_shorter_truncation_is_the_leading_block_except_h0(lam):
    # what lets suite_cs share one DenseOperators per parameter set
    for p in _param_draws(lam):
        m, big = 4 * lam + 3, 9 * lam + 2
        short, long_ = dense_operators(p, m), dense_operators(p, big)
        block = (slice(0, m + 1),) * 2
        for name in ("a", "a_dag"):
            assert np.array_equal(getattr(long_, name)[block], getattr(short, name)), name
        for got, want in zip(verify._canonical_pair(big), verify._canonical_pair(m)):
            assert np.array_equal(got[block], want)
        for kind in ("dressed", "real"):
            for got, want in zip(dense_quadratures(long_, kind), dense_quadratures(short, kind)):
                assert np.array_equal(got[block], want)
        # h0 is not: the a a† half of the short build misses F(m + 1) in its last entry
        long_h0, short_h0 = verify._h0_diagonal(long_), verify._h0_diagonal(short)
        differs = long_h0[:m + 1] != short_h0
        assert differs[m] and np.count_nonzero(differs) == 1
        assert long_h0[m] - short_h0[m] == pytest.approx(0.5 * algebra.structure_function(p, m + 1))


def _dense_operators_per_level(params, n_max):
    # dense_operators as a loop over levels, one F(n) at a time
    dim = n_max + 1
    a, b = np.zeros((dim, dim)), np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(algebra.structure_function(params, n))
        b[n - 1, n] = math.sqrt(n)
    projectors = [np.diag((np.arange(dim) % params.lam == mu).astype(float)) for mu in range(params.lam)]
    return (np.diag(np.arange(dim, dtype=float)), a, a.T.copy(), b, b.T.copy(), projectors,
            0.5 * (a @ a.T + a.T @ a))


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_dense_operators_equal_the_per_level_loop(lam):
    draws = _param_draws(lam)
    for n_max in (lam, 3 * lam * lam + 2 * lam):
        for p in draws:
            ops = dense_operators(p, n_max)
            _, a, a_dag, b, b_dag, _, h0 = _dense_operators_per_level(p, n_max)
            for g, w in zip((ops.a, ops.a_dag, *verify._canonical_pair(n_max)), (a, a_dag, b, b_dag)):
                assert np.array_equal(g, w)
            # h0 is diagonal, and _h0_diagonal is its diagonal
            assert np.array_equal(np.diag(verify._h0_diagonal(ops)), h0)
        # a stack holds each set's own a and a† along its leading axis
        stack = dense_operators(draws, n_max)
        assert stack.lam == lam and stack.a.shape == (len(draws), n_max + 1, n_max + 1)
        for k, p in enumerate(draws):
            own = dense_operators(p, n_max)
            assert np.array_equal(stack.a[k], own.a) and np.array_equal(stack.a_dag[k], own.a_dag)
            assert np.array_equal(verify._h0_diagonal(stack)[k], verify._h0_diagonal(own))
    with pytest.raises(ValueError, match="share one lambda"):
        dense_operators([draws[0], validate_params(lam + 1, [0.0] * (lam + 1))], 3 * lam * lam + 2 * lam)
    # the commutators suite's lambda-only reference, at its truncation
    n_op, _, _, b, b_dag, projectors, _ = _dense_operators_per_level(draws[0], verify.extraction_n_max(lam))
    proj, _, n_diag, b_sup, real = verify._lambda_reference(lam)
    assert np.array_equal([np.diag(row) for row in proj], projectors)
    assert np.array_equal(np.diag(n_diag), n_op) and np.array_equal(np.diag(b_sup, 1), b)
    for g, w in zip(real, ((b_dag + b) / np.sqrt(2.0), 1j * (b_dag - b) / np.sqrt(2.0))):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_shared_reference_matches_per_state_reference(lam):
    # the dense helpers read the leading block the size of their vector: one
    # build past every state's truncation gives what each state's own build gives
    for p in _param_draws(lam):
        states = [build_cs(p, mu, z) for mu in range(lam) for z in (0.5, 2 + 1j, -3.0)]
        shared = dense_operators(p, max(cs.n_max for cs in states) + 5)
        for cs in states:
            own = dense_operators(p, cs.n_max)
            pairs = [(dense_quadrature_moments(ops, cs.coeffs, kind).ravel() for ops in (shared, own))
                     for kind in ("dressed", "real")]
            pairs.append([dense_number_moments(ops, cs.coeffs) for ops in (shared, own)])
            for got, want in pairs:
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-15 * abs(w)
            lowered = np.linalg.matrix_power(own.a, lam) @ cs.coeffs
            for ops in (shared, own):
                got = verify._dense_lowered(ops, cs.coeffs)
                assert got.shape == cs.coeffs.shape
                assert np.max(np.abs(got - lowered)) <= 1e-15 * np.max(np.abs(lowered))


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_dense_helpers_on_a_stack_give_each_rows_result(lam):
    # rows of different truncations, zero-padded onto one basis: each row's result is
    # the one its vector gives alone on the leading block its size
    for p in _param_draws(lam):
        states = [cs for mu in range(lam) for cs in build_states(p, mu, (0.5, 2 + 1j, -3.0, 0.0))]
        stack = stack_coeffs(states)
        assert len({cs.coeffs.size for cs in states}) > 1
        dense = dense_operators(p, stack.shape[1] - 1)
        moments = {kind: dense_quadrature_moments(dense, stack, kind) for kind in ("dressed", "real")}
        mean_n, square_n = dense_number_moments(dense, stack)
        lowered = verify._dense_lowered(dense, stack)
        assert lowered.shape == stack.shape
        for i, cs in enumerate(states):
            pairs = [(moments[kind][i].ravel(), dense_quadrature_moments(dense, cs.coeffs, kind).ravel())
                     for kind in moments]
            pairs.append(((mean_n[i], square_n[i]), dense_number_moments(dense, cs.coeffs)))
            for got, want in pairs:
                for g, w in zip(got, want, strict=True):
                    assert abs(g - w) <= 1e-15 * abs(w)
            alone = verify._dense_lowered(dense, cs.coeffs)
            assert np.max(np.abs(lowered[i, :cs.coeffs.size] - alone)) <= 1e-15 * np.max(np.abs(alone))
            assert not lowered[i, cs.coeffs.size:].any()


def _suite_cs_per_state(seed):
    # suite_cs one state at a time: a build_cs or build_states call per label, the
    # production moments per state and the dense helpers on each state's own vector
    results = []
    add = results.append
    rng = np.random.default_rng(seed)
    lams = (2, 3, 4)
    n_builtin = sum(len(verify._BUILTIN.get(lam, [])) for lam in lams)
    for idx, (lam, alpha) in enumerate(verify._param_sets(seed, lams)):
        params = validate_params(lam, alpha)
        tag = verify._tag(lam, alpha)
        builtin = idx < n_builtin
        mus = range(lam) if builtin else [int(rng.integers(0, lam))]
        zs = [0.5 + 0j, 2 + 1j, -3 + 0j] if builtin else [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
        states = [cs for mu in mus for cs in build_states(params, mu, zs)]
        dense = dense_operators(params, max(cs.n_max for cs in states))
        for cs in states:
            mu, z = cs.mu, cs.z
            ztag = f"{tag} mu={mu} z={z}"
            res = eigen_residual(cs)
            add(verify._check("cs-eigen-residual", ztag, res, 1e-10))
            w = verify._dense_lowered(dense, cs.coeffs) - lam * z * cs.coeffs
            w[cs.n_max - lam + 1:] = 0.0
            res2 = float(np.linalg.norm(w) / lam / max(abs(z), 1.0))
            add(verify._check("cs-eigen-equivalent-form", ztag, abs(res2 - res), 1e-12))
            add(verify._check("cs-unit-norm", ztag, abs(float(np.linalg.norm(cs.coeffs)) - 1.0),
                              1e-12 + cs.tail_bound))
            add(verify._check("cs-norm-crosscheck", ztag,
                              abs(verify._brute_norm(params, mu, z) - cs.norm_factor) / cs.norm_factor, 1e-11))
            k_probe = min(3, (cs.n_max - mu) // lam)
            got = cmath.phase(cs.coeffs[k_probe * lam + mu])
            head = cs.coeffs[mu]
            dev = abs(cmath.exp(1j * (got - cmath.phase(z) * k_probe)) - 1.0)
            add(verify._check("cs-phase-convention", ztag,
                              dev if head.imag == 0.0 and head.real > 0 else math.inf, 1e-10))
            mm = quadrature_stats(cs, "dressed")
            ss = dense_quadrature_moments(dense, cs.coeffs, "dressed")
            mean_n, var_n = _number_moments(cs)
            sn, sn2 = dense_number_moments(dense, cs.coeffs)
            add(verify._check("dual-route-expectations", ztag, [
                *(abs(got - want) for got, want in zip(vars(mm).values(), ss.ravel())),
                abs(mean_n - sn), abs(var_n - (sn2 - sn * sn)),
            ], 1e-11))
            add(verify._check("uncertainty-product", ztag,
                              uncertainty_rhs(params, mu) - mm.var_x * mm.var_p, 1e-10))
            if lam == 2:
                ref = verify._bessel_norm_lambda2(params.beta_bar[1] - 1.0 + mu, abs(z))
                add(verify._check("cs-bessel-normalization", ztag,
                                  abs(ref - cs.norm_factor) / cs.norm_factor, 1e-10))
            if np.all(params.alpha == 0.0):
                add(verify._check("cs-mittag-leffler-form", ztag, mittag_leffler_check(cs), 1e-12))
        cs0, cs1 = stack_coeffs([build_cs(params, 0, 0.8 + 0.3j), build_cs(params, 1, 0.8 + 0.3j)])
        add(verify._check("cs-sector-orthogonality", tag, abs(complex(np.vdot(cs0, cs1))), 0.0))
        base, near = stack_coeffs(build_states(params, 0, (1.1 - 0.6j, 1.1 - 0.6j + 1e-6)))
        add(verify._check("cs-label-continuity", tag, np.linalg.norm(near - base), 1e-4))
        mu = 0 if builtin else int(rng.integers(0, lam))
        m0 = quadrature_stats(build_cs(params, mu, 0.0), "dressed")
        bb = params.beta_bar
        want = (lam / 2.0) * (bb[mu + 1] + bb[mu])
        mtag = f"{tag} mu={mu}"
        add(verify._check("vacuum-dispersions", mtag, [abs(m0.var_x - want), abs(m0.var_p - want)], 1e-12))
        gap = m0.var_x * m0.var_p - uncertainty_rhs(params, mu)
        value, bound = (abs(gap), 1e-12) if mu == 0 else (-gap, -1e-6)
        add(verify._check("vacuum-uncertainty-floor", mtag, value, bound))
    return results


@pytest.mark.parametrize("seed", range(4))
def test_stacked_cs_suite_matches_the_per_state_loop(seed):
    # the same checks in the same order; every value bit for bit except the dual
    # route, whose two sides now read every state on the basis of the longest
    stacked, per_state = suite_cs(seed=seed), _suite_cs_per_state(seed)
    assert [(r.name, r.tag, r.bound) for r in stacked] == [(r.name, r.tag, r.bound) for r in per_state]
    for got, want in zip(stacked, per_state):
        if got.name == "dual-route-expectations":
            assert abs(got.value - want.value) <= 1e-12, (got, want)
        else:
            assert got.value.hex() == want.value.hex(), (got, want)


def test_one_undeformed_test_for_the_cs_suite_and_the_rebuilds(monkeypatch):
    # alpha = 1e-10 is deformed for mittag_leffler_check and the photon weight, so the
    # cs suite runs no Mittag-Leffler check for it rather than raising
    alpha = [1e-10, -1e-10]
    params = validate_params(2, alpha)
    with pytest.raises(ValueError, match="requires alpha = 0"):
        mittag_leffler_check(build_cs(params, 0, 1.0))
    with pytest.raises(ValueError, match="requires alpha = 0"):
        unity_reconstruction(params, "photon", 2)

    monkeypatch.setattr(verify, "_BUILTIN", {2: [alpha]})
    tag = verify._tag(2, alpha)
    results = suite_cs(seed=0)
    mine = [r for r in results if r.tag.startswith(tag + " ") or r.tag == tag]
    assert sum(r.name == "cs-eigen-residual" for r in mine) == 6
    assert not any(r.name == "cs-mittag-leffler-form" for r in mine)
    assert all(r.ok for r in results)


@pytest.mark.parametrize("r_max, bound", [(30.0, 1e-14), (300.0, 1e-12)])
def test_bessel_norm_reference_against_mpmath(r_max, bound):
    # the Poisson-integral norm Gamma(nu+1) r^{-nu} I_nu(2r) against mpmath's besseli at 40
    # digits over nu in [-0.99, 6], one array call, each entry its own scalar call bit for bit
    rng = np.random.default_rng(int(r_max))
    nu = np.concatenate([[-0.99, -0.5, 0.0, 6.0, -0.99, 6.0], rng.uniform(-0.99, 6.0, 60)])
    r = np.concatenate([[r_max, 1e-3, 1.0, 1e-8, 0.25, r_max], rng.uniform(0.0, r_max, 60)])
    got = verify._bessel_norm_lambda2(nu, r)
    with mpmath.workdps(40):
        want = [mpmath.gamma(n + 1) * mpmath.mpf(x) ** -n * mpmath.besseli(n, 2 * x)
                for n, x in zip(map(mpmath.mpf, nu.tolist()), r.tolist())]
    assert max(float(abs(g - w) / w) for g, w in zip(got, want)) <= bound
    assert [verify._bessel_norm_lambda2(n, x) for n, x in zip(nu.tolist(), r.tolist())] == got.tolist()
    assert verify._bessel_norm_lambda2(0.3, 0.0) == 1.0


def test_bessel_norm_reference_against_scipy_ive():
    # scipy's exp-scaled ive, imported here only: the package's verify path loads no scipy.special
    from scipy.special import ive

    nu, r = np.meshgrid(np.linspace(-0.99, 6.0, 15), np.linspace(0.01, 30.0, 15))
    want = ive(nu, 2.0 * r) * np.exp(2.0 * r + np.vectorize(math.lgamma)(nu + 1.0) - nu * np.log(r))
    assert np.max(np.abs(verify._bessel_norm_lambda2(nu, r) - want) / want) <= 1e-13


@pytest.mark.parametrize("suite", ["commutators", "sga", "cs", "measure", "all"])
def test_verify_suites_leave_scipy_special_unloaded(suite):
    # every suite, the benchmark's verify workload's three and measure's Bessel-K weight
    # (specfun.bessel_k, numpy only) among them, runs without scipy.special
    src = str(pathlib.Path(verify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from cyclosc import cli; "
            f"assert cli.main(['verify', '--suite', {suite!r}, '--seed', '1']) == 0; "
            "assert 'scipy.special' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_verify_all_and_unity_reconstruction_load_no_scipy():
    # no module of the scipy package at all, under -W error
    src = str(pathlib.Path(verify.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys; from cyclosc import cli, measure, validate_params; "
            "assert cli.main(['verify', '--suite', 'all', '--seed', '1']) == 0; "
            "measure.unity_reconstruction(validate_params(2, [0.5, -0.5]), 'lambda2', 3); "
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); assert not loaded, loaded")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _dense_h0(fock):
    return 0.5 * (fock.a @ fock.a_dag + fock.a_dag @ fock.a)


def _diagonal_factor_draws(lam):
    # alpha = 0 and two seeded admissible draws, each with its extraction-size reference
    draws = [[0.0] * lam] + [random_admissible_alpha(lam, np.random.default_rng([lam, k])) for k in (21, 22)]
    params = [validate_params(lam, al) for al in draws]
    return params, [dense_operators(p, verify.extraction_n_max(lam)) for p in params]


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_diagonal_factor_scalings_equal_the_matmuls(lam):
    # each matmul entry with a diagonal factor sums one nonzero term, so the row
    # scaling d[:, None] * M and column scaling M * d are the matmul bit for bit
    # the diagonals the suite reads from its lambda-only reference, against their dense matrices
    proj, _, n_diag, _, _ = verify._lambda_reference(lam)
    projectors, n_op = [np.diag(row) for row in proj], np.diag(n_diag)
    for fock in _diagonal_factor_draws(lam)[1]:
        for mu in range(lam):
            nxt = projectors[(mu + 1) % lam]
            assert np.array_equal(fock.a_dag * proj[mu] - proj[(mu + 1) % lam][:, None] * fock.a_dag,
                                  fock.a_dag @ projectors[mu] - nxt @ fock.a_dag)
        # projector algebra: the diagonals carry every entry of P_mu P_nu - delta P_mu
        on_diag = proj[:, None] * proj - np.eye(lam)[:, :, None] * proj[:, None]
        for mu in range(lam):
            for nu in range(lam):
                dense = projectors[mu] @ projectors[nu] - (projectors[mu] if mu == nu else 0.0)
                assert np.array_equal(np.diag(on_diag[mu, nu]), dense)
        a, a_dag = fock.a, fock.a_dag
        assert np.array_equal(n_diag[:, None] * a_dag - a_dag * n_diag - a_dag, n_op @ a_dag - a_dag @ n_op - a_dag)
        assert np.array_equal(n_diag[:, None] * a - a * n_diag + a, n_op @ a - a @ n_op + a)
        parity = (-1.0) ** np.arange(fock.n_max + 1)
        kmat = np.diag(parity)
        assert np.array_equal(np.abs(parity[:, None] * fock.a_dag + fock.a_dag * parity),
                              np.abs(kmat @ fock.a_dag + fock.a_dag @ kmat))
        j_zero, j_plus = _dense_h0(fock) / lam, np.linalg.matrix_power(fock.a_dag, lam) / lam
        d0 = verify._h0_diagonal(fock) / lam
        assert np.array_equal(d0[:, None] * j_plus - j_plus * d0, j_zero @ j_plus - j_plus @ j_zero)


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_diagonal_reads_and_sector_polyval_equal_the_dense_forms(lam):
    polyval = np.polynomial.polynomial.polyval
    params, focks = _diagonal_factor_draws(lam)
    for fock in focks:
        j_plus = np.linalg.matrix_power(fock.a_dag, lam) / lam
        j_minus = np.linalg.matrix_power(fock.a, lam) / lam
        g = np.einsum("ij,ji->i", j_minus, j_plus)
        assert np.array_equal(g, np.diag(j_minus @ j_plus))
        assert np.array_equal(np.einsum("ij,ji->i", j_plus, j_minus) - g,
                              np.diag(j_plus @ j_minus - j_minus @ j_plus))
        assert np.array_equal(verify._h0_diagonal(fock), np.diag(_dense_h0(fock)))
    stack = dense_operators(params, verify.extraction_n_max(lam))
    assert np.array_equal(verify._h0_diagonal(stack), [np.diag(_dense_h0(fock)) for fock in focks])

    # sga's Horner over a stack of sets and every sector, J_0 on the levels k lam + mu, k < 2 lam,
    # against numpy's polyval one sector at a time
    polys = [build_sga(p) for p in params]
    ns = np.arange(2 * lam) * lam + np.arange(lam)[:, None]
    x = np.array([algebra.energy(p, ns) for p in params]) / lam
    for field, ks in (("t", 4), ("s", 2 * lam)):
        coeffs = np.array([getattr(poly, field) for poly in polys])
        rows = verify._horner(coeffs, x[..., :ks])
        loop = [[polyval(algebra.energy(p, n) / lam, c[mu]) for mu, n in enumerate(ns[:, :ks])]
                for p, c in zip(params, coeffs)]
        assert np.array_equal(rows, loop)
    # casimir-constancy's row-wise std over a stack is the per-sector one
    j_minus, j_plus = (np.linalg.matrix_power(m, lam) / lam for m in (stack.a, stack.a_dag))
    g = np.einsum("...ij,...ji->...i", j_minus, j_plus)
    vals = g[:, ns[:, :4]] + verify._horner(np.array([poly.t for poly in polys]), x[..., :4])
    assert np.array_equal(np.std(vals, axis=-1), [[np.std(row) for row in rows_k] for rows_k in vals])


def test_stacks_group_equal_lambda_sets_under_the_cap():
    # lambda = 2 and 3 run as whole groups, lambda = 4 in stacks of two, lambda = 5 one set a stack
    params = [validate_params(lam, al) for lam, al in verify._param_sets(0)]
    stacks = list(verify._stacks(params))
    assert [(params[idx[0]].lam, len(idx)) for idx in stacks] == [
        (2, 9), (3, 7), (4, 2), (4, 2), (4, 2), (4, 1), (5, 1), (5, 1), (5, 1), (5, 1), (5, 1), (5, 1)]
    assert sorted(k for idx in stacks for k in idx) == list(range(len(params)))
    assert all(len({params[k].lam for k in idx}) == 1 for idx in stacks)


@pytest.mark.parametrize("seed", range(4))
def test_stacked_suites_match_one_set_a_stack(seed, monkeypatch):
    # a stack computes each set's checks as that set alone would: with a cap that holds
    # one set a stack, every CheckResult is the same, in the same order, bit for bit
    def key(results):
        return [(r.name, r.tag, r.bound, r.value.hex()) for r in results]

    stacked = {name: key(SUITES[name](seed=seed)) for name in ("commutators", "sga")}
    monkeypatch.setattr(verify, "_STACK_ENTRIES", 1)
    params = [validate_params(lam, al) for lam, al in verify._param_sets(seed)]
    assert all(len(idx) == 1 for idx in verify._stacks(params))
    for name, want in stacked.items():
        assert key(SUITES[name](seed=seed)) == want, name


def test_failed_extraction_ends_only_its_sets_checks(monkeypatch):
    # a build_sga failure is its set's last check, both inside a stack (lambda = 3, whose
    # seven sets form one) and in a stack of one (every lambda = 5 set); every other
    # check is unchanged
    failing = verify._tag(3, [-0.5, 0.25, 0.25])
    orig = verify.build_sga

    def fail_some(stack):
        # the stacked entry point: each set gets its polynomials or its RuntimeError
        return [RuntimeError("no fit") if p.lam == 5 or verify._tag(3, p.alpha) == failing else poly
                for p, poly in zip(stack, orig(stack))]

    def others(results):
        return [(r.name, r.tag, r.value.hex()) for r in results if r.tag.removesuffix(" no fit") not in failed]

    want = verify.suite_sga(seed=0)
    monkeypatch.setattr(verify, "build_sga", fail_some)
    got = verify.suite_sga(seed=0)
    failed = {r.tag.removesuffix(" no fit") for r in got if r.name == "polynomial-extraction" and not r.ok}
    assert len(failed) == 7 and failing in failed
    for tag in failed:
        mine = [r for r in got if r.tag.removesuffix(" no fit") == tag]
        assert [r.name for r in mine] == ["j0-ladder-commutator", "jminus-annihilates-sector-floor",
                                          "polynomial-extraction"]
        assert mine[-1].tag == tag + " no fit" and mine[-1].value == math.inf
    assert others(got) == others(want)


def test_stacked_suites_run_in_bounded_memory():
    # the stack cap bounds the stacked matrices: warm tracemalloc peaks measured 1.10 MB
    # (commutators) and 0.52 MB (sga), 1.36 and 0.96 MB with twice the cap and 2.99 and
    # 2.25 MB with one stack per lambda
    for suite in (suite_commutators, verify.suite_sga):
        suite(seed=1)
        tracemalloc.start()
        try:
            suite(seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_500_000, (suite.__name__, peak)
