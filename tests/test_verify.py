import dataclasses
import math
import re

import numpy as np
import pytest

from cyclosc import algebra, verify
from cyclosc.algebra import random_admissible_alpha, validate_params
from cyclosc.coherent import build_cs
from cyclosc.sga import build_sga
from cyclosc.verify import CheckResult, SUITES, run_suites, suite_commutators, suite_cs
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
        for name in ("n_op", "a", "a_dag", "b", "b_dag"):
            assert np.array_equal(getattr(long_, name)[block], getattr(short, name)), name
        for got, want in zip(long_.projectors, short.projectors):
            assert np.array_equal(got[block], want)
        for kind in ("dressed", "real"):
            for got, want in zip(dense_quadratures(long_, kind), dense_quadratures(short, kind)):
                assert np.array_equal(got[block], want)
        # h0 is not: the a a† half of the short build misses F(m + 1) in its last entry
        differs = long_.h0[block] != short.h0
        assert differs[m, m] and np.count_nonzero(differs) == 1
        assert long_.h0[m, m] - short.h0[m, m] == pytest.approx(0.5 * algebra.structure_function(p, m + 1))


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
    for p in _param_draws(lam):
        for n_max in (lam, 3 * lam * lam + 2 * lam):
            ops = dense_operators(p, n_max)
            got = (ops.n_op, ops.a, ops.a_dag, ops.b, ops.b_dag, ops.projectors, ops.h0)
            for g, w in zip(got, _dense_operators_per_level(p, n_max)):
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
            pairs = [(vars(dense_quadrature_moments(ops, cs.coeffs, kind)).values() for ops in (shared, own))
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


def _diagonal_factor_draws(lam):
    # alpha = 0 and two seeded admissible draws, each with its extraction-size reference
    draws = [[0.0] * lam] + [random_admissible_alpha(lam, np.random.default_rng([lam, k])) for k in (21, 22)]
    return [dense_operators(validate_params(lam, al), verify.extraction_n_max(lam)) for al in draws]


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_diagonal_factor_scalings_equal_the_matmuls(lam):
    # each matmul entry with a diagonal factor sums one nonzero term, so the row
    # scaling d[:, None] * M and column scaling M * d are the matmul bit for bit
    for fock in _diagonal_factor_draws(lam):
        proj = np.array([np.diag(pm) for pm in fock.projectors])
        for mu in range(lam):
            nxt = fock.projectors[(mu + 1) % lam]
            assert np.array_equal(fock.a_dag * proj[mu] - proj[(mu + 1) % lam][:, None] * fock.a_dag,
                                  fock.a_dag @ fock.projectors[mu] - nxt @ fock.a_dag)
        # projector algebra: the diagonals carry every entry of P_mu P_nu - delta P_mu
        on_diag = proj[:, None] * proj - np.eye(lam)[:, :, None] * proj[:, None]
        for mu in range(lam):
            for nu in range(lam):
                dense = fock.projectors[mu] @ fock.projectors[nu] - (fock.projectors[mu] if mu == nu else 0.0)
                assert np.array_equal(np.diag(on_diag[mu, nu]), dense)
        n_diag = np.diag(fock.n_op)
        n_op, a, a_dag = fock.n_op, fock.a, fock.a_dag
        assert np.array_equal(n_diag[:, None] * a_dag - a_dag * n_diag - a_dag, n_op @ a_dag - a_dag @ n_op - a_dag)
        assert np.array_equal(n_diag[:, None] * a - a * n_diag + a, n_op @ a - a @ n_op + a)
        parity = (-1.0) ** np.arange(fock.n_max + 1)
        kmat = np.diag(parity)
        assert np.array_equal(np.abs(parity[:, None] * fock.a_dag + fock.a_dag * parity),
                              np.abs(kmat @ fock.a_dag + fock.a_dag @ kmat))
        j_zero, j_plus = fock.h0 / lam, np.linalg.matrix_power(fock.a_dag, lam) / lam
        d0 = np.diag(fock.h0) / lam
        assert np.array_equal(d0[:, None] * j_plus - j_plus * d0, j_zero @ j_plus - j_plus @ j_zero)


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_diagonal_reads_and_sector_polyval_equal_the_dense_forms(lam):
    polyval = np.polynomial.polynomial.polyval
    for fock in _diagonal_factor_draws(lam):
        j_plus = np.linalg.matrix_power(fock.a_dag, lam) / lam
        j_minus = np.linalg.matrix_power(fock.a, lam) / lam
        g = np.einsum("ij,ji->i", j_minus, j_plus)
        assert np.array_equal(g, np.diag(j_minus @ j_plus))
        assert np.array_equal(np.einsum("ij,ji->i", j_plus, j_minus) - g,
                              np.diag(j_plus @ j_minus - j_minus @ j_plus))

        params = fock.params
        poly = build_sga(params)
        for coeffs, ks in ((poly.t, 4), (poly.s, 2 * lam)):
            ns = np.arange(ks) * lam + np.arange(lam)[:, None]
            rows = verify._sector_polyval(params, ns, coeffs)
            loop = [polyval(algebra.energy(params, n) / lam, coeffs[mu]) for mu, n in enumerate(ns)]
            assert np.array_equal(rows, loop)
        # casimir-constancy's row-wise std is the per-sector one
        ns = np.arange(4) * lam + np.arange(lam)[:, None]
        vals = g[ns] + verify._sector_polyval(params, ns, poly.t)
        assert np.array_equal(np.std(vals, axis=1), [np.std(row) for row in vals])
