import numpy as np
import pytest

from cyclosc.algebra import (
    validate_params,
    structure_function,
    energy,
    build_fock_rep,
    random_admissible_alpha,
)
from cyclosc.coherent import build_cs
from cyclosc.measure import moment_target, weight_lambda2, weight_photon
from cyclosc.stats import _quadratures, _stencil, uncertainty_rhs
from cyclosc.verify import _h0_diagonal, dense_operators, dense_quadratures


def _projectors(lam, dim):
    # P_mu for mu = 0..lambda-1 on |0> ... |dim - 1>, from the residue of each level
    return [np.diag((np.arange(dim) % lam == mu).astype(float)) for mu in range(lam)]


def test_derived_arrays_lambda2():
    p = validate_params(2, [0.5, -0.5])
    assert p.beta.tolist() == [0.0, 0.5, 0.0]
    assert p.beta_bar.tolist() == [0.0, 0.75, 1.0]
    assert p.gamma.tolist() == [0.25, 0.25]


def test_structure_function_fixtures():
    p = validate_params(2, [0.5, -0.5])
    assert [structure_function(p, n) for n in (0, 1, 2, 3)] == [0.0, 1.5, 2.0, 3.5]


def test_energy_fixtures():
    p = validate_params(2, [0.5, -0.5])
    assert [energy(p, n) for n in (0, 1, 2)] == [0.75, 1.75, 2.75]
    assert energy(p, np.arange(3)).tolist() == [0.75, 1.75, 2.75]
    # within a residue class the spacing is lambda
    assert energy(p, 5) - energy(p, 3) == 2.0


def test_validate_rejects_bad_input():
    with pytest.raises(ValueError):
        validate_params(1, [0.0])
    with pytest.raises(ValueError):
        validate_params(2, [0.1, 0.1])  # sum must vanish
    with pytest.raises(ValueError):
        validate_params(2, [0.5, -0.5, 0.0])
    with pytest.raises(ValueError, match="alpha_0"):
        validate_params(2, [-1.0, 1.0])  # F(1) = 0 closes the ladder


def test_validate_rejects_non_integral_lambda():
    # int() would truncate 2.9 to 2 and accept the length-2 alpha
    with pytest.raises(ValueError, match="integer"):
        validate_params(2.9, [0.5, -0.5])
    assert validate_params(2.0, [0.5, -0.5]).lam == 2


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, match", [
    pytest.param(lambda p: build_cs(p, 1.5, 0.5), r"mu must be in 0\.\.1, got 1\.5", id="build_cs-mu-1.5"),
    pytest.param(lambda p: build_cs(p, _NAN, 0.5), r"mu must be in 0\.\.1, got nan", id="build_cs-mu-nan"),
    pytest.param(lambda p: uncertainty_rhs(p, 0.5), r"mu must be in 0\.\.1", id="uncertainty_rhs-mu-0.5"),
    pytest.param(lambda p: moment_target(p, 0.5, 2), r"mu must be in 0\.\.1", id="moment_target-mu-0.5"),
    pytest.param(lambda p: validate_params(_INF, [0.0, 0.0]), "integer >= 2, got inf", id="validate_params-inf"),
    pytest.param(lambda p: validate_params(_NAN, [0.0, 0.0]), "integer >= 2, got nan", id="validate_params-nan"),
    pytest.param(lambda p: weight_photon(_INF, 0, 1.0), "integer >= 2, got inf", id="weight_photon-inf"),
    pytest.param(lambda p: weight_photon(1.5, 0, 1.0), "integer >= 2, got 1.5", id="weight_photon-lambda-1.5"),
    pytest.param(lambda p: weight_photon(2, 0.5, 1.0), r"mu must be in 0\.\.1, got 0\.5", id="weight_photon-mu-0.5"),
    pytest.param(lambda p: weight_photon(2, 2, 1.0), r"mu must be in 0\.\.1, got 2", id="weight_photon-mu-2"),
    pytest.param(lambda p: weight_photon(2, _NAN, 1.0), r"mu must be in 0\.\.1, got nan", id="weight_photon-mu-nan"),
    pytest.param(lambda p: weight_lambda2(p, 0.5, 1.0), r"mu must be in 0\.\.1, got 0\.5", id="weight_lambda2-mu-0.5"),
    pytest.param(lambda p: weight_lambda2(p, 2, 1.0), r"mu must be in 0\.\.1, got 2", id="weight_lambda2-mu-2"),
    pytest.param(lambda p: weight_lambda2(p, _NAN, 1.0), r"mu must be in 0\.\.1, got nan", id="weight_lambda2-mu-nan"),
])
def test_nonintegral_labels_are_bad_input(call, match):
    with pytest.raises(ValueError, match=match):
        call(validate_params(2, [0.5, -0.5]))


def test_integral_float_label_is_a_sector():
    p = validate_params(3, [0.0] * 3)
    cs = build_cs(p, 2.0, 0.5)
    assert cs.mu == 2 and np.array_equal(cs.coeffs, build_cs(p, 2, 0.5).coeffs)


@pytest.mark.parametrize("alpha", [
    [float("nan"), float("nan")],
    [float("inf"), float("-inf")],
    [0.5, float("nan"), -0.5],
    [float("-inf"), 0.0, 0.0],
])
def test_validate_rejects_nonfinite_alpha(alpha):
    # NaN slips through both the zero-sum and the admissibility comparisons
    with pytest.raises(ValueError, match="finite"):
        validate_params(len(alpha), alpha)
    with pytest.raises(ValueError):
        validate_params(3, [-1.5, 1.0, 0.5])


def test_recentering_makes_sum_vanish():
    p = validate_params(3, [0.3, 0.2, -0.5 + 3e-10])
    assert abs(float(p.alpha.sum())) < 1e-16


def test_commutator_identity_random():
    rng = np.random.default_rng(42)
    for lam in (2, 3, 4, 5):
        for _ in range(5):
            p = validate_params(lam, random_admissible_alpha(lam, rng))
            fock = dense_operators(p, 20)
            comm = fock.a @ fock.a_dag - fock.a_dag @ fock.a
            target = np.eye(21) + sum(
                p.alpha[m] * pm for m, pm in enumerate(_projectors(lam, 21))
            )
            assert np.max(np.abs((comm - target)[:20, :20])) < 1e-13


def test_projector_shift_exact():
    p = validate_params(3, [0.2, -0.3, 0.1])
    fock = dense_operators(p, 12)
    projectors = _projectors(3, 13)
    for m in range(3):
        lhs = fock.a_dag @ projectors[m]
        rhs = projectors[(m + 1) % 3] @ fock.a_dag
        assert np.array_equal(lhs, rhs)


def test_projectors_resolve_identity():
    p = validate_params(4, [0.3, -0.1, 0.2, -0.4])
    projectors = _projectors(4, 18)
    assert np.array_equal(sum(projectors), np.eye(18))
    for m in range(4):
        for nu in range(4):
            prod = projectors[m] @ projectors[nu]
            if m == nu:
                assert np.array_equal(prod, projectors[m])
            else:
                assert np.max(np.abs(prod)) == 0.0


def test_number_diagonal_as_constructed():
    p = validate_params(4, [0.3, -0.1, 0.2, -0.4])
    fock = dense_operators(p, 17)
    diag = np.diag(fock.a_dag @ fock.a)
    expected = np.array([0.0] + [fock.a[n - 1, n] ** 2 for n in range(1, 18)])
    assert np.array_equal(diag, expected)
    fs = [structure_function(p, n) for n in range(18)]
    assert np.allclose(diag, fs, rtol=1e-14, atol=0.0)


def test_alpha_zero_reduces_to_canonical_ladder():
    p = validate_params(3, [0.0, 0.0, 0.0])
    fock = dense_operators(p, 10)
    b = np.diag(np.sqrt(np.arange(1, 11)), 1)
    assert np.array_equal(fock.a, b)
    assert np.array_equal(fock.a_dag, b.T)
    for got, want in zip(dense_quadratures(fock, "dressed"), dense_quadratures(fock, "real")):
        assert np.array_equal(got, want)


def test_parity_relations_lambda2():
    p = validate_params(2, [0.7, -0.7])
    fock = dense_operators(p, 14)
    k = np.diag((-1.0) ** np.arange(15))
    assert np.max(np.abs(k @ fock.a_dag + fock.a_dag @ k)) == 0.0
    comm = fock.a @ fock.a_dag - fock.a_dag @ fock.a
    assert np.max(np.abs((comm - np.eye(15) - 0.7 * k)[:14, :14])) < 1e-13


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_ladder_shifts_match_dense_matrices(lam):
    # the moment kernel's shift x v, p v against the dense quadrature matrices
    rng = np.random.default_rng(lam)
    p = validate_params(lam, random_admissible_alpha(lam, rng))
    n_max = 4 * lam + 3
    ladder = build_fock_rep(p, n_max)
    assert ladder.shape == (2, n_max + 1)
    dense = dense_operators(p, n_max)
    v = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    for kind in ("dressed", "real"):
        for got, op in zip(_quadratures(v[None], _stencil(ladder, kind)), dense_quadratures(dense, kind)):
            want = op @ v
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_h0_diagonal_matches_energy():
    p = validate_params(3, [-0.5, 0.25, 0.25])
    fock = dense_operators(p, 15)
    h0 = 0.5 * (fock.a @ fock.a_dag + fock.a_dag @ fock.a)
    for n in range(15):  # the last diagonal entry is a truncation artifact
        assert abs(h0[n, n] - energy(p, n)) < 1e-13
    off = h0 - np.diag(np.diag(h0))
    assert np.max(np.abs(off)) == 0.0
    assert np.array_equal(_h0_diagonal(fock), np.diag(h0))


def test_random_admissible_always_valid():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        lam = int(rng.integers(2, 6))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        assert all(structure_function(p, n) > 0 for n in range(1, 3 * lam))


def test_build_requires_room():
    p = validate_params(2, [0.0, 0.0])
    with pytest.raises(ValueError):
        build_fock_rep(p, 1)
