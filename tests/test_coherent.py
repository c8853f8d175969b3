import cmath
import math
import re

import mpmath
import numpy as np
import pytest
from scipy import special

from cyclosc.algebra import validate_params, random_admissible_alpha
from cyclosc.verify import dense_operators, suite_cs, _brute_norm
from cyclosc.coherent import (
    TruncationError,
    build_cs,
    eigen_residual,
    mittag_leffler_check,
)
from cyclosc.specfun import pochhammer


def test_zero_label_is_sector_floor():
    p = validate_params(3, [0.0] * 3)
    cs = build_cs(p, 2, 0.0)
    v = np.zeros(cs.n_max + 1, dtype=complex)
    v[2] = 1.0
    assert np.array_equal(cs.coeffs, v)
    assert cs.norm_factor == 1.0
    assert cs.tail_bound == 0.0


def test_support_respects_sector():
    p = validate_params(3, [-0.5, 0.25, 0.25])
    cs = build_cs(p, 1, 1.3 - 0.4j)
    idx = np.nonzero(cs.coeffs)[0]
    assert idx.size > 3
    assert np.all(idx % 3 == 1)


def test_unit_norm():
    p = validate_params(4, [0.3, -0.1, 0.2, -0.4])
    for mu in range(4):
        cs = build_cs(p, mu, 1.7 + 0.3j)
        assert abs(np.linalg.norm(cs.coeffs) - 1.0) < 1e-12


def test_normalization_against_brute_sum():
    # verify's partial sums of the squared coefficient series via the
    # term-ratio recurrence; no shared code with build_cs's log-space norm
    rng = np.random.default_rng(5)
    for _ in range(12):
        lam = int(rng.integers(2, 5))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        cs = build_cs(p, mu, z)
        total = _brute_norm(p, mu, z)
        assert abs(total - cs.norm_factor) / total < 1e-11


def test_normalization_lambda2_undeformed():
    # build_cs's log-space norm and verify's term-ratio series reference
    p = validate_params(2, [0.0, 0.0])
    for mu, want in ((0, math.cosh(2.6)), (1, math.sinh(2.6) / 2.6)):
        for got in (build_cs(p, mu, 1.3).norm_factor, _brute_norm(p, mu, 1.3)):
            assert math.isclose(got, want, rel_tol=1e-12)


def test_normalization_bessel_form_lambda2():
    for a0 in (-0.5, 0.5, 2.0):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            for r in (0.4, 1.0, 2.5):
                nu = p.beta_bar[1] - 1.0 + mu
                # I_nu(2r) = ive(nu, 2r) e^{2r}, independent of both series routes
                ref = math.gamma(nu + 1.0) * r ** (-nu) * special.ive(nu, 2.0 * r) * math.exp(2.0 * r)
                for got in (build_cs(p, mu, r).norm_factor, _brute_norm(p, mu, r)):
                    assert math.isclose(got, ref, rel_tol=1e-10)


def test_eigenvector_property():
    fixtures = {
        2: [0.7, -0.7],
        3: [-0.5, 0.25, 0.25],
        4: [0.3, -0.1, 0.2, -0.4],
    }
    for lam, alpha in fixtures.items():
        for params in (validate_params(lam, [0.0] * lam), validate_params(lam, alpha)):
            for mu in range(lam):
                for z in (0.5 + 0j, 2 + 1j, -3 + 0j):
                    cs = build_cs(params, mu, z)
                    assert eigen_residual(cs) < 1e-10


def test_eigen_residual_equivalent_form():
    p = validate_params(3, [-0.5, 0.25, 0.25])
    z = 1.2 + 0.7j
    cs = build_cs(p, 0, z)
    r1 = eigen_residual(cs)
    w = np.linalg.matrix_power(dense_operators(p, cs.n_max).a, 3) @ cs.coeffs - 3 * z * cs.coeffs
    w[cs.n_max - 2:] = 0.0
    r2 = np.linalg.norm(w) / 3.0 / max(abs(z), 1.0)
    assert abs(r1 - r2) < 1e-13


def test_cs_checks_report_a_measured_deviation():
    results = suite_cs(seed=0)
    for name in ("cs-eigen-equivalent-form", "cs-phase-convention"):
        found = [r for r in results if r.name == name]
        assert found, name
        for r in found:
            m = re.search(r" dev=(\S+)$", r.detail)
            assert m and math.isfinite(float(m.group(1))), r.detail


def test_factorial_coefficients_undeformed():
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            for z in (0.5 + 0j, 1 + 0.5j):
                cs = build_cs(p, mu, z)
                scale = math.sqrt(cs.norm_factor)
                for k in range((cs.n_max - mu) // lam + 1):
                    d = (lam * z) ** k * math.sqrt(
                        math.gamma(mu + 1) / math.gamma(k * lam + mu + 1)
                    )
                    assert abs(cs.coeffs[k * lam + mu] * scale - d) < 1e-12


def test_mittag_leffler_route_undeformed():
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for z in (0.5 + 0j, 1 + 0.5j):
            for mu in range(lam):
                assert mittag_leffler_check(build_cs(p, mu, z)) < 1e-12


def test_mittag_leffler_check_requires_zero_alpha():
    p = validate_params(2, [0.5, -0.5])
    with pytest.raises(ValueError):
        mittag_leffler_check(build_cs(p, 0, 1.0))


def test_two_boson_realization_lambda2():
    # lambda = 2 coefficients carry pochhammer weights of twice the lowest
    # j0 eigenvalue, 2*kappa_mu = beta_bar_1 + mu
    rng = np.random.default_rng(9)
    for _ in range(5):
        a0 = float(rng.uniform(-0.8, 2.0))
        p = validate_params(2, [a0, -a0])
        mu = int(rng.integers(0, 2))
        z = complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
        two_kappa = 2.0 * (mu + p.gamma[mu] + 0.5) / 2.0
        assert abs(two_kappa - (p.beta_bar[1] + mu)) < 1e-14
        cs = build_cs(p, mu, z)
        scale = math.sqrt(cs.norm_factor)
        for k in range((cs.n_max - mu) // 2 + 1):
            d = z ** k / math.sqrt(math.factorial(k) * pochhammer(two_kappa, k))
            assert abs(cs.coeffs[2 * k + mu] * scale - d) < 1e-12


def test_phase_convention():
    p = validate_params(2, [0.5, -0.5])
    cs = build_cs(p, 0, cmath.rect(1.1, 2.0))
    assert cs.coeffs[0].imag == 0.0
    assert cs.coeffs[0].real > 0.0
    for k in (1, 2, 5):
        drift = cmath.phase(cs.coeffs[2 * k]) - k * 2.0
        assert abs(cmath.exp(1j * drift) - 1.0) < 1e-12


def test_truncation_error_paths():
    p = validate_params(2, [0.0, 0.0])
    with pytest.raises(TruncationError):
        build_cs(p, 0, 50.0, max_levels=40)
    with pytest.raises(TruncationError):
        build_cs(p, 0, 3.0, n_max=10)


@pytest.mark.parametrize("z", [complex("nan"), complex(float("inf"), 0.0), complex(1.0, float("-inf"))])
def test_nonfinite_label_is_bad_input(z):
    p = validate_params(2, [0.5, -0.5])
    with pytest.raises(ValueError, match="finite"):
        build_cs(p, 0, z)
    with pytest.raises(ValueError, match="finite"):
        build_cs(p, 1, z, n_max=20)


def test_explicit_n_max_reproduces_adaptive():
    p = validate_params(3, [0.2, 0.3, -0.5])
    cs = build_cs(p, 1, 0.9 - 0.4j)
    again = build_cs(p, 1, 0.9 - 0.4j, n_max=cs.n_max)
    assert np.array_equal(cs.coeffs, again.coeffs)


def test_sector_orthogonality():
    p = validate_params(3, [0.0] * 3)
    a = build_cs(p, 0, 1 + 1j)
    b = build_cs(p, 1, 1 + 1j)
    n = max(a.n_max, b.n_max) + 1
    va = np.zeros(n, dtype=complex)
    vb = np.zeros(n, dtype=complex)
    va[: a.n_max + 1] = a.coeffs
    vb[: b.n_max + 1] = b.coeffs
    assert abs(np.vdot(va, vb)) == 0.0


def test_continuity_in_label():
    p = validate_params(4, [0.3, -0.1, 0.2, -0.4])
    base = build_cs(p, 1, 0.9 + 0.2j)
    near = build_cs(p, 1, 0.9 + 0.2j + 1e-6, n_max=base.n_max)
    assert np.linalg.norm(near.coeffs - base.coeffs) < 1e-4


def test_tail_bound_reported():
    p = validate_params(2, [0.5, -0.5])
    cs = build_cs(p, 0, 2.0)
    assert 0.0 <= cs.tail_bound < 1e-20


def _lgamma_log_magnitudes(p, mu, abs_z, k_max):
    """log|d_k|, k = 0..k_max, from k! and the Pochhammer symbols of the
    denominator parameters, one lgamma sum per k (the pre-log-space route)."""
    lam, bb = p.lam, p.beta_bar
    ln_w = math.log(abs_z / lam ** ((lam - 2) / 2.0))
    out = []
    for k in range(k_max + 1):
        val = math.lgamma(k + 1)
        for nu in range(1, mu + 1):
            val += math.lgamma(bb[nu] + 1 + k) - math.lgamma(bb[nu] + 1)
        for nup in range(mu + 1, lam):
            val += math.lgamma(bb[nup] + k) - math.lgamma(bb[nup])
        out.append(k * ln_w - 0.5 * val)
    return np.array(out)


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_log_space_coefficients_match_lgamma_route(lam):
    rng = np.random.default_rng(100 + lam)
    for p in (validate_params(lam, [0.0] * lam), validate_params(lam, random_admissible_alpha(lam, rng))):
        for mu in range(lam):
            for z in (0.3, 2.5 + 1.0j, cmath.rect(17.0, -2.0), cmath.rect(100.0, 0.7)):
                cs = build_cs(p, mu, z)
                k_last = (cs.n_max - mu) // lam
                log_m = _lgamma_log_magnitudes(p, mu, abs(z), k_last)
                log_norm = float(np.logaddexp.reduce(2.0 * log_m))
                ref = np.exp(log_m - 0.5 * log_norm) * (z / abs(z)) ** np.arange(k_last + 1)
                assert np.max(np.abs(cs.coeffs[mu::lam] - ref)) < 1e-12
                assert abs(math.log(cs.norm_factor) - log_norm) < 1e-11


def test_default_level_cap_is_named():
    p = validate_params(2, [0.0, 0.0])
    with pytest.raises(TruncationError, match="max_levels = 512"):
        build_cs(p, 0, 400.0)


def test_large_label_against_mpmath():
    # lambda = 2, alpha = 0: d_k = (2z)^k / sqrt((2k)!), N_0 = cosh(2|z|)
    p = validate_params(2, [0.0, 0.0])
    cs = build_cs(p, 0, 340.0, max_levels=4096)
    with mpmath.workdps(40):
        two_z = mpmath.mpf(680)
        scale = mpmath.sqrt(mpmath.cosh(two_z))
        ref = np.array([float(two_z ** k / mpmath.sqrt(mpmath.factorial(2 * k)) / scale)
                        for k in range(cs.n_max // 2 + 1)])
    assert np.max(np.abs(cs.coeffs[0::2] - ref)) < 1e-11 * ref.max()
    assert math.isfinite(cs.norm_factor)


def test_norm_overflow_is_named():
    p = validate_params(2, [0.0, 0.0])
    with pytest.raises(TruncationError, match=r"normalization N_0 = exp\(\d+\.?\d*\) .* overflows double precision"):
        build_cs(p, 0, 400.0, max_levels=4096)
