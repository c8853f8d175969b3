import math
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import cyclosc
from cyclosc.algebra import random_admissible_alpha, validate_params
from cyclosc.coherent import build_cs
from cyclosc.measure import (
    moment_target,
    weight_lambda2,
    weight_photon,
    moment_check,
    unity_reconstruction,
    angular_offdiagonal,
)


def test_zeroth_moment_is_pure_area_factor():
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            t = moment_target(p, mu, 0)
            assert t.target == 1.0 / (math.pi * lam ** (lam - 2))


def _mp_target(p, mu, k):
    """D_k^2 / (pi lambda^{lambda-2}) with D_k^2 = k! prod_{nu <= mu} (bb_nu + 1)_k
    prod_{nu' > mu} (bb_nu')_k, the hypergeometric form of prod F(j)/lambda, in
    40-digit rising factorials."""
    with mpmath.workdps(40):
        bb = [mpmath.mpf(float(b)) for b in p.beta_bar]
        d2 = mpmath.factorial(k) * mpmath.fprod(mpmath.rf(bb[nu] + (nu <= mu), k) for nu in range(1, p.lam))
        return float(d2 / (mpmath.pi * p.lam ** (p.lam - 2)))


def test_target_tracks_coefficient_denominators():
    rng = np.random.default_rng(11)
    for lam in range(2, 9):
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng), random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            for mu in range(lam):
                for k in range(13):
                    want = _mp_target(p, mu, k)
                    got = moment_target(p, mu, k).target
                    assert abs(got - want) <= 1e-14 * want, (lam, p.alpha, mu, k)


@pytest.mark.parametrize("lam, k", [(60, 12), (2, 400)])
def test_target_overflow_is_named(lam, k):
    p = validate_params(lam, [0.0] * lam)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning on the way
        with pytest.raises(RuntimeError, match=f"^D_k\\^2 overflows double precision at lambda = {lam}, mu = 0, k = {k}$"):
            moment_target(p, 0, k)
    assert math.isfinite(moment_target(p, 0, 2).target)


def test_target_normalisation_overflow_is_named():
    # pi lambda^(lambda-2) leaves the double range at lambda = 145, for every k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeError, match=r"^pi lambda\^\(lambda-2\) overflows double precision "
                                               r"at lambda = 145, mu = 0, k = 0$"):
            moment_target(validate_params(145, [0.0] * 145), 0, 0)
        target = moment_target(validate_params(144, [0.0] * 144), 0, 0).target
    assert target == pytest.approx(1.0 / (math.pi * 144.0 ** 142), rel=1e-15) and 1e-307 < target < 1.1e-307


def test_moment_rule_against_mpmath_targets():
    # The Bessel weight from the admissibility edge, where most of the
    # alpha0 = -0.999, mu = 0 mass lies below the first node (y = 1e-300),
    # to alpha0 = 5, where K_a overflows near y = 0; the photon weight up to
    # lambda = 16, where y^{k+1} overflows on the top nodes.
    for a0 in (-0.999, -0.99, -0.95, -0.5, 0.0, 1.0, 2.99, 5.0):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            for k in range(13):
                value, _ = moment_check(partial(weight_lambda2, p, mu), mu, k, moment_target(p, mu, k))
                assert abs(value / _mp_target(p, mu, k) - 1.0) < 1e-12, (a0, mu, k)
    for lam in range(2, 17):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            for k in range(13):
                value, _ = moment_check(partial(weight_photon, lam, mu), mu, k, moment_target(p, mu, k))
                assert abs(value / _mp_target(p, mu, k) - 1.0) < 1e-12, (lam, mu, k)


def test_moment_rule_matches_adaptive_quadrature():
    # scipy's adaptive quad of the same integrand in u = y^{1/lambda} is the
    # reference route; the weight is called one point at a time
    p2 = validate_params(2, [-0.5, 0.5])
    cases = [(partial(weight_lambda2, p2, mu), p2, mu, k) for mu in (0, 1) for k in (0, 6, 12)]
    p3 = validate_params(3, [0.0] * 3)
    cases += [(partial(weight_photon, 3, mu), p3, mu, k) for mu in (0, 2) for k in (0, 12)]
    for weight, p, mu, k in cases:
        lam = p.lam
        ref = quad(lambda u: lam * u ** (lam * (k + 1) - 1) * weight(u**lam), 0.0, 80.0,
                   epsabs=0.0, epsrel=1e-12, limit=400)[0]
        value, _ = moment_check(weight, mu, k, moment_target(p, mu, k))
        assert abs(value / ref - 1.0) < 1e-10, (lam, mu, k)


def test_nonfinite_or_non_decaying_weight_raises():
    for lam, k in ((2, 0), (2, 12), (16, 12)):
        tgt = moment_target(validate_params(lam, [0.0] * lam), 0, k)
        with pytest.raises(RuntimeError, match="decay budget"):
            moment_check(np.ones_like, 0, k, tgt)
        with pytest.raises(RuntimeError, match="not finite"):
            moment_check(lambda y: np.full_like(y, np.nan), 0, k, tgt)
        with pytest.raises(RuntimeError, match="not finite"):
            moment_check(lambda y: np.where(y > 1.0, np.nan, np.exp(-y)), 0, k, tgt)


def test_moment_check_leaves_scipy_integrate_unloaded():
    src = str(Path(cyclosc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from cyclosc import measure, validate_params; "
        "p = validate_params(2, [0.5, -0.5]); "
        "measure.moment_check(lambda y: measure.weight_lambda2(p, 0, y), 0, 3, measure.moment_target(p, 0, 3)); "
        "measure.unity_reconstruction(p, 'lambda2', 2); print('scipy.integrate' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == "False"


def test_lambda2_weight_reproduces_moments():
    for a0 in (-0.5, 0.5):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            w = lambda y: weight_lambda2(p, mu, y)
            for k in (0, 1, 4, 7):
                tgt = moment_target(p, mu, k)
                value, rel = moment_check(w, mu, k, tgt)
                assert rel < 1e-8, (a0, mu, k, rel)


def test_photon_weight_reproduces_moments():
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in (0, lam - 1):
            w = lambda y: weight_photon(lam, mu, y)
            for k in (0, 2, 5):
                tgt = moment_target(p, mu, k)
                value, rel = moment_check(w, mu, k, tgt)
                assert rel < 1e-8, (lam, mu, k, rel)


def test_weights_positive():
    p = validate_params(2, [0.8, -0.8])
    for y in np.geomspace(1e-4, 50.0, 25):
        assert weight_lambda2(p, 0, y) > 0.0
        assert weight_lambda2(p, 1, y) > 0.0
        assert weight_photon(3, 1, y) > 0.0


def test_weight_forms_agree_when_undeformed():
    p = validate_params(2, [0.0, 0.0])
    for mu in (0, 1):
        for y in (0.05, 0.7, 3.0, 12.0):
            a = weight_lambda2(p, mu, y)
            b = weight_photon(2, mu, y)
            assert math.isclose(a, b, rel_tol=1e-10)


def test_weights_take_arrays():
    y = np.geomspace(1e-300, 1e4, 400)
    for a0 in (-0.99, 0.5, 5.0):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            np.testing.assert_allclose(weight_lambda2(p, mu, y), [weight_lambda2(p, mu, v) for v in y],
                                       rtol=1e-14, atol=0.0)
    for lam in (2, 7, 16):
        for mu in (0, lam - 1):
            np.testing.assert_allclose(weight_photon(lam, mu, y), [weight_photon(lam, mu, v) for v in y],
                                       rtol=1e-14, atol=0.0)
    empty = np.array([])  # an empty y gives an empty weight
    assert weight_lambda2(validate_params(2, [5.0, -5.0]), 1, empty).shape == (0,)
    assert weight_photon(3, 2, empty).shape == (0,)


def test_lambda2_weight_near_zero_where_bessel_overflows():
    # alpha0 = 5, mu = 1: a = 3 and h -> Gamma(3) / (pi Gamma(4)) = 1/(3 pi) as y -> 0;
    # K_3(2 sqrt y) overflows below y ~ 1e-205
    p = validate_params(2, [5.0, -5.0])
    for y in (1e-300, 1e-250, 1e-100):
        assert math.isclose(weight_lambda2(p, 1, y), 1.0 / (3.0 * math.pi), rel_tol=1e-15), y


def test_weights_reject_nonfinite_or_nonpositive_y():
    p = validate_params(2, [0.5, -0.5])
    for bad in (math.nan, math.inf, -1.0, 0.0, np.array([1.0, math.nan]), np.array([0.5, math.inf])):
        with pytest.raises(ValueError, match="^y must be finite and positive$"):
            weight_photon(2, 0, bad)
        with pytest.raises(ValueError, match="^y must be finite and positive$"):
            weight_lambda2(p, 0, bad)


def test_photon_weight_frozen_value():
    # lambda = 2, mu = 1, y = 1: 2 e^{-2} / pi
    assert math.isclose(weight_photon(2, 1, 1.0), 0.08615711720739452, rel_tol=1e-13)


def test_scaled_weight_is_detected():
    p = validate_params(2, [0.5, -0.5])
    w = lambda y: 1.01 * weight_lambda2(p, 0, y)
    _, rel = moment_check(w, 0, 0, moment_target(p, 0, 0))
    assert 0.005 < rel < 0.02


def test_unity_diagonal_lambda2():
    p = validate_params(2, [0.5, -0.5])
    entries = unity_reconstruction(p, "lambda2", 5)
    assert entries.size == 11
    assert np.max(np.abs(entries - 1.0)) < 1e-7


@pytest.mark.parametrize("a0", [50.0, 168.0, 175.0])
def test_unity_diagonal_lambda2_at_large_orders(a0):
    # the Bessel-K orders reach 88 at alpha_0 = 175: the upward recurrence from the base
    # pair keeps the moments within the unity bound
    entries = unity_reconstruction(validate_params(2, [a0, -a0]), "lambda2", 2)
    assert np.max(np.abs(entries - 1.0)) < 1e-7


@pytest.mark.parametrize("a0, mus", [(339.0, ()), (340.0, (1,)), (400.0, (0, 1))])
def test_lambda2_weight_names_the_gamma_overflow(a0, mus):
    # pi Gamma(beta_bar_1 + mu) leaves the double range from beta_bar_1 + mu = 171.40
    # (alpha_0 = 339.8 at mu = 1, 341.8 at mu = 0); the weight, moment_check and
    # unity_reconstruction raise one named RuntimeError there, no OverflowError, no 0.0
    p = validate_params(2, [a0, -a0])
    msg = r"^pi Gamma\(beta_bar_1 \+ mu\) = pi Gamma\(\S+\) overflows double precision at lambda = 2, mu = [01]$"
    for mu in (0, 1):
        if mu not in mus:
            assert weight_lambda2(p, mu, 1.0) > 0.0
            continue
        with pytest.raises(RuntimeError, match=msg):
            weight_lambda2(p, mu, np.array([0.5, 2.0]))
        with pytest.raises(RuntimeError, match=msg):
            moment_check(partial(weight_lambda2, p, mu), mu, 0, moment_target(p, mu, 0))
    if mus:
        with pytest.raises(RuntimeError, match=msg):
            unity_reconstruction(p, "lambda2", 1)


def test_unity_diagonal_photon():
    p = validate_params(3, [0.0, 0.0, 0.0])
    entries = unity_reconstruction(p, "photon", 4)
    assert entries.size == 13
    assert np.max(np.abs(entries - 1.0)) < 1e-7


def test_unity_weight_validation():
    p2 = validate_params(2, [0.5, -0.5])
    p3 = validate_params(3, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        unity_reconstruction(p3, "lambda2", 2)
    with pytest.raises(ValueError):
        unity_reconstruction(p2, "photon", 2)  # deformed alpha
    with pytest.raises(ValueError):
        unity_reconstruction(p2, "gauss", 2)


def test_angular_average_kills_offdiagonals():
    p = validate_params(2, [0.5, -0.5])
    assert angular_offdiagonal(p, 1, 1.2) < 1e-12
    p = validate_params(3, [0.0, 0.0, 0.0])
    assert angular_offdiagonal(p, 2, 0.8) < 1e-12


def test_radial_integral_direct():
    # one diagonal entry of the unity integral done the long way: level n = 5
    # of sector mu = 1 at lambda = 2, integrating the actual state overlap
    p = validate_params(2, [0.5, -0.5])

    def integrand(r: float) -> float:
        cs = build_cs(p, 1, complex(r))
        return weight_lambda2(p, 1, r * r) * cs.norm_factor * abs(cs.coeffs[5]) ** 2 * r

    val = 2.0 * math.pi * quad(integrand, 0.0, 20.0, epsabs=1e-9, epsrel=1e-9, limit=300)[0]
    assert abs(val - 1.0) < 1e-6


def test_domain_errors():
    p3 = validate_params(3, [0.0, 0.0, 0.0])
    p2 = validate_params(2, [0.0, 0.0])
    with pytest.raises(ValueError):
        weight_lambda2(p3, 0, 1.0)
    with pytest.raises(ValueError):
        weight_lambda2(p2, 2, 1.0)
    with pytest.raises(ValueError):
        weight_lambda2(p2, 0, 0.0)
    with pytest.raises(ValueError):
        weight_photon(1, 0, 1.0)
    with pytest.raises(ValueError):
        weight_photon(3, 3, 1.0)
    with pytest.raises(ValueError):
        weight_photon(3, 0, -1.0)
    with pytest.raises(ValueError):
        moment_target(p2, 0, -1)
    with pytest.raises(ValueError):
        moment_target(p2, 5, 0)
    with pytest.raises(ValueError, match="k must be <= 12"):
        moment_check(lambda y: weight_photon(2, 0, y), 0, 13, moment_target(p2, 0, 13))
    with pytest.raises(ValueError, match="integer"):
        weight_photon(2.5, 0, 1.0)


def test_photon_weight_rejects_nonintegral_sector():
    with pytest.raises(ValueError, match="mu must be in 0..1, got 0.5"):
        weight_photon(2, 0.5, 1.0)
    assert weight_photon(2, 1.0, 0.7) == weight_photon(2, 1, 0.7)


def test_nonintegral_moment_order_is_bad_input():
    p = validate_params(2, [0.5, -0.5])
    with pytest.raises(ValueError, match="^k must be a nonnegative integer, got 2.5"):
        moment_target(p, 0, 2.5)
    with pytest.raises(ValueError, match="^k_top must be a nonnegative integer, got 1.5"):
        unity_reconstruction(p, "lambda2", 1.5)


def test_moment_check_rejects_a_target_of_another_moment():
    p = validate_params(3, [0.0] * 3)
    w = lambda y: weight_photon(3, 2, y)
    with pytest.raises(ValueError, match=r"\(mu, k\) = \(2, 5\) does not match the target's \(0, 3\)"):
        moment_check(w, 2, 5, moment_target(p, 0, 3))
    with pytest.raises(ValueError, match="does not match"):
        moment_check(w, 2, 3, moment_target(p, 0, 3))
