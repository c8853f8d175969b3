import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special

import cyclosc
from cyclosc.specfun import (
    mittag_leffler,
    bessel_k,
)


def test_bessel_k_against_mpmath():
    # x = 700 sits where unscaled kv already flushes to zero but K_nu(x)
    # is still a normal double (about 4.7e-306)
    for nu in (-0.99, -0.5, 0.0, 0.5, 1.9, 4.0):
        for x in (1e-6, 1e-3, 0.2, 1.0, 5.0, 20.0, 100.0, 500.0, 700.0):
            ref = float(mpmath.besselk(nu, x))
            assert math.isclose(bessel_k(nu, x), ref, rel_tol=1e-13), (nu, x)


@pytest.mark.parametrize("nu", [-0.99, -1e-12, 0.0, 1e-9, 0.4999, 0.9999, 2.5, 4.4999, 25.0, 88.0, 150.0])
def test_bessel_k_numpy_route_against_mpmath(nu):
    # Temme's series at x <= 2 (mu near 0 and near 1/2 included), the trapezoid rule above,
    # and the upward recurrence to nu = 150; a dense band straddles the switch at x = 2
    xs = np.concatenate([np.geomspace(1e-6, 700.0, 40), np.linspace(1.9, 2.1, 41)])
    got = bessel_k(nu, xs)
    for x, k in zip(xs, got):
        ref = mpmath.besselk(nu, x)
        if ref > sys.float_info.max:
            assert k == math.inf, (nu, x)
        else:
            assert math.isclose(k, float(ref), rel_tol=1e-13), (nu, x)


def test_bessel_k_takes_arrays():
    x = np.geomspace(1e-6, 750.0, 60)
    for nu in (-0.99, 0.0, 2.5):
        got = bessel_k(nu, x)
        assert got.shape == x.shape
        np.testing.assert_array_equal(got, [bessel_k(nu, v) for v in x])
    with pytest.raises(ValueError):
        bessel_k(0.5, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        bessel_k(0.5, np.array([1.0, float("nan")]))


def test_bessel_k_underflows_to_zero():
    # K_0(750) ~ 1.3e-327 is below the smallest subnormal double
    assert bessel_k(0.0, 750.0) == 0.0
    assert bessel_k(4.0, 1e4) == 0.0


def test_bessel_wronskian():
    # I_nu(x) K_{nu+1}(x) + I_{nu+1}(x) K_nu(x) = 1/x
    for nu in (0.0, 0.4, 1.2):
        for x in (0.5, 2.0, 8.0):
            lhs = special.iv(nu, x) * bessel_k(nu + 1, x) + special.iv(nu + 1, x) * bessel_k(nu, x)
            assert math.isclose(lhs, 1.0 / x, rel_tol=1e-10)


def test_bessel_k_requires_positive_argument():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, -1.0)
    with pytest.raises(ValueError):
        bessel_k(0.5, float("nan"))


def test_mittag_leffler_classical_reductions():
    for x in (0.5, 5.0, 10.0):
        assert math.isclose(mittag_leffler(1.0, 1.0, x), math.exp(x), rel_tol=1e-12)
    # E_{2,1}(4) = cosh(2) = 3.7621956910836314
    assert math.isclose(mittag_leffler(2.0, 1.0, 4.0), 3.7621956910836314, rel_tol=1e-13)
    # E_{2,2}(x) = sinh(sqrt(x))/sqrt(x)
    assert math.isclose(mittag_leffler(2.0, 2.0, 9.0), math.sinh(3.0) / 3.0, rel_tol=1e-12)


def test_mittag_leffler_zero_argument():
    for beta in (1.0, 2.5):
        assert mittag_leffler(3.0, beta, 0.0) == 1.0 / math.gamma(beta)


def test_mittag_leffler_zero_argument_past_gamma_overflow():
    # Gamma(176) is past the double range, while 1/Gamma(176) is a subnormal:
    # x = 0 returns it, as the series' first term does at any other x
    got = mittag_leffler(180.0, 176.0, 0.0)
    assert 0.0 < got < sys.float_info.min
    assert got == math.exp(-math.lgamma(176.0)) == mittag_leffler(180.0, 176.0, 1e-300)


def test_mittag_leffler_terms_past_lgamma_overflow_are_zero():
    # lgamma overflows from about 2.6e305; such a term is 0.0, not an OverflowError
    with pytest.raises(OverflowError):
        math.lgamma(1e306)
    for x in (0.0, 0.5, -3.0):
        assert mittag_leffler(2.0, 1e306, x) == 0.0
    # only the k = 0 term, 1/Gamma(1), survives
    assert mittag_leffler(1e306, 1.0, 0.5) == 1.0
    assert mittag_leffler(1e306, 1.0, -2.0) == 1.0


def test_mittag_leffler_negative_argument():
    assert math.isclose(mittag_leffler(1.0, 1.0, -3.0), math.exp(-3.0), rel_tol=1e-10)


def test_mittag_leffler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        mittag_leffler(1.0, -1.0, 1.0)


def test_import_leaves_scipy_integrate_and_special_unloaded():
    src = str(Path(cyclosc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cyclosc; "
        "print(','.join(m for m in ('scipy.integrate', 'scipy.special') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out.strip() == ""


def test_sga_command_leaves_numpy_polynomial_unloaded():
    src = str(Path(cyclosc.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); from cyclosc import cli; "
        "assert cli.main(['sga', '--lambda', '5', '--format', 'csv']) == 0; "
        "print('numpy.polynomial' in sys.modules, file=sys.stderr)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.startswith("kind,mu,power,value")
    assert out.stderr.strip() == "False"
