"""Special functions used by the coherent-state and measure formulas.

Generalized Mittag-Leffler functions (the alpha = 0 coherent-state
reference) and the modified Bessel function K_nu (a guarded wrapper around
scipy.special, imported lazily).  The coherent-state norms themselves are
0F_{lambda-1} series, which build_cs accumulates in log space; verify sums
the same series term by term as its reference.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "mittag_leffler",
    "bessel_k",
]

_MAX_TERMS = 100_000
_ML_TOL = 1e-13  # mittag_leffler stops once its tail bound is below this share of the sum


def _lgamma(x: float) -> float:
    """log Gamma(x), inf where math.lgamma overflows (x above about 2.6e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def mittag_leffler(alpha: float, beta: float, x: float) -> float:
    """Evaluate E_{alpha,beta}(x) = sum_k x^k / Gamma(alpha k + beta).

    Requires alpha > 0 and beta > 0.  Terms are computed in log space so
    large arguments do not overflow before the gamma denominator catches up;
    a term whose Gamma argument overflows lgamma is 0.0, and so is every later
    one, since lgamma rises past its minimum near 1.46 (the tail test below
    then stops the sum).
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if x == 0:
        try:
            return 1.0 / math.gamma(beta)
        except OverflowError:  # Gamma(beta) leaves the double range above beta = 171.62
            return math.exp(-_lgamma(beta))
    lnax = math.log(abs(x))
    sign = 1.0 if x > 0 else -1.0

    def term(k):
        mag = math.exp(k * lnax - _lgamma(alpha * k + beta))
        return mag if sign > 0 or k % 2 == 0 else -mag

    total = term(0)
    if _lgamma(alpha + beta) == math.inf:  # every later term is 0.0; r_next below would be nan
        return total
    k = 0
    while True:
        k += 1
        t = term(k)
        total += t
        # |T_{k+1}/T_k| decreases in k, so once < 1 it bounds the whole tail.
        r_next = abs(x) * math.exp(_lgamma(alpha * k + beta) - _lgamma(alpha * (k + 1) + beta))
        if r_next < 1.0:
            tail = abs(t) * r_next / (1.0 - r_next)
            if tail <= _ML_TOL * abs(total):
                return total
        if k >= _MAX_TERMS:
            raise RuntimeError("mittag_leffler series did not converge")


def bessel_k(nu: float, x):
    """Modified Bessel function K_nu(x) for x > 0, a float or an array, from
    scipy's exponentially scaled kve (Amos's algorithm, ACM TOMS 644):
    K_nu(x) = kve(nu, x) e^{-x}, elementwise.

    Unscaled kv flushes to 0.0 from about x = 700, although K_nu(x) stays a
    normal double up to x = 705; the scaled route keeps full precision there
    and underflows only where e^{-x} does.  kv/kve return inf or NaN for
    x <= 0 or NaN x instead of raising, so those are rejected here.
    scipy.special is imported on first call, so importing cyclosc does not
    load it.
    """
    if not np.all(x > 0):
        raise ValueError("x must be positive")
    from scipy.special import kve

    return kve(nu, x) * np.exp(-x)
