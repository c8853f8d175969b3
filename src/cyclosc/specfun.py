"""Scalar special functions used by the coherent-state and measure formulas.

Generalized hypergeometric series of type 0F_q (the series reference for the
coherent-state norms, which build_cs accumulates in log space), generalized
Mittag-Leffler functions, and the modified Bessel function K_nu (a guarded wrapper around
scipy.special, imported lazily).  The series evaluators
return a ``SeriesResult`` carrying the number of terms summed and an upper
bound on the truncated tail, so callers can propagate truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SeriesResult",
    "pochhammer",
    "hyper0F",
    "mittag_leffler",
    "bessel_k",
]

_MAX_TERMS = 100_000


@dataclass(frozen=True)
class SeriesResult:
    """Value of a truncated series plus truncation diagnostics.

    ``tail_bound`` is an upper bound on the magnitude of the dropped
    remainder, valid once the term-ratio has fallen below one (true for
    every series evaluated here, whose term ratios decrease to zero).
    """

    value: float
    terms_used: int
    tail_bound: float


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1); equals 1 for k = 0."""
    if k < 0:
        raise ValueError("k must be a nonnegative integer")
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def hyper0F(denoms, x: float, tol: float = 1e-13) -> SeriesResult:
    """Evaluate 0F_q(; d_1, ..., d_q; x) = sum_k x^k / (k! prod_i (d_i)_k).

    Parameters
    ----------
    denoms : sequence of float
        Lower parameters d_i.  None may be zero or a negative integer
        (the series would hit a pole).
    x : float
        Argument, x >= 0.  Only nonnegative arguments arise here, which
        makes every term positive and the tail bound rigorous.
    tol : float
        Relative tail tolerance at which summation stops.

    The tail after the last added term T_k is bounded by T_{k+1}/(1 - r)
    where r < 1 is the next term ratio; the ratio x/((k+1) prod(d_i + k))
    decreases monotonically once all d_i + k > 0.
    """
    denoms = [float(d) for d in denoms]
    for d in denoms:
        if d <= 0 and d == int(d):
            raise ValueError(f"denominator parameter {d} is a nonpositive integer")
    if x < 0:
        raise ValueError("x must be nonnegative")
    if x == 0:
        return SeriesResult(1.0, 1, 0.0)

    def ratio(k):
        r = x / (k + 1.0)
        for d in denoms:
            r /= d + k
        return r

    total = 1.0
    term = 1.0
    k = 0
    while True:
        term *= ratio(k)
        total += term
        k += 1
        r_next = abs(ratio(k))
        if r_next < 1.0:
            tail = abs(term) * r_next / (1.0 - r_next)
            if tail <= tol * abs(total):
                return SeriesResult(total, k + 1, tail)
        if k >= _MAX_TERMS:
            raise RuntimeError("hyper0F series did not converge")


def mittag_leffler(alpha: float, beta: float, x: float, tol: float = 1e-13) -> SeriesResult:
    """Evaluate E_{alpha,beta}(x) = sum_k x^k / Gamma(alpha k + beta).

    Requires alpha > 0 and beta > 0.  Terms are computed in log space so
    large arguments do not overflow before the gamma denominator catches up.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if x == 0:
        return SeriesResult(1.0 / math.gamma(beta), 1, 0.0)
    lnax = math.log(abs(x))
    sign = 1.0 if x > 0 else -1.0

    def term(k):
        mag = math.exp(k * lnax - math.lgamma(alpha * k + beta))
        return mag if sign > 0 or k % 2 == 0 else -mag

    total = term(0)
    k = 0
    while True:
        k += 1
        t = term(k)
        total += t
        # |T_{k+1}/T_k| decreases in k, so once < 1 it bounds the whole tail.
        r_next = abs(x) * math.exp(math.lgamma(alpha * k + beta) - math.lgamma(alpha * (k + 1) + beta))
        if r_next < 1.0:
            tail = abs(t) * r_next / (1.0 - r_next)
            if tail <= tol * abs(total):
                return SeriesResult(total, k + 1, tail)
        if k >= _MAX_TERMS:
            raise RuntimeError("mittag_leffler series did not converge")


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function K_nu(x) for x > 0, from scipy's exponentially
    scaled kve (Amos's algorithm, ACM TOMS 644): K_nu(x) = kve(nu, x) e^{-x}.

    Unscaled kv flushes to 0.0 from about x = 700, although K_nu(x) stays a
    normal double up to x = 705; the scaled route keeps full precision there
    and underflows only where e^{-x} does.  kv/kve return inf or NaN for
    x <= 0 or NaN x instead of raising, so those are rejected here.
    scipy.special is imported on first call, so importing cyclosc does not
    load it.
    """
    if not x > 0:
        raise ValueError("x must be positive")
    from scipy.special import kve

    return float(kve(nu, x)) * math.exp(-x)
