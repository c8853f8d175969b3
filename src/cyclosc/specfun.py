"""Special functions used by the coherent-state and measure formulas.

Generalized Mittag-Leffler functions (the alpha = 0 coherent-state
reference) and the modified Bessel function K_nu of the lambda = 2 radial
weight, from Temme's series and a fixed trapezoid rule with numpy alone (no
scipy).  The coherent-state norms themselves are 0F_{lambda-1} series, which
build_cs accumulates in log space; verify sums the same series term by term as
its reference.
"""

from __future__ import annotations

import functools
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


# Taylor coefficients of 1/Gamma(1 + mu) about mu = 0 (A&S 6.1.34, shifted by one),
# from mpmath's rgamma at 40 digits; at |mu| <= 1/2 the last one weighs 4e-24
_RGAMMA = (
    1.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09, 5.002007644469223e-09,
    -1.18127457048702e-09, 1.0434267116911005e-10, 7.782263439905071e-12, -3.696805618642206e-12,
    5.100370287454476e-13, -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16,
)
_TEMME_TERMS = 16  # terms of Temme's series in w = x^2/4 at x <= 2, a power of two for _powers
_TEMME_TINY = 1e-17  # w below which Temme's series is its first term
# trapezoid rule in s on [0, inf): nodes s_j = j h, j < 20, h = 5/16, weight h/2 at s = 0;
# row 0 weighs the integrand for K e^x, row 1 with s^2 for -K' e^x
_TRAP_S = np.arange(20) * (5.0 / 16.0)
_TRAP_W = np.exp(-_TRAP_S**2) * np.where(_TRAP_S == 0.0, 5.0 / 16.0, 5.0 / 8.0) * np.array([_TRAP_S**0, _TRAP_S**2])


@functools.lru_cache(maxsize=256)
def _temme_coeffs(mu: float):
    """Temme's series for |mu| <= 1/2 as coefficients in w = x^2/4 (N. M. Temme,
    J. Comput. Phys. 19, 324 (1975)): K_mu = sum_k w^k/k! f_k and
    K_{mu+1} = (2/x) sum_k w^k/k! (p_k - k f_k), where f_k, p_k and q_k follow from
    f_0, p_0 = Gamma(1+mu)(x/2)^{-mu}/2 and q_0 = Gamma(1-mu)(x/2)^{mu}/2 by
    f_k = (k f_{k-1} + p_{k-1} + q_{k-1})/(k^2 - mu^2), p_k = p_{k-1}/(k - mu),
    q_k = q_{k-1}/(k + mu), so each term is linear in (f_0, p_0, q_0) with
    coefficients that depend on mu alone.  Returns (table, a, b, c, e): that table,
    shaped (order K_mu or K_{mu+1}, basis f_0 p_0 q_0, power of w), and the scalars
    of f_0 = a cosh(mu d) + b sinh(mu d) (a + b log(x/2) at mu = 0), d = -log(x/2),
    p_0 = c (x/2)^{-mu} and q_0 = e (x/2)^{mu}.  Temme's Gamma_1 and Gamma_2 come from
    the Taylor series of 1/Gamma(1 +- mu), so nothing rounds at mu near 0 as 1 + mu
    would (the lgamma route is off by 3e-8 at mu = 1e-9)."""
    m2 = mu * mu
    odd = even = 0.0
    for k in range(len(_RGAMMA) - 1, -1, -1):
        if k % 2:
            odd = odd * m2 + _RGAMMA[k]
        else:
            even = even * m2 + _RGAMMA[k]
    # 1/Gamma(1 +- mu) = even +- mu odd: Temme's Gamma_1 is -odd and Gamma_2 is even
    fact = 1.0 if mu == 0 else math.pi * mu / math.sin(math.pi * mu)
    f, p, q, pk, qk, fac = 1.0, 0.0, 0.0, 1.0, 1.0, 1.0
    rows = [[1.0], [0.0], [0.0], [0.0], [1.0], [0.0]]  # f_k, then p_k - k f_k, each in f_0 p_0 q_0
    for k in range(1, _TEMME_TERMS):
        den = k * k - m2
        f, p, q = k * f / den, (k * p + pk) / den, (k * q + qk) / den
        pk /= k - mu
        qk /= k + mu
        fac /= k
        for row, v in zip(rows, (f, p, q, -k * f, pk - k * p, -k * q)):
            row.append(v * fac)
    table = np.array(rows).reshape(2, 3, _TEMME_TERMS)
    table.flags.writeable = False
    sinh_scale = fact * even / mu if mu else -fact * even  # the mu = 0 form multiplies log(x/2) = -d
    return table, -fact * odd, sinh_scale, 0.5 / (even + mu * odd), 0.5 / (even - mu * odd)


def _powers(w: np.ndarray) -> np.ndarray:
    """w^k, k < _TEMME_TERMS, along the rows of an (n, _TEMME_TERMS) array, built by doubling
    on the transposed layout, whose rows are long, and copied."""
    p = np.empty((_TEMME_TERMS, w.size))
    p[0] = 1.0
    p[1] = w
    k = 2
    while k < _TEMME_TERMS:
        p[k:2 * k] = p[:k] * (p[k - 1] * w)
        k *= 2
    return p.T.copy()


def _temme(mu: float, x: np.ndarray, orders: slice) -> list:
    """K_mu(x) and K_{mu+1}(x) at 0 < x <= 2, the rows of orders, from _temme_coeffs: one
    einsum of the powers of w = x^2/4 with the table, the sum over the powers running
    along each row (the same at any length of x, unlike a BLAS product).  Where
    w < _TEMME_TINY every later term is below 2e-17 of the first, so there K_mu = f_0
    and K_{mu+1} = (2/x) p_0 and the series is summed only elsewhere (which also keeps
    subnormal powers, slow to multiply, out of the table)."""
    table, a, b, c, e = _temme_coeffs(mu)
    x2 = 0.5 * x
    log_x2 = np.log(x2)
    md = (-mu) * log_x2
    pw = np.exp(md)
    basis = np.empty((3, x.size))
    np.add(a * np.cosh(md), b * (np.sinh(md) if mu else log_x2), out=basis[0])
    np.multiply(c, pw, out=basis[1])
    np.divide(e, pw, out=basis[2])
    w = x2 * x2
    full = w >= _TEMME_TINY
    out = [basis[0], basis[1]][orders]  # the first terms, overwritten where the series is summed
    sums = np.einsum("nk,jk->jn", _powers(w[full]), table[orders].reshape(-1, _TEMME_TERMS))
    terms = sums.reshape(len(out), 3, -1) * basis[:, full]
    for k, row in zip(out, terms[:, 0] + terms[:, 1] + terms[:, 2]):
        k[full] = row
    if orders.stop == 2:
        out[-1] *= 2.0 / x
    return out


def _trapezoid(mu: float, x: np.ndarray, orders: slice) -> list:
    """K_nu(x) e^x at x > 2 for nu = mu + o, o in orders, from
    K_nu(x) e^x = ∫_0^∞ 2 e^{-s^2} cosh(2 nu t) / sqrt(2x + s^2) ds, t = asinh(s/sqrt(2x))
    (DLMF 10.32.9 with s = sqrt(2x) sinh(t/2)), by the fixed trapezoid rule on
    _TRAP_S.  The integrand is analytic for |Im s| < sqrt(2x) >= 2, so the rule
    converges geometrically: against mpmath it is within 4.5e-16 for nu in [-1/2, 3/2]
    and 2.2e-15 at nu = 5/2 (at larger nu the integrand's growth outruns the nodes).
    One order is the rule at that order, o <= 2; the pair o = 0, 1 takes
    K_{mu+1} = (mu/x) K_mu - K'_mu, where -K'_mu(x) e^x is the same integral with the
    factor cosh(2t) = 1 + s^2/x, so both come from one integrand.  Each node sum runs
    along one row, so it is the same at any length of x."""
    r = np.sqrt(0.5 / x)
    t = np.arcsinh(np.multiply.outer(r, _TRAP_S))
    if orders.stop - orders.start == 1:
        return [r * np.einsum("nk,k->n", np.cosh((2.0 * (mu + orders.start)) * t) / np.cosh(t), _TRAP_W[0])]
    i0, i1 = np.einsum("nk,jk->jn", np.cosh((2.0 * mu) * t) / np.cosh(t), _TRAP_W)
    xi = 1.0 / x
    return [r * i0, r * ((1.0 + mu * xi) * i0 + i1 * xi)]


def _upward(base, direct: int, mu: float, n: int, x: np.ndarray) -> np.ndarray:
    """K_{n+mu}(x) (times e^x from _trapezoid): base at that order itself where n <= direct,
    else base's pair K_mu, K_{mu+1} and the upward recurrence K_{nu+1} = K_{nu-1} +
    (2 nu/x) K_nu, which is stable for K.  direct is 1 for _temme, whose table holds two
    orders, and 2 for _trapezoid: at n = 2 the rule at mu + 2 itself takes 29 us on the
    130 nodes above x = 2 of the lambda = 2 moment grid, against 38 us for the pair and
    one step, and the benchmark's measure ops at n = 2 (alpha_0 >= 2, mu = 1) are its tail."""
    if n <= direct:
        return base(mu, x, slice(n, n + 1))[0]
    k0, k1 = base(mu, x, slice(0, 2))
    xi2 = 2.0 / x
    for j in range(1, n):
        k0, k1 = k1, k0 + ((mu + j) * xi2) * k1
    return k1


def bessel_k(nu: float, x):
    """Modified Bessel function K_nu(x) for x > 0, a float or an array, with numpy
    alone.  K is even in nu: with |nu| = n + mu, mu in [-1/2, 1/2), K_mu and K_{mu+1}
    come at x <= 2 from Temme's series (_temme: 16 terms in x^2/4, the first alone at
    x < 6.3e-9) and at x > 2, as K e^x, from a 20-node trapezoid rule (_trapezoid),
    which also gives K_{mu+2}; from there the upward recurrence K_{nu+1} = K_{nu-1} +
    (2 nu/x) K_nu, stable for K, reaches nu on each side (_upward), and the x > 2 side is
    multiplied by e^{-x} last, so it keeps full precision until e^{-x} underflows
    (K_0(750) is 0.0).  Only the orders the recurrence needs are formed.
    Its cost grows linearly with n, three array operations per step: on the 335-node
    lambda = 2 moment grid it runs at 0.95-1.12x scipy kve's time for nu <= 1.64 (the
    benchmark's orders), but at 1.6-1.7x at nu = 25 and 4.2-4.3x at nu = 88
    (BENCH_29.json), a known loss for large-alpha_0 lambda = 2 weights.
    Against mpmath besselk at 30 digits the result is within 1.8e-14 relative for nu in
    [-0.99, 150.3] and x in [1e-6, 700]; where K_nu(x) leaves the double range (large
    nu at small x) it is inf.  Every step is elementwise or a sum along one row, so an
    array gives each entry its scalar call's value bit for bit.  x <= 0, NaN x and a
    nu that is not finite raise ValueError.
    """
    xa = np.asarray(x, dtype=float)
    xs = xa.reshape(-1)
    if xs.size and not xs.min() > 0:  # min is NaN where any x is
        raise ValueError("x must be positive")
    nu = abs(float(nu))
    if nu == math.inf or nu != nu:
        raise ValueError(f"nu must be finite, got {nu}")
    n = int(math.floor(nu + 0.5))
    mu = nu - n
    small = xs <= 2.0
    large = ~small
    x_large = xs[large]
    out = np.empty_like(xs)
    with np.errstate(over="ignore"):  # K_nu(x) past the double range is inf
        out[small] = _upward(_temme, 1, mu, n, xs[small])
        out[large] = _upward(_trapezoid, 2, mu, n, x_large) * np.exp(-x_large)
    out = out.reshape(xa.shape)
    return out[()] if xa.ndim == 0 else out
