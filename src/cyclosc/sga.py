"""Spectrum-generating algebra of the graded oscillator.

J_+ = (a†)^lambda / lambda, J_- = a^lambda / lambda, J_0 = h0 / lambda close a
polynomial deformation of su(1,1):

    [J_0, J_±] = ±J_±,      [J_+, J_-] = f(J_0, P_mu),

with f of degree lambda-1 in J_0 and sector-dependent coefficients.  The
Casimir C = J_- J_+ + h(J_0, P_mu) = J_+ J_- + h - f is constant on each
sector, with h of degree lambda.

J_+ J_- and J_- J_+ are diagonal, prod_{j=0}^{lambda-1} F(n-j) / lambda^2 and
prod_{j=1}^{lambda} F(n+j) / lambda^2 on |n> (algebra.ladder_products at n and
n + lambda); on sector mu they are P_- and P_+ = lambda^{lambda-2} prod_j (J_0 - r_j),
r_j = ((gamma_mu - beta_{(mu+j) mod lambda}) + (1/2 - j)) / lambda, over j = 0, -1,
..., 1-lambda and j = 1..lambda, both expanded in one pass.  One call,
build_sga(params), validates both against the diagonals at the levels
k lambda + mu, k <= 3 lambda - 1, of every sector in one stacked Horner pass
(_horner, over any leading axes, the one polynomial evaluator that verify also
reads), to 1e-8 relative to the monomial form's own magnitude
sum_i |p_i| |J_0|^i (Higham, Accuracy and Stability of Numerical Algorithms,
2nd ed., sec. 5.1), and returns their exact combinations
f = P_- - P_+, h = P_+(0) - P_+ and c = P_+(0); closed_forms gives the lambda =
2, 3 goldens.  params is one AlgebraParams or a sequence of them sharing lambda:
a sequence is fitted in one pass, its roots, both root products, the Horner
validation and the residuals carrying a leading set axis, and each set gets the
SgaPolynomials or the RuntimeError it gives alone, bit for bit; one set is a stack
of one.  The products overflow double precision from lambda = 74 at
alpha = 0: ladder_products, still called per set, tests its top entry before it
forms them and raises RuntimeError.  Where the root products leave the double
range first (from alpha = (5.4e154, -5.4e154) at lambda = 2 and (2.3e103,
-2.3e103, 0) at lambda = 3), the failed validation names that overflow, not an
implementation bug.

The constant term of h is fixed to zero (any constant can be traded between
h and the Casimir eigenvalues); closed_forms shares that normalization.
_casimir_scale is the rounding scale of a root product's constant term, against which
the sga command compares c = P_+(0) and f(0) = P_-(0) - P_+(0) with their closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, energy, ladder_products

__all__ = ["SgaPolynomials", "build_sga", "closed_forms"]


@dataclass(frozen=True)
class SgaPolynomials:
    """Coefficients in ascending powers of J_0.

    s[mu][i] — coefficient of J_0^i in f on sector mu (degree lambda-1),
    t[mu][i] — coefficient of J_0^i in h on sector mu (degree lambda, t[mu][0] = 0),
    c[mu]    — Casimir eigenvalue on sector mu.
    f_residual/h_residual — worst deviation of P_- from J_+ J_- and of P_+ from
    J_- J_+ at the validation levels, relative to sum_i |p_i| |J_0|^i.
    """

    s: np.ndarray
    t: np.ndarray
    c: np.ndarray
    f_residual: np.ndarray
    h_residual: np.ndarray


def build_sga(params):
    """Per sector, f with [J_+, J_-] = f(J_0) (degree lambda-1), h with
    J_- J_+ + h(J_0) constant (degree lambda, h(0) = 0) and that constant,
    the Casimir eigenvalue c_mu, validated (_fit) against ladder_products up to
    the top level it reads.  params is one AlgebraParams, whose SgaPolynomials this
    returns, or a sequence of them sharing lambda, fitted together, for which it
    returns a list holding each set's SgaPolynomials or the RuntimeError that set
    raises alone: where ladder_products overflows double precision, or a validation
    residual is not below 1e-8.
    """
    single = isinstance(params, AlgebraParams)
    sets = (params,) if single else tuple(params)
    if len({p.lam for p in sets}) != 1:
        raise ValueError("a stack of parameter sets must share one lambda")
    lam = sets[0].lam
    out = []
    for p in sets:
        try:
            out.append(ladder_products(p, 3 * lam * lam + lam - 1))  # J_- J_+ at the top level, 3 lambda^2 - 1
        except RuntimeError as exc:
            out.append(exc)
    fits = [k for k, prods in enumerate(out) if not isinstance(prods, RuntimeError)]
    if fits:
        ns = np.arange(3 * lam) * lam + np.arange(lam)[:, None]  # row mu: k lambda + mu
        fitted = _fit([sets[k] for k in fits], [energy(sets[k], ns) / lam for k in fits],
                      [out[k][ns] for k in fits], [out[k][ns + lam] for k in fits])
        for k, poly in zip(fits, fitted):
            out[k] = poly
    if single:
        if isinstance(out[0], RuntimeError):
            raise out[0]
        return out[0]
    return out


def _root_polys(sets, shifts: np.ndarray) -> np.ndarray:
    """Row mu: lambda^{lambda-2} prod_j (J_0 - r_j) over the lambda shifts j, ascending
    in J_0, for each of a sequence of parameter sets sharing lambda along the leading
    axis.  shifts is one row of shifts (result (sets, lambda, lambda + 1)) or a stack of
    rows (result (sets, rows, lambda, lambda + 1)); each set's and each row's polynomials
    are bitwise those of its own call, as every entry runs the same product-of-roots
    expansion."""
    lam = sets[0].lam
    shifts = np.asarray(shifts)[..., None, :]  # broadcast against sector mu on the row axis
    index = (np.arange(lam)[:, None] + shifts) % lam
    rows = (slice(None),) + (None,) * (index.ndim - 2)  # the set axis, then the rows of shifts
    beta = np.array([p.beta for p in sets])[:, index]
    gamma = np.array([p.gamma for p in sets])[rows + (slice(None), None)]
    roots = ((gamma - beta) + (0.5 - shifts)) / lam  # the O(1) part survives gamma ~ beta
    p = np.zeros(roots.shape[:-1] + (lam + 1,))
    p[..., 0] = float(lam) ** (lam - 2)
    for j in range(lam):
        r = roots[..., j:j + 1]
        p[..., 1:] = p[..., :-1] - r * p[..., 1:]
        p[..., :1] *= -r
    return p


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The polynomials ascending along coeffs' last axis, each at the row of x that shares
    its leading indices (row mu of a (lambda, deg + 1) array, or a stack of them), with
    polyval's arithmetic."""
    out = coeffs[..., -1:] + 0.0 * x
    for i in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * x + coeffs[..., i:i + 1]
    return out


def _failure(resid: np.ndarray, mag: np.ndarray, lam: int) -> RuntimeError:
    """The RuntimeError of one set from its residuals and magnitudes sum_i |p_i| |J_0|^i,
    P_-'s sectors then P_+'s: for the first residual not below 1e-8, as sector loops over
    P_- and then P_+ would raise it; where that magnitude has left the double range, it
    names the overflow of the root product instead."""
    k = int(np.argmax(~(resid < 1e-8)))
    product, mu = ("J_+ J_-", k) if k < lam else ("J_- J_+", k - lam)
    if not np.isfinite(mag[k]).all():
        return RuntimeError(f"the root product of {product} on sector {mu} overflows double precision "
                            f"at lambda = {lam}")
    if k < lam:
        return RuntimeError(f"[J_+, J_-] is not a degree-{lam - 1} polynomial in J_0 on sector {mu} "
                            f"(validation residual {resid[k]:.3e})")
    return RuntimeError(f"J_- J_+ + h(J_0) is not constant on sector {mu} (worst deviation {resid[k]:.3e})")


def _fit(sets, x, low, g) -> list:
    """f, h and c for a sequence of parameter sets sharing lambda, from the root products
    P_- (J_+ J_-) and P_+ (J_- J_+), the two rows of one _root_polys call over the shifts
    j = 0, -1, ..., 1-lambda and 1..lambda, each validated at the levels whose J_0,
    J_+ J_- and J_- J_+ are row mu of that set's x, low and g (sector mu), to 1e-8
    relative to sum_i |p_i| |x|^i.  A set whose residual is not below 1e-8 gets a
    RuntimeError in place of its SgaPolynomials, for P_-'s first failing sector before
    P_+'s: one naming the overflow where that magnitude has left the double range (from
    alpha_0 = 5.4e154 at lambda = 2), else an implementation-bug signal.
    """
    lam = sets[0].lam
    x, low, g = np.array(x), np.array(low), np.array(g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named by _failure
        p = _root_polys(sets, np.array([-np.arange(lam), np.arange(1, lam + 1)])).reshape(-1, 2 * lam, lam + 1)
        t = -p[:, lam:]  # J_- J_+ = c - h
        s = (p[:, :lam] + t)[..., :lam]
        c = -t[..., 0]
        t[..., 0] = 0.0
        both = _horner(np.concatenate([p, np.abs(p)], axis=1), np.concatenate([x, x, np.abs(x), np.abs(x)], axis=1))
        val, mag = both[:, :2 * lam], both[:, 2 * lam:]
        resid = np.max(np.abs(val - np.concatenate([low, g], axis=1)) / mag, axis=-1)
    failed = (~(resid < 1e-8)).any(axis=1).tolist()  # 'not below', so that a NaN residual fails too
    return [_failure(resid[k], mag[k], lam) if failed[k] else
            SgaPolynomials(s[k], t[k], c[k], resid[k, :lam], resid[k, lam:]) for k in range(len(sets))]


def closed_forms(params: AlgebraParams):
    """Closed-form (s, t, c), shaped as SgaPolynomials' fields, for lambda in
    {2, 3}; None otherwise.

    lambda = 2: f = -2 J_0,  h = -J_0 (J_0 + 1),  c_mu = (1 + alpha_mu)(3 - alpha_mu)/16.
    lambda = 3, with a0 = alpha_mu and a1 = alpha_{mu+1} (index mod 3):
        f = -9 J_0^2 - (a0 + 2 a1) J_0 - (1 + a0)(5 - a0)/12,
        h = -3 J_0^3 - (9 + a0 + 2 a1) J_0^2 / 2 - (23 + 10 a0 + 12 a1 - a0^2) J_0 / 12,
        c_mu = (1 + a0)(5 - a0)(3 + a0 + 2 a1)/72.
    Each Casimir factor is divided by a power of two before the product and the product
    multiplied back after the last division: the same bits as the plain product wherever
    that is finite, and no overflow where c_mu is a double (alpha_0 = 3e154 at lambda = 2).
    """
    a0 = params.alpha
    if params.lam == 2:
        s = np.array([[0.0, -2.0], [0.0, -2.0]])
        t = np.array([[0.0, -1.0, -1.0], [0.0, -1.0, -1.0]])
        return s, t, (1 + a0) / 4.0 * ((3 - a0) / 4.0)
    if params.lam == 3:
        a1 = np.roll(a0, -1)
        s = np.column_stack([-(1 + a0) * (5 - a0) / 12.0, -(a0 + 2 * a1), np.full(3, -9.0)])
        t = np.column_stack([np.zeros(3), -(23 + 10 * a0 + 12 * a1 - a0 * a0) / 12.0,
                             -(9 + a0 + 2 * a1) / 2.0, np.full(3, -3.0)])
        return s, t, (1 + a0) / 8.0 * ((5 - a0) / 8.0) * ((3 + a0 + 2 * a1) / 8.0) / 72.0 * 512.0
    return None


def _casimir_scale(params: AlgebraParams, shifts=None) -> np.ndarray:
    """Per sector, the rounding scale of the constant term P(0) = lambda^{lambda-2}
    prod_j (-r_j) of the root product over the row of shifts j that build_sga forms: the
    same product with each root's terms in absolute value, lambda^{lambda-2} prod_j
    (|gamma_mu| + |1/2 - j| + |beta_{(mu+j) mod lambda}|) / lambda.  The default row
    1..lambda is P_+, whose P_+(0) is the Casimir c_mu; the row 0, -1, ..., 1-lambda is
    P_-, and f(0) = P_-(0) - P_+(0) rounds on the sum of the two scales.  At alpha = 0 the
    Casimir's is |c_mu|; it is never 0 (c_0 = 0 at alpha_0 = 3, lambda = 2, where it is
    3.75); it grows with the partial sums beta that the roots cancel (at lambda = 3,
    alpha = (1e50, 0, -1e50), c_1 = -1.4e49 against a scale of 4.4e149); inf where it
    leaves the double range."""
    lam = params.lam
    j = np.arange(1, lam + 1) if shifts is None else np.asarray(shifts)
    terms = np.abs(params.gamma)[:, None] + np.abs(0.5 - j) + np.abs(params.beta[(np.arange(lam)[:, None] + j) % lam])
    with np.errstate(over="ignore"):
        return float(lam) ** (lam - 2) * np.prod(terms / lam, axis=1)
