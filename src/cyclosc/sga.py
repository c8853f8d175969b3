"""Spectrum-generating algebra of the graded oscillator.

J_+ = (a†)^lambda / lambda, J_- = a^lambda / lambda, J_0 = h0 / lambda close a
polynomial deformation of su(1,1):

    [J_0, J_±] = ±J_±,      [J_+, J_-] = f(J_0, P_mu),

with f of degree lambda-1 in J_0 and sector-dependent coefficients.  The
Casimir C = J_- J_+ + h(J_0, P_mu) = J_+ J_- + h - f is constant on each
sector, with h of degree lambda.

J_+ J_- and J_- J_+ are diagonal, prod_{j=0}^{lambda-1} F(n-j) / lambda^2 and
prod_{j=1}^{lambda} F(n+j) / lambda^2 on |n>; on sector mu each equals
lambda^{lambda-2} prod_j (J_0 - r_j), r_j = (gamma_mu + 1/2 - j - beta_{(mu+j) mod
lambda}) / lambda, over j = 0, -1, ..., 1-lambda and j = 1..lambda respectively.
f, h and the Casimir eigenvalues are expanded from those roots and validated
against the products level by level, for all sectors at once (one coefficient
array, one row-wise Horner pass); the lambda = 2, 3 closed forms (closed_forms)
serve as goldens.
The products overflow double precision from about lambda = 74
(lambda <= 73 works at alpha = 0); build_sga tests the largest in log space
and raises RuntimeError before it forms any.

The constant term of h is fixed to zero (any constant can be traded between
h and the Casimir eigenvalues); closed_forms shares that normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, structure_function

__all__ = [
    "SgaRep",
    "SgaPolynomials",
    "extraction_n_max",
    "build_sga",
    "extract_f_poly",
    "extract_h_poly_and_casimir",
    "closed_forms",
]


@dataclass(frozen=True)
class SgaRep:
    """Diagonals of J_0 (j0), J_+ J_- (jp_jm) and J_- J_+ (jm_jp) on |0> ... |n_max>,
    taken from the parameters, so the top levels carry no truncation artifact."""

    params: AlgebraParams
    j0: np.ndarray
    jp_jm: np.ndarray
    jm_jp: np.ndarray


@dataclass(frozen=True)
class SgaPolynomials:
    """Coefficients in ascending powers of J_0.

    s[mu][i] — coefficient of J_0^i in f on sector mu (degree lambda-1),
    t[mu][i] — coefficient of J_0^i in h on sector mu (degree lambda, t[mu][0] = 0),
    c[mu]    — Casimir eigenvalue on sector mu.
    f_residual/h_residual — worst relative deviation from the diagonal
    products at the validation levels.
    """

    s: np.ndarray
    t: np.ndarray
    c: np.ndarray
    f_residual: np.ndarray
    h_residual: np.ndarray


_LOG_MAX = np.log(np.finfo(float).max)


def extraction_n_max(lam: int) -> int:
    """Truncation with room for validation at k up to 3*lam - 1 in every sector."""
    return 3 * lam * lam + 2 * lam


def build_sga(params: AlgebraParams, n_max: int) -> SgaRep:
    """Form the J_0, J_+ J_- and J_- J_+ diagonals on |0> ... |n_max> (n_max >= 4*lambda)."""
    lam = params.lam
    if n_max < 4 * lam:
        raise ValueError(f"n_max = {n_max} too small for SGA extraction: need >= {4 * lam}")
    overflow = f"SGA products overflow double precision at lambda = {lam}, n_max = {n_max}"
    # F(n + lambda) = F(n) + lambda, so the products grow with n and the top one,
    # F(n_max + 1) ... F(n_max + lambda) / lambda^2, decides: test it in log space first
    top = np.log(structure_function(params, np.arange(n_max + 1, n_max + lam + 1))).sum()
    if top - 2.0 * np.log(lam) > _LOG_MAX:
        raise RuntimeError(overflow)
    n = np.arange(n_max + 1)
    # prods[i] = F(i+1-lambda) ... F(i) / lambda^2 for i = 0 .. n_max + lambda, with F(0) = 0
    # below level 1 ending the lowering: J_+ J_- at n is prods[n], J_- J_+ is prods[n + lambda]
    f = structure_function(params, np.maximum(np.arange(1 - lam, n_max + lam + 1), 0))
    prods = np.full(n_max + lam + 1, 1.0 / (lam * lam))
    with np.errstate(over="ignore"):
        for j in range(lam):
            prods *= f[j:j + prods.size]
    if not np.all(np.isfinite(prods[-lam:])):  # backstop to the log-space test
        raise RuntimeError(overflow)
    return SgaRep(params, (n + params.gamma[n % lam] + 0.5) / lam, prods[:n.size], prods[lam:])


def _root_polys(params: AlgebraParams, shifts: np.ndarray) -> np.ndarray:
    """Row mu: lambda^{lambda-2} prod_j (J_0 - r_j) over the shifts, ascending in J_0."""
    lam = params.lam
    beta = params.beta[(np.arange(lam)[:, None] + shifts) % lam]
    roots = (params.gamma[:, None] + 0.5 - shifts - beta) / lam
    p = np.zeros((lam, lam + 1))
    p[:, 0] = float(lam) ** (lam - 2)
    for r in roots.T[:, :, None]:
        p[:, 1:] = p[:, :-1] - r * p[:, 1:]
        p[:, :1] *= -r
    return p


def _horner(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row mu of the ascending coeffs at row mu of x, with polyval's arithmetic."""
    out = coeffs[:, -1:] + 0.0 * x
    for col in coeffs[:, -2::-1].T:
        out = out * x + col[:, None]
    return out


def _nodes(sga: SgaRep, k_min: int, what: str):
    """Row mu: the levels k lambda + mu, k <= 3 lambda - 1, that keep n + lambda <= n_max
    (a shorter row repeats its last level, which leaves its worst residual unchanged),
    and the gate that asks for k up to k_min."""
    lam = sga.params.lam
    n_max = sga.j0.size - 1
    mu = np.arange(lam)
    k_avail = (n_max - lam - mu) // lam
    ns = np.minimum(np.arange(3 * lam), k_avail[:, None]) * lam + mu[:, None]
    return ns, (k_avail, k_avail >= k_min, ValueError,
                f"n_max = {n_max} leaves too few interior levels in sector {{mu}} "
                f"to fit {what} (need k up to {k_min}, have {{v}})")


def _raise_first(*gates) -> None:
    """Each gate is (values, passed, exception type, message on mu and v).  Raise for the
    first sector that fails a gate, and there for the first gate, as a sector loop would."""
    failed = ~np.array([gate[1] for gate in gates])
    if failed.any():
        mu, i = np.argwhere(failed.T)[0]
        values, _, exc, message = gates[i]
        raise exc(message.format(mu=mu, v=values[mu]))


def _f_gate(sga: SgaRep, s: np.ndarray, ns: np.ndarray):
    """Per sector, the worst relative deviation of f from [J_+, J_-] at the levels ns."""
    comm = sga.jp_jm[ns] - sga.jm_jp[ns]
    resid = np.max(np.abs(_horner(s, sga.j0[ns]) - comm) / np.maximum(1.0, np.abs(comm)), axis=1)
    return (resid, resid < 1e-8, RuntimeError,  # '<' so that a NaN residual fails too
            f"[J_+, J_-] is not a degree-{s.shape[1] - 1} polynomial in J_0 on "
            "sector {mu} (validation residual {v:.3e})")


def extract_f_poly(sga: SgaRep) -> np.ndarray:
    """Per sector, the degree-(lambda-1) polynomial with [J_+, J_-] = f(J_0),
    the difference of the two root-form products, validated against the
    diagonal products at every level k lambda + mu with k <= 3*lambda-1.

    Returns the (lambda, lambda) coefficient array s.  A relative residual
    that is not below 1e-8 means the commutator is not polynomial of the
    expected degree and raises (implementation-bug signal).
    """
    params = sga.params
    lam = params.lam
    ns, enough = _nodes(sga, lam - 1, "f")
    s = (_root_polys(params, -np.arange(lam)) - _root_polys(params, np.arange(1, lam + 1)))[:, :lam]
    _raise_first(enough, _f_gate(sga, s, ns))
    return s


def extract_h_poly_and_casimir(sga: SgaRep, s: np.ndarray) -> SgaPolynomials:
    """Per sector, the degree-lambda polynomial h with J_- J_+ + h(J_0)
    constant, pinning h(0) = 0 so the constant is the Casimir eigenvalue c_mu.

    Validates constancy at every level k lambda + mu with k <= 3*lambda-1 and
    cross-checks the second Casimir form J_+ J_- + h - f at the same levels,
    both to 1e-8 relative to the local magnitude; f = s is validated there too.
    """
    params = sga.params
    lam = params.lam
    s = np.asarray(s, dtype=float)
    ns, enough = _nodes(sga, lam, "h")
    f_gate = _f_gate(sga, s, ns)
    t = -_root_polys(params, np.arange(1, lam + 1))  # J_- J_+ = c - h
    c = -t[:, 0]
    t[:, 0] = 0.0
    x, g = sga.j0[ns], sga.jm_jp[ns]
    h_val = _horner(t, x)
    second = sga.jp_jm[ns] + h_val - _horner(s, x)
    dev = np.maximum(np.abs(g + h_val - c[:, None]), np.abs(second - c[:, None]))
    h_resid = np.max(dev / np.maximum(1.0, np.abs(g)), axis=1)
    _raise_first(enough, f_gate, (h_resid, h_resid < 1e-8, RuntimeError,
                                  "J_- J_+ + h(J_0) is not constant on sector {mu} "
                                  "(worst deviation {v:.3e})"))
    return SgaPolynomials(s, t, c, f_gate[0], h_resid)


def closed_forms(params: AlgebraParams):
    """Closed-form (s, t, c), shaped as SgaPolynomials' fields, for lambda in
    {2, 3}; None otherwise.

    lambda = 2: f = -2 J_0,  h = -J_0 (J_0 + 1),  c_mu = (1 + alpha_mu)(3 - alpha_mu)/16.
    lambda = 3, with a0 = alpha_mu and a1 = alpha_{mu+1} (index mod 3):
        f = -9 J_0^2 - (a0 + 2 a1) J_0 - (1 + a0)(5 - a0)/12,
        h = -3 J_0^3 - (9 + a0 + 2 a1) J_0^2 / 2 - (23 + 10 a0 + 12 a1 - a0^2) J_0 / 12,
        c_mu = (1 + a0)(5 - a0)(3 + a0 + 2 a1)/72.
    """
    a0 = params.alpha
    if params.lam == 2:
        s = np.array([[0.0, -2.0], [0.0, -2.0]])
        t = np.array([[0.0, -1.0, -1.0], [0.0, -1.0, -1.0]])
        return s, t, (1 + a0) * (3 - a0) / 16.0
    if params.lam == 3:
        a1 = np.roll(a0, -1)
        s = np.column_stack([-(1 + a0) * (5 - a0) / 12.0, -(a0 + 2 * a1), np.full(3, -9.0)])
        t = np.column_stack([np.zeros(3), -(23 + 10 * a0 + 12 * a1 - a0 * a0) / 12.0,
                             -(9 + a0 + 2 * a1) / 2.0, np.full(3, -3.0)])
        return s, t, (1 + a0) * (5 - a0) * (3 + a0 + 2 * a1) / 72.0
    return None
