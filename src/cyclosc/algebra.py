"""Deformed oscillator with a cyclic grading of the Fock space.

The ladder pair (a, a†) obeys [a, a†] = I + sum_mu alpha_mu P_mu, where
P_mu projects onto the Fock levels n ≡ mu (mod lambda) and the deformation
parameters alpha_mu sum to zero.  Everything is controlled by the structure
function F(n) = n + beta_{n mod lambda} with beta_mu the partial sums of
alpha; a|n> = sqrt(F(n)) |n-1>.  This module validates parameters, builds the
ladder amplitudes sqrt(F(n)) and sqrt(n) as the two rows of one array (stats
shifts state vectors with them) and the one J_+ J_- diagonal, ladder_products,
that sga and coherent read J_+ J_-, J_- J_+ and J_- from; it names its overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraParams",
    "validate_params",
    "structure_function",
    "energy",
    "build_fock_rep",
    "ladder_products",
    "random_admissible_alpha",
]

_LOG_MAX = np.log(np.finfo(float).max)  # exp overflows a double above this


@dataclass(frozen=True)
class AlgebraParams:
    """Validated deformation parameters and their derived arrays.

    beta[mu] = sum_{nu < mu} alpha_nu for mu = 0..lam (beta[0] = beta[lam] = 0),
    beta_bar[mu] = (beta[mu] + mu)/lam  (beta_bar[0] = 0, beta_bar[lam] = 1),
    gamma[mu] = (beta[mu] + beta[mu+1])/2 with the cyclic convention beta[lam] = 0.
    """

    lam: int
    alpha: np.ndarray
    beta: np.ndarray
    beta_bar: np.ndarray
    gamma: np.ndarray


def validate_params(lam: int, alpha) -> AlgebraParams:
    """Validate (lambda, alpha) and populate the derived arrays.

    alpha must have length lambda, be finite, and sum to zero within 1e-9
    (it is then re-centered so the sum is exactly zero).  Admissibility requires
    F(mu) = beta_mu + mu > 0 for mu = 1..lambda-1, so every Fock state has
    positive norm.
    """
    lam = _check_lam(lam)
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    if alpha.shape != (lam,):
        raise ValueError(f"alpha must have length {lam}, got {alpha.size}")
    if not np.all(np.isfinite(alpha)):
        raise ValueError(f"alpha must be finite, got {alpha.tolist()}")
    total = float(alpha.sum())
    if abs(total) > 1e-9:
        raise ValueError(f"sum(alpha) = {total:.6g} violates the zero-sum constraint")
    alpha = alpha - total / lam
    beta = np.zeros(lam + 1)
    beta[1:] = np.cumsum(alpha)
    beta[lam] = 0.0
    for mu in range(1, lam):
        if beta[mu] + mu <= 0:
            name = "alpha_0" if mu == 1 else f"alpha_0+...+alpha_{mu - 1}"
            raise ValueError(
                f"inadmissible alpha: F({mu}) = {beta[mu] + mu:.6g} <= 0 "
                f"({name} must exceed {-mu})"
            )
    beta_bar = (beta + np.arange(lam + 1)) / lam
    gamma = 0.5 * (beta[:lam] + np.concatenate([beta[1:lam], [0.0]]))
    return AlgebraParams(lam, alpha, beta, beta_bar, gamma)


def _check_lam(lam) -> int:
    """lambda as an int >= 2, else ValueError."""
    if not 2 <= lam < np.inf or int(lam) != lam:  # int() of inf or NaN raises its own error
        raise ValueError(f"lambda must be an integer >= 2, got {lam}")
    return int(lam)


def _check_mu(lam: int, mu) -> int:
    """mu as an int sector label 0..lam-1, else ValueError."""
    if not 0 <= mu < lam or int(mu) != mu:
        raise ValueError(f"mu must be in 0..{lam - 1}, got {mu}")
    return int(mu)


def structure_function(params: AlgebraParams, n):
    """F(n) = n + beta_{n mod lambda}, elementwise for an array of levels;
    F(0) = 0 and F(n) > 0 for n >= 1."""
    return n + params.beta[n % params.lam]


def energy(params: AlgebraParams, n):
    """Eigenvalue of h0 on |n>: n + gamma_{n mod lambda} + 1/2, elementwise.

    Within each residue class the spectrum is equally spaced with gap lambda.
    """
    return n + params.gamma[n % params.lam] + 0.5


def build_fock_rep(params: AlgebraParams, n_max: int) -> np.ndarray:
    """Ladder amplitudes on |0> ... |n_max> (n_max >= lambda), shape (2, n_max + 1).

    Row 0 is sqrt(F(n)), the amplitude of a|n> = sqrt(F(n)) |n-1> for the
    deformed ("dressed") pair; row 1 is sqrt(n), that of the canonical
    ("real") pair (b, b†) sharing the same number operator."""
    if n_max < params.lam:
        raise ValueError(f"n_max must be at least lambda = {params.lam}, got {n_max}")
    n = np.arange(n_max + 1)
    return np.sqrt([structure_function(params, n), n])


def ladder_products(params: AlgebraParams, n_top: int) -> np.ndarray:
    """J_+ J_- on |0> ... |n_top>, F(n+1-lambda) ... F(n) / lambda^2 at n: 0 below
    level lambda, where F(0) = 0 ends the lowering, and rising above it as F(n + lambda)
    = F(n) + lambda: the top entry, tested in log space before the array is formed and
    for finiteness after, decides the one RuntimeError naming an overflow.  J_- J_+ on
    |n> is entry n + lambda; J_- takes |n> to sqrt(entry n) |n - lambda>."""
    lam = params.lam
    overflow = f"J_+ J_- overflows double precision at lambda = {lam}, level {n_top}"
    if n_top >= lam:  # below level lambda every entry is 0
        log_top = np.log(structure_function(params, np.arange(n_top + 1 - lam, n_top + 1))).sum()
        if log_top - 2.0 * np.log(lam) > _LOG_MAX:
            raise RuntimeError(overflow)
    f = structure_function(params, np.maximum(np.arange(1 - lam, n_top + 1), 0))
    prods = np.full(n_top + 1, 1.0 / (lam * lam))
    with np.errstate(over="ignore"):
        for j in range(lam):
            prods *= f[j:j + prods.size]
    if not np.isfinite(prods[-1]):  # backstop to the log-space test
        raise RuntimeError(overflow)
    return prods


def random_admissible_alpha(lam: int, rng: np.random.Generator) -> np.ndarray:
    """Draw alpha_0..alpha_{lam-2} uniform in (-0.9, 0.9), close the sum,
    and reject draws with any beta_mu + mu <= 0.05 (stays safely admissible)."""
    while True:
        head = rng.uniform(-0.9, 0.9, size=lam - 1)
        alpha = np.concatenate([head, [-head.sum()]])
        beta = np.cumsum(alpha)
        if all(beta[mu - 1] + mu > 0.05 for mu in range(1, lam)):
            return alpha
