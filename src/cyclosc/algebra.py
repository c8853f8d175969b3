"""Deformed oscillator with a cyclic grading of the Fock space.

The ladder pair (a, a†) obeys [a, a†] = I + sum_mu alpha_mu P_mu, where
P_mu projects onto the Fock levels n ≡ mu (mod lambda) and the deformation
parameters alpha_mu sum to zero.  Everything is controlled by the structure
function F(n) = n + beta_{n mod lambda} with beta_mu the partial sums of
alpha; a|n> = sqrt(F(n)) |n-1>.  This module validates parameters and builds
dense truncated matrix representations of all operators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlgebraParams",
    "FockRep",
    "validate_params",
    "structure_function",
    "energy",
    "build_fock_rep",
    "random_admissible_alpha",
]


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


@dataclass(frozen=True)
class FockRep:
    """Truncated matrix representation on the basis |0> ... |n_max>.

    a/a_dag are the deformed ladder pair, b/b_dag the canonical one sharing
    the same number operator.  h0 = (a a† + a† a)/2.  Identities involving
    a a† hold only on rows/cols 0..n_max-1; the last row is a truncation
    artifact.
    """

    params: AlgebraParams
    n_max: int
    n_op: np.ndarray
    a: np.ndarray
    a_dag: np.ndarray
    b: np.ndarray
    b_dag: np.ndarray
    projectors: tuple
    h0: np.ndarray


def validate_params(lam: int, alpha) -> AlgebraParams:
    """Validate (lambda, alpha) and populate the derived arrays.

    alpha must have length lambda, be finite, and sum to zero within 1e-9
    (it is then re-centered so the sum is exactly zero).  Admissibility requires
    F(mu) = beta_mu + mu > 0 for mu = 1..lambda-1, so every Fock state has
    positive norm.
    """
    lam = int(lam)
    if lam < 2:
        raise ValueError(f"lambda must be an integer >= 2, got {lam}")
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


def structure_function(params: AlgebraParams, n: int) -> float:
    """F(n) = n + beta_{n mod lambda}; F(0) = 0 and F(n) > 0 for n >= 1."""
    return float(n + params.beta[n % params.lam])


def energy(params: AlgebraParams, n: int) -> float:
    """Eigenvalue of h0 on |n>: n + gamma_{n mod lambda} + 1/2.

    Within each residue class the spectrum is equally spaced with gap lambda.
    """
    return float(n + params.gamma[n % params.lam] + 0.5)


def build_fock_rep(params: AlgebraParams, n_max: int) -> FockRep:
    """Build all operator matrices on |0> ... |n_max> (n_max >= lambda)."""
    if n_max < params.lam:
        raise ValueError(f"n_max must be at least lambda = {params.lam}, got {n_max}")
    dim = n_max + 1
    a = np.zeros((dim, dim))
    b = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(structure_function(params, n))
        b[n - 1, n] = math.sqrt(n)
    a_dag = a.T.copy()
    b_dag = b.T.copy()
    n_op = np.diag(np.arange(dim, dtype=float))
    projectors = tuple(
        np.diag((np.arange(dim) % params.lam == mu).astype(float))
        for mu in range(params.lam)
    )
    h0 = 0.5 * (a @ a_dag + a_dag @ a)
    return FockRep(params, n_max, n_op, a, a_dag, b, b_dag, projectors, h0)


def random_admissible_alpha(lam: int, rng: np.random.Generator) -> np.ndarray:
    """Draw alpha_0..alpha_{lam-2} uniform in (-0.9, 0.9), close the sum,
    and reject draws with any beta_mu + mu <= 0.05 (stays safely admissible)."""
    while True:
        head = rng.uniform(-0.9, 0.9, size=lam - 1)
        alpha = np.concatenate([head, [-head.sum()]])
        beta = np.cumsum(alpha)
        if all(beta[mu - 1] + mu > 0.05 for mu in range(1, lam)):
            return alpha
