"""Deformed oscillator with a cyclic grading of the Fock space.

The ladder pair (a, a†) obeys [a, a†] = I + sum_mu alpha_mu P_mu, where
P_mu projects onto the Fock levels n ≡ mu (mod lambda) and the deformation
parameters alpha_mu sum to zero.  Everything is controlled by the structure
function F(n) = n + beta_{n mod lambda} with beta_mu the partial sums of
alpha; a|n> = sqrt(F(n)) |n-1>.  This module validates parameters and builds
the ladder amplitudes sqrt(F(n)) and sqrt(n), which apply a, a† and their
canonical counterparts to state vectors as vectorised shifts.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class FockRep:
    """Ladder amplitudes on the basis |0> ... |n_max>.

    sqrt_f[n] = sqrt(F(n)) is the amplitude of a|n> = sqrt(F(n)) |n-1> for the
    deformed pair; sqrt_n[n] = sqrt(n) is that of the canonical pair (b, b†)
    sharing the same number operator.  "dressed" selects the first, "real"
    the second.  Shifts act on the truncated space: raising |n_max> drops out.
    """

    sqrt_f: np.ndarray
    sqrt_n: np.ndarray

    def amplitudes(self, kind: str) -> np.ndarray:
        """sqrt_f for kind='dressed', sqrt_n for kind='real'."""
        if kind not in ("dressed", "real"):
            raise ValueError(f"kind must be 'dressed' or 'real', got {kind!r}")
        return self.sqrt_f if kind == "dressed" else self.sqrt_n

    def lower(self, v, kind: str = "dressed") -> np.ndarray:
        """a v (b v for kind='real'): (a v)[n-1] = amp[n] v[n]."""
        shifted = self.amplitudes(kind)[1:] * v[1:]
        out = np.zeros(shifted.size + 1, shifted.dtype)
        out[:-1] = shifted
        return out

    def raise_(self, v, kind: str = "dressed") -> np.ndarray:
        """a† v (b† v for kind='real'): (a† v)[n] = amp[n] v[n-1]."""
        shifted = self.amplitudes(kind)[1:] * v[:-1]
        out = np.zeros(shifted.size + 1, shifted.dtype)
        out[1:] = shifted
        return out


def validate_params(lam: int, alpha) -> AlgebraParams:
    """Validate (lambda, alpha) and populate the derived arrays.

    alpha must have length lambda, be finite, and sum to zero within 1e-9
    (it is then re-centered so the sum is exactly zero).  Admissibility requires
    F(mu) = beta_mu + mu > 0 for mu = 1..lambda-1, so every Fock state has
    positive norm.
    """
    if not 2 <= lam < np.inf or int(lam) != lam:  # int() of inf or NaN raises its own error
        raise ValueError(f"lambda must be an integer >= 2, got {lam}")
    lam = int(lam)
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


def build_fock_rep(params: AlgebraParams, n_max: int) -> FockRep:
    """Ladder amplitudes on |0> ... |n_max> (n_max >= lambda)."""
    if n_max < params.lam:
        raise ValueError(f"n_max must be at least lambda = {params.lam}, got {n_max}")
    n = np.arange(n_max + 1)
    return FockRep(np.sqrt(structure_function(params, n)), np.sqrt(n.astype(float)))


def random_admissible_alpha(lam: int, rng: np.random.Generator) -> np.ndarray:
    """Draw alpha_0..alpha_{lam-2} uniform in (-0.9, 0.9), close the sum,
    and reject draws with any beta_mu + mu <= 0.05 (stays safely admissible)."""
    while True:
        head = rng.uniform(-0.9, 0.9, size=lam - 1)
        alpha = np.concatenate([head, [-head.sum()]])
        beta = np.cumsum(alpha)
        if all(beta[mu - 1] + mu > 0.05 for mu in range(1, lam)):
            return alpha
