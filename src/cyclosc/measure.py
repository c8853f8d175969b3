"""Resolution-of-unity verification through moment conditions.

With dρ_mu = h_mu(y) N_mu(|z|) d^2z and y = |z|^2 / lambda^{lambda-2},
sum_mu ∫ dρ_mu |z;mu><z;mu| = I reduces (after the angular integration kills
every off-diagonal term) to a Stieltjes moment problem for the radial weight:

    ∫_0^∞ h_mu(y) y^k dy = D_k^2 / (pi lambda^{lambda-2}),

where D_k^2 = k! prod_{nu<=mu}(bb_nu+1)_k prod_{nu'>mu}(bb_nu')_k is the
squared coefficient denominator of the state expansion.  Closed-form weights
exist for lambda = 2 (a Bessel-K density, any admissible alpha) and for
alpha = 0 at any lambda (a stretched-exponential photon density); both are
verified here by adaptive quadrature against the targets above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, _check_mu
from .specfun import bessel_k, pochhammer
from .coherent import build_cs, stack_coeffs

__all__ = [
    "MomentTarget",
    "moment_target",
    "weight_lambda2",
    "weight_photon",
    "moment_check",
    "unity_reconstruction",
    "angular_offdiagonal",
]

_UNITY_QUAD_TOL = 1e-9  # moment_check tolerance behind each unity_reconstruction entry
_N_PHI = 64  # phases in angular_offdiagonal's average


@dataclass(frozen=True)
class MomentTarget:
    mu: int
    k: int
    target: float
    lam: int


def moment_target(params: AlgebraParams, mu: int, k: int) -> MomentTarget:
    """k-th moment the sector-mu weight must reproduce:
    D_k^2 / (pi lambda^{lambda-2}); equals 1/(pi lambda^{lambda-2}) at k = 0."""
    mu = _check_mu(params.lam, mu)
    if k < 0:
        raise ValueError("k must be nonnegative")
    bb = params.beta_bar
    d2 = float(math.factorial(k))
    for nu in range(1, mu + 1):
        d2 *= pochhammer(bb[nu] + 1.0, k)
    for nup in range(mu + 1, params.lam):
        d2 *= pochhammer(float(bb[nup]), k)
    return MomentTarget(mu, k, d2 / (math.pi * params.lam ** (params.lam - 2)), params.lam)


def weight_lambda2(params: AlgebraParams, mu: int, y: float) -> float:
    """Radial weight for lambda = 2:

        h_mu(y) = 2 y^{(bb_1 - 1 + mu)/2} K_{bb_1 - 1 + mu}(2 sqrt(y))
                  / (pi Gamma(bb_1 + mu)),

    i.e. the two-gamma Mellin density with exponent pair (0, bb_1 - 1 + mu).
    Positive for all y > 0."""
    if params.lam != 2:
        raise ValueError("weight_lambda2 requires lambda = 2")
    if mu not in (0, 1):
        raise ValueError("mu must be 0 or 1")
    if y <= 0:
        raise ValueError("y must be positive")
    a2 = params.beta_bar[1] - 1.0 + mu
    return 2.0 * y ** (a2 / 2.0) * bessel_k(a2, 2.0 * math.sqrt(y)) / (
        math.pi * math.gamma(params.beta_bar[1] + mu)
    )


def weight_photon(lam: int, mu: int, y: float) -> float:
    """Radial weight for the undeformed case (alpha = 0), any lambda:

        h_mu(y) = lambda^{mu-lambda+2} (pi mu!)^{-1} y^{(mu-lambda+1)/lambda}
                  exp(-lambda y^{1/lambda}).

    The y -> 0 singularity is integrable; the u = y^{1/lambda} substitution
    used by moment_check removes it exactly."""
    if not 2 <= lam < math.inf or int(lam) != lam:
        raise ValueError(f"lambda must be an integer >= 2, got {lam}")
    lam = int(lam)
    if not 0 <= mu < lam:
        raise ValueError(f"mu must be in 0..{lam - 1}, got {mu}")
    if y <= 0:
        raise ValueError("y must be positive")
    return (
        lam ** (mu - lam + 2)
        / (math.pi * math.gamma(mu + 1))
        * y ** ((mu - lam + 1) / lam)
        * math.exp(-lam * y ** (1.0 / lam))
    )


def moment_check(weight, mu: int, k: int, target: MomentTarget, quad_tol: float = 1e-10):
    """Adaptive quadrature of ∫_0^∞ weight(y) y^k dy against target.target.

    Substitutes u = y^{1/lambda} first (removing the endpoint singularity of
    the photon weight), cuts the upper range where an exponential-decay tail
    estimate drops below quad_tol * target, and returns (value, rel_error).
    (mu, k) must be the target's.  Raises if the cut search or the quadrature
    fails to converge.
    scipy.integrate is imported here, on first use, not with the package.
    """
    from scipy.integrate import quad

    if (mu, k) != (target.mu, target.k):
        raise ValueError(f"moment (mu, k) = ({mu}, {k}) does not match the target's "
                         f"({target.mu}, {target.k})")
    if k > 12:
        raise ValueError("moment order k must be <= 12")
    lam = target.lam

    def g(u: float) -> float:
        return weight(u ** lam) * u ** (lam * k) * lam * u ** (lam - 1)

    budget = quad_tol * target.target
    u_cut = max(8.0, 2.0 * (k + 3))
    for _ in range(200):
        g1 = g(u_cut)
        if g1 == 0.0:
            break
        g2 = g(u_cut + 1.0)
        if g2 >= g1:
            u_cut *= 1.5
            continue
        rho = math.log(g1 / g2) if g2 > 0.0 else 100.0
        if 10.0 * g1 / rho < 0.05 * budget:
            break
        u_cut *= 1.3
    else:
        raise RuntimeError("could not place a quadrature cut for the moment integral")

    res = quad(
        g,
        0.0,
        u_cut,
        epsabs=0.05 * budget,
        epsrel=0.1 * quad_tol,
        limit=400,
        full_output=1,
    )
    if len(res) > 3:
        raise RuntimeError(f"moment quadrature did not converge: {res[3]}")
    value = res[0]
    rel_error = abs(value - target.target) / target.target
    return value, rel_error


def unity_reconstruction(params: AlgebraParams, weight: str, k_top: int) -> np.ndarray:
    """Diagonal of sum_mu ∫ dρ_mu |z;mu><z;mu| on levels n = 0..k_top*lambda,
    entry by entry from the moment quadratures (off-diagonals vanish by the
    angular integration).  All entries equal 1 when the weight resolves unity.

    weight: "lambda2" (requires lambda = 2) or "photon" (requires alpha = 0).
    """
    lam = params.lam
    if weight == "lambda2":
        if lam != 2:
            raise ValueError("weight 'lambda2' requires lambda = 2")
        h = lambda mu: (lambda y: weight_lambda2(params, mu, y))
    elif weight == "photon":
        if not np.allclose(params.alpha, 0.0, atol=1e-14):
            raise ValueError("weight 'photon' requires alpha = 0")
        h = lambda mu: (lambda y: weight_photon(lam, mu, y))
    else:
        raise ValueError(f"unknown weight {weight!r}")
    entries = np.zeros(k_top * lam + 1)
    for n in range(entries.size):
        k, mu = divmod(n, lam)
        tgt = moment_target(params, mu, k)
        value, _ = moment_check(h(mu), mu, k, tgt, quad_tol=_UNITY_QUAD_TOL)
        entries[n] = value / tgt.target
    return entries


def angular_offdiagonal(params: AlgebraParams, mu: int, r: float) -> float:
    """Largest off-diagonal magnitude of the phase average
    (1/_N_PHI) sum_j |r e^{i phi_j}; mu><...| over phi_j = 2 pi j / _N_PHI.

    The k-th coefficient carries phase k*phi, so every off-diagonal element
    averages to zero; this spot-checks the angular part of the unity integral.
    The phased states are built, not derived from one, so the check tests
    build_cs's phase convention; the average is one product of their
    zero-padded stack.
    """
    angles = (2.0 * math.pi * j / _N_PHI for j in range(_N_PHI))
    v = stack_coeffs([build_cs(params, mu, r * complex(math.cos(phi), math.sin(phi))) for phi in angles])
    acc = v.T @ v.conj() / _N_PHI
    np.fill_diagonal(acc, 0.0)
    return float(np.max(np.abs(acc)))
