"""Coherent states of the graded oscillator: eigenvectors of the lowering
generator J_- = a^lambda / lambda with eigenvalue z, supported on a single
sector {|k lambda + mu>}.

The expansion coefficient on |k lambda + mu> is

    d_k = w^k / sqrt(k! prod_{nu=1}^{mu} (bb_nu + 1)_k prod_{nu'=mu+1}^{lambda-1} (bb_nu')_k),

with w = z / lambda^{(lambda-2)/2} and bb = beta_bar.  The squared norm of the
unnormalized vector is the hypergeometric series N_mu(|z|) = 0F_{lambda-1} of
the same denominator parameters at y = |z|^2 / lambda^{lambda-2}; states here
are normalized by dividing by sqrt(N_mu), so the truncated Euclidean norm
differs from 1 only by the reported tail bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, build_fock_rep
from .specfun import hyper0F, mittag_leffler

__all__ = [
    "TruncationError",
    "CoherentState",
    "build_cs",
    "normalization",
    "eigen_residual",
    "mittag_leffler_check",
]


class TruncationError(RuntimeError):
    """The coefficient series does not fit in the requested or maximum
    Fock-space truncation."""


@dataclass(frozen=True)
class CoherentState:
    params: AlgebraParams
    mu: int
    z: complex
    coeffs: np.ndarray
    norm_factor: float
    tail_bound: float

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1


def _log_denominator(params: AlgebraParams, mu: int, k: int) -> float:
    """log of k! prod_{nu<=mu}(bb_nu+1)_k prod_{nu'>mu}(bb_nu')_k, via lgamma."""
    bb = params.beta_bar
    val = math.lgamma(k + 1)
    for nu in range(1, mu + 1):
        val += math.lgamma(bb[nu] + 1 + k) - math.lgamma(bb[nu] + 1)
    for nup in range(mu + 1, params.lam):
        val += math.lgamma(bb[nup] + k) - math.lgamma(bb[nup])
    return val


def _denoms(params: AlgebraParams, mu: int) -> list:
    bb = params.beta_bar
    return [bb[nu] + 1.0 for nu in range(1, mu + 1)] + [
        float(bb[nup]) for nup in range(mu + 1, params.lam)
    ]


def normalization(params: AlgebraParams, mu: int, abs_z: float, tol: float = 1e-13) -> float:
    """Squared norm N_mu(|z|) of the unnormalized coefficient vector:
    0F_{lambda-1}(bb_1+1, ..., bb_mu+1, bb_{mu+1}, ..., bb_{lambda-1}; y)
    at y = |z|^2 / lambda^{lambda-2}."""
    if abs_z < 0:
        raise ValueError("abs_z must be nonnegative")
    y = abs_z * abs_z / params.lam ** (params.lam - 2)
    return hyper0F(_denoms(params, mu), y, tol=tol).value


def build_cs(
    params: AlgebraParams,
    mu: int,
    z: complex,
    n_max: int = None,
    max_levels: int = 512,
) -> CoherentState:
    """Construct the normalized coherent state |z; mu>.

    With n_max omitted the truncation is chosen adaptively: the smallest
    k lambda + mu at which the next coefficient magnitude drops below 1e-16
    of the accumulated norm (floored so stats/SGA pairings always have room),
    capped at max_levels.  An explicit n_max must leave the first dropped
    coefficient below 1e-13 of the running norm, else TruncationError.

    Coefficient phases follow arg(z): the |mu> coefficient is real positive
    and the k-th coefficient carries phase k*arg(z), accumulated by repeated
    multiplication rather than a complex logarithm.
    """
    lam = params.lam
    if not 0 <= mu < lam:
        raise ValueError(f"mu must be in 0..{lam - 1}, got {mu}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z}")
    floor = max(4 * lam, mu + 6)
    if z == 0:
        nm = floor if n_max is None else int(n_max)
        if nm < mu:
            raise TruncationError(f"n_max = {nm} cannot hold level {mu}")
        coeffs = np.zeros(nm + 1, dtype=complex)
        coeffs[mu] = 1.0
        return CoherentState(params, mu, z, coeffs, 1.0, 0.0)

    w_abs = abs(z) / lam ** ((lam - 2) / 2.0)
    ln_w = math.log(w_abs)

    def mag(k: int) -> float:
        return math.exp(k * ln_w - 0.5 * _log_denominator(params, mu, k))

    mags = []
    acc = 0.0
    if n_max is None:
        k = 0
        while True:
            m = mag(k)
            mags.append(m)
            acc += m * m
            nxt = mag(k + 1)
            if nxt < 1e-16 * math.sqrt(acc) and k * lam + mu >= floor:
                break
            k += 1
            if k * lam + mu > max_levels:
                raise TruncationError(
                    f"coherent-state series at |z| = {abs(z):.6g} needs more than "
                    f"max_levels = {max_levels} Fock levels"
                )
        nm = k * lam + mu
        k_last = k
    else:
        nm = int(n_max)
        k_last = (nm - mu) // lam
        if k_last < 0:
            raise TruncationError(f"n_max = {nm} cannot hold level {mu}")
        for k in range(k_last + 1):
            m = mag(k)
            mags.append(m)
            acc += m * m
        dropped = mag(k_last + 1)
        if dropped >= 1e-13 * math.sqrt(acc):
            raise TruncationError(
                f"n_max = {nm} is insufficient at |z| = {abs(z):.6g}: first "
                f"dropped coefficient is {dropped / math.sqrt(acc):.3e} of the norm"
            )

    norm_factor = normalization(params, mu, abs(z))
    # bound the dropped squared weight by a geometric tail on |d_k|^2
    m_drop = mag(k_last + 1)
    r = mag(k_last + 2) / m_drop if m_drop > 0 else 0.0
    if r >= 1.0:
        raise TruncationError(
            f"coefficient magnitudes still growing past n_max = {nm} at |z| = {abs(z):.6g}"
        )
    tail_bound = (m_drop * m_drop / (1.0 - r * r)) / norm_factor

    coeffs = np.zeros(nm + 1, dtype=complex)
    phase = z / abs(z)
    ph = 1.0 + 0.0j
    scale = 1.0 / math.sqrt(norm_factor)
    for k, m in enumerate(mags):
        coeffs[k * lam + mu] = m * scale * ph
        ph *= phase
    return CoherentState(params, mu, z, coeffs, norm_factor, tail_bound)


def eigen_residual(cs: CoherentState, sga) -> float:
    """Relative eigenvalue defect ||J_- v - z v|| / max(|z|, 1), ignoring the
    top lambda Fock levels, whose J_- image lies beyond the truncation."""
    if sga.fock.n_max != cs.n_max:
        raise ValueError("coherent state and SGA representation use different truncations")
    lam = cs.params.lam
    w = cs.coeffs
    for _ in range(lam):
        w = sga.fock.lower(w)
    w = w / lam - cs.z * cs.coeffs
    w[cs.n_max - lam + 1:] = 0.0
    return float(np.linalg.norm(w) / max(abs(cs.z), 1.0))


def mittag_leffler_check(params: AlgebraParams, mu: int, z: complex, n_max: int = None) -> float:
    """For the undeformed case (alpha = 0) rebuild the state as

        sqrt(mu! / E_{lambda,mu+1}(lambda^2 |z|^2)) * E_{lambda,mu+1}(lambda^2 z J_+) |mu>,

    applying J_+ term by term to |mu>, and return the maximum absolute
    coefficient deviation from build_cs."""
    if not np.allclose(params.alpha, 0.0, atol=1e-14):
        raise ValueError("the Mittag-Leffler form requires alpha = 0")
    lam = params.lam
    cs = build_cs(params, mu, z, n_max=n_max)
    fock = build_fock_rep(params, cs.n_max)
    z = complex(z)

    total = np.zeros(cs.n_max + 1, dtype=complex)
    term = np.zeros(cs.n_max + 1, dtype=complex)
    term[mu] = 1.0 / math.gamma(mu + 1)
    total += term
    k = 0
    while True:
        k += 1
        # T_k = lambda^2 z * (J_+ T_{k-1}) * Gamma(lam(k-1)+mu+1)/Gamma(lam k+mu+1)
        ratio = math.exp(math.lgamma(lam * (k - 1) + mu + 1) - math.lgamma(lam * k + mu + 1))
        for _ in range(lam):
            term = fock.raise_(term)
        term = (lam * z) * term * ratio
        total += term
        nrm = np.linalg.norm(term)
        if nrm <= 1e-18 * np.linalg.norm(total) or nrm == 0.0:
            break
        if k * lam + mu > cs.n_max:
            break
    e_val = mittag_leffler(lam, mu + 1, (lam * abs(z)) ** 2).value
    rebuilt = total * math.sqrt(math.gamma(mu + 1) / e_val)
    return float(np.max(np.abs(rebuilt - cs.coeffs)))
