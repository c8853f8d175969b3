"""Coherent states of the graded oscillator: eigenvectors of the lowering
generator J_- = a^lambda / lambda with eigenvalue z, supported on a single
sector {|k lambda + mu>}.

The expansion coefficient on |n>, n = k lambda + mu, is

    d_k = (lambda z)^k / sqrt(F(mu+1) F(mu+2) ... F(n))
        = w^k / sqrt(k! prod_{nu=1}^{mu} (bb_nu + 1)_k prod_{nu'=mu+1}^{lambda-1} (bb_nu')_k),

with w = z / lambda^{(lambda-2)/2} and bb = beta_bar.  build_cs forms every
log|d_k| from one cumulative sum of log F, and the running squared norm from
one accumulated logaddexp, so neither overflows; the phases are powers of
z/|z| by repeated multiplication.  The squared norm of the unnormalized
vector is the hypergeometric series N_mu(|z|) = 0F_{lambda-1} of the same
denominator parameters at y = |z|^2 / lambda^{lambda-2} (Klauder, Penson and
Sixdeniers, PRA 64, 013817 (2001)), returned as norm_factor; verify sums that
series term by term as the independent reference.  States are normalized
by dividing by sqrt(N_mu), so the truncated Euclidean norm differs from 1
only by the reported tail bound.

The adaptive truncation is sized from |z| alone, so the one boundary on a
state is N_mu leaving the double range: log N_mu > 709.78 raises
TruncationError, from |z| = 355.2 for lambda = 2 and 6318 for lambda = 3
(alpha = 0, mu = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _LOG_MAX, AlgebraParams, build_fock_rep, structure_function
from .specfun import mittag_leffler

__all__ = [
    "TruncationError",
    "CoherentState",
    "build_cs",
    "eigen_residual",
    "mittag_leffler_check",
]


class TruncationError(RuntimeError):
    """The coefficient series does not fit in the requested Fock-space
    truncation, or its norm N_mu overflows double precision."""


# Terms still rising at k = K give log N_mu >= K log K - log K! > _LOG_MAX from K = 714
# (each earlier term ratio is at least K/j times the K-th): no first block need be longer.
_K_RISE = 714


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


def _log_terms(params: AlgebraParams, mu: int, abs_z: float, k_top: int):
    """log|d_k| and log sum_{j <= k} |d_j|^2 for k = 0..k_top, from
    log|d_k| = k log(lambda |z|) - (1/2) sum_{mu < j <= k lambda + mu} log F(j)."""
    lam = params.lam
    log_f = np.cumsum(np.log(structure_function(params, np.arange(mu + 1, k_top * lam + mu + 1))))
    log_mag = np.arange(k_top + 1) * (math.log(lam) + math.log(abs_z))
    log_mag[1:] -= 0.5 * log_f[lam - 1::lam]
    return log_mag, np.logaddexp.accumulate(2.0 * log_mag)


def build_cs(params: AlgebraParams, mu: int, z: complex, n_max: int = None) -> CoherentState:
    """Construct the normalized coherent state |z; mu>.

    With n_max omitted the truncation is chosen adaptively: the smallest
    k lambda + mu at which the next coefficient magnitude drops below 1e-16
    of the accumulated norm (floored at max(4 lambda, mu + 6)), scanned over a
    block past the alpha = 0 peak of |d_k| that doubles until the test fires.
    An explicit n_max must leave the first dropped coefficient below 1e-13 of
    the running norm, else TruncationError.  So does a norm N_mu beyond the
    double range (log N_mu > 709.78), in bounded memory for every finite |z|;
    a z whose modulus overflows is a ValueError.

    Coefficient phases follow arg(z): the |mu> coefficient is real positive
    and the k-th coefficient carries phase k*arg(z), accumulated by repeated
    multiplication rather than a complex logarithm.
    """
    lam = params.lam
    if not 0 <= mu < lam:
        raise ValueError(f"mu must be in 0..{lam - 1}, got {mu}")
    z = complex(z)
    if not math.isfinite(math.hypot(z.real, z.imag)):  # abs(z) raises OverflowError instead
        raise ValueError(f"|z| must be finite, got {z}")
    if n_max is not None and int(n_max) < mu:
        raise TruncationError(f"n_max = {int(n_max)} cannot hold level {mu}")
    floor = max(4 * lam, mu + 6)
    if z == 0:
        coeffs = np.zeros((floor if n_max is None else int(n_max)) + 1, dtype=complex)
        coeffs[mu] = 1.0
        return CoherentState(params, mu, z, coeffs, 1.0, 0.0)

    if n_max is None:
        k_lo = -((mu - floor) // lam)  # the first k with k lambda + mu >= floor
        # k* = (|z|^2 / lambda^(lambda-2))^(1/lambda), the alpha = 0 peak of |d_k|: one block past
        # it fits sampled states (lambda <= 12, |z| <= 3000); doubling from k_lo runs log2(k*) blocks
        log_k_star = (2.0 * math.log(abs(z)) - (lam - 2) * math.log(lam)) / lam
        k_star = math.exp(min(log_k_star, math.log(_K_RISE)))
        k_top = max(int(k_star + math.sqrt(150.0 * k_star / lam) + 40.0 / lam), k_lo) + 2
        while True:
            log_mag, log_acc = _log_terms(params, mu, abs(z), k_top)
            small = np.flatnonzero(log_mag[k_lo + 1:k_top] < math.log(1e-16) + 0.5 * log_acc[k_lo:k_top - 1])
            if small.size or log_acc[-1] > _LOG_MAX:
                break
            k_top *= 2
        # with no stop the block's whole sum has overflowed: the test below names it
        k_last = k_lo + int(small[0]) if small.size else k_top - 2
        nm = k_last * lam + mu
    else:
        nm = int(n_max)
        k_last = (nm - mu) // lam
        log_mag, log_acc = _log_terms(params, mu, abs(z), k_last + 2)
        dropped = log_mag[k_last + 1] - 0.5 * log_acc[k_last]
        if dropped >= math.log(1e-13):
            raise TruncationError(
                f"n_max = {nm} is insufficient at |z| = {abs(z):.6g}: first "
                f"dropped coefficient is {math.exp(dropped):.3e} of the norm"
            )

    log_norm = float(log_acc[k_last + 2])
    if log_norm > _LOG_MAX:
        raise TruncationError(
            f"normalization N_{mu} >= exp({log_norm:.6g}) at |z| = {abs(z):.6g} "
            "overflows double precision"
        )
    # bound the dropped squared weight by a geometric tail on |d_k|^2
    r = math.exp(log_mag[k_last + 2] - log_mag[k_last + 1])
    if r >= 1.0:
        raise TruncationError(
            f"coefficient magnitudes still growing past n_max = {nm} at |z| = {abs(z):.6g}"
        )
    norm_factor = math.exp(log_norm)
    tail_bound = math.exp(2.0 * log_mag[k_last + 1] - math.log1p(-r * r) - log_norm)

    phases = np.full(k_last + 1, z / abs(z))
    phases[0] = 1.0
    coeffs = np.zeros(nm + 1, dtype=complex)
    coeffs[mu::lam] = np.exp(log_mag[:k_last + 1] - 0.5 * log_norm) * np.cumprod(phases)
    return CoherentState(params, mu, z, coeffs, norm_factor, tail_bound)


def eigen_residual(cs: CoherentState) -> float:
    """Relative eigenvalue defect ||J_- v - z v|| / max(|z|, 1), ignoring the
    top lambda Fock levels, whose J_- image lies beyond the truncation."""
    lam = cs.params.lam
    fock = build_fock_rep(cs.params, cs.n_max)
    w = cs.coeffs
    for _ in range(lam):
        w = fock.lower(w)
    w = w / lam - cs.z * cs.coeffs
    w[cs.n_max - lam + 1:] = 0.0
    return float(np.linalg.norm(w) / max(abs(cs.z), 1.0))


def mittag_leffler_check(cs: CoherentState) -> float:
    """For the undeformed case (alpha = 0) rebuild the state as

        sqrt(mu! / E_{lambda,mu+1}(lambda^2 |z|^2)) * E_{lambda,mu+1}(lambda^2 z J_+) |mu>,

    applying J_+ term by term to |mu>, and return the maximum absolute
    coefficient deviation from cs."""
    params, mu, z = cs.params, cs.mu, cs.z
    if not np.allclose(params.alpha, 0.0, atol=1e-14):
        raise ValueError("the Mittag-Leffler form requires alpha = 0")
    lam = params.lam
    fock = build_fock_rep(params, cs.n_max)

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
    e_val = mittag_leffler(lam, mu + 1, (lam * abs(z)) ** 2)
    rebuilt = total * math.sqrt(math.gamma(mu + 1) / e_val)
    return float(np.max(np.abs(rebuilt - cs.coeffs)))
