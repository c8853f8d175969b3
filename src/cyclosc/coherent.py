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

Each state has one truncation rule, sized from |z| alone, so states differ
in length; stack_coeffs zero-pads them onto one basis where states are
compared.  The one boundary on a state is N_mu leaving the double range:
log N_mu > 709.78 raises TruncationError, from |z| = 355.2 for lambda = 2
and 6318 for lambda = 3 (alpha = 0, mu = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _LOG_MAX, AlgebraParams, _check_mu, ladder_products, structure_function

__all__ = [
    "TruncationError",
    "CoherentState",
    "build_cs",
    "stack_coeffs",
    "eigen_residual",
]


class TruncationError(RuntimeError):
    """The norm N_mu of the coefficient series overflows double precision."""


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


def build_cs(params: AlgebraParams, mu: int, z: complex) -> CoherentState:
    """Construct the normalized coherent state |z; mu>.

    The truncation is the smallest k lambda + mu at which the next coefficient
    magnitude drops below 1e-16 of the accumulated norm (floored at
    max(4 lambda, mu + 6)), scanned over a block past the alpha = 0 peak of
    |d_k| that doubles until the test fires.  A norm N_mu beyond the double
    range (log N_mu > 709.78) raises TruncationError, in bounded memory for
    every finite |z|; a z whose modulus overflows is a ValueError.  States of
    different truncations share a basis through stack_coeffs.

    Coefficient phases follow arg(z): the |mu> coefficient is real positive
    and the k-th coefficient carries phase k*arg(z), accumulated by repeated
    multiplication rather than a complex logarithm.
    """
    lam = params.lam
    mu = _check_mu(lam, mu)
    z = complex(z)
    if not math.isfinite(math.hypot(z.real, z.imag)):  # abs(z) raises OverflowError instead
        raise ValueError(f"|z| must be finite, got {z}")
    floor = max(4 * lam, mu + 6)
    if z == 0:
        coeffs = np.zeros(floor + 1, dtype=complex)
        coeffs[mu] = 1.0
        return CoherentState(params, mu, z, coeffs, 1.0, 0.0)

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

    log_norm = float(log_acc[k_last + 2])
    if log_norm > _LOG_MAX:
        raise TruncationError(
            f"normalization N_{mu} >= exp({log_norm:.6g}) at |z| = {abs(z):.6g} "
            "overflows double precision"
        )
    # bound the dropped squared weight by a geometric tail on |d_k|^2
    # r < 1: as F(n + lambda) = F(n) + lambda, term ratios fall with k, and the stop term is past the peak
    r = math.exp(log_mag[k_last + 2] - log_mag[k_last + 1])
    norm_factor = math.exp(log_norm)
    tail_bound = math.exp(2.0 * log_mag[k_last + 1] - math.log1p(-r * r) - log_norm)

    phases = np.full(k_last + 1, z / abs(z))
    phases[0] = 1.0
    coeffs = np.zeros(k_last * lam + mu + 1, dtype=complex)
    coeffs[mu::lam] = np.exp(log_mag[:k_last + 1] - 0.5 * log_norm) * np.cumprod(phases)
    return CoherentState(params, mu, z, coeffs, norm_factor, tail_bound)


def stack_coeffs(states) -> np.ndarray:
    """The states' coefficient vectors as the rows of one array, each
    zero-padded to the longest: states of different truncations on one basis."""
    out = np.zeros((len(states), max(cs.coeffs.size for cs in states)), dtype=complex)
    for row, cs in zip(out, states):
        row[:cs.coeffs.size] = cs.coeffs
    return out


def eigen_residual(cs: CoherentState) -> float:
    """||J_- v - z v|| / max(|z|, 1) without the top sector level, whose J_- image
    lies past the truncation: the sector slice, up to its last nonzero entry, times
    sqrt(J_+ J_-), whose overflow ladder_products names (from lambda = 136 at alpha = 0, |z| = 1)."""
    lam, mu = cs.params.lam, cs.mu
    d = cs.coeffs[mu::lam]
    top = int(np.flatnonzero(d)[-1])
    amp = np.sqrt(ladder_products(cs.params, top * lam + mu)[mu + lam::lam])
    w = -cs.z * d[:-1]
    w[:top] += amp * d[1:top + 1]
    return float(np.linalg.norm(w) / max(abs(cs.z), 1.0))
