"""Coherent states of the graded oscillator: eigenvectors of the lowering
generator J_- = a^lambda / lambda with eigenvalue z, supported on a single
sector {|k lambda + mu>}.

The expansion coefficient on |n>, n = k lambda + mu, is

    d_k = (lambda z)^k / sqrt(F(mu+1) F(mu+2) ... F(n))
        = w^k / sqrt(k! prod_{nu=1}^{mu} (bb_nu + 1)_k prod_{nu'=mu+1}^{lambda-1} (bb_nu')_k),

with w = z / lambda^{(lambda-2)/2} and bb = beta_bar.  Along a line of labels
in one sector the log|d_k| are one array: an arithmetic progression of
levels times log(lambda |z|), less one cumulative sum of log F.  So
build_states builds the states of a sequence of labels in one pass, with one
cumulative sum of log F, every log|d_k| as one (labels x k) outer product and
each running squared norm as one logaddexp accumulation along its row, so
neither overflows; the phases are powers of z/|z| by repeated
multiplication.  build_cs is its one-label case.  The squared norm of the
unnormalized vector is the hypergeometric series N_mu(|z|) = 0F_{lambda-1}
of the same denominator parameters at y = |z|^2 / lambda^{lambda-2}
(Klauder, Penson and Sixdeniers, PRA 64, 013817 (2001)), returned as
norm_factor; verify sums that series term by term as the independent
reference.  States are normalized by dividing by sqrt(N_mu), so the
truncated Euclidean norm differs from 1 only by the reported tail bound.

Each state has one truncation rule, sized from its own |z| alone whatever
block it shares, so states differ in length; stack_coeffs zero-pads them
onto one basis where states are compared.  The one boundary on a state is
N_mu leaving the double range: log N_mu > 709.78 raises TruncationError,
from |z| = 355.2 for lambda = 2 and 6318 for lambda = 3 (alpha = 0, mu = 0).
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
    "build_states",
    "stack_coeffs",
    "eigen_residual",
]


class TruncationError(RuntimeError):
    """The norm N_mu of the coefficient series overflows double precision."""


# Terms still rising at k = K give log N_mu >= K log K - log K! > _LOG_MAX from K = 714
# (each earlier term ratio is at least K/j times the K-th): no first block need be longer.
_K_RISE = 714
_LOG_EPS = math.log(1e-16)  # the stop test: a term below 1e-16 of the running norm


@dataclass(frozen=True)
class CoherentState:
    params: AlgebraParams
    mu: int
    z: complex
    coeffs: np.ndarray
    norm_factor: float
    tail_bound: float

    def __init__(self, params, mu, z, coeffs, norm_factor, tail_bound):
        # one dict update: the generated frozen __init__ sets each field through
        # object.__setattr__, which is half the cost of building a z = 0 state
        vars(self).update(params=params, mu=mu, z=z, coeffs=coeffs, norm_factor=norm_factor,
                          tail_bound=tail_bound)

    @property
    def n_max(self) -> int:
        return self.coeffs.size - 1


def build_cs(params: AlgebraParams, mu: int, z: complex) -> CoherentState:
    """Construct the normalized coherent state |z; mu>: build_states of one label.

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
    return build_states(params, mu, (z,))[0]


def build_states(params: AlgebraParams, mu: int, zs) -> list:
    """The states |z; mu> for every label in zs, in order, each bit for bit
    the state build_cs gives.  A label whose modulus overflows is a ValueError
    before any state is built; then the first label whose norm overflows
    raises build_cs's TruncationError.

    The nonzero labels share one block: one cumulative sum of log F, sized
    from the largest |z| and doubled until every row's stop test fires or its
    sum overflows; their log|d_k| as one (labels x k) outer product and their
    running squared norms as one logaddexp accumulation along each row.  The
    sums run in sequence, so a row's entries, and with them its truncation,
    do not depend on the block's length or on the other labels.
    """
    lam = params.lam
    mu = _check_mu(lam, mu)
    zs = [complex(z) for z in zs]
    for z in zs:
        if not math.isfinite(math.hypot(z.real, z.imag)):  # abs(z) raises OverflowError instead
            raise ValueError(f"|z| must be finite, got {z}")
    floor = max(4 * lam, mu + 6)
    if any(zs):
        nonzero = iter(_nonzero_states(params, mu, [z for z in zs if z], -((mu - floor) // lam)))
    states = []
    for z in zs:
        if z:
            states.append(next(nonzero))
        else:
            coeffs = np.zeros(floor + 1, dtype=complex)
            coeffs[mu] = 1.0
            states.append(CoherentState(params, mu, z, coeffs, 1.0, 0.0))
    return states


def _nonzero_states(params: AlgebraParams, mu: int, zs: list, k_lo: int) -> list:
    """The state of each nonzero label, from
    log|d_k| = k log(lambda |z|) - (1/2) sum_{mu < j <= k lambda + mu} log F(j);
    k_lo is the first k with k lambda + mu at or past the truncation floor."""
    lam = params.lam
    abs_z = [abs(z) for z in zs]
    # k* = (|z|^2 / lambda^(lambda-2))^(1/lambda), the alpha = 0 peak of |d_k|: one block past
    # it fits sampled states (lambda <= 12, |z| <= 3000); doubling from k_lo runs log2(k*) blocks
    log_k_star = (2.0 * math.log(max(abs_z)) - (lam - 2) * math.log(lam)) / lam
    k_star = math.exp(min(log_k_star, math.log(_K_RISE)))
    k_top = max(int(k_star + math.sqrt(150.0 * k_star / lam) + 40.0 / lam), k_lo) + 2
    log_w = np.array([[math.log(lam) + math.log(a)] for a in abs_z])
    while True:
        # F(mu) is set to 1 so that the running sum starts from log 1 = 0 at k = 0
        f = structure_function(params, np.arange(mu, k_top * lam + mu + 1))
        f[0] = 1.0
        log_f = np.add.accumulate(np.log(f))
        log_mag = np.arange(k_top + 1) * log_w - 0.5 * log_f[::lam]
        log_acc = np.logaddexp.accumulate(2.0 * log_mag, axis=1)
        small = log_mag[:, k_lo + 1:k_top] < _LOG_EPS + 0.5 * log_acc[:, k_lo:k_top - 1]
        stops = small.argmax(axis=1).tolist()
        if all(small[j, s] or log_acc[j, -1] > _LOG_MAX for j, s in enumerate(stops)):
            break
        k_top *= 2
    states = []
    for j, (z, a, s) in enumerate(zip(zs, abs_z, stops)):
        # with no stop the row's whole sum has overflowed: the test below names it
        k_last = k_lo + s if small[j, s] else k_top - 2
        row = log_mag[j]
        log_norm = float(log_acc[j, k_last + 2])
        if log_norm > _LOG_MAX:
            if len(zs) > 1:  # the text reports the sum where this label's own doubling stopped
                _nonzero_states(params, mu, [z], k_lo)
            raise TruncationError(
                f"normalization N_{mu} >= exp({log_norm:.6g}) at |z| = {a:.6g} "
                "overflows double precision"
            )
        # bound the dropped squared weight by a geometric tail on |d_k|^2
        # r < 1: as F(n + lambda) = F(n) + lambda, term ratios fall with k, and the stop term is past the peak
        r = math.exp(row[k_last + 2] - row[k_last + 1])
        tail_bound = math.exp(2.0 * row[k_last + 1] - math.log1p(-r * r) - log_norm)
        phases = np.empty(k_last + 1, dtype=complex)
        phases.fill(z / a)
        phases[0] = 1.0
        coeffs = np.zeros(k_last * lam + mu + 1, dtype=complex)
        coeffs[mu::lam] = np.exp(row[:k_last + 1] - 0.5 * log_norm) * np.multiply.accumulate(phases)
        states.append(CoherentState(params, mu, z, coeffs, math.exp(log_norm), tail_bound))
    return states


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
