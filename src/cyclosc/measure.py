"""Resolution-of-unity verification through moment conditions.

With dρ_mu = h_mu(y) N_mu(|z|) d^2z and y = |z|^2 / lambda^{lambda-2},
sum_mu ∫ dρ_mu |z;mu><z;mu| = I reduces (after the angular integration kills
every off-diagonal term) to a Stieltjes moment problem for the radial weight:

    ∫_0^∞ h_mu(y) y^k dy = D_k^2 / (pi lambda^{lambda-2}),

where D_k^2 = prod_{mu < j <= k lambda + mu} F(j)/lambda is the squared
coefficient denominator of the states themselves: the same sector-ladder
product whose logarithms build_cs sums.  Closed-form weights
exist for lambda = 2 (a Bessel-K density, any admissible alpha) and for
alpha = 0 at any lambda (a stretched-exponential photon density); both are
verified here against the targets above by a double-exponential rule in
u = y^{1/lambda}, one vectorised weight call per integral on nodes formed once per
lambda.  The Bessel-K weight's K_nu is specfun.bessel_k, numpy only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraParams, _check_lam, _check_mu, structure_function
from .specfun import bessel_k
# build_cs stays bound here for bench/test_bench.py, whose tracer test reads
# measure.build_cs among the bindings it wraps
from .coherent import build_cs, build_states, stack_coeffs

__all__ = [
    "MomentTarget",
    "moment_target",
    "weight_lambda2",
    "weight_photon",
    "moment_check",
    "unity_reconstruction",
    "angular_offdiagonal",
]

_QUAD_TOL = 1e-10  # moment_check's relative tolerance: the budget of its error and decay tests
_N_PHI = 64  # phases in angular_offdiagonal's average
# Double-exponential nodes u = exp(t - e^{-t}), t = j/32 on [-12, 4.625], and log((du/dt) / u / 32)
_T = np.arange(-384, 149) / 32.0
_LOG_U = _T - np.exp(-_T)
_LOG_JAC = np.log((1.0 + np.exp(-_T)) / 32.0)


def _undeformed(params: AlgebraParams) -> bool:
    """alpha = 0 to 1e-14 in every entry: where the photon weight and the Mittag-Leffler
    form of the states hold (verify's mittag_leffler_check and cs suite ask the same)."""
    return bool(np.max(np.abs(params.alpha)) <= 1e-14)


@dataclass(frozen=True)
class MomentTarget:
    mu: int
    k: int
    target: float
    lam: int


def moment_target(params: AlgebraParams, mu: int, k: int) -> MomentTarget:
    """k-th moment the sector-mu weight must reproduce:
    D_k^2 / (pi lambda^{lambda-2}) with D_k^2 = prod_{mu < j <= k lambda + mu} F(j)/lambda;
    equals 1/(pi lambda^{lambda-2}) at k = 0.  Raises RuntimeError if D_k^2
    or pi lambda^{lambda-2} (from lambda = 145) overflows double precision."""
    lam = params.lam
    mu = _check_mu(lam, mu)
    if not 0 <= k < math.inf or int(k) != k:
        raise ValueError(f"k must be a nonnegative integer, got {k}")
    k = int(k)
    with np.errstate(over="ignore"):  # an overflow is named below
        d2 = float((structure_function(params, np.arange(mu + 1, k * lam + mu + 1)) / lam).prod())
        norm = math.pi * np.float64(lam) ** (lam - 2)
    for name, v in (("D_k^2", d2), ("pi lambda^(lambda-2)", norm)):
        if v == math.inf:
            raise RuntimeError(f"{name} overflows double precision at lambda = {lam}, mu = {mu}, k = {k}")
    return MomentTarget(mu, k, d2 / float(norm), lam)


def weight_lambda2(params: AlgebraParams, mu: int, y):
    """Radial weight for lambda = 2:

        h_mu(y) = 2 y^{(bb_1 - 1 + mu)/2} K_{bb_1 - 1 + mu}(2 sqrt(y))
                  / (pi Gamma(bb_1 + mu)),

    i.e. the two-gamma Mellin density with exponent pair (0, bb_1 - 1 + mu).
    Positive for all y > 0; y is a float or an array.  Raises RuntimeError where
    pi Gamma(bb_1 + mu) overflows double precision, from bb_1 + mu = 171.40
    (alpha_0 = 339.8 at mu = 1, 341.8 at mu = 0)."""
    if params.lam != 2:
        raise ValueError("weight_lambda2 requires lambda = 2")
    mu = _check_mu(2, mu)
    y = np.asarray(y, dtype=float)
    if y.size and not (y.min() > 0 and y.max() < math.inf):  # min and max are NaN where any y is
        raise ValueError("y must be finite and positive")
    b = params.beta_bar[1] + mu
    try:
        norm = math.pi * math.gamma(b)
    except OverflowError:
        norm = math.inf
    if norm == math.inf:
        raise RuntimeError(f"pi Gamma(beta_bar_1 + mu) = pi Gamma({b:.6g}) overflows double precision "
                           f"at lambda = 2, mu = {mu}")
    a2 = params.beta_bar[1] - 1.0 + mu
    kv = bessel_k(a2, 2.0 * np.sqrt(y))
    root = y ** (a2 / 4.0)  # y^{a2/2} K as root (root K): y^{a2/2} alone overflows from a2 = 153 on the nodes
    over = np.isinf(kv)  # only for a2 > 2 near y = 0, where y^{a2/2} K is Gamma(a2)/2 within y/(a2-1)
    return (2.0 / norm) * np.where(over, math.gamma(max(a2, 1.0)) / 2.0, root * (root * np.where(over, 0.0, kv)))


def weight_photon(lam: int, mu: int, y):
    """Radial weight for the undeformed case (alpha = 0), any lambda:

        h_mu(y) = lambda^{mu-lambda+2} (pi mu!)^{-1} y^{(mu-lambda+1)/lambda}
                  exp(-lambda y^{1/lambda}).

    The y -> 0 singularity is integrable; the u = y^{1/lambda} substitution
    used by moment_check removes it exactly.  y is a float or an array."""
    lam = _check_lam(lam)
    mu = _check_mu(lam, mu)
    if not np.all((y > 0) & (y < math.inf)):
        raise ValueError("y must be finite and positive")
    return (
        lam ** (mu - lam + 2)
        / (math.pi * math.gamma(mu + 1))
        * y ** ((mu - lam + 1) / lam)
        * np.exp(-lam * y ** (1.0 / lam))
    )


@functools.lru_cache(maxsize=None)
def _nodes(lam: int):
    """The nodes of _moment_integrals at one lambda, formed once: y = u^lam on the nodes
    from the first whose y is a normal double (>= 1e-300), log u there, log u on the
    nodes below relative to the first, and the step in log u between the first two."""
    lo = int(np.searchsorted(_LOG_U, math.log(1e-300) / lam))
    y = np.exp(lam * _LOG_U[lo:])
    y.flags.writeable = False  # every weight call at this lambda reads it
    return y, _LOG_U[lo:], _LOG_U[:lo] - _LOG_U[lo], float(_LOG_U[lo + 1] - _LOG_U[lo])


def _moment_integrals(weight, lam: int, ks) -> list:
    """∫_0^∞ weight(y) y^k dy for each k in ks from one weight call on the
    nodes whose y = u^lam is a normal double (>= 1e-300); see moment_check.
    Terms are summed from their logarithms, so y^{k+1} cannot overflow."""
    y, log_u, below, step = _nodes(lam)
    h = weight(y)
    with np.errstate(divide="ignore", invalid="ignore"):  # h = 0 gives -inf, h < 0 NaN
        log_h = np.log(h)
    h0, h1 = float(h[0]), float(h[1])
    values = []
    for k in ks:
        if k > 12:
            raise ValueError("moment order k must be <= 12")
        log_g = log_h + lam * (k + 1) * log_u  # log(y^{k+1} h)
        if h0 > 0 and h1 > 0:  # below, y^{k+1} h goes on as the power law u^p through nodes 0, 1
            p = lam * (k + 1) + math.log(h1 / h0) / step
            if not p > 0:
                raise RuntimeError("moment integrand is not integrable at y = 0")
            log_g = np.concatenate([log_g[0] + p * below, log_g])
        log_t = log_g + _LOG_JAC[-log_g.size:]
        top = log_t.max()
        if not math.isfinite(top):
            raise RuntimeError("moment integrand is not finite on the quadrature nodes")
        terms = np.exp(log_t - top)  # y^{k+1} h (du/dt) / u / 32, over e^top
        total = terms.sum()
        # halving the step squares a double-exponential rule's error, so the squared relative
        # difference from the step-1/16 rule (even j, counted back from j = 148) estimates it
        if (total - 2.0 * terms[::-2].sum()) ** 2 > 0.1 * _QUAD_TOL * total**2 or (
                terms[-1] > 0.01 * _QUAD_TOL * total):
            raise RuntimeError("moment quadrature missed its error or decay budget")
        values.append(lam * float(total) * math.exp(top))
    return values


def moment_check(weight, mu: int, k: int, target: MomentTarget):
    """∫_0^∞ weight(y) y^k dy against target.target at one relative tolerance,
    _QUAD_TOL = 1e-10; returns (value, rel_error).  (mu, k) must be the target's.

    In u = y^{1/lambda}, which removes the photon weight's endpoint singularity,
    the double-exponential rule u = exp(t - e^{-t}) on a fixed step in t
    (Takahasi & Mori 1974) calls weight once, on the node array; below
    y = 1e-300 the integrand goes on as a power law.  Raises RuntimeError if a
    term is not finite, if the error estimated from the rule at twice the step
    exceeds 0.1 * _QUAD_TOL, or if the integrand has not decayed at the last node.
    """
    if (mu, k) != (target.mu, target.k):
        raise ValueError(f"moment (mu, k) = ({mu}, {k}) does not match the target's "
                         f"({target.mu}, {target.k})")
    value = _moment_integrals(weight, target.lam, [k])[0]
    return value, abs(value - target.target) / target.target


def unity_reconstruction(params: AlgebraParams, weight: str, k_top: int) -> np.ndarray:
    """Diagonal of sum_mu ∫ dρ_mu |z;mu><z;mu| on levels n = 0..k_top*lambda,
    entry by entry from the moment integrals, one weight call per sector
    (off-diagonals vanish by the angular integration).  All entries equal 1
    when the weight resolves unity.

    weight: "lambda2" (requires lambda = 2) or "photon" (requires alpha = 0).
    """
    lam = params.lam
    if weight == "lambda2":
        if lam != 2:
            raise ValueError("weight 'lambda2' requires lambda = 2")
        h = lambda mu: (lambda y: weight_lambda2(params, mu, y))
    elif weight == "photon":
        if not _undeformed(params):
            raise ValueError("weight 'photon' requires alpha = 0")
        h = lambda mu: (lambda y: weight_photon(lam, mu, y))
    else:
        raise ValueError(f"unknown weight {weight!r}")
    if not 0 <= k_top < math.inf or int(k_top) != k_top:
        raise ValueError(f"k_top must be a nonnegative integer, got {k_top}")
    entries = np.zeros(int(k_top) * lam + 1)
    for mu in range(min(lam, entries.size)):
        values = _moment_integrals(h(mu), lam, range(entries[mu::lam].size))
        entries[mu::lam] = [v / moment_target(params, mu, k).target for k, v in enumerate(values)]
    return entries


def angular_offdiagonal(params: AlgebraParams, mu: int, r: float) -> float:
    """Largest off-diagonal magnitude of the phase average
    (1/_N_PHI) sum_j |r e^{i phi_j}; mu><...| over phi_j = 2 pi j / _N_PHI.

    The k-th coefficient carries phase k*phi, so every off-diagonal element
    averages to zero; this spot-checks the angular part of the unity integral.
    The phased states are built, in one build_states call, not derived from
    one, so the check tests the builder's phase convention; the average is one
    product of their zero-padded stack.
    """
    angles = (2.0 * math.pi * j / _N_PHI for j in range(_N_PHI))
    v = stack_coeffs(build_states(params, mu, [r * complex(math.cos(phi), math.sin(phi)) for phi in angles]))
    acc = v.T @ v.conj() / _N_PHI
    np.fill_diagonal(acc, 0.0)
    return float(np.max(np.abs(acc)))
