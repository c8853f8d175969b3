"""Nonclassicality diagnostics for sector coherent states: Mandel Q,
quadrature dispersions and central fourth moments, squeezing ratios, and the
sector uncertainty bound.

Quadratures come in two flavours sharing the same number operator: "dressed"
builds x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2) from the deformed ladder
pair, "real" uses the canonical pair (b, b†).  Squeezing ratios compare a
state's central moments to those of the z = 0 state of the same sector (the
number state |mu>, which plays the role of the vacuum there).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import AlgebraParams, FockRep, build_fock_rep
from .coherent import CoherentState, build_cs

__all__ = [
    "QuadratureMoments",
    "StatsReport",
    "mandel_q",
    "quadrature_stats",
    "uncertainty_rhs",
    "squeeze_ratios",
    "stats_report",
]


@dataclass(frozen=True)
class QuadratureMoments:
    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    central_x4: float
    central_p4: float


@dataclass(frozen=True)
class StatsReport:
    mean_n: float
    var_n: float
    mandel_q: Optional[float]
    dressed: QuadratureMoments
    real: QuadratureMoments
    ratios_dressed: Tuple[float, float, float, float]
    ratios_real: Tuple[float, float, float, float]
    uncertainty_rhs: float


def _number_moments(cs: CoherentState):
    """<N> and <(ΔN)^2>."""
    p = np.abs(cs.coeffs) ** 2
    n = np.arange(p.size)
    mean = float(np.dot(p, n))
    return mean, float(np.dot(p, n * n)) - mean * mean


def mandel_q(cs: CoherentState) -> Optional[float]:
    """Q = (<(ΔN)^2> - <N>)/<N>; None when <N> < 1e-12 (Q undefined at the
    sector ground state), so sweeps can pass through z = 0 gracefully.

    Negative Q means sub-Poissonian number statistics (antibunching),
    positive super-Poissonian (bunching)."""
    mean, var = _number_moments(cs)
    if mean < 1e-12:
        return None
    return (var - mean) / mean


def _moments(v: np.ndarray, fock: FockRep, kind: str) -> QuadratureMoments:
    """quadrature_stats of the coefficient vector v, shifted by the amplitudes in fock."""

    def apply_x(u):
        return (fock.raise_(u, kind) + fock.lower(u, kind)) / np.sqrt(2.0)

    def apply_p(u):
        return 1j * (fock.raise_(u, kind) - fock.lower(u, kind)) / np.sqrt(2.0)

    out = []
    for op in (apply_x, apply_p):
        w1 = op(v)
        mean = float(np.real(np.vdot(v, w1)))
        w1 -= mean * v
        var = float(np.real(np.vdot(w1, w1)))
        w2 = op(w1) - mean * w1
        m4 = float(np.real(np.vdot(w2, w2)))
        out.append((mean, var, m4))
    (mx, vx, x4), (mp, vp, p4) = out
    return QuadratureMoments(mx, mp, vx, vp, x4, p4)


def quadrature_stats(cs: CoherentState, kind: str = "dressed") -> QuadratureMoments:
    """Means, dispersions, and central fourth moments of x and p.

    Fourth moments are plain central moments <(x - <x>)^4>, computed as the
    squared norm of (x - <x>)^2 |v> so they are nonnegative by construction."""
    return _moments(cs.coeffs, build_fock_rep(cs.params, cs.n_max), kind)


def uncertainty_rhs(params: AlgebraParams, mu: int) -> float:
    """Sector lower bound on var_x * var_p for dressed quadratures:
    (lambda^2/4) (beta_bar_{mu+1} - beta_bar_mu)^2, which simplifies to
    (1 + alpha_mu)^2 / 4.  Falls below the canonical 1/4 when alpha_mu < 0."""
    if not 0 <= mu < params.lam:
        raise ValueError(f"mu must be in 0..{params.lam - 1}, got {mu}")
    bb = params.beta_bar
    return (params.lam ** 2 / 4.0) * (bb[mu + 1] - bb[mu]) ** 2


def squeeze_ratios(cs: CoherentState, kind: str = "dressed"):
    """(X, P, Y, Q4): the state's var_x, var_p, central_x4, central_p4 divided
    by the same moments of the z = 0 state of its sector.  A ratio below 1 is
    squeezing (second order for X/P, fourth order for Y/Q4)."""
    fock = build_fock_rep(cs.params, cs.n_max)
    ref = build_cs(cs.params, cs.mu, 0.0, n_max=cs.n_max)
    s = _moments(cs.coeffs, fock, kind)
    s0 = _moments(ref.coeffs, fock, kind)
    return (
        s.var_x / s0.var_x,
        s.var_p / s0.var_p,
        s.central_x4 / s0.central_x4,
        s.central_p4 / s0.central_p4,
    )


def stats_report(cs: CoherentState) -> StatsReport:
    """Bundle every diagnostic for one state."""
    mean_n, var_n = _number_moments(cs)
    return StatsReport(
        mean_n=mean_n,
        var_n=var_n,
        mandel_q=mandel_q(cs),
        dressed=quadrature_stats(cs, "dressed"),
        real=quadrature_stats(cs, "real"),
        ratios_dressed=squeeze_ratios(cs, "dressed"),
        ratios_real=squeeze_ratios(cs, "real"),
        uncertainty_rhs=uncertainty_rhs(cs.params, cs.mu),
    )
