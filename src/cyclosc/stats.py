"""Nonclassicality diagnostics for sector coherent states: Mandel Q,
quadrature dispersions and central fourth moments, squeezing ratios, and the
sector uncertainty bound.

Quadratures come in two flavours sharing the same number operator: "dressed"
builds x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2) from the deformed ladder
pair, "real" uses the canonical pair (b, b†).  Squeezing ratios compare a
state's central moments to those of the z = 0 state of the same sector (the
number state |mu>, which plays the role of the vacuum there).

All quadrature moments come from one kernel, `_moments`, which takes a stack
of coefficient vectors and the amplitude rows of algebra.build_fock_rep, and
applies x and p together with `_quadratures`, a two-row shift that `verify`
checks against dense matrices; means, dispersions and fourth moments are
`vecdot` reductions over the last axis.  A squeezing ratio is one pass over
the stack [state, vacuum].  On vectors of ~50 levels numpy's per-call
overhead, not the arithmetic, sets the cost, so the kernel makes few calls
over many rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .algebra import AlgebraParams, _check_mu, build_fock_rep
from .coherent import CoherentState, build_cs, stack_coeffs

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
    """Q = (<(ΔN)^2> - <N>)/<N>; None when <N> < 1e-12, where Q is undefined
    (the sector-0 ground state z = 0 and its immediate neighbourhood).  The
    caller decides what None means: `cyclosc sweep` refuses it as bad input.

    Negative Q means sub-Poissonian number statistics (antibunching),
    positive super-Poissonian (bunching)."""
    mean, var = _number_moments(cs)
    if mean < 1e-12:
        return None
    return (var - mean) / mean


# coefficients of a† in x and p; those of a are their conjugates
_STENCIL = np.array([[1.0], [1j]]) * np.sqrt(0.5)
_KINDS = ("dressed", "real")  # the rows of algebra.build_fock_rep's amplitude array


def _kind_row(kind: str) -> int:
    """The row of `kind` in _KINDS; ValueError for any other kind."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be 'dressed' or 'real', got {kind!r}")
    return _KINDS.index(kind)


def _stencil(ladder: np.ndarray, kind: str):
    """(up, down): the a† coefficients of x (row 0) and p (row 1) on levels
    1..n_max, _STENCIL times the `kind` row of the build_fock_rep array
    (sqrt(F(n)) for 'dressed', sqrt(n) for 'real'), and those of a."""
    up = _STENCIL * ladder[_kind_row(kind), 1:]
    return up, up.conj()


def _quadratures(u: np.ndarray, stencil) -> np.ndarray:
    """x u on row 0 and p u on row 1, for vectors u of shape (..., 1 or 2,
    levels) and (up, down) from _stencil: a† adds up[:, n-1] u[n-1] to level
    n, a adds down[:, n] u[n+1].  The shift acts on the truncated space, so
    raising |n_max> drops out."""
    up, down = stencil
    w = np.zeros(u.shape[:-2] + (2, u.shape[-1]), complex)
    np.multiply(up, u[..., :-1], out=w[..., 1:])
    w[..., :-1] += down * u[..., 1:]
    return w


def _moments(v: np.ndarray, ladder: np.ndarray, kind: str) -> np.ndarray:
    """Quadrature moments of every coefficient vector along v's last axis.

    Returns shape v.shape[:-1] + (3, 2): rows mean, dispersion and central
    fourth moment, columns x and p, so one vector's block flattens in
    QuadratureMoments field order.  Each row is reduced on its own, so a
    stack gives bit for bit the results of its rows one at a time.  Fourth
    moments scale as F(n)^2; one beyond the double range (alpha_0 > 2.68e154
    at lambda = 2) raises RuntimeError rather than returning inf or nan."""
    stencil = _stencil(ladder, kind)
    v = v[..., None, :]
    m = np.empty(v.shape[:-2] + (3, 2), complex)
    with np.errstate(over="ignore", invalid="ignore"):
        w1 = _quadratures(v, stencil)
        np.vecdot(v, w1, out=m[..., 0, :])
        mean = m[..., 0, :, None].real
        w1 -= mean * v
        w2 = _quadratures(w1, stencil)
        w2 -= mean * w1
        np.vecdot(w1, w1, out=m[..., 1, :])
        np.vecdot(w2, w2, out=m[..., 2, :])
    if not np.isfinite(m).all():
        raise RuntimeError(f"{kind} quadrature moments overflow double precision "
                           f"(max F(n) = {ladder[0].max() ** 2:.6g})")
    return m.real


def _as_record(m: np.ndarray) -> QuadratureMoments:
    return QuadratureMoments(*m.ravel().tolist())


def _ratios(m: np.ndarray) -> Tuple[float, float, float, float]:
    """(X, P, Y, Q4) from the moments of a [state, vacuum] stack."""
    return tuple((m[0, 1:] / m[1, 1:]).ravel().tolist())


def _with_vacuum(cs: CoherentState):
    """The state's coefficients stacked over those of the z = 0 state of its
    sector, and the ladder amplitudes of the stack.  The z = 0 state is the
    shortest of its sector, so the stack keeps the state's truncation."""
    stack = stack_coeffs([cs, build_cs(cs.params, cs.mu, 0.0)])
    return build_fock_rep(cs.params, stack.shape[1] - 1), stack


def quadrature_stats(cs: CoherentState, kind: str = "dressed") -> QuadratureMoments:
    """Means, dispersions, and central fourth moments of x and p.

    Fourth moments are plain central moments <(x - <x>)^4>, computed as the
    squared norm of (x - <x>)^2 |v> so they are nonnegative by construction."""
    return _as_record(_moments(cs.coeffs, build_fock_rep(cs.params, cs.n_max), kind))


def uncertainty_rhs(params: AlgebraParams, mu: int) -> float:
    """Sector lower bound on var_x * var_p for dressed quadratures, (1 + alpha_mu)^2 / 4:
    the (lambda^2/4) (beta_bar_{mu+1} - beta_bar_mu)^2 of the dispersions, without that
    form's cancellation as alpha grows.  Falls below the canonical 1/4 when alpha_mu < 0.
    Raises RuntimeError where it overflows double precision (|1 + alpha_mu| > 2.68e154)."""
    mu = _check_mu(params.lam, mu)
    half = (1.0 + float(params.alpha[mu])) / 2.0
    if half * half == np.inf:
        raise RuntimeError(f"the uncertainty bound (1 + alpha_{mu})^2/4 overflows double precision")
    return half * half


def squeeze_ratios(cs: CoherentState, kind: str = "dressed"):
    """(X, P, Y, Q4): the state's var_x, var_p, central_x4, central_p4 divided
    by the same moments of the z = 0 state of its sector.  A ratio below 1 is
    squeezing (second order for X/P, fourth order for Y/Q4)."""
    ladder, stack = _with_vacuum(cs)
    return _ratios(_moments(stack, ladder, kind))


def stats_report(cs: CoherentState) -> StatsReport:
    """Bundle every diagnostic for one state: one [state, vacuum] moment
    pass per ladder pair."""
    mean_n, var_n = _number_moments(cs)
    ladder, stack = _with_vacuum(cs)
    dressed, real = (_moments(stack, ladder, kind) for kind in _KINDS)
    return StatsReport(
        mean_n=mean_n,
        var_n=var_n,
        mandel_q=mandel_q(cs),
        dressed=_as_record(dressed[0]),
        real=_as_record(real[0]),
        ratios_dressed=_ratios(dressed),
        ratios_real=_ratios(real),
        uncertainty_rhs=uncertainty_rhs(cs.params, cs.mu),
    )
