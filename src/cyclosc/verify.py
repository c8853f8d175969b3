"""Invariant suites (commutators, sga, cs, measure) over built-in parameter
sets plus seeded random admissible draws, and the independent reference
route they compare production results with: dense truncated operator
matrices, their lambda-th powers and quadratic forms (production forms none),
and the coherent-state norm summed term by term.

Every check returns a CheckResult; the CLI turns the list into a report and
an exit code.  Representations are always rebuilt through the algebra module
namespace so test hooks that patch algebra.structure_function propagate.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import algebra
from .algebra import validate_params, random_admissible_alpha, energy
from .sga import (
    build_sga,
    extraction_n_max,
    extract_f_poly,
    extract_h_poly_and_casimir,
    closed_forms,
)
from .coherent import build_cs, eigen_residual, mittag_leffler_check
from .stats import QuadratureMoments, _number_moments, quadrature_stats, uncertainty_rhs
from .measure import (
    moment_target,
    weight_lambda2,
    weight_photon,
    moment_check,
    unity_reconstruction,
    angular_offdiagonal,
)

__all__ = [
    "CheckResult",
    "DenseOperators",
    "dense_operators",
    "dense_quadrature_moments",
    "dense_number_moments",
    "suite_commutators",
    "suite_sga",
    "suite_cs",
    "suite_measure",
    "run_suites",
    "SUITES",
]

_BUILTIN = {
    2: [[0.5, -0.5], [0.0, 0.0], [1.0, -1.0], [-0.5, 0.5]],
    3: [[0.0, 0.0, 0.0], [-0.5, 0.25, 0.25]],
    4: [[0.0] * 4, [0.3, -0.1, 0.2, -0.4]],
    5: [[0.0] * 5],
}
_RANDOM_DRAWS = 20  # seeded admissible draws per suite, after the built-in sets


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _param_sets(seed: int, lams=(2, 3, 4, 5)):
    rng = np.random.default_rng(seed)
    sets = [(lam, np.asarray(al, dtype=float)) for lam in lams for al in _BUILTIN.get(lam, [])]
    for i in range(_RANDOM_DRAWS):
        lam = lams[i % len(lams)]
        sets.append((lam, random_admissible_alpha(lam, rng)))
    return sets


def _tag(lam, alpha) -> str:
    return f"lam={lam} alpha={np.round(np.asarray(alpha), 6).tolist()}"


# ---------------------------------------------------------------------------
# dense reference route

DenseOperators = namedtuple("DenseOperators", "params n_max n_op a a_dag b b_dag projectors h0")


def dense_operators(params, n_max: int) -> DenseOperators:
    """Every operator matrix on |0> ... |n_max>, one F(n) at a time: the
    deformed (a) and canonical (b) ladder pairs, N, the P_mu and h0 = (a a† +
    a† a)/2.  Products with a a† are truncation artifacts in the last row."""
    dim = n_max + 1
    a = np.zeros((dim, dim))
    b = np.zeros((dim, dim))
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(algebra.structure_function(params, n))
        b[n - 1, n] = math.sqrt(n)
    a_dag = a.T.copy()
    b_dag = b.T.copy()
    n_op = np.diag(np.arange(dim, dtype=float))
    projectors = tuple(
        np.diag((np.arange(dim) % params.lam == mu).astype(float))
        for mu in range(params.lam)
    )
    h0 = 0.5 * (a @ a_dag + a_dag @ a)
    return DenseOperators(params, n_max, n_op, a, a_dag, b, b_dag, projectors, h0)


def dense_quadrature_moments(ops: DenseOperators, coeffs, kind="dressed") -> QuadratureMoments:
    """stats.quadrature_stats as quadratic forms <v|c^2|v>, <v|c^4|v> of c = x - <x>
    for the matrices x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2) (b for 'real')."""
    lo, hi = (ops.a, ops.a_dag) if kind == "dressed" else (ops.b, ops.b_dag)
    v = np.asarray(coeffs, dtype=complex)
    out = []
    for op in ((hi + lo) / np.sqrt(2.0), 1j * (hi - lo) / np.sqrt(2.0)):
        mean = float(np.real(np.vdot(v, op @ v)))
        c2 = np.linalg.matrix_power(op - mean * np.eye(v.size), 2)
        out.append((mean, float(np.real(np.vdot(v, c2 @ v))), float(np.real(np.vdot(v, c2 @ c2 @ v)))))
    (mx, vx, x4), (mp, vp, p4) = out
    return QuadratureMoments(mx, mp, vx, vp, x4, p4)


def dense_number_moments(ops: DenseOperators, coeffs):
    """<N>, <N^2> as <v|b† b|v> and ||b† b v||^2 of the canonical ladder matrices."""
    v = np.asarray(coeffs, dtype=complex)
    w = ops.b_dag @ (ops.b @ v)
    return float(np.real(np.vdot(v, w))), float(np.real(np.vdot(w, w)))


# ---------------------------------------------------------------------------
# suites

def suite_commutators(seed: int = 12345):
    results = []
    rng = np.random.default_rng(seed)
    for lam, alpha in _param_sets(seed):
        params = validate_params(lam, alpha)
        n_max = extraction_n_max(lam)
        fock = dense_operators(params, n_max)
        dim = n_max + 1
        tag = _tag(lam, alpha)

        ladder = algebra.build_fock_rep(params, n_max)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        dev = max(
            float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            for kind, lo, hi in (("dressed", fock.a, fock.a_dag), ("real", fock.b, fock.b_dag))
            for got, want in ((ladder.lower(v, kind), lo @ v), (ladder.raise_(v, kind), hi @ v))
        )
        results.append(CheckResult("ladder-dense-agreement", dev <= 1e-15, f"{tag} rel_dev={dev:.3e}"))

        comm = fock.a @ fock.a_dag - fock.a_dag @ fock.a
        target = np.eye(dim) + sum(
            params.alpha[mu] * fock.projectors[mu] for mu in range(lam)
        )
        dev = float(np.max(np.abs((comm - target)[:n_max, :n_max])))
        results.append(CheckResult("commutator-identity", dev < 1e-12, f"{tag} dev={dev:.3e}"))

        dev = max(
            float(np.max(np.abs(fock.a_dag @ fock.projectors[mu] - fock.projectors[(mu + 1) % lam] @ fock.a_dag)))
            for mu in range(lam)
        )
        results.append(CheckResult("projector-shift", dev == 0.0, f"{tag} dev={dev:.3e}"))

        dev = float(np.max(np.abs(sum(fock.projectors) - np.eye(dim))))
        for mu in range(lam):
            for nu in range(lam):
                expect = fock.projectors[mu] if mu == nu else 0.0
                dev = max(dev, float(np.max(np.abs(fock.projectors[mu] @ fock.projectors[nu] - expect))))
        results.append(CheckResult("projector-algebra", dev == 0.0, f"{tag} dev={dev:.3e}"))

        dev = float(np.max(np.abs((fock.n_op @ fock.a_dag - fock.a_dag @ fock.n_op - fock.a_dag)[:n_max, :n_max])))
        dev = max(dev, float(np.max(np.abs((fock.n_op @ fock.a - fock.a @ fock.n_op + fock.a)[:n_max, :n_max]))))
        results.append(CheckResult("number-commutators", dev < 1e-12, f"{tag} dev={dev:.3e}"))

        fs = [algebra.structure_function(params, n) for n in range(1, n_max + 1)]
        results.append(CheckResult("structure-positivity", min(fs) > 0.0, f"{tag} min F={min(fs):.3e}"))

        dev = 0.0
        for n in range(1, dim):
            dev = max(dev, abs(fock.a[n - 1, n] - fock.b[n - 1, n] * math.sqrt(algebra.structure_function(params, n) / n)))
        results.append(CheckResult("dressed-ladder-relation", dev < 1e-13, f"{tag} dev={dev:.3e}"))

        # x ** 2 goes through pow(), which can land one ulp away from the
        # product x * x that the matmul forms: allow a few ulp
        diag = np.diag(fock.a_dag @ fock.a)
        exact = np.array([fock.a[n - 1, n] ** 2 if n else 0.0 for n in range(dim)])
        dev = float(np.max(np.abs(diag - exact) / np.maximum(np.abs(exact), np.finfo(float).tiny)))
        results.append(
            CheckResult("number-diagonal", dev <= 4.0 * np.finfo(float).eps, f"{tag} dev={dev:.3e}")
        )

        dev = max(
            abs(fock.h0[n, n] - energy(params, n)) for n in range(n_max)
        )
        results.append(CheckResult("energy-diagonal", dev < 1e-12, f"{tag} dev={dev:.3e}"))

        if lam == 2:
            kmat = np.diag((-1.0) ** np.arange(dim))
            dev = float(np.max(np.abs(kmat @ fock.a_dag + fock.a_dag @ kmat)))
            results.append(CheckResult("parity-anticommutation", dev == 0.0, f"{tag} dev={dev:.3e}"))
            dev = float(np.max(np.abs((comm - np.eye(dim) - params.alpha[0] * kmat)[:n_max, :n_max])))
            results.append(CheckResult("parity-commutator-form", dev < 1e-12, f"{tag} dev={dev:.3e}"))
    return results


def suite_sga(seed: int = 12345):
    results = []
    for lam, alpha in _param_sets(seed):
        params = validate_params(lam, alpha)
        n_max = extraction_n_max(lam)
        fock = dense_operators(params, n_max)
        j_plus = np.linalg.matrix_power(fock.a_dag, lam) / lam
        j_minus = np.linalg.matrix_power(fock.a, lam) / lam
        j_zero = fock.h0 / lam
        sga = build_sga(params, n_max)
        tag = _tag(lam, alpha)

        dev = float(np.max(np.abs(
            (j_zero @ j_plus - j_plus @ j_zero - j_plus)[: n_max - lam, : n_max - lam]
        )))
        results.append(CheckResult("j0-ladder-commutator", dev < 1e-10, f"{tag} dev={dev:.3e}"))

        dev = max(float(np.linalg.norm(j_minus[:, mu])) for mu in range(lam))
        results.append(CheckResult("jminus-annihilates-sector-floor", dev == 0.0, f"{tag} dev={dev:.3e}"))

        try:
            s = extract_f_poly(sga)
            poly = extract_h_poly_and_casimir(sga, s)
        except (RuntimeError, ValueError) as exc:
            results.append(CheckResult("polynomial-extraction", False, f"{tag} {exc}"))
            continue
        results.append(CheckResult(
            "polynomial-extraction", True,
            f"{tag} f_resid={poly.f_residual.max():.3e} h_resid={poly.h_residual.max():.3e}",
        ))

        # Casimir constant across k = 0..3 per sector, from the matrices
        g = np.diag(j_minus @ j_plus)
        dev = 0.0
        for mu in range(lam):
            vals = []
            scale = 1.0
            for k in range(4):
                n = k * lam + mu
                j0 = energy(params, n) / lam
                vals.append(g[n] + float(np.polynomial.polynomial.polyval(j0, poly.t[mu])))
                scale = max(scale, abs(g[n]))
            dev = max(dev, float(np.std(vals)) / scale)
        results.append(CheckResult("casimir-constancy", dev < 1e-9, f"{tag} rel_sd={dev:.3e}"))

        dev = max(
            abs(j_zero[mu, mu] - (mu + params.gamma[mu] + 0.5) / lam) for mu in range(lam)
        )
        results.append(CheckResult("lowest-j0-eigenvalue", dev < 1e-12, f"{tag} dev={dev:.3e}"))

        cf = closed_forms(params)
        if cf is not None:
            dev = max(float(np.max(np.abs(got - want))) for got, want in zip((s, poly.t, poly.c), cf))
            results.append(CheckResult("closed-form-match", dev < 1e-9, f"{tag} dev={dev:.3e}"))

        if np.allclose(params.alpha, 0.0):
            jb_p = np.linalg.matrix_power(fock.b_dag, lam) / lam
            jb_m = np.linalg.matrix_power(fock.b, lam) / lam
            cb = np.diag(jb_p @ jb_m - jb_m @ jb_p)
            dev = 0.0
            for mu in range(lam):
                for k in range(2 * lam):
                    n = k * lam + mu
                    if n + lam > n_max:
                        break
                    j0 = energy(params, n) / lam
                    fit = float(np.polynomial.polynomial.polyval(j0, s[mu]))
                    dev = max(dev, abs(cb[n] - fit) / max(1.0, abs(cb[n])))
            results.append(CheckResult("undeformed-generator-consistency", dev < 1e-9, f"{tag} dev={dev:.3e}"))
    return results


def _brute_norm(params, mu, z):
    """N_mu(|z|) as partial sums of sum_k |d_k|^2 via the term-ratio
    recurrence of the 0F_{lambda-1} series (no lgamma, no log space): the
    series reference for build_cs's norm_factor."""
    lam = params.lam
    bb = params.beta_bar
    y = abs(z) ** 2 / lam ** (lam - 2)
    total = 1.0
    term = 1.0
    for k in range(2000):
        r = y / (k + 1.0)
        for nu in range(1, mu + 1):
            r /= bb[nu] + 1.0 + k
        for nup in range(mu + 1, lam):
            r /= bb[nup] + k
        term *= r
        total += term
        if term < 1e-17 * total:
            return total
    raise RuntimeError("norm series did not converge")


def _bessel_norm_lambda2(nu, r):
    """lambda = 2 norm Gamma(nu+1) r^{-nu} I_nu(2r) for r > 0, from scipy's
    exp-scaled ive (independent of the log-space sum behind build_cs);
    the e^{2r} factor joins the other powers in one exponent so nothing
    overflows before the product is formed."""
    from scipy.special import ive

    x = 2.0 * r
    return float(ive(nu, x)) * math.exp(x + math.lgamma(nu + 1.0) - nu * math.log(r))


def suite_cs(seed: int = 12345):
    results = []
    rng = np.random.default_rng(seed)
    sets = _param_sets(seed, lams=(2, 3, 4))
    for idx, (lam, alpha) in enumerate(sets):
        params = validate_params(lam, alpha)
        tag = _tag(lam, alpha)
        builtin = idx < sum(len(v) for l, v in _BUILTIN.items() if l in (2, 3, 4))
        mus = range(lam) if builtin else [int(rng.integers(0, lam))]
        zs = [0.5 + 0j, 2 + 1j, -3 + 0j] if builtin else [
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        ]
        for mu in mus:
            for z in zs:
                cs = build_cs(params, mu, z)
                dense = dense_operators(params, cs.n_max)
                ztag = f"{tag} mu={mu} z={z}"

                res = eigen_residual(cs)
                results.append(CheckResult("cs-eigen-residual", res < 1e-10, f"{ztag} resid={res:.3e}"))

                w = np.linalg.matrix_power(dense.a, lam) @ cs.coeffs - lam * z * cs.coeffs
                w[cs.n_max - lam + 1:] = 0.0
                res2 = float(np.linalg.norm(w) / lam / max(abs(z), 1.0))
                dev = abs(res2 - res)
                results.append(CheckResult("cs-eigen-equivalent-form", dev < 1e-12, f"{ztag} dev={dev:.3e}"))

                dev = abs(float(np.linalg.norm(cs.coeffs)) - 1.0)
                results.append(CheckResult("cs-unit-norm", dev <= 1e-12 + cs.tail_bound, f"{ztag} dev={dev:.3e}"))

                dev = abs(_brute_norm(params, mu, z) - cs.norm_factor) / cs.norm_factor
                results.append(CheckResult("cs-norm-crosscheck", dev < 1e-11, f"{ztag} rel={dev:.3e}"))

                ok = cs.coeffs[mu].imag == 0.0 and cs.coeffs[mu].real > 0
                k_probe = min(3, (cs.n_max - mu) // lam)
                expect = cmath.phase(z) * k_probe
                got = cmath.phase(cs.coeffs[k_probe * lam + mu])
                dev = abs(cmath.exp(1j * (got - expect)) - 1.0)
                ok = ok and dev < 1e-10
                results.append(CheckResult("cs-phase-convention", ok, f"{ztag} dev={dev:.3e}"))

                mm = quadrature_stats(cs, "dressed")
                ss = dense_quadrature_moments(dense, cs.coeffs, "dressed")
                dev = max(
                    abs(mm.mean_x - ss.mean_x), abs(mm.mean_p - ss.mean_p),
                    abs(mm.var_x - ss.var_x), abs(mm.var_p - ss.var_p),
                    abs(mm.central_x4 - ss.central_x4), abs(mm.central_p4 - ss.central_p4),
                )
                mean_n, var_n = _number_moments(cs)
                sn, sn2 = dense_number_moments(dense, cs.coeffs)
                dev = max(dev, abs(mean_n - sn), abs(var_n - (sn2 - sn * sn)))
                results.append(CheckResult("dual-route-expectations", dev < 1e-11, f"{ztag} dev={dev:.3e}"))

                prod = mm.var_x * mm.var_p
                rhs = uncertainty_rhs(params, mu)
                results.append(CheckResult("uncertainty-product", prod >= rhs - 1e-10, f"{ztag} prod={prod:.6g} rhs={rhs:.6g}"))

                if lam == 2:
                    ref = _bessel_norm_lambda2(params.beta_bar[1] - 1.0 + mu, abs(z))
                    dev = abs(ref - cs.norm_factor) / cs.norm_factor
                    results.append(CheckResult("cs-bessel-normalization", dev < 1e-10, f"{ztag} rel={dev:.3e}"))

                if np.allclose(params.alpha, 0.0):
                    dev = mittag_leffler_check(cs)
                    results.append(CheckResult("cs-mittag-leffler-form", dev < 1e-12, f"{ztag} dev={dev:.3e}"))

        # per-parameter (z-independent) checks
        cs0 = build_cs(params, 0, 0.8 + 0.3j)
        cs1 = build_cs(params, 1, 0.8 + 0.3j, n_max=cs0.n_max)
        dot = abs(complex(np.vdot(cs0.coeffs, cs1.coeffs)))
        results.append(CheckResult("cs-sector-orthogonality", dot == 0.0, f"{tag} overlap={dot:.3e}"))

        base = build_cs(params, 0, 1.1 - 0.6j)
        near = build_cs(params, 0, 1.1 - 0.6j + 1e-6, n_max=base.n_max)
        dev = float(np.linalg.norm(near.coeffs - base.coeffs))
        results.append(CheckResult("cs-label-continuity", dev < 1e-4, f"{tag} step={dev:.3e}"))

        mu = 0 if builtin else int(rng.integers(0, lam))
        z0 = build_cs(params, mu, 0.0)
        m0 = quadrature_stats(z0, "dressed")
        bb = params.beta_bar
        want = (lam / 2.0) * (bb[mu + 1] + bb[mu])
        dev = max(abs(m0.var_x - want), abs(m0.var_p - want))
        results.append(CheckResult("vacuum-dispersions", dev < 1e-12, f"{tag} mu={mu} dev={dev:.3e}"))
        rhs = uncertainty_rhs(params, mu)
        prod = m0.var_x * m0.var_p
        if mu == 0:
            ok = abs(prod - rhs) < 1e-12
        else:
            ok = prod - rhs >= 1e-6
        results.append(CheckResult("vacuum-uncertainty-floor", ok, f"{tag} mu={mu} prod={prod:.6g} rhs={rhs:.6g}"))
    return results


def suite_measure(seed: int = 12345):
    results = []
    for a0 in (-0.5, 0.0, 0.5, 2.0):
        params = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            worst = 0.0
            for k in range(7):
                tgt = moment_target(params, mu, k)
                _, rel = moment_check(lambda y: weight_lambda2(params, mu, y), mu, k, tgt)
                worst = max(worst, rel)
            results.append(CheckResult(
                "bessel-weight-moments", worst < 1e-8, f"alpha0={a0} mu={mu} worst_rel={worst:.3e}"
            ))
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_DRAWS):
        alpha = random_admissible_alpha(2, rng)
        params = validate_params(2, alpha)
        worst = 0.0
        for mu in (0, 1):
            for k in (0, 2, 5):
                tgt = moment_target(params, mu, k)
                _, rel = moment_check(lambda y: weight_lambda2(params, mu, y), mu, k, tgt)
                worst = max(worst, rel)
        results.append(CheckResult(
            "bessel-weight-moments-random", worst < 1e-8, f"{_tag(2, alpha)} worst_rel={worst:.3e}"
        ))
    for lam in (2, 3, 4):
        params = validate_params(lam, [0.0] * lam)
        worst = 0.0
        for mu in range(lam):
            for k in range(7):
                tgt = moment_target(params, mu, k)
                _, rel = moment_check(lambda y: weight_photon(lam, mu, y), mu, k, tgt)
                worst = max(worst, rel)
        results.append(CheckResult("photon-weight-moments", worst < 1e-8, f"lam={lam} worst_rel={worst:.3e}"))

    params = validate_params(2, [0.0, 0.0])
    dev = max(
        abs(weight_lambda2(params, mu, y) - weight_photon(2, mu, y))
        for mu in (0, 1)
        for y in (0.05, 0.3, 1.0, 2.7, 9.0)
    )
    results.append(CheckResult("weight-forms-agree", dev < 1e-10, f"dev={dev:.3e}"))

    params = validate_params(2, [0.5, -0.5])
    entries = unity_reconstruction(params, "lambda2", 5)
    dev = float(np.max(np.abs(entries - 1.0)))
    results.append(CheckResult("unity-diagonal-lambda2", dev < 1e-7, f"alpha0=0.5 dev={dev:.3e}"))
    params3 = validate_params(3, [0.0] * 3)
    entries = unity_reconstruction(params3, "photon", 4)
    dev = float(np.max(np.abs(entries - 1.0)))
    results.append(CheckResult("unity-diagonal-photon", dev < 1e-7, f"lam=3 dev={dev:.3e}"))

    dev = angular_offdiagonal(params, 0, 1.2)
    results.append(CheckResult("angular-offdiagonal", dev < 1e-12, f"lam=2 dev={dev:.3e}"))
    dev = angular_offdiagonal(params3, 1, 1.0)
    results.append(CheckResult("angular-offdiagonal", dev < 1e-12, f"lam=3 dev={dev:.3e}"))

    tgt = moment_target(params3, 0, 3)
    _, rel = moment_check(lambda y: 1.01 * weight_photon(3, 0, y), 0, 3, tgt)
    results.append(CheckResult("scaled-weight-detected", 0.005 < rel < 0.02, f"rel={rel:.3e}"))
    return results


SUITES = {
    "commutators": suite_commutators,
    "sga": suite_sga,
    "cs": suite_cs,
    "measure": suite_measure,
}


def run_suites(names, seed: int = 12345):
    """Run the named suites; returns (all_ok, report_lines)."""
    lines = [f"seed: {seed}"]
    ok = True
    for name in names:
        results = SUITES[name](seed=seed)
        passed = sum(r.ok for r in results)
        for r in results:
            if not r.ok:
                lines.append(f"FAIL [{name}] {r.name}: {r.detail}")
                ok = False
        lines.append(f"suite {name}: {passed}/{len(results)} checks passed")
    return ok, lines
