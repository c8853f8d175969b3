"""Invariant suites (commutators, sga, cs, measure) over built-in parameter
sets plus seeded random admissible draws, and the independent reference
route they compare production results with: dense truncated operator
matrices, their lambda-th powers and quadratic forms (production forms none),
the coherent-state norm summed term by term, and the alpha = 0 state rebuilt
from its Mittag-Leffler form.

On a shorter truncation a, a†, b, b†, N, P_mu, x and p are leading blocks of
the longer ones (h0 is not: its a a† half has the truncation artifact in its last
row), so suite_cs builds one DenseOperators per parameter set and the dense
helpers read the block the size of their vector, applying powers as matrix-vector chains.

N, P_mu, the lambda = 2 parity K and h0 are diagonal, so a product with one of
them as a factor is formed as a row or column scaling, d[:, None] * M or M * d,
and a product read only on its diagonal (J_- J_+, J_+ J_-) as an einsum of
its diagonal entries.  Each matmul entry there sums exactly one nonzero term,
so both forms are the matmul bit for bit; sum P_mu = I stays a dense comparison.

Every check is a CheckResult: a measured deviation `value` against a fixed
`bound`, passing when value <= bound, so a NaN deviation fails.  A check that
covers several deviations reduces them with np.max, which keeps a NaN.  The
CLI turns the list into a report and an exit code; a failed check is the line
`FAIL [suite] name: <tag> dev=<value> bound=<bound>`.

A patched algebra.structure_function reaches what looks it up in the algebra
namespace: dense_operators, suite_commutators, algebra.build_fock_rep (so the
moment kernel of stats) and algebra.ladder_products (so its overflow test,
build_sga and eigen_residual); coherent binds it at import; mittag_leffler_check
reads no F.  Checks whose two routes both see the patch still agree; the
commutators suite's comparisons with the unpatched alpha catch it.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import algebra
from .algebra import validate_params, random_admissible_alpha, energy
from .sga import build_sga, closed_forms
from .coherent import CoherentState, build_cs, build_states, eigen_residual, stack_coeffs
from .stats import QuadratureMoments, _kind_row, _number_moments, _quadratures, _stencil, quadrature_stats
from .stats import uncertainty_rhs
from .measure import moment_target, weight_lambda2, weight_photon, moment_check
from .measure import unity_reconstruction, angular_offdiagonal
from .specfun import mittag_leffler

__all__ = [
    "CheckResult", "DenseOperators", "dense_operators", "dense_quadratures", "dense_quadrature_moments",
    "dense_number_moments", "extraction_n_max", "mittag_leffler_check",
    "suite_commutators", "suite_sga", "suite_cs", "suite_measure", "run_suites", "SUITES",
]

_BUILTIN = {
    2: [[0.5, -0.5], [0.0, 0.0], [1.0, -1.0], [-0.5, 0.5]],
    3: [[0.0, 0.0, 0.0], [-0.5, 0.25, 0.25]],
    4: [[0.0] * 4, [0.3, -0.1, 0.2, -0.4]],
    5: [[0.0] * 5],
}
_RANDOM_DRAWS = 20  # seeded admissible draws per suite, after the built-in sets
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class CheckResult:
    """One invariant: the measured deviation `value` against `bound`, for the
    parameter set named by `tag`.  It passes when value <= bound, so a NaN
    value fails."""

    name: str
    tag: str
    value: float
    bound: float

    @property
    def ok(self) -> bool:
        return bool(self.value <= self.bound)

    @property
    def detail(self) -> str:
        return f"{self.tag} dev={self.value:.3e} bound={self.bound:.3e}"


def _check(name: str, tag: str, devs, bound: float) -> CheckResult:
    """`devs` (a number, an array or a list of numbers), reduced to its
    largest entry, against `bound`; np.max, unlike the built-in max, keeps a NaN."""
    value = devs if isinstance(devs, float) else np.max(devs)
    return CheckResult(name, tag, float(value), float(bound))


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

def extraction_n_max(lam: int) -> int:
    """Dense truncation: n + lam < n_max at each sga validation level n, so J_- J_+ is exact."""
    return 3 * lam * lam + 2 * lam


DenseOperators = namedtuple("DenseOperators", "params n_max n_op a a_dag b b_dag projectors h0")


def dense_operators(params, n_max: int) -> DenseOperators:
    """Every operator matrix on |0> ... |n_max>: the deformed (a) and canonical (b)
    ladder pairs, their superdiagonals from one structure_function call, N, the P_mu
    from one residue mask and h0 = (a a† + a† a)/2.  Products with a a† are
    truncation artifacts in the last row, so on a shorter truncation every matrix
    but h0 is the leading block of this one."""
    dim = n_max + 1
    levels = np.arange(1, dim)
    a = np.diag(np.sqrt(algebra.structure_function(params, levels)), 1)
    b = np.diag(np.sqrt(levels), 1)
    a_dag, b_dag = a.T.copy(), b.T.copy()
    n_op = np.diag(np.arange(dim, dtype=float))
    mask = np.arange(dim) % params.lam == np.arange(params.lam)[:, None]
    projectors = tuple(np.diag(row.astype(float)) for row in mask)
    h0 = 0.5 * (a @ a_dag + a_dag @ a)
    return DenseOperators(params, n_max, n_op, a, a_dag, b, b_dag, projectors, h0)


def dense_quadratures(ops: DenseOperators, kind="dressed"):
    """The matrices x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2) (b for 'real'; no other kind)."""
    lo, hi = ((ops.a, ops.a_dag), (ops.b, ops.b_dag))[_kind_row(kind)]
    return (hi + lo) / np.sqrt(2.0), 1j * (hi - lo) / np.sqrt(2.0)


def dense_quadrature_moments(ops: DenseOperators, coeffs, kind="dressed") -> QuadratureMoments:
    """stats.quadrature_stats as quadratic forms <v|c^2|v>, <v|c^4|v> of c = x - <x>
    for the dense_quadratures matrices x and p, on the leading block the size of v:
    c^2 v = c(c v) and c^4 v = c(c(c^2 v))."""
    return _moments_of(dense_quadratures(ops, kind), coeffs)


def _moments_of(quadratures, coeffs) -> QuadratureMoments:
    """dense_quadrature_moments for given (x, p) matrices, so that suite_cs forms them
    once per parameter set."""
    v = np.asarray(coeffs, dtype=complex)
    out = []
    for op in quadratures:
        op = op[:v.size, :v.size]
        mean = float(np.real(np.vdot(v, op @ v)))
        c = op - mean * np.eye(v.size)
        c2v = c @ (c @ v)
        out.append((mean, float(np.real(np.vdot(v, c2v))), float(np.real(np.vdot(v, c @ (c @ c2v))))))
    (mx, vx, x4), (mp, vp, p4) = out
    return QuadratureMoments(mx, mp, vx, vp, x4, p4)


def dense_number_moments(ops: DenseOperators, coeffs):
    """<N>, <N^2> as <v|b† b|v> and ||b† b v||^2 of the leading b, b† blocks the size of v."""
    v = np.asarray(coeffs, dtype=complex)
    w = ops.b_dag[:v.size, :v.size] @ (ops.b[:v.size, :v.size] @ v)
    return float(np.real(np.vdot(v, w))), float(np.real(np.vdot(w, w)))


def _dense_lowered(ops: DenseOperators, coeffs):
    """a^lambda v as lambda matrix-vector products on the leading block the size of v."""
    w, a = coeffs, ops.a[:len(coeffs), :len(coeffs)]
    for _ in range(ops.params.lam):
        w = a @ w
    return w


def mittag_leffler_check(cs: CoherentState) -> float:
    """For the undeformed case (alpha = 0) rebuild the state from its
    Mittag-Leffler form, with coefficient

        (lambda z)^k / sqrt(Gamma(lambda k + mu + 1) E_{lambda,mu+1}(lambda^2 |z|^2))

    on |k lambda + mu>, each in log space from lgamma; return the largest coefficient
    deviation from cs.  RuntimeError where E is not a positive normal double."""
    params, mu, z = cs.params, cs.mu, cs.z
    if not np.allclose(params.alpha, 0.0, atol=1e-14):
        raise ValueError("the Mittag-Leffler form requires alpha = 0")
    lam = params.lam
    rebuilt = np.zeros(cs.n_max + 1, dtype=complex)
    rebuilt[mu] = 1.0  # z = 0 gives |mu>
    if z:
        e_val = mittag_leffler(lam, mu + 1, (lam * abs(z)) ** 2)
        if not _TINY <= e_val < math.inf:
            raise RuntimeError(f"E_{lam},{mu + 1}(lambda^2 |z|^2) = {e_val:.3g} is not a normal double")
        ks = np.arange((cs.n_max - mu) // lam + 1)
        log_gamma = np.array([math.lgamma(lam * k + mu + 1) for k in ks])
        rebuilt[mu::lam] = np.exp(ks * cmath.log(lam * z) - 0.5 * (log_gamma + math.log(e_val)))
    return float(np.max(np.abs(rebuilt - cs.coeffs)))


# ---------------------------------------------------------------------------
# suites

def suite_commutators(seed: int = 12345):
    results = []
    add = results.append
    rng = np.random.default_rng(seed)
    for lam, alpha in _param_sets(seed):
        params = validate_params(lam, alpha)
        n_max = extraction_n_max(lam)
        fock = dense_operators(params, n_max)
        dim = n_max + 1
        top = slice(0, n_max)  # rows/cols free of the a a† truncation artifact
        tag = _tag(lam, alpha)

        # the shift the moment kernel runs, x v and p v, against the dense matrices
        ladder = algebra.build_fock_rep(params, n_max)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        add(_check("ladder-dense-agreement", tag, [
            np.max(np.abs(got - want)) / np.max(np.abs(want))
            for kind in ("dressed", "real")
            for got, want in zip(_quadratures(v[None], _stencil(ladder, kind)),
                                 (op @ v for op in dense_quadratures(fock, kind)))
        ], 1e-15))

        a_dag_a = fock.a_dag @ fock.a
        comm = fock.a @ fock.a_dag - a_dag_a
        target = np.eye(dim) + sum(params.alpha[mu] * fock.projectors[mu] for mu in range(lam))
        add(_check("commutator-identity", tag, np.abs(comm - target)[top, top], 1e-12))

        # N, P_mu and K are diagonal: D M is the row scaling d[:, None] * M and M D
        # the column scaling M * d, the one nonzero term of each matmul entry
        proj = np.array([np.diag(pm) for pm in fock.projectors])
        add(_check("projector-shift", tag, [
            np.max(np.abs(fock.a_dag * proj[mu] - proj[(mu + 1) % lam][:, None] * fock.a_dag))
            for mu in range(lam)
        ], 0.0))

        # P_mu P_nu - delta_mu,nu P_mu is zero off the diagonal; sum P_mu = I stays dense
        add(_check("projector-algebra", tag, [
            np.max(np.abs(sum(fock.projectors) - np.eye(dim))),
            np.max(np.abs(proj[:, None] * proj - np.eye(lam)[:, :, None] * proj[:, None])),
        ], 0.0))

        n_diag = np.diag(fock.n_op)
        add(_check("number-commutators", tag, [
            np.max(np.abs(n_diag[:, None] * fock.a_dag - fock.a_dag * n_diag - fock.a_dag)[top, top]),
            np.max(np.abs(n_diag[:, None] * fock.a - fock.a * n_diag + fock.a)[top, top]),
        ], 1e-12))

        # F(n) > 0 for n >= 1, stated as -F <= -tiny so that F = 0 fails
        levels = np.arange(1, dim)
        fs = algebra.structure_function(params, levels)
        add(_check("structure-positivity", tag, -fs, -_TINY))

        add(_check("dressed-ladder-relation", tag,
                   np.abs(np.diag(fock.a, 1) - np.diag(fock.b, 1) * np.sqrt(fs / levels)), 1e-13))

        # the exact diagonal squares the superdiagonal as x * x, the one nonzero product
        # the matmul sums per entry; the bound leaves a few ulp for the BLAS
        diag = np.diag(a_dag_a)
        exact = np.concatenate([[0.0], np.diag(fock.a, 1) ** 2])
        add(_check("number-diagonal", tag, np.abs(diag - exact) / np.maximum(np.abs(exact), _TINY),
                   4.0 * np.finfo(float).eps))

        add(_check("energy-diagonal", tag, np.abs(np.diag(fock.h0)[top] - energy(params, np.arange(n_max))), 1e-12))

        if lam == 2:
            parity = (-1.0) ** np.arange(dim)
            add(_check("parity-anticommutation", tag,
                       np.abs(parity[:, None] * fock.a_dag + fock.a_dag * parity), 0.0))
            add(_check("parity-commutator-form", tag,
                       np.abs(comm - np.eye(dim) - params.alpha[0] * np.diag(parity))[top, top], 1e-12))
    return results


def suite_sga(seed: int = 12345):
    results = []
    add = results.append
    for lam, alpha in _param_sets(seed):
        params = validate_params(lam, alpha)
        n_max = extraction_n_max(lam)
        fock = dense_operators(params, n_max)
        j_plus = np.linalg.matrix_power(fock.a_dag, lam) / lam
        j_minus = np.linalg.matrix_power(fock.a, lam) / lam
        j_zero = np.diag(fock.h0) / lam  # h0 is diagonal: J_0 scales rows and columns
        tag = _tag(lam, alpha)

        # relative to the largest |J_+| entry of the block, which grows like n^lambda / lambda
        inner = (slice(0, n_max - lam),) * 2
        add(_check("j0-ladder-commutator", tag, np.abs(j_zero[:, None] * j_plus - j_plus * j_zero - j_plus)[inner]
                   / np.max(np.abs(j_plus[inner])), 1e-13))
        add(_check("jminus-annihilates-sector-floor", tag, np.linalg.norm(j_minus[:, :lam], axis=0), 0.0))

        try:
            poly = build_sga(params)
        except RuntimeError as exc:
            add(CheckResult("polynomial-extraction", f"{tag} {exc}", math.inf, 1e-8))
            continue
        add(_check("polynomial-extraction", tag, [poly.f_residual, poly.h_residual], 1e-8))

        # Casimir constant across k = 0..3 per sector (row mu: levels k lam + mu), from the
        # matrices; J_- J_+ is read on its diagonal only, one nonzero term per entry
        g = np.einsum("ij,ji->i", j_minus, j_plus)
        ns = np.arange(4) * lam + np.arange(lam)[:, None]
        add(_check("casimir-constancy", tag, np.std(g[ns] + _sector_polyval(params, ns, poly.t), axis=1)
                   / np.maximum(1.0, np.max(np.abs(g[ns]), axis=1)), 1e-9))

        add(_check("lowest-j0-eigenvalue", tag, np.abs(j_zero[:lam] - energy(params, np.arange(lam)) / lam), 1e-12))

        cf = closed_forms(params)
        if cf is not None:
            add(_check("closed-form-match", tag, [
                np.max(np.abs(got - want)) for got, want in zip((poly.s, poly.t, poly.c), cf)
            ], 1e-9))

        # diag [J_+, J_-] against f(J_0) on the levels k lam + mu, k < 2 lam, clear of n_max
        ns = np.arange(2 * lam) * lam + np.arange(lam)[:, None]
        comm = (np.einsum("ij,ji->i", j_plus, j_minus) - g)[ns]
        add(_check("generator-consistency", tag,
                   np.abs(comm - _sector_polyval(params, ns, poly.s)) / np.maximum(1.0, np.abs(comm)), 1e-9))
    return results


def _sector_polyval(params, ns, coeffs):
    """Row mu of coeffs (ascending in J_0) at J_0 = E(n) / lambda for row mu of the levels ns:
    one polyval over every sector, with the per-sector call's arithmetic."""
    return np.polynomial.polynomial.polyval(energy(params, ns) / params.lam, coeffs.T[:, :, None], tensor=False)


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
    add = results.append
    rng = np.random.default_rng(seed)
    lams = (2, 3, 4)
    n_builtin = sum(len(_BUILTIN.get(lam, [])) for lam in lams)
    for idx, (lam, alpha) in enumerate(_param_sets(seed, lams)):
        params = validate_params(lam, alpha)
        tag = _tag(lam, alpha)
        builtin = idx < n_builtin
        undeformed = np.allclose(params.alpha, 0.0)
        mus = range(lam) if builtin else [int(rng.integers(0, lam))]
        zs = [0.5 + 0j, 2 + 1j, -3 + 0j] if builtin else [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
        states = [cs for mu in mus for cs in build_states(params, mu, zs)]
        # one dense reference per set: each state reads the leading block of its truncation
        dense = dense_operators(params, max(cs.n_max for cs in states))
        dressed = dense_quadratures(dense, "dressed")
        for cs in states:
            mu, z = cs.mu, cs.z
            ztag = f"{tag} mu={mu} z={z}"

            res = eigen_residual(cs)
            add(_check("cs-eigen-residual", ztag, res, 1e-10))

            w = _dense_lowered(dense, cs.coeffs) - lam * z * cs.coeffs
            w[cs.n_max - lam + 1:] = 0.0
            res2 = float(np.linalg.norm(w) / lam / max(abs(z), 1.0))
            add(_check("cs-eigen-equivalent-form", ztag, abs(res2 - res), 1e-12))

            add(_check("cs-unit-norm", ztag, abs(float(np.linalg.norm(cs.coeffs)) - 1.0),
                       1e-12 + cs.tail_bound))
            add(_check("cs-norm-crosscheck", ztag,
                       abs(_brute_norm(params, mu, z) - cs.norm_factor) / cs.norm_factor, 1e-11))

            # the |mu> coefficient is real and positive (else inf), and
            # coefficient k carries the phase k arg z
            k_probe = min(3, (cs.n_max - mu) // lam)
            got = cmath.phase(cs.coeffs[k_probe * lam + mu])
            head = cs.coeffs[mu]
            dev = abs(cmath.exp(1j * (got - cmath.phase(z) * k_probe)) - 1.0)
            add(_check("cs-phase-convention", ztag,
                       dev if head.imag == 0.0 and head.real > 0 else math.inf, 1e-10))

            mm = quadrature_stats(cs, "dressed")
            ss = _moments_of(dressed, cs.coeffs)
            mean_n, var_n = _number_moments(cs)
            sn, sn2 = dense_number_moments(dense, cs.coeffs)
            add(_check("dual-route-expectations", ztag, [
                *(abs(got - want) for got, want in zip(vars(mm).values(), vars(ss).values())),
                abs(mean_n - sn), abs(var_n - (sn2 - sn * sn)),
            ], 1e-11))

            add(_check("uncertainty-product", ztag,
                       uncertainty_rhs(params, mu) - mm.var_x * mm.var_p, 1e-10))

            if lam == 2:
                ref = _bessel_norm_lambda2(params.beta_bar[1] - 1.0 + mu, abs(z))
                add(_check("cs-bessel-normalization", ztag, abs(ref - cs.norm_factor) / cs.norm_factor, 1e-10))

            if undeformed:
                add(_check("cs-mittag-leffler-form", ztag, mittag_leffler_check(cs), 1e-12))

        # per-parameter (z-independent) checks
        cs0, cs1 = stack_coeffs([build_cs(params, 0, 0.8 + 0.3j), build_cs(params, 1, 0.8 + 0.3j)])
        add(_check("cs-sector-orthogonality", tag, abs(complex(np.vdot(cs0, cs1))), 0.0))

        base, near = stack_coeffs(build_states(params, 0, (1.1 - 0.6j, 1.1 - 0.6j + 1e-6)))
        add(_check("cs-label-continuity", tag, np.linalg.norm(near - base), 1e-4))

        mu = 0 if builtin else int(rng.integers(0, lam))
        m0 = quadrature_stats(build_cs(params, mu, 0.0), "dressed")
        bb = params.beta_bar
        want = (lam / 2.0) * (bb[mu + 1] + bb[mu])
        mtag = f"{tag} mu={mu}"
        add(_check("vacuum-dispersions", mtag, [abs(m0.var_x - want), abs(m0.var_p - want)], 1e-12))
        # sector 0 meets the bound, every other sector clears it by 1e-6
        gap = m0.var_x * m0.var_p - uncertainty_rhs(params, mu)
        value, bound = (abs(gap), 1e-12) if mu == 0 else (-gap, -1e-6)
        add(_check("vacuum-uncertainty-floor", mtag, value, bound))
    return results


def _moment_devs(params, weight, mus, ks):
    """Relative moment errors of the radial weight(mu, y) over mus x ks."""
    return [
        moment_check(partial(weight, mu), mu, k, moment_target(params, mu, k))[1]
        for mu in mus for k in ks
    ]


def suite_measure(seed: int = 12345):
    results = []
    add = results.append
    for a0 in (-0.5, 0.0, 0.5, 2.0):
        params = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            add(_check("bessel-weight-moments", f"{_tag(2, [a0, -a0])} mu={mu}",
                       _moment_devs(params, partial(weight_lambda2, params), (mu,), range(7)), 1e-8))
    rng = np.random.default_rng(seed)
    for _ in range(_RANDOM_DRAWS):
        alpha = random_admissible_alpha(2, rng)
        params = validate_params(2, alpha)
        add(_check("bessel-weight-moments-random", _tag(2, alpha),
                   _moment_devs(params, partial(weight_lambda2, params), (0, 1), (0, 2, 5)), 1e-8))
    for lam in (2, 3, 4):
        add(_check("photon-weight-moments", _tag(lam, [0.0] * lam),
                   _moment_devs(validate_params(lam, [0.0] * lam), partial(weight_photon, lam),
                                range(lam), range(7)), 1e-8))

    params = validate_params(2, [0.0, 0.0])
    add(_check("weight-forms-agree", _tag(2, [0.0, 0.0]), [
        abs(weight_lambda2(params, mu, y) - weight_photon(2, mu, y))
        for mu in (0, 1)
        for y in (0.05, 0.3, 1.0, 2.7, 9.0)
    ], 1e-10))

    params = validate_params(2, [0.5, -0.5])
    params3 = validate_params(3, [0.0] * 3)
    tag2, tag3 = _tag(2, [0.5, -0.5]), _tag(3, [0.0] * 3)
    add(_check("unity-diagonal-lambda2", tag2, np.abs(unity_reconstruction(params, "lambda2", 5) - 1.0), 1e-7))
    add(_check("unity-diagonal-photon", tag3, np.abs(unity_reconstruction(params3, "photon", 4) - 1.0), 1e-7))
    add(_check("angular-offdiagonal", f"{tag2} mu=0 r=1.2", angular_offdiagonal(params, 0, 1.2), 1e-12))
    add(_check("angular-offdiagonal", f"{tag3} mu=1 r=1.0", angular_offdiagonal(params3, 1, 1.0), 1e-12))

    # a weight scaled by 1.01 misses the k = 3 moment by 1.0%: detected
    # when the relative error lies within 0.0125 +- 0.0075
    tgt = moment_target(params3, 0, 3)
    _, rel = moment_check(lambda y: 1.01 * weight_photon(3, 0, y), 0, 3, tgt)
    add(_check("scaled-weight-detected", f"{tag3} mu=0 k=3", abs(rel - 0.0125), 0.0075))
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
