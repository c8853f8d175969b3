"""Invariant suites (commutators, sga, cs, measure) over built-in parameter
sets plus seeded random admissible draws, and the independent reference
route they compare production results with: dense truncated operator
matrices, their lambda-th powers and quadratic forms (production forms none),
the coherent-state norm summed term by term, the lambda = 2 norm from Poisson's
integral for I_nu on a fixed tanh-sinh grid (_bessel_norm_lambda2, within 1.7e-15
of mpmath for nu in [-0.99, 6] and r <= 300), and the alpha = 0 state rebuilt from
its Mittag-Leffler form.  These references, like the production routes (measure's
Bessel-K weight included), need numpy and the standard library only, so no suite
imports scipy.

The dense reference is the ladder pair: dense_operators forms a and a† only, and a
check that compares N, P_mu, b, b† or h0 forms it from index vectors (arange, the
residue mask, sqrt(arange(1, dim)), einsums of a and a† for h0's diagonal).  On a
shorter truncation a, a†, b, b†, N, P_mu, x and p are leading blocks of the longer
ones (h0 is not: its a a† half has the truncation artifact in its last row), so the
dense helpers read the block the size of the vectors along coeffs' last axis, applying
powers as chains of products, and return one layout for any leading shape.
suite_cs checks one stack per parameter set: every state the set needs comes from one
build_states call per sector, and its checked states and the z = 0 vacuum, zero-padded
onto the basis of the longest, go through one production moment pass, one eigen_residual
call and one dense reference at that width.

suite_commutators and suite_sga check the parameter sets of one lambda, which share
extraction_n_max, together: dense_operators stacks their a and a† along a leading
axis, and each check is one array expression over the stack (the matmuls, the
matrix_power lambda-th powers, the einsum diagonals, sga._horner, np.std),
reduced to one value per set; what depends on lambda alone (the P_mu diagonals and
their algebra, the diagonals of N and b, the canonical x and p) is formed once per
lambda, cached, and read by every stack of that lambda.
suite_sga fits each lambda's sets in one build_sga call before its stacks.
validate_params, build_fock_rep and the random draws stay per set, and the
results come out in the per-set order, each value bit for bit the one its set gives
alone.  A stack holds at most _STACK_ENTRIES = 2^13 entries per stacked matrix, so
lambda = 2 and 3 run as whole groups, lambda = 4 in stacks of two and lambda = 5 one
set a stack.  With one unbounded stack per lambda the temporaries raised the verify
benchmark's peak RSS from 63.2 MB to 66.0-67.7 MB, against a 5% bound of 66.4 MB,
and the suites' tracemalloc peaks from 1.1 and 0.5 MB to 3.0 and 2.3 MB.

N, P_mu, the lambda = 2 parity K and h0 are diagonal, so a product with one of
them as a factor is formed as a row or column scaling, d[:, None] * M or M * d,
a diagonal target (I + sum_mu alpha_mu P_mu) is compared as a vector, and a product
read only on its diagonal (J_- J_+, J_+ J_-, the a a† + a† a of h0) as an einsum of
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
from functools import cache, partial

import numpy as np

from . import algebra
from .algebra import validate_params, random_admissible_alpha, energy
from .sga import _horner, build_sga, closed_forms
# build_cs stays bound here for bench/test_bench.py, whose tracer test reads
# verify.build_cs among the bindings it wraps
from .coherent import CoherentState, build_cs, build_states, eigen_residual, stack_coeffs
from .stats import _kind_row, _moments, _number_moments, _quadratures, _stencil
from .stats import uncertainty_rhs
from .measure import _moment_integrals, _undeformed, moment_target, weight_lambda2, weight_photon, moment_check
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
_STACK_ENTRIES = 2 ** 13  # entries per stacked matrix in suite_commutators and suite_sga


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


# The deformed ladder pair on |0> ... |n_max> that dense_operators forms: for a stack of
# parameter sets, one matrix per set along a leading axis
DenseOperators = namedtuple("DenseOperators", "lam n_max a a_dag")


def _canonical_pair(n_max: int):
    """The canonical b and b† = b.T on |0> ... |n_max>, sqrt(n) on b's superdiagonal."""
    b = np.diag(np.sqrt(np.arange(1, n_max + 1)), 1)
    return b, b.T


def _h0_diagonal(ops: DenseOperators):
    """The diagonal of h0 = (a a† + a† a)/2 as einsums of the two products' diagonal entries,
    each of which sums one nonzero term, so bit for bit the diagonal of the dense products."""
    return 0.5 * (np.einsum("...ij,...ji->...i", ops.a, ops.a_dag)
                  + np.einsum("...ij,...ji->...i", ops.a_dag, ops.a))


def dense_operators(params, n_max: int) -> DenseOperators:
    """The deformed ladder pair a, a† on |0> ... |n_max>, its superdiagonal from one
    structure_function call per parameter set.  params is one AlgebraParams or a sequence
    of them sharing lambda, whose a and a† are then stacked.  On a shorter truncation
    a and a† are the leading blocks of these."""
    single = isinstance(params, algebra.AlgebraParams)
    sets = (params,) if single else tuple(params)
    if not sets:
        raise ValueError("an empty stack of parameter sets has no lambda")
    if len({p.lam for p in sets}) != 1:
        raise ValueError("a stack of parameter sets must share one lambda")
    levels = np.arange(1, n_max + 1)
    a = np.zeros((len(sets), n_max + 1, n_max + 1))
    a[:, levels - 1, levels] = np.sqrt([algebra.structure_function(p, levels) for p in sets])
    a_dag = a.transpose(0, 2, 1).copy()
    if single:
        a, a_dag = a[0], a_dag[0]
    return DenseOperators(sets[0].lam, n_max, a, a_dag)


def dense_quadratures(ops: DenseOperators, kind="dressed"):
    """The matrices x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2) (b for 'real'; no other kind)."""
    lo, hi = _canonical_pair(ops.n_max) if _kind_row(kind) else (ops.a, ops.a_dag)
    return (hi + lo) / np.sqrt(2.0), 1j * (hi - lo) / np.sqrt(2.0)


def dense_quadrature_moments(ops: DenseOperators, coeffs, kind="dressed"):
    """stats.quadrature_stats as quadratic forms <v|c^2|v>, <v|c^4|v> of c = x - <x>
    for the dense_quadratures matrices x and p, for each vector v along the last axis
    of coeffs on the leading block its size: c^2 v = c(c v) and c^4 v = c(c(c^2 v)),
    chains of products with the whole stack.  The result is laid out as stats._moments
    lays it out: coeffs' leading shape, then rows mean, dispersion and fourth moment and
    columns x and p."""
    v = np.asarray(coeffs, dtype=complex)
    size = v.shape[-1]
    m = np.empty(v.shape[:-1] + (3, 2))
    for j, op in enumerate(dense_quadratures(ops, kind)):
        op_t = op[:size, :size].T
        w = v @ op_t
        mean = np.vecdot(v, w).real[..., None]
        w -= mean * v
        c2v = w @ op_t - mean * w
        c3v = c2v @ op_t - mean * c2v
        m[..., 0, j] = mean[..., 0]
        m[..., 1, j] = np.vecdot(v, c2v).real
        m[..., 2, j] = np.vecdot(v, c3v @ op_t - mean * c3v).real
    return m


def dense_number_moments(ops: DenseOperators, coeffs):
    """<N>, <N^2> as <v|b† b|v> and ||b† b v||^2 of the canonical b, b† the size of each
    vector v along the last axis of coeffs, in one reduction: two arrays of coeffs'
    leading shape."""
    v = np.asarray(coeffs, dtype=complex)
    b, b_dag = _canonical_pair(v.shape[-1] - 1)
    w = v @ b.T @ b_dag.T
    return tuple(np.vecdot(np.stack((v, w)), w).real)


def _dense_lowered(ops: DenseOperators, coeffs):
    """a^lambda v for each vector v along the last axis of coeffs, as lambda products
    with the leading block of a its size."""
    w = np.asarray(coeffs)
    a_t = ops.a[:w.shape[-1], :w.shape[-1]].T
    for _ in range(ops.lam):
        w = w @ a_t
    return w


def mittag_leffler_check(cs: CoherentState) -> float:
    """For the undeformed case (alpha = 0) rebuild the state from its
    Mittag-Leffler form, with coefficient

        (lambda z)^k / sqrt(Gamma(lambda k + mu + 1) E_{lambda,mu+1}(lambda^2 |z|^2))

    on |k lambda + mu>, each in log space from lgamma; return the largest coefficient
    deviation from cs.  RuntimeError where E is not a positive normal double."""
    params, mu, z = cs.params, cs.mu, cs.z
    if not _undeformed(params):
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

def _lambda_groups(params):
    """The indices of the parameter sets grouped by lambda, in order of first appearance."""
    groups = {}
    for k, p in enumerate(params):
        groups.setdefault(p.lam, []).append(k)
    return groups.values()


def _stacks(params):
    """The indices of the parameter sets grouped by lambda, which fixes extraction_n_max,
    in stacks of at most _STACK_ENTRIES entries per stacked matrix (one set at least)."""
    for idx in _lambda_groups(params):
        lam = params[idx[0]].lam
        size = max(1, _STACK_ENTRIES // (extraction_n_max(lam) + 1) ** 2)
        for start in range(0, len(idx), size):
            yield idx[start:start + size]


def _add_stack(rows, tags, name, devs, bound):
    """Append to each set's row of results its CheckResult: devs is an array with the
    stack on axis 0, or an iterable of them, each reduced per set to its largest entry as
    it comes, and their maxima to one value per set; max keeps a NaN, as in _check."""
    parts = [d.max(axis=tuple(range(1, d.ndim))) for d in ([devs] if isinstance(devs, np.ndarray) else devs)]
    values = parts[0] if len(parts) == 1 else np.max(parts, axis=0)
    for row, tag, value in zip(rows, tags, values.tolist()):
        row.append(CheckResult(name, tag, value, float(bound)))


def suite_commutators(seed: int = 12345):
    sets = _param_sets(seed)
    params = [validate_params(lam, alpha) for lam, alpha in sets]
    rng = np.random.default_rng(seed)
    draws = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
             for n in (extraction_n_max(lam) + 1 for lam, _ in sets)]
    results = [[] for _ in sets]
    for idx in _stacks(params):
        _commutator_checks([params[k] for k in idx], [draws[k] for k in idx],
                           partial(_add_stack, [results[k] for k in idx], [_tag(*sets[k]) for k in idx]))
    return [r for row in results for r in row]


@cache
def _lambda_reference(lam: int):
    """What the commutators checks compare that depends on lambda alone, at
    extraction_n_max(lam): the P_mu diagonals from the residue mask, the projector-algebra
    deviation, N's diagonal, b's superdiagonal and the canonical pair's x and p.  Formed
    once per lambda and read by every later stack of it, so the arrays are read-only."""
    n_max = extraction_n_max(lam)
    levels = np.arange(n_max + 1)
    proj = (levels % lam == np.arange(lam)[:, None]).astype(float)
    # P_mu P_nu - delta_mu,nu P_mu is zero off the diagonal; sum P_mu = I stays dense
    projector_algebra = max(
        np.max(np.abs(sum(map(np.diag, proj)) - np.eye(n_max + 1))),
        np.max(np.abs(proj[:, None] * proj - np.eye(lam)[:, :, None] * proj[:, None])),
    )
    n_diag, b_sup = levels.astype(float), np.sqrt(levels[1:])
    canonical = DenseOperators(lam, n_max, None, None)  # the 'real' kind reads n_max alone
    real_quadratures = dense_quadratures(canonical, "real")
    for array in (proj, n_diag, b_sup, *real_quadratures):
        array.flags.writeable = False
    return proj, projector_algebra, n_diag, b_sup, real_quadratures


def _commutator_checks(stack, draws, add):
    """suite_commutators on one stack of parameter sets sharing lambda, draws holding each
    set's random vector; add(name, devs, bound) records one result per set."""
    lam = stack[0].lam
    n_max = extraction_n_max(lam)
    fock = dense_operators(stack, n_max)
    proj, projector_algebra, n_diag, b_sup, real_quadratures = _lambda_reference(lam)
    dim = n_max + 1
    top = (slice(None), slice(0, n_max), slice(0, n_max))  # free of the a a† truncation artifact
    d = np.arange(n_max)  # the diagonal of that block

    # the shift the moment kernel runs, x v and p v, against the dense matrices
    ladders = [algebra.build_fock_rep(p, n_max) for p in stack]
    v = np.array(draws)[..., None]
    devs = []
    for kind in ("dressed", "real"):
        got = np.array([_quadratures(u[None], _stencil(ladder, kind)) for u, ladder in zip(draws, ladders)])
        for j, op in enumerate(dense_quadratures(fock, kind) if kind == "dressed" else real_quadratures):
            want = (op @ v)[..., 0]
            devs.append(np.max(np.abs(got[:, j] - want), axis=1) / np.max(np.abs(want), axis=1))
    add("ladder-dense-agreement", devs, 1e-15)

    # the targets of [a, a†] are diagonal: off it the deviation is |[a, a†]|, on it a vector
    a_dag_a = fock.a_dag @ fock.a
    comm = fock.a @ fock.a_dag - a_dag_a
    off = np.abs(comm[top])
    off[:, d, d] = 0.0
    off = np.max(off, axis=(1, 2))
    on = comm[:, d, d]
    alpha = np.array([p.alpha for p in stack])
    add("commutator-identity", [off, np.abs(on - (1.0 + alpha[:, d % lam]))], 1e-12)

    # N, P_mu and K are diagonal: D M is the row scaling d[:, None] * M and M D
    # the column scaling M * d, the one nonzero term of each matmul entry
    add("projector-shift", (
        np.abs(fock.a_dag * proj[mu] - proj[(mu + 1) % lam][:, None] * fock.a_dag) for mu in range(lam)
    ), 0.0)
    add("projector-algebra", np.full(len(stack), projector_algebra), 0.0)

    # [N, a†] = a† and [N, a] = -a
    add("number-commutators", (
        np.abs(n_diag[:, None] * op - op * n_diag - sign * op)[top] for op, sign in ((fock.a_dag, 1.0), (fock.a, -1.0))
    ), 1e-12)

    # F(n) > 0 for n >= 1, stated as -F <= -tiny so that F = 0 fails
    levels = np.arange(1, dim)
    fs = np.array([algebra.structure_function(p, levels) for p in stack])
    add("structure-positivity", -fs, -_TINY)

    sup = np.diagonal(fock.a, 1, -2, -1)
    add("dressed-ladder-relation", np.abs(sup - b_sup * np.sqrt(fs / levels)), 1e-13)

    # the exact diagonal squares the superdiagonal as x * x, the one nonzero product
    # the matmul sums per entry; the bound leaves a few ulp for the BLAS
    exact = np.concatenate([np.zeros((len(stack), 1)), sup ** 2], axis=1)
    add("number-diagonal", np.abs(np.diagonal(a_dag_a, 0, -2, -1) - exact) / np.maximum(np.abs(exact), _TINY),
        4.0 * np.finfo(float).eps)

    energies = np.array([energy(p, d) for p in stack])
    add("energy-diagonal", np.abs(_h0_diagonal(fock)[:, :n_max] - energies), 1e-12)

    if lam == 2:
        parity = (-1.0) ** np.arange(dim)
        add("parity-anticommutation", np.abs(parity[:, None] * fock.a_dag + fock.a_dag * parity), 0.0)
        add("parity-commutator-form", [off, np.abs(on - 1.0 - alpha[:, :1] * parity[d])], 1e-12)


def suite_sga(seed: int = 12345):
    sets = _param_sets(seed)
    params = [validate_params(lam, alpha) for lam, alpha in sets]
    # one build_sga pass per lambda: each set's polynomials, or the RuntimeError it raises alone
    polys = {}
    for idx in _lambda_groups(params):
        polys.update(zip(idx, build_sga([params[k] for k in idx])))
    results = [[] for _ in sets]
    for idx in _stacks(params):
        _sga_checks([params[k] for k in idx], [polys[k] for k in idx], [results[k] for k in idx],
                    [_tag(*sets[k]) for k in idx])
    return [r for row in results for r in row]


def _sga_checks(stack, polys, rows, tags):
    """suite_sga on one stack of parameter sets sharing lambda, whose build_sga results
    are polys, appending each set's results to its row."""
    lam = stack[0].lam
    n_max = extraction_n_max(lam)
    fock = dense_operators(stack, n_max)
    j_plus = np.linalg.matrix_power(fock.a_dag, lam) / lam
    j_minus = np.linalg.matrix_power(fock.a, lam) / lam
    j_zero = _h0_diagonal(fock) / lam  # h0 is diagonal: J_0 scales rows and columns
    add = partial(_add_stack, rows, tags)

    # relative to the largest |J_+| entry of the block, which grows like n^lambda / lambda
    inner = (slice(None),) + (slice(0, n_max - lam),) * 2
    scale = np.max(np.abs(j_plus[inner]), axis=(1, 2))[:, None, None]
    add("j0-ladder-commutator",
        np.abs(j_zero[:, :, None] * j_plus - j_plus * j_zero[:, None] - j_plus)[inner] / scale, 1e-13)
    add("jminus-annihilates-sector-floor", np.linalg.norm(j_minus[..., :lam], axis=-2), 0.0)

    # J_- J_+ and J_+ J_- are read on their diagonals only, one nonzero term per entry
    g = np.einsum("...ij,...ji->...i", j_minus, j_plus)
    g_plus = np.einsum("...ij,...ji->...i", j_plus, j_minus)
    for row, tag, poly in zip(rows, tags, polys):
        if isinstance(poly, RuntimeError):
            row.append(CheckResult("polynomial-extraction", f"{tag} {poly}", math.inf, 1e-8))
    # a set whose extraction failed has no further checks
    keep = [j for j, poly in enumerate(polys) if not isinstance(poly, RuntimeError)]
    if not keep:
        return
    stack, polys = [stack[j] for j in keep], [polys[j] for j in keep]
    g, g_plus, j_zero = g[keep], g_plus[keep], j_zero[keep]
    add = partial(_add_stack, [rows[j] for j in keep], [tags[j] for j in keep])
    add("polynomial-extraction", [np.array([poly.f_residual for poly in polys]),
                                  np.array([poly.h_residual for poly in polys])], 1e-8)

    # J_0 = E(n) / lambda on the levels k lambda + mu (row mu), k < 2 lambda: clear of n_max,
    # k = 0 the lowest level of each sector, k < 4 those of the Casimir check
    ns = np.arange(2 * lam) * lam + np.arange(lam)[:, None]
    x = np.array([energy(p, ns) for p in stack]) / lam

    # Casimir constant across k = 0..3 per sector
    g_low = g[:, ns[:, :4]]
    casimir = g_low + _horner(np.array([poly.t for poly in polys]), x[..., :4])
    add("casimir-constancy", np.std(casimir, axis=-1) / np.maximum(1.0, np.max(np.abs(g_low), axis=-1)), 1e-9)

    add("lowest-j0-eigenvalue", np.abs(j_zero[:, :lam] - x[..., 0]), 1e-12)

    cfs = [closed_forms(p) for p in stack]
    if cfs[0] is not None:  # lambda = 2 and 3
        got = [np.array([getattr(poly, f) for poly in polys]) for f in "stc"]
        add("closed-form-match", [np.abs(y - np.array(want)) for y, want in zip(got, zip(*cfs))], 1e-9)

    # diag [J_+, J_-] against f(J_0)
    comm = (g_plus - g)[:, ns]
    f = _horner(np.array([poly.s for poly in polys]), x)
    add("generator-consistency", np.abs(comm - f) / np.maximum(1.0, np.abs(comm)), 1e-9)


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


@cache
def _poisson_grid():
    """The tanh-sinh grid of _bessel_norm_lambda2 (Takahasi & Mori 1974): t = tanh(u),
    u = (pi/2) sinh s, s = j/32 for |s| <= 6, 385 nodes.  Per node: the weight, the step
    1/32 times (pi/2) cosh s, so that dt = weight / cosh^2 u; log cosh u; and 1 - t =
    e^{-u} / cosh u and 1 - t^2 = 1 / cosh^2 u, which carry no cancellation near t = +-1.
    Formed on first use, so importing verify computes nothing."""
    s = np.arange(-192, 193) / 32.0
    u = 0.5 * np.pi * np.sinh(s)
    cosh_u = np.cosh(u)
    return np.pi / 64.0 * np.cosh(s), np.log(cosh_u), np.exp(-u) / cosh_u, cosh_u ** -2.0


def _bessel_norm_lambda2(nu, r):
    """lambda = 2 norm N = Gamma(nu+1) r^{-nu} I_nu(2r) = 0F1(; b; r^2), b = nu + 1 > 0, from
    Poisson's integral (DLMF 10.32.2)

        0F1(; c; r^2) = int_{-1}^{1} (1-t^2)^{c-3/2} e^{2rt} dt / int_{-1}^{1} (1-t^2)^{c-3/2} dt,

    the denominator the Beta integral sqrt(pi) Gamma(c - 1/2) / Gamma(c), both on one fixed
    tanh-sinh grid of 385 nodes, at c = b + 1 and b + 2, with e^{2rt} scaled to
    e^{-2r(1-t)}; the contiguous relation F(b) = F(b+1) + r^2 F(b+2) / (b(b+1)), all of
    whose terms are positive, joins them, so one path covers every nu > -1 (the integral
    itself needs c > 1/2).  Independent of the series routes behind build_cs and
    _brute_norm, and of scipy: against mpmath besseli at 40 digits it is within 1.7e-15
    relative for nu in [-0.99, 6] and r <= 300.  nu and r broadcast; a scalar call
    gives a float."""
    weight, log_cosh, one_minus_t, one_minus_t2 = _poisson_grid()
    nu, r = np.broadcast_arrays(np.asarray(nu, dtype=float), np.asarray(r, dtype=float))
    b = nu + 1.0
    # at c = b + 1, (1 - t^2)^{c - 3/2} dt/ds = cosh(u)^{-(2b + 1)} (pi/2) cosh s; b + 2 has one more 1 - t^2
    base = weight * np.exp(-(2.0 * b[..., None] + 1.0) * log_cosh)
    terms = base * np.exp(-2.0 * r[..., None] * one_minus_t)
    f1 = terms.sum(axis=-1) / base.sum(axis=-1)
    f2 = (terms * one_minus_t2).sum(axis=-1) / (base * one_minus_t2).sum(axis=-1)
    norm = (f1 + r * r * f2 / (b * (b + 1.0))) * np.exp(2.0 * r)
    return float(norm) if norm.ndim == 0 else norm


def _by_sector(params, labels):
    """The state of each (mu, z) in labels, in order, from one build_states call per
    sector; its rows are bit for bit the states build_cs gives."""
    sectors = {}
    for mu, z in labels:
        sectors.setdefault(mu, []).append(z)
    built = {mu: iter(build_states(params, mu, zs)) for mu, zs in sectors.items()}
    return [next(built[mu]) for mu, _ in labels]


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
        undeformed = _undeformed(params)
        mus = range(lam) if builtin else [int(rng.integers(0, lam))]
        zs = [0.5 + 0j, 2 + 1j, -3 + 0j] if builtin else [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))]
        mu_vac = 0 if builtin else int(rng.integers(0, lam))
        # every state of the set: the checked ones, the orthogonality pair, the
        # continuity pair and the z = 0 vacuum
        *states, ortho0, ortho1, base, near, vacuum = _by_sector(params, [
            *((mu, z) for mu in mus for z in zs),
            (0, 0.8 + 0.3j), (1, 0.8 + 0.3j), (0, 1.1 - 0.6j), (0, 1.1 - 0.6j + 1e-6), (mu_vac, 0.0),
        ])

        # one moment pass over the set's states and the vacuum, on the basis of the
        # longest, and one dense reference at that width, applied to the whole stack
        stack = stack_coeffs([*states, vacuum])
        n_max = stack.shape[1] - 1
        moments = _moments(stack, algebra.build_fock_rep(params, n_max), "dressed")
        dense = dense_operators(params, n_max)
        dense_moments = dense_quadrature_moments(dense, stack, "dressed")
        dense_n, dense_n2 = dense_number_moments(dense, stack)
        lowered = _dense_lowered(dense, stack)
        residuals = eigen_residual(states)
        if lam == 2:  # one Poisson-integral pass over the set's states
            bessel = _bessel_norm_lambda2(params.beta_bar[1] - 1.0 + np.array([cs.mu for cs in states]),
                                          [abs(cs.z) for cs in states])
        for i, (cs, res) in enumerate(zip(states, residuals)):
            mu, z = cs.mu, cs.z
            ztag = f"{tag} mu={mu} z={z}"

            add(_check("cs-eigen-residual", ztag, res, 1e-10))

            w = lowered[i, :cs.coeffs.size] - lam * z * cs.coeffs
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

            mean_n, var_n = _number_moments(cs)
            add(_check("dual-route-expectations", ztag, [
                *np.abs(moments[i] - dense_moments[i]).ravel(),
                abs(mean_n - dense_n[i]), abs(var_n - (dense_n2[i] - dense_n[i] * dense_n[i])),
            ], 1e-11))

            add(_check("uncertainty-product", ztag,
                       uncertainty_rhs(params, mu) - moments[i, 1, 0] * moments[i, 1, 1], 1e-10))

            if lam == 2:
                add(_check("cs-bessel-normalization", ztag, abs(bessel[i] - cs.norm_factor) / cs.norm_factor, 1e-10))

            if undeformed:
                add(_check("cs-mittag-leffler-form", ztag, mittag_leffler_check(cs), 1e-12))

        # per-parameter (z-independent) checks
        v0, v1 = stack_coeffs([ortho0, ortho1])
        add(_check("cs-sector-orthogonality", tag, abs(complex(np.vdot(v0, v1))), 0.0))

        v0, v1 = stack_coeffs([base, near])
        add(_check("cs-label-continuity", tag, np.linalg.norm(v1 - v0), 1e-4))

        var_x, var_p = moments[-1, 1]
        bb = params.beta_bar
        want = (lam / 2.0) * (bb[mu_vac + 1] + bb[mu_vac])
        mtag = f"{tag} mu={mu_vac}"
        add(_check("vacuum-dispersions", mtag, [abs(var_x - want), abs(var_p - want)], 1e-12))
        # sector 0 meets the bound, every other sector clears it by 1e-6
        gap = var_x * var_p - uncertainty_rhs(params, mu_vac)
        value, bound = (abs(gap), 1e-12) if mu_vac == 0 else (-gap, -1e-6)
        add(_check("vacuum-uncertainty-floor", mtag, value, bound))
    return results


def _moment_devs(params, weight, mus, ks):
    """Relative moment errors of the radial weight(mu, y) over mus x ks: one integrator
    pass per mu over every k, each value divided by its target as moment_check does."""
    devs = []
    for mu in mus:
        values = _moment_integrals(partial(weight, mu), params.lam, ks)
        targets = [moment_target(params, mu, k).target for k in ks]
        devs += [abs(v - t) / t for v, t in zip(values, targets)]
    return devs


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
