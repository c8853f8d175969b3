import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import special

from cyclosc import coherent
from cyclosc.algebra import validate_params, random_admissible_alpha, structure_function
from cyclosc.cli import main
from cyclosc.verify import dense_operators, _brute_norm, mittag_leffler_check
from cyclosc.coherent import (
    TruncationError,
    build_cs,
    eigen_residual,
    stack_coeffs,
)


def test_zero_label_is_sector_floor():
    p = validate_params(3, [0.0] * 3)
    cs = build_cs(p, 2, 0.0)
    v = np.zeros(cs.n_max + 1, dtype=complex)
    v[2] = 1.0
    assert np.array_equal(cs.coeffs, v)
    assert cs.norm_factor == 1.0
    assert cs.tail_bound == 0.0


def test_support_respects_sector():
    p = validate_params(3, [-0.5, 0.25, 0.25])
    cs = build_cs(p, 1, 1.3 - 0.4j)
    idx = np.nonzero(cs.coeffs)[0]
    assert idx.size > 3
    assert np.all(idx % 3 == 1)


def test_unit_norm():
    p = validate_params(4, [0.3, -0.1, 0.2, -0.4])
    for mu in range(4):
        cs = build_cs(p, mu, 1.7 + 0.3j)
        assert abs(np.linalg.norm(cs.coeffs) - 1.0) < 1e-12


def test_normalization_against_brute_sum():
    # verify's partial sums of the squared coefficient series via the
    # term-ratio recurrence; no shared code with build_cs's log-space norm
    rng = np.random.default_rng(5)
    for _ in range(12):
        lam = int(rng.integers(2, 5))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        z = complex(rng.uniform(0.2, 2.0), rng.uniform(-1.0, 1.0))
        cs = build_cs(p, mu, z)
        total = _brute_norm(p, mu, z)
        assert abs(total - cs.norm_factor) / total < 1e-11


def test_normalization_lambda2_undeformed():
    # build_cs's log-space norm and verify's term-ratio series reference
    p = validate_params(2, [0.0, 0.0])
    for mu, want in ((0, math.cosh(2.6)), (1, math.sinh(2.6) / 2.6)):
        for got in (build_cs(p, mu, 1.3).norm_factor, _brute_norm(p, mu, 1.3)):
            assert math.isclose(got, want, rel_tol=1e-12)


def test_normalization_bessel_form_lambda2():
    for a0 in (-0.5, 0.5, 2.0):
        p = validate_params(2, [a0, -a0])
        for mu in (0, 1):
            for r in (0.4, 1.0, 2.5):
                nu = p.beta_bar[1] - 1.0 + mu
                # I_nu(2r) = ive(nu, 2r) e^{2r}, independent of both series routes
                ref = math.gamma(nu + 1.0) * r ** (-nu) * special.ive(nu, 2.0 * r) * math.exp(2.0 * r)
                for got in (build_cs(p, mu, r).norm_factor, _brute_norm(p, mu, r)):
                    assert math.isclose(got, ref, rel_tol=1e-10)


def test_eigenvector_property():
    fixtures = {
        2: [0.7, -0.7],
        3: [-0.5, 0.25, 0.25],
        4: [0.3, -0.1, 0.2, -0.4],
    }
    for lam, alpha in fixtures.items():
        for params in (validate_params(lam, [0.0] * lam), validate_params(lam, alpha)):
            for mu in range(lam):
                for z in (0.5 + 0j, 2 + 1j, -3 + 0j):
                    cs = build_cs(params, mu, z)
                    assert eigen_residual(cs) < 1e-10


def test_eigen_residual_equivalent_form():
    p = validate_params(3, [-0.5, 0.25, 0.25])
    z = 1.2 + 0.7j
    cs = build_cs(p, 0, z)
    r1 = eigen_residual(cs)
    w = np.linalg.matrix_power(dense_operators(p, cs.n_max).a, 3) @ cs.coeffs - 3 * z * cs.coeffs
    w[cs.n_max - 2:] = 0.0
    r2 = np.linalg.norm(w) / 3.0 / max(abs(z), 1.0)
    assert abs(r1 - r2) < 1e-13


def test_zero_label_state_is_exact_for_both_ladder_routes():
    # both read the one J_+ J_- diagonal; at z = 0 neither may take log 0
    for lam in (2, 3, 4, 150):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(min(lam, 4)):
            cs = build_cs(p, mu, 0)
            assert eigen_residual(cs) == 0.0 and mittag_leffler_check(cs) == 0.0


def test_ladder_product_overflow_is_named():
    # J_+ J_- on level 2 lambda leaves the double range from lambda = 136 (alpha = 0, |z| = 1);
    # the Mittag-Leffler rebuild reads no J_+ J_- and still checks the state
    cs = build_cs(validate_params(150, [0.0] * 150), 0, 1.0)
    with pytest.raises(RuntimeError, match=r"^J_\+ J_- overflows double precision at lambda = 150, level 300$"):
        eigen_residual(cs)
    assert mittag_leffler_check(cs) <= 1e-12


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_eigen_residual_of_a_list_is_each_states_own(lam):
    # one J_+ J_- diagonal for the list, read at its top level, gives every state's residual
    for p in (validate_params(lam, [0.0] * lam),
              validate_params(lam, random_admissible_alpha(lam, np.random.default_rng([lam, 25])))):
        states = [build_cs(p, mu, z) for mu in range(lam) for z in (0.0, 0.5, 2 + 1j, -3.0, 0.3 - 4j)]
        assert len({cs.n_max for cs in states}) > 1
        got = eigen_residual(states)
        assert isinstance(got, list) and all(isinstance(r, float) for r in got)
        assert [r.hex() for r in got] == [eigen_residual(cs).hex() for cs in states]
        assert eigen_residual(states[3:4]) == [eigen_residual(states[3])]


def test_eigen_residual_of_a_list_names_its_top_level():
    # alone, the z = 0 state reads no product above level lambda; in a list the overflow
    # names the level of the list's longest sector slice
    p = validate_params(150, [0.0] * 150)
    low, high = build_cs(p, 0, 0.0), build_cs(p, 0, 1.0)
    assert eigen_residual(low) == 0.0
    with pytest.raises(RuntimeError, match=r"^J_\+ J_- overflows double precision at lambda = 150, level 300$"):
        eigen_residual([low, high])
    with pytest.raises(ValueError, match="one parameter set"):
        eigen_residual([low, build_cs(validate_params(150, [0.0] * 150), 0, 0.0)])


def test_mittag_leffler_check_at_large_sector_labels():
    # z = 0 is |mu> exactly, however large Gamma(mu + 1) is
    assert mittag_leffler_check(build_cs(validate_params(150, [0.0] * 150), 149, 0)) == 0.0
    p = validate_params(180, [0.0] * 180)
    for mu in range(168, 180):
        assert mittag_leffler_check(build_cs(p, mu, 0)) == 0.0
    # E_{180,176}(8100) ~ 1/175! = 8.9e-319 is subnormal: named, not a false deviation
    with pytest.raises(RuntimeError, match=r"^E_180,176\(lambda\^2 \|z\|\^2\) = 8\.89e-319 is not a normal double$"):
        mittag_leffler_check(build_cs(p, 175, 0.5))


def test_factorial_coefficients_undeformed():
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            for z in (0.5 + 0j, 1 + 0.5j):
                cs = build_cs(p, mu, z)
                scale = math.sqrt(cs.norm_factor)
                for k in range((cs.n_max - mu) // lam + 1):
                    d = (lam * z) ** k * math.sqrt(
                        math.gamma(mu + 1) / math.gamma(k * lam + mu + 1)
                    )
                    assert abs(cs.coeffs[k * lam + mu] * scale - d) < 1e-12


def test_mittag_leffler_route_undeformed():
    for lam in (2, 3, 4):
        p = validate_params(lam, [0.0] * lam)
        for z in (0.5 + 0j, 1 + 0.5j):
            for mu in range(lam):
                assert mittag_leffler_check(build_cs(p, mu, z)) < 1e-12


def test_mittag_leffler_check_requires_zero_alpha():
    p = validate_params(2, [0.5, -0.5])
    with pytest.raises(ValueError):
        mittag_leffler_check(build_cs(p, 0, 1.0))


def test_two_boson_realization_lambda2():
    # lambda = 2 coefficients carry rising-factorial weights of twice the lowest
    # j0 eigenvalue, 2*kappa_mu = beta_bar_1 + mu
    rng = np.random.default_rng(9)
    for _ in range(5):
        a0 = float(rng.uniform(-0.8, 2.0))
        p = validate_params(2, [a0, -a0])
        mu = int(rng.integers(0, 2))
        z = complex(rng.uniform(0.3, 1.5), rng.uniform(-1.0, 1.0))
        two_kappa = 2.0 * (mu + p.gamma[mu] + 0.5) / 2.0
        assert abs(two_kappa - (p.beta_bar[1] + mu)) < 1e-14
        cs = build_cs(p, mu, z)
        scale = math.sqrt(cs.norm_factor)
        for k in range((cs.n_max - mu) // 2 + 1):
            d = z ** k / math.sqrt(math.factorial(k) * math.prod(two_kappa + j for j in range(k)))
            assert abs(cs.coeffs[2 * k + mu] * scale - d) < 1e-12


def test_phase_convention():
    p = validate_params(2, [0.5, -0.5])
    cs = build_cs(p, 0, cmath.rect(1.1, 2.0))
    assert cs.coeffs[0].imag == 0.0
    assert cs.coeffs[0].real > 0.0
    for k in (1, 2, 5):
        drift = cmath.phase(cs.coeffs[2 * k]) - k * 2.0
        assert abs(cmath.exp(1j * drift) - 1.0) < 1e-12


@pytest.mark.parametrize("z", [complex("nan"), complex(float("inf"), 0.0), complex(1.0, float("-inf"))])
def test_nonfinite_label_is_bad_input(z):
    p = validate_params(2, [0.5, -0.5])
    for mu in (0, 1):
        with pytest.raises(ValueError, match="finite"):
            build_cs(p, mu, z)


def test_sector_orthogonality():
    p = validate_params(3, [0.0] * 3)
    va, vb = stack_coeffs([build_cs(p, 0, 1 + 1j), build_cs(p, 1, 1 + 1j)])
    assert abs(np.vdot(va, vb)) == 0.0


def test_continuity_in_label():
    p = validate_params(4, [0.3, -0.1, 0.2, -0.4])
    base, near = stack_coeffs([build_cs(p, 1, 0.9 + 0.2j), build_cs(p, 1, 0.9 + 0.2j + 1e-6)])
    assert np.linalg.norm(near - base) < 1e-4


def test_stack_coeffs_pads_with_exact_zeros():
    p = validate_params(3, [-0.5, 0.25, 0.25])
    states = [build_cs(p, mu, z) for mu, z in ((0, 0.0), (2, 4.0 - 1.0j), (1, 0.3j), (2, 0.0))]
    stack = stack_coeffs(states)
    sizes = [cs.coeffs.size for cs in states]
    assert len(set(sizes)) > 1
    assert stack.shape == (4, max(sizes))
    for row, cs in zip(stack, states):
        assert np.array_equal(row[:cs.coeffs.size], cs.coeffs)
        assert np.all(row[cs.coeffs.size:] == 0.0)


_GRID_RADII = (1e-300, 1e-8, 0.5, 4.0, 90.0, 355.0)


def _grid_states():
    """(z = 0 state, state) over lambda = 2..6 and 12, alpha = 0 and one
    random draw, every sector, and |z| from 1e-300 to just inside the
    lambda = 2 N_mu boundary."""
    rng = np.random.default_rng(31)
    for lam in (2, 3, 4, 5, 6, 12):
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            for mu in range(lam):
                vac = build_cs(p, mu, 0.0)
                for r in _GRID_RADII:
                    yield vac, build_cs(p, mu, cmath.rect(r, rng.uniform(-math.pi, math.pi)))


def test_vacuum_is_shortest_of_its_sector():
    # squeeze_ratios stacks a state over its sector's z = 0 state at the state's truncation
    for vac, cs in _grid_states():
        assert vac.n_max <= cs.n_max, (cs.params.lam, cs.mu, abs(cs.z))


def test_tail_bound_reported():
    p = validate_params(2, [0.5, -0.5])
    cs = build_cs(p, 0, 2.0)
    assert 0.0 <= cs.tail_bound < 1e-20
    # one stop rule: the dropped terms always fall geometrically
    for _, cs in _grid_states():
        assert math.isfinite(cs.tail_bound)
        assert 0.0 <= cs.tail_bound < 1e-30, (cs.params.lam, cs.mu, abs(cs.z))


def _lgamma_log_magnitudes(p, mu, abs_z, k_max):
    """log|d_k|, k = 0..k_max, from k! and the Pochhammer symbols of the
    denominator parameters, one lgamma sum per k (the pre-log-space route)."""
    lam, bb = p.lam, p.beta_bar
    ln_w = math.log(abs_z / lam ** ((lam - 2) / 2.0))
    out = []
    for k in range(k_max + 1):
        val = math.lgamma(k + 1)
        for nu in range(1, mu + 1):
            val += math.lgamma(bb[nu] + 1 + k) - math.lgamma(bb[nu] + 1)
        for nup in range(mu + 1, lam):
            val += math.lgamma(bb[nup] + k) - math.lgamma(bb[nup])
        out.append(k * ln_w - 0.5 * val)
    return np.array(out)


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
def test_log_space_coefficients_match_lgamma_route(lam):
    rng = np.random.default_rng(100 + lam)
    for p in (validate_params(lam, [0.0] * lam), validate_params(lam, random_admissible_alpha(lam, rng))):
        for mu in range(lam):
            for z in (0.3, 2.5 + 1.0j, cmath.rect(17.0, -2.0), cmath.rect(100.0, 0.7)):
                cs = build_cs(p, mu, z)
                k_last = (cs.n_max - mu) // lam
                log_m = _lgamma_log_magnitudes(p, mu, abs(z), k_last)
                log_norm = float(np.logaddexp.reduce(2.0 * log_m))
                ref = np.exp(log_m - 0.5 * log_norm) * (z / abs(z)) ** np.arange(k_last + 1)
                assert np.max(np.abs(cs.coeffs[mu::lam] - ref)) < 1e-12
                assert abs(math.log(cs.norm_factor) - log_norm) < 1e-11


def test_large_labels_built_by_default():
    # representable up to the N_mu overflow at |z| = 355.2, with no level cap on the way
    p = validate_params(2, [0.0, 0.0])
    for r, n_max in ((150.0, 526), (300.0, 912), (355.0, 1046)):
        cs = build_cs(p, 0, r)
        assert cs.n_max == n_max
        assert math.isfinite(cs.norm_factor)
        assert abs(np.linalg.norm(cs.coeffs) - 1.0) < 1e-12


def test_large_label_against_mpmath():
    # lambda = 2, alpha = 0: d_k = (2z)^k / sqrt((2k)!), N_0 = cosh(2|z|)
    p = validate_params(2, [0.0, 0.0])
    cs = build_cs(p, 0, 340.0)
    with mpmath.workdps(40):
        two_z = mpmath.mpf(680)
        scale = mpmath.sqrt(mpmath.cosh(two_z))
        ref = np.array([float(two_z ** k / mpmath.sqrt(mpmath.factorial(2 * k)) / scale)
                        for k in range(cs.n_max // 2 + 1)])
    assert np.max(np.abs(cs.coeffs[0::2] - ref)) < 1e-11 * ref.max()
    assert math.isfinite(cs.norm_factor)


def test_norm_overflow_is_named():
    p = validate_params(2, [0.0, 0.0])
    with pytest.raises(TruncationError, match=r"normalization N_0 >= exp\(\d+\.?\d*\) .* overflows double precision"):
        build_cs(p, 0, 400.0)


@pytest.mark.parametrize("lam", [2, 3])
def test_overflowing_label_on_a_line_is_built_once(lam, monkeypatch):
    # the line names the overflow with the text its label raises alone, from the same
    # number of structure_function passes: the label is not rebuilt to word the error
    p = validate_params(lam, [0.0] * lam)
    calls = []

    def counted(params, n):
        calls.append(len(n))
        return structure_function(params, n)

    monkeypatch.setattr(coherent, "structure_function", counted)
    big = 400.0 if lam == 2 else 7000.0
    with pytest.raises(TruncationError) as alone:
        build_cs(p, 0, big)
    n_alone, calls[:] = len(calls), []
    for line in ([1.5, big], [0.0, 2 + 1j, big, big * 1j]):
        with pytest.raises(TruncationError) as on_line:
            coherent.build_states(p, 0, line)
        assert str(on_line.value) == str(alone.value)
        assert len(calls) == n_alone, line
        calls[:] = []


_LOG_MAX = math.log(np.finfo(float).max)


def _full_block_scan(p, mu, z, levels=4096):
    """The adaptive stop test applied over one fixed block of Fock levels, as
    build_cs scanned before its block was sized from |z|.  Returns
    (log N_mu over the block, coefficients), the coefficients None when N_mu
    overflows."""
    lam = p.lam
    top = levels + 2 * lam
    log_f = np.cumsum(np.log(structure_function(p, np.arange(mu + 1, top + 1))))
    log_mag = np.arange((top - mu) // lam + 1) * (math.log(lam) + math.log(abs(z)))
    log_mag[1:] -= 0.5 * log_f[lam - 1::lam]
    log_acc = np.logaddexp.accumulate(2.0 * log_mag)
    k_lo = -((mu - max(4 * lam, mu + 6)) // lam)
    small = np.flatnonzero(log_mag[k_lo + 1:-1] < math.log(1e-16) + 0.5 * log_acc[k_lo:-2])
    if not small.size or log_acc[k_lo + small[0] + 2] > _LOG_MAX:
        assert log_acc[-1] > _LOG_MAX, "block too short for the reference"
        return log_acc[-1], None
    k_last = k_lo + int(small[0])
    log_norm = log_acc[k_last + 2]
    phases = np.full(k_last + 1, z / abs(z))
    phases[0] = 1.0
    coeffs = np.zeros(k_last * lam + mu + 1, dtype=complex)
    coeffs[mu::lam] = np.exp(log_mag[:k_last + 1] - 0.5 * log_norm) * np.cumprod(phases)
    return log_acc[-1], coeffs


@pytest.mark.parametrize("first_block", ["sized", "one-term"])
def test_adaptive_truncation_matches_full_block_scan(first_block, monkeypatch):
    if first_block == "one-term":
        # a first block of about one peak width exercises the doubling
        monkeypatch.setattr(coherent, "_K_RISE", 1)
    rng = np.random.default_rng(2024)
    for lam in range(2, 9):
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            for mu in range(lam):
                # bisect log|z| for the N_mu overflow boundary of the reference
                lo, hi = 0.0, 80.0
                for _ in range(40):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if _full_block_scan(p, mu, math.exp(mid))[0] <= _LOG_MAX else (lo, mid)
                edge = math.exp(lo)
                for r in [*np.geomspace(1e-3, edge, 10), edge * (1 - 1e-9), edge * 1.01]:
                    z = cmath.rect(r, rng.uniform(-math.pi, math.pi))
                    _, ref = _full_block_scan(p, mu, z)
                    if ref is None:
                        with pytest.raises(TruncationError, match="overflows double precision"):
                            build_cs(p, mu, z)
                        continue
                    cs = build_cs(p, mu, z)
                    assert cs.n_max == ref.size - 1, (lam, mu, r)
                    assert np.array_equal(cs.coeffs, ref), (lam, mu, r)


def _per_point_state(p, mu, z):
    """(coeffs, norm_factor, tail_bound) of |z; mu> built alone, as build_cs built
    each state before build_states shared a block between labels: a block sized
    from this |z|, doubled until its stop test fires or its sum overflows."""
    lam = p.lam
    floor = max(4 * lam, mu + 6)
    if z == 0:
        coeffs = np.zeros(floor + 1, dtype=complex)
        coeffs[mu] = 1.0
        return coeffs, 1.0, 0.0
    k_lo = -((mu - floor) // lam)
    log_k_star = (2.0 * math.log(abs(z)) - (lam - 2) * math.log(lam)) / lam
    k_star = math.exp(min(log_k_star, math.log(coherent._K_RISE)))
    k_top = max(int(k_star + math.sqrt(150.0 * k_star / lam) + 40.0 / lam), k_lo) + 2
    while True:
        log_f = np.cumsum(np.log(structure_function(p, np.arange(mu + 1, k_top * lam + mu + 1))))
        log_mag = np.arange(k_top + 1) * (math.log(lam) + math.log(abs(z)))
        log_mag[1:] -= 0.5 * log_f[lam - 1::lam]
        log_acc = np.logaddexp.accumulate(2.0 * log_mag)
        small = np.flatnonzero(log_mag[k_lo + 1:k_top] < math.log(1e-16) + 0.5 * log_acc[k_lo:k_top - 1])
        if small.size or log_acc[-1] > _LOG_MAX:
            break
        k_top *= 2
    k_last = k_lo + int(small[0]) if small.size else k_top - 2
    log_norm = float(log_acc[k_last + 2])
    if log_norm > _LOG_MAX:  # the text names the first running sum past _LOG_MAX
        raise TruncationError(
            f"normalization N_{mu} >= exp({log_acc[np.argmax(log_acc > _LOG_MAX)]:.6g}) at |z| = {abs(z):.6g} "
            "overflows double precision"
        )
    r = math.exp(log_mag[k_last + 2] - log_mag[k_last + 1])
    tail_bound = math.exp(2.0 * log_mag[k_last + 1] - math.log1p(-r * r) - log_norm)
    phases = np.full(k_last + 1, z / abs(z))
    phases[0] = 1.0
    coeffs = np.zeros(k_last * lam + mu + 1, dtype=complex)
    coeffs[mu::lam] = np.exp(log_mag[:k_last + 1] - 0.5 * log_norm) * np.cumprod(phases)
    return coeffs, math.exp(log_norm), tail_bound


def _overflow_edge(p, mu):
    """The largest |z| (to 1e-12 in log|z|) whose state the per-point build still normalizes."""
    lo, hi = -7.0, 200.0
    while hi - lo > 1e-12 * max(1.0, abs(hi)):
        mid = 0.5 * (lo + hi)
        try:
            _per_point_state(p, mu, math.exp(mid))
            lo = mid
        except TruncationError:
            hi = mid
    return math.exp(lo)


@pytest.mark.parametrize("first_block", ["sized", "one-term"])
def test_build_states_rows_equal_build_cs(first_block, monkeypatch):
    # every row of a shared block is bit for bit the state built alone, whatever
    # the other labels on the line
    if first_block == "one-term":
        # blocks doubled past a row's own last block: its stop and overflow must not move
        monkeypatch.setattr(coherent, "_K_RISE", 1)
    rng = np.random.default_rng(22)
    rows = 0
    for lam in [*range(2, 13), 24]:
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            for mu in range(lam):
                edge = _overflow_edge(p, mu)
                n = int(rng.integers(1, 41))
                radii = np.geomspace(1e-3, edge * (1 - 1e-9), n)
                zs = [cmath.rect(r, rng.uniform(-math.pi, math.pi)) for r in rng.permutation(radii)]
                zs.insert(int(rng.integers(0, n + 1)), 0j)
                states = coherent.build_states(p, mu, zs)
                assert [cs.z for cs in states] == zs
                for cs in states:
                    coeffs, norm_factor, tail_bound = _per_point_state(p, mu, cs.z)
                    assert cs.n_max == coeffs.size - 1, (lam, mu, cs.z)
                    assert np.array_equal(cs.coeffs, coeffs), (lam, mu, cs.z)
                    assert cs.norm_factor == norm_factor and cs.tail_bound == tail_bound, (lam, mu, cs.z)
                    rows += 1
                # a line that leaves the double range fails at its first such point, with its own text
                at = min(3, len(zs))
                over = [*zs[:at], edge * 1.01 * 1j, edge * 1e3, *zs[at:]]
                with pytest.raises(TruncationError) as failed:
                    _per_point_state(p, mu, over[at])
                with pytest.raises(TruncationError) as got:
                    coherent.build_states(p, mu, over)
                assert str(got.value) == str(failed.value), (lam, mu)
    assert rows > 2000


@pytest.mark.parametrize("lam, r", [
    (2, 356.0), (2, 1e6), (2, 1e150), (2, 1e300),
    (3, 1e6), (3, 1e150), (3, 1e300),
    (12, 1e150), (12, 1e300),
])
def test_huge_label_fails_fast(lam, r, capsys):
    # every radius past the lambda's N_mu boundary (355.2, 6318, between 1e16 and 1e17)
    p = validate_params(lam, [0.0] * lam)
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError, match=r"N_0 >= exp\(.*\) .* overflows double precision"):
            build_cs(p, 0, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    code = main(["sweep", "--lambda", str(lam), "--quantity", "X",
                 "--r-from", repr(r), "--r-to", repr(2 * r), "--steps", "2"])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert len(err) == 1 and err[0].startswith("error:") and "overflows double precision" in err[0]


@pytest.mark.parametrize("lam", [2, 3, 12])
def test_infinite_modulus_is_bad_input(lam, capsys):
    # finite parts whose modulus overflows: |z| = inf has no log-space terms
    p = validate_params(lam, [0.0] * lam)
    z = complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match=r"\|z\| must be finite"):
        build_cs(p, 0, z)
    code = main(["sweep", "--lambda", str(lam), "--quantity", "X",
                 "--z-from", "1.5e308+1.5e308j", "--z-to", "0", "--steps", "2"])
    err = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(err) == 1 and err[0].startswith("error: |z| must be finite")
