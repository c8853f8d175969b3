import math
from fractions import Fraction

import numpy as np
import pytest

from cyclosc.algebra import (
    validate_params,
    energy,
    random_admissible_alpha,
)
from cyclosc.sga import (
    SgaRep,
    build_sga,
    extract_f_poly,
    extract_h_poly_and_casimir,
    closed_forms,
    _root_polys,
)
from cyclosc.verify import dense_operators
from cyclosc.cli import main

polyval = np.polynomial.polynomial.polyval
polyfromroots = np.polynomial.polynomial.polyfromroots


def _sga(lam, alpha):
    p = validate_params(lam, alpha)
    return p, build_sga(p, 3 * lam * lam + 2 * lam)


def _dense(lam, alpha):
    p = validate_params(lam, alpha)
    n_max = 3 * lam * lam + 2 * lam
    ops = dense_operators(p, n_max)
    j_plus = np.linalg.matrix_power(ops.a_dag, lam) / lam
    j_minus = np.linalg.matrix_power(ops.a, lam) / lam
    return p, n_max, (j_plus, j_minus, ops.h0 / lam)


def test_build_requires_four_periods():
    p = validate_params(2, [0.0, 0.0])
    with pytest.raises(ValueError):
        build_sga(p, 7)


def test_ladder_commutators_interior():
    p, n_max, (j_plus, j_minus, j_zero) = _dense(3, [-0.5, 0.25, 0.25])
    m = n_max - 3
    comm = j_zero @ j_plus - j_plus @ j_zero
    assert np.max(np.abs((comm - j_plus)[:m, :m])) < 1e-10
    comm = j_zero @ j_minus - j_minus @ j_zero
    assert np.max(np.abs((comm + j_minus)[:m, :m])) < 1e-10


def test_jminus_kills_sector_floors():
    p, n_max, (j_plus, j_minus, j_zero) = _dense(4, [0.3, -0.1, 0.2, -0.4])
    for mu in range(4):
        assert np.linalg.norm(j_minus[:, mu]) == 0.0


def test_lambda2_closed_forms():
    for a0 in (-0.5, 0.0, 0.5, 2.0):
        p, sga = _sga(2, [a0, -a0])
        s = extract_f_poly(sga)
        poly = extract_h_poly_and_casimir(sga, s)
        assert np.allclose(s, [[0.0, -2.0]] * 2, atol=1e-10)
        assert np.allclose(poly.t, [[0.0, -1.0, -1.0]] * 2, atol=1e-10)
        expect_c = [(1 + a0) * (3 - a0) / 16, (1 - a0) * (3 + a0) / 16]
        assert np.allclose(poly.c, expect_c, atol=1e-10)
        cf_s, cf_t, cf_c = closed_forms(p)
        # shapes first: allclose would broadcast a (lambda,)-row slip away
        assert (cf_s.shape, cf_t.shape, cf_c.shape) == ((2, 2), (2, 3), (2,))
        assert np.allclose(cf_s, s, atol=1e-10)
        assert np.allclose(cf_t, poly.t, atol=1e-10)
        assert np.allclose(cf_c, expect_c, atol=1e-12)


def test_lambda3_closed_forms_match_extraction():
    rng = np.random.default_rng(11)
    for _ in range(6):
        p, sga = _sga(3, random_admissible_alpha(3, rng))
        s = extract_f_poly(sga)
        poly = extract_h_poly_and_casimir(sga, s)
        cf_s, cf_t, cf_c = closed_forms(p)
        assert (cf_s.shape, cf_t.shape, cf_c.shape) == ((3, 3), (3, 4), (3,))
        assert np.max(np.abs(s - cf_s)) < 1e-9
        assert np.max(np.abs(poly.t - cf_t)) < 1e-9
        assert np.max(np.abs(poly.c - cf_c)) < 1e-9


def test_lambda3_undeformed_values():
    p, sga = _sga(3, [0.0, 0.0, 0.0])
    s = extract_f_poly(sga)
    poly = extract_h_poly_and_casimir(sga, s)
    assert np.allclose(s, [[-5.0 / 12.0, 0.0, -9.0]] * 3, atol=1e-10)
    assert np.allclose(poly.c, [5.0 / 24.0] * 3, atol=1e-10)


def test_lambda2_undeformed_casimir():
    p, sga = _sga(2, [0.0, 0.0])
    s = extract_f_poly(sga)
    poly = extract_h_poly_and_casimir(sga, s)
    assert np.allclose(poly.c, [3.0 / 16.0] * 2, atol=1e-12)


def test_no_closed_forms_beyond_lambda3():
    p = validate_params(4, [0.0] * 4)
    assert closed_forms(p) is None


def test_lowest_j0_eigenvalue_per_sector():
    p, n_max, (j_plus, j_minus, j_zero) = _dense(3, [-0.9, -0.5, 1.4])
    for mu in range(3):
        assert abs(j_zero[mu, mu] - (mu + p.gamma[mu] + 0.5) / 3.0) < 1e-13


def test_casimir_constant_along_sectors():
    p, sga = _sga(4, [0.3, -0.1, 0.2, -0.4])
    s = extract_f_poly(sga)
    poly = extract_h_poly_and_casimir(sga, s)
    _, _, (j_plus, j_minus, _) = _dense(4, [0.3, -0.1, 0.2, -0.4])
    g = np.diag(j_minus @ j_plus)
    for mu in range(4):
        vals = [
            g[k * 4 + mu] + polyval(energy(p, k * 4 + mu) / 4.0, poly.t[mu])
            for k in range(4)
        ]
        assert np.std(vals) < 1e-9
        assert abs(vals[0] - poly.c[mu]) < 1e-9


def test_h_pinned_at_zero():
    rng = np.random.default_rng(23)
    for lam in (2, 3, 4):
        p, sga = _sga(lam, random_admissible_alpha(lam, rng))
        poly = extract_h_poly_and_casimir(sga, extract_f_poly(sga))
        assert np.max(np.abs(poly.t[:, 0])) == 0.0


def test_tampered_representation_detected():
    p = validate_params(2, [0.5, -0.5])
    sga = build_sga(p, 16)
    bad = sga.jp_jm.copy()
    bad[6] *= 1.0 + 1e-5
    tampered = SgaRep(sga.params, sga.j0, bad, sga.jm_jp)
    with pytest.raises(RuntimeError, match="sector 0"):
        s = extract_f_poly(tampered)
        extract_h_poly_and_casimir(tampered, s)


def test_each_sector_keeps_its_own_validation_levels():
    # n_max = 40 at lambda = 4: sector 0 validates up to k = 9 (level 36),
    # sectors 1-3 only up to k = 8, so level 36 is checked by sector 0 alone
    p = validate_params(4, [0] * 4)
    sga = build_sga(p, 40)
    bad = sga.jp_jm.copy()
    bad[36] *= 1.0 + 1e-5
    tampered = SgaRep(sga.params, sga.j0, bad, sga.jm_jp)
    with pytest.raises(RuntimeError, match="on sector 0 "):
        extract_f_poly(tampered)
    with pytest.raises(RuntimeError, match="on sector 0 "):
        extract_h_poly_and_casimir(tampered, extract_f_poly(sga))


def _loop_root_poly(p, mu, shifts):
    roots = [(p.gamma[mu] + 0.5 - j - p.beta[(mu + j) % p.lam]) / p.lam for j in shifts]
    return float(p.lam) ** (p.lam - 2) * polyfromroots(roots)


def test_root_expansion_matches_per_sector_polyfromroots():
    rng = np.random.default_rng(7)
    for lam in range(2, 25):
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng), random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            for shifts in (-np.arange(lam), np.arange(1, lam + 1)):
                got = _root_polys(p, shifts)
                for mu in range(lam):
                    want = _loop_root_poly(p, mu, shifts.tolist())
                    bound = 1e-14 * np.sum(np.abs(want) * (3.0 * lam) ** np.arange(lam + 1))
                    assert np.max(np.abs(got[mu] - want)) <= bound, (lam, alpha, mu)


def test_extraction_needs_enough_levels():
    p = validate_params(4, [0.0] * 4)
    sga = build_sga(p, 16)  # passes the builder floor ...
    with pytest.raises(ValueError):        # ... but leaves too few fit nodes
        extract_f_poly(sga)


def _rational_alpha(lam, rng):
    # alpha on the grid k/20 with every F(mu) > 1/20; the last entry closes the sum
    while True:
        head = [Fraction(int(k), 20) for k in rng.integers(-17, 18, size=lam - 1)]
        alpha = head + [-sum(head)]
        if all(sum(alpha[:mu]) + mu > Fraction(1, 20) for mu in range(1, lam)):
            return alpha


def _exact_levels(alpha):
    """At every level k lam + mu, k <= 3 lam - 1, yield mu, J_0 = X / D and the
    numerators of J_+ J_- and J_- J_+ = prod F(n -+ j) / lam^2 over their common
    denominator Q, all as integers (alpha on the grid 1/20, F = 0 from level 0 down)."""
    lam = len(alpha)
    beta20 = [int(20 * sum(alpha[:mu])) for mu in range(lam)] + [0]

    def f20(n):
        return 20 * n + beta20[n % lam] if n > 0 else 0

    q = 20 ** lam * lam * lam
    for mu in range(lam):
        for k in range(3 * lam):
            n = k * lam + mu
            x = (40 * n + beta20[mu] + beta20[mu + 1] + 20, 40 * lam)
            low = math.prod(f20(n - j) for j in range(lam))
            high = math.prod(f20(n + j) for j in range(1, lam + 1))
            yield mu, x, low, high, q


def _agrees(coeffs, x, want):
    """|sum c_i x^i - w| <= 1e-12 sum |c_i| |x|^i, exactly, for float c_i and
    x = X / D, w = W / Q given as integer pairs."""
    (xn, xd), (wn, wd) = x, want
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    scale = max(d for _, d in ratios)
    deg = len(coeffs) - 1
    terms = [num * (scale // d) * xn ** i * xd ** (deg - i) for i, (num, d) in enumerate(ratios)]
    # both sides times scale * D^deg * Q
    err = abs(sum(terms) * wd - wn * scale * xd ** deg)
    return 10 ** 12 * err <= sum(abs(t) for t in terms) * wd


@pytest.mark.parametrize("lam", range(2, 25))
def test_exact_extraction_through_cli(lam, capsys):
    rng = np.random.default_rng(lam)
    for alpha in ([Fraction(0)] * lam, _rational_alpha(lam, rng), _rational_alpha(lam, rng)):
        argv = ["sga", "--lambda", str(lam), "--format", "csv"]
        if any(alpha):
            argv.append("--alpha=" + ",".join(repr(float(a)) for a in alpha))
        assert main(argv) == 0
        got = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            kind, mu, power, value = line.split(",")
            got[(kind, int(mu), int(power))] = float(value)
        for mu, x, low, high, q in _exact_levels(alpha):
            f = [got[("f", mu, i)] for i in range(lam)]
            assert _agrees(f, x, (low - high, q)), (alpha, mu, x)
            g = [got[("casimir", mu, 0)]] + [-got[("h", mu, i)] for i in range(1, lam + 1)]
            assert _agrees(g, x, (high, q)), (alpha, mu, x)
