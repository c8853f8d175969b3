import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cyclosc.algebra import (
    validate_params,
    energy,
    structure_function,
    ladder_products,
    random_admissible_alpha,
)
from cyclosc.sga import (
    build_sga,
    closed_forms,
    _fit,
    _root_polys,
)
from cyclosc.verify import dense_operators
from cyclosc.cli import main

polyval = np.polynomial.polynomial.polyval
polyfromroots = np.polynomial.polynomial.polyfromroots


def _sga(lam, alpha):
    p = validate_params(lam, alpha)
    return p, build_sga(p)


def _validation_levels(lam, alpha):
    """J_0, J_+ J_- and J_- J_+ at the levels k lambda + mu (row mu, k <= 3 lambda - 1),
    the products taken factor by factor from F, lowest level first (F = 0 from
    level 0 down): F(n+1-lambda) ... F(n) / lambda^2 and F(n+1) ... F(n+lambda) / lambda^2."""
    p = validate_params(lam, alpha)
    ns = np.arange(3 * lam) * lam + np.arange(lam)[:, None]
    f = lambda n: structure_function(p, np.maximum(n, 0))
    low = high = np.full(ns.shape, 1.0 / lam ** 2)
    for j in range(1, lam + 1):
        low = low * f(ns + j - lam)
        high = high * f(ns + j)
    return p, energy(p, ns) / lam, low, high


def _fit_one(p, x, low, high):
    """sga._fit on a stack of one set: its SgaPolynomials, or its RuntimeError raised."""
    (got,) = _fit([p], [x], [low], [high])
    if isinstance(got, RuntimeError):
        raise got
    return got


def _dense(lam, alpha):
    p = validate_params(lam, alpha)
    n_max = 3 * lam * lam + 2 * lam
    ops = dense_operators(p, n_max)
    j_plus = np.linalg.matrix_power(ops.a_dag, lam) / lam
    j_minus = np.linalg.matrix_power(ops.a, lam) / lam
    return p, n_max, (j_plus, j_minus, 0.5 * (ops.a @ ops.a_dag + ops.a_dag @ ops.a) / lam)


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
        p, poly = _sga(2, [a0, -a0])
        s = poly.s
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
        p, poly = _sga(3, random_admissible_alpha(3, rng))
        cf_s, cf_t, cf_c = closed_forms(p)
        assert (cf_s.shape, cf_t.shape, cf_c.shape) == ((3, 3), (3, 4), (3,))
        assert np.max(np.abs(poly.s - cf_s)) < 1e-9
        assert np.max(np.abs(poly.t - cf_t)) < 1e-9
        assert np.max(np.abs(poly.c - cf_c)) < 1e-9


def test_lambda3_undeformed_values():
    p, poly = _sga(3, [0.0, 0.0, 0.0])
    assert np.allclose(poly.s, [[-5.0 / 12.0, 0.0, -9.0]] * 3, atol=1e-10)
    assert np.allclose(poly.c, [5.0 / 24.0] * 3, atol=1e-10)


def test_lambda2_undeformed_casimir():
    p, poly = _sga(2, [0.0, 0.0])
    assert np.allclose(poly.c, [3.0 / 16.0] * 2, atol=1e-12)


def test_no_closed_forms_beyond_lambda3():
    p = validate_params(4, [0.0] * 4)
    assert closed_forms(p) is None


def test_lowest_j0_eigenvalue_per_sector():
    p, n_max, (j_plus, j_minus, j_zero) = _dense(3, [-0.9, -0.5, 1.4])
    for mu in range(3):
        assert abs(j_zero[mu, mu] - (mu + p.gamma[mu] + 0.5) / 3.0) < 1e-13


def test_casimir_constant_along_sectors():
    p, poly = _sga(4, [0.3, -0.1, 0.2, -0.4])
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
        p, poly = _sga(lam, random_admissible_alpha(lam, rng))
        assert np.max(np.abs(poly.t[:, 0])) == 0.0


def test_validator_accepts_the_levels_build_sga_fits():
    rng = np.random.default_rng(5)
    for lam in (2, 3, 4, 7):
        p, x, low, high = _validation_levels(lam, random_admissible_alpha(lam, rng))
        got, want = _fit_one(p, x, low, high), build_sga(p)
        for field in ("s", "t", "c"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        assert np.max(np.abs(got.f_residual - want.f_residual)) < 1e-12
        assert np.max(np.abs(got.h_residual - want.h_residual)) < 1e-12


def test_tampered_representation_detected():
    p, x, low, high = _validation_levels(2, [0.5, -0.5])
    low[0, 3] *= 1.0 + 1e-5  # level 6 = 3 lambda + 0
    with pytest.raises(RuntimeError, match=r"\[J_\+, J_-\] is not a degree-1 polynomial in J_0 on sector 0 "):
        _fit_one(p, x, low, high)


def test_top_validated_level_is_checked_in_every_sector():
    # levels k lambda + mu with k <= 3 lambda - 1: the top one of sector mu is (3 lambda - 1) lambda + mu
    lam = 4
    for mu in range(lam):
        p, x, low, high = _validation_levels(lam, [0.3, -0.1, 0.2, -0.4])
        low[mu, 3 * lam - 1] *= 1.0 + 1e-5
        with pytest.raises(RuntimeError, match=f"on sector {mu} "):
            _fit_one(p, x, low, high)


def test_equal_shift_of_both_products_is_caught_on_j_plus_j_minus():
    # the same offset on J_+ J_- and J_- J_+ keeps their difference, [J_+, J_-];
    # each product is compared with its own root form, J_+ J_-'s first
    p, x, low, high = _validation_levels(3, [-0.5, 0.25, 0.25])
    offset = 1e-5 * high[0, 2]  # sector 0, k = 2: level 6
    low[0, 2] += offset
    high[0, 2] += offset
    with pytest.raises(RuntimeError, match=r"\[J_\+, J_-\] is not a degree-2 polynomial in J_0 on sector 0 "):
        _fit_one(p, x, low, high)


def test_ladder_products_are_the_factor_by_factor_diagonal():
    rng = np.random.default_rng(3)
    for lam in range(2, 9):
        p, x, low, high = _validation_levels(lam, random_admissible_alpha(lam, rng))
        ns = np.arange(3 * lam) * lam + np.arange(lam)[:, None]
        prods = ladder_products(p, 3 * lam * lam + lam - 1)
        assert np.array_equal(prods[ns], low) and np.array_equal(prods[ns + lam], high)
        # entry n+1 / entry n = F(n+1) / F(n+1-lambda) > 1: the top entry alone decides overflow
        assert np.all(prods[:lam] == 0.0) and prods[lam] > 0.0 and np.all(np.diff(prods[lam:]) > 0.0)


def test_ladder_products_overflow_is_named_before_allocation():
    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match=r"^J_\+ J_- overflows double precision at lambda = 1000, level 3000999$"):
            ladder_products(validate_params(1000, [0.0] * 1000), 3000999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@pytest.mark.parametrize("lam, seed", [(34, 4), (65, 0), (73, 0)])
def test_deformed_draws_validate_near_the_sector_floor(lam, seed):
    # near the sector floor a product is far below its monomial terms, which set the error scale
    p = validate_params(lam, random_admissible_alpha(lam, np.random.default_rng([lam, seed])))
    poly = build_sga(p)
    assert max(poly.f_residual.max(), poly.h_residual.max()) < 1e-13
    low, high = _root_polys([p], -np.arange(lam))[0], _root_polys([p], np.arange(1, lam + 1))[0]
    assert np.array_equal(poly.s, (low - high)[:, :lam])
    assert np.array_equal(poly.t[:, 1:], -high[:, 1:]) and np.all(poly.t[:, 0] == 0.0)
    assert np.array_equal(poly.c, high[:, 0])


def _loop_root_poly(p, mu, shifts):
    roots = [(p.gamma[mu] + 0.5 - j - p.beta[(mu + j) % p.lam]) / p.lam for j in shifts]
    return float(p.lam) ** (p.lam - 2) * polyfromroots(roots)


def test_root_expansion_matches_per_sector_polyfromroots():
    rng = np.random.default_rng(7)
    for lam in range(2, 25):
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng), random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            for shifts in (-np.arange(lam), np.arange(1, lam + 1)):
                got = _root_polys([p], shifts)[0]
                for mu in range(lam):
                    want = _loop_root_poly(p, mu, shifts.tolist())
                    bound = 1e-14 * np.sum(np.abs(want) * (3.0 * lam) ** np.arange(lam + 1))
                    assert np.max(np.abs(got[mu] - want)) <= bound, (lam, alpha, mu)



def test_stacked_root_polys_equal_the_one_row_calls():
    # _fit's one call over the (2, lambda) shifts is bitwise the P_- and P_+ calls
    for lam in range(2, 74):
        low, high = -np.arange(lam), np.arange(1, lam + 1)
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, np.random.default_rng([lam, 2024]))):
            p = validate_params(lam, alpha)
            stacked = _root_polys([p], np.array([low, high]))[0]
            assert stacked.shape == (2, lam, lam + 1)
            assert np.array_equal(stacked[0], _root_polys([p], low)[0]), lam
            assert np.array_equal(stacked[1], _root_polys([p], high)[0]), lam


@pytest.mark.parametrize("lam", [2, 3, 4, 5, 6, 12])
def test_stacked_build_gives_each_sets_polynomials(lam):
    # one build_sga call over seeded admissible sets (and alpha = 0) gives every set the
    # five fields of its own call, bit for bit, in order
    rng = np.random.default_rng([lam, 28])
    stack = [validate_params(lam, [0.0] * lam)] + [validate_params(lam, random_admissible_alpha(lam, rng))
                                                  for _ in range(6)]
    got = build_sga(stack)
    assert len(got) == len(stack)
    for p, poly in zip(stack, got):
        alone = build_sga(p)
        for field in ("s", "t", "c", "f_residual", "h_residual"):
            assert getattr(poly, field).tobytes() == getattr(alone, field).tobytes(), (lam, field)


def test_stacked_build_gives_each_failing_set_its_own_error():
    # a set whose products overflow, in ladder_products or in the root products, gets the
    # RuntimeError it raises alone; the sets beside it are fitted as usual
    lam = 7
    stack = [validate_params(lam, alpha) for alpha in (
        [0.0] * lam, [1e50, 0, 0, 0, 0, 0, -1e50], [0.3, -0.1, 0.2, -0.4, 0, 0, 0], [1e300, 0, 0, 0, 0, 0, -1e300])]
    got = build_sga(stack)
    for p, poly in zip(stack, got):
        try:
            alone = build_sga(p)
        except RuntimeError as exc:
            assert isinstance(poly, RuntimeError) and str(poly) == str(exc)
        else:
            assert np.array_equal(poly.s, alone.s) and np.array_equal(poly.c, alone.c)
    assert [isinstance(poly, RuntimeError) for poly in got] == [False, True, False, True]
    with pytest.raises(ValueError, match="share one lambda"):
        build_sga([stack[0], validate_params(2, [0.0, 0.0])])


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
