import itertools
import math
import warnings

import numpy as np
import pytest

from cyclosc.algebra import build_fock_rep, validate_params, random_admissible_alpha
from cyclosc.coherent import build_cs, stack_coeffs
from cyclosc.stats import (
    _moments,
    mandel_q,
    quadrature_stats,
    uncertainty_rhs,
    squeeze_ratios,
    stats_report,
)
from cyclosc.verify import dense_operators, dense_quadratures, dense_quadrature_moments, dense_number_moments


def _state(lam, alpha, mu, z):
    p = validate_params(lam, alpha)
    cs = build_cs(p, mu, z)
    return p, cs


def test_mandel_q_at_origin():
    p, cs = _state(2, [0.0, 0.0], 0, 0.0)
    assert mandel_q(cs) is None  # <N> = 0, Q undefined
    p, cs = _state(2, [0.0, 0.0], 1, 0.0)
    assert mandel_q(cs) == -1.0  # number state


def test_mandel_q_frozen_values():
    # lambda = 2, alpha = 0, |z| = 1: Q = +-4/sinh(4)
    p, cs = _state(2, [0.0, 0.0], 0, 1.0)
    assert math.isclose(mandel_q(cs), 0.14657428130346245, rel_tol=1e-12)
    p, cs = _state(2, [0.0, 0.0], 1, 1.0)
    assert math.isclose(mandel_q(cs), -0.14657428130346245, rel_tol=1e-12)


def test_mandel_q_signs_undeformed():
    for r in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
        p, cs = _state(2, [0.0, 0.0], 0, r)
        assert mandel_q(cs) > 0.0
        p, cs = _state(2, [0.0, 0.0], 1, r)
        assert mandel_q(cs) < 0.0


def test_mandel_q_trend_in_deformation():
    qs = {0: [], 1: []}
    for a0 in (-0.5, 0.0, 0.5, 1.0):
        for mu in (0, 1):
            p, cs = _state(2, [a0, -a0], mu, 1.0)
            qs[mu].append(mandel_q(cs))
    assert all(b > a for a, b in zip(qs[0], qs[0][1:]))  # grows with alpha_0
    assert all(b < a for a, b in zip(qs[1], qs[1][1:]))  # and falls in sector 1


def test_mandel_q_sign_reversals():
    p, cs = _state(2, [-0.5, 0.5], 0, 0.4)
    q_small = mandel_q(cs)
    p, cs = _state(2, [-0.5, 0.5], 0, 1.0)
    assert q_small * mandel_q(cs) < 0.0
    p, cs = _state(2, [0.5, -0.5], 1, 1.2)
    q_small = mandel_q(cs)
    p, cs = _state(2, [0.5, -0.5], 1, 2.0)
    assert q_small * mandel_q(cs) < 0.0


def test_quadrature_means_vanish_for_lambda3():
    p, cs = _state(3, [-0.5, 0.25, 0.25], 0, 1.3 + 0.4j)
    m = quadrature_stats(cs, "dressed")
    assert m.mean_x == 0.0  # supports lambda >= 3 apart, so <a> = 0 exactly
    assert m.mean_p == 0.0


def test_vacuum_dispersions():
    p, cs = _state(3, [-0.5, 0.25, 0.25], 0, 0.0)
    m = quadrature_stats(cs, "dressed")
    assert math.isclose(m.var_x, 0.25, abs_tol=1e-13)
    assert math.isclose(m.var_p, 0.25, abs_tol=1e-13)
    p, cs = _state(3, [-0.9, -0.5, 1.4], 1, 0.0)
    m = quadrature_stats(cs, "dressed")
    assert math.isclose(m.var_x, 0.35, abs_tol=1e-13)
    assert math.isclose(m.var_p, 0.35, abs_tol=1e-13)
    # formula: (lambda/2)(beta_bar_{mu+1} + beta_bar_mu)
    rng = np.random.default_rng(17)
    for _ in range(6):
        lam = int(rng.integers(2, 6))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        cs = build_cs(p, mu, 0.0)
        m = quadrature_stats(cs, "dressed")
        want = 0.5 * lam * (p.beta_bar[mu + 1] + p.beta_bar[mu])
        assert abs(m.var_x - want) < 1e-12
        assert abs(m.var_p - want) < 1e-12


def test_vacuum_dispersion_real_ladder():
    p, cs = _state(2, [0.5, -0.5], 0, 0.0)
    m = quadrature_stats(cs, "real")
    assert math.isclose(m.var_x, 0.5, abs_tol=1e-14)
    assert math.isclose(m.var_p, 0.5, abs_tol=1e-14)


def test_uncertainty_rhs_values():
    p = validate_params(2, [0.5, -0.5])
    assert math.isclose(uncertainty_rhs(p, 0), 0.5625, abs_tol=1e-15)
    assert math.isclose(uncertainty_rhs(p, 1), 0.0625, abs_tol=1e-15)
    p = validate_params(3, [0.4, -0.1, -0.3])
    assert math.isclose(uncertainty_rhs(p, 0), 0.49, abs_tol=1e-14)
    # same thing through the beta_bar increments
    for mu in range(3):
        direct = (9.0 / 4.0) * (p.beta_bar[mu + 1] - p.beta_bar[mu]) ** 2
        assert math.isclose(uncertainty_rhs(p, mu), direct, rel_tol=1e-13)


@pytest.mark.parametrize("alpha0", [1e8, 1e12, 1e16])
def test_uncertainty_rhs_does_not_cancel_as_alpha_grows(alpha0):
    # the beta_bar form (lambda^2/4)(beta_bar_2 - beta_bar_1)^2 missed this by
    # 1.6e-8, 7.5e-5 and 33% relative
    p = validate_params(3, [alpha0, 0.3, -alpha0 - 0.3])
    assert p.alpha[1] == 0.3
    assert math.isclose(uncertainty_rhs(p, 1), (1.0 + 0.3) ** 2 / 4.0, rel_tol=1e-15)


def test_uncertainty_rhs_overflow_is_named():
    p = validate_params(2, [3e154, -3e154])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mu in (0, 1):
            with pytest.raises(RuntimeError, match=r"\(1 \+ alpha_%d\)\^2/4 overflows double precision" % mu):
                uncertainty_rhs(p, mu)
    assert uncertainty_rhs(validate_params(2, [2.6e154, -2.6e154]), 0) == pytest.approx(1.69e308, rel=1e-12)


def test_uncertainty_saturation_at_origin():
    for lam, alpha in ((2, [0.5, -0.5]), (3, [-0.5, 0.25, 0.25])):
        p = validate_params(lam, alpha)
        for mu in range(lam):
            cs = build_cs(p, mu, 0.0)
            m = quadrature_stats(cs, "dressed")
            prod = m.var_x * m.var_p
            rhs = uncertainty_rhs(p, mu)
            if mu == 0:
                assert abs(prod - rhs) < 1e-12  # only the true vacuum saturates
            else:
                assert prod - rhs >= 1e-6


def test_uncertainty_product_holds_off_origin():
    rng = np.random.default_rng(29)
    for _ in range(8):
        lam = int(rng.integers(2, 5))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        cs = build_cs(p, mu, z)
        m = quadrature_stats(cs, "dressed")
        assert m.var_x * m.var_p >= uncertainty_rhs(p, mu) - 1e-10


def test_fourth_moments_dominate_squared_variance():
    rng = np.random.default_rng(31)
    for _ in range(6):
        lam = int(rng.integers(2, 5))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        cs = build_cs(p, 0, complex(rng.uniform(-2, 2), rng.uniform(-2, 2)))
        m = quadrature_stats(cs, "dressed")
        assert m.central_x4 >= m.var_x ** 2 - 1e-12
        assert m.central_p4 >= m.var_p ** 2 - 1e-12


def test_squeeze_ratios_are_one_at_origin():
    p, cs = _state(3, [0.2, 0.3, -0.5], 2, 0.0)
    assert squeeze_ratios(cs, "dressed") == (1.0, 1.0, 1.0, 1.0)
    for lam in (2, 4):
        p = validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            cs = build_cs(p, mu, 0.0)
            for kind in ("dressed", "real"):
                assert squeeze_ratios(cs, kind) == (1.0, 1.0, 1.0, 1.0)
            rep = stats_report(cs)
            assert rep.ratios_dressed == rep.ratios_real == (1.0, 1.0, 1.0, 1.0)


def test_stacked_moments_equal_rows_bitwise():
    rng = np.random.default_rng(43)
    for lam in (2, 3, 5):
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        stack = stack_coeffs([build_cs(p, mu, complex(*rng.uniform(-3, 3, 2))) for _ in range(4)])
        fock = build_fock_rep(p, stack.shape[1] - 1)
        for kind in ("dressed", "real"):
            rows = np.stack([_moments(v, fock, kind) for v in stack])
            assert rows.shape == (4, 3, 2)
            assert np.array_equal(_moments(stack, fock, kind), rows)
            assert np.array_equal(_moments(stack.reshape(2, 2, -1), fock, kind), rows.reshape(2, 2, 3, 2))


def test_second_order_squeezing_lambda2():
    p = validate_params(2, [1.0, -1.0])
    for zr in np.linspace(-6.0, -0.1, 12):
        cs = build_cs(p, 0, complex(zr))
        assert squeeze_ratios(cs, "dressed")[0] < 0.9


def test_quadrature_exchange_under_sign_flip():
    p = validate_params(2, [1.0, -1.0])
    for r in (0.5, 1.5, 3.0):
        pos = build_cs(p, 0, complex(r))
        neg = build_cs(p, 0, complex(-r))
        rp = squeeze_ratios(pos)
        rn = squeeze_ratios(neg)
        assert abs(rn[0] - rp[1]) < 1e-10
        assert abs(rn[1] - rp[0]) < 1e-10


def test_no_second_order_squeezing_odd_lambda():
    for lam in (3, 5):
        p = validate_params(lam, [0.0] * lam)
        for zr in np.linspace(-3.0, 3.0, 9):
            if zr == 0.0:
                continue
            cs = build_cs(p, 0, complex(zr))
            assert squeeze_ratios(cs, "dressed")[0] >= 1.0 - 1e-10


def test_fourth_order_squeezing_lambda4():
    p = validate_params(4, [0.0] * 4)
    best = 9.0
    for r in np.geomspace(0.01, 0.5, 20):
        cs = build_cs(p, 0, complex(-r))
        best = min(best, squeeze_ratios(cs, "dressed")[2])
    assert best < 0.95
    assert best > 0.9


def test_dual_route_agreement():
    rng = np.random.default_rng(37)
    for _ in range(8):
        lam = int(rng.integers(2, 5))
        p = validate_params(lam, random_admissible_alpha(lam, rng))
        mu = int(rng.integers(0, lam))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        cs = build_cs(p, mu, z)
        dense = dense_operators(p, cs.n_max)
        for kind in ("dressed", "real"):
            # the dense moments flatten in QuadratureMoments field order
            m = list(vars(quadrature_stats(cs, kind)).values())
            s = dense_quadrature_moments(dense, cs.coeffs, kind).ravel()
            assert np.max(np.abs(m - s)) < 1e-11
        rep = stats_report(cs)
        sn, sn2 = dense_number_moments(dense, cs.coeffs)
        assert abs(rep.mean_n - sn) < 1e-11
        assert abs(rep.var_n - (sn2 - sn * sn)) < 1e-11
    # squeezing ratios against the dense quadratic forms, every sector, at a
    # uniform random phase and on the real axis (phases 0 and pi), where the
    # lambda = 2 state is squeezed most.  The dense route applies c = x - <x>
    # to the vector four times rather than squaring the matrix, so its fourth
    # moment of the squeezed quadrature keeps its digits there as well.
    for lam in range(2, 6):
        for alpha in ([0.0] * lam, random_admissible_alpha(lam, rng)):
            p = validate_params(lam, alpha)
            radii = (0.3, 1.7, 3.5) + ((12.0, 40.0, 90.0) if lam == 2 else ())
            for mu, r in itertools.product(range(lam), radii):
                for phase in (rng.uniform(0.0, 2.0 * np.pi), 0.0, np.pi):
                    cs = build_cs(p, mu, r * np.exp(1j * phase))
                    stack = stack_coeffs([cs, build_cs(p, mu, 0.0)])
                    dense = dense_operators(p, stack.shape[1] - 1)
                    for kind in ("dressed", "real"):
                        s, s0 = dense_quadrature_moments(dense, stack, kind)
                        want = (s[1:] / s0[1:]).ravel()  # var_x, var_p, central_x4, central_p4
                        for got, w in zip(squeeze_ratios(cs, kind), want):
                            assert abs(got - w) <= 1e-12 * abs(w), (lam, mu, r, phase, kind)


def test_report_bundles_consistently():
    p, cs = _state(2, [0.5, -0.5], 1, 1.2)
    rep = stats_report(cs)
    assert rep.mandel_q == mandel_q(cs)
    assert rep.uncertainty_rhs == uncertainty_rhs(p, 1)
    assert rep.ratios_dressed == squeeze_ratios(cs, "dressed")
    assert rep.dressed == quadrature_stats(cs, "dressed")
    assert rep.ratios_real == squeeze_ratios(cs, "real")
    assert rep.real == quadrature_stats(cs, "real")


def test_kind_validation():
    # a bad kind is bad input, and the error names it
    p, cs = _state(2, [0.0, 0.0], 0, 1.0)
    for stat in (quadrature_stats, squeeze_ratios):
        for kind in ("bare", "bogus"):
            with pytest.raises(ValueError, match=f"got '{kind}'"):
                stat(cs, kind)


def test_dense_reference_kind_validation():
    # the dense reference helpers reject what stats rejects, with its message
    p, cs = _state(2, [0.0, 0.0], 0, 1.0)
    dense = dense_operators(p, cs.n_max)
    message = r"^kind must be 'dressed' or 'real', got 'Dressed'$"
    with pytest.raises(ValueError, match=message):
        dense_quadratures(dense, "Dressed")
    with pytest.raises(ValueError, match=message):
        dense_quadrature_moments(dense, cs.coeffs, "Dressed")


def test_moment_overflow_is_named_not_nan():
    # at lambda = 2 the dressed fourth moments scale as F(1)^2 = (1 + alpha_0)^2,
    # which leaves the double range between alpha_0 = 2e154 and 3e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a0 in (1e154, 2e154):
            p, cs = _state(2, [a0, -a0], 0, 0.5)
            assert all(map(math.isfinite, squeeze_ratios(cs)))
            assert all(map(math.isfinite, vars(quadrature_stats(cs)).values()))
        for a0 in (3e154, 1e155, 1e160):
            for mu in (0, 1):
                p, cs = _state(2, [a0, -a0], mu, 0.5)
                for call in (squeeze_ratios, quadrature_stats, stats_report):
                    with pytest.raises(RuntimeError, match="dressed quadrature moments overflow"):
                        call(cs)
                # the canonical pair's moments stay small
                assert all(map(math.isfinite, squeeze_ratios(cs, "real")))
