"""Reference values computed apart from cyclosc.

Nothing here imports the package.  Each reference starts from the defining
structure function F(n) = n + beta_{n mod lambda}, beta_mu = alpha_0 + ... +
alpha_{mu-1}, or from the coefficient formula of the coherent states:

* ``sga_polynomials``: exact ``Fraction`` coefficients of f, h and the
  Casimir, from J_- J_+ |n> = prod_{j=1..lambda} F(n+j) / lambda^2 and
  J_+ J_- |n> = prod_{j=0..lambda-1} F(n-j) / lambda^2 written as
  polynomials in the J_0 eigenvalue x = (F(n) + F(n+1)) / (2 lambda).
* ``cs_moments``: <N>, <N^2> and the quadrature moments of |z; mu> in
  ``mpmath``, from d_k = w^k / sqrt(k! prod_{nu<=mu} (bb_nu + 1)_k
  prod_{nu>mu} (bb_nu)_k), w = z / lambda^{(lambda-2)/2}, bb_mu =
  (beta_mu + mu) / lambda.
* ``moment_target``: D_k^2 / (pi lambda^{lambda-2}) from Gamma functions.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath


def partial_sums(alpha):
    """beta_0..beta_lambda; beta_lambda is 0 because alpha sums to zero."""
    beta = [0 * alpha[0]]
    for a in alpha:
        beta.append(beta[-1] + a)
    return beta


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def sga_polynomials(alpha):
    """Exact (s, t, c) in the layout of ``cyclosc sga --format csv``.

    ``alpha`` is a sequence of Fractions summing to zero.  s[mu] holds the
    lambda coefficients of f = [J_+, J_-] in ascending powers of J_0, t[mu]
    the lambda + 1 coefficients of h (t[mu][0] = 0) and c[mu] the Casimir
    eigenvalue J_- J_+ + h(J_0).
    """
    alpha = [Fraction(a) for a in alpha]
    lam = len(alpha)
    if sum(alpha) != 0:
        raise ValueError("alpha must sum to zero")
    beta = partial_sums(alpha)[:lam]
    s, t, c = [], [], []
    for mu in range(lam):
        # level n of sector mu in terms of x: 2 lambda x = 2n + 1 + beta_mu + beta_{mu+1}
        shift = (1 + beta[mu] + beta[(mu + 1) % lam]) / 2

        def f_at(j):
            # F(n + j) = lambda x - shift + j + beta_{(mu + j) mod lambda}, linear in x
            return [j + beta[(mu + j) % lam] - shift, Fraction(lam)]

        down_up = [Fraction(1, lam * lam)]   # J_- J_+
        up_down = [Fraction(1, lam * lam)]   # J_+ J_-
        for j in range(1, lam + 1):
            down_up = _poly_mul(down_up, f_at(j))
        for j in range(lam):
            up_down = _poly_mul(up_down, f_at(-j))
        comm = [a - b for a, b in zip(up_down, down_up)]
        if comm[lam] != 0:
            raise ArithmeticError("leading terms of J_+J_- and J_-J_+ must cancel")
        s.append(comm[:lam])
        c.append(down_up[0])
        t.append([Fraction(0)] + [-v for v in down_up[1:]])
    return s, t, c


def _denominator_params(alpha, mu):
    lam = len(alpha)
    beta = partial_sums([mpmath.mpf(a) for a in alpha])
    bb = [(beta[nu] + nu) / lam for nu in range(lam + 1)]
    return [bb[nu] + 1 for nu in range(1, mu + 1)] + [bb[nu] for nu in range(mu + 1, lam)]


def cs_coefficients(alpha, mu, z, rel_tol=mpmath.mpf(10) ** -40):
    """Normalised coefficients c_n of |z; mu> on levels n = 0..n_top, as mpc.

    d_{k+1} = d_k w / sqrt((k+1) prod_i (den_i + k)); summing stops once a
    term is below rel_tol of the total and the term ratio is below 1/2, so
    the dropped tail is below 2 rel_tol."""
    lam = len(alpha)
    w = mpmath.mpc(z) / mpmath.power(lam, mpmath.mpf(lam - 2) / 2)
    y = abs(w) ** 2
    dens = _denominator_params(alpha, mu)
    terms = [mpmath.mpc(1)]
    total = mpmath.mpf(1)
    k = 0
    while True:
        step = (k + 1) * mpmath.fprod(d + k for d in dens)
        if abs(terms[-1]) ** 2 < rel_tol * total and y < step / 2:
            break
        terms.append(terms[-1] * w / mpmath.sqrt(step))
        total += abs(terms[-1]) ** 2
        k += 1
    scale = 1 / mpmath.sqrt(total)
    coeffs = [mpmath.mpc(0)] * ((len(terms) - 1) * lam + mu + 1)
    for k, d_k in enumerate(terms):
        coeffs[k * lam + mu] = d_k * scale
    return coeffs


def _structure(alpha):
    lam = len(alpha)
    beta = partial_sums([mpmath.mpf(a) for a in alpha])
    return lambda n: n + beta[n % lam]


def cs_moments(alpha, mu, z, dps=30):
    """Dictionary of mean_n, second_n, var_x, var_p, x4, p4 for |z; mu> with
    the dressed quadratures x = (a† + a)/sqrt(2), p = i(a† - a)/sqrt(2), where
    a|n> = sqrt(F(n)) |n-1>.  x4 and p4 are central fourth moments."""
    with mpmath.workdps(dps):
        coeffs = cs_coefficients(alpha, mu, z)
        coeffs += [mpmath.mpc(0)] * 4
        size = len(coeffs)
        F = _structure(alpha)
        root = [mpmath.sqrt(F(n)) if n else mpmath.mpf(0) for n in range(size)]

        def lower(v):
            return [root[n + 1] * v[n + 1] for n in range(size - 1)] + [mpmath.mpc(0)]

        def raise_(v):
            return [mpmath.mpc(0)] + [root[n] * v[n - 1] for n in range(1, size)]

        inv = 1 / mpmath.sqrt(2)
        ops = {
            "x": lambda v: [(u + d) * inv for u, d in zip(raise_(v), lower(v))],
            "p": lambda v: [1j * (u - d) * inv for u, d in zip(raise_(v), lower(v))],
        }

        def dot(u, v):
            return mpmath.fsum(mpmath.conj(a) * b for a, b in zip(u, v))

        out = {}
        probs = [abs(c) ** 2 for c in coeffs]
        out["mean_n"] = mpmath.fsum(n * p for n, p in enumerate(probs))
        out["second_n"] = mpmath.fsum(n * n * p for n, p in enumerate(probs))
        for name, op in ops.items():
            ov = op(coeffs)
            mean = mpmath.re(dot(coeffs, ov))
            w1 = [a - mean * b for a, b in zip(ov, coeffs)]
            w2 = [a - mean * b for a, b in zip(op(w1), w1)]
            out[f"var_{name}"] = mpmath.re(dot(w1, w1))
            out[f"{name}4"] = mpmath.re(dot(w2, w2))
        return {k: float(v) for k, v in out.items()}


def moment_target(alpha, mu, k):
    """D_k^2 / (pi lambda^{lambda-2}) with the rising factorials written as
    Gamma-function ratios, (d)_k = Gamma(d + k) / Gamma(d)."""
    lam = len(alpha)
    with mpmath.workdps(30):
        d2 = mpmath.gamma(k + 1)
        for d in _denominator_params(alpha, mu):
            d2 *= mpmath.gamma(d + k) / mpmath.gamma(d)
        return float(d2 / (mpmath.pi * mpmath.power(lam, lam - 2)))
