"""Command-line front end.

Subcommands: info (parameter tables and low-lying spectrum), sga (extracted
structure polynomials vs closed forms), sweep (one statistic along a line in
the z plane, CSV out), verify (invariant suites).

Exit codes: 0 success, 1 bad input, 2 verification failure, 3 numerical
trouble (truncation or quadrature).  Every error path emits a single line
starting with "error:" on stderr.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import math
import sys

import numpy as np

from .algebra import _check_mu, validate_params, energy
from .sga import _casimir_scale, build_sga, closed_forms
# build_cs rebuilds a failing block point by point; bench/test_bench.py also
# reads it here, as the binding its tracer wraps in every module
from .coherent import TruncationError, build_cs, build_states
from .stats import mandel_q, quadrature_stats, squeeze_ratios, uncertainty_rhs
from .verify import run_suites, SUITES

__all__ = ["main", "run"]

_RATIO_INDEX = {"X": 0, "P": 1, "Y": 2, "Q4": 3}
_SWEEP_BLOCK = 64  # sweep points built in one build_states call, so memory stays bounded
_QUANTITIES = ("mandel-q", "var-x", "var-p") + tuple(_RATIO_INDEX)


class _Parser(argparse.ArgumentParser):
    # single-line errors, no usage dump, stable exit code
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_alpha(lam: int, text) -> list:
    if text is None:
        try:
            return [0.0] * lam
        except OverflowError:  # a lambda that cannot index a list
            raise ValueError(f"lambda = {lam} is too large") from None
    parts = [p.strip() for p in str(text).split(",")]
    vals = []
    for i, part in enumerate(parts):
        if part == "auto" and i == len(parts) - 1:
            vals.append(-sum(vals))
        else:
            try:
                vals.append(float(part))
            except ValueError:
                raise ValueError(f"invalid alpha entry {part!r}") from None
    return vals


def _parse_complex(text: str, option: str) -> complex:
    try:
        z = complex(str(text).replace(" ", ""))
    except ValueError:
        raise ValueError(f"invalid complex number {text!r}") from None
    return _finite(z, option)


def _finite(value, option: str):
    """value, else a ValueError that names the option it came from."""
    if not cmath.isfinite(value):
        raise ValueError(f"{option} must be finite, got {value}")
    return value


def _write_out(text: str, out) -> None:
    """text to the --out file, else to stdout; a file that cannot be written is bad input."""
    if out:
        try:
            with open(out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def cmd_sweep(args) -> int:
    params = validate_params(args.lam, _parse_alpha(args.lam, args.alpha))
    mu = _check_mu(params.lam, args.mu)
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    z_given = args.z_from is not None or args.z_to is not None
    r_given = args.r_from is not None or args.r_to is not None
    if z_given == r_given:
        raise ValueError("specify exactly one of --z-from/--z-to or --r-from/--r-to")
    try:
        ts = np.linspace(0.0, 1.0, args.steps)
    except (ValueError, MemoryError):  # past numpy's size limit, or past what can be allocated
        raise ValueError(f"--steps {args.steps} is too many points to allocate") from None
    if z_given:
        if args.z_from is None or args.z_to is None:
            raise ValueError("both --z-from and --z-to are required")
        z0 = _parse_complex(args.z_from, "--z-from")
        z1 = _parse_complex(args.z_to, "--z-to")
        if z0 == z1:
            raise ValueError("sweep endpoints must differ")
        # z0 + inf * 0 would make the first point NaN
        _finite(z1 - z0, "the span from --z-from to --z-to")
        points = [complex(z0 + (z1 - z0) * t) for t in ts]
    else:
        if args.r_from is None or args.r_to is None:
            raise ValueError("both --r-from and --r-to are required")
        for value, option in ((args.r_from, "--r-from"), (args.r_to, "--r-to"), (args.phase, "--phase")):
            _finite(value, option)
        if args.r_from < 0 or args.r_to < 0:
            raise ValueError("radii must be nonnegative")
        if args.r_from == args.r_to:
            raise ValueError("sweep endpoints must differ")
        ph = complex(math.cos(args.phase), math.sin(args.phase))
        points = [complex((args.r_from + (args.r_to - args.r_from) * t) * ph) for t in ts]

    lines = ["z_re,z_im,abs_z,value"]
    for start in range(0, len(points), _SWEEP_BLOCK):
        block = points[start:start + _SWEEP_BLOCK]
        try:
            states = build_states(params, mu, block)
        except (ValueError, TruncationError):
            # point by point, so that an earlier point's statistics error comes first
            states = (build_cs(params, mu, z) for z in block)
        for z, cs in zip(block, states):
            if args.quantity == "mandel-q":
                val = mandel_q(cs)
                if val is None:
                    raise ValueError(f"mandel-q is undefined at z = {z:.6g} in sector mu = {mu}: "
                                     "<N> < 1e-12 there")
            elif args.quantity == "var-x":
                val = quadrature_stats(cs, args.photons).var_x
            elif args.quantity == "var-p":
                val = quadrature_stats(cs, args.photons).var_p
            else:
                val = squeeze_ratios(cs, args.photons)[_RATIO_INDEX[args.quantity]]
            lines.append(f"{z.real:.17g},{z.imag:.17g},{abs(z):.17g},{val:.17g}")
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def cmd_info(args) -> int:
    params = validate_params(args.lam, _parse_alpha(args.lam, args.alpha))
    lam = params.lam
    out = [f"lambda: {lam}"]
    out.append("alpha: " + ", ".join(f"{v:.12g}" for v in params.alpha))
    out.append("mu   alpha          beta           beta_bar       gamma")
    for mu in range(lam):
        out.append(
            f"{mu:<4d} {params.alpha[mu]:< 14.8g} {params.beta[mu]:< 14.8g} "
            f"{params.beta_bar[mu]:< 14.8g} {params.gamma[mu]:< 14.8g}"
        )
    ens = ", ".join(f"{energy(params, n):.12g}" for n in range(3 * lam))
    out.append(f"energies E_0..E_{3 * lam - 1}: {ens}")
    out.append("uncertainty products at z = 0 (dressed quadratures):")
    for mu in range(lam):
        disp = 0.5 * lam * (float(params.beta_bar[mu + 1]) + float(params.beta_bar[mu]))
        if disp * disp == math.inf:
            raise RuntimeError(f"the z = 0 uncertainty product of sector {mu} overflows double precision")
        out.append(
            f"  sector {mu}: var_x = var_p = {disp:.12g}, "
            f"product = {disp * disp:.12g}, bound = {uncertainty_rhs(params, mu):.12g}"
        )
    _write_out("\n".join(out) + "\n", args.out)
    return 0


def cmd_sga(args) -> int:
    params = validate_params(args.lam, _parse_alpha(args.lam, args.alpha))
    lam = params.lam
    poly = build_sga(params)

    if args.format == "csv":
        lines = ["kind,mu,power,value"]
        for mu, (s_mu, t_mu, c_mu) in enumerate(zip(poly.s.tolist(), poly.t.tolist(), poly.c.tolist())):
            lines += [f"f,{mu},{i},{v:.17g}" for i, v in enumerate(s_mu)]
            lines += [f"h,{mu},{i},{v:.17g}" for i, v in enumerate(t_mu)]
            lines.append(f"casimir,{mu},0,{c_mu:.17g}")
    else:
        lines = [f"lambda: {lam}", "alpha: " + ", ".join(f"{v:.12g}" for v in params.alpha)]
        lines.append(f"fit residuals: f {poly.f_residual.max():.3e}, h {poly.h_residual.max():.3e}")
        for mu in range(lam):
            lines.append(f"sector {mu}:")
            lines.append("  [J+,J-] coefficients (1, J0, ...): "
                         + ", ".join(f"{v:.12g}" for v in poly.s[mu]))
            lines.append("  h coefficients (1, J0, ...):       "
                         + ", ".join(f"{v:.12g}" for v in poly.t[mu]))
            lines.append(f"  casimir: {poly.c[mu]:.12g}")

    dev = dev_f = dev_c = 0.0
    cf = closed_forms(params)
    if cf is not None:
        # per sector, f, h and c as one sum_i |coef_i| X^i at X, the largest |J_0| build_sga
        # validates at, whose fit error scales with it; taken over X^lambda, so the sums
        # stay in range, and the deviation is relative to the closed forms' own sum
        ns = np.arange(3 * lam) * lam + np.arange(lam)[:, None]
        weights = (np.max(np.abs(energy(params, ns))) / lam) ** np.arange(-lam, 1.0)

        def size(s, t, c):
            return np.abs(s) @ weights[:lam] + np.abs(t) @ weights + np.abs(c) * weights[0]

        dev = float(np.max(size(*(got - want for got, want in zip((poly.s, poly.t, poly.c), cf))) / size(*cf)))
        # the sum weighs c and f's constant by X^-lambda and X^(1-lambda), so each also
        # against its own rounding scale, c = P_+(0) and f(0) = P_-(0) - P_+(0) (an inf
        # scale passes: there alpha is so large that they weigh in the sum like the other terms)
        scale_c = _casimir_scale(params)
        with np.errstate(over="ignore"):
            scale_f = _casimir_scale(params, -np.arange(lam)) + scale_c
        dev_f = float(np.max(np.abs(poly.s[:, 0] - cf[0][:, 0]) / scale_f))
        dev_c = float(np.max(np.abs(poly.c - cf[2]) / scale_c))
        if args.format != "csv":
            lines.append(f"closed-form max deviation: {dev:.3e} of the sector's sum, "
                         f"f constant {dev_f:.3e} of its scale, casimir {dev_c:.3e} of its scale")
    _write_out("\n".join(lines) + "\n", args.out)
    if dev > 1e-8:
        print(f"error: extracted polynomials deviate from closed forms by {dev:.3e} of the sector's sum",
              file=sys.stderr)
        return 2
    for name, d in (("f constant", dev_f), ("casimir", dev_c)):
        if d > 1e-8:
            print(f"error: the extracted {name} deviates from its closed form by {d:.3e} of its scale",
                  file=sys.stderr)
            return 2
    return 0


def cmd_verify(args) -> int:
    if args.seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok, lines = run_suites(names, seed=args.seed)
    _write_out("\n".join(lines) + "\n", args.out)
    if not ok:
        print("error: verification failed", file=sys.stderr)
        return 2
    return 0


def _add_params(p) -> None:
    p.add_argument("--lambda", dest="lam", type=int, required=True,
                   help="cyclic order (integer >= 2)")
    p.add_argument("--alpha", default=None,
                   help="comma-separated deformation parameters; last entry may "
                        "be 'auto' to close the zero sum (default: all zero)")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The argparse tree, built once per process; parse_args leaves it unchanged."""
    parser = _Parser(prog="cyclosc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="parameter tables and low-lying spectrum")
    _add_params(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("sga", help="extracted structure polynomials and casimir")
    _add_params(p)
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.set_defaults(func=cmd_sga)

    p = sub.add_parser("sweep", help="sweep one statistic along a line in z")
    _add_params(p)
    p.add_argument("--mu", type=int, default=0, help="sector index")
    p.add_argument("--photons", choices=("dressed", "real"), default="dressed",
                   help="ladder pair used for quadratures")
    p.add_argument("--quantity", choices=_QUANTITIES, required=True)
    p.add_argument("--z-from", default=None, help="complex start, e.g. '-6' or '1+0.5j'")
    p.add_argument("--z-to", default=None, help="complex end")
    p.add_argument("--r-from", type=float, default=None, help="radial start (|z|)")
    p.add_argument("--r-to", type=float, default=None, help="radial end")
    p.add_argument("--phase", type=float, default=0.0, help="phase of z in radians for radial sweeps")
    p.add_argument("--steps", type=int, default=50)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run invariant suites")
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")
    p.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    p.add_argument("--seed", type=int, default=12345)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
