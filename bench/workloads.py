"""The benchmark's four workloads, each a fixed list of operations built from
a seed, and the checks that compare every output with an independent
reference (``refs``) or with a property the method must have.

Operations reach the program only through its stable entry points:
``cyclosc.cli.main(argv)`` for ``sweep``, ``sga`` and ``verify``, and the
public ``cyclosc.measure`` functions for the moment integrals.  Every call
looks the entry point up on its module at call time, so the traced run's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import cyclosc
from cyclosc import cli, measure

import refs

WORKLOADS = ("sweep", "sga-ladder", "measure", "verify")

# The highest of p75, p90, p95 and p99 with at least ten of the round's
# operations beyond it.
TAIL_PCT = {"sweep": 90.0, "sga-ladder": 75.0, "measure": 90.0, "verify": 75.0}


class CheckError(Exception):
    """The program's output disagrees with the reference."""


@dataclass
class CliResult:
    rc: int
    out: str
    err: str


@dataclass
class Op:
    """One operation: ``call`` runs the program; ``check(result, results)``
    returns the number of items the result holds (sweep points, sectors,
    moment integrals or checks run) and raises CheckError on a wrong output;
    ``results`` maps the labels of the round's operations to their results.
    ``fault`` names the known program fault the operation may hit.  A round
    calls the operation ``repeat`` times, spread over the round."""

    label: str
    call: Callable[[], object]
    check: Callable[[object, dict], int]
    fault: Optional[str] = None
    info: dict = field(default_factory=dict)
    repeat: int = 1


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return CliResult(rc, out.getvalue(), err.getvalue())


def cli_op(label, argv, check, fault=None, repeat=1, **info) -> Op:
    return Op(label, lambda: run_cli(argv), check, fault, {**info, "argv": list(argv)}, repeat)


# Known faults: each matcher says whether a failed result is that fault.
FAULTS = {
    # sga._interp_monomial expands Newton form to monomials; the fit then
    # misses its 1e-8 validation gate and the command exits 3.
    "sga-monomial-fit": lambda r: isinstance(r, CliResult) and r.rc == 3 and bool(
        re.search(r"not a degree-\d+ polynomial in J_0|is not constant on sector", r.err)
    ),
    # verify.suite_commutators compares diag(a_dag @ a) with a[n-1, n]**2
    # bitwise; a one-ulp difference fails it and the command exits 2.
    "number-diagonal": lambda r: isinstance(r, CliResult) and r.rc == 2 and bool(
        _fail_lines(r.out)
    ) and all("] number-diagonal:" in line for line in _fail_lines(r.out)),
}


def _fail_lines(out: str):
    return [line for line in out.splitlines() if line.startswith("FAIL ")]


def build(workload: str, seed: int):
    """The workload's operation list for one round; the same seed gives the
    same list."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return {
        "sweep": _sweep_ops,
        "sga-ladder": _sga_ops,
        "measure": _measure_ops,
        "verify": _verify_ops,
    }[workload](rng)


# ---------------------------------------------------------------------------
# sweep

_SWEEP_TOL = 1e-9


def _fmt_alpha(alpha) -> str:
    return "--alpha=" + ",".join(repr(float(a)) for a in alpha)


def _fmt_z(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}j"


def _parse_sweep(res: CliResult, steps: int):
    lines = res.out.splitlines()
    if not lines or lines[0] != "z_re,z_im,abs_z,value" or len(lines) != steps + 1:
        raise CheckError(f"expected a header and {steps} rows")
    rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    for z_re, z_im, abs_z, value in rows:
        if not all(math.isfinite(v) for v in (z_re, z_im, abs_z, value)):
            raise CheckError(f"non-finite value at z = {z_re}{z_im:+}j")
    return rows


class SweepReference:
    """mpmath values of the sweep quantities, cached per state and point."""

    def __init__(self):
        self._cache = {}

    def moments(self, alpha, mu, z):
        key = (tuple(alpha), mu, complex(z))
        if key not in self._cache:
            self._cache[key] = refs.cs_moments(list(alpha), mu, z)
        return self._cache[key]

    def value(self, alpha, mu, z, quantity):
        m = self.moments(alpha, mu, z)
        m0 = self.moments(alpha, mu, 0.0)
        if quantity == "mandel-q":
            var_n = m["second_n"] - m["mean_n"] ** 2
            return (var_n - m["mean_n"]) / m["mean_n"]
        if quantity in ("var-x", "var-p"):
            return m[quantity.replace("-", "_")]
        key = {"X": "var_x", "P": "var_p", "Q4": "p4"}[quantity]
        return m[key] / m0[key]


def _sweep_check(reference, alpha, mu, quantity, steps, ref_row, radial_from_zero, partner):
    bound = (1.0 + float(alpha[mu])) ** 2 / 4.0

    def check(res, results):
        rows = _parse_sweep(res, steps)
        if radial_from_zero and abs(rows[0][3] - 1.0) > 1e-12:
            raise CheckError(f"{quantity} at z = 0 is {rows[0][3]!r}, not 1")
        z_re, z_im, _, value = rows[ref_row]
        want = reference.value(alpha, mu, complex(z_re, z_im), quantity)
        if abs(value - want) > _SWEEP_TOL * max(1.0, abs(want)):
            raise CheckError(f"{quantity} at z = {z_re}{z_im:+}j is {value!r}, reference {want!r}")
        if partner is not None:
            other = results.get(partner)
            if not isinstance(other, CliResult) or other.rc != 0:
                raise CheckError(f"partner sweep {partner} has no output")
            for (_, _, _, vx), (_, _, _, vp) in zip(_parse_sweep(other, steps), rows):
                if vx * vp < bound * (1.0 - 1e-12):
                    raise CheckError(f"var_x var_p = {vx * vp!r} is below {bound!r}")
        return steps

    return check


def _sweep_ops(rng):
    """For lambda = 2, 3, 4, at a deformed alpha and at alpha = 0, and in
    every sector, six sweeps of 12 points with |z| <= 4; at lambda = 2 six
    more of 4 points with 84 <= |z| <= 98, five of them squeezing ratios so
    that the tail percentile falls among ops of one kind."""
    reference = SweepReference()
    ops = []

    def add(lam, tag, alpha, mu, quantity, line, steps, radial_from_zero=False, partner=None):
        label = f"sweep #{len(ops)} lam={lam} {tag} mu={mu} {quantity} {line[0]}"
        argv = ["sweep", "--lambda", str(lam), _fmt_alpha(alpha), "--mu", str(mu),
                "--quantity", quantity, "--steps", str(steps)]
        if line[0] == "radial":
            r0, r1, phase = (float(v) for v in line[1:])
            argv += [f"--r-from={r0!r}", f"--r-to={r1!r}", f"--phase={phase!r}"]
            top = max(r0, r1)
        else:
            z0, z1 = (complex(v) for v in line[1:])
            argv += [f"--z-from={_fmt_z(z0)}", f"--z-to={_fmt_z(z1)}"]
            top = max(abs(z0), abs(z1))
        check = _sweep_check(reference, alpha, mu, quantity, steps,
                             int(rng.integers(steps)), radial_from_zero, partner)
        ops.append(cli_op(label, argv, check, lam=lam, abs_z=top, points=steps))
        return label

    def polar(r_lo, r_hi, phase=None):
        if phase is None:
            phase = rng.uniform(0.0, 2.0 * math.pi)
        return complex(rng.uniform(r_lo, r_hi) * np.exp(1j * phase))

    def short_chord(r_lo, r_hi, max_turn):
        # both ends at most max_turn rad apart, so every point of the line
        # keeps nearly the radius of its ends and all cost about the same
        phase = rng.uniform(0.0, 2.0 * math.pi)
        return ("in-plane", polar(r_lo, r_hi, phase),
                polar(r_lo, r_hi, phase + rng.uniform(-max_turn, max_turn)))

    for lam in (2, 3, 4):
        head = [float(v) for v in rng.uniform(-0.5, 0.5, size=lam - 1)]
        for tag, alpha in (("deformed", head + [-sum(head)]), ("alpha=0", [0.0] * lam)):
            for mu in range(lam):
                radial = ("radial", 0.0, rng.uniform(2.5, 4.0), rng.uniform(0.0, 2.0 * math.pi))
                add(lam, tag, alpha, mu, "X", radial, 12, radial_from_zero=True)
                add(lam, tag, alpha, mu, "P", radial, 12, radial_from_zero=True)
                add(lam, tag, alpha, mu, "Q4", ("in-plane", polar(0.5, 4.0), polar(0.5, 4.0)), 12)
                add(lam, tag, alpha, mu, "mandel-q",
                    ("radial", 0.25, rng.uniform(2.5, 4.0), rng.uniform(0.0, 2.0 * math.pi)), 12)
                line = ("in-plane", polar(0.5, 4.0), polar(0.5, 4.0))
                partner = add(lam, tag, alpha, mu, "var-x", line, 12)
                add(lam, tag, alpha, mu, "var-p", line, 12, partner=partner)
                if lam == 2:
                    r0 = rng.uniform(84.0, 86.0)
                    radial = ("radial", r0, r0 + 12.0, rng.uniform(0.0, 2.0 * math.pi))
                    line = short_chord(88.0, 92.0, 0.3)
                    for quantity, where in (("X", radial), ("P", radial), ("Q4", radial),
                                            ("X", line), ("Q4", line)):
                        add(lam, tag, alpha, mu, quantity, where, 4)
                    add(lam, tag, alpha, mu, "mandel-q",
                        ("radial", r0, r0 + 12.0, rng.uniform(0.0, 2.0 * math.pi)), 4)
    return ops


# ---------------------------------------------------------------------------
# sga-ladder

# |program - exact| summed over sum_i |coef_i| X^i with X = 3 lambda, the
# largest J_0 value the fit validates at, relative to the same sum for the
# exact polynomial; the Casimir is measured against the h sum.
SGA_TOL = 1e-5


def rational_alpha(lam: int, rng) -> list:
    """alpha_0..alpha_{lam-2} on the grid k/20 inside (-0.85, 0.85), the last
    entry closing the zero sum; draws with some F(mu) <= 1/20 are redrawn."""
    while True:
        head = [Fraction(int(k), 20) for k in rng.integers(-17, 18, size=lam - 1)]
        alpha = head + [-sum(head)]
        beta = refs.partial_sums(alpha)
        if all(beta[mu] + mu > Fraction(1, 20) for mu in range(1, lam)):
            return alpha


def _parse_sga(res: CliResult, lam: int) -> dict:
    lines = res.out.splitlines()
    if not lines or lines[0] != "kind,mu,power,value":
        raise CheckError("missing CSV header")
    got = {}
    for line in lines[1:]:
        kind, mu, power, value = line.split(",")
        got[(kind, int(mu), int(power))] = float(value)
    if len(got) != lam * (2 * lam + 2):
        raise CheckError(f"expected {lam * (2 * lam + 2)} coefficients, got {len(got)}")
    return got


def _sga_check(alpha):
    lam = len(alpha)
    exact = []  # filled on first use, so that building the inputs stays cheap

    def check(res, results):
        got = _parse_sga(res, lam)
        if not exact:
            exact.append(refs.sga_polynomials(alpha))
        s, t, c = exact[0]
        x = 3.0 * lam
        for mu in range(lam):
            h_size = sum(abs(float(v)) * x ** i for i, v in enumerate(t[mu]))
            for kind, row in (("f", s[mu]), ("h", t[mu])):
                size = sum(abs(float(v)) * x ** i for i, v in enumerate(row))
                err = sum(abs(got[(kind, mu, i)] - float(v)) * x ** i for i, v in enumerate(row))
                if err > SGA_TOL * size:
                    raise CheckError(f"{kind} on sector {mu} is off by {err / size:.3e} of its size")
            err = abs(got[("casimir", mu, 0)] - float(c[mu]))
            if err > SGA_TOL * h_size:
                raise CheckError(f"casimir on sector {mu} is off by {err / h_size:.3e}")
        return lam

    return check


def _sga_ops(rng):
    """lambda = 2..20 at alpha = 0, and lambda = 2..14 at two seeded rational
    alphas each.  From lambda = 15 up the monomial-fit fault strikes some
    deformed draws and not others (5 of 120 at lambda = 15, every draw from
    17 up), so a seeded alpha there would make the failed share depend on the
    seed; no fault was seen in 520 draws at lambda = 14."""
    ops = []

    def add(lam, tag, alpha, fault):
        argv = ["sga", "--lambda", str(lam), "--format", "csv"]
        if any(alpha):
            text = [repr(float(a)) for a in alpha]
            if [Fraction(v) for v in text] != alpha:
                raise ValueError("alpha must print exactly")
            argv.append("--alpha=" + ",".join(text))
        # ops up to lambda = 10 take under 40 ms; three calls a round give
        # their median time enough samples on a noisy machine
        repeat = 3 if lam <= 10 else 1
        ops.append(cli_op(f"sga lam={lam} {tag}", argv, _sga_check(alpha), fault, repeat, lam=lam))

    for lam in range(2, 21):
        add(lam, "alpha=0", [Fraction(0)] * lam, "sga-monomial-fit" if lam >= 16 else None)
        if lam <= 14:
            add(lam, "deformed-a", rational_alpha(lam, rng), None)
            add(lam, "deformed-b", rational_alpha(lam, rng), None)
    return ops


# ---------------------------------------------------------------------------
# measure

MEASURE_TOL = 1e-8


def _moment_op(label, params, alpha, mu, k, weight_name, lam):
    def call():
        if weight_name == "lambda2":
            weight = lambda y: measure.weight_lambda2(params, mu, y)
        else:
            weight = lambda y: measure.weight_photon(lam, mu, y)
        return measure.moment_check(weight, mu, k, measure.moment_target(params, mu, k))

    def check(res, results):
        value, _ = res
        want = refs.moment_target(alpha, mu, k)
        if not abs(value / want - 1.0) <= MEASURE_TOL:
            raise CheckError(f"moment {value!r}, reference {want!r}")
        return 1

    return Op(label, call, check, None, {"lam": lam, "k": k})


def _unity_op(params, weight_name, k_top):
    def check(res, results):
        dev = float(np.max(np.abs(np.asarray(res) - 1.0)))
        if not dev <= MEASURE_TOL:
            raise CheckError(f"unity diagonal is off by {dev:.3e}")
        return len(res)

    return Op(f"unity {weight_name} lam={params.lam}",
              lambda: measure.unity_reconstruction(params, weight_name, k_top),
              check, None, {"lam": params.lam})


def _measure_ops(rng):
    """Bessel-K weight (lambda = 2) at one alpha_0 drawn from each of
    [-0.9, 0), [0, 1), [1, 2), [2, 3), both sectors, k = 0..12; photon weight
    (alpha = 0) at lambda = 2..6, every sector, two seeded k each; and the
    unity diagonal for lambda = 2 (k <= 3) and lambda = 3 photon (k <= 4)."""
    ops = []
    for lo, hi in ((-0.9, 0.0), (0.0, 1.0), (1.0, 2.0), (2.0, 3.0)):
        a0 = float(rng.uniform(lo, hi))
        params = cyclosc.validate_params(2, [a0, -a0])
        for mu in (0, 1):
            for k in range(13):
                ops.append(_moment_op(f"bessel alpha0={a0:.4f} mu={mu} k={k}",
                                      params, [a0, -a0], mu, k, "lambda2", 2))
    for lam in range(2, 7):
        params = cyclosc.validate_params(lam, [0.0] * lam)
        for mu in range(lam):
            for k in sorted(rng.choice(13, size=2, replace=False)):
                ops.append(_moment_op(f"photon lam={lam} mu={mu} k={k}",
                                      params, [0] * lam, mu, int(k), "photon", lam))
    a0 = float(rng.uniform(-0.9, 3.0))
    ops.append(_unity_op(cyclosc.validate_params(2, [a0, -a0]), "lambda2", 3))
    ops.append(_unity_op(cyclosc.validate_params(3, [0.0] * 3), "photon", 4))
    return ops


# ---------------------------------------------------------------------------
# verify

COMMUTATOR_SEEDS = tuple(range(16))
# Seeds drawn from the benchmark seed per suite.  cs is the costliest suite,
# so the p75 rank falls in the middle of its sixteen ops, and the median in
# the middle of sga's eight, not at the edge of a group whose costs differ
# from seed to seed.
VERIFY_DRAWS = {"sga": 8, "cs": 16}


def _verify_check(res, results):
    totals = re.findall(r"^suite \S+: (\d+)/(\d+) checks passed$", res.out, re.M)
    if len(totals) != 1 or totals[0][0] != totals[0][1] or _fail_lines(res.out):
        raise CheckError("verify reported a failed check")
    return int(totals[0][1])


def _verify_ops(rng):
    """``commutators`` at the fixed seeds 0..15, whose outcome does not
    depend on the benchmark seed (3, 5, 6 and 13 hit the bitwise
    number-diagonal comparison); ``sga`` at eight and ``cs`` at sixteen
    seeds drawn from the benchmark seed."""
    ops = []
    suites = {"commutators": COMMUTATOR_SEEDS}
    for suite, draws in VERIFY_DRAWS.items():
        suites[suite] = [int(s) for s in rng.integers(0, 2**31, size=draws)]
    for suite, seeds in suites.items():
        for s in seeds:
            ops.append(cli_op(f"verify {suite} seed={s}",
                              ["verify", "--suite", suite, "--seed", str(s)],
                              _verify_check,
                              "number-diagonal" if suite == "commutators" else None))
    return ops
