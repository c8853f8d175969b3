import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import cyclosc.algebra
import cyclosc.sga
from cyclosc import cli
from cyclosc.cli import main
from cyclosc.coherent import build_cs


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_info_basic(capsys):
    code, out, err = run(capsys, "info", "--lambda", "2", "--alpha", "0.5,-0.5")
    assert code == 0
    assert "lambda: 2" in out
    assert "0.75" in out  # ground-state energy at alpha_0 = 0.5


def test_info_inadmissible_alpha(capsys):
    code, out, err = run(capsys, "info", "--lambda", "2", "--alpha=-1,1")
    assert code == 1
    assert "error:" in err
    assert "alpha_0" in err


def test_info_rejects_lambda_one(capsys):
    code, out, err = run(capsys, "info", "--lambda", "1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("command", [["info"], ["sga"], ["sweep", "--quantity", "X", "--r-from", "0", "--r-to", "1"]],
                         ids=["info", "sga", "sweep"])
def test_lambda_too_large_to_index_is_bad_input(capsys, command):
    # 10^30 fails before any allocation; the default alpha of a lambda near 10^9 would not
    lam = "1" + "0" * 30
    code, out, err = run(capsys, command[0], "--lambda", lam, *command[1:])
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and f"lambda = {lam}" in err


@pytest.mark.parametrize("alpha", ["nan,auto", "inf,-inf", "0.5,nan,auto"])
def test_info_nonfinite_alpha_is_bad_input(capsys, alpha):
    lam = str(alpha.count(",") + 1)
    code, out, err = run(capsys, "info", "--lambda", lam, "--alpha", alpha)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_info_overflowing_uncertainty_product_is_numerical_trouble(capsys):
    # sector 0's z = 0 product overflows: exit 3 with one error line and no
    # warning, where this printed product = inf and bound = 0 for sectors 2 and 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "info", "--lambda", "7", "--alpha=1e300,-1,1,-1,0.0125,-2.02e-174,auto")
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "overflows double precision" in err


def test_sweep_nonfinite_input_is_bad_input(capsys):
    base = ["sweep", "--lambda", "2", "--quantity", "var-x"]
    for extra in (["--z-from", "nan", "--z-to", "1"], ["--z-from", "0", "--z-to", "inf+1j"],
                  ["--alpha", "nan,auto", "--r-from", "0", "--r-to", "1"]):
        code, out, err = run(capsys, *(base + extra))
        assert code == 1, extra
        assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("line, option", [
    (["--r-from", "0", "--r-to", "inf"], "--r-to"),
    (["--r-from", "nan", "--r-to", "1"], "--r-from"),
    (["--r-from", "0", "--r-to", "nan"], "--r-to"),
    (["--r-from", "0", "--r-to", "1", "--phase", "inf"], "--phase"),
    (["--r-from", "0", "--r-to", "1", "--phase", "nan"], "--phase"),
    (["--z-from", "0", "--z-to=inf"], "--z-to"),
    (["--z-from", "0", "--z-to", "nan"], "--z-to"),
    (["--z-from=-inf", "--z-to", "1"], "--z-from"),
], ids=["r-to-inf", "r-from-nan", "r-to-nan", "phase-inf", "phase-nan", "z-to-inf", "z-to-nan", "z-from-inf"])
def test_sweep_nonfinite_line_names_the_option(capsys, line, option):
    # checked before any point is formed: one error line, no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--lambda", "2", "--quantity", "X", *line)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: {option} must be finite")


def test_sweep_span_overflow_names_both_endpoints(capsys):
    # z_to - z_from = inf: inf * 0 would make the first point NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "sweep", "--lambda", "2", "--quantity", "X",
                             "--z-from=-1e308", "--z-to", "1e308", "--steps", "3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "--z-from" in err and "--z-to" in err


def test_verify_negative_seed_names_the_option(capsys):
    code, out, err = run(capsys, "verify", "--seed", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: --seed must be a non-negative integer, got -1\n"


def test_sweep_ratio_aliases_are_bad_input(capsys):
    # the squeezing ratios have one name each: X, P, Y, Q4
    for name in ("x4-ratio", "p4-ratio"):
        code, out, err = run(capsys, "sweep", "--lambda", "3", "--quantity", name,
                             "--r-from", "0", "--r-to", "2", "--steps", "5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1 and name in err


def test_alpha_auto_completion(capsys):
    code, out, err = run(capsys, "info", "--lambda", "3", "--alpha", "0.5,-0.25,auto")
    assert code == 0
    assert "-0.25" in out


def test_sga_csv_casimir(capsys):
    code, out, err = run(capsys, "sga", "--lambda", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,mu,power,value"
    rows = [ln.split(",") for ln in lines[1:]]
    cas = {int(r[1]): float(r[3]) for r in rows if r[0] == "casimir"}
    for mu in range(3):
        assert math.isclose(cas[mu], 5.0 / 24.0, rel_tol=1e-10)
    f00 = [float(r[3]) for r in rows if r[0] == "f" and r[1] == "0" and r[2] == "0"]
    assert math.isclose(f00[0], -5.0 / 12.0, rel_tol=1e-10)


def test_sga_text_report(capsys):
    code, out, err = run(capsys, "sga", "--lambda", "2", "--alpha", "0.5,-0.5")
    assert code == 0
    assert "closed-form max deviation" in out


def test_sga_lambda17_extracts(capsys):
    # the Newton-to-monomial fit missed its 1e-8 gate here (exit 3)
    code, out, err = run(capsys, "sga", "--lambda", "17")
    assert code == 0, err
    assert "fit residuals" in out


def test_sga_overflow_boundary(capsys):
    for lam, want in ((72, 0), (73, 0), (74, 3), (80, 3)):
        code, out, err = run(capsys, "sga", "--lambda", str(lam), "--format", "csv")
        assert code == want, err
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "overflow" in err
    # the top product is tested in log space before any n_max-long array exists
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "sga", "--lambda", "1000", "--format", "csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err.count("\n")) == (3, "", 1)
    assert err.startswith("error:") and "overflow" in err
    assert peak < 1_000_000


@pytest.mark.parametrize("lam, alpha", [
    (2, "3e154,auto"), (3, "1e103,-1e103,auto"), (3, "1e4,-1e4,auto"), (2, "1e50,auto")])
def test_sga_closed_forms_pass_in_the_sectors_scale(capsys, monkeypatch, lam, alpha):
    # the closed-form Casimir is formed without overflow, and the gate compares each sector's
    # f, h and c as one sum_i |coef_i| X^i, so these pass (no warning: it would raise here)
    code, out, err = run(capsys, "sga", "--lambda", str(lam), f"--alpha={alpha}")
    assert (code, err) == (0, ""), err
    # a closed form off by 1e-6 of its leading h coefficient still fails the gate
    closed = cli.closed_forms

    def tampered(params):
        s, t, c = closed(params)
        t = t.copy()
        t[-1, -1] *= 1.0 + 1e-6
        return s, t, c

    monkeypatch.setattr(cli, "closed_forms", tampered)
    code, out, err = run(capsys, "sga", "--lambda", str(lam), f"--alpha={alpha}", "--format", "csv")
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: extracted polynomials deviate from closed forms by ")


@pytest.mark.parametrize("lam, alpha", [(2, None), (3, None), (2, "0.5,auto"), (3, "-0.5,0.25,auto")])
def test_sga_casimir_is_gated_in_its_own_scale(capsys, monkeypatch, lam, alpha):
    # the sector sum weighs c by X^-lambda, so a 1e-6 relative error in the closed-form
    # Casimir reads about 4e-9 of it at alpha = 0; c against its own scale catches it
    argv = ["sga", "--lambda", str(lam)] + ([f"--alpha={alpha}"] if alpha else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, ""), err
    assert re.search(r"casimir \S+ of its scale$", out.splitlines()[-1])
    closed = cli.closed_forms

    def tampered(params):
        s, t, c = closed(params)
        return s, t, c * (1.0 + 1e-6)

    monkeypatch.setattr(cli, "closed_forms", tampered)
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: the extracted casimir deviates from its closed form by ")


@pytest.mark.parametrize("alpha", [None, "-0.5,0.25,auto"])
def test_sga_f_constant_is_gated_in_its_own_scale(capsys, monkeypatch, alpha):
    # the sector sum weighs f's constant by X^(1-lambda), so a 1e-6 relative error in the
    # closed form's reads about 1e-10 of it; f(0) = P_-(0) - P_+(0) against the sum of the two
    # root products' rounding scales reads 1e-6 at alpha = 0 and 5e-7 deformed
    argv = ["sga", "--lambda", "3"] + ([f"--alpha={alpha}"] if alpha else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, ""), err
    assert re.search(r"f constant \S+ of its scale, casimir", out.splitlines()[-1])
    closed = cli.closed_forms

    def tampered(params):
        s, t, c = closed(params)
        s = s.copy()
        s[:, 0] *= 1.0 + 1e-6
        return s, t, c

    monkeypatch.setattr(cli, "closed_forms", tampered)
    code, out, err = run(capsys, *argv)
    dev = float(re.search(r"f constant (\S+) of its scale", out.splitlines()[-1]).group(1))
    assert 1e-7 < dev <= 1.01e-6
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("error: the extracted f constant deviates from its closed form by ")


def test_sga_f_constant_lost_to_the_root_products_passes(capsys, monkeypatch):
    # at lambda = 3, alpha = (1e50, 0, -1e50) P_-(0) and P_+(0) are about 1e148 and f(0) is
    # rounded away in their difference; that loss is inside the scale, so a 1e-6 error passes
    closed = cli.closed_forms

    def tampered(params):
        s, t, c = closed(params)
        s = s.copy()
        s[:, 0] = s[:, 0] * (1.0 + 1e-6) + 1e-6
        return s, t, c

    monkeypatch.setattr(cli, "closed_forms", tampered)
    code, out, err = run(capsys, "sga", "--lambda", "3", "--alpha=1e50,0,auto")
    assert (code, err) == (0, ""), err


def test_sga_casimir_scale_is_the_root_products_own():
    # at alpha = 0 the scale is |c|; at lambda = 2, alpha_0 = 3 c_0 vanishes and its scale
    # does not; it holds the partial sums the roots cancel, so that lambda = 3 at
    # alpha = (1e50, 0, -1e50), whose c_1 = -1.4e49 sits far below them, passes
    for lam in (2, 3):
        params = cyclosc.algebra.validate_params(lam, [0.0] * lam)
        assert np.allclose(cyclosc.sga._casimir_scale(params), np.abs(cli.closed_forms(params)[2]),
                           rtol=1e-15, atol=0.0)
    params = cyclosc.algebra.validate_params(2, [3.0, -3.0])
    assert cli.closed_forms(params)[2][0] == 0.0
    assert cyclosc.sga._casimir_scale(params)[0] == 3.75
    rng = np.random.default_rng(28)
    for lam in (2, 3, 4, 5):
        params = cyclosc.algebra.validate_params(lam, cyclosc.algebra.random_admissible_alpha(lam, rng))
        assert np.all(cyclosc.sga._casimir_scale(params) >= np.abs(cyclosc.sga.build_sga(params).c))
    assert main(["sga", "--lambda", "3", "--alpha=1e+50,0.0,auto"]) == 0


@pytest.mark.parametrize("lam, alpha", [(2, "1e200,auto"), (2, "1e300,auto"), (7, "1e50,0,0,0,0,0,auto")])
def test_sga_root_product_overflow_is_named(capsys, lam, alpha):
    # the root products overflow before ladder_products does: one named error, no warning
    code, out, err = run(capsys, "sga", "--lambda", str(lam), f"--alpha={alpha}")
    assert (code, out) == (3, "")
    assert err == f"error: the root product of J_+ J_- on sector 0 overflows double precision at lambda = {lam}\n"


def test_sweep_csv_shape_and_determinism(tmp_path, capsys):
    args = [
        "sweep", "--lambda", "2", "--alpha", "0.5,-0.5", "--mu", "1",
        "--quantity", "mandel-q", "--r-from", "0.25", "--r-to", "4", "--steps", "7",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "z_re,z_im,abs_z,value"
    assert len(lines) == 8


def _per_point(params, mu, zs):
    return [build_cs(params, mu, z) for z in zs]


@pytest.mark.parametrize("quantity", ["X", "P", "Y", "Q4", "mandel-q", "var-x", "var-p"])
def test_sweep_blocks_match_a_per_point_loop(tmp_path, capsys, monkeypatch, quantity):
    # one line through z = 0 (sector 1, where <N> >= 1) and one longer than a block
    lines = [
        ["--lambda", "3", "--alpha=-0.5,0.25,auto", "--mu", "1", "--z-from=-2-1j", "--z-to", "2+1j", "--steps", "9"],
        ["--lambda", "2", "--mu", "1", "--photons", "real", "--r-from", "0.5", "--r-to", "40",
         "--phase", "0.3", "--steps", str(2 * cli._SWEEP_BLOCK + 3)],
    ]
    for i, line in enumerate(lines):
        args = ["sweep", "--quantity", quantity, *line]
        blocked, single = tmp_path / f"blocked{i}.csv", tmp_path / f"single{i}.csv"
        assert main(args + ["--out", str(blocked)]) == 0
        with monkeypatch.context() as m:
            m.setattr(cli, "build_states", _per_point)
            assert main(args + ["--out", str(single)]) == 0
        assert blocked.read_bytes() == single.read_bytes(), (quantity, line)
    assert capsys.readouterr().err == ""


def test_sweep_reports_the_first_failing_point(capsys):
    # z = 0 in sector 0 leaves mandel-q undefined (exit 1) before |z| = 5e5 overflows N_0
    # (exit 3), although both points share one block
    code, out, err = run(capsys, "sweep", "--lambda", "2", "--quantity", "mandel-q",
                         "--r-from", "0", "--r-to", "1e6", "--steps", "3")
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error: mandel-q is undefined at z = 0")


def test_sweep_memory_is_bounded_by_the_block(tmp_path):
    # 2000 points at lambda = 2, |z| <= 90: one (points x levels) block would hold
    # about 14 MB at the peak
    tracemalloc.start()
    try:
        code = main(["sweep", "--lambda", "2", "--quantity", "X", "--r-from", "0", "--r-to", "90",
                     "--steps", "2000", "--out", str(tmp_path / "long.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 4_000_000


def test_sweep_squeezing_values(capsys):
    code, out, err = run(
        capsys, "sweep", "--lambda", "2", "--alpha", "1,auto",
        "--quantity", "X", "--z-from=-6", "--z-to=-0.1", "--steps", "5",
    )
    assert code == 0
    vals = [float(ln.split(",")[3]) for ln in out.strip().splitlines()[1:]]
    assert len(vals) == 5
    assert all(v < 0.9 for v in vals)


def test_sweep_mandel_positive(capsys):
    code, out, err = run(
        capsys, "sweep", "--lambda", "2", "--quantity", "mandel-q",
        "--r-from", "0.25", "--r-to", "4", "--steps", "6",
    )
    assert code == 0
    vals = [float(ln.split(",")[3]) for ln in out.strip().splitlines()[1:]]
    assert all(v > 0.0 for v in vals)


def test_sweep_mandel_undefined_at_ground_state_is_bad_input(capsys):
    # <N> = 0 at z = 0 in sector 0: Q is undefined, so no NaN row is printed
    code, out, err = run(
        capsys, "sweep", "--lambda", "2", "--quantity", "mandel-q",
        "--r-from", "0", "--r-to", "1", "--steps", "3",
    )
    assert (code, out, err.count("\n")) == (1, "", 1)
    assert err.startswith("error:")
    assert "z = 0+0j" in err and "mu = 0" in err and "<N> < 1e-12" in err
    code, out, err = run(
        capsys, "sweep", "--lambda", "2", "--mu", "1", "--quantity", "mandel-q",
        "--r-from", "0", "--r-to", "1", "--steps", "3",
    )
    assert code == 0
    assert out.splitlines()[1].split(",")[3] == "-1"  # a number state elsewhere


@pytest.mark.parametrize("steps", [10 ** 17, 10 ** 19])
def test_unallocatable_steps_is_one_line_bad_input(capsys, steps):
    # 10^17 points exceed any address space, and 10^19 numpy's size limit
    code, out, err = run(capsys, "sweep", "--lambda", "2", "--quantity", "X",
                         "--r-from", "0", "--r-to", "1", "--steps", str(steps))
    assert (code, out) == (1, "")
    assert err == f"error: --steps {steps} is too many points to allocate\n"


def test_sweep_argument_validation(capsys):
    base = ["sweep", "--lambda", "2", "--quantity", "var-x"]
    assert main(base + ["--r-from", "0", "--r-to", "1", "--steps", "1"]) == 1
    assert main(base) == 1  # neither range given
    assert main(base + ["--r-from", "0", "--r-to", "1", "--z-from", "0", "--z-to", "1"]) == 1
    assert main(base + ["--z-from", "1", "--z-to", "1"]) == 1  # degenerate line
    capsys.readouterr()


def test_sweep_invalid_quantity(capsys):
    code, out, err = run(
        capsys, "sweep", "--lambda", "2", "--quantity", "skew",
        "--r-from", "0", "--r-to", "1",
    )
    assert code == 1


def test_sweep_truncation_exit(capsys):
    code, out, err = run(
        capsys, "sweep", "--lambda", "2", "--quantity", "mandel-q",
        "--r-from", "1", "--r-to", "1e6", "--steps", "3",
    )
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("quantity", ["Y", "var-x"])
def test_sweep_moment_overflow_exit(capsys, quantity):
    # no nan rows and no numpy warning: one error line, exit 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(
            capsys, "sweep", "--lambda", "2", "--alpha=1e160,auto", "--quantity", quantity,
            "--r-from", "0", "--r-to", "1", "--steps", "3",
        )
    assert code == 3 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "overflow" in err


def test_verify_single_suite(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main(["verify", "--suite", "sga", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    text = out_file.read_text()
    # the built-in sets plus 20 random draws; the count does not depend on the seed
    assert "suite sga: 190/190 checks passed" in text
    assert "FAIL" not in text


@pytest.mark.parametrize("command", [
    ["info", "--lambda", "2"],
    ["sga", "--lambda", "3"],
    ["sweep", "--lambda", "2", "--quantity", "X", "--r-from", "0", "--r-to", "1", "--steps", "3"],
    ["verify", "--suite", "sga"],
], ids=["info", "sga", "sweep", "verify"])
@pytest.mark.parametrize("target, reason", [("missing/out.txt", "No such file or directory"),
                                            (".", "Is a directory")], ids=["missing-dir", "dir"])
def test_unwritable_out_is_one_line_bad_input(tmp_path, capsys, command, target, reason):
    path = str(tmp_path / target)
    code, out, err = run(capsys, *command, "--out", path)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot write --out {path}: {reason}\n"


def test_verify_rejects_tol(capsys):
    # the suites' bounds are fixed; there is no --tol to loosen them
    code, out, err = run(capsys, "verify", "--tol", "1e-3")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("seed", [3, 5, 6, 13])
def test_verify_commutators_passes_where_matmul_rounds(tmp_path, capsys, seed):
    # these seeds draw alpha for which diag(a_dag @ a) differs from
    # a[n-1, n]**2 in the last bit; number-diagonal allows 4 eps
    out_file = tmp_path / "report.txt"
    code = main(["verify", "--suite", "commutators", "--seed", str(seed), "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0, out_file.read_text()


def test_verify_catches_mutation(tmp_path, capsys, monkeypatch):
    orig = cyclosc.algebra.structure_function

    def bent(params, n):
        return orig(params, n) + 0.01

    monkeypatch.setattr(cyclosc.algebra, "structure_function", bent)
    out_file = tmp_path / "report.txt"
    code = main(["verify", "--suite", "commutators", "--out", str(out_file)])
    capsys.readouterr()
    assert code == 2
    assert "commutator-identity" in out_file.read_text()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_cached_parser_gives_the_same_results_back_to_back(capsys):
    cases = [
        ["info", "--lambda", "2", "--alpha", "0.5,-0.5"],
        ["sga", "--lambda", "3", "--format", "csv"],
        ["sweep", "--lambda", "2", "--quantity", "X", "--r-from", "0.5", "--r-to", "1", "--steps", "3"],
        ["info", "--lambda", "2", "--alpha", "x,1"],
        ["sweep", "--lambda", "2", "--quantity", "skew", "--r-from", "0", "--r-to", "1"],
        ["--help"],
    ]
    alone = []
    for argv in cases:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    parser = cli._build_parser()
    back_to_back = [run(capsys, *argv) for argv in cases + cases]
    assert cli._build_parser() is parser
    assert back_to_back == alone + alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 1, 1, 0]
    for code, out, err in alone[3:5]:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1
