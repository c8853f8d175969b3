"""The console script's contract over generated argument lists, run in-process
through cli.main: exit 0, 1 (bad input) or 3 (a named numerical limit), never 2
(no check fails on valid input) and never a traceback; a non-zero exit prints
exactly one `error:` line on stderr; exit 0 prints no nan or inf.  The
RuntimeWarning filter of the test configuration turns any warning into a
traceback, so a passing draw also raised none."""

import contextlib
import io
import re

from hypothesis import given, settings, strategies as st

from cyclosc.cli import _QUANTITIES, main

_MAGNITUDES = (1e-3, 1e4, 1e50, 1e103, 1e200, 1e300)
_ALPHA_ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 0.5, -0.5, 3e154, *_MAGNITUDES, *(-m for m in _MAGNITUDES)])
_NONFINITE = re.compile(r"(?i)\b(nan|inf)\b")


@st.composite
def _params(draw):
    lam = draw(st.one_of(st.integers(2, 4), st.integers(2, 40)))  # half the draws where sga has closed forms
    args = ["--lambda", str(lam)]
    if draw(st.booleans()):
        head = draw(st.lists(_ALPHA_ENTRIES, min_size=lam - 1, max_size=lam - 1))
        if draw(st.booleans()):  # the largest partial sums the entries allow: most draws admissible
            head.sort(reverse=True)
        args.append("--alpha=" + ",".join([*map(repr, head), "auto"]))
    return lam, args


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(["info", "sga", "sweep"]))
    lam, args = draw(_params())
    if command == "sga":
        args += ["--format", draw(st.sampled_from(["text", "csv"]))]
    elif command == "sweep":
        args += ["--mu", str(draw(st.integers(0, lam - 1))),
                 "--photons", draw(st.sampled_from(["dressed", "real"])),
                 "--quantity", draw(st.sampled_from(_QUANTITIES))]
        if draw(st.booleans()):  # a radial sweep, to radii past every norm's overflow
            radii = st.one_of(st.floats(0.0, 50.0), st.floats(0.0, 1e7))
            args += ["--r-from", repr(draw(radii)), "--r-to", repr(draw(radii)),
                     "--phase", repr(draw(st.floats(-3.2, 3.2)))]
        else:  # a line between two complex labels, written as Python writes a complex
            parts = st.one_of(st.floats(-50.0, 50.0), st.floats(-1e7, 1e7))
            args += [f"--z-from={complex(draw(parts), draw(parts))!r}",
                     f"--z-to={complex(draw(parts), draw(parts))!r}"]
        args.append(f"--steps={draw(st.integers(2, 4))}")
    return [command, *args]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_argv())
def test_exit_codes_and_output_keep_the_contract(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 3), (argv, code, err)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    else:
        assert not err and not _NONFINITE.search(out), (argv, out, err)

