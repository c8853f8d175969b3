"""The README's python quick start runs as written and prints what its
comments claim."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    q, uncertainty, residual = out.getvalue().splitlines()
    assert float(q) < 0.0  # sub-Poissonian
    product, bound = map(float, uncertainty.split())
    assert product >= bound
    assert float(residual) < 1e-10
