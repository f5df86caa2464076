import contextlib
import io
import re
from fractions import Fraction
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_prints_what_its_comments_state():
    """README's Library example runs as written, imports only names the
    package lists in __all__, and prints the values its comments give."""
    import delbound

    block = _library_block()
    imported = re.search(r"from delbound import \((.*?)\)", block, re.S).group(1)
    assert {name.strip() for name in imported.split(",") if name.strip()} <= set(delbound.__all__)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("207.33")
    assert lines[1] == "True"
    assert namespace["sol"].value == Fraction(512, 3)
    assert float(lines[4]) == pytest.approx(26.0)
    assert [float(x) for x in lines[5:]] == pytest.approx([16.0] * 3)
