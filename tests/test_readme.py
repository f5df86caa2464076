import contextlib
import io
import json
import re
import shlex
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


def _command_lines() -> list:
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("delbound ")]


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    """Every delbound line of README's Command line block runs as written
    through cli.main and exits 0: each shows a result, and the refusals
    its comments name are other inputs. The verify --file example reads a
    certificate that bound emits for hamming:10 at d = 4."""
    from delbound import bound_for_distance, hamming_space
    from delbound.cli import main

    res = bound_for_distance(hamming_space(10), 4, "lev")
    candidate = {"coeffs": list(res.certificate.fhat), "s": res.s}
    (tmp_path / "candidate.json").write_text(json.dumps(candidate))
    monkeypatch.chdir(tmp_path)
    lines = _command_lines()
    assert {line.split()[1] for line in lines} == {"bound", "table", "verify", "lp", "nrt"}
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().out, line
