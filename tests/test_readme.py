"""The README's library example runs and prints the output the README shows."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_prints_the_documented_output():
    section = README.read_text().split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    code, output = re.findall(r"```(?:python|text)\n(.*?)```", section, re.S)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, f"{README}:Library use", "exec"), {})
    assert printed.getvalue() == output
