"""The README's examples give the output their comments show.

Each command-line example of `solve`, `closed-form` and `bbin`, whose
comment is its output, runs through cli.run from the repository root;
the Library snippet runs as one program, and each of its lines whose
comment is a Python literal or a closed form is checked against the
value that line computes.  Both sides are read from the README, so an
edit to the text or to the program fails here.
"""

import ast
import io
import pathlib
import re
import shlex

import pytest

from streamcalc.algebra import format_ratexpr
from streamcalc.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(heading, language):
    """The first ```language block after the line `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def _commented(block):
    """(code, comment) of each line of `block` that has a `#` comment; a
    `#` inside a word, as in file.sde#var, starts none."""
    lines = []
    for line in block.splitlines():
        code, hashed, comment = line.partition("  #")
        if hashed:
            lines.append((code.strip(), comment.strip()))
    return lines


OUTPUT_COMMANDS = ("solve", "closed-form", "bbin")
CLI_EXAMPLES = [(code, comment) for code, comment in _commented(_block("## Command line", "sh"))
                if shlex.split(code)[1] in OUTPUT_COMMANDS]


def test_every_command_with_an_output_comment_is_checked():
    assert sorted(shlex.split(code)[1] for code, _ in CLI_EXAMPLES) == sorted(OUTPUT_COMMANDS)


@pytest.mark.parametrize("code,comment", CLI_EXAMPLES)
def test_a_command_line_example_prints_its_comment(monkeypatch, code, comment):
    monkeypatch.chdir(ROOT)
    out, err = io.StringIO(), io.StringIO()
    argv = shlex.split(code)
    assert argv[0] == "streamcalc"
    assert (run(argv[1:], out=out, err=err), out.getvalue(), err.getvalue()) == (
        0, comment + "\n", "")


def test_the_library_snippet_computes_its_comments():
    block = _block("## Library", "python")
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    checked = 0
    for code, comment in _commented(block):
        if comment.startswith("["):
            assert eval(code, namespace) == ast.literal_eval(comment), code
            checked += 1
        elif comment.startswith("("):
            # `(name,) = ...  # <closed form>, what was built`
            name = re.fullmatch(r"\((\w+),\) = .*", code).group(1)
            assert format_ratexpr(namespace[name]) == comment.split(", ")[0], code
            checked += 1
    assert checked == 2
