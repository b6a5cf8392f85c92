"""The README's library example and command lines run as written against the package."""

import re
import shlex
from pathlib import Path

import borelfiber
from borelfiber import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("digraph fiber {")


def test_exports_are_the_example_imports_and_the_table():
    imported = re.search(r"from borelfiber import \((.*?)\)", library_example(), re.S).group(1)
    names = {name.strip() for name in imported.split(",") if name.strip()}
    assert set(borelfiber.__all__) == names | {"GeneratorTable", "build_table"}


def readme_cli_lines() -> list[str]:
    """Every ``borelfiber ...`` line of the README's ``sh`` blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("borelfiber ")]


def readme_cli_argvs() -> list[list[str]]:
    """The argument list of each README command line, without its shell redirection."""
    argvs = []
    for line in readme_cli_lines():
        words = shlex.split(line, comments=True)[1:]
        argvs.append(words[: words.index(">")] if ">" in words else words)
    return argvs


def test_readme_cli_lines_parse():
    # Each line is canonical: the command line reads it off the command
    # table, into the namespace the full parser gives it.
    argvs = readme_cli_argvs()
    assert len(argvs) >= 9  # at least one line per subcommand
    parser = cli.build_parser()
    for words in argvs:
        assert cli._read(words) is not None, words
        assert cli._read(words) == parser.parse_args(words)
