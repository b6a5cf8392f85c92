"""The README's library example runs as written against the package exports."""

import re
from pathlib import Path

import borelfiber

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
