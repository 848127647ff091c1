"""The package surface: what `import mowave` exports, and who reads it from outside."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import mowave

ROOT = Path(__file__).resolve().parents[1]
SUBMODULES = ("certify", "energy", "errors", "harness", "model", "solver", "svgplot")


def readme_section(title):
    """The README text under the heading `title`, up to the next heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    body = readme.split(f"\n{title}\n", 1)[1]
    return body.split("\n#", 1)[0]


def exported_by_submodule():
    """{submodule: [names]} from the README table of what the package exports."""
    table = {}
    for line in readme_section("### What the package exports").splitlines():
        if line.startswith("| `mowave."):
            module, names = line.strip("| ").split(" | ")
            table[module.strip("`")] = [name.strip("`") for name in names.split(", ")]
    return table


def names_read_from_mowave(source):
    """Names a source imports from mowave or reads as mowave.<name>."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "mowave":
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "mowave":
            names.add(node.attr)
    return names


def test_the_package_exports_the_documented_names():
    public = sorted(
        name for name, value in vars(mowave).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    table = exported_by_submodule()
    assert public == sorted(name for names in table.values() for name in names)
    assert len(public) == 41
    for module, names in table.items():
        for name in names:
            assert getattr(mowave, name) is getattr(importlib.import_module(module), name), name


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_names_are_the_modules(name):
    assert getattr(mowave, name) is importlib.import_module(f"mowave.{name}")


@pytest.mark.parametrize(
    "source",
    [
        readme_section("## Python API").split("```python\n", 1)[1].split("```", 1)[0],
        (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"),
        (ROOT / "perfbench" / "setup_child.py").read_text(encoding="utf-8"),
    ],
    ids=["readme-example", "acceptance", "perfbench-setup"],
)
def test_what_outside_readers_use_resolves(source):
    names = names_read_from_mowave(source)
    assert names
    assert [name for name in sorted(names) if not hasattr(mowave, name)] == []


def test_the_benchmark_tracer_finds_every_target(monkeypatch):
    # perfbench's tracer wraps mowave attributes by name; a removed or renamed
    # target shows up here as missing
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    originals = {name: getattr(mowave.solver, name) for name in ("_rhs_arrays", "coefficient_grids")}
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
    assert {name: getattr(mowave.solver, name) for name in originals} == originals
