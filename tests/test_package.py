"""The package's public surface, as ``from convexpoint import *`` sees it,
and as the benchmark scripts import it."""

import ast
from pathlib import Path

import convexpoint


def test_star_import_gives_every_public_name_once():
    namespace = {}
    # a star import raises AttributeError for a name in __all__ that the
    # package does not define
    exec("from convexpoint import *", namespace)
    names = convexpoint.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert namespace[name] is getattr(convexpoint, name)


def test_benchmark_imports_only_public_names():
    # perfbench imports the package by name; a name it needs that leaves
    # __all__ would otherwise show only when the benchmark runs
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    scripts = sorted(perfbench.glob("*.py"))
    assert scripts
    imported = set()
    for path in scripts:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "convexpoint":
                imported.update(alias.name for alias in node.names)
    assert imported
    assert imported <= set(convexpoint.__all__), \
        imported - set(convexpoint.__all__)
