"""Source-level guards on the library: its invariants stay on in every run,
including under ``python -O``, no hull falls back to a subset scan, and no
module but the one that defines it builds a facet chart."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricstab"


def test_no_assert_statements_in_library():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_no_subset_scans_in_library():
    # Hulls and vertex enumeration run the double description; scans over
    # every subset of points or facets live only in the test oracles.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            imported = isinstance(node, ast.ImportFrom) and node.module == "itertools" and any(
                alias.name == "combinations" for alias in node.names
            )
            qualified = (
                isinstance(node, ast.Attribute)
                and node.attr == "combinations"
                and isinstance(node.value, ast.Name)
                and node.value.id == "itertools"
            )
            if imported or qualified:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"itertools.combinations used in the library: {found}"


def test_no_charts_on_the_l_path():
    # L and the PL integrals read the moment records of regions and their
    # facets; facet charts are the route the test oracles take.  No library
    # file, on the L path or off it, names one, except polytope.py, which
    # keeps the chart for the benchmark's traced run.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "polytope.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            ident = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef))
                else None
            )
            if ident in ("facet_chart", "FacetChart"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"facet charts referenced in the library: {found}"
