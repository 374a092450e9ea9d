"""Source-level guards on the library: its invariants stay on in every run,
including under ``python -O``, no hull falls back to a subset scan, no
module but the one that defines it builds a facet chart or reads the cell
format, and no module integrates above degree 2; and every library
function the benchmark reports by name exists; and the package exposes
exactly the API that the README lists."""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import toricstab
from toricstab.polytope import Polytope

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricstab"


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


def test_cell_format_stays_in_polytope():
    # Only polytope.py knows the cell format (cells, weights, base) that the
    # moment records are summed from, and above degree 2 the library does
    # not integrate: the barycentric substitution lives in the test oracles.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "compose_affine":
                found.append(f"{path.name}:{node.lineno} defines compose_affine")
            if path.name == "polytope.py":
                continue
            ident = (
                node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias)
                else None
            )
            if ident in ("_weighted_cells", "_face_cells"):
                found.append(f"{path.name}:{node.lineno} names {ident}")
    assert not found, f"cell format or higher-degree route outside polytope.py: {found}"


def test_benchmark_layer_names_resolve():
    # Every per-layer metric <module>.<function>.{calls,self_s,time_s} that
    # BENCHMARK.json declares names a callable of toricstab.<module> or a
    # Polytope method, so deleting one fails here, not in a traced
    # benchmark run that cannot find it.
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    resolved, missing = 0, []
    for metric in metrics:
        parts = metric["name"].split(".")
        if len(parts) != 3 or parts[2] not in ("calls", "self_s", "time_s"):
            continue
        module = importlib.import_module(f"toricstab.{parts[0]}")
        fn = getattr(module, parts[1], getattr(Polytope, parts[1], None))
        if callable(fn):
            resolved += 1
        else:
            missing.append(metric["name"])
    assert not missing, f"benchmark names without a function: {missing}"
    assert resolved > 40


def test_public_api():
    # toricstab.__all__ is the README's API table, in its order; each name
    # resolves and has a docstring of its own (not a dataclass's generated
    # signature), and the package exposes no other public name but its
    # modules and __version__.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, re.M)
    assert listed == toricstab.__all__
    for name in listed:
        obj = getattr(toricstab, name)
        doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
        assert doc and not doc.startswith(f"{name}("), f"{name} has no docstring of its own"
    exposed = {
        name for name, value in vars(toricstab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exposed == set(listed)
