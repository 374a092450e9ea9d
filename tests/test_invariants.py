"""Source-level guards on the library: its invariants stay on in every run,
including under ``python -O``, no hull falls back to a subset scan, no
module but the one that defines it builds a facet chart or reads the cell
format, no module integrates above degree 2, and no module on a command
path imports the ``Poly`` route; every library function the benchmark
reports by name exists, and every module-level function and class has a
user; and the package exposes exactly the API that the README lists."""

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


def test_commands_import_no_poly_route():
    # Every integral a command needs is read off the integer moment records
    # (Moments.linear and Moments.quadratic).  The Poly route stays as the
    # documented API and the tests' reference, and no module on a command
    # path imports it; moment_vector, a record's first moments, may stay.
    banned = {"Poly", "integrate", "boundary_integral", "integrate_pl"}
    found = []
    for name in ("stability.py", "corpus.py", "cli.py", "lattice.py"):
        tree = ast.parse((SRC / name).read_text(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [
                    f"{name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.rsplit(".", 1)[-1] in banned
                ]
    assert not found, f"the Poly route imported on a command path: {found}"


def test_plfun_imports_no_solver():
    # upper_hull reads flat and curved heights off one hull of the lifted
    # nodes and a point below them; plfun solves no linear system.
    banned = {"solve_linear", "_solve", "_independent_rows"}
    tree = ast.parse((SRC / "plfun.py").read_text(), filename="plfun.py")
    found = [
        f"plfun.py:{node.lineno} imports {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.name.rsplit(".", 1)[-1] in banned
    ]
    assert not found, f"a solver imported by plfun: {found}"


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


def _identifiers(tree) -> set:
    """Every name an AST reads: names, attributes and imported names."""
    return {
        node.id if isinstance(node, ast.Name)
        else node.attr if isinstance(node, ast.Attribute)
        else node.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias))
    }


def test_every_module_level_name_has_a_user():
    # No helper goes unused: each module-level function and class of the
    # library is read by another statement of src/ (an import counts, a
    # function calling itself does not), or is exported, or is named by a
    # per-layer metric of the benchmark, or is used by a script.
    statements = [
        (path.stem, node, _identifiers(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    scripts = set()
    for path in sorted((ROOT / "scripts").glob("*.py")):
        scripts |= _identifiers(ast.parse(path.read_text(), filename=str(path)))
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    probed = {tuple(m["name"].split(".")[:2]) for m in metrics}
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        name = node.name
        read = any(name in names for _, other, names in statements if other is not node)
        if not (read or name in toricstab.__all__ or (module, name) in probed or name in scripts):
            unused.append(f"{module}.{name}")
    assert not unused, f"module-level names with no user: {unused}"


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
