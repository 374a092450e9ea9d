import importlib.util
import itertools
import json
import math
import operator
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from toricstab import AffineFn, ParseError, Polytope, ValidationError, extremal_affine
from toricstab import corpus as corpus_mod
from toricstab.polytope import lattice_isomorphisms

import oracles


def test_corpus_names_complete():
    names = corpus_mod.corpus_names()
    assert names == [
        "CP3", "B1", "B2", "B3", "B4",
        "C1", "C2", "C3", "C4", "C5",
        "D1", "D2", "E1", "E2", "E3", "E4",
        "F1", "F2", "ORB-530571",
    ]


def test_provenance_tags(corpus_entries):
    explicit = {n for n, e in corpus_entries.items() if e.provenance == "explicit"}
    assert explicit == {"CP3", "B1", "B2", "ORB-530571"}
    assert all(
        e.provenance in ("explicit", "database") for e in corpus_entries.values()
    )


def test_save_load_roundtrip(tmp_path, corpus_entries):
    for entry in corpus_entries.values():
        path = tmp_path / f"{entry.name}.json"
        path.write_text(json.dumps(corpus_mod.polytope_to_json(entry.polytope)))
        again = corpus_mod.load_polytope(path)
        assert again == entry.polytope
        assert (again.den, again.rows) == (entry.polytope.den, entry.polytope.rows)
        assert again.den == math.lcm(*(x.denominator for v in again.vertices for x in v))
        assert sorted((h.normal, h.rhs) for h in again.halfspaces) == sorted(
            (h.normal, h.rhs) for h in entry.polytope.halfspaces
        )


def test_load_halfspaces_only_synthesizes_vertices(tmp_path, corpus_entries):
    entry = corpus_entries["B2"]
    doc = {
        "name": "B2-hrep",
        "halfspaces": [
            {"normal": list(h.normal), "rhs": str(h.rhs)}
            for h in entry.polytope.halfspaces
        ],
    }
    path = tmp_path / "b2h.json"
    path.write_text(json.dumps(doc))
    p = corpus_mod.load_polytope(path)
    assert p.vertices == entry.polytope.vertices


def test_load_vertices_only_synthesizes_halfspaces(tmp_path, cube):
    doc = {"vertices": [[str(x) for x in v] for v in cube.vertices]}
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc))
    p = corpus_mod.load_polytope(path)
    assert sorted((h.normal, h.rhs) for h in p.halfspaces) == sorted(
        (h.normal, h.rhs) for h in cube.halfspaces
    )


def test_malformed_rhs_rejected(tmp_path):
    doc = {"halfspaces": [{"normal": [1, 0], "rhs": "1/0"}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        corpus_mod.load_polytope(path)


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        corpus_mod.load_polytope(path)


def test_mismatched_representations_rejected(tmp_path, cube):
    doc = {
        "halfspaces": [
            {"normal": list(h.normal), "rhs": str(h.rhs)} for h in cube.halfspaces
        ],
        "vertices": [["2", "0", "0"], ["-2", "0", "0"], ["0", "2", "0"],
                     ["0", "-2", "0"], ["0", "0", "2"], ["0", "0", "-2"]],
    }
    path = tmp_path / "mismatch.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(
        ValidationError,
        match="^halfspace and vertex representations describe different polytopes$",
    ):
        corpus_mod.load_polytope(path)


def _both(p, vertices, **extra):
    """A document with P's half-spaces and the given vertex rows."""
    return {
        "halfspaces": [{"normal": list(h.normal), "rhs": str(h.rhs)} for h in p.halfspaces],
        "vertices": [[str(x) for x in v] for v in vertices],
        **extra,
    }


def test_both_representations_cross_check(cube):
    # A stored vertex list may repeat a vertex and hold a point that is not
    # a vertex: its hull is still the polytope of the half-spaces.
    verts = list(cube.vertices)
    p = corpus_mod.polytope_from_json(_both(cube, [verts[3], *verts, verts[3], (0, 0, 1)]))
    assert p == cube and p.halfspaces == cube.halfspaces
    # Rows of mixed length are rejected as with vertices alone.
    with pytest.raises(ValidationError, match="^mixed ambient dimensions$"):
        corpus_mod.polytope_from_json(_both(cube, [*verts, (0, 0)]))
    # A declared dim is checked on every path: with one representation, and
    # with both, whether the vertex list needs no second hull or, holding a
    # point inside, one.
    for doc in (
        {"vertices": _both(cube, verts)["vertices"]},
        _both(cube, verts),
        _both(cube, [*verts, (0, 0, 0)]),
    ):
        assert corpus_mod.polytope_from_json({**doc, "dim": 3}) == cube
        with pytest.raises(ValidationError, match="^declared dim 2 != actual 3$"):
            corpus_mod.polytope_from_json({**doc, "dim": 2})


def test_load_corpus_hulls_each_entry_once(monkeypatch):
    # Every entry stores both representations; the vertex list is checked
    # against the vertices of the half-spaces, with no hull of its own.
    from toricstab import polytope

    counts = {"rays": 0, "from_vertices": 0}
    extreme_rays = polytope._extreme_rays
    from_vertices = polytope.Polytope.from_vertices

    def rays(*args):
        counts["rays"] += 1
        return extreme_rays(*args)

    def hull(*args):
        counts["from_vertices"] += 1
        return from_vertices(*args)

    monkeypatch.setattr(polytope, "_extreme_rays", rays)
    monkeypatch.setattr(polytope.Polytope, "from_vertices", staticmethod(hull))
    entries = corpus_mod.load_corpus()
    assert counts == {"rays": len(entries), "from_vertices": 0}


def test_unknown_corpus_entry():
    with pytest.raises(ParseError):
        corpus_mod.load_entry("NOPE")


def test_corpus_dir_override(tmp_path, monkeypatch, cube):
    (tmp_path / "X1.json").write_text(json.dumps(corpus_mod.polytope_to_json(cube)))
    (tmp_path / "index.json").write_text(json.dumps(["X1"]))
    monkeypatch.setenv(corpus_mod.ENV_CORPUS_DIR, str(tmp_path))
    assert corpus_mod.corpus_names() == ["X1"]
    entry = corpus_mod.load_entry("X1")
    assert entry.polytope.volume() == 8


def test_resolve_input_corpus_prefix(corpus_entries):
    p, entry = corpus_mod.resolve_input("corpus:B2")
    assert p == corpus_entries["B2"].polytope
    assert entry.name == "B2" and entry.polytope is p


def test_integrity_gate_clean(corpus_gate):
    assert all(not problems for problems in corpus_gate.values()), corpus_gate


def test_integrity_gate_catches_tampering(corpus_entries):
    entry = corpus_mod.load_entry("B3")
    # perturb the polytope: swap in the wrong fan (the B2 one)
    entry.polytope = corpus_mod.load_entry("B2").polytope
    problems = corpus_mod.verify_entry(entry)
    assert problems  # theta and facet list both disagree


def test_build_corpus_script_rebuilds_the_shipped_files(tmp_path):
    # The builder, run as a user runs it, rebuilds the 19 entries and the
    # index byte for byte.
    root = Path(__file__).resolve().parent.parent
    run = subprocess.run(
        [sys.executable, str(root / "scripts" / "build_corpus.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, f"stdout:\n{run.stdout}\nstderr:\n{run.stderr}"
    # the candidate pool, before its timing: a screen that changes the pool
    # fails here even when every entry still pins
    pool_line = run.stdout.splitlines()[1].split("  (")[0].strip()
    assert pool_line == (
        "361 smooth Fano candidates, by ray count {4: 1, 5: 30, 6: 132, 7: 143, 8: 55}"
    )
    shipped = root / "src" / "toricstab" / "data"
    names = sorted(f.name for f in shipped.iterdir())
    assert len(names) == 20 and "index.json" in names
    assert sorted(f.name for f in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (shipped / name).read_bytes(), name


@pytest.fixture(scope="module")
def builder():
    """scripts/build_corpus.py as a module; its main is not run."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "build_corpus.py"
    spec = importlib.util.spec_from_file_location("build_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_builder_pins_the_shipped_database_entries(builder, corpus_entries):
    # A candidate is pinned when the entry it would write passes the gate:
    # the shipped rays of every database entry are.
    database = [e for e in corpus_entries.values() if e.provenance == "database"]
    assert len(database) == 15
    for entry in database:
        assert builder.pins_ok(entry.name, entry.rays), entry.name


@pytest.mark.parametrize("key", ["E4_WEIGHTED", "E4_MOMENT", "E4_NODE_SUM"])
def test_builder_rejects_e4_against_a_perturbed_value(builder, corpus_entries, monkeypatch, key):
    # E4's extra published pins are checked: one value off by 1/7 and its
    # shipped rays no longer pin.
    rays = corpus_entries["E4"].rays
    assert builder.pins_ok("E4", rays)
    values = list(getattr(builder, key))
    values[1] += Fraction(1, 7)
    monkeypatch.setattr(builder, key, tuple(values))
    assert not builder.pins_ok("E4", rays)


def test_builder_screen_is_the_gate_test(builder, corpus_entries):
    # Every shipped fan passes the screen, with the entry's polytope; a fan
    # with a repeated ray, a ray that is not primitive, rays that leave 0
    # outside their hull, a singular fan (P(1, 1, 1, 2)) or a smooth fan
    # that is not Fano (F2 x P1, whose ray (0, 1, 0) is no facet) does not.
    fans = [e for e in corpus_entries.values() if e.rays is not None]
    assert len(fans) == 18
    for entry in fans:
        assert builder.smooth_fano_polytope(entry.rays) == entry.polytope, entry.name
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    for rays in (
        [*basis, (-1, -1, -1), (1, 0, 0)],
        [(2, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
        basis,
        [*basis, (-1, -1, -2)],
        [(1, 0, 0), (0, 1, 0), (-1, 2, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    ):
        assert builder.smooth_fano_polytope(rays) is None, rays


def _invariants(p):
    """The vertex and facet counts, the volume, the sorted vertex counts of
    the facets and whether theta is 0: unchanged by GL(3, Z) and by
    translations."""
    return (
        len(p.vertices),
        len(p.halfspaces),
        p.volume(),
        tuple(sorted(mask.bit_count() for mask in p.incidence)),
        extremal_affine(p).theta == AffineFn.zero(p.dim),
    )


def test_smooth_fano_entries_are_pairwise_distinct(corpus_entries):
    # The 18 smooth Fano entries are 18 varieties: no lattice isomorphism
    # maps one onto another, and a tuple that a seeded unimodular map and
    # translation keep differs for every pair.  Without theta's flag
    # B3/B4, C3/C4 and F1/F2 would collide.
    rng = random.Random(18)
    keys = {}
    smooth = [entry for entry in corpus_entries.values() if entry.rays is not None]
    for entry in smooth:
        p = entry.polytope
        m = oracles.random_unimodular(rng)
        shift = [rng.randint(-3, 3) for _ in range(3)]
        image = Polytope.from_vertices(
            [[sum(map(operator.mul, row, v)) + s for row, s in zip(m, shift)] for v in p.vertices]
        )
        keys[entry.name] = _invariants(p)
        assert _invariants(image) == keys[entry.name], entry.name
    assert len(keys) == 18 and len(set(keys.values())) == 18, keys
    for a, b in (("B3", "B4"), ("C3", "C4"), ("F1", "F2")):
        assert keys[a][:-1] == keys[b][:-1], (a, b)
    for e, f in itertools.combinations(smooth, 2):
        assert lattice_isomorphisms(e.polytope, f.polytope) == [], (e.name, f.name)
