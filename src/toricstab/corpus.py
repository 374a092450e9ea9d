"""Polytope file I/O and the built-in corpus of reference threefolds.

Corpus entries are checked-in JSON files (one per variety) holding the fan
rays, the moment polytope in both representations, and the published check
values the entry must reproduce.  Entries tagged ``explicit`` carry data
fixed verbatim by the primary source; entries tagged ``database`` were
regenerated from the standard classification of smooth toric Fano threefolds
(see scripts/build_corpus.py) and must pass :func:`verify_entry` before any
stability conclusion is attributed to them.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .errors import ParseError, ValidationError
from .integrate import moment_vector
from .lattice import _level_sums, check_levels, ehrhart
from .linalg import quoted, rat, rat_str
from .plfun import AffineFn
from .polytope import Polytope, is_reflexive_delzant, polar_dual
from .stability import FAILS, chow_necessary, excess_region, extremal_affine

DATA_DIR = Path(__file__).parent / "data"
ENV_CORPUS_DIR = "TORICSTAB_CORPUS_DIR"


# ---------------------------------------------------------------------------
# polytope (de)serialization
# ---------------------------------------------------------------------------


def polytope_to_json(p: Polytope) -> dict:
    return {
        "name": p.name,
        "dim": p.dim,
        "halfspaces": [
            {"normal": list(h.normal), "rhs": rat_str(h.rhs)} for h in p.halfspaces
        ],
        "vertices": [[rat_str(x) for x in v] for v in p.vertices],
    }


def polytope_from_json(data: dict, name: Optional[str] = None) -> Polytope:
    """Accepts either representation; synthesizes and cross-checks the other.

    With both, the polytope is built from the half-spaces.  A vertex list
    that, deduplicated and sorted, is its vertices passes with no second
    hull; any other is hulled and must give the same vertices.  A normal's
    entries are ints or ``"p/q"`` strings, a declared ``dim`` an int that
    P's dimension must match, and a ``name`` a string (or null, as an
    unnamed polytope is written).
    """
    if not isinstance(data, dict):
        raise ParseError("polytope document must be a JSON object")
    if data.get("name") is not None and not isinstance(data["name"], str):
        raise ParseError(f"the name must be a string, got {type(data['name']).__name__}")
    name = data.get("name") or name
    try:
        hs_doc, v_doc = (
            [] if data.get(key) is None else _json_list(data[key], key)
            for key in ("halfspaces", "vertices")
        )
    except TypeError as exc:
        raise ParseError(str(exc)) from exc
    if not hs_doc and not v_doc:
        raise ParseError("polytope needs 'halfspaces' or 'vertices'")
    if "dim" in data and type(data["dim"]) is not int:  # bool is an int subclass
        raise ParseError(f"the dim must be an integer, got {type(data['dim']).__name__}")
    built_h = built_v = None
    try:
        if hs_doc:
            raw = []
            for k, item in enumerate(hs_doc):
                try:
                    if not isinstance(item, dict) or not item.keys() >= {"normal", "rhs"}:
                        raise TypeError('a half-space is an object with "normal" and "rhs"')
                    normal = _json_list(item["normal"], "normal")
                    # an int entry stays an int, as primitive_normal clears it
                    normal = [x if type(x) is int else rat(x) for x in normal]
                    raw.append((normal, rat(item["rhs"])))
                except (TypeError, ValueError, ValidationError) as exc:
                    raise ParseError(f"halfspace {k}: {exc}") from exc
            built_h = Polytope.from_halfspaces(raw, name)
        if v_doc:
            pts = []
            for k, row in enumerate(v_doc):
                try:
                    pts.append(tuple(rat(x) for x in _json_list(row, "row")))
                except (TypeError, ValueError, ValidationError) as exc:
                    raise ParseError(f"vertex {k}: {exc}") from exc
            if not built_h or sorted(set(pts)) != list(built_h.vertices):
                built_v = Polytope.from_vertices(pts, name)
    except (ParseError, ValidationError):
        raise
    except Exception as exc:  # degenerate geometry surfaces as validation
        raise ValidationError(str(exc)) from exc
    if built_h and built_v and built_h.vertices != built_v.vertices:
        raise ValidationError("halfspace and vertex representations describe different polytopes")
    p = built_h or built_v
    if "dim" in data and data["dim"] != p.dim:
        raise ValidationError(f"declared dim {data['dim']} != actual {p.dim}")
    return p


def _json_list(value, what: str) -> list:
    """``value`` when it is a JSON list; a string would read as its characters."""
    if not isinstance(value, list):
        raise TypeError(f"the {what} must be a list, got {type(value).__name__}")
    return value


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # bytes that are not UTF-8, nesting past the recursion limit, or a
        # number past the digit limit, whose advice is not for the user
        raise ParseError(f"{path}: {str(exc).split(';')[0]}") from exc


def load_polytope(path) -> Polytope:
    path = Path(path)
    data = _read_json(path)
    doc = data.get("polytope", data) if isinstance(data, dict) else data
    return polytope_from_json(doc, name=path.stem)


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


@dataclass
class CorpusEntry:
    name: str
    provenance: str  # "explicit" (data fixed verbatim) or "database" (regenerated)
    polytope: Polytope
    rays: Optional[list[tuple[int, ...]]]
    expected: dict
    raw: dict = field(repr=False, default_factory=dict)
    path: Optional[Path] = None


def corpus_dir() -> Path:
    override = os.environ.get(ENV_CORPUS_DIR)
    return Path(override) if override else DATA_DIR


def corpus_names() -> list[str]:
    index = corpus_dir() / "index.json"
    if index.exists():
        names = _read_json(index)
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ParseError(f"{index}: the index must be a JSON list of entry names")
        return names
    return sorted(p.stem for p in corpus_dir().glob("*.json") if p.stem != "index")


def load_entry(name: str) -> CorpusEntry:
    path = corpus_dir() / f"{name}.json"
    if not path.exists():
        raise ParseError(f"no corpus entry named {name!r}")
    return entry_from_json(_read_json(path), name, path)


def entry_from_json(data, name: str, path: Optional[Path] = None) -> CorpusEntry:
    """The corpus entry a parsed JSON document describes; errors name ``path``."""
    if not isinstance(data, dict):
        raise ParseError(f"{path}: a corpus entry must be a JSON object")
    try:
        rays = [tuple(map(operator.index, r)) for r in data["rays"]] if "rays" in data else None
    except TypeError as exc:
        raise ParseError(f"{path}: rays: {exc}") from exc
    expected, notes = data.get("expected", {}), data.get("notes", [])
    if not isinstance(expected, dict):
        raise ParseError(f"{path}: 'expected' must be a JSON object")
    if not isinstance(notes, list) or not all(isinstance(note, str) for note in notes):
        raise ParseError(f"{path}: 'notes' must be a JSON list of strings")
    name = data.get("name", name)
    if not isinstance(name, str):
        raise ParseError(f"{path}: 'name' must be a string")
    try:
        poly = polytope_from_json(data.get("polytope", data), name=name)
    except (ParseError, ValidationError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    return CorpusEntry(
        name=name,
        provenance=data.get("provenance", "database"),
        polytope=poly,
        rays=rays,
        expected=expected,
        raw=data,
        path=path,
    )


def load_corpus() -> list[CorpusEntry]:
    return [load_entry(name) for name in corpus_names()]


def resolve_input(spec: str) -> tuple[Polytope, Optional[CorpusEntry]]:
    """The polytope 'corpus:NAME' or a path to a polytope JSON file names,
    and its corpus entry (``None`` for a file), the entry read once."""
    if spec.startswith("corpus:"):
        entry = load_entry(spec.split(":", 1)[1])
        return entry.polytope, entry
    return load_polytope(spec), None


# ---------------------------------------------------------------------------
# integrity gate
# ---------------------------------------------------------------------------


def _rats(xs) -> tuple[Fraction, ...]:
    """A JSON list of rationals."""
    if not isinstance(xs, list):
        raise TypeError(f"{quoted(xs)} is not a list")
    return tuple(rat(x) for x in xs)


def _level(key: str, p: Polytope) -> int:
    """A level key of ``lattice_point_sums``: a positive int whose levels
    fit the node budget (:func:`~toricstab.lattice.check_levels`)."""
    # rat turns a key past the interpreter's digit limit into a short error
    level = rat(key).numerator if key.isascii() and key.isdigit() else 0
    if level < 1 or str(level) != key:
        raise ValueError(f"level {quoted(key)} is not a positive int")
    try:
        check_levels(level, p)
    except ValidationError as exc:
        raise ValueError(f"level {quoted(key)}: {exc}") from exc
    return level


def verify_entry(entry: CorpusEntry) -> list[str]:
    """Recompute every published check value stored on the entry.

    Returns a list of human-readable discrepancy strings; empty means the
    entry is trustworthy.  Database-derived entries must pass this gate
    before stability conclusions are attributed to them.  A published value
    or a polar-dual vertex list of the wrong type, a ``fano_vertices`` with
    no ``dual_vertices``, or a lattice level that is not a positive int or
    is over the node budget, is a :class:`ParseError` naming the file and
    the key, raised before any lattice point is enumerated.
    """
    problems: list[str] = []
    p = entry.polytope
    exp = entry.expected

    def check(label, got, want):
        if got != want:
            problems.append(f"{label}: computed {got} != expected {want}")

    def expected(key, parse=rat, doc=exp):
        # a published value, or with doc=entry.raw a key of the entry itself
        try:
            return parse(doc[key])
        except (
            AttributeError, KeyError, TypeError, ValueError, ValidationError, ZeroDivisionError
        ) as exc:
            detail = f"no key {exc}" if isinstance(exc, KeyError) else exc
            where = "expected " if doc is exp else ""
            raise ParseError(f"{entry.path}: {where}{key!r}: {detail}") from exc

    if entry.rays is not None:
        want_hs = sorted(
            (tuple(-x for x in r), Fraction(1)) for r in entry.rays
        )
        got_hs = sorted((h.normal, h.rhs) for h in p.halfspaces)
        check("facets-vs-rays", got_hs, want_hs)
    if "fano_vertices" in entry.raw:
        fano = expected(
            "fano_vertices", lambda v: Polytope.from_vertices(list(map(_rats, v))), entry.raw
        )
        want = expected("dual_vertices", lambda v: sorted(map(_rats, v)), entry.raw)
        dual = polar_dual(fano)
        check("polar_dual_vertices", sorted(dual.vertices), want)
        # Scaling by 2 keeps both the vertices and their lex order, so the
        # doubled dual's sorted vertices are 2v over the dual's.
        doubled = tuple(tuple(2 * x for x in v) for v in dual.vertices)
        check("doubled_dual", doubled, p.vertices)
    if entry.provenance == "database":
        reflexive, delzant = is_reflexive_delzant(p)
        if not reflexive:
            problems.append("database entry is not reflexive")
        if not delzant:
            problems.append("database entry fails the vertex-basis condition")

    if "theta" in exp:
        zero = AffineFn.zero(p.dim)
        want = expected(
            "theta", lambda t: zero if t == "zero" else AffineFn.make(_rats(t["a"]), t["c"])
        )
        check("theta", extremal_affine(p).theta, want)

    if "delta_minus_vertices" in exp or "delta_minus_volume" in exp:
        dm = excess_region(p, extremal_affine(p))
    if "delta_minus_vertices" in exp:
        want = expected(
            "delta_minus_vertices", lambda v: v if v == "empty" else sorted(map(_rats, v))
        )
        if want == "empty":
            if dm is not None:
                problems.append("excess region expected empty but has interior")
        elif dm is None:
            problems.append("excess region expected nonempty but is empty")
        else:
            check("delta_minus", sorted(dm.vertices), want)

    if "volume" in exp:
        check("volume", p.volume(), expected("volume"))
    if "moment_x3" in exp:
        check("moment_x3", moment_vector(p)[2], expected("moment_x3"))
    if "moment" in exp:
        check("moment", moment_vector(p), expected("moment", _rats))
    if "boundary_moment" in exp:
        want = expected("boundary_moment", _rats)
        # the lattice-measure integrals of x_k over the facets, off their records
        facets = map(p.facet_moments, range(len(p.halfspaces)))
        got = tuple(map(sum, zip(*(m.first for m in facets))))
        check("boundary_moment", got, want)
    if "delta_minus_volume" in exp:
        want = expected("delta_minus_volume")
        if dm is None:
            problems.append("delta_minus_volume expected but region is empty")
        else:
            check("delta_minus_volume", dm.volume(), want)
    # Every level is parsed and checked against the budget before any is
    # enumerated; "lattice_point_sum" is level 1.
    sums = {}
    if "lattice_point_sum" in exp:
        sums["lattice_point_sum"] = (1, expected("lattice_point_sum", _rats))
    if "lattice_point_sums" in exp:
        sums.update(expected("lattice_point_sums", lambda d: {
            f"lattice_point_sums[{k}]": (_level(k, p), _rats(w)) for k, w in d.items()
        }))
    if "ehrhart" in exp:
        check("ehrhart", ehrhart(p).coeffs, expected("ehrhart", _rats))
    for label, (level, want) in sums.items():
        check(label, tuple(map(Fraction, _level_sums(p, level).first)), want)
    if "weighted_node_sum" in exp:
        want = expected("weighted_node_sum", _rats)
        # at level 1 the coefficients of the balance system are the
        # weighted node sum, the sum over the nodes of (theta - theta_bar) a
        got = chow_necessary(p, extremal_affine(p), 1).coeffs
        check("weighted_node_sum", got, want)
    if "chow_level1" in exp:
        cond = chow_necessary(p, extremal_affine(p), 1)
        want = exp["chow_level1"]
        if (want == "fails") != (cond.status == FAILS):
            problems.append(f"chow_level1: computed {cond.status} != expected {want}")
    return problems
