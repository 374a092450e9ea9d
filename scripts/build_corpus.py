#!/usr/bin/env python3
"""Regenerate the built-in polytope corpus.

The entries whose data is fixed verbatim (the B1 and B2 fans, the standard
simplex for CP3, and the ID-530571 canonical Fano polytope) are written
directly.  The remaining smooth toric Fano threefolds are reconstructed from
the standard classification: candidate fans are generated as products,
projective bundles and iterated equivariant blowups, each screened with the
integrity gate's own test of a database entry (``smooth_fano_polytope``:
one facet <-r, x> <= 1 per ray r of a reflexive Delzant polytope).  Each
table row is then pinned to its published extremal-potential coefficients
(and, where available, excess-region vertex sets, moments and lattice sums)
by searching for the unimodular change of coordinates that reproduces them
exactly.  A candidate is pinned when the entry it would write, read back
through the corpus loader, passes the integrity gate
(``corpus.verify_entry``): matching the published big-rational data exactly
makes it the right variety in the right coordinates; nothing else can
collide.

Usage: python scripts/build_corpus.py [outdir]
"""

import itertools
import json
import math
import sys
import time
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from toricstab import (
    Polytope,
    ToricStabError,
    extremal_affine,
    is_reflexive_delzant,
    moment_vector,
    polar_dual,
)
from toricstab.corpus import entry_from_json, polytope_to_json, verify_entry
from toricstab.linalg import determinant, rat_str, solve_linear
from toricstab.stability import excess_region

# --------------------------------------------------------------------------
# published reference data (extremal potential, exact) for the 18 smooth
# toric Fano threefolds, keyed by the classical notation
# --------------------------------------------------------------------------

THETA = {
    "CP3": None,
    "B1": ((0, 0, F(-620, 349)), F(-240, 349)),
    "B2": ((0, 0, F(-70, 97)), F(-15, 97)),
    "B3": ((F(-20, 43), F(-20, 43), 0), F(-5, 43)),
    "B4": None,
    "C1": ((0, 0, F(-260, 219)), F(-80, 219)),
    "C2": ((F(-7600, 17787), 0, F(-17750, 17787)), F(-4868, 17787)),
    "C3": None,
    "C4": ((0, F(-6, 11), 0), F(-1, 11)),
    "C5": None,
    "D1": ((F(99600, 467581), F(-627000, 467581), 0), F(-213939, 467581)),
    "D2": ((F(219420, 650251), F(-318320, 650251), 0), F(-62565, 650251)),
    "E1": ((F(-17020, 19651), F(-17020, 19651), 0), F(-6845, 19651)),
    "E2": ((F(-2646160, 2735927), F(-982960, 2735927), 0), F(-692905, 2735927)),
    "E3": ((F(-168, 409), F(-168, 409), 0), F(-32, 409)),
    "E4": ((F(-34208, 78995), F(7936, 78995), 0), F(-24929, 394975)),
    "F1": None,
    "F2": ((0, F(36, 67), 0), F(-5, 67)),
}

RAY_COUNT = {
    "CP3": 4, "B1": 5, "B2": 5, "B3": 5, "B4": 5,
    "C1": 6, "C2": 6, "C3": 6, "C4": 6, "C5": 6, "D1": 6, "D2": 6,
    "E1": 7, "E2": 7, "E3": 7, "E4": 7, "F1": 8, "F2": 8,
}

# published excess-region vertex sets (empty unless listed)
DELTA_MINUS = {
    "B1": [
        (4, -1, -1),
        (F(39, 10), -1, F(-19, 20)),
        (-1, -1, F(-19, 20)),
        (-1, F(39, 10), F(-19, 20)),
        (-1, -1, -1),
        (-1, 4, -1),
    ],
    "C2": [
        (F(-981, 1520), -1, -1),
        (F(-981, 1520), F(4021, 1520), -1),
        (-1, F(10111, 3550), F(-3011, 3550)),
        (-1, 3, -1),
        (-1, -1, F(-3011, 3550)),
        (-1, -1, -1),
    ],
    "D1": [
        (F(48388, 18165), F(-12058, 18165), -1),
        (F(1363, 2490), -1, F(3617, 2490)),
        (3, -1, -1),
        (F(1363, 2490), -1, -1),
    ],
    "D2": [
        (2, F(-1489, 1730), -1),
        (F(4288, 2385), -1, F(-1903, 2385)),
        (2, -1, -1),
        (F(4288, 2385), -1, -1),
    ],
    # E1/E2: the published tables carry a sign misprint on the third
    # coordinate of one vertex each (the printed points fall outside the
    # polytope's coordinate range, so they cannot lie on any face).  The
    # corrected values below are forced by exact recomputation; the
    # discrepancy is recorded in the emitted entries.
    "E1": [
        (F(-103, 185), -1, -1),
        (F(-103, 185), -1, F(473, 185)),   # printed: -473/185
        (-1, F(-103, 185), -1),
        (-1, F(-103, 185), F(473, 185)),
        (-1, -1, 3),
        (-1, -1, -1),
    ],
    "E2": [
        (F(-13897, 15035), -1, -1),
        (F(-13897, 15035), -1, F(28932, 15035)),   # printed: -28932/15035
        (-1, F(-4447, 5585), -1),
        (-1, F(-4447, 5585), 2),
        (-1, -1, 2),
        (-1, -1, -1),
    ],
}

# vertices whose published coordinates disagree with exact recomputation
DELTA_MINUS_MISPRINTS = {
    "E1": [{"computed": ["-103/185", "-1", "473/185"], "printed": ["-103/185", "-1", "-473/185"]}],
    "E2": [{"computed": ["-13897/15035", "-1", "28932/15035"], "printed": ["-13897/15035", "-1", "-28932/15035"]}],
}

# published stability verdicts (claims to report against, never test oracles)
PUBLISHED_VERDICTS = {
    "CP3": ("stable", "stable"),
    "B1": ("unstable", "unstable"),
    "B2": ("stable", ""),
    "B3": ("stable", ""),
    "B4": ("stable", "stable"),
    "C1": ("stable", ""),
    "C2": ("unstable", "unstable"),
    "C3": ("stable", "stable"),
    "C4": ("stable", ""),
    "C5": ("stable", "stable"),
    "D1": ("unstable", "unstable"),
    "D2": ("unstable", "unstable"),
    "E1": ("unstable", "unstable"),
    "E2": ("unstable", "unstable"),
    "E3": ("stable", ""),
    "E4": ("stable", "unstable"),
    "F1": ("stable", "stable"),
    "F2": ("stable", ""),
}

ENTRY_NOTES = {
    "B1": [
        "published intermediate integrals over the excess region are dimensionally "
        "inconsistent with the printed region (|integral of x3| cannot exceed its volume); "
        "the mean criterion is recomputed exactly here and does not confirm the "
        "published instability verdict"
    ],
    "E1": ["one published excess-region vertex carries a sign misprint; corrected by exact recomputation"],
    "E2": ["one published excess-region vertex carries a sign misprint; corrected by exact recomputation"],
}

# extra exact pins for E4 (the counterexample entry)
E4_MOMENT = (F(-7, 8), F(5, 12), F(5, 24))
E4_NODE_SUM = (-4, 2, 1)
E4_WEIGHTED = (F(-11134272, 1816885), F(1079424, 363377), F(539712, 363377))
E4_EHRHART = (F(20, 3), 10, F(16, 3), 1)

EXPLICIT_RAYS = {
    "CP3": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)],
    "B1": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -2)],
    "B2": [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (-1, -1, -1)],
}

ORB_FANO_VERTICES = [(1, -1, -2), (0, 1, 3), (1, 1, 3), (1, 2, 4), (0, 1, 0), (-2, -2, -3)]


SIGNED_PERMS = [
    tuple((p, s) for p, s in zip(perm, signs))
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def canonical_key(rays):
    """Cheap canonical form up to signed coordinate permutation."""
    best = None
    for sp in SIGNED_PERMS:
        img = tuple(sorted(tuple(s * r[p] for p, s in sp) for r in rays))
        if best is None or img < best:
            best = img
    return best


# --------------------------------------------------------------------------
# candidate generation
# --------------------------------------------------------------------------

SURFACES = {
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P1xP1": [(1, 0), (-1, 0), (0, 1), (0, -1)],
    "S1": [(1, 0), (0, 1), (1, 1), (-1, -1)],
    "S2": [(1, 0), (0, 1), (-1, 0), (0, -1), (-1, -1)],
    "S3": [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1)],
}


def gen_candidates():
    for name, rays in EXPLICIT_RAYS.items():
        yield name, rays
    for sname, surf in SURFACES.items():
        yield f"{sname} x P1", [(u[0], u[1], 0) for u in surf] + [(0, 0, 1), (0, 0, -1)]
    for sname, surf in SURFACES.items():
        m = len(surf)
        rng = (-2, -1, 0, 1, 2) if m <= 4 else (-1, 0, 1)
        for twists in itertools.product(rng, repeat=m):
            if all(t == 0 for t in twists):
                continue
            rays = [(u[0], u[1], t) for u, t in zip(surf, twists)]
            yield f"P1-bundle/{sname}{twists}", rays + [(0, 0, 1), (0, 0, -1)]
    for sname, surf in SURFACES.items():
        for t in itertools.product(range(-2, 3), repeat=2):
            if t == (0, 0):
                continue
            rays = [(u[0], u[1], 0) for u in surf] + [(0, 0, 1), (t[0], t[1], -1)]
            yield f"{sname}-bundle/P1{t}", rays


def smooth_fano_polytope(rays):
    """The anticanonical polytope of a candidate fan, or None when the fan is
    not smooth Fano: the integrity gate's test of a database entry, which
    wants distinct primitive rays, one facet <-r, x> <= 1 per ray r, and a
    reflexive Delzant polytope.  A fan whose rays do not surround 0 has an
    unbounded polytope, and the hull's error rejects it."""
    if len(set(rays)) != len(rays) or any(math.gcd(*r) != 1 for r in rays):
        return None
    try:
        p = anticanonical(rays)
    except ToricStabError:
        return None
    if len(p.halfspaces) != len(rays) or is_reflexive_delzant(p) != (True, True):
        return None
    return p


def gen_blowups(rays, p):
    """The fans one star subdivision away from the smooth Fano fan ``rays``
    with anticanonical polytope ``p``: a new ray at the sum of the rays of a
    maximal cone, or of two of them.  The maximal cones are the facets of p
    through each vertex, as sorted ray-index triples in lexicographic order."""
    ray_of = {tuple(-x for x in r): k for k, r in enumerate(rays)}
    facets = list(zip(p.halfspaces, p.incidence))
    cones = sorted(
        tuple(sorted(ray_of[h.normal] for h, mask in facets if mask >> j & 1))
        for j in range(len(p.rows))
    )
    seen = set()
    for tight in cones:
        for cone in [tight] + list(itertools.combinations(tight, 2)):
            new = tuple(sum(rays[t][i] for t in cone) for i in range(3))
            if new in seen:
                continue
            seen.add(new)
            yield list(rays) + [new]


def candidate_pool():
    """The smooth Fano candidate fans, one per canonical key, each with its
    anticanonical polytope: key -> (tag, rays, polytope)."""
    pool = {}

    def add(tag, rays):
        rays = [tuple(r) for r in rays]
        p = smooth_fano_polytope(rays)
        if p is None:
            return None
        key = canonical_key(rays)
        if key in pool:
            return None
        pool[key] = (tag, rays, p)
        return key

    for tag, rays in gen_candidates():
        add(tag, rays)
    frontier = list(pool)
    while frontier:
        nxt = []
        for key in frontier:
            tag, rays, p = pool[key]
            if len(rays) >= 8:
                continue
            for blown in gen_blowups(rays, p):
                k = add(f"blowup<{tag}>", blown)
                if k:
                    nxt.append(k)
        frontier = nxt
    return pool


# --------------------------------------------------------------------------
# pinning a candidate to the published coordinates
# --------------------------------------------------------------------------


def anticanonical(rays, name=None):
    return Polytope.from_halfspaces([(tuple(-x for x in r), 1) for r in rays], name)


def unimodular_matches(a_cand, a_target, bound=3):
    """Integer W, |det W| = 1, with W a_cand = a_target (gradient transport)."""
    rng = range(-bound, bound + 1)
    rows_per_component = []
    for k in range(3):
        rows = [
            w
            for w in itertools.product(rng, repeat=3)
            if sum(F(wi) * ai for wi, ai in zip(w, a_cand)) == a_target[k]
        ]
        if not rows:
            return
        rows_per_component.append(rows)
    for w in itertools.product(*rows_per_component):
        if abs(determinant(w)) == 1:
            yield w


def apply_unimodular(rays, w):
    return [tuple(sum(w[i][j] * r[j] for j in range(3)) for i in range(3)) for r in rays]


def transpose(m):
    return tuple(tuple(m[r][c] for r in range(3)) for c in range(3))


def inverse(m):
    """Exact inverse of an invertible 3x3 rational matrix, column by column."""
    return transpose([solve_linear(m, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1))])


def point_maps_from_vertex_match(src_pts, dst_pts):
    """Linear unimodular A with A(src set) = dst set, via triple correspondences."""
    if len(src_pts) != len(dst_pts):
        return
    triple = None
    for cand in itertools.combinations(range(len(src_pts)), 3):
        cols = [[src_pts[i][r] for i in cand] for r in range(3)]
        if determinant(cols) != 0:
            triple = cand
            break
    if triple is None:
        return
    vmat = [[src_pts[i][r] for i in triple] for r in range(3)]
    vinv = inverse(vmat)
    src_sorted = sorted(tuple(map(F, p)) for p in src_pts)
    dst_sorted = sorted(tuple(map(F, p)) for p in dst_pts)
    for image in itertools.permutations(range(len(dst_pts)), 3):
        wmat = [[F(dst_pts[i][r]) for i in image] for r in range(3)]
        amat = [
            [sum(wmat[r][k] * vinv[k][c] for k in range(3)) for c in range(3)]
            for r in range(3)
        ]
        if any(x.denominator != 1 for row in amat for x in row):
            continue
        if abs(determinant(amat)) != 1:
            continue
        mapped = sorted(
            tuple(sum(F(amat[r][c]) * p[c] for c in range(3)) for r in range(3))
            for p in src_sorted
        )
        if mapped == dst_sorted:
            yield tuple(tuple(int(x) for x in row) for row in amat)


def pins_ok(name, cand_rays):
    """Whether the entry ``cand_rays`` would give ``name`` passes the gate."""
    doc = entry_json(name, cand_rays, "database")
    return not verify_entry(entry_from_json(doc, name))


def pin_entry(name, rays, p, ed):
    """Find the unimodular image of `rays` reproducing every published value.

    The coordinate change A maps the candidate moment polytope onto the
    published one; rays transform by the inverse transpose.  Printed
    excess-region vertex sets (or, for E4, the printed moment vector) cut the
    search down to a handful of candidate matrices, and the integrity gate on
    the pinned entry has the final word.
    """
    a_cand = ed.theta.a
    a_target = tuple(map(F, THETA[name][0]))

    if name in DELTA_MINUS:
        dm = excess_region(p, ed)
        if dm is None:
            return None
        maps = point_maps_from_vertex_match(
            [tuple(v) for v in dm.vertices], DELTA_MINUS[name]
        )
    elif name == "E4":
        maps = unimodular_matches(moment_vector(p), E4_MOMENT)
    else:
        for w in unimodular_matches(a_cand, a_target):
            cand = apply_unimodular(rays, w)
            if pins_ok(name, cand):
                return cand
        return None

    for amat in maps:
        # the potential's gradient transports back: A^T a_target = a_cand
        gradient = tuple(sum(F(a) * t for a, t in zip(col, a_target)) for col in transpose(amat))
        if gradient != tuple(a_cand):
            continue
        w = transpose(inverse(amat))
        if any(x.denominator != 1 for row in w for x in row):
            continue
        cand = apply_unimodular(rays, [[int(x) for x in row] for row in w])
        if pins_ok(name, cand):
            return cand
    return None


def classify_pool(pool, resolved, zero_candidates):
    items = sorted(pool.values(), key=lambda item: (len(item[1]), item[0]))
    for tag, rays, p in items:
        unresolved = [
            n
            for n, t in THETA.items()
            if n not in resolved and RAY_COUNT[n] == len(rays)
        ]
        if not unresolved:
            continue
        ed = extremal_affine(p)
        c = ed.theta.c
        if all(x == 0 for x in ed.theta.a) and c == 0:
            zero_candidates.append((tag, rays, p.volume()))
            continue
        for n in unresolved:
            if THETA[n] is not None and c == THETA[n][1]:
                pinned = pin_entry(n, rays, p, ed)
                if pinned is not None:
                    resolved[n] = pinned
                    print(f"  {n}: pinned from [{tag}]")
                    break
    return resolved


def resolve_symmetric(resolved, zero_candidates):
    """theta = 0 rows, identified by ray count (+ volume to split C3 / C5)."""
    for name, nrays in (("B4", 5), ("C3", 6), ("C5", 6), ("F1", 8)):
        hits = [(t, r, v) for t, r, v in zero_candidates if len(r) == nrays]
        if name == "C3":
            hits = [h for h in hits if h[2] == 8]
        elif name == "C5":
            hits = [h for h in hits if h[2] != 8]
        vols = {h[2] for h in hits}
        if not hits:
            raise SystemExit(f"no symmetric candidate for {name}")
        if len(vols) > 1:
            raise SystemExit(f"ambiguous symmetric candidates for {name}: {vols}")
        resolved[name] = hits[0][1]
        print(f"  {name}: symmetric candidate [{hits[0][0]}] volume {hits[0][2]}")
    return resolved


# --------------------------------------------------------------------------
# JSON emission
# --------------------------------------------------------------------------


def frac_list(xs):
    return [rat_str(F(x)) for x in xs]


def polytope_json(p):
    """The polytope document of an entry: the serializer's, without a name."""
    doc = polytope_to_json(p)
    del doc["name"]
    return doc


def entry_json(name, rays, provenance):
    p = anticanonical(rays, name)
    expected = {}
    target = THETA[name]
    if target is None:
        expected["theta"] = "zero"
    else:
        expected["theta"] = {"a": frac_list(target[0]), "c": rat_str(target[1])}
    if name in DELTA_MINUS:
        expected["delta_minus_vertices"] = [frac_list(v) for v in DELTA_MINUS[name]]
        if name in DELTA_MINUS_MISPRINTS:
            expected["delta_minus_misprints"] = DELTA_MINUS_MISPRINTS[name]
    else:
        expected["delta_minus_vertices"] = "empty"
    if name == "B1":
        expected["volume"] = "31/3"
        expected["moment_x3"] = "-4"
        expected["delta_minus_volume"] = "7351/12000"
    if name == "B2":
        expected["volume"] = "28/3"
        expected["moment_x3"] = "-2"
    if name == "E4":
        expected["ehrhart"] = frac_list(E4_EHRHART)
        expected["moment"] = frac_list(E4_MOMENT)
        expected["lattice_point_sum"] = frac_list(E4_NODE_SUM)
        expected["weighted_node_sum"] = frac_list(E4_WEIGHTED)
    published_k, published_chow = PUBLISHED_VERDICTS[name]
    expected["published_k_stability"] = published_k
    expected["published_chow_stability"] = published_chow
    doc = {
        "name": name,
        "provenance": provenance,
        "rays": [list(map(int, r)) for r in rays],
        "polytope": polytope_json(p),
        "expected": expected,
    }
    if name in ENTRY_NOTES:
        doc["notes"] = ENTRY_NOTES[name]
    return doc


def orbifold_entry_json():
    fano = Polytope.from_vertices(ORB_FANO_VERTICES)
    delta = polar_dual(fano)
    doubled = Polytope.from_vertices(
        [tuple(2 * x for x in v) for v in delta.vertices], "ORB-530571"
    )
    return {
        "name": "ORB-530571",
        "provenance": "explicit",
        "comment": "dual of canonical Fano polytope 530571, doubled to its lattice model",
        "fano_vertices": [list(map(int, v)) for v in ORB_FANO_VERTICES],
        "dual_vertices": [frac_list(v) for v in delta.vertices],
        "polytope": polytope_json(doubled),
        "expected": {
            "theta": "zero",
            "ehrhart": ["12", "9", "3", "1"],
            "volume": "12",
            "moment": ["0", "0", "0"],
            "boundary_moment": ["0", "0", "0"],
            "lattice_point_sums": {
                "1": ["0", "1", "-1"],
                "2": ["0", "3", "-3"],
                "3": ["0", "6", "-6"],
            },
            "chow_level1": "fails",
        },
    }


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "toricstab" / "data"
    )
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    print("generating candidate fans ...")
    pool = candidate_pool()
    by_rays = {}
    for _, rays, _ in pool.values():
        by_rays[len(rays)] = by_rays.get(len(rays), 0) + 1
    print(f"  {len(pool)} smooth Fano candidates, by ray count {dict(sorted(by_rays.items()))}"
          f"  ({time.time()-t0:.1f}s)")
    resolved = dict(EXPLICIT_RAYS)
    zero_candidates = []
    classify_pool(pool, resolved, zero_candidates)
    resolve_symmetric(resolved, zero_candidates)
    missing = [n for n in THETA if n not in resolved]
    if missing:
        raise SystemExit(f"unresolved entries: {missing}")

    index = []
    for name in THETA:
        provenance = "explicit" if name in EXPLICIT_RAYS else "database"
        data = entry_json(name, resolved[name], provenance)
        (outdir / f"{name}.json").write_text(json.dumps(data, indent=1) + "\n")
        index.append(name)
    (outdir / "ORB-530571.json").write_text(
        json.dumps(orbifold_entry_json(), indent=1) + "\n"
    )
    index.append("ORB-530571")
    (outdir / "index.json").write_text(json.dumps(index, indent=1) + "\n")
    print(f"wrote {len(index)} corpus files to {outdir}  ({time.time()-t0:.1f}s)")


if __name__ == "__main__":
    main()
