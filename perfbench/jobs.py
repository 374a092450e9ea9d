"""The benchmark's workloads: job lists and the checks on every job's output.

A job is a name and a callable that returns ``None`` when the output is
correct, or a one-line description of what is wrong.  The corpus workloads run
CLI commands in-process through ``toricstab.cli.main`` and compare the sha256
of their stdout with ``reference.json``, recorded at the commit that defined
the benchmark.  The hull workload has no recorded output: it is checked
against the closed-form facet structure of cyclic polytopes, which does not
use the code under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# The corpus workloads run the published entries unchanged; the seed does not
# alter them (see README.md for why a seeded translation is not usable).
# ``chow`` is not in BENCHMARK.json; it stays runnable for its traced profile
# of the node statistics at deep levels.
CORPUS_WORKLOADS = {
    "verdict": ["kstab-B1", "kstab-E2"],
    "survey": ["tables"],
    "chow": ["chow-CP3", "chow-F1", "chow-C3"],
}

# (points m, dimension d) per hull job.  C(8, 4) and C(18, 3) cost about the
# same, so the median job is not a jump between two sizes.  The parameters are
# m distinct integers from a window of m + 1 around 0, which keeps the size of
# the coordinates, and so the cost, nearly independent of the seed.
HULL_JOBS = [(8, 4), (18, 3)] * 3

WORKLOADS = (*CORPUS_WORKLOADS, "hull")


def build(workload: str, seed: int):
    """The job list of ``workload`` as (name, run) pairs."""
    if workload == "hull":
        rng = random.Random(seed)
        jobs = []
        for k, (m, d) in enumerate(HULL_JOBS):
            params = sorted(rng.sample(range(-(m // 2), m // 2 + 1), m))
            jobs.append((f"cyclic-{m}-{d}-{k}", _hull_job(params, d)))
        return jobs
    refs = json.loads(REFERENCE.read_text())["jobs"]
    return [(name, _cli_job(refs[name])) for name in CORPUS_WORKLOADS[workload]]


def _cli_job(ref: dict):
    from toricstab import cli

    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(ref["argv"]))
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if digest != ref["sha256"]:
            return f"stdout sha256 {digest} differs from the reference {ref['sha256']}"
        return None

    return run


def gale_facets(m: int, d: int) -> set[frozenset[int]]:
    """Facets of the cyclic polytope C(m, d) by Gale's evenness condition.

    A d-subset S of the sorted parameter indices spans a facet iff every two
    indices outside S are separated by an even number of elements of S.
    """
    facets = set()
    for subset in combinations(range(m), d):
        s = set(subset)
        outside = [k for k in range(m) if k not in s]
        if all(
            sum(1 for x in subset if a < x < b) % 2 == 0
            for a, b in zip(outside, outside[1:])
        ):
            facets.add(frozenset(subset))
    return facets


def _hull_job(params: list[int], d: int):
    from toricstab import Polytope

    m = len(params)
    points = [tuple(Fraction(t**k) for k in range(1, d + 1)) for t in params]
    want_facets = gale_facets(m, d)
    want_count = 2 * m - 4 if d == 3 else m * (m - 3) // 2

    def run():
        p = Polytope.from_vertices(points)
        q = Polytope.from_halfspaces([(h.normal, h.rhs) for h in p.halfspaces])
        if list(p.vertices) != points:
            return f"{len(p.vertices)} vertices, expected all {m} points"
        if len(p.halfspaces) != want_count:
            return f"{len(p.halfspaces)} facets, expected {want_count}"
        tight = {
            frozenset(
                k for k, x in enumerate(points)
                if sum(a * b for a, b in zip(h.normal, x)) == h.rhs
            )
            for h in p.halfspaces
        }
        if tight != want_facets:
            return "facet vertex sets differ from Gale's evenness condition"
        if q.vertices != p.vertices or q.halfspaces != p.halfspaces:
            return "the half-space round trip changed the polytope"
        return None

    return run
