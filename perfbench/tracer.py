"""Spans around the calls into each layer of toricstab, recorded from outside.

The package itself is not changed.  ``Tracer.install`` replaces every public
function of the eight layer modules, and the public methods of ``Polytope``,
with a wrapper that records one span per call: name, job id, parent span,
start and end.  A ``from .x import f`` copies the binding into the importing
module, so every module namespace (and module-level dict, such as the CLI's
command table) that binds a wrapped function is patched, not only the module
that defines it.  Spans stay in memory in flat arrays and are aggregated and
written once, at the end of the run.

Some counts cannot be seen from a span alone.  They are read from outside as
well, by probes that run before and after the wrapped call: a cache hit is a
call whose ``p.cache`` key was present before the call, lattice box cells come
from the same bounding-box formula as ``lattice_points``, and so on.  The cache
keys are copied from the package; if a later change renames one, its hit ratio
reads 0 and the probe here must follow.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter

LAYERS = ("cli", "corpus", "stability", "plfun", "polytope", "integrate", "lattice", "linalg")

# Scalar and vector helpers whose cost per call is close to the cost of a
# span.  They are leaves, so their time stays in the self time of the caller.
LEAVES = {
    "linalg": {"rat", "rat_str", "vec", "dot", "vec_add", "vec_sub", "vec_scale",
               "mat_vec", "poly_eval"},
    "polytope": {"primitive_normal"},
}

JOB_SPAN = "bench.job"

# Probe counts, reported as 0 when the workload never reaches them.
COUNTS = (
    "polytope.cache_entries",
    "polytope.triangulation.cells",
    "plfun.linearity_regions.regions",
    "lattice.box_cells",
    "lattice.points_kept",
    "stability.search.evaluations",
    "stability.search.mirror_repeats",
)


def _poly_key(poly):
    return tuple(sorted(poly.terms.items()))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Records spans while installed; ``summary`` turns them into metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.job_col = array("i")
        self.parent_col = array("q")
        self.start_col = array("q")
        self.end_col = array("q")
        self.outer_col = array("b")  # 1 when no enclosing span has the same name
        self._stack = [-1]
        self._depth: list[int] = []
        self.job = -1
        self.counts: Counter = Counter(dict.fromkeys(COUNTS, 0))
        self._patches: list = []
        self._roots: list = []  # polytopes that belong to the current job
        self._searches: dict[int, set] = {}
        self._theta_keys: set = set()

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.job_col.append(self.job)
        self.parent_col.append(self._stack[-1])
        self.outer_col.append(self._depth[nid] == 0)
        self._depth[nid] += 1
        self._stack.append(idx)
        self.end_col.append(0)
        self.start_col.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int, nid: int) -> None:
        self.end_col[idx] = time.perf_counter_ns()
        self._stack.pop()
        self._depth[nid] -= 1

    def wrap(self, name: str, fn, probe=None):
        """``fn`` recording one span per call; ``probe(args, kwargs)`` runs
        before the span opens and may return a callback for the result."""
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            after = probe(args, kwargs) if probe is not None else None
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, nid)
            if after is not None:
                after(result)
            return result

        return traced

    def run_job(self, job_id: int, fn):
        """Run ``fn()`` as job ``job_id`` under a root span; return its result."""
        self.job = job_id
        nid = self._id(JOB_SPAN)
        idx = self._open(nid)
        try:
            return fn()
        finally:
            self._close(idx, nid)
            self.counts["polytope.cache_entries"] += sum(len(p.cache) for p in self._roots)
            self._roots.clear()
            self.job = -1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function and patch every binding of it."""
        pkg = sys.modules["toricstab"]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"toricstab.{layer}"]
            for attr, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in LEAVES.get(layer, ())
                    # A generator's span would close before its body runs.
                    and not inspect.isgeneratorfunction(fn)
                ):
                    name = f"{layer}.{attr}"
                    wrapped[id(fn)] = self.wrap(name, fn, self._probe(name))
        for mod in [m for k, m in sys.modules.items() if k == "toricstab" or k.startswith("toricstab.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._patch(mod, attr, wrapped[id(value)], setattr)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in wrapped:
                            self._patch(value, key, wrapped[id(item)], dict.__setitem__)
        polytope_cls = pkg.Polytope
        for attr, value in list(vars(polytope_cls).items()):
            if attr.startswith("_"):
                continue
            name = f"polytope.{attr}"
            if isinstance(value, staticmethod):
                new = staticmethod(self.wrap(name, value.__func__, self._probe(name)))
            elif inspect.isfunction(value):
                new = self.wrap(name, value, self._probe(name))
            else:
                continue
            self._patch(polytope_cls, attr, new, setattr)

    def _patch(self, owner, key, new, setter) -> None:
        old = owner[key] if isinstance(owner, dict) else vars(owner)[key]
        self._patches.append((owner, key, old, setter))
        setter(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, old, setter in reversed(self._patches):
            setter(owner, key, old)
        self._patches.clear()

    # -- probes ------------------------------------------------------------

    def _probe(self, name: str):
        return {
            "corpus.load_entry": self._probe_load_entry,
            "polytope.from_vertices": self._probe_root_polytope,
            "polytope.from_halfspaces": self._probe_root_polytope,
            "polytope.facet_chart": self._probe_facet_chart,
            "polytope.triangulation": self._probe_triangulation,
            "integrate.integrate": self._probe_integrate,
            "plfun.integrate_pl": self._probe_integrate_pl,
            "plfun.linearity_regions": self._probe_linearity_regions,
            "lattice.lattice_points": self._probe_lattice_points,
            "stability.theta_nodes": self._probe_theta_nodes,
            "stability.l_functional": self._probe_l_functional,
        }.get(name)

    def _hit(self, name: str, hit: bool) -> None:
        self.counts[f"{name}.hits"] += hit

    def _parent_name(self) -> str | None:
        parent = self._stack[-1]
        return None if parent < 0 else self.names[self.name_col[parent]]

    def _probe_load_entry(self, args, kwargs):
        return lambda entry: self._roots.append(entry.polytope)

    def _probe_root_polytope(self, args, kwargs):
        if self._parent_name() == JOB_SPAN:
            return self._roots.append
        return None

    def _probe_facet_chart(self, args, kwargs):
        p, i = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "facet_index")
        self._hit("polytope.facet_chart", ("chart", i) in p.cache)

    def _probe_triangulation(self, args, kwargs):
        p = args[0]
        hit = ("triangulation", _arg(args, kwargs, 1, "apex_last", False)) in p.cache
        self._hit("polytope.triangulation", hit)
        if not hit:
            return lambda cells: self.counts.update({"polytope.triangulation.cells": len(cells)})
        return None

    def _probe_integrate(self, args, kwargs):
        p, poly = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "poly")
        self._hit("integrate.integrate", ("integral", _poly_key(poly)) in p.cache)

    def _probe_integrate_pl(self, args, kwargs):
        p, poly, u = (_arg(args, kwargs, k, n) for k, n in enumerate(("p", "poly", "u")))
        self._hit("plfun.integrate_pl", ("integral_pl", _poly_key(poly), u) in p.cache)

    def _probe_linearity_regions(self, args, kwargs):
        return lambda regions: self.counts.update({"plfun.linearity_regions.regions": len(regions)})

    def _probe_lattice_points(self, args, kwargs):
        p, i = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 1, "i")
        if i <= 0:
            return None
        hit = ("lattice_points", i) in p.cache
        self._hit("lattice.lattice_points", hit)
        if hit:
            return None
        cells = 1
        for k in range(p.dim):
            lo = math.ceil(min(v[k] for v in p.vertices) * i)
            hi = math.floor(max(v[k] for v in p.vertices) * i)
            cells *= max(0, hi - lo + 1)

        def after(points):
            self.counts["lattice.box_cells"] += cells
            self.counts["lattice.points_kept"] += len(points)

        return after

    def _probe_theta_nodes(self, args, kwargs):
        p, i = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 2, "i")
        self._theta_keys.add((self.job, p.vertices, i))

    def _probe_l_functional(self, args, kwargs):
        """Mirror repeats: max{0, -f} after max{0, f} in the same search."""
        if self._parent_name() != "stability.destabilizer_search":
            return None
        u = _arg(args, kwargs, 2, "u")
        seen = self._searches.setdefault(self._stack[-1], set())
        key = tuple((f.a, f.c) for f in u.pieces if any(f.a) or f.c)
        mirror = tuple((tuple(-x for x in a), -c) for a, c in key)
        self.counts["stability.search.evaluations"] += 1
        self.counts["stability.search.mirror_repeats"] += mirror in seen
        seen.add(key)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-function calls, inclusive and self time, per-layer self time,
        and the probe counts and ratios."""
        n = len(self.start_col)
        dur = [self.end_col[k] - self.start_col[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            parent = self.parent_col[k]
            if parent >= 0:
                child[parent] += dur[k]
        calls = Counter()
        incl = Counter()
        own = Counter()
        for k in range(n):
            nid = self.name_col[k]
            calls[nid] += 1
            own[nid] += dur[k] - child[k]
            if self.outer_col[k]:
                incl[nid] += dur[k]
        out: dict[str, float] = {}
        layer_self = Counter({layer: 0 for layer in LAYERS})
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.time_s"] = incl[nid] / 1e9
            out[f"{name}.self_s"] = own[nid] / 1e9
            layer = name.split(".", 1)[0]
            if layer in layer_self:
                layer_self[layer] += own[nid]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        out.update(self.counts)

        def ratio(num, den):
            return num / den if den else 0.0

        for name in ("polytope.facet_chart", "polytope.triangulation", "integrate.integrate",
                     "plfun.integrate_pl", "lattice.lattice_points"):
            out[f"{name}.hit_ratio"] = ratio(self.counts[f"{name}.hits"], out.get(f"{name}.calls", 0))
        out["lattice.kept_ratio"] = ratio(self.counts["lattice.points_kept"], self.counts["lattice.box_cells"])
        out["stability.search.mirror_repeat_ratio"] = ratio(
            self.counts["stability.search.mirror_repeats"], self.counts["stability.search.evaluations"]
        )
        out["stability.theta_nodes.repeat_ratio"] = ratio(
            out.get("stability.theta_nodes.calls", 0), len(self._theta_keys)
        )
        out["spans"] = n
        return out

    def write(self, path) -> None:
        """All spans as one JSON document: span k is row k of every column."""
        doc = {
            "names": self.names,
            "columns": {
                "name": self.name_col.tolist(),
                "job": self.job_col.tolist(),
                "parent": self.parent_col.tolist(),
                "start_ns": self.start_col.tolist(),
                "end_ns": self.end_col.tolist(),
            },
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
