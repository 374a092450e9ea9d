"""Command-line interface.

Exit codes: 0 success, 2 validation error, 3 computation error,
4 undetermined verdict under --strict, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import corpus
from .errors import ParseError, ToricStabError, ValidationError
from .lattice import _level_sums, check_levels, ehrhart
from .linalg import rat_str
from .stability import (
    FAILS,
    StabilityReport,
    UNDETERMINED,
    analyze,
    chow_levels,
    chow_necessary,
    extremal_affine,
    k_classify,
    k_verdict_or_error,
)

def _frac(x) -> str:
    return rat_str(Fraction(x))


def _vec(xs) -> list[str]:
    return [_frac(x) for x in xs]


def _points(vertices) -> str:
    """A vertex list, each vertex a list of strings, as "(x, y); (z, w)"."""
    return "; ".join("(" + ", ".join(v) + ")" for v in vertices)


def _opt(x) -> str | None:
    return None if x is None else _frac(x)


def kverdict_json(kv, error=None) -> dict:
    if kv is None:
        return {"error": error}
    out = {
        "classification": kv.classification,
        "label": "undetermined" if kv.stable is None else "stable" if kv.stable else "unstable",
        "theta": str(kv.theta),
    }
    if kv.delta_minus is not None:
        out["delta_minus_vertices"] = [_vec(v) for v in kv.delta_minus.vertices]
        out["delta_minus_volume"] = _frac(kv.delta_minus.volume())
        out["mean_criterion_lhs"] = _frac(kv.cond_lhs)
        out["mean_criterion_rhs"] = _frac(kv.cond_rhs)
    else:
        out["delta_minus_vertices"] = []
    if kv.witness is not None:
        out["witness"] = kv.witness.to_json()
        out["witness_value"] = _frac(kv.witness_value)
    return out


def chow_json(chow, q_samples, p_samples) -> list[dict]:
    """One row per level of :func:`~toricstab.stability.chow_levels`."""
    return [
        {
            "i": c.level,
            "status": c.status,
            "s": _opt(c.s),
            "s_closed_form": _opt(c.s_closed),
            "node_count": c.count,
            "theta_bar": _frac(c.theta_bar),
            "q_sample": _opt(q_samples.get(c.level)),
            "p_sample": _opt(p_samples.get(c.level)),
        }
        for c in chow
    ]


def chow_summary(conds) -> str:
    """The summary of the first failing level of ``conds``, read no further."""
    lvl = next((c.level for c in conds if c.status == FAILS), None)
    if lvl is None:
        return "balance system consistent at all tested levels"
    return f"fails at level {lvl}: asymptotically relatively Chow unstable in the toric sense"


def report_json(report: StabilityReport, entry=None) -> dict:
    out = {
        "name": report.name,
        "dim": report.dim,
        "volume": _frac(report.volume),
        "average_scalar": _frac(report.sbar),
        "reflexive": report.reflexive,
        "delzant": report.delzant,
        "theta": {"a": _vec(report.theta.a), "c": _frac(report.theta.c)},
        "theta_str": str(report.theta),
        "futaki": _vec(report.futaki),
        "chow": chow_json(report.chow, report.q_samples, report.p_samples),
    }
    out["k_stability"] = kverdict_json(report.kverdict, report.kverdict_error)
    out["chow_summary"] = chow_summary(report.chow)
    if report.ehrhart_coeffs is not None:
        out["ehrhart"] = _vec(report.ehrhart_coeffs)
    if entry is not None:
        out["provenance"] = entry.provenance
        if entry.raw.get("notes"):
            out["notes"] = entry.raw["notes"]
        for key in ("published_k_stability", "published_chow_stability"):
            if entry.expected.get(key):
                out[key] = entry.expected[key]
    return out


def report_text(doc: dict) -> str:
    lines = [f"== {doc['name']} =="]
    lines.append(
        f"dim {doc['dim']}  volume {doc['volume']}  Sbar {doc['average_scalar']}"
        f"  reflexive {doc['reflexive']}  delzant {doc['delzant']}"
    )
    lines.append(f"theta = {doc['theta_str']}")
    lines.append(f"futaki vector = ({', '.join(doc['futaki'])})")
    if "ehrhart" in doc:
        lines.append(f"count polynomial coefficients (high to low) = {doc['ehrhart']}")
    k = doc["k_stability"]
    if "error" in k:
        lines.append(f"K-stability: not classified ({k['error']})")
    else:
        lines.append(f"K-stability: {k['label']} ({k['classification']})")
        if k["delta_minus_vertices"]:
            lines.append("  excess region vertices: " + _points(k["delta_minus_vertices"]))
            lines.append(
                f"  excess region volume = {k['delta_minus_volume']}"
            )
            lines.append(
                f"  mean criterion: 1-c = {k['mean_criterion_lhs']}"
                f"  vs  mean square excess = {k['mean_criterion_rhs']}"
            )
        if "witness" in k:
            lines.append(f"  witness value L(u) = {k['witness_value']}")
    for c in doc["chow"]:
        s_txt = f" s = {c['s']}" if c["s"] is not None else ""
        sc = c["s_closed_form"]
        sc_txt = f" s_closed = {sc}" if sc is not None else ""
        lines.append(
            f"chow i={c['i']}: {c['status']}{s_txt}{sc_txt}  (nodes {c['node_count']})"
        )
    lines.append(f"chow: {doc['chow_summary']}")
    if doc.get("published_k_stability"):
        lines.append(
            f"published verdicts: K {doc['published_k_stability']!r}"
            f", chow {doc.get('published_chow_stability') or '(blank)'!r}"
        )
    for note in doc.get("notes", []):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def report_csv(doc: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["field", "value"])
    k = doc["k_stability"]
    rows = [
        ("name", doc["name"]),
        ("volume", doc["volume"]),
        ("average_scalar", doc["average_scalar"]),
        ("theta", doc["theta_str"]),
        ("futaki", " ".join(doc["futaki"])),
        ("k_stability", k.get("label", k.get("error"))),
    ]
    rows += [(f"chow_i{c['i']}", c["status"]) for c in doc["chow"]]
    writer.writerows(rows)
    return buf.getvalue()


def _emit(args, doc: dict, text_fn) -> None:
    # Of the commands that print through here only analyze offers csv.
    if args.format == "json":
        print(json.dumps(doc, indent=1))
    elif args.format == "csv":
        print(report_csv(doc), end="")
    else:
        print(text_fn(doc))


def cmd_analyze(args) -> int:
    p, entry = corpus.resolve_input(args.input)
    report = analyze(p, i_max=args.i_max, grid=args.grid)
    doc = report_json(report, entry)
    _emit(args, doc, report_text)
    if args.strict and report.kverdict and report.kverdict.classification == UNDETERMINED:
        return 4
    return 0


def cmd_theta(args) -> int:
    p = corpus.resolve_input(args.input)[0]
    ed = extremal_affine(p)
    doc = {
        "name": p.name or args.input,
        "theta": {"a": _vec(ed.theta.a), "c": _frac(ed.theta.c)},
        "theta_str": str(ed.theta),
        "average_scalar": _frac(ed.sbar),
        "futaki": _vec(ed.futaki),
    }
    _emit(args, doc, lambda d: "\n".join([
        f"theta = {d['theta_str']}",
        f"Sbar = {d['average_scalar']}",
        f"futaki vector = ({', '.join(d['futaki'])})",
    ]))
    return 0


def cmd_ehrhart(args) -> int:
    p = corpus.resolve_input(args.input)[0]
    poly = ehrhart(p)
    checks = {}
    for i in (1, 2, p.dim + 1, p.dim + 2):
        checks[str(i)] = {
            "count": _level_sums(p, i).count,
            "polynomial": _frac(poly(i)),
        }
    doc = {
        "name": p.name or args.input,
        "coefficients_high_to_low": _vec(poly.coeffs),
        "polynomial": str(poly),
        "verification_rows": checks,
    }
    _emit(args, doc, lambda d: "\n".join(
        [f"count polynomial: {d['polynomial']}"]
        + [
            f"  i={i}: enumerated {row['count']}, polynomial {row['polynomial']}"
            for i, row in d["verification_rows"].items()
        ]
    ))
    return 0


def cmd_kstab(args) -> int:
    p, entry = corpus.resolve_input(args.input)
    kv = k_classify(p, args.grid)
    doc = kverdict_json(kv)
    doc["name"] = p.name or args.input
    if entry is not None and entry.raw.get("notes"):
        doc["notes"] = entry.raw["notes"]
    def text(d):
        lines = [f"{d['name']}: {d['label']} ({d['classification']})"]
        lines.append(f"theta = {d['theta']}")
        if d["delta_minus_vertices"]:
            lines.append("excess region vertices: " + _points(d["delta_minus_vertices"]))
            lines.append(
                f"mean criterion: 1-c = {d['mean_criterion_lhs']}"
                f" vs mean square excess = {d['mean_criterion_rhs']}"
            )
        if "witness" in d:
            lines.append(f"witness value L(u) = {d['witness_value']}")
        for note in d.get("notes", []):
            lines.append(f"note: {note}")
        return "\n".join(lines)
    _emit(args, doc, text)
    if args.strict and kv.classification == UNDETERMINED:
        return 4
    return 0


def cmd_chow(args) -> int:
    p = corpus.resolve_input(args.input)[0]
    levels = chow_levels(p, args.i_max)
    doc = {
        "name": p.name or "polytope",
        "chow": chow_json(*levels),
        "chow_summary": chow_summary(levels[0]),
    }
    _emit(args, doc, lambda d: "\n".join(
        [
            f"chow i={c['i']}: {c['status']}"
            + (f" s = {c['s']}" if c["s"] is not None else "")
            for c in d["chow"]
        ]
        + [d["chow_summary"]]
    ))
    return 0


def cmd_tables(args) -> int:
    entries = corpus.load_corpus()
    check_levels(args.i_max, *(entry.polytope for entry in entries))
    rows = []
    for entry in entries:
        p = entry.polytope
        problems = corpus.verify_entry(entry)
        if problems:
            rows.append({
                "name": entry.name,
                "provenance": entry.provenance,
                "error": "; ".join(problems),
            })
            continue
        # the integrity gate passed: theta, the K verdict and the chow summary
        ed = extremal_affine(p)
        summary = chow_summary(chow_necessary(p, ed, i) for i in range(1, args.i_max + 1))
        k = kverdict_json(*k_verdict_or_error(p, args.grid))
        if "error" in k:
            excess = "-"
            verdict = f"not applicable ({k['error']})"
        elif k.get("delta_minus_vertices"):
            excess = _points(k["delta_minus_vertices"])
            verdict = k["label"]
        else:
            excess = "empty"
            verdict = k["label"]
        row = {
            "name": entry.name,
            "provenance": entry.provenance,
            "theta": str(ed.theta),
            "delta_minus": excess,
            "k_verdict": verdict,
            "published_k": entry.expected.get("published_k_stability", ""),
            "chow_necessary": summary,
            "published_chow": entry.expected.get("published_chow_stability", ""),
            "notes": " | ".join(entry.raw.get("notes", [])),
        }
        if row["published_k"] and row["k_verdict"] != row["published_k"]:
            flag = f"computed K verdict {row['k_verdict']!r} differs from published {row['published_k']!r}"
            row["notes"] = (row["notes"] + " | " + flag).strip(" |")
        rows.append(row)
    if args.format == "json":
        print(json.dumps(rows, indent=1))
    elif args.format == "csv":
        buf = io.StringIO()
        fields = [
            "name", "provenance", "theta", "delta_minus", "k_verdict",
            "published_k", "chow_necessary", "published_chow", "notes", "error",
        ]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        print(buf.getvalue(), end="")
    else:
        for row in rows:
            if "error" in row:
                print(f"{row['name']:12s} CORPUS ERROR: {row['error']}")
                continue
            print(f"{row['name']:12s} [{row['provenance']}]")
            print(f"    theta      = {row['theta']}")
            print(f"    excess     = {row['delta_minus']}")
            pub = f"  (published: {row['published_k']})" if row["published_k"] else ""
            print(f"    K          = {row['k_verdict']}{pub}")
            pub = f"  (published: {row['published_chow']})" if row["published_chow"] else ""
            print(f"    chow       = {row['chow_necessary']}{pub}")
            if row["notes"]:
                print(f"    notes      = {row['notes']}")
    return 0


def cmd_corpus_list(args) -> int:
    rows = [
        {"name": e.name, "provenance": e.provenance}
        for e in corpus.load_corpus()
    ]
    if args.format == "json":
        print(json.dumps(rows, indent=1))
    else:
        for row in rows:
            print(f"{row['name']:12s} {row['provenance']}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="toricstab",
        description="Exact stability criteria for polarized toric varieties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def declare(name, help, i_max=None, grid=False, strict=False, needs_input=True, csv_ok=False):
        sp = sub.add_parser(name, help=help)
        if needs_input:
            sp.add_argument("input", help="polytope JSON file or corpus:NAME")
        formats = ("text", "json", "csv") if csv_ok else ("text", "json")
        sp.add_argument("--format", choices=formats, default="text")
        if i_max is not None:
            sp.add_argument("--i-max", type=int, default=i_max)
        if grid:
            sp.add_argument("--grid", type=int, default=1, metavar="G",
                            help="destabilizer search effort: 0 scans only the potential "
                                 "direction, G >= 1 adds facet/vertex directions and the "
                                 "integer box [-G, G]^n (at most 10,000 directions)")
        if strict:
            sp.add_argument("--strict", action="store_true",
                            help="exit 4 when the K verdict is undetermined")

    declare("analyze", "full stability report", i_max=6, grid=True, strict=True, csv_ok=True)
    declare("theta", "extremal potential, Sbar, obstruction vector")
    declare("ehrhart", "counting polynomial with verification rows")
    declare("kstab", "K-stability verdict with excess region", grid=True, strict=True)
    declare("chow", "balance conditions per dilation level", i_max=4)
    declare("tables", "regenerate the survey tables over the corpus",
            i_max=3, grid=True, needs_input=False, csv_ok=True)
    corpus_parser = sub.add_parser("corpus", help="corpus utilities")
    corpus_sub = corpus_parser.add_subparsers(dest="corpus_command", required=True)
    listp = corpus_sub.add_parser("list", help="list entries and provenance")
    listp.add_argument("--format", choices=("text", "json"), default="text")
    return parser


COMMANDS = {
    "analyze": cmd_analyze,
    "theta": cmd_theta,
    "ehrhart": cmd_ehrhart,
    "kstab": cmd_kstab,
    "chow": cmd_chow,
    "tables": cmd_tables,
    "corpus": cmd_corpus_list,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (`| head`): write nothing more, and let the
        # interpreter's last flush of stdout go to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ParseError, ValidationError) as exc:
        _error(args, exc, 2)
        return 2
    except ToricStabError as exc:
        _error(args, exc, 3)
        return 3
    except OSError as exc:
        _error(args, exc, 2)
        return 2


def _error(args, exc, code) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}}))
    else:
        print(f"error: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
