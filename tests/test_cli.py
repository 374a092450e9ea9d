import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from toricstab.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_theta_b2_text():
    code, out = run_cli("theta", "corpus:B2")
    assert code == 0
    assert "theta = -70/97*x3 - 15/97" in out


def test_theta_json():
    code, out = run_cli("theta", "corpus:B3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"]["a"] == ["-20/43", "-20/43", "0"]
    assert doc["theta"]["c"] == "-5/43"


def test_analyze_cp3():
    code, out = run_cli("analyze", "corpus:CP3", "--i-max", "2", "--grid", "0")
    assert code == 0
    assert "K-stability: stable" in out
    assert "chow i=1: any" in out


def test_analyze_json_structure():
    code, out = run_cli(
        "analyze", "corpus:E4", "--i-max", "1", "--grid", "0", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k_stability"]["label"] == "stable"
    assert doc["chow"][0]["status"] == "fails"
    assert "asymptotically relatively Chow unstable" in doc["chow_summary"]


def test_chow_orbifold():
    code, out = run_cli("chow", "corpus:ORB-530571", "--i-max", "3")
    assert code == 0
    assert "chow i=1: fails" in out
    assert "fails at level 1" in out


def test_ehrhart_command():
    code, out = run_cli("ehrhart", "corpus:ORB-530571")
    assert code == 0
    assert "12*t^3 + 9*t^2 + 3*t + 1" in out


def test_kstab_b1_flags_inconsistency():
    code, out = run_cli("kstab", "corpus:B1", "--grid", "0")
    assert code == 0
    assert "undetermined" in out
    assert "1-c = 589/349" in out
    assert "23785711/8953591510" in out
    assert "note:" in out  # the documented-inconsistency flag


def test_corpus_list():
    code, out = run_cli("corpus", "list")
    assert code == 0
    assert "B1" in out and "explicit" in out and "database" in out


def test_missing_file_exit_2():
    code, _ = run_cli("theta", "/nonexistent/path.json")
    assert code == 2


def test_malformed_file_json_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"halfspaces": [{"normal": [1, 0], "rhs": "1/0"}]}')
    code, out = run_cli("theta", str(bad), "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"]["exit_code"] == 2


def test_validation_error_exit_2(tmp_path):
    flat = tmp_path / "flat.json"
    flat.write_text(
        json.dumps({"vertices": [["0", "0"], ["1", "0"], ["2", "0"]]})
    )
    code, _ = run_cli("theta", str(flat))
    assert code == 2


def test_mixed_vertex_lengths_exit_2(tmp_path):
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps({"vertices": [["0", "0", "0"], ["1", "0"], ["0", "1"]]}))
    code, out = run_cli("theta", str(mixed), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"] == "mixed ambient dimensions"


def test_unbounded_halfspaces_exit_2(tmp_path):
    # x <= 1 and |y| <= 1 leave the ray (-1, 0) free.
    strip = tmp_path / "strip.json"
    strip.write_text(
        json.dumps(
            {
                "halfspaces": [
                    {"normal": [1, 0], "rhs": "1"},
                    {"normal": [0, 1], "rhs": "1"},
                    {"normal": [0, -1], "rhs": "1"},
                ]
            }
        )
    )
    code, out = run_cli("theta", str(strip), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "Unbounded"
    assert error["message"] == "recession ray (-1, 0)"
    assert error["exit_code"] == 2


def test_kstab_b1_json_bytes():
    # The exact output of the default-grid search, pinned byte for byte.
    code, out = run_cli("kstab", "corpus:B1", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "535c9060122b8181a3e751cfb42d3288c97a8cee18c1da5aae934cc87c98830a"
    )


def test_tables_survey_json_bytes():
    # The whole-corpus table at levels 1-3 and grid 0 in every format, and the
    # analyze and chow reports that share its stages, pinned byte for byte.
    pins = [
        (("tables", "--i-max", "3", "--grid", "0", "--format", "json"),
         "1d58cf74137fbbb94cb063a0cdfc2ead0926cc42208d81e1a4a10be96ec6d58f"),
        (("tables", "--i-max", "3", "--grid", "0"),
         "abbbf3c09155eb5798a2cc87cd5e6311e0845bd384d0a173aeb2c1182805fc32"),
        (("tables", "--i-max", "3", "--grid", "0", "--format", "csv"),
         "3723785afb858f8ef5e5b58e0b7b8bb4e7b786f9200c8fe080fb8f9832415b90"),
        (("analyze", "corpus:E4", "--i-max", "3", "--grid", "0", "--format", "json"),
         "89f976a8d5ef70425bc4d84a1bd1881e5082d8b3d12f52be74f0ccf6a472bed1"),
        (("chow", "corpus:ORB-530571", "--i-max", "3", "--format", "json"),
         "e4f0292cbd155909c01bd577792643275c71d43eacbaae7ed89a061163921e04"),
    ]
    for argv, digest in pins:
        code, out = run_cli(*argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def _record_calls(monkeypatch, fn, calls):
    """Replace every binding of ``fn`` in the toricstab modules by a wrapper
    that appends (calling function, name of the first argument) to ``calls``."""

    def recorded(*args, **kwargs):
        calls.append((sys._getframe(1).f_code.co_name, getattr(args[0], "name", None)))
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "toricstab" or name.startswith("toricstab."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, recorded)


def test_tables_and_chow_compute_only_what_they_print(monkeypatch):
    # tables prints theta, the K verdict and the chow summary: no full
    # report, no Q/P sample integral, and Ehrhart only where the integrity
    # gate checks a recorded count polynomial.  chow prints the levels only.
    from toricstab import lattice, plfun, stability

    watched = {
        "analyze": stability.analyze,
        "integrate_pl": plfun.integrate_pl,
        "ehrhart": lattice.ehrhart,
        "k_classify": stability.k_classify,
    }
    calls = {name: [] for name in watched}
    for name, fn in watched.items():
        _record_calls(monkeypatch, fn, calls[name])
    code, _ = run_cli("tables", "--i-max", "3", "--grid", "0")
    assert code == 0
    assert calls["analyze"] == calls["integrate_pl"] == []
    assert sorted(calls["ehrhart"]) == [("verify_entry", "E4"), ("verify_entry", "ORB-530571")]
    assert len(calls["k_classify"]) == 19
    for record in calls.values():
        record.clear()
    code, out = run_cli("chow", "corpus:F1", "--i-max", "3")
    assert code == 0 and "chow i=3" in out
    assert calls["k_classify"] == calls["ehrhart"] == calls["analyze"] == []


# Per subcommand, the options it declares; every one must be read by its handler.
DECLARED = {
    ("analyze", "corpus:CP3", "--i-max", "2", "--grid", "0"): {"format", "i_max", "grid", "strict"},
    ("theta", "corpus:CP3"): {"format"},
    ("ehrhart", "corpus:CP3"): {"format"},
    ("kstab", "corpus:CP3"): {"format", "grid", "strict"},
    ("chow", "corpus:CP3"): {"format", "i_max"},
    ("tables", "--i-max", "1", "--grid", "0"): {"format", "i_max", "grid"},
    ("corpus", "list"): {"format"},
}


@pytest.mark.parametrize("argv", list(DECLARED), ids=lambda argv: argv[0])
def test_every_declared_option_is_read(argv):
    from toricstab.cli import COMMANDS, build_parser

    args = build_parser().parse_args(list(argv))
    options = set(vars(args)) - {"command", "corpus_command", "input"}
    assert options == DECLARED[argv]
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    with redirect_stdout(io.StringIO()):
        assert COMMANDS[args.command](Recording(**vars(args))) == 0
    assert options <= reads, f"declared but never read: {sorted(options - reads)}"


@pytest.mark.parametrize(
    "argv",
    [
        ("theta", "corpus:CP3", "--i-max", "2"),
        ("ehrhart", "corpus:CP3", "--grid", "1"),
        ("kstab", "corpus:CP3", "--i-max", "2"),
        ("chow", "corpus:CP3", "--strict"),
        ("tables", "--strict"),
        ("corpus", "list", "--format", "csv"),
    ],
    ids=lambda argv: argv[0],
)
def test_undeclared_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_strict_undetermined_exit_4():
    code, _ = run_cli("kstab", "corpus:B1", "--grid", "0", "--strict")
    assert code == 4


def test_negative_grid_is_rejected():
    # A negative search grid is a validation error (exit 2), on a verdict that
    # needs the search (B1), on one that does not (CP3, stable), and in the
    # survey, which classifies every entry.
    for argv in (("kstab", "corpus:B1"), ("kstab", "corpus:CP3"), ("tables", "--i-max", "1")):
        code, out = run_cli(*argv, "--grid", "-1", "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["type"], error["message"]) == (
            "ValidationError", "search grid must be at least 0, got -1"
        )


def test_levels_below_one_are_rejected():
    # --i-max 0 is a validation error (exit 2) in every command that takes
    # it, checked before the search grid.
    for argv in (("analyze", "corpus:CP3"), ("chow", "corpus:CP3"), ("tables", "--grid", "-1")):
        code, out = run_cli(*argv, "--i-max", "0", "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["type"], error["message"]) == ("ValidationError", "i_max must be at least 1")


def test_save_then_analyze_file(tmp_path, corpus_entries):
    from toricstab import corpus as corpus_mod

    path = tmp_path / "b2.json"
    corpus_mod.save_polytope(path, corpus_entries["B2"].polytope)
    code, out = run_cli("theta", str(path))
    assert code == 0
    assert "-70/97*x3 - 15/97" in out


def test_tables_deterministic():
    args = ("tables", "--i-max", "1", "--grid", "0", "--format", "csv")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "B1" in out1 and "ORB-530571" in out1


def test_internal_invariant_exit_3(tmp_path, monkeypatch):
    # Skew the constant of theta: its normalization check must fail loudly.
    from toricstab import stability

    solve = stability.solve_linear

    def skewed(m, b):
        x = solve(m, b)
        return x[:-1] + (x[-1] + 1,)

    monkeypatch.setattr(stability, "solve_linear", skewed)
    square = tmp_path / "square.json"
    square.write_text(
        json.dumps({"vertices": [["0", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]})
    )
    code, _ = run_cli("theta", str(square))
    assert code == 3
    code, out = run_cli("theta", str(square), "--format", "json")
    assert code == 3
    error = json.loads(out)["error"]
    assert error["type"] == "InternalInvariant"
    assert error["exit_code"] == 3



@pytest.fixture
def segment(tmp_path):
    """CP^1: the segment [-1, 1], whose facets are its two endpoints."""
    path = tmp_path / "segment.json"
    path.write_text(json.dumps({"vertices": [["-1"], ["1"]]}))
    return str(path)


def test_segment_theta(segment):
    code, out = run_cli("theta", segment, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # each endpoint has lattice measure 1: Sbar = 2 / 2
    assert doc["theta"] == {"a": ["0"], "c": "0"}
    assert doc["average_scalar"] == "1"
    assert doc["futaki"] == ["0"]


def test_segment_ehrhart(segment):
    code, out = run_cli("ehrhart", segment, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["polynomial"] == "2*t + 1"
    assert all(
        row["count"] == 2 * int(i) + 1 and row["polynomial"] == str(2 * int(i) + 1)
        for i, row in doc["verification_rows"].items()
    )


def test_segment_analyze(segment):
    code, out = run_cli("analyze", segment, "--i-max", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert (doc["dim"], doc["volume"], doc["average_scalar"]) == (1, "2", "1")
    assert doc["k_stability"]["label"] == "stable"
    assert doc["ehrhart"] == ["2", "1"]
    # E(i) = 2i + 1; the Q sample min(1 - x, 1 + x) and the P sample max{0, x}
    # give 3*1 - 2*1 = 1 and 3/2 - 2*1 = -1/2 at level 1, and the same at 2
    assert [(c["node_count"], c["status"], c["q_sample"], c["p_sample"]) for c in doc["chow"]] == [
        (3, "any", "1", "-1/2"),
        (5, "any", "1", "-1/2"),
    ]

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


@pytest.mark.parametrize("job", ["chow-CP3", "chow-F1", "chow-C3"])
def test_chow_deep_levels_match_reference(job):
    # the balance system at levels 1-8 runs through the largest integer sums;
    # the recorded digests come from the benchmark's reference file
    ref = json.loads(REFERENCE.read_text())["jobs"][job]
    code, out = run_cli(*ref["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"]
