import io
import json
from contextlib import redirect_stdout

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


def test_strict_undetermined_exit_4():
    code, _ = run_cli("kstab", "corpus:B1", "--grid", "0", "--strict")
    assert code == 4


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
