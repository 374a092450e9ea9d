import argparse
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from toricstab.cli import main
from toricstab.corpus import DATA_DIR


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


def test_exponent_rhs_is_a_parse_error(tmp_path, corpus_entries):
    # A 9-byte exponent used to build a 10^300000 numerator before any
    # check; now it is refused as it is read.
    doc = {"halfspaces": corpus_entries["B1"].raw["polytope"]["halfspaces"]}
    doc = json.loads(json.dumps(doc).replace('"1"', '"1e300000"', 1))
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    code, out = run_cli("theta", str(path), "--format", "json")
    assert time.perf_counter() - start < 1
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == (
        "ParseError", "halfspace 0: '1e300000' is not an integer or p/q rational"
    )


UNIT_TRIANGLE = {"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": ["00", "10", "01"]}, "vertex 0: the row must be a list, got str"),
        (
            {"halfspaces": [{"normal": "10", "rhs": "1"}, {"normal": [0, 1], "rhs": "1"},
                            {"normal": [-1, -1], "rhs": "1"}]},
            "halfspace 0: the normal must be a list, got str",
        ),
        (
            {"halfspaces": [{"normal": [0, 1], "rhs": "1"}, {"normal": "-10", "rhs": "1"},
                            {"normal": [1, -1], "rhs": "1"}]},
            "halfspace 1: the normal must be a list, got str",
        ),
        ({**UNIT_TRIANGLE, "dim": "2"}, "the dim must be an integer, got str"),
        ({**UNIT_TRIANGLE, "dim": True}, "the dim must be an integer, got bool"),
        ({**UNIT_TRIANGLE, "dim": 2.0}, "the dim must be an integer, got float"),
        ({"vertices": [["0"], ["1"]], "dim": True}, "the dim must be an integer, got bool"),
        (
            {**UNIT_TRIANGLE, "dim": "2", "halfspaces": [
                {"normal": [-1, 0], "rhs": "0"}, {"normal": [0, -1], "rhs": "0"},
                {"normal": [1, 1], "rhs": "1"},
            ]},
            "the dim must be an integer, got str",
        ),
    ],
    ids=[
        "vertex-row-string", "normal-string", "signed-normal-string",
        "dim-string", "dim-bool", "dim-float", "dim-bool-on-a-segment",
        "dim-string-with-both-representations",
    ],
)
def test_string_row_is_a_parse_error(tmp_path, doc, message):
    # A string where a vertex row or a facet normal belongs used to read one
    # character per coordinate: "00", "10", "01" loaded as the unit triangle.
    # A declared dim of another type than int was compared with !=: "2"
    # failed as "declared dim 2 != actual 2", 2.0 passed, and true passed
    # on a segment; the type is checked with both representations too.
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("theta", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == ("ParseError", message)


HALFSPACE_SHAPE = 'halfspace 0: a half-space is an object with "normal" and "rhs"'


@pytest.mark.parametrize(
    "doc, message",
    [
        ({**UNIT_TRIANGLE, "name": {"a": 1}}, "the name must be a string, got dict"),
        ({**UNIT_TRIANGLE, "name": [[["x"]]]}, "the name must be a string, got list"),
        ({"halfspaces": [["1", 1]]}, HALFSPACE_SHAPE),
        ({"halfspaces": [{"rhs": 1}]}, HALFSPACE_SHAPE),
        ({"halfspaces": 5}, "the halfspaces must be a list, got int"),
        ({"vertices": 7}, "the vertices must be a list, got int"),
        ({"halfspaces": {"a": 1}}, "the halfspaces must be a list, got dict"),
        ({"vertices": "0110"}, "the vertices must be a list, got str"),
        ({**UNIT_TRIANGLE, "halfspaces": 5}, "the halfspaces must be a list, got int"),
        ({**UNIT_TRIANGLE, "halfspaces": 0}, "the halfspaces must be a list, got int"),
        ({"halfspaces": False}, "the halfspaces must be a list, got bool"),
        (
            {"halfspaces": [{"normal": [0, 1], "rhs": "1"}, {"normal": [1.0, 0], "rhs": "1"},
                            {"normal": [-1, -1], "rhs": "1"}]},
            "halfspace 1: cannot interpret 1.0 as an exact rational",
        ),
        (
            {"halfspaces": [{"normal": [True, 0], "rhs": "1"}, {"normal": [0, 1], "rhs": "1"},
                            {"normal": [-1, -1], "rhs": "1"}]},
            "halfspace 0: bool is not a rational scalar",
        ),
    ],
    ids=[
        "name-object", "name-nested-list", "halfspace-list", "halfspace-without-normal",
        "halfspaces-int", "vertices-int", "halfspaces-object", "vertices-string",
        "halfspaces-int-beside-vertices", "halfspaces-zero-beside-vertices", "halfspaces-false",
        "normal-float", "normal-bool",
    ],
)
def test_polytope_file_of_the_wrong_shape_is_a_parse_error(tmp_path, doc, message):
    # A polytope file's name of another JSON type than a string used to be
    # echoed (theta printed the object, exit 0), and a half-space that is
    # not an object with a normal and a rhs read as Python's own error text.
    # A number in place of the half-space or vertex list read as "'int'
    # object is not iterable", and an object or a string was iterated as its
    # keys or characters, and a 0 or false beside a vertex list was taken
    # for no half-spaces.  A float or a bool in a normal surfaced through the
    # hull as a ValidationError that named no half-space.
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli("theta", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["message"]) == ("ParseError", message)


def test_polytope_file_with_a_null_name_takes_the_file_name(tmp_path):
    # an unnamed polytope is written with "name": null
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps({**UNIT_TRIANGLE, "name": None}))
    code, out = run_cli("theta", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["name"] == "unnamed"


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


def test_mismatched_representations_exit_2(tmp_path):
    # The unit square's half-spaces with the vertices of a larger square.
    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(
        json.dumps(
            {
                "halfspaces": [
                    {"normal": [1, 0], "rhs": "1"},
                    {"normal": [-1, 0], "rhs": "1"},
                    {"normal": [0, 1], "rhs": "1"},
                    {"normal": [0, -1], "rhs": "1"},
                ],
                "vertices": [["2", "2"], ["2", "-2"], ["-2", "2"], ["-2", "-2"]],
            }
        )
    )
    code, out = run_cli("theta", str(mismatch), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValidationError"
    assert error["message"] == (
        "halfspace and vertex representations describe different polytopes"
    )


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


def test_kstab_b1_json_bytes(monkeypatch):
    # The exact output of the default-grid search, pinned byte for byte; the
    # entry is read once.
    from toricstab import corpus

    loads = []
    _record_calls(monkeypatch, corpus.load_entry, loads)
    code, out = run_cli("kstab", "corpus:B1", "--format", "json")
    assert code == 0
    assert len(loads) == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "535c9060122b8181a3e751cfb42d3288c97a8cee18c1da5aae934cc87c98830a"
    )


def test_kstab_e2_json_bytes():
    # The other default-grid search of the benchmark's verdict workload.
    code, out = run_cli("kstab", "corpus:E2", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "71694ef037d11bcf47c054f6e8276dcc64f3631480f4c2cffdf7646bc702df99"
    )


def test_tables_survey_json_bytes(monkeypatch):
    # The whole-corpus table at levels 1-3 and grid 0 in every format and at
    # grids 1 and 2 in JSON, D1's search at grid 2, and the analyze and chow
    # reports that share its stages, pinned byte for byte,
    # each reading every corpus entry it uses once; E4's balance system at
    # levels 1-20 reads only the integer sums of each level.
    from toricstab import corpus

    pins = [
        (("tables", "--i-max", "3", "--grid", "0", "--format", "json"),
         "1d58cf74137fbbb94cb063a0cdfc2ead0926cc42208d81e1a4a10be96ec6d58f", 19),
        (("tables", "--i-max", "3", "--grid", "0"),
         "abbbf3c09155eb5798a2cc87cd5e6311e0845bd384d0a173aeb2c1182805fc32", 19),
        (("tables", "--i-max", "3", "--grid", "0", "--format", "csv"),
         "3723785afb858f8ef5e5b58e0b7b8bb4e7b786f9200c8fe080fb8f9832415b90", 19),
        (("analyze", "corpus:E4", "--i-max", "3", "--grid", "0", "--format", "json"),
         "89f976a8d5ef70425bc4d84a1bd1881e5082d8b3d12f52be74f0ccf6a472bed1", 1),
        (("chow", "corpus:ORB-530571", "--i-max", "3", "--format", "json"),
         "e4f0292cbd155909c01bd577792643275c71d43eacbaae7ed89a061163921e04", 1),
        (("chow", "corpus:E4", "--i-max", "20", "--format", "json"),
         "f51c877c7e09c252c159dcb41c2a0b66ab2138a37fd18178f35b25a681064e7d", 1),
        # the grids where the search does the most work: the verdicts the
        # radial bound decides are those the search leaves
        (("tables", "--format", "json"),
         "1d58cf74137fbbb94cb063a0cdfc2ead0926cc42208d81e1a4a10be96ec6d58f", 19),
        (("tables", "--grid", "2", "--format", "json"),
         "1d58cf74137fbbb94cb063a0cdfc2ead0926cc42208d81e1a4a10be96ec6d58f", 19),
        (("kstab", "corpus:D1", "--grid", "2", "--format", "json"),
         "a02a9c677adb13b21828c1f7d628e19cfb0c14855526c5e81e23d2e979c3a4ae", 1),
    ]
    loads = []
    _record_calls(monkeypatch, corpus.load_entry, loads)
    for argv, digest, reads in pins:
        loads.clear()
        code, out = run_cli(*argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
        assert len(loads) == reads, argv


# sha256 of `analyze corpus:NAME --grid 0 --format json`, levels 1-6: the
# balance system, s_closed and the Q and P samples of every corpus entry
ANALYZE_GRID0 = {
    "CP3": "d8d9d066508720082e26b3c20fbf0b25f9cfdce66b4628a18eefaadd5a0dcc2e",
    "B1": "014a071c090e014921f7a9b75f8741aa381a0c1334123944e3e95b92558fbc21",
    "B2": "5ce45702ee5d8bf96181ddde60b5834a0f76d3d1cdde130911e234398a989e0c",
    "B3": "3f8f4eeba6fb4ea65f330d0c6624ca066285c4d75fd3d5b629bb21f666311707",
    "B4": "e53588518c29a226029b8be35adb2f17282db9b9c7a918c4cb5a08645b9bd645",
    "C1": "bdd3de27584d1620ca6e876280ddb905f6b2738abb870f565564ee2ee3da9dcf",
    "C2": "1b680b5b19ab9bbd0218e0e3cca81a4fc8577d64592054255b5787608f6d59c2",
    "C3": "8dab83efe2a9dcb7bea521b8fe1e70d7fa6dcb28da4455b61ee9890677dcba55",
    "C4": "c40d42dc69dd2039b67486d88e264a83e1924346200740e2d5f4f68d4a9fefb3",
    "C5": "9f9da6219968285d86636bbf727c77343fb66ad5d309952bcd8cdf7596c87a04",
    "D1": "d4d9e0b5c81e93ad1c969bd5dbc8460c64af7afbb1b4ffdf16eb8099722225bd",
    "D2": "104905826b58d68f16a05ea4d12d040e1c564f58c87d21de5b2857bfd226a16c",
    "E1": "6a3a3ad974c65905af5bf18e434559e9d80f7ca0bc0b019a708ce72ceb2a4271",
    "E2": "5e3591a4867f73dfab335dcdea62d5d0b6db941419dbbff4702919968959fc11",
    "E3": "b05cb7c89ca492506a6cdd21bf49a7d694e737370ba16be81338247ed8afd88a",
    "E4": "11abb05d8400b3acea21071e7b86e8ea664c7de3deada974fae51ea81063cb8e",
    "F1": "260b5fdf25d15af03918ed6219bd174882d6382c0759c405afbd5ff5930ae7af",
    "F2": "127cf912b5eabf09af99b704d7e904a619612b50e2f7a9eec83a5cb96a5ba706",
    "ORB-530571": "b205c6c96aa8d4fec90d00362e3212ffa458135a207fce8340954a8d13a64e85",
}


@pytest.mark.parametrize("name", ANALYZE_GRID0)
def test_analyze_grid0_json_bytes(name):
    code, out = run_cli("analyze", f"corpus:{name}", "--grid", "0", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ANALYZE_GRID0[name]


# sha256 of `kstab corpus:NAME --format json` at the default grid: theta, the
# excess region, both sides of the mean criterion and the witness where one is
# found.  ORB-530571 is not reflexive even up to translation (exit 3).
KSTAB_DEFAULT = {
    "CP3": "93b9a16c5627067cd002b193e4f21f1d3567c9b82c2db6d754d65543035c357c",
    "B1": "535c9060122b8181a3e751cfb42d3288c97a8cee18c1da5aae934cc87c98830a",
    "B2": "bbc6a623c0adb6da6e473002260f349050d3caede21c25c60f4ac5ec96a410c0",
    "B3": "8ecd5d9ac4ee4c09a60f4983e336b2d0917cbe854ff49d4dfe67d3d954183579",
    "B4": "a1887da11cb598197f196d4f06deab366300925a357dc0f51babd39cb37e62d6",
    "C1": "24a75d0b0357467bfa8ac6e974cd22977c374896d684e9498e7efc6f9593c77b",
    "C2": "6586297b023a6e360721cf291ccabb0af07e2da5cce30170e56187438be5ae71",
    "C3": "42ebb598c778dc9f23e2999b3c6591ea4a74525c6e4e7ec0fa90c35084817c01",
    "C4": "7564a86a024e56e8394f953827cdea66e5884a4bff034b9d3b26c107af7ca400",
    "C5": "eb9ea26565cd53132548213e61c9d9850b255e24ccfc5d946ce7bf76bc37b07f",
    "D1": "a02a9c677adb13b21828c1f7d628e19cfb0c14855526c5e81e23d2e979c3a4ae",
    "D2": "81e89f2d8a953246e0a6ecc34fdd514a67a439a59fffa2416706666fd3dcd3d2",
    "E1": "a527401ed1ad6ff675aa3008ef8ec3670404fb7bdfa2af16c51379d7dbf12a80",
    "E2": "71694ef037d11bcf47c054f6e8276dcc64f3631480f4c2cffdf7646bc702df99",
    "E3": "7e12aedc5b4e85179bd8c4d58000ddc862fd42f34feee22ea7c5189a824fa97e",
    "E4": "b12961b06205c0fb29f307e64cddbdf074d9b592601c9607b9ecabe873f2f6f0",
    "F1": "fd5d6cc453403e378ef7bae2ebbba8d6c231f210188f4e2870d6bde18df6749f",
    "F2": "e4153eaaa4fbf55f04b4e790e9bd9f21ab8807eaacb2f731b91650c541bd1b56",
    "ORB-530571": "daddef4e08b82fef55bf14ca6f62e28ff33dabccad560567135d37dff747cfbf",
}


@pytest.mark.parametrize("name", KSTAB_DEFAULT)
def test_kstab_json_bytes(name):
    code, out = run_cli("kstab", f"corpus:{name}", "--format", "json")
    assert code == (3 if name == "ORB-530571" else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == KSTAB_DEFAULT[name]


# sha256 of `theta corpus:NAME --format json`: theta, Sbar and the Futaki vector
THETA = {
    "CP3": "c21819119c5e54688b9e4413efcf5e7f24d8154bc718ac6cb9f756ae5d94f6cd",
    "B1": "38ad1632fa7b838f35d0535525df9fb4f373140226795f85c6a8b40e3632cce9",
    "B2": "3bcd1da1ebc1efbdf33a6079d0ea9604f5bf47fbed34e7af54c90f225cdf693b",
    "B3": "70345275b7cefbd4e9e7c0d649072992b76646db6f995e6ae1ff98964ac2dd32",
    "B4": "cbad6761193a23f2d591af14a2d04011cf40f59af07c3d2710dfbaac7b79f55c",
    "C1": "f22dfb4269316067d57bcd14b97e503d4815168e0dac1846223044b4934a4c7f",
    "C2": "603ce3c3de299b3930493f70b92147503ce3e6b219ec63eab6749a543cc566e5",
    "C3": "6393459f40872131b0713a2ebf206855773ca3a775f9a5189817cfb4f4f1ed6e",
    "C4": "c796c77f78ea26c1b40e133ba5b57951b88abb5b4135818c470f59e738d9c750",
    "C5": "a5550e3353de96fdb9b8cf65ceb1647967170eea8933fd938e21702d66586f83",
    "D1": "dd59ac5810fb21a4a43fdafc7c8e3adff9874dda11f272a2eb5ec1ca17ea32af",
    "D2": "9cc7189b158ef83581f76edf3c9daa9d0d4410c935abfea5c6d5f3f48d603a79",
    "E1": "96afb4b1dfbfa1cf102a5a78798aa9441387992d66dce6a44282f56ffd7fd717",
    "E2": "17122b43b1cb51f9e77f5de027c888c60009e432a46840c34cea748c25de9f10",
    "E3": "655d765ff2e0c377c050e4a5ecca100a859b05ba3b3965308b346c4afd5cb94d",
    "E4": "a04305d95dec0021dce0db53039d1e9d3dfa27a446ec98a1816277895d4459fe",
    "F1": "1532c69dde4888f5f4548e9e576ed8b1a87c95d1fa61a082136d278ae0ea336f",
    "F2": "8d5b61c76bbc30bad5dc84feaf7ac7e8351eae5bd11132bbb2813319517d983a",
    "ORB-530571": "448d310e70c0e277affcd68ef6b4edb0ad07a69df78df47f2e3dfa7082367167",
}


@pytest.mark.parametrize("name", THETA)
def test_theta_json_bytes(name):
    code, out = run_cli("theta", f"corpus:{name}", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THETA[name]

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


@pytest.mark.parametrize(
    "argv, solves",
    [
        (("chow", "corpus:F1", "--i-max", "5"), 5),
        (("analyze", "corpus:CP3", "--grid", "0", "--i-max", "4"), 4),
        (("tables", "--i-max", "3", "--grid", "0"), 45),
    ],
    ids=["chow", "analyze", "tables"],
)
def test_each_level_is_solved_once(monkeypatch, argv, solves):
    # Each level's record is built once per (theta, i) and cached on P: the
    # Q sample reads chow's record and the integrity gate's two level-1
    # checks share theirs, so the balance system is solved once a level
    # (tables reads 45 levels: each entry's first three, or up to the first
    # that fails).
    from toricstab import stability

    calls = []
    balance = stability._balance
    monkeypatch.setattr(stability, "_balance", lambda *args: calls.append(1) or balance(*args))
    code, _ = run_cli(*argv)
    assert code == 0
    assert len(calls) == solves


def test_level_statistics_build_no_point_list(monkeypatch, corpus_entries):
    # The balance system, s_closed, the Q and P samples, the Ehrhart counts
    # and the gate's sums are read off each level's fibre ranges: no command
    # enumerates a point or reads theta at a node.  Neither tables, nor chow
    # on E4 (which fails at every level, so takes no Q sample) or on B1 (a
    # Q sample at every level), nor analyze on CP3 (one at every level), nor
    # the public Q, P and projection.
    from toricstab import lattice, stability
    from toricstab.plfun import PLFn

    calls = []
    _record_calls(monkeypatch, lattice.lattice_points, calls)
    _record_calls(monkeypatch, stability.theta_nodes, calls)
    for argv in (
        ("tables", "--i-max", "3", "--grid", "0"),
        ("chow", "corpus:E4", "--i-max", "20"),
        ("chow", "corpus:B1", "--i-max", "6"),
        ("analyze", "corpus:CP3", "--grid", "0", "--i-max", "4"),
    ):
        code, _ = run_cli(*argv)
        assert code == 0, argv
        assert calls == [], argv
    p = corpus_entries["B2"].polytope
    ed = stability.extremal_affine(p)
    u = PLFn.simple([1, 0, 0], 0)
    for i in (1, 2, 3):
        stability.q_weight(p, ed, i, stability.facet_distance_pl(p))
        stability.p_weight(p, i, u, 2)
        stability.project_perp(p, ed, i, u)
    assert calls == []


def test_tables_cuts_each_excess_region_once(monkeypatch):
    # The excess region is cut once per (P, theta) and shared by the gate,
    # the classifier and the search: tables at grid 0 makes 18 cuts, 13 of
    # them excess regions, and no cut twice.  Only D1 and E1 search; the
    # radial bound rules the search out on the other entries.
    from toricstab import polytope

    cut = polytope.intersect_halfspace
    cuts, kept = [], []

    def recorded(p, normal, rhs):
        kept.append(p)  # keeps every id distinct for the run
        cuts.append((id(p), tuple(normal), rhs, sys._getframe(1).f_code.co_name))
        return cut(p, normal, rhs)

    for name, module in list(sys.modules.items()):
        if name == "toricstab" or name.startswith("toricstab."):
            for attr, value in list(vars(module).items()):
                if value is cut:
                    monkeypatch.setattr(module, attr, recorded)
    code, _ = run_cli("tables", "--i-max", "3", "--grid", "0")
    assert code == 0
    assert len(cuts) == len({c[:3] for c in cuts}) == 18
    assert sum(c[3] == "excess_region" for c in cuts) == 13


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


TRIANGLE = '"polytope": {"vertices": [[0, 0], [1, 0], [0, 1]]}'
ORB = json.loads((DATA_DIR / "ORB-530571.json").read_text())


def _orb_text(key, value=None):
    """ORB-530571's entry with ``key`` set to ``value``, or dropped for None."""
    doc = {k: v for k, v in ORB.items() if k != key}
    if value is not None:
        doc[key] = value
    return json.dumps(doc)


@pytest.mark.parametrize(
    "name, text, argv, detail",
    [
        ("X.json", '{"name": "X", "polytope": {', ("kstab", "corpus:X"), "line 1"),
        ("X.json", "[1, 2]", ("kstab", "corpus:X"), "must be a JSON object"),
        ("X.json", '{"name": "X", "rays": 5, ' + TRIANGLE + "}", ("kstab", "corpus:X"), "rays"),
        ("X.json", '{"rays": [[0, "1"]], ' + TRIANGLE + "}", ("kstab", "corpus:X"), "rays"),
        ("X.json", '{"notes": [5], ' + TRIANGLE + "}", ("tables",), "'notes'"),
        ("X.json", '{"name": 5, ' + TRIANGLE + "}", ("tables",), "'name'"),
        ("X.json", '{"expected": 5, ' + TRIANGLE + "}", ("kstab", "corpus:X"), "'expected'"),
        ("X.json", '{"polytope": [1]}', ("kstab", "corpus:X"), "polytope document"),
        ("index.json", '["X", ', ("corpus", "list"), "line 1"),
        ("X.json", '{"expected": {"volume": [1]}, ' + TRIANGLE + "}", ("tables",), "'volume'"),
        (
            "X.json", '{"expected": {"lattice_point_sums": {"400": [0, 0]}}, ' + TRIANGLE + "}",
            ("tables",), "'lattice_point_sums': level '400': levels 1..400 may hold 10827400 nodes",
        ),
        (
            "X.json", '{"expected": {"lattice_point_sums": {"0": [0, 0]}}, ' + TRIANGLE + "}",
            ("tables",), "'lattice_point_sums': level '0' is not a positive int",
        ),
        (
            "X.json",
            '{"expected": {"lattice_point_sums": {"' + "1" * 5000 + '": [0, 0]}}, ' + TRIANGLE + "}",
            ("tables",),
            "'lattice_point_sums': '" + "1" * 39 + "... (5002 characters): Exceeds the limit "
            "(4300 digits) for integer string conversion: value has 5000 digits",
        ),
        (
            "ORB-530571.json",
            _orb_text("dual_vertices", [[1.5, -1, "1/2"], *ORB["dual_vertices"][1:]]),
            ("tables", "--i-max", "1", "--grid", "0"),
            "'dual_vertices': cannot interpret 1.5 as an exact rational",
        ),
        (
            "ORB-530571.json", _orb_text("dual_vertices"), ("tables", "--i-max", "1", "--grid", "0"),
            "'dual_vertices': no key 'dual_vertices'",
        ),
        (
            "ORB-530571.json",
            _orb_text("fano_vertices", [[1, -1, "1/0"], *ORB["fano_vertices"][1:]]),
            ("tables", "--i-max", "1", "--grid", "0"),
            "'fano_vertices': '1/0' has a zero denominator",
        ),
    ],
    ids=[
        "truncated-entry", "entry-not-an-object", "rays-not-a-list", "ray-not-of-ints",
        "notes-not-strings", "name-not-a-string", "expected-not-an-object",
        "polytope-not-an-object", "truncated-index", "expected-value-of-wrong-type",
        "lattice-level-over-budget", "lattice-level-not-a-positive-int",
        "lattice-level-past-digit-limit",
        "dual-vertex-not-exact", "dual-vertices-missing", "fano-vertex-zero-denominator",
    ],
)
def test_malformed_corpus_file_exits_2(tmp_path, monkeypatch, capsys, name, text, argv, detail):
    # A bad file in the corpus directory is a parse error naming the file
    # (exit 2), never a traceback.
    (tmp_path / name).write_text(text)
    monkeypatch.setenv("TORICSTAB_CORPUS_DIR", str(tmp_path))
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / name}: ") and detail in err and "sys." not in err
    code, out = run_cli(*argv, "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["exit_code"]) == ("ParseError", 2)
    assert error["message"].startswith(f"{tmp_path / name}: ") and detail in error["message"]


UNREADABLE = {
    "not-utf8": (
        b'{"dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]} \xff\xfe', "can't decode byte 0xff"
    ),
    "deep-nesting": (b"[" * 100_000, "maximum recursion depth exceeded"),
    "long-number": (
        b'{"dim": 2, "vertices": [[1' + b"0" * 5000 + b", 0], [0, 0], [0, 1]]}", "5001 digits"
    ),
}


@pytest.mark.parametrize("kind", UNREADABLE)
def test_unreadable_json_exits_2(tmp_path, monkeypatch, capsys, kind):
    # Bytes that are not UTF-8, nesting past the recursion limit and a number
    # past Python's digit limit: in a polytope file, a corpus entry or the
    # corpus index each is a parse error naming the file (exit 2), with the
    # JSON error object under --format json, never a traceback.
    data, detail = UNREADABLE[kind]
    path = tmp_path / "P.json"
    path.write_bytes(data)
    entries, index = tmp_path / "entries", tmp_path / "index"
    entries.mkdir()
    index.mkdir()
    (entries / "X.json").write_bytes(data)
    (index / "index.json").write_bytes(data)
    for folder, name, argv in (
        (entries, path, ("theta", str(path))),
        (entries, entries / "X.json", ("kstab", "corpus:X")),
        (index, index / "index.json", ("corpus", "list")),
    ):
        monkeypatch.setenv("TORICSTAB_CORPUS_DIR", str(folder))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}: ") and detail in err and "Traceback" not in err
        code, out = run_cli(*argv, "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["type"], error["exit_code"]) == ("ParseError", 2)
        assert error["message"].startswith(f"{name}: ") and detail in error["message"]


# Vertex values that an error message must not quote whole: a string of
# 20,000 characters, a value nested in 900 lists, and a string of 5,000
# digits, past the interpreter's digit limit; with what the message says.
LONG_VALUES = {
    "long-string": (
        '"' + "1" * 20_000 + 'x"', "(20003 characters) is not an integer or p/q rational"
    ),
    "deep-nesting": ("[" * 900 + "]" * 900, "(1800 characters) as an exact rational"),
    "many-digits": ('"' + "1" * 5000 + '"', "integer string conversion: value has 5000 digits"),
}


@pytest.mark.parametrize("kind", LONG_VALUES)
def test_long_values_give_short_messages(tmp_path, kind):
    # A hostile vertex is a parse error (exit 2) whose message quotes a
    # prefix of the value and its length, and leaves out the interpreter's
    # advice to raise its digit limit.
    value, detail = LONG_VALUES[kind]
    path = tmp_path / "P.json"
    path.write_text('{"dim": 3, "vertices": [[%s, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}' % value)
    code, out = run_cli("theta", str(path), "--format", "json")
    assert code == 2
    error = json.loads(out)["error"]
    assert (error["type"], error["exit_code"]) == ("ParseError", 2)
    assert error["message"].startswith("vertex 0: ") and detail in error["message"]
    assert len(error["message"]) <= 200 and "sys." not in error["message"], error["message"]


def test_oversized_grid_is_rejected(monkeypatch):
    # A search box above the direction budget is a validation error (exit 2),
    # raised before any stage touches the polytope.
    from toricstab import stability

    calls = []
    for fn in ("reflexive_translate", "extremal_affine"):
        monkeypatch.setattr(stability, fn, lambda p: calls.append(p) or p)
    for argv in (("kstab", "corpus:B1"), ("analyze", "corpus:CP3")):
        code, out = run_cli(*argv, "--grid", "1000000000", "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["type"], error["message"]) == (
            "ValidationError",
            "search grid 1000000000 spans 8000000012000000006000000001 box directions "
            f"in dimension 3, above the budget of {stability.MAX_SEARCH_DIRECTIONS}",
        )
    assert calls == []


def test_levels_below_one_are_rejected():
    # --i-max 0 is a validation error (exit 2) in every command that takes
    # it, checked before the search grid.
    for argv in (("analyze", "corpus:CP3"), ("chow", "corpus:CP3"), ("tables", "--grid", "-1")):
        code, out = run_cli(*argv, "--i-max", "0", "--format", "json")
        assert code == 2
        error = json.loads(out)["error"]
        assert (error["type"], error["message"]) == ("ValidationError", "i_max must be at least 1")


def test_oversized_levels_are_rejected(monkeypatch):
    # Levels whose node bound is above the budget are a validation error
    # (exit 2), raised before any lattice point is enumerated or any level
    # is walked.
    from toricstab import lattice, stability

    calls = []
    _record_calls(monkeypatch, lattice.lattice_points, calls)
    _record_calls(monkeypatch, lattice._ranges, calls)
    for argv, name in (
        (("chow", "corpus:E4"), "E4"),
        (("analyze", "corpus:E4"), "E4"),
        (("tables",), "CP3"),
    ):
        code, out = run_cli(*argv, "--i-max", "1000000000", "--format", "json")
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith("levels 1..1000000000 may hold ")
        assert error["message"].endswith(
            f" nodes on {name}, above the budget of {lattice.MAX_LEVEL_NODES}"
        )
    assert calls == []


def test_ehrhart_levels_over_the_budget_are_rejected(tmp_path, monkeypatch):
    # The counting polynomial needs levels 1..5 of a 3D lattice simplex.
    # With edge 3000 their node bound is far above the budget, and with
    # edge 30 it is above it while level 1 alone fits: ehrhart, and analyze
    # whatever its --i-max, are a validation error (exit 2) before any
    # lattice point is enumerated or any level is walked.
    from toricstab import lattice

    calls = []
    _record_calls(monkeypatch, lattice.lattice_points, calls)
    _record_calls(monkeypatch, lattice._ranges, calls)
    cases = ((3000, ("ehrhart",), 3375000000000), (30, ("analyze", "--i-max", "1"), 3375000))
    for edge, argv, bound in cases:
        path = tmp_path / f"S{edge}.json"
        vertices = [[0, 0, 0], [edge, 0, 0], [0, edge, 0], [0, 0, edge]]
        path.write_text(json.dumps({"vertices": vertices}))
        code, out = run_cli(argv[0], str(path), *argv[1:], "--format", "json")
        assert code == 2, argv
        error = json.loads(out)["error"]
        assert (error["type"], error["message"]) == (
            "ValidationError",
            f"levels 1..5 may hold {bound} nodes on S{edge}, "
            f"above the budget of {lattice.MAX_LEVEL_NODES}",
        )
    assert calls == []


def test_kstab_cp1_times_b1_json_bytes(tmp_path, corpus_entries):
    # A 4D verdict: CP^1 x B1 from B1's half-spaces and x4 <= 1, -x4 <= 1.
    b1 = corpus_entries["B1"].polytope
    halfspaces = [{"normal": [*h.normal, 0], "rhs": str(h.rhs)} for h in b1.halfspaces]
    halfspaces += [{"normal": [0, 0, 0, s], "rhs": "1"} for s in (1, -1)]
    path = tmp_path / "cp1xB1.json"
    path.write_text(json.dumps({"halfspaces": halfspaces}))
    code, out = run_cli("kstab", str(path), "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bd8787a685b7f104af8075470cbda63cbfe6b402445ff4a47da606322aebec9c"
    )


def test_save_then_analyze_file(tmp_path, corpus_entries):
    from toricstab import corpus as corpus_mod

    path = tmp_path / "b2.json"
    path.write_text(json.dumps(corpus_mod.polytope_to_json(corpus_entries["B2"].polytope)))
    code, out = run_cli("theta", str(path))
    assert code == 0
    assert "-70/97*x3 - 15/97" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_exits_141_with_no_traceback(fmt):
    # A reader that goes away before the output is written (as `| head`
    # does) ends the run with exit 141 and nothing on stderr: no traceback,
    # and no JSON error written to the same closed pipe.
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "toricstab.cli", "chow", "corpus:B1", "--i-max", "4", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()  # the only read end: every write to stdout fails
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141, err
    assert err == b""


def test_tables_deterministic():
    args = ("tables", "--i-max", "1", "--grid", "0", "--format", "csv")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "B1" in out1 and "ORB-530571" in out1


def test_internal_invariant_exit_3(tmp_path, monkeypatch):
    # Skew the constant of theta in the integer solve: its normalization
    # check must fail loudly.
    from toricstab import stability

    solve = stability._solve

    def skewed(m, columns):
        d, [x] = solve(m, columns)
        return d, [x[:-1] + [x[-1] + 1]]

    monkeypatch.setattr(stability, "_solve", skewed)
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


# The hostile values of the mutation fuzz: one of each JSON type, a zero
# denominator, a 31-digit coordinate, as a number and as a string, and an
# exponent and a decimal string.
HOSTILE = [None, True, 1.5, "x", [], {}, 0, -1, "1/0", 10**30, str(10**30), "1e300000", "0.5"]


def _paths(node, path=()):
    """The path of every node below ``node`` in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutant(doc, rng):
    """``doc`` with one or two nodes replaced by a hostile value, dropped,
    or, in a list, duplicated."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.choice((1, 2))):
        paths = list(_paths(doc))
        if not paths:
            return doc
        *head, last = rng.choice(paths)
        parent = doc
        for key in head:
            parent = parent[key]
        op = rng.choice(("swap", "drop", "duplicate"))
        if op == "swap":
            parent[last] = copy.deepcopy(rng.choice(HOSTILE))
        elif op == "drop":
            del parent[last]
        elif isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
    return doc


def _typed_outcome(argv, doc):
    """Run ``argv`` in process: exit 0 with a JSON document, or exit 2 or 3
    with the typed JSON error; no exception may leave main."""
    from toricstab import errors

    try:
        code, out = run_cli(*argv, "--format", "json")
    except Exception as exc:  # noqa: BLE001 - the property under test
        pytest.fail(f"{argv} raised {exc!r} on {json.dumps(doc)}")
    result = json.loads(out)
    if code == 0:
        return
    assert code in (2, 3), (argv, code, doc)
    error = result["error"]
    assert error["exit_code"] == code, (argv, error)
    assert isinstance(getattr(errors, error["type"], None), type), (argv, error)


def test_mutated_documents_exit_with_typed_errors(tmp_path, monkeypatch, corpus_entries):
    # A seeded mutation fuzz of B1's polytope document and of the corpus
    # entries of B1 and ORB-530571: every command ends in a result or a
    # typed error with its exit code.
    rng = random.Random(2016)
    entry = corpus_entries["B1"].raw
    polytope = entry["polytope"]
    # both representations, and each alone, so that mutants also reach the
    # computation rather than stop at the representations' cross-check
    bases = [polytope] + [{"dim": 3, key: polytope[key]} for key in ("halfspaces", "vertices")]
    path = tmp_path / "B1.json"
    for trial in range(150):
        doc = _mutant(bases[trial % 3], rng)
        path.write_text(json.dumps(doc))
        for argv in (
            ("theta", str(path)),
            ("kstab", str(path), "--grid", "0"),
            ("ehrhart", str(path)),
            ("chow", str(path), "--i-max", "2"),
        ):
            _typed_outcome(argv, doc)
    # the entries' own fields: B1's polytope document is fuzzed above, and
    # ORB-530571 also carries its Fano polytope and that polytope's polar dual
    for name in ("B1", "ORB-530571"):
        entry = corpus_entries[name].raw
        fields = {key: value for key, value in entry.items() if key != "polytope"}
        folder = tmp_path / name
        folder.mkdir()
        monkeypatch.setenv("TORICSTAB_CORPUS_DIR", str(folder))
        for _ in range(150):
            doc = {**_mutant(fields, rng), "polytope": entry["polytope"]}
            (folder / f"{name}.json").write_text(json.dumps(doc))
            _typed_outcome(("tables", "--i-max", "1", "--grid", "0"), doc)
