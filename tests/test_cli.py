import contextlib
import hashlib
import importlib.resources
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import jsonschema
import pytest

from aqsteiner import verify as verify_mod
from aqsteiner.cli import (
    TOOL_VERSION,
    VERIFY_MAX_BYTES,
    all_triples,
    build_parser,
    certificate_doc,
    main,
    parse_certificate,
    run_sweep,
    sample_triples,
)
from aqsteiner.construct import construct
from aqsteiner.oracle import DEFAULT_ORACLE_BUDGET
from aqsteiner.paths import PathSystem
from aqsteiner.topology import AugmentedCube, ContractViolation, parse_vertex
from aqsteiner.verify import check_path_system

from util import TOOLS_DIR, load_tool, reference_verify_family, run_bounded


def schema(name):
    ref = importlib.resources.files("aqsteiner") / "schemas" / f"{name}.schema.json"
    return json.loads(ref.read_text())


def run_cli(args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "aqsteiner.cli", *args],
        capture_output=True,
        text=True,
        input=stdin,
    )
    return proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def test_info_values():
    code, out, _ = run_cli(["info", "-n", "3", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("info"))
    assert doc == {
        "n": 3,
        "vertices": 8,
        "degree": 5,
        "connectivity": {"value": 4, "exact": True},
        "hager_bound_k3": 3,
    }
    code, out, _ = run_cli(["info", "-n", "4", "--format", "json"])
    doc = json.loads(out)
    assert doc["degree"] == 7 and doc["connectivity"]["value"] == 7 and doc["hager_bound_k3"] == 5
    code, out, _ = run_cli(["info", "-n", "1", "--format", "json"])
    assert json.loads(out)["degree"] == 1


def test_info_json_to_a_file_is_what_stdout_gets(tmp_path, capsys):
    out_path = tmp_path / "info.json"
    assert main(["info", "-n", "3", "--format", "json", "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["info", "-n", "3", "--format", "json"]) == 0
    assert out_path.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("n", range(6, 11))
def test_info_connectivity_is_exact(n):
    # every fan above n = 4 is full, so the scan over all labels is exact
    # and reads 2n - 1
    code, out, _ = run_cli(["info", "-n", str(n), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("info"))
    assert doc["connectivity"] == {"value": 2 * n - 1, "exact": True}
    code, out, _ = run_cli(["info", "-n", str(n)])
    assert code == 0
    assert f" connectivity={2 * n - 1} " in out and "sampled bound" not in out


# ---------------------------------------------------------------------------
# construct + verify round trip
# ---------------------------------------------------------------------------

def test_construct_verify_roundtrip(tmp_path):
    cert = tmp_path / "cert.json"
    code, out, _ = run_cli(["construct", "-n", "3", "-S", "000,001,011", "-o", str(cert)])
    assert code == 0
    doc = json.loads(cert.read_text())
    jsonschema.validate(doc, schema("certificate"))
    assert len(doc["trees"]) == 3
    code, out, _ = run_cli(["verify", str(cert)])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, schema("report"))
    assert report["accepted"]


def test_certificate_roundtrip_is_lossless():
    g = AugmentedCube(4)
    fam = construct(g, [parse_vertex(s) for s in ("0000", "0011", "1110")])
    doc = certificate_doc(fam, "Case2_2_2c")
    parsed = parse_certificate(doc)
    # re-emitting the parsed certificate gives the same canonical document
    refam = type(fam)(
        dim=parsed.n,
        terminals=parsed.terminals,
        trees=parsed.trees,
        provenance=fam.provenance,
    )
    assert certificate_doc(refam, parsed.case) == doc


def test_tool_version_is_the_project_version():
    # certificates print TOOL_VERSION; a bump of one without the other shows here
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert TOOL_VERSION == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_verify_rejects_tampered_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    run_cli(["construct", "-n", "3", "-S", "000,001,011", "-o", str(cert)])
    doc = json.loads(cert.read_text())
    doc["trees"][0]["edges"] = doc["trees"][0]["edges"][:-1]  # delete one edge
    cert.write_text(json.dumps(doc))
    code, out, _ = run_cli(["verify", str(cert)])
    assert code == 1
    report = json.loads(out)
    assert not report["accepted"]
    kinds = {v["kind"] for v in report["violations"]}
    assert kinds & {"Disconnected", "TerminalDegree"}


def test_verify_rejects_malformed_files(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1", "n": 3')  # truncated
    code, _, err = run_cli(["verify", str(bad)])
    assert code == 2
    bad.write_text(json.dumps({"schema_version": "1", "n": 3, "s": ["000", "001", "011"],
                               "case": "x", "fallback_used": False, "trees": [],
                               "tool": {"id": "t", "version": "0"}, "extra": 1}))
    code, _, err = run_cli(["verify", str(bad)])
    assert code == 2 and "unknown" in err


def test_parser_rejects_a_boolean_dimension_like_the_schema():
    # bool is an int in Python, so "n": true used to parse as n = 1
    g = AugmentedCube(3)
    doc = certificate_doc(construct(g, [parse_vertex(s) for s in ("000", "001", "011")]), "Base3")
    for n in (True, False):
        bad = {**doc, "n": n}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema("certificate"))
        with pytest.raises(ContractViolation, match="n must be an integer in 1..62"):
            parse_certificate(bad)


# int(x, 2) alone would take the underscore, the sign, the 0b prefix,
# the leading space and the non-ASCII digits
BAD_LABELS = ["0102", " 0101", "01_0", "+010", "0b01", "\uff10\uff11\uff10\uff11", "\u0661\u0660\u0661\u0660",
              "010", "01010", "", 101, None, ["0101"], True]


@pytest.mark.parametrize("label", BAD_LABELS, ids=repr)
def test_parser_rejects_each_bad_label_with_one_message(label):
    doc = certificate_doc(construct(AugmentedCube(4), [parse_vertex(s) for s in ("0000", "0011", "1110")]), "Base4")
    message = re.escape(f"bad vertex label {label!r} for n=4")
    in_s = {**doc, "s": [label, *doc["s"][1:]]}
    # the reader looks up the two ends of an edge one after the other
    in_edge_end = json.loads(json.dumps(doc))
    in_edge_end["trees"][2]["edges"].append([doc["s"][0], label])
    in_edge_start = json.loads(json.dumps(doc))
    in_edge_start["trees"][2]["edges"].append([label, doc["s"][0]])
    for bad in (in_s, in_edge_end, in_edge_start):
        with pytest.raises(ContractViolation, match=message):
            parse_certificate(bad)


def test_parser_takes_exactly_the_binary_labels_of_length_n():
    # every string of length 3..5 over a few characters that int(x, 2)
    # accepts in some position, as the end of an added edge at n = 4
    doc = certificate_doc(construct(AugmentedCube(4), [parse_vertex(s) for s in ("0000", "0011", "1110")]), "Base4")
    bad = json.loads(json.dumps(doc))
    edge = ["0000", None]
    bad["trees"][2]["edges"].append(edge)
    for size in (3, 4, 5):
        for chars in itertools.product("01_ +b\uff11\u0661", repeat=size):
            label = edge[1] = "".join(chars)
            binary = size == 4 and set(label) <= {"0", "1"}
            try:
                cert = parse_certificate(bad)
            except ContractViolation as exc:
                assert not binary and str(exc) == f"bad vertex label {label!r} for n=4"
            else:
                assert binary and (0, int(label, 2)) in cert.trees[2].edges


def test_parser_stores_a_reversed_edge_low_label_first():
    doc = certificate_doc(construct(AugmentedCube(4), [parse_vertex(s) for s in ("0000", "0011", "1110")]), "Base4")
    flipped = json.loads(json.dumps(doc))
    for tree in flipped["trees"]:
        tree["edges"] = [[b, a] for a, b in tree["edges"]]
    assert flipped["trees"][0]["edges"][0][0] > flipped["trees"][0]["edges"][0][1]
    cert = parse_certificate(flipped)
    assert cert == parse_certificate(doc)
    assert all(u < v for tree in cert.trees for u, v in tree.edges)
    flipped["trees"][2]["edges"].append(["1111", "0000"])
    assert (0b0000, 0b1111) in parse_certificate(flipped).trees[2].edges


def test_verify_reports_a_wrong_tree_count(tmp_path):
    g = AugmentedCube(5)
    doc = certificate_doc(construct(g, [parse_vertex(s) for s in ("00000", "00011", "11110")]), "Case2_1_1")
    cases = {
        "none": ([], ["TreeCount"]),
        "one short": (doc["trees"][:-1], ["TreeCount"]),
        "one extra": (doc["trees"] + doc["trees"][:1], ["SharedEdge", "SharedVertex", "TreeCount"]),
    }
    for name, (trees, kinds) in cases.items():
        path = tmp_path / "cert.json"
        path.write_text(json.dumps({**doc, "trees": trees}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(path)])
        report = json.loads(out.getvalue())
        jsonschema.validate(report, schema("report"))
        assert code == 1 and not report["accepted"], name
        assert sorted({v["kind"] for v in report["violations"]}) == kinds, name
        first = report["violations"][0]
        assert first == {"kind": "TreeCount", "trees": [], "detail": f"expected 7 trees, got {len(trees)}"}, name


def test_verify_memory_stays_linear_on_a_huge_certificate(tmp_path):
    # one counting-order path over 2^18 labels at n = 20, cut in the
    # middle, with a pendant third target: a 13 MB file that the checker
    # walks edge by edge under the 1 GiB cap; one tree of the 37 that
    # n = 20 needs
    n, m = 20, 1 << 18
    edges = [[format(v, "020b"), format(v + 1, "020b")] for v in range(m - 1) if v != m // 2 - 1]
    edges.append([format(5, "020b"), format(m | 5, "020b")])
    doc = {"schema_version": "1", "n": n, "s": sorted(format(a, "020b") for a in (0, m - 1, m | 5)),
           "case": "Case1", "fallback_used": False, "trees": [{"edges": edges}],
           "tool": {"id": "aqsteiner", "version": "0.1.0"}}
    cert = tmp_path / "big.json"
    cert.write_text(json.dumps(doc))
    assert cert.stat().st_size >= 10_000_000
    out = run_bounded(
        "import contextlib, io, json\n"
        "from aqsteiner.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main(['verify', {str(cert)!r}])\n"
        "print(code, sorted({v['kind'] for v in json.loads(out.getvalue())['violations']}))\n"
    )
    assert out == "1 ['Disconnected', 'TreeCount']\n"


# a well-formed n = 3 certificate that verify rejects (one tree, two
# targets off it)
SMALL_CERT = {"schema_version": "1", "n": 3, "s": ["000", "011", "101"], "case": "Base3", "fallback_used": False,
              "trees": [{"edges": [["000", "001"]]}], "tool": {"id": "aqsteiner", "version": "0.1.0"}}


def test_verify_streams_a_report_of_many_violations(tmp_path):
    # 10,000 one-edge trees at n = 3 whose edges cycle through the 28
    # label pairs: 49,962 violations.  A dataclass per violation and the
    # indented report held as one string peaked at about 70 MB of Python
    # allocations; named tuples and a streamed report take about 28 MB
    pairs = list(itertools.combinations([format(v, "03b") for v in range(8)], 2))
    trees = [{"edges": [list(pairs[i % len(pairs)])]} for i in range(10_000)]
    doc = {**SMALL_CERT, "trees": trees}
    cert, out = tmp_path / "many.json", tmp_path / "report.json"
    cert.write_text(json.dumps(doc))
    # stdout goes to a file, whose bytes tracemalloc does not count
    with open(out, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        tracemalloc.start()
        try:
            code = main(["verify", str(cert)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    report = verify_mod.verify_family(AugmentedCube(3), parse_certificate(doc), size=3)
    assert code == 1 and len(report.violations) == 49_962
    assert peak < 45_000_000, peak
    assert out.read_text(encoding="utf-8") == json.dumps(report.to_json(), indent=2) + "\n"


def test_verify_reads_at_most_its_byte_bound(tmp_path):
    # a certificate padded to exactly VERIFY_MAX_BYTES still verifies under
    # the 1 GiB cap; one byte more, /dev/zero as a file and /dev/zero on
    # stdin stop after VERIFY_MAX_BYTES + 1 bytes with one error line
    n = 20
    edges = [[format(v, "020b"), format(v + 1, "020b")] for v in range(300_000)]
    doc = {"schema_version": "1", "n": n, "s": [format(a, "020b") for a in (0, 1, 3)],
           "case": "Case1", "fallback_used": False, "trees": [{"edges": edges}],
           "tool": {"id": "aqsteiner", "version": "0.1.0"}}
    text = json.dumps(doc)
    assert len(text) < VERIFY_MAX_BYTES
    at_bound, past_bound = tmp_path / "at.json", tmp_path / "past.json"
    at_bound.write_text(text + " " * (VERIFY_MAX_BYTES - len(text)))
    past_bound.write_text(text + " " * (VERIFY_MAX_BYTES + 1 - len(text)))
    out = run_bounded(
        "import contextlib, io, json, sys\n"
        "from aqsteiner.cli import main\n"
        "sys.stdin = open('/dev/zero', encoding='utf-8')\n"
        f"for path in ({str(at_bound)!r}, {str(past_bound)!r}, '/dev/zero', '-'):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(['verify', path])\n"
        "    kinds = sorted({v['kind'] for v in json.loads(out.getvalue())['violations']}) if out.getvalue() else []\n"
        "    print(code, kinds, err.getvalue().count('\\n'), 'larger than' in err.getvalue())\n"
    )
    assert out.splitlines() == [
        "1 ['TerminalDegree', 'TreeCount'] 0 False",
        "2 [] 1 True",
        "2 [] 1 True",
        "2 [] 1 True",
    ]


def test_construct_duplicate_vertex_usage_error():
    code, _, err = run_cli(["construct", "-n", "3", "-S", "000,000,001"])
    assert code == 2
    assert "duplicate" in err


def test_construct_case_tag_matches_classification():
    # the certificate names the case that built it: the base search at n = 4
    code, out, _ = run_cli(["construct", "-n", "4", "-S", "0000,0011,1100"])
    assert code == 0
    doc = json.loads(out)
    assert doc["case"] == "Base4"
    assert len(doc["trees"]) == 5
    assert doc["fallback_used"] is False


def test_construct_dot_output():
    code, out, _ = run_cli(["construct", "-n", "3", "-S", "000,001,011", "--format", "dot"])
    assert code == 0
    blocks = re.findall(r"graph tree\d+ \{[^}]*\}", out, re.S)
    assert len(blocks) == 3
    assert out.count("}") == out.count("graph tree")
    for block in blocks:
        assert '"000" [shape=doublecircle];' in block
        assert re.search(r'"\d+" -- "\d+" \[color="#[0-9a-f]{6}"\];', block)
    # every non-brace line is a well-formed statement
    for line in out.strip().splitlines():
        line = line.strip()
        assert (
            line.startswith("graph ")
            or line == "}"
            or re.fullmatch(r'label="[^"]*";', line)
            or re.fullmatch(r"node \[shape=circle\];", line)
            or re.fullmatch(r'"[01]+" \[shape=doublecircle\];', line)
            or re.fullmatch(r'"[01]+" -- "[01]+" \[color="#[0-9a-f]{6}"\];', line)
        ), line


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------

def test_paths_command():
    code, out, _ = run_cli(["paths", "-n", "4", "-u", "0000", "-v", "1111", "-k", "7"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("paths"))
    assert doc["count"] == 7
    code, out, _ = run_cli(["paths", "-n", "4", "-u", "0000", "-v", "1111", "-k", "8"])
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, schema("paths"))
    assert doc["size"] == 7
    code, out, _ = run_cli(["paths", "-n", "2", "-u", "00", "-v", "11", "-k", "1"])
    assert code == 0
    assert json.loads(out)["paths"] == [["00", "11"]]


def test_paths_at_dimension_62():
    # above n = 4 the paths come from the fan and the cut is u's
    # neighbourhood, so no whole cube is searched; 0...0 and 1...1 are
    # adjacent, so the cut past 2n - 1 = 123 holds 122 labels and the
    # direct edge
    ends = {n: f"-u {'0' * n} -v {'1' * n}" for n in (62, 63)}
    commands = [f"paths -n 62 {ends[62]} -k 123", f"paths -n 62 {ends[62]} -k 124", f"paths -n 63 {ends[63]} -k 3"]
    out = run_bounded(
        "import contextlib, io, json\n"
        "from aqsteiner.cli import main\n"
        f"for command in {commands!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(command.split())\n"
        "    doc = json.loads(out.getvalue() or '{}')\n"
        "    print(code, doc.get('count'), len(doc.get('separator', ())), doc.get('uses_direct_edge'), '1..62' in err.getvalue())\n"
    )
    assert out.splitlines() == ["0 123 0 None False", "1 None 122 True False", "2 None 0 None True"]


def test_pinned_paths_command_prints_a_full_fan():
    # the paths of STDOUT_DIGESTS' full fan at n = 6
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main("paths -n 6 -u 000000 -v 101101 -k 11 --format json".split()) == 0
    doc = json.loads(out.getvalue())
    jsonschema.validate(doc, schema("paths"))
    ps = PathSystem(0, 0b101101, tuple(tuple(int(a, 2) for a in p) for p in doc["paths"]))
    assert doc["count"] == 11 and check_path_system(AugmentedCube(6).view(), ps)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_command():
    code, out, _ = run_cli(["oracle", "-n", "3", "-S", "001,010,100"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("oracle"))
    assert doc["exact"] and doc["lower"] == 4
    code, _, _ = run_cli(["oracle", "-n", "5", "-S", "00000,00001,00010"])
    assert code == 2  # needs --force beyond 16 vertices
    # within the budget (0, 1, 2) packs its degree ceiling, which is
    # exact, and (0, 5, 9) packs 8 but cannot rule out 9
    code, out, _ = run_cli(
        ["oracle", "-n", "5", "-S", "00000,00001,00010", "--force", "--budget", "20000"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] and doc["lower"] == 7
    code, out, _ = run_cli(
        ["oracle", "-n", "5", "-S", "00000,00101,01001", "--force", "--budget", "20000"]
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["lower"], doc["upper"], doc["exact"]) == (8, 9, False)
    code, out, _ = run_cli(["oracle", "-n", "1", "-S", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] and doc["lower"] == 1
    code, _, _ = run_cli(["oracle", "-n", "3", "-S", "000"])
    assert code == 2  # too few labels


def test_oracle_budget_that_closes_the_bracket_prints_exact():
    # the budget runs out after the packing meets the degree ceiling, so
    # the bracket is a point and the value is known
    code, out, _ = run_cli(["oracle", "-n", "3", "-S", "000,001,010", "--budget", "15"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("oracle"))
    assert (doc["lower"], doc["upper"], doc["exact"]) == (3, 3, True)
    assert doc["nodes_used"] >= 15


def test_oracle_dimension_out_of_range_is_usage_error():
    # rejected before any work; run under a memory cap, since a forced
    # n = 20 oracle would build 2^20 masks of 2^20 bits each
    out = run_bounded(
        "import contextlib, io\n"
        "from aqsteiner.cli import main\n"
        "for argv in (['oracle', '-n', '-1', '-S', '0,1'],\n"
        "             ['oracle', '-n', '20', '--force', '-S', '0' * 20 + ',' + '0' * 19 + '1']):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(code, repr(out.getvalue()), '1..12' in err.getvalue())\n"
    )
    assert out.splitlines() == ["2 '' True", "2 '' True"]


def test_forced_oracle_spends_its_default_budget():
    # the budget charges every grown set, every vertex its removal tests
    # try or visit and every set the packing tries, so a forced run ends
    # in a bracket instead of running for minutes; this triple falls one
    # short of its degree ceiling 15 within the default budget
    out = run_bounded(
        "import contextlib, io\n"
        "from aqsteiner.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['oracle', '-n', '8', '-S', '00000000,00000101,00001001', '--force'])\n"
        "print(code)\n"
        "print(out.getvalue())\n",
        timeout=30,
    )
    code, doc = out.split("\n", 1)
    doc = json.loads(doc)
    jsonschema.validate(doc, schema("oracle"))
    assert code == "0" and (doc["lower"], doc["upper"], doc["exact"]) == (14, 15, False)
    assert doc["nodes_used"] >= DEFAULT_ORACLE_BUDGET


def test_forced_oracle_stops_at_the_degree_ceiling():
    # a packing that meets the degree ceiling is exact, so the search
    # stops there, having grown the minimal sets only as far as it packs
    for targets in ("000000,000001,000010", "000000,000001,000011"):
        code, out, _ = run_cli(["oracle", "-n", "6", "-S", targets, "--force"])
        assert code == 0, targets
        doc = json.loads(out)
        jsonschema.validate(doc, schema("oracle"))
        assert (doc["lower"], doc["upper"], doc["exact"]) == (9, 9, True), targets
        assert doc["nodes_used"] < 10_000, targets


def test_forced_oracle_at_the_top_dimension_fits_in_memory():
    # a spent default budget at n = 12 parks hundreds of thousands of
    # sets to grow into the next size; each is parked as the indices it
    # grew in, not as masks of 4093 bits, so the run fits under the cap
    out = run_bounded(
        "import contextlib, io\n"
        "from aqsteiner.cli import main\n"
        "out = io.StringIO()\n"
        "targets = ','.join(format(v, '012b') for v in (0, 5, 9))\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['oracle', '-n', '12', '-S', targets, '--force'])\n"
        "print(code)\n"
        "print(out.getvalue())\n",
        timeout=60,
    )
    code, doc = out.split("\n", 1)
    doc = json.loads(doc)
    assert code == "0" and (doc["lower"], doc["upper"], doc["exact"]) == (5, 23, False)
    assert doc["nodes_used"] >= DEFAULT_ORACLE_BUDGET


def test_deep_forced_oracle_ends_in_a_bracket():
    # within this budget the n = 10 search packs its degree ceiling 17,
    # so it is exact, while the n = 12 search, over 4093 ground vertices,
    # ends on the budget in a bracket
    out = run_bounded(
        "import contextlib, io\n"
        "from aqsteiner.cli import main\n"
        "for n in (10, 12):\n"
        "    out = io.StringIO()\n"
        "    targets = ','.join(format(v, f'0{n}b') for v in (0, 1, 2))\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['oracle', '-n', str(n), '-S', targets, '--force', '--budget', '1000000'])\n"
        "    print(code, out.getvalue().replace('\\n', ' '))\n",
        timeout=60,
    )
    assert len(out.splitlines()) == 2
    brackets = []
    for line in out.splitlines():
        code, doc = line.split(" ", 1)
        doc = json.loads(doc)
        jsonschema.validate(doc, schema("oracle"))
        assert code == "0", line
        brackets.append((doc["lower"], doc["upper"], doc["exact"]))
    assert brackets == [(17, 17, True), (3, 21, False)]


def test_fidelity_case1_runs_to_its_bound():
    # the deepest Case1 triple recurses at every level, so n = 12 lays
    # quarter paths of 1024 vertices; above FIDELITY_MAX_DIM = 16 the
    # certificate is refused before any work
    out = run_bounded(
        "import contextlib, io, json\n"
        "from aqsteiner.cli import main, parse_certificate\n"
        "from aqsteiner.topology import AugmentedCube\n"
        "from aqsteiner.verify import verify_family\n"
        "for n in (12, 17):\n"
        "    targets = ','.join(format(v, f'0{n}b') for v in (0, 1, 2))\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(['construct', '-n', str(n), '-S', targets, '--fidelity'])\n"
        "    text = out.getvalue()\n"
        "    ok = bool(text) and verify_family(AugmentedCube(n), parse_certificate(json.loads(text))).accepted\n"
        "    print(code, ok if text else repr(text), 'at most 16' in err.getvalue())\n"
    )
    assert out.splitlines() == ["0 True False", "2 '' True"]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_exhaustive_dim3():
    code, out, _ = run_cli(["sweep", "-n", "3", "--exhaustive", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("sweep"))
    assert doc["triples"] == 56 and doc["min_size"] == 3 and doc["all_verified"]


def test_sweep_guard_and_sampling():
    code, _, err = run_cli(["sweep", "-n", "6", "--exhaustive"])
    assert code == 2 and "--force" in err
    code, out, _ = run_cli(["sweep", "-n", "6", "--samples", "20", "--seed", "7", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["triples"] == 20 and doc["min_size"] == 9


def test_sweep_deterministic_across_jobs():
    # n = 4 runs only the base search; n = 5 runs fans and the fan memo
    # inside each pool worker
    for n in ("4", "5"):
        c1, out1, _ = run_cli(["sweep", "-n", n, "--exhaustive", "--format", "json", "--jobs", "1"])
        c2, out2, _ = run_cli(["sweep", "-n", n, "--exhaustive", "--format", "json", "--jobs", "2"])
        assert c1 == c2 == 0
        assert out1 == out2


def test_sweep_verifies_each_family_once(monkeypatch):
    # one n = 5 family is built and verified per translation class; each
    # of the 35 Case1 classes builds one n = 4 family below it, which its
    # n = 5 family holds and so is not verified apart; no member's family
    # is moved or verified
    calls = []
    original = verify_mod.verify_family

    def counting(g, family, *, size=None):
        calls.append(g.dim)
        return original(g, family, size=size)

    monkeypatch.setattr(verify_mod, "verify_family", counting)
    records = run_sweep(5, all_triples(5))
    assert [r.labels for r in records] == all_triples(5)
    assert all(r.verified for r in records)
    assert (calls.count(5), calls.count(4), len(calls)) == (155, 0, 155)


def test_construct_byte_identical_runs():
    a = run_cli(["construct", "-n", "5", "-S", "00000,00011,11110"])
    b = run_cli(["construct", "-n", "5", "-S", "00000,00011,11110"])
    assert a == b and a[0] == 0


# ---------------------------------------------------------------------------
# in-process helpers
# ---------------------------------------------------------------------------

def test_sample_triples_deterministic():
    assert sample_triples(6, 25, 3) == sample_triples(6, 25, 3)
    assert sample_triples(6, 25, 3) != sample_triples(6, 25, 4)


def test_dense_sampling_lists_the_triples():
    # above half of C(2^n, 3) the triples are listed and sampled: drawing
    # with rejection took about 15 s for every n = 7 triple
    out = run_bounded(
        "import math\n"
        "from aqsteiner.cli import all_triples, sample_triples\n"
        "assert sample_triples(7, math.comb(1 << 7, 3), 0) == all_triples(7)\n"
        "a, b = sample_triples(6, 30000, 5), sample_triples(6, 30000, 5)\n"
        "assert a == b == sorted(set(a)) and len(a) == 30000\n"
        "print('ok')\n",
        timeout=10,
    )
    assert out == "ok\n"


def test_dense_sampling_in_process():
    # 2 * 300 > C(16, 3) = 560, so the n = 4 triples are listed and sampled
    draw = sample_triples(4, 300, 2)
    assert draw == sorted(set(draw)) and len(draw) == 300
    assert set(draw) <= set(all_triples(4))
    assert draw == sample_triples(4, 300, 2)


def test_main_returns_exit_code():
    assert main(["info", "-n", "2"]) == 0


# name: (argv, with {tmp} standing for a temporary directory; stderr
# fragment).  The first four ended in a traceback with exit 1 before every
# command left its errors to main; none of the cases allocates much, so
# they run without the memory cap.
USAGE_ERRORS = {
    "construct-o-missing-dir": ("construct -n 4 -S 0000,0011,1100 -o {tmp}/missing/c.json", "cannot write -o"),
    "info-o-directory": ("info -n 3 -o {tmp}", "cannot write -o"),
    "verify-not-utf8": ("verify {tmp}/bom.json", "malformed certificate: 'utf-8' codec"),
    "verify-deep-nesting": ("verify {tmp}/nested.json", "malformed certificate: maximum recursion depth"),
    "info-bad-n": ("info -n 99", "1..10"),
    "construct-bad-label": ("construct -n 3 -S 000,001,01x", "not a binary vertex label"),
    "oracle-budget-0": ("oracle -n 3 -S 001,010,100 --budget 0", "budget must be positive"),
    "paths-k-0": ("paths -n 4 -u 0000 -v 1111 -k 0", "at least one path"),
    "sweep-no-samples": ("sweep -n 3", "either --exhaustive or --samples N"),
    "sweep-exhaustive-and-samples": (
        "sweep -n 5 --exhaustive --samples 3",
        "give either --exhaustive or --samples N, not both",
    ),
    "sweep-dim-2": ("sweep -n 2 --samples 1", "sweep needs dimension in 3..62"),
    "sweep-exhaustive-unforced": ("sweep -n 6 --exhaustive", "exhaustive sweep above dimension 5 needs --force"),
    "sweep-exhaustive-over-cap": ("sweep -n 9 --exhaustive --force", "exhaustive sweep verifies at most 2763520 triples"),
    "sweep-samples-over-cap": ("sweep -n 9 --samples 2763521", "sweep lists at most 2763520 triples"),
    "sweep-samples-0": ("sweep -n 5 --samples 0", "sample count must be in 1..4960"),
    "construct-label-length": ("construct -n 3 -S 000,001,0110", "label '0110' does not have length 3"),
    "construct-label-over-62-bits": (f"construct -n 3 -S 000,001,{'0' * 63}", "label longer than 62 bits"),
    "paths-u-length": ("paths -n 4 -u 000 -v 1111 -k 1", "endpoint labels must have length n"),
    "paths-v-length": ("paths -n 4 -u 0000 -v 11111 -k 1", "endpoint labels must have length n"),
    "construct-two-labels": ("construct -n 3 -S 000,001", "expected 3 comma-separated labels, got 2"),
    "construct-repeated-label": ("construct -n 3 -S 000,001,000", "duplicate vertex in target set"),
    "construct-fidelity-over-16": (
        f"construct -n 17 -S {0:017b},{1:017b},{2:017b} --fidelity",
        "--fidelity on a Case1 triple needs dimension at most 16",
    ),
    "oracle-dim-13": ("oracle -n 13 -S 0,1,10", "oracle needs dimension in 1..12"),
    "oracle-over-16-unforced": ("oracle -n 5 -S 00000,00001,00010", "oracle beyond 16 vertices needs --force"),
    "paths-dim-63": ("paths -n 63 -u 0 -v 1 -k 1", "paths needs dimension in 1..62"),
}

# certificates that parse_certificate rejects past its label checks, each
# a one-field edit of SMALL_CERT
BAD_CERTIFICATES = {
    "not-an-object": ([], "certificate must be an object"),
    "extra-key": ({**SMALL_CERT, "extra": 1}, "certificate has wrong fields (unknown: ['extra'], missing: [])"),
    "missing-tool": (
        {key: value for key, value in SMALL_CERT.items() if key != "tool"},
        "certificate has wrong fields (unknown: [], missing: ['tool'])",
    ),
    "schema-version": ({**SMALL_CERT, "schema_version": "2"}, "unsupported schema_version '2'"),
    "s-two-labels": ({**SMALL_CERT, "s": ["000", "011"]}, "s must list exactly 3 vertex labels"),
    "s-repeated": ({**SMALL_CERT, "s": ["000", "011", "000"]}, "s must hold distinct labels"),
    "case-not-a-string": ({**SMALL_CERT, "case": 1}, "case must be a string"),
    "fallback-not-a-bool": ({**SMALL_CERT, "fallback_used": 0}, "fallback_used must be a boolean"),
    "tool-not-an-object": ({**SMALL_CERT, "tool": "aqsteiner"}, "tool must be an object"),
    "tool-id-not-a-string": ({**SMALL_CERT, "tool": {"id": 1, "version": "0.1.0"}}, "tool id and version must be"),
    "tool-version-not-a-string": ({**SMALL_CERT, "tool": {"id": "aqsteiner", "version": None}}, "tool id and version"),
    "trees-not-a-list": ({**SMALL_CERT, "trees": {}}, "trees must be a list"),
    "tree-not-an-object": ({**SMALL_CERT, "trees": [["000", "001"]]}, "trees[0] must be an object"),
    "edges-not-a-list": ({**SMALL_CERT, "trees": [{"edges": "000-001"}]}, "trees[0].edges must be a list"),
    "edge-malformed": ({**SMALL_CERT, "trees": [{"edges": [["000"]]}]}, "trees[0] has a malformed edge ['000']"),
    "tree-wrong-fields": (
        {**SMALL_CERT, "trees": [{"edges": [["000", "001"]], "x": 1}]},
        "trees[0] has wrong fields (unknown: ['x'], missing: [])",
    ),
    # a two-character string would unpack into two ends
    "edge-as-string": ({**SMALL_CERT, "trees": [{"edges": ["01"]}]}, "trees[0] has a malformed edge '01'"),
}
USAGE_ERRORS.update(
    (f"verify-{name}", (f"verify {{tmp}}/{name}.json", f"malformed certificate: {fragment}"))
    for name, (_, fragment) in BAD_CERTIFICATES.items()
)


@pytest.mark.parametrize("command, fragment", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_exit_2_with_one_line_from_main(tmp_path, capsys, command, fragment):
    (tmp_path / "bom.json").write_bytes(b"\xff\xfe")
    (tmp_path / "nested.json").write_text("[" * 200_000)
    for name, (doc, _) in BAD_CERTIFICATES.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    # an exception that escapes main fails the test, as a traceback would
    code = main(command.format(tmp=tmp_path).split())
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err


def test_sweep_sample_count_out_of_range_is_usage_error():
    # C(8, 3) = 56 triples exist at n = 3; more used to loop forever
    proc = subprocess.run(
        [sys.executable, "-m", "aqsteiner.cli", "sweep", "-n", "3", "--samples", "57"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "1..56" in proc.stderr
    for bad in ("0", "-4"):
        code, out, err = run_cli(["sweep", "-n", "3", "--samples", bad])
        assert code == 2 and out == "" and "1..56" in err
    code, out, _ = run_cli(["sweep", "-n", "3", "--samples", "56", "--format", "json"])
    assert code == 0
    assert json.loads(out)["triples"] == 56


def test_sweep_dimension_above_max_is_usage_error():
    code, out, err = run_cli(["sweep", "-n", "63", "--samples", "1"])
    assert code == 2 and out == ""
    assert "3..62" in err and "Traceback" not in err


def test_sweep_above_the_triple_cap_is_usage_error():
    # listing either triple set would exhaust the memory cap; the sweep
    # cap, C(2^8, 3), is checked before anything is listed
    out = run_bounded(
        "import contextlib, io\n"
        "from aqsteiner.cli import main\n"
        "for argv in (['sweep', '-n', '20', '--exhaustive', '--force'],\n"
        "             ['sweep', '-n', '30', '--samples', '100000000']):\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "        code = main(argv)\n"
        "    print(code, repr(out.getvalue()), 'at most 2763520 triples' in err.getvalue())\n"
    )
    assert out.splitlines() == ["2 '' True", "2 '' True"]


def test_sweep_jobs_outside_cpu_count_is_usage_error(capsys):
    # checked by the parser, so no sweep runs and no pool starts
    for bad in (0, -3, os.cpu_count() + 1):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["sweep", "-n", "3", "--samples", "1", "--jobs", str(bad)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"1..{os.cpu_count()}" in err and str(bad) in err
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["sweep", "-n", "3", "--samples", "1", "--jobs", "x"])
    assert exc.value.code == 2 and "not an integer: 'x'" in capsys.readouterr().err
    assert build_parser().parse_args(["sweep", "-n", "3", "--samples", "1", "--jobs", "1"]).jobs == 1


def test_every_tool_imports_and_every_parity_command_parses(capsys):
    # no script of tools/ runs on import; and a parity command that the
    # parser rejects exits 2 in both checkouts alike, so it compares nothing
    tools = {path.stem: load_tool(path.stem) for path in sorted(TOOLS_DIR.glob("*.py"))}
    cmds = tools["stdout_parity"].command_list()
    assert cmds
    if (os.cpu_count() or 1) < 2:
        cmds = [cmd for cmd in cmds if "--jobs" not in cmd]
    parser = build_parser()
    rejected = []
    for cmd in cmds:
        try:
            parser.parse_args(cmd)
        except SystemExit:
            rejected.append(cmd)
    assert rejected == [], capsys.readouterr().err


def test_construct_and_verify_at_dim_20():
    # one Case1 and one Case2 triple; the fans are built by induction,
    # with no search of the half-copy of 2^19 labels
    out = run_bounded(
        "import contextlib, io, json\n"
        "from aqsteiner.cli import main, parse_certificate\n"
        "from aqsteiner.topology import AugmentedCube\n"
        "from aqsteiner.verify import verify_family\n"
        "for labels in ((0x1234, 0x2345, 0x3456), (0x1234, 0x5678, 0x9abcd)):\n"
        "    targets = ','.join(format(v, '020b') for v in labels)\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(['construct', '-n', '20', '-S', targets])\n"
        "    doc = json.loads(out.getvalue())\n"
        "    print(code, doc['case'], verify_family(AugmentedCube(20), parse_certificate(doc)).accepted)\n"
    )
    assert out.splitlines() == ["0 Case1 True", "0 Case2_2_2a True"]


def test_sweep_at_dim_20():
    out = run_bounded(
        "import contextlib, io, json\n"
        "from aqsteiner.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['sweep', '-n', '20', '--samples', '1', '--seed', '0', '--format', 'json'])\n"
        "doc = json.loads(out.getvalue())\n"
        "print(code, doc['triples'], doc['min_size'], doc['all_verified'])\n"
    )
    assert out.split() == ["0", "1", "37", "True"]


# (command, exit code, sha256 of stdout): one triple per dispatched case at
# n = 5..8, a --fidelity run, the text and dot renderings of a Case1 and a
# Case2 family, a full fan in all three formats, a cut and a sampled
# sweep.  Engine and view changes must leave every certificate, path
# system, cut and summary byte-identical.
# The construct digests were recorded with the Case1 connectors built
# from geodesics and the fans built from 0 by induction on the dimension
# from flow fans of AQ_4 (at n = 5 the AQ_4 flow fans themselves), and
# every grid splice anchored at y, through the c matching when x ~ y and
# z = h(x) and the h matching elsewhere, each triple built on its least
# translate and translated back; every one of those certificates passes
# `aqsteiner verify`.  The full fan's
# three digests were recorded with `paths` printing the translated fan
# `paths.fan(6, 101101)`, which `test_pinned_paths_command_prints_a_full_fan`
# checks; the cut is the one the flow reports.
STDOUT_DIGESTS = [
    ("construct -n 5 -S 00000,00110,01111 --format json", 0,  # Case1
     "0cf50195f280f941eba3da5d18a70d8f3328ebe4a375676aee623d1599803fb6"),
    ("construct -n 5 -S 00001,10001,11110 --format json", 0,  # Case2_1_1
     "72292568fefbc11fed54bf2618f46ecc44995382ea14a80ca4f32c4539e87a3f"),
    ("construct -n 5 -S 00111,01010,10111 --format json", 0,  # Case2_1_2
     "21a923d332293eba82fcdea42343d2c720cf7614b49dc724cb8a3ffa167826f7"),
    ("construct -n 5 -S 01010,01101,10010 --format json", 0,  # Case2_1_3
     "cd2d7b220bf002d7cc069e8efe22fbabd1107c8ae5eecab033f4f9d5bc195e16"),
    ("construct -n 5 -S 01001,10010,11101 --format json", 0,  # Case2_2_1a
     "f36255fd8e9a807b499e68107876a0fde6b019b065a93d3b32bb7f1c1de872c7"),
    ("construct -n 5 -S 00000,10111,11000 --format json", 0,  # Case2_2_1b
     "f1aeb07b116de587f5d09ff465dd85742cd56ef4daffb99abffa40b5d6fe4a4e"),
    ("construct -n 5 -S 00101,01001,10011 --format json", 0,  # Case2_2_2a
     "21fa672837abd357ec1b7842d9306ddf3ff472ae3c70c14d17faaddc090e8b7c"),
    ("construct -n 5 -S 00000,10011,10101 --format json", 0,  # Case2_2_2b
     "9aa5ed3d1a7448133bd2cf5931519d28188a226edb83f22e4b22b503691334c4"),
    ("construct -n 5 -S 00001,10000,10110 --format json", 0,  # Case2_2_2c
     "b1f9eb89d111532bf0ba5953c25d2533c8b1edfbaa3ca1dca8ed721bad0db1bc"),
    ("construct -n 5 -S 01001,01010,10011 --format json", 0,  # Case2_2_3a
     "15af7341468a42e0778a4e94928feeeeaf0ade71c6563968b0ef1e6f054e6f52"),
    ("construct -n 5 -S 01100,01101,10100 --format json", 0,  # Case2_2_3b
     "d46140564bf9d5276b77e22a02294bda87c4c0d181044e91f314dcae33031a3e"),
    ("construct -n 5 -S 01010,01011,11000 --format json", 0,  # Case2_2_3c
     "b7ef21b63b8c562993fcd0815e8294a550c50e4aa8699bbb269e5eae7742122d"),
    ("construct -n 6 -S 000000,000100,010010 --format json", 0,  # Case1
     "5d5afa597e7f815c70ea9af44aea4f30837bc9c226a79610be35a27e17da0c7a"),
    ("construct -n 6 -S 000000,011111,111111 --format json", 0,  # Case2_1_1
     "321c326cb1318bba82be34d6e97a70d715d2f9c89543869b1585e11e450d75e8"),
    ("construct -n 6 -S 000010,100010,111110 --format json", 0,  # Case2_1_2
     "6638b3aa5f9e56c959722548b83d4fb9933ec1357730d1a083de6e8518700842"),
    ("construct -n 6 -S 000001,110110,111110 --format json", 0,  # Case2_1_3
     "e8de6685941ff105169a899ea6864b6c3334b174bbbdb1af4798ee0dc51e0eb3"),
    ("construct -n 6 -S 001010,100001,111110 --format json", 0,  # Case2_2_1a
     "3dba004eeeaee1a7c51b99abee3136a5de5c0b54e955e5340aa38e1d88c8f01b"),
    ("construct -n 6 -S 001010,010101,111010 --format json", 0,  # Case2_2_1b
     "44d647e31ca78bc977dd2a574a241d71fe3340cc51a62df3a66afc0d706a20d6"),
    ("construct -n 6 -S 001011,011000,100001 --format json", 0,  # Case2_2_2a
     "5554f2d27c47f86b531b17c17ea3fc800fb0e2ad64c44648d2630d09b500f715"),
    ("construct -n 6 -S 001100,011001,110100 --format json", 0,  # Case2_2_2b
     "6409a845ea627b0cb099030d4f7d56cc37ac45b3c35b89604e83fe81cd869da7"),
    ("construct -n 6 -S 001011,101010,110110 --format json", 0,  # Case2_2_2c
     "16e1d525a6ceb42587f4f0cfcde9a82d9ae4f1ff36462895ab77af8a112f50b4"),
    ("construct -n 6 -S 000100,000110,101111 --format json", 0,  # Case2_2_3a
     "59b7ca869a1c1ec1c2d09c8ec0866555bcd0c19b32a037407e3e01c4181479e7"),
    ("construct -n 6 -S 001011,001111,101101 --format json", 0,  # Case2_2_3b
     "0fd57f6ba73e8add0090c36a77a943ddb922c6fc8766f316310e6661ced78c3f"),
    ("construct -n 6 -S 011001,101110,111110 --format json", 0,  # Case2_2_3c
     "45318bab89c2ce616566527360c710340d93b16fdc5e2a24eae6c8601485d38d"),
    ("construct -n 7 -S 0001100,0010010,0011000 --format json", 0,  # Case1
     "e90c7bb3ba5ebece9ae7f30e0f38f4e065e56dca6b844c712c37a8386bf6d224"),
    ("construct -n 7 -S 0000111,1000111,1111000 --format json", 0,  # Case2_1_1
     "38ea61c2a0540e3d87253d4be8c27d46a90edb4d91a7eb4741fdfb4faf83f2d5"),
    ("construct -n 7 -S 0001111,1001111,1110010 --format json", 0,  # Case2_1_2
     "03d47071a4acfc596f6667c5cf50047378cabb12ffacde769e2e9f72284898ac"),
    ("construct -n 7 -S 0010100,1010100,1011100 --format json", 0,  # Case2_1_3
     "6a82c4580eb2977ed326fb7e0328ffad5cab8e6c4103730a9c856e6c5479377d"),
    ("construct -n 7 -S 0000100,1001010,1110101 --format json", 0,  # Case2_2_1a
     "bf1fe90828d0d8cfc0ee05736afe91935a68850ac0f6d219dd7090631c567537"),
    ("construct -n 7 -S 0110000,1010000,1101111 --format json", 0,  # Case2_2_1b
     "6b7c67d72a6a2ae2627329b5a900f3928e80b67093bd31edf2ac7da2805af0a5"),
    ("construct -n 7 -S 0001110,0110110,1011101 --format json", 0,  # Case2_2_2a
     "52c478f82e6912b8422fca6bf2867fba89daa870263c969250b7bb1fb023b942"),
    ("construct -n 7 -S 0100110,1010010,1100101 --format json", 0,  # Case2_2_2b
     "aaebb0dc0cf936fce52da4ac8767c8339c50917022dd1ba7778ee1c8ae8a461c"),
    ("construct -n 7 -S 0011000,0110000,1011111 --format json", 0,  # Case2_2_2c
     "b9921f01efea43e7becf06ee4410031fe531f0e451b63ef307da42f570f0e14c"),
    ("construct -n 7 -S 0001001,0010110,1101111 --format json", 0,  # Case2_2_3a
     "c6f9f84a20689d619fd1b1d189f4b417767f4fcdb05417cecaf82c1943de6763"),
    ("construct -n 7 -S 0100000,1010001,1011110 --format json", 0,  # Case2_2_3b
     "d6dd9a4d2bd0912459e7fea2939f3683e96c6ece065daedc7ecd8910d4dbefa3"),
    ("construct -n 7 -S 0011000,0111000,1110111 --format json", 0,  # Case2_2_3c
     "b8f3035988acd7d6f44d52c88234b4076b3e5df5b67bc394692c1d9758497eb4"),
    ("construct -n 8 -S 00010110,01000000,01100010 --format json", 0,  # Case1
     "2313ee1fd52bdff41fa7723621a0543e6631a12e3b4b8356995b3f746062ea04"),
    ("construct -n 8 -S 00101001,01010110,10101001 --format json", 0,  # Case2_1_1
     "4ca2da3b671ee7baabc48a82662d256aa23a73eecb7b9eca83c180f10ade544a"),
    ("construct -n 8 -S 00001010,01110111,10001000 --format json", 0,  # Case2_1_2
     "037057660a1982c6dd1d0374ebb4ccc746f8cd1dc0ade57821f152aeb6e32224"),
    ("construct -n 8 -S 00110110,00111001,11000110 --format json", 0,  # Case2_1_3
     "1822f4156fc24b7c91b1b8ad54d90ef4ac128386b0b865edfe2e5a17c3eeee87"),
    ("construct -n 8 -S 00001010,01110101,11010000 --format json", 0,  # Case2_2_1a
     "55fb73dcca7132decd2ead2c42d38686664e2b4f30ee1febba4ae6b04094cd7d"),
    ("construct -n 8 -S 01100110,10100110,11011001 --format json", 0,  # Case2_2_1b
     "3b45c765d4f7cbd4f413d3f19fdb02da28e64863c31128320a09385a1ada69fc"),
    ("construct -n 8 -S 01110100,10111101,11000000 --format json", 0,  # Case2_2_2a
     "6cb7fbc218482532b8402585e48353cbd3884eff72cd9f11bf0c7b40ad5362df"),
    ("construct -n 8 -S 01100010,11000111,11111101 --format json", 0,  # Case2_2_2b
     "5a777fc40caeafbe2305f6f7b5fbdd6143206989c54de4bd8a2cc52be32a6045"),
    ("construct -n 8 -S 00100001,00110011,11011100 --format json", 0,  # Case2_2_2c
     "ce30e08f0443a4866e94dd827107877f97e48a50f5ba8a051e3c4ee24b56f942"),
    ("construct -n 8 -S 00100000,11000001,11000101 --format json", 0,  # Case2_2_3a
     "2059f303e1c0f4ca41b7e8a7f20cee48d3c35a8dad7bc8abe70fdcc80f371b31"),
    ("construct -n 8 -S 00101110,11100001,11110001 --format json", 0,  # Case2_2_3b
     "d728cf3ba00476a887f60b2f3e6b11bd34c2226383b9d37236cdbd698ff6ccb8"),
    ("construct -n 8 -S 01000000,01000011,10111011 --format json", 0,  # Case2_2_3c
     "7af5402b04f889ae4c031dff9cdfea68f1d24c6cbdd55cf1a116e8b5fc533eaa"),
    # Case2_1_2 far above the fan base, recorded with its own recipe
    # before it became the grid splice h@y
    ("construct -n 12 -S 000000000000,000000000101,100000000000 --format json", 0,  # Case2_1_2
     "791a55d214326b806ad85cc3402462b0d5dc00f26bcbf95108da7df0374c4157"),
    ("construct -n 33 -S " + ",".join(format(v, "033b") for v in (0, 5, 1 << 32)) + " --format json", 0,  # Case2_1_2
     "e91a96a8ee2a36024f964ed2714075d115d2e3930c26ead7d599251575f5b17a"),
    ("construct -n 6 -S 000000,000100,010010 --fidelity", 0,  # Case1
     "cbc7bbdf2150926feb813513377338cbbd904905cf58693a18088f41476301e8"),
    ("construct -n 6 -S 000000,000100,010010 --format text", 0,  # Case1
     "5af0d7e12e45cf1f1345f4d33b13e87ae12198125577d70415fbcb31c2ab8fde"),
    ("construct -n 6 -S 000000,000100,010010 --format dot", 0,  # Case1
     "ab8d7bfd69ea1ea6162ed48840d93467081721c4a11a7df8f59853c168e40005"),
    ("construct -n 6 -S 011001,101110,111110 --format text", 0,  # Case2_2_3c
     "1992a1af10aaed36f1da1dd6a391832f55c0950b18d9342aa961844dcfa57abc"),
    ("construct -n 6 -S 011001,101110,111110 --format dot", 0,  # Case2_2_3c
     "bf9ed2f9679ddf92df6e2b50c7bff8a4710ed740e82e92e341bde0e845c57a02"),
    ("paths -n 6 -u 000000 -v 101101 -k 11 --format json", 0,  # a full fan
     "618d17f7e80edb7552362257da3e68f791e24eb798aa3ca76da5f58f3507c1b0"),
    ("paths -n 6 -u 000000 -v 101101 -k 11 --format text", 0,
     "1da9224508fdfb8d6f48c21677fd646fcde78f5dc4d6a3bf5906ae07eb321e31"),
    ("paths -n 6 -u 000000 -v 101101 -k 11 --format dot", 0,
     "298d857606d85593ae5d8629a33e424d829b27ec2148d88fa3a58a9f79165232"),
    ("paths -n 6 -u 000000 -v 101101 -k 12", 1,  # k above the connectivity: a cut
     "108d2b73ba6721957ecf6ea4fbedb38bca55ada5748103b58aee9ea6a65fabe8"),
    ("sweep -n 6 --samples 200 --seed 7 --format json", 0,
     "1f684f8ef7c23aa7137d4863ebc26419c5f78fe8d091a378b616f4e9fd740ba7"),
    ("sweep -n 4 --exhaustive", 0,
     "379afe24b86afc61b219a59d62d4fdce73ea6c3f82327e9abf2fc85a3f636e0a"),
    ("oracle -n 3 -S 001,010,100", 0,
     "ed6cf85143b323e39751973f77385effc485f853a58af55738d61f86b2780f99"),
    ("oracle -n 4 -S 0000,0011,1100", 0,
     "75190113906fd6e3ffe8ff324d342105e1c44a45ac636f5f6f11cc88e5b2c38e"),
    ("oracle -n 5 -S 00000,00001,00010 --force", 0,  # exact: 7, well inside the default budget
     "4d651ed0a6a156bd1f87570b46b4133f2ade52d23699108b7767d201f1a99a53"),
]


def test_stdout_is_byte_stable():
    for command, code, digest in STDOUT_DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = main(command.split())
        assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (code, digest), command


def _mutants(doc):
    """One certificate per ``Violation`` kind that a file can reach, each
    made from the accepted ``doc`` by editing tree 0 or tree 1.
    (``WrongTerminals`` needs |S| != 3, which the parser already rejects.)"""
    n = doc["n"]
    g = AugmentedCube(n)
    terms = set(doc["s"])
    t0, t1 = doc["trees"][0]["edges"], doc["trees"][1]["edges"]

    def inner(edges):
        return sorted({a for e in edges for a in e} - terms)

    def degree(edges, a):
        return sum(a in e for e in edges)

    def adjacent(a, b):
        return g.adjacent_labels(int(a, 2), int(b, 2))

    def with_tree(i, edges):
        out = json.loads(json.dumps(doc))
        out["trees"][i]["edges"] = edges
        return out

    v0 = inner(t0)
    present = {tuple(sorted(e)) for e in t0}
    chord = next([a, b] for a in v0 for b in v0 if a < b and adjacent(a, b) and (a, b) not in present)
    far = next([v0[0], b] for b in v0 + sorted(terms) if b != v0[0] and not adjacent(v0[0], b))
    bridge = next(e for e in t0 if degree(t0, e[0]) > 1 and degree(t0, e[1]) > 1)
    pendant = next(e for e in t0 if set(e) & terms)
    touch = next(
        [a, b]
        for a in inner(t1)
        for b in v0
        if adjacent(a, b) and b not in inner(t1)
    )
    return {
        "NonEdge": with_tree(0, t0 + [far]),
        "NonEdge-loop": with_tree(0, t0 + [[v0[0], v0[0]]]),
        "Cycle": with_tree(0, t0 + [chord]),
        "Disconnected": with_tree(0, [e for e in t0 if e != bridge]),
        "TerminalDegree": with_tree(0, [e for e in t0 if e != pendant]),
        "SharedVertex": with_tree(1, t1 + [touch]),
        "SharedEdge": with_tree(1, t1 + [t0[0]]),
    }


VERIFY_DIGESTS = {
    "accepted": (0, "3434804021bd9f2c928c5465ea253a7ef3a10663e2a69ab7510b5976202b6b45"),
    "NonEdge": (1, "03ca792b1072d89ab55d3e838bcdfb02fa2c54331ea08a5deab801506c45630a"),
    "NonEdge-loop": (1, "f54bb8eec28140638a917ba70269673442b7dac84fcfe090edc07a609ca0e2f3"),
    "Cycle": (1, "278468165c8fe70d65716b2a63e71c74a58de6b984fa4a4b20bb9e847420dc61"),
    "Disconnected": (1, "cd9c5b99b11261beb0a38e6912545e5f7249576aa2c259ffa3ba5c6792719cfb"),
    "TerminalDegree": (1, "0b08df5e40719514106fc817685b3988299b9f791d54d75e90cc20459d1706dc"),
    "SharedVertex": (1, "43213922cc72730d443d54c7daea572ff36a20fab16d6e0bff4525e4b8c255ac"),
    "SharedEdge": (1, "352cf0cd8be099df45f9626589580ebc4ee2d44fe0f28914f1789c19a33f01e1"),
}


def test_verify_reports_are_byte_stable(tmp_path):
    g = AugmentedCube(6)
    fam = construct(g, [parse_vertex(s) for s in ("001011", "011000", "100001")])
    doc = certificate_doc(fam, fam.provenance[0].case.value)
    docs = {"accepted": doc, **_mutants(doc)}
    assert docs.keys() == VERIFY_DIGESTS.keys()
    for name, cert_doc in docs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cert_doc, indent=2))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", str(path)])
        kinds = {v["kind"] for v in json.loads(out.getvalue())["violations"]}
        assert name == "accepted" or name.split("-")[0] in kinds, (name, kinds)
        assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == VERIFY_DIGESTS[name], name


def test_verify_matches_the_reference_on_the_pinned_mutants():
    # the same documents as above, checked against the tuple-keyed
    # reference checker: equal reports, violation by violation
    g = AugmentedCube(6)
    fam = construct(g, [parse_vertex(s) for s in ("001011", "011000", "100001")])
    doc = certificate_doc(fam, fam.provenance[0].case.value)
    for name, cert_doc in {"accepted": doc, **_mutants(doc)}.items():
        cert = parse_certificate(cert_doc)
        assert verify_mod.verify_family(g, cert) == reference_verify_family(g, cert), name
