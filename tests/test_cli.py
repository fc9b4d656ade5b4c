import importlib.resources
import json
import re
import subprocess
import sys

import jsonschema

from aqsteiner.cli import (
    certificate_doc,
    main,
    parse_certificate,
    sample_triples,
)
from aqsteiner.construct import construct
from aqsteiner.topology import AugmentedCube, parse_vertex


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


def test_info_bad_dimension():
    code, _, _ = run_cli(["info", "-n", "99"])
    assert code == 2


def test_info_large_dimension_reports_bound():
    code, out, _ = run_cli(["info", "-n", "6", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["connectivity"]["exact"] is False
    assert doc["connectivity"]["value"] >= 11  # a sampled estimate of 2n-1
    code, out, _ = run_cli(["info", "-n", "6"])
    assert "sampled bound" in out


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
        fallback_used=parsed.fallback_used,
    )
    assert certificate_doc(refam, parsed.case) == doc


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


def test_construct_duplicate_vertex_usage_error():
    code, _, err = run_cli(["construct", "-n", "3", "-S", "000,000,001"])
    assert code == 2
    assert "duplicate" in err


def test_construct_case_tag_matches_classification():
    code, out, _ = run_cli(["construct", "-n", "4", "-S", "0000,0011,1100"])
    assert code == 0
    doc = json.loads(out)
    assert doc["case"].startswith("Case2_1")
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
    code, out, _ = run_cli(
        ["oracle", "-n", "5", "-S", "00000,00001,00010", "--force", "--budget", "20000"]
    )
    assert code == 0
    doc = json.loads(out)
    assert not doc["exact"] and doc["lower"] <= doc["upper"]
    code, out, _ = run_cli(["oracle", "-n", "1", "-S", "0,1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["exact"] and doc["lower"] == 1
    code, _, _ = run_cli(["oracle", "-n", "3", "-S", "000"])
    assert code == 2  # too few labels


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
    c1, out1, _ = run_cli(["sweep", "-n", "4", "--exhaustive", "--format", "json", "--jobs", "1"])
    c2, out2, _ = run_cli(["sweep", "-n", "4", "--exhaustive", "--format", "json", "--jobs", "2"])
    assert c1 == c2 == 0
    assert out1 == out2


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


def test_main_returns_exit_code():
    assert main(["info", "-n", "2"]) == 0


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
