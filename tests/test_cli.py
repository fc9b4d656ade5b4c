import contextlib
import hashlib
import importlib.resources
import io
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

from util import run_bounded


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


def test_sweep_dimension_above_max_is_usage_error():
    code, out, err = run_cli(["sweep", "-n", "63", "--samples", "1"])
    assert code == 2 and out == ""
    assert "3..62" in err and "Traceback" not in err


# (command, exit code, sha256 of stdout): one triple per dispatched case at
# n = 5..8, a --fidelity run, a cut and a sampled sweep.  Engine and view
# changes must leave every certificate, cut and summary byte-identical.
STDOUT_DIGESTS = [
    ("construct -n 5 -S 00000,00110,01111 --format json", 0,  # Case1
     "b05b5b995431843cd961965dd6b6806371a97c1d1d48234fa0ad4a0f4576fe64"),
    ("construct -n 5 -S 00001,10001,11110 --format json", 0,  # Case2_1_1
     "02fb682c485d3fa0b2d24798ca2f159695729ebfeb737ed0184e3abed5de54b6"),
    ("construct -n 5 -S 00111,01010,10111 --format json", 0,  # Case2_1_2
     "c3821e3c81be1359ca6eb912b2e5d94f8bfae7d2433053bdccb43426af51afe9"),
    ("construct -n 5 -S 01010,01101,10010 --format json", 0,  # Case2_1_3
     "c432b96e0d18ca6caa6216b7840750b36696d7c169a6a04022d01c60cd632cb9"),
    ("construct -n 5 -S 01001,10010,11101 --format json", 0,  # Case2_2_1a
     "33de23d16bb2ee5646392fa20da540cfe0e5f818f658dd8e7ac6a13e4ce75fe7"),
    ("construct -n 5 -S 00000,10111,11000 --format json", 0,  # Case2_2_1b
     "38d1a66135677a9ffd375f819e0cfbb793e717c78ba02295f3e1b64d307d846e"),
    ("construct -n 5 -S 00101,01001,10011 --format json", 0,  # Case2_2_2a
     "9c6bf6f13c673e9363695b92a2b069a747dbfe2ba2b95acbb0f862086a403a97"),
    ("construct -n 5 -S 00000,10011,10101 --format json", 0,  # Case2_2_2b
     "75b8a4e1d5259aeb94dbf1fd3cae1765c0395aa7a7c088ae28dc272a64ba2c38"),
    ("construct -n 5 -S 00001,10000,10110 --format json", 0,  # Case2_2_2c
     "cb2959a7854dd0e3c15e337cb4569f97f16292c789ec5449740cbdf774dcafd7"),
    ("construct -n 5 -S 01001,01010,10011 --format json", 0,  # Case2_2_3a
     "262c51287e8db100ad71f93831241eaa21588ff61ad33ad412517c75fe6c0086"),
    ("construct -n 5 -S 01100,01101,10100 --format json", 0,  # Case2_2_3b
     "95277836965e8e4eeff44528338bf843fefce969431ede043dda4cc85389b9c0"),
    ("construct -n 5 -S 01010,01011,11000 --format json", 0,  # Case2_2_3c
     "d1883d9ec887e1ea6248b2e18f773c49ddd02e1158a3508488cf21e6574aebf1"),
    ("construct -n 6 -S 000000,000100,010010 --format json", 0,  # Case1
     "fecb9ffeb8e2d2b95cc556bb590ce3a3766586b9c5ceab78f8345800858b7531"),
    ("construct -n 6 -S 000000,011111,111111 --format json", 0,  # Case2_1_1
     "e2815697544e1ca4ca0c374b1283fc3caee040b0c30462a84f186cd08205db61"),
    ("construct -n 6 -S 000010,100010,111110 --format json", 0,  # Case2_1_2
     "e53bf107d0ce68a2b8f580d2fe11ee9d1fe53ef2ed0ca1fac723fe8f0798a955"),
    ("construct -n 6 -S 000001,110110,111110 --format json", 0,  # Case2_1_3
     "3f56e33184c20bc4a29b904a4883b16f2f491a9927b149930246910acfb3234b"),
    ("construct -n 6 -S 001010,100001,111110 --format json", 0,  # Case2_2_1a
     "17a6e23679e4d96e4c21efbde2f6f844c97e96639f6b4bba3a93ea130919a5b8"),
    ("construct -n 6 -S 001010,010101,111010 --format json", 0,  # Case2_2_1b
     "17f9e1d7b901ad14af8841d5d712c3106f28c9d618758ba7d95cd8d6af775a3f"),
    ("construct -n 6 -S 001011,011000,100001 --format json", 0,  # Case2_2_2a
     "a722b4c4926b0a4e0e46b09ed2adc58d37f1b8793fde145d91dccb950d32b53c"),
    ("construct -n 6 -S 001100,011001,110100 --format json", 0,  # Case2_2_2b
     "10f5b348e1fa88f8d8df1b3bf2715be0d695c09449cf00f50e530209f36278aa"),
    ("construct -n 6 -S 001011,101010,110110 --format json", 0,  # Case2_2_2c
     "47ea04319b9b6f5b1f5beeeb375f9cb8c8df6e83fbe0fe5690c3056dd3645478"),
    ("construct -n 6 -S 000100,000110,101111 --format json", 0,  # Case2_2_3a
     "5ae90c9fa27135005278eb5ffd2bf1d3548e9aa541b05a74bc8e272b882fdacc"),
    ("construct -n 6 -S 001011,001111,101101 --format json", 0,  # Case2_2_3b
     "f522aefee21ebd21b7d06b00d86969de55bb691222fb0f4ac6e697bb6f7da3e0"),
    ("construct -n 6 -S 011001,101110,111110 --format json", 0,  # Case2_2_3c
     "a3526b74d1db6ac2c83d986f4578a9a911649f59b55ceabea506e68142cd3045"),
    ("construct -n 7 -S 0001100,0010010,0011000 --format json", 0,  # Case1
     "15e6da35328d566a6d6cf60f448f4f0421eb3fc96b6a283193258b403c6cca39"),
    ("construct -n 7 -S 0000111,1000111,1111000 --format json", 0,  # Case2_1_1
     "b0eb85c1b238de33e18838c4299a992c5cf3bff8942d461d309e4474b67fa66c"),
    ("construct -n 7 -S 0001111,1001111,1110010 --format json", 0,  # Case2_1_2
     "705878cdd7311cab54e057b5f8dbe8fc839ed4fe03ba38b18d63e298ee2c49e4"),
    ("construct -n 7 -S 0010100,1010100,1011100 --format json", 0,  # Case2_1_3
     "0f3f1d0d8a92e00f6ec4da5bc466b62f7613046c2bc66e1bab34f386f911e498"),
    ("construct -n 7 -S 0000100,1001010,1110101 --format json", 0,  # Case2_2_1a
     "45c7fa453352389861de28cfc524c0f8d12f10437c8cd0cb189a7f48a2a7cb67"),
    ("construct -n 7 -S 0110000,1010000,1101111 --format json", 0,  # Case2_2_1b
     "947c04ea5b3f9663753a995e188c1bdbfb4f5562972f42000536953e9476fb2e"),
    ("construct -n 7 -S 0001110,0110110,1011101 --format json", 0,  # Case2_2_2a
     "2c83ce409e6287d6232027b88b03723700cf54fca923e0db92c294d39c3ef9f0"),
    ("construct -n 7 -S 0100110,1010010,1100101 --format json", 0,  # Case2_2_2b
     "2b2e0da067731711d80569022ee90cfcfedcfc262ed23985bbf31f58cf7f73bd"),
    ("construct -n 7 -S 0011000,0110000,1011111 --format json", 0,  # Case2_2_2c
     "641477e366fc1827d1a60e04a58995912a98742b95c595a91f9d0c4463398326"),
    ("construct -n 7 -S 0001001,0010110,1101111 --format json", 0,  # Case2_2_3a
     "b2c9b30cc2129a53ba468b723d465aaab6b4c5767acd0ce5b443c94372e81618"),
    ("construct -n 7 -S 0100000,1010001,1011110 --format json", 0,  # Case2_2_3b
     "ffc6c649128362e7c69b326ddee123e9896a7761cc8021fdf0d5d33b9f3a99b4"),
    ("construct -n 7 -S 0011000,0111000,1110111 --format json", 0,  # Case2_2_3c
     "8649e2c330914bbdfd2f5c21c79a9eca7783f1aede41f209f84234f66ba6c147"),
    ("construct -n 8 -S 00010110,01000000,01100010 --format json", 0,  # Case1
     "6116e025417616e2cec0b30b0b794516754077ede6d4d762946930a9f34b275a"),
    ("construct -n 8 -S 00101001,01010110,10101001 --format json", 0,  # Case2_1_1
     "60d3a97b129b030efcb7083cfbcde2a2da278efd203f46d20644e60898f22c8c"),
    ("construct -n 8 -S 00001010,01110111,10001000 --format json", 0,  # Case2_1_2
     "dedaea3a82a9b80b2aab605699e14bd552f9b8c50ece3c46707551737be9b2d4"),
    ("construct -n 8 -S 00110110,00111001,11000110 --format json", 0,  # Case2_1_3
     "3d97b87b2cb740ff1940987a7cd712f360c7125f89a37866ad0945854e5a6437"),
    ("construct -n 8 -S 00001010,01110101,11010000 --format json", 0,  # Case2_2_1a
     "50a9b39514ed0b3e1ac2432654cdb99eebf891ecf72aa3d52145b3d9b7a48837"),
    ("construct -n 8 -S 01100110,10100110,11011001 --format json", 0,  # Case2_2_1b
     "1ab5986c1d5b0ee8bda7d423d5b1ae821a6422ce3321b21994d7bf1b7cf96194"),
    ("construct -n 8 -S 01110100,10111101,11000000 --format json", 0,  # Case2_2_2a
     "23ba7efe98100b6921636c589b907a440f84e71a3ba9c62b0d31a2798c19695f"),
    ("construct -n 8 -S 01100010,11000111,11111101 --format json", 0,  # Case2_2_2b
     "dcead1de5d01559d12c920e18c09669c964b72a54f4838b5c6d18277648951a4"),
    ("construct -n 8 -S 00100001,00110011,11011100 --format json", 0,  # Case2_2_2c
     "cd756b6d652d4f7eade2882f75c36d9111e6786c668444449878d958fe2ca08a"),
    ("construct -n 8 -S 00100000,11000001,11000101 --format json", 0,  # Case2_2_3a
     "0ef5de5901efa83f7c728266564b6932418a1b7d8bf6543d109f74ae737368ed"),
    ("construct -n 8 -S 00101110,11100001,11110001 --format json", 0,  # Case2_2_3b
     "c3f0496ed2ea47bf05fb6fb50fb973c0ed255490752d5830c6e8b9381de9537d"),
    ("construct -n 8 -S 01000000,01000011,10111011 --format json", 0,  # Case2_2_3c
     "456380ecc65ac19ecff1968248abae766280b0ade6e1e44ed52458581d0ac7a2"),
    ("construct -n 6 -S 000000,000100,010010 --fidelity", 0,  # Case1
     "cbc7bbdf2150926feb813513377338cbbd904905cf58693a18088f41476301e8"),
    ("paths -n 6 -u 000000 -v 101101 -k 12", 1,  # k above the connectivity: a cut
     "108d2b73ba6721957ecf6ea4fbedb38bca55ada5748103b58aee9ea6a65fabe8"),
    ("sweep -n 6 --samples 200 --seed 7 --format json", 0,
     "1f684f8ef7c23aa7137d4863ebc26419c5f78fe8d091a378b616f4e9fd740ba7"),
]


def test_stdout_is_byte_stable():
    for command, code, digest in STDOUT_DIGESTS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            got = main(command.split())
        assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (code, digest), command
