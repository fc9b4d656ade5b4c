"""Acceptance suite: one test per shipped claim, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the lines.
Every tolerance is exact integer equality.
"""

import contextlib
import io
import json
import math
import subprocess
import sys
import time

from aqsteiner import cli
from aqsteiner.construct import Case, SteinerTree, TreeFamily
from aqsteiner.paths import connectivity
from aqsteiner.topology import AugmentedCube, Vertex, adjacency_deltas, hager_upper_bound
from aqsteiner.oracle import oracle_tau
from aqsteiner.verify import verify_family

from util import (
    load_tool,
    max_disjoint_paths_brute,
    recursive_adjacency_masks,
    recursive_edges,
    triangles,
)


def _sweep_checked(n):
    """The summary that ``aqsteiner sweep -n N --exhaustive`` prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["sweep", "-n", str(n), "--exhaustive", "--format", "json"])
    assert code == 0
    summary = json.loads(out.getvalue())
    expected = 2 * n - 3
    assert summary["triples"] == math.comb(1 << n, 3)
    assert summary["min_size"] == summary["max_size"] == expected
    assert summary["all_verified"]
    return summary


def test_criterion_1_exhaustive_small_dims():
    started = time.monotonic()
    s3 = _sweep_checked(3)
    s4 = _sweep_checked(4)
    elapsed = time.monotonic() - started
    assert s3["triples"] == 56 and s4["triples"] == 560
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: dim 3 all 56 triples -> 3 verified trees; "
        f"dim 4 all 560 triples -> 5 verified trees ({elapsed:.1f}s)"
    )


def test_criterion_2_recursive_dispatch_exercised():
    started = time.monotonic()
    summary = _sweep_checked(5)
    elapsed = time.monotonic() - started
    assert summary["triples"] == 4960
    cases = summary["cases"]
    assert cases.get("Case1", 0) > 0
    assert any(c.startswith("Case2_1") for c in cases)
    assert any(c.startswith("Case2_2") for c in cases)
    # stronger: the whole dispatch is exercised
    assert set(cases) == {
        "Case1",
        "Case2_1_1", "Case2_1_2", "Case2_1_3",
        "Case2_2_1a", "Case2_2_1b",
        "Case2_2_2a", "Case2_2_2b", "Case2_2_2c",
        "Case2_2_3a", "Case2_2_3b", "Case2_2_3c",
    }
    print(
        f"\nACCEPTANCE 2 PASS: dim 5 all 4960 triples -> 7 verified trees; "
        f"tags {sorted(cases)} ({elapsed:.1f}s)"
    )


def test_criterion_3_triangle_tightness():
    g = AugmentedCube(3)
    masks = recursive_adjacency_masks(3)
    tris = triangles(masks, 3)
    assert tris
    for t in tris:
        res = oracle_tau(g, t)
        assert res.exact and res.value == 3, t
    assert hager_upper_bound(g, 3) == 3
    print(
        f"\nACCEPTANCE 3 PASS: all {len(tris)} triangles in dim 3 pack exactly "
        f"3 = degree bound 3"
    )


def test_criterion_4_classic_dim3_families_reproduced():
    g = AugmentedCube(3)
    s_star = (0b001, 0b010, 0b100)
    res = oracle_tau(g, s_star)
    assert res.exact and res.value >= 4
    # the witness's internal sets, each spanned and hooked to S as the
    # base table's tool does, make a verified 4-family; the constructor's
    # own n = 3 families hold 2n - 3 = 3 trees
    spanning_edges = load_tool("base_table").spanning_edges
    trees = tuple(SteinerTree(frozenset(spanning_edges(g, s_star, w))) for w in res.witness[:4])
    fam4 = TreeFamily(3, frozenset(Vertex(b, 3) for b in s_star), trees, ())
    assert len(fam4.trees) == 4 and verify_family(g, fam4).accepted
    res2 = oracle_tau(g, (0b000, 0b001, 0b011))
    assert res2.exact and res2.value >= 3
    print(
        f"\nACCEPTANCE 4 PASS: oracle({{001,010,100}}) = {res.value} >= 4 with a "
        f"verified 4-family; oracle({{000,001,011}}) = {res2.value} >= 3"
    )


def test_criterion_5_connectivity_facts():
    started = time.monotonic()
    values = {n: connectivity(AugmentedCube(n)) for n in range(3, 11)}
    assert values[3] == 4
    # kappa(AQ_n) = 2n - 1 for n >= 4, exact at every dimension: the scan
    # covers every label, and translations are automorphisms
    assert all(values[n] == 2 * n - 1 for n in range(4, 11))
    # flow agrees with brute-force cut enumeration for the small dims
    for n in (3, 4):
        masks = recursive_adjacency_masks(n)
        brute = min(max_disjoint_paths_brute(masks, n, 0, w) for w in range(1, 1 << n))
        assert values[n] == brute
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 PASS: connectivity dim3=4 and 2n-1 at dims 4-10, "
        f"brute-force cross-checked for dims 3-4 ({elapsed:.1f}s)"
    )


def test_criterion_6_property_suites():
    # adjacency model vs literal recursive construction, dims 1..8
    for n in range(1, 9):
        g = AugmentedCube(n)
        closed = {frozenset({u, u ^ d}) for u in range(g.order) for d in adjacency_deltas(n)}
        assert closed == set(recursive_edges(n))
    # regularity dims 1..6 (full property suite lives in test_topology)
    for n in range(1, 7):
        g = AugmentedCube(n)
        for v in range(g.order):
            assert len({v ^ d for d in adjacency_deltas(n)}) == g.degree
    # byte-identical repeated CLI runs, including a parallel sweep
    def run(args):
        proc = subprocess.run(
            [sys.executable, "-m", "aqsteiner.cli", *args], capture_output=True, text=True
        )
        return proc.returncode, proc.stdout

    a = run(["construct", "-n", "5", "-S", "00000,00011,11110"])
    b = run(["construct", "-n", "5", "-S", "00000,00011,11110"])
    assert a == b and a[0] == 0
    s1 = run(["sweep", "-n", "4", "--exhaustive", "--format", "json", "--jobs", "1"])
    s2 = run(["sweep", "-n", "4", "--exhaustive", "--format", "json", "--jobs", "2"])
    assert s1 == s2 and s1[0] == 0
    print(
        "\nACCEPTANCE 6 PASS: recursive/closed-form agreement dims 1..8, "
        "regularity dims 1..6, byte-identical reruns (serial and parallel); "
        "mutation and automorphism suites run in the module tests"
    )


def test_criterion_7_fidelity_accounting():
    # there is no repair path: a recipe that fails, or a rejected family,
    # raises InternalError, so a clean sweep means the least translate of
    # every translation class was built by its written recipe and
    # verified; translation carries that family to every member
    recipes = {case.value for case in Case} - {Case.BASE3.value, Case.BASE4.value}
    for n in (3, 4, 5):
        written = {f"Base{n}"} if n <= 4 else recipes
        summary = _sweep_checked(n)
        assert summary["fallback_count"] == 0
        assert set(summary["cases"]) <= written
    print(
        "\nACCEPTANCE 7 PASS: exhaustive sweeps at dims 3, 4, 5 built and "
        "verified one family per translation class by a written case recipe, "
        "which covers every triple by translation (no repair path exists)"
    )
