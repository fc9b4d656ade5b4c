import itertools

import pytest

from aqsteiner.construct import SteinerTree, TreeFamily, CaseTag, Case
from aqsteiner.paths import ConnectivityResult, connectivity
from aqsteiner.topology import AugmentedCube, ContractViolation, Vertex, parse_vertex
from aqsteiner.verify import (
    CYCLE,
    DISCONNECTED,
    NON_EDGE,
    SHARED_EDGE,
    SHARED_VERTEX,
    TERMINAL_DEGREE,
    WRONG_TERMINALS,
    hager_upper_bound,
    oracle_tau,
    verify_family,
)

from util import max_disjoint_paths_brute, reachable_mask, recursive_adjacency_masks, triangles


def tree(edges):
    return SteinerTree(frozenset(tuple(sorted((int(a, 2), int(b, 2)))) for a, b in edges))


def targets(terms):
    return frozenset(parse_vertex(t) for t in terms)


def family(n, terms, trees):
    return TreeFamily(n, targets(terms), tuple(trees), (CaseTag(Case.BASE3),), False)


S_A = ("000", "001", "011")
# three internally disjoint pendant trees on {000, 001, 011}: a star at
# 010, and two four-edge trees through the upper half
FAMILY_A = [
    tree([("000", "010"), ("010", "011"), ("010", "001")]),
    tree([("100", "110"), ("110", "001"), ("100", "011"), ("000", "100")]),
    tree([("101", "111"), ("000", "111"), ("001", "101"), ("011", "111")]),
]

S_B = ("001", "010", "100")
# four internally disjoint pendant trees on {001, 010, 100}
FAMILY_B = [
    tree([("000", "001"), ("000", "010"), ("100", "111"), ("000", "111")]),
    tree([("010", "011"), ("001", "011"), ("100", "011")]),
    tree([("100", "101"), ("010", "101"), ("001", "101")]),
    tree([("100", "110"), ("001", "110"), ("010", "110")]),
]


# ---------------------------------------------------------------------------
# single-tree families
# ---------------------------------------------------------------------------

def test_star_tree_accepted():
    g = AugmentedCube(3)
    report = verify_family(g, family(3, S_A, [FAMILY_A[0]]))
    assert report.accepted


def test_non_edge_rejected():
    g = AugmentedCube(3)
    bad = tree([("000", "010"), ("010", "011"), ("010", "001"), ("001", "100")])
    report = verify_family(g, family(3, S_A, [bad]))
    assert not report.accepted
    assert NON_EDGE in {v.kind for v in report.violations}
    # a loop is not an edge either
    loop = SteinerTree(FAMILY_A[0].edges | {(0b010, 0b010)})
    report = verify_family(g, family(3, S_A, [loop]))
    assert [(v.kind, v.detail) for v in report.violations] == [(NON_EDGE, "010-010 is not an edge")]


def test_terminal_degree_two_rejected():
    g = AugmentedCube(3)
    bad = tree([("000", "010"), ("010", "011"), ("010", "001"), ("000", "100"), ("100", "110")])
    report = verify_family(g, family(3, S_A, [bad]))
    assert not report.accepted
    assert TERMINAL_DEGREE in {v.kind for v in report.violations}


def test_absent_terminal_is_degree_zero():
    g = AugmentedCube(3)
    bad = tree([("000", "001")])
    # 011 does not appear at all
    report = verify_family(g, family(3, S_A, [bad]))
    kinds = {v.kind for v in report.violations}
    assert TERMINAL_DEGREE in kinds


# ---------------------------------------------------------------------------
# family checks
# ---------------------------------------------------------------------------

def test_three_family_accepted():
    g = AugmentedCube(3)
    assert verify_family(g, family(3, S_A, FAMILY_A)).accepted


def test_four_family_accepted():
    g = AugmentedCube(3)
    assert verify_family(g, family(3, S_B, FAMILY_B)).accepted


def test_duplicated_tree_rejected():
    g = AugmentedCube(3)
    report = verify_family(g, family(3, S_A, [FAMILY_A[0], FAMILY_A[0]]))
    kinds = {v.kind for v in report.violations}
    assert SHARED_VERTEX in kinds and SHARED_EDGE in kinds


def test_shared_vertex_without_shared_edge():
    g = AugmentedCube(3)
    first = tree([("000", "010"), ("010", "011"), ("010", "001")])
    second = tree([("000", "100"), ("100", "010"), ("010", "111"), ("111", "011"), ("111", "001")])
    report = verify_family(g, family(3, S_A, [first, second]))
    kinds = {v.kind for v in report.violations}
    assert SHARED_VERTEX in kinds
    assert SHARED_EDGE not in kinds


def test_mutation_delete_edge_disconnects():
    g = AugmentedCube(3)
    mutated = list(FAMILY_A)
    edges = sorted(mutated[1].edges)
    mutated[1] = SteinerTree(frozenset(edges[:-1]))
    report = verify_family(g, family(3, S_A, mutated))
    kinds = {v.kind for v in report.violations}
    assert kinds & {DISCONNECTED, TERMINAL_DEGREE}


def test_mutation_add_edge_creates_cycle():
    g = AugmentedCube(3)
    mutated = list(FAMILY_A)
    # tree 1 holds both 001 and 011 already; their direct edge closes a cycle
    t = mutated[1]
    mutated[1] = SteinerTree(t.edges | {(0b001, 0b011)})
    report = verify_family(g, family(3, S_A, mutated))
    assert CYCLE in {v.kind for v in report.violations}


def test_disconnected_cycle_reports_both_in_order():
    # a triangle 000-001-011 plus the separate edge 100-101: two components,
    # so five vertices and four edges still hold a cycle
    t = tree([("000", "001"), ("001", "011"), ("000", "011"), ("100", "101")])
    kinds = [v.kind for v in verify_family(AugmentedCube(3), family(3, S_A, [t])).violations]
    assert kinds[:2] == [DISCONNECTED, CYCLE]


def test_mutation_wrong_terminals():
    g = AugmentedCube(3)
    # a tree pendant on {000, 001, 010} is checked against the family's S:
    # 011 is its centre, not a leaf
    rogue = tree([("000", "011"), ("011", "001"), ("011", "010")])
    report = verify_family(g, family(3, S_A, [rogue]))
    assert [(v.kind, v.trees, v.detail) for v in report.violations] == [
        (TERMINAL_DEGREE, (0,), "terminal 011 has degree 3"),
    ]
    # S itself must hold three targets
    report = verify_family(g, family(3, S_A[:2], []))
    assert [(v.kind, v.trees) for v in report.violations] == [(WRONG_TERMINALS, ())]


def test_labels_outside_the_cube_are_contract_violations():
    g = AugmentedCube(3)
    with pytest.raises(ContractViolation, match="out of range"):
        verify_family(g, family(3, S_A, [tree([("000", "1000")])]))
    with pytest.raises(ContractViolation, match="dimension"):
        verify_family(g, family(3, ("0000", "0001", "0011"), []))


def test_report_json_shape():
    g = AugmentedCube(3)
    report = verify_family(g, family(3, S_A, FAMILY_A))
    doc = report.to_json()
    assert doc == {"accepted": True, "violations": []}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_examples():
    g = AugmentedCube(3)
    res = oracle_tau(g, [int(s, 2) for s in S_B])
    assert res.exact and res.value == 4
    res = oracle_tau(g, [int(s, 2) for s in S_A])
    assert res.exact and res.value == 3
    g1 = AugmentedCube(1)
    res = oracle_tau(g1, [0, 1])
    assert res.exact and res.value == 1


def test_oracle_triangles_all_exactly_three():
    g = AugmentedCube(3)
    masks = recursive_adjacency_masks(3)
    tris = triangles(masks, 3)
    assert tris  # the cube is full of them
    for t in tris:
        res = oracle_tau(g, t)
        assert res.exact and res.value == 3


def test_oracle_min_over_all_triples_is_three():
    g = AugmentedCube(3)
    values = []
    for t in itertools.combinations(range(8), 3):
        res = oracle_tau(g, t)
        assert res.exact
        values.append(res.value)
    assert min(values) == 3


def test_constructor_never_exceeds_oracle_dim3():
    from aqsteiner.construct import construct

    g = AugmentedCube(3)
    for t in itertools.combinations(range(8), 3):
        fam = construct(g, [Vertex(a, 3) for a in t])
        res = oracle_tau(g, t)
        assert len(fam.trees) == 3 <= res.value


def test_degree_bound_met_with_equality():
    from aqsteiner.construct import construct

    for n in (3, 4, 5, 6):
        g = AugmentedCube(n)
        assert hager_upper_bound(g, 3) == 2 * n - 3
        terms = [Vertex(a, n) for a in (0, 3, (1 << n) - 2)]
        assert len(construct(g, terms).trees) == 2 * n - 3


def _is_packing(n, terms, sets):
    """Pairwise disjoint internal sets, each connected, free of terminals
    and adjacent to every terminal, over the recursive edge set."""
    masks = recursive_adjacency_masks(n)
    used = sum(1 << t for t in terms)
    for s in sets:
        bits = sum(1 << v for v in s)
        if not s or bits & used:
            return False
        if reachable_mask(masks, bits, min(s)) != bits:
            return False
        if not all(masks[t] & bits for t in terms):
            return False
        used |= bits
    return True


@pytest.mark.parametrize("n, stop_at", [(3, 3), (3, 4), (4, 5)])
def test_oracle_stop_at_witness_on_canonical_triples(n, stop_at):
    from aqsteiner.construct import _canonical_triple

    g = AugmentedCube(n)
    masks = recursive_adjacency_masks(n)
    canon = sorted({_canonical_triple(n, t)[0] for t in itertools.combinations(range(1 << n), 3)})
    assert len(canon) == {3: 5, 4: 23}[n]
    for t in canon:
        full = oracle_tau(g, t)
        assert full.exact and len(full.witness) == full.value and _is_packing(n, t, full.witness)
        res = oracle_tau(g, t, stop_at=stop_at)
        assert _is_packing(n, t, res.witness) and len(res.witness) == res.lower
        # a stop_at-family is found exactly when one exists
        assert (res.lower == stop_at) == (full.value >= stop_at), t
        assert res.lower <= full.value <= res.upper
        ceiling = min((masks[a] & ~sum(1 << b for b in t)).bit_count() for a in t)
        if res.lower == stop_at:
            # an early stop is exact only where it meets the degree ceiling
            assert res.exact == (stop_at == ceiling) and res.upper == ceiling, t
        elif res.exact:
            assert res.lower == full.value


def test_oracle_budget_bracket():
    g = AugmentedCube(3)
    res = oracle_tau(g, [int(s, 2) for s in S_B], budget=5)
    assert not res.exact
    assert res.lower <= 4 <= res.upper


def test_oracle_contract_errors():
    g = AugmentedCube(3)
    with pytest.raises(ContractViolation):
        oracle_tau(g, [0])
    with pytest.raises(ContractViolation):
        oracle_tau(g, [0, 1], budget=0)
    with pytest.raises(ContractViolation):
        oracle_tau(g, [0, 1], stop_at=0)
    with pytest.raises(ContractViolation, match="out of range"):
        oracle_tau(g, [0, 8])


# ---------------------------------------------------------------------------
# degree bound and connectivity
# ---------------------------------------------------------------------------

def test_hager_bound_examples():
    assert hager_upper_bound(AugmentedCube(5), 3) == 7
    assert hager_upper_bound(AugmentedCube(3), 3) == 3
    for n in (2, 3, 4, 6):
        assert hager_upper_bound(AugmentedCube(n), 2) == 2 * n - 2
    with pytest.raises(ContractViolation):
        hager_upper_bound(AugmentedCube(3), 1)


def test_connectivity_values():
    assert connectivity(AugmentedCube(2)) == ConnectivityResult(3, True)
    assert connectivity(AugmentedCube(3)) == ConnectivityResult(4, True)
    assert connectivity(AugmentedCube(4)) == ConnectivityResult(7, True)
    assert connectivity(AugmentedCube(5)) == ConnectivityResult(9, True)


def test_connectivity_against_brute_force():
    # the flow result agrees with brute-force cut enumeration per pair
    for n in (2, 3, 4):
        masks = recursive_adjacency_masks(n)
        brute = min(
            max_disjoint_paths_brute(masks, n, 0, w) for w in range(1, 1 << n)
        )
        assert connectivity(AugmentedCube(n)).value == brute
