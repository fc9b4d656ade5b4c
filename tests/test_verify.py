import collections
import functools
import itertools
import random
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsteiner import paths as paths_mod, verify as verify_mod
from aqsteiner.cli import all_triples, main, run_sweep, sample_triples
from aqsteiner.construct import SteinerTree, TreeFamily, CaseTag, Case, construct, fan_memo, least_translates
from aqsteiner.oracle import _minimal_sets, oracle_tau
from aqsteiner.paths import PathSystem, connectivity
from aqsteiner.topology import (
    AugmentedCube,
    ContractViolation,
    GraphView,
    Vertex,
    adjacency_deltas,
    delta_set,
    hager_upper_bound,
    parse_vertex,
    side_view,
)
from aqsteiner.verify import (
    CYCLE,
    DISCONNECTED,
    NON_EDGE,
    SHARED_EDGE,
    SHARED_VERTEX,
    TERMINAL_DEGREE,
    TREE_COUNT,
    WRONG_TERMINALS,
    _accepts,
    check_path_system,
    verify_family,
)

from util import (
    load_tool,
    max_disjoint_paths_brute,
    reachable_mask,
    recursive_adjacency_masks,
    reference_canonical_triple,
    reference_check_path_system,
    reference_minimal_sets,
    reference_oracle_tau,
    reference_verify_family,
    triangles,
)


def tree(edges):
    return SteinerTree(frozenset(tuple(sorted((int(a, 2), int(b, 2)))) for a, b in edges))


def targets(terms):
    return frozenset(parse_vertex(t) for t in terms)


def family(n, terms, trees):
    return TreeFamily(n, targets(terms), tuple(trees), (CaseTag(Case.BASE3),))


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


def test_tree_count_is_checked_only_when_asked():
    g = AugmentedCube(3)
    assert verify_family(g, family(3, S_A, FAMILY_A), size=3).accepted
    # a partial family checks like a whole one unless a size is given
    partial = family(3, S_A, FAMILY_A[:2])
    assert verify_family(g, partial).accepted
    report = verify_family(g, partial, size=3)
    assert [(v.kind, v.trees, v.detail) for v in report.violations] == [(TREE_COUNT, (), "expected 3 trees, got 2")]
    report = verify_family(g, family(3, S_A, [FAMILY_A[0], FAMILY_A[0]]), size=3)
    assert [v.kind for v in report.violations][:2] == [TREE_COUNT, SHARED_EDGE]


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


def _ground_masks(n, terms):
    """Adjacency masks over the non-target labels, indexed in label
    order, and each target's attach mask, from the recursive edge set."""
    masks = recursive_adjacency_masks(n)
    ground = [v for v in range(1 << n) if v not in terms]

    def pick(mask):
        return sum(1 << i for i, v in enumerate(ground) if mask >> v & 1)

    return [pick(masks[v]) for v in ground], [pick(masks[t]) for t in terms]


def test_minimal_sets_match_the_subset_scan():
    cases = [(n, t) for n in (1, 2, 3) for k in (2, 3) for t in itertools.combinations(range(1 << n), k)]
    cases += [(4, t) for t in sorted({reference_canonical_triple(4, t)[0] for t in itertools.combinations(range(16), 3)})]
    cases += [(4, (0, w)) for w in range(1, 16)]
    for n, terms in cases:
        adj_mask, attach_mask = _ground_masks(n, terms)
        expected = reference_minimal_sets(adj_mask, attach_mask)
        # a fresh call finds the sets of one vertex, and each call on the
        # frames the last one parked finds those of the next size, until
        # nothing is parked
        parked = []
        found, _ = _minimal_sets(adj_mask, attach_mask, 10**9, parked)
        size = 1
        assert found == [m for m in expected if m.bit_count() == 1], (n, terms)
        while parked:
            size += 1
            found, _ = _minimal_sets(adj_mask, attach_mask, 10**9, parked)
            assert sorted(found) == sorted(m for m in expected if m.bit_count() == size), (n, terms, size)
        assert all(m.bit_count() <= size for m in expected), (n, terms)


def _grow_every_size(adj_mask, attach_mask, budget):
    # the minimal sets of every size, one call per size, on one budget
    parked, found, nodes = [], [], 0
    while nodes < budget:
        sets, spent = _minimal_sets(adj_mask, attach_mask, budget - nodes, parked)
        found += sets
        nodes += spent
        if not parked:
            break
    return found, nodes


def test_minimal_sets_stop_on_the_budget():
    adj_mask, attach_mask = _ground_masks(4, (0, 5, 10))
    everything, spent = _grow_every_size(adj_mask, attach_mask, 10**9)
    for budget in (1, 50, spent // 2):
        found, nodes = _grow_every_size(adj_mask, attach_mask, budget)
        assert budget <= nodes < spent and set(found) < set(everything)


@pytest.mark.parametrize("n, stop_at", [(3, 3), (3, 4), (4, 5)])
def test_oracle_stop_at_witness_on_canonical_triples(n, stop_at):
    g = AugmentedCube(n)
    masks = recursive_adjacency_masks(n)
    classes = collections.Counter(reference_canonical_triple(n, t)[0] for t in itertools.combinations(range(1 << n), 3))
    canon = sorted(classes)
    assert len(canon) == {3: 5, 4: 23}[n]
    # the exact value over every triple, each class weighted by its size
    values = collections.Counter()
    for t in canon:
        full = oracle_tau(g, t)
        assert full.exact and len(full.witness) == full.value and _is_packing(n, t, full.witness)
        values[full.value] += classes[t]
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
    assert values == {3: {3: 48, 4: 8}, 4: {5: 272, 6: 288}}[n]


def _reference_packing_cases():
    # every pair and triple at n = 2 and 3, and at n = 4 every pair and
    # every triple that holds 0
    return [
        (n, t)
        for n in (2, 3, 4)
        for k in (2, 3)
        for t in itertools.combinations(range(1 << n), k)
        if n < 4 or k == 2 or t[0] == 0
    ]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_packs_like_the_reference(n):
    # the packing grows its minimal sets one size at a time, only as far as
    # it reaches, and still returns the bounds and witness of packing every
    # minimal set sorted by size and mask
    g = AugmentedCube(n)
    cases = [t for m, t in _reference_packing_cases() if m == n]
    assert len(cases) == {2: 10, 3: 84, 4: 225}[n]
    for t in cases:
        for stop_at in (None, *range(1, 8)):
            res = oracle_tau(g, t, stop_at=stop_at)
            assert (res.lower, res.upper, res.witness) == reference_oracle_tau(n, t, stop_at), (t, stop_at)


def test_oracle_alone_gives_tau3_of_aq5():
    # every least translate at n = 5 packs 7 = 2n - 3 minimal sets, the
    # degree ceiling caps every triple there, and a translation is an
    # automorphism, so each class's packing moves to every member of its
    # class: tau_3(AQ_5) = 7 with no recipe involved
    g = AugmentedCube(5)
    assert hager_upper_bound(g, 3) == 7
    canon = list(least_translates(5))
    assert len(canon) == 155
    for t in canon:
        res = oracle_tau(g, t, stop_at=7)
        assert res.lower == 7 and len(res.witness) == 7 and _is_packing(5, t, res.witness), t


@pytest.mark.parametrize(
    "n, k, counts",
    [(3, 4, {2: 13, 4: 1}), (3, 5, {1: 7}), (4, 4, {4: 85, 5: 52, 6: 3}), (4, 5, {3: 75, 4: 181, 5: 17})],
    ids=["n3-k4", "n3-k5", "n4-k4", "n4-k5"],
)
def test_oracle_alone_gives_tau4_and_tau5(n, k, counts):
    # a translation is an automorphism, so each class of k-sets, named by
    # its least sorted translate S ^ a with a in S, packs as its members
    # do; the least exact value over the classes is tau_k, and it meets
    # the degree bound 2n - k.  Counts are per class: for even k a class
    # can hold fewer than 2^n sets
    g = AugmentedCube(n)
    classes = {min(tuple(sorted(s ^ a for s in S)) for a in S) for S in itertools.combinations(range(g.order), k)}
    values = collections.Counter()
    for t in classes:
        res = oracle_tau(g, t)
        assert res.exact and len(res.witness) == res.value and _is_packing(n, t, res.witness), t
        values[res.value] += 1
    assert min(values) == hager_upper_bound(g, k) == 2 * n - k
    assert values == counts


def test_oracle_floor_tool_names_every_short_class(capsys, monkeypatch):
    tool = load_tool("oracle_floor")
    assert tool.main(["4"]) == 0
    out = capsys.readouterr().out
    assert "n = 4: 35 of 35 classes reach 5 (degree ceiling 5)" in out and "SHORT" not in out
    # a budget too small to pack anything leaves every class short
    monkeypatch.setattr(tool, "oracle_tau", functools.partial(oracle_tau, budget=5))
    assert tool.main(["4"]) == 1
    out = capsys.readouterr().out
    assert "n = 4: 0 of 35 classes reach 5" in out and out.count("SHORT") == 35
    assert "SHORT [0, 1, 2]: lower 0, upper 5, nodes 5" in out
    with pytest.raises(SystemExit) as exc:
        tool.main(["1"])
    assert exc.value.code == 2


def test_oracle_budget_bracket():
    g = AugmentedCube(3)
    res = oracle_tau(g, [int(s, 2) for s in S_B], budget=5)
    assert not res.exact
    assert res.lower <= 4 <= res.upper
    with pytest.raises(ContractViolation, match="bracket, not an exact value"):
        res.value


def _point_bracket_cases():
    cases = [(3, t) for t in least_translates(3)]
    return cases + [(4, t) for t in random.Random(49).sample(list(least_translates(4)), 4)]


@pytest.mark.parametrize("n, terms", _point_bracket_cases())
def test_oracle_is_exact_wherever_its_bracket_closes(n, terms):
    # every budget short of the full search's spend ends in a bracket
    # around the value, a witnessed lower bound and a proved upper one, so
    # a bracket that closes on a spent budget is the value too
    g = AugmentedCube(n)
    full = oracle_tau(g, terms)
    assert full.exact and full.upper == full.lower
    for budget in range(1, full.nodes_used + 1):
        res = oracle_tau(g, terms, budget=budget)
        assert res.lower <= full.value <= res.upper, (budget, res)
        assert res.exact == (res.lower == res.upper), budget
        if res.exact:
            assert res.value == full.value, budget
    # so does a stop_at search, whose budget may run out while it grows
    # the next size of minimal sets
    for stop_at in range(1, full.upper + 1):
        spent = oracle_tau(g, terms, stop_at=stop_at).nodes_used
        for budget in range(1, spent + 1):
            res = oracle_tau(g, terms, stop_at=stop_at, budget=budget)
            assert res.lower <= full.value <= res.upper, (stop_at, budget, res)
            if res.exact:
                assert res.value == full.value, (stop_at, budget)


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
        assert hager_upper_bound(AugmentedCube(n), 2) == 2 * n - 1
    with pytest.raises(ContractViolation):
        hager_upper_bound(AugmentedCube(3), 1)


def test_hager_bound_is_zero_once_a_set_can_hold_a_closed_neighbourhood():
    # AQ_3 has degree 5: from k = 6 on, S can hold 0 and its neighbours,
    # and then 0 has no neighbour outside S for a pendant tree to take
    g = AugmentedCube(3)
    assert [hager_upper_bound(g, k) for k in range(2, 9)] == [5, 3, 2, 1, 0, 0, 0]
    closed = [0, *adjacency_deltas(3)]
    assert oracle_tau(g, closed).value == oracle_tau(g, closed + [5]).value == 0
    with pytest.raises(ContractViolation, match="at most 8"):
        hager_upper_bound(g, 9)


def test_hager_bound_holds_over_the_oracle():
    # the bound caps tau_k, the least value over k-sets; a translation is
    # an automorphism, so the pairs (0, w) take every pair's value, and
    # by Menger their least is the connectivity: the k = 2 bound 2n - 1
    # is met except at n = 3, where kappa(AQ_3) = 4
    for n in (2, 3, 4, 5):
        g = AugmentedCube(n)
        values = [oracle_tau(g, [0, w]) for w in range(1, 1 << n)]
        assert all(res.exact and res.value <= hager_upper_bound(g, 2) == 2 * n - 1 for res in values), n
        assert min(res.value for res in values) == connectivity(g), n
    # the k = 3 bound is met at n = 3, though some triples pack more
    g = AugmentedCube(3)
    values = [oracle_tau(g, t).value for t in itertools.combinations(range(8), 3)]
    assert min(values) == hager_upper_bound(g, 3) < max(values)


def test_connectivity_values():
    assert [connectivity(AugmentedCube(n)) for n in range(2, 7)] == [3, 4, 7, 9, 11]


def test_connectivity_against_brute_force():
    # the flow result agrees with brute-force cut enumeration per pair
    for n in (2, 3, 4):
        masks = recursive_adjacency_masks(n)
        brute = min(
            max_disjoint_paths_brute(masks, n, 0, w) for w in range(1, 1 << n)
        )
        assert connectivity(AugmentedCube(n)) == brute


# ---------------------------------------------------------------------------
# differential checks against the tuple-keyed reference checker
# ---------------------------------------------------------------------------

def outcome(check, *args):
    """What a check returns, or the text of the ContractViolation it raises."""
    try:
        return "returned", check(*args)
    except ContractViolation as exc:
        return "raised", str(exc)


def same_report(g, fam):
    got = outcome(verify_family, g, fam)
    assert got == outcome(reference_verify_family, g, fam)
    return got


@functools.lru_cache(maxsize=None)
def small_families() -> tuple:
    return tuple(
        construct(AugmentedCube(n), [Vertex(a, n) for a in t])
        for n in (3, 4)
        for t in itertools.combinations(range(1 << n), 3)
    )


def edited(fam, i, edges, terminals=None):
    """The family with tree i replaced by the given label edges."""
    trees = list(fam.trees)
    trees[i] = SimpleNamespace(edges=frozenset(edges))
    return SimpleNamespace(terminals=fam.terminals if terminals is None else terminals, trees=tuple(trees))


def mutants(g, fam):
    """One edit of tree 0 or tree 1 per violation kind it can show; an
    edit this family has no place for is left out."""
    terms = {t.bits for t in fam.terminals}
    t0, t1 = sorted(fam.trees[0].edges), sorted(fam.trees[1].edges)
    v0 = sorted({a for e in t0 for a in e})
    inner0 = [a for a in v0 if a not in terms]
    v1 = {a for e in t1 for a in e}
    degree = {a: sum(a in e for e in t0) for a in v0}
    adjacent = g.adjacent_labels
    out = [
        edited(fam, 0, t0 + [(inner0[0], inner0[0])]),  # a loop
        edited(fam, 0, t0 + [(t0[0][1], t0[0][0])]),  # both orientations of one edge
        edited(fam, 1, t1 + [t0[0]]),  # an edge of tree 0 in tree 1
        edited(fam, 0, [e for e in t0 if not set(e) & terms]),  # no pendant edges
        edited(fam, 0, t0, frozenset(sorted(fam.terminals)[:2])),  # two targets
    ]
    far = next(b for b in range(g.order) if b != inner0[0] and not adjacent(inner0[0], b))
    out.append(edited(fam, 0, t0 + [(inner0[0], far)]))
    chords = [(a, b) for a, b in itertools.combinations(v0, 2) if adjacent(a, b) and (a, b) not in t0]
    bridges = [e for e in t0 if degree[e[0]] > 1 and degree[e[1]] > 1]
    touches = [(a, b) for a in v1 - terms for b in inner0 if adjacent(a, b) and b not in v1]
    if chords:
        out.append(edited(fam, 0, t0 + chords[:1]))
    if bridges:
        out.append(edited(fam, 0, [e for e in t0 if e != bridges[0]]))
    if touches:
        out.append(edited(fam, 1, t1 + touches[:1]))
    return out


def test_verify_matches_the_reference_on_small_families_and_their_mutants():
    kinds = set()
    for fam in small_families():
        g = AugmentedCube(fam.dim)
        assert same_report(g, fam) == ("returned", verify_family(g, fam)) and verify_family(g, fam).accepted
        for bad in mutants(g, fam):
            what, report = same_report(g, bad)
            assert what == "returned" and not report.accepted
            kinds.update(v.kind for v in report.violations)
    assert len(small_families()) == 616
    assert kinds == {NON_EDGE, CYCLE, DISCONNECTED, TERMINAL_DEGREE, SHARED_VERTEX, SHARED_EDGE, WRONG_TERMINALS}


labels_of = functools.partial(st.integers, -2)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6), st.data())
def test_verify_matches_the_reference_on_random_edge_sets(n, data):
    # loops, reversed pairs, both orientations of an edge, labels just
    # outside the cube and target sets of the wrong size or dimension
    g = AugmentedCube(n)
    top = g.order + 1
    label = st.integers(0, g.order - 1)
    step = st.builds(lambda u, d: (u, u ^ d), label, st.sampled_from(adjacency_deltas(n)))
    edge = st.one_of(step, step, st.tuples(label, label), st.tuples(labels_of(top), labels_of(top)))
    trees = []
    for _ in range(data.draw(st.integers(0, 5))):
        edges = data.draw(st.lists(edge, max_size=10))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        trees.append(SimpleNamespace(edges=frozenset(edges) | {(v, u) for (u, v), f in zip(edges, flips) if f}))
    targets = data.draw(st.lists(st.tuples(label, st.sampled_from((n, n, n, n + 1))), min_size=2, max_size=4))
    fam = SimpleNamespace(terminals=frozenset(Vertex(a, d) for a, d in targets), trees=tuple(trees))
    same_report(g, fam)


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 6), st.data())
def test_check_path_system_matches_the_reference(n, data):
    g = AugmentedCube(n)
    label = labels_of(g.order + 1)
    # the ranges the program builds (the cube, its half-copies and its
    # quarters), and one past both ends of the cube, so that the check
    # against the cube's bounds runs too
    quarter = g.order // 4
    quarters = [GraphView(g, range(q, q + quarter)) for q in range(0, g.order, quarter)]
    views = [g.view(), side_view(g, 0), side_view(g, g.order - 1), *quarters, GraphView(g, range(-g.order, 2 * g.order))]
    view = data.draw(st.sampled_from(views))
    source, sink = data.draw(label), data.draw(label)
    # walks along the deltas, with a loop (0) and a step out of the cube
    steps = st.lists(st.sampled_from(adjacency_deltas(n) + (0, g.order)), max_size=6)
    paths = []
    for _ in range(data.draw(st.integers(0, 5))):
        walk = [data.draw(st.one_of(st.just(source), label))]
        for d in data.draw(steps):
            walk.append(walk[-1] ^ d)
        if data.draw(st.booleans()):
            walk.append(sink)
        paths.append(tuple(walk))
    ps = PathSystem(source, sink, tuple(paths))
    assert check_path_system(view, ps) == (reference_check_path_system(view, ps) == [])


def test_every_view_the_program_checks_is_an_aligned_label_range(monkeypatch, cold_cube_memo):
    # check_path_system reads its view as a step-1 range, so every view
    # that real commands hand it, at both of its bindings, must be a
    # range of 2^k labels that starts at a multiple of 2^k
    views = []
    real = verify_mod.check_path_system

    def guarded(view, ps):
        views.append(view.allowed)
        return real(view, ps)

    monkeypatch.setattr(verify_mod, "check_path_system", guarded)
    monkeypatch.setattr(paths_mod, "check_path_system", guarded)
    # a Case1 triple at n = 62 whose recursion meets Case2 at n = 61, and
    # a Case2 triple
    triples = [",".join(format(a, "062b") for a in (0, 1, z)) for z in (1 << 60, 1 << 61)]
    commands = [
        ["sweep", "-n", "5", "--exhaustive"],
        *(["construct", "-n", "62", "-S", triple] for triple in triples),
        ["info", "-n", "6"],
        ["paths", "-n", "4", "-u", "0000", "-v", "1111", "-k", "7"],
        ["paths", "-n", "8", "-u", "00000000", "-v", "10110101", "-k", "15"],
    ]
    for argv in commands:
        del views[:]
        cold_cube_memo.cache_clear()
        assert main(argv) == 0, argv
        assert views, argv
        for allowed in views:
            size = len(allowed)
            assert type(allowed) is range and allowed.step == 1, (argv, allowed)
            assert size and not size & (size - 1) and not allowed.start % size, (argv, allowed)


# ---------------------------------------------------------------------------
# the accept pass
# ---------------------------------------------------------------------------

def accepts(g, fam):
    return _accepts(fam.trees, {t.bits for t in fam.terminals}, g.order, delta_set(g.dim))


def pendant_edge(fam, i, t):
    """The one edge of tree i at target t."""
    (edge,) = [e for e in fam.trees[i].edges if t in e]
    return edge


def cancelling(fam):
    """Families whose defects cancel in the counts of the accept pass: a
    target's pendant edge leaves tree i, so tree i misses the target, and
    tree j gets the target's pendant edge of tree k, so the target has
    degree 2 there and the inner vertex of tree k is reused.  The labels,
    the edge count and each target's count over the ends do not move,
    and both trees stay trees."""
    count = len(fam.trees)
    for t in sorted(a.bits for a in fam.terminals):
        for i, j, k in itertools.product(range(count), repeat=3):
            if i != j != k:
                trees = [set(tr.edges) for tr in fam.trees]
                trees[i].remove(pendant_edge(fam, i, t))
                trees[j].add(pendant_edge(fam, k, t))
                yield SimpleNamespace(terminals=fam.terminals, trees=tuple(SimpleNamespace(edges=frozenset(e)) for e in trees))


def test_defects_that_cancel_in_the_counts_are_rejected():
    seen = 0
    for fam in small_families()[::29]:
        g = AugmentedCube(fam.dim)
        for bad in cancelling(fam):
            assert not accepts(g, bad)
            what, report = same_report(g, bad)
            assert what == "returned" and not report.accepted
            kinds = {v.kind for v in report.violations}
            assert TERMINAL_DEGREE in kinds and SHARED_VERTEX in kinds
            seen += 1
    assert seen > 1500


def fuzzed(rng, g, fam):
    """The family after two or three random edits: drop, add or reverse
    an edge of a tree, empty a tree, duplicate one, or remove one."""
    trees = [set(t.edges) for t in fam.trees]
    labels = sorted({a for t in trees for e in t for a in e})
    deltas = adjacency_deltas(g.dim)
    for _ in range(rng.randint(2, 3)):
        edit = rng.choice(("drop", "add", "reverse", "empty", "duplicate", "remove"))
        if not trees:
            break
        i = rng.randrange(len(trees))
        if edit == "drop" and trees[i]:
            trees[i].discard(rng.choice(sorted(trees[i])))
        elif edit == "add":
            u = rng.choice(labels)
            v = u ^ rng.choice(deltas) if rng.random() < 0.8 else rng.choice(labels)
            trees[i].add((min(u, v), max(u, v)))
        elif edit == "reverse" and trees[i]:
            u, v = rng.choice(sorted(trees[i]))
            trees[i].discard((u, v))
            trees[i].add((v, u))
        elif edit == "empty":
            trees[i] = set()
        elif edit == "duplicate":
            trees.insert(rng.randrange(len(trees) + 1), set(trees[i]))
        elif edit == "remove":
            del trees[i]
    return SimpleNamespace(terminals=fam.terminals, trees=tuple(SimpleNamespace(edges=frozenset(t)) for t in trees))


def test_verify_matches_the_reference_on_fuzzed_families():
    rng = random.Random(2108)
    outcomes = collections.Counter()
    for n in (5, 6, 7):
        g = AugmentedCube(n)
        with fan_memo():
            families = [construct(g, [Vertex(a, n) for a in t]) for t in sample_triples(n, 12, n)]
        for fam in families:
            for _ in range(50):
                bad = fuzzed(rng, g, fam)
                what, report = same_report(g, bad)
                assert what == "returned"
                # the pass accepts exactly the valid families whose edges
                # all run upwards, and so never a rejected one
                upward = all(u < v for t in bad.trees for u, v in t.edges)
                assert accepts(g, bad) == (report.accepted and upward)
                outcomes[report.accepted] += 1
    assert outcomes[False] > 1000 and outcomes[True] > 0


def test_every_n5_sweep_family_passes_the_accept_pass_alone(monkeypatch):
    def failing(*args):
        raise AssertionError("the report loop ran on a valid family")

    monkeypatch.setattr(verify_mod, "_report", failing)
    assert len(run_sweep(5, all_triples(5))) == 4960
    with pytest.raises(AssertionError, match="report loop ran"):
        verify_family(AugmentedCube(3), family(3, S_A, FAMILY_A[:1]), size=3)


def test_a_triangle_on_unused_labels_fails_only_the_cycle_test():
    # the triangle v, v ^ 1, v ^ 3 on labels the family does not use
    # adds three edges and three labels to tree 0: counts (a)-(c) and
    # its |E_i| + 1 labels still hold, so only the union-find's cycle
    # test rejects the family
    n = 5
    g = AugmentedCube(n)
    # a Case1 family, which leaves the labels 10100..11011 unused
    fam = construct(g, [Vertex(a, n) for a in (0b00000, 0b00001, 0b00010)])
    used = {a for t in fam.trees for e in t.edges for a in e}
    v = next(v for v in range(0, 1 << n, 4) if used.isdisjoint({v, v ^ 1, v ^ 3}))
    bad = edited(fam, 0, fam.trees[0].edges | {(v, v ^ 1), (v, v ^ 3), (v ^ 1, v ^ 3)})
    assert len({a for e in bad.trees[0].edges for a in e}) == len(bad.trees[0].edges) + 1
    assert not accepts(g, bad)
    what, report = same_report(g, bad)
    assert what == "returned" and [(x.kind, x.trees) for x in report.violations] == [(DISCONNECTED, (0,)), (CYCLE, (0,))]


def test_union_find_stays_near_linear_on_a_deep_linking_order():
    # a breadth-first spanning tree of AQ_16 whose edges, listed in that
    # order, link each root under a fresh label: without path halving
    # every find walks the whole chain, about 45 s against 0.1 s
    n = 16
    g = AugmentedCube(n)
    seen, edges = {0}, []
    for u in itertools.chain([0], (v for _, v in edges)):
        for d in adjacency_deltas(n):
            if (v := u ^ d) > u and v not in seen:
                seen.add(v)
                edges.append((u, v))
    ends = collections.Counter(a for e in edges for a in e)
    leaves = [a for a, k in ends.items() if k == 1][:3]
    fam = SimpleNamespace(terminals=frozenset(Vertex(a, n) for a in leaves), trees=(SimpleNamespace(edges=edges),))
    start = time.perf_counter()
    assert verify_family(g, fam).accepted
    looped = SimpleNamespace(terminals=fam.terminals, trees=(SimpleNamespace(edges=edges + [edges[0]]),))
    assert [v.kind for v in verify_family(g, looped).violations] == [CYCLE, SHARED_EDGE]
    assert time.perf_counter() - start < 10
