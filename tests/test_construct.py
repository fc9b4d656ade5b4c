import ast
import collections
import contextlib
import functools
import hashlib
import inspect
import itertools
import json
import math
import os
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aqsteiner
from aqsteiner import cli
from aqsteiner import construct as construct_mod
from aqsteiner import paths as paths_mod
from aqsteiner import verify as verify_mod
from aqsteiner.construct import (
    Case,
    CaseTag,
    InternalError,
    SteinerTree,
    TreeFamily,
    _assemble,
    _dispatch,
    _splice_image,
    base_case_search,
    classify,
    construct,
    least_translate,
    target_family_size,
)
from aqsteiner.oracle import oracle_tau
from aqsteiner.paths import PathSystem, undirected
from aqsteiner.topology import (
    AugmentedCube,
    ContractViolation,
    Vertex,
    adjacency_deltas,
    c_label,
    h_label,
    hc_swap_label,
    parse_vertex,
)
from aqsteiner.verify import verify_family

from util import load_tool, reference_least_translate, run_bounded


def vs(*labels):
    return [parse_vertex(s) for s in labels]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    g = AugmentedCube(4)
    assert classify(g, vs("0000", "0001", "0010")).case is Case.CASE1
    tag = classify(g, vs("0000", "0011", "1100"))
    assert tag.case in (Case.CASE2_1_1, Case.CASE2_1_2, Case.CASE2_1_3)
    tag = classify(g, vs("0000", "0011", "1110"))
    assert tag.case.value.startswith("Case2_2")


def test_classify_cross_twin_pair():
    # 0111 is the trailing complement of 0000, so their cross partners
    # coincide; with z equal to one of them this is the twin branch
    g = AugmentedCube(4)
    tag = classify(g, vs("0000", "0111", "1000"))
    assert tag.case is Case.CASE2_1_1


def test_classify_normalisation_flags():
    g = AugmentedCube(4)
    # two targets on the upper side: the translation by the upper target
    # 1000 gives the least translate (0000, 0001, 1010)
    tag = classify(g, vs("1000", "1001", "0010"))
    assert tag.transform == 0b1000 and tag.roles == (0b0000, 0b0001, 0b1010)
    # z = 1100 is the all-bits partner of 0011, so it is handed to x = 0011
    tag = classify(g, vs("0000", "0011", "1111"))
    assert tag.transform == 0b0011 and tag.roles == (0b0011, 0b0000, 0b1100)
    assert tag.case is Case.CASE2_1_3
    # a triple that is its own least translate is not moved
    tag = classify(g, vs("0000", "0001", "0010"))
    assert tag.transform == 0 and tag.case is Case.CASE1


def _triples(n):
    if n == 5:
        return itertools.combinations(range(1 << n), 3)
    rng = random.Random(n)
    return (sorted(rng.sample(range(1 << n), 3)) for _ in range(400))


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_dispatch_transform_normalises_targets(n):
    # every n = 5 triple; 400 seeded samples at n = 6, 7 and 8: the
    # transform is a target, and it gives the least sorted translate
    # over all 2^n translations
    half = 1 << (n - 1)
    for labels in _triples(n):
        tag = _dispatch(n, labels)
        image = tuple(sorted(v ^ tag.transform for v in labels))
        assert tag.transform in labels
        assert (image, tag.transform) == least_translate(labels)
        assert image == min(tuple(sorted(v ^ a for v in labels)) for a in range(1 << n))
        # 0 and p below; z, the last, is the only label that may be upper
        assert image[0] == 0 and image[1] < half
        if tag.case is Case.CASE1:
            assert image[2] < half and tag.roles is None
        else:
            x, y, z = tag.roles
            assert {x, y} == set(image[:2]) and z == image[2] >= half
            # a partner target is handed to x; only cross-twins share it
            assert z not in (h_label(y, n), c_label(y, n)) or tag.case is Case.CASE2_1_1
            assert (z in (h_label(x, n), c_label(x, n))) == tag.case.value.startswith("Case2_1")


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 8), st.data())
def test_assemble_maps_edges_back_like_the_per_label_inverse(n, data):
    # random cube edges, each with its smaller label first, in a few
    # trees, translated back label by label
    edge = st.builds(lambda u, d: undirected(u, u ^ d), st.integers(0, (1 << n) - 1), st.sampled_from(adjacency_deltas(n)))
    trees = data.draw(st.lists(st.sets(edge, max_size=30), min_size=1, max_size=4))
    a = data.draw(st.integers(0, (1 << n) - 1))
    family = _assemble(AugmentedCube(n), (0, 1, 2), trees, (CaseTag(Case.CASE1, a),))
    assert [t.edges for t in family.trees] == [frozenset(undirected(u ^ a, v ^ a) for u, v in e) for e in trees]


# ---------------------------------------------------------------------------
# the dispatch is total
# ---------------------------------------------------------------------------

def test_dispatch_lemma_only_trailing_pair():
    # inside the half-copy's delta set D', the only pair whose xor is the
    # full trailing mask is {leading bit, longest proper trailing block}
    for n in range(4, 63):
        trail = (1 << (n - 1)) - 1
        deltas = adjacency_deltas(n - 1)
        pairs = {frozenset((d, d ^ trail)) for d in deltas if d ^ trail in deltas}
        assert pairs == {frozenset((1 << (n - 2), (1 << (n - 2)) - 1))}, n


# every case name that ``_dispatch`` can give above dimension 4
KEPT_CASES = {case.value for case in Case} - {"Base3", "Base4"}


def _relation_type(a, b, deltas, trail):
    """All that the Case2 dispatch can see of x = 0, y = a, z = half | b:
    the delta-set memberships and the partner equalities."""
    touches = (b in deltas, b ^ trail in deltas, b ^ a in deltas, b ^ a ^ trail in deltas)
    return a in deltas, a == trail, touches, b in (0, trail), b in (a, a ^ trail)


@pytest.mark.parametrize("n", range(5, 11))
def test_dispatch_relation_types_cover_every_branch(n):
    # Translating by x leaves x = 0, y = a, z = half | b with a = x'^y' and
    # b = z'^x'.  Enumerate every (a, b), dispatch one pair per type: the
    # type names the case.
    half = 1 << (n - 1)
    trail = half - 1
    deltas = frozenset(adjacency_deltas(n - 1))
    pairs = [(a, b) for a in range(1, half) for b in range(half)]
    representative = {}
    for a, b in pairs:
        kind = _relation_type(a, b, deltas, trail)
        # z adjacent to h(x), c(x), h(y) and c(y) needs cross-twins
        assert a == trail or not all(kind[2]), (a, b)
        representative.setdefault(kind, (a, b))
    case_of = {
        kind: _dispatch(n, (0, a, half | b)).case.value for kind, (a, b) in representative.items()
    }
    if n <= 7:
        # the relation type really determines the case
        for a, b in pairs:
            kind = _relation_type(a, b, deltas, trail)
            assert _dispatch(n, (0, a, half | b)).case.value == case_of[kind], (a, b)
    case1 = _dispatch(n, (0, 1, 2)).case.value
    assert set(case_of.values()) | {case1} == KEPT_CASES


def test_every_twin_and_case2_1_3_triple_builds_at_dim_6():
    # the twins of Case2_2_1, whose splice takes h, and Case2_1_3, the one
    # case whose splice takes c (when z = h(x)), on every triple: n = 6 is
    # the first dimension whose fans come from the induction and not from
    # the AQ_4 flow (construct raises on a rejected family)
    g = AugmentedCube(6)
    built = collections.Counter()
    with construct_mod.fan_memo():
        for labels in itertools.combinations(range(64), 3):
            tag = _dispatch(6, labels)
            if tag.case in (Case.CASE2_1_3, Case.CASE2_2_1A, Case.CASE2_2_1B):
                fam = construct(g, [Vertex(a, 6) for a in labels])
                assert len(fam.trees) == 9 and fam.provenance == (tag,)
                built[tag.case.value] += 1
    assert built == {"Case2_1_3": 1024, "Case2_2_1a": 896, "Case2_2_1b": 64}


def _branch_triples(n):
    """Case1's (0, 1, 2) and (0, a, half | b) for the first (a, b) of each
    relation type, as in the test above, so every case, both matchings
    of the grid splice and both adjacencies of x and y are built.
    Enumerating every pair is out of reach at large n, so a runs over
    0b101, trail, the deltas and the deltas xor trail, and b over those
    values and their xors with a."""
    half = 1 << (n - 1)
    trail = half - 1
    deltas = frozenset(adjacency_deltas(n - 1))
    near = sorted({0, trail, 0b101, *deltas, *(d ^ trail for d in deltas)})
    representative = {}
    for a in near[1:]:
        for b in sorted({v ^ w for v in near for w in (0, a)}):
            representative.setdefault(_relation_type(a, b, deltas, trail), (a, b))
    triples = [(0, 1, 2)] + [(0, a, half | b) for a, b in representative.values()]
    assert {_dispatch(n, t).case.value for t in triples} == KEPT_CASES, n
    return triples


def _reference_dispatch(n, labels):
    """The dispatch written with the partner maps ``h_label`` and
    ``c_label`` and the cube's ``adjacent_labels``."""
    (_, p, z), a = least_translate(labels)
    half = 1 << (n - 1)
    if z < half:
        return CaseTag(Case.CASE1, a)
    adj = AugmentedCube(n).adjacent_labels
    x, y = (p, 0) if z in (h_label(p, n), c_label(p, n)) else (0, p)

    def mk(case):
        return CaseTag(case, a, (x, y, z))

    twins = {h_label(x, n), c_label(x, n)} == {h_label(y, n), c_label(y, n)}
    if z in (h_label(x, n), c_label(x, n)):
        if twins:
            return mk(Case.CASE2_1_1)
        return mk(Case.CASE2_1_3 if adj(x, y) else Case.CASE2_1_2)
    if twins:
        zxh, zxc = adj(z, h_label(x, n)), adj(z, c_label(x, n))
        return mk(Case.CASE2_2_1B if zxh and zxc else Case.CASE2_2_1A)
    xside = adj(z, h_label(x, n)) or adj(z, c_label(x, n))
    yside = adj(z, h_label(y, n)) or adj(z, c_label(y, n))
    if adj(x, y):
        cases = (Case.CASE2_2_3A, Case.CASE2_2_3B, Case.CASE2_2_3C)
    else:
        cases = (Case.CASE2_2_2A, Case.CASE2_2_2B, Case.CASE2_2_2C)
    return mk(cases[xside + yside])


def _related_triples(n, count):
    """Seeded triples whose targets are related as the dispatch reads
    them: x below, y its cross-twin, a neighbour or any lower label, z
    a cross-partner of x or y, moved by no delta or a lower one, or any
    label; the whole triple then translated by a random mask."""
    rng = random.Random(4300 + n)
    half, full = 1 << (n - 1), (1 << n) - 1
    lower = adjacency_deltas(n - 1)
    out = []
    while len(out) < count:
        x = rng.getrandbits(n - 1)
        y = rng.choice((x ^ (half - 1), x ^ rng.choice(lower), rng.getrandbits(n - 1)))
        if rng.random() < 0.75:
            z = rng.choice((x, y)) ^ rng.choice((half, full)) ^ rng.choice((0, 0, *lower))
        else:
            z = rng.getrandbits(n)
        a = rng.getrandbits(n)
        trio = sorted({x ^ a, y ^ a, z ^ a})
        if len(trio) == 3:
            out.append(trio)
    return out


@pytest.mark.parametrize("n", [5, 6, 7, 8, 20, 33, 45, 62])
def test_dispatch_equals_the_partner_map_formulation(n):
    # every n = 5 triple; above it 400 seeded related triples and one
    # triple of each relation type, so every case is compared: the xor
    # mask dispatch names the same case, transform and roles
    if n == 5:
        triples = list(itertools.combinations(range(32), 3))
    else:
        triples = _related_triples(n, 400) + _branch_triples(n)
    tags = [_dispatch(n, labels) for labels in triples]
    assert tags == [_reference_dispatch(n, labels) for labels in triples]
    assert {tag.case.value for tag in tags} == KEPT_CASES


@pytest.mark.parametrize("n", [33, 62])
def test_every_branch_builds_and_verifies_at_large_dimension(n):
    triples = _branch_triples(n)
    out = run_bounded(
        "from aqsteiner.construct import construct\n"
        "from aqsteiner.topology import AugmentedCube, Vertex\n"
        "from aqsteiner.verify import verify_family\n"
        f"g = AugmentedCube({n})\n"
        f"for labels in {triples!r}:\n"
        f"    fam = construct(g, [Vertex(a, {n}) for a in labels])\n"
        f"    print(fam.provenance[0].case.value, len(fam.trees), verify_family(g, fam, size={2 * n - 3}).accepted)\n"
    )
    assert out.splitlines() == [f"{_dispatch(n, t).case.value} {2 * n - 3} True" for t in triples]


def _splice_roles(n, labels):
    """The grid splice's roles (x, y, z) and matching mask for a triple, or
    None when the dispatch runs no grid splice (Case1, the Case2_1_1 star)."""
    tag = _dispatch(n, labels)
    if tag.case in (Case.CASE1, Case.CASE2_1_1):
        return None
    return tag, _splice_image(AugmentedCube(n), *tag.roles)


@pytest.mark.parametrize("n", range(5, 63))
def test_splice_image_meets_both_premises(n):
    # img(y) != z, and img(x) != z when x ~ y: the two facts about labels
    # that README's grid-splice argument needs, on one triple per
    # relation type and on seeded samples
    adj = AugmentedCube(n).adjacent_labels
    checked = 0
    for labels in _branch_triples(n) + list(cli.sample_triples(n, 40, n)):
        found = _splice_roles(n, labels)
        if found is None:
            continue
        tag, mask = found
        x, y, z = tag.roles
        assert y ^ mask != z, (labels, tag)
        assert not adj(x, y) or x ^ mask != z, (labels, tag)
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("n", range(5, 9))
def test_splice_takes_c_exactly_on_case2_1_3(n):
    # every (a, b) of x = 0, y = a, z = half | b, so every relation type:
    # c exactly when z = h(x) and x ~ y, the Case2_1_3 triples whose z is
    # x's bit-keeping partner; Case2_1_3 with z = c(x) takes h
    half, full = 1 << (n - 1), (1 << n) - 1
    taken = collections.Counter()
    for a in range(1, half):
        for b in range(half):
            found = _splice_roles(n, (0, a, half | b))
            if found is not None:
                tag, mask = found
                x, y, z = tag.roles
                c_wanted = z == h_label(x, n) and AugmentedCube(n).adjacent_labels(x, y)
                assert mask in (half, full), (a, b, tag)
                assert (mask == full) == c_wanted, (a, b, tag)
                assert mask == half or tag.case is Case.CASE2_1_3, (a, b, tag)
                taken[mask == full, tag.case is Case.CASE2_1_3] += 1
    assert set(taken) == {(True, True), (False, True), (False, False)}


def _reference_grid(fan, n, x, y, z):
    """The grid splice's trees built in three pieces from ``fan(m, d)``:
    the fans from x to y and from z to img(y), both moved by their
    source, img the partner map ``c_label`` when x ~ y and z = h(x) and
    ``h_label`` otherwise; tree i is P_i, Q_i less its last edge and the
    matching edge nb_i-img(nb_i), and for adjacent x and y the tree
    Q_0 + x-img(x) + y-img(y) comes first."""
    edges = paths_mod.path_edges
    adjacent = AugmentedCube(n).adjacent_labels(x, y)
    img = c_label if z == h_label(x, n) and adjacent else h_label
    P = paths_mod.map_path_system(lambda v: v ^ x, fan(n - 1, x ^ y))
    Q = paths_mod.map_path_system(lambda v: v ^ z, fan(n - 1, z ^ img(y, n)))
    if adjacent:
        P = paths_mod.reorder_paths(P, [x])
    nbs = [p[-2] for p in P.paths]
    Q = paths_mod.reorder_paths(Q, [img(v, n) for v in nbs])
    trees = [
        {*edges(P.paths[i]), *edges(Q.paths[i][:-1]), undirected(nbs[i], img(nbs[i], n))}
        for i in range(int(adjacent), len(P.paths))
    ]
    if adjacent:
        trees.insert(0, {*edges(Q.paths[0]), undirected(x, img(x, n)), undirected(y, img(y, n))})
    return [frozenset(t) for t in trees]


def _grid_roles(n, triples):
    tags = [_dispatch(n, labels) for labels in triples]
    return [tag.roles for tag in tags if tag.case not in (Case.CASE1, Case.CASE2_1_1)]


def _seeded_grid_roles(n, count, rng):
    roles = []
    while len(roles) < count:
        roles += _grid_roles(n, [rng.sample(range(1 << n), 3)])
    return roles


@pytest.mark.parametrize("n", [5, 6, 7, "8..62"])
def test_grid_splice_walks_equal_the_three_piece_trees(n):
    # tree by tree, in order: every grid class at n = 5..7, where both
    # adjacencies of x and y and both matchings occur, and three seeded
    # grid triples at each n = 8..62
    if n == "8..62":
        rng = random.Random(4407)
        cases = [(m, _seeded_grid_roles(m, 3, rng)) for m in range(8, 63)]
    else:
        cases = [(n, _grid_roles(n, construct_mod.least_translates(n)))]
    fan = functools.lru_cache(maxsize=None)(paths_mod.fan)
    adjacent = matchings = 0
    for m, roles in cases:
        g = AugmentedCube(m)
        with construct_mod.fan_memo():
            for x, y, z in roles:
                assert construct_mod._recipe_grid(g, x, y, z) == _reference_grid(fan, m, x, y, z), (m, x, y, z)
                adjacent += g.adjacent_labels(x, y)
                matchings += _splice_image(g, x, y, z) == (1 << m) - 1
    if n != "8..62":
        assert 0 < matchings < adjacent < len(cases[0][1])


def test_sampled_sweep_at_dim_62():
    out = run_bounded(
        "import contextlib, io, json\n"
        "from aqsteiner.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):\n"
        "    code = main(['sweep', '-n', '62', '--samples', '20', '--seed', '1', '--format', 'json'])\n"
        "doc = json.loads(out.getvalue())\n"
        "print(code, doc['triples'], doc['min_size'], doc['all_verified'])\n"
    )
    assert out.split() == ["0", "20", "121", "True"]


def test_classify_contract_errors():
    g = AugmentedCube(4)
    with pytest.raises(ContractViolation):
        classify(g, vs("0000", "0001"))
    with pytest.raises(ContractViolation):
        classify(g, vs("0000", "0000", "0001"))
    with pytest.raises(ContractViolation):
        classify(AugmentedCube(2), vs("00", "01", "10"))


# ---------------------------------------------------------------------------
# construction, small dimensions
# ---------------------------------------------------------------------------

def test_construct_dim3_example():
    g = AugmentedCube(3)
    fam = construct(g, vs("000", "001", "011"))
    assert len(fam.trees) == 3
    assert verify_family(g, fam).accepted
    assert fam.provenance[0].case is Case.BASE3
    assert not fam.fallback_used


def test_construct_dim4_samples():
    g = AugmentedCube(4)
    for trio in [
        ("0000", "0011", "1100"),
        ("0000", "0001", "0010"),
        ("0101", "1010", "1111"),
        ("0000", "0111", "1000"),
    ]:
        fam = construct(g, vs(*trio))
        assert len(fam.trees) == 5
        assert verify_family(g, fam).accepted
        assert fam.provenance[0].case is Case.BASE4
    # the targets may come as a one-shot iterator
    assert construct(g, (v for v in vs("0000", "0001", "0010"))) == construct(g, vs("0000", "0001", "0010"))


def test_count_invariant_dim6_sampled():
    from aqsteiner.cli import run_sweep, sample_triples, sweep_summary

    records = run_sweep(6, sample_triples(6, 500, 7), jobs=1)
    summary = sweep_summary(6, records)
    assert summary["triples"] == 500
    assert summary["min_size"] == summary["max_size"] == 9
    assert summary["all_verified"]
    assert summary["fallback_count"] == 0


def test_high_dimensions_sampled():
    from aqsteiner.cli import run_sweep, sample_triples, sweep_summary

    for n, count in ((7, 40), (10, 10)):
        records = run_sweep(n, sample_triples(n, count, 11), jobs=1)
        summary = sweep_summary(n, records)
        assert summary["min_size"] == summary["max_size"] == 2 * n - 3
        assert summary["all_verified"]
        assert summary["fallback_count"] == 0


def test_construct_dim5_one_side_recurses():
    g = AugmentedCube(5)
    fam = construct(g, vs("00000", "00001", "00010"))
    assert len(fam.trees) == 7
    assert verify_family(g, fam).accepted
    assert fam.provenance[0].case is Case.CASE1
    assert fam.provenance[1].case is Case.BASE4  # the recursive batch


def test_construct_case1_partition_and_attachments():
    g = AugmentedCube(5)
    targets = vs("00000", "00011", "01100")
    fam = construct(g, targets)
    assert fam.provenance[0].case is Case.CASE1
    assert len(fam.trees) == 7
    # the two extra trees use cross edges into distinct quarters
    quarter_trees = fam.trees[5:]
    shift = 3
    seen_quarters = set()
    for tree in quarter_trees:
        upper = {v for e in tree.edges for v in e if v >> 4}
        quarters = {v >> shift for v in upper}
        assert len(quarters) == 1
        seen_quarters |= quarters
        # each target hangs by exactly one pendant cross edge
        for t in targets:
            touching = [e for e in tree.edges if t.bits in e]
            assert len(touching) == 1
    assert seen_quarters == {0b10, 0b11}


def test_construct_rejects_bad_inputs():
    g = AugmentedCube(3)
    with pytest.raises(ContractViolation):
        construct(g, vs("000", "000", "001"))
    with pytest.raises(ContractViolation):
        construct(AugmentedCube(2), vs("00", "01", "11"))


@pytest.mark.parametrize(
    "bad, message",
    [
        (Vertex(1, 4), "vertex dimension 4 does not match cube dimension 3"),
        (Vertex(8, 3), "label 8 out of range for dimension 3"),
        (Vertex(-1, 3), "label -1 out of range for dimension 3"),
    ],
)
def test_a_target_outside_the_cube_names_its_fault(bad, message):
    # construct, classify and the verifier test the range inline and call
    # AugmentedCube.check_vertex only for a target that fails it
    def verify(g, targets):
        return verify_family(g, TreeFamily(3, frozenset(targets), (), ()))

    g = AugmentedCube(3)
    for check in (construct, classify, verify):
        with pytest.raises(ContractViolation, match=re.escape(message)):
            check(g, [Vertex(0, 3), Vertex(1, 3), bad])


# ---------------------------------------------------------------------------
# base families
# ---------------------------------------------------------------------------

def test_base_search_targets_three_and_four():
    g = AugmentedCube(3)
    fam3 = base_case_search(g, vs("000", "001", "011"), 3)
    assert len(fam3.trees) == 3 and verify_family(g, fam3).accepted
    # the table holds 2n - 3 = 3 trees a class at n = 3; a triple with no
    # adjacent pair packs 4, which the oracle finds
    res = oracle_tau(g, [0b001, 0b010, 0b100], stop_at=4)
    assert res.lower == len(res.witness) == 4
    # a shorter target takes the first trees of the row, a valid subfamily
    g = AugmentedCube(4)
    full = base_case_search(g, vs("0000", "0101", "1001"), 5)
    for target in range(1, 6):
        fam = base_case_search(g, vs("0000", "0101", "1001"), target)
        assert fam.trees == full.trees[:target] and verify_family(g, fam).accepted


def test_base_search_cache_consistency_across_orbit():
    # two triples related by an automorphism share a cached solution;
    # both must verify in their own coordinates
    g = AugmentedCube(4)
    fam_a = base_case_search(g, vs("0000", "0001", "0010"), 5)
    image = [Vertex(c_label(v.bits, 4), 4) for v in vs("0000", "0001", "0010")]
    fam_b = base_case_search(g, image, 5)
    assert verify_family(g, fam_a).accepted and verify_family(g, fam_b).accepted
    assert frozenset(fam_b.terminals) == frozenset(image)


def test_base_tag_records_the_applied_transform():
    # the base table holds the least translate; the tag's transform
    # translates it back onto the caller's labels
    g = AugmentedCube(4)
    for labels in itertools.combinations(range(16), 3):
        tag = base_case_search(g, [Vertex(a, 4) for a in labels], 5).provenance[0]
        canon = min(tuple(sorted(v ^ a for v in labels)) for a in range(16))
        assert tuple(sorted(v ^ tag.transform for v in canon)) == labels


def test_base_search_contract():
    with pytest.raises(ContractViolation):
        base_case_search(AugmentedCube(5), vs("00000", "00001", "00010"), 7)
    with pytest.raises(ContractViolation, match="target must be positive"):
        base_case_search(AugmentedCube(3), vs("000", "001", "011"), 0)
    for n in (3, 4):
        with pytest.raises(ContractViolation, match=f"at most 2n - 3 = {2 * n - 3}"):
            base_case_search(AugmentedCube(n), vs("0" * n, "0" * (n - 1) + "1", "0" * (n - 2) + "11"), 2 * n - 2)


def test_base_search_short_packing_raises_internal_error(monkeypatch):
    # construct verifies what the table gives it: a row one tree short,
    # or with an edge dropped from a tree, raises InternalError
    rows = construct_mod._BASE_TABLE[3]
    assert rows[0] == "031323 04152545 07162667"
    try:
        for row in ("031323 04152545", "0313 04152545 07162667"):
            monkeypatch.setitem(construct_mod._BASE_TABLE, 3, (row,) + rows[1:])
            construct_mod._base_trees.cache_clear()
            with pytest.raises(InternalError, match="Base3 family rejected"):
                construct(AugmentedCube(3), vs("000", "001", "010"))
    finally:
        construct_mod._base_trees.cache_clear()


def test_a_broken_inner_level_fails_the_top_level_check(monkeypatch, capsys):
    # the n = 4 family under a Case1 triple is not verified on its own:
    # the n = 5 family holds its trees, and its one check rejects the edge
    # dropped from the n = 4 row of (0, 1, 2)
    rows = construct_mod._BASE_TABLE[4]
    assert rows[0].startswith("031323 ")
    monkeypatch.setitem(construct_mod._BASE_TABLE, 4, ("0313" + rows[0][6:],) + rows[1:])
    construct_mod._base_trees.cache_clear()
    try:
        for fidelity in (False, True):
            with pytest.raises(InternalError, match="Case1 family rejected"):
                construct(AugmentedCube(5), vs("00000", "00001", "00010"), fidelity=fidelity)
        assert cli.main(["sweep", "-n", "5", "--exhaustive"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("construction failed:")
    finally:
        construct_mod._base_trees.cache_clear()


def test_base_table_is_what_the_oracle_packs(capsys):
    # tools/base_table.py writes the table from the oracle: its output is
    # the table in construct.py, and every row is a valid family
    tool = load_tool("base_table")
    assert tool.main() == 0
    out = capsys.readouterr().out
    assert out in Path(construct_mod.__file__).read_text()
    assert ast.literal_eval(out.partition(" = ")[2]) == construct_mod._BASE_TABLE
    trees = edges = 0
    for n in (3, 4):
        g = AugmentedCube(n)
        classes = list(construct_mod.least_translates(n))
        assert len(construct_mod._BASE_TABLE[n]) == len(classes)
        for canon in classes:
            family = TreeFamily(
                n,
                frozenset(Vertex(a, n) for a in canon),
                tuple(SteinerTree(frozenset(tree)) for tree in construct_mod._base_trees(n, canon)),
                (),
            )
            assert verify_family(g, family, size=2 * n - 3).accepted, (n, canon)
            trees += len(family.trees)
            edges += sum(len(tree.edges) for tree in family.trees)
    assert (trees, edges) == (196, 764)


def _hash_family(h, family) -> None:
    """Feed one family to a sha256: each tree's sorted edge list, in tree
    order, then a separator."""
    for tree in family.trees:
        h.update(repr(sorted(tree.edges)).encode())
    h.update(b";")


# sha256 over the label edge lists of every tree that construct returns,
# in tree order, for all 56 + 560 triples at n = 3 and 4
SMALL_DIM_FAMILIES_DIGEST = "3a5a3ae9d24c250326726590f88e3bda2e9c0be7e99f6e96423bc5f42b83da88"


def test_base_cache_searches_once_per_canonical_class():
    # one search per translation class: 56 / 8 = 7 classes at n = 3 and
    # 560 / 16 = 35 at n = 4
    construct_mod._base_trees.cache_clear()
    for n in (3, 4):
        g = AugmentedCube(n)
        for t in itertools.combinations(range(1 << n), 3):
            construct(g, [Vertex(a, n) for a in t])
    info = construct_mod._base_trees.cache_info()
    assert (info.hits, info.misses) == (574, 42)


def test_small_dimension_families_are_pinned():
    h = hashlib.sha256()
    for n in (3, 4):
        g = AugmentedCube(n)
        for t in itertools.combinations(range(1 << n), 3):
            _hash_family(h, construct(g, [Vertex(a, n) for a in t]))
    assert h.hexdigest() == SMALL_DIM_FAMILIES_DIGEST


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------

def _translated(family, a):
    return tuple(frozenset(undirected(u ^ a, v ^ a) for u, v in tree.edges) for tree in family.trees)


def _equivariance_pairs(n):
    """(S, a) pairs: every n = 5 triple with one seeded a, and 20 seeded
    pairs at larger n."""
    rng = random.Random(n)
    triples = itertools.combinations(range(32), 3) if n == 5 else cli.sample_triples(n, 20, n)
    return [(labels, rng.randrange(1, 1 << n)) for labels in triples]


# sha256 over the families of S in ``_equivariance_pairs(n)``, in order
EQUIVARIANCE_DIGESTS = {
    5: "7b614cc96a4c4f83da1815f20a983b012f0db0cadb429c88d8ddfd3b0bd55e22",
    6: "69dd6b585ae8a40ce45eb7c5aa73b0c9d1472aef3a5ebee67537f0267e60fb96",
    7: "fa6d060181288299b5a1a8fa1b21b9a46b920a955b95eb3d18f6362d0e6e70a3",
    8: "8c08e8c0bdfc92552d70084811a343eca1571c751157b2d52be88cbcd93fbadc",
    9: "002932b94606af3f6ddbb361df9c3ffdb600ab16bef5a8676d41fd29ec65ca04",
    10: "70841a080479503a3e35643d742ab68988cf77dedc6e9905ee3a927a29aaa8b4",
    11: "352f32872ed568af5a3162e3ee7a0da7bdd7309c6e0c3e030ed44e8a76b96fb4",
    12: "7ee96803270c6c25b9ff118db2b5471a0f08357355ddf89ea5f26ca2ff996f61",
    13: "c42179035f8d108cb10e657de6617673a1f7be87d37ac0e218f042131a3fedc6",
    14: "055cfd3afe67659d484f450d102e79fbce73ae2b2d7c7c5cca70030a4802d2c6",
    15: "7d8f271a3c52f6b121073a2e55928aa26ea259cb26b0d26c350abedad00314d0",
    16: "04abd9b2d816f20697e0f50b772fa13e27150fa86a16c72214942ec80549d7f6",
    17: "6c9ccd4f8ccfcd655086c1bce1ced0c7dd03429a0eb9a60212f0944d054ccc57",
    18: "4debb5b9360c0946c4620e922dcca2a9e8f97b8ff7b6b37aa2fb4195beb37f00",
    19: "9e1b6ab6944320a4a9649af6dcc7873ab6c2ec2fc370538da2d214c0ffce1f69",
    20: "6344a3be74f78b3c6ac6f789829f29e6a7a10a42869ba2880f28f59ec2a98c9c",
    33: "3529c9dd168c6cdfddac5b9848038ea06408f01231fe701ea133bb02a8b7aaee",
    45: "f384af8c804ecacc85a5c36768c8d4f3444fb4b223ab7b2010d1aeeb1147932b",
    62: "62f09ec6f43cff2a1eadee1db0acbae45a638dc5e39ae39507da3304e1a73dc3",
}


@pytest.mark.parametrize("n", [5, *range(6, 21), 33, 45, 62])
def test_construct_commutes_with_translations(n):
    # construct(S ^ a) is construct(S) with every edge translated by a,
    # tree for tree, and classify names the same case; the families of S
    # are pinned
    g = AugmentedCube(n)
    h = hashlib.sha256()
    with construct_mod.fan_memo():
        for labels, a in _equivariance_pairs(n):
            family = construct(g, [Vertex(v, n) for v in labels])
            _hash_family(h, family)
            moved = [Vertex(v ^ a, n) for v in labels]
            assert tuple(t.edges for t in construct(g, moved).trees) == _translated(family, a), (labels, a)
            assert classify(g, moved).case is classify(g, [Vertex(v, n) for v in labels]).case
    assert h.hexdigest() == EQUIVARIANCE_DIGESTS[n]


# sha256 over the families of ``_gap_dim_triples(n)`` at every n = 21..61
# but 33 and 45, in order
GAP_DIMS_DIGEST = "cfe9f2977a33941bef6bb801d9fd62cda719104980f118dd88a9c8f3c77c29c7"


def _gap_dim_triples(n):
    """The two triples of ``cli.sample_triples(n, 2, n)``, then one seeded
    Case1 triple: three labels below 2^(n-2), so inside one half."""
    return [*cli.sample_triples(n, 2, n), random.Random(n).sample(range(1 << (n - 2)), 3)]


def test_construct_at_the_dimensions_between_20_and_62():
    # 117 constructs at the dimensions where no other test builds a
    # certificate, whose families are pinned
    h = hashlib.sha256()
    for n in range(21, 62):
        if n in (33, 45):
            continue
        g = AugmentedCube(n)
        for labels in _gap_dim_triples(n):
            family = construct(g, [Vertex(v, n) for v in labels])
            assert len(family.trees) == 2 * n - 3
            _hash_family(h, family)
        assert family.provenance[0].case is Case.CASE1
    assert h.hexdigest() == GAP_DIMS_DIGEST


def _least_translates(n):
    """One triple per translation class: the least translates (0, p, z),
    exactly those with 0 < p < z < p ^ z (``least_translate``),
    C(2^n, 3) / 2^n of them."""
    return [(0, p, z) for p, z in itertools.combinations(range(1, 1 << n), 2) if z < p ^ z]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_least_translate_closed_form_on_every_triple(n):
    # the closed form is the minimum over the three targets, and the
    # least translates are exactly the (0, p, z) with p < z < p ^ z
    seen = set()
    for labels in itertools.combinations(range(1 << n), 3):
        least = least_translate(labels)
        assert least == reference_least_translate(labels), labels
        seen.add(least[0])
    assert seen == set(_least_translates(n))
    assert list(construct_mod.least_translates(n)) == sorted(seen)
    assert len(seen) == {3: 7, 4: 35, 5: 155, 6: 651, 7: 2667}[n]


def test_least_translate_closed_form_on_seeded_triples():
    # unsorted triples at every n = 8..62
    rng = random.Random(2108)
    for n in range(8, 63):
        for _ in range(200):
            labels = rng.sample(range(1 << n), 3)
            assert least_translate(labels) == reference_least_translate(labels), (n, labels)


# the case histograms of `sweep -n 5 --exhaustive`, `sweep -n 6
# --exhaustive` and `sweep -n 7 --exhaustive`, and of the exhaustive
# n = 8 sweep (`--jobs 2`)
EXHAUSTIVE_CASES = {
    5: {"Case1": 1120, "Case2_1_1": 32, "Case2_1_2": 512, "Case2_1_3": 384, "Case2_2_1a": 192,
        "Case2_2_1b": 32, "Case2_2_2a": 64, "Case2_2_2b": 640, "Case2_2_2c": 832,
        "Case2_2_3a": 64, "Case2_2_3b": 640, "Case2_2_3c": 448},
    6: {"Case1": 9920, "Case2_1_1": 64, "Case2_1_2": 2816, "Case2_1_3": 1024, "Case2_2_1a": 896,
        "Case2_2_1b": 64, "Case2_2_2a": 4864, "Case2_2_2b": 10752, "Case2_2_2c": 4096,
        "Case2_2_3a": 2304, "Case2_2_3b": 3584, "Case2_2_3c": 1280},
    7: {"Case1": 83328, "Case2_1_1": 128, "Case2_1_2": 13312, "Case2_1_3": 2560, "Case2_2_1a": 3840,
        "Case2_2_1b": 128, "Case2_2_2a": 97024, "Case2_2_2b": 87552, "Case2_2_2c": 15104,
        "Case2_2_3a": 21248, "Case2_2_3b": 13824, "Case2_2_3c": 3328},
    8: {"Case1": 682752, "Case2_1_1": 256, "Case2_1_2": 58368, "Case2_1_3": 6144, "Case2_2_1a": 15872,
        "Case2_2_1b": 256, "Case2_2_2a": 1220608, "Case2_2_2b": 540672, "Case2_2_2c": 48128,
        "Case2_2_3a": 137216, "Case2_2_3b": 45056, "Case2_2_3c": 8192},
}


# sha256 over every class family at n = 5..8, in ``least_translates``
# order, hashed by ``_hash_family``
CLASS_FAMILY_DIGESTS = {
    5: "fe458a474468afd1dc0fff4e2c19b100d24c53a6614671cf07b3a3082856df21",
    6: "4d61c229b20714cdc88c23c0014f65b338864b43c0857a095c6894baff9dda8f",
    7: "3110c0c4a40b3227cec2df3d82c45ea236ad33456de559eec7a2009e59ecf91a",
    8: "6cc533c43c5c9f4beeb2fe2cb75ed5e447e99acf7c4db39cc9e0ad7a9c75762d",
}


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_one_construct_per_translation_class_covers_every_triple(n):
    # construct commutes with translations and every class holds 2^n
    # triples, so one verified construct per class covers them all:
    # 155, 651, 2,667 and 10,795 constructs, whose families are pinned
    g = AugmentedCube(n)
    reps = _least_translates(n)
    assert len(reps) * (1 << n) == math.comb(1 << n, 3)
    assert list(construct_mod.least_translates(n)) == reps
    cases = collections.Counter()
    h = hashlib.sha256()
    with construct_mod.fan_memo():
        for labels in reps:
            family = construct(g, [Vertex(v, n) for v in labels])
            assert family.provenance[0].transform == 0
            cases[family.provenance[0].case.value] += 1 << n
            _hash_family(h, family)
    assert cases == EXHAUSTIVE_CASES[n]
    assert h.hexdigest() == CLASS_FAMILY_DIGESTS[n]


def test_the_recipes_need_only_full_fans(monkeypatch):
    # phi = hc_swap_label(., n - 1) is an automorphism of AQ_(n-1) that
    # fixes 0 and is its own inverse (Choudum & Sunitha 2008), so
    # phi(fan(phi(d))) is a full fan from 0 to d, and a different one
    # for every d; every class still builds a verified family from it
    real = construct_mod._checked_fan

    def swapped(n, d):
        phi = functools.partial(hc_swap_label, dim=n - 1)
        return paths_mod.map_path_system(phi, real(n, phi(d)))

    monkeypatch.setattr(construct_mod, "_checked_fan", swapped)
    for n in (5, 6, 7):
        assert all(swapped(n, d) != real(n, d) for d in range(1, 1 << (n - 1)))
        g = AugmentedCube(n)
        for labels in construct_mod.least_translates(n):
            # construct runs the verifier on its result and raises on a
            # rejected family
            assert len(construct(g, [Vertex(v, n) for v in labels]).trees) == 2 * n - 3


@pytest.mark.parametrize("jobs", [1, 2])
def test_exhaustive_sweep_at_dim_6(jobs):
    # the sweep itself, one construct per class whose case and size go
    # to every member's record, against the pinned histogram
    records = cli.run_sweep(6, cli.all_triples(6), jobs=jobs)
    assert [r.labels for r in records] == cli.all_triples(6)
    assert collections.Counter(r.case for r in records) == EXHAUSTIVE_CASES[6]
    assert all(r.size == 9 and r.verified and not r.fallback for r in records)


def _batch_cases():
    """(n, batch): every triple at n = 3, 4 and 5, the n = 5 triples in
    descending label order, and 3,000 seeded n = 6 triples, which repeat
    most of the 651 classes."""
    return (
        [(n, cli.all_triples(n)) for n in (3, 4, 5)]
        + [(5, [t[::-1] for t in cli.all_triples(5)])]
        + [(6, cli.sample_triples(6, 3000, 7))]
    )


@pytest.mark.parametrize("n, batch", _batch_cases(), ids=["n3", "n4", "n5", "n5-descending", "n6-sampled"])
def test_construct_batch_equals_construct(n, batch):
    # the batch split into translation classes: each triple is the
    # translate canon ^ a of exactly one class, named by its least
    # translate; construct(canon ^ a) = construct(canon) ^ a is checked
    # by test_construct_commutes_with_translations
    canons = set()
    for t in batch:
        canon, a = least_translate(t)
        assert tuple(sorted(v ^ a for v in canon)) == tuple(sorted(t))
        assert least_translate(canon) == (canon, 0)
        canons.add(canon)
    assert len(canons) < len(batch)


def _inline_pool(monkeypatch) -> list:
    """Replace the process pool of ``cli._sweep`` with one that runs each
    batch in this process, and return the list of batches it is handed."""
    import concurrent.futures

    handed = []

    class InlinePool(contextlib.AbstractContextManager):
        def __init__(self, max_workers):
            pass

        def __exit__(self, *exc):
            return None

        def map(self, fn, batches):
            handed.extend(batches)
            return map(fn, batches)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return handed


@pytest.mark.parametrize("n, count", [(5, 8), (6, 8), (6, 12)])
def test_sweep_batches_hold_whole_translation_classes(monkeypatch, n, count):
    # the batches hold least translates alone, each class's once, and
    # count = 4 * jobs of them; each stand-in result, the least translate
    # itself, lands on the record of every member of its class, and the
    # records keep the input order
    jobs = count // 4
    handed = _inline_pool(monkeypatch)
    monkeypatch.setattr(cli, "_sweep_classes", lambda args: [(canon, args[0]) for canon in args[1]])
    triples = cli.all_triples(n)[::-1]
    records = cli.run_sweep(n, triples, jobs=jobs)
    assert [r.labels for r in records] == triples
    assert all(r.case == least_translate(r.labels)[0] and r.size == n for r in records)
    canons = [canon for _, batch in handed for canon in batch]
    assert sorted(canons) == _least_translates(n)
    assert len(canons) == len(triples) >> n
    assert len(handed) == count


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_sweep_indexes_its_classes_once(monkeypatch, jobs):
    # the pool's batches run here, so a worker that indexed its batch
    # again, or built a class twice, would count: one least translate per
    # triple and 155 constructs at n = 5, serial or pooled
    handed = _inline_pool(monkeypatch)
    indexed, built = [], []
    index, build = cli.least_translate, cli.build_family
    monkeypatch.setattr(cli, "least_translate", lambda labels: indexed.append(labels) or index(labels))
    monkeypatch.setattr(
        cli, "build_family", lambda g, s, **kw: built.append(tuple(sorted(v.bits for v in s))) or build(g, s, **kw)
    )
    records = cli.run_sweep(5, cli.all_triples(5), jobs=jobs)
    assert [r.labels for r in records] == cli.all_triples(5) and all(r.size == 7 for r in records)
    assert indexed == cli.all_triples(5)
    assert sorted(built) == _least_translates(5)
    assert len(handed) == (8 if jobs == 2 else 0)
    # a sweep of one class is one batch, and an empty sweep none, so
    # neither needs a pool
    handed.clear()
    assert len(cli.run_sweep(5, [(0, 1, 2), (0, 1, 3)], jobs=jobs)) == 2 and handed == []
    assert cli.run_sweep(5, [], jobs=jobs) == [] and handed == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_an_exhaustive_sweep_lists_no_triples(monkeypatch, capsys, jobs):
    # the classes are the least translates, each of 2^n members, so no
    # triple is listed, sampled or indexed
    def unreachable(*args):
        raise AssertionError("the exhaustive sweep listed its triples")

    for name in ("all_triples", "sample_triples", "least_translate"):
        monkeypatch.setattr(cli, name, unreachable)
    handed = _inline_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["sweep", "-n", "6", "--exhaustive", "--force", "--jobs", str(jobs), "--format", "json"]
    assert cli.main(argv) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["cases"] == EXHAUSTIVE_CASES[6] and summary["triples"] == math.comb(64, 3)
    assert len(handed) == (8 if jobs == 2 else 0)


def test_a_rejected_translate_raises(monkeypatch, capsys):
    # the verifier rejects, by the tree count, the family of the least
    # translate (0, 1, 2) at n = 5, the one family its class builds
    original = verify_mod.verify_family

    def rejecting(g, family, *, size=None):
        if g.dim == 5 and sorted(t.bits for t in family.terminals) == [0, 1, 2]:
            family = family._replace(trees=family.trees[:-1])
        return original(g, family, size=size)

    monkeypatch.setattr(verify_mod, "verify_family", rejecting)
    targets = str(["00000", "00001", "00010"])
    with pytest.raises(InternalError, match=f"family rejected for targets {re.escape(targets)}: .*expected 7 trees"):
        cli.run_sweep(5, [(4, 5, 6)])
    assert cli.main(["sweep", "-n", "5", "--exhaustive"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("construction failed:") and targets in err


def test_an_exhaustive_sweep_makes_no_records(monkeypatch, capsys):
    # the summary folds one entry per class, so no member record is made
    def unreachable(*args):
        raise AssertionError("the sweep made a member record")

    monkeypatch.setattr(cli, "SweepRecord", unreachable)
    assert cli.main(["sweep", "-n", "6", "--exhaustive", "--force"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["n=6 triples=41664 expected_size=9 min=9 max=9", "all_verified=yes fallbacks=0 (0.0000)"]
    assert dict(line.strip().split(": ") for line in lines[2:]) == {
        case: str(count) for case, count in EXHAUSTIVE_CASES[6].items()
    }



def _member_record_inputs():
    """(n, triples): every triple at n = 3..6 shuffled; at n = 5 also
    every triple in a shuffled label order, and 1,000 seeded triples,
    unsorted, with 300 of them repeated."""
    rng = random.Random(4205)
    cases = []
    for n in (3, 4, 5, 6):
        triples = cli.all_triples(n)
        rng.shuffle(triples)
        cases.append((n, triples))
    cases.append((5, [tuple(rng.sample(t, 3)) for t in cli.all_triples(5)]))
    drawn = [tuple(rng.sample(range(32), 3)) for _ in range(1000)]
    cases.append((5, drawn + rng.sample(drawn, 300)))
    return cases


@pytest.mark.parametrize(
    "n, triples", _member_record_inputs(), ids=["n3", "n4", "n5", "n6", "n5-unsorted", "n5-duplicated"]
)
def test_run_sweep_equals_the_per_member_records(n, triples):
    # each record is its triple's, in input order, with the triple's
    # labels sorted and the case and size of its class's least translate;
    # repeated triples keep their records
    canons = list(dict.fromkeys(least_translate(t)[0] for t in triples))
    results = dict(zip(canons, cli._sweep(n, canons)))
    expected = [cli.SweepRecord(tuple(sorted(t)), *results[least_translate(t)[0]]) for t in triples]
    records = cli.run_sweep(n, triples)
    assert records == expected
    assert all(type(r) is cli.SweepRecord for r in records)
    assert len(records) == len(triples)


@pytest.mark.parametrize("n", range(3, 11))
def test_least_translates_put_the_top_bit_of_z_above_that_of_p(n):
    # hb(p) < hb(z), which gives _dispatch its "an upper z forces a lower p"
    assert all(p.bit_length() < z.bit_length() for _, p, z in construct_mod.least_translates(n))


def test_a_pooled_sample_sweep_equals_the_serial_one(monkeypatch, capsys):
    # a sample's classes hold different numbers of members, so a result
    # written back to another class's place would change the histogram;
    # the pool's 8 uneven batches run here, so one CPU is enough
    handed = _inline_pool(monkeypatch)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    outputs = []
    for jobs in ("1", "2"):
        assert cli.main(["sweep", "-n", "6", "--samples", "2000", "--jobs", jobs, "--format", "json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["triples"] == 2000
    assert len(handed) == 8


def test_sweep_summary_equals_the_per_record_fold():
    # counting (case, size) pairs once folds to the summary of one
    # (case, size, 1) entry per record, in any record order; the records
    # are read once, so a one-shot generator gives the summary of the list
    def fold(n, records):
        return cli._summary(n, ((r.case, r.size, 1) for r in records))

    rng = random.Random(4206)
    records = cli.run_sweep(5, cli.all_triples(5))
    rng.shuffle(records)
    assert cli.sweep_summary(5, records) == fold(5, records)
    assert cli.sweep_summary(5, iter(records)) == fold(5, records)
    records = [cli.SweepRecord(t, "Base4", 5) for t in itertools.combinations(range(16), 3)]
    records.append(cli.SweepRecord((0, 1, 2), "Base4", 4))
    rng.shuffle(records)
    summary = cli.sweep_summary(4, records)
    assert summary == fold(4, records)
    assert cli.sweep_summary(4, iter(records)) == summary
    assert (summary["triples"], summary["min_size"], summary["max_size"]) == (561, 4, 5)
    records.append(cli.SweepRecord((0, 1, 3), "Case1", 5))
    assert cli.sweep_summary(4, iter(records)) == fold(4, records)
    assert cli.sweep_summary(4, iter(records))["cases"] == {"Base4": 561, "Case1": 1}
    assert cli.sweep_summary(4, []) == fold(4, []) == {
        "n": 4, "triples": 0, "expected_size": 5, "min_size": 0, "max_size": 0, "all_verified": True,
        "fallback_count": 0, "fallback_fraction": 0.0, "cases": {},
    }

@pytest.mark.parametrize(
    "label_map", [c_label, hc_swap_label], ids=["complement_automorphism", "hc_swap_automorphism"]
)
def test_family_images_under_automorphisms_verify(label_map):
    g = AugmentedCube(4)
    fam = construct(g, vs("0000", "0011", "1110"))

    mapped = TreeFamily(
        dim=4,
        terminals=frozenset(Vertex(label_map(t.bits, 4), 4) for t in fam.terminals),
        trees=tuple(
            SteinerTree(frozenset(tuple(sorted((label_map(u, 4), label_map(v, 4)))) for (u, v) in tree.edges))
            for tree in fam.trees
        ),
        provenance=fam.provenance,
    )
    assert verify_family(g, mapped).accepted


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_construct_deterministic():
    g = AugmentedCube(5)
    for trio in [("00000", "00011", "11100"), ("00000", "01111", "10000")]:
        a = construct(g, vs(*trio))
        b = construct(g, vs(*trio))
        assert a == b


# ---------------------------------------------------------------------------
# failures and verification
# ---------------------------------------------------------------------------

def _broken_recipe(g, x, y, z):
    # every tree is the one label edge 0-1: the trees share it
    return [{(0, 1)} for _ in range(target_family_size(g.dim))]


def test_broken_recipe_raises_internal_error(monkeypatch):
    g = AugmentedCube(5)
    twin = vs("00000", "01111", "10000")
    assert classify(g, twin).case is Case.CASE2_1_1
    monkeypatch.setattr(construct_mod, "_recipe_2_1_1", _broken_recipe)
    with pytest.raises(InternalError, match="Case2_1_1"):
        construct(g, twin)


def test_short_recipe_fails_the_tree_count(monkeypatch):
    # every tree of the short family is valid, so only the count rejects it
    g = AugmentedCube(5)
    real = construct_mod._recipe_2_1_1
    monkeypatch.setattr(construct_mod, "_recipe_2_1_1", lambda g, x, y, z: real(g, x, y, z)[:-1])
    with pytest.raises(InternalError, match="expected 7 trees"):
        construct(g, vs("00000", "01111", "10000"))


def test_broken_recipe_exits_1_from_cli(monkeypatch, capsys):
    monkeypatch.setattr(construct_mod, "_recipe_2_1_1", _broken_recipe)
    assert cli.main(["construct", "-n", "5", "-S", "00000,01111,10000"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("construction failed:")
    # break every Case2 recipe so the sampled sweep meets one at once
    monkeypatch.setattr(construct_mod, "_recipe_grid", _broken_recipe)
    assert cli.main(["sweep", "-n", "5", "--samples", "40", "--seed", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("construction failed:")
    # the sweep's fan memo ended with the error
    assert construct_mod._fan_memo.get() is None


def test_a_case1_construct_validates_its_targets_once_per_level(monkeypatch):
    # the n = 4 sub-triple goes straight to the base search, which
    # validates it; construct does not validate it first
    seen = []
    real = construct_mod._validate_terminals
    monkeypatch.setattr(construct_mod, "_validate_terminals", lambda g, terms: seen.append(g.dim) or real(g, terms))
    g = AugmentedCube(5)
    targets = vs("00000", "00001", "00010")
    assert classify(g, targets).case is Case.CASE1
    seen.clear()
    construct(g, targets)
    assert seen == [5, 4]


@pytest.mark.parametrize(
    "n, labels, levels",
    [
        pytest.param(5, (0b00000, 0b01111, 0b10000), 1, id="case2-n5"),
        pytest.param(5, (0, 1, 2), 2, id="case1-n5"),
        # all three below 16, and not their own least translate
        pytest.param(9, (3, 5, 14), 6, id="case1-deep-n9"),
        pytest.param(62, (0, 1, 2), 59, id="case1-n62"),
    ],
)
def test_verify_runs_once_per_top_level_construct(monkeypatch, n, labels, levels):
    # Case1 recurses through construct down to the n = 4 base level, and
    # only the top-level call verifies: its family holds every inner tree
    seen = []
    original = verify_mod.verify_family

    def counting(g, family, *, size=None):
        seen.append(g.dim)
        return original(g, family, size=size)

    monkeypatch.setattr(verify_mod, "verify_family", counting)
    family = construct(AugmentedCube(n), [Vertex(a, n) for a in labels])
    assert len(family.provenance) == levels
    assert seen == [n]


# ---------------------------------------------------------------------------
# the per-sweep fan memo
# ---------------------------------------------------------------------------

def _count_fans(monkeypatch) -> list:
    calls = []
    original = paths_mod.disjoint_paths

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(paths_mod, "disjoint_paths", counting)
    return calls


def test_sweep_builds_each_fan_once(monkeypatch):
    calls = _count_fans(monkeypatch)
    checks = []
    original = verify_mod.check_path_system

    def counting(view, ps):
        checks.append(ps.sink)
        return original(view, ps)

    monkeypatch.setattr(verify_mod, "check_path_system", counting)
    records = cli.run_sweep(5, cli.all_triples(5))
    # one fan per d in 1..15; Case1 recurses into the n = 4 base search
    assert 0 < len(calls) <= 15
    # construct checks each fan once, where it is built, and never the
    # 7,648 translates the sweep uses
    assert len(checks) == len(set(checks)) == len(calls)
    # the memo ended with the sweep: the next construct searches again
    calls.clear()
    construct(AugmentedCube(5), vs("00000", "01111", "10000"))
    assert len(calls) == 1
    # past the cap a fan is searched and not stored; the records stay
    calls.clear()
    monkeypatch.setattr(construct_mod, "FAN_MEMO_MAX", 1)
    assert cli.run_sweep(5, cli.all_triples(5)) == records
    assert len(calls) > 15


@pytest.mark.parametrize("joined", [False, True], ids=["no memo", "joined memo"])
def test_a_broken_fan_raises_where_it_is_built(monkeypatch, joined):
    # x = 00000 and y = 00101 are below, and 0101 is no delta of AQ_4, so
    # the direct step 0-d of the broken fan is a non-edge; the lower
    # half-copy check catches it before any tree is assembled
    real = paths_mod.fan
    asked = []

    def broken(m, d):
        asked.append(d)
        fan = real(m, d)
        return PathSystem(0, d, ((0, d),) + fan.paths[1:])

    monkeypatch.setattr(paths_mod, "fan", broken)
    with construct_mod.fan_memo() if joined else contextlib.nullcontext():
        outer = construct_mod._fan_memo.get()
        with pytest.raises(InternalError, match="leaves the lower half-copy"):
            construct(AugmentedCube(5), vs("00000", "00101", "10000"))
        # a lone construct leaves no memo behind; a joined one stays
        assert construct_mod._fan_memo.get() is outer
    assert asked and all(d not in adjacency_deltas(4) for d in asked)
    assert construct_mod._fan_memo.get() is None


def test_a_lone_construct_opens_no_memo_and_pins_q_from_the_lower_fan(monkeypatch):
    # the least translate is (0, 01101, 10000) with x = 0 and z = h(x),
    # so zm = x and Q is pinned from the lower fan's own object
    memos, built, pinned = [], [], []
    real_fan, real_pin = construct_mod._checked_fan, construct_mod._pin

    def building(n, d):
        memos.append(construct_mod._fan_memo.get())
        built.append(real_fan(n, d))
        return built[-1]

    monkeypatch.setattr(construct_mod, "_checked_fan", building)
    monkeypatch.setattr(construct_mod, "_pin", lambda ps, wanted: pinned.append(ps) or real_pin(ps, wanted))
    construct(AugmentedCube(5), vs("00111", "01010", "10111"))
    assert memos == [None]
    assert len(pinned) == 1 and pinned[0] is built[0]


def test_a_construct_inside_fan_memo_joins_it():
    # the second triple is the first translated by 00110: the same
    # Case2_1_1 branch with the same lower fan to d = 01111
    g = AugmentedCube(5)
    first, second = vs("00000", "01111", "10000"), vs("00110", "01001", "10110")
    assert classify(g, first).case is classify(g, second).case is Case.CASE2_1_1
    with construct_mod.fan_memo():
        memo = construct_mod._fan_memo.get()
        construct(g, first)
        assert memo.cache_info()[:2] == (0, 1)
        construct(g, second)
        assert memo.cache_info()[:2] == (1, 1)
        assert construct_mod._fan_memo.get() is memo
    assert construct_mod._fan_memo.get() is None


def test_a_nested_fan_memo_opens_its_own_and_restores_the_outer():
    with construct_mod.fan_memo():
        outer = construct_mod._fan_memo.get()
        with construct_mod.fan_memo():
            inner = construct_mod._fan_memo.get()
            assert inner is not None and inner is not outer
        assert construct_mod._fan_memo.get() is outer
    assert construct_mod._fan_memo.get() is None


def test_a_lone_case2_1_2_construct_builds_its_one_fan_once(monkeypatch):
    # the least translate is (0, 01101, 10000) with x = 0 and z = h(x),
    # so the upper fan from z to h(y) has the lower fan's difference
    # x ^ y and is that fan translated
    g = AugmentedCube(5)
    targets = vs("00111", "01010", "10111")
    assert classify(g, targets).case is Case.CASE2_1_2
    built = []
    real = construct_mod._checked_fan
    monkeypatch.setattr(construct_mod, "_checked_fan", lambda n, d: built.append(d) or real(n, d))
    assert verify_family(g, construct(g, targets), size=7).accepted
    assert built == [0b00111 ^ 0b01010]


def test_pinning_a_label_that_no_path_ends_through_raises(cold_cube_memo):
    # 0000 and 0110 are not adjacent, so the source ends no path
    with pytest.raises(InternalError, match="no path has sink neighbour 0"):
        construct_mod._pin(paths_mod.fan(4, 0b0110), [0])


@pytest.mark.parametrize("n", [6, 7])
def test_fan_memo_leaves_certificates_unchanged(monkeypatch, n):
    g = AugmentedCube(n)
    triples = cli.sample_triples(n, 200, n)
    calls = _count_fans(monkeypatch)

    def certificates():
        docs = []
        for labels in triples:
            family = construct(g, [Vertex(a, n) for a in labels])
            docs.append(cli.certificate_doc(family, family.provenance[0].case.value))
        return docs

    # one batch memo for every construct, then every fan built directly
    with construct_mod.fan_memo():
        memoised = certificates()
    searched = len(calls)
    assert memoised == certificates()
    # the batch pass came first and searched fewer fans
    assert 0 < searched < len(calls) - searched


def test_package_attribute_construct_is_the_submodule():
    assert inspect.ismodule(aqsteiner.construct)
    assert aqsteiner.construct.construct is construct is cli.build_family


# ---------------------------------------------------------------------------
# spanning-path mode for the one-side branch
# ---------------------------------------------------------------------------

def test_fidelity_mode_spans_the_quarters():
    g = AugmentedCube(5)
    targets = vs("00000", "00011", "01100")
    fam = construct(g, targets, fidelity=True)
    assert len(fam.trees) == 7
    assert verify_family(g, fam).accepted
    for quarter, tree in zip((0b10, 0b11), fam.trees[5:]):
        upper = {v for e in tree.edges for v in e if v >> 4}
        assert len(upper) == 8  # the whole quarter is visited
        # ... along its labels in counting order
        inside = {(u, v) for (u, v) in tree.edges if u >> 3 == v >> 3 == quarter}
        assert inside == {(v, v + 1) for v in range(quarter << 3, ((quarter + 1) << 3) - 1)}
