import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsteiner.topology import (
    AugmentedCube,
    ContractViolation,
    Vertex,
    adjacency_deltas,
    c_label,
    gray,
    h_label,
    hc_swap_label,
    parse_vertex,
    side_view,
)

from util import inverse_gray, recursive_adjacent, recursive_edges, run_bounded


def labels(g, vs):
    return [format(v, f"0{g.dim}b") for v in vs]


def b(text):
    return int(text, 2)


# ---------------------------------------------------------------------------
# neighbours and adjacency
# ---------------------------------------------------------------------------

def test_neighbors_examples():
    # the neighbours of 0 are the deltas themselves
    assert labels(AugmentedCube(3), adjacency_deltas(3)) == ["001", "010", "011", "100", "111"]
    assert labels(AugmentedCube(1), adjacency_deltas(1)) == ["1"]
    assert labels(AugmentedCube(4), adjacency_deltas(4)) == sorted(
        ["1000", "0100", "0010", "0001", "1111", "0111", "0011"]
    )


def test_neighbors_dimension_mismatch():
    g = AugmentedCube(3)
    with pytest.raises(ContractViolation):
        g.check_vertex(Vertex(0, 4))
    with pytest.raises(ContractViolation):
        g.check_label(8)


def test_is_adjacent_examples():
    g = AugmentedCube(3)
    assert g.adjacent_labels(b("000"), b("111"))
    assert not g.adjacent_labels(b("001"), b("100"))
    assert not g.adjacent_labels(b("000"), b("000"))


def test_regularity_dims_1_to_8():
    for n in range(1, 9):
        g = AugmentedCube(n)
        for v in range(g.order):
            nb = [v ^ d for d in adjacency_deltas(n)]
            assert len(nb) == len(set(nb)) == 2 * n - 1
            assert v not in nb


def test_closed_form_matches_recursive_definition_dims_1_to_8():
    for n in range(1, 9):
        g = AugmentedCube(n)
        closed = {
            frozenset({u, u ^ d})
            for u in range(g.order)
            for d in adjacency_deltas(n)
        }
        assert closed == set(recursive_edges(n))
        if n <= 6:
            # the leading-bit recursion of the reference checks agrees
            edges = recursive_edges(n)
            for u in range(-1, g.order + 1):
                for w in range(-1, g.order + 1):
                    assert recursive_adjacent(n, u, w) == (frozenset({u, w}) in edges), (n, u, w)


def test_adjacency_symmetry_sampled():
    g = AugmentedCube(6)
    for u in range(0, g.order, 7):
        for w in (u ^ d for d in adjacency_deltas(6)):
            assert u in {w ^ e for e in adjacency_deltas(6)}


def test_consecutive_labels_are_adjacent():
    # v ^ (v + 1) = 2^(t+1) - 1 when v has t trailing ones: a single bit
    # for t = 0, else a trailing block, so counting order is a path
    for n in range(1, 63):
        deltas = adjacency_deltas(n)
        for t in range(n):
            assert (1 << (t + 1)) - 1 in deltas, (n, t)
    for n in range(1, 9):
        edges = recursive_edges(n)
        assert all(frozenset({v, v + 1}) in edges for v in range((1 << n) - 1)), n


# ---------------------------------------------------------------------------
# split, images, matchings
# ---------------------------------------------------------------------------

def test_gray_maps_deltas_onto_generators():
    # gray sends the delta set onto the single bits e_i and the adjacent
    # pairs e_i + e_(i+1): AQ_m is a Cayley graph on those generators
    for m in range(1, 63):
        singles = {1 << i for i in range(m)}
        pairs = {3 << i for i in range(m - 1)}
        assert {gray(d) for d in adjacency_deltas(m)} == singles | pairs, m
        for v in (*adjacency_deltas(m), (1 << m) - 1, 0x5555555555555555 & ((1 << m) - 1)):
            assert inverse_gray(gray(v)) == v and gray(inverse_gray(v)) == v
    for v in range(1 << 12):
        assert inverse_gray(gray(v)) == v
    assert [gray(v) for v in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]


def test_split_side():
    # the leading bit of the label picks the half-copy
    g = AugmentedCube(4)
    assert b("0110") in side_view(g, b("0000")).allowed
    assert b("1001") in side_view(g, b("1111")).allowed
    assert b("1001") not in side_view(g, b("0110")).allowed
    assert side_view(g, b("0110")) == side_view(g, b("0001"))
    with pytest.raises(ContractViolation):
        side_view(AugmentedCube(1), 0)


def test_images_examples():
    assert h_label(b("0101"), 4) == b("1101")
    assert c_label(b("0101"), 4) == b("1010")
    assert c_label(b("001"), 3) == b("110")


def test_images_cross_and_adjacent():
    for n in (2, 3, 4, 5):
        g = AugmentedCube(n)
        half = 1 << (n - 1)
        for v in range(half):
            hv, cv = h_label(v, n), c_label(v, n)
            assert hv & half and cv & half
            assert hv != cv
            assert g.adjacent_labels(v, hv) and g.adjacent_labels(v, cv)


def test_quarter_property():
    # of the two cross partners of a lower vertex, exactly one lands in
    # the 10 quarter and the other in the 11 quarter
    for n in (3, 4, 5, 6):
        shift = n - 2
        for v in range(1 << (n - 1)):
            quarters = {h_label(v, n) >> shift, c_label(v, n) >> shift}
            assert quarters == {0b10, 0b11}


def test_cross_matchings_are_disjoint_perfect_matchings():
    for n in (2, 3, 4, 5, 6):
        half = 1 << (n - 1)
        h_edges = {frozenset({v, h_label(v, n)}) for v in range(half)}
        c_edges = {frozenset({v, c_label(v, n)}) for v in range(half)}
        assert len(h_edges) == len(c_edges) == half
        assert not h_edges & c_edges
        assert {w for e in h_edges for w in e} == set(range(1 << n))
        assert {w for e in c_edges for w in e} == set(range(1 << n))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_complement_automorphism_examples():
    assert c_label(b("0000"), 4) == b("1111")
    g = AugmentedCube(3)
    u, v = b("000"), b("011")
    assert g.adjacent_labels(u, v)
    assert g.adjacent_labels(c_label(u, 3), c_label(v, 3))
    assert c_label(c_label(u, 3), 3) == u
    # it swaps the two half-copies
    assert all(c_label(w, 3) >> 2 == 1 - (w >> 2) for w in range(8))


@pytest.mark.parametrize(
    "auto", [c_label, hc_swap_label], ids=["complement_automorphism", "hc_swap_automorphism"]
)
def test_automorphisms_preserve_adjacency_exhaustive(auto):
    for n in range(2, 7):
        g = AugmentedCube(n)
        assert sorted(auto(v, n) for v in range(g.order)) == list(range(g.order))
        for u, v in itertools.combinations(range(g.order), 2):
            assert g.adjacent_labels(u, v) == g.adjacent_labels(auto(u, n), auto(v, n))


def test_hc_swap_swaps_the_matchings():
    for n in (2, 4, 6):
        half = 1 << (n - 1)
        for v in range(half):
            assert hc_swap_label(v, n) == v
            assert hc_swap_label(h_label(v, n), n) == c_label(v, n)
            assert hc_swap_label(c_label(v, n), n) == h_label(v, n)


@settings(max_examples=200)
@given(st.integers(2, 8), st.data())
def test_label_translations_preserve_adjacency(n, data):
    g = AugmentedCube(n)
    u = data.draw(st.integers(0, g.order - 1))
    v = data.draw(st.integers(0, g.order - 1))
    mask = data.draw(st.integers(0, g.order - 1))
    assert g.adjacent_labels(u, v) == g.adjacent_labels(u ^ mask, v ^ mask)


# ---------------------------------------------------------------------------
# side isomorphisms, subcubes, views
# ---------------------------------------------------------------------------

# The two cross matchings restricted to the lower copy are isomorphisms
# onto the upper copy: "H" keeps the trailing bits, "C" complements them.
SIDE_MAPS = {"H": h_label, "C": c_label}


def test_side_isomorphism_examples():
    assert SIDE_MAPS["H"](b("0011"), 4) == b("1011")
    assert SIDE_MAPS["C"](b("0011"), 4) == b("1100")
    g = AugmentedCube(3)
    assert g.adjacent_labels(SIDE_MAPS["C"](b("000"), 3), SIDE_MAPS["C"](b("001"), 3))


@pytest.mark.parametrize("kind", ["H", "C"])
def test_side_isomorphisms_preserve_adjacency_exhaustive(kind):
    iso = SIDE_MAPS[kind]
    for n in range(2, 7):
        g = AugmentedCube(n)
        half = 1 << (n - 1)
        assert sorted(iso(v, n) for v in range(half)) == list(range(half, 2 * half))
        for u, v in itertools.combinations(range(half), 2):
            assert g.adjacent_labels(u, v) == g.adjacent_labels(iso(u, n), iso(v, n))


def test_sub_cube_vertices():
    # the labels extending a prefix are a range, and they induce a copy of
    # the cube of dimension dim - len(prefix)
    g4 = AugmentedCube(4)
    assert side_view(g4, 0b1010).allowed == range(0b1000, 0b10000)
    for prefix, rest in ((0b1, 3), (0b10, 2), (0b011, 1)):
        base = prefix << rest
        sub = AugmentedCube(rest)
        for u, v in itertools.combinations(range(1 << rest), 2):
            assert g4.adjacent_labels(base | u, base | v) == sub.adjacent_labels(u, v)
    # the quarter 10.. induces a complete graph on 4 vertices
    for u, v in itertools.combinations(range(0b1000, 0b1100), 2):
        assert g4.adjacent_labels(u, v)


def test_graph_view_restriction():
    g = AugmentedCube(4)
    lower = side_view(g, 0b0101)
    assert lower.allowed == range(8)
    # the induced half is a copy of the cube one dimension down
    g3 = AugmentedCube(3)
    for v in range(8):
        below = sorted(v ^ d for d in adjacency_deltas(4) if v ^ d in lower.allowed)
        assert below == sorted(v ^ d for d in adjacency_deltas(3))
    # the whole cube is the view of every label, a range even at n = 62
    assert g.view().allowed == range(g.order)
    full = AugmentedCube(62).view()
    assert full.allowed == range(2**62)
    assert [v in full.allowed for v in (0, 2**62 - 1, 2**62)] == [True, True, False]


def test_side_view_is_a_label_range_at_dim_62():
    out = run_bounded(
        "from aqsteiner.topology import AugmentedCube, side_view\n"
        "g = AugmentedCube(62)\n"
        "for v in (5, 2**61 + 5):\n"
        "    view = side_view(g, v)\n"
        "    print(v in view.allowed, v ^ 2**61 in view.allowed, len(view.allowed) == 2**61)\n"
    )
    assert out.split() == ["True", "False", "True"] * 2


def test_vertex_parsing_roundtrip():
    v = parse_vertex("0101")
    assert v == Vertex(5, 4)
    assert v.label() == "0101"
    with pytest.raises(ContractViolation):
        parse_vertex("01x1")
    with pytest.raises(ContractViolation):
        parse_vertex("")


@given(st.integers(1, 16), st.data())
def test_vertex_label_roundtrip_property(n, data):
    bits = data.draw(st.integers(0, (1 << n) - 1))
    v = Vertex(bits, n)
    assert parse_vertex(v.label()) == v


def test_dim_cap():
    with pytest.raises(ContractViolation):
        AugmentedCube(63)
    with pytest.raises(ContractViolation):
        AugmentedCube(0)
