import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aqsteiner.topology import (
    AugmentedCube,
    ContractViolation,
    Side,
    Vertex,
    c_image,
    complement_automorphism,
    h_image,
    hc_swap_automorphism,
    is_adjacent,
    neighbors,
    parse_vertex,
    side_isomorphism,
    side_view,
    split_side,
    sub_cube_vertices,
)

from util import recursive_edges, run_bounded


def labels(g, vs):
    return sorted(v.label() for v in vs)


# ---------------------------------------------------------------------------
# neighbours and adjacency
# ---------------------------------------------------------------------------

def test_neighbors_examples():
    g3 = AugmentedCube(3)
    assert labels(g3, neighbors(g3, parse_vertex("000"))) == ["001", "010", "011", "100", "111"]
    g1 = AugmentedCube(1)
    assert labels(g1, neighbors(g1, Vertex(0, 1))) == ["1"]
    g4 = AugmentedCube(4)
    assert labels(g4, neighbors(g4, parse_vertex("0000"))) == sorted(
        ["1000", "0100", "0010", "0001", "1111", "0111", "0011"]
    )


def test_neighbors_dimension_mismatch():
    g = AugmentedCube(3)
    with pytest.raises(ContractViolation):
        neighbors(g, Vertex(0, 4))


def test_is_adjacent_examples():
    g = AugmentedCube(3)
    assert is_adjacent(g, parse_vertex("000"), parse_vertex("111"))
    assert not is_adjacent(g, parse_vertex("001"), parse_vertex("100"))
    assert not is_adjacent(g, parse_vertex("000"), parse_vertex("000"))


def test_regularity_dims_1_to_8():
    for n in range(1, 9):
        g = AugmentedCube(n)
        for v in range(g.order):
            nb = g.neighbor_labels(v)
            assert len(nb) == len(set(nb)) == 2 * n - 1 if n > 1 else 1
            assert v not in nb


def test_closed_form_matches_recursive_definition_dims_1_to_8():
    for n in range(1, 9):
        g = AugmentedCube(n)
        closed = {
            frozenset({u, w})
            for u in range(g.order)
            for w in g.neighbor_labels(u)
        }
        assert closed == set(recursive_edges(n))


def test_adjacency_symmetry_sampled():
    g = AugmentedCube(6)
    for u in range(0, g.order, 7):
        for w in g.neighbor_labels(u):
            assert u in g.neighbor_labels(w)


# ---------------------------------------------------------------------------
# split, images, matchings
# ---------------------------------------------------------------------------

def test_split_side():
    assert split_side(parse_vertex("0110")) is Side.ZERO
    assert split_side(parse_vertex("1001")) is Side.ONE
    with pytest.raises(ContractViolation):
        split_side(Vertex(0, 1))


def test_images_examples():
    assert h_image(parse_vertex("0101")) == parse_vertex("1101")
    assert c_image(parse_vertex("0101")) == parse_vertex("1010")
    assert c_image(parse_vertex("001")) == parse_vertex("110")


def test_images_cross_and_adjacent():
    for n in (2, 3, 4, 5):
        g = AugmentedCube(n)
        half = 1 << (n - 1)
        for b in range(half):
            v = Vertex(b, n)
            hv, cv = h_image(v), c_image(v)
            assert split_side(hv) is Side.ONE and split_side(cv) is Side.ONE
            assert hv != cv
            assert is_adjacent(g, v, hv) and is_adjacent(g, v, cv)


def test_quarter_property():
    # of the two cross partners of a lower vertex, exactly one lands in
    # the 10 quarter and the other in the 11 quarter
    for n in (3, 4, 5, 6):
        shift = n - 2
        for b in range(1 << (n - 1)):
            v = Vertex(b, n)
            quarters = {h_image(v).bits >> shift, c_image(v).bits >> shift}
            assert quarters == {0b10, 0b11}


def test_cross_matchings_are_disjoint_perfect_matchings():
    for n in (2, 3, 4, 5, 6):
        half = 1 << (n - 1)
        h_edges = {frozenset({v, h_image(Vertex(v, n)).bits}) for v in range(half)}
        c_edges = {frozenset({v, c_image(Vertex(v, n)).bits}) for v in range(half)}
        assert len(h_edges) == len(c_edges) == half
        assert not h_edges & c_edges
        assert {w for e in h_edges for w in e} == set(range(1 << n))
        assert {w for e in c_edges for w in e} == set(range(1 << n))


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

def test_complement_automorphism_examples():
    assert complement_automorphism(parse_vertex("0000")) == parse_vertex("1111")
    g = AugmentedCube(3)
    u, v = parse_vertex("000"), parse_vertex("011")
    assert is_adjacent(g, u, v)
    assert is_adjacent(g, complement_automorphism(u), complement_automorphism(v))
    assert complement_automorphism(complement_automorphism(u)) == u


@pytest.mark.parametrize("auto", [complement_automorphism, hc_swap_automorphism])
def test_automorphisms_preserve_adjacency_exhaustive(auto):
    for n in range(2, 7):
        g = AugmentedCube(n)
        for u, v in itertools.combinations(range(g.order), 2):
            a, b = Vertex(u, n), Vertex(v, n)
            assert is_adjacent(g, a, b) == is_adjacent(g, auto(a), auto(b))


def test_hc_swap_swaps_the_matchings():
    for n in (2, 4, 6):
        half = 1 << (n - 1)
        for b in range(half):
            v = Vertex(b, n)
            assert hc_swap_automorphism(v) == v
            assert hc_swap_automorphism(h_image(v)) == c_image(v)
            assert hc_swap_automorphism(c_image(v)) == h_image(v)


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

def test_side_isomorphism_examples():
    assert side_isomorphism("H", parse_vertex("0011")) == parse_vertex("1011")
    assert side_isomorphism("C", parse_vertex("0011")) == parse_vertex("1100")
    g = AugmentedCube(3)
    img = (side_isomorphism("C", parse_vertex("000")), side_isomorphism("C", parse_vertex("001")))
    assert is_adjacent(g, *img)
    with pytest.raises(ContractViolation):
        side_isomorphism("H", parse_vertex("1000"))
    with pytest.raises(ContractViolation):
        side_isomorphism("X", parse_vertex("0000"))


@pytest.mark.parametrize("kind", ["H", "C"])
def test_side_isomorphisms_preserve_adjacency_exhaustive(kind):
    for n in range(2, 7):
        g = AugmentedCube(n)
        half = 1 << (n - 1)
        for u, v in itertools.combinations(range(half), 2):
            a, b = Vertex(u, n), Vertex(v, n)
            assert is_adjacent(g, a, b) == is_adjacent(
                g, side_isomorphism(kind, a), side_isomorphism(kind, b)
            )


def test_sub_cube_vertices():
    g3 = AugmentedCube(3)
    assert labels(g3, sub_cube_vertices(g3, "1")) == ["100", "101", "110", "111"]
    assert len(sub_cube_vertices(g3, "")) == 8
    g4 = AugmentedCube(4)
    quarter = sub_cube_vertices(g4, "10")
    assert len(quarter) == 4
    for a, b in itertools.combinations(sorted(quarter), 2):
        assert is_adjacent(g4, a, b)  # induces a complete graph on 4 vertices
    with pytest.raises(ContractViolation):
        sub_cube_vertices(g3, "111")


def test_graph_view_restriction():
    g = AugmentedCube(4)
    lower = side_view(g, Side.ZERO)
    assert lower.vertex_labels() == list(range(8))
    # the induced half is a copy of the cube one dimension down
    g3 = AugmentedCube(3)
    for v in range(8):
        assert lower.neighbor_labels(v) == g3.neighbor_labels(v)


def test_side_view_is_a_label_range_at_dim_62():
    out = run_bounded(
        "from aqsteiner.topology import AugmentedCube, Side, side_view\n"
        "view = side_view(AugmentedCube(62), Side.ONE)\n"
        "print(view.contains_label(2**61), view.contains_label(5), len(view.allowed) == 2**61)\n"
    )
    assert out.split() == ["True", "False", "True"]


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
