import functools
import hashlib
import itertools
import operator
import random

import pytest

from aqsteiner.paths import (
    MinCut,
    PathSystem,
    connector_tree,
    cube_paths,
    disjoint_paths,
    fan,
    geodesic,
    map_path_system,
    path_edges,
    reorder_paths,
)
from aqsteiner import paths
from aqsteiner.construct import classify, construct
from aqsteiner.topology import (
    AugmentedCube,
    ContractViolation,
    GraphView,
    Vertex,
    adjacency_deltas,
    c_label,
    gray,
    h_label,
    side_view,
)
from aqsteiner.verify import check_path_system

from util import (
    brute_min_vertex_cut,
    inverse_gray,
    max_disjoint_paths_brute,
    recursive_adjacency_masks,
    recursive_edges,
    reference_check_path_system,
    reference_flow_paths,
)


def system(n, u, v, k):
    return disjoint_paths(AugmentedCube(n).view(), u, v, k)


# ---------------------------------------------------------------------------
# disjoint path systems
# ---------------------------------------------------------------------------

def test_seven_paths_across_dim4():
    res = system(4, 0b0000, 0b1111, 7)
    assert isinstance(res, PathSystem)
    assert len(res.paths) == 7
    assert check_path_system(AugmentedCube(4).view(), res) == []


def test_dim4_eighth_path_is_impossible():
    res = system(4, 0b0000, 0b1111, 8)
    assert isinstance(res, MinCut)
    assert res.size == 7


def test_dim3_min_cut_witness_of_size_four():
    # the dimension-3 cube is only 4-connected; find a witnessing pair by
    # brute force and make the engine produce the same bound
    masks = recursive_adjacency_masks(3)
    found = None
    for u, v in itertools.combinations(range(8), 2):
        cut = brute_min_vertex_cut(masks, 3, u, v)
        if cut == 4:
            found = (u, v)
            break
    assert found is not None
    res = system(3, found[0], found[1], 5)
    assert isinstance(res, MinCut)
    assert not res.uses_direct_edge
    assert res.size == 4
    # the witness actually separates
    allowed = (1 << 8) - 1
    for w in res.separator:
        allowed &= ~(1 << w)
    from util import reachable_mask

    assert not reachable_mask(masks, allowed, found[0]) >> found[1] & 1


def test_direct_edge_single_path_in_dim2():
    res = system(2, 0b00, 0b11, 1)
    assert isinstance(res, PathSystem)
    assert res.paths == ((0b00, 0b11),)


def test_contract_errors():
    g = AugmentedCube(3)
    with pytest.raises(ContractViolation):
        disjoint_paths(g.view(), 0, 0, 1)
    with pytest.raises(ContractViolation):
        disjoint_paths(g.view(), 0, 1, 0)
    for label in (-1, 8):  # endpoints must be labels of the cube
        with pytest.raises(ContractViolation):
            disjoint_paths(g.view(), 0, label, 1)


def test_check_path_system_names_each_problem():
    # AQ_3 edges flip one bit (1, 2, 4) or a low block (3, 7); 5 and 6
    # are non-edges.  One small bad system per problem the check reports.
    g = AugmentedCube(3)
    full, lower = g.view(), side_view(g, 0)
    cases = [
        (full, PathSystem(0, 0, ()), ["source equals sink"]),
        (full, PathSystem(0, 7, ((0,),)), ["path 0 has fewer than two vertices"]),
        (full, PathSystem(0, 7, ((0, 1),)), ["path 0 does not run source to sink"]),
        (full, PathSystem(0, 7, ((0, 1, 0, 7),)), ["path 0 repeats a vertex"]),
        (full, PathSystem(0, 7, ((0, 5, 7),)), ["path 0 uses non-edge 000-101"]),
        # 000-100 is a cube edge, but 100 lies outside the lower half-copy
        (lower, PathSystem(0, 3, ((0, 4, 3),)), ["path 0 uses non-edge 000-100", "path 0 uses non-edge 100-011"]),
        (full, PathSystem(0, 7, ((0, 7), (0, 7))), ["edge 000-111 appears in paths 0 and 1"]),
        (full, PathSystem(0, 7, ((0, 1, 3, 7), (0, 2, 3, 4, 7))), ["inner vertex 011 shared by paths 0 and 1"]),
    ]
    for view, ps, problems in cases:
        assert check_path_system(view, ps) == problems == reference_check_path_system(view, ps), ps
    assert check_path_system(full, PathSystem(0, 7, ((0, 7), (0, 1, 3, 7), (0, 2, 6, 7)))) == []

    # The one-pass accept against the reference: whole fans, which it
    # accepts, and fans broken one way each, which go on to the report.
    def same(view, ps, valid):
        problems = check_path_system(view, ps)
        assert problems == reference_check_path_system(view, ps), (view.dim, ps)
        assert (problems == []) == valid, (view.dim, ps, problems)

    rng = random.Random(3)
    whole = [(m, d) for m in range(4, 9) for d in range(1, 1 << m)]
    for m, d in whole + [(m, rng.randrange(1, 1 << m)) for m in range(9, 63)]:
        same(AugmentedCube(m).view(), fan(m, d), True)
    for m, d in [(6, 0b101101), (6, 0b000011), (9, 0b100000001), (20, rng.randrange(1 << 19))]:
        g = AugmentedCube(m)
        ps = fan(m, d)
        p, q = sorted(ps.paths, key=len)[-2:]  # two paths with inner vertices
        direct = next((x for x in ps.paths if len(x) == 2), (0, d))

        def swap(path, new):
            return PathSystem(0, d, tuple(new if x == path else x for x in ps.paths))

        for bad in (
            swap(q, q[:3] + q[1:]),  # a repeated inner vertex
            swap(q, (0, q[1], 0) + q[1:]),  # an inner vertex equal to an end
            swap(q, q[:1] + (q[1] ^ (1 << m - 1) ^ 1,) + q[1:]),  # a non-edge step
            swap(q, p),  # a shared inner vertex
            PathSystem(0, d, ps.paths + (direct,)),  # a second direct path
            swap(q, q[:-1]),  # a wrong end
            PathSystem(0, d, ps.paths + ((0,),)),  # a one-vertex path
            PathSystem(d, d, ((d,),)),  # the same, from a sink to itself
            map_path_system((1 << m).__xor__, ps),  # every label >= 2^dim
        ):
            same(g.view(), bad, False)
        # steps along the deltas, on labels past either end of the cube
        for outside in (map_path_system((1 << m).__xor__, ps), map_path_system(operator.invert, ps)):
            same(GraphView(g, range(-g.order, 2 * g.order)), outside, False)
        if direct in ps.paths:
            # a wrong end offset by a path one vertex longer, so that the
            # label count still matches
            rest = tuple(x for x in ps.paths if x not in (q, direct))
            same(g.view(), PathSystem(0, d, (q[:-1], (0, d, p[-2])) + rest), False)
            same(g.view(), PathSystem(0, d, (q[1:], (p[1], 0, d)) + rest), False)
        if d < 1 << m - 1:
            # the fan runs through the upper half-copy
            same(side_view(g, 0), ps, False)
        if m <= 9:
            everything = frozenset(range(g.order))
            same(GraphView(g, everything), ps, True)
            same(GraphView(g, everything - {q[1]}), ps, False)


def test_menger_agreement_exhaustive_small_dims():
    # flow value == brute-force maximum of internally disjoint paths,
    # for every pair, dimensions 2..4
    for n in (2, 3, 4):
        g = AugmentedCube(n)
        masks = recursive_adjacency_masks(n)
        for u, v in itertools.combinations(range(g.order), 2):
            res = disjoint_paths(g.view(), u, v, g.degree)
            value = g.degree if isinstance(res, PathSystem) else res.size
            assert value == max_disjoint_paths_brute(masks, n, u, v), (n, u, v)


def test_disjoint_paths_refuses_whole_cubes_above_dim_4():
    # the refusal comes before any search, so AQ_40 costs nothing
    for n in (5, 40):
        with pytest.raises(ContractViolation, match="only on a whole AQ_m with m <= 4"):
            disjoint_paths(AugmentedCube(n).view(), 0, 1, 3)


def test_flow_matches_the_reference_on_whole_cube_fans():
    # the flow and the reference augment along the same paths, so path
    # lists and cut separators are equal, not just flow values; k = 2m
    # forces a cut, since 0 has 2m - 1 neighbours
    for m in range(1, 8):
        view = AugmentedCube(m).view()
        for d in range(1, 1 << m):
            for k in (2 * m - 1, 2 * m):
                got = paths._flow_paths(m, 0, d, k)
                assert got == reference_flow_paths(view, 0, d, k), (m, d, k)
                if k == 2 * m:
                    assert got[0] is None, (m, d)


def test_flow_matches_the_reference_on_every_pair():
    # each half-copy of AQ_n is AQ_(n-1) on the low bits, so the
    # reference on the half-copy, with the top bit cleared, is the flow
    # on the smaller whole cube
    for n in range(2, 6):
        g = AugmentedCube(n)
        m = n - 1
        for base in (0, 1 << m):
            view = side_view(g, base)
            for u, v in itertools.permutations(range(1 << m), 2):
                for k in sorted({k for k in (1, m, 2 * m - 3, 2 * m - 1, 2 * m, 2 * m + 1) if k >= 1}):
                    label_paths, cut = reference_flow_paths(view, u | base, v | base, k)
                    if label_paths is not None:
                        label_paths = [[w ^ base for w in p] for p in label_paths]
                    want = (label_paths, [w ^ base for w in cut])
                    assert paths._flow_paths(m, u, v, k) == want, (n, base, u, v, k)


def test_flow_matches_the_reference_on_every_whole_cube_request():
    # every ordered pair and every k up to 2m + 1 of the cubes the flow
    # serves, which reach cuts, adjacent pairs and cancellations along
    # edge arcs
    for m in range(1, 5):
        g = AugmentedCube(m)
        view = g.view()
        edges = recursive_edges(m)
        for s, t in itertools.permutations(range(g.order), 2):
            for k in range(1, 2 * m + 2):
                got = paths._flow_paths(m, s, t, k)
                assert got == reference_flow_paths(view, s, t, k), (m, s, t, k)
                label_paths, cut = got
                if label_paths is None:
                    # fewer than k: the cut, plus the direct edge of an
                    # adjacent pair, which the search below leaves out;
                    # together they separate s from t
                    assert len(cut) + (frozenset({s, t}) in edges) < k
                    reach, stack = {s, *cut}, [s]
                    while stack:
                        x = stack.pop()
                        for w in range(g.order):
                            if frozenset({x, w}) in edges and w not in reach and (x, w) != (s, t):
                                reach.add(w)
                                stack.append(w)
                    assert t not in reach


# sha256 of repr(paths) for the full 0 -> d fan ``fan(m, d)`` at the
# dimensions the CLI serves, with d drawn by random.Random(14): four draws
# at m = 13, four at m = 20, then one each at m = 32, 45 and 62; and the
# four d that the top level reflects at m = 33 and 62 (gray(d) = top +
# {0, e2} + {0, e3}).  Recorded with the fans built by induction from AQ_4
# in Gray coordinates, before the induction moved onto labels.
LARGE_FAN_DIGESTS = {
    (13, 0x36C): "63945810b8dbb463caeb9a878376e2a982b1ba3324ab162b7a88c6c0ba4dff1b",
    (13, 0x13B6): "5dddc025e3bd15373ba7b46c48a83ae7535dbf20d14988b7d848cf3adc569555",
    (13, 0x167C): "c2063ab24d2cc262f34099c435a61120aea8eb517dc7470fd65fee807b302d6b",
    (13, 0x182B): "7e829070c1f7b7b1cfecf77f0ddadff6930675a9e9d14d07c50f113358e5ec11",
    (20, 0x3F373): "ee84b08deebc11a49bf3fd6914b324cc6e9f64d43a55fcef924d5d8d86759087",
    (20, 0x86F0D): "118cae02c7cdc3f122c92c75d6e43734308258ede43487d7fa44e13d5a9216af",
    (20, 0xA6EC4): "cb3255724f8db87afa3ce6aede894fdad518a53e97cfd9275dedcf28b9ac71b3",
    (20, 0xF0BAF): "261ead66d757eb38919d7cc3666d5872e91991ae5c0088a9f7c64ba26ad89e0c",
    (32, 0x4567CEB2): "7456fdfe52e51b46715f26a6bf235f51172576c06a33cc67f7286393fc5e2c59",
    (45, 0x82FBC319995): "c6ef30db2f89ca9ea1a41bb1a30b1d97596bca9531af72163eb15e3d349d2711",
    (62, 0x2EFAD4234A800647): "d5c6ac4fdd5166bc493505e49dc19fa1926ba836554206e100dd5fb661ae9b29",
    (33, 0x100000000): "260b428fc84a7b0f508bea36593b4a7008b6a5a6d6a6e4eaf0784f1d250d49ec",
    (33, 0x17FFFFFFF): "9f143977468bc073ff9908f6f9174c1984e8821981a3a2e7bee378a19b129e2c",
    (33, 0x180000000): "a34d40b3c0ba2e9200919d9d396d6b833dca875d0e3f410faa126332b511a8f4",
    (33, 0x1FFFFFFFF): "7dd035ee6d745a8df80a5da9a061170e9b812bd2a27b20a0a3c00cd865b92533",
    (62, 0x2000000000000000): "2b7ed5cfa35d9eff64998e5cdd775bf2ed0e4aaa858f23bd44aaf3ef8f8fd285",
    (62, 0x2FFFFFFFFFFFFFFF): "91c5a2bf3587e67cbe339834f9bc66dd84b197de11d203b6ee7b231654186d8f",
    (62, 0x3000000000000000): "b2c8f3b58aaeae67dbdf661b8e5b56a3ab0baaf43dc22e480b3023596efed325",
    (62, 0x3FFFFFFFFFFFFFFF): "547c96d0a25a141c07e60d7f0d522eba6fa4b807da4b32bc55479319f5ab50ee",
}

# One sha256 per m over repr(paths) of every fan(m, d), d = 1 .. 2^m - 1 in
# ascending order, recorded with the same Gray-coordinate fans.
FAN_DIGESTS_BY_DIM = {
    4: "e4aeb81e5c106d2c9f8371786b06c561dc6e1b257f576f7e54023cd6567f708c",
    5: "c6969738037cf709aba529a029b7886b01a71088a8be1454765cec39739afc4e",
    6: "b88e3d6b09f1ff1ba01666441baa7704af125de9771c0cda752641b7b0375c07",
    7: "c2a4793121970de76cf1804c34dc1de1388c83dfbc7492b2043c15c5ac45e4f5",
    8: "95abb41bc5bda7a96554323f09d65b1d11a6543dc90bd227d8d6d860f0e5b1e6",
    9: "ff354ebea3d4f7d46983c16b7d7d7a0dabb49130f174f290f73d07c0f4e845b8",
    10: "75047faba516fdc4ce4b932348f69d6c3b8c4355dabae07547ff185db3e67021",
    11: "7d2a026721b532cc9bbe745b50f3a57b553040c09478bfa11bc323d8da7e72c1",
}


def test_large_dimension_fans_are_pinned():
    for (m, d), digest in LARGE_FAN_DIGESTS.items():
        assert hashlib.sha256(repr(fan(m, d).paths).encode()).hexdigest() == digest, (m, hex(d))


def test_determinism_repeat_calls():
    a = system(4, 0, 15, 7)
    b = system(4, 0, 15, 7)
    assert a == b


# ---------------------------------------------------------------------------
# the memo of whole small-cube systems
# ---------------------------------------------------------------------------

def test_whole_small_cube_requests_come_from_the_memo(cold_cube_memo):
    # every request on a whole cube the solver serves, up to k = 2m + 3,
    # first on a cleared memo, then on a warm one: each answer is the
    # unmemoised solve, a repeat is the same object, and every k >= 2m
    # shares the answer to k = 2m, the first that no path system meets
    for _ in ("cold", "warm"):
        for m in range(1, 5):
            g = AugmentedCube(m)
            for u, v in itertools.permutations(range(g.order), 2):
                for k in range(1, 2 * m + 4):
                    got = disjoint_paths(g.view(), u, v, k)
                    assert got == cold_cube_memo.__wrapped__(m, u, v, k), (m, u, v, k)
                    assert disjoint_paths(g.view(), u, v, k) is got
                    if k >= 2 * m:
                        assert isinstance(got, MinCut) and got is disjoint_paths(g.view(), u, v, 2 * m), (m, u, v, k)
    # 4 + 48 + 336 + 1,920 keys: k = 1..2m on each ordered pair
    assert cold_cube_memo.cache_info().currsize == 2308


def test_other_views_raise_and_leave_the_memo_alone(cold_cube_memo, monkeypatch):
    searched = []
    real = paths._flow_paths

    def recording(m, s, t, k):
        searched.append(k)
        return real(m, s, t, k)

    monkeypatch.setattr(paths, "_flow_paths", recording)
    g = AugmentedCube(4)
    system(4, 0, 15, 7)
    assert cold_cube_memo.cache_info().currsize == 1 and searched == [7]
    requests = [
        (side_view(g, 0), 0, 5, 3),
        (GraphView(g, frozenset({0, 1, 3, 7, 15})), 0, 15, 2),
        (GraphView(g, frozenset(range(16))), 0, 15, 7),  # whole, but not a range
        (AugmentedCube(5).view(), 0, 31, 3),
    ]
    for view, u, v, k in requests:
        with pytest.raises(ContractViolation, match="only on a whole AQ_m with m <= 4"):
            disjoint_paths(view, u, v, k)
    assert cold_cube_memo.cache_info().currsize == 1
    assert searched == [7]


def test_a_path_system_that_fails_its_check_raises_and_is_not_kept(cold_cube_memo, monkeypatch):
    # 0110 is no delta of AQ_4, so 0000-0110 is a non-edge
    monkeypatch.setattr(paths, "_flow_paths", lambda m, s, t, k: ([[s, t]], []))
    with pytest.raises(AssertionError, match="invalid path system.*non-edge 0000-0110"):
        system(4, 0, 6, 1)
    assert cold_cube_memo.cache_info().currsize == 0


def test_a_base_fan_short_of_full_raises(cold_cube_memo, monkeypatch):
    monkeypatch.setattr(paths, "_flow_paths", lambda m, s, t, k: (None, [1, 2, 3]))
    with pytest.raises(AssertionError, match="AQ_4 admits only 3 disjoint paths to 0101"):
        fan(4, 5)


# ---------------------------------------------------------------------------
# neighbour bookkeeping and reordering
# ---------------------------------------------------------------------------

def test_endpoint_neighbours_are_distinct_across_paths():
    res = system(4, 0, 15, 7)
    g = AugmentedCube(4)
    # path i leaves the source through paths[i][1] and enters the sink
    # through paths[i][-2]
    for endpoint, nbrs in ((res.source, [p[1] for p in res.paths]), (res.sink, [p[-2] for p in res.paths])):
        assert len(set(nbrs)) == 7
        for w in nbrs:
            assert g.adjacent_labels(endpoint, w)
    # on a direct edge the sink's neighbour is the source, and vice versa
    edge = system(2, 0b00, 0b11, 1)
    assert (edge.paths[0][1], edge.paths[0][-2]) == (edge.sink, edge.source)


def test_reorder_pins_direct_edge_first():
    x, y = 0, 15  # adjacent (all bits differ)
    res = system(4, x, y, 7)
    assert isinstance(res, PathSystem)
    pinned = reorder_paths(res, [x])
    assert pinned.paths[0] == (x, y)
    # stability: unpinned paths keep relative order
    rest = [p for p in res.paths if p != pinned.paths[0]]
    assert list(pinned.paths[1:]) == rest


def test_reorder_empty_and_conflicts():
    res = system(4, 0, 6, 7)  # 0000 and 0110 are not adjacent
    assert isinstance(res, PathSystem)
    assert reorder_paths(res, []) == res
    nb0, nb1 = res.paths[0][-2], res.paths[1][-2]
    # path 1 first, then every other path in its order
    assert reorder_paths(res, [nb1]).paths == (res.paths[1], res.paths[0], *res.paths[2:])
    assert reorder_paths(res, [nb1, nb0]).paths == (res.paths[1], res.paths[0], *res.paths[2:])
    with pytest.raises(ContractViolation, match="pinned twice"):
        reorder_paths(res, [nb0, nb1, nb0])
    with pytest.raises(ContractViolation, match="no path"):
        reorder_paths(res, [nb0, 0])  # the source is nobody's sink neighbour here


# ---------------------------------------------------------------------------
# mapping systems through isomorphisms
# ---------------------------------------------------------------------------

def test_map_path_system_examples():
    n = 3
    g = AugmentedCube(n)
    p = PathSystem(0b000, 0b001, ((0b000, 0b001),))
    image = map_path_system(lambda v: c_label(v, n), p)
    assert (image.source, image.sink) == (0b111, 0b110)
    assert check_path_system(g.view(), image) == []
    assert map_path_system(lambda v: v, p) == p
    himg = map_path_system(lambda v: h_label(v, n), p)
    assert (himg.source, himg.sink) == (0b100, 0b101)


# the cross matchings map the lower half onto the upper one; c_label is
# also the complement automorphism of the whole cube
@pytest.mark.parametrize("label_map", [h_label, c_label], ids=["h_image", "c_image"])
def test_map_preserves_system_invariants_dim4_lower_half(label_map):
    # the lower half of AQ_4 is AQ_3 on the same labels
    full = AugmentedCube(4).view()
    for u, v in itertools.combinations(range(8), 2):
        res = system(3, u, v, 5)
        if isinstance(res, MinCut):
            continue
        mapped = map_path_system(lambda w: label_map(w, 4), res)
        assert check_path_system(full, mapped) == []


# ---------------------------------------------------------------------------
# fans built by induction
# ---------------------------------------------------------------------------

def assert_full_fan(m, d):
    ps = fan(m, d)
    assert (ps.source, ps.sink, len(ps.paths)) == (0, d, 2 * m - 1), (m, d)
    assert check_path_system(AugmentedCube(m).view(), ps) == [], (m, d)
    return ps


@pytest.mark.parametrize("m", range(4, 12))
def test_full_fan_every_d(m):
    # the constructor splices these fans with no fallback: every d needs
    # all 2m - 1 disjoint paths in the whole cube; and every fan is pinned.
    # Up to m = 8 a second, warm pass must match too: the fans are built
    # by editing lists in place, and an edit that reached a memo (the
    # small-cube systems of disjoint_paths) would change the warm fans
    for _ in range(2 if m <= 8 else 1):
        digest = hashlib.sha256()
        for d in range(1, 1 << m):
            digest.update(repr(assert_full_fan(m, d).paths).encode())
        assert digest.hexdigest() == FAN_DIGESTS_BY_DIM[m]


def test_reflect_reverses_the_gray_bits():
    # the closed form against the Gray definition: every v up to m = 12,
    # then seeded draws
    rng = random.Random(5)
    for m in range(2, 63):
        for v in range(1 << m) if m <= 12 else [rng.randrange(1 << m) for _ in range(1000)]:
            assert paths._reflect(m, v) == inverse_gray(int(f"{gray(v):0{m}b}"[::-1], 2)), (m, v)


def test_full_fan_sampled_d_up_to_dim_62():
    # per m, seeded draws and the four d that the top level reflects:
    # gray(d) = top + {0, e2} + {0, e3}
    rng = random.Random(21)
    for m in range(14, 63):
        top = 1 << (m - 1)
        reflected = [inverse_gray(top | e2 | e3) for e2 in (0, top >> 1) for e3 in (0, top >> 2)]
        for d in reflected + [rng.randrange(1, 1 << m) for _ in range(4)]:
            assert_full_fan(m, d)


# ---------------------------------------------------------------------------
# whole-cube path systems
# ---------------------------------------------------------------------------

def assert_cube_paths_match_the_flow(g, u, v):
    # AQ_n is (2n - 1)-connected above n = 4: the reference flow finds
    # 2n - 1 paths, and past that its cut is u's neighbourhood less v
    view, k = g.view(), g.degree
    ps = cube_paths(g, u, v, k)
    assert isinstance(ps, PathSystem) and (ps.source, ps.sink) == (u, v)
    assert len(ps.paths) == len(reference_flow_paths(view, u, v, k)[0]) == k, (g.dim, u, v)
    assert list(ps.paths) == sorted(ps.paths) and check_path_system(view, ps) == [], (g.dim, u, v)
    assert cube_paths(g, u, v, 3).paths == ps.paths[:3]
    adjacent = frozenset({u, v}) in recursive_edges(g.dim)
    for extra in (1, 4):
        label_paths, separator = reference_flow_paths(view, u, v, k + extra)
        assert label_paths is None, (g.dim, u, v, k + extra)
        assert cube_paths(g, u, v, k + extra) == MinCut(u, v, tuple(separator), adjacent), (g.dim, u, v, k + extra)


@pytest.mark.parametrize("n", [5, 6])
def test_cube_paths_match_the_flow_from_0(n):
    g = AugmentedCube(n)
    for w in range(1, g.order):
        assert_cube_paths_match_the_flow(g, 0, w)


def test_cube_paths_match_the_flow_on_sampled_pairs():
    rng = random.Random(24)
    for n in range(7, 10):
        g = AugmentedCube(n)
        pairs = [(0, 1), (0, g.order - 1)] + [tuple(rng.sample(range(g.order), 2)) for _ in range(6)]
        for u, v in pairs:
            assert_cube_paths_match_the_flow(g, u, v)


def test_cube_paths_never_search_a_cube_above_dim_4(monkeypatch):
    # only the AQ_4 base of the fans runs the flow; a warm memo would
    # answer every base request without one
    paths._cube_system.cache_clear()
    searched = []
    real = paths._flow_paths

    def recording(m, s, t, k):
        searched.append(m)
        return real(m, s, t, k)

    monkeypatch.setattr(paths, "_flow_paths", recording)
    for n in (5, 8, 13):
        g = AugmentedCube(n)
        for k in (1, g.degree, g.degree + 1):
            cube_paths(g, 3, g.order - 2, k)
    paths.connectivity(AugmentedCube(7))
    assert searched and set(searched) == {4}


def test_cube_paths_contract_errors():
    g = AugmentedCube(6)
    for u, v, k in ((5, 5, 1), (0, 1, 0), (0, 64, 1), (-1, 3, 1)):
        with pytest.raises(ContractViolation):
            cube_paths(g, u, v, k)


def bfs_distances(masks, source):
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for a in frontier:
            for b in range(len(masks)):
                if masks[a] >> b & 1 and b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
        frontier = nxt
    return dist


def test_geodesic_length_is_bfs_distance():
    for m in range(1, 8):
        masks = recursive_adjacency_masks(m)
        edges = recursive_edges(m)
        for u in range(1 << m):
            dist = bfs_distances(masks, u)
            for v in range(1 << m):
                walk = geodesic(u, v)
                assert walk[0] == u and walk[-1] == v
                assert len(walk) - 1 == dist[v], (m, u, v)
                assert all(frozenset(e) in edges for e in zip(walk, walk[1:]))
    # the word behind the walk from 0: every d < 2^10, and seeded d at every
    # m up to 62, step by deltas of the smallest cube holding d, which xor
    # to d
    rng = random.Random(31)
    for d in [*range(1 << 10), *(rng.randrange(1 << (m - 1), 1 << m) for m in range(11, 63) for _ in range(8))]:
        walk = geodesic(0, d)
        steps = [a ^ b for a, b in zip(walk, walk[1:])]
        assert set(steps) <= set(adjacency_deltas(d.bit_length())), d
        assert functools.reduce(operator.xor, steps, 0) == d


# ---------------------------------------------------------------------------
# connector trees inside quarters
# ---------------------------------------------------------------------------

def test_path_edges():
    assert path_edges((5,)) == []
    assert path_edges((0b110, 0b010, 0b011)) == [(0b010, 0b110), (0b010, 0b011)]


def test_connector_tree_examples():
    g = AugmentedCube(4)
    quarter = GraphView(g, range(0b1000, 0b1100))
    single = connector_tree(quarter, [0b1000])
    assert single == frozenset()
    pair = connector_tree(quarter, [0b1001, 0b1000])
    assert pair == frozenset({(0b1000, 0b1001)})
    three = connector_tree(quarter, [0b1000, 0b1010, 0b1011])
    vs = {w for e in three for w in e}
    assert len(three) <= 3 and len(three) == len(vs) - 1
    assert all(w >> 2 == 0b10 for w in vs)
    # at n = 6 the quarter 11.. is AQ_4: 1010 walks to 0000 by the two
    # pairs of gray(1010) = 1111, lowest first (the labels 0010, 1000)
    wide = GraphView(AugmentedCube(6), range(0b110000, 0b1000000))
    tree = connector_tree(wide, [0b110000, 0b111010])
    assert tree == {(0b111000, 0b111010), (0b110000, 0b111000)}


def _reference_connector_tree(terminals):
    """Each further terminal walks a geodesic to every tree vertex and
    keeps the least walk by (length, end label)."""
    terms = sorted(set(terminals))
    tree_vertices = {terms[0]}
    edges = set()
    for t in terms[1:]:
        walk = min((geodesic(t, w) for w in tree_vertices), key=lambda p: (len(p), p[-1]))
        tree_vertices.update(walk)
        edges.update(path_edges(walk))
    return frozenset(edges)


def test_connector_tree_picks_the_nearest_vertex_like_every_walk():
    # every set of 1-3 terminals in aligned blocks of 4, 8 and 16 labels,
    # then 200 seeded sets in a block of 2^k labels for k = 5..60, each
    # block the top quarter of AQ_(k+2)
    for k in range(2, 61):
        block = range(0b11 << k, 0b100 << k)
        view = GraphView(AugmentedCube(k + 2), block)
        if k <= 4:
            sets = [c for r in (1, 2, 3) for c in itertools.combinations(block, r)]
        else:
            rng = random.Random(7000 + k)
            sets = [[rng.choice(block) for _ in range(rng.randint(1, 3))] for _ in range(200)]
        for terminals in sets:
            assert connector_tree(view, terminals) == _reference_connector_tree(terminals), (k, terminals)


def test_connector_tree_errors():
    g = AugmentedCube(4)
    quarter = GraphView(g, range(0b1000, 0b1100))
    for outside in (0, 16, -1):
        with pytest.raises(ContractViolation):
            connector_tree(quarter, [outside])
    with pytest.raises(ContractViolation):
        connector_tree(quarter, [])
    # only 2^k-aligned label ranges: a quarter, a half, the whole cube
    for allowed in (range(0b1001, 0b1101), range(0b1000, 0b1011), frozenset(range(0b1000, 0b1100))):
        with pytest.raises(ContractViolation):
            connector_tree(GraphView(g, allowed), [0b1010])
    assert connector_tree(g.view(), [0, 0b0110])


def test_constructor_connectors_are_trees_holding_every_anchor(monkeypatch):
    built = []

    def recording(view, terminals):
        terminals = list(terminals)
        edges = connector_tree(view, terminals)
        built.append((view, terminals, edges))
        return edges

    monkeypatch.setattr(paths, "connector_tree", recording)
    rng = random.Random(11)
    for n in range(5, 9):
        g = AugmentedCube(n)
        found = 0
        while found < 25:
            labels = rng.sample(range(1 << (n - 1)), 3)
            terms = [Vertex(a, n) for a in labels]
            if classify(g, terms).case.value == "Case1":
                construct(g, terms)
                found += 1
    assert len(built) >= 2 * 25 * 4
    for view, terminals, edges in built:
        n = view.dim
        quarter = view.allowed
        assert len(quarter) == 1 << (n - 2) and quarter.start % len(quarter) == 0
        vertices = {w for e in edges for w in e} | set(terminals)
        assert all(v in quarter for v in vertices)
        assert all(frozenset(e) in recursive_edges(n) for e in edges)
        # a connected edge set with one edge fewer than vertices is a tree
        assert len(edges) == len(vertices) - 1
        reach, stack = {terminals[0]}, [terminals[0]]
        while stack:
            a = stack.pop()
            for u, w in edges:
                for x, y in ((u, w), (w, u)):
                    if x == a and y not in reach:
                        reach.add(y)
                        stack.append(y)
        assert reach == vertices
