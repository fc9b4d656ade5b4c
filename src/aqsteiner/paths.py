"""Internally disjoint path systems, full fans, geodesics, connector
trees and vertex connectivity.

Everything here works on plain int labels (see ``topology``): a path is
a tuple of labels, a ``PathSystem`` holds label paths between two
labels, and a connector tree is a set of label pairs.  Callers already
know the dimension, so no label is wrapped in a ``Vertex``.

``disjoint_paths`` is the small-cube solver: it finds k internally
disjoint u-v paths in the whole of AQ_m, m <= 4, by unit-vertex-capacity
max flow (the standard Menger reduction), and refuses every other view.
Every inner vertex is split into an in/out pair joined by a capacity-1
arc; edge arcs get capacity 2 so they can never be saturated (each
endpoint passes at most one unit), which keeps minimum cuts on the
split arcs and makes the cut witness a plain vertex set.  The one
exception is a direct u-v edge, whose arc keeps capacity 1; a witness
that needs it reports that separately, since no vertex set separates an
adjacent pair.

The residual network is implicit: arcs come from the delta set, each
vertex's closed neighbourhood being v xor 0 and every adjacency delta,
sorted, and the flow is held per vertex (a successor and a predecessor
for each inner vertex that carries a unit, and the set of the source's
successors).  The flow grows by Edmonds-Karp: one FIFO BFS per
augmenting path, taking arcs in ascending label order, so results are
reproducible across runs, thread counts and platforms.  The paths are
the walks along successors from each of the source's successors, in
ascending order.  When a BFS does not reach the sink, the cut is the in
sides it reached whose out side it did not; that reach set is the same
for every maximum flow.

``fan(m, d)``, the full fan of 2m - 1 paths from 0 to d in AQ_m, is
built by induction on m from the flow fans of AQ_4 (README, "Why every
fan is full"), each path a word of label deltas that is walked to labels
once, from 0; the fan base, ``fan(4, d)``, is the flow's own checked
system, never turned into words and back.  ``cube_paths`` answers
whole-cube requests: by ``disjoint_paths`` up to dimension 4, and above
it by the fan to u ^ v moved by u, or by u's neighbourhood as the cut.
So the fan base and ``cube_paths`` up to dimension 4 are the only
requests ``disjoint_paths`` meets, and it answers each from
``_cube_system``, an unbounded ``functools.lru_cache`` of (m, u, v,
min(k, 2m)): no path system has more than 2m - 1 paths, so every
k >= 2m ends on the same cut, and the memo holds at most 2,308 keys.
Each system is solved and checked once per process, where it is built,
and a repeat returns the same immutable object; the request itself is
checked on every call.

Connector trees need no search either: ``geodesic`` steps by the label
deltas of the shortest word for gray(u ^ v), scanned from its lowest
bit, and ``connector_tree`` grafts one geodesic per terminal inside a
quarter.

``connectivity`` runs ``cube_paths`` from 0 to every label and is exact
at every dimension, since translations are automorphisms; above
dimension 4 every answer is a full fan, so it reads 2n - 1.  ``verify``
imports only ``topology``, so this module may use its
``check_path_system`` without an import cycle.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import deque
from typing import Callable, Iterable, NamedTuple, Sequence

from .topology import AugmentedCube, ContractViolation, GraphView, adjacency_deltas, gray
from .verify import check_path_system


class PathSystem(NamedTuple):
    """Internally disjoint label paths sharing exactly their two endpoints."""

    source: int
    sink: int
    paths: tuple[tuple[int, ...], ...]


class MinCut(NamedTuple):
    """Separator witness returned when k disjoint paths do not exist.

    Removing ``separator`` (plus the direct source-sink edge when
    ``uses_direct_edge`` is set, which happens exactly for adjacent
    endpoints) disconnects source from sink.
    """

    source: int
    sink: int
    separator: tuple[int, ...]
    uses_direct_edge: bool

    @property
    def size(self) -> int:
        return len(self.separator) + (1 if self.uses_direct_edge else 0)


def undirected(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def path_edges(path: Sequence[int]) -> list[tuple[int, int]]:
    """The edges of a label path, each with its smaller label first."""
    return [(a, b) if a <= b else (b, a) for a, b in zip(path, path[1:])]


# ---------------------------------------------------------------------------
# max-flow core (labels only)
# ---------------------------------------------------------------------------

def _flow_paths(m: int, s: int, t: int, k: int) -> tuple[list[list[int]] | None, list[int]]:
    """Return (paths, []) with exactly k label paths in the whole of
    AQ_m, or (None, vertex_cut)."""
    # The flow is held per vertex: `succ` and `pred` map an inner vertex
    # carrying a unit to the vertex it passes the unit to and the one it
    # takes it from, and `first` holds s's successors.  Unit vertex
    # capacities make both maps single-valued; an inner vertex carries a
    # unit exactly when it is in `pred`.  Node 2v is v's in side and
    # 2v + 1 its out side.
    offsets = (0, *adjacency_deltas(m))
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    first: set[int] = set()

    src, dst = 2 * s + 1, 2 * t
    for _ in range(k):
        # One BFS per augmenting path, FIFO, arcs in ascending label order.
        # An out side v reaches the in sides of its neighbours, never s's,
        # and not t's from s once the direct s-t arc carries a unit; it
        # reaches its own in side only when v carries a unit.  An in side
        # reaches its own out side when its vertex is idle and its
        # predecessor's otherwise; t's in side ends the search.
        parent = {src: src}
        queue = deque([src])
        while dst not in parent:
            if not queue:
                # The nodes reachable in the residual network are the same
                # for every maximum flow, so this is the cut any augmenting
                # order ends on: the in sides reached whose out side is not
                return None, sorted(a >> 1 for a in parent if not a & 1 and a + 1 not in parent)
            a = queue.popleft()
            v = a >> 1
            if a & 1:
                heads = [
                    2 * w
                    for w in sorted(v ^ d for d in offsets)
                    if (v in pred if w == v else w != s and not (v == s and w == t and t in first))
                ]
            else:
                heads = [2 * pred.get(v, v) + 1]
            for b in heads:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        # The path alternates out sides (even positions) and in sides (odd
        # ones).  Take the flow off the edge arcs it runs back along, then
        # put it on those it runs forward along, since a vertex may lose
        # one successor and gain another; the split arcs follow.  No step
        # enters s's out side, so every arc taken off joins two inner
        # vertices.
        path = [t]
        b = dst
        while b != src:
            b = parent[b]
            path.append(b >> 1)
        path.reverse()
        for i in range(1, len(path) - 1, 2):
            w, u = path[i], path[i + 1]
            if w != u:
                del succ[u], pred[w]
        for i in range(0, len(path) - 1, 2):
            u, w = path[i], path[i + 1]
            if u != w:
                if u == s:
                    first.add(w)
                else:
                    succ[u] = w
                if w != t:
                    pred[w] = u

    # Each walk leaves s along one of its successors, in ascending order,
    # and follows succ to t.  Unit vertex capacities keep the walks
    # disjoint; a flow cycle left by cancellations is never entered.  Each
    # step pops its successor, so a broken flow raises instead of looping.
    paths: list[list[int]] = []
    for w in sorted(first):
        walk = [s, w]
        while w != t:
            w = succ.pop(w)
            walk.append(w)
        paths.append(walk)
    return paths, []


def disjoint_paths(view: GraphView, u: int, v: int, k: int) -> PathSystem | MinCut:
    """k internally disjoint u-v paths in a whole small cube, or a cut
    witness.

    The view must be ``AugmentedCube(m).view()`` with m <= 4.  Raises on
    any other view, on u == v, on k < 1 and on labels outside the cube.
    Every answer comes from ``_cube_system``, which solves and checks it
    once per process.
    """
    m = view.dim
    if m > 4 or view != view.cube.view():
        raise ContractViolation("disjoint paths are solved only on a whole AQ_m with m <= 4")
    _check_request(view.cube, u, v, k)
    return _cube_system(m, u, v, min(k, 2 * m))


@functools.lru_cache(maxsize=None)
def _cube_system(m: int, u: int, v: int, k: int) -> PathSystem | MinCut:
    """The flow's answer on the whole of AQ_m, with a path system checked
    against the cube, kept for the life of the process.  Its callers ask
    for m <= 4 and k <= 2m only, so it holds at most
    4 + 48 + 336 + 1,920 = 2,308 answers; both kinds are immutable, and
    a solve that raises is not kept."""
    g = AugmentedCube(m)
    label_paths, cut = _flow_paths(m, u, v, k)
    if label_paths is None:
        return MinCut(source=u, sink=v, separator=tuple(cut), uses_direct_edge=g.adjacent_labels(u, v))
    # independent of the flow bookkeeping: checks the finished object only
    return _checked(g.view(), PathSystem(source=u, sink=v, paths=tuple(tuple(p) for p in label_paths)))


def _check_request(g: AugmentedCube, u: int, v: int, k: int) -> None:
    g.check_label(u)
    g.check_label(v)
    if u == v:
        raise ContractViolation("path system endpoints must differ")
    if k < 1:
        raise ContractViolation("at least one path must be requested")


def _checked(view: GraphView, system: PathSystem) -> PathSystem:
    if not check_path_system(view, system):
        u, v, width = system.source, system.sink, view.dim
        raise AssertionError(f"invalid path system from {u:0{width}b} to {v:0{width}b}")
    return system


def cube_paths(g: AugmentedCube, u: int, v: int, k: int) -> PathSystem | MinCut:
    """k internally disjoint u-v paths in the whole cube, or a cut witness.

    Up to dimension 4 this is ``disjoint_paths`` on ``g.view()``, the
    small-cube memo.  Above it AQ_n is (2n - 1)-connected, so the first
    k paths of the full fan to u ^ v, moved by u (translations are
    automorphisms) and sorted, answer every k up to the degree, and
    past it the cut is u's neighbourhood less v, plus the direct edge
    when u and v are adjacent: the cut the flow reports.
    Raises on u == v, k < 1 and labels outside the cube.
    """
    if g.dim <= 4:
        return disjoint_paths(g.view(), u, v, k)
    _check_request(g, u, v, k)
    if k > g.degree:
        separator = tuple(sorted(w for d in adjacency_deltas(g.dim) if (w := u ^ d) != v))
        return MinCut(source=u, sink=v, separator=separator, uses_direct_edge=g.adjacent_labels(u, v))
    paths = sorted(tuple(map(u.__xor__, p)) for p in fan(g.dim, u ^ v).paths)
    return _checked(g.view(), PathSystem(source=u, sink=v, paths=tuple(paths[:k])))


# ---------------------------------------------------------------------------
# system manipulation
# ---------------------------------------------------------------------------

def reorder_paths(ps: PathSystem, wanted: Sequence[int]) -> PathSystem:
    """The paths that reach the sink through wanted[0], wanted[1], ...,
    in that order, then every other path in its order; path i's sink
    neighbour is ``ps.paths[i][-2]``.

    Raises ``ContractViolation`` for a label pinned twice and for a label
    that is no path's sink neighbour.  In a disjoint system each label is
    at most one path's sink neighbour; a system that shares one takes the
    first such path and drops the others.
    """
    pinned = set(wanted)
    if len(pinned) != len(wanted):
        raise ContractViolation(f"a sink neighbour is pinned twice in {list(wanted)}")
    by_nb: dict[int, tuple[int, ...]] = {}
    for p in ps.paths:
        by_nb.setdefault(p[-2], p)
    for w in wanted:
        if w not in by_nb:
            raise ContractViolation(f"no path has sink neighbour {w}")
    lead = [by_nb[w] for w in wanted]
    lead += [p for p in ps.paths if p[-2] not in pinned]
    # tuple.__new__ skips the named tuple's Python-level __new__
    return tuple.__new__(PathSystem, (ps.source, ps.sink, tuple(lead)))


def map_path_system(iso: Callable[[int], int], ps: PathSystem) -> PathSystem:
    """Image of a path system under an adjacency-preserving label map."""
    paths = tuple([tuple(map(iso, p)) for p in ps.paths])
    return tuple.__new__(PathSystem, (iso(ps.source), iso(ps.sink), paths))


# ---------------------------------------------------------------------------
# shortest paths
# ---------------------------------------------------------------------------

def _word(d: int) -> list[int]:
    """The fewest adjacency deltas xoring to d, in ascending bit order of
    gray(d): from its lowest set bit i, the pair e_i + e_(i+1) when bit
    i + 1 is set too and the single e_i otherwise.  No generator touches
    a bit above the top one of gray(d), so every delta lies in the delta
    set of AQ_(d.bit_length()).

    ``gray`` is linear, so each Gray vector is one label constant, here
    and in ``_fan_words`` at level m: e_i is 2^(i+1) - 1, e_i + e_(i+1)
    is 2^(i+1), top = e_(m-1) is 2^m - 1, e2 = e_(m-2) is 2^(m-1) - 1 and
    e3 = e_(m-3) is 2^(m-2) - 1.  So lo = gray(d) + top is d ^ top when d
    has its top bit set, t = lo + e2 is lo ^ e2 when lo has bit m - 2
    set, and reversing the m Gray bits is the linear map ``_reflect``,
    v -> ((rev_m(v) << 1) & top) ^ (top if v is odd).
    """
    word = []
    dg = gray(d)
    while dg:
        low = dg & -dg
        gen = 3 * low if dg & low << 1 else low
        word.append((low << 1) - (gen == low))  # gen's label constant
        dg ^= gen
    return word


def geodesic(u: int, v: int) -> list[int]:
    """A shortest u-v path, as labels, in any augmented cube holding both:
    the deltas of ``_word(u ^ v)`` applied in order."""
    return list(itertools.accumulate(_word(u ^ v), operator.xor, initial=u))


# ---------------------------------------------------------------------------
# full fans, by induction on the dimension
# ---------------------------------------------------------------------------

def _reflect(m: int, v: int) -> int:
    """The label whose Gray coordinates are those of v with their m bits
    reversed.  Bit j of that label is the xor of the reversed Gray bits
    j .. m - 1, which telescopes to v_0 ^ v_(m-j): the reversed label
    shifted up a bit, below 2^m, xor top when v is odd."""
    top = (1 << m) - 1
    return ((int(f"{v:0{m}b}"[::-1], 2) << 1) & top) ^ (top if v & 1 else 0)


def fan(m: int, d: int) -> PathSystem:
    """The full fan of 2m - 1 disjoint paths from 0 to d in AQ_m (m >= 4).
    At m = 4 it is the flow's checked system from ``disjoint_paths`` on
    the whole cube, whose paths already run in ascending order, and a
    flow short of full raises ``AssertionError``; above it, the words of
    ``_fan_words`` walked from 0, sorted."""
    if m <= 4:
        res = disjoint_paths(AugmentedCube(m).view(), 0, d, 2 * m - 1)
        if isinstance(res, MinCut):
            raise AssertionError(f"AQ_{m} admits only {res.size} disjoint paths to {d:0{m}b}")
        return res
    # every path ends in the one int d: about 4 KiB less per m = 61 fan
    paths = sorted((*itertools.accumulate(w[:-1], operator.xor, initial=0), d) for w in _fan_words(m, d))
    return PathSystem(0, d, tuple(paths))


def _fan_words(m: int, d: int) -> list[list[int]]:
    """The full fan from 0 to d as fresh lists of label deltas, by induction
    on m: bit m - 1 splits AQ_m into two copies of AQ_(m-1), and each level
    edits the lower fan's words in place and adds two through the upper
    copy (README, "Why every fan is full").  AQ_4 is searched by the flow
    (``fan``), the base of the induction.  Gray coordinates decide
    only the branch tests and the reflection (``_word`` has the
    dictionary)."""
    if m <= 4:
        return [list(map(operator.xor, p, p[1:])) for p in fan(m, d).paths]
    top, e2, e3 = (1 << m) - 1, (1 << (m - 1)) - 1, (1 << (m - 2)) - 1
    upper = d >> (m - 1)
    lo = d ^ top if upper else d
    t = lo ^ e2 if lo >> (m - 2) else lo
    if upper and t in (0, e3):
        # reversing the m Gray bits is an automorphism that fixes 0 and puts
        # gray(d) among e_0 + {0, e_1} + {0, e_2}, below top; it is linear,
        # so it maps each step of a word to a step
        image = {g: _reflect(m, g) for g in adjacency_deltas(m)}.__getitem__
        words = _fan_words(m, _reflect(m, d))
        for w in words:
            w[:] = map(image, w)
        return words
    # The shortest word to t, reversed so that its last step s is t's lowest
    # generator, stays below bit m - 2, so its lifts into the two quarters
    # of the upper copy, entered by q and q ^ e2, are disjoint.  When d lies
    # in the upper copy, the lift by q ends at d, and the lower fan to lo,
    # which enters lo once by each generator of AQ_(m-1), goes on to d: by
    # top + e2 from lo ^ e2, by top from lo after the step s, and by any
    # other step g through d ^ g.  Of t's neighbours the lifted walk holds
    # only t ^ s, so d ^ g lies off both lifts; g = e3 + e2 would meet
    # t ^ e3 = t ^ s only for t = e3, reflected above.
    word, q = _word(t)[::-1], top ^ lo ^ t
    if not upper:
        return [*_fan_words(m - 1, d), [q, *word, top], [q ^ e2, *word, top ^ e2]]
    words = _fan_words(m - 1, lo)
    for w in words:
        if w[-1] == e2:
            w[-1] = top ^ e2
        elif w[-1] == word[-1]:
            w.append(top)
        else:
            w.insert(-1, top)
    return [[q, *word], [q ^ e2, *word, e2], *words]


# ---------------------------------------------------------------------------
# connector trees inside quarters
# ---------------------------------------------------------------------------

def connector_tree(view: GraphView, terminals: Iterable[int]) -> frozenset[tuple[int, int]]:
    """A tree inside the view containing all terminal labels.

    The view must be a 2^k-aligned label range, such as a quarter: that
    block is AQ_k on the low bits and holds every geodesic between its
    members.  The tree starts at the smallest terminal; each further
    terminal picks the nearest vertex w of the partial tree (the
    smallest label among the nearest), by the length of ``_word(t ^ w)``
    alone, walks one geodesic to it and is grafted on there, so no
    cycle can form.  Returns the edge set; a single terminal yields the
    empty set.
    """
    terms = sorted(set(terminals))
    if not terms:
        raise ContractViolation("at least one terminal required")
    block = view.allowed
    size = len(block)
    if not (isinstance(block, range) and block.step == 1 and size and not size & (size - 1) and not block.start % size):
        raise ContractViolation("connector trees need a 2^k-aligned label range")
    for t in terms:
        view.cube.check_label(t)
        if t not in block:
            raise ContractViolation(f"terminal {t:0{view.dim}b} outside the view")
    tree_vertices = {terms[0]}
    edges: set[tuple[int, int]] = set()
    for t in terms[1:]:
        # a geodesic to w takes len(_word(t ^ w)) steps
        w = min(tree_vertices, key=lambda w: (len(_word(t ^ w)), w))
        walk = geodesic(t, w)
        # no vertex before the end of a walk to the nearest tree vertex
        # lies in the tree
        tree_vertices.update(walk)
        edges.update(path_edges(walk))
    return frozenset(edges)


# ---------------------------------------------------------------------------
# vertex connectivity
# ---------------------------------------------------------------------------

def connectivity(g: AugmentedCube) -> int:
    """The vertex connectivity of AQ_n: the least ``cube_paths`` answer
    from 0 to any label, the degree for a path system and the cut size
    otherwise.  Label translations are automorphisms, so the minimum
    over pairs (0, w) is the minimum over all pairs, and the value is
    exact at every dimension."""
    return min(
        g.degree if isinstance(res, PathSystem) else res.size
        for res in (cube_paths(g, 0, w, g.degree) for w in range(1, g.order))
    )
