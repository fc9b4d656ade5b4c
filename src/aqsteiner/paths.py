"""Internally disjoint path systems, fan regions, connector trees and
vertex connectivity.

Everything here works on plain int labels (see ``topology``): a path is
a tuple of labels, a ``PathSystem`` holds label paths between two
labels, and a connector tree is a set of label pairs.  Callers already
know the dimension, so no label is wrapped in a ``Vertex``.

The central operation is ``disjoint_paths``: k internally disjoint u-v
paths computed by unit-vertex-capacity max flow (the standard Menger
reduction).  Every inner vertex is split into an in/out pair joined by a
capacity-1 arc; edge arcs get capacity 2 so they can never be saturated
(each endpoint passes at most one unit), which keeps minimum cuts on the
split arcs and makes the cut witness a plain vertex set.  The one
exception is a direct u-v edge, whose arc keeps capacity 1; a witness
that needs it reports that separately, since no vertex set separates an
adjacent pair.

The residual network is implicit: arcs come from the view's neighbour
queries when the search reaches a vertex, and flow is held only for
vertices the search has touched, so memory follows the search, not the
size of the view.  The flow grows in phases (Dinic): a level BFS plus a
blocking DFS over the arcs that climb one level, with neighbours taken
in ascending label order, so results are reproducible across runs,
thread counts and platforms.  A fan needs 2 to 4 phases where one BFS
per augmenting path needed 2m - 1.  The DFS augments along the same
paths, in the same order, as one BFS per path would, and a cut is the
reach set of the last level BFS, which is the same for every maximum
flow.

The constructor never runs the flow on a whole half-copy.  A fan between
x and y is x xor a fan from 0 to d = x ^ y, and ``fan_region(m, d)`` is a
region of O(m r^2) labels, built from generator words for gray(d), in
which a full fan of 2m - 1 paths exists for every d checked (all d at
m = 4..13).  Connector trees need no search at all: ``geodesic`` spells
a shortest word for gray(u ^ v) by a DP over its bits, and
``connector_tree`` grafts one geodesic per terminal inside a quarter.

``connectivity`` runs the same flow from 0 to every label (translations
are automorphisms).  ``verify`` imports only ``topology``, so this
module may use its ``check_path_system`` without an import cycle.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .topology import MAX_DIM, AugmentedCube, ContractViolation, GraphView, adjacency_deltas, gray, inverse_gray
from .verify import check_path_system

CONNECTIVITY_EXACT_MAX_DIM = 5


class PinUnsatisfiable(ContractViolation):
    """A requested sink neighbour is pinned twice or belongs to no path."""


@dataclass(frozen=True)
class PathSystem:
    """Internally disjoint label paths sharing exactly their two endpoints."""

    source: int
    sink: int
    paths: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class MinCut:
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
    return [undirected(a, b) for a, b in zip(path, path[1:])]


# ---------------------------------------------------------------------------
# max-flow core (labels only)
# ---------------------------------------------------------------------------

def _flow_paths(view: GraphView, s: int, t: int, k: int) -> tuple[list[list[int]] | None, list[int]]:
    """Return (paths, []) with exactly k label paths, or (None, vertex_cut)."""
    # node ids: 2*v = in side, 2*v + 1 = out side.  `through` holds the
    # inner vertices whose split arc carries a unit, `flow` the (u, w)
    # edge arcs (u's out side to w's in side) that carry one.  Edge arcs
    # never hold more than one unit, so only the direct s-t arc, of
    # capacity 1, can saturate.
    closed: dict[int, list[int]] = {}
    through: set[int] = set()
    flow: set[tuple[int, int]] = set()

    def nbrs(v: int) -> list[int]:
        out = closed.get(v)
        if out is None:
            out = closed[v] = view.neighbor_labels(v)
            bisect.insort(out, v)
        return out

    def heads(a: int) -> list[int]:
        """The residual arcs leaving node a, in ascending node id."""
        v = a >> 1
        if a & 1:
            # out side: the split arc back when v carries a unit, and the
            # edge arcs, none of which enters s; the direct s-t arc is the
            # only one a unit can fill
            return [
                2 * w
                for w in nbrs(v)
                if (v in through if w == v else w != s and not (v == s and w == t and (s, t) in flow))
            ]
        if v not in through:
            # in side of an idle vertex: nothing enters it, so only its
            # split arc leaves (t's in side ends every search reaching it)
            return [a + 1]
        return [2 * w + 1 for w in nbrs(v) if (w, v) in flow]

    src, dst = 2 * s + 1, 2 * t
    found = 0
    while found < k:
        # One phase.  The level BFS labels nodes by residual distance from
        # src and stops once it labels dst; every level below dst's is then
        # complete.
        level = {src: 0}
        arcs: dict[int, list[int]] = {}
        queue = deque([src])
        while queue and dst not in level:
            a = queue.popleft()
            arcs[a] = out = heads(a)
            for b in out:
                if b not in level:
                    level[b] = level[a] + 1
                    queue.append(b)
        if dst not in level:
            # The nodes reachable in the residual network are the same for
            # every maximum flow, so this is the cut any augmenting order
            # ends on: in sides reached whose out side is not (neither s's
            # in side, which no arc enters, nor t's is ever reached)
            return None, sorted(a >> 1 for a in level if not a & 1 and a + 1 not in level)
        # Blocking flow: a DFS over the arcs that climb one level, taking
        # them in ascending node id from each node's current arc.  It meets
        # the shortest augmenting paths in the order a BFS per path would.
        # Augmenting never adds a climbing arc and only removes arcs at the
        # path's inner nodes, which unit capacities leave with no climbing
        # arc, so those and every dead end are skipped for the phase.
        sink_level = level[dst]
        current: dict[int, int] = {}
        dead: set[int] = set()
        while found < k:
            stack = [src]
            while stack and stack[-1] != dst:
                a = stack[-1]
                out = arcs.get(a)
                if out is None:
                    out = arcs[a] = heads(a)
                up = level[a] + 1
                i = current.get(a, 0)
                while i < len(out):
                    b = out[i]
                    if b == dst or (up < sink_level and b not in dead and level.get(b) == up):
                        break
                    i += 1
                current[a] = i
                if i < len(out):
                    stack.append(out[i])
                else:
                    dead.add(a)
                    stack.pop()
            if not stack:
                break
            for a, b in zip(stack, stack[1:]):
                u, w = a >> 1, b >> 1
                if u == w:  # split arc: forward from the in side, back from the out side
                    if a & 1:
                        through.remove(u)
                    else:
                        through.add(u)
                elif a & 1:  # edge arc u -> w
                    flow.add((u, w))
                else:  # back along the edge arc w -> u
                    flow.remove((w, u))
            found += 1
            dead.update(stack[1:-1])
            # src's current arc now leads to a dead node or is the direct
            # s-t arc, which the unit just filled
            current[src] += 1

    # Decompose the flow into k source-to-sink walks, taking the first
    # flow-carrying arc in ascending order.  Unit vertex capacities mean
    # no vertex repeats across walks; stray flow cycles (possible after
    # residual cancellations) are simply never visited.
    paths: list[list[int]] = []
    for _ in range(k):
        verts = [s]
        while verts[-1] != t:
            u = verts[-1]
            w = next((w for w in nbrs(u) if (u, w) in flow), None)
            if w is None:
                raise AssertionError("flow conservation violated during decomposition")
            flow.remove((u, w))
            verts.append(w)
        paths.append(verts)
    return paths, []


def disjoint_paths(view: GraphView, u: int, v: int, k: int) -> PathSystem | MinCut:
    """k internally disjoint u-v paths inside the view, or a cut witness.

    Deterministic for fixed inputs.  Raises on u == v, k < 1, or
    endpoints outside the view.
    """
    view.cube.check_label(u)
    view.cube.check_label(v)
    if u == v:
        raise ContractViolation("path system endpoints must differ")
    if k < 1:
        raise ContractViolation("at least one path must be requested")
    if not (view.contains_label(u) and view.contains_label(v)):
        raise ContractViolation("endpoints must lie inside the view")

    label_paths, cut = _flow_paths(view, u, v, k)
    if label_paths is None:
        return MinCut(source=u, sink=v, separator=tuple(cut), uses_direct_edge=view.has_edge_labels(u, v))
    system = PathSystem(source=u, sink=v, paths=tuple(tuple(p) for p in label_paths))
    # independent of the flow bookkeeping: checks the finished object only
    problems = check_path_system(view, system)
    if problems:
        raise AssertionError(f"flow produced an invalid path system: {problems}")
    return system


# ---------------------------------------------------------------------------
# system manipulation
# ---------------------------------------------------------------------------

def reorder_paths(ps: PathSystem, wanted: Sequence[int]) -> PathSystem:
    """The paths that reach the sink through wanted[0], wanted[1], ...,
    in that order, then every other path in its order; path i's sink
    neighbour is ``ps.paths[i][-2]``.

    Raises ``PinUnsatisfiable`` for a label pinned twice and for a label
    that is no path's sink neighbour.  In a disjoint system each label is
    at most one path's sink neighbour; a system that shares one takes the
    first such path and drops the others.
    """
    pinned = set(wanted)
    if len(pinned) != len(wanted):
        raise PinUnsatisfiable(f"a sink neighbour is pinned twice in {list(wanted)}")
    by_nb: dict[int, tuple[int, ...]] = {}
    for p in ps.paths:
        by_nb.setdefault(p[-2], p)
    for w in wanted:
        if w not in by_nb:
            raise PinUnsatisfiable(f"no path has sink neighbour {w}")
    lead = [by_nb[w] for w in wanted]
    return PathSystem(ps.source, ps.sink, tuple(lead + [p for p in ps.paths if p[-2] not in pinned]))


def map_path_system(iso: Callable[[int], int], ps: PathSystem) -> PathSystem:
    """Image of a path system under an adjacency-preserving label map."""
    return PathSystem(
        source=iso(ps.source),
        sink=iso(ps.sink),
        paths=tuple(tuple(iso(v) for v in p) for p in ps.paths),
    )


# ---------------------------------------------------------------------------
# generator words in Gray coordinates
# ---------------------------------------------------------------------------
#
# A word is a list of Gray generators (single bits e_i and adjacent pairs
# e_i + e_(i+1)); its label form xors inverse_gray of each in turn.

def _pair_cover_word(dg: int) -> list[int]:
    """Cover the bits of dg by pairs: a run 11 is one pair, a gap 101 the
    two pairs around the gap, any other bit a single."""
    word: list[int] = []
    i = 0
    while dg >> i:
        if not dg >> i & 1:
            i += 1
        elif dg >> (i + 1) & 1:
            word.append(3 << i)
            i += 2
        elif dg >> (i + 2) & 1:
            word += [3 << i, 3 << (i + 1)]
            i += 3
        else:
            word.append(1 << i)
            i += 1
    return word


def fan_region(m: int, d: int) -> frozenset[int]:
    """The region R(d) of AQ_m in which a full 0-d fan is searched.

    Two words for gray(d), its single bits and its pair cover, give the
    prefix sums of each of their cyclic rotations; R(d) is those sums
    offset by 0 and by every generator, mapped back to labels.  It holds
    the closed neighbourhoods of 0 and d and O(m r^2) labels, where r is
    the number of bits of gray(d).
    """
    if not 1 <= m <= MAX_DIM:
        raise ContractViolation(f"dimension must be in 1..{MAX_DIM}, got {m}")
    if not 0 < d < 1 << m:
        raise ContractViolation(f"fan target {d} out of range for dimension {m}")
    dg = gray(d)
    sums = {0}
    for word in ([1 << i for i in range(dg.bit_length()) if dg >> i & 1], _pair_cover_word(dg)):
        # inverse_gray is linear, so the sums are taken on labels
        letters = [inverse_gray(gen) for gen in word]
        for r in range(len(letters)):
            s = 0
            for delta in letters[r:] + letters[:r]:
                s ^= delta
                sums.add(s)
    offsets = (0, *adjacency_deltas(m))
    return frozenset(s ^ delta for s in sums for delta in offsets)


def geodesic(u: int, v: int) -> list[int]:
    """A shortest u-v path, as labels, in any augmented cube holding both.

    The fewest generators summing to gray(u ^ v) come from a DP over its
    bits whose state is whether a pair reaches up from the bit below; no
    shortest word touches a bit above the top one of gray(u ^ v).  The
    generators are applied in ascending bit order.
    """
    dg = gray(u ^ v)
    top = dg.bit_length()
    # best[c]: (length, word) over the bits below i, with c the pair
    # e_(i-1) + e_i still to be counted at bit i
    best: list[tuple[int, list[int]] | None] = [(0, []), None]
    for i in range(top):
        nxt: list[tuple[int, list[int]] | None] = [None, None]
        for carry, entry in enumerate(best):
            if entry is None:
                continue
            for pair in (0, 1) if i + 1 < top else (0,):
                single = (dg >> i & 1) ^ carry ^ pair
                word = entry[1] + [1 << i] * single + [3 << i] * pair
                cand = (entry[0] + single + pair, word)
                if nxt[pair] is None or cand[0] < nxt[pair][0]:
                    nxt[pair] = cand
        best = nxt
    verts = [u]
    for gen in best[0][1]:
        verts.append(verts[-1] ^ inverse_gray(gen))
    return verts


# ---------------------------------------------------------------------------
# connector trees inside quarters
# ---------------------------------------------------------------------------

def connector_tree(view: GraphView, terminals: Iterable[int]) -> frozenset[tuple[int, int]]:
    """A tree inside the view containing all terminal labels.

    The view must be a 2^k-aligned label range, such as a quarter: that
    block is AQ_k on the low bits and holds every geodesic between its
    members.  The tree starts at the smallest terminal; each further
    terminal walks a geodesic to the nearest vertex of the partial tree
    (the smallest label among the nearest) and is grafted on there, so
    no cycle can form.  Returns the edge set; a single terminal yields
    the empty set.
    """
    terms = sorted(set(terminals))
    if not terms:
        raise ContractViolation("at least one terminal required")
    block = range(view.cube.order) if view.allowed is None else view.allowed
    size = len(block)
    if not (isinstance(block, range) and block.step == 1 and size and not size & (size - 1) and not block.start % size):
        raise ContractViolation("connector trees need a 2^k-aligned label range")
    for t in terms:
        view.cube.check_label(t)
        if not view.contains_label(t):
            raise ContractViolation(f"terminal {t:0{view.dim}b} outside the view")
    tree_vertices = {terms[0]}
    edges: set[tuple[int, int]] = set()
    for t in terms[1:]:
        walk = min((geodesic(t, w) for w in tree_vertices), key=lambda p: (len(p), p[-1]))
        # no vertex before the end of a walk to the nearest tree vertex
        # lies in the tree
        tree_vertices.update(walk)
        edges.update(path_edges(walk))
    return frozenset(edges)


# ---------------------------------------------------------------------------
# vertex connectivity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityResult:
    value: int
    exact: bool


def connectivity(g: AugmentedCube) -> ConnectivityResult:
    """Vertex connectivity via the path engine.

    Label translations are automorphisms, so the pair minimum over all
    (u, v) equals the minimum over pairs (0, w).  Exact for dim up to
    CONNECTIVITY_EXACT_MAX_DIM; beyond that a deterministic sample of w
    values gives an upper estimate flagged as inexact.
    """
    n = g.dim
    view = g.view()
    if n <= CONNECTIVITY_EXACT_MAX_DIM:
        candidates = range(1, g.order)
        exact = True
    else:
        candidates = sorted(adjacency_candidates(n))
        exact = False
    best = g.degree
    for w in candidates:
        res = disjoint_paths(view, 0, w, g.degree)
        local = g.degree if isinstance(res, PathSystem) else res.size
        best = min(best, local)
    return ConnectivityResult(value=best, exact=exact)


def adjacency_candidates(n: int) -> set[int]:
    """Deterministic w sample for large-dimension connectivity estimates."""
    out = set(adjacency_deltas(n))
    out.add((1 << n) - 1)
    out.update(range(1, min(1 << n, 24)))
    return out
