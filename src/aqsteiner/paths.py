"""Internally disjoint path systems, geodesics, connector trees and
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

The residual network is implicit: arcs come from the delta set, each
vertex's closed neighbourhood (v xor 0 and every adjacency delta, kept
where the view contains it) built once per call, unsorted, when the
search first reaches it, and the flow is held per vertex (a
successor and a predecessor for each inner vertex that carries a unit,
and the set of the source's successors), so memory follows the search,
not the size of the view.  The flow grows in phases (Dinic).  A phase
lays out levels on vertices, out sides at even levels and in sides at
odd ones, by a BFS that stops one level below the sink's in side.  A
backward pass from the sink then keeps, level by level, only the
vertices from which it can still be reached.  That is exact: augmenting
along a shortest path adds only arcs that descend a level, so a vertex
cut off from the sink when the phase starts stays cut off, and a search
through it could only end in a dead end.  A blocking DFS climbs the
pruned levels, taking arcs in ascending label order, and so augments
along the same paths, in the same order, as one BFS per path would:
results are reproducible across runs, thread counts and platforms.  A
fan needs 2 to 4 phases.  The paths are the walks along successors from
each of the source's successors, in ascending order.  When a BFS does
not reach the sink, the cut is the in sides it reached whose out side it
did not; that reach set is the same for every maximum flow.

The constructor runs the flow only on AQ_4, the base of the fans it
builds by induction (``construct._fan``).  Connector trees need no
search at all: ``geodesic`` spells a shortest word for gray(u ^ v) by a
DP over its bits, and ``connector_tree`` grafts one geodesic per
terminal inside a quarter.

``connectivity`` runs the same flow from 0 to every label (translations
are automorphisms).  ``verify`` imports only ``topology``, so this
module may use its ``check_path_system`` without an import cycle.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .topology import AugmentedCube, ContractViolation, GraphView, adjacency_deltas, gray, inverse_gray
from .verify import check_path_system

CONNECTIVITY_EXACT_MAX_DIM = 5


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
    return [undirected(a, b) for a, b in zip(path, path[1:])]


# ---------------------------------------------------------------------------
# max-flow core (labels only)
# ---------------------------------------------------------------------------

def _flow_paths(view: GraphView, s: int, t: int, k: int) -> tuple[list[list[int]] | None, list[int]]:
    """Return (paths, []) with exactly k label paths, or (None, vertex_cut)."""
    # The flow is held per vertex: `succ` and `pred` map an inner vertex
    # carrying a unit to the vertex it passes the unit to and the one it
    # takes it from, and `first` holds s's successors.  Unit vertex
    # capacities make both maps single-valued; an inner vertex carries a
    # unit exactly when it is in `pred`.
    # Neighbourhood order is never used: the levels and the pruning take
    # unions and disjointness tests, and the DFS sorts the arcs it climbs.
    members = view.allowed
    offsets = (0, *adjacency_deltas(view.dim))
    closed: dict[int, list[int]] = {}
    succ: dict[int, int] = {}
    pred: dict[int, int] = {}
    first: set[int] = set()

    def nbrs(v: int) -> list[int]:
        out = closed.get(v)
        if out is None:
            out = closed[v] = [w for d in offsets if (w := v ^ d) in members]
        return out

    found = 0
    while found < k:
        # One phase.  Level 2i holds the vertices whose out side lies at
        # residual distance 2i from s's out side, level 2i + 1 those whose
        # in side lies at 2i + 1.  An out side reaches the in sides of its
        # neighbours, never s's, and not t's from s once the direct s-t arc
        # carries a unit (`into_t`).  It also reaches its own in side when
        # its vertex carries a unit; the in side of s or of an idle vertex
        # is seen before its out side, so the closed neighbourhood serves
        # both.  An in side reaches its own out side when its vertex is
        # idle and its predecessor's otherwise.  The BFS stops at the level
        # below t's in side.
        into_t = [w for w in nbrs(t) if w != s or t not in first]
        layers = [{s}]
        seen_in, seen_out = {s, t}, {s}
        while True:
            frontier = layers[-1]
            if len(layers) & 1:
                if not frontier.isdisjoint(into_t):
                    break
                nxt: set[int] = set()
                for v in frontier:
                    nxt.update(nbrs(v))
                nxt -= seen_in
                seen_in |= nxt
            else:
                nxt = {pred.get(v, v) for v in frontier}
                nxt -= seen_out
                seen_out |= nxt
            if not nxt:
                # The nodes reachable in the residual network are the same
                # for every maximum flow, so this is the cut any augmenting
                # order ends on: the vertices whose in side was reached and
                # whose out side was not (`seen_in` holds t only to keep it
                # out of the levels)
                return None, sorted(seen_in - seen_out - {t})
            layers.append(nxt)
        # t's in side is at level `top`.  Going down from it, keep only the
        # vertices with an arc into the kept part of the level above.
        # Augmenting along a shortest path adds only arcs that descend a
        # level, so a vertex cut off from t now stays cut off for the whole
        # phase, and a search through it could only end in a dead end.
        top = len(layers)
        layers[-1].intersection_update(into_t)
        for j in range(top - 2, -1, -1):
            above = layers[j + 1]
            if j & 1:
                # the out side x is entered from x's own in side when x is
                # idle and from succ[x]'s when it is not
                layers[j].intersection_update(succ.get(x, x) for x in above)
            else:
                # the BFS built the neighbourhoods of these levels already
                layers[j] = {v for v in layers[j] if not above.isdisjoint(nbrs(v))}
        layers.append({t})
        # Blocking flow: a DFS up the pruned levels, taking each out side's
        # arcs in ascending label order from its current arc; a vertex that
        # leads nowhere, or that a path just used, leaves its level.  It
        # meets the shortest augmenting paths in the order a BFS per path
        # would.  The i-th vertex of `path` stands for its out side when i
        # is even and for its in side when i is odd.
        arcs: dict[int, list[int]] = {}
        current: dict[int, int] = {}
        while found < k:
            path = [s]
            while path and len(path) <= top:
                j = len(path) - 1
                v = path[-1]
                above = layers[j + 1]
                if j & 1:
                    w = pred.get(v, v)
                    if w in above:
                        path.append(w)
                        continue
                else:
                    out = arcs.get(v)
                    if out is None:
                        out = arcs[v] = [t] if j + 1 == top else sorted(above.intersection(nbrs(v)))
                    i = current.get(v, 0)
                    while i < len(out) and out[i] not in above:
                        i += 1
                    current[v] = i
                    if i < len(out):
                        path.append(out[i])
                        continue
                layers[j].discard(v)
                path.pop()
            if not path:
                break
            # Take the flow off the edge arcs the path runs back along, then
            # put it on those it runs forward along; the split arcs follow.
            # No step climbs into s's out side, so every arc taken off joins
            # two inner vertices.
            for i in range(1, top, 2):
                w, u = path[i], path[i + 1]
                if w != u:
                    del succ[u], pred[w]
            for i in range(0, top, 2):
                u, w = path[i], path[i + 1]
                if u != w:
                    if u == s:
                        first.add(w)
                    else:
                        succ[u] = w
                    if w != t:
                        pred[w] = u
            found += 1
            for j in range(1, top):
                layers[j].discard(path[j])
            # s's current arc now leads to a vertex the path used or is the
            # direct s-t arc, which the unit just filled
            current[s] += 1

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
    return PathSystem(ps.source, ps.sink, tuple(lead + [p for p in ps.paths if p[-2] not in pinned]))


def map_path_system(iso: Callable[[int], int], ps: PathSystem) -> PathSystem:
    """Image of a path system under an adjacency-preserving label map."""
    return PathSystem(
        source=iso(ps.source),
        sink=iso(ps.sink),
        paths=tuple(tuple(map(iso, p)) for p in ps.paths),
    )


# ---------------------------------------------------------------------------
# shortest paths in Gray coordinates
# ---------------------------------------------------------------------------

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
    block = view.allowed
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

class ConnectivityResult(NamedTuple):
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
