"""Internally disjoint path systems and connector trees inside cube views.

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
size of the view.  Augmenting paths are found by BFS with neighbours
enumerated in ascending label order, so results are reproducible across
runs, thread counts and platforms.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .topology import ContractViolation, GraphView, Vertex
from .verify import check_path_system


class PinUnsatisfiable(ContractViolation):
    """No path of the system has the requested endpoint neighbour."""


@dataclass(frozen=True)
class Path:
    """A simple path as an ordered vertex tuple (length >= 1 vertex)."""

    vertices: tuple[Vertex, ...]

    def __len__(self) -> int:
        return len(self.vertices)

    def edges(self) -> list[tuple[Vertex, Vertex]]:
        vs = self.vertices
        return [undirected(vs[i], vs[i + 1]) for i in range(len(vs) - 1)]


@dataclass(frozen=True)
class PathSystem:
    """Internally disjoint paths sharing exactly their two endpoints."""

    source: Vertex
    sink: Vertex
    paths: tuple[Path, ...]


@dataclass(frozen=True)
class MinCut:
    """Separator witness returned when k disjoint paths do not exist.

    Removing ``separator`` (plus the direct source-sink edge when
    ``uses_direct_edge`` is set, which happens exactly for adjacent
    endpoints) disconnects source from sink.
    """

    source: Vertex
    sink: Vertex
    separator: tuple[Vertex, ...]
    uses_direct_edge: bool

    @property
    def size(self) -> int:
        return len(self.separator) + (1 if self.uses_direct_edge else 0)


def undirected(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    return (u, v) if u <= v else (v, u)


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
            out = closed[v] = sorted([v, *view.neighbor_labels(v)])
        return out

    src, dst = 2 * s + 1, 2 * t
    for _ in range(k):
        parent = {src: -1}
        queue = deque([src])
        while queue and dst not in parent:
            a = queue.popleft()
            v = a >> 1
            if a & 1:
                # out side: the split arc back when v carries a unit, and
                # the edge arcs, none of which enters s; the direct s-t
                # arc is the only one a unit can fill
                heads = [
                    2 * w
                    for w in nbrs(v)
                    if (v in through if w == v else w != s and not (v == s and w == t and (s, t) in flow))
                ]
            elif v not in through:
                # in side of an idle vertex: nothing enters it, so only its
                # split arc leaves (t's in side ends every search reaching it)
                heads = [a + 1]
            else:
                heads = [2 * w + 1 for w in nbrs(v) if (w, v) in flow]
            for b in heads:
                if b not in parent:
                    parent[b] = a
                    queue.append(b)
        if dst not in parent:
            # in sides reached whose out side is not; neither s's in side
            # (no arc enters it) nor t's is ever reached here
            return None, sorted(a >> 1 for a in parent if not a & 1 and a + 1 not in parent)
        b = dst
        while (a := parent[b]) >= 0:
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
            b = a

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


def disjoint_paths(view: GraphView, u: Vertex, v: Vertex, k: int) -> PathSystem | MinCut:
    """k internally disjoint u-v paths inside the view, or a cut witness.

    Deterministic for fixed inputs.  Raises on u == v, k < 1, or
    endpoints outside the view.
    """
    view.cube.check_vertex(u)
    view.cube.check_vertex(v)
    if u == v:
        raise ContractViolation("path system endpoints must differ")
    if k < 1:
        raise ContractViolation("at least one path must be requested")
    if not (view.contains_label(u.bits) and view.contains_label(v.bits)):
        raise ContractViolation("endpoints must lie inside the view")

    label_paths, cut = _flow_paths(view, u.bits, v.bits, k)
    if label_paths is None:
        return MinCut(
            source=u,
            sink=v,
            separator=tuple(Vertex(w, view.dim) for w in cut),
            uses_direct_edge=view.has_edge_labels(u.bits, v.bits),
        )
    system = PathSystem(
        source=u,
        sink=v,
        paths=tuple(Path(tuple(Vertex(w, view.dim) for w in p)) for p in label_paths),
    )
    # independent of the flow bookkeeping: checks the finished object only
    problems = check_path_system(view, system)
    if problems:
        raise AssertionError(f"flow produced an invalid path system: {problems}")
    return system


# ---------------------------------------------------------------------------
# system manipulation
# ---------------------------------------------------------------------------

def neighbor_along(ps: PathSystem, endpoint: Vertex, i: int) -> Vertex:
    """The vertex adjacent to the given endpoint on path i."""
    if endpoint not in (ps.source, ps.sink):
        raise ContractViolation("endpoint must be the system's source or sink")
    if not 0 <= i < len(ps.paths):
        raise ContractViolation(f"path index {i} out of range")
    vs = ps.paths[i].vertices
    return vs[1] if endpoint == ps.source else vs[-2]


def reorder_paths(ps: PathSystem, pinned: Sequence[tuple[int, Vertex]]) -> PathSystem:
    """Permute paths so prescribed sink neighbours land at prescribed
    indices; unpinned paths keep their relative order.

    Each pin (index, w) asks for the path that reaches the sink through w.
    """
    k = len(ps.paths)
    nbrs = [neighbor_along(ps, ps.sink, i) for i in range(k)]
    slot: dict[int, int] = {}
    taken: set[int] = set()
    for index, required in pinned:
        if not 0 <= index < k:
            raise PinUnsatisfiable(f"pin index {index} out of range")
        matches = [j for j, nb in enumerate(nbrs) if nb == required]
        if not matches:
            raise PinUnsatisfiable(f"no path has endpoint neighbour {required.label()}")
        j = matches[0]
        if index in slot and slot[index] != j:
            raise PinUnsatisfiable(f"conflicting pins for index {index}")
        if j in taken and slot.get(index) != j:
            raise PinUnsatisfiable(f"path for {required.label()} pinned twice")
        slot[index] = j
        taken.add(j)
    rest = [j for j in range(k) if j not in taken]
    order: list[int] = []
    for i in range(k):
        if i in slot:
            order.append(slot[i])
        else:
            order.append(rest.pop(0))
    return PathSystem(ps.source, ps.sink, tuple(ps.paths[j] for j in order))


def map_path_system(iso: Callable[[Vertex], Vertex], ps: PathSystem) -> PathSystem:
    """Image of a path system under an adjacency-preserving vertex map."""
    return PathSystem(
        source=iso(ps.source),
        sink=iso(ps.sink),
        paths=tuple(Path(tuple(iso(v) for v in p.vertices)) for p in ps.paths),
    )


# ---------------------------------------------------------------------------
# connector trees inside views
# ---------------------------------------------------------------------------

def connector_tree(view: GraphView, terminals: Iterable[Vertex]) -> frozenset[tuple[Vertex, Vertex]]:
    """A tree inside the view containing all terminals.

    Built as a union of breadth-first shortest paths, each grafted onto
    the partial tree at first contact, so no cycle can form.  Returns the
    edge set; a single terminal yields the empty set.
    """
    terms = sorted(set(terminals))
    if not terms:
        raise ContractViolation("at least one terminal required")
    for t in terms:
        view.cube.check_vertex(t)
        if not view.contains_label(t.bits):
            raise ContractViolation(f"terminal {t.label()} outside the view")
    tree_vertices = {terms[0].bits}
    edges: set[tuple[Vertex, Vertex]] = set()
    for t in terms[1:]:
        if t.bits in tree_vertices:
            continue
        prev: dict[int, int] = {t.bits: -1}
        queue = deque([t.bits])
        hit = -1
        while queue and hit < 0:
            a = queue.popleft()
            for b in view.neighbor_labels(a):
                if b in prev:
                    continue
                prev[b] = a
                if b in tree_vertices:
                    hit = b
                    break
                queue.append(b)
        if hit < 0:
            raise ContractViolation(f"terminal {t.label()} not connected inside the view")
        node = hit
        while prev[node] != -1:
            edges.add(undirected(Vertex(node, view.dim), Vertex(prev[node], view.dim)))
            tree_vertices.add(node)
            node = prev[node]
        tree_vertices.add(t.bits)
    return frozenset(edges)
