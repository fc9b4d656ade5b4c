"""Independent certificate checking.

``verify_family`` and ``check_path_system`` share no traversal or
assembly code with the constructor; they go straight to label-level
adjacency so a constructor bug cannot hide behind shared helpers.
``verify_family`` takes the cube itself; ``check_path_system`` takes
the view its paths must stay inside.  This module imports nothing of
the package but ``topology``.  The exact packing oracle and the degree
bound live in ``oracle``, which no check needs.

Certificates are duck-typed: a tree is anything with ``edges``, a set
of label pairs, and a family anything with ``terminals`` (S, as objects
with ``bits`` and ``dim``, checked once against the cube) and
``trees``, so parsed files check exactly like freshly built objects.
Every tree is checked against the family's S.  Everything past S is a
plain int label, as are the label paths of the path systems that
``paths`` produces; violation details write labels at the cube's
dimension.

``verify_family`` first runs an accept pass (``_accepts``): counts
over all edges at C level, then one union-find per tree.  Only a family
that it does not accept goes through the reporting loop (``_report``),
one loop over the trees.  A ``Violation`` is a named tuple: a file of
many small bad trees holds one per defect.
"""

from __future__ import annotations

from itertools import chain
from operator import lt, xor
from typing import NamedTuple

from .topology import AugmentedCube, GraphView, delta_set

NON_EDGE = "NonEdge"
CYCLE = "Cycle"
DISCONNECTED = "Disconnected"
TERMINAL_DEGREE = "TerminalDegree"
SHARED_VERTEX = "SharedVertex"
SHARED_EDGE = "SharedEdge"
WRONG_TERMINALS = "WrongTerminals"
TREE_COUNT = "TreeCount"


class Violation(NamedTuple):
    kind: str
    trees: tuple[int, ...]
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind, "trees": list(self.trees), "detail": self.detail}


class VerificationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def accepted(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"accepted": self.accepted, "violations": [v.to_json() for v in self.violations]}


# the one report of every accepted family: immutable, so it is shared
_ACCEPTED = VerificationReport(())


# ---------------------------------------------------------------------------
# certificate checking
# ---------------------------------------------------------------------------

def _accepts(trees, terminals: set[int], order: int, deltas: frozenset[int]) -> bool:
    """Whether a family of T trees on three distinct targets S has no
    violation, by counts over its E edges and one union-find per tree.

    The pass asks that (a) the edges hold exactly E - 2T + 3 distinct
    labels; (b) each target is an end of exactly T edges; (c) every edge
    has u < v, both labels in the cube and u ^ v in the delta set; and
    (d) each tree's union-find closes no cycle, and the tree holds
    |E_i| + 1 labels, all three targets among them.  Then (c) and (d)
    make each tree a tree of real edges that holds S.  Every target is
    an end in every tree, so by (b) it is a leaf of each.  A tree then
    holds |E_i| - 2 inner labels, and these sum to E - 2T, which by (a)
    is the size of their union: the inner label sets are pairwise
    disjoint.  So an edge in two trees joins two targets, and a tree
    whose targets are leaves holds no such edge, since it also holds
    the third target.  Without "all three targets" in (d), a tree that
    misses a target and an inner label in two trees would cancel in (a).
    """
    count = len(trees)
    edges = list(chain.from_iterable(tree.edges for tree in trees))
    if not edges:
        return False
    us, vs = zip(*edges)
    t1, t2, t3 = terminals
    # a rejected family pays for the checks before the one that fails it:
    # (a) fails a dropped edge or a reused vertex, the delta test a
    # non-edge, and (b) a target of the wrong degree
    if (
        len({*us, *vs}) != len(edges) - 2 * count + 3
        or not deltas.issuperset(map(xor, us, vs))
        or us.count(t1) + vs.count(t1) != count
        or us.count(t2) + vs.count(t2) != count
        or us.count(t3) + vs.count(t3) != count
        or min(us) < 0
        or max(vs) >= order
        or not all(map(lt, us, vs))
    ):
        return False
    for tree in trees:
        # each find halves the path it walks: without that, a tree whose
        # edges link every root under a fresh label makes the finds
        # quadratic (a breadth-first tree of AQ_16 took about 45 s)
        parent: dict[int, int] = {}
        for u, v in tree.edges:
            while (w := parent.setdefault(u, u)) != u:
                parent[u] = u = parent[w]
            while (w := parent.setdefault(v, v)) != v:
                parent[v] = v = parent[w]
            if u == v:
                return False
            parent[u] = v
        if len(parent) != len(tree.edges) + 1 or not parent.keys() >= terminals:
            return False
    return True


def verify_family(g: AugmentedCube, family, *, size: int | None = None) -> VerificationReport:
    """Check every member tree against the family's S (real edges,
    connected, acyclic, every target a leaf), plus pairwise internal
    disjointness.  With ``size``, a family of any other number of trees
    also gets a ``TreeCount`` violation; without it, a partial family
    checks like a whole one.

    A family on three distinct targets with the right tree count first
    goes through ``_accepts``, which accepts exactly the families with
    no violation, and gets the one shared accepted report; ``_report``
    writes the violations only when it fails.
    """
    n, order = g.dim, g.order
    terminals = set()
    for t in family.terminals:
        # only a target that fails the range test calls the check that
        # names its fault
        if t.dim != n or not 0 <= t.bits < order:
            g.check_vertex(t)
        terminals.add(t.bits)
    trees = family.trees
    if (
        len(terminals) == 3
        and (size is None or len(trees) == size)
        and _accepts(trees, terminals, order, delta_set(n))
    ):
        return _ACCEPTED
    return _report(g, terminals, trees, size)


def _report(g: AugmentedCube, terminals: set[int], trees, size: int | None) -> VerificationReport:
    """The violations of the family, in one loop over the trees that
    walks each tree's edges once: a union-find over its real edges
    counts components and cycles, and owner maps keyed by the edge
    (u, v), u <= v, find what an earlier tree holds, so time is near
    linear in the total certificate size."""
    width = g.dim
    order = 1 << width
    deltas = delta_set(width)
    violations: list[Violation] = []
    if len(terminals) != 3:
        violations.append(Violation(WRONG_TERMINALS, (), f"expected 3 terminals, got {len(terminals)}"))
    if size is not None and len(trees) != size:
        violations.append(Violation(TREE_COUNT, (), f"expected {size} trees, got {len(trees)}"))
    term_order = sorted(terminals)
    edge_owner: dict[tuple[int, int], int] = {}
    vertex_owner: dict[int, int] = {}
    for index, tree in enumerate(trees):
        shared: list[Violation] = []
        parent: dict[int, int] = {}  # the union-find over the real edges
        ends: list[int] = []
        stray: list[int] = []  # ends of non-edges, which parent does not hold
        ok_edges = unions = 0
        for edge in tree.edges:
            u, v = edge
            if not (0 <= u < order and 0 <= v < order):
                g.check_label(u)
                g.check_label(v)
            key = edge if u <= v else (v, u)
            # a lookup, then an insert: setdefault could not tell a new key
            # from the other orientation of an edge this tree already holds
            owner = edge_owner.get(key)
            if owner is None:
                edge_owner[key] = index
            else:
                shared.append(Violation(SHARED_EDGE, (owner, index), f"edge {u:0{width}b}-{v:0{width}b} reused"))
            # a loop u = v is a non-edge too: 0 is not in the delta set
            if u ^ v not in deltas:
                violations.append(Violation(NON_EDGE, (index,), f"{u:0{width}b}-{v:0{width}b} is not an edge"))
                stray += edge
                continue
            ok_edges += 1
            ends += edge
            while (w := parent.setdefault(u, u)) != u:
                parent[u] = u = parent[w]
            while (w := parent.setdefault(v, v)) != v:
                parent[v] = v = parent[w]
            if u != v:
                parent[u] = v
                unions += 1

        if ok_edges:
            # each union joins two components of the labels in parent
            if len(parent) - unions > 1:
                violations.append(Violation(DISCONNECTED, (index,), "edge set is not connected"))
            if ok_edges > unions:
                violations.append(Violation(CYCLE, (index,), "edge set contains a cycle"))
        for t in term_order:
            d = ends.count(t)
            if d != 1:
                violations.append(Violation(TERMINAL_DEGREE, (index,), f"terminal {t:0{width}b} has degree {d}"))
        violations += shared
        # no tree meets a vertex twice here, so an owner other than this
        # tree is an earlier one; the reuses are reported in label order
        reused = []
        for w in set(stray).union(parent) if stray else parent:
            if w not in terminals and vertex_owner.setdefault(w, index) != index:
                reused.append(w)
        for w in sorted(reused):
            detail = f"internal vertex {w:0{width}b} reused"
            violations.append(Violation(SHARED_VERTEX, (vertex_owner[w], index), detail))
    return VerificationReport(tuple(violations))


def check_path_system(view: GraphView, ps) -> list[str]:
    """Invariant check for a path system of label paths; returns
    human-readable problems, with labels written at ``view.dim`` digits.
    A step a-b is an edge of the view when both labels lie in the cube
    and in ``view.allowed`` and a ^ b is an adjacency delta.

    One pass of set operations accepts a valid system first: every path
    runs from source to sink in at least one step and every step is a
    delta; the system holds 2 + its inner vertex count distinct labels,
    so source != sink and no inner vertex repeats or meets an end; at
    most one path is the direct edge; and every label lies in the cube
    and the view.  Two paths that share an edge share an inner vertex
    or are both direct, so the pass accepts exactly the systems with no
    problem.  The per-step loop runs only when it rejects, and writes
    the report."""
    width = view.dim
    order = 1 << width
    allowed = view.allowed
    deltas = delta_set(width)
    source, sink = ps.source, ps.sink
    labels = {source, sink}
    inner = direct = 0
    for vs in ps.paths:
        if len(vs) < 2 or vs[0] != source or vs[-1] != sink or not deltas.issuperset(map(xor, vs, vs[1:])):
            break
        labels.update(vs)
        inner += len(vs) - 2
        direct += len(vs) == 2
    else:
        lo, hi = min(labels), max(labels)
        if (
            len(labels) == 2 + inner
            and direct <= 1
            and 0 <= lo
            and hi < order
            # a step-1 range holds every label between two it holds
            and (
                lo in allowed and hi in allowed
                if isinstance(allowed, range) and allowed.step == 1
                else all(map(allowed.__contains__, labels))
            )
        ):
            return []
    problems: list[str] = []
    if source == sink:
        problems.append("source equals sink")
    seen_inner: dict[int, int] = {}
    seen_edges: dict[tuple[int, int], int] = {}
    for i, vs in enumerate(ps.paths):
        if len(vs) < 2:
            problems.append(f"path {i} has fewer than two vertices")
            continue
        if vs[0] != source or vs[-1] != sink:
            problems.append(f"path {i} does not run source to sink")
        if len(set(vs)) != len(vs):
            problems.append(f"path {i} repeats a vertex")
        for a, b in zip(vs, vs[1:]):
            if not (
                0 <= a < order
                and 0 <= b < order
                and a in allowed and b in allowed
                and a ^ b in deltas
            ):
                problems.append(f"path {i} uses non-edge {a:0{width}b}-{b:0{width}b}")
            # a tuple key: a label outside the cube can reach this line
            key = (a, b) if a <= b else (b, a)
            owner = seen_edges.setdefault(key, i)
            if owner != i:
                problems.append(f"edge {a:0{width}b}-{b:0{width}b} appears in paths {owner} and {i}")
                seen_edges[key] = i
        for w in vs[1:-1]:
            if w in seen_inner:
                problems.append(f"inner vertex {w:0{width}b} shared by paths {seen_inner[w]} and {i}")
            else:
                seen_inner[w] = i
    return problems
