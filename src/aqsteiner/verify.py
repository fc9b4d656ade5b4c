"""Independent certificate checking, exact small-scale oracles, bounds.

``verify_family`` and ``check_path_system`` share no traversal or
assembly code with the constructor; they go straight to label-level
adjacency so a constructor bug cannot hide behind shared helpers.
``verify_family`` and ``oracle_tau`` take the cube itself;
``check_path_system`` takes the view its paths must stay inside.  Only
the packing search of ``oracle_tau`` is shared: the constructor's base
case runs it with ``stop_at``, and this module imports nothing of the
package but ``topology``.  The oracle grows its minimal internal sets
as connected vertex sets on bitmasks (``_minimal_sets``), one size at a
time and only as far as its packing reaches, which stops at its target:
``stop_at`` trees, or for an exact search the degree ceiling.

Certificates are duck-typed: a tree is anything with ``edges``, a set
of label pairs, and a family anything with ``terminals`` (S, as objects
with ``bits`` and ``dim``, checked once against the cube) and
``trees``, so parsed files check exactly like freshly built objects.
Every tree is checked against the family's S.  Everything past S is a
plain int label, as are the oracle's targets and the label paths of the
path systems that ``paths`` produces; violation details write labels at
the cube's dimension.

``verify_family`` first runs an accept pass (``_accepts``): counts
over all edges at C level, then one union-find per tree.  Only a family
that it does not accept goes through the reporting loop (``_report``),
one loop over the trees.  A ``Violation`` is a named tuple: a file of
many small bad trees holds one per defect.
"""

from __future__ import annotations

from itertools import chain
from operator import lt, xor
from typing import Iterable, NamedTuple

from .topology import AugmentedCube, ContractViolation, GraphView, adjacency_deltas, delta_set

NON_EDGE = "NonEdge"
CYCLE = "Cycle"
DISCONNECTED = "Disconnected"
TERMINAL_DEGREE = "TerminalDegree"
SHARED_VERTEX = "SharedVertex"
SHARED_EDGE = "SharedEdge"
WRONG_TERMINALS = "WrongTerminals"
TREE_COUNT = "TreeCount"

DEFAULT_ORACLE_BUDGET = 5_000_000


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
    # a rejected family pays for the checks before the one that fails it:
    # (a) fails a dropped edge or a reused vertex, the delta test a
    # non-edge, and (b) a target of the wrong degree
    if (
        len({*us, *vs}) != len(edges) - 2 * count + 3
        or not deltas.issuperset(map(xor, us, vs))
        or any(us.count(t) + vs.count(t) != count for t in terminals)
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


# ---------------------------------------------------------------------------
# exact oracle for small hosts
# ---------------------------------------------------------------------------

class OracleResult(NamedTuple):
    """A bracket lower <= value <= upper, exact when the two meet.
    ``witness`` holds the internal label sets of the packing ``lower``
    counts (a direct edge between two terminals is the empty set)."""

    lower: int
    upper: int
    nodes_used: int
    witness: tuple[frozenset[int], ...] = ()

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> int:
        if not self.exact:
            raise ContractViolation("oracle result is a bracket, not an exact value")
        return self.lower


def _minimal_sets(adj_mask: list[int], attach_mask: list[int], budget: int, parked: list) -> tuple[list[int], int]:
    """The minimal internal sets of one size over a ground of bit-indexed
    vertices, and the budget nodes spent finding them.

    A set is feasible when it is connected and meets every attach mask
    (a target's neighbourhood in the ground), and minimal when removing
    no single vertex leaves a feasible set.  That suffices: if a feasible
    K lies inside C, a spanning tree of C that contains one of K has a
    leaf outside K.  Connected sets are grown as ESU does (Wernicke,
    "Efficient detection of network motifs", 2006), each once: rooted at
    their lowest index and extended by exclusive neighbours above the
    root.  A feasible set is not extended, and neither is a set with a
    dead vertex v: no attach mask meets the set only in v, the set stays
    connected without v, and every neighbour of v that the branch may
    still add has another neighbour in the set.  Then every set of the
    branch stays connected and meets the same attach masks without v, so
    none is minimal.

    One call grows one size.  With nothing ``parked`` it grows the sets
    of one vertex, and otherwise adds one vertex to each parked set in
    every way its extension allows.  Each grown set that is neither
    feasible nor dead and can still grow is parked for the next call, as
    the order its vertices were added in: a few small ints, where its
    masks would take a bit per ground vertex, for a level may park
    millions.  Every connected proper subset of a minimal set is
    infeasible and has no dead vertex, so the growth passes through it.

    Each grown set costs one node, and so does every vertex that a
    removal test tries or visits.  Once ``budget`` nodes are spent the
    call stops with the sets found so far, and the frames it had not
    reached are dropped.
    """
    found: list[int] = []
    nodes = 0
    if not parked:
        for root, near in enumerate(adj_mask):
            # a set rooted here lies at or above the root, so once an
            # attach mask lies wholly below it no later root has a
            # feasible set
            if nodes >= budget or not all(am >> root for am in attach_mask):
                break
            bit = 1 << root
            nodes += 1
            if all(am & bit for am in attach_mask):
                found.append(bit)
            elif near >> root + 1:
                parked.append((root,))
        return found, nodes
    frames = parked[:]
    parked.clear()
    while frames and nodes < budget:
        # replay the order to the set, its extension, and the vertices
        # with at least one and with at least two neighbours in it; the
        # first also holds every vertex below the root
        order = frames.pop()
        root = order[0]
        near = adj_mask[root]
        sub, ext, once, twice = 1 << root, near & -1 << root + 1, near | (1 << root) - 1, 0
        for i in order[1:]:
            near = adj_mask[i]
            ext = ext & -1 << i + 1 | near & ~(once | sub)
            sub |= 1 << i
            twice |= once & near
            once |= near
        # grow by each vertex w of the extension, lowest first: the grown
        # set's extension is what lies above w and w's exclusive neighbours
        while ext and nodes < budget:
            w = ext & -ext
            ext ^= w
            i = w.bit_length() - 1
            grown = sub | w
            near = adj_mask[i]
            grown_ext = ext | near & ~(once | sub)
            grown_twice = twice | once & near
            nodes += 1
            # try each vertex that is no attach mask's only vertex in the
            # set; below feasibility, also no neighbour in the extension may
            # have it as its only neighbour in the set
            feasible = True
            rest = grown
            for am in attach_mask:
                only = am & grown
                if not only:
                    feasible = False
                elif not only & (only - 1):
                    rest &= ~only
            pinned = 0 if feasible else grown_ext & ~grown_twice
            while rest:
                v = rest & -rest
                rest ^= v
                nodes += 1
                near = adj_mask[v.bit_length() - 1]
                if near & pinned:
                    continue
                # the set stays connected without v once one search from a
                # neighbour of v reaches all of them
                less = grown ^ v
                near &= less
                comp = frontier = near & -near
                while frontier and near & ~comp:
                    nodes += frontier.bit_count()
                    grow = 0
                    while frontier:
                        b = frontier & -frontier
                        frontier ^= b
                        grow |= adj_mask[b.bit_length() - 1]
                    frontier = grow & less & ~comp
                    comp |= frontier
                if not near & ~comp:
                    break
            else:
                if feasible:
                    found.append(grown)
                elif grown_ext:
                    parked.append(order + (i,))
    return found, nodes


def oracle_tau(
    g: AugmentedCube,
    terminals: Iterable[int],
    budget: int = DEFAULT_ORACLE_BUDGET,
    *,
    stop_at: int | None = None,
) -> OracleResult:
    """Maximum number of internally disjoint pendant Steiner trees for the
    terminal set, by exhaustive packing.

    Every pendant tree prunes to one whose internal vertex set is minimal
    (connected, with every terminal attached and no removable vertex), so
    the search packs pairwise disjoint minimal sets by branch and bound,
    smallest first, and grows them only as far as the packing reaches
    (``_minimal_sets``): the list starts with the sets of one vertex, and
    each time a packing loop has tried every set in it while frames are
    still parked, the next size that has any is appended, sorted by mask.
    Intended for hosts of at most 16 vertices; the budget counts grown
    sets, the vertices their removal tests try or visit, and the sets the
    packing tries.

    The packing returns once it holds its target: ``stop_at`` trees, or
    for an exact search the degree ceiling, which no packing exceeds.
    Below ``stop_at`` it prunes the branches that cannot reach that many.
    ``lower`` is the best packing found.  ``upper`` is the ceiling on a
    spent budget or a reached target; a finished exact search is exact,
    and a finished ``stop_at`` search that falls short bounds the value
    by ``stop_at - 1``.  A budget spent before the next size is wholly
    grown halts the packing like a budget spent anywhere, as the sets it
    did not grow may be packed.
    """
    if budget <= 0:
        raise ContractViolation("budget must be positive")
    if stop_at is not None and stop_at < 1:
        raise ContractViolation("stop_at must be positive")
    term_labels = sorted(set(terminals))
    for t in term_labels:
        g.check_label(t)
    if len(term_labels) < 2:
        raise ContractViolation("at least two terminals required")

    ground = [v for v in range(g.order) if v not in term_labels]
    index = {v: i for i, v in enumerate(ground)}
    deltas = adjacency_deltas(g.dim)

    def around(v: int) -> int:
        # the neighbours of v in the ground, as bits of their indices
        return sum(1 << index[w] for d in deltas if (w := v ^ d) in index)

    adj_mask = [around(v) for v in ground]
    attach_mask = [around(t) for t in term_labels]

    # hard ceiling: each packed tree consumes a distinct edge at every
    # terminal, and edges between terminals are unusable for |S| >= 3;
    # for |S| = 2 the direct edge itself is a valid tree
    direct_edge_tree = len(term_labels) == 2 and g.adjacent_labels(term_labels[0], term_labels[1])
    ceiling = min(am.bit_count() for am in attach_mask) + direct_edge_tree

    # the sets of one vertex, already sorted by mask; the rest are parked
    parked: list[tuple[int, ...]] = []
    minimal, nodes = _minimal_sets(adj_mask, attach_mask, budget, parked)

    # pack pairwise disjoint minimal sets, largest count wins; below
    # stop_at, a branch is worth searching only if it can reach stop_at
    target, floor = (ceiling, 0) if stop_at is None else (stop_at, stop_at - 1)
    chosen = [0] if direct_edge_tree else []
    best = 0
    witness: tuple[int, ...] = ()
    halted = False

    def slots_left(used: int) -> int:
        return min((am & ~used).bit_count() for am in attach_mask)

    def more() -> bool:
        # the next size that holds a minimal set, sorted by mask
        nonlocal nodes, halted
        while parked and nodes < budget:
            sets, spent = _minimal_sets(adj_mask, attach_mask, budget - nodes, parked)
            nodes += spent
            if sets and nodes < budget:
                minimal.extend(sorted(sets))
                return True
        halted = nodes >= budget
        return False

    def dfs(start: int, used: int, count: int) -> None:
        nonlocal best, nodes, witness, halted
        if count > best:
            best, witness = count, tuple(chosen)
        if nodes >= budget or best >= target:
            halted = True
            return
        if count + slots_left(used) <= max(best, floor):
            return
        # a deeper call may have grown the list; at its end, grow a size
        while start < len(minimal) or parked and more():
            end = len(minimal)
            for j in range(start, end):
                nodes += 1  # every set tried costs a node, taken or not
                if minimal[j] & used:
                    continue
                chosen.append(minimal[j])
                dfs(j + 1, used | minimal[j], count + 1)
                chosen.pop()
                if halted:
                    return
            start = end

    dfs(0, 0, len(chosen))
    # a spent budget (the packing halts on entry, or on a size it could
    # not finish growing) or a reached target bounds the value by the
    # ceiling; a finished search below stop_at proves only that stop_at
    # is out of reach
    upper = ceiling if halted else best if stop_at is None else min(ceiling, floor)
    sets = tuple(frozenset(v for i, v in enumerate(ground) if mask >> i & 1) for mask in witness)
    return OracleResult(lower=best, upper=upper, nodes_used=nodes, witness=sets)


# ---------------------------------------------------------------------------
# degree bound
# ---------------------------------------------------------------------------

def hager_upper_bound(g: AugmentedCube, k: int) -> int:
    """Largest pendant k-tree packing size not excluded by minimum degree:
    for S a vertex of degree d and k - 1 of its neighbours, each of m
    trees gives it its own neighbour outside S (one in S makes the tree
    one edge), so m <= d - k + 1; for k = 2 that edge is a tree: m <= d."""
    if k < 2:
        raise ContractViolation("terminal count must be at least 2")
    return g.degree if k == 2 else g.degree - k + 1
