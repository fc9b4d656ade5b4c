"""Exact packing oracle for small hosts, and the degree bound.

``oracle_tau`` brackets the largest number of internally disjoint
pendant Steiner trees on a target set by exhaustive packing.  It grows
its minimal internal sets as connected vertex sets on bitmasks
(``_minimal_sets``), one size at a time and only as far as its packing
reaches, which stops at its target: ``stop_at`` trees, or for an exact
search the degree ceiling.  ``hager_upper_bound`` is the degree bound on
the least value over k-sets.  Targets are plain int labels.

The module imports nothing of the package but ``topology``, and only
the ``oracle`` and ``info`` commands load it.  The constructor reads its
base families from a table that ``tools/base_table.py`` writes with
this oracle, so no build runs a search.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .topology import AugmentedCube, ContractViolation, adjacency_deltas

DEFAULT_ORACLE_BUDGET = 5_000_000


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
    one edge), so m <= d - k + 1; for k = 2 that edge is a tree: m <= d.
    From k = d + 1 on, S can hold a vertex and all of its neighbours; no
    pendant tree leaves that vertex a neighbour outside S, so the bound
    is 0.  No set has more than 2^n vertices."""
    if k < 2:
        raise ContractViolation("terminal count must be at least 2")
    if k > g.order:
        raise ContractViolation(f"terminal count must be at most {g.order}")
    return g.degree if k == 2 else max(0, g.degree - k + 1)
