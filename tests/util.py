"""Independent oracles used by the tests.

These deliberately do not share code with the package: the recursive
edge builder follows the two-copies-plus-matchings definition literally,
and the minimum-cut search enumerates deletion sets by brute force over
bitmask adjacency.  Anything the package computes cleverly is checked
against these slow-but-obvious versions.

``reference_flow_paths`` is the exception: it is Edmonds-Karp, one BFS
per augmenting path over the same split-vertex residual network as
``paths._flow_paths``, but with its own bookkeeping (node ids, a parent
map and a set of flow-carrying arcs instead of successor and
predecessor maps), and it runs on any view, where the package's flow
runs only on a whole cube.  It is kept as a differential oracle, since
the two must return the same path lists and the same cuts.  ``reference_verify_family`` and
``reference_check_path_system`` are kept the same way: the certificate
and path-system checks as they were before ``verify`` moved to one int
pass per tree.  ``verify.check_path_system`` now only says whether a
system is valid, so ``reference_check_path_system`` is the only code
that names path-system problems: run it to diagnose a system that the
package rejects.  ``reference_canonical_triple`` is the least triple
under every (swap, mask) automorphism, a search over all 2^(n+1)
pairs, which names the orbit classes of the oracle tests.
``reference_least_translate`` is the least sorted translate S ^ a as
the minimum over the three targets a, the search that the closed form
of ``construct.least_translate`` replaced.
``reference_minimal_sets`` is the oracle's first phase as a subset
scan: every subset of the ground, smallest first, kept when it holds no
set kept before and one of its components meets every attach mask.
``reference_oracle_tau`` packs those sets, sorted by size and mask, by
the oracle's branch and bound with no budget: the search that
``oracle.oracle_tau`` ran before it grew the sets one size at a time.
``recursive_adjacent`` is the recursive definition one leading bit at
a time, so ``reference_check_path_system`` runs at every dimension.
``inverse_gray`` is the prefix xor that undoes ``topology.gray``: the
Gray definition that the closed form of ``paths._reflect`` is tested
against.

``run_bounded`` runs the large-dimension tests in a child process with
capped memory, so a view that gets materialised fails fast with
``MemoryError`` instead of exhausting the machine.  ``load_tool``
imports a script of ``tools/`` as a module.
"""

from __future__ import annotations

import importlib.util
import itertools
import resource
import subprocess
import sys
from collections import deque
from functools import lru_cache
from pathlib import Path

MEMORY_LIMIT = 1 << 30
TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    """The script ``tools/<name>.py``, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, TOOLS_DIR / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def inverse_gray(g: int) -> int:
    """The label with Gray coordinates g: the prefix xor of g's bits."""
    shift = 1
    while g >> shift:
        g ^= g >> shift
        shift <<= 1
    return g


@lru_cache(maxsize=None)
def recursive_edges(n: int) -> frozenset[frozenset[int]]:
    """Edge set of the n-dimensional augmented cube built literally from
    the recursive definition: two copies one dimension down, joined by
    the bit-keeping matching and the all-bits matching."""
    if n == 1:
        return frozenset({frozenset({0, 1})})
    prev = recursive_edges(n - 1)
    half = 1 << (n - 1)
    mask = half - 1
    edges = set()
    for e in prev:
        a, b = tuple(e)
        edges.add(frozenset({a, b}))
        edges.add(frozenset({a | half, b | half}))
    for x in range(half):
        edges.add(frozenset({x, x | half}))
        edges.add(frozenset({x, (x ^ mask) | half}))
    return frozenset(edges)


def recursive_adjacent(n: int, a: int, b: int) -> bool:
    """Adjacency in AQ_n by the same recursive definition, one leading bit
    at a time, for dimensions too large to list the edges: labels with
    the same leading bit are adjacent when they are in the copy one
    dimension down, and labels with different ones when their trailing
    bits are equal or complementary."""
    if not (0 <= a < 1 << n and 0 <= b < 1 << n):
        return False
    for k in range(n - 1, 0, -1):
        low = (1 << k) - 1
        if (a ^ b) >> k & 1:
            return a & low == b & low or a & low == ~b & low
        a, b = a & low, b & low
    return a != b


def recursive_adjacency_masks(n: int) -> list[int]:
    masks = [0] * (1 << n)
    for e in recursive_edges(n):
        a, b = tuple(e)
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def reachable_mask(masks: list[int], allowed: int, start: int) -> int:
    seen = 1 << start
    frontier = seen
    while frontier:
        grow = 0
        f = frontier
        while f:
            b = f & -f
            f ^= b
            grow |= masks[b.bit_length() - 1]
        frontier = grow & allowed & ~seen
        seen |= frontier
    return seen


def brute_min_vertex_cut(masks: list[int], n: int, u: int, v: int) -> int | None:
    """Smallest vertex set separating u from v, or None when u ~ v
    (no vertex deletion can separate an adjacent pair)."""
    if masks[u] >> v & 1:
        return None
    total = 1 << n
    others = [w for w in range(total) if w not in (u, v)]
    full = (1 << total) - 1
    for size in range(len(others) + 1):
        for cut in itertools.combinations(others, size):
            allowed = full
            for w in cut:
                allowed &= ~(1 << w)
            if not reachable_mask(masks, allowed, u) >> v & 1:
                return size
    return None


def max_disjoint_paths_brute(masks: list[int], n: int, u: int, v: int) -> int:
    """Maximum internally disjoint u-v paths, via the cut side of the
    duality: direct edge contributes one, the rest equals the minimum
    cut once the direct edge is removed."""
    direct = bool(masks[u] >> v & 1)
    if direct:
        m2 = list(masks)
        m2[u] &= ~(1 << v)
        m2[v] &= ~(1 << u)
        inner = brute_min_vertex_cut(m2, n, u, v)
        return 1 + (inner if inner is not None else 0)
    cut = brute_min_vertex_cut(masks, n, u, v)
    assert cut is not None
    return cut


def triangles(masks: list[int], n: int) -> list[tuple[int, int, int]]:
    out = []
    for a, b, c in itertools.combinations(range(1 << n), 3):
        if masks[a] >> b & 1 and masks[a] >> c & 1 and masks[b] >> c & 1:
            out.append((a, b, c))
    return out


def run_bounded(code: str, timeout: float = 30) -> str:
    """Run Python source in a child limited to MEMORY_LIMIT bytes of
    address space and ``timeout`` seconds; return its stdout."""

    def limit() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))

    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=timeout, preexec_fn=limit
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def reference_flow_paths(view, s: int, t: int, k: int) -> tuple[list[list[int]] | None, list[int]]:
    """Edmonds-Karp on the implicit split-vertex network of ``view``:
    (paths, []) with exactly k label paths, or (None, vertex_cut)."""
    from aqsteiner.topology import adjacency_deltas

    deltas = adjacency_deltas(view.dim)
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
            out = closed[v] = sorted([v, *(v ^ d for d in deltas if v ^ d in view.allowed)])
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


# ---------------------------------------------------------------------------
# reference certificate checks
# ---------------------------------------------------------------------------
#
# The tuple-keyed checker: one ``check_label`` pair, one
# ``adjacent_labels`` call and two adjacency ``setdefault`` calls per
# edge.  The path-system check tests each path step against the view's
# labels and ``recursive_adjacent``, and calls nothing of the package.
# ``verify`` must return the same violations in the same order, the same
# problem strings and the same ``ContractViolation`` text.


def reference_tree_violations(g, terminals, tree, index, edge_owner, vertex_owner):
    from aqsteiner.verify import (
        CYCLE,
        DISCONNECTED,
        NON_EDGE,
        SHARED_EDGE,
        SHARED_VERTEX,
        TERMINAL_DEGREE,
        Violation,
    )

    width = g.dim
    check_label = g.check_label
    out = []
    shared = []
    vertices = set()
    adj = {}
    ok_edges = 0
    for u, v in tree.edges:
        check_label(u)
        check_label(v)
        vertices.update((u, v))
        key = (u, v) if u <= v else (v, u)
        if key in edge_owner:
            shared.append(Violation(SHARED_EDGE, (edge_owner[key], index), f"edge {u:0{width}b}-{v:0{width}b} reused"))
        else:
            edge_owner[key] = index
        if not g.adjacent_labels(u, v):
            out.append(Violation(NON_EDGE, (index,), f"{u:0{width}b}-{v:0{width}b} is not an edge"))
            continue
        ok_edges += 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    if ok_edges:
        components = _reference_count_components(adj)
        if components > 1:
            out.append(Violation(DISCONNECTED, (index,), "edge set is not connected"))
        if ok_edges > len(adj) - components:
            out.append(Violation(CYCLE, (index,), "edge set contains a cycle"))
    for t in sorted(terminals):
        d = len(adj.get(t, ()))
        if d != 1:
            out.append(Violation(TERMINAL_DEGREE, (index,), f"terminal {t:0{width}b} has degree {d}"))
    out += shared
    for w in sorted(vertices - terminals):
        if w in vertex_owner:
            out.append(Violation(SHARED_VERTEX, (vertex_owner[w], index), f"internal vertex {w:0{width}b} reused"))
        else:
            vertex_owner[w] = index
    return out


def _reference_count_components(adj):
    count = 0
    left = set(adj)
    while left:
        start = left.pop()
        queue = deque([start])
        while queue:
            a = queue.popleft()
            for b in adj[a]:
                if b in left:
                    left.remove(b)
                    queue.append(b)
        count += 1
    return count


def reference_verify_family(g, family):
    from aqsteiner.verify import WRONG_TERMINALS, VerificationReport, Violation

    labels = set()
    for t in family.terminals:
        g.check_vertex(t)
        labels.add(t.bits)
    terminals = frozenset(labels)
    violations = []
    if len(terminals) != 3:
        violations.append(Violation(WRONG_TERMINALS, (), f"expected 3 terminals, got {len(terminals)}"))
    edge_owner = {}
    vertex_owner = {}
    for i, tree in enumerate(family.trees):
        violations += reference_tree_violations(g, terminals, tree, i, edge_owner, vertex_owner)
    return VerificationReport(tuple(violations))


def reference_check_path_system(view, ps):
    width = view.dim
    problems = []
    if ps.source == ps.sink:
        problems.append("source equals sink")
    seen_inner = {}
    seen_edges = {}
    for i, vs in enumerate(ps.paths):
        if len(vs) < 2:
            problems.append(f"path {i} has fewer than two vertices")
            continue
        if vs[0] != ps.source or vs[-1] != ps.sink:
            problems.append(f"path {i} does not run source to sink")
        if len(set(vs)) != len(vs):
            problems.append(f"path {i} repeats a vertex")
        for a, b in zip(vs, vs[1:]):
            # an edge of the view: both ends in it, and an edge of the
            # literal recursive cube (which holds no label outside it)
            if not (a in view.allowed and b in view.allowed and recursive_adjacent(width, a, b)):
                problems.append(f"path {i} uses non-edge {a:0{width}b}-{b:0{width}b}")
            key = (a, b) if a <= b else (b, a)
            if key in seen_edges and seen_edges[key] != i:
                problems.append(f"edge {a:0{width}b}-{b:0{width}b} appears in paths {seen_edges[key]} and {i}")
            seen_edges[key] = i
        for w in vs[1:-1]:
            if w in seen_inner:
                problems.append(f"inner vertex {w:0{width}b} shared by paths {seen_inner[w]} and {i}")
            else:
                seen_inner[w] = i
    return problems


def _reference_swap(v: int, n: int) -> int:
    # complement the trailing n - 1 bits of an upper-copy label
    half = 1 << (n - 1)
    return v ^ (half - 1) if v & half else v


def reference_canonical_triple(n: int, labels) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The least sorted image of the labels under every (swap, mask) pair,
    and the least pair that gives it."""
    return min(
        (tuple(sorted((_reference_swap(v, n) if swap else v) ^ mask for v in labels)), (swap, mask))
        for swap in (0, 1)
        for mask in range(1 << n)
    )


def reference_least_translate(labels) -> tuple[tuple[int, ...], int]:
    """The least sorted translate S ^ a over the three targets a, and that a."""
    return min((tuple(sorted(v ^ a for v in labels)), a) for a in labels)


def reference_minimal_sets(adj_mask: list[int], attach_mask: list[int]) -> list[int]:
    """The minimal internal sets over a ground of bit-indexed vertices,
    in scan order: by size, then lexicographically by index."""

    def feasible(mask: int) -> bool:
        rest = mask
        while rest:
            comp = reachable_mask(adj_mask, mask, (rest & -rest).bit_length() - 1)
            if all(am & comp for am in attach_mask):
                return True
            rest &= ~comp
        return False

    minimal: list[int] = []
    m = len(adj_mask)
    for size in range(1, m + 1):
        for combo in itertools.combinations(range(m), size):
            mask = sum(1 << i for i in combo)
            if not any(prev & mask == prev for prev in minimal) and feasible(mask):
                minimal.append(mask)
    return minimal


@lru_cache(maxsize=None)
def _reference_packing_input(n: int, terms: tuple[int, ...]):
    # the ground labels, the attach masks and every minimal set sorted by
    # (size, mask), over the recursive edge set
    masks = recursive_adjacency_masks(n)
    ground = [v for v in range(1 << n) if v not in terms]

    def pick(mask: int) -> int:
        return sum(1 << i for i, v in enumerate(ground) if mask >> v & 1)

    adj_mask = [pick(masks[v]) for v in ground]
    attach_mask = [pick(masks[t]) for t in terms]
    minimal = sorted(reference_minimal_sets(adj_mask, attach_mask), key=lambda m: (m.bit_count(), m))
    return tuple(ground), tuple(attach_mask), tuple(minimal)


def reference_oracle_tau(n: int, terms, stop_at: int | None = None) -> tuple[int, int, tuple[frozenset[int], ...]]:
    """(lower, upper, witness) of the packing oracle with no budget: every
    minimal set of the subset scan, sorted by (size, mask), then the
    branch and bound that packs them in that order, pruned by the degree
    slots left and stopped once it holds ``stop_at`` sets."""
    terms = tuple(sorted(set(terms)))
    ground, attach_mask, minimal = _reference_packing_input(n, terms)
    direct = len(terms) == 2 and recursive_adjacent(n, *terms)
    ceiling = min(am.bit_count() for am in attach_mask) + direct
    floor = 0 if stop_at is None else stop_at - 1
    best, witness = 0, ()

    def pack(start: int, used: int, chosen: list[int]) -> bool:
        # whether the search stopped at stop_at sets
        nonlocal best, witness
        if len(chosen) > best:
            best, witness = len(chosen), tuple(chosen)
        if stop_at is not None and best >= stop_at:
            return True
        if len(chosen) + min((am & ~used).bit_count() for am in attach_mask) <= max(best, floor):
            return False
        return any(
            not minimal[j] & used and pack(j + 1, used | minimal[j], chosen + [minimal[j]])
            for j in range(start, len(minimal))
        )

    stopped = pack(0, 0, [0] if direct else [])
    upper = ceiling if stopped else best if stop_at is None else min(ceiling, floor)
    sets = tuple(frozenset(v for i, v in enumerate(ground) if mask >> i & 1) for mask in witness)
    return best, upper, sets
