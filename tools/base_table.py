"""Print the constructor's table of base families, from the packing oracle.

    python3 tools/base_table.py

For n = 3 and 4 and every least translate of
``construct.least_translates(n)``, in that order, the tool runs
``oracle.oracle_tau`` with ``stop_at = 2n - 3`` and turns each packed
internal set into a tree: a breadth-first spanning tree of the set from
its smallest label, each vertex taking its neighbours in ascending
order, plus each target's edge to its smallest neighbour in the set.
It prints ``construct._BASE_TABLE`` as Python source: one string per
class, its trees in packing order separated by spaces, and each tree
its sorted edges (u, v), u < v, as two hex digits u and v.  A class
that packs fewer than 2n - 3 trees stops the tool with exit status 1.
The package is imported from this checkout; a run takes a few tens of
milliseconds.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqsteiner.construct import least_translates  # noqa: E402
from aqsteiner.oracle import oracle_tau  # noqa: E402
from aqsteiner.topology import AugmentedCube, adjacency_deltas  # noqa: E402

DIMS = (3, 4)


def spanning_edges(g: AugmentedCube, terms: Sequence[int], internal: frozenset[int]) -> list[tuple[int, int]]:
    """A spanning tree of the internal set, smallest labels first, plus
    each target's edge to its smallest neighbour in the set, sorted."""
    deltas = adjacency_deltas(g.dim)
    members = sorted(internal)
    edges: set[tuple[int, int]] = set()
    seen = {members[0]}
    frontier = [members[0]]
    while frontier:
        a = frontier.pop(0)
        for b in sorted(a ^ d for d in deltas):
            if b in internal and b not in seen:
                seen.add(b)
                edges.add((min(a, b), max(a, b)))
                frontier.append(b)
    for t in terms:
        hook = min(t ^ d for d in deltas if t ^ d in seen)
        edges.add((min(t, hook), max(t, hook)))
    return sorted(edges)


def table() -> dict[int, tuple[str, ...]]:
    """The rows of every base dimension, each class's trees encoded."""
    rows: dict[int, tuple[str, ...]] = {}
    for n in DIMS:
        g = AugmentedCube(n)
        target = 2 * n - 3
        encoded = []
        for canon in least_translates(n):
            res = oracle_tau(g, canon, stop_at=target)
            if res.lower < target:
                raise SystemExit(f"{list(canon)} at n = {n} packs {res.lower} trees, not {target}")
            trees = [spanning_edges(g, canon, internal) for internal in res.witness]
            encoded.append(" ".join("".join(f"{u:x}{v:x}" for u, v in edges) for edges in trees))
        rows[n] = tuple(encoded)
    return rows


def render(rows: dict[int, tuple[str, ...]]) -> str:
    """The table as the Python source of its assignment."""
    lines = ["_BASE_TABLE = {"]
    for n, encoded in rows.items():
        lines.append(f"    {n}: (")
        lines.extend(f'        "{row}",' for row in encoded)
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    sys.stdout.write(render(table()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
