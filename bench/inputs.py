"""Seeded benchmark inputs: case-stratified triples, certificates, mutants.

Uniform sampling almost never reaches the rare dispatch branches (nearly
every uniform triple is ``Case2_2_2a``), so each branch is drawn from the
xor relations that define it and then confirmed with ``classify``.  All
randomness comes from ``random.Random`` streams keyed by the seed and the
stratum, so the same seed gives the same inputs in every process.  Every
draw is bounded: a stratum that cannot be filled raises instead of looping.
"""

from __future__ import annotations

import copy
import json
import random

import aq

CASE2_STRATA = (
    "Case2_1_1",
    "Case2_1_2",
    "Case2_1_3",
    "Case2_2_1a",
    "Case2_2_1b",
    "Case2_2_2a",
    "Case2_2_2b",
    "Case2_2_2c",
    "Case2_2_3a",
    "Case2_2_3b",
    "Case2_2_3c",
)
# all targets in one half, and the half-copy instance is a Case2 branch
CASE1 = "Case1"
# all targets inside the bottom AQ_4: Case1 at every level down to the base
# search, with no flow call at all
CASE1_DEEP = "Case1-deep"

MAX_ATTEMPTS = 20_000

MUTANT_KINDS = {
    "dropped-edge": aq.verify.DISCONNECTED,
    "non-edge": aq.verify.NON_EDGE,
    "shared-vertex": aq.verify.SHARED_VERTEX,
    "terminal-degree-2": aq.verify.TERMINAL_DEGREE,
}


class InputError(RuntimeError):
    """A stratum or mutant could not be produced within its attempt bound."""


def _rng(seed: int, *key: object) -> random.Random:
    return random.Random(":".join(str(k) for k in (seed,) + key))


def case_of(n: int, labels) -> str:
    g = aq.topology.AugmentedCube(n)
    return aq.construct.classify(g, [aq.topology.Vertex(a, n) for a in labels]).case.value


def _propose_case2(rng: random.Random, n: int, stratum: str) -> tuple[int, int, int]:
    """x, y below the split and z above, drawn from the stratum's relations.

    Branch names read Case2_1_<k> when z is a cross-partner of x: k = 1
    for cross-twins (y = x ^ trail), 3 when z is adjacent to the hypercube
    partner of y, 2 otherwise.  The others read Case2_2_<q><r>: q = 1 for
    cross-twins, 3 for adjacent x, y; r = a / b / c when z touches the
    cross-partners of neither / one / both of x and y.
    """
    half = 1 << (n - 1)
    trail = half - 1
    side_deltas = [d for d in aq.topology.adjacency_deltas(n) if d < half]

    def partners(a: int) -> tuple[int, int]:
        return a | half, (a ^ trail) | half

    x = rng.randrange(half)
    if stratum.startswith("Case2_1"):
        z = rng.choice(partners(x))
        if stratum == "Case2_1_1":
            y = x ^ trail
        elif stratum == "Case2_1_3":
            y = (z ^ rng.choice(side_deltas)) & trail
        else:
            y = rng.randrange(half)
        return x, y, z
    q, r = stratum[-2], stratum[-1]
    if q == "1":
        y = x ^ trail
    elif q == "3":
        y = x ^ rng.choice(side_deltas)
    else:
        y = rng.randrange(half)
    if r == "b":
        z = rng.choice(partners(x) + partners(y)) ^ rng.choice(side_deltas)
    elif r == "c":
        z = rng.choice(partners(x)) ^ rng.choice(side_deltas)
        if q == "2":
            # pull y back from a cross-partner adjacent to z
            py = z ^ rng.choice(side_deltas)
            y = (py ^ half) ^ rng.choice((0, trail))
    else:
        z = rng.randrange(half, 2 * half)
    return x, y, z


def _propose(rng: random.Random, n: int, stratum: str) -> tuple[int, ...]:
    full = (1 << n) - 1
    if stratum == CASE1_DEEP:
        return tuple(rng.sample(range(16), 3))
    if stratum == CASE1:
        base = rng.randrange(2) << (n - 1)
        return tuple(base | a for a in rng.sample(range(1 << (n - 1)), 3))
    labels = _propose_case2(rng, n, stratum)
    if rng.randrange(2):
        # the complement automorphism keeps the branch and puts two targets above
        labels = tuple(a ^ full for a in labels)
    return labels


def _accepts(n: int, labels: tuple[int, ...], stratum: str) -> bool:
    if len(set(labels)) != 3:
        return False
    if stratum == CASE1_DEEP:
        return case_of(n, labels) == CASE1
    if stratum == CASE1:
        if case_of(n, labels) != CASE1:
            return False
        full = (1 << n) - 1
        lower = [a ^ full if a >> (n - 1) else a for a in labels]
        return case_of(n - 1, lower) != CASE1
    return case_of(n, labels) == stratum


def stratum_triples(seed: int, n: int, stratum: str, count: int) -> list[tuple[int, int, int]]:
    """``count`` distinct sorted triples of dimension n in the stratum."""
    rng = _rng(seed, n, stratum)
    out: list[tuple[int, int, int]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(MAX_ATTEMPTS * count):
        if len(out) == count:
            return out
        labels = tuple(sorted(_propose(rng, n, stratum)))
        if labels not in seen and _accepts(n, labels, stratum):
            seen.add(labels)
            out.append(labels)
    if len(out) == count:
        return out
    raise InputError(f"filled {len(out)} of {count} triples for {stratum} at n={n}")


def stratified_triples(seed: int, n: int, strata, per_stratum: int) -> list[tuple[str, tuple[int, int, int]]]:
    """Equal counts per stratum, interleaved round-robin so any prefix is balanced."""
    columns = {s: stratum_triples(seed, n, s, per_stratum) for s in strata}
    return [(s, columns[s][i]) for i in range(per_stratum) for s in strata]


# ---------------------------------------------------------------------------
# certificates and mutants
# ---------------------------------------------------------------------------

def certificate_doc(n: int, labels) -> dict:
    """The document ``aqsteiner construct`` prints for the triple."""
    g = aq.topology.AugmentedCube(n)
    terms = [aq.topology.Vertex(a, n) for a in labels]
    tag = aq.construct.classify(g, terms)
    family = aq.cli.build_family(g, terms)
    return aq.cli.certificate_doc(family, tag.case.value)


def _int_trees(doc: dict) -> list[list[tuple[int, int]]]:
    return [[(int(u, 2), int(v, 2)) for u, v in tree["edges"]] for tree in doc["trees"]]


def _with_edges(doc: dict, trees: list[list[tuple[int, int]]]) -> dict:
    n = doc["n"]
    out = copy.deepcopy(doc)
    out["trees"] = [
        {"edges": sorted([format(min(u, v), f"0{n}b"), format(max(u, v), f"0{n}b")] for u, v in tree)}
        for tree in trees
    ]
    return out


def mutate(doc: dict, kind: str, rng: random.Random) -> dict | None:
    """A copy of the certificate with one defect of the given kind, or None
    when this certificate has no place for it.

    Each defect is placed so that the checker must report exactly one
    violation kind, ``MUTANT_KINDS[kind]``.
    """
    n = doc["n"]
    g = aq.topology.AugmentedCube(n)
    terms = {int(s, 2) for s in doc["s"]}
    trees = _int_trees(doc)
    owner = {a: i for i, tree in enumerate(trees) for e in tree for a in e if a not in terms}
    choices: list[tuple[int, tuple[int, int]]] = []
    if kind == "dropped-edge":
        # both ends keep another edge, so the tree splits into two pieces
        for i, tree in enumerate(trees):
            degree: dict[int, int] = {}
            for u, v in tree:
                degree[u] = degree.get(u, 0) + 1
                degree[v] = degree.get(v, 0) + 1
            choices += [(i, e) for e in tree if degree[e[0]] > 1 and degree[e[1]] > 1]
    elif kind == "non-edge":
        free = [a for a in range(1 << n) if a not in owner and a not in terms]
        for a, i in sorted(owner.items()):
            b = rng.choice(free)
            if not g.adjacent_labels(a, b):
                choices.append((i, (a, b)))
    elif kind == "shared-vertex":
        # hang a vertex internal to tree j onto an internal vertex of tree i
        for a, i in sorted(owner.items()):
            for d in aq.topology.adjacency_deltas(n):
                j = owner.get(a ^ d)
                if j is not None and j != i:
                    choices.append((i, (a, a ^ d)))
    elif kind == "terminal-degree-2":
        # a fresh leaf on a terminal: nothing else about the tree changes
        for t in sorted(terms):
            for d in aq.topology.adjacency_deltas(n):
                w = t ^ d
                if w not in owner and w not in terms:
                    choices += [(i, (t, w)) for i in range(len(trees))]
    else:
        raise ValueError(f"unknown mutant kind {kind!r}")
    if not choices:
        return None
    i, edge = rng.choice(choices)
    if kind == "dropped-edge":
        trees[i] = [e for e in trees[i] if e != edge]
    else:
        trees[i] = trees[i] + [edge]
    return _with_edges(doc, trees)


def certificate_items(seed: int, plan) -> list[tuple[str, str, bool, str | None]]:
    """Serialised certificates for ``plan`` = [(n, stratum, count)], each
    followed by two mutants; even certificates get the dropped-edge and
    shared-vertex kinds, odd ones the other two.

    Items are (label, json text, accepted, expected violation kind).
    """
    docs = []
    for n, stratum, count in plan:
        for labels in stratum_triples(seed, n, stratum, count):
            docs.append((f"n{n}-{stratum}", certificate_doc(n, labels)))
    kinds = list(MUTANT_KINDS)
    items = []
    for i, (label, doc) in enumerate(docs):
        items.append((label, json.dumps(doc, indent=2) + "\n", True, None))
        for kind in kinds[i % 2::2]:
            rng = _rng(seed, "mutant", i, kind)
            for j in range(len(docs)):
                bad = mutate(docs[(i + j) % len(docs)][1], kind, rng)
                if bad is not None:
                    break
            else:
                raise InputError(f"no certificate admits a {kind} mutant")
            items.append((f"{label}-{kind}", json.dumps(bad, indent=2) + "\n", False, MUTANT_KINDS[kind]))
    return items
