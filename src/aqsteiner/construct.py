"""Constructor for maximal families of internally disjoint pendant
Steiner trees on three targets in an augmented cube.

For dimension n >= 3 and any three distinct targets S the constructor
returns 2n - 3 trees in which every target is a leaf, pairwise sharing
no edge and no vertex beyond S.  Every triple is first moved to its
least translate S ^ a (``least_translate``), built there and moved
back, so construct(S ^ b) is construct(S) translated by b.
Dimensions 3 and 4 read the 2n - 3 trees of the least translate from
a table (``_BASE_TABLE``) that ``tools/base_table.py`` writes from
packings of the exhaustive search ``oracle.oracle_tau``, so no build
runs a search; higher dimensions run a recursive case analysis on how
the least translate straddles the two half-copies:

- all three targets in one half: recurse inside that half, then route
  two extra trees through the quarter-cubes of the other half, using the
  fact that each target has exactly one cross-partner in each quarter,
  and joining those partners by geodesics inside the quarter;
- two targets x, y below and one target z above: the grid splice.  A
  full fan of 2n - 3 disjoint x-y paths below ends at y through every
  neighbour of y, and a full fan above runs from z to img(y), the image
  of y under the h or c matching, which maps y's neighbours onto
  img(y)'s; so the upper fan can be pinned to end path i through the
  image of lower path i's last inner vertex, and each lower path joins
  its upper path through that matching edge.  img is c when x ~ y and
  z = h(x), and h otherwise; adjacent x, y trade the first pair for one
  tree through the two partner edges.  The one exception is Case2_1_1:
  cross-twins x, y with z a partner of x get a star through x's other
  partner x ^ y ^ z, which is a partner of y, and 2n - 4 trees that
  climb to z from y's other lower neighbours.
  A recipe reads each fan by its difference d alone: ``_fan(n, d)`` is
  the full fan of 2n - 3 paths from 0 to d in AQ_(n-1) (AQ_n's deltas
  below 2^(n-1)), built by induction down to a flow search of AQ_4,
  checked once inside the lower half-copy and never moved.  A recipe
  moves its lower fan by x, and the splice's upper fan by z only along
  the part of each path that a tree takes.

The fan from 0 to d is the pure function ``paths.fan(n - 1, d)``, so a
sweep needs at most 2^(n-1) - 1 distinct fans.  ``_checked_fan(n, d)``
builds it and checks it against the lower half-copy of AQ_n, where it
lives.  Translation by a label x is an automorphism of the Cayley
graph AQ_n that maps the lower half-copy onto x's, so the one check
covers every translate, and translates are not checked again.  A sweep
batch opens one ``fan_memo()``, an LRU cache of at most
``FAN_MEMO_MAX`` checked, untranslated fans keyed by (n, d), for all
its constructs, and every fan a recipe uses comes from it; a lone
construct builds its fans directly.  A recipe takes each fan it needs
once: Case2_1_2 with z = h(x), whose two fans share d, hands the lower
fan itself to the upper side.  Every family still passes the verifier.
The base families are likewise the pure function ``_base_trees`` of
the least translate, decoded from the table once per process.

A sweep names each translation class by its least translate alone:
every least translate of AQ_n (``least_translates``), or those of a
sample's triples (``least_translate``).  It calls ``construct`` on the
least translate alone; the same translation argument carries that one
verified family to every member, since construct(canon ^ a) is
construct(canon) translated by a.

The dispatch is total: it names a case for every triple, and every
case has a written recipe, so there is no repair path.
Every top-level ``construct`` call runs the independent verifier once,
on its result; a rejected family is a bug and raises ``InternalError``.
Case1 recurses through ``construct`` once per dimension, and those
inner calls skip the verifier: the top-level family holds every inner
tree, and the lower half-copy of AQ_n is a copy of AQ_(n-1), so the
one check of the whole family also checks each inner level.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import paths as _paths
from . import verify as _verify
from .paths import path_edges, undirected as _edge
from .topology import (
    AugmentedCube,
    ContractViolation,
    GraphView,
    Vertex,
    c_label,
    delta_set,
    h_label,
    side_view,
)


class Case(Enum):
    BASE3 = "Base3"
    BASE4 = "Base4"
    CASE1 = "Case1"
    CASE2_1_1 = "Case2_1_1"
    CASE2_1_2 = "Case2_1_2"
    CASE2_1_3 = "Case2_1_3"
    CASE2_2_1A = "Case2_2_1a"
    CASE2_2_1B = "Case2_2_1b"
    CASE2_2_2A = "Case2_2_2a"
    CASE2_2_2B = "Case2_2_2b"
    CASE2_2_2C = "Case2_2_2c"
    CASE2_2_3A = "Case2_2_3a"
    CASE2_2_3B = "Case2_2_3b"
    CASE2_2_3C = "Case2_2_3c"


class CaseTag(NamedTuple):
    """Which branch built a tree batch, and from which translate.

    ``transform`` is the label a of the translation v -> v ^ a that
    moved the targets to their least translate (``least_translate``),
    the coordinates the branch built in.  ``roles`` gives the labels
    (x, y, z) in those coordinates for the two-one split branches, and
    is None for Case1 and the base families.  The grid splice picks its
    matching from the roles alone (``_splice_image``).
    """

    case: Case
    transform: int = 0
    roles: tuple[int, int, int] | None = None


class SteinerTree(NamedTuple):
    """One tree of a family: its label edges (u, v) with u < v.  Its
    terminals are the family's."""

    edges: frozenset[tuple[int, int]]


class TreeFamily(NamedTuple):
    """The trees built for one target set S.  S is a set of ``Vertex``,
    as in a parsed certificate: ``verify.verify_family`` reads S as
    objects with ``bits`` and ``dim`` and so checks both kinds of family
    alike.  Every tree is label edges, and ``fallback_used`` a class
    constant for the v1 certificate schema: no family is repaired."""

    dim: int
    terminals: frozenset[Vertex]
    trees: tuple[SteinerTree, ...]
    provenance: tuple[CaseTag, ...]
    fallback_used = False


class InternalError(RuntimeError):
    """A construction that must succeed did not: a bug, never bad input."""


def target_family_size(dim: int) -> int:
    return 2 * dim - 3


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _validate_terminals(g: AugmentedCube, terminals: Iterable[Vertex]) -> tuple[int, ...]:
    terms = list(terminals)
    if len(terms) != 3:
        raise ContractViolation(f"exactly 3 targets required, got {len(terms)}")
    n, order = g.dim, 1 << g.dim
    for t in terms:
        # only a target that fails the range test calls the check that
        # names its fault
        if t.dim != n or not 0 <= t.bits < order:
            g.check_vertex(t)
    labels = tuple(sorted(t.bits for t in terms))
    if len(set(labels)) != 3:
        raise ContractViolation("targets must be distinct")
    if g.dim < 3:
        raise ContractViolation("construction needs dimension at least 3")
    return labels


def least_translate(labels: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The least sorted translate S ^ a of the targets, and that a.

    A translate S ^ a holds 0 only when a is a target, and its other two
    labels are then a's differences with the other two targets.  The
    three pairwise differences are distinct (u ^ v = u ^ w makes v = w);
    call them d1 < d2 < d3.  So (0, d1, d2) is the least translate, and a
    is the target opposite the largest difference d3; translates keep
    their differences, so they share their least translate.  The
    differences xor to 0, so d3 = d1 ^ d2: a least translate (0, p, z)
    has p < z < p ^ z, and every such triple is one.  Hence an upper z
    forces a lower p, since an upper p would make p ^ z lower than z: at
    most one label of the least translate is upper, the last.  More
    generally hb(p) < hb(z), for hb the highest set bit: z < p ^ z says
    that z lacks hb(p), and then p < z needs a bit of z above hb(p).

    So the result is written down, not searched or sorted: a's two
    differences are d1 and d2, in order by one comparison."""
    u, v, w = labels
    vw, uw, uv = v ^ w, u ^ w, u ^ v
    if vw > uw and vw > uv:
        return ((0, uv, uw) if uv < uw else (0, uw, uv)), u
    if uw > uv:
        return ((0, uv, vw) if uv < vw else (0, vw, uv)), v
    return ((0, uw, vw) if uw < vw else (0, vw, uw)), w


def least_translates(n: int) -> Iterator[tuple[int, int, int]]:
    """The least translates of AQ_n in ascending order, one per
    translation class: the (0, p, z) with 0 < p < z < p ^ z
    (``least_translate``).  Every class holds 2^n members, the
    sorted(v ^ a for v in canon) for each label a."""
    return ((0, p, z) for p in range(1, 1 << n) for z in range(p + 1, 1 << n) if z < p ^ z)


def _dispatch(n: int, labels: Sequence[int]) -> CaseTag:
    """Classify a target triple by its least translate (0, p, z).

    The tag's ``transform`` is the a of ``least_translate``.  Case1 is
    a lower z.  An upper z forces a lower p (``least_translate``), so
    then 0 and p are below: z is handed to x, the one of 0 and p whose
    cross-partner it is (0 when it partners neither), and y is the
    other.  Past that, which partners of x and y the target z touches
    only names the case, for the certificate's ``case`` field and the
    sweep histogram: every Case2 branch but the Case2_1_1 star runs the
    one grid splice, which reads only the roles.

    Every relation is an xor mask.  ``h_label`` and ``c_label`` are
    translations, so h(v) = v ^ half and c(v) = v ^ full with half =
    h(0) and full = c(0); u ~ v is u ^ v in the delta set, as in
    ``AugmentedCube.adjacent_labels``; and x, y are cross-twins,
    {h(x), c(x)} = {h(y), c(y)}, exactly when x ^ y = half ^ full.
    """
    (_, p, z), a = least_translate(labels)
    half = h_label(0, n)
    if z < half:
        return tuple.__new__(CaseTag, (Case.CASE1, a, None))
    full = c_label(0, n)
    deltas = delta_set(n)
    x, y = (p, 0) if z ^ p in (half, full) else (0, p)
    twins = x ^ y == half ^ full
    # z ^ v ^ half and z ^ v ^ full test z against h(v) and c(v)
    zx, zy = z ^ x, z ^ y
    if zx == half or zx == full:
        # h and c are translations, so z touches y's same-kind partner
        # exactly when x ~ y
        case = Case.CASE2_1_1 if twins else Case.CASE2_1_3 if x ^ y in deltas else Case.CASE2_1_2
    elif twins:
        # cross-twins share both partners, and z is neither (else it
        # would be a partner of x, above)
        both = zx ^ half in deltas and zx ^ full in deltas
        case = Case.CASE2_2_1B if both else Case.CASE2_2_1A
    else:
        xside = zx ^ half in deltas or zx ^ full in deltas
        yside = zy ^ half in deltas or zy ^ full in deltas
        if x ^ y in deltas:
            cases = (Case.CASE2_2_3A, Case.CASE2_2_3B, Case.CASE2_2_3C)
        else:
            cases = (Case.CASE2_2_2A, Case.CASE2_2_2B, Case.CASE2_2_2C)
        case = cases[xside + yside]
    return tuple.__new__(CaseTag, (case, a, (x, y, z)))


def classify(g: AugmentedCube, terminals: Iterable[Vertex]) -> CaseTag:
    """Structural classification of a target triple (any dim >= 3)."""
    return _dispatch(g.dim, _validate_terminals(g, terminals))


# ---------------------------------------------------------------------------
# recipe building blocks
# ---------------------------------------------------------------------------

# The memoised ``_checked_fan`` of the active ``fan_memo()``; None outside
# one.  A ContextVar, so each thread sees only the memo it entered.
_fan_memo: contextvars.ContextVar[Callable[[int, int], _paths.PathSystem] | None] = (
    contextvars.ContextVar("fan_memo", default=None)
)
# A sweep at dimension n needs at most 2^(n-1) - 1 fans, so the cap covers
# every d up to n = 11 (the exhaustive n = 5 sweep holds 15).  One n = 62
# fan holds a median of 140 KiB (98-313 KiB by tracemalloc over 20 seeded
# d), so a full memo at n = 62 holds about 140 MiB, at most about 313 MiB.
# Caps 1024 / 4096, measured on a 2-core VM with fans built as step
# words: `sweep -n 62 --samples 1200 --seed 1` peaks at 150 / 318 MB RSS
# in 29-36 / 31 s, and `sweep -n 13 --samples 4000 --seed 1` (up to 4,095
# fans) takes a median 4.33 / 4.12 s (quartiles 4.25-4.47 / 3.97-4.25 s,
# 8 alternating runs): 5 % apart, so 1024 stands, at under half the RSS.
FAN_MEMO_MAX = 1024


def _checked_fan(n: int, d: int) -> _paths.PathSystem:
    """``paths.fan(n - 1, d)``, checked against the lower half-copy of
    AQ_n, the copy it lives in; a problem raises ``InternalError``."""
    fan = _paths.fan(n - 1, d)
    if not _verify.check_path_system(side_view(AugmentedCube(n), 0), fan):
        raise InternalError(f"fan to {d:0{n}b} is no path system of the lower half-copy of AQ_{n}")
    return fan


@contextlib.contextmanager
def fan_memo():
    """Open a memo of checked fans ``_checked_fan(n, d)``, an LRU cache of
    at most ``FAN_MEMO_MAX`` fans, that ends when the block exits,
    normally or by an exception.  ``_fan`` takes every fan from the
    open memo; a nested block opens a memo of its own and restores the
    outer one on exit.  A sweep batch (``cli._sweep_classes``) opens the
    one memo of its constructs."""
    token = _fan_memo.set(functools.lru_cache(maxsize=FAN_MEMO_MAX)(_checked_fan))
    try:
        yield
    finally:
        _fan_memo.reset(token)


def _fan(n: int, d: int) -> _paths.PathSystem:
    """The checked fan ``_checked_fan(n, d)`` from 0 to d, from the open
    ``fan_memo()`` or built directly outside one, never moved: its one
    check covers every translate a recipe makes of it."""
    return (_fan_memo.get() or _checked_fan)(n, d)


def _pin(ps: _paths.PathSystem, wanted: Sequence[int]) -> _paths.PathSystem:
    """Reorder so that path i reaches the sink through wanted[i]; the
    remaining paths keep their relative order."""
    try:
        return _paths.reorder_paths(ps, wanted)
    except ContractViolation as exc:
        raise InternalError(str(exc)) from exc


# a recipe's tree: the frozenset that ``_assemble`` keeps as it is when
# the targets were their own least translate
_Edges = frozenset[tuple[int, int]]


def _recipe_2_1_1(g: AugmentedCube, x: int, y: int, z: int) -> list[_Edges]:
    """The Case2_1_1 star, for cross-twins x, y (x ^ y = 2^(n-1) - 1)
    and z a cross-partner of x.  Tree 0 is the star on x's other partner
    x ^ y ^ z, which is a partner of y too; each path of the fan from x
    to y but the edge x-y, in fan order, climbs to z from its last inner
    vertex yi through yi ^ lift, with lift = y ^ z, a cross-matching mask."""
    P = _paths.map_path_system(x.__xor__, _fan(g.dim, x ^ y))
    centre, lift = x ^ y ^ z, y ^ z
    trees = [frozenset([_edge(x, centre), _edge(y, centre), _edge(z, centre)])]
    for p in P.paths:
        yi = p[-2]
        if yi != x:
            trees.append(frozenset([*path_edges(p), _edge(yi, yi ^ lift), _edge(yi ^ lift, z)]))
    return trees


def _splice_image(g: AugmentedCube, x: int, y: int, z: int) -> int:
    """The xor mask of the matching img of the grid splice, whose anchor
    is y: full = c(0), the ``c_label`` mask, when x ~ y and z = h(x), and
    half = h(0), the ``h_label`` mask, otherwise; img(v) is v ^ mask.

    It meets the splice's two premises.  img(y) != z: the dispatch hands
    any partner target to x, so z partners y only when x and y are the
    cross-twins of the star, and c(y) = h(x) would make them cross-twins
    too.  img(x) != z when x ~ y: z = h(x) is exactly when h would fail,
    and c(x) != h(x)."""
    n = g.dim
    half = h_label(0, n)
    return c_label(0, n) if z == x ^ half and x ^ y in delta_set(n) else half


def _recipe_grid(g: AugmentedCube, x: int, y: int, z: int) -> list[_Edges]:
    """The grid splice, the recipe of every Case2 branch but the star:
    the lower fan P from x to the anchor y, and the upper fan Q from z to
    img(y) = y ^ mask, for the mask of ``_splice_image``.

    Q is pinned so that its path i ends through img(nb_i), the image of
    P's sink neighbour nb_i; tree i is the walk x ... nb_i, img(nb_i) ...
    z, that is P_i less y and then Q_i less img(y), backwards, plus the
    edge nb_i-y.  Q is the memo's own fan from 0 to z ^ img(y), left
    unmoved: it is pinned by nb_i ^ z ^ mask, and only the part of each
    path that the walk takes is moved by z.  When x and y are adjacent,
    P is pinned so that P_0 is the edge between them, and tree 0 is the
    walk y, img(y), img(x) ... z, Q_0 backwards, plus the partner edge
    x-img(x).  The lower fan is taken once, unmoved, and P is it moved
    by x.  When zm = z ^ mask is x, as in Case2_1_2 with z = h(x), both
    fans have the difference x ^ y, and Q is pinned from that same fan."""
    mask = _splice_image(g, x, y, z)
    zm = z ^ mask
    lower = _fan(g.dim, x ^ y)
    P = _paths.map_path_system(x.__xor__, lower) if x else lower
    adjacent = int(x ^ y in delta_set(g.dim))
    if adjacent:
        P = _pin(P, [x])
    Q = _pin(lower if zm == x else _fan(g.dim, y ^ zm), [p[-2] ^ zm for p in P.paths])
    move = z.__xor__
    trees = []
    if adjacent:
        edges = path_edges((y, *map(move, Q.paths[0][::-1])))
        edges.append(_edge(x, x ^ mask))
        trees.append(frozenset(edges))
    for p, q in zip(P.paths[adjacent:], Q.paths[adjacent:]):
        edges = path_edges((*p[:-1], *map(move, q[-2::-1])))
        edges.append(_edge(p[-2], y))
        trees.append(frozenset(edges))
    return trees


def _assemble(
    g: AugmentedCube,
    labels: Sequence[int],
    trees: Iterable[Iterable[tuple[int, int]]],
    provenance: tuple[CaseTag, ...],
) -> TreeFamily:
    """Translate label edges built on the least translate back to the
    caller's labels by a = ``provenance[0].transform``, each edge with its
    smaller label first.  Only S is in ``Vertex``.  The named tuples are
    made by ``tuple.__new__``, which skips their Python-level ``__new__``.
    At a = 0, as on every least translate a sweep builds, a recipe's
    frozenset is kept as it is."""
    n = g.dim
    a = provenance[0].transform
    if a:
        trees = [[(u, v) if (u := p ^ a) < (v := q ^ a) else (v, u) for p, q in edges] for edges in trees]
    new = tuple.__new__
    return new(
        TreeFamily,
        (
            n,
            frozenset([new(Vertex, (v, n)) for v in labels]),
            tuple([new(SteinerTree, (frozenset(edges),)) for edges in trees]),
            provenance,
        ),
    )


# ---------------------------------------------------------------------------
# all targets on one side
# ---------------------------------------------------------------------------

def _construct_case1(
    g: AugmentedCube,
    labels: Sequence[int],
    tag: CaseTag,
    fidelity: bool,
) -> TreeFamily:
    """All three targets in one half: recurse, then add one tree through
    each quarter of the other half."""
    n = g.dim
    new = tuple.__new__
    # the least translate; its own least translate is itself, so the
    # recursive construct builds in place (transform 0).  The outer family
    # holds every tree of sub, so the one check of the top-level construct
    # covers them: the recursive call skips its own
    norm_labels = sorted(v ^ tag.transform for v in labels)
    sub_terms = [new(Vertex, (a, n - 1)) for a in norm_labels]
    sub = construct(AugmentedCube(n - 1), sub_terms, fidelity=fidelity, _inner=True)
    # sub's labels already name the lower half-copy (prefix bit 0)
    trees: list[Iterable[tuple[int, int]]] = [t.edges for t in sub.trees]

    half, full = h_label(0, n), c_label(0, n)
    shift = n - 2
    for quarter in (0b10, 0b11):
        q_labels = range(quarter << shift, (quarter + 1) << shift)
        # each target's edge to its one cross-partner in the quarter,
        # h(s) = s ^ half or c(s) = s ^ full; s is lower, so it comes first
        ends = [(s, s ^ half if (s ^ half) >> shift == quarter else s ^ full) for s in norm_labels]
        if fidelity:
            # a spanning path in counting order: v ^ (v + 1) is a trailing
            # block of ones, so it lies in the delta set
            conn: Iterable[tuple[int, int]] = [(v, v + 1) for v in q_labels[:-1]]
        else:
            conn = _paths.connector_tree(new(GraphView, (g, q_labels)), sorted({w for _, w in ends}))
        trees.append(set(conn).union(ends))

    return _assemble(g, labels, trees, (tag,) + sub.provenance)


# ---------------------------------------------------------------------------
# base families, from a table per least translate
# ---------------------------------------------------------------------------

# The 2n - 3 trees of every least translate at n = 3 and 4, one string
# per class in ``least_translates(n)`` order, so no key is stored.  A
# string holds the class's trees separated by spaces, and a tree its
# edges (u, v), u < v, as two hex digits u and v: every label is below
# 16.  ``tools/base_table.py`` writes the table from packings of
# ``oracle.oracle_tau``, and tier-1 checks that it still does and that
# every row verifies.  Strings cost nothing to compile, where a literal
# of edge tuples costs a few milliseconds of every start-up.
_BASE_TABLE = {
    3: (
        "031323 04152545 07162667",
        "031334 02122545 07164667",
        "021226 03133446 07155657",
        "032334 01121545 07264667",
        "011215 03233445 07265667",
        "073747 01131545 02232646",
        "011315 022325 043445",
    ),
    4: (
        "031323 04152545 07162667 08192a898a 0f1e2ddedf",
        "031334 02122545 07164667 08194b898b 0f1e4ccecf",
        "021226 03133446 07155657 08196989 0f1e6eef",
        "07155778 02122a8a 03133b8b 0f1e8fef 0416466989",
        "02122a 0415455a 0819898a 03133bab 0f1eaeef",
        "03133c 0415454c 0819898c 02122dcd 0f1eceef",
        "0416466e 0819899e 02122aae 03133cce 0715575dde",
        "032334 01121545 07264667 082a4b8a8b 0f2d4ccdcf",
        "011215 03233445 07265667 082a5a8a 0f2d5ddf",
        "07255778 01121989 03233b8b 0f2d8fdf 0426464c8c",
        "011219 04264669 082a898a 03233b9b 0f2d9ddf",
        "03233c 0425454c 082a8a8c 01121ece 0f2dcddf",
        "0425455d 0112199d 082a8aad 03233ccd 0726676ede",
        "073747 01131545 02232646 083b4b8b 0f3c4ccf",
        "011315 022325 043445 073757 083b5a8a8b",
        "073778 01131989 02232a8a 04344b8b 0f3c8ccf",
        "011319 02232669 07377889 04344b9b 0f3c9dcdcf",
        "04344c 0737788c 02232dcd 01131ece 0f3bbcbf",
        "02232d 0113155d 04344ccd 07377fdf 083b898b9d",
        "074778 03343b8b 0f4c8ccf 0115194589 02262a468a",
        "01131934 02264669 084b898b 0745575a9a 0f4c9dcdcf",
        "02232a34 0115455a 084b8a8b 074667699a 0f4cadcdcf",
        "03343b 0747788b 0f4cbccf 011519459b 02262a46ab",
        "075778 01151989 02252a8a 04454b8b 0f5d8fdf",
        "011519 02252669 07577889 04454b9b 0f5d9ddf",
        "02252a 0757788a 0115199a 04454bab 0f5daddf",
        "04454b 0113153b 0757788b 02252aab 0f5dbfdf",
        "076778 01161989 02262a8a 04464b8b 0f6e8fef",
        "011619 07677889 02262a9a 04464b9b 0f6e9eef",
        "02262a 0115165a 0767788a 04464bab 0f6eaeef",
        "04464b 0113163b 0767788b 02262aab 0f6ebfef",
        "0f7f8f 03373b8b 04474c8c 0115195789 02262a678a",
        "087889 01131937 02266769 04474b9b 0f7f9ddf",
        "08788a 02232a37 0115575a 04474bab 0f7faddf",
        "03373b 04474b 08788b 0f7fbf 011519579b",
    ),
}


def base_case_search(g: AugmentedCube, terminals: Iterable[Vertex], target: int) -> TreeFamily:
    """The first ``target`` trees of the base family of the targets, for
    dimensions 3 and 4 and 1 <= target <= 2n - 3: those of
    ``_base_trees`` for the least translate of the targets
    (``least_translate``), translated back.  Every subfamily of a valid
    family is valid.
    """
    labels = _validate_terminals(g, terminals)
    n = g.dim
    if n not in (3, 4):
        raise ContractViolation("base families are for dimensions 3 and 4")
    size = target_family_size(n)
    if not 1 <= target <= size:
        raise ContractViolation(f"target must be positive and at most 2n - 3 = {size}")

    canon, a = least_translate(labels)
    trees = _base_trees(n, canon)[:target]
    tag = tuple.__new__(CaseTag, (Case.BASE3 if n == 3 else Case.BASE4, a, None))
    return _assemble(g, labels, trees, (tag,))


@functools.lru_cache(maxsize=None)
def _base_trees(n: int, canon: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The label edges of the 2n - 3 trees of the least translate, from
    its row of ``_BASE_TABLE``; a hex byte uv is the edge (u, v)."""
    row = _BASE_TABLE[n][list(least_translates(n)).index(canon)]
    return tuple(tuple(divmod(b, 16) for b in bytes.fromhex(tree)) for tree in row.split())


# ---------------------------------------------------------------------------
# top-level constructor
# ---------------------------------------------------------------------------

def construct(
    g: AugmentedCube,
    terminals: Iterable[Vertex],
    *,
    fidelity: bool = False,
    _inner: bool = False,
) -> TreeFamily:
    """Build and verify a family of 2*dim - 3 internally disjoint pendant
    Steiner trees for the target triple.

    Every branch builds on the least translate S ^ a of the targets and
    translates its trees back by a, so construct(S ^ b) is construct(S)
    with every edge translated by b, and the case names agree.
    Dimensions 3 and 4 read their trees from the base table; higher
    dimensions go through the case dispatch and its written recipe
    (Case1 recurses through this function, one call per dimension).
    The recipe takes its fans from the sweep batch's ``fan_memo()`` when
    one is open and builds them directly otherwise; either way it takes each fan it
    needs once, so a lone Case2_1_2 construct with z = h(x), whose lower
    and upper fans are both the fan to x ^ y, builds one fan.
    The result passes the independent verifier exactly once, here; a
    rejected or short family raises ``InternalError``.  ``fidelity`` lays each Case1
    quarter tree along the quarter's labels in counting order, a spanning
    path of 2^(dim-2) vertices.

    ``_inner`` is for Case1's recursive call alone, which skips the
    check: the outer family holds every tree of the inner one, moved by
    the outer translation, and the outer check verifies that family
    whole, so no family that a top-level call returns goes unchecked.
    """
    n = g.dim
    if n <= 4:
        # the base lookup validates the targets itself, with the same messages
        family = base_case_search(g, terminals, target_family_size(n))
    else:
        labels = _validate_terminals(g, terminals)
        tag = _dispatch(n, labels)
        if tag.case is Case.CASE1:
            family = _construct_case1(g, labels, tag, fidelity)
        else:
            recipe = _recipe_2_1_1 if tag.case is Case.CASE2_1_1 else _recipe_grid
            family = _assemble(g, labels, recipe(g, *tag.roles), (tag,))
    if not _inner:
        _check(g, family)
    return family


def _check(g: AugmentedCube, family: TreeFamily) -> None:
    """Run the independent verifier on the family; a rejected or short
    family raises ``InternalError``."""
    n = g.dim
    report = _verify.verify_family(g, family, size=target_family_size(n))
    if not report.accepted:
        raise InternalError(
            f"{family.provenance[0].case.value} family rejected for targets "
            f"{sorted(t.label() for t in family.terminals)}: {[v.detail for v in report.violations]}"
        )
