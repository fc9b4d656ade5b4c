"""Bit-level model of the augmented cube.

Conventions used everywhere in this package:

- A vertex of the n-dimensional augmented cube is an n-bit label
  x1 x2 ... xn, with x1 the leading (split) bit.  The integer encoding
  keeps x1 as the most significant of the n stored bits, so the label
  "0110" is the integer 6 at dimension 4.
- Two labels are adjacent iff they differ in exactly one bit position,
  or in a full trailing block (positions i..n all flipped).  This is
  equivalent to the recursive picture: two (n-1)-dimensional copies
  (leading bit 0 / leading bit 1) joined by the "hypercube" perfect
  matching (flip the leading bit only) and the "complement" perfect
  matching (flip every bit).
- Inside the package a vertex is that plain int; ``Vertex`` pairs it
  with its dimension only where a label meets the outside world: the
  target set S of a family or certificate, the CLI, and the arguments
  of ``construct``, ``classify`` and ``base_case_search``.  Tree edges,
  path systems, the checker's work past S and the oracle are on ints.
- The graph is never materialised.  Adjacency is O(1) on labels and
  neighbour enumeration is O(n); ``GraphView`` is only a membership test
  on a label collection it never copies (a ``range`` for the whole cube,
  half-copies and quarters).
- ``hager_upper_bound`` is Hager's bound on the packing number of
  k-sets, which reads only the order and the degree.

The xor structure of the adjacency rule makes every label translation
v -> v ^ a an automorphism (``c_label`` is the one by the all-ones mask,
the complement), as is ``hc_swap_label``, which complements the trailing
bits of the upper copy only and so exchanges the two cross matchings.
All of them are label maps on plain ints.  The constructor normalises
every triple by a translation alone, to its least translate, which
also keys the base-case cache.

In Gray coordinates (``gray``) the delta set becomes the single bits
e_i and the adjacent pairs e_i + e_(i+1), so the cube is a Cayley graph
of Z_2^n: distances and disjoint-path fans depend only on u ^ v, and
the fans are built from 0 and translated.
"""

from __future__ import annotations

import collections
import functools
from typing import NamedTuple

MAX_DIM = 62


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class Vertex(NamedTuple):
    """An n-bit vertex label: ``bits`` below ``2**dim``, leading bit first."""

    bits: int
    dim: int

    def label(self) -> str:
        return format(self.bits, f"0{self.dim}b")


def parse_vertex(text: str) -> Vertex:
    """Parse a binary string such as "0101" into a Vertex."""
    if not text or any(ch not in "01" for ch in text):
        raise ContractViolation(f"not a binary vertex label: {text!r}")
    if len(text) > MAX_DIM:
        raise ContractViolation(f"label longer than {MAX_DIM} bits: {text!r}")
    return Vertex(int(text, 2), len(text))


@functools.lru_cache(maxsize=None)
def adjacency_deltas(dim: int) -> tuple[int, ...]:
    """The xor set D of AQ_dim: u ~ v iff (u ^ v) in D.

    D holds the n single-bit masks plus the n-1 proper trailing blocks,
    2*dim - 1 values in total.
    """
    singles = [1 << (dim - i) for i in range(1, dim + 1)]
    trailing = [(1 << (dim - i + 1)) - 1 for i in range(1, dim)]
    return tuple(sorted(set(singles + trailing)))


@functools.lru_cache(maxsize=None)
def delta_set(dim: int) -> frozenset[int]:
    """``adjacency_deltas(dim)`` as a set, for O(1) adjacency tests."""
    return frozenset(adjacency_deltas(dim))


class AugmentedCube(collections.namedtuple("AugmentedCube", "dim")):
    """The implicit augmented cube of a given dimension (1 <= dim <= 62).

    A plain ``namedtuple`` base, since ``typing.NamedTuple`` forbids the
    ``__new__`` that checks the range."""

    __slots__ = ()

    def __new__(cls, dim: int) -> AugmentedCube:
        if not 1 <= dim <= MAX_DIM:
            raise ContractViolation(f"dimension must be in 1..{MAX_DIM}, got {dim}")
        return super().__new__(cls, dim)

    @property
    def order(self) -> int:
        return 1 << self.dim

    @property
    def degree(self) -> int:
        return 2 * self.dim - 1

    def check_label(self, v: int) -> None:
        if not 0 <= v < (1 << self.dim):
            raise ContractViolation(f"label {v} out of range for dimension {self.dim}")

    def check_vertex(self, v: Vertex) -> None:
        if v.dim != self.dim:
            raise ContractViolation(f"vertex dimension {v.dim} does not match cube dimension {self.dim}")
        self.check_label(v.bits)

    def adjacent_labels(self, u: int, v: int) -> bool:
        return (u ^ v) in delta_set(self.dim)

    def view(self) -> "GraphView":
        return GraphView(self, range(self.order))


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


# ---------------------------------------------------------------------------
# label maps: cross-matching partners and automorphisms
# ---------------------------------------------------------------------------

def h_label(v: int, dim: int) -> int:
    """Cross-matching partner that keeps the trailing bits (flip bit 1)."""
    return v ^ (1 << (dim - 1))


def c_label(v: int, dim: int) -> int:
    """Cross-matching partner that complements every bit; on the whole
    cube, the complement automorphism (it swaps the two half-copies)."""
    return v ^ ((1 << dim) - 1)


def hc_swap_label(v: int, dim: int) -> int:
    """Complement the trailing bits of upper-copy labels, fix the lower copy.

    Linear over GF(2), hence adjacency preserving; exchanges the two cross
    matchings: for every lower-copy x it swaps h_label(x) and c_label(x).
    """
    half = 1 << (dim - 1)
    return v ^ (half - 1) if v & half else v


# ---------------------------------------------------------------------------
# Gray coordinates
# ---------------------------------------------------------------------------
#
# gray is linear over GF(2) and sends the trailing block 2^(i+1) - 1 to the
# single bit e_i and the single bit 2^(i+1) to the pair e_i + e_(i+1).  So
# it maps the delta set of every dimension m onto {e_i} and {e_i + e_(i+1)},
# and AQ_m is the Cayley graph of Z_2^m on those 2m - 1 generators.

def gray(v: int) -> int:
    """Gray coordinates of a label: v ^ (v >> 1)."""
    return v ^ (v >> 1)


# ---------------------------------------------------------------------------
# restricted views
# ---------------------------------------------------------------------------

class GraphView(NamedTuple):
    """A vertex-filtered slice of a cube: the cube plus a label range.

    ``allowed`` is a step-1 ``range`` of labels: the whole cube
    (``range(2^n)``, ``AugmentedCube.view``), a half-copy (``side_view``)
    or a quarter.  Nothing is copied.  The whole-cube view names a small
    cube to ``paths.disjoint_paths``, and the others bound what
    ``verify.check_path_system`` and ``paths.connector_tree`` accept.
    """

    cube: AugmentedCube
    allowed: range

    @property
    def dim(self) -> int:
        return self.cube.dim


def side_view(g: AugmentedCube, v: int) -> GraphView:
    """The induced half-copy that holds label v (isomorphic to the cube
    one dimension down)."""
    if g.dim < 2:
        raise ContractViolation("no split below dimension 2")
    half = 1 << (g.dim - 1)
    lo = v & half
    return GraphView(g, range(lo, lo + half))
