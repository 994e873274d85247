"""Rooted trees and the Connes-Kreimer schema trees:N on them.

Trees are interned, and enumerated up to isomorphism as B+ of the basis
monomials of the smaller trees (``algebra.monomials_of_degree``).  The trees:N
coproducts carry the admissible-cut coproduct (the pruned forest goes left,
the trunk right), built by the B+ cocycle over the engine's coproduct fill
when first read.  ``admissible_cuts`` lists the cuts themselves, as the
reference the tests compare with.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, prod
from typing import Dict, List, NamedTuple, Tuple

from .algebra import Generator, Monomial, monomials_of_degree
from .errors import DomainError, HopfError
from .hopf import HopfAlgebra, ReducedTerm, TableSchema
from .rationals import Frozen


# The intern table of rooted trees, keyed by the canonical (sorted) tuple of
# children; like the generator and monomial tables it lives as long as the
# process and is filled with dict.setdefault.
_TREES: Dict[Tuple["RootedTree", ...], "RootedTree"] = {}


class RootedTree(Frozen):
    """A rooted tree in canonical form: children sorted by their encoding.

    Trees are interned: ``RootedTree(children)`` returns the one object for
    that tree, so equality is identity and hashing is the object hash.  The
    canonical encoding and the vertex count are computed once, when a tree is
    first built.
    """

    __slots__ = ("children", "vertex_count", "_encoding")

    def __new__(cls, children=()) -> "RootedTree":
        key = tuple(sorted(children, key=RootedTree.encoding))
        t = _TREES.get(key)
        if t is not None:
            return t
        t = object.__new__(cls)
        object.__setattr__(t, "children", key)
        object.__setattr__(t, "vertex_count", 1 + sum(c.vertex_count for c in key))
        object.__setattr__(t, "_encoding", _encode(key))
        return _TREES.setdefault(key, t)

    def __reduce__(self):
        return (RootedTree, (self.children,))

    @staticmethod
    def leaf() -> "RootedTree":
        return RootedTree(())

    def encoding(self) -> str:
        return self._encoding

    def __repr__(self) -> str:
        return f"RootedTree(children={self.children!r})"

    def __str__(self) -> str:
        return self._encoding


def _encode(children: Tuple[RootedTree, ...]) -> str:
    """The balanced-bracket encoding of a tree with these (sorted) children."""
    return "[" + "".join(c._encoding for c in children) + "]"


def parse_tree(text: str) -> RootedTree:
    """Parse a balanced-bracket tree encoding such as "[[][]]"."""
    text = text.strip()
    if not text.startswith("["):
        raise HopfError(f"bad tree encoding {text!r}: expected '[' at 0")
    open_children: List[List[RootedTree]] = [[]]  # the children read so far of each open vertex
    pos = 1
    while open_children:
        if pos < len(text) and text[pos] == "[":
            open_children.append([])
        elif pos < len(text) and text[pos] == "]":
            t = RootedTree(open_children.pop())
            if open_children:
                open_children[-1].append(t)
        else:
            raise HopfError(f"bad tree encoding {text!r}: expected ']' at {pos}")
        pos += 1
    if pos != len(text):
        raise HopfError(f"bad tree encoding {text!r}: trailing characters")
    return t


# The most rooted trees one request may build.  Enumerating the trees with n
# vertices builds every tree with at most n vertices, and the trees:n schema
# has one generator per such tree; 5000 admits n = 11 (3047 trees).
MAX_TREES = 5000


@lru_cache(maxsize=None)
def rooted_tree_count(n: int) -> int:
    """The number of rooted trees with n vertices (OEIS A000081), by the recurrence
    (n - 1) a(n) = sum_{k < n} (sum_{d | k} d a(d)) a(n - k)."""
    if n == 1:
        return 1
    return sum(sum(d * rooted_tree_count(d) for d in range(1, k + 1) if k % d == 0) * rooted_tree_count(n - k)
               for k in range(1, n)) // (n - 1)


def check_tree_budget(n: int) -> None:
    """Reject building the rooted trees with at most n vertices when there are
    more than MAX_TREES of them, before any is built.  The count stops at
    the first size past the limit, so a huge n costs no more than a small one."""
    total = 0
    for k in range(1, n + 1):
        total += rooted_tree_count(k)
        if total > MAX_TREES:
            count = f"{total}" if k == n else f"at least {total} (those with at most {k} vertices)"
            raise DomainError(f"the rooted trees with at most {n} vertices number {count}, "
                              f"above the limit MAX_TREES = {MAX_TREES}")


@lru_cache(maxsize=None)
def enumerate_trees(n: int) -> Tuple[RootedTree, ...]:
    """All isomorphism classes of rooted trees with n vertices.

    B+ maps the forests of n - 1 vertices one-to-one onto them, and those
    forests are the basis monomials of degree n - 1 in the smaller trees.
    Canonical, deterministic order (sorted by encoding).  The counts follow
    the classical sequence 1, 1, 2, 4, 9, 20, ...; sizes whose trees exceed
    MAX_TREES are rejected first.
    """
    if n < 1:
        raise DomainError("trees have at least one vertex")
    check_tree_budget(n)
    smaller = {tree_generator(t): t for k in range(1, n) for t in enumerate_trees(k)}
    return tuple(sorted((_graft(f, smaller) for f in monomials_of_degree(sorted(smaller), n - 1)),
                        key=RootedTree.encoding))


def _graft(forest: Monomial, trees: Dict[Generator, RootedTree]) -> RootedTree:
    """B+ of a monomial in tree generators, each read as its tree in ``trees``."""
    return RootedTree([trees[g] for g, e in forest.powers for _ in range(e)])


class AdmissibleCut(NamedTuple):
    """A nonempty admissible edge cut: pruned forest plus the root's trunk."""

    pruned: Tuple[RootedTree, ...]
    trunk: RootedTree


@lru_cache(maxsize=None)
def _cuts_with_empty(tree: RootedTree) -> Tuple[Tuple[Tuple[RootedTree, ...], RootedTree], ...]:
    # Per child, either cut its edge (prune the whole subtree), or keep the
    # edge and apply any cut (possibly empty) inside the child.
    combos: List[Tuple[Tuple[RootedTree, ...], List[RootedTree]]] = [((), [])]
    for child in tree.children:
        options = (((child,), None),) + _cuts_with_empty(child)
        combos = [(pruned_acc + pruned, kept if trunk is None else kept + [trunk])
                  for pruned_acc, kept in combos for pruned, trunk in options]
    return tuple((pruned, RootedTree(kept)) for pruned, kept in combos)


def admissible_cuts(tree: RootedTree) -> Tuple[AdmissibleCut, ...]:
    """All nonempty admissible cuts; equal (forest, trunk) pairs may repeat,
    carrying the multiplicity of distinct edge subsets."""
    out = []
    for pruned, trunk in _cuts_with_empty(tree):
        if not pruned:
            continue
        out.append(AdmissibleCut(pruned=tuple(sorted(pruned, key=RootedTree.encoding)), trunk=trunk))
    return tuple(out)


def tree_generator(tree: RootedTree) -> Generator:
    return Generator(tree.vertex_count, tree._encoding)


class TreeSchema(TableSchema):
    """The schema trees:N.  Its generators, name lookup and cutoff come from
    the enumeration, and its term counts from each tree's shape;
    ``cocycle_coproducts`` fills its reduced coproducts the first time one is
    asked for."""

    def __init__(self, max_vertices: int):
        generators = [tree_generator(t) for n in range(1, max_vertices + 1) for t in enumerate_trees(n)]
        super().__init__(f"trees:{max_vertices}", generators, {}, complete=False)
        self._reduced = None  # until first read; then the whole table at once, so no thread reads part of it

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        if self._reduced is None:
            self._reduced = cocycle_coproducts(self)
        return super().reduced_terms(gen)

    def generator_by_name(self, name: str) -> Generator:
        """A tree's generator with its children in any order.  A tree here spells
        in at most 2 * max_vertices brackets, so no longer name is parsed."""
        text = "".join(name.split())
        if text not in self._by_name and len(text) <= 2 * self.max_degree:
            try:
                return self._by_name[parse_tree(text).encoding()]
            except HopfError:
                pass
        return super().generator_by_name(name)

    def reduced_term_count(self, gen: Generator) -> int:
        return _cut_choices(parse_tree(gen.name)) - 1


def _cut_choices(tree: RootedTree) -> int:
    """At least the distinct (pruned, trunk) pairs of tree's cuts, the empty
    cut included, read off its shape: each of the m copies of a child c is
    pruned or kept under one of its own choices, a multiset of m of them."""
    return prod(comb(m + _cut_choices(c), m) for c, m in Counter(tree.children).items())


def rooted_tree_schema(max_vertices: int) -> TreeSchema:
    """The rooted trees with at most max_vertices vertices as a schema; asking
    for a larger degree raises CutoffExceededError."""
    if max_vertices < 1:
        raise DomainError("max_vertices must be >= 1")
    check_tree_budget(max_vertices)
    return TreeSchema(max_vertices)


def cocycle_coproducts(schema: TreeSchema) -> Dict[Generator, Tuple[ReducedTerm, ...]]:
    """The reduced coproduct of every tree of ``schema`` by the Hochschild
    1-cocycle B+ (Connes-Kreimer): t = B+(f) has D(t) = t (x) 1 + (id (x) B+) D(f),
    where D of the forest f is the engine's multiplicative fill over a copy of
    the table filled so far, fewest vertices first; no cut is enumerated
    (``admissible_cuts`` is the tests' reference)."""
    table = TableSchema(schema.name, schema.generators_up_to(schema.max_degree), {}, complete=False)
    ctx = HopfAlgebra(table, validate_to=0)
    trees = {tree_generator(t): t for n in range(1, schema.max_degree + 1) for t in enumerate_trees(n)}
    grafts: Dict[Monomial, Generator] = {}  # right leg r of D(f) -> the generator of B+(r)
    for g, tree in trees.items():  # fewest vertices first
        terms = []
        for (left, r), c in ctx.coproduct_terms(Monomial.from_powers((tree_generator(k), 1) for k in tree.children)):
            if left.is_unit:  # 1 (x) t is not in the reduced coproduct
                continue
            right = grafts.get(r)
            if right is None:
                right = grafts[r] = tree_generator(_graft(r, trees))
            terms.append(ReducedTerm(left=left, right=right, coeff=c))
        table._reduced[g] = tuple(sorted(terms, key=lambda t: (t.left.sort_key(), t.right)))
    return table._reduced
