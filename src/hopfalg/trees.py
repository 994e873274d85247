"""Rooted trees and the Connes-Kreimer schema trees:N on them.

Trees are interned and enumerated up to isomorphism; the trees:N coproducts
carry the admissible-cut coproduct (the pruned forest goes left, the trunk
right), built by the B+ cocycle when first read.  ``admissible_cuts`` lists
the cuts themselves, as the reference the tests compare with.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import comb, prod
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import Generator, Monomial
from .errors import DomainError, HopfError
from .hopf import ReducedTerm, TableSchema
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

    Canonical, deterministic order (sorted by encoding).  The counts follow
    the classical sequence 1, 1, 2, 4, 9, 20, ...; sizes whose trees exceed
    MAX_TREES are rejected first.
    """
    if n < 1:
        raise DomainError("trees have at least one vertex")
    check_tree_budget(n)
    if n == 1:
        return (RootedTree.leaf(),)
    out = [RootedTree(forest) for forest in _forests(n - 1)]
    uniq = {t.encoding(): t for t in out}
    return tuple(uniq[k] for k in sorted(uniq))


@lru_cache(maxsize=None)
def _forests(n: int, max_rank: Optional[Tuple[int, str]] = None) -> Tuple[Tuple[RootedTree, ...], ...]:
    """Multisets of trees with n total vertices.

    ``max_rank`` bounds the (size, encoding) rank of every chosen tree, so
    each multiset is produced exactly once, in non-increasing rank order.
    """
    if n == 0:
        return ((),)
    out: List[Tuple[RootedTree, ...]] = []
    for size in range(n, 0, -1):
        for tree in enumerate_trees(size):
            rank = (size, tree.encoding())
            if max_rank is not None and rank > max_rank:
                continue
            for rest in _forests(n - size, rank):
                out.append((tree,) + rest)
    return tuple(out)


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

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        if not self._reduced:
            self._reduced = cocycle_coproducts(self.max_degree)
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


def cocycle_coproducts(max_vertices: int) -> Dict[Generator, Tuple[ReducedTerm, ...]]:
    """The reduced coproduct of every tree with at most max_vertices vertices,
    built by the Hochschild 1-cocycle B+ (Connes-Kreimer): t = B+(f) has
    D(t) = t (x) 1 + (id (x) B+) D(f), and D of its forest f is D of the
    forest of all but its last child times D of that child, so no cut is
    enumerated (``admissible_cuts`` is the tests' reference)."""
    one = Monomial.unit()
    # {(left, right): count}: D of each forest, keyed by its trees, with the
    # monomial of the kept trunks on the right; D of each tree, a trunk or 1.
    forest_terms, tree_terms = {(): {(one, one): 1}}, {}
    # generator -> its tree; trunk monomial r -> B+(r); generator -> its reduced coproduct
    trees, grafts, reduced = {}, {}, {}
    for n in range(1, max_vertices + 1):
        for tree in enumerate_trees(n):
            g = tree_generator(tree)
            trees[g] = tree
            kids = tree.children
            f = forest_terms.get(kids)
            if f is None:
                f = forest_terms[kids] = {}
                for (l1, r1), c1 in forest_terms[kids[:-1]].items():
                    for (l2, r2), c2 in tree_terms[kids[-1]].items():
                        key = (l1 * l2, r1 * r2)
                        f[key] = f.get(key, 0) + c1 * c2
            d = tree_terms[tree] = {(Monomial.of(g), one): 1}
            terms = []
            for (left, r), c in f.items():
                right = grafts.get(r)
                if right is None:
                    b = RootedTree([trees[h] for h, e in r.powers for _ in range(e)])
                    right = grafts[r] = Monomial.of(tree_generator(b))
                d[left, right] = c
                if left is not one:  # 1 (x) t is not in the reduced coproduct
                    terms.append(ReducedTerm(left=left, right=right.single_generator(), coeff=c))
            reduced[g] = tuple(sorted(terms, key=lambda t: (t.left.sort_key(), t.right)))
    return reduced
