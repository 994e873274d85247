"""Sparse exact multilinear algebra: monomials, elements, tensor powers.

Elements of the symmetric algebra are finite maps monomial -> rational
coefficient; tensors of any rank are keyed by monomial tuples.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, Tuple

from .errors import HopfError, RankMismatchError
from .rationals import Frozen, format_rational


# The intern tables: one object per generator (degree, name) and per monomial
# powers tuple, kept for the life of the process.  Equality is identity and
# the hash is object.__hash__; inserting with dict.setdefault means threads
# racing on one value still end up sharing one object.  _PRODUCTS memoizes
# Monomial.__mul__ as {left factor: {right factor: product}}, over interned
# factors, which live as long.
_GENERATORS: dict = {}
_MONOMIALS: dict = {}
_PRODUCTS: dict = {}


class Generator(Frozen):
    """A schema generator: homogeneous of strictly positive degree.

    Ordering is lexicographic on (degree, name), which fixes the canonical
    monomial order used everywhere.  Generators are interned:
    ``Generator(degree, name)`` returns the one object for that pair, so
    equality is identity and hashing is the C-level object hash.
    """

    __slots__ = ("degree", "name")

    def __new__(cls, degree: int, name: str) -> "Generator":
        g = _GENERATORS.get((degree, name))
        if g is not None:
            return g
        if degree < 1:
            raise HopfError(
                f"generator {name!r} has degree {degree}; generators "
                "must be homogeneous of degree >= 1"
            )
        g = object.__new__(cls)
        object.__setattr__(g, "degree", degree)
        object.__setattr__(g, "name", name)
        return _GENERATORS.setdefault((degree, name), g)

    def __reduce__(self):
        return (Generator, (self.degree, self.name))

    # g > h and g >= h are answered by the reflected h < g and h <= g.
    def __lt__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return (self.degree, self.name) < (other.degree, other.name)

    def __le__(self, other):
        if other.__class__ is not Generator:
            return NotImplemented
        return (self.degree, self.name) <= (other.degree, other.name)

    def __repr__(self) -> str:
        return f"Generator(degree={self.degree!r}, name={self.name!r})"


class Monomial(Frozen):
    """A commutative word in generators: sorted powers with exponents >= 1.

    Monomials key every table and memo, so they are interned:
    ``Monomial(powers)`` returns the one object for that powers tuple, and
    its Y-degree is computed once, when it is interned.
    """

    __slots__ = ("powers", "y_degree")

    def __new__(cls, powers: Tuple[Tuple[Generator, int], ...]) -> "Monomial":
        m = _MONOMIALS.get(powers)
        if m is not None:
            return m
        m = object.__new__(cls)
        object.__setattr__(m, "powers", powers)
        object.__setattr__(m, "y_degree", sum(e * g.degree for g, e in powers))
        return _MONOMIALS.setdefault(powers, m)

    def __reduce__(self):
        return (Monomial, (self.powers,))

    def __repr__(self) -> str:
        return f"Monomial(powers={self.powers!r})"

    @staticmethod
    def unit() -> "Monomial":
        return _UNIT

    @staticmethod
    def of(gen: Generator, exp: int = 1) -> "Monomial":
        if exp < 1:
            raise HopfError("monomial exponents must be >= 1")
        return Monomial(((gen, exp),))

    @staticmethod
    def from_powers(pairs: Iterable[Tuple[Generator, int]]) -> "Monomial":
        acc: dict = {}
        for gen, exp in pairs:
            acc[gen] = acc.get(gen, 0) + exp
        cleaned = tuple(sorted((g, e) for g, e in acc.items() if e != 0))
        for _, e in cleaned:
            if e < 0:
                raise HopfError("monomial exponents must be >= 1")
        return Monomial(cleaned)

    @property
    def is_unit(self) -> bool:
        return not self.powers

    @property
    def poly_degree(self) -> int:
        return sum(e for _, e in self.powers)

    def __mul__(self, other: "Monomial") -> "Monomial":
        """The product; each pair of non-unit factors is merged once."""
        if not self.powers:
            return other
        if not other.powers:
            return self
        by_right = _PRODUCTS.get(self)
        if by_right is None:
            by_right = _PRODUCTS.setdefault(self, {})
        m = by_right.get(other)
        if m is not None:
            return m
        # A miss: merge the two sorted power tuples, adding exponents of
        # shared generators.
        a, b = self.powers, other.powers
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            g, e = a[i]
            h, f = b[j]
            if g is h:
                out.append((g, e + f))
                i += 1
                j += 1
            elif g < h:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        return by_right.setdefault(other, Monomial(tuple(out) + a[i:] + b[j:]))

    def sort_key(self):
        return (self.y_degree, self.powers)

    def single_generator(self):
        """The generator when this monomial is one, else None."""
        if len(self.powers) == 1 and self.powers[0][1] == 1:
            return self.powers[0][0]
        return None

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for g, e in self.powers:
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts)


_UNIT = Monomial(())


def cofactor_chain(m: Monomial, known: dict) -> list:
    """The steps (m', g, m'/g), g the first generator of m', from the first
    cofactor of m that ``known`` holds up to m, lowest first.  Filling each m'
    from m'/g and g in this order extends a multiplicative map from its
    generators; ``known`` holds the unit, where every chain ends."""
    steps = []
    while m not in known:
        (g, e), rest = m.powers[0], m.powers[1:]
        cofactor = Monomial(((g, e - 1),) + rest if e > 1 else rest)
        steps.append((m, g, cofactor))
        m = cofactor
    steps.reverse()
    return steps


def monomials_of_degree(gens, degree: int) -> Tuple[Monomial, ...]:
    """Every monomial of Y-degree ``degree`` in the sorted generators ``gens``,
    canonically ordered; at degree 0, the unit alone."""
    out = []
    # Depth first from an explicit stack of (powers, degree still to fill, first
    # generator allowed), each step a power g^e of a later generator; smaller g,
    # then smaller e, pops first, so the order is canonical with no sort.
    stack = [((), degree, 0)]
    while stack:
        powers, remaining, start = stack.pop()
        if remaining == 0:
            out.append(Monomial(powers))
            continue
        end = bisect_right(gens, remaining, start, key=lambda g: g.degree)
        stack.extend((powers + ((gens[i], e),), remaining - e * gens[i].degree, i + 1)
                     for i in range(end - 1, start - 1, -1) for e in range(remaining // gens[i].degree, 0, -1))
    return tuple(out)


def _summed(acc: dict, pairs) -> dict:
    """Add each (key, coefficient) of ``pairs`` into ``acc`` and return its
    nonzero entries: the one accumulator behind every sparse sum and product.
    ``acc`` keeps the keys whose coefficients cancelled, for callers that
    check every key seen."""
    get = acc.get
    for key, c in pairs:
        acc[key] = get(key, 0) + c
    return {k: c for k, c in acc.items() if c}


class SparseSum:
    """A finite sum key -> rational coefficient: no zero values, never mutated.

    The arithmetic here never looks inside a key, so elements (keyed by
    monomials) and tensors (keyed by monomial tuples) share it.  A subclass
    supplies ``_like``, ``rank`` and all that reads its keys.
    """

    __slots__ = ("terms",)

    def _like(self, terms: dict):
        """A sum of this class and rank with the given terms."""
        raise NotImplementedError

    def _check(self, other: "SparseSum"):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check(other)
        return self._like(_summed(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        return self._like({k: v for k, c in self.terms.items() if (v := coeff * c)})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    @property
    def is_zero(self) -> bool:
        return not self.terms


class Element(SparseSum):
    """A finite linear combination of monomials with rational coefficients
    (``int``, or ``Fraction`` off the integers)."""

    __slots__ = ()
    rank = None  # not a tensor: an element has no legs

    def __init__(self, terms: dict):
        self.terms = terms  # Monomial -> coefficient, no zeros; never mutated

    def _like(self, terms: dict) -> "Element":
        return Element(terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero() -> "Element":
        return Element({})

    @staticmethod
    def unit() -> "Element":
        return Element({Monomial.unit(): 1})

    @staticmethod
    def from_terms(pairs: Iterable[Tuple[Monomial, object]]) -> "Element":
        return Element(_summed({}, pairs))

    # -- what reads the monomial keys -----------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        theirs = other.terms.items()
        return Element(_summed({}, (
            (m1 * m2, c1 * c2) for m1, c1 in self.terms.items() for m2, c2 in theirs)))

    def coefficient(self, m: Monomial):
        return self.terms.get(m, 0)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            cs = format_rational(c)
            ms = str(m)
            if ms == "1":
                parts.append(cs)
            elif cs == "1":
                parts.append(ms)
            elif cs == "-1":
                parts.append(f"-{ms}")
            else:
                parts.append(f"{cs}*{ms}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


class TensorElement(SparseSum):
    """A finite linear combination of rank-n monomial tensors."""

    __slots__ = ("rank",)

    def __init__(self, rank: int, terms: dict):
        self.rank = rank
        self.terms = terms  # tuple[Monomial,...] -> coefficient, no zeros

    def _like(self, terms: dict) -> "TensorElement":
        return TensorElement(self.rank, terms)

    @staticmethod
    def from_terms(rank: int, pairs) -> "TensorElement":
        acc: dict = {}
        terms = _summed(acc, pairs)
        for key in acc:
            if len(key) != rank:
                raise RankMismatchError(f"expected rank-{rank} keys, got {key}")
        return TensorElement(rank, terms)

    # -- what reads the legs --------------------------------------------------

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product: legs multiply leg by leg."""
        self._check(other)
        theirs = other.terms.items()
        return TensorElement(self.rank, _summed({}, (
            (tuple(a * b for a, b in zip(k1, k2)), c1 * c2)
            for k1, c1 in self.terms.items() for k2, c2 in theirs)))

    def apply_to_leg(self, index: int, fn: Callable[[Monomial], "TensorElement"], rank_delta: int) -> "TensorElement":
        """Replace leg ``index`` by the tensor expansion ``fn(leg)``.

        ``fn`` maps a monomial to a rank-(1+rank_delta) tensor; coefficients
        distribute multilinearly.
        """
        return TensorElement(self.rank + rank_delta, _summed({}, (
            (key[:index] + ekey + key[index + 1:], c * ec)
            for key, c in self.terms.items() for ekey, ec in fn(key[index]).terms.items())))

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: tuple(m.sort_key() for m in kv[0])
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            cs = format_rational(c)
            ks = " (x) ".join(str(m) for m in key)
            parts.append(ks if cs == "1" else f"{cs}*[{ks}]")
        return " + ".join(parts)

    __repr__ = __str__
