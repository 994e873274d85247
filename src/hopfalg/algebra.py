"""Sparse exact multilinear algebra: monomials, elements, tensor powers.

Elements of the symmetric algebra are finite maps monomial -> coefficient
over a pluggable ring; tensors of any rank are keyed by monomial tuples.
All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence, Tuple

from .errors import HopfError, RankMismatchError, RingMismatchError
from .rings import Frozen, Ring


# The intern tables: one object per generator (degree, name) and per monomial
# powers tuple, kept for the life of the process.  Equality is identity and
# the hash is object.__hash__; inserting with dict.setdefault means threads
# racing on one value still end up sharing one object.  _PRODUCTS memoizes
# Monomial.__mul__ by the pair of interned factors, which live as long; the
# right antipode fill keeps its products in its context instead and forms
# them with Monomial.merge, which bypasses this memo.
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
        m = _PRODUCTS.get((self, other))
        if m is None:
            m = _PRODUCTS.setdefault((self, other), self.merge(other))
        return m

    def merge(self, other: "Monomial") -> "Monomial":
        """The product without the process-lifetime memo: merge the two
        sorted power tuples, adding exponents of shared generators."""
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
        return Monomial(tuple(out) + a[i:] + b[j:])

    def sort_key(self):
        return (self.y_degree, self.powers)

    def generators(self) -> Iterator[Generator]:
        for g, _ in self.powers:
            yield g

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


def _summed(ring: Ring, acc: dict, pairs) -> dict:
    """Add each (key, value) of ``pairs`` into ``acc`` and return its nonzero
    entries: the one accumulator behind every sparse sum.  ``acc`` keeps the
    keys whose values cancelled, for callers that check every key seen."""
    add = ring.add
    for key, c in pairs:
        cur = acc.get(key)
        acc[key] = c if cur is None else add(cur, c)
    is_zero = ring.is_zero
    return {k: c for k, c in acc.items() if not is_zero(c)}


class SparseSum:
    """A finite sum key -> ring value: no zero values, never mutated.

    The arithmetic here never looks inside a key, so elements (keyed by
    monomials) and tensors (keyed by monomial tuples) share it.  A subclass
    supplies ``_like``, ``rank``, the ``_noun`` its errors name, and all
    that reads its keys.
    """

    __slots__ = ("ring", "terms")

    def _like(self, ring: Ring, terms: dict):
        """A sum of this class and rank with the given terms."""
        raise NotImplementedError

    def _check(self, other: "SparseSum"):
        if self.rank != other.rank:
            raise RankMismatchError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.ring is not other.ring and self.ring.tag != other.ring.tag:
            raise RingMismatchError(
                f"{self._noun} over different rings: {self.ring.tag} vs {other.ring.tag}"
            )

    def __add__(self, other):
        self._check(other)
        return self._like(self.ring, _summed(self.ring, dict(self.terms), other.terms.items()))

    def __neg__(self):
        neg = self.ring.neg
        return self._like(self.ring, {k: neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        ring = self.ring
        if ring.is_zero(coeff):
            return self._like(ring, {})
        mul, is_zero = ring.mul, ring.is_zero
        return self._like(ring, {k: v for k, c in self.terms.items() if not is_zero(v := mul(coeff, c))})

    def scale_rational(self, q: Fraction):
        return self.scale(self.ring.from_rational(q))

    def map_coefficients(self, fn: Callable, ring: Ring):
        is_zero = ring.is_zero
        return self._like(ring, {k: v for k, c in self.terms.items() if not is_zero(v := fn(c))})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.ring is not other.ring and self.ring.tag != other.ring.tag:
            return False
        if self.rank != other.rank or self.terms.keys() != other.terms.keys():
            return False
        eq, theirs = self.ring.eq, other.terms
        return all(eq(c, theirs[k]) for k, c in self.terms.items())

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    @property
    def is_zero(self) -> bool:
        return not self.terms


class Element(SparseSum):
    """A finite linear combination of monomials over a coefficient ring."""

    __slots__ = ()
    rank = None  # not a tensor: an element has no legs
    _noun = "elements"

    def __init__(self, ring: Ring, terms: dict):
        self.ring = ring
        self.terms = terms  # Monomial -> ring value, no zeros; never mutated

    def _like(self, ring: Ring, terms: dict) -> "Element":
        return Element(ring, terms)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(ring: Ring) -> "Element":
        return Element(ring, {})

    @staticmethod
    def unit(ring: Ring) -> "Element":
        return Element(ring, {Monomial.unit(): ring.one()})

    @staticmethod
    def from_terms(ring: Ring, pairs: Iterable[Tuple[Monomial, object]]) -> "Element":
        return Element(ring, _summed(ring, {}, pairs))

    @staticmethod
    def of_monomial(ring: Ring, m: Monomial, coeff=None) -> "Element":
        c = ring.one() if coeff is None else coeff
        if ring.is_zero(c):
            return Element(ring, {})
        return Element(ring, {m: c})

    # -- what reads the monomial keys -----------------------------------------

    def __mul__(self, other: "Element") -> "Element":
        self._check(other)
        acc: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                c = self.ring.mul(c1, c2)
                cur = acc.get(m)
                acc[m] = c if cur is None else self.ring.add(cur, c)
        return Element(self.ring, {m: c for m, c in acc.items() if not self.ring.is_zero(c)})

    def coefficient(self, m: Monomial):
        return self.terms.get(m, self.ring.zero())

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            cs = self.ring.format_value(c)
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
    _noun = "tensors"

    def __init__(self, ring: Ring, rank: int, terms: dict):
        self.ring = ring
        self.rank = rank
        self.terms = terms  # tuple[Monomial,...] -> value, no zeros

    def _like(self, ring: Ring, terms: dict) -> "TensorElement":
        return TensorElement(ring, self.rank, terms)

    @staticmethod
    def zero(ring: Ring, rank: int) -> "TensorElement":
        return TensorElement(ring, rank, {})

    @staticmethod
    def unit(ring: Ring, rank: int) -> "TensorElement":
        key = tuple(Monomial.unit() for _ in range(rank))
        return TensorElement(ring, rank, {key: ring.one()})

    @staticmethod
    def from_terms(ring: Ring, rank: int, pairs) -> "TensorElement":
        acc: dict = {}
        terms = _summed(ring, acc, pairs)
        for key in acc:
            if len(key) != rank:
                raise RankMismatchError(f"expected rank-{rank} keys, got {key}")
        return TensorElement(ring, rank, terms)

    # -- what reads the legs --------------------------------------------------

    def __mul__(self, other: "TensorElement") -> "TensorElement":
        """Componentwise product: legs multiply leg by leg."""
        self._check(other)
        acc: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a * b for a, b in zip(k1, k2))
                c = self.ring.mul(c1, c2)
                cur = acc.get(key)
                acc[key] = c if cur is None else self.ring.add(cur, c)
        return TensorElement(
            self.ring, self.rank, {k: c for k, c in acc.items() if not self.ring.is_zero(c)}
        )

    def swap(self) -> "TensorElement":
        """Exchange the two legs of a rank-2 tensor (an involution)."""
        if self.rank != 2:
            raise RankMismatchError("swap is defined for rank-2 tensors")
        return TensorElement(
            self.ring, 2, {(b, a): c for (a, b), c in self.terms.items()}
        )

    def outer(self, other: "TensorElement") -> "TensorElement":
        """Concatenate legs: rank j x rank k -> rank j+k."""
        if self.ring is not other.ring and self.ring.tag != other.ring.tag:
            raise RingMismatchError("outer product needs a common ring")
        mul = self.ring.mul
        pairs = ((k1 + k2, mul(c1, c2)) for k1, c1 in self.terms.items() for k2, c2 in other.terms.items())
        return TensorElement(self.ring, self.rank + other.rank, _summed(self.ring, {}, pairs))

    def apply_to_leg(self, index: int, fn: Callable[[Monomial], "TensorElement"], rank_delta: int) -> "TensorElement":
        """Replace leg ``index`` by the tensor expansion ``fn(leg)``.

        ``fn`` maps a monomial to a rank-(1+rank_delta) tensor; coefficients
        distribute multilinearly.
        """
        acc: dict = {}
        for key, c in self.terms.items():
            expanded = fn(key[index])
            for ekey, ec in expanded.terms.items():
                new_key = key[:index] + ekey + key[index + 1 :]
                v = self.ring.mul(c, ec)
                cur = acc.get(new_key)
                acc[new_key] = v if cur is None else self.ring.add(cur, v)
        return TensorElement(
            self.ring,
            self.rank + rank_delta,
            {k: c for k, c in acc.items() if not self.ring.is_zero(c)},
        )

    def sorted_terms(self):
        return sorted(
            self.terms.items(), key=lambda kv: tuple(m.sort_key() for m in kv[0])
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.sorted_terms():
            cs = self.ring.format_value(c)
            ks = " (x) ".join(str(m) for m in key)
            parts.append(ks if cs == "1" else f"{cs}*[{ks}]")
        return " + ".join(parts)

    __repr__ = __str__


def tensor_of_elements(*elements: Element) -> TensorElement:
    """Outer product of elements, as a rank-len(elements) tensor."""
    if not elements:
        raise RankMismatchError("need at least one element")
    ring = elements[0].ring
    acc = TensorElement(ring, 1, {(m,): c for m, c in elements[0].terms.items()})
    for e in elements[1:]:
        nxt = TensorElement(ring, 1, {(m,): c for m, c in e.terms.items()})
        acc = acc.outer(nxt)
    return acc


def pair(functionals: Sequence[Callable[[Monomial], object]], tensor: TensorElement, ring: Ring):
    """Multilinear duality contraction <f_1 (x) ... (x) f_n, tensor>.

    Each functional maps a monomial to a ring value; the contraction is
    sum_terms coeff * prod_i f_i(leg_i).
    """
    if len(functionals) != tensor.rank:
        raise RankMismatchError(
            f"{len(functionals)} functionals against a rank-{tensor.rank} tensor"
        )
    total = ring.zero()
    for key, c in tensor.terms.items():
        prod = c
        for f, leg in zip(functionals, key):
            if ring.is_zero(prod):
                break
            prod = ring.mul(prod, f(leg))
        total = ring.add(total, prod)
    return total
