"""Schema-driven Hopf structure: coproduct, counit, antipode, grading.

A schema declares graded generators together with their reduced coproducts,
whose right legs are single generators.  The full coproduct extends
multiplicatively; the antipode is defined by the degree-decreasing recursion
on the augmentation ideal and memoized per monomial.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from .algebra import Element, Generator, Monomial, TensorElement, cofactor_chain, monomials_of_degree
from .errors import CutoffExceededError, DomainError, SchemaError, VerificationError, quoted
from .rationals import Ring

DEFAULT_VALIDATE_DEGREE = 8

# What names a generator: an identifier, or a run of brackets such as a rooted
# tree's encoding.  These are the two atoms ``exprparse`` reads as a name, where
# whitespace may stand between the brackets; every schema's ``generator_by_name``
# drops whitespace, so a declared name holds none.
NAME_PATTERN = r"[A-Za-z_]\w*|\[(?:\s*[][])*"


class ReducedTerm(NamedTuple):
    """One Sweedler term left (x) right of a generator's reduced coproduct;
    ``coeff`` is an int when it is integral (``parse_rational``'s form)."""

    left: Monomial
    right: Generator
    coeff: int | Fraction


class HopfSchema:
    """Generator data of a graded connected commutative Hopf algebra.

    Subclasses provide the generator enumeration per degree, the lookup by
    name and the reduced coproduct table.  ``max_degree`` is None for schemas
    with generators in every degree; ``complete`` is False for a cutoff slice
    of an infinite family.
    """

    name = "schema"
    max_degree: Optional[int] = None
    complete = True

    def generators_of_degree(self, degree: int) -> Tuple[Generator, ...]:
        raise NotImplementedError

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        raise NotImplementedError

    def generator_by_name(self, name: str) -> Generator:
        """The generator ``name`` names, whitespace in it dropped."""
        raise NotImplementedError

    def reduced_term_count(self, gen: Generator) -> int:
        """At least the number of terms of D(gen) - gen (x) 1 - 1 (x) gen."""
        return len(self.reduced_terms(gen))

    def generators_up_to(self, degree: int) -> Tuple[Generator, ...]:
        out: List[Generator] = []
        for d in range(1, degree + 1):
            out.extend(self.generators_of_degree(d))
        return tuple(out)


class TableSchema(HopfSchema):
    """A schema given by explicit finite tables (rooted trees, custom JSON).

    ``complete=True`` means the table lists every generator the algebra has
    (degrees with no entry are genuinely empty); ``complete=False`` marks a
    cutoff slice of an infinite family, where asking beyond the declared
    maximum degree is an error, never a silent truncation.
    """

    def __init__(
        self,
        name: str,
        generators: Iterable[Generator],
        reduced: Dict[Generator, Tuple[ReducedTerm, ...]],
        complete: bool = True,
    ):
        self.name = name
        self.complete = complete
        self._by_degree: Dict[int, List[Generator]] = {}
        self._by_name: Dict[str, Generator] = {}
        for g in generators:
            if not re.fullmatch(NAME_PATTERN, g.name) or any(c.isspace() for c in g.name):
                raise SchemaError(f"generator name {quoted(g.name)} is neither an identifier (an ASCII letter "
                                  "or _, then letters, digits or _) nor a run of brackets without whitespace")
            if g.name in self._by_name:
                raise SchemaError(f"duplicate generator name {g.name!r}")
            self._by_name[g.name] = g
            self._by_degree.setdefault(g.degree, []).append(g)
        for d in self._by_degree:
            self._by_degree[d].sort()
        self._reduced = dict(reduced)
        self.max_degree = max(self._by_degree, default=0)

    def generators_of_degree(self, degree: int) -> Tuple[Generator, ...]:
        if degree > self.max_degree and not self.complete:
            raise CutoffExceededError(
                f"schema {self.name!r} only declares generators up to degree "
                f"{self.max_degree}; degree {degree} requested"
            )
        return tuple(self._by_degree.get(degree, ()))

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        if gen.name not in self._by_name:
            raise SchemaError(f"unknown generator {gen.name!r} in schema {self.name!r}")
        return self._reduced.get(gen, ())

    def generator_by_name(self, name: str) -> Generator:
        g = self._by_name.get(name) or self._by_name.get("".join(name.split()))
        if g is None:
            raise SchemaError(f"unknown generator {quoted(name)} in schema {self.name!r}")
        return g


def validate_schema_structure(schema: HopfSchema, up_to: int) -> None:
    """Check the local schema invariants on all generators of degree <= up_to.

    Raised violations name the broken invariant: right legs must be single
    generators (enforced by the table type), degrees of the two legs must add
    up to the generator's degree, and both legs must have strictly positive
    degree (progressiveness).
    """
    for g in schema.generators_up_to(up_to):
        for term in schema.reduced_terms(g):
            if term.coeff == 0:
                raise SchemaError(
                    f"reduced coproduct of {g.name!r} stores a zero coefficient"
                )
            left_deg = term.left.y_degree
            if left_deg < 1:
                raise SchemaError(
                    f"reduced coproduct of {g.name!r} is not progressive: left "
                    "leg must have strictly positive degree"
                )
            if left_deg + term.right.degree != g.degree:
                raise SchemaError(
                    "reduced coproduct of "
                    f"{g.name!r} is not graded: left degree {left_deg} + right "
                    f"degree {term.right.degree} != {g.degree}"
                )
            for lg, _ in term.left.powers:
                schema.generator_by_name(lg.name)


def theta_factors(ring: Ring, z, max_degree: int) -> list:
    """exp(n z) for n = 0 .. max_degree, the factors of theta_z by degree; z is
    a positive-valuation series in ``ring``, so each is exact to its truncation."""
    return [ring.exp(ring.scale(n, z)) for n in range(max_degree + 1)]


class HopfAlgebra:
    """A schema bound to computation caches; structure coefficients over Q.

    Integral structure constants are ``int`` (the schemas here all have
    integer ones, and ``parse_rational`` reads integral JSON values as ints),
    so the coproduct, antipode and iterated-coproduct memos fill in integer
    arithmetic; a rational schema coefficient stays a ``Fraction`` and mixes
    exactly with them.

    Coproducts, antipodes and iterated coproducts are memoized per monomial;
    the memo fill is idempotent, so sharing an instance across threads only
    risks duplicated work, never wrong answers.  Construction checks the
    schema through the binary coproduct alone: the iterated-coproduct memo
    only fills when the flat ``ConvolutionProduct`` oracle asks for it.
    """

    def __init__(self, schema: HopfSchema, validate_to: Optional[int] = None):
        self.schema = schema
        one = Monomial.unit()
        self._coproduct: Dict[Monomial, TensorElement] = {one: TensorElement(2, {(one, one): 1})}
        self._antipode_r: Dict[Monomial, Element] = {}
        self._antipode_l: Dict[Monomial, Element] = {}
        self._iterated: Dict[Tuple[Monomial, int], TensorElement] = {}
        self._plus_iterated: Dict[Tuple[Monomial, int], TensorElement] = {}
        self._basis: Dict[int, Tuple[Monomial, ...]] = {}
        self.validate(validate_to)

    def validate(self, up_to: Optional[int] = None) -> None:
        """Check the schema structure and coassociativity on the generators of
        degree <= up_to, by default the schema's top degree, or
        DEFAULT_VALIDATE_DEGREE on an unbounded schema."""
        if up_to is None:
            up_to = self.schema.max_degree if self.schema.max_degree is not None else DEFAULT_VALIDATE_DEGREE
        validate_schema_structure(self.schema, up_to)
        witness = self.coassociativity_witness(up_to)
        if witness is not None:
            raise SchemaError(
                f"coproduct of {witness.name!r} is not coassociative: "
                f"(D(x)id)D and (id(x)D)D disagree"
            )

    def coassociativity_witness(self, up_to: int) -> Optional[Generator]:
        """The first generator of degree <= up_to on which (D (x) id) D and
        (id (x) D) D disagree, or None.

        D is multiplicative, so coassociativity on the generators gives it on
        the whole algebra.
        """
        for g in self.schema.generators_up_to(up_to):
            diff: dict = {}  # (D (x) id) D g - (id (x) D) D g
            for (a, b), c in self.coproduct_terms(Monomial.of(g)):
                for (a1, a2), c1 in self.coproduct_terms(a):
                    key = (a1, a2, b)
                    diff[key] = diff.get(key, 0) + c * c1
                for (b1, b2), c2 in self.coproduct_terms(b):
                    key = (a, b1, b2)
                    diff[key] = diff.get(key, 0) - c * c2
            if any(diff.values()):
                return g
        return None

    # -- element constructors ------------------------------------------------

    def unit_element(self) -> Element:
        return Element({Monomial.unit(): 1})

    def monomial_element(self, m: Monomial) -> Element:
        return Element({m: 1})

    # -- basis enumeration -----------------------------------------------------

    def monomials_of_degree(self, degree: int) -> Tuple[Monomial, ...]:
        """All basis monomials of the given Y-degree, canonically ordered."""
        if degree not in self._basis:
            self._basis[degree] = monomials_of_degree(sorted(self.schema.generators_up_to(degree)), degree)
        return self._basis[degree]

    def basis_up_to(self, degree: int) -> Tuple[Monomial, ...]:
        out: List[Monomial] = []
        for d in range(degree + 1):
            out.extend(self.monomials_of_degree(d))
        return tuple(out)

    # -- coproduct, counit ----------------------------------------------------

    def coproduct_generator(self, gen: Generator) -> TensorElement:
        one = Monomial.unit()
        m = Monomial.of(gen)
        terms = [((m, one), 1), ((one, m), 1)]
        for t in self.schema.reduced_terms(gen):
            terms.append(((t.left, Monomial.of(t.right)), t.coeff))
        return TensorElement.from_terms(2, terms)

    def coproduct_monomial(self, m: Monomial) -> TensorElement:
        memo = self._coproduct
        cached = memo.get(m)
        if cached is not None:
            return cached
        # D(m') = D(g) D(m'/g) up the cofactor chain, one coefficient dict per step.
        for top, gen, rest in cofactor_chain(m, memo):
            acc: dict = {}
            tail = memo[rest].terms.items()
            for (a1, b1), c1 in self.coproduct_generator(gen).terms.items():
                for (a2, b2), c2 in tail:
                    key = (a1 * a2, b1 * b2)
                    acc[key] = acc.get(key, 0) + c1 * c2
            memo[top] = TensorElement(2, {k: c for k, c in acc.items() if c})
        return memo[m]

    def coproduct_terms(self, m: Monomial):
        """The terms ((left, right), c) of D(m).  With ``reduced_coproduct_terms`` and the
        readers of D^(n), P_n and S below, the one way to read a memo: no other module knows
        how one is stored, and each read goes through the method that fills the memo."""
        return self.coproduct_monomial(m).terms.items()

    def reduced_coproduct_terms(self, m: Monomial):
        """The terms of D(m) - m(x)1 - 1(x)m, read off D(m) in its order: one is
        subtracted from each of the two unit terms, a term that cancels is left
        out, and a unit term D(m) lacks comes last with coefficient -1."""
        if m.is_unit:
            raise DomainError("reduced coproduct is only defined on the augmentation ideal (counit must vanish)")
        one = Monomial.unit()
        owed = {(m, one): True, (one, m): True}
        for key, c in self.coproduct_terms(m):
            if one in key and owed.pop(key, False):
                c -= 1
                if not c:
                    continue
            yield key, c
        for key in owed:
            yield key, -1

    def iterated_coproduct_terms(self, m: Monomial, n: int):
        """The terms (legs, c) of D^(n)(m)."""
        return self.iterated_coproduct_monomial(m, n).terms.items()

    def plus_iterated_terms(self, m: Monomial, n: int):
        """The terms (legs, c) of P_n(m)."""
        return self.plus_iterated_monomial(m, n).terms.items()

    def antipode_terms(self, m: Monomial):
        """The terms (m', c) of S(m)."""
        return self.antipode_monomial(m).terms.items()

    def coproduct(self, h: Element) -> TensorElement:
        return TensorElement.from_terms(2, (
            (key, c * c2)
            for m, c in h.terms.items()
            for key, c2 in self.coproduct_terms(m)
        ))

    def counit(self, h: Element):
        return h.coefficient(Monomial.unit())

    def reduced_coproduct_monomial(self, m: Monomial) -> TensorElement:
        """D(m) - m(x)1 - 1(x)m as a tensor."""
        return TensorElement(2, dict(self.reduced_coproduct_terms(m)))

    def iterated_coproduct_monomial(self, m: Monomial, n: int) -> TensorElement:
        """D^(n): rank n+1, with D^(0) the identity."""
        if n < 0:
            raise DomainError("iterated coproduct needs n >= 0")
        if n == 0:
            return TensorElement(1, {(m,): 1})
        key = (m, n)
        cached = self._iterated.get(key)
        if cached is not None:
            return cached
        prev = self.iterated_coproduct_monomial(m, n - 1)
        result = prev.apply_to_leg(0, lambda leg: self.coproduct_monomial(leg), 1)
        self._iterated[key] = result
        return result

    def plus_iterated_monomial(self, m: Monomial, n: int) -> TensorElement:
        """The terms of D^(n-1)(m), n >= 1, whose n legs are all generators: P_n(m) sums
        c P_(n-1)(x) (x) g over the terms c x (x) g of D(m) with g a generator, so P_n(1) = 0.
        It descends in degree, so it is at most deg m deep and vanishes for n > deg m."""
        if n < 1:
            raise DomainError("positive-part iterated coproduct needs n >= 1")
        if n == 1:
            return TensorElement(1, {(m,): 1} if m.single_generator() is not None else {})
        key = (m, n)
        cached = self._plus_iterated.get(key)
        if cached is not None:
            return cached
        result = TensorElement.from_terms(n, (
            (legs + (g,), c * c1)
            for (x, g), c in self.coproduct_terms(m)
            if g.single_generator() is not None
            for legs, c1 in self.plus_iterated_terms(x, n - 1)))
        self._plus_iterated[key] = result
        return result

    # -- antipode ---------------------------------------------------------------

    def antipode_monomial(self, m: Monomial) -> Element:
        memo = self._antipode_r
        cached = memo.get(m)
        if cached is not None:
            return cached
        # S(h) = -h - sum h' * S(h'') over the reduced coproduct.  The right
        # legs have strictly smaller degree, so filling the missing ones first,
        # from a stack rather than the call stack, ends at any degree.
        stack = [m]
        while stack:
            top = stack[-1]
            if top in memo:
                stack.pop()
            elif top.is_unit:
                memo[top] = self.unit_element()
            else:
                missing = [right for (_, right), _ in self.reduced_coproduct_terms(top) if right not in memo]
                if missing:
                    if any(right.y_degree >= top.y_degree for right in missing):
                        raise VerificationError(f"a right leg of the reduced coproduct of {top} is not of "
                                                "lower degree: the antipode recursion does not descend", witness=str(top))
                    stack.extend(missing)
                    continue
                acc = {top: -1}
                for (left, right), c in self.reduced_coproduct_terms(top):
                    for m2, c2 in memo[right].terms.items():
                        key = left * m2
                        acc[key] = acc.get(key, 0) - c * c2
                memo[top] = Element({k: v for k, v in acc.items() if v})
        return memo[m]

    def antipode_left_monomial(self, m: Monomial) -> Element:
        cached = self._antipode_l.get(m)
        if cached is not None:
            return cached
        if m.is_unit:
            result = self.unit_element()
        else:
            result = -self.monomial_element(m)
            for (left, right), c in self.reduced_coproduct_terms(m):
                if left.y_degree >= m.y_degree:
                    raise VerificationError(f"a left leg of the reduced coproduct of {m} is not of lower "
                                            "degree: the left antipode recursion does not descend", witness=str(m))
                piece = self.antipode_left_monomial(left) * Element({right: c})
                result = result - piece
        self._antipode_l[m] = result
        return result

    def antipode(self, h: Element) -> Element:
        return Element.from_terms((
            (m2, c * c2)
            for m, c in h.terms.items()
            for m2, c2 in self.antipode_terms(m)
        ))

    # -- grading operators ---------------------------------------------------

    # Y and theta_z scale each monomial of h on its own, so the result keeps
    # the keys of h and needs no accumulator.

    def apply_Y(self, h: Element) -> Element:
        return Element({m: v for m, c in h.terms.items() if (v := m.y_degree * c)})

    def apply_theta(self, h: Element, factors, ring: Ring) -> dict:
        """theta_z(h) as {monomial: series in ``ring``}: each homogeneous
        component of degree n scaled by ``factors[n]``, the list exp(n z) from
        ``theta_factors``, with the zero values left out."""
        return {m: v for m, c in h.terms.items() if not ring.is_zero(v := ring.scale(c, factors[m.y_degree]))}
