"""Executable verifier for the algebra / coalgebra / bialgebra / Hopf axioms.

Each axiom is checked exhaustively on the monomial basis up to a degree
cutoff (the strongest decidable substitute for the universally quantified
statements).  Failures are reported with a concrete counterexample that the
CLI expression syntax can reproduce, never thrown.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .algebra import Element, Monomial, TensorElement, tensor_of_elements
from .errors import HopfError, SchemaError
from .hopf import HopfAlgebra, theta_factors, validate_schema_structure
from .rings import QQ, LaurentRing

# Truncation order of the formal scale variable z in the theta checks.
THETA_ORDER = 4


class AxiomCheck(NamedTuple):
    name: str
    passed: bool
    max_degree: int
    counterexample: Optional[str] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "axiom": self.name,
            "passed": self.passed,
            "maxDegree": self.max_degree,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


class AxiomReport(NamedTuple):
    schema_name: str
    max_degree: int
    checks: List[AxiomCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": self.schema_name,
            "maxDegree": self.max_degree,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def verify_axioms(ctx: HopfAlgebra, max_degree: int) -> AxiomReport:
    """Run the whole axiom suite against a context, up to a degree cutoff.

    The context is deliberately taken unvalidated (``validate_to=0``) so that
    seeded faults are caught here and reported rather than rejected upstream;
    a structurally broken schema short-circuits after the structure checks
    (the recursions would not terminate on it).

    Every check after CDelta is a predicate ``broken`` over one domain of
    tuples of basis monomials, and ``run`` reports the first tuple, in domain
    order, on which it holds.
    """
    if max_degree < 1:
        raise HopfError("max_degree must be >= 1")
    schema = ctx.schema
    report = AxiomReport(schema.name, max_degree, [])

    try:
        validate_schema_structure(schema, max_degree)
        structure_ok = True
        structure_witness = None
    except SchemaError as exc:
        structure_ok = False
        structure_witness = str(exc)
    report.checks.append(
        AxiomCheck(
            "schema-structure",
            structure_ok,
            max_degree,
            structure_witness,
            "right legs are generators, graded, progressive on generators",
        )
    )
    if not structure_ok:
        return report

    coassoc_witness = ctx.coassociativity_witness(max_degree)
    report.checks.append(
        AxiomCheck(
            "CDelta",
            coassoc_witness is None,
            max_degree,
            None if coassoc_witness is None else coassoc_witness.name,
            "coassociativity (D (x) id) D = (id (x) D) D",
        )
    )
    if coassoc_witness is not None:
        return report

    # The domains.  The basis is ordered by degree, so each prefix up_to[k]
    # holds exactly the monomials of degree <= k, in basis order.
    up_to = [ctx.basis_up_to(k) for k in range(max_degree + 1)]
    unit = [(Monomial.unit(),)]
    basis = [(m,) for m in up_to[max_degree]]
    ideal = [(m,) for m in up_to[max_degree] if not m.is_unit]
    pairs = [(m1, m2) for m1 in up_to[max_degree] for m2 in up_to[max_degree - m1.y_degree]]
    triples = [
        (m1, m2, m3)
        for m1, m2 in pairs
        for m3 in up_to[max_degree - m1.y_degree - m2.y_degree]
    ]

    def run(name: str, detail: str, domain: list, broken) -> None:
        witness = next((" | ".join(map(str, x)) for x in domain if broken(*x)), None)
        report.checks.append(AxiomCheck(name, witness is None, max_degree, witness, detail))

    E, D, S = ctx.monomial_element, ctx.coproduct_monomial, ctx.antipode_monomial
    one = ctx.unit_element()

    def eps(m: Monomial) -> int:
        return 1 if m.is_unit else 0

    # -- algebra axioms -------------------------------------------------------

    run("Am", "associativity of the product", triples,
        lambda m1, m2, m3: (E(m1) * E(m2)) * E(m3) != E(m1) * (E(m2) * E(m3)))
    run("Ae", "unit law", basis, lambda m: one * E(m) != E(m) or E(m) * one != E(m))

    # -- coalgebra axioms ------------------------------------------------------

    def counit_law_fails(m):
        d = D(m).terms.items()
        left = Element.from_terms(QQ, [(a, c * eps(b)) for (a, b), c in d])
        right = Element.from_terms(QQ, [(b, c * eps(a)) for (a, b), c in d])
        return left != E(m) or right != E(m)

    run("Ceps", "counit law (id (x) eps) D = id = (eps (x) id) D", basis, counit_law_fails)

    # -- bialgebra axioms -------------------------------------------------------

    run("Bm", "coproduct is an algebra map D(ab) = D(a) D(b)", pairs,
        lambda m1, m2: ctx.coproduct(E(m1) * E(m2)) != D(m1) * D(m2))
    run("Be", "coproduct of the unit", unit, lambda u: ctx.coproduct(E(u)) != TensorElement.unit(QQ, 2))
    run("Beps", "counit is multiplicative", pairs,
        lambda m1, m2: ctx.counit(E(m1) * E(m2)) != eps(m1) * eps(m2))
    run("Bepse", "counit of the unit is 1", unit, lambda u: ctx.counit(E(u)) != 1)

    # -- Hopf axioms -------------------------------------------------------------

    def not_inverse(m):
        d = D(m).terms.items()
        left = Element.from_terms(QQ, ((k, c * v) for (a, b), c in d for k, v in (E(a) * S(b)).terms.items()))
        right = Element.from_terms(QQ, ((k, c * v) for (a, b), c in d for k, v in (S(a) * E(b)).terms.items()))
        expected = one.scale(eps(m))
        return left != expected or right != expected

    run("H", "antipode is the convolution inverse of the identity", basis, not_inverse)
    run("Hm", "S(ab) = S(b) S(a)", pairs, lambda m1, m2: ctx.antipode(E(m1) * E(m2)) != S(m2) * S(m1))

    def not_anti_coalgebra_map(m):
        lhs = ctx.coproduct(S(m))
        return lhs != TensorElement.from_terms(QQ, 2, (
            (k, c * v)
            for (a, b), c in D(m).swap().terms.items()
            for k, v in tensor_of_elements(S(a), S(b)).terms.items()
        ))

    run("HDelta", "D S = (S (x) S) P12 D", basis, not_anti_coalgebra_map)
    run("He", "S(1) = 1", unit, lambda u: ctx.antipode(E(u)) != E(u))
    run("Heps", "eps o S = eps", basis, lambda m: ctx.counit(S(m)) != eps(m))

    def projection_moves(m):
        p = one.scale(eps(m))
        return ctx.antipode(p) != p or one.scale(ctx.counit(S(m))) != p

    run("Hp", "S p = p S = p for the counit projection", basis, projection_moves)

    # -- grading laws -------------------------------------------------------------

    run("grading-product", "degrees add under the product", pairs,
        lambda m1, m2: (m1 * m2).y_degree != m1.y_degree + m2.y_degree
        or (m1 * m2).poly_degree != m1.poly_degree + m2.poly_degree)
    run("grading-coproduct", "coproduct legs split the degree", basis,
        lambda m: any(a.y_degree + b.y_degree != m.y_degree for a, b in D(m).terms))
    run("Y-derivation", "Y(ab) = (Y a) b + a (Y b)", pairs,
        lambda m1, m2: ctx.apply_Y(E(m1) * E(m2)) != ctx.apply_Y(E(m1)) * E(m2) + E(m1) * ctx.apply_Y(E(m2)))

    def not_coderivation(m):
        lhs = TensorElement.from_terms(
            QQ, 2, [((a, b), c * (a.y_degree + b.y_degree)) for (a, b), c in D(m).terms.items()])
        return lhs != ctx.coproduct(ctx.apply_Y(E(m)))

    run("Y-coderivation", "(Y (x) id + id (x) Y) D = D Y", basis, not_coderivation)

    zring = LaurentRing(QQ, "z")
    factors = theta_factors(zring, zring.monomial(1, trunc=THETA_ORDER), max_degree)

    def theta(h: Element) -> Element:
        return ctx.apply_theta(h, factors, zring)

    run("theta-algebra-map", f"theta_z(ab) = theta_z(a) theta_z(b), formal z to order {THETA_ORDER}", pairs,
        lambda m1, m2: theta(E(m1) * E(m2)) != theta(E(m1)) * theta(E(m2)))

    def not_theta_coalgebra_map(m):
        lhs = TensorElement.from_terms(zring, 2, (
            ((a, b), zring.scale(c, factors[a.y_degree + b.y_degree])) for (a, b), c in D(m).terms.items()
        ))
        rhs = TensorElement.from_terms(zring, 2, (
            (k, zring.scale(q, c)) for mm, c in theta(E(m)).terms.items() for k, q in D(mm).terms.items()
        ))
        return lhs != rhs

    run("theta-coalgebra-map", "(theta_z (x) theta_z) D = D theta_z, formal z", basis, not_theta_coalgebra_map)
    run("progressive", "reduced coproduct legs have strictly positive degree below the total", ideal,
        lambda m: any(not (1 <= a.y_degree < m.y_degree and 1 <= b.y_degree < m.y_degree)
                      for a, b in ctx.reduced_coproduct_monomial(m).terms))
    run("S-commutes-Y", "Y S = S Y", basis, lambda m: ctx.apply_Y(S(m)) != ctx.antipode(ctx.apply_Y(E(m))))

    def theta_moves_s(m):
        lhs = theta(S(m))
        return lhs != Element.from_terms(zring, (
            (k, zring.scale(q, c)) for mm, c in theta(E(m)).terms.items() for k, q in S(mm).terms.items()
        ))

    run("S-commutes-theta", "theta_z S = S theta_z, formal z", basis, theta_moves_s)

    # -- primitive and group-like elements ----------------------------------------

    run("primitive-elements", "primitive basis monomials have eps = 0 and S = -id", ideal,
        lambda m: ctx.reduced_coproduct_monomial(m).is_zero
        and (ctx.counit(E(m)) != 0 or S(m) != E(m).scale(-1)))
    run("group-like-sanity", "no basis monomial except 1 is group-like", ideal,
        lambda m: D(m) == TensorElement(QQ, 2, {(m, m): 1}))

    return report
