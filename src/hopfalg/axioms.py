"""Executable verifier for the algebra / coalgebra / bialgebra / Hopf axioms.

Each axiom is checked exhaustively on the monomial basis up to a degree
cutoff (the strongest decidable substitute for the universally quantified
statements).  Failures are reported with a concrete counterexample that the
CLI expression syntax can reproduce, never thrown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

from .algebra import Element, Monomial, TensorElement
from .errors import HopfError, SchemaError
from .hopf import HopfAlgebra, HopfSchema, validate_schema_structure
from .rings import QQ, LaurentRing

# Truncation order of the formal scale variable z in the theta checks.
THETA_ORDER = 4


@dataclass
class AxiomCheck:
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


@dataclass
class AxiomReport:
    schema_name: str
    max_degree: int
    checks: List[AxiomCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[AxiomCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "schema": self.schema_name,
            "maxDegree": self.max_degree,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def verify_axioms(schema: HopfSchema, max_degree: int) -> AxiomReport:
    """Run the whole axiom suite against a schema, up to a degree cutoff.

    The schema is deliberately taken unvalidated so that seeded faults are
    caught here and reported rather than rejected upstream; a structurally
    broken schema short-circuits after the structure checks (the recursions
    would not terminate on it).
    """
    if max_degree < 1:
        raise HopfError("max_degree must be >= 1")
    report = AxiomReport(schema_name=schema.name, max_degree=max_degree)

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

    ctx = HopfAlgebra(schema, validate_to=0)

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

    # The basis is ordered by degree, so each prefix up_to[k] holds exactly
    # the monomials of degree <= k, in basis order.
    up_to = [ctx.basis_up_to(k) for k in range(max_degree + 1)]
    basis = up_to[max_degree]
    pairs = [(m1, m2) for m1 in basis for m2 in up_to[max_degree - m1.y_degree]]
    triples = [
        (m1, m2, m3)
        for m1, m2 in pairs
        for m3 in up_to[max_degree - m1.y_degree - m2.y_degree]
    ]

    def run(name: str, detail: str, check: Callable[[], Optional[str]]):
        witness = check()
        report.checks.append(
            AxiomCheck(name, witness is None, max_degree, witness, detail)
        )

    E = ctx.monomial_element
    one = ctx.unit_element()

    def counit_of_monomial(m: Monomial) -> Fraction:
        return Fraction(1) if m.is_unit else Fraction(0)

    # -- algebra axioms -------------------------------------------------------

    def check_am():
        for m1, m2, m3 in triples:
            if (E(m1) * E(m2)) * E(m3) != E(m1) * (E(m2) * E(m3)):
                return f"{m1} | {m2} | {m3}"
        return None

    run("Am", "associativity of the product", check_am)

    def check_ae():
        for m in basis:
            if one * E(m) != E(m) or E(m) * one != E(m):
                return str(m)
        return None

    run("Ae", "unit law", check_ae)

    # -- coalgebra axioms ------------------------------------------------------

    def check_ceps():
        for m in basis:
            d = ctx.coproduct_monomial(m)
            left = Element.from_terms(
                QQ, [(a, c * counit_of_monomial(b)) for (a, b), c in d.terms.items()]
            )
            right = Element.from_terms(
                QQ, [(b, c * counit_of_monomial(a)) for (a, b), c in d.terms.items()]
            )
            if left != E(m) or right != E(m):
                return str(m)
        return None

    run("Ceps", "counit law (id (x) eps) D = id = (eps (x) id) D", check_ceps)

    # -- bialgebra axioms -------------------------------------------------------

    def check_bm():
        for m1, m2 in pairs:
            lhs = ctx.coproduct(E(m1) * E(m2))
            rhs = ctx.coproduct_monomial(m1) * ctx.coproduct_monomial(m2)
            if lhs != rhs:
                return f"{m1} | {m2}"
        return None

    run("Bm", "coproduct is an algebra map D(ab) = D(a) D(b)", check_bm)

    def check_be():
        if ctx.coproduct(one) != TensorElement.unit(QQ, 2):
            return "1"
        return None

    run("Be", "coproduct of the unit", check_be)

    def check_beps():
        for m1, m2 in pairs:
            if ctx.counit(E(m1) * E(m2)) != counit_of_monomial(m1) * counit_of_monomial(m2):
                return f"{m1} | {m2}"
        return None

    run("Beps", "counit is multiplicative", check_beps)

    def check_bepse():
        return None if ctx.counit(one) == 1 else "1"

    run("Bepse", "counit of the unit is 1", check_bepse)

    # -- Hopf axioms -------------------------------------------------------------

    def convolve_sides(m: Monomial):
        left = Element.zero(QQ)
        right = Element.zero(QQ)
        for (a, b), c in ctx.coproduct_monomial(m).terms.items():
            left = left + (E(a) * ctx.antipode_monomial(b)).scale(c)
            right = right + (ctx.antipode_monomial(a) * E(b)).scale(c)
        return left, right

    def check_h():
        for m in basis:
            expected = one.scale(counit_of_monomial(m))
            left, right = convolve_sides(m)
            if left != expected or right != expected:
                return str(m)
        return None

    run("H", "antipode is the convolution inverse of the identity", check_h)

    def check_hm():
        for m1, m2 in pairs:
            lhs = ctx.antipode(E(m1) * E(m2))
            rhs = ctx.antipode_monomial(m2) * ctx.antipode_monomial(m1)
            if lhs != rhs:
                return f"{m1} | {m2}"
        return None

    run("Hm", "S(ab) = S(b) S(a)", check_hm)

    def check_hdelta():
        from .algebra import tensor_of_elements

        for m in basis:
            lhs = ctx.coproduct(ctx.antipode_monomial(m))
            rhs = TensorElement.zero(QQ, 2)
            for (a, b), c in ctx.coproduct_monomial(m).swap().terms.items():
                sa, sb = ctx.antipode_monomial(a), ctx.antipode_monomial(b)
                rhs = rhs + tensor_of_elements(sa, sb).scale(c)
            if lhs != rhs:
                return str(m)
        return None

    run("HDelta", "D S = (S (x) S) P12 D", check_hdelta)

    def check_he():
        return None if ctx.antipode(one) == one else "1"

    run("He", "S(1) = 1", check_he)

    def check_heps():
        for m in basis:
            if ctx.counit(ctx.antipode_monomial(m)) != counit_of_monomial(m):
                return str(m)
        return None

    run("Heps", "eps o S = eps", check_heps)

    def check_hp():
        for m in basis:
            p = one.scale(counit_of_monomial(m))
            sp = ctx.antipode(p)
            ps = one.scale(ctx.counit(ctx.antipode_monomial(m)))
            if sp != p or ps != p:
                return str(m)
        return None

    run("Hp", "S p = p S = p for the counit projection", check_hp)

    # -- grading laws -------------------------------------------------------------

    def check_grading_product():
        for m1, m2 in pairs:
            if (m1 * m2).y_degree != m1.y_degree + m2.y_degree:
                return f"{m1} | {m2}"
            if (m1 * m2).poly_degree != m1.poly_degree + m2.poly_degree:
                return f"{m1} | {m2}"
        return None

    run("grading-product", "degrees add under the product", check_grading_product)

    def check_grading_coproduct():
        for m in basis:
            for (a, b) in ctx.coproduct_monomial(m).terms:
                if a.y_degree + b.y_degree != m.y_degree:
                    return str(m)
        return None

    run("grading-coproduct", "coproduct legs split the degree", check_grading_coproduct)

    def check_y_derivation():
        for m1, m2 in pairs:
            prod = E(m1) * E(m2)
            lhs = ctx.apply_Y(prod)
            rhs = ctx.apply_Y(E(m1)) * E(m2) + E(m1) * ctx.apply_Y(E(m2))
            if lhs != rhs:
                return f"{m1} | {m2}"
        return None

    run("Y-derivation", "Y(ab) = (Y a) b + a (Y b)", check_y_derivation)

    def check_y_coderivation():
        for m in basis:
            d = ctx.coproduct_monomial(m)
            lhs = TensorElement.from_terms(
                QQ,
                2,
                [
                    ((a, b), c * Fraction(a.y_degree + b.y_degree))
                    for (a, b), c in d.terms.items()
                ],
            )
            rhs = ctx.coproduct(ctx.apply_Y(E(m)))
            if lhs != rhs:
                return str(m)
        return None

    run("Y-coderivation", "(Y (x) id + id (x) Y) D = D Y", check_y_coderivation)

    zring = LaurentRing(QQ, "z")
    zvar = zring.monomial(1, trunc=THETA_ORDER)
    theta_factors = [
        zring.exp(zring.scale(Fraction(n), zvar)) for n in range(max_degree + 1)
    ]

    def check_theta_algebra():
        for m1, m2 in pairs:
            lhs = ctx.apply_theta(E(m1) * E(m2), zvar, zring)
            rhs = ctx.apply_theta(E(m1), zvar, zring) * ctx.apply_theta(
                E(m2), zvar, zring
            )
            if lhs != rhs:
                return f"{m1} | {m2}"
        return None

    run(
        "theta-algebra-map",
        f"theta_z(ab) = theta_z(a) theta_z(b), formal z to order {THETA_ORDER}",
        check_theta_algebra,
    )

    def theta_of_tensor(d: TensorElement) -> TensorElement:
        out = TensorElement.zero(zring, 2)
        for (a, b), c in d.terms.items():
            factor = theta_factors[a.y_degree + b.y_degree]
            out = out + TensorElement(
                zring, 2, {(a, b): zring.scale(c, factor)}
            )
        return out

    def check_theta_coalgebra():
        for m in basis:
            lhs = theta_of_tensor(ctx.coproduct_monomial(m))
            rhs = TensorElement.zero(zring, 2)
            for mm, c in ctx.apply_theta(E(m), zvar, zring).terms.items():
                rhs = rhs + ctx.coproduct_monomial(mm).map_coefficients(
                    lambda q, c=c: zring.scale(q, c), zring
                )
            if lhs != rhs:
                return str(m)
        return None

    run(
        "theta-coalgebra-map",
        "(theta_z (x) theta_z) D = D theta_z, formal z",
        check_theta_coalgebra,
    )

    def check_progressive():
        for m in basis:
            if m.is_unit:
                continue
            for (a, b) in ctx.reduced_coproduct_monomial(m).terms:
                if not (1 <= a.y_degree < m.y_degree and 1 <= b.y_degree < m.y_degree):
                    return str(m)
        return None

    run(
        "progressive",
        "reduced coproduct legs have strictly positive degree below the total",
        check_progressive,
    )

    def check_s_commutes_y():
        for m in basis:
            if ctx.apply_Y(ctx.antipode_monomial(m)) != ctx.antipode(
                ctx.apply_Y(E(m))
            ):
                return str(m)
        return None

    run("S-commutes-Y", "Y S = S Y", check_s_commutes_y)

    def check_s_commutes_theta():
        for m in basis:
            lhs = ctx.apply_theta(ctx.antipode_monomial(m), zvar, zring)
            rhs_src = ctx.apply_theta(E(m), zvar, zring)
            rhs = Element.zero(zring)
            for mm, c in rhs_src.terms.items():
                rhs = rhs + ctx.antipode_monomial(mm).map_coefficients(
                    lambda q, c=c: zring.scale(q, c), zring
                )
            if lhs != rhs:
                return str(m)
        return None

    run("S-commutes-theta", "theta_z S = S theta_z, formal z", check_s_commutes_theta)

    # -- primitive and group-like elements ----------------------------------------

    def check_primitives():
        for m in basis:
            if m.is_unit:
                continue
            if ctx.reduced_coproduct_monomial(m).is_zero:
                if counit_of_monomial(m) != 0:
                    return str(m)
                if ctx.antipode_monomial(m) != E(m).scale(Fraction(-1)):
                    return str(m)
        return None

    run(
        "primitive-elements",
        "primitive basis monomials have eps = 0 and S = -id",
        check_primitives,
    )

    def check_group_like():
        for m in basis:
            if m.is_unit:
                continue
            d = ctx.coproduct_monomial(m)
            if d == TensorElement(QQ, 2, {(m, m): Fraction(1)}):
                return str(m)
        return None

    run(
        "group-like-sanity",
        "no basis monomial except 1 is group-like",
        check_group_like,
    )

    return report

