"""Executable verifier for the algebra / coalgebra / bialgebra / Hopf axioms.

Each axiom is checked exhaustively on the monomial basis up to a degree
cutoff (the strongest decidable substitute for the universally quantified
statements).  Failures are reported with a concrete counterexample that the
CLI expression syntax can reproduce, never thrown.

Each predicate calls the map it checks and compares plain coefficients.  The
maps are ``coproduct_terms``/``reduced_coproduct_terms``/``coproduct`` and
``antipode_terms``/``antipode`` (D and S read through ``hopf``'s readers),
``apply_Y``, ``apply_theta`` and ``counit``, called on every tuple of the
check's domain.  Both sides of a law, or their difference, are
``{key: coefficient}`` dicts built from the terms a reader yields, the
``.terms`` of a map's result or ``apply_theta``'s dict, so no predicate
multiplies, sums or compares ``Element`` or ``TensorElement`` objects, and a
map that goes wrong on one input shows in every check that reads it there.
The product laws read the basis product, ``Monomial.__mul__``.  Sums over Q
are plain ``+``; the theta sides hold Laurent series, and each of their sums
is one ``zring.dot`` call per output key.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from .algebra import Element, Monomial
from .errors import DomainError, SchemaError
from .hopf import HopfAlgebra, theta_factors, validate_schema_structure
from .rings import EPS_RING

# Truncation order of the formal scale variable z in the theta checks.
THETA_ORDER = 4


def _nonzero(acc: dict) -> dict:
    """A coefficient dict over Q without its zero values."""
    return {k: c for k, c in acc.items() if c}


class CheckResult(NamedTuple):
    """The verdict of one ``verify`` check: it passed when it found no witness."""

    name: str
    passed: bool
    counterexample: Optional[str] = None
    detail: str = ""

    @classmethod
    def first(cls, name: str, witnesses, detail: str, catch=()) -> "CheckResult":
        """The verdict from the first witness the iterator ``witnesses`` yields,
        where the check's draws stop.  An exception of a type in ``catch`` raised
        while drawing is the witness, by its message; any other propagates."""
        try:
            witness = next(witnesses, None)
        except catch as exc:
            witness = str(exc)
        return cls(name, witness is None, witness, detail)


class AxiomReport(NamedTuple):
    schema_name: str
    max_degree: int
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": self.schema_name,
            "maxDegree": self.max_degree,
            "passed": self.passed,
            "checks": [{"axiom": c.name, "passed": c.passed, "maxDegree": self.max_degree,
                        "counterexample": c.counterexample, "detail": c.detail} for c in self.checks],
        }


def verify_axioms(ctx: HopfAlgebra, max_degree: int) -> AxiomReport:
    """Run the whole axiom suite against a context, up to a degree cutoff.

    The context is deliberately taken unvalidated (``validate_to=0``) so that
    seeded faults are caught here and reported rather than rejected upstream;
    a structurally broken schema short-circuits after the structure checks
    (the recursions would not terminate on it).

    Every check records its verdict through ``CheckResult.first``.  Each after
    CDelta is a predicate ``broken`` over a domain of tuples of basis monomials,
    and ``run`` reports the first tuple, in domain order, on which it holds.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    schema = ctx.schema
    report = AxiomReport(schema.name, max_degree, [])

    def record(name: str, detail: str, witnesses, catch=()) -> bool:
        report.checks.append(CheckResult.first(name, witnesses, detail, catch))
        return report.checks[-1].passed

    def run(name: str, detail: str, domain, broken) -> None:
        record(name, detail, (" | ".join(map(str, x)) for x in domain if broken(*x)))

    def structure_errors():  # a generator, so that it runs inside CheckResult.first
        validate_schema_structure(schema, max_degree)
        yield from ()

    if not record("schema-structure", "right legs are generators, graded, progressive on generators",
                  structure_errors(), SchemaError):
        return report
    if not record("CDelta", "coassociativity (D (x) id) D = (id (x) D) D",
                  (g.name for g in (ctx.coassociativity_witness(max_degree),) if g is not None)):
        return report

    # The domains.  The basis is ordered by degree, so each prefix up_to[k]
    # holds exactly the monomials of degree <= k, in basis order.  Am alone
    # reads the triples, so they stream: no list of them outlives Am.
    up_to = [ctx.basis_up_to(k) for k in range(max_degree + 1)]
    one = Monomial.unit()
    unit = [(one,)]
    basis = [(m,) for m in up_to[max_degree]]
    ideal = [(m,) for m in up_to[max_degree] if not m.is_unit]
    pairs = [(m1, m2) for m1 in up_to[max_degree] for m2 in up_to[max_degree - m1.y_degree]]
    triples = ((m1, m2, m3) for m1, m2 in pairs for m3 in up_to[max_degree - m1.y_degree - m2.y_degree])

    E, D, S = ctx.monomial_element, ctx.coproduct_terms, ctx.antipode_terms

    def eps(m: Monomial) -> int:
        return 1 if m.is_unit else 0

    def on_unit(c) -> dict:
        """c times the unit, as a coefficient dict."""
        return {one: c} if c else {}

    # -- algebra axioms -------------------------------------------------------

    run("Am", "associativity of the product", triples, lambda m1, m2, m3: (m1 * m2) * m3 is not m1 * (m2 * m3))
    run("Ae", "unit law", basis, lambda m: one * m is not m or m * one is not m)

    # -- coalgebra axioms ------------------------------------------------------

    def counit_law_fails(m):
        left: dict = {}
        right: dict = {}
        for (a, b), c in D(m):
            left[a] = left.get(a, 0) + c * eps(b)
            right[b] = right.get(b, 0) + c * eps(a)
        return _nonzero(left) != {m: 1} or _nonzero(right) != {m: 1}

    run("Ceps", "counit law (id (x) eps) D = id = (eps (x) id) D", basis, counit_law_fails)

    # -- bialgebra axioms -------------------------------------------------------

    def not_multiplicative(m1, m2):
        diff = {key: -c for key, c in D(m1 * m2)}  # D(m1) D(m2) - D(m1 m2)
        for (a1, b1), c1 in D(m1):
            for (a2, b2), c2 in D(m2):
                key = (a1 * a2, b1 * b2)
                diff[key] = diff.get(key, 0) + c1 * c2
        return any(diff.values())

    run("Bm", "coproduct is an algebra map D(ab) = D(a) D(b)", pairs, not_multiplicative)
    run("Be", "coproduct of the unit", unit, lambda u: ctx.coproduct(E(u)).terms != {(one, one): 1})
    run("Beps", "counit is multiplicative", pairs, lambda m1, m2: ctx.counit(E(m1 * m2)) != eps(m1) * eps(m2))
    run("Bepse", "counit of the unit is 1", unit, lambda u: ctx.counit(E(u)) != 1)

    # -- Hopf axioms -------------------------------------------------------------

    def not_inverse(m):
        left: dict = {}
        right: dict = {}
        for (a, b), c in D(m):
            for k, v in S(b):
                key = a * k
                left[key] = left.get(key, 0) + c * v
            for k, v in S(a):
                key = k * b
                right[key] = right.get(key, 0) + c * v
        expected = on_unit(eps(m))
        return _nonzero(left) != expected or _nonzero(right) != expected

    run("H", "antipode is the convolution inverse of the identity", basis, not_inverse)

    def not_anti_multiplicative(m1, m2):
        rhs: dict = {}
        for k2, v2 in S(m2):
            for k1, v1 in S(m1):
                key = k2 * k1
                rhs[key] = rhs.get(key, 0) + v2 * v1
        return dict(S(m1 * m2)) != _nonzero(rhs)

    run("Hm", "S(ab) = S(b) S(a)", pairs, not_anti_multiplicative)

    def not_anti_coalgebra_map(m):
        lhs: dict = {}
        rhs: dict = {}
        for k, v in S(m):
            for key, c in D(k):
                lhs[key] = lhs.get(key, 0) + v * c
        for (a, b), c in D(m):
            left = S(a)
            for k1, v1 in S(b):
                for k2, v2 in left:
                    key = (k1, k2)
                    rhs[key] = rhs.get(key, 0) + c * v1 * v2
        return _nonzero(lhs) != _nonzero(rhs)

    run("HDelta", "D S = (S (x) S) P12 D", basis, not_anti_coalgebra_map)
    run("He", "S(1) = 1", unit, lambda u: ctx.antipode(E(u)).terms != {one: 1})
    run("Heps", "eps o S = eps", basis, lambda m: ctx.counit(ctx.antipode(E(m))) != eps(m))

    def projection_moves(m):
        p = on_unit(eps(m))
        return ctx.antipode(Element(p)).terms != p or on_unit(ctx.counit(ctx.antipode(E(m)))) != p

    run("Hp", "S p = p S = p for the counit projection", basis, projection_moves)

    # -- grading laws -------------------------------------------------------------

    run("grading-product", "degrees add under the product", pairs,
        lambda m1, m2: (m1 * m2).y_degree != m1.y_degree + m2.y_degree
        or (m1 * m2).poly_degree != m1.poly_degree + m2.poly_degree)
    run("grading-coproduct", "coproduct legs split the degree", basis,
        lambda m: any(a.y_degree + b.y_degree != m.y_degree for (a, b), _ in D(m)))

    def not_derivation(m1, m2):
        rhs: dict = {}
        for k, v in ctx.apply_Y(E(m1)).terms.items():
            key = k * m2
            rhs[key] = rhs.get(key, 0) + v
        for k, v in ctx.apply_Y(E(m2)).terms.items():
            key = m1 * k
            rhs[key] = rhs.get(key, 0) + v
        return ctx.apply_Y(E(m1 * m2)).terms != _nonzero(rhs)

    run("Y-derivation", "Y(ab) = (Y a) b + a (Y b)", pairs, not_derivation)

    def not_coderivation(m):
        lhs = {(a, b): c * (a.y_degree + b.y_degree) for (a, b), c in D(m)}
        return _nonzero(lhs) != ctx.coproduct(ctx.apply_Y(E(m))).terms

    run("Y-coderivation", "(Y (x) id + id (x) Y) D = D Y", basis, not_coderivation)

    # Laurent sides are dicts of nonzero series, compared by zring.eq.  Each
    # law is an identity of series in z, and z = 24 w is an invertible
    # substitution of the formal variable, so checking it in w to the same
    # order checks the same identity; with 24 = 4!, every coefficient
    # (24 n)^k / k! of exp(n z) to order 4 is an integer.
    zring = EPS_RING  # series in the formal z, in the one Laurent ring
    factors = theta_factors(zring, zring.monomial(1, 24, trunc=THETA_ORDER), max_degree)
    z_one = zring.one()

    def theta(h: Element) -> dict:
        return ctx.apply_theta(h, factors, zring)

    def sums(triples: dict) -> dict:
        """One zring.dot per key over its (scalar, series, series) triples."""
        out = {}
        for key, t in triples.items():
            v = zring.dot(t)
            if not zring.is_zero(v):
                out[key] = v
        return out

    def differ(x: dict, y: dict) -> bool:
        return x.keys() != y.keys() or not all(zring.eq(v, y[k]) for k, v in x.items())

    def not_theta_multiplicative(m1, m2):
        rhs: dict = {}
        for k1, v1 in theta(E(m1)).items():
            for k2, v2 in theta(E(m2)).items():
                rhs.setdefault(k1 * k2, []).append((1, v1, v2))
        return differ(theta(E(m1 * m2)), sums(rhs))

    run("theta-algebra-map", f"theta_z(ab) = theta_z(a) theta_z(b), formal z to order {THETA_ORDER}", pairs,
        not_theta_multiplicative)

    def not_theta_coalgebra_map(m):
        lhs = {}
        for (a, b), c in D(m):
            v = zring.scale(c, factors[a.y_degree + b.y_degree])
            if not zring.is_zero(v):
                lhs[(a, b)] = v
        rhs: dict = {}
        for mm, v in theta(E(m)).items():
            for key, q in D(mm):
                rhs.setdefault(key, []).append((q, v, z_one))
        return differ(lhs, sums(rhs))

    run("theta-coalgebra-map", "(theta_z (x) theta_z) D = D theta_z, formal z", basis, not_theta_coalgebra_map)
    run("progressive", "reduced coproduct legs have strictly positive degree below the total", ideal,
        lambda m: any(not (1 <= a.y_degree < m.y_degree and 1 <= b.y_degree < m.y_degree)
                      for (a, b), _ in ctx.reduced_coproduct_terms(m)))
    run("S-commutes-Y", "Y S = S Y", basis,
        lambda m: ctx.apply_Y(ctx.antipode(E(m))).terms != ctx.antipode(ctx.apply_Y(E(m))).terms)

    def theta_moves_s(m):
        rhs: dict = {}
        for mm, v in theta(E(m)).items():
            for k, q in S(mm):
                rhs.setdefault(k, []).append((q, v, z_one))
        return differ(theta(ctx.antipode(E(m))), sums(rhs))

    run("S-commutes-theta", "theta_z S = S theta_z, formal z", basis, theta_moves_s)

    # -- primitive and group-like elements ----------------------------------------

    run("primitive-elements", "primitive basis monomials have eps = 0 and S = -id", ideal,
        lambda m: next(ctx.reduced_coproduct_terms(m), None) is None
        and (ctx.counit(E(m)) != 0 or dict(S(m)) != {m: -1}))
    run("group-like-sanity", "no basis monomial except 1 is group-like", ideal,
        lambda m: dict(D(m)) == {(m, m): 1})

    return report
