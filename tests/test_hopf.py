"""Coproduct, counit, antipode and grading on the built-in schemas.

Expected values marked "by hand" below were derived on paper from one or two
steps of the defining recursions and frozen here.
"""

import ast
import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import hopfalg
from closed_forms import (
    _compositions,
    binomial_schema,
    connes_moscovici_schema,
    forest_formula,
    ladder_antipode_closed_form,
    rescaled_binomial_schema,
)
from hopfalg.algebra import Element, Monomial, TensorElement
from hopfalg.axioms import verify_axioms
from hopfalg.errors import DomainError, SchemaError
from hopfalg.hopf import HopfAlgebra, theta_factors
from hopfalg.instances import ladder_schema, schema_from_dict
from hopfalg.pricing import antipode_term_bound
from hopfalg.rings import EPS_RING, QQ, LaurentRing
from hopfalg.trees import rooted_tree_schema


def t(ladder, n, exp=1):
    return Monomial.of(ladder.schema.generator(n), exp)


def tensor(*pairs):
    return TensorElement.from_terms(2, [(k, Fraction(c)) for k, c in pairs])


def test_coproduct_of_unit(ladder):
    one = Monomial.unit()
    assert ladder.coproduct(ladder.unit_element()) == tensor(((one, one), 1))


def test_coproduct_primitive_generator(ladder):
    one = Monomial.unit()
    m1 = t(ladder, 1)
    assert ladder.coproduct_monomial(m1) == tensor(((m1, one), 1), ((one, m1), 1))


def test_coproduct_t2(ladder):
    one = Monomial.unit()
    m1, m2 = t(ladder, 1), t(ladder, 2)
    assert ladder.coproduct_monomial(m2) == tensor(
        ((m2, one), 1), ((one, m2), 1), ((m1, m1), 1)
    )


def test_coproduct_t1_squared(ladder):
    # Square D(t1) by hand: t1^2 (x) 1 + 2 t1 (x) t1 + 1 (x) t1^2.
    one = Monomial.unit()
    m1, m1sq = t(ladder, 1), t(ladder, 1, 2)
    assert ladder.coproduct_monomial(m1sq) == tensor(
        ((m1sq, one), 1), ((m1, m1), 2), ((one, m1sq), 1)
    )


def test_counit(ladder):
    assert ladder.counit(ladder.unit_element()) == 1
    assert ladder.counit(ladder.monomial_element(t(ladder, 3))) == 0
    h = Element.from_terms(
        [
            (Monomial.unit(), Fraction(5)),
            (t(ladder, 1) * t(ladder, 2), Fraction(2)),
        ],
    )
    assert ladder.counit(h) == 5


def test_reduced_coproduct_examples(ladder):
    m1, m2 = t(ladder, 1), t(ladder, 2)
    assert ladder.reduced_coproduct_monomial(m1).is_zero
    assert ladder.reduced_coproduct_monomial(m2) == tensor(((m1, m1), 1))
    # t1*t2 by hand: multiply D(t1) D(t2) and subtract the primitive part.
    m1sq = t(ladder, 1, 2)
    prod = m1 * m2
    assert ladder.reduced_coproduct_monomial(prod) == tensor(
        ((m1, m2), 1), ((m2, m1), 1), ((m1sq, m1), 1), ((m1, m1sq), 1)
    )


def test_reduced_coproduct_rejects_nonzero_counit(ladder):
    with pytest.raises(DomainError):
        ladder.reduced_coproduct_monomial(Monomial.unit())


def test_the_reduced_reader_subtracts_exactly_one_unit_term_each(ladder, monkeypatch):
    one, m1, m2 = Monomial.unit(), t(ladder, 1), t(ladder, 2)
    m = m1 * m2
    reduced = ladder.reduced_coproduct_monomial(m).terms
    # 1 (x) m doubled and m (x) 1 missing: one copy of 1 (x) m stays, and
    # m (x) 1 comes last with coefficient -1.
    broken = ladder.coproduct_monomial(m) + TensorElement(2, {(one, m): 1}) - TensorElement(2, {(m, one): 1})
    monkeypatch.setattr(ladder, "coproduct_monomial", lambda x: broken)
    terms = list(ladder.reduced_coproduct_terms(m))
    assert terms[-1] == ((m, one), -1)
    assert dict(terms) == {**reduced, (one, m): 1, (m, one): -1}


def test_reduced_legs_strictly_positive(ladder):
    for m in ladder.basis_up_to(6):
        if m.is_unit:
            continue
        for (a, b) in ladder.reduced_coproduct_monomial(m).terms:
            assert 1 <= a.y_degree < m.y_degree
            assert 1 <= b.y_degree < m.y_degree
            assert a.y_degree + b.y_degree == m.y_degree


def test_iterated_coproduct(ladder):
    one = Monomial.unit()
    m1 = t(ladder, 1)
    assert ladder.iterated_coproduct_monomial(m1, 0) == TensorElement(
        1, {(m1,): Fraction(1)}
    )
    d2 = ladder.iterated_coproduct_monomial(m1, 2)
    assert d2 == TensorElement.from_terms(
        3,
        [
            ((m1, one, one), Fraction(1)),
            ((one, m1, one), Fraction(1)),
            ((one, one, m1), Fraction(1)),
        ],
    )


# The flat D^(n-1), unit legs included, grows about 8x per degree: through
# n = d + 1 it holds 0.43 M terms on the ladder at d = 7 (1 s) and 3.2 M at
# d = 8 (8 s); on Connes-Moscovici 71 K at d = 6 and 0.53 M at d = 7.
GENERATOR_LEG_SCHEMAS = {
    "ladder": (ladder_schema, 7),
    "trees:6": (lambda: rooted_tree_schema(6), 6),
    "connes-moscovici": (lambda: schema_from_dict(connes_moscovici_schema(6), name="connes-moscovici"), 6),
    "rescaled-binomial": (lambda: schema_from_dict(rescaled_binomial_schema(6), name="rescaled-binomial"), 6),
}


@pytest.mark.parametrize("name", list(GENERATOR_LEG_SCHEMAS))
def test_plus_iterated_is_the_generator_leg_part_of_the_flat_iterated_coproduct(name):
    # The towers pair beta tensor n, which kills 1 and products, with
    # plus_iterated_monomial(m, n): it must be exactly the terms of the flat
    # oracle's D^(n-1)(m) whose legs are all single generators, legs in order.
    schema, degree = GENERATOR_LEG_SCHEMAS[name]
    ctx = HopfAlgebra(schema(), validate_to=degree)
    for m in ctx.basis_up_to(degree):
        for n in range(1, m.y_degree + 2):
            want = {legs: c for legs, c in ctx.iterated_coproduct_monomial(m, n - 1).terms.items()
                    if all(leg.single_generator() is not None for leg in legs)}
            got = ctx.plus_iterated_monomial(m, n)
            assert (got.rank, got.terms) == (n, want), (str(m), n)


def test_coassociativity_on_basis(ladder):
    for m in ladder.basis_up_to(5):
        h = ladder.monomial_element(m)
        left = ladder.coproduct(h).apply_to_leg(
            0, ladder.coproduct_monomial, 1
        )
        right = ladder.coproduct(h).apply_to_leg(
            1, ladder.coproduct_monomial, 1
        )
        assert left == right == ladder.iterated_coproduct_monomial(m, 2)


def test_antipode_examples(ladder):
    m1, m2 = t(ladder, 1), t(ladder, 2)
    assert ladder.antipode(ladder.unit_element()) == ladder.unit_element()
    # primitive generators flip sign
    assert ladder.antipode_monomial(m1) == Element.from_terms([(m1, Fraction(-1))])
    # one recursion step by hand: S t2 = -t2 + t1^2
    assert ladder.antipode_monomial(m2) == Element.from_terms(
        [(m2, Fraction(-1)), (t(ladder, 1, 2), Fraction(1))]
    )
    assert ladder.antipode_left_monomial(m2) == ladder.antipode_monomial(m2)


def test_antipode_left_equals_right_to_degree_6(ladder):
    for m in ladder.basis_up_to(6):
        assert ladder.antipode_monomial(m) == ladder.antipode_left_monomial(m)


def test_ladder_antipode_composition_oracle(ladder):
    # Independent oracle: on the ladder generators the antipode expands as
    # sum over compositions (a1,...,ak) of n of (-1)^k t_a1 ... t_ak
    # (unfold the recursion on paper; each step picks off a first part).
    for n in range(1, 7):
        expected = Element.zero()
        for comp in _compositions(n):
            m = Monomial.from_powers(
                (ladder.schema.generator(a), 1) for a in comp
            )
            sign = Fraction(-1) if len(comp) % 2 else Fraction(1)
            expected = expected + Element({m: sign})
        assert ladder.antipode_monomial(t(ladder, n)) == expected


# Against the cancellation-free antipodes of ``closed_forms``.


def factors(element, name):
    """The terms of ``element`` in the closed forms' shape: each monomial as
    the sorted tuple of ``name(g)`` over its factors g, with repeats."""
    return {tuple(sorted(name(g) for g, e in m.powers for _ in range(e))): c for m, c in element.terms.items()}


def test_ladder_antipode_matches_the_composition_formula_to_degree_12(ladder):
    for n in range(1, 13):
        got = factors(ladder.antipode_monomial(t(ladder, n)), lambda g: g.degree)
        assert got == ladder_antipode_closed_form(n), n


def test_tree_antipode_matches_the_forest_formula_on_every_tree_to_8_vertices():
    from perfbench.oracles import trees_up_to, tree_encoding

    trees = HopfAlgebra(rooted_tree_schema(8))
    everything = trees_up_to(8)
    assert len(everything) == 200
    for tree in everything:
        g = trees.schema.generator_by_name(tree_encoding(tree))
        assert factors(trees.antipode_monomial(Monomial.of(g)), lambda h: h.name) == forest_formula(tree), g.name


def test_antipode_is_involutive(ladder):
    # S^2 = id on commutative Hopf algebras; check both schemas.
    for m in ladder.basis_up_to(5):
        assert ladder.antipode(ladder.antipode_monomial(m)) == ladder.monomial_element(m)
    trees = HopfAlgebra(rooted_tree_schema(4))
    for m in trees.basis_up_to(4):
        assert trees.antipode(trees.antipode_monomial(m)) == trees.monomial_element(m)


def test_tree_antipode_three_chain():
    # By hand: S(chain3) = -chain3 + 2 dot*chain2 - dot^3.
    trees = HopfAlgebra(rooted_tree_schema(3))
    dot = trees.schema.generator_by_name("[]")
    ell2 = trees.schema.generator_by_name("[[]]")
    ell3 = trees.schema.generator_by_name("[[[]]]")
    got = trees.antipode_monomial(Monomial.of(ell3))
    expected = Element.from_terms(
        [
            (Monomial.of(ell3), Fraction(-1)),
            (Monomial.from_powers([(dot, 1), (ell2, 1)]), Fraction(2)),
            (Monomial.of(dot, 3), Fraction(-1)),
        ],
    )
    assert got == expected


def test_antipode_convolution_identity(ladder):
    # m(id (x) S) D = unit * counit = m(S (x) id) D on the basis.
    for m in ladder.basis_up_to(6):
        h = ladder.monomial_element(m)
        expected = ladder.unit_element().scale(ladder.counit(h))
        left = Element.zero()
        right = Element.zero()
        for (a, b), c in ladder.coproduct(h).terms.items():
            left = left + (ladder.monomial_element(a) * ladder.antipode_monomial(b)).scale(c)
            right = right + (ladder.antipode_monomial(a) * ladder.monomial_element(b)).scale(c)
        assert left == expected
        assert right == expected


def test_grading_operator(ladder):
    assert ladder.apply_Y(ladder.unit_element()).is_zero
    m = t(ladder, 1) * t(ladder, 2)
    assert ladder.apply_Y(ladder.monomial_element(m)) == Element.from_terms(
        [(m, Fraction(3))]
    )


def test_Y_commutes_with_antipode(ladder):
    # By hand: Y(S t2) = S(Y t2) = -2 t2 + 2 t1^2.
    m2 = t(ladder, 2)
    h = ladder.monomial_element(m2)
    lhs = ladder.apply_Y(ladder.antipode(h))
    rhs = ladder.antipode(ladder.apply_Y(h))
    expected = Element.from_terms(
        [(m2, Fraction(-2)), (t(ladder, 1, 2), Fraction(2))]
    )
    assert lhs == rhs == expected


def test_theta_is_algebra_map(ladder):
    ring = EPS_RING
    z = ring.monomial(1, trunc=4)
    a = ladder.monomial_element(t(ladder, 1))
    b = ladder.monomial_element(t(ladder, 2))
    factors = theta_factors(ring, z, 3)
    lhs = ladder.apply_theta(a * b, factors, ring)
    (ka, va), = ladder.apply_theta(a, factors, ring).items()
    (kb, vb), = ladder.apply_theta(b, factors, ring).items()
    assert lhs.keys() == {ka * kb} and ring.eq(lhs[ka * kb], ring.mul(va, vb))
    # theta_z scales degree-n pieces by exp(n z)
    assert ring.eq(lhs[t(ladder, 1) * t(ladder, 2)], ring.exp(ring.scale(Fraction(3), z)))


def test_theta_commutes_with_coproduct(ladder):
    ring = EPS_RING
    z = ring.monomial(1, trunc=4)
    for m in ladder.basis_up_to(4):
        h = ladder.monomial_element(m)
        lhs = {
            key: ring.mul(
                ring.from_rational(c),
                ring.mul(
                    ring.exp(ring.scale(Fraction(key[0].y_degree), z)),
                    ring.exp(ring.scale(Fraction(key[1].y_degree), z)),
                ),
            )
            for key, c in ladder.coproduct(h).terms.items()
        }
        rhs = {}
        for mm, c in ladder.apply_theta(h, theta_factors(ring, z, 4), ring).items():
            for key, q in ladder.coproduct_monomial(mm).terms.items():
                v = ring.scale(q, c)
                rhs[key] = ring.add(rhs[key], v) if key in rhs else v
        rhs = {k: v for k, v in rhs.items() if not ring.is_zero(v)}
        assert lhs.keys() == rhs.keys() and all(ring.eq(v, rhs[k]) for k, v in lhs.items())


def test_linear_maps_build_each_sum_in_one_pass(ladder, monkeypatch):
    def forbidden(self, other):
        raise AssertionError("a linear combination must be summed in one pass, not with +")

    monkeypatch.setattr(Element, "__add__", forbidden)
    monkeypatch.setattr(TensorElement, "__add__", forbidden)
    t1 = t(ladder, 1)
    # h = t1^2 - 2 t2: the t1 (x) t1 terms of D(t1^2) and -2 D(t2) cancel
    h = Element.from_terms([(t(ladder, 1, 2), 1), (t(ladder, 2), -2)])
    assert (t1, t1) in ladder.coproduct_monomial(t(ladder, 2)).terms
    zring = EPS_RING
    factors = theta_factors(zring, zring.monomial(1, trunc=4), 2)
    cases = [
        (ladder.coproduct(h).terms, lambda m: ladder.coproduct_monomial(m).terms, QQ, QQ.mul),
        (ladder.antipode(h).terms, lambda m: ladder.antipode_monomial(m).terms, QQ, QQ.mul),
        (ladder.apply_theta(h, factors, zring), lambda m: {m: factors[m.y_degree]}, zring, zring.scale),
    ]
    for got, per_monomial, ring, scale in cases:
        assert not any(ring.is_zero(c) for c in got.values())
        expected = {}
        for m, c in h.terms.items():
            for key, v in per_monomial(m).items():
                expected[key] = ring.add(expected[key], scale(c, v)) if key in expected else scale(c, v)
        assert got.keys() == {k for k, v in expected.items() if not ring.is_zero(v)}
        assert all(ring.eq(c, expected[k]) for k, c in got.items())
    assert (t1, t1) not in cases[0][0]


@pytest.mark.parametrize("schema, degree", [(ladder_schema, 6), (lambda: rooted_tree_schema(5), 5)],
                         ids=["ladder-6", "trees-5"])
def test_verify_builds_each_theta_factor_once(monkeypatch, schema, degree):
    calls = []
    original = LaurentRing.exp

    def counted(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(LaurentRing, "exp", counted)
    assert verify_axioms(HopfAlgebra(schema(), validate_to=0), degree).passed
    assert 0 < len(calls) <= degree + 1


@pytest.mark.parametrize("schema, degree", [(ladder_schema, 6), (lambda: rooted_tree_schema(5), 5)],
                         ids=["ladder-6", "trees-5"])
def test_the_theta_checks_run_in_integers(monkeypatch, schema, degree):
    # The formal variable of the theta checks is scaled so that every
    # coefficient of every factor exp(n z) is an int, not a Fraction.
    from hopfalg import axioms

    built = []

    def recorded(*args):
        built.append(theta_factors(*args))
        return built[-1]

    monkeypatch.setattr(axioms, "theta_factors", recorded)
    assert verify_axioms(HopfAlgebra(schema(), validate_to=0), degree).passed
    factors, = built
    assert len(factors) == degree + 1
    assert all(type(c) is int for factor in factors for _, c in factor.coeffs)


def test_trees_antipode_and_validation():
    trees = HopfAlgebra(rooted_tree_schema(4))
    schema = trees.schema
    leaf = schema.generator_by_name("[]")
    chain2 = schema.generator_by_name("[[]]")
    s = trees.antipode_monomial(Monomial.of(chain2))
    expected = Element.from_terms(
        [(Monomial.of(chain2), Fraction(-1)), (Monomial.of(leaf, 2), Fraction(1))],
    )
    assert s == expected


def test_corrupted_schema_rejected():
    from hopfalg.hopf import ReducedTerm, TableSchema
    from hopfalg.algebra import Generator

    x1 = Generator(1, "x1")
    x2 = Generator(2, "x2")
    bad = TableSchema(
        name="bad-graded",
        generators=[x1, x2],
        reduced={x2: (ReducedTerm(Monomial.of(x1, 2), x1, Fraction(1)),)},
    )
    with pytest.raises(SchemaError):
        HopfAlgebra(bad)


def test_verify_records_a_broken_structure_as_its_only_check():
    from hopfalg.algebra import Generator
    from hopfalg.axioms import CheckResult
    from hopfalg.hopf import ReducedTerm, TableSchema

    # D x2 holds x1 (x) x2, of degree 3: not graded.  The structure check
    # records the SchemaError and the run stops there, without raising.
    x1, x2 = Generator(1, "x1"), Generator(2, "x2")
    bad = TableSchema("bad-graded", [x1, x2], {x2: (ReducedTerm(Monomial.of(x1), x2, 1),)})
    report = verify_axioms(HopfAlgebra(bad, validate_to=0), 2)
    assert report.checks == [CheckResult(
        "schema-structure", False, "reduced coproduct of 'x2' is not graded: left degree 1 + right degree 2 != 2",
        "right legs are generators, graded, progressive on generators")]
    assert not report.passed


def mutated(schema, name, index):
    """``schema`` with the coefficient of one reduced term of ``name`` raised by 1."""
    from hopfalg.hopf import TableSchema

    generators = schema.generators_up_to(schema.max_degree)
    reduced = {g: schema.reduced_terms(g) for g in generators}
    g = schema.generator_by_name(name)
    terms = list(reduced[g])
    terms[index] = terms[index]._replace(coeff=terms[index].coeff + 1)
    reduced[g] = tuple(terms)
    return TableSchema(schema.name, generators, reduced, schema.complete)


@pytest.mark.parametrize("schema, name, index, witness", [
    # D([[]]) = [[]] (x) 1 + 1 (x) [[]] + c [] (x) [] is coassociative for
    # every c, so the first generator that fails reads D([[]]) on a leg.
    (lambda: rooted_tree_schema(6), "[[]]", 0, "[[][]]"),
    (lambda: rooted_tree_schema(6), "[[[]][]]", 0, "[[[]][]]"),
    (lambda: rooted_tree_schema(6), "[[][][][][]]", 2, "[[][][][][]]"),
    (lambda: schema_from_dict(binomial_schema(6), name="binomial"), "x4", 1, "x4"),
    (lambda: schema_from_dict(binomial_schema(6), name="binomial"), "x6", 4, "x6"),
], ids=["trees-two-vertices", "trees-four-vertices", "trees-six-vertices", "binomial-x4", "binomial-x6"])
def test_a_one_coefficient_mutation_is_rejected_at_the_first_failing_generator(schema, name, index, witness):
    with pytest.raises(SchemaError) as exc:
        HopfAlgebra(mutated(schema(), name, index))
    assert str(exc.value) == f"coproduct of {witness!r} is not coassociative: (D(x)id)D and (id(x)D)D disagree"


def test_building_a_context_never_reaches_the_iterated_coproduct(monkeypatch):
    def forbidden(*args):
        raise AssertionError("schema validation must not fill the iterated memo")

    monkeypatch.setattr(HopfAlgebra, "iterated_coproduct_monomial", forbidden)
    HopfAlgebra(ladder_schema())
    HopfAlgebra(rooted_tree_schema(6))


@pytest.mark.parametrize("schema, degree", [(ladder_schema, 8), (lambda: rooted_tree_schema(6), 6)],
                         ids=["ladder-8", "trees-6"])
def test_reduced_coproduct_monomial_matches_the_element_form(schema, degree):
    ctx = HopfAlgebra(schema())
    for m in ctx.basis_up_to(degree):
        if m.is_unit:
            with pytest.raises(DomainError):
                ctx.reduced_coproduct_monomial(m)
        else:
            units = TensorElement(2, {(m, Monomial.unit()): 1, (Monomial.unit(), m): 1})
            assert ctx.reduced_coproduct_monomial(m) == ctx.coproduct_monomial(m) - units


@pytest.mark.parametrize("schema, degree", [(ladder_schema, 8), (lambda: rooted_tree_schema(7), 7)],
                         ids=["ladder-8", "trees-7"])
def test_antipode_fill_builds_one_dict_and_matches_the_left_recursion(monkeypatch, schema, degree):
    ctx = HopfAlgebra(schema())
    basis = ctx.basis_up_to(degree)

    def forbidden(self, other):
        raise AssertionError("the antipode fill must not go through Element arithmetic")

    with monkeypatch.context() as patch:
        patch.setattr(Element, "__sub__", forbidden)
        patch.setattr(Element, "__mul__", forbidden)
        right = [ctx.antipode_monomial(m) for m in basis]
    for m, s in zip(basis, right):
        assert s == ctx.antipode_left_monomial(m)


def test_fills_are_iterative_and_match_the_left_recursion():
    # Under a recursion limit a few dozen frames above the caller: D(t1^300)
    # is a chain of 300 products, and asking for the top monomials first makes
    # the antipode fill every right leg below them from its own stack.
    ladder = HopfAlgebra(ladder_schema(), validate_to=2)
    trees = HopfAlgebra(rooted_tree_schema(7))
    t1 = ladder.schema.generator(1)
    power = Monomial.of(t1, 300)
    tops = [(ladder, Monomial.of(ladder.schema.generator(18)))]
    tops += [(trees, m) for m in reversed(trees.basis_up_to(7))]
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 30)
    try:
        d = ladder.coproduct_monomial(power)
        s = ladder.antipode_monomial(power)
        right = [ctx.antipode_monomial(m) for ctx, m in tops]
    finally:
        sys.setrecursionlimit(limit)
    assert len(d.terms) == 301
    assert d.terms[Monomial.of(t1, 100), Monomial.of(t1, 200)] == comb(300, 100)
    assert s.terms == {power: 1}
    for (ctx, m), value in zip(tops, right):
        assert value == ctx.antipode_left_monomial(m)


@pytest.mark.parametrize("schema, degree, steps", [(ladder_schema, 8, 66), (lambda: rooted_tree_schema(6), 6, 84)],
                         ids=["ladder-8", "trees-6"])
def test_the_coproduct_fill_takes_one_step_per_monomial_it_adds(schema, degree, steps, monkeypatch):
    # Asked top monomial first, the fill walks each cofactor chain once: one
    # D(g) per D(m) it adds, never a step redone.  Each D, terms in order, is
    # the one a fill in basis order builds.  D(1) takes no step, so it is in
    # the memo before counting starts.
    fresh = HopfAlgebra(schema(), validate_to=0)
    ctx = HopfAlgebra(schema(), validate_to=0)
    basis = ctx.basis_up_to(degree)
    ctx.coproduct_monomial(Monomial.unit())
    before = len(ctx._coproduct)
    calls = []
    generator = HopfAlgebra.coproduct_generator
    monkeypatch.setattr(HopfAlgebra, "coproduct_generator", lambda self, g: calls.append(g) or generator(self, g))
    for m in reversed(basis):
        ctx.coproduct_monomial(m)
    assert len(calls) == len(ctx._coproduct) - before == steps
    for m in basis:
        assert list(ctx.coproduct_terms(m)) == list(fresh.coproduct_terms(m)), str(m)


def test_the_right_antipode_fill_of_t14_is_the_left_antipode():
    ctx = HopfAlgebra(ladder_schema(), validate_to=2)
    s = ctx.antipode_monomial(t(ctx, 14))
    assert len(s.terms) == 135 and s == ctx.antipode_left_monomial(t(ctx, 14))


def partitions(n):
    """p(0), ..., p(n)."""
    p = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            p[k] += p[k - part]
    return p


def test_the_antipode_price_bounds_the_memo_fill():
    # Each element in a fresh context: the bound is at least the terms the
    # right antipode memo and the coproduct memo hold once S of it is filled.
    ladder = ladder_schema()
    gens = [Monomial.of(ladder.generator(n)) for n in range(1, 21)]
    g = ladder.generator
    products = [Monomial.of(g(1), 9), Monomial.from_powers([(g(1), 1), (g(3), 2)]),
                Monomial.from_powers([(g(2), 2), (g(5), 1), (g(7), 1)])]
    trees = rooted_tree_schema(6)
    forests = HopfAlgebra(trees).basis_up_to(6)
    cases = [(ladder, m) for m in gens + products] + [(trees, m) for m in forests]
    for schema, m in cases:
        ctx = HopfAlgebra(schema, validate_to=0)
        h = ctx.monomial_element(m)
        bound = antipode_term_bound(ctx, h)
        ctx.antipode(h)
        assert sum(len(s.terms) for s in ctx._antipode_r.values()) <= bound, str(m)
        assert sum(len(d.terms) for d in ctx._coproduct.values()) <= bound, str(m)
    # On the ladder S(t_n) fills S(t_1), ..., S(t_n), of p(k) terms each, and
    # D(t_1), ..., D(t_n), of k + 1 terms each; the bound counts them, S(1)
    # and D(1), and is the larger memo: t36 is inside MAX_COPRODUCT_TERMS, t37 is not.
    ctx = HopfAlgebra(ladder, validate_to=0)
    p = partitions(37)
    for n in (1, 20, 36, 37):
        bound = max(sum(p[:n + 1]), 1 + sum(k + 1 for k in range(1, n + 1)))
        assert antipode_term_bound(ctx, ctx.monomial_element(Monomial.of(ladder.generator(n)))) == bound
    assert sum(p[:37]) <= 100_000 < sum(p[:38])
    assert antipode_term_bound(ctx, Element.zero()) == 0


# The ladder to degree 4 in the basis x1 = t1, y = t2 / 2, z = t3, w = t4: an
# isomorphic Hopf algebra whose structure constants are 1/2, 1, 2 and 4.
HALF_LADDER = {
    "generators": [{"name": "x1", "degree": 1}, {"name": "y", "degree": 2},
                   {"name": "z", "degree": 3}, {"name": "w", "degree": 4}],
    "reducedCoproduct": {
        "y": [{"left": [["x1", 1]], "right": "x1", "coeff": "1/2"}],
        "z": [{"left": [["x1", 1]], "right": "y", "coeff": "2"},
              {"left": [["y", 1]], "right": "x1", "coeff": "2"}],
        "w": [{"left": [["x1", 1]], "right": "z"}, {"left": [["y", 1]], "right": "y", "coeff": "4"},
              {"left": [["z", 1]], "right": "x1"}],
    },
}


@pytest.mark.parametrize("schema, degree", [(ladder_schema, 8), (lambda: rooted_tree_schema(6), 6),
                                            (lambda: schema_from_dict(binomial_schema(7), name="binomial"), 7)],
                         ids=["ladder-8", "trees-6", "binomial-7"])
def test_integral_schemas_fill_their_memos_in_ints(schema, degree):
    ctx = HopfAlgebra(schema())
    basis = ctx.basis_up_to(degree)
    for m in basis:
        ctx.antipode_monomial(m)
        if m.y_degree <= 5:
            ctx.iterated_coproduct_monomial(m, 2)
    memos = [ctx._coproduct, ctx._antipode_r, ctx._iterated]
    assert all(len(memo) for memo in memos) and len(ctx._coproduct) == len(basis)
    for memo in memos:
        for value in memo.values():
            assert all(type(c) is int for c in value.terms.values())


@pytest.mark.parametrize("schema", [ladder_schema, lambda: rooted_tree_schema(4)], ids=["ladder", "trees-4"])
def test_integral_inputs_stay_ints_on_every_exact_path(schema):
    # A Fraction(...) wrapper on any of these paths turns the integer
    # arithmetic under it back into Python-level Fraction calls.
    from hopfalg.duals import compose_antipode, convolve_tables, grading_transpose
    from hopfalg.serialize import functional_from_json

    def ints(values):
        return all(type(c) is int for c in values)

    ctx = HopfAlgebra(schema())
    basis = ctx.basis_up_to(4)
    for m in basis:
        assert ints(ctx.apply_Y(ctx.antipode(ctx.monomial_element(m))).terms.values())
    assert all(ints(memo.terms.values()) for memo in ctx._coproduct.values())
    assert all(ints(memo.terms.values()) for memo in ctx._antipode_r.values())
    gens = ctx.schema.generators_up_to(4)
    tables = []
    for kind, values in (("character", {g.name: str(3 - 2 * i) for i, g in enumerate(gens)}),
                         ("infinitesimal", {g.name: str(i - 4) for i, g in enumerate(gens)})):
        f = functional_from_json(ctx, {"kind": kind, "ring": "rational", "values": values})
        assert ints(f.gen_values.values())
        table = f.tabulate(basis)
        # A character's value on the unit is ring.one(), the shared constant.
        assert ints(v for m, v in table.items() if not m.is_unit)
        tables.append(table)
    chi, z = tables
    for a, b in ((chi, chi), (chi, z), (z, chi)):
        assert ints(convolve_tables(ctx, QQ, a, b, basis).values())
    assert ints(compose_antipode(ctx, QQ, chi, basis).values())
    assert ints(grading_transpose(QQ, z).values())


def test_a_rational_schema_stays_exact_and_passes_verify(tmp_path):
    from hopfalg import cli
    from hopfalg.duals import Character, ConvolutionProduct, TableFunctional, compose_antipode, convolve_tables

    schema = schema_from_dict(HALF_LADDER, name="half-ladder")
    assert verify_axioms(HopfAlgebra(schema, validate_to=0), 4).passed
    path = tmp_path / "half.json"
    path.write_text(json.dumps(HALF_LADDER))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "4", "--seed", "5"]) == 0

    ctx = HopfAlgebra(schema)
    basis = ctx.basis_up_to(4)
    y = ctx.schema.generator_by_name("y")
    x1 = Monomial.of(ctx.schema.generator_by_name("x1"))
    assert ctx.coproduct_monomial(Monomial.of(y)).terms[x1, x1] == Fraction(1, 2)
    for m in basis:
        assert ctx.antipode_monomial(m) == ctx.antipode_left_monomial(m)
    # The memos against the flat iterated-coproduct oracle: chi o S is the
    # convolution inverse of chi, and the binary kernel is the flat product.
    gens = ctx.schema.generators_up_to(4)
    chi = Character(ctx, QQ, {g: Fraction(2 * i + 1, i + 3) for i, g in enumerate(gens)})
    psi = Character(ctx, QQ, {g: Fraction(-i, 5) for i, g in enumerate(gens)})
    table, other = chi.tabulate(basis), psi.tabulate(basis)
    inverse = TableFunctional(ctx, QQ, compose_antipode(ctx, QQ, table, basis))
    binary = convolve_tables(ctx, QQ, table, other, basis)
    for m in basis:
        assert ConvolutionProduct([chi, inverse]).value_on(m) == (1 if m.is_unit else 0)
        assert ConvolutionProduct([chi, psi]).value_on(m) == binary.get(m, 0)


def test_only_hopf_knows_how_the_coproduct_memo_is_stored():
    """Every other module reads D(m) through ``coproduct_terms`` or
    ``reduced_coproduct_terms``: none names ``coproduct_monomial``,
    ``reduced_coproduct_monomial`` or the memo ``_coproduct``, so a new layout
    of the memo changes ``hopf`` alone."""
    memo_names = {"coproduct_monomial", "reduced_coproduct_monomial", "_coproduct"}
    package = Path(hopfalg.__file__).parent
    found = sorted(
        f"{path.stem}:{node.lineno} {node.attr}"
        for path in package.glob("*.py") if path.stem != "hopf"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in memo_names
    )
    assert (package / "duals.py").exists()
    assert found == []
