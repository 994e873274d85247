"""Coproduct, counit, antipode and grading on the built-in schemas.

Expected values marked "by hand" below were derived on paper from one or two
steps of the defining recursions and frozen here.
"""

from fractions import Fraction

import pytest

from hopfalg.algebra import Element, Monomial, TensorElement
from hopfalg.errors import DomainError, SchemaError
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema, rooted_tree_schema
from hopfalg.rings import QQ, LaurentRing


@pytest.fixture(scope="module")
def ladder():
    return HopfAlgebra(ladder_schema(), validate_to=6)


def t(ladder, n, exp=1):
    return Monomial.of(ladder.schema.generator(n), exp)


def tensor(*pairs):
    return TensorElement.from_terms(QQ, 2, [(k, Fraction(c)) for k, c in pairs])


def test_coproduct_of_unit(ladder):
    assert ladder.coproduct(ladder.unit_element()) == TensorElement.unit(QQ, 2)


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
        QQ,
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
        ladder.reduced_coproduct(ladder.unit_element())


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
    h = ladder.monomial_element(m1)
    assert ladder.iterated_coproduct(h, 0) == TensorElement(
        QQ, 1, {(m1,): Fraction(1)}
    )
    d2 = ladder.iterated_coproduct(h, 2)
    assert d2 == TensorElement.from_terms(
        QQ,
        3,
        [
            ((m1, one, one), Fraction(1)),
            ((one, m1, one), Fraction(1)),
            ((one, one, m1), Fraction(1)),
        ],
    )


def test_coassociativity_on_basis(ladder):
    for m in ladder.basis_up_to(5):
        h = ladder.monomial_element(m)
        left = ladder.coproduct(h).apply_to_leg(
            0, ladder.coproduct_monomial, 1
        )
        right = ladder.coproduct(h).apply_to_leg(
            1, ladder.coproduct_monomial, 1
        )
        assert left == right == ladder.iterated_coproduct(h, 2)


def test_antipode_examples(ladder):
    m1, m2 = t(ladder, 1), t(ladder, 2)
    assert ladder.antipode(ladder.unit_element()) == ladder.unit_element()
    # primitive generators flip sign
    assert ladder.antipode_monomial(m1) == Element.from_terms(QQ, [(m1, Fraction(-1))])
    # one recursion step by hand: S t2 = -t2 + t1^2
    assert ladder.antipode_monomial(m2) == Element.from_terms(
        QQ, [(m2, Fraction(-1)), (t(ladder, 1, 2), Fraction(1))]
    )
    assert ladder.antipode_left_monomial(m2) == ladder.antipode_monomial(m2)


def test_antipode_left_equals_right_to_degree_6(ladder):
    for m in ladder.basis_up_to(6):
        assert ladder.antipode_monomial(m) == ladder.antipode_left_monomial(m)


def _compositions(n):
    if n == 0:
        yield ()
        return
    for head in range(1, n + 1):
        for rest in _compositions(n - head):
            yield (head,) + rest


def test_ladder_antipode_composition_oracle(ladder):
    # Independent oracle: on the ladder generators the antipode expands as
    # sum over compositions (a1,...,ak) of n of (-1)^k t_a1 ... t_ak
    # (unfold the recursion on paper; each step picks off a first part).
    for n in range(1, 7):
        expected = Element.zero(QQ)
        for comp in _compositions(n):
            m = Monomial.from_powers(
                (ladder.schema.generator(a), 1) for a in comp
            )
            sign = Fraction(-1) if len(comp) % 2 else Fraction(1)
            expected = expected + Element.of_monomial(QQ, m, sign)
        assert ladder.antipode_monomial(t(ladder, n)) == expected


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
        QQ,
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
        left = Element.zero(QQ)
        right = Element.zero(QQ)
        for (a, b), c in ladder.coproduct(h).terms.items():
            left = left + (ladder.monomial_element(a) * ladder.antipode_monomial(b)).scale(c)
            right = right + (ladder.antipode_monomial(a) * ladder.monomial_element(b)).scale(c)
        assert left == expected
        assert right == expected


def test_grading_operator(ladder):
    assert ladder.apply_Y(ladder.unit_element()).is_zero
    m = t(ladder, 1) * t(ladder, 2)
    assert ladder.apply_Y(ladder.monomial_element(m)) == Element.from_terms(
        QQ, [(m, Fraction(3))]
    )


def test_Y_commutes_with_antipode(ladder):
    # By hand: Y(S t2) = S(Y t2) = -2 t2 + 2 t1^2.
    m2 = t(ladder, 2)
    h = ladder.monomial_element(m2)
    lhs = ladder.apply_Y(ladder.antipode(h))
    rhs = ladder.antipode(ladder.apply_Y(h))
    expected = Element.from_terms(
        QQ, [(m2, Fraction(-2)), (t(ladder, 1, 2), Fraction(2))]
    )
    assert lhs == rhs == expected


def test_theta_is_algebra_map(ladder):
    ring = LaurentRing(QQ, "z")
    z = ring.monomial(1, trunc=4)
    a = ladder.monomial_element(t(ladder, 1))
    b = ladder.monomial_element(t(ladder, 2))
    lhs = ladder.apply_theta(a * b, z, ring)
    rhs = ladder.apply_theta(a, z, ring) * ladder.apply_theta(b, z, ring)
    assert lhs == rhs
    # theta_z scales degree-n pieces by exp(n z)
    coeff = lhs.coefficient(t(ladder, 1) * t(ladder, 2))
    assert ring.eq(coeff, ring.exp(ring.scale(Fraction(3), z)))


def test_theta_commutes_with_coproduct(ladder):
    ring = LaurentRing(QQ, "z")
    z = ring.monomial(1, trunc=4)
    for m in ladder.basis_up_to(4):
        h = ladder.monomial_element(m)
        lhs = ladder.coproduct(h).map_coefficients(
            lambda c: ring.from_rational(c), ring
        )
        lhs = TensorElement.from_terms(
            ring,
            2,
            [
                (
                    key,
                    ring.mul(
                        c,
                        ring.mul(
                            ring.exp(ring.scale(Fraction(key[0].y_degree), z)),
                            ring.exp(ring.scale(Fraction(key[1].y_degree), z)),
                        ),
                    ),
                )
                for key, c in lhs.terms.items()
            ],
        )
        rhs_elem = ladder.apply_theta(h, z, ring)
        rhs = TensorElement.zero(ring, 2)
        for mm, c in rhs_elem.terms.items():
            rhs = rhs + ladder.coproduct_monomial(mm).map_coefficients(
                lambda q, c=c: ring.scale(q, c), ring
            )
        assert lhs == rhs


def test_trees_antipode_and_validation():
    trees = HopfAlgebra(rooted_tree_schema(4))
    schema = trees.schema
    leaf = schema.generator_by_name("[]")
    chain2 = schema.generator_by_name("[[]]")
    s = trees.antipode_monomial(Monomial.of(chain2))
    expected = Element.from_terms(
        QQ,
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


def test_building_a_context_never_reaches_the_iterated_coproduct(monkeypatch):
    def forbidden(*args):
        raise AssertionError("schema validation must not fill the iterated memo")

    monkeypatch.setattr(HopfAlgebra, "iterated_coproduct_monomial", forbidden)
    HopfAlgebra(ladder_schema())
    HopfAlgebra(rooted_tree_schema(6))
