"""Element and tensor arithmetic over the symmetric algebra."""

import ast
import functools
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfalg
from hopfalg.algebra import (
    Element,
    Generator,
    Monomial,
    TensorElement,
    cofactor_chain,
)
from hopfalg.errors import RankMismatchError
from hopfalg.instances import ladder_schema
from hopfalg.trees import rooted_tree_schema

T1 = Generator(1, "t1")
T2 = Generator(2, "t2")
T3 = Generator(3, "t3")


def elem(*pairs):
    return Element.from_terms([(m, Fraction(c)) for m, c in pairs])


def gen_elem(g, c=1):
    return elem((Monomial.of(g), c))


def tensor_unit(rank):
    return TensorElement(rank, {(Monomial.unit(),) * rank: 1})


def test_monomial_canonical_order():
    m = Monomial.from_powers([(T3, 1), (T1, 2)])
    assert [g.name for g, _ in m.powers] == ["t1", "t3"]
    assert m.y_degree == 2 * 1 + 3
    assert m.poly_degree == 3
    assert str(m) == "t1^2*t3"


def test_monomial_identity_ignores_the_cached_hash():
    a = Monomial.from_powers([(T3, 1), (T1, 2), (T2, 1)])
    b = Monomial.from_powers([(T2, 1), (T1, 1), (T3, 1), (T1, 1)])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert sorted([T3, T1, T2]) == [T1, T2, T3]
    monomials = [Monomial.of(T2), a, Monomial.of(T1, 2), Monomial.unit()]
    assert [str(m) for m in sorted(monomials, key=Monomial.sort_key)] == ["1", "t1^2", "t2", "t1^2*t2*t3"]
    assert repr(T1) == "Generator(degree=1, name='t1')"
    assert repr(Monomial.of(T1, 2)) == "Monomial(powers=((Generator(degree=1, name='t1'), 2),))"
    assert str(T1) == repr(T1) and str(Monomial.unit()) == "1"
    # There is no cached hash to go stale: equal values are one object, and
    # that object cannot be changed.
    g = Generator(1, "t1")
    assert g is T1
    with pytest.raises(AttributeError):
        g.degree = 2
    assert g == T1 and not g < T1 and not T1 < g
    m = Monomial.of(T1, 2)
    assert m is Monomial.from_powers([(T1, 1), (T1, 1)])
    with pytest.raises(AttributeError):
        m.powers = ()
    assert m == Monomial.of(T1, 2)


@functools.lru_cache(maxsize=None)
def _basis(name, degree):
    from hopfalg.hopf import HopfAlgebra

    schema = ladder_schema() if name == "ladder" else rooted_tree_schema(degree)
    return HopfAlgebra(schema, validate_to=degree).basis_up_to(degree)


def _copied(m):
    """The same monomial over fresh, equal generator objects."""
    return Monomial(tuple((Generator(g.degree, g.name), e) for g, e in m.powers))


@pytest.mark.parametrize("name, degree", [("ladder", 8), ("trees", 6)], ids=["ladder-8", "trees-6"])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_monomial_product_is_the_canonical_merge(name, degree, data):
    monomials = _basis(name, degree)
    a = data.draw(st.sampled_from(monomials))
    b = data.draw(st.sampled_from(monomials))
    for x, y in ((a, b), (b, a), (a, _copied(b)), (Monomial.unit(), b), (a, Monomial.unit())):
        got, want = x * y, Monomial.from_powers(x.powers + y.powers)
        assert got == want and got.powers == want.powers
        assert hash(got) == hash(want) and str(got) == str(want) and got.sort_key() == want.sort_key()


def test_memoized_monomial_products_are_the_merge_and_commute():
    from hopfalg import algebra

    monomials = _basis("trees", 5)
    for a in monomials:
        for b in monomials:
            got = a * b
            assert got is Monomial.from_powers(a.powers + b.powers)
            assert got is b * a and got is a * b
            if not (a.is_unit or b.is_unit):
                assert algebra._PRODUCTS[a][b] is got


def test_symmetric_power():
    t1 = gen_elem(T1)
    assert t1 * t1 == elem((Monomial.of(T1, 2), 1))


def test_unit_law():
    h = elem((Monomial.of(T2), 5), (Monomial.of(T1, 3), -2))
    assert Element.unit() * h == h


def test_distributivity():
    t1, t2 = gen_elem(T1), gen_elem(T2)
    assert (t1 + t2) * t1 == elem(
        (Monomial.of(T1, 2), 1), (Monomial.from_powers([(T1, 1), (T2, 1)]), 1)
    )


def test_degree_additivity_on_random_products():
    rng = random.Random(7)
    for _ in range(40):
        m1 = Monomial.from_powers([(rng.choice([T1, T2, T3]), rng.randint(1, 3))])
        m2 = Monomial.from_powers([(rng.choice([T1, T2, T3]), rng.randint(1, 3))])
        prod = m1 * m2
        assert prod.y_degree == m1.y_degree + m2.y_degree
        assert prod.poly_degree == m1.poly_degree + m2.poly_degree


def test_tensor_componentwise_product():
    one = Monomial.unit()
    m1 = Monomial.of(T1)
    u = TensorElement.from_terms(2, [(((m1, one)), Fraction(1))])
    v = TensorElement.from_terms(2, [(((one, m1)), Fraction(1))])
    assert (u * v) == TensorElement.from_terms(2, [(((m1, m1)), Fraction(1))])
    assert tensor_unit(2) * u == u


def test_tensor_square_binomial():
    # (t1 (x) 1 + 1 (x) t1)^2 = t1^2 (x) 1 + 2 t1 (x) t1 + 1 (x) t1^2,
    # expanded by hand using commuting legs.
    one = Monomial.unit()
    m1 = Monomial.of(T1)
    m2 = Monomial.of(T1, 2)
    u = TensorElement.from_terms(2, [((m1, one), Fraction(1)), ((one, m1), Fraction(1))])
    sq = u * u
    assert sq == TensorElement.from_terms(
        2,
        [((m2, one), Fraction(1)), ((m1, m1), Fraction(2)), ((one, m2), Fraction(1))],
    )


def test_rank_mismatch_rejected():
    u = tensor_unit(2)
    v = tensor_unit(3)
    with pytest.raises(RankMismatchError):
        u * v
    for op in (operator.add, operator.sub):
        with pytest.raises(RankMismatchError, match="^rank mismatch: 2 vs 3$"):
            op(u, v)
    with pytest.raises(RankMismatchError, match=r"^expected rank-2 keys, got \(1,\)$"):
        TensorElement.from_terms(2, [((Monomial.unit(), Monomial.unit()), 1), ((1,), 1), ((2,), 0)])


# -- the arithmetic Element and TensorElement share, against a dict over Q ------

POOL = (Monomial.unit(), Monomial.of(T1), Monomial.of(T2), Monomial.of(T1, 2))
KINDS = (None, 1, 2, 3)  # None: Element; n: rank-n TensorElement
VALUES = st.one_of(st.integers(-2, 2), st.fractions(-3, 3, max_denominator=4))


def build(kind, pairs):
    return Element.from_terms(pairs) if kind is None else TensorElement.from_terms(kind, pairs)


def summed(pairs):
    acc = {}
    for k, c in pairs:
        acc[k] = acc.get(k, 0) + c
    return {k: c for k, c in acc.items() if c}


@pytest.mark.parametrize("kind", KINDS, ids=["element", "rank-1", "rank-2", "rank-3"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_sum_arithmetic_matches_a_dict_oracle(kind, data):
    key = st.sampled_from(POOL) if kind is None else st.tuples(*[st.sampled_from(POOL)] * kind)
    ps = data.draw(st.lists(st.tuples(key, VALUES), max_size=8))  # small pool: repeated keys
    qs = data.draw(st.lists(st.tuples(key, VALUES), max_size=8))
    c = data.draw(VALUES)
    a, b = build(kind, ps), build(kind, qs)
    neg = [(k, -v) for k, v in qs]
    assert a.terms == summed(ps) and a.is_zero == (not summed(ps))
    assert (a + b).terms == summed(ps + qs)
    assert (a - b).terms == summed(ps + neg) and (-b).terms == summed(neg)
    assert (a + -a).is_zero and (a - a).terms == {} and a - a == build(kind, [])
    assert (b + build(kind, neg)).is_zero  # a sum that cancels term by term
    assert a.scale(c).terms == summed((k, c * v) for k, v in ps)
    assert a.scale(0).is_zero
    assert (a == b) == (summed(ps) == summed(qs))
    # equal terms of another rank or of the other class are never equal
    for other in KINDS:
        if other != kind:
            assert build(other, []) != build(kind, [])
    with pytest.raises(TypeError):
        hash(a)


def test_the_cofactor_chain_runs_from_the_first_known_cofactor_up():
    one, t3 = Monomial.unit(), Monomial.of(T3)
    t1t3 = Monomial.from_powers([(T1, 1), (T3, 1)])
    top = Monomial.from_powers([(T1, 2), (T3, 1)])
    assert cofactor_chain(top, {one: 1}) == [(t3, T3, one), (t1t3, T1, t3), (top, T1, t1t3)]
    assert cofactor_chain(top, {one: 1, t1t3: 1}) == [(top, T1, t1t3)]
    assert cofactor_chain(top, {top: 1}) == []


def test_only_algebra_splits_a_monomial():
    """No module but ``algebra`` takes a monomial's first factor or the rest
    after it (``.powers[0]``, ``.powers[1:]``): every fill that extends a map
    from the first generator walks ``cofactor_chain``."""
    def splits(node):
        if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "powers"):
            return False
        index = node.slice
        if isinstance(index, ast.Slice):
            return (isinstance(index.lower, ast.Constant) and index.lower.value == 1
                    and index.upper is None and index.step is None)
        return isinstance(index, ast.Constant) and index.value == 0

    package = Path(hopfalg.__file__).parent
    found = sorted(
        f"{path.stem}:{node.lineno}"
        for path in package.glob("*.py") if path.stem != "algebra"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if splits(node)
    )
    assert (package / "hopf.py").exists()
    assert found == []
