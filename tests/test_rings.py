"""Ring tower tests: exact rationals, polynomials, truncated Laurent series."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfalg.errors import SingularInputError, TruncationError
from hopfalg.exp_integrals import ExpSum
from hopfalg.rings import (
    QQ,
    LaurentRing,
    LaurentSeries,
    PolynomialRing,
    RationalField,
    Ring,
    format_rational,
    parse_rational,
)

L = LaurentRing(QQ, "eps")
PT = PolynomialRing(QQ, "t")

rationals = st.fractions(max_denominator=40)


def laurent(coeffs, trunc=None):
    return L.make({k: Fraction(v) for k, v in coeffs.items()}, trunc)


@st.composite
def laurent_values(draw, min_exp=-3, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(n):
        k = draw(st.integers(min_value=min_exp, max_value=max_exp))
        coeffs[k] = draw(rationals)
    trunc = draw(st.one_of(st.none(), st.integers(min_value=max_exp, max_value=max_exp + 3)))
    return L.make(coeffs, trunc)


def test_rational_string_round_trip():
    assert parse_rational("-3/2") == Fraction(-3, 2)
    assert parse_rational("7") == Fraction(7)
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(4, 2)) == "2"


def test_polynomial_basics():
    t = PT.variable()
    p = PT.add(PT.mul(t, t), PT.from_rational(Fraction(1)))  # t^2 + 1
    assert PT.coefficient(p, 2) == Fraction(1)
    assert PT.coefficient(p, 1) == Fraction(0)
    assert PT.eq(PT.mul(p, PT.zero()), PT.zero())
    # trailing zeros are stripped
    assert PT.add(t, PT.neg(t)) == ()


@given(a=rationals, b=rationals, c=rationals)
def test_rational_field_laws(a, b, c):
    assert QQ.add(QQ.add(a, b), c) == QQ.add(a, QQ.add(b, c))
    assert QQ.mul(a, QQ.add(b, c)) == QQ.add(QQ.mul(a, b), QQ.mul(a, c))
    assert QQ.mul(a, b) == QQ.mul(b, a)


@settings(max_examples=60)
@given(a=laurent_values(), b=laurent_values(), c=laurent_values())
def test_laurent_ring_laws(a, b, c):
    assert L.eq(L.add(a, b), L.add(b, a))
    assert L.eq(L.mul(a, b), L.mul(b, a))
    assert L.eq(L.add(L.add(a, b), c), L.add(a, L.add(b, c)))
    assert L.eq(L.mul(L.mul(a, b), c), L.mul(a, L.mul(b, c)))
    assert L.eq(L.mul(a, L.add(b, c)), L.add(L.mul(a, b), L.mul(a, c)))
    assert L.eq(L.mul(a, L.one()), a)


@settings(max_examples=60)
@given(a=laurent_values(), b=laurent_values())
def test_laurent_mul_matches_naive_convolution_when_exact(a, b):
    # Oracle: naive convolution of coefficient dicts, valid whenever both
    # inputs are exact Laurent polynomials.
    a = type(a)(a.coeffs, None)
    b = type(b)(b.coeffs, None)
    expect = {}
    for ka, va in a.coeffs:
        for kb, vb in b.coeffs:
            expect[ka + kb] = expect.get(ka + kb, Fraction(0)) + va * vb
    got = L.mul(a, b)
    assert got.trunc is None
    assert got.as_dict() == {k: v for k, v in expect.items() if v != 0}


@settings(max_examples=60)
@given(a=laurent_values(), b=laurent_values())
def test_laurent_mul_truncated_agrees_with_exact_on_sound_window(a, b):
    # With generous truncation orders the truncated product must agree with
    # the exact polynomial product on every coefficient it reports.
    exact = L.mul(type(a)(a.coeffs, None), type(b)(b.coeffs, None))
    got = L.mul(a, b)
    for k, v in exact.coeffs:
        if got.trunc is None or k <= got.trunc:
            assert L.coefficient(got, k) == v
    for k, v in got.coeffs:
        assert exact.as_dict().get(k, Fraction(0)) == v


kernel_entries = st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**6))


@st.composite
def kernel_lists(draw, min_size=1):
    exps = sorted(draw(st.lists(st.integers(min_value=-4, max_value=6), min_size=min_size, max_size=6, unique=True)))
    return [(k, draw(kernel_entries)) for k in exps]


@settings(max_examples=150)
@given(xs=kernel_lists(), ys=kernel_lists(), data=st.data())
def test_rational_convolve_matches_generic_kernel_and_schoolbook(xs, ys, data):
    full = xs[-1][0] + ys[-1][0] + 1
    n = data.draw(st.integers(min_value=xs[0][0] + ys[0][0], max_value=full))
    expect = {}
    for i, x in xs:
        for j, y in ys:
            if i + j < n:
                expect[i + j] = expect.get(i + j, Fraction(0)) + x * y
    expect = {k: c for k, c in expect.items() if c}
    for got in (QQ.convolve([(1, xs, ys)], n), Ring.convolve(QQ, [(1, xs, ys)], n)):
        assert all(type(c) is Fraction and k < n for k, c in got.items())
        assert {k: c for k, c in got.items() if c} == expect



@settings(max_examples=150)
@given(terms=st.lists(st.tuples(kernel_entries, kernel_lists(0), kernel_lists(0)), max_size=4), data=st.data())
def test_rational_kernel_sums_triples_like_the_generic_kernel_and_schoolbook(terms, data):
    full = max((xs[-1][0] + ys[-1][0] + 1 for _, xs, ys in terms if xs and ys), default=0)
    n = data.draw(st.integers(min_value=-8, max_value=full))
    expect = {}
    for c, xs, ys in terms:
        for i, x in xs:
            for j, y in ys:
                if i + j < n:
                    expect[i + j] = expect.get(i + j, Fraction(0)) + c * x * y
    expect = {k: c for k, c in expect.items() if c}
    for got in (QQ.convolve(terms, n), Ring.convolve(QQ, terms, n)):
        assert all(type(c) is Fraction and k < n for k, c in got.items())
        assert {k: c for k, c in got.items() if c} == expect


@given(st.lists(st.tuples(kernel_entries, kernel_entries, kernel_entries), max_size=4))
def test_rational_dot_is_the_exponent_zero_kernel(terms):
    got = QQ.dot(terms)
    assert type(got) is Fraction
    assert got == sum((c * x * y for c, x, y in terms), Fraction(0)) == Ring.dot(QQ, terms)


LT = LaurentRing(PT, "eps")


@st.composite
def laurent_poly_values(draw):
    """Laurent series over Q[t] with their exact 2-d coefficient table."""
    table = {}
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        k = draw(st.integers(min_value=-3, max_value=3))
        for j, c in enumerate(draw(st.lists(rationals, max_size=3))):
            table[(k, j)] = c
    trunc = draw(st.one_of(st.none(), st.integers(min_value=3, max_value=5)))
    polys = {}
    for (k, j), c in table.items():
        polys[k] = PT.add(polys.get(k, PT.zero()), PT.monomial(j, c))
    return LT.make(polys, trunc), {key: c for key, c in table.items() if c}


def as_table(series):
    return {(k, j): c for k, p in series.coeffs for j, c in enumerate(p) if c}


@settings(max_examples=80)
@given(a=laurent_poly_values(), b=laurent_poly_values())
def test_laurent_over_polynomials_mul_matches_naive_convolution(a, b):
    (a, ta), (b, tb) = a, b
    expect = {}
    for (ka, ja), va in ta.items():
        for (kb, jb), vb in tb.items():
            key = (ka + kb, ja + jb)
            expect[key] = expect.get(key, Fraction(0)) + va * vb
    expect = {key: c for key, c in expect.items() if c}
    exact = LT.mul(type(a)(a.coeffs, None), type(b)(b.coeffs, None))
    assert exact.trunc is None
    assert as_table(exact) == expect
    got = LT.mul(a, b)
    sound = {key: c for key, c in expect.items() if got.trunc is None or key[0] <= got.trunc}
    assert as_table(got) == sound



def schoolbook_mul(ring, a, b):
    """a b term by term, sound below the lowest exponent that an unknown
    coefficient of one factor reaches against the other factor."""
    def lowest(x):  # the lowest exponent where x may be nonzero; None for an exact zero
        return min([k for k, _ in x.coeffs[:1]] + ([x.trunc + 1] if x.trunc is not None else []), default=None)

    reach = [x.trunc + 1 + lowest(y) for x, y in ((a, b), (b, a))
             if x.trunc is not None and lowest(y) is not None]
    base, out = ring.base, {}
    for i, x in a.coeffs:
        for j, y in b.coeffs:
            out[i + j] = base.add(out.get(i + j, base.zero()), base.mul(x, y))
    return ring.make(out, min(reach) - 1 if reach else None)


def unfused_dot(ring, terms):
    total = ring.zero()
    for c, a, b in terms:
        total = ring.add(total, ring.scale(c, schoolbook_mul(ring, a, b)))
    return total


scalars = st.one_of(st.just(Fraction(0)), st.just(Fraction(1)), st.fractions(max_denominator=10**6))


@settings(max_examples=150)
@given(terms=st.lists(st.tuples(scalars, laurent_values(), laurent_values()), max_size=4))
def test_laurent_dot_matches_the_unfused_loop(terms):
    got, want = L.dot(terms), unfused_dot(L, terms)
    assert got.coeffs == want.coeffs and got.trunc == want.trunc


@settings(max_examples=80)
@given(terms=st.lists(st.tuples(scalars, laurent_poly_values(), laurent_poly_values()), max_size=3))
def test_laurent_over_polynomials_dot_matches_the_unfused_loop(terms):
    terms = [(c, a, b) for c, (a, _), (b, _) in terms]
    got, want = LT.dot(terms), unfused_dot(LT, terms)
    assert got.coeffs == want.coeffs and got.trunc == want.trunc


def _strip_poly(cs):
    while cs and not cs[-1]:
        cs = cs[:-1]
    return tuple(cs)


poly_entries = st.lists(kernel_entries, max_size=4).map(_strip_poly)


@st.composite
def poly_kernel_lists(draw):
    exps = sorted(draw(st.lists(st.integers(min_value=-4, max_value=6), max_size=5, unique=True)))
    return [(k, draw(poly_entries)) for k in exps]


@settings(max_examples=100)
@given(terms=st.lists(st.tuples(scalars, poly_kernel_lists(), poly_kernel_lists()), max_size=4), data=st.data())
def test_polynomial_kernel_matches_the_generic_kernel_and_a_2d_schoolbook(terms, data):
    full = max((xs[-1][0] + ys[-1][0] + 1 for _, xs, ys in terms if xs and ys), default=0)
    n = data.draw(st.integers(min_value=-8, max_value=full))
    expect = {}
    for c, xs, ys in terms:
        for i, x in xs:
            for j, y in ys:
                for a, xa in enumerate(x):
                    for b, yb in enumerate(y):
                        if i + j < n:
                            key = (i + j, a + b)
                            expect[key] = expect.get(key, Fraction(0)) + c * xa * yb
    expect = {key: c for key, c in expect.items() if c}
    got = PT.convolve(terms, n)
    assert got == Ring.convolve(PT, terms, n)  # same reached exponents, zeros included
    assert all(k < n and (not p or p[-1]) and all(type(v) is Fraction for v in p) for k, p in got.items())
    assert {(k, j): v for k, p in got.items() for j, v in enumerate(p) if v} == expect


PS = PolynomialRing(PT, "s")


@st.composite
def nested_poly_values(draw):
    """A value of Q[t][s] with its exact (s-exponent, t-exponent) table."""
    value = _strip_poly(tuple(draw(st.lists(st.lists(rationals, max_size=3).map(_strip_poly), max_size=3))))
    return value, {(j, k): c for j, p in enumerate(value) for k, c in enumerate(p) if c}


@settings(max_examples=60)
@given(terms=st.lists(st.tuples(scalars, nested_poly_values(), nested_poly_values()), max_size=4))
def test_nested_polynomial_dot_matches_the_unfused_loop(terms):
    got = PS.dot([(c, a, b) for c, (a, _), (b, _) in terms])
    total = PS.zero()
    for c, (a, _), (b, _) in terms:
        product = PS.zero()
        for j, p in enumerate(a):
            for k, q in enumerate(b):
                product = PS.add(product, PS.monomial(j + k, PT.mul(p, q)))
        total = PS.add(total, PS.scale(c, product))
    assert PS.eq(got, total) and got == total
    expect = {}
    for c, (_, ta), (_, tb) in terms:
        for (ja, ka), va in ta.items():
            for (jb, kb), vb in tb.items():
                key = (ja + jb, ka + kb)
                expect[key] = expect.get(key, Fraction(0)) + c * va * vb
    assert {(j, k): v for j, p in enumerate(got) for k, v in enumerate(p) if v} == \
        {key: v for key, v in expect.items() if v}


def test_laurent_over_polynomials_product_makes_no_polynomial_mul_or_add(monkeypatch):
    calls = []

    def forbidden(name):
        def record(self, a, b):
            calls.append(name)
            raise AssertionError(f"PolynomialRing.{name} called")
        return record

    a = LT.make({k: tuple(Fraction(k + j, 3) for j in range(1, 4)) for k in range(-2, 3)}, 4)
    b = LT.make({k: tuple(Fraction(2 * j - k, 7) for j in range(1, 3)) for k in range(-1, 4)}, None)
    with monkeypatch.context() as patch:
        patch.setattr(PolynomialRing, "mul", forbidden("mul"))
        patch.setattr(PolynomialRing, "add", forbidden("add"))
        product = LT.mul(a, b)
        fused = LT.dot([(Fraction(1, 2), a, b), (3, b, b)])
    assert calls == []
    assert product.coeffs == schoolbook_mul(LT, a, b).coeffs
    assert fused.coeffs == unfused_dot(LT, [(Fraction(1, 2), a, b), (3, b, b)]).coeffs


def test_laurent_mul_over_rationals_never_calls_the_field_mul(monkeypatch):
    calls = []
    field_mul = RationalField.mul

    def counting(self, a, b):
        calls.append(1)
        return field_mul(self, a, b)

    monkeypatch.setattr(RationalField, "mul", counting)
    a = laurent({k: Fraction(k + 5, 3) for k in range(-3, 7)})
    b = laurent({k: Fraction(2 * k - 1, 7) for k in range(-2, 8)})
    assert len(a.coeffs) == len(b.coeffs) == 10
    product = L.mul(a, b)
    assert calls == []
    assert product.as_dict()[-5] == Fraction(2, 3) * Fraction(-5, 7)


def test_laurent_mul_work_follows_the_stored_terms(monkeypatch):
    seen = []
    field_loop = RationalField.convolve_operands

    def recording(self, terms, n):
        # Operands are (denominator, integer numerators): count the numerators.
        seen.extend((len(xs), len(ys)) for _, (_, xs), (_, ys) in terms)
        return field_loop(self, terms, n)

    monkeypatch.setattr(RationalField, "convolve_operands", recording)
    a = laurent({-1: 1, 10**6: 2})
    assert L.mul(a, a).as_dict() == {-2: 1, 10**6 - 1: 4, 2 * 10**6: 4}
    assert seen == [(2, 2)]


def test_pole_times_eps_is_one():
    inv_eps = laurent({-1: 1})
    eps = laurent({1: 1})
    assert L.eq(L.mul(inv_eps, eps), L.one())


def test_geometric_series_inverse():
    # (1 + eps)^-1 to order 3 is 1 - eps + eps^2 - eps^3, derived by hand.
    one_plus = laurent({0: 1, 1: 1})
    inv = L.invert_unit(one_plus, to_order=3)
    assert inv.as_dict() == {0: 1, 1: -1, 2: 1, 3: -1}
    assert inv.trunc == 3
    # A truncated input carries its own sound order.
    inv2 = L.invert_unit(laurent({0: 1, 1: 1}, trunc=3))
    assert inv2.as_dict() == {0: 1, 1: -1, 2: 1, 3: -1}


def test_inverse_of_pure_pole_is_exact():
    x = laurent({-2: Fraction(3)})
    inv = L.invert_unit(x)
    assert inv.as_dict() == {2: Fraction(1, 3)}
    assert inv.trunc is None


def test_invert_times_self_is_one():
    x = laurent({-1: 2, 0: 1, 2: -3})
    inv = L.invert_unit(x, to_order=6)
    assert L.eq(L.mul(x, inv), L.one())


def test_invert_zero_rejected():
    with pytest.raises(SingularInputError):
        L.invert_unit(L.zero())


def test_minimal_subtraction_split():
    x = laurent({-1: 1, 0: 2, 1: 1})
    assert L.pole_part(x).as_dict() == {-1: 1}
    assert L.pole_part(x).trunc is None
    assert L.regular_part(x).as_dict() == {0: 2, 1: 1}


def test_truncation_propagates_soundly():
    # a known through eps^2 times a pole: the eps^2 coefficient of the
    # product could be polluted by a's unknown eps^3 term, so the product is
    # only sound through eps^1.
    a = laurent({0: 1}, trunc=2)
    pole = laurent({-1: 1})
    prod = L.mul(a, pole)
    assert prod.trunc == 1
    with pytest.raises(TruncationError):
        L.coefficient(prod, 2)
    assert L.coefficient(prod, -1) == 1


def test_exp_truncates_exactly():
    z = laurent({1: 1}, trunc=4)
    e = L.exp(z)
    assert e.as_dict() == {
        0: 1,
        1: 1,
        2: Fraction(1, 2),
        3: Fraction(1, 6),
        4: Fraction(1, 24),
    }


def test_laurent_json_round_trip():
    x = laurent({-1: 1, 0: 2}, trunc=6)
    data = L.value_to_json(x)
    assert data == {"minExp": -1, "truncation": 6, "coeffs": {"-1": "1", "0": "2"}}
    assert L.eq(L.value_from_json(data), x)
    exact = laurent({-2: Fraction(1, 3)})
    assert L.eq(L.value_from_json(L.value_to_json(exact)), exact)


def test_laurent_series_identity_ignores_the_operand_memo():
    a = laurent({-1: Fraction(1, 2), 0: 3}, trunc=4)
    b = laurent({-1: Fraction(1, 2), 0: 3}, trunc=4)
    a.operand(QQ)
    assert a._operand is not None and b._operand is None
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != laurent({-1: Fraction(1, 2), 0: 3}) and a != laurent({-1: Fraction(1, 2)}, trunc=4)
    assert a.__eq__(((-1, Fraction(1, 2)), (0, 3))) is NotImplemented
    assert repr(b) == "LaurentSeries(coeffs=((-1, Fraction(1, 2)), (0, Fraction(3, 1))), trunc=4)"


def test_laurent_series_is_immutable():
    a = laurent({0: 1}, trunc=2)
    for name in ("coeffs", "trunc", "_operand", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.coeffs == ((0, 1),) and a.trunc == 2


def test_laurent_series_copies_and_pickles_equal():
    import copy
    import pickle

    a = laurent({-2: Fraction(-1, 3), 1: 5}, trunc=3)
    a.operand(QQ)
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and hash(clone) == hash(a) and type(clone) is type(a)
        assert clone.operand(QQ) == a.operand(QQ)


def test_rational_zero_and_one_are_shared_constants():
    assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
    assert type(QQ.zero()) is Fraction and QQ.zero() == 0
    assert type(QQ.one()) is Fraction and QQ.one() == 1


# -- exactness of division and of the integer dot ------------------------------------


def _floats_in(value):
    """Every float reachable from a ring value, series or exponential sum."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, LaurentSeries):
        return [f for _, v in value.coeffs for f in _floats_in(v)]
    if isinstance(value, ExpSum):
        return [f for v in value.coeffs.values() for f in _floats_in(v)]
    if isinstance(value, (tuple, list)):
        return [f for v in value for f in _floats_in(v)]
    if isinstance(value, dict):
        return [f for v in value.values() for f in _floats_in(v)]
    return []


def test_exact_operations_never_return_a_float():
    inputs = [3, -2, 1, Fraction(3), Fraction(-5, 7), Fraction(1, 2)]
    results = [QQ.zero(), QQ.one(), QQ.dot([])]
    for a in inputs:
        results += [QQ.neg(a), QQ.invert(a), QQ.from_rational(a), QQ.operand([(0, a), (2, a)])]
        for b in inputs:
            results += [QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.scale(a, b), QQ.dot([(a, b, a), (1, b, b)]),
                        QQ.convolve([(a, [(0, a), (1, b)], [(0, b)])], 2),
                        QQ.convolve_operands([(a, QQ.operand([(0, b)]), QQ.operand([(1, a)]))], 2)]
        for trunc in (None, 3):
            results += [L.invert_unit(L.make({0: a, 1: 1}, trunc), to_order=3),
                        L.invert_unit(L.make({-1: a}, trunc)),
                        L.invert_unit(L.make({-2: a, 0: Fraction(1, 3), 1: 2}, trunc), to_order=3)]
        results += [ExpSum({2: a}).integrate_to_infinity(), ExpSum({1: 1, 3: a}).integrate_to_infinity(),
                    ExpSum({2: a, 3: 1}).integrate_to_variable()]
    assert not [r for r in results if _floats_in(r)]
    assert QQ.invert(3) == Fraction(1, 3) and type(QQ.invert(3)) is Fraction
    assert ExpSum({2: 1}).integrate_to_infinity() == Fraction(1, 2)
    assert ExpSum({2: 1}).integrate_to_variable().coeffs == {0: Fraction(1, 2), 2: Fraction(-1, 2)}
    a = L.make({0: 2, 1: 1}, 3)
    inv = L.invert_unit(a)
    assert inv == L.make({0: Fraction(1, 2), 1: Fraction(-1, 4), 2: Fraction(1, 8), 3: Fraction(-1, 16)}, 3)
    assert L.eq(L.mul(a, inv), L.one())


mixed_entries = st.one_of(st.just(0), st.just(Fraction(0)), st.just(1), st.integers(min_value=-10**6, max_value=10**6),
                          st.fractions(max_denominator=10**6))


@settings(max_examples=200)
@given(st.lists(st.tuples(mixed_entries, mixed_entries, mixed_entries), max_size=6))
def test_rational_dot_sums_mixed_int_and_fraction_triples_exactly(terms):
    want = Fraction(0)
    for c, x, y in terms:
        want += Fraction(c) * Fraction(x) * Fraction(y)
    for got in (QQ.dot(terms), Ring.dot(QQ, terms)):
        assert type(got) is Fraction and got == want


def window_eq(ring, a, b):
    """LaurentRing.eq as it compared every stored exponent of both series on
    their common sound window, coefficient by coefficient."""
    w = a.trunc if b.trunc is None else b.trunc if a.trunc is None else min(a.trunc, b.trunc)
    da, db = a.as_dict(), b.as_dict()
    for k in set(da) | set(db):
        if w is not None and k > w:
            continue
        if not ring.base.eq(da.get(k, ring.base.zero()), db.get(k, ring.base.zero())):
            return False
    return True


def _as_ints(value):
    """The same value with every integral Fraction replaced by an int."""
    if isinstance(value, tuple):
        return tuple(_as_ints(v) for v in value)
    return value.numerator if value.denominator == 1 else value


small_coefficients = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)}))


@st.composite
def series_pairs(draw):
    """Two series over Q or Q[t]: the second is the first's coefficients,
    possibly with integral Fractions as ints, one entry changed, dropped or
    added, and an equal or a different truncation."""
    ring = draw(st.sampled_from([L, LT]))
    value = small_coefficients if ring is L else st.lists(small_coefficients, max_size=3).map(_strip_poly)
    exps = st.integers(min_value=-3, max_value=4)
    coeffs = draw(st.dictionaries(exps, value, max_size=4))
    truncs = st.one_of(st.none(), st.integers(min_value=-3, max_value=5))
    ta = draw(truncs)
    a = ring.make(coeffs, ta)
    other = dict(a.coeffs)
    if draw(st.booleans()):
        other = {k: _as_ints(v) for k, v in other.items()}
    edit = draw(st.sampled_from(["none", "change", "drop", "add"]))
    if edit == "change" and other:
        other[draw(st.sampled_from(sorted(other)))] = draw(value)
    elif edit == "drop" and other:
        del other[draw(st.sampled_from(sorted(other)))]
    elif edit == "add":
        other[draw(exps)] = draw(value)
    tb = ta if draw(st.booleans()) else draw(truncs)
    return ring, a, ring.make(other, tb)


@settings(max_examples=200)
@given(series_pairs())
def test_laurent_eq_matches_the_window_comparison(pair):
    ring, a, b = pair
    assert ring.eq(a, b) == window_eq(ring, a, b)
    assert ring.eq(b, a) == window_eq(ring, b, a)
