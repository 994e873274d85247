"""Ring tower tests: exact rationals, truncated Laurent series, and Q[t] values."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfalg.errors import SingularInputError, TruncationError
from hopfalg.exp_integrals import finite_simplex_integral
from hopfalg.polynomials import POLY_T, PolynomialRing
from hopfalg.rings import (
    EPS_RING,
    QQ,
    LaurentRing,
    LaurentSeries,
    RationalField,
    Ring,
    format_rational,
    parse_rational,
)

L = EPS_RING
PT = POLY_T


def canonical(c) -> bool:
    """A kernel's rational in canonical form: an int when it is integral, a
    Fraction only when its denominator is above 1."""
    return type(c) is (int if c.denominator == 1 else Fraction)


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
    p = PT.mul((1, 1), (-1, 1))  # (1 + t)(t - 1) = t^2 - 1
    assert p == (-1, 0, 1)
    assert PT.coefficient(p, 2) == 1 and PT.coefficient(p, 1) == 0 and PT.coefficient(p, 5) == 0
    assert PT.format_value(p) == "-1 + t^2" and PT.value_to_json(p) == ["-1", "0", "1"]
    assert PT.format_value((0, Fraction(1, 2), -3)) == "1/2*t + -3*t^2"
    assert PT.format_value(()) == "0" and PT.value_to_json(()) == []
    # the zero polynomial is (), and trailing zeros are stripped
    assert PT.mul(p, ()) == () and PT.mul((Fraction(1, 2),), (2, 0)) == (1,)


def test_laurent_series_are_over_q_only():
    assert (L.base, L.var, L.tag) == (QQ, "eps", "laurent") and type(L) is LaurentRing
    for ring in (LaurentRing, PolynomialRing):
        with pytest.raises(TypeError):
            ring(QQ)
    # Q[t] is a value type, not a ring: only the flow's reads and the product remain.
    assert not issubclass(PolynomialRing, Ring)
    for name in ("add", "neg", "scale", "eq", "from_rational", "operand", "convolve", "convolve_operands", "dot"):
        assert not hasattr(PolynomialRing, name)


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


def generic_convolve(terms, n):
    """The generic sum-of-products kernel over Q, term by term in Fraction
    arithmetic: every exponent below n that a product c x y reaches, with its
    coefficient, which may be zero."""
    out = {}
    for c, xs, ys in terms:
        for i, x in xs:
            x = c * x
            if not x:
                continue
            for j, y in ys:
                if i + j >= n:
                    break
                out[i + j] = out.get(i + j, Fraction(0)) + x * y
    return out


def qq_convolve(terms, n):
    """The rational kernel on (c, xs, ys) triples of plain sparse lists, each
    list put over its common denominator by ``QQ.operand`` first, as
    ``LaurentRing.dot`` does."""
    return QQ.convolve_operands([(c, QQ.operand(xs), QQ.operand(ys)) for c, xs, ys in terms], n)


def generic_dot(terms):
    """The generic kernel at exponent 0: the sum of c x y."""
    return generic_convolve([(c, ((0, x),), ((0, y),)) for c, x, y in terms], 1).get(0, Fraction(0))


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
    fast = qq_convolve([(1, xs, ys)], n)
    assert all(canonical(c) for c in fast.values())
    for got in (fast, generic_convolve([(1, xs, ys)], n)):
        assert all(k < n for k in got)
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
    fast = qq_convolve(terms, n)
    assert all(canonical(c) for c in fast.values())
    for got in (fast, generic_convolve(terms, n)):
        assert all(k < n for k in got)
        assert {k: c for k, c in got.items() if c} == expect


@given(st.lists(st.tuples(kernel_entries, kernel_entries, kernel_entries), max_size=4))
def test_rational_dot_is_the_exponent_zero_kernel(terms):
    got = QQ.dot(terms)
    assert canonical(got)
    assert got == sum((c * x * y for c, x, y in terms), Fraction(0)) == generic_dot(terms)


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
    a.operand()
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
    a.operand()
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert clone == a and hash(clone) == hash(a) and type(clone) is type(a)
        assert clone.operand() == a.operand()


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
                        qq_convolve([(a, [(0, a), (1, b)], [(0, b)])], 2),
                        QQ.convolve_operands([(a, QQ.operand([(0, b)]), QQ.operand([(1, a)]))], 2)]
        for trunc in (None, 3):
            results += [L.invert_unit(L.make({0: a, 1: 1}, trunc), to_order=3),
                        L.invert_unit(L.make({-1: a}, trunc)),
                        L.invert_unit(L.make({-2: a, 0: Fraction(1, 3), 1: 2}, trunc), to_order=3)]
    # Int-valued operands through the Laurent-over-Q kernel and the Q[t] product.
    ints = [a for a in inputs if type(a) is int]
    for a in ints:
        for b in ints:
            x, y = L.make({-1: a, 0: b}, None), L.make({0: b, 2: a}, 3)
            results += [L.mul(x, y), L.dot([(a, x, y), (b, y, y)]), L.scale(a, y), L.invert_unit(y),
                        PT.mul((a, b), (b, 0, a))]
    results += [parse_rational(text) for text in ("3", "-4/2", " 7 ", "1/2", "-6/4")]
    results += [QQ.invert(a) for a in ints]
    results += [finite_simplex_integral(rates) for rates in ((2,), (1, 3), (2, 3, 1), (1, 1, 2))]
    assert not [r for r in results if _floats_in(r)]
    assert QQ.invert(3) == Fraction(1, 3) and type(QQ.invert(3)) is Fraction
    assert finite_simplex_integral((2,)) == {0: Fraction(1, 2), 2: Fraction(-1, 2)}
    a = L.make({0: 2, 1: 1}, 3)
    inv = L.invert_unit(a)
    assert inv == L.make({0: Fraction(1, 2), 1: Fraction(-1, 4), 2: Fraction(1, 8), 3: Fraction(-1, 16)}, 3)
    assert L.eq(L.mul(a, inv), L.one())


def test_kernel_results_are_canonical():
    # Integral inputs (common denominator 1), fractions summing to integers
    # (a denominator that divides the sum) and a proper fraction.
    half = Fraction(1, 2)
    cases = {
        "ints": ([(2, 3, -4)], -24),
        "divides": ([(1, half, 1), (half, 1, 1)], 1),
        "divides-to-zero": ([(1, half, 1), (-1, half, 1)], 0),
        "fraction": ([(3, half, 1)], Fraction(3, 2)),
    }
    for name, (terms, want) in cases.items():
        rational = qq_convolve([(c, [(0, x)], [(0, y)]) for c, x, y in terms], 1)
        series = L.dot([(c, L.make({0: x}, None), L.make({0: y}, None)) for c, x, y in terms])
        values = [QQ.dot(terms), *rational.values(), *(v for _, v in series.coeffs)]
        assert all(canonical(v) for v in values), (name, [type(v) for v in values])
        assert QQ.dot(terms) == rational[0] == want, name
        assert series == L.from_rational(want), name
    assert parse_rational("6/3") == 2 and type(parse_rational("6/3")) is int
    assert type(parse_rational("-5")) is int and type(parse_rational("5/3")) is Fraction


mixed_entries = st.one_of(st.just(0), st.just(Fraction(0)), st.just(1), st.integers(min_value=-10**6, max_value=10**6),
                          st.fractions(max_denominator=10**6))


@settings(max_examples=200)
@given(st.lists(st.tuples(mixed_entries, mixed_entries, mixed_entries), max_size=6))
def test_rational_dot_sums_mixed_int_and_fraction_triples_exactly(terms):
    want = Fraction(0)
    for c, x, y in terms:
        want += Fraction(c) * Fraction(x) * Fraction(y)
    assert canonical(QQ.dot(terms))
    for got in (QQ.dot(terms), generic_dot(terms)):
        assert got == want


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
    """The same value with an integral Fraction replaced by an int."""
    return value.numerator if value.denominator == 1 else value


small_coefficients = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)}))


@st.composite
def series_pairs(draw):
    """Two series over Q: the second is the first's coefficients, possibly
    with integral Fractions as ints, one entry changed, dropped or added, and
    an equal or a different truncation."""
    ring, value = L, small_coefficients
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


# -- the Laurent-over-Q paths against products added one at a time ----------------

int_or_fraction = st.one_of(st.integers(min_value=-30, max_value=30), st.fractions(max_denominator=12))


@st.composite
def raw_series(draw, values):
    """A canonical series built without LaurentRing: exact or truncated, zero
    or empty included, its values drawn from ``values``."""
    trunc = draw(st.one_of(st.none(), st.integers(min_value=-5, max_value=7)))
    coeffs = draw(st.dictionaries(st.integers(min_value=-4, max_value=6), values, max_size=5))
    return LaurentSeries(tuple(sorted((k, v) for k, v in coeffs.items() if v and (trunc is None or k <= trunc))), trunc)


# The exact unit series: the ring's own one(), and equal ones with the
# coefficient as an int and as a Fraction.
units = st.sampled_from([L.one(), LaurentSeries(((0, 1),), None), LaurentSeries(((0, Fraction(1)),), None)])


@st.composite
def laurent_triples(draw):
    """(c, a, b) triples with int and Fraction mixes, or all-integer ones
    (the integer kernel's path without a common denominator), and the exact
    unit series among the operands."""
    values = draw(st.sampled_from([int_or_fraction, st.integers(min_value=-30, max_value=30)]))
    scalars = st.one_of(st.just(0), st.just(1), values)
    series = st.one_of(raw_series(values), units)
    return draw(st.lists(st.tuples(scalars, series, series), max_size=4))


def lowest(x):
    """The lowest exponent where x may be nonzero; None for an exact zero."""
    if x.coeffs:
        return x.coeffs[0][0]
    return None if x.trunc is None else x.trunc + 1


def products_one_at_a_time(terms):
    """The sum of c a b as (coefficients, truncation): each product by the
    generic kernel over Q, sound below the lowest exponent an
    unknown coefficient of one factor reaches against the other, the products
    added one at a time in a plain dict."""
    total, trunc = {}, None
    for c, a, b in terms:
        reach = [x.trunc + lowest(y) for x, y in ((a, b), (b, a)) if x.trunc is not None and lowest(y) is not None]
        window = min(reach) if reach else None
        top = a.coeffs[-1][0] + b.coeffs[-1][0] if a.coeffs and b.coeffs else 0
        product = generic_convolve([(c, a.coeffs, b.coeffs)], (top if window is None else window) + 1)
        for k, v in product.items():
            total[k] = total.get(k, 0) + v
        if window is not None and (trunc is None or window < trunc):
            trunc = window
    return {k: v for k, v in total.items() if v and (trunc is None or k <= trunc)}, trunc


def assert_series(got, coeffs, trunc):
    assert got.trunc == trunc
    assert got.as_dict() == coeffs and [k for k, _ in got.coeffs] == sorted(coeffs)


@settings(max_examples=150)
@given(laurent_triples())
def test_laurent_dot_over_q_matches_the_products_added_one_at_a_time(terms):
    got = L.dot(terms)
    assert_series(got, *products_one_at_a_time(terms))
    assert all(canonical(v) for _, v in got.coeffs)
    # Each product against its negative: every coefficient cancels to an exact zero.
    cancelled = terms + [(-c, a, b) for c, a, b in terms]
    assert_series(L.dot(cancelled), *products_one_at_a_time(cancelled))
    if all(type(c) is int and all(type(v) is int for x in (a, b) for _, v in x.coeffs) for c, a, b in terms):
        assert all(type(v) is int for _, v in got.coeffs)
    for c, a, b in terms:
        for alone in (L.mul(a, b), L.dot([(c, a, b)])):
            assert all(canonical(v) for _, v in alone.coeffs)
        assert_series(L.mul(a, b), *products_one_at_a_time([(1, a, b)]))
        assert_series(L.dot([(c, a, b)]), *products_one_at_a_time([(c, a, b)]))


@settings(max_examples=150)
@given(raw_series(int_or_fraction), raw_series(int_or_fraction), int_or_fraction)
def test_laurent_add_scale_and_split_over_q_match_the_plain_sums(a, b, q):
    trunc = b.trunc if a.trunc is None else a.trunc if b.trunc is None else min(a.trunc, b.trunc)
    total = dict(a.coeffs)
    for k, v in b.coeffs:
        total[k] = total.get(k, 0) + v
    assert_series(L.add(a, b), {k: v for k, v in total.items() if v and (trunc is None or k <= trunc)}, trunc)
    assert_series(L.scale(q, a), {k: q * v for k, v in a.coeffs if q}, a.trunc)
    assert_series(L.make(dict(a.coeffs), b.trunc),
                  {k: v for k, v in a.coeffs if b.trunc is None or k <= b.trunc}, b.trunc)
    assert_series(L.regular_part(a), {k: v for k, v in a.coeffs if k >= 0}, a.trunc)
    if a.trunc is None or a.trunc >= -1:
        assert_series(L.pole_part(a), {k: v for k, v in a.coeffs if k < 0}, None)
