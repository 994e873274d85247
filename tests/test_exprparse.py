"""The element expression mini-syntax."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfalg import cli
from hopfalg.algebra import Element, Monomial
from hopfalg.errors import HopfError, SchemaError
from hopfalg.exprparse import MAX_POWER_TERMS, parse_element
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema
from hopfalg.trees import rooted_tree_schema


@pytest.fixture(scope="module")
def ladder():
    return HopfAlgebra(ladder_schema(), validate_to=6)


@pytest.fixture(scope="module")
def trees():
    return HopfAlgebra(rooted_tree_schema(3))


def term(ladder, spec, coeff=1):
    m = Monomial.from_powers(
        (ladder.schema.generator_by_name(name), e) for name, e in spec
    )
    return (m, Fraction(coeff))


def test_basic_expression(ladder):
    e = parse_element(ladder, "t1^2*t2 + 3*t3")
    assert e == Element.from_terms(
        [term(ladder, [("t1", 2), ("t2", 1)]), term(ladder, [("t3", 1)], 3)]
    )


def test_unary_minus_and_subtraction(ladder):
    e = parse_element(ladder, "-t2 + t1^2 - 2*t1")
    assert e == Element.from_terms(
        [
            term(ladder, [("t2", 1)], -1),
            term(ladder, [("t1", 2)]),
            term(ladder, [("t1", 1)], -2),
        ],
    )


def test_parentheses_expand(ladder):
    e = parse_element(ladder, "(t1 + t2) * t1")
    assert e == Element.from_terms(
        [term(ladder, [("t1", 2)]), term(ladder, [("t1", 1), ("t2", 1)])]
    )
    assert parse_element(ladder, "(" * 100 + "t1" + ")" * 100) == parse_element(ladder, "t1")
    sq = parse_element(ladder, "(t1 + 1)^2")
    assert sq == Element.from_terms(
        [
            term(ladder, [("t1", 2)]),
            term(ladder, [("t1", 1)], 2),
            (Monomial.unit(), Fraction(1)),
        ],
    )


def test_rational_coefficients(ladder):
    e = parse_element(ladder, "3/2*t1")
    assert e.coefficient(Monomial.of(ladder.schema.generator(1))) == Fraction(3, 2)


def test_bare_number(ladder):
    e = parse_element(ladder, "5")
    assert e == Element.unit().scale(Fraction(5))


def test_tree_tokens(trees):
    e = parse_element(trees, "[[][]] - 2*[]^2")
    cherry = trees.schema.generator_by_name("[[][]]")
    dot = trees.schema.generator_by_name("[]")
    assert e.coefficient(Monomial.of(cherry)) == 1
    assert e.coefficient(Monomial.of(dot, 2)) == -2


def test_tree_products(trees):
    e = parse_element(trees, "[]*[[]]")
    assert e.terms and all(m.poly_degree == 2 for m in e.terms)


def test_a_run_of_brackets_is_one_name_up_to_the_next_operator(trees):
    assert parse_element(trees, " [ [] ]*[]^2-([]+[[ ] ]) ") == parse_element(trees, "[[]]*[]^2-([]+[[]])")
    # An unbalanced run and a run of two trees are each one name, and no tree's.
    for text in ("[[]]]", "[[]] []"):
        with pytest.raises(SchemaError) as exc:
            parse_element(trees, f"2*{text}+[]")
        assert str(exc.value) == f"unknown generator {text!r} in schema 'trees:3'"


def test_errors(ladder):
    for bad in ["", "t1 +", "t1 ^ t2", "t1^0", "(t1", "t1)", "t9 $", "2 t1"]:
        with pytest.raises(HopfError):
            parse_element(ladder, bad)


def test_unknown_generator_named(ladder):
    with pytest.raises(HopfError, match="q5"):
        parse_element(ladder, "q5")


def test_exponents_are_capped(ladder):
    from hopfalg.exprparse import MAX_EXPONENT

    t1 = ladder.schema.generator_by_name("t1")
    assert parse_element(ladder, f"t1^{MAX_EXPONENT}") == Element.from_terms(
        [(Monomial.of(t1, MAX_EXPONENT), Fraction(1))])
    with pytest.raises(HopfError, match=f"exponent {MAX_EXPONENT + 1} exceeds the limit MAX_EXPONENT"):
        parse_element(ladder, f"(t1 + 1)^{MAX_EXPONENT + 1}")


def test_powers_are_priced_before_expanding(ladder):
    from hopfalg.exprparse import MAX_POWER_TERMS

    # (t1 + t2 + 1)^N has exactly C(N + 2, 2) terms, the bound for a 3-term base.
    assert len(parse_element(ladder, "(t1 + t2 + 1)^20").terms) == 231
    with pytest.raises(HopfError, match=f"a 4-term base to the power 64 may expand to 47905 terms, "
                                        f"above the limit MAX_POWER_TERMS = {MAX_POWER_TERMS}"):
        parse_element(ladder, "(t1+t2+t3+1)^64")


# Monomials that collide under products (t1 and t1^2, t1*t2 and t1 and t2)
# and the unit, with negative and fractional coefficients.
power_terms = st.lists(
    st.tuples(st.sampled_from(["1", "t1", "t1^2", "t2", "t1*t2", "t3"]),
              st.fractions(min_value=-3, max_value=3, max_denominator=5)),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(terms=power_terms, n=st.integers(min_value=1, max_value=12))
def test_a_power_is_the_repeated_product(ladder, terms, n):
    text = " ".join(f"{'-' if c < 0 else '+'} {abs(c)}*{m}" for m, c in terms).lstrip("+ ")
    base = parse_element(ladder, text)
    expected = base
    for _ in range(n - 1):
        expected = expected * base
    assert parse_element(ladder, f"({text})^{n}") == expected


# The grammar's tokens, some of them malformed on purpose: unknown and
# zero-index names, trees on the ladder, an unbalanced bracket, a zero
# denominator, exponents at and past MAX_EXPONENT, a character outside it.
TOKENS = ["t1", "t2", "t3", "t0", "x", "[]", "[[]]", "[[][]]", "[[[]]]", "[", "]", "0", "1", "2", "3/2", "1/0",
          "64", "65", "+", "-", "*", "^", "(", ")", " ", "$"]
NAMES = {"ladder": ["t1", "t2", "t3"], "trees:4": ["[]", "[[]]", "[[][]]", "[[[]]]"]}


def expressions(names):
    """Token strings, and well-formed expressions over ``names`` that reach the
    structure maps; their powers stay small or pass the cap, so that no
    example expands for long.  Either may be nested 1000 deep, past the
    recursion limit even as Hypothesis raises it while a test runs."""
    grammatical = st.recursive(
        st.sampled_from(names + ["0", "1", "3/2"]),
        lambda inner: st.one_of(st.builds("{}{}{}".format, inner, st.sampled_from(["+", "-", "*"]), inner),
                                st.builds("({})^{}".format, inner, st.sampled_from(["2", "3", "65"]))),
        max_leaves=6)
    tokens = st.lists(st.sampled_from(TOKENS), max_size=12).map("".join)
    return st.builds(lambda depth, body: "(" * depth + body + ")" * depth, st.sampled_from([0, 1, 1000]),
                     st.one_of(grammatical, tokens))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_any_expression_exits_0_or_2_with_a_json_diagnostic(data):
    command = data.draw(st.sampled_from(["coproduct", "antipode"]))
    schema = data.draw(st.sampled_from(list(NAMES)))
    expr = data.draw(expressions(NAMES[schema]))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([command, "--schema", schema, f"--expr={expr}"])
    if code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2 and not out.getvalue()
        diagnostic = json.loads(err.getvalue())
        assert isinstance(diagnostic, dict) and {"error", "message"} <= diagnostic.keys()


def test_a_product_past_the_cap_is_refused_before_it_is_multiplied(ladder):
    with pytest.raises(HopfError, match="a product of a 101-term and a 100-term factor may expand to 10100 terms, "
                                        f"above the limit MAX_POWER_TERMS = {MAX_POWER_TERMS}"):
        parse_element(ladder, "(" + "+".join(f"t{n}" for n in range(1, 102)) + ")*("
                      + "+".join(f"t{n}" for n in range(1, 101)) + ")")
    # At the cap a product is expanded, and a product of many small factors
    # is bounded one multiplication at a time.
    hundred = "(" + "+".join(f"t{n}" for n in range(1, 101)) + ")"
    assert len(parse_element(ladder, f"{hundred}*{hundred}").terms) == 5050
    assert len(parse_element(ladder, "(t1+t2)*" * 12 + "1").terms) == 13
