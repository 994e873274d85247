"""The pre-Lie product on the dual Milnor-Moore side.

Infinitesimal characters vanish on the unit and on products, so their
convolution on a generator x reads only the generator (x) generator terms of
D(x): (f |> g)(x) = sum c f(a) g(b) over those terms c a (x) b.  Every schema
here is right-sided (each right leg of a reduced coproduct is one
generator), which makes |> left pre-Lie: the associator
(f |> g) |> h - f |> (g |> h) is symmetric in f and g.  Its commutator is the
Lie bracket Z1 * Z2 - Z2 * Z1 of infinitesimal characters.

The dual is U(g), g the infinitesimal characters: the ordered words
Z_g1 * ... * Z_gk (g1 <= ... <= gk, Z_g dual to the generator g) pair
triangularly with the monomials, which the PBW test reads off
``convolve_tables`` and checks entry by entry against the iterated coproduct.
On Connes-Moscovici and Faa di Bruno, g is the Lie algebra of formal vector
fields: the bracket of the Z dual to the generators is the Witt law, in closed
form.  On every schema the bracket's structure constants satisfy the Jacobi
identity.
"""

import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from closed_forms import connes_moscovici_schema, dyson_schwinger_schema, faa_di_bruno_schema
from hopfalg.algebra import Monomial
from hopfalg.duals import InfinitesimalCharacter, convolve_tables
from hopfalg.functionals import lie_bracket
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema, schema_from_dict
from hopfalg.rings import QQ
from hopfalg.trees import rooted_tree_schema
from perfbench.workloads import BINOMIAL_DEGREE, binomial_schema

SCHEMAS = {
    "ladder": (ladder_schema, 8),
    "trees:7": (lambda: rooted_tree_schema(7), 7),
    "binomial": (lambda: schema_from_dict(binomial_schema(), name="binomial"), BINOMIAL_DEGREE),
    "connes-moscovici": (lambda: schema_from_dict(connes_moscovici_schema(8), name="connes-moscovici"), 8),
    "faa-di-bruno": (lambda: schema_from_dict(faa_di_bruno_schema(8), name="faa-di-bruno"), 8),
    "dyson-schwinger-1": (lambda: schema_from_dict(dyson_schwinger_schema(1, 8), name="dyson-schwinger-1"), 8),
    "dyson-schwinger-2": (lambda: schema_from_dict(dyson_schwinger_schema(2, 8), name="dyson-schwinger-2"), 8),
}


def pre_lie(ctx, f, g, gens):
    """f |> g on each generator of ``gens``; f and g map generators to values."""
    out = {}
    for x in gens:
        total = 0
        for (a, b), c in ctx.coproduct_monomial(Monomial.of(x)).terms.items():
            ga, gb = a.single_generator(), b.single_generator()
            if ga is not None and gb is not None:
                total += c * f.get(ga, 0) * g.get(gb, 0)
        out[x] = total
    return out


def associator(ctx, f, g, h, gens):
    left, right = pre_lie(ctx, pre_lie(ctx, f, g, gens), h, gens), pre_lie(ctx, f, pre_lie(ctx, g, h, gens), gens)
    return {x: left[x] - right[x] for x in gens}


def random_infinitesimals(gens, rng, count):
    return [{g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in gens} for _ in range(count)]


def check_pre_lie(ctx, degree, seed):
    gens = ctx.schema.generators_up_to(degree)
    rng = random.Random(seed)
    for _ in range(3):
        f, g, h = random_infinitesimals(gens, rng, 3)
        assert associator(ctx, f, g, h, gens) == associator(ctx, g, f, h, gens)
        z1, z2 = (InfinitesimalCharacter(ctx, QQ, v, cutoff=degree) for v in (f, g))
        bracket = lie_bracket(z1, z2, degree)
        forward, backward = pre_lie(ctx, f, g, gens), pre_lie(ctx, g, f, gens)
        assert all(bracket.value_on(Monomial.of(x)) == forward[x] - backward[x] for x in gens)


@pytest.mark.parametrize("name", list(SCHEMAS))
def test_the_pre_lie_associator_is_symmetric_and_its_commutator_is_the_bracket(name):
    schema, degree = SCHEMAS[name]
    check_pre_lie(HopfAlgebra(schema(), validate_to=degree), degree, seed=7)


def bracket_constants(ctx, degree):
    """{(x, y): {g: c}} with [Z_x, Z_y] = sum_g c Z_g, read off the
    generator (x) generator terms of each D(g) and antisymmetrized."""
    constants = {}
    for g in ctx.schema.generators_up_to(degree):
        for (a, b), c in ctx.coproduct_monomial(Monomial.of(g)).terms.items():
            x, y = a.single_generator(), b.single_generator()
            if x is not None and y is not None:
                for key, sign in (((x, y), c), ((y, x), -c)):
                    row = constants.setdefault(key, {})
                    row[g] = row.get(g, 0) + sign
    return constants


@pytest.mark.parametrize("name", list(SCHEMAS))
def test_the_bracket_constants_satisfy_the_jacobi_identity(name):
    schema, degree = SCHEMAS[name]
    ctx = HopfAlgebra(schema(), validate_to=degree)
    constants = bracket_constants(ctx, degree)

    def bracket(u, v):  # on {generator: coefficient} combinations
        out = Counter()
        for x, a in u.items():
            for y, b in v.items():
                for g, c in constants.get((x, y), {}).items():
                    out[g] += a * b * c
        return out

    gens = ctx.schema.generators_up_to(degree)
    for x in gens:
        for y in gens:
            for z in gens:
                if x.degree + y.degree + z.degree <= degree:
                    total = Counter()
                    for p, q, r in ((x, y, z), (y, z, x), (z, x, y)):
                        total.update(bracket(bracket({p: 1}, {q: 1}), {r: 1}))
                    assert not any(total.values()), (x.name, y.name, z.name)


PBW_SCHEMAS = {
    "ladder": (ladder_schema, 8),
    "ladder-10": (ladder_schema, 10),
    "trees:5": (lambda: rooted_tree_schema(5), 5),
    "binomial": SCHEMAS["binomial"],
    "connes-moscovici": (lambda: schema_from_dict(connes_moscovici_schema(6), name="connes-moscovici"), 6),
    "faa-di-bruno": SCHEMAS["faa-di-bruno"],
}


def pbw_words(ctx, degree):
    """Each ordered word (g1, ..., gk) of degree <= ``degree``, generators
    ordered as the schema lists them, with the table of Z_g1 * ... * Z_gk on the
    monomials of its degree, each word one convolve_tables step from its prefix."""
    gens = ctx.schema.generators_up_to(degree)
    by_degree = {n: ctx.monomials_of_degree(n) for n in range(degree + 1)}
    stack = [((), 0, 0, {Monomial.unit(): 1})]  # word, its degree, first generator index it may extend with, table
    while stack:
        word, n, start, table = stack.pop()
        if word:
            yield word, n, table
        for i in range(start, len(gens)):
            g = gens[i]
            if n + g.degree <= degree:
                step = convolve_tables(ctx, QQ, table, {Monomial.of(g): 1}, by_degree[n + g.degree])
                stack.append((word + (g,), n + g.degree, i, step))


@pytest.mark.parametrize("name", list(PBW_SCHEMAS))
def test_ordered_words_pair_triangularly_with_the_monomials(name):
    schema, degree = PBW_SCHEMAS[name]
    ctx = HopfAlgebra(schema(), validate_to=degree)
    words = 0
    for word, n, table in pbw_words(ctx, degree):
        words += 1
        k, spelled = len(word), Counter(word)
        legs = tuple(Monomial.of(g) for g in word)
        for m in ctx.monomials_of_degree(n):
            factors = sum(e for _, e in m.powers)
            value = table.get(m, 0)
            # The word on m is the coefficient of g1 (x) ... (x) gk in the
            # k-fold coproduct of m with every leg off the unit.
            assert value == ctx.plus_iterated_monomial(m, k).terms.get(legs, 0), (word, m)
            if factors > k:
                assert value == 0, (word, m)
            elif factors == k:
                want = prod(factorial(e) for e in spelled.values()) if dict(m.powers) == spelled else 0
                assert value == want, (word, m)
    # One word per monomial of positive degree: the words are a basis of the dual.
    assert words == len(ctx.basis_up_to(degree)) - 1


# -- the Witt bracket: Connes-Moscovici's g is the Lie algebra of formal vector fields --


def witt_constant(a, b):
    """c with [Z_a, Z_b] = c Z_(a+b) on Connes-Moscovici, Z_n dual to delta_n:
    the Witt law [X_a, X_b] = (b - a) X_(a+b) (math/9806109) in the basis
    Z_n = 2^n / (n+1)! X_n."""
    return Fraction((b - a) * factorial(a + b + 1), factorial(a + 1) * factorial(b + 1))


WITT_SCHEMAS = {
    "connes-moscovici": (lambda: schema_from_dict(connes_moscovici_schema(12), name="connes-moscovici"), 12,
                         witt_constant),
    "ladder": (ladder_schema, 12, lambda a, b: 0),  # cocommutative, so its bracket vanishes
    # Z_n dual to a_n is the vector field x^(n+1) d/dx itself, so no rescaling.
    "faa-di-bruno": (SCHEMAS["faa-di-bruno"][0], 8, lambda a, b: b - a),
}


@pytest.mark.parametrize("name", list(WITT_SCHEMAS))
def test_the_bracket_of_the_dual_generators_is_the_witt_law(name):
    schema, degree, constant = WITT_SCHEMAS[name]
    ctx = HopfAlgebra(schema(), validate_to=degree)
    gens = {g.degree: g for g in ctx.schema.generators_up_to(degree)}  # one generator per degree
    pairs = 0
    for a in range(1, degree):
        for b in range(1, degree - a + 1):
            za, zb = (InfinitesimalCharacter(ctx, QQ, {gens[k]: 1}, cutoff=degree) for k in (a, b))
            bracket = lie_bracket(za, zb, degree)
            got = {k: v for k, g in gens.items() if (v := bracket.value_on(Monomial.of(g)))}
            want = {a + b: c} if (c := constant(a, b)) else {}
            assert got == want, (a, b)
            pairs += 1
    assert pairs == degree * (degree - 1) // 2
