"""Characters, infinitesimal characters, convolution calculus, dual metric."""

import ast
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import binomial_schema, faa_di_bruno_schema
from hopfalg import cli, duals
from hopfalg.algebra import Generator, Monomial
from hopfalg.duals import (
    Character,
    Functional,
    InfinitesimalCharacter,
    TableFunctional,
    convolve_tables,
    counit_functional,
    exp_star,
    grading_transpose,
    log_star,
    materialize,
    scale_by_degree,
)
from hopfalg.errors import CutoffExceededError, DomainError, UnsupportedRingError
from hopfalg.functionals import (
    ConvolutionProduct,
    character_inverse,
    convolve,
    lie_bracket,
    materialize_character,
    metric_distance,
)
from hopfalg.hopf import HopfAlgebra, TableSchema, theta_factors
from hopfalg.instances import ladder_schema, schema_from_dict
from hopfalg.rings import EPS_RING, QQ, LaurentRing, RationalField, Ring
from hopfalg.trees import rooted_tree_schema
from perfbench.oracles import canonical, parse_tree, tree_factorial, vertex_count


@pytest.fixture(scope="module")
def trees():
    return HopfAlgebra(rooted_tree_schema(4))


def gen(ladder, n):
    return ladder.schema.generator(n)


def t(ladder, n, exp=1):
    return Monomial.of(gen(ladder, n), exp)


def ladder_char(ladder, values, cutoff=None):
    return Character(
        ladder, QQ, {gen(ladder, n): Fraction(v) for n, v in values.items()}, cutoff
    )


def ladder_inf(ladder, values, cutoff=None):
    return InfinitesimalCharacter(
        ladder, QQ, {gen(ladder, n): Fraction(v) for n, v in values.items()}, cutoff
    )


def pair(f, h):
    """<f, h> for a Q-valued functional f and an element h, linear in h."""
    return sum(c * f.value_on(m) for m, c in h.terms.items())


def random_inf(ladder, rng, max_degree=5):
    return ladder_inf(
        ladder, {n: rng.randint(-5, 5) for n in range(1, max_degree + 1)}
    )


def test_unit_functional_is_counit(ladder):
    one_star = counit_functional(ladder, QQ)
    assert one_star.value_on(Monomial.unit()) == 1
    assert one_star.value_on(t(ladder, 3)) == 0
    h = ladder.monomial_element(t(ladder, 1)).scale(Fraction(7))
    assert pair(one_star, h) == 0


def test_character_multiplicativity(ladder):
    chi = ladder_char(ladder, {1: 2})
    assert chi.value_on(t(ladder, 1, 2)) == 4


def test_infinitesimal_kills_products(ladder):
    z = ladder_inf(ladder, {1: 1})
    assert z.value_on(t(ladder, 1, 2)) == 0
    assert z.value_on(Monomial.unit()) == 0
    assert z.value_on(t(ladder, 1)) == 1


def test_convolution_unit_law(ladder):
    chi = ladder_char(ladder, {1: 3, 2: -1, 3: 5})
    one_star = counit_functional(ladder, QQ)
    for m in ladder.basis_up_to(5):
        assert convolve(chi, one_star).value_on(m) == chi.value_on(m)
        assert convolve(one_star, chi).value_on(m) == chi.value_on(m)


def test_convolution_of_infinitesimals(ladder):
    z1 = ladder_inf(ladder, {1: 2})
    z2 = ladder_inf(ladder, {1: 5})
    # Only the t1 (x) t1 term of the reduced coproduct of t2 survives.
    assert convolve(z1, z2).value_on(t(ladder, 2)) == 10
    # On a degree-1 element every cross term hits <Z, 1> = 0.
    assert convolve(z1, z2).value_on(t(ladder, 1)) == 0


def test_convolution_associativity(ladder, trees):
    # The two bracketings go through the binary kernel as different
    # computations; the flat product is the oracle for both.
    f = ladder_char(ladder, {1: 2, 2: 1})
    g = ladder_inf(ladder, {1: -1, 3: 2})
    h = ladder_char(ladder, {1: 1, 2: 3})
    rng = random.Random(5)
    gens = trees.schema.generators_up_to(4)
    cases = [(ladder, (f, g, h))]
    cases.append((trees, tuple(
        cls(trees, QQ, {x: Fraction(rng.randint(-3, 3)) for x in gens})
        for cls in (Character, InfinitesimalCharacter, Character)
    )))
    for ctx, factors in cases:
        basis = ctx.basis_up_to(4)
        a, b, c = (x.tabulate(basis) for x in factors)
        left = convolve_tables(ctx, QQ, convolve_tables(ctx, QQ, a, b, basis), c, basis)
        right = convolve_tables(ctx, QQ, a, convolve_tables(ctx, QQ, b, c, basis), basis)
        flat = convolve(*factors)
        for m in basis:
            assert left.get(m, 0) == right.get(m, 0) == flat.value_on(m)


@pytest.mark.parametrize("which", ["ladder", "trees"])
def test_kernel_matches_flat_product(which, ladder, trees):
    ctx, degree = (ladder, 5) if which == "ladder" else (trees, 4)
    rng = random.Random(23)
    L = EPS_RING
    gens = ctx.schema.generators_up_to(degree)
    basis = ctx.basis_up_to(degree)

    def rational():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def laurent():
        trunc = rng.choice([None, -1, 0, 2])
        if trunc is not None and rng.random() < 0.3:
            return L.make({}, trunc)  # a truncated zero
        return L.make({k: rational() for k in range(-2, 2)}, trunc)

    for ring, value in ((QQ, rational), (L, laurent)):
        functionals = [
            Character(ctx, ring, {g: value() for g in gens}),
            InfinitesimalCharacter(ctx, ring, {g: value() for g in gens}),
            TableFunctional(ctx, ring, {m: value() for m in basis}),
        ]
        for f in functionals:
            for g in functionals:
                kernel = convolve_tables(ctx, ring, f.tabulate(basis), g.tabulate(basis), basis)
                flat = convolve(f, g)
                for m in basis:
                    got, want = kernel.get(m, ring.zero()), flat.value_on(m)
                    assert ring.eq(got, want), str(m)
                    if ring is L and got.trunc is None:
                        assert want.trunc is None, str(m)  # never wider than the oracle
                    elif ring is L and want.trunc is not None:
                        assert got.trunc <= want.trunc, str(m)


def test_truncated_zero_narrows_the_window(ladder):
    # f(t1) = O(eps) only; the t1 (x) t1 term of D(t1^2) meets the eps^-3
    # pole of g(t1), so nothing above eps^-3 is sound.
    L = EPS_RING
    f = Character(ladder, L, {gen(ladder, 1): L.make({}, 0)})
    g = Character(ladder, L, {gen(ladder, 1): L.make({-3: Fraction(1)}, None)})
    basis = ladder.basis_up_to(2)
    m = t(ladder, 1, 2)
    kernel = convolve_tables(ladder, L, f.tabulate(basis), g.tabulate(basis), basis)
    assert kernel[m].trunc == -3
    assert convolve(f, g).value_on(m).trunc == -3


def test_truncated_zeros_stay_in_every_table(ladder):
    # A truncated zero is not the exact zero: tabulate, the binary kernel and
    # f o S keep it, on generators and on products, with its truncation.
    L = EPS_RING
    zero = L.make({}, 2)
    square = L.mul(zero, zero)
    assert square == L.make({}, 5)
    f = Character(ladder, L, {gen(ladder, 1): zero, gen(ladder, 2): L.one()})
    basis = ladder.basis_up_to(2)
    table = f.tabulate(basis)
    assert table[t(ladder, 1)] == zero and table[t(ladder, 1, 2)] == square
    unit = counit_functional(ladder, L).tabulate(basis)
    kernel = convolve_tables(ladder, L, table, unit, basis)
    assert kernel[t(ladder, 1)] == zero and kernel[t(ladder, 1, 2)] == square
    inverse = duals.compose_antipode(ladder, L, table, basis)
    assert inverse[t(ladder, 1)] == zero and inverse[t(ladder, 1, 2)] == square
    # So do an explicit table and a character read back from one.
    assert TableFunctional(ladder, L, {t(ladder, 1): zero}).value_on(t(ladder, 1)) == zero
    chi = duals.materialize(ladder, L, {t(ladder, 1): zero}, 3)
    assert chi.value_on(t(ladder, 1)) == zero and chi.value_on(t(ladder, 1, 2)) == square
    # Exact zeros are still left out.
    exact = Character(ladder, L, {gen(ladder, 1): L.one()})
    assert t(ladder, 2) not in exact.tabulate(basis)
    assert t(ladder, 2) not in convolve_tables(ladder, L, exact.tabulate(basis), unit, basis)


def test_exp_star_against_flat_power_series(ladder, trees):
    rng = random.Random(3)
    for ctx, degree in ((ladder, 5), (trees, 4)):
        gens = ctx.schema.generators_up_to(degree)
        z = InfinitesimalCharacter(
            ctx, QQ, {g: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for g in gens}
        )
        chi = exp_star(z, degree)
        for m in ctx.basis_up_to(degree):
            series = Fraction(int(m.is_unit)) + sum(
                ConvolutionProduct([z] * n).value_on(m) / factorial(n)
                for n in range(1, m.y_degree + 1)
            )
            assert chi.value_on(m) == series, str(m)


def test_exp_of_one_vertex_indicator_is_inverse_tree_factorial():
    # Butcher group: exp of the one-vertex indicator is the exact flow 1/gamma.
    ctx = HopfAlgebra(rooted_tree_schema(6))
    dot = ctx.schema.generator_by_name("[]")
    chi = exp_star(InfinitesimalCharacter(ctx, QQ, {dot: Fraction(1)}), 6)
    assert tree_factorial(parse_tree("[[][[]]]")) == 8
    for g in ctx.schema.generators_up_to(6):
        assert chi.value_on(Monomial.of(g)) == Fraction(1, tree_factorial(parse_tree(g.name))), g.name


def test_calculus_never_reaches_the_iterated_coproduct(monkeypatch, tmp_path):
    def forbidden(*args):
        raise AssertionError("the flat iterated coproduct is for the oracle only")

    # Patched on the class before any context exists, so building a context
    # (as every CLI command does) must not reach the oracle either.
    monkeypatch.setattr(HopfAlgebra, "iterated_coproduct_monomial", forbidden)
    ctx = HopfAlgebra(rooted_tree_schema(4))
    gens = ctx.schema.generators_up_to(4)
    z1 = InfinitesimalCharacter(ctx, QQ, {g: Fraction(i + 1) for i, g in enumerate(gens)})
    z2 = InfinitesimalCharacter(ctx, QQ, {gens[0]: Fraction(2)})
    chi = exp_star(z1, 4)
    log_star(chi, 4)
    lie_bracket(z1, z2, 4)
    character_inverse(chi)
    materialize_character(chi, 4, verify=True)

    files = []
    for name, kind in (("a", "character"), ("b", "infinitesimal")):
        path = tmp_path / f"{name}.json"
        path.write_text('{"kind": "%s", "values": {"[]": "2", "[[]]": "-1"}}' % kind)
        files.append(str(path))
    for pair in (files, files[:1] * 2):
        assert cli.main(["convolve", *pair, "--schema", "trees:4", "--max-degree", "4"]) == 0


def test_character_inverse_examples(ladder):
    eps = Character(ladder, QQ, {})
    inv = character_inverse(eps)
    assert inv.gen_values == {}
    a, b = Fraction(3), Fraction(-2)
    chi = ladder_char(ladder, {1: a, 2: b})
    inv = character_inverse(chi, max_degree=5)
    assert inv.value_on(t(ladder, 1)) == -a
    # chi(S t2) with S t2 = -t2 + t1^2.
    assert inv.value_on(t(ladder, 2)) == -b + a * a


def test_character_inverse_is_convolution_inverse(ladder):
    chi = ladder_char(ladder, {1: 2, 2: 7, 3: -3})
    inv = character_inverse(chi, max_degree=5)
    one_star = counit_functional(ladder, QQ)
    for m in ladder.basis_up_to(5):
        assert convolve(inv, chi).value_on(m) == one_star.value_on(m)
        assert convolve(chi, inv).value_on(m) == one_star.value_on(m)


INVERSE_SCHEMAS = {
    "ladder-8": (ladder_schema, 8),
    "trees:6": (lambda: rooted_tree_schema(6), 6),
    "binomial-7": (lambda: schema_from_dict(binomial_schema(7), name="binomial"), 7),
    "faa-di-bruno-7": (lambda: schema_from_dict(faa_di_bruno_schema(7), name="faa-di-bruno"), 7),
}


@pytest.mark.parametrize("ring, window", [(QQ, None), (EPS_RING, None), (EPS_RING, 2)],
                         ids=["qq", "laurent", "laurent-truncated"])
@pytest.mark.parametrize("case", sorted(INVERSE_SCHEMAS))
def test_the_inverse_is_the_character_composed_with_the_antipode(case, ring, window):
    """chi o S on every basis monomial, with S read off the antipode memo, for
    all-ones characters (on the ladder their inverse vanishes from t2 on),
    random ones with some zero values, and exact Laurent values with poles.
    With a ``window``, the random Laurent values are truncated at or a little
    above it, with poles up to order 3, and one more character takes a
    truncated zero on its second generator; ``==`` compares the windows too.
    The next test shows where truncated ones make the two windows differ."""
    schema, degree = INVERSE_SCHEMAS[case]
    ctx = HopfAlgebra(schema(), validate_to=degree)
    basis, gens = ctx.basis_up_to(degree), ctx.schema.generators_up_to(degree)
    rng = random.Random(27)

    def value():
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if ring is QQ:
            return q
        if window is None:
            return ring.make({k: q * rng.randint(-2, 2) for k in range(-2, 2)}, None)
        return ring.make({k: q * rng.randint(-2, 2) for k in range(-3, 2)}, window + rng.randint(0, 2))

    cases = [{g: ring.one() for g in gens}, {g: value() for g in gens}, {g: value() for g in gens[1:]}]
    if window is not None:
        cases.append({**cases[1], gens[1]: ring.make({}, window)})
    for values in cases:
        chi = Character(ctx, ring, values)
        inverse = character_inverse(chi, degree)
        assert not any(ring.is_exact_zero(v) for v in inverse.gen_values.values())
        assert inverse.tabulate(basis) == duals.compose_antipode(ctx, ring, chi.tabulate(basis), basis)


def test_the_inverse_is_sound_further_on_a_product_of_truncated_zeros():
    """chi^-1 of the all-ones ladder character known through eps^2 is -1 on t1
    and O(eps^3) on every other generator, so on a monomial with k >= 1 factors
    other than t1 the product of its generator values is O(eps^(3k)), while
    the sum over S(m) of chi o S is sound only through eps^2.  Both windows
    are sound and the coefficients agree; the inverse keeps the wider one."""
    ctx, ring = HopfAlgebra(ladder_schema(), validate_to=6), EPS_RING
    basis = ctx.basis_up_to(6)
    chi = Character(ctx, ring, {g: ring.make({0: 1}, 2) for g in ctx.schema.generators_up_to(6)})
    inverse = character_inverse(chi, 6).tabulate(basis)
    antipode_form = duals.compose_antipode(ctx, ring, chi.tabulate(basis), basis)
    assert inverse.keys() == antipode_form.keys() == set(basis)
    assert inverse[Monomial.unit()] == antipode_form[Monomial.unit()] == ring.one()
    for m in basis[1:]:
        k = sum(e for g, e in m.powers if g.degree > 1)
        assert inverse[m].coeffs == antipode_form[m].coeffs
        assert (inverse[m].trunc, antipode_form[m].trunc) == (3 * k - 1 if k else 2, 2)


def test_character_convolution_is_character(ladder):
    chi1 = ladder_char(ladder, {1: 2, 2: 1})
    chi2 = ladder_char(ladder, {1: -1, 2: 4})
    prod = materialize_character(convolve(chi1, chi2), 5, verify=True)
    assert isinstance(prod, Character)


def test_lie_bracket_antisymmetry_and_ladder_commutativity(ladder):
    rng = random.Random(2)
    for _ in range(5):
        z1, z2 = random_inf(ladder, rng), random_inf(ladder, rng)
        b11 = lie_bracket(z1, z1, 5)
        assert not b11.gen_values
        # The ladder coproduct is cocommutative, so all brackets vanish.
        b12 = lie_bracket(z1, z2, 5)
        assert not b12.gen_values


def test_lie_bracket_trees_two_routes_agree(trees):
    dot = trees.schema.generator_by_name("[]")
    ell2 = trees.schema.generator_by_name("[[]]")
    z1 = InfinitesimalCharacter(trees, QQ, {dot: Fraction(1)})
    z2 = InfinitesimalCharacter(trees, QQ, {ell2: Fraction(1)})
    bracket = lie_bracket(z1, z2, 4)
    for g in trees.schema.generators_up_to(4):
        m = Monomial.of(g)
        direct = QQ.sub(
            convolve(z1, z2).value_on(m), convolve(z2, z1).value_on(m)
        )
        assert bracket.value_on(m) == direct
    # Trees are genuinely non-cocommutative: the 3-vertex cherry witnesses it.
    cherry = trees.schema.generator_by_name("[[][]]")
    assert bracket.value_on(Monomial.of(cherry)) == 2


def test_lie_bracket_jacobi(trees):
    rng = random.Random(9)
    gens = trees.schema.generators_up_to(3)
    def rand_inf():
        return InfinitesimalCharacter(
            trees, QQ, {g: Fraction(rng.randint(-3, 3)) for g in gens}
        )
    z1, z2, z3 = rand_inf(), rand_inf(), rand_inf()
    jacobi = {}
    for g in gens:
        m = Monomial.of(g)
        total = Fraction(0)
        for a, b, c in ((z1, z2, z3), (z2, z3, z1), (z3, z1, z2)):
            inner = lie_bracket(b, c, 3)
            total += lie_bracket(a, inner, 3).value_on(m)
        jacobi[g.name] = total
    assert all(v == 0 for v in jacobi.values())


# Dual Milnor-Moore on trees, as a closed form on the plain nested tuples of
# ``perfbench.oracles``: a tree is the tuple of its child trees, sorted by
# bracket encoding.


def _symmetry(tree):
    """sigma(t): the order of the automorphism group of t."""
    out = 1
    for child in set(tree):
        k = tree.count(child)
        out *= factorial(k) * _symmetry(child) ** k
    return out


def _graftings(s, u):
    """The tree made by grafting s onto each vertex of u, one per vertex."""
    yield canonical(u + (s,))
    for i, child in enumerate(u):
        for grafted in _graftings(s, child):
            yield canonical(u[:i] + (grafted,) + u[i + 1:])


def _pre_lie(s, u, t):
    """(Z_s * Z_u)(t): the graftings of s onto u that give t, times
    sigma(t) / (sigma(s) sigma(u))."""
    count = sum(grafted == t for grafted in _graftings(s, u))
    return Fraction(count * _symmetry(t), _symmetry(s) * _symmetry(u))


def test_lie_bracket_is_the_antisymmetrized_grafting_product():
    assert _pre_lie(parse_tree("[]"), parse_tree("[[]]"), parse_tree("[[][]]")) == 2
    ctx = HopfAlgebra(rooted_tree_schema(6))
    gens = ctx.schema.generators_up_to(6)
    tree = {g: parse_tree(g.name) for g in gens}
    assert [sum(vertex_count(tree[g]) == n for g in gens) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
    checked = 0
    for gs in gens:
        for gu in gens:
            n = gs.degree + gu.degree
            if n > 6:
                continue
            z_s = InfinitesimalCharacter(ctx, QQ, {gs: Fraction(1)})
            z_u = InfinitesimalCharacter(ctx, QQ, {gu: Fraction(1)})
            bracket = lie_bracket(z_s, z_u, n)
            s, u = tree[gs], tree[gu]
            for gt in ctx.schema.generators_up_to(n):
                t = tree[gt]
                expected = _pre_lie(s, u, t) - _pre_lie(u, s, t)
                assert bracket.value_on(Monomial.of(gt)) == expected, (gs.name, gu.name, gt.name)
                checked += 1
    # 733 values on trees of |s| + |u| vertices, the rest below that degree.
    assert checked == 1364


def test_exp_star_examples(ladder):
    a = Fraction(3)
    z = ladder_inf(ladder, {1: a})
    chi = exp_star(z, 4)
    assert chi.value_on(Monomial.unit()) == 1
    # Z*Z(t2) = a^2 divided by 2!.
    assert chi.value_on(t(ladder, 2)) == a * a / 2
    assert chi.value_on(t(ladder, 1, 2)) == a * a


def test_exp_beyond_cutoff_raises(ladder):
    chi = exp_star(ladder_inf(ladder, {1: 1}), 3)
    with pytest.raises(CutoffExceededError):
        chi.value_on(t(ladder, 4))


def test_each_cutoff_message_names_its_kind(ladder):
    for f, noun in ((ladder_char(ladder, {1: 1}, cutoff=3), "character"),
                    (ladder_inf(ladder, {1: 1}, cutoff=3), "infinitesimal character")):
        message = f"^{noun} materialized to degree 3; value on degree-4 monomial requested$"
        for evaluate in (f.value_on, lambda m: f.tabulate([m])):
            with pytest.raises(CutoffExceededError, match=message):
                evaluate(t(ladder, 4))


def test_log_star_examples(ladder):
    assert log_star(Character(ladder, QQ, {}), 4).gen_values == {}
    a = Fraction(5)
    chi = ladder_char(ladder, {1: a})
    assert log_star(chi, 4).value_on(t(ladder, 1)) == a


def test_exp_log_round_trip(ladder):
    rng = random.Random(31)
    for _ in range(6):
        z = random_inf(ladder, rng)
        chi = exp_star(z, 5)
        back = log_star(chi, 5)
        for n in range(1, 6):
            assert back.value_on(t(ladder, n)) == z.value_on(t(ladder, n))
        again = exp_star(back, 5)
        for m in ladder.basis_up_to(5):
            assert again.value_on(m) == chi.value_on(m)


def test_y_star(ladder):
    z = ladder_inf(ladder, {1: 2, 2: 3, 4: -1})
    basis = ladder.basis_up_to(4)
    yz = materialize(ladder, QQ, grading_transpose(QQ, z.tabulate(basis)), 4, InfinitesimalCharacter)
    for n in (1, 2, 4):
        assert yz.value_on(t(ladder, n)) == n * z.value_on(t(ladder, n))
    back = materialize(ladder, QQ, grading_transpose(QQ, yz.tabulate(basis), inverse=True), 4,
                       InfinitesimalCharacter)
    for n in (1, 2, 4):
        assert back.value_on(t(ladder, n)) == z.value_on(t(ladder, n))


def test_y_star_derivation_property(ladder):
    rng = random.Random(12)
    z1, z2 = random_inf(ladder, rng), random_inf(ladder, rng)
    m = t(ladder, 3)
    basis = ladder.basis_up_to(3)

    def y_star(z):
        return materialize(ladder, QQ, grading_transpose(QQ, z.tabulate(basis)), 3, InfinitesimalCharacter)

    lhs = grading_transpose(QQ, convolve(z1, z2).tabulate(basis)).get(m, 0)
    rhs = QQ.add(
        convolve(y_star(z1), z2).value_on(m), convolve(z1, y_star(z2)).value_on(m)
    )
    assert lhs == rhs


def test_theta_star(ladder):
    ring = EPS_RING
    z = ring.monomial(1, trunc=4)
    chi = Character(
        ladder,
        ring,
        {gen(ladder, 1): ring.from_rational(Fraction(2)),
         gen(ladder, 2): ring.from_rational(Fraction(5))},
    )
    basis = ladder.basis_up_to(3)
    # theta_z is a Hopf automorphism, so the scaled table is a character again.
    shifted = materialize(ladder, ring, scale_by_degree(ring, chi.tabulate(basis), theta_factors(ring, z, 3)), 3,
                          failure="not multiplicative on {}")
    expect = ring.mul(
        ring.exp(ring.scale(Fraction(2), z)), chi.value_on(t(ladder, 2))
    )
    assert ring.eq(shifted.value_on(t(ladder, 2)), expect)


def test_transposes_on_tables_and_closed_forms(ladder):
    basis = ladder.basis_up_to(4)
    chi = ladder_char(ladder, {1: 2, 2: -1, 3: 5})
    table = chi.tabulate(basis)
    scaled = grading_transpose(QQ, table)
    for m in basis:
        assert scaled.get(m, 0) == m.y_degree * chi.value_on(m)
    # Y_*^-1 needs a vanishing unit value; off the unit it undoes Y_*.
    with pytest.raises(DomainError):
        grading_transpose(QQ, table, inverse=True)
    assert grading_transpose(QQ, scaled, inverse=True) == {m: v for m, v in table.items() if not m.is_unit}
    # theta_* keeps the kind of an infinitesimal character and agrees with
    # the scaled table of its values.
    ring = EPS_RING
    z = ring.monomial(1, trunc=4)
    zinf = InfinitesimalCharacter(ladder, ring, {gen(ladder, n): ring.from_rational(Fraction(n + 1))
                                                 for n in (1, 2, 4)})
    as_table = scale_by_degree(ring, zinf.tabulate(basis), theta_factors(ring, z, 4))
    shifted = materialize(ladder, ring, as_table, 4, InfinitesimalCharacter, failure="not infinitesimal on {}")
    for m in basis:
        assert ring.eq(shifted.value_on(m), as_table.get(m, ring.zero()))
    assert ring.eq(shifted.value_on(t(ladder, 4)),
                   ring.scale(Fraction(5), ring.exp(ring.scale(Fraction(4), z))))


def test_metric_distance(ladder):
    zero = TableFunctional(ladder, QQ, {})
    xi = TableFunctional(ladder, QQ, {Monomial.unit(): Fraction(1)})
    d, tail = metric_distance(xi, zero, 5)
    assert d == 1  # only x_0 = 1 contributes, with weight 2^0
    assert tail == Fraction(2, 2**5)
    assert metric_distance(xi, xi, 5)[0] == 0
    rng = random.Random(8)
    for _ in range(5):
        f = TableFunctional(
            ladder,
            QQ,
            {m: Fraction(rng.randint(-3, 3)) for m in ladder.basis_up_to(3)},
        )
        g = TableFunctional(
            ladder,
            QQ,
            {m: Fraction(rng.randint(-3, 3)) for m in ladder.basis_up_to(3)},
        )
        assert metric_distance(f, g, 8) == metric_distance(g, f, 8)
        # triangle inequality at matching cutoffs
        h = TableFunctional(ladder, QQ, {})
        dfg = metric_distance(f, g, 8)[0]
        assert dfg <= metric_distance(f, h, 8)[0] + metric_distance(h, g, 8)[0]


def test_metric_distance_reaches_high_degree_generators():
    # The first three monomials of Q[x], deg x = 10, are 1, x, x^2.
    x = Generator(10, "x")
    ctx = HopfAlgebra(TableSchema("x10", [x], {}))
    d, tail = metric_distance(Character(ctx, QQ, {x: Fraction(1)}), TableFunctional(ctx, QQ, {}), 3)
    assert (d, tail) == (Fraction(7, 4), Fraction(1, 4))
    # Without generators the unit is the whole basis and the scan stops.
    bare = HopfAlgebra(TableSchema("bare", [], {}))
    d, _ = metric_distance(Character(bare, QQ, {}), TableFunctional(bare, QQ, {}), 3)
    assert d == 1


def test_the_degree_floor_is_a_domain_error_in_every_entry_point(ladder):
    from hopfalg.axioms import verify_axioms
    from hopfalg.birkhoff import birkhoff_decompose

    eps = EPS_RING
    z = InfinitesimalCharacter(ladder, QQ, {ladder.schema.generator(1): 1})
    phi = Character(ladder, eps, {ladder.schema.generator(1): eps.monomial(-1)})
    for call in (lambda: exp_star(z, 0), lambda: birkhoff_decompose(phi, 0), lambda: verify_axioms(ladder, 0)):
        with pytest.raises(DomainError, match="^max_degree must be >= 1$"):
            call()


def test_metric_needs_rationals(ladder):
    ring = EPS_RING
    f = Character(ladder, ring, {})
    with pytest.raises(UnsupportedRingError):
        metric_distance(f, f, 3)


def test_nilpotence_of_convolution_powers(ladder):
    rng = random.Random(77)
    for _ in range(10):
        for n in range(1, 5):
            zs = [random_inf(ladder, rng) for _ in range(n + 1)]
            conv = ConvolutionProduct(zs)
            for m in ladder.basis_up_to(n):
                assert conv.value_on(m) == 0


def test_permanent_formula_against_brute_force(ladder):
    # Route A: evaluate the convolution through the flat iterated coproduct.
    # Route B: the permutation-sum formula. They must agree exactly.
    rng = random.Random(41)
    gens = [gen(ladder, n) for n in (1, 2, 3)]
    for _ in range(10):
        for n in (2, 3, 4):
            zs = [random_inf(ladder, rng, max_degree=4) for _ in range(n)]
            for picks in _products(gens, n):
                m = Monomial.from_powers((g, 1) for g in picks)
                brute = ConvolutionProduct(zs).value_on(m)
                formula = Fraction(0)
                for sigma in permutations(range(n)):
                    prod = Fraction(1)
                    for j, g in enumerate(picks):
                        prod *= zs[sigma[j]].value_on(Monomial.of(g))
                    formula += prod
                assert brute == formula


def _products(gens, n):
    if n == 0:
        yield ()
        return
    for rest in _products(gens, n - 1):
        for g in gens:
            yield rest + (g,)


def test_vanishing_on_longer_products(ladder):
    rng = random.Random(13)
    g1 = gen(ladder, 1)
    for n in (1, 2, 3):
        zs = [random_inf(ladder, rng) for _ in range(n)]
        for m_len in range(n + 1, n + 3):
            m = Monomial.of(g1, m_len)
            assert ConvolutionProduct(zs).value_on(m) == 0


def test_separation(ladder):
    # For each basis monomial (each forest, on trees), the dual-basis
    # infinitesimal characters of its factors give a convolution product that
    # does not vanish on it.
    for ctx in (ladder, HopfAlgebra(rooted_tree_schema(5))):
        for m in ctx.basis_up_to(4):
            if m.is_unit:
                continue
            factors = []
            for g, e in m.powers:
                factors.extend([g] * e)
            zs = [
                InfinitesimalCharacter(ctx, QQ, {g: Fraction(1)}) for g in factors
            ]
            assert ConvolutionProduct(zs).value_on(m) != 0


def test_s_star_antihomomorphism(ladder):
    rng = random.Random(19)
    chi1 = ladder_char(ladder, {1: 2, 2: -1, 3: 4})
    chi2 = ladder_char(ladder, {1: 1, 2: 3, 3: -2})

    def s_star(f):
        return TableFunctional(
            ladder,
            QQ,
            {m: pair(f, ladder.antipode_monomial(m)) for m in ladder.basis_up_to(4)},
        )

    lhs = s_star(convolve(chi1, chi2))
    rhs = convolve(s_star(chi2), s_star(chi1))
    for m in ladder.basis_up_to(4):
        assert lhs.value_on(m) == rhs.value_on(m)


def test_group_like_and_primitive_characterizations(ladder):
    # Multiplicativity as the testable group-like property.
    chi = ladder_char(ladder, {1: 2, 2: 3})
    z = ladder_inf(ladder, {1: 4, 2: -1})
    eps = counit_functional(ladder, QQ)
    for m1 in ladder.basis_up_to(3):
        for m2 in ladder.basis_up_to(3):
            assert chi.value_on(m1 * m2) == chi.value_on(m1) * chi.value_on(m2)
            lhs = z.value_on(m1 * m2)
            rhs = z.value_on(m1) * eps.value_on(m2) + eps.value_on(m1) * z.value_on(m2)
            assert lhs == rhs


# -- character tabulation against value_on ----------------------------------------


@lru_cache(maxsize=None)
def tabulation_context(name):
    schema, degree = {"ladder": (ladder_schema, 8), "trees": (lambda: rooted_tree_schema(6), 6),
                      "binomial": (lambda: schema_from_dict(binomial_schema(6), name="binomial"), 6)}[name]
    return HopfAlgebra(schema(), validate_to=degree), degree


LQ = EPS_RING
small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def generator_values(draw, ring):
    """A generator value: over Q any rational, zero included; over Laurent an
    exact or truncated series, exact and truncated zeros included."""
    if ring is QQ:
        return draw(small_rationals)
    trunc = draw(st.one_of(st.none(), st.integers(min_value=-1, max_value=3)))
    coeffs = draw(st.dictionaries(st.integers(min_value=-2, max_value=3), small_rationals, max_size=3))
    return LQ.make(coeffs, trunc)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(["ladder", "trees", "binomial"]), ring=st.sampled_from([QQ, LQ]), data=st.data())
def test_character_tabulation_equals_value_on(name, ring, data):
    ctx, top = tabulation_context(name)
    degree = data.draw(st.integers(min_value=1, max_value=top))
    values = {}
    for g in ctx.schema.generators_up_to(degree):
        if data.draw(st.booleans()):  # otherwise the generator is missing: value zero
            values[g] = data.draw(generator_values(ring))
    cutoff = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=degree)))
    chi = Character(ctx, ring, values, cutoff)
    monomials = data.draw(st.lists(st.sampled_from(ctx.basis_up_to(degree)), unique=True))
    want, raised = {}, None
    try:
        for m in monomials:
            if (v := chi.value_on(m)) != ring.zero():
                want[m] = v
    except CutoffExceededError as exc:
        raised = str(exc)
    if raised is None:
        assert chi.tabulate(monomials) == want
    else:
        with pytest.raises(CutoffExceededError) as exc:
            chi.tabulate(monomials)
        assert str(exc.value) == raised


def test_character_tabulation_makes_one_product_per_monomial(ladder, monkeypatch):
    chi = Character(ladder, LQ, {gen(ladder, n): LQ.make({-1: n, 2: 1}, 4) for n in range(1, 6)})
    basis = ladder.basis_up_to(5)
    products = []
    ring_mul = LaurentRing.mul

    def counting(self, a, b):
        products.append(1)
        return ring_mul(self, a, b)

    monkeypatch.setattr(LaurentRing, "mul", counting)
    table = chi.tabulate(reversed(basis))
    assert len(products) == sum(1 for m in basis if m.poly_degree > 1)
    assert table == {m: chi.value_on(m) for m in basis}


# -- the flat oracle against its per-term loop ---------------------------------------


def reference_value_on(conv, m):
    """ConvolutionProduct.value_on as it multiplied every term out leg by leg,
    calling each factor on every leg it reached, until the product was an
    exact zero."""
    n = len(conv.factors)
    if n == 1:
        return conv.factors[0].value_on(m)
    tensor = conv.ctx.iterated_coproduct_monomial(m, n - 1)
    zero = conv.ring.zero()
    total = zero
    for key, c in tensor.terms.items():
        prod = conv.ring.from_rational(c)
        for f, leg in zip(conv.factors, key):
            if prod == zero:
                break
            prod = conv.ring.mul(prod, f.value_on(leg))
        total = conv.ring.add(total, prod)
    return total


@lru_cache(maxsize=None)
def oracle_context(name):
    if name == "ladder":
        return HopfAlgebra(ladder_schema(), validate_to=5), 5
    return HopfAlgebra(rooted_tree_schema(4)), 4


@contextmanager
def fast_paths_forbidden():
    """ring.dot, convolve_tables and tabulate raise; a Laurent product may
    still reach LaurentRing.dot from inside LaurentRing.mul, its one-triple case."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the flat oracle reached a fast path")

    in_mul = []
    laurent_mul, laurent_dot = LaurentRing.mul, LaurentRing.dot

    def mul(self, a, b):
        in_mul.append(1)
        try:
            return laurent_mul(self, a, b)
        finally:
            in_mul.pop()

    def dot(self, terms):
        if not in_mul:
            forbidden()
        return laurent_dot(self, terms)

    with pytest.MonkeyPatch.context() as mp:
        for owner, name in ((duals, "convolve_tables"), (Functional, "tabulate"), (Character, "tabulate"),
                            (RationalField, "dot"), (Ring, "dot")):
            mp.setattr(owner, name, forbidden)
        mp.setattr(LaurentRing, "mul", mul)
        mp.setattr(LaurentRing, "dot", dot)
        yield


def count_calls(f, calls):
    """Count f.value_on per leg in ``calls``, on the instance only."""
    value_on = f.value_on

    def counted(leg):
        calls[leg] = calls.get(leg, 0) + 1
        return value_on(leg)

    f.value_on = counted


_coefficients = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)}))
_exact_series = st.dictionaries(st.integers(min_value=-3, max_value=2), _coefficients, min_size=1, max_size=3)
_truncations = st.integers(min_value=-2, max_value=3)
# A functional value: over Q an int or a Fraction, zero included; over
# Laurent an exact zero, a truncated zero, or a series with a likely pole,
# mostly exact so that a truncated zero sets the window of its sum.
ORACLE_VALUES = {
    QQ: st.one_of(st.integers(min_value=-3, max_value=3), _coefficients),
    LQ: st.one_of(
        st.just(LQ.zero()),
        _truncations.map(lambda trunc: LQ.make({}, trunc)),
        _truncations.map(lambda trunc: LQ.make({}, trunc)),
        _exact_series.map(lambda coeffs: LQ.make(coeffs, None)),
        _exact_series.map(lambda coeffs: LQ.make(coeffs, None)),
        _exact_series.map(lambda coeffs: LQ.make(coeffs, None)),
        st.builds(LQ.make, _exact_series, _truncations),
    ),
}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(["ladder", "trees"]), ring=st.sampled_from([QQ, LQ]), data=st.data())
def test_flat_oracle_matches_the_per_term_loop(name, ring, data):
    ctx, degree = oracle_context(name)
    gens = ctx.schema.generators_up_to(degree)
    basis = ctx.basis_up_to(degree)
    cutoffs = st.one_of(st.none(), st.none(), st.none(), st.integers(min_value=0, max_value=degree))
    values = ORACLE_VALUES[ring]

    pool = []
    for kind in data.draw(st.lists(st.sampled_from(["character", "infinitesimal", "table"]), min_size=1, max_size=4)):
        if kind == "table":
            pool.append(TableFunctional(ctx, ring, data.draw(st.dictionaries(st.sampled_from(basis), values, max_size=8))))
        else:
            cls = Character if kind == "character" else InfinitesimalCharacter
            gen_values = dict(zip(gens, data.draw(st.lists(values, min_size=len(gens), max_size=len(gens)))))
            pool.append(cls(ctx, ring, gen_values, data.draw(cutoffs)))
    # A functional may appear more than once; it is still evaluated once per leg.
    factors = [pool[i] for i in data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=4))]
    conv = ConvolutionProduct(factors)
    m = data.draw(st.sampled_from(ctx.monomials_of_degree(data.draw(st.sampled_from(range(1, degree + 1))))))

    want = raised = None
    try:
        want = reference_value_on(conv, m)
    except CutoffExceededError as exc:
        raised = str(exc)
    calls = {id(f): {} for f in pool}
    for f in pool:
        count_calls(f, calls[id(f)])
    with fast_paths_forbidden():
        if raised is None:
            got = conv.value_on(m)
        else:
            with pytest.raises(CutoffExceededError) as exc:
                conv.value_on(m)
            assert str(exc.value) == raised
    if raised is None:
        assert got == want  # a series compares its truncation too
    assert all(n == 1 for per_leg in calls.values() for n in per_leg.values())


def test_every_caller_reads_the_binary_kernel_off_duals():
    """No module but ``duals`` imports ``convolve_tables`` or ``bogoliubov`` by
    name: each calls them off ``duals``, so a stand-in set on ``duals`` reaches
    every layer."""
    package = Path(duals.__file__).parent
    found = sorted(
        f"{path.stem}:{node.lineno}"
        for path in package.glob("*.py") if path.stem != "duals"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "duals"
        and any(alias.name in ("convolve_tables", "bogoliubov") for alias in node.names)
    )
    assert (package / "rg.py").exists()
    assert found == []
