"""The Butcher group (Brouder, hep-th/9904014): a Runge-Kutta method is a
character of the rooted trees, its elementary weights.  The exact flow is
exp of the one-vertex indicator, and the convolution inverse of a method,
with the sign (-1)^|t|, is its adjoint method."""

from fractions import Fraction

import pytest

from closed_forms import RK4, adjoint_tableau, elementary_weight
from hopfalg.algebra import Monomial
from hopfalg.duals import Character, InfinitesimalCharacter, exp_star
from hopfalg.functionals import character_inverse
from hopfalg.hopf import HopfAlgebra
from hopfalg.rings import QQ
from hopfalg.trees import rooted_tree_schema
from perfbench.oracles import parse_tree

# Ralston's second-order method.  RK4 is of order 4, so its adjoint has its own
# weights on every tree with at most 5 vertices; Ralston's adjoint does not.
RALSTON = (((Fraction(0), Fraction(0)), (Fraction(2, 3), Fraction(0))), (Fraction(1, 4), Fraction(3, 4)))


@pytest.fixture(scope="module")
def trees():
    return HopfAlgebra(rooted_tree_schema(5))


def method(ctx, tableau):
    return Character(ctx, QQ, {g: elementary_weight(tableau, parse_tree(g.name))
                               for g in ctx.schema.generators_up_to(5)})


def test_rk4_is_the_exact_flow_on_every_tree_with_at_most_4_vertices(trees):
    exact = exp_star(InfinitesimalCharacter(trees, QQ, {trees.schema.generator_by_name("[]"): Fraction(1)}), 5)
    rk4 = method(trees, RK4)
    gens = trees.schema.generators_up_to(5)
    agree = [g for g in gens if rk4.value_on(Monomial.of(g)) == exact.value_on(Monomial.of(g))]
    assert agree == [g for g in gens if g.degree <= 4] and len(gens) == 17


@pytest.mark.parametrize("tableau", [RK4, RALSTON], ids=["rk4", "ralston"])
def test_the_signed_convolution_inverse_of_a_method_is_its_adjoint(trees, tableau):
    inverse = character_inverse(method(trees, tableau), 5)
    adjoint = adjoint_tableau(tableau)
    for g in trees.schema.generators_up_to(5):
        signed = (-1) ** g.degree * inverse.value_on(Monomial.of(g))
        assert signed == elementary_weight(adjoint, parse_tree(g.name)), g.name
