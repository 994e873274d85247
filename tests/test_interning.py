"""The basis is interned: one object per generator, monomial and rooted tree."""

import copy
import functools
import operator
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import binomial_schema
from hopfalg.algebra import Generator, Monomial
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema, schema_from_dict
from hopfalg.trees import RootedTree, parse_tree, rooted_tree_schema

SCHEMAS = {
    "ladder-8": (ladder_schema, 8),
    "trees-6": (lambda: rooted_tree_schema(6), 6),
    "binomial-7": (lambda: schema_from_dict(binomial_schema(7), name="binomial"), 7),
}


@functools.lru_cache(maxsize=None)
def context(name):
    schema, degree = SCHEMAS[name]
    return HopfAlgebra(schema(), validate_to=degree), degree


def rebuilt(m):
    """An equal monomial from fresh objects: new name strings, generators
    rebuilt by value, exponent-1 factors in reverse order."""
    pairs = [(Generator(g.degree, "".join(list(g.name))), 1) for g, e in m.powers for _ in range(e)]
    return Monomial.from_powers(reversed(pairs))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SCHEMAS)), data=st.data())
def test_equal_monomials_are_one_object(name, data):
    ctx, degree = context(name)
    basis = ctx.basis_up_to(degree)
    a = data.draw(st.sampled_from(basis))
    b = data.draw(st.sampled_from(basis))
    assert rebuilt(a) is a and Monomial(tuple(list(a.powers))) is a
    assert Monomial.from_powers(a.powers + b.powers) is a * b is b * a
    assert functools.reduce(operator.mul, (Monomial.of(g) for g, e in a.powers for _ in range(e)),
                            Monomial.unit()) is a
    for g, e in a.powers:
        assert Generator(g.degree, "".join(list(g.name))) is g
        assert Monomial.of(g, e) is Monomial.from_powers([(g, e)]) is rebuilt(Monomial.of(g, e))
    for left, right in ctx.coproduct_monomial(a).terms:
        assert rebuilt(left) is left and rebuilt(right) is right
    for m in ctx.antipode_monomial(a).terms:
        assert rebuilt(m) is m


def test_generators_are_shared_across_schema_builds():
    first, second = ladder_schema(), ladder_schema()
    assert first is not second
    assert all(first.generator(n) is second.generator(n) is Generator(n, f"t{n}") for n in range(1, 9))
    first, second = rooted_tree_schema(6), rooted_tree_schema(6)
    assert first is not second
    for g, h in zip(first.generators_up_to(6), second.generators_up_to(6), strict=True):
        assert g is h is Generator(g.degree, g.name)
        for s, t in zip(first.reduced_terms(g), second.reduced_terms(h), strict=True):
            assert s.left is t.left and s.right is t.right


def test_racing_threads_build_one_object():
    threads, rounds = 8, 30
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for r in range(rounds):
            barrier = threading.Barrier(threads)
            built = [None] * threads

            def build(i, r=r, barrier=barrier, built=built):
                barrier.wait(timeout=10)
                g = Generator(3, f"race{r}")
                built[i] = (g, Monomial.from_powers([(g, 2), (Generator(1, f"race{r}-x"), 1)]))

            workers = [threading.Thread(target=build, args=(i,)) for i in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)
            assert len({id(g) for g, _ in built}) == 1
            assert len({id(m) for _, m in built}) == 1
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_and_pickles_return_the_interned_object(clone):
    ctx, _ = context("trees-6")
    basis = ctx.basis_up_to(6)
    tree = parse_tree("[[[]][]]")
    for x in (basis[-1], basis[0], basis[-1].powers[0][0], tree, RootedTree.leaf()):
        assert clone(x) is x
    table = {m: i for i, m in enumerate(basis)}
    assert all(m is basis[i] for m, i in clone(table).items())
