"""The scale flow of ``rg_limit_check`` against the computation it replaced.

``reference_rg_limit_check`` is the flow as it was computed before the flow
moved to Q: theta_(t eps) applied to phi as a Laurent series in eps over
Q[t], carried to order K = pole + eps_margin, and phi^(-1) * theta_(t eps)(phi)
convolved in that ring, here a schoolbook ring of this file over Q[t]
tuples of its own.  Its witnesses, flow table, certified order and truncation
error must be the engine's.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hopfalg import duals
from hopfalg.duals import Character, InfinitesimalCharacter, compose_antipode, scale_by_degree
from hopfalg.errors import TruncationError
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema
from hopfalg.rg import build_special_loop, rg_limit_check
from hopfalg.rings import EPS_RING, QQ, LaurentSeries
from hopfalg.trees import rooted_tree_schema
from test_hopf import binomial_schema

L = EPS_RING


def poly_add(p, q):
    """p + q on coefficient tuples indexed by t exponent, trailing zeros stripped."""
    out = [0] * max(len(p), len(q))
    for k, c in [*enumerate(p), *enumerate(q)]:
        out[k] += c
    while out and not out[-1]:
        out.pop()
    return tuple(Fraction(c).numerator if Fraction(c).denominator == 1 else c for c in out)


def poly_mul(c, p, q):
    """c p q, term by term."""
    out = ()
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out = poly_add(out, (0,) * (i + j) + (c * x * y,))
    return out


def poly_format(p):
    """p as rg-check writes a witness: nonzero terms "c*t^k" joined by " + "."""
    terms = []
    for k, c in enumerate(p):
        if c:
            text = str(c)
            terms.append(text if k == 0 else ("" if text == "1" else f"{text}*") + ("t" if k == 1 else f"t^{k}"))
    return " + ".join(terms) or "0"


class SeriesOverPolynomials:
    """Laurent series in eps over Q[t], term by term: the values are
    LaurentSeries whose coefficients are Q[t] tuples.  A sum of products is
    sound through the lowest exponent that an unknown coefficient of one
    factor reaches against the other, as in ``LaurentRing.dot``."""

    var = "eps"

    def zero(self):
        return LaurentSeries((), None)

    def one(self):
        return LaurentSeries(((0, (1,)),), None)

    def is_exact_zero(self, a):
        return not a.coeffs and a.trunc is None

    def make(self, coeffs, trunc):
        return LaurentSeries(tuple(sorted((k, p) for k, p in coeffs.items() if p and (trunc is None or k <= trunc))),
                             trunc)

    def lift(self, v):
        return LaurentSeries(tuple((k, (c,)) for k, c in v.coeffs), v.trunc)

    def dot(self, terms):
        out, trunc = {}, None
        for c, a, b in terms:
            for x, y in ((a, b), (b, a)):
                low_y = y.coeffs[0][0] if y.coeffs else None if y.trunc is None else y.trunc + 1
                if x.trunc is not None and low_y is not None and (trunc is None or x.trunc + low_y < trunc):
                    trunc = x.trunc + low_y
            for i, x in a.coeffs:
                for j, y in b.coeffs:
                    out[i + j] = poly_add(out.get(i + j, ()), poly_mul(c, x, y))
        return self.make(out, trunc)

    def mul(self, a, b):
        return self.dot([(1, a, b)])

    def coefficient(self, a, k):
        if a.trunc is not None and k > a.trunc:
            raise TruncationError(f"coefficient of {self.var}^{k} requested but the series is only sound through "
                                  f"order {a.trunc}", required_order=k)
        return dict(a.coeffs).get(k, ())


def reference_rg_limit_check(phi, max_degree, eps_margin):
    """The witnesses, flow table and certified order of phi^(-1) * theta_(t eps)(phi)
    computed over Q[t], as ``rg_limit_check`` computed them before."""
    ctx, ring = phi.ctx, phi.ring
    work = SeriesOverPolynomials()
    basis = ctx.basis_up_to(max_degree)
    phi_vals = phi.tabulate(basis)
    order = max(ring.pole_order(v) for v in phi_vals.values()) + eps_margin
    # theta_(t eps) by degree: exp(j t eps) = sum_k (j t)^k / k! eps^k, to eps^order.
    thetas = [work.make({k: poly_add((0,) * k + (Fraction(j ** k, factorial(k)),), ()) for k in range(order + 1)}, order)
              for j in range(max_degree + 1)]
    phi_inverse = {m: work.lift(v) for m, v in compose_antipode(ctx, ring, phi_vals, basis).items()}
    phi_scaled = scale_by_degree(work, {m: work.lift(v) for m, v in phi_vals.items()}, thetas)
    values = duals.convolve_tables(ctx, work, phi_inverse, phi_scaled, basis)

    witnesses, flow = [], {}
    for m in basis:
        value = values.get(m, work.zero())
        for k, coeff in value.coeffs:
            if k < 0:
                witnesses.append({"monomial": str(m), "exponent": k, "coefficient": poly_format(coeff)})
        flow[m] = work.coefficient(value, 0)
    return witnesses, flow, eps_margin


@lru_cache(maxsize=None)
def context(name):
    schema, degree = {"ladder": (ladder_schema, 5), "trees:4": (lambda: rooted_tree_schema(4), 4),
                      "binomial": (lambda: binomial_schema(4), 4)}[name]
    return HopfAlgebra(schema(), validate_to=degree), degree


coefficients = st.sampled_from(sorted({Fraction(n, d) for n in range(-3, 4) for d in (1, 2)}))


@st.composite
def loops(draw):
    """(loop, degree): a special loop built from a random beta or a random
    non-special one with poles of order up to 2, exact or truncated."""
    ctx, top = context(draw(st.sampled_from(["ladder", "trees:4", "binomial"])))
    degree = draw(st.integers(min_value=1, max_value=top))
    gens = ctx.schema.generators_up_to(degree)
    if draw(st.booleans()):
        beta = InfinitesimalCharacter(ctx, QQ, {g: draw(coefficients) for g in gens}, cutoff=degree)
        values = build_special_loop(beta, degree).gen_values
    else:
        exps = st.integers(min_value=-2, max_value=2)
        values = {g: L.make(draw(st.dictionaries(exps, coefficients, max_size=3)), None) for g in gens}
    if draw(st.booleans()):
        values = {g: L.make(dict(v.coeffs), draw(st.integers(min_value=-2, max_value=3))) for g, v in values.items()}
    return Character(ctx, L, values, cutoff=degree), degree


@settings(max_examples=80, deadline=None)
@given(loop=loops(), eps_margin=st.integers(min_value=0, max_value=3))
def test_the_flow_matches_the_computation_over_polynomials(loop, eps_margin):
    phi, degree = loop
    try:
        want = reference_rg_limit_check(phi, degree, eps_margin)
    except TruncationError as expected:
        with pytest.raises(TruncationError) as raised:
            rg_limit_check(phi, degree, eps_margin)
        assert (str(raised.value), raised.value.required_order) == (str(expected), expected.required_order)
        event("truncation error")
        return
    report = rg_limit_check(phi, degree, eps_margin)
    assert (report.witnesses, report.flow_table, report.certified_order) == want
    event("special" if report.special else "witnesses")
