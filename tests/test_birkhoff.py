"""Minimal subtraction, Birkhoff factorization, beta-function machinery."""

import importlib
import inspect
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from closed_forms import connes_moscovici_schema, dyson_schwinger_schema, rescaled_binomial_schema
from hopfalg.algebra import Monomial
from hopfalg.birkhoff import BirkhoffPair, birkhoff_decompose, birkhoff_verification_report, rota_baxter_T
from hopfalg.duals import (
    Character,
    InfinitesimalCharacter,
    TableFunctional,
    compose_antipode,
    convolve_tables,
    exp_star,
    grading_transpose,
    log_star,
    materialize,
)
from hopfalg.errors import CutoffExceededError, DomainError, TruncationError, UnsupportedRingError, VerificationError
from hopfalg.exp_integrals import finite_simplex_integral
from hopfalg.functionals import character_inverse
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema, schema_from_dict
from hopfalg.rg import (
    _flow_is_additive,
    _flow_matches_exponential,
    beta_data,
    build_special_loop,
    counterterm_tower,
    dn_recursive,
    dn_simplex,
    residue,
    rg_limit_check,
    scattering_check,
    simplex_weight,
)
from hopfalg.rings import EPS_RING, QQ, RationalField
from hopfalg.trees import rooted_tree_schema

L = EPS_RING


@pytest.fixture(scope="module")
def trees():
    return HopfAlgebra(rooted_tree_schema(4))


def lau(coeffs, trunc=None):
    return L.make({k: Fraction(v) for k, v in coeffs.items()}, trunc)


def gen(ladder, n):
    return ladder.schema.generator(n)


def t(ladder, n, exp=1):
    return Monomial.of(gen(ladder, n), exp)


def laurent_char(ladder, values, cutoff=None):
    return Character(
        ladder, L, {gen(ladder, n): v for n, v in values.items()}, cutoff=cutoff
    )


def ladder_beta(ladder, values, cutoff=5):
    return InfinitesimalCharacter(
        ladder, QQ, {gen(ladder, n): Fraction(v) for n, v in values.items()}, cutoff
    )


# -- minimal subtraction ---------------------------------------------------------


def test_T_splits_by_sign_of_exponent():
    x = lau({-1: 1, 0: 2, 1: 1})
    assert rota_baxter_T(L, x).as_dict() == {-1: 1}
    assert rota_baxter_T(L, lau({0: 3})).as_dict() == {}


def test_T_is_idempotent_projector():
    rng = random.Random(4)
    for _ in range(50):
        x = lau({k: rng.randint(-3, 3) for k in range(-3, 4)})
        tx = rota_baxter_T(L, x)
        assert rota_baxter_T(L, tx) == tx
        rest = L.sub(x, tx)
        assert all(k >= 0 for k in rest.as_dict())


def test_rota_baxter_identity_hand_example():
    # a = 1/eps + 1, b = 1/eps - 1, both sides expanded by hand:
    # ab = 1/eps^2 - 1;  T(ab) = 1/eps^2; (Ta)(Tb) = 1/eps^2;
    # (Ta)b + a(Tb) = 2/eps^2 stays after T. Both sides: 2/eps^2.
    a, b = lau({-1: 1, 0: 1}), lau({-1: 1, 0: -1})
    lhs = L.add(rota_baxter_T(L, L.mul(a, b)), L.mul(rota_baxter_T(L, a), rota_baxter_T(L, b)))
    rhs = rota_baxter_T(
        L, L.add(L.mul(rota_baxter_T(L, a), b), L.mul(a, rota_baxter_T(L, b)))
    )
    assert lhs == rhs
    assert lhs.as_dict() == {-2: 2}


def test_rota_baxter_identity_randomized():
    rng = random.Random(17)
    for _ in range(100):
        a = lau({k: rng.randint(-4, 4) for k in rng.sample(range(-3, 4), 3)})
        b = lau({k: rng.randint(-4, 4) for k in rng.sample(range(-3, 4), 3)})
        lhs = L.add(
            rota_baxter_T(L, L.mul(a, b)),
            L.mul(rota_baxter_T(L, a), rota_baxter_T(L, b)),
        )
        rhs = rota_baxter_T(
            L, L.add(L.mul(rota_baxter_T(L, a), b), L.mul(a, rota_baxter_T(L, b)))
        )
        assert lhs == rhs


# -- Birkhoff decomposition -------------------------------------------------------


def test_birkhoff_primitive_pole(ladder):
    phi = laurent_char(ladder, {1: lau({-1: 1})})
    pair = birkhoff_decompose(phi, 3)
    assert pair.minus_table[t(ladder, 1)].as_dict() == {-1: -1}
    assert pair.plus_table[t(ladder, 1)].as_dict() == {}
    assert pair.report["passed"]


def test_birkhoff_splits_constant(ladder):
    phi = laurent_char(ladder, {1: lau({-1: 1, 0: 5})})
    pair = birkhoff_decompose(phi, 2)
    assert pair.minus_table[t(ladder, 1)].as_dict() == {-1: -1}
    assert pair.plus_table[t(ladder, 1)].as_dict() == {0: 5}


def test_birkhoff_worked_t2_example(ladder):
    # phi(t1) = 1/eps, phi(t2) = 1/eps^2: the bracket for t2 is
    # 1/eps^2 + (-1/eps)(1/eps) = 0, so both parts vanish, and the
    # reconstruction on t2 returns exactly 1/eps^2.
    phi = laurent_char(ladder, {1: lau({-1: 1}), 2: lau({-2: 1})})
    pair = birkhoff_decompose(phi, 3)
    assert pair.minus_table[t(ladder, 2)].as_dict() == {}
    assert pair.plus_table[t(ladder, 2)].as_dict() == {}
    report = pair.report
    assert report["checks"]["reconstruction"]["passed"]
    minus_inverse = compose_antipode(ladder, L, pair.minus_table, ladder.basis_up_to(2))
    recon = L.zero()
    for (m1, m2), c in ladder.coproduct_monomial(t(ladder, 2)).terms.items():
        left = minus_inverse.get(m1, L.zero())
        recon = L.add(recon, L.scale(c, L.mul(left, pair.plus_table[m2])))
    assert recon.as_dict() == {-2: 1}


def test_birkhoff_seeded_random_loops(ladder):
    rng = random.Random(2024)
    for _ in range(8):
        values = {}
        for n in range(1, 5):
            coeffs = {k: Fraction(rng.randint(-3, 3)) for k in range(-2, 2)}
            values[n] = lau(coeffs)
        phi = laurent_char(ladder, values)
        pair = birkhoff_decompose(phi, 4)
        assert pair.report["passed"]


def test_birkhoff_on_trees(trees):
    rng = random.Random(55)
    values = {}
    for g in trees.schema.generators_up_to(3):
        values[g] = L.make(
            {k: Fraction(rng.randint(-2, 2)) for k in range(-1, 2)}, None
        )
    phi = Character(trees, L, values)
    pair = birkhoff_decompose(phi, 3)
    assert pair.report["passed"]


def test_birkhoff_budget_rejects_underresolved(ladder):
    # pole order 2, degree 4 recursion: finite truncation below
    # (4-1)*2 = 6 must be rejected with the required order reported.
    phi = laurent_char(
        ladder, {n: lau({-2: 1}, trunc=3) for n in range(1, 5)}
    )
    with pytest.raises(TruncationError) as err:
        birkhoff_decompose(phi, 4)
    assert err.value.required_order == 6


def test_birkhoff_accepts_adequate_truncation(ladder):
    phi = laurent_char(
        ladder, {n: lau({-1: 1, 0: 2}, trunc=8) for n in range(1, 5)}
    )
    pair = birkhoff_decompose(phi, 4)
    assert pair.report["passed"]


def test_perturbed_minus_breaks_reconstruction(ladder):
    phi = laurent_char(ladder, {1: lau({-1: 1}), 2: lau({-2: 1})})
    pair = birkhoff_decompose(phi, 3)
    corrupted = dict(pair.minus_table)
    corrupted[t(ladder, 2)] = L.add(
        corrupted[t(ladder, 2)], lau({-1: 1})
    )
    bad = BirkhoffPair(ladder, L, 3, corrupted, dict(pair.plus_table))
    report = birkhoff_verification_report(phi, bad)
    assert not report["checks"]["reconstruction"]["passed"]
    assert not report["passed"]


def spitzer_birkhoff(phi, max_degree):
    """(phi_-, phi_+) by the BCH recursion of Ebrahimi-Fard, Guo and Kreimer
    (hep-th/0407082), a second algorithm: with u = log phi, R the pole part
    and R~ = id - R, chi_0 = u and chi_(k+1) = chi_k + u - BCH(R chi_k, R~ chi_k),
    where BCH(a, b) = log(exp a * exp b).  Each step makes chi exact one degree
    higher, and phi_- = exp(-R chi), phi_+ = exp(R~ chi).  It runs on exp, log
    and the binary convolution alone: no Bogoliubov subtraction, no antipode
    and no Birkhoff report."""
    ctx, ring, d = phi.ctx, phi.ring, max_degree
    basis = ctx.basis_up_to(d)

    def infinitesimal(values):
        return InfinitesimalCharacter(ctx, ring, values, cutoff=d)

    def mapped(z, f):
        return infinitesimal({g: f(v) for g, v in z.gen_values.items()})

    def bch(a, b):
        product = convolve_tables(ctx, ring, exp_star(a, d).tabulate(basis), exp_star(b, d).tabulate(basis), basis)
        return log_star(materialize(ctx, ring, product, d), d)

    u = chi = log_star(phi, d)
    zero = ring.zero()
    for _ in range(d):
        step = bch(mapped(chi, ring.pole_part), mapped(chi, ring.regular_part))
        chi = infinitesimal({g: ring.sub(ring.add(chi.gen_values.get(g, zero), u.gen_values.get(g, zero)),
                                         step.gen_values.get(g, zero))
                             for g in ctx.schema.generators_up_to(d)})
    return exp_star(mapped(chi, lambda v: ring.neg(ring.pole_part(v))), d), exp_star(mapped(chi, ring.regular_part), d)


SPITZER_CASES = {
    "trees:5": (lambda: rooted_tree_schema(5), 5),
    "ladder-6": (ladder_schema, 6),
    "dyson-schwinger-s1-5": (lambda: schema_from_dict(dyson_schwinger_schema(1, 5)), 5),
}


@pytest.fixture(scope="module", params=sorted(SPITZER_CASES))
def spitzer_case(request):
    schema, degree = SPITZER_CASES[request.param]
    return HopfAlgebra(schema(), validate_to=degree), degree


@settings(max_examples=2, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(seed=st.integers(0, 2**32 - 1))
def test_the_bch_recursion_gives_the_engines_birkhoff_factors(spitzer_case, seed):
    """By uniqueness, a pair that passes the engine's report is the Birkhoff
    decomposition, so a second algorithm guards the report as well as the
    construction.  Exact Laurent values with poles of order at most 2."""
    ctx, degree = spitzer_case
    rng = random.Random(seed)
    gens = ctx.schema.generators_up_to(degree)
    phi = Character(ctx, L, {g: lau({k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in range(-2, 2)})
                             for g in gens})
    pair = birkhoff_decompose(phi, degree)
    minus, plus = spitzer_birkhoff(phi, degree)
    ones = [Monomial.of(g) for g in gens]
    assert pair.phi_minus().tabulate(ones) == minus.tabulate(ones)
    assert pair.phi_plus().tabulate(ones) == plus.tabulate(ones)


@pytest.mark.parametrize("schema, degree", [(lambda: rooted_tree_schema(5), 5), (ladder_schema, 6)],
                         ids=["trees:5", "ladder-6"])
def test_the_factors_and_the_inverse_are_built_on_the_generators(schema, degree, monkeypatch):
    """With the certificates stubbed, the Birkhoff construction and the special
    loop read the reduced coproduct of the generators alone and no whole-basis
    convolution or tower, and the convolution inverse reads no antipode."""
    from hopfalg import birkhoff, duals, rg

    ctx = HopfAlgebra(schema(), validate_to=degree)
    reduced, read = HopfAlgebra.reduced_coproduct_terms, []

    def recorded(self, m):
        read.append(m)
        return reduced(self, m)

    def forbidden(self, m):
        raise AssertionError(f"S({m}) was read")

    def whole_basis(*args):
        raise AssertionError("a whole-basis convolution or tower was built")

    monkeypatch.setattr(birkhoff, "birkhoff_verification_report", lambda *args: {"checks": {}, "passed": True})
    monkeypatch.setattr(rg, "_residue_identity_holds", lambda *args: None)
    monkeypatch.setattr(rg, "counterterm_tower", whole_basis)
    monkeypatch.setattr(duals, "convolve_tables", whole_basis)
    monkeypatch.setattr(HopfAlgebra, "reduced_coproduct_terms", recorded)
    monkeypatch.setattr(HopfAlgebra, "antipode_monomial", forbidden)
    rng = random.Random(12)
    gens = ctx.schema.generators_up_to(degree)
    birkhoff_decompose(Character(ctx, L, {g: lau({k: rng.randint(-3, 3) for k in range(-2, 2)}) for g in gens}), degree)
    assert read and all(m.single_generator() is not None for m in read)
    assert character_inverse(Character(ctx, QQ, {g: Fraction(rng.randint(1, 3)) for g in gens}), degree).gen_values
    read.clear()
    assert build_special_loop(InfinitesimalCharacter(ctx, QQ, {g: Fraction(rng.randint(1, 3)) for g in gens}),
                              degree).gen_values
    assert read and all(m.single_generator() is not None for m in read)



@pytest.mark.parametrize("schema, degree", [(lambda: rooted_tree_schema(5), 5), (ladder_schema, 6)],
                         ids=["trees:5", "ladder-6"])
def test_the_birkhoff_and_rg_certificates_read_no_antipode(schema, degree, monkeypatch):
    """The whole of ``birkhoff_decompose``, report included, and
    ``rg_limit_check`` of a special loop give the same results with both
    antipode fills patched to raise, and leave both antipode memos empty."""
    ctx = HopfAlgebra(schema(), validate_to=degree)
    rng = random.Random(42)
    gens = ctx.schema.generators_up_to(degree)
    phi = Character(ctx, L, {g: lau({k: rng.randint(-3, 3) for k in range(-2, 2)}) for g in gens})
    loop = build_special_loop(InfinitesimalCharacter(ctx, QQ, {g: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                                               for g in gens}), degree)

    def run():
        pair, flow = birkhoff_decompose(phi, degree), rg_limit_check(loop, degree)
        assert pair.report["passed"] and flow.passed
        return pair.minus_table, pair.plus_table, pair.report, flow._replace(beta=flow.beta.gen_values)

    def forbidden(self, m):
        raise AssertionError(f"S({m}) was read")

    with monkeypatch.context() as patched:
        patched.setattr(HopfAlgebra, "antipode_monomial", forbidden)
        patched.setattr(HopfAlgebra, "antipode_left_monomial", forbidden)
        got = run()
    assert ctx._antipode_r == {} and ctx._antipode_l == {}
    assert got == run()


def test_the_report_reads_tables_that_leave_exact_zeros_out(ladder):
    """Tables keyed only where the value is not an exact zero, the convention
    of ``tabulate`` and ``convolve_tables``, get the report of the full tables."""
    phi = laurent_char(ladder, {1: lau({-1: 1}), 2: lau({-2: 1, 0: 3})})
    pair = birkhoff_decompose(phi, 3)
    sparse = [{m: v for m, v in table.items() if not L.is_exact_zero(v)} for table in (pair.minus_table, pair.plus_table)]
    assert len(sparse[0]) < len(pair.minus_table) and len(sparse[1]) < len(pair.plus_table)
    report = birkhoff_verification_report(phi, BirkhoffPair(ladder, L, 3, *sparse))
    assert report == pair.report and report["passed"]


def seeded_pair(schema, degree, truncated, seed):
    """A seeded Laurent character with poles of order 2, exact or truncated
    at the budget (degree - 1) * 2, and its Birkhoff pair."""
    ctx = HopfAlgebra(schema(), validate_to=degree)
    budget, rng = (degree - 1) * 2, random.Random(seed)
    top, trunc = (budget, budget) if truncated else (1, None)
    phi = Character(ctx, L, {g: lau({k: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for k in range(-2, top + 1)},
                                    trunc) for g in ctx.schema.generators_up_to(degree)})
    return phi, birkhoff_decompose(phi, degree)


@pytest.mark.parametrize("truncated", [False, True], ids=["exact", "truncated"])
@pytest.mark.parametrize("schema, degree", [(ladder_schema, 7), (lambda: rooted_tree_schema(6), 6)],
                         ids=["ladder-7", "trees:6"])
def test_the_reconstruction_witness_is_where_phi_leaves_the_antipode_form(schema, degree, truncated):
    """Perturb phi_+ or phi on one basis monomial, or phi_- on one generator:
    the first ``reconstruction`` witness, from phi_- * phi = phi_+, is the first
    monomial where phi differs from (phi_- o S) * phi_+.  Two exceptions, both
    kept here: phi_- perturbed on a product may move the witness, and then
    ``minus_multiplicative`` fails, and phi_+ perturbed above the sound window
    of phi_- * phi, which on a truncated pair can be narrower than phi_+'s, is
    not seen by this check."""
    phi, pair = seeded_pair(schema, degree, truncated, 7 * degree + truncated)
    ctx, zero = phi.ctx, L.zero()
    basis, rng = ctx.basis_up_to(degree), random.Random(degree)
    products = [m for m in basis[1:] if m.single_generator() is None]
    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(degree)]
    phi_table, minus, plus = phi.tabulate(basis), pair.minus_table, pair.plus_table

    def bumped(table, m, exponent):
        return {**table, m: L.add(table.get(m, zero), lau({exponent: rng.choice([-2, -1, 1, 3])}))}

    perturbed = ([("plus", m, e, (phi_table, minus, bumped(plus, m, e)))
                  for m in rng.sample(basis[1:], 6) for e in (0, 1)]
                 + [("phi", m, e, (bumped(phi_table, m, e), minus, plus)) for m in rng.sample(basis[1:], 4) for e in (-1, 0)]
                 + [("minus", m, -1, (phi_table, bumped(minus, m, -1), plus)) for m in rng.sample(gens, 4)]
                 + [("minus", m, -1, (phi_table, bumped(minus, m, -1), plus)) for m in rng.sample(products, 4)])
    for kind, m, exponent, (phi_values, minus_values, plus_values) in perturbed:
        antipode_form = convolve_tables(ctx, L, compose_antipode(ctx, L, minus_values, basis), plus_values, basis)
        expected = next((str(n) for n in basis if not L.eq(antipode_form.get(n, zero), phi_values.get(n, zero))), None)
        report = birkhoff_verification_report(TableFunctional(ctx, L, phi_values),
                                              BirkhoffPair(ctx, L, degree, minus_values, plus_values))
        witness = report["checks"]["reconstruction"]["witness"]
        window = convolve_tables(ctx, L, minus_values, phi_values, [m]).get(m, zero).trunc
        if kind == "plus" and window is not None and exponent > window:
            assert truncated and witness is None
        elif kind == "minus" and m in products and witness != expected:
            assert not report["checks"]["minus_multiplicative"]["passed"]
        else:
            assert witness == expected


# Functions of functionals read the Hopf algebra off their inputs (f.ctx);
# only functions of tables take a context.
READ_CONTEXT_FROM_INPUT = {
    "birkhoff": ("check_truncation_budget", "birkhoff_decompose", "birkhoff_verification_report"),
    "functionals": ("materialize_character",),
    "rg": ("beta_data", "residue", "counterterm_tower", "dn_recursive", "dn_simplex",
           "build_special_loop", "rg_limit_check", "scattering_check", "_beta_pairings"),
}


@pytest.mark.parametrize("module", sorted(READ_CONTEXT_FROM_INPUT))
def test_functions_of_functionals_take_no_context(module):
    owner = importlib.import_module(f"hopfalg.{module}")
    for name in READ_CONTEXT_FROM_INPUT[module]:
        assert "ctx" not in inspect.signature(getattr(owner, name)).parameters, name


def test_verification_report_refuses_a_pair_of_another_context(ladder, trees):
    pair = birkhoff_decompose(laurent_char(ladder, {1: lau({-1: 1})}), 2)
    other = Character(trees, L, {trees.schema.generator_by_name("[]"): lau({-1: 1})})
    with pytest.raises(DomainError):
        birkhoff_verification_report(other, pair)


def test_birkhoff_converts_each_series_to_integers_once(ladder, monkeypatch):
    # The table values (phi, phi_-, phi_+, phi_- o S) enter hundreds of
    # products; each is put over its common denominator once, on first use.
    rng = random.Random(8)
    phi = laurent_char(ladder, {n: lau({k: Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for k in range(-2, 3)})
                                for n in range(1, 7)})
    built, used = [], []
    field_operand, field_loop = RationalField.operand, RationalField.convolve_operands

    def operand(self, xs):
        built.append(xs)  # kept alive, so no two of them share an id
        return field_operand(self, xs)

    def loop(self, terms, n):
        used.extend(x for _, x, y in terms)
        used.extend(y for _, x, y in terms)
        return field_loop(self, terms, n)

    monkeypatch.setattr(RationalField, "operand", operand)
    monkeypatch.setattr(RationalField, "convolve_operands", loop)
    assert birkhoff_decompose(phi, 6).report["passed"]
    # Every zero series shares the empty tuple, so only nonzero ones are told apart.
    builds = Counter(id(xs) for xs in built if xs)
    assert builds and max(builds.values()) == 1
    assert 4 * len(built) < len(used)


# -- residue / beta / tower --------------------------------------------------------


def test_residue_reads_pole_coefficient(ladder):
    phi = laurent_char(ladder, {1: lau({-1: -1}), 2: lau({-1: 4, -2: 9})})
    d1 = residue(phi, 3)
    assert d1.value_on(t(ladder, 1)) == -1
    assert d1.value_on(t(ladder, 2)) == 4
    assert d1.value_on(Monomial.unit()) == 0
    # linear extension: residue of t1 + t2 is the sum of the residues
    h = ladder.monomial_element(t(ladder, 1)) + ladder.monomial_element(t(ladder, 2))
    assert sum(c * d1.value_on(m) for m, c in h.terms.items()) == -1 + 4


def test_residue_of_counit_loop_vanishes(ladder):
    phi = Character(ladder, L, {})
    d1 = residue(phi, 3)
    assert d1.table == {}
    data = beta_data(phi, 1, 3)
    assert data.beta.gen_values == {} and data.violations == []


def test_beta_scales_by_degree(ladder):
    phi = laurent_char(ladder, {1: lau({-1: 3}), 2: lau({-1: 5})})
    data = beta_data(phi, 1, 3)
    assert data.beta.value_on(t(ladder, 1)) == 3
    assert data.beta.value_on(t(ladder, 2)) == 10
    assert data.violations == []


def test_beta_reports_violations_on_products(ladder):
    # A residue supported on t1^2 is not an infinitesimal character:
    # (1/eps + 1)^2 has a first-order pole on the product monomial.
    bad = Character(ladder, L, {gen(ladder, 1): lau({-1: 1, 0: 1})})
    assert "t1^2" in beta_data(bad, 1, 3).violations


def test_a_loop_is_built_from_a_rational_beta_only(ladder):
    beta = InfinitesimalCharacter(ladder, L, {gen(ladder, 1): L.one()})
    with pytest.raises(UnsupportedRingError, match="^Laurent series are over Q only, not over laurent$"):
        build_special_loop(beta, 2)


@pytest.mark.parametrize("run, what", [
    (lambda f: birkhoff_decompose(f, 3), "the Birkhoff decomposition"),
    (lambda f: residue(f, 3), "the residue"),
    (lambda f: beta_data(f, 2, 3), "the residue"),
    (lambda f: rg_limit_check(f, 3), "the scale-flow limit"),
    # A Laurent table with no stored value: its pole order is 0, and the zero
    # functional is no loop.
    (lambda f: rg_limit_check(TableFunctional(f.ctx, L, {}), 3), None),
], ids=["birkhoff", "residue", "beta", "rg-limit", "rg-limit-of-no-value"])
def test_a_laurent_only_entry_point_fails_as_a_hopf_error(run, what, ladder):
    chi = Character(ladder, QQ, {gen(ladder, 1): 1, gen(ladder, 2): -2})
    if what is None:
        assert not run(chi).passed
        return
    with pytest.raises(UnsupportedRingError, match=f"^{what} needs Laurent series values, not rational ones$"):
        run(chi)


def test_beta_data_on_built_loop(ladder):
    beta = ladder_beta(ladder, {1: 3, 2: -2}, cutoff=4)
    loop = build_special_loop(beta, 4)
    data = beta_data(loop, 4, 4)
    assert data.passed
    for n in (1, 2):
        m = t(ladder, n)
        assert data.beta.value_on(m) == beta.value_on(m)
    # the literal residue seed matches the canonical tower
    d2 = dn_recursive(beta, 2, 4)
    for m in ladder.basis_up_to(4):
        assert data.d(2).value_on(m) == d2.value_on(m)


def test_beta_data_vs_rg_division_of_labor(ladder):
    # A loop whose eps^-2 data disagrees with the square of its residue:
    # the residue tower itself is well-defined (beta reads only the
    # first-order pole), but the scale-flow check flags non-specialness.
    bad = laurent_char(ladder, {1: lau({-1: 1}), 2: lau({-2: 5})})
    data = beta_data(bad, 3, 3)
    assert data.passed
    assert data.beta.value_on(t(ladder, 1)) == 1
    rg = rg_limit_check(bad, 2)
    assert not rg.special
    assert any(w["monomial"] == "t2" for w in rg.witnesses)


def test_beta_data_violations_from_product_residue(ladder, monkeypatch):
    from hopfalg import rg

    residues = []

    def recorded(*args):
        residues.append(residue(*args))
        return residues[-1]

    monkeypatch.setattr(rg, "residue", recorded)
    bad = Character(ladder, L, {gen(ladder, 1): lau({-1: 1, 0: 1})})
    data = rg.beta_data(bad, 2, 3)
    assert not data.passed
    assert "t1^2" in data.violations
    # d_1 is read off the loop once and seeds both beta and the tower
    assert len(residues) == 1 and data.d(1) is residues[0]


def test_dn_recursive_hand_example(ladder):
    b = Fraction(3)
    beta = ladder_beta(ladder, {1: b})
    d1 = dn_recursive(beta, 1, 4)
    assert d1.value_on(t(ladder, 1)) == b
    d2 = dn_recursive(beta, 2, 4)
    # <d2, t2> = (1/2) <d1 * beta, t2> = b^2/2 via the t1 (x) t1 term.
    assert d2.value_on(t(ladder, 2)) == b * b / 2
    assert d2.value_on(t(ladder, 1)) == 0


def test_simplex_weight_oracle():
    # The production weight prod_j 1/(k_1+...+k_j) must match the iterated
    # integration of prod_i e^(-k_i s_i) over the ordered simplex, in its
    # t -> infinity limit.
    for n in range(1, 5):
        for rates in iproduct((1, 2, 3), repeat=n):
            assert simplex_weight(rates) == finite_simplex_integral(rates)[0]


def test_finite_simplex_hand_example():
    # n = 2, rates (1, 1): 1/2 - e^-t + e^-2t/2, integrated by hand.
    combo = finite_simplex_integral((1, 1))
    assert combo == {0: Fraction(1, 2), 1: Fraction(-1), 2: Fraction(1, 2)}
    # n = 1: (1 - e^-kt)/k, limit 1/k.
    combo = finite_simplex_integral((3,))
    assert combo == {0: Fraction(1, 3), 3: Fraction(-1, 3)}


def test_dn_simplex_equals_recursive(ladder):
    rng = random.Random(99)
    for _ in range(4):
        beta = ladder_beta(ladder, {n: rng.randint(-4, 4) for n in range(1, 6)})
        for n in range(1, 5):
            rec = dn_recursive(beta, n, 5)
            simp = dn_simplex(beta, n, 5)
            for m in ladder.basis_up_to(5):
                assert rec.value_on(m) == simp.value_on(m), (n, str(m))


def test_dn_simplex_equals_recursive_trees(trees):
    rng = random.Random(100)
    gens = trees.schema.generators_up_to(4)
    beta = InfinitesimalCharacter(
        trees, QQ, {g: Fraction(rng.randint(-3, 3)) for g in gens}, cutoff=4
    )
    for n in range(1, 4):
        rec = dn_recursive(beta, n, 4)
        simp = dn_simplex(beta, n, 4)
        for m in trees.basis_up_to(4):
            assert rec.value_on(m) == simp.value_on(m)


def test_counterterm_tower_against_simplex(ladder, trees):
    # The incremental tower against the closed form, order by order: to order 4
    # on the small schemas, and to every order up to the degree on larger ones,
    # where the generator legs are a small share of the terms of D^(n-1)(m).
    rng = random.Random(101)
    larger = [(HopfAlgebra(schema, validate_to=degree), degree, degree) for schema, degree in (
        (ladder_schema(), 8), (rooted_tree_schema(6), 6), (schema_from_dict(connes_moscovici_schema(7)), 7),
        (schema_from_dict(rescaled_binomial_schema(6)), 6))]
    for ctx, degree, orders in ((ladder, 5, 4), (trees, 4, 4), *larger):
        gens = ctx.schema.generators_up_to(degree)
        beta = InfinitesimalCharacter(
            ctx, QQ, {g: Fraction(rng.randint(-3, 3)) for g in gens}, cutoff=degree
        )
        towers = counterterm_tower(beta, orders, degree)
        assert len(towers) == orders
        for n, d in enumerate(towers, 1):
            simp = dn_simplex(beta, n, degree)
            for m in ctx.basis_up_to(degree):
                assert d.value_on(m) == simp.value_on(m), (n, str(m))


def test_tower_identity_on_a_truncated_laurent_beta():
    # A truncated beta value stands for all its completions, so the closed form
    # and the recursion are compared on their common window.  The next test
    # checks that the windows are the same too.
    ctx = HopfAlgebra(rooted_tree_schema(5))
    rng = random.Random(102)
    beta = InfinitesimalCharacter(ctx, L, {g: lau({k: rng.randint(-3, 3) for k in range(-2, 2)}, rng.randint(-1, 1))
                                           for g in ctx.schema.generators_up_to(5)}, cutoff=5)
    for n, d in enumerate(counterterm_tower(beta, 5, 5), 1):
        simp = dn_simplex(beta, n, 5)
        for m in ctx.basis_up_to(5):
            assert L.eq(d.value_on(m), simp.value_on(m)), (n, str(m))


@pytest.mark.parametrize("seed", [15, 20, 29, 31])
def test_the_closed_form_tower_keeps_the_window_of_a_truncated_zero(seed):
    # A product of beta values that is a truncated zero is known only up to its
    # window, so the closed form adds it like any other value and reports the
    # recursion's value and window exactly, not an exact zero.  At each seed
    # here some d_n on trees:5 is such a zero: seed 15 at n = 1 on [[[[]][]]],
    # seed 20 at n = 2 on []*[[][]].
    ctx = HopfAlgebra(rooted_tree_schema(5))
    rng = random.Random(seed)
    beta = InfinitesimalCharacter(ctx, L, {g: lau({k: rng.randint(-3, 3) for k in range(-2, 2)}, rng.randint(-1, 1))
                                           for g in ctx.schema.generators_up_to(5)}, cutoff=5)
    for n, d in enumerate(counterterm_tower(beta, 5, 5), 1):
        assert dn_simplex(beta, n, 5).table == d.table, n


def test_an_order_far_above_the_degree_is_zero_without_deep_recursion(ladder):
    # The generator-leg part of D^(n-1)(m) recurses on the degree of m, not on
    # n, so an order of 5000 is a zero table rather than a RecursionError.
    beta = ladder_beta(ladder, {1: 7, 2: -1, 3: 2})
    assert dn_simplex(beta, 5000, 3).table == {}


def test_renormalization_never_reaches_the_iterated_coproduct(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the flat iterated coproduct is for the oracle only")

    ctx = HopfAlgebra(ladder_schema(), validate_to=4)
    monkeypatch.setattr(ctx, "iterated_coproduct_monomial", forbidden)
    beta = ladder_beta(ctx, {1: 2, 2: -1}, cutoff=4)
    loop = build_special_loop(beta, 4)
    assert rg_limit_check(loop, 4).passed
    assert beta_data(loop, 4, 4).passed
    assert scattering_check(beta, 3, 4).passed
    phi = Character(ctx, L, {gen(ctx, 1): lau({-1: 1, 0: 2}), gen(ctx, 2): lau({-2: 1, 1: 3})})
    assert birkhoff_decompose(phi, 4).report["passed"]


def test_dn_on_low_degree_vanishes(ladder):
    beta = ladder_beta(ladder, {1: 7})
    d2 = dn_simplex(beta, 2, 3)
    assert d2.value_on(t(ladder, 1)) == 0


# -- special loops and the RG limit ------------------------------------------------


def assembled_loop(beta, max_degree):
    """The loop 1_* + sum_n d_n / eps^n assembled on the whole basis from the
    counterterm tower d_1 .. d_max_degree (d_n vanishes below degree n): the
    oracle of ``build_special_loop``, which builds the loop on its generators."""
    towers = counterterm_tower(beta, max_degree, max_degree)
    table = {}
    for m in beta.ctx.basis_up_to(max_degree):
        coeffs = {-n: v for n, d in enumerate(towers, 1) if (v := d.value_on(m))}
        if m.is_unit:
            coeffs[0] = Fraction(1)
        table[m] = L.make(coeffs, None)
    return table


@pytest.mark.parametrize("schema, degree", [
    (ladder_schema, 8), (lambda: rooted_tree_schema(6), 6),
    (lambda: schema_from_dict(connes_moscovici_schema(7)), 7),
    (lambda: schema_from_dict(rescaled_binomial_schema(6)), 6),
], ids=["ladder-8", "trees:6", "connes-moscovici-7", "rescaled-binomial-6"])
def test_the_built_loop_is_the_assembled_tower(schema, degree):
    ctx = HopfAlgebra(schema(), validate_to=degree)
    rng = random.Random(7)
    beta = InfinitesimalCharacter(ctx, QQ, {g: Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                            for g in ctx.schema.generators_up_to(degree)}, cutoff=degree)
    assert 0 in beta.gen_values.values()
    basis = ctx.basis_up_to(degree)
    got, expected = build_special_loop(beta, degree).tabulate(basis), assembled_loop(beta, degree)
    for m in basis:
        assert L.eq(got.get(m, L.zero()), expected[m]), str(m)


def test_a_beta_cutoff_below_the_degree_fails_before_the_loop_is_built(ladder, monkeypatch):
    from hopfalg import duals

    def forbidden(*args):
        raise AssertionError("the loop was built")

    monkeypatch.setattr(duals, "bogoliubov", forbidden)
    with pytest.raises(CutoffExceededError, match="^infinitesimal character materialized to degree 2; "
                                                  "value on degree-3 monomial requested$"):
        build_special_loop(ladder_beta(ladder, {1: 1, 2: 3}, cutoff=2), 4)


@pytest.mark.parametrize("schema, degree, target", [(ladder_schema, 6, "t3"),
                                                    (lambda: rooted_tree_schema(5), 5, "[[[]]]")],
                         ids=["ladder-6", "trees:5"])
def test_a_wrong_loop_value_is_the_certificates_witness(schema, degree, target, monkeypatch):
    """A loop off by 1/eps on one generator fails the residue identity there first."""
    from hopfalg import duals

    ctx = HopfAlgebra(schema(), validate_to=degree)
    g = next(g for g in ctx.schema.generators_up_to(degree) if g.name == target)
    original = duals.bogoliubov

    def off(phi, max_degree, project):
        minus, plus = original(phi, max_degree, project)
        minus.gen_values[g] = L.add(minus.gen_values.get(g, L.zero()), lau({-1: 1}))
        return minus, plus

    monkeypatch.setattr(duals, "bogoliubov", off)
    rng = random.Random(44)
    beta = InfinitesimalCharacter(ctx, QQ, {h: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                            for h in ctx.schema.generators_up_to(degree)})
    with pytest.raises(VerificationError, match=f"^built loop fails the residue identity on {re.escape(target)}$") \
            as raised:
        build_special_loop(beta, degree)
    assert raised.value.witness == target


def test_build_loop_trivial_beta(ladder):
    beta = ladder_beta(ladder, {})
    loop = build_special_loop(beta, 4)
    assert loop.gen_values == {}
    for m in ladder.basis_up_to(4):
        expect = L.one() if m.is_unit else L.zero()
        assert L.eq(loop.value_on(m), expect)


def test_build_loop_values(ladder):
    b = Fraction(2)
    beta = ladder_beta(ladder, {1: b})
    loop = build_special_loop(beta, 4)
    assert loop.value_on(t(ladder, 1)).as_dict() == {-1: b}
    # d1(t2) = 0 and d2(t2) = b^2/2.
    assert loop.value_on(t(ladder, 2)).as_dict() == {-2: b * b / 2}


def test_rg_closed_loop(ladder):
    rng = random.Random(123)
    for _ in range(3):
        beta = ladder_beta(ladder, {n: rng.randint(-3, 3) for n in range(1, 5)}, cutoff=4)
        loop = build_special_loop(beta, 4)
        report = rg_limit_check(loop, 4)
        assert report.special
        assert report.flow_additive
        assert report.flow_is_exponential
        assert report.residue_identity
        assert report.beta_matches_residue
        for n in range(1, 5):
            m = t(ladder, n)
            assert report.beta.value_on(m) == beta.value_on(m)


def test_rg_closed_loop_trees(trees):
    rng = random.Random(321)
    gens = trees.schema.generators_up_to(3)
    beta = InfinitesimalCharacter(
        trees, QQ, {g: Fraction(rng.randint(-2, 2)) for g in gens}, cutoff=3
    )
    loop = build_special_loop(beta, 3)
    report = rg_limit_check(loop, 3)
    assert report.passed
    for g in gens:
        assert report.beta.value_on(Monomial.of(g)) == beta.value_on(Monomial.of(g))


@pytest.mark.parametrize("schema", [ladder_schema, lambda: rooted_tree_schema(5)], ids=["ladder", "trees:5"])
def test_the_flow_checks_fail_on_one_changed_t2_coefficient(schema):
    ctx = HopfAlgebra(schema(), validate_to=5)
    rng = random.Random(5)
    beta = InfinitesimalCharacter(
        ctx, QQ, {g: Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3)) for g in ctx.schema.generators_up_to(5)},
        cutoff=5)
    report = rg_limit_check(build_special_loop(beta, 5), 5)
    basis = ctx.basis_up_to(5)
    flow = dict(report.flow_table)
    assert _flow_is_additive(ctx, QQ, flow, basis)
    assert _flow_matches_exponential(ctx, QQ, flow, report.beta, basis)
    m = next(m for m in basis if m.y_degree >= 2)
    p = list(flow[m]) + [0] * (3 - len(flow[m]))
    p[2] += 1
    flow[m] = tuple(p)
    assert not _flow_is_additive(ctx, QQ, flow, basis)
    assert not _flow_matches_exponential(ctx, QQ, flow, report.beta, basis)


def test_rg_detects_non_special_loop(ladder):
    # A second-order pole on a degree-1 generator survives the limit:
    # phi^-1 * theta_(t eps) phi  on t1 is (e^(t eps) - 1)/eps^2
    # = t/eps + t^2/2 + O(eps).
    phi = laurent_char(ladder, {1: lau({-2: 1})})
    report = rg_limit_check(phi, 2)
    assert not report.special
    assert any(
        w["monomial"] == "t1" and w["exponent"] == -1 for w in report.witnesses
    )


def dynkin_mismatches(ctx, loop, max_degree):
    """Basis monomials where (phi o S) * Y_* phi differs from beta / eps, with
    beta read off the loop by ``beta_data`` (Ebrahimi-Fard, Gracia-Bondia
    and Patras: Y_* phi = phi * (phi o (S * Y)), the Dynkin relation)."""
    basis = ctx.basis_up_to(max_degree)
    ring = loop.ring
    phi = loop.tabulate(basis)
    lhs = convolve_tables(ctx, ring, compose_antipode(ctx, ring, phi, basis),
                          grading_transpose(ring, phi), basis)
    beta = beta_data(loop, 1, max_degree).beta
    zero = ring.zero()
    return [
        str(m) for m in basis
        if not ring.eq(lhs.get(m, zero), ring.make({-1: beta.value_on(m)}, None))
    ]


def test_dynkin_relation_recovers_beta(ladder, trees):
    rng = random.Random(77)
    for ctx, degree in ((ladder, 5), (trees, 4)):
        gens = ctx.schema.generators_up_to(degree)
        beta = InfinitesimalCharacter(
            ctx, QQ, {g: Fraction(rng.randint(-3, 3)) for g in gens}, cutoff=degree
        )
        loop = build_special_loop(beta, degree)
        assert dynkin_mismatches(ctx, loop, degree) == []
    # An eps^-2 pole on t1 is not special: nothing of first order explains it.
    bad = laurent_char(ladder, {1: lau({-2: 1})})
    assert "t1" in dynkin_mismatches(ladder, bad, 3)


def test_rg_trivial_loop(ladder):
    phi = Character(ladder, L, {})
    report = rg_limit_check(phi, 3)
    assert report.special
    for m in ladder.basis_up_to(3):
        expect = (Fraction(1),) if m.is_unit else ()
        assert report.flow_table[m] == expect


# -- scattering ---------------------------------------------------------------------


def test_scattering_limits_match_tower(ladder):
    rng = random.Random(7)
    beta = ladder_beta(ladder, {n: rng.randint(-3, 3) for n in range(1, 5)})
    report = scattering_check(beta, 3, 4)
    assert report.passed


def test_scattering_zero_beta(ladder):
    beta = ladder_beta(ladder, {})
    report = scattering_check(beta, 3, 3)
    assert report.passed
    # all orders produce the zero functional
    d2 = dn_recursive(beta, 2, 3)
    assert d2.table == {}


def test_scattering_finite_time_value(ladder):
    # Order 2 on t2 with beta(t1) = b: b^2 (1/2 - e^-t + e^-2t/2); the
    # constant term is exactly <d2, t2>.
    b = Fraction(5)
    beta = ladder_beta(ladder, {1: b})
    combo = {}
    for legs, c in ladder.plus_iterated_monomial(t(ladder, 2), 2).terms.items():
        prod = QQ.from_rational(c)
        for leg in legs:
            prod = QQ.mul(prod, beta.value_on(leg))
        if prod == 0:
            continue
        integral = finite_simplex_integral(tuple(leg.y_degree for leg in legs))
        for rate, q in integral.items():
            combo[rate] = combo.get(rate, Fraction(0)) + q * prod
    assert combo == {0: b * b / 2, 1: -b * b, 2: b * b / 2}
    assert combo[0] == dn_recursive(beta, 2, 2).value_on(t(ladder, 2))
