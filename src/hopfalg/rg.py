"""The renormalization group on Laurent-valued loops (Connes-Kreimer II).

The residue of a loop and its beta-function, the counterterm tower (by the
grading recursion and in closed form), the special loop of a beta-function
(by ``bogoliubov`` on the generators, certified by the residue identity), the
scale-flow limit with its three flow checks (phi^(-1) by ``bogoliubov``: no
antipode), and the tower's certified finite-time limits.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, NamedTuple, Tuple

from . import duals
from .algebra import Monomial
from .duals import (Character, InfinitesimalCharacter, TableFunctional, convolution_powers, grading_transpose,
                    materialize)
from .errors import DomainError, UnsupportedRingError, VerificationError
from .polynomials import POLY_T
from .rationals import RationalField
from .rings import EPS_RING, laurent_only


class BetaData(NamedTuple):
    """Residue tower of a loop: d_1, ..., d_maxOrder plus the beta-function.

    The tuple checks nothing: ``beta_data`` builds beta as the degree-scaled
    residue and each d_(n+1) as the degree-unscaled d_n * beta, checks that
    every d_n kills the unit, and lists where the residue fails to vanish.
    """

    beta: InfinitesimalCharacter
    towers: List[TableFunctional]
    max_order: int
    max_degree: int
    violations: List[str]

    @property
    def passed(self) -> bool:
        return not self.violations

    def d(self, n: int) -> TableFunctional:
        if not 1 <= n <= self.max_order:
            raise DomainError(f"tower holds d_1 .. d_{self.max_order}")
        return self.towers[n - 1]


def beta_data(f, max_order: int, max_degree: int) -> BetaData:
    """Extract the full beta-function data from a Laurent-valued functional.

    d_1 is read literally off the eps^(-1) coefficients; the rest of the
    tower comes from the grading recursion seeded with the scaled residue.
    """
    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    d1 = residue(f, max_degree)
    base = d1.ring
    # beta = Y_* (residue), its infinitesimality checked, not assumed: the
    # violations are the products where the residue fails to vanish.
    beta = materialize(f.ctx, base, grading_transpose(base, d1.table), max_degree, InfinitesimalCharacter)
    violations = [str(m) for m in d1.table if m.single_generator() is None and not m.is_unit]
    towers = [d1] + counterterm_tower(beta, max_order, max_degree)[1:]
    for d in towers:
        if not base.is_zero(d.value_on(Monomial.unit())):
            raise VerificationError("a tower entry fails to kill the unit")
    # The tower relation needs no separate check: beta is the degree-scaled
    # literal residue, so the seed and the recursion can only disagree where
    # the residue has product support, which is already in ``violations``.
    # Whether the input's higher poles match the tower is specialness, the
    # scale-flow check's job.
    return BetaData(beta=beta, towers=towers, max_order=max_order, max_degree=max_degree, violations=violations)


def residue(f, max_degree: int) -> TableFunctional:
    """First-order pole coefficient of a Laurent-valued functional, read
    literally off the expansion and extended linearly."""
    ring = laurent_only(f.ring, "the residue")
    base = ring.base
    table = {}
    for m, value in f.tabulate(f.ctx.basis_up_to(max_degree)).items():
        v = ring.coefficient(value, -1)
        if not base.is_zero(v):
            table[m] = v
    return TableFunctional(f.ctx, base, table)


def counterterm_tower(beta: InfinitesimalCharacter, max_order: int, max_degree: int) -> List[TableFunctional]:
    """d_1, ..., d_max_order by the grading recursion, each built from the last:
    d_1 divides beta by the degree; d_(k+1) = Y_*^(-1) (d_k * beta)."""
    if max_order < 1:
        raise DomainError("the tower is indexed by n >= 1")
    ctx, base = beta.ctx, beta.ring
    basis = [m for m in ctx.basis_up_to(max_degree) if not m.is_unit]
    beta_table = beta.tabulate(basis)
    tables = [grading_transpose(base, beta_table, inverse=True)]
    while len(tables) < max_order:
        product = duals.convolve_tables(ctx, base, tables[-1], beta_table, basis)
        tables.append(grading_transpose(base, product, inverse=True))
    return [TableFunctional(ctx, base, table) for table in tables]


def dn_recursive(beta: InfinitesimalCharacter, n: int, max_degree: int) -> TableFunctional:
    """d_n of the counterterm tower built by the grading recursion."""
    return counterterm_tower(beta, n, max_degree)[n - 1]


def simplex_weight(leg_degrees: Tuple[int, ...]) -> Fraction:
    """prod_j 1/(k_1 + ... + k_j): the closed form of the ordered-simplex
    integral of prod_i e^(-k_i s_i).  tests/test_sympy_oracle.py integrates it in sympy."""
    weight = Fraction(1)
    partial = 0
    for k in leg_degrees:
        partial += k
        weight /= partial
    return weight


def _beta_pairings(beta: InfinitesimalCharacter, m: Monomial, n: int):
    """The terms of beta tensor n paired with the generator legs of the
    iterated coproduct of m (beta kills the rest) that are not exact zeros, as
    (leg degrees, value) pairs.  A truncated zero is kept: it narrows the
    sound window of the sum it enters."""
    base = beta.ring
    for legs, c in beta.ctx.plus_iterated_terms(m, n):
        prod = base.from_rational(c)
        for leg in legs:
            if base.is_exact_zero(prod):
                break
            prod = base.mul(prod, beta.value_on(leg))
        if not base.is_exact_zero(prod):
            yield tuple(leg.y_degree for leg in legs), prod


def dn_simplex(beta: InfinitesimalCharacter, n: int, max_degree: int) -> TableFunctional:
    """The same tower in closed form: pair beta tensor powers against the
    generator legs of the iterated coproduct with the simplex weights."""
    if n < 1:
        raise DomainError("the tower is indexed by n >= 1")
    ctx, base = beta.ctx, beta.ring
    table: Dict[Monomial, object] = {}
    for m in ctx.basis_up_to(max_degree):
        total = base.zero()
        for degrees, prod in _beta_pairings(beta, m, n):
            total = base.add(total, base.scale(simplex_weight(degrees), prod))
        table[m] = total
    return TableFunctional(ctx, base, table)


def build_special_loop(beta: InfinitesimalCharacter, max_degree: int) -> Character:
    """The loop 1_* + sum_n d_n / eps^n of beta: the one character phi with
    Y_* phi = phi * (beta / eps).  On a generator g that is |g| phi(g) =
    (beta/eps)(g) + sum c phi(L) (beta/eps)(g') over the reduced coproduct
    terms c L (x) g', which ``duals.bogoliubov`` solves.  On the whole basis
    the identity fixes |m| phi(m) from lower degrees; it is checked there, and
    the first monomial where it fails raises as the witness."""
    ctx, base, ring = beta.ctx, beta.ring, EPS_RING
    if not isinstance(base, RationalField):
        raise UnsupportedRingError(f"Laurent series are over Q only, not over {base.tag}")
    table = beta.tabulate([Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)])
    over_eps = InfinitesimalCharacter(ctx, ring, {m.single_generator(): ring.monomial(-1, v) for m, v in table.items()})
    loop = duals.bogoliubov(over_eps, max_degree, lambda m, b: ring.dot([(Fraction(-1, m.y_degree), b, ring.one())]))[0]
    basis = ctx.basis_up_to(max_degree)
    witness = _residue_identity_holds(ctx, ring, loop.tabulate(basis), beta, basis)
    if witness is not None:
        raise VerificationError(f"built loop fails the residue identity on {witness}", witness=str(witness))
    return loop


# -- the renormalization-group limit -------------------------------------------


class RgReport(NamedTuple):
    """Outcome of the scale-flow limit computation on a Laurent character."""

    max_degree: int
    certified_order: int
    special: bool
    witnesses: List[dict]
    flow_table: Dict[Monomial, tuple]  # monomial -> polynomial in t
    beta: InfinitesimalCharacter
    flow_additive: bool
    flow_is_exponential: bool
    residue_identity: bool
    beta_matches_residue: bool

    @property
    def passed(self) -> bool:
        return (self.special and self.flow_additive and self.flow_is_exponential and self.residue_identity
                and self.beta_matches_residue)


# The highest pole order of phi that ``rg_limit_check`` takes.  At it, with
# --eps-order 100, ``rg-check`` of a ladder loop at --max-degree 4 runs in
# 0.13-0.17 s (whole process, one core of a 2-core x86 machine).
MAX_POLE_ORDER = 100


def rg_limit_check(phi: Character, max_degree: int, eps_margin: int = 1) -> RgReport:
    """Compute phi^(-1) * theta_(t eps)(phi) per basis monomial and take eps -> 0.

    theta_z scales a right coproduct leg of degree j by exp(j z), so the
    t^k part of phi^(-1) * theta_(t eps)(phi) is eps^k sum_j (j^k / k!) S_j,
    with S_j = phi^(-1) * (phi on degree j), all over Q.  Each value of phi
    on degree j enters S_j times 1 + O(eps^(K+1)), K = pole + eps_margin:
    the sound window exp(j t eps) has when carried to order K.

    The loop is special when every negative-eps coefficient cancels
    identically as a polynomial in t (to the certified order); the limit is
    then a flow F_t = sum_k F_k t^k, checked on its coefficient tables F_k
    over Q: additive (F_i * F_j = C(i+j, i) F_(i+j), that is
    F_(t+s) = F_t * F_s), exponential with the extracted beta
    (F_n = beta^(*n) / n!), and consistent with the residue identity
    Y_* phi = phi * (beta / eps), order by order.
    """
    if eps_margin < 0:
        raise DomainError("eps_margin must be >= 0")
    ctx, ring = phi.ctx, laurent_only(phi.ring, "the scale-flow limit")
    base = ring.base

    basis = ctx.basis_up_to(max_degree)
    phi_vals = phi.tabulate(basis)
    pole = max((ring.pole_order(v) for v in phi_vals.values()), default=0)
    if pole > MAX_POLE_ORDER:
        raise DomainError(f"phi has a pole of order {pole} through degree {max_degree}, above the limit "
                          f"MAX_POLE_ORDER = {MAX_POLE_ORDER}")
    order = pole + eps_margin
    unit = ring.make({0: 1}, order)
    phi_inverse = duals.bogoliubov(phi, max_degree, lambda m, b: b)[0].tabulate(basis)
    slices = []  # S_j, on the monomials of degree >= j
    for j in range(max_degree + 1):
        part = {m: ring.mul(v, unit) for m, v in phi_vals.items() if m.y_degree == j}
        slices.append(duals.convolve_tables(ctx, ring, phi_inverse, part, [m for m in basis if m.y_degree >= j]))

    one = ring.one()
    witnesses: List[dict] = []
    flow: Dict[Monomial, tuple] = {}
    for m in basis:
        parts = [(j, s[m]) for j, s in enumerate(slices) if m in s]
        # sum_j S_j(m) carries the window of the whole sum; nothing above it is read.
        total = ring.dot([(1, v, one) for _, v in parts])
        top = 0 if total.trunc is None else min(0, total.trunc)
        low = min((v.coeffs[0][0] for _, v in parts if v.coeffs), default=1)
        t_coeffs: Dict[int, Dict[int, object]] = {}  # eps exponent -> {t exponent: coefficient}
        for k in range(min(order, top - low) + 1):
            series = total if k == 0 else ring.dot([(Fraction(j ** k, factorial(k)), v, one) for j, v in parts if j])
            for e, c in series.coeffs:
                if e + k > top:
                    break
                t_coeffs.setdefault(e + k, {})[k] = c
        for e in sorted(t_coeffs):
            if e < 0:
                witnesses.append({"monomial": str(m), "exponent": e,
                                  "coefficient": POLY_T.format_value(_polynomial(t_coeffs[e]))})
        ring.coefficient(total, 0)  # a window below eps^0 leaves the limit unknown
        flow[m] = _polynomial(t_coeffs.get(0, {}))

    special = not witnesses

    linear = {m: POLY_T.coefficient(p, 1) for m, p in flow.items()}
    beta = materialize(ctx, base, linear, max_degree, InfinitesimalCharacter)

    flow_additive = _flow_is_additive(ctx, base, flow, basis)
    flow_is_exponential = _flow_matches_exponential(ctx, base, flow, beta, basis)
    residue_identity = _residue_identity_holds(ctx, ring, phi_vals, beta, basis) is None

    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)]
    scaled = grading_transpose(base, {m: ring.coefficient(phi_vals.get(m, ring.zero()), -1) for m in gens})
    beta_matches_residue = all(base.eq(scaled.get(m, base.zero()), beta.value_on(m)) for m in gens)

    return RgReport(max_degree=max_degree, certified_order=eps_margin, special=special, witnesses=witnesses,
                    flow_table=flow, beta=beta, flow_additive=flow_additive, flow_is_exponential=flow_is_exponential,
                    residue_identity=residue_identity, beta_matches_residue=beta_matches_residue)


def _polynomial(coeffs: dict) -> tuple:
    """The Q[t] value of {t exponent: nonzero coefficient}."""
    return tuple(coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1))


def _flow_tables(flow) -> List[dict]:
    """The t-coefficient tables F_0, F_1, ... of the flow, over Q."""
    top = max((len(p) for p in flow.values()), default=0)
    return [{m: p[k] for m, p in flow.items() if k < len(p) and p[k]} for k in range(top)]


def _flow_is_additive(ctx, base, flow, basis) -> bool:
    # F_(t+s) = F_t * F_s: its t^i s^j coefficient is F_i * F_j = C(i+j, i) F_(i+j).
    tables = _flow_tables(flow)
    for i, fi in enumerate(tables):
        for j, fj in enumerate(tables):
            product = duals.convolve_tables(ctx, base, fi, fj, basis)
            expected = tables[i + j] if i + j < len(tables) else {}
            if product != {m: comb(i + j, i) * v for m, v in expected.items()}:
                return False
    return True


def _flow_matches_exponential(ctx, base, flow, beta, basis) -> bool:
    # F_t = exp(t beta): F_0 is the counit and F_n = beta^(*n) / n!, which
    # vanishes above the top degree.
    top = max(m.y_degree for m in basis)
    powers = convolution_powers(ctx, base, beta.tabulate(basis), top, basis)
    expected = [{Monomial.unit(): 1}] + [{m: Fraction(v, factorial(n)) for m, v in p.items()}
                                         for n, p in enumerate(powers, 1)]
    while not expected[-1]:
        expected.pop()
    return _flow_tables(flow) == expected


def _residue_identity_holds(ctx, ring, phi_vals, beta, basis):
    # The first monomial of the basis where Y_* phi = phi * (beta / eps) fails coefficientwise, or None.
    over_eps = {m: ring.make({-1: v}, None) for m in basis if not ring.base.is_zero(v := beta.value_on(m))}
    rhs = duals.convolve_tables(ctx, ring, phi_vals, over_eps, basis)
    lhs = grading_transpose(ring, phi_vals)
    zero = ring.zero()
    return next((m for m in basis if not ring.eq(lhs.get(m, zero), rhs.get(m, zero))), None)


# -- the scattering-type limit ---------------------------------------------------


class ScatteringReport(NamedTuple):
    """Finite-time closed forms of the tower and their long-time limits."""

    max_order: int
    max_degree: int
    orders: List[dict]

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.orders)


def scattering_check(beta: InfinitesimalCharacter, max_order: int, max_degree: int) -> ScatteringReport:
    """Certify that the finite-time ordered products converge to the tower.

    For each order n, every basis monomial's finite-time value, over the
    generator legs of its iterated coproduct, is an exponential sum in t whose
    decaying part dies at large time and whose constant term is exactly d_n.
    """
    from .exp_integrals import finite_simplex_integral

    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    ctx, base = beta.ctx, beta.ring
    orders: List[dict] = []
    towers = counterterm_tower(beta, max_order, max_degree)
    integrals: Dict[tuple, dict] = {}  # leg degrees -> the simplex integral's {rate: coefficient}
    for n in range(1, max_order + 1):
        expected = towers[n - 1]
        mismatches: List[str] = []
        rates_ok = True
        for m in ctx.basis_up_to(max_degree):
            combo: Dict[int, object] = {}
            for degrees, prod in _beta_pairings(beta, m, n):
                if degrees not in integrals:
                    integrals[degrees] = finite_simplex_integral(degrees)
                for rate, q in integrals[degrees].items():
                    cur = combo.get(rate, base.zero())
                    combo[rate] = base.add(cur, base.scale(q, prod))
            if any(rate < 0 for rate in combo):
                rates_ok = False
            limit = combo.get(0, base.zero())
            if not base.eq(limit, expected.value_on(m)):
                mismatches.append(str(m))
        orders.append({"order": n, "passed": rates_ok and not mismatches, "decaying": rates_ok,
                       "mismatches": mismatches})
    return ScatteringReport(max_order=max_order, max_degree=max_degree, orders=orders)
