"""Renormalization machinery on Laurent-valued characters.

The minimal-subtraction projector splits series at exponent zero; the
Birkhoff recursion peels the pole part of a character degree by degree, and
the residue / beta-function / counterterm-tower calculus reconstructs special
loops from their first-order pole data.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, NamedTuple, Optional, Tuple

from .algebra import Monomial
from .duals import (
    Character,
    InfinitesimalCharacter,
    TableFunctional,
    compose_antipode,
    convolution_powers,
    convolve_tables,
    grading_transpose,
    materialize,
    scale_by_degree,
    tabulate,
)
from .errors import DomainError, TruncationError, VerificationError
from .hopf import HopfAlgebra, theta_factors
from .rings import LaurentRing, LaurentSeries, PolynomialRing


def rota_baxter_T(ring: LaurentRing, x: LaurentSeries) -> LaurentSeries:
    """Minimal subtraction: keep strictly negative exponents.

    An idempotent projector satisfying the weight -1 identity
    T(ab) + (Ta)(Tb) = T[(Ta)b + a(Tb)].
    """
    return ring.pole_part(x)


# -- algebraic Birkhoff decomposition ------------------------------------------


class BirkhoffPair:
    """Pole/regular factorization of a Laurent-valued character.

    ``minus_table`` and ``plus_table`` hold the recursion values on every
    basis monomial up to ``max_degree``; the characters are the same data in
    generator-table closed form (safe once multiplicativity is verified).
    ``report`` is the verification report, set once the pair is checked.
    """

    __slots__ = ("ctx", "ring", "max_degree", "minus_table", "plus_table", "report")

    def __init__(self, ctx: HopfAlgebra, ring: LaurentRing, max_degree: int,
                 minus_table: Dict[Monomial, LaurentSeries], plus_table: Dict[Monomial, LaurentSeries]):
        self.ctx, self.ring, self.max_degree = ctx, ring, max_degree
        self.minus_table, self.plus_table = minus_table, plus_table
        self.report: dict = {}

    def phi_minus(self) -> Character:
        return materialize(self.ctx, self.ring, self.minus_table, self.max_degree)

    def phi_plus(self) -> Character:
        return materialize(self.ctx, self.ring, self.plus_table, self.max_degree)


def check_truncation_budget(ctx: HopfAlgebra, phi: Character, max_degree: int) -> int:
    """Reject under-resolved inputs before any computation starts.

    The recursion multiplies up to max_degree generator values, each with a
    pole of order at most p, so a finite input truncation must reach at least
    (max_degree - 1) * p for every pole part and constant term the recursion
    reads to be sound.  Returns p.
    """
    ring: LaurentRing = phi.ring
    values = [(g, phi.value_on(Monomial.of(g))) for g in ctx.schema.generators_up_to(max_degree)]
    pole = max((ring.pole_order(v) for _, v in values), default=0)
    required = max(0, (max_degree - 1) * pole)
    for g, v in values:
        if v.trunc is not None and v.trunc < required:
            raise TruncationError(
                f"value on {g.name!r} is sound only through order {v.trunc}; "
                f"the degree-{max_degree} recursion needs order {required}",
                required_order=required,
            )
    return pole


def birkhoff_decompose(ctx: HopfAlgebra, phi: Character, max_degree: int) -> BirkhoffPair:
    """Split phi into counterterm and renormalized parts, verified.

    The minus part is built by the degree recursion on every basis monomial;
    its multiplicativity, the range conditions and the reconstruction of phi
    from the pair are checked exactly rather than assumed, and a failure
    raises with the witness.
    """
    if max_degree < 1:
        raise DomainError("max_degree must be >= 1")
    ring: LaurentRing = phi.ring
    check_truncation_budget(ctx, phi, max_degree)

    phi_table = tabulate(phi, ctx.basis_up_to(max_degree))
    one, zero = ring.one(), ring.zero()
    minus: Dict[Monomial, LaurentSeries] = {Monomial.unit(): one}
    plus: Dict[Monomial, LaurentSeries] = {Monomial.unit(): one}
    for degree in range(1, max_degree + 1):
        for m in ctx.monomials_of_degree(degree):
            # phi(m) + sum c phi_-(m') phi(m'') over the reduced coproduct; an
            # exact zero phi(m'') adds nothing.
            terms = [(c, minus[m1], y) for (m1, m2), c in ctx.reduced_coproduct_monomial(m).terms.items()
                     if (y := phi_table.get(m2)) is not None]
            bracket = ring.dot([(1, phi_table.get(m, zero), one)] + terms)
            minus[m] = ring.neg(rota_baxter_T(ring, bracket))
            plus[m] = ring.regular_part(bracket)

    pair = BirkhoffPair(ctx, ring, max_degree, minus, plus)
    report = birkhoff_verification_report(ctx, phi, pair, phi_table)
    pair.report = report
    failed = [name for name, entry in report["checks"].items() if not entry["passed"]]
    if failed:
        witness = report["checks"][failed[0]].get("witness")
        raise VerificationError(
            f"Birkhoff decomposition failed internal checks {failed}", witness=witness
        )
    return pair


def birkhoff_verification_report(ctx: HopfAlgebra, phi: Character, pair: BirkhoffPair,
                                 phi_table: Optional[dict] = None) -> dict:
    """Range, multiplicativity and reconstruction checks on a candidate pair.

    Exposed separately so a deliberately perturbed pair can be shown to break
    the reconstruction identity.  ``phi_table`` is phi tabulated on the basis
    up to the pair's degree, when the caller has it.
    """
    ring = pair.ring
    basis = ctx.basis_up_to(pair.max_degree)
    if phi_table is None:
        phi_table = tabulate(phi, basis)
    checks: Dict[str, dict] = {}

    def check(name, witnesses, detail):
        """Record the first witness ``witnesses`` yields under ``name``."""
        witness = next(witnesses, None)
        checks[name] = {"passed": witness is None, "witness": witness, "detail": detail}

    check("minus_range",
          (str(m) for m, v in pair.minus_table.items() if not m.is_unit and any(k >= 0 for k, _ in v.coeffs)),
          "counterterm values are pure pole parts on the augmentation ideal")
    check("plus_range", (str(m) for m, v in pair.plus_table.items() if any(k < 0 for k, _ in v.coeffs)),
          "renormalized values have no pole part")
    minus = pair.minus_table
    check("minus_multiplicative",
          (f"{m1} | {m2}" for m1 in basis if not m1.is_unit
           for m2 in ctx.basis_up_to(pair.max_degree - m1.y_degree)
           if not m2.is_unit and m2.sort_key() >= m1.sort_key()
           and not ring.eq(minus[m1 * m2], ring.mul(minus[m1], minus[m2]))),
          "counterterm character is multiplicative on products within budget")
    got = convolve_tables(ctx, ring, compose_antipode(ctx, ring, minus, basis), pair.plus_table, basis)
    zero = ring.zero()
    check("reconstruction", (str(m) for m in basis if not ring.eq(got.get(m, zero), phi_table.get(m, zero))),
          "phi equals (phi_minus inverse) * phi_plus on the whole basis")

    return {
        "certifiedOrder": pair.max_degree,
        "checks": checks,
        "passed": all(entry["passed"] for entry in checks.values()),
    }


# -- residue, beta, and the counterterm tower ----------------------------------


class BetaData(NamedTuple):
    """Residue tower of a loop: d_1, ..., d_maxOrder plus the beta-function.

    Built so that beta is the degree-scaled residue and each d_(n+1) is the
    degree-unscaled convolution d_n * beta; the constructor re-checks the
    tower relation and that every d_n kills the unit.
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


def beta_data(ctx: HopfAlgebra, f, max_order: int, max_degree: int) -> BetaData:
    """Extract the full beta-function data from a Laurent-valued functional.

    d_1 is read literally off the eps^(-1) coefficients; the rest of the
    tower comes from the grading recursion seeded with the scaled residue.
    """
    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    d1 = residue(ctx, f, max_degree)
    beta, violations = _beta_of_residue(ctx, d1, max_degree)
    base = beta.ring
    towers = [d1] + counterterm_tower(ctx, beta, max_order, max_degree)[1:]
    for d in towers:
        if not base.is_zero(d.value_on(Monomial.unit())):
            raise VerificationError("a tower entry fails to kill the unit")
    # The tower relation needs no separate check: beta is the degree-scaled
    # literal residue, so the seed and the recursion can only disagree where
    # the residue has product support, which is already in ``violations``.
    # Whether the input's higher poles match the tower is specialness, the
    # scale-flow check's job.
    return BetaData(
        beta=beta,
        towers=towers,
        max_order=max_order,
        max_degree=max_degree,
        violations=violations,
    )


def residue(ctx: HopfAlgebra, f, max_degree: int) -> TableFunctional:
    """First-order pole coefficient of a Laurent-valued functional, read
    literally off the expansion and extended linearly."""
    ring: LaurentRing = f.ring
    base = ring.base
    table = {}
    for m, value in tabulate(f, ctx.basis_up_to(max_degree)).items():
        v = ring.coefficient(value, -1)
        if not base.is_zero(v):
            table[m] = v
    return TableFunctional(ctx, base, table)


def beta_functional(ctx: HopfAlgebra, f, max_degree: int) -> Tuple[InfinitesimalCharacter, List[str]]:
    """beta = Y_* (residue), with its infinitesimality checked, not assumed.

    Returns the generator-table form plus the list of basis products where
    the scaled residue fails to vanish (empty for genuinely special data).
    """
    return _beta_of_residue(ctx, residue(ctx, f, max_degree), max_degree)


def _beta_of_residue(ctx: HopfAlgebra, d1: TableFunctional, max_degree: int):
    base = d1.ring
    scaled = grading_transpose(base, d1.table)
    violations = [
        str(m)
        for m, v in d1.table.items()
        if m.single_generator() is None and not m.is_unit
    ]
    return materialize(ctx, base, scaled, max_degree, InfinitesimalCharacter), violations


def counterterm_tower(ctx: HopfAlgebra, beta: InfinitesimalCharacter, max_order: int, max_degree: int) -> List[TableFunctional]:
    """d_1, ..., d_max_order by the grading recursion, each built from the last:
    d_1 divides beta by the degree; d_(k+1) = Y_*^(-1) (d_k * beta)."""
    if max_order < 1:
        raise DomainError("the tower is indexed by n >= 1")
    base = beta.ring
    basis = [m for m in ctx.basis_up_to(max_degree) if not m.is_unit]
    beta_table = tabulate(beta, basis)
    tables = [grading_transpose(base, beta_table, inverse=True)]
    while len(tables) < max_order:
        product = convolve_tables(ctx, base, tables[-1], beta_table, basis)
        tables.append(grading_transpose(base, product, inverse=True))
    return [TableFunctional(ctx, base, table) for table in tables]


def dn_recursive(ctx: HopfAlgebra, beta: InfinitesimalCharacter, n: int, max_degree: int) -> TableFunctional:
    """d_n of the counterterm tower built by the grading recursion."""
    return counterterm_tower(ctx, beta, n, max_degree)[n - 1]


def simplex_weight(leg_degrees: Tuple[int, ...]) -> Fraction:
    """prod_j 1/(k_1 + ... + k_j): the closed form of the ordered-simplex
    integral of prod_i e^(-k_i s_i).  Re-derived symbolically in the tests."""
    weight = Fraction(1)
    partial = 0
    for k in leg_degrees:
        partial += k
        weight /= partial
    return weight


def _beta_pairings(ctx: HopfAlgebra, beta: InfinitesimalCharacter, m: Monomial, n: int):
    """The nonzero terms of beta tensor n paired with the augmentation-restricted
    iterated coproduct of m, as (leg degrees, value) pairs."""
    base = beta.ring
    for legs, c in ctx.plus_iterated_monomial(m, n).terms.items():
        prod = base.from_rational(c)
        for leg in legs:
            if base.is_zero(prod):
                break
            prod = base.mul(prod, beta.value_on(leg))
        if not base.is_zero(prod):
            yield tuple(leg.y_degree for leg in legs), prod


def dn_simplex(ctx: HopfAlgebra, beta: InfinitesimalCharacter, n: int, max_degree: int) -> TableFunctional:
    """The same tower in closed form: pair beta tensor powers against the
    augmentation-restricted iterated coproduct with the simplex weights."""
    if n < 1:
        raise DomainError("the tower is indexed by n >= 1")
    base = beta.ring
    table: Dict[Monomial, object] = {}
    for m in ctx.basis_up_to(max_degree):
        if m.is_unit:
            continue
        total = base.zero()
        for degrees, prod in _beta_pairings(ctx, beta, m, n):
            total = base.add(total, base.scale(simplex_weight(degrees), prod))
        if not base.is_zero(total):
            table[m] = total
    return TableFunctional(ctx, base, table)


def build_special_loop(ctx: HopfAlgebra, beta: InfinitesimalCharacter, max_order: int, max_degree: int) -> Character:
    """Assemble the loop 1_* + sum_n d_n / eps^n from its beta-function.

    The tower must cover every degree in range (max_order >= max_degree, and
    d_n vanishes below degree n anyway); the materialized character is
    checked against the raw expansion on the whole basis.
    """
    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    if max_order < max_degree:
        raise DomainError(
            "the pole tower must cover every degree in range: need "
            f"max_order >= max_degree, got {max_order} < {max_degree}"
        )
    base = beta.ring
    ring = LaurentRing(base, "eps")
    towers = counterterm_tower(ctx, beta, max_order, max_degree)
    expansion = {}
    for m in ctx.basis_up_to(max_degree):
        coeffs = {}
        if m.is_unit:
            coeffs[0] = base.one()
        for idx, d in enumerate(towers):
            v = d.value_on(m)
            if not base.is_zero(v):
                coeffs[-(idx + 1)] = v
        expansion[m] = ring.make(coeffs, None)
    return materialize(ctx, ring, expansion, max_degree,
                       failure="assembled loop is not multiplicative on {}")


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
        return (
            self.special
            and self.flow_additive
            and self.flow_is_exponential
            and self.residue_identity
            and self.beta_matches_residue
        )


def rg_limit_check(ctx: HopfAlgebra, phi: Character, max_degree: int, eps_margin: int = 1) -> RgReport:
    """Compute phi^(-1) * theta_(t eps)(phi) per basis monomial and take eps -> 0.

    The loop is special when every negative-eps coefficient cancels
    identically as a polynomial in t (to the certified order); the limit is
    then a flow, checked additive in t (two formal variables), exponential
    with the extracted beta, and consistent with the residue identity
    Y_* phi = phi * (beta / eps), order by order.
    """
    if eps_margin < 0:
        raise DomainError("eps_margin must be >= 0")
    ring: LaurentRing = phi.ring
    base = ring.base
    poly_t = PolynomialRing(base, "t")
    work = LaurentRing(poly_t, ring.var)

    def lift(v: LaurentSeries) -> LaurentSeries:
        return LaurentSeries(
            tuple((k, poly_t.constant(c)) for k, c in v.coeffs), v.trunc
        )

    basis = ctx.basis_up_to(max_degree)
    phi_vals = tabulate(phi, basis)
    pole = max(ring.pole_order(v) for v in phi_vals.values())
    # theta_(t eps), with t eps carried as far as the poles of phi need.
    thetas = theta_factors(work, work.make({1: poly_t.variable()}, pole + eps_margin), max_degree)
    phi_inverse = {m: lift(v) for m, v in compose_antipode(ctx, ring, phi_vals, basis).items()}
    phi_scaled = scale_by_degree(work, {m: lift(v) for m, v in phi_vals.items()}, thetas)
    values = convolve_tables(ctx, work, phi_inverse, phi_scaled, basis)

    witnesses: List[dict] = []
    flow: Dict[Monomial, tuple] = {}
    for m in basis:
        value = values.get(m, work.zero())
        for k, coeff in value.coeffs:
            if k < 0:
                witnesses.append(
                    {
                        "monomial": str(m),
                        "exponent": k,
                        "coefficient": poly_t.format_value(coeff),
                    }
                )
        flow[m] = work.coefficient(value, 0)

    special = not witnesses

    linear = {m: poly_t.coefficient(p, 1) for m, p in flow.items()}
    beta = materialize(ctx, base, linear, max_degree, InfinitesimalCharacter)

    flow_additive = _flow_is_additive(ctx, poly_t, base, flow, basis)
    flow_is_exponential = _flow_matches_exponential(ctx, poly_t, base, flow, beta, basis)
    residue_identity = _residue_identity_holds(ctx, ring, phi_vals, beta, basis)

    gens = [Monomial.of(g) for g in ctx.schema.generators_up_to(max_degree)]
    scaled = grading_transpose(base, {m: ring.coefficient(phi_vals.get(m, ring.zero()), -1) for m in gens})
    beta_matches_residue = all(base.eq(scaled.get(m, base.zero()), beta.value_on(m)) for m in gens)

    return RgReport(
        max_degree=max_degree,
        certified_order=eps_margin,
        special=special,
        witnesses=witnesses,
        flow_table=flow,
        beta=beta,
        flow_additive=flow_additive,
        flow_is_exponential=flow_is_exponential,
        residue_identity=residue_identity,
        beta_matches_residue=beta_matches_residue,
    )


def _flow_is_additive(ctx, poly_t, base, flow, basis) -> bool:
    # F_(t+s) = F_t * F_s as an identity of polynomials in two variables.
    poly_s = PolynomialRing(poly_t, "s")
    in_s = {m: poly_s.constant(p) for m, p in flow.items()}
    in_t = {m: tuple(poly_t.constant(c) for c in p) for m, p in flow.items()}
    rhs = convolve_tables(ctx, poly_s, in_s, in_t, basis)
    for m in basis:
        # F_(t+s)(m): its s^j coefficient is sum_k C(k, j) p_k t^(k-j); the top
        # entry C(k, k) p_k of each is the leading p_k != 0, so all are stripped.
        p = flow[m]
        lhs = tuple(tuple(base.scale(comb(k, j), p[k]) for k in range(j, len(p)))
                    for j in range(len(p)))
        if not poly_s.eq(lhs, rhs.get(m, poly_s.zero())):
            return False
    return True


def _flow_matches_exponential(ctx, poly_t, base, flow, beta, basis) -> bool:
    # F_t(m) = sum_n t^n beta^(*n)(m) / n! with the series stopping at the degree.
    top = max(m.y_degree for m in basis)
    powers = convolution_powers(ctx, base, tabulate(beta, basis), top, basis)
    for m in basis:
        expected = poly_t.zero()
        if m.is_unit:
            expected = poly_t.one()
        for n in range(1, m.y_degree + 1):
            v = powers[n - 1].get(m)
            if v is None or base.is_zero(v):
                continue
            expected = poly_t.add(
                expected, poly_t.monomial(n, base.scale(Fraction(1, factorial(n)), v))
            )
        if not poly_t.eq(flow[m], expected):
            return False
    return True


def _residue_identity_holds(ctx, ring, phi_vals, beta, basis) -> bool:
    # Y_* phi = phi * (beta / eps), coefficientwise on the basis.
    over_eps = {}
    for m in basis:
        bv = beta.value_on(m)
        if not ring.base.is_zero(bv):
            over_eps[m] = ring.make({-1: bv}, None)
    rhs = convolve_tables(ctx, ring, phi_vals, over_eps, basis)
    lhs = grading_transpose(ring, phi_vals)
    zero = ring.zero()
    return all(ring.eq(lhs.get(m, zero), rhs.get(m, zero)) for m in basis)


# -- the scattering-type limit ---------------------------------------------------


class ScatteringReport(NamedTuple):
    """Finite-time closed forms of the tower and their long-time limits."""

    max_order: int
    max_degree: int
    orders: List[dict]

    @property
    def passed(self) -> bool:
        return all(entry["passed"] for entry in self.orders)


def scattering_check(ctx: HopfAlgebra, beta: InfinitesimalCharacter, max_order: int, max_degree: int) -> ScatteringReport:
    """Certify that the finite-time ordered products converge to the tower.

    For each order n, every basis monomial's finite-time value is an
    exponential sum in t whose decaying part dies at large time and whose
    constant term must equal the recursive d_n exactly.
    """
    from .exp_integrals import finite_simplex_integral

    if max_order < 1:
        raise DomainError("max_order must be >= 1")
    base = beta.ring
    orders: List[dict] = []
    towers = counterterm_tower(ctx, beta, max_order, max_degree)
    for n in range(1, max_order + 1):
        expected = towers[n - 1]
        mismatches: List[str] = []
        rates_ok = True
        for m in ctx.basis_up_to(max_degree):
            if m.is_unit:
                continue
            combo: Dict[int, object] = {}
            for degrees, prod in _beta_pairings(ctx, beta, m, n):
                for rate, q in finite_simplex_integral(degrees).coeffs.items():
                    cur = combo.get(rate, base.zero())
                    combo[rate] = base.add(cur, base.scale(q, prod))
            if any(rate < 0 for rate in combo):
                rates_ok = False
            limit = combo.get(0, base.zero())
            if not base.eq(limit, expected.value_on(m)):
                mismatches.append(str(m))
        orders.append(
            {
                "order": n,
                "passed": rates_ok and not mismatches,
                "decaying": rates_ok,
                "mismatches": mismatches,
            }
        )
    return ScatteringReport(max_order=max_order, max_degree=max_degree, orders=orders)
