"""Seeded property suites over the dual calculus and the Birkhoff machinery.

These complement the axiom verifier: randomized but fully deterministic for a
fixed seed, so two runs with the same configuration produce byte-identical
reports.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from typing import List, NamedTuple, Optional

from .algebra import Monomial
from .birkhoff import (
    birkhoff_decompose,
    build_special_loop,
    dn_recursive,
    dn_simplex,
    rg_limit_check,
    rota_baxter_T,
    scattering_check,
)
from .duals import (
    Character,
    ConvolutionProduct,
    InfinitesimalCharacter,
    TableFunctional,
    character_inverse,
    convolve,
    convolve_tables,
    counit_functional,
    exp_star,
    grading_transpose,
    log_star,
    metric_distance,
    tabulate,
)
from .errors import HopfError
from .hopf import HopfAlgebra
from .rings import QQ, LaurentRing


class CheckResult(NamedTuple):
    name: str
    passed: bool
    counterexample: Optional[str] = None
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "check": self.name,
            "passed": self.passed,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    max_degree: int
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "maxDegree": self.max_degree,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _random_infinitesimal(ctx, rng, max_degree) -> InfinitesimalCharacter:
    values = {}
    for g in ctx.schema.generators_up_to(max_degree):
        c = rng.randint(-5, 5)
        if c:
            values[g] = Fraction(c)
    return InfinitesimalCharacter(ctx, QQ, values)


def _random_character(ctx, rng, max_degree) -> Character:
    values = {}
    for g in ctx.schema.generators_up_to(max_degree):
        values[g] = Fraction(rng.randint(-5, 5))
    return Character(ctx, QQ, values)


def dual_convolution_suite(ctx: HopfAlgebra, max_degree: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    degree = min(max_degree, 4)
    report = SuiteReport("dual-convolution", seed, degree, [])
    basis = ctx.basis_up_to(degree)
    one_star = counit_functional(ctx, QQ)

    def add(name, witness, detail=""):
        report.checks.append(CheckResult(name, witness is None, witness, detail))

    def kernel(a, b):
        return convolve_tables(ctx, QQ, a, b, basis)

    witness = None
    for _ in range(5):
        f = _random_character(ctx, rng, degree)
        g = _random_infinitesimal(ctx, rng, degree)
        h = _random_character(ctx, rng, degree)
        # Two bracketings through the kernel, and the flat product as oracle.
        tf, tg, th = tabulate(f, basis), tabulate(g, basis), tabulate(h, basis)
        left, right = kernel(kernel(tf, tg), th), kernel(tf, kernel(tg, th))
        flat = convolve(f, g, h)
        for m in basis:
            v = left.get(m, 0)
            if v != right.get(m, 0) or v != flat.value_on(m):
                witness = str(m)
                break
        if witness:
            break
    add("convolution-associative", witness, "three random functionals, full basis")

    witness = None
    chi = _random_character(ctx, rng, degree)
    for m in basis:
        if (
            convolve(chi, one_star).value_on(m) != chi.value_on(m)
            or convolve(one_star, chi).value_on(m) != chi.value_on(m)
        ):
            witness = str(m)
            break
    add("convolution-unit", witness, "the counit is the convolution unit")

    witness = None
    for _ in range(3):
        chi = _random_character(ctx, rng, degree)
        inv = character_inverse(chi, max_degree=degree)
        for m in basis:
            if (
                convolve(inv, chi).value_on(m) != one_star.value_on(m)
                or convolve(chi, inv).value_on(m) != one_star.value_on(m)
            ):
                witness = str(m)
                break
        if witness:
            break
    add("character-inverse", witness, "chi o S inverts chi on both sides")

    witness = None
    chi = _random_character(ctx, rng, degree)
    z = _random_infinitesimal(ctx, rng, degree)
    half = [m for m in basis if 2 * m.y_degree <= degree]
    for m1 in half:
        for m2 in half:
            if chi.value_on(m1 * m2) != QQ.mul(chi.value_on(m1), chi.value_on(m2)):
                witness = f"{m1} | {m2}"
                break
            lhs = z.value_on(m1 * m2)
            rhs = QQ.add(
                QQ.mul(z.value_on(m1), one_star.value_on(m2)),
                QQ.mul(one_star.value_on(m1), z.value_on(m2)),
            )
            if lhs != rhs:
                witness = f"{m1} | {m2}"
                break
        if witness:
            break
    add(
        "character-classification",
        witness,
        "multiplicativity of characters, derivation law of infinitesimals",
    )

    witness = None
    for _ in range(10):
        n = rng.randint(1, 3)
        zs = [_random_infinitesimal(ctx, rng, degree) for _ in range(n + 1)]
        conv = ConvolutionProduct(zs)
        for m in ctx.basis_up_to(min(n, degree)):
            if conv.value_on(m) != 0:
                witness = f"n={n}, {m}"
                break
        if witness:
            break
    add("nilpotence", witness, "n+1 infinitesimals kill degree <= n")

    witness = None
    low_gens = [g for g in ctx.schema.generators_up_to(min(3, degree))]
    for _ in range(6):
        n = rng.randint(2, 3)
        zs = [_random_infinitesimal(ctx, rng, degree) for _ in range(n)]
        picks = [rng.choice(low_gens) for _ in range(n)]
        m = Monomial.from_powers((g, 1) for g in picks)
        brute = ConvolutionProduct(zs).value_on(m)
        formula = Fraction(0)
        for sigma in permutations(range(n)):
            prod = Fraction(1)
            for j, g in enumerate(picks):
                prod *= zs[sigma[j]].value_on(Monomial.of(g))
            formula += prod
        if brute != formula:
            witness = str(m)
            break
    add("permanent-formula", witness, "iterated coproduct vs permutation sum")

    witness = None
    g1 = low_gens[0]
    for n in (1, 2):
        zs = [_random_infinitesimal(ctx, rng, degree) for _ in range(n)]
        m = Monomial.of(g1, n + 1)
        if ConvolutionProduct(zs).value_on(m) != 0:
            witness = f"n={n}, {m}"
    add("vanishing-on-long-products", witness, "n infinitesimals kill m > n factors")

    witness = None
    for _ in range(3):
        z = _random_infinitesimal(ctx, rng, degree)
        chi = exp_star(z, degree)
        back = log_star(chi, degree)
        for g in ctx.schema.generators_up_to(degree):
            if back.value_on(Monomial.of(g)) != z.value_on(Monomial.of(g)):
                witness = g.name
                break
        if witness:
            break
    add("exp-log-round-trip", witness, "log recovers the infinitesimal generatorwise")

    witness = None
    z1 = _random_infinitesimal(ctx, rng, degree)
    z2 = _random_infinitesimal(ctx, rng, degree)
    t1, t2 = tabulate(z1, basis), tabulate(z2, basis)
    product = grading_transpose(QQ, kernel(t1, t2))
    first = kernel(grading_transpose(QQ, t1), t2)
    second = kernel(t1, grading_transpose(QQ, t2))
    for m in basis:
        if product.get(m, 0) != QQ.add(first.get(m, 0), second.get(m, 0)):
            witness = str(m)
            break
    add("grading-transpose-derivation", witness, "Y_* is a derivation for convolution")

    witness = None
    for _ in range(3):
        f = TableFunctional(
            ctx, QQ, {m: Fraction(rng.randint(-3, 3)) for m in basis}
        )
        g = TableFunctional(
            ctx, QQ, {m: Fraction(rng.randint(-3, 3)) for m in basis}
        )
        if metric_distance(f, g, 8) != metric_distance(g, f, 8):
            witness = "symmetry"
            break
        if metric_distance(f, f, 8)[0] != 0:
            witness = "identity"
            break
    add("dual-metric", witness, "distance symmetry and vanishing on the diagonal")

    return report


def birkhoff_suite(ctx: HopfAlgebra, max_degree: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    degree = min(max_degree, 4)
    report = SuiteReport("birkhoff-renorm", seed, degree, [])
    L = LaurentRing(QQ, "eps")

    def add(name, witness, detail=""):
        report.checks.append(CheckResult(name, witness is None, witness, detail))

    witness = None
    for i in range(100):
        a = L.make({k: Fraction(rng.randint(-4, 4)) for k in range(-3, 3)}, None)
        b = L.make({k: Fraction(rng.randint(-4, 4)) for k in range(-3, 3)}, None)
        lhs = L.add(
            rota_baxter_T(L, L.mul(a, b)),
            L.mul(rota_baxter_T(L, a), rota_baxter_T(L, b)),
        )
        rhs = rota_baxter_T(
            L, L.add(L.mul(rota_baxter_T(L, a), b), L.mul(a, rota_baxter_T(L, b)))
        )
        if lhs != rhs:
            witness = f"pair {i}"
            break
    add("rota-baxter-identity", witness, "100 random Laurent pairs, exact")

    witness = None
    for i in range(3):
        values = {}
        for g in ctx.schema.generators_up_to(degree):
            coeffs = {k: Fraction(rng.randint(-3, 3)) for k in range(-1, 2)}
            values[g] = L.make(coeffs, None)
        phi = Character(ctx, L, values)
        try:
            pair = birkhoff_decompose(ctx, phi, degree)
        except HopfError as exc:
            witness = f"loop {i}: {exc}"
            break
        if not pair.report["passed"]:
            witness = f"loop {i}"
            break
    add(
        "birkhoff-decomposition",
        witness,
        "ranges, counterterm multiplicativity, reconstruction on random loops",
    )

    witness = None
    for i in range(2):
        beta = _random_infinitesimal(ctx, rng, degree)
        for n in range(1, 4):
            rec = dn_recursive(ctx, beta, n, degree)
            simp = dn_simplex(ctx, beta, n, degree)
            for m in ctx.basis_up_to(degree):
                if rec.value_on(m) != simp.value_on(m):
                    witness = f"n={n}, {m}"
                    break
            if witness:
                break
        if witness:
            break
    add("tower-consistency", witness, "recursive and simplex towers agree")

    witness = None
    for i in range(2):
        beta = _random_infinitesimal(ctx, rng, degree)
        loop = build_special_loop(ctx, beta, degree, degree)
        rg = rg_limit_check(ctx, loop, degree)
        if not rg.passed:
            witness = f"loop {i}"
            break
        for g in ctx.schema.generators_up_to(degree):
            if rg.beta.value_on(Monomial.of(g)) != beta.value_on(Monomial.of(g)):
                witness = f"loop {i}: {g.name}"
                break
        if witness:
            break
    add(
        "rg-closed-loop",
        witness,
        "built loops are special and return their beta-function",
    )

    witness = None
    beta = _random_infinitesimal(ctx, rng, degree)
    scat = scattering_check(ctx, beta, min(3, degree), degree)
    if not scat.passed:
        for entry in scat.orders:
            if not entry["passed"]:
                witness = f"order {entry['order']}: {entry['mismatches']}"
                break
    add("scattering-limit", witness, "finite-time limits equal the tower")

    witness = None
    bad = Character(ctx, L, {g: L.make({-2: Fraction(1)}, None)
                             for g in ctx.schema.generators_of_degree(1)})
    if ctx.schema.generators_of_degree(1):
        rg = rg_limit_check(ctx, bad, 1)
        if rg.special:
            witness = "expected non-special loop was reported special"
    add(
        "non-special-detected",
        witness,
        "a second-order pole on a degree-1 generator is flagged",
    )

    return report
