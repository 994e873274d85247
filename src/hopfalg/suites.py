"""Seeded property suites over the dual calculus and the Birkhoff machinery.

These complement the axiom verifier: randomized but fully deterministic for a
fixed seed, so two runs with the same configuration produce byte-identical
reports.
"""

from __future__ import annotations

import random
from itertools import permutations
from typing import List, NamedTuple

from . import duals
from .algebra import Monomial
from .birkhoff import birkhoff_decompose, rota_baxter_T
from .duals import (
    Character,
    InfinitesimalCharacter,
    TableFunctional,
    counit_functional,
    exp_star,
    grading_transpose,
    log_star,
)
from .errors import CheckResult, HopfError
from .functionals import ConvolutionProduct, character_inverse, convolve, metric_distance
from .hopf import HopfAlgebra
from .rg import build_special_loop, dn_recursive, dn_simplex, rg_limit_check, scattering_check
from .rings import EPS_RING, QQ


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    max_degree: int
    checks: List[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, witnesses, detail: str = "") -> None:
        """Record a check by ``CheckResult.first``: a ``HopfError`` that the code
        under check raises is its witness, and the later checks still run."""
        self.checks.append(CheckResult.first(name, witnesses, detail, HopfError))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "maxDegree": self.max_degree,
            "passed": self.passed,
            "checks": [{"check": c.name, "passed": c.passed, "counterexample": c.counterexample,
                        "detail": c.detail} for c in self.checks],
        }


def _random_infinitesimal(ctx, rng, max_degree) -> InfinitesimalCharacter:
    values = {}
    for g in ctx.schema.generators_up_to(max_degree):
        c = rng.randint(-5, 5)
        if c:
            values[g] = c
    return InfinitesimalCharacter(ctx, QQ, values)


def _random_character(ctx, rng, max_degree) -> Character:
    values = {}
    for g in ctx.schema.generators_up_to(max_degree):
        values[g] = rng.randint(-5, 5)
    return Character(ctx, QQ, values)


def dual_convolution_suite(ctx: HopfAlgebra, max_degree: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    degree = min(max_degree, 4)
    report = SuiteReport("dual-convolution", seed, degree, [])
    add = report.add
    basis = ctx.basis_up_to(degree)
    one_star = counit_functional(ctx, QQ)

    def kernel(a, b):
        return duals.convolve_tables(ctx, QQ, a, b, basis)

    def associative():
        for _ in range(5):
            f = _random_character(ctx, rng, degree)
            g = _random_infinitesimal(ctx, rng, degree)
            h = _random_character(ctx, rng, degree)
            # Two bracketings through the kernel, and the flat product as oracle.
            tf, tg, th = f.tabulate(basis), g.tabulate(basis), h.tabulate(basis)
            left, right = kernel(kernel(tf, tg), th), kernel(tf, kernel(tg, th))
            flat = convolve(f, g, h)
            for m in basis:
                v = left.get(m, 0)
                if v != right.get(m, 0) or v != flat.value_on(m):
                    yield str(m)

    add("convolution-associative", associative(), "three random functionals, full basis")

    def unit():
        chi = _random_character(ctx, rng, degree)
        right, left = convolve(chi, one_star), convolve(one_star, chi)
        for m in basis:
            if right.value_on(m) != chi.value_on(m) or left.value_on(m) != chi.value_on(m):
                yield str(m)

    add("convolution-unit", unit(), "the counit is the convolution unit")

    def inverse():
        for _ in range(3):
            chi = _random_character(ctx, rng, degree)
            inv = character_inverse(chi, max_degree=degree)
            left, right = convolve(inv, chi), convolve(chi, inv)
            for m in basis:
                if left.value_on(m) != one_star.value_on(m) or right.value_on(m) != one_star.value_on(m):
                    yield str(m)

    add("character-inverse", inverse(), "chi o S inverts chi on both sides")

    def classification():
        chi = _random_character(ctx, rng, degree)
        z = _random_infinitesimal(ctx, rng, degree)
        half = [m for m in basis if 2 * m.y_degree <= degree]
        for m1 in half:
            for m2 in half:
                if chi.value_on(m1 * m2) != QQ.mul(chi.value_on(m1), chi.value_on(m2)):
                    yield f"{m1} | {m2}"
                lhs = z.value_on(m1 * m2)
                rhs = QQ.add(
                    QQ.mul(z.value_on(m1), one_star.value_on(m2)),
                    QQ.mul(one_star.value_on(m1), z.value_on(m2)),
                )
                if lhs != rhs:
                    yield f"{m1} | {m2}"

    add(
        "character-classification",
        classification(),
        "multiplicativity of characters, derivation law of infinitesimals",
    )

    def nilpotence():
        for _ in range(10):
            n = rng.randint(1, 3)
            conv = ConvolutionProduct([_random_infinitesimal(ctx, rng, degree) for _ in range(n + 1)])
            for m in ctx.basis_up_to(min(n, degree)):
                if conv.value_on(m) != 0:
                    yield f"n={n}, {m}"

    add("nilpotence", nilpotence(), "n+1 infinitesimals kill degree <= n")

    # Without a generator of degree <= min(3, degree) the next two checks
    # have nothing to draw, and pass.
    low_gens = ctx.schema.generators_up_to(min(3, degree))

    def permanent():
        for _ in range(6 if low_gens else 0):
            n = rng.randint(2, 3)
            zs = [_random_infinitesimal(ctx, rng, degree) for _ in range(n)]
            picks = [rng.choice(low_gens) for _ in range(n)]
            m = Monomial.from_powers((g, 1) for g in picks)
            brute = ConvolutionProduct(zs).value_on(m)
            formula = 0
            for sigma in permutations(range(n)):
                prod = 1
                for j, g in enumerate(picks):
                    prod *= zs[sigma[j]].value_on(Monomial.of(g))
                formula += prod
            if brute != formula:
                yield str(m)

    add("permanent-formula", permanent(), "iterated coproduct vs permutation sum")

    def long_products():
        # Draws for both n, so it yields every failure; the report keeps the last.
        for n in (1, 2) if low_gens else ():
            zs = [_random_infinitesimal(ctx, rng, degree) for _ in range(n)]
            m = Monomial.of(low_gens[0], n + 1)
            if ConvolutionProduct(zs).value_on(m) != 0:
                yield f"n={n}, {m}"

    add("vanishing-on-long-products", reversed(list(long_products())), "n infinitesimals kill m > n factors")

    def round_trip():
        for _ in range(3):
            z = _random_infinitesimal(ctx, rng, degree)
            back = log_star(exp_star(z, degree), degree)
            for g in ctx.schema.generators_up_to(degree):
                if back.value_on(Monomial.of(g)) != z.value_on(Monomial.of(g)):
                    yield g.name

    add("exp-log-round-trip", round_trip(), "log recovers the infinitesimal generatorwise")

    def derivation():
        t1 = _random_infinitesimal(ctx, rng, degree).tabulate(basis)
        t2 = _random_infinitesimal(ctx, rng, degree).tabulate(basis)
        product = grading_transpose(QQ, kernel(t1, t2))
        first = kernel(grading_transpose(QQ, t1), t2)
        second = kernel(t1, grading_transpose(QQ, t2))
        for m in basis:
            if product.get(m, 0) != QQ.add(first.get(m, 0), second.get(m, 0)):
                yield str(m)

    add("grading-transpose-derivation", derivation(), "Y_* is a derivation for convolution")

    def metric():
        for _ in range(3):
            f = TableFunctional(ctx, QQ, {m: rng.randint(-3, 3) for m in basis})
            g = TableFunctional(ctx, QQ, {m: rng.randint(-3, 3) for m in basis})
            if metric_distance(f, g, 8) != metric_distance(g, f, 8):
                yield "symmetry"
            if metric_distance(f, f, 8)[0] != 0:
                yield "identity"

    add("dual-metric", metric(), "distance symmetry and vanishing on the diagonal")

    return report


def birkhoff_suite(ctx: HopfAlgebra, max_degree: int, seed: int) -> SuiteReport:
    rng = random.Random(seed)
    degree = min(max_degree, 4)
    report = SuiteReport("birkhoff-renorm", seed, degree, [])
    add = report.add
    L = EPS_RING

    def rota_baxter():
        for i in range(100):
            a = L.make({k: rng.randint(-4, 4) for k in range(-3, 3)}, None)
            b = L.make({k: rng.randint(-4, 4) for k in range(-3, 3)}, None)
            lhs = L.add(
                rota_baxter_T(L, L.mul(a, b)),
                L.mul(rota_baxter_T(L, a), rota_baxter_T(L, b)),
            )
            rhs = rota_baxter_T(
                L, L.add(L.mul(rota_baxter_T(L, a), b), L.mul(a, rota_baxter_T(L, b)))
            )
            if lhs != rhs:
                yield f"pair {i}"

    add("rota-baxter-identity", rota_baxter(), "100 random Laurent pairs, exact")

    def decomposition():
        for i in range(3):
            values = {}
            for g in ctx.schema.generators_up_to(degree):
                coeffs = {k: rng.randint(-3, 3) for k in range(-1, 2)}
                values[g] = L.make(coeffs, None)
            try:
                pair = birkhoff_decompose(Character(ctx, L, values), degree)
            except HopfError as exc:
                yield f"loop {i}: {exc}"
            else:
                if not pair.report["passed"]:
                    yield f"loop {i}"

    add(
        "birkhoff-decomposition",
        decomposition(),
        "ranges, counterterm multiplicativity, reconstruction on random loops",
    )

    def towers():
        for i in range(2):
            beta = _random_infinitesimal(ctx, rng, degree)
            for n in range(1, 4):
                rec = dn_recursive(beta, n, degree)
                simp = dn_simplex(beta, n, degree)
                for m in ctx.basis_up_to(degree):
                    if rec.value_on(m) != simp.value_on(m):
                        yield f"n={n}, {m}"

    add("tower-consistency", towers(), "recursive and simplex towers agree")

    def closed_loop():
        for i in range(2):
            beta = _random_infinitesimal(ctx, rng, degree)
            loop = build_special_loop(beta, degree)
            rg = rg_limit_check(loop, degree)
            if not rg.passed:
                yield f"loop {i}"
            for g in ctx.schema.generators_up_to(degree):
                if rg.beta.value_on(Monomial.of(g)) != beta.value_on(Monomial.of(g)):
                    yield f"loop {i}: {g.name}"

    add(
        "rg-closed-loop",
        closed_loop(),
        "built loops are special and return their beta-function",
    )

    def scattering():
        beta = _random_infinitesimal(ctx, rng, degree)
        scat = scattering_check(beta, min(3, degree), degree)
        for entry in scat.orders:
            if not entry["passed"]:
                yield f"order {entry['order']}: {entry['mismatches']}"

    add("scattering-limit", scattering(), "finite-time limits equal the tower")

    def non_special():
        bad = Character(ctx, L, {g: L.make({-2: 1}, None)
                                 for g in ctx.schema.generators_of_degree(1)})
        if ctx.schema.generators_of_degree(1) and rg_limit_check(bad, 1).special:
            yield "expected non-special loop was reported special"

    add(
        "non-special-detected",
        non_special(),
        "a second-order pole on a degree-1 generator is flagged",
    )

    return report
