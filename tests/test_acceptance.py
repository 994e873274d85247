"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance here is exact equality (the whole engine is exact
rational arithmetic), and the two runtime budgets are asserted.
"""

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest

from hopfalg.algebra import Monomial
from hopfalg.birkhoff import BirkhoffPair, birkhoff_decompose, birkhoff_verification_report
from hopfalg.duals import Character, InfinitesimalCharacter, exp_star, log_star
from hopfalg.functionals import ConvolutionProduct
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema
from hopfalg.rg import build_special_loop, dn_recursive, dn_simplex, rg_limit_check, scattering_check
from hopfalg.rings import EPS_RING, QQ
from hopfalg.trees import rooted_tree_schema

CLI = [sys.executable, "-m", "hopfalg.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
L = EPS_RING


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS", flush=True)


@pytest.fixture(scope="module")
def ladder():
    return HopfAlgebra(ladder_schema(), validate_to=6)


@pytest.fixture(scope="module")
def trees6():
    return HopfAlgebra(rooted_tree_schema(6))


def random_infinitesimal(ctx, rng, max_degree):
    values = {}
    for g in ctx.schema.generators_up_to(max_degree):
        c = rng.randint(-5, 5)
        if c:
            values[g] = Fraction(c)
    return InfinitesimalCharacter(ctx, QQ, values)


def test_criterion_1_axiom_suite():
    with criterion(1, "axiom suite via CLI, both schemas, < 60 s each"):
        for selector, degree in (("ladder", 6), ("trees:5", 5)):
            start = time.monotonic()
            proc = subprocess.run(
                CLI + ["verify", "--schema", selector, "--max-degree", str(degree)],
                capture_output=True,
                text=True,
                timeout=120,
                env=dict(os.environ, PYTHONPATH=SRC),
            )
            elapsed = time.monotonic() - start
            assert proc.returncode == 0, proc.stdout + proc.stderr
            report = json.loads(proc.stdout)
            assert report["passed"] is True
            names = {c["axiom"] for c in report["axioms"]["checks"]}
            assert {
                "Am", "Ae", "CDelta", "Ceps", "Bm", "Be", "Beps", "Bepse",
                "H", "Hm", "HDelta", "He", "Heps", "Hp",
                "grading-product", "grading-coproduct",
                "Y-derivation", "Y-coderivation",
                "theta-algebra-map", "theta-coalgebra-map",
                "progressive", "S-commutes-Y", "S-commutes-theta",
                "primitive-elements", "group-like-sanity",
            } <= names
            assert elapsed < 60, f"{selector} took {elapsed:.1f}s"


def test_criterion_2_antipode_coincidence(ladder, trees6):
    with criterion(2, "left and right antipode recursions coincide to degree 6"):
        mismatches = []
        for ctx in (ladder, trees6):
            for m in ctx.basis_up_to(6):
                if ctx.antipode_monomial(m) != ctx.antipode_left_monomial(m):
                    mismatches.append(str(m))
        assert mismatches == []


def test_criterion_3_nilpotence(ladder, trees6):
    with criterion(3, "convolution nilpotence, 50 seeded tuples"):
        rng = random.Random(2016)
        for i in range(50):
            ctx = ladder if i % 2 == 0 else trees6
            n = rng.randint(1, 4)
            zs = [random_infinitesimal(ctx, rng, 4) for _ in range(n + 1)]
            conv = ConvolutionProduct(zs)
            for m in ctx.basis_up_to(n):
                assert conv.value_on(m) == 0, (i, n, str(m))


def test_criterion_4_permanent_formula(ladder):
    with criterion(4, "permanent formula and vanishing, 50 seeded tuples"):
        rng = random.Random(31337)
        gens = [ladder.schema.generator(n) for n in (1, 2, 3)]
        for i in range(50):
            n = rng.randint(2, 4)
            zs = [random_infinitesimal(ladder, rng, 3) for _ in range(n)]
            conv = ConvolutionProduct(zs)
            for picks in combinations_with_replacement(gens, n):
                m = Monomial.from_powers((g, 1) for g in picks)
                brute = conv.value_on(m)
                formula = Fraction(0)
                for sigma in permutations(range(n)):
                    prod = Fraction(1)
                    for j, g in enumerate(picks):
                        prod *= zs[sigma[j]].value_on(Monomial.of(g))
                    formula += prod
                assert brute == formula, (i, n, str(m))
            # vanishing on products of more than n generators
            for m_len in range(n + 1, 6):
                m = Monomial.of(gens[0], m_len)
                assert conv.value_on(m) == 0, (i, n, m_len)


def test_criterion_5_exp_log_round_trips(ladder):
    with criterion(5, "exp/log round trips to degree 5, 25 seeded cases each"):
        rng = random.Random(99)
        gens = [ladder.schema.generator(n) for n in range(1, 6)]
        for _ in range(25):
            z = random_infinitesimal(ladder, rng, 5)
            back = log_star(exp_star(z, 5), 5)
            for g in gens:
                assert back.value_on(Monomial.of(g)) == z.value_on(Monomial.of(g))
        for _ in range(25):
            chi = Character(
                ladder, QQ, {g: Fraction(rng.randint(-5, 5)) for g in gens}
            )
            again = exp_star(log_star(chi, 5), 5)
            for m in ladder.basis_up_to(5):
                assert again.value_on(m) == chi.value_on(m)


def test_criterion_6_birkhoff(ladder):
    with criterion(6, "Birkhoff: 25 seeded loops, pole <= 2, degree 5"):
        rng = random.Random(5040)
        for i in range(25):
            values = {}
            for n in range(1, 6):
                coeffs = {
                    k: Fraction(rng.randint(-4, 4)) for k in range(-2, 3)
                }
                values[ladder.schema.generator(n)] = L.make(coeffs, None)
            phi = Character(ladder, L, values)
            pair = birkhoff_decompose(phi, 5)
            checks = pair.report["checks"]
            assert checks["reconstruction"]["passed"], i
            assert checks["minus_range"]["passed"], i
            assert checks["plus_range"]["passed"], i
            assert checks["minus_multiplicative"]["passed"], i
        # the worked example, bit-exact
        t = lambda n: Monomial.of(ladder.schema.generator(n))
        phi = Character(
            ladder,
            L,
            {
                ladder.schema.generator(1): L.make({-1: Fraction(1)}, None),
                ladder.schema.generator(2): L.make({-2: Fraction(1)}, None),
            },
        )
        pair = birkhoff_decompose(phi, 2)
        assert pair.minus_table[t(1)].as_dict() == {-1: Fraction(-1)}
        assert pair.minus_table[t(2)].as_dict() == {}
        assert pair.plus_table[t(2)].as_dict() == {}


def test_criterion_7_beta_closed_loop(ladder):
    with criterion(7, "beta-function closed loop, towers, scattering, < 5 min"):
        start = time.monotonic()
        rng = random.Random(777)
        trees4 = HopfAlgebra(rooted_tree_schema(4))
        contexts = [ladder, trees4]
        for i in range(10):
            ctx = contexts[i % 2]
            beta = random_infinitesimal(ctx, rng, 4)
            loop = build_special_loop(beta, 4)
            report = rg_limit_check(loop, 4)
            assert report.special, i
            assert report.flow_additive, i
            assert report.flow_is_exponential, i
            assert report.residue_identity, i
            assert report.beta_matches_residue, i
            for g in ctx.schema.generators_up_to(4):
                assert report.beta.value_on(Monomial.of(g)) == beta.value_on(
                    Monomial.of(g)
                ), (i, g.name)
        # tower consistency at degree 5 (ladder) and 4 (trees)
        for ctx, degree in ((ladder, 5), (trees4, 4)):
            beta = random_infinitesimal(ctx, rng, degree)
            for n in range(1, 5):
                rec = dn_recursive(beta, n, degree)
                simp = dn_simplex(beta, n, degree)
                for m in ctx.basis_up_to(degree):
                    assert rec.value_on(m) == simp.value_on(m), (n, str(m))
        # scattering limits for n <= 3
        for ctx in contexts:
            beta = random_infinitesimal(ctx, rng, 4)
            report = scattering_check(beta, 3, 4)
            assert report.passed
        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_8_negative_tests(ladder, tmp_path):
    with criterion(8, "seeded fault, non-special loop, perturbed pair"):
        # (a) corrupted schema: the dropped reduced term breaks coassociativity
        schema = {
            "generators": [
                {"name": f"t{n}", "degree": n} for n in range(1, 5)
            ],
            "reducedCoproduct": {
                "t3": [
                    {"left": [["t1", 1]], "right": "t2", "coeff": "1"},
                    {"left": [["t2", 1]], "right": "t1", "coeff": "1"},
                ],
                "t4": [
                    {"left": [["t1", 1]], "right": "t3", "coeff": "1"},
                    {"left": [["t2", 1]], "right": "t2", "coeff": "1"},
                    {"left": [["t3", 1]], "right": "t1", "coeff": "1"},
                ],
            },
        }
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(schema))
        proc = subprocess.run(
            CLI + ["verify", f"--schema=custom:{path}", "--max-degree", "4"],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        cdelta = next(
            c for c in report["axioms"]["checks"] if c["axiom"] == "CDelta"
        )
        assert not cdelta["passed"]
        assert cdelta["counterexample"]  # a concrete witness is printed

        # (b) the non-special loop is reported, not raised
        phi = Character(
            ladder,
            L,
            {ladder.schema.generator(1): L.make({-2: Fraction(1)}, None)},
        )
        rg = rg_limit_check(phi, 1)
        assert not rg.special
        assert rg.witnesses[0]["monomial"] == "t1"

        # (c) perturbing the counterterm on one generator breaks reconstruction
        base_phi = Character(
            ladder,
            L,
            {
                ladder.schema.generator(1): L.make({-1: Fraction(1)}, None),
                ladder.schema.generator(2): L.make({-2: Fraction(1)}, None),
            },
        )
        pair = birkhoff_decompose(base_phi, 3)
        corrupted = dict(pair.minus_table)
        t2 = Monomial.of(ladder.schema.generator(2))
        corrupted[t2] = L.add(corrupted[t2], L.make({-1: Fraction(1)}, None))
        bad = BirkhoffPair(ladder, L, 3, corrupted, dict(pair.plus_table))
        report = birkhoff_verification_report(base_phi, bad)
        assert not report["checks"]["reconstruction"]["passed"]


def test_criterion_9_determinism():
    with criterion(9, "byte-identical reports for identical seeds"):
        for selector, degree in (("ladder", 5), ("trees:4", 4)):
            outputs = []
            for _ in range(2):
                proc = subprocess.run(
                    CLI
                    + [
                        "verify",
                        "--schema",
                        selector,
                        "--max-degree",
                        str(degree),
                        "--seed",
                        "12345",
                    ],
                    capture_output=True,
                    text=True,
                    timeout=120,
                    env=dict(os.environ, PYTHONPATH=SRC),
                )
                assert proc.returncode == 0
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1]
            assert outputs[0].encode("utf-8") == outputs[1].encode("utf-8")
