"""Failure paths of the checks: seeded faults and the witnesses they produce.

Each case puts one fault into one map of the engine and pins what the checks
report, so the search order, the witness strings and the random draws after
an early stop are covered, not only the all-pass reports.
"""

import hashlib
import json
import os
import subprocess
import sys
import textwrap

import pytest

from hopfalg import cli, duals, suites
from hopfalg.algebra import Monomial, TensorElement
from hopfalg.errors import VerificationError
from hopfalg.hopf import HopfAlgebra

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

AXIOMS = [
    "schema-structure", "CDelta", "Am", "Ae", "Ceps", "Bm", "Be", "Beps", "Bepse", "H", "Hm", "HDelta",
    "He", "Heps", "Hp", "grading-product", "grading-coproduct", "Y-derivation", "Y-coderivation",
    "theta-algebra-map", "theta-coalgebra-map", "progressive", "S-commutes-Y", "S-commutes-theta",
    "primitive-elements", "group-like-sanity",
]


def basis_monomial(schema, name):
    """The basis monomial of degree <= 4 printed as ``name``."""
    ctx = HopfAlgebra(cli.resolve_schema(schema), validate_to=0)
    return next(m for m in ctx.basis_up_to(4) if str(m) == name)


def faulty_map(name, target):
    """A ``HopfAlgebra`` method that is wrong exactly where ``target`` enters it."""
    original = getattr(HopfAlgebra, name)

    def coproduct_monomial(self, m):
        out = original(self, m)
        return out + TensorElement(2, {(target, Monomial.unit()): 1}) if m is target else out

    def antipode_monomial(self, m):
        out = original(self, m)
        return out + self.monomial_element(m) if m is target else out

    def apply_Y(self, h):
        out = original(self, h)
        return out + self.monomial_element(target) if target in h.terms else out

    def apply_theta(self, h, factors, ring):
        out = original(self, h, factors, ring)
        if target in h.terms:
            out[target] = ring.add(out.get(target, ring.zero()), ring.one())
        return out

    def counit(self, h):
        return original(self, h) + (1 if target in h.terms else 0)

    return locals()[name]


# (schema, the map made wrong, the monomial it is wrong on) -> the failing
# checks with their witnesses; every other check passes.
AXIOM_FAULTS = [
    ("ladder", "antipode_monomial", "t2", {"H": "t2", "Hm": "t1 | t2", "HDelta": "t2"}),
    ("ladder", "apply_Y", "t1^2", {"Y-derivation": "t1 | t1", "Y-coderivation": "t1^2", "S-commutes-Y": "t2"}),
    ("ladder", "apply_theta", "t1",
     {"theta-algebra-map": "t1 | t1", "theta-coalgebra-map": "t1", "S-commutes-theta": "t1"}),
    ("ladder", "counit", "1", {"Beps": "1 | 1", "Bepse": "1", "Heps": "1", "Hp": "1"}),
    ("ladder", "coproduct_monomial", "t1*t2",
     {"Ceps": "t1*t2", "Bm": "t1 | t2", "H": "t1*t2", "Hm": "t1 | t2", "HDelta": "t1*t2", "progressive": "t1*t2"}),
    ("trees:4", "antipode_monomial", "[[]]", {"H": "[[]]", "Hm": "[] | [[]]", "HDelta": "[[]]"}),
    ("trees:4", "apply_Y", "[]^2", {"Y-derivation": "[] | []", "Y-coderivation": "[]^2", "S-commutes-Y": "[[]]"}),
    ("trees:4", "apply_theta", "[]",
     {"theta-algebra-map": "[] | []", "theta-coalgebra-map": "[]", "S-commutes-theta": "[]"}),
    ("trees:4", "counit", "1", {"Beps": "1 | 1", "Bepse": "1", "Heps": "1", "Hp": "1"}),
    ("trees:4", "coproduct_monomial", "[[]]^2", {"Ceps": "[[]]^2", "Bm": "[[]] | [[]]", "H": "[[]]^2",
                                                  "Hm": "[[]] | [[]]", "HDelta": "[[]]^2", "progressive": "[[]]^2"}),
]


@pytest.mark.parametrize("schema, method, target, failures", AXIOM_FAULTS,
                         ids=[f"{s}-{m}-{t}" for s, m, t, _ in AXIOM_FAULTS])
def test_axiom_witnesses_under_a_faulty_map(schema, method, target, failures, monkeypatch, capsys):
    monkeypatch.setattr(HopfAlgebra, method, faulty_map(method, basis_monomial(schema, target)))
    assert cli.main(["verify", "--schema", schema, "--max-degree", "4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert "dualConvolution" not in report and "birkhoff" not in report
    got = [(c["axiom"], c["passed"], c["counterexample"]) for c in report["axioms"]["checks"]]
    assert got == [(name, name not in failures, failures.get(name)) for name in AXIOMS]


def test_an_antipode_fill_that_does_not_descend_fails_with_its_witness():
    """With 1 (x) t1*t2 added to D(t1*t2), the reduced coproduct of t1*t2 names
    t1*t2 itself as a right leg, so the right antipode fill cannot descend:
    it raises with that witness instead of growing its stack for ever.  In a
    subprocess, so that a fill that never ends is a timeout, not a hang."""
    code = textwrap.dedent("""
        import sys
        from hopfalg import cli
        from hopfalg.algebra import Monomial, TensorElement
        from hopfalg.hopf import HopfAlgebra
        original = HopfAlgebra.coproduct_monomial
        def coproduct_monomial(self, m):
            out = original(self, m)
            return out + TensorElement(2, {(Monomial.unit(), m): 1}) if str(m) == "t1*t2" else out
        HopfAlgebra.coproduct_monomial = coproduct_monomial
        sys.exit(cli.main(["verify", "--schema", "ladder", "--max-degree", "4"]))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    diagnostic = json.loads(proc.stderr)
    assert (diagnostic["error"], diagnostic["witness"]) == ("VerificationError", "t1*t2")


def test_a_left_antipode_recursion_that_does_not_descend_fails_with_its_witness(monkeypatch):
    """With 1 t3 (x) 1 added to D(t3), the reduced coproduct of t3 names t3
    itself as a left leg, so the left antipode recursion cannot descend: it
    raises with that witness instead of recursing to the interpreter's limit."""
    target = basis_monomial("ladder", "t3")
    monkeypatch.setattr(HopfAlgebra, "coproduct_monomial", faulty_map("coproduct_monomial", target))
    ctx = HopfAlgebra(cli.resolve_schema("ladder"), validate_to=0)
    with pytest.raises(VerificationError) as raised:
        ctx.antipode_left_monomial(target)
    assert raised.value.witness == "t3"


def faulty_convolve_tables(monkeypatch, target):
    """``convolve_tables`` off by one on ``target`` wherever its value is nonzero;
    every caller reads it off ``duals``."""
    original = duals.convolve_tables

    def faulty(ctx, ring, a, b, monomials):
        out = original(ctx, ring, a, b, monomials)
        if target in out:
            out[target] = ring.add(out[target], ring.one())
        return out

    monkeypatch.setattr(duals, "convolve_tables", faulty)


def test_birkhoff_prints_the_failed_check_and_its_witness(monkeypatch, capsys, tmp_path):
    """A Birkhoff pair that fails a check exits 1 with the check and its
    witness on stdout, in place of the pair."""
    faulty_convolve_tables(monkeypatch, basis_monomial("ladder", "t4"))
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"kind": "character", "ring": "laurent", "values": {
        f"t{n}": {"truncation": None, "coeffs": {"-2": "1", "-1": str(n), "0": "1/2"}} for n in range(1, 5)}}))
    assert cli.main(["birkhoff", str(path), "--schema", "ladder", "--max-degree", "4"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out) == {"passed": False, "error": "Birkhoff decomposition failed internal checks ['reconstruction']",
                               "witness": "t4"}


def faulty_character_value(monkeypatch, target):
    """``Character.value_on`` off by one on ``target``; ``tabulate`` stays right."""
    original = duals.Character.value_on

    def faulty(self, m):
        out = original(self, m)
        return self.ring.add(out, self.ring.one()) if m is target else out

    monkeypatch.setattr(duals.Character, "value_on", faulty)


# (fault, schema, the monomial it is wrong on) -> per suite, the failing checks
# with their witnesses and the sha256 of the whole report, at seed 1.
LOOP_0 = "loop 0: Birkhoff decomposition failed internal checks ['reconstruction']"
SUITE_FAULTS = [
    (faulty_convolve_tables, "ladder", "t4", {
        "dual-convolution": (
            [("convolution-associative", "t4"), ("exp-log-round-trip", "t4"), ("grading-transpose-derivation", "t4")],
            "1149d19f0f1cc6e7f20ad233b0f8170fe9710892a5469a7d10ae6ef0e930cf98"),
        "birkhoff-renorm": (
            [("birkhoff-decomposition", LOOP_0), ("tower-consistency", "n=2, t4"),
             ("rg-closed-loop", "built loop fails the residue identity on t4"),
             ("scattering-limit", "order 2: ['t4']")],
            "001fbcde89b4ef73b061c94767a40be45772e773afea1967720c478034821de5"),
    }),
    # Here the checked code itself raises: each check records the message as
    # its witness, and the later checks still run.
    (faulty_convolve_tables, "ladder", "t1^2", {
        "dual-convolution": (
            [("convolution-associative", "t1^2"), ("exp-log-round-trip", "exponential failed multiplicativity on t1^2")],
            "83f50e7dd001d6b24ee077d580706a4f576768760c4f0c982ef7e78f70b24f3e"),
        "birkhoff-renorm": (
            [("birkhoff-decomposition", LOOP_0), ("tower-consistency", "n=2, t1^2"),
             ("rg-closed-loop", "built loop fails the residue identity on t1^2"), ("scattering-limit", "order 2: ['t1^2']")],
            "13d2a37c090d424bcd2a88cf57d2b973b616c02d1f7f6234c6309747826ccb95"),
    }),
    (faulty_character_value, "ladder", "t1*t2", {
        "dual-convolution": (
            [("convolution-associative", "t1*t3"), ("convolution-unit", "t1*t2"), ("character-inverse", "t1*t2"),
             ("character-classification", "t1 | t2")],
            "5b73aba2459330d01057e65a2e803702257fe86463bd951ba15248196e9de555"),
        "birkhoff-renorm": ([], "e0e46795a735720e2816cd9c869c91f64c9aa1376a4bc8c16843d8affbc52dac"),
    }),
    (faulty_convolve_tables, "trees:4", "[[][][]]", {
        "dual-convolution": (
            [("convolution-associative", "[[][][]]"), ("exp-log-round-trip", "[[][][]]"),
             ("grading-transpose-derivation", "[[][][]]")],
            "fb4aa5fcc966906ff2fec3c2da23b169f2b6184e3ed248a4b29c8782ca8affea"),
        "birkhoff-renorm": (
            [("birkhoff-decomposition", LOOP_0), ("tower-consistency", "n=2, [[][][]]"),
             ("rg-closed-loop", "built loop fails the residue identity on [[][][]]"),
             ("scattering-limit", "order 2: ['[[][][]]']")],
            "5d324cf0ab731e4f005c8b6250e4e2debcc2b7e7c99250ceba4405a43756cb14"),
    }),
]


@pytest.mark.parametrize("fault, schema, target, pins", SUITE_FAULTS,
                         ids=[f"{f.__name__}-{s}-{t}" for f, s, t, _ in SUITE_FAULTS])
def test_suite_witnesses_under_a_fault(fault, schema, target, pins, monkeypatch):
    ctx = HopfAlgebra(cli.resolve_schema(schema), validate_to=0)
    fault(monkeypatch, basis_monomial(schema, target))
    for suite in (suites.dual_convolution_suite, suites.birkhoff_suite):
        report = suite(ctx, 4, 1).to_json()
        failures, digest = pins[report["suite"]]
        assert [(c["check"], c["counterexample"]) for c in report["checks"] if not c["passed"]] == failures
        assert hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest() == digest


def test_verify_reports_a_check_that_raises(monkeypatch, capsys):
    faulty_convolve_tables(monkeypatch, basis_monomial("ladder", "t1^2"))
    assert cli.main(["verify", "--schema", "ladder", "--max-degree", "4"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == "6679751a406afe6ffd5fb23e007f6562cd88f79537c73c1d93209235713e35c0"
