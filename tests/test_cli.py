"""End-to-end CLI tests: encodings, exit codes, determinism."""

import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from hopfalg import cli, rg, suites, trees
from hopfalg.exprparse import MAX_EXPONENT
from hopfalg.trees import rooted_tree_schema

CLI = [sys.executable, "-m", "hopfalg.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        CLI + list(argv), capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=SRC)
    )
    assert proc.returncode == expect, (proc.returncode, proc.stdout, proc.stderr)
    return proc


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_antipode_expression():
    proc = run_cli("antipode", "--schema", "ladder", "--expr", "t2", "--output", "text")
    assert proc.stdout.strip() == "t1^2 - t2"
    proc = run_cli("antipode", "--schema", "ladder", "--expr", "t2")
    data = json.loads(proc.stdout)
    assert data == {
        "terms": [
            {"coeff": "1", "monomial": [["t1", 2]]},
            {"coeff": "-1", "monomial": [["t2", 1]]},
        ]
    }


def test_coproduct_tree_expression():
    proc = run_cli("coproduct", "--schema", "trees:4", "--expr", "[[][]]")
    data = json.loads(proc.stdout)
    legs = {
        (json.dumps(t["legs"]), t["coeff"]) for t in data["terms"]
    }
    # the three-cut expansion plus the primitive part
    assert (json.dumps([[["[]", 1]], [["[[]]", 1]]]), "2") in legs
    assert (json.dumps([[["[]", 2]], [["[]", 1]]]), "1") in legs
    assert len(data["terms"]) == 4


def test_an_expression_may_order_a_trees_children_either_way(capsys):
    # [[[]][]] and [[][[]]] are one tree, with its two children in either order.
    outs = []
    for expr in ("[[[]][]]", "[[][[]]]"):
        assert cli.main(["coproduct", "--schema", "trees:4", "--expr", expr]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_a_character_file_may_space_out_a_tree(tmp_path, capsys):
    # As --expr and table files may.
    outs = []
    for key in ("[[]]", "[ [] ]"):
        path = write(tmp_path, "chi.json", {"kind": "character", "values": {"[]": "1", key: "-2"}})
        assert cli.main(["log", path, "--schema", "trees:3", "--max-degree", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_two_spellings_of_one_tree_in_one_file_are_refused(tmp_path, capsys):
    path = write(tmp_path, "chi.json", {"kind": "character", "values": {"[[[]][]]": "1", "[[][[]]]": "2"}})
    assert cli.main(["log", path, "--schema", "trees:4", "--max-degree", "4"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "HopfError", "message": "functional keys '[[[]][]]' and '[[][[]]]' both name [[[]][]]"}


GRAMMAR = ("is neither an identifier (an ASCII letter or _, then letters, digits or _) nor a run of brackets "
           "without whitespace")


@pytest.mark.parametrize("name", ["x*y", "b c", "1x", "δ1"])
def test_a_custom_generator_outside_the_name_grammar_is_refused(name, tmp_path, capsys):
    # Keys the engine writes with such a name do not read back: on a schema
    # naming x*y this convolve would write the table key "x*y^2", which reads
    # as x times y^2.
    schema = write(tmp_path, "schema.json", {"generators": [{"name": name, "degree": 1}]})
    chi = write(tmp_path, "chi.json", {"kind": "character", "values": {name: "1"}})
    z = write(tmp_path, "z.json", {"kind": "infinitesimal", "values": {name: "1"}})
    assert cli.main(["convolve", chi, z, "--schema", f"custom:{schema}", "--max-degree", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err) == {"error": "SchemaError", "message": f"generator name {name!r} {GRAMMAR}"}


def test_a_bracket_name_reads_in_any_spacing_in_every_input(tmp_path, capsys):
    # A custom schema whose generators are named like trees; [ [] ] spells [[]]
    # in an expression, a character key and a table key alike.
    schema = "custom:" + write(tmp_path, "schema.json", {
        "generators": [{"name": "[]", "degree": 1}, {"name": "[[]]", "degree": 2}],
        "reducedCoproduct": {"[[]]": [{"left": [["[]", 1]], "right": "[]"}]}})

    def outputs(argv_of):
        outs = []
        for spelling in ("[[]]", "[ [] ]"):
            assert cli.main(argv_of(spelling)) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        return outs[0]

    assert '"[[]]",2' in outputs(lambda s: ["coproduct", "--schema", schema, "--expr", f"{s}^2"])
    outputs(lambda s: ["log", write(tmp_path, "chi.json", {"kind": "character", "values": {"[]": "1", s: "-2"}}),
                       "--schema", schema, "--max-degree", "4"])
    chi = write(tmp_path, "chi1.json", {"kind": "character", "values": {"[]": "1"}})
    outputs(lambda s: ["convolve", chi, write(tmp_path, "t.json", {"kind": "table", "values": {f"{s}^2": "3"}}),
                       "--schema", schema, "--max-degree", "4"])
    both = write(tmp_path, "both.json", {"kind": "character", "values": {"[[]]": "1", "[ [] ]": "2"}})
    assert cli.main(["log", both, "--schema", schema, "--max-degree", "2"]) == 2
    assert json.loads(capsys.readouterr().err)["message"] == "functional keys '[[]]' and '[ [] ]' both name [[]]"


def test_a_schema_file_reads_a_bracket_name_in_any_spacing(tmp_path, capsys):
    # Its reducedCoproduct key, right leg and left factor read by the one name
    # grammar that expressions, character keys and table keys read.
    outs = []
    for spelling in ("[[]]", "[ [] ]"):
        schema = write(tmp_path, "schema.json", {
            "generators": [{"name": "[]", "degree": 1}, {"name": "[[]]", "degree": 2},
                           {"name": "[[[]]]", "degree": 3}],
            "reducedCoproduct": {spelling: [{"left": [["[]", 1]], "right": "[ ]"}],
                                 "[[[]]]": [{"left": [["[]", 1]], "right": spelling},
                                            {"left": [[spelling, 1]], "right": "[]"}]}})
        assert cli.main(["coproduct", "--schema", f"custom:{schema}", "--expr", "[[[]]]*[[]]"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["terms"]


def test_two_spellings_of_one_generator_in_a_reduced_coproduct_are_refused(tmp_path, capsys):
    schema = write(tmp_path, "schema.json", {
        "generators": [{"name": "[]", "degree": 1}, {"name": "[[]]", "degree": 2}],
        "reducedCoproduct": {"[[]]": [{"left": [["[]", 1]], "right": "[]"}], "[ [] ]": []}})
    assert cli.main(["coproduct", "--schema", f"custom:{schema}", "--expr", "[[]]"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert json.loads(captured.err) == {
        "error": "SchemaError", "message": "reducedCoproduct: keys '[[]]' and '[ [] ]' both name [[]]"}


def test_two_spellings_of_one_laurent_exponent_are_refused(tmp_path, capsys):
    # json read "-1" and "-01" as two keys and int() as one exponent: the last
    # value won, and birkhoff reported phi_-(t1) = -7/eps.
    path = write(tmp_path, "phi.json", {"kind": "character", "ring": "laurent", "values": {
        "t1": {"minExp": -1, "truncation": None, "coeffs": {"-1": "1", "-01": "7"}}}})
    assert cli.main(["birkhoff", path, "--max-degree", "1"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert json.loads(captured.err) == {"error": "HopfError", "message": "Laurent exponents '-1' and '-01' both name -1"}


# The text of a character that gives t1 twice, and of a schema that gives y a
# reduced coproduct and then none: json kept the last value of each, so log
# read t1 = 2 and the schema made y primitive.
REPEATED_KEY_FILES = {
    "functional": ('{"kind":"character","ring":"rational","values":{"t1":"1","t1":"2"}}', "t1",
                   [["log", "{}", "--max-degree", "2"]], "HopfError"),
    "schema": ('{"generators":[{"name":"x","degree":1},{"name":"y","degree":2}],"reducedCoproduct":'
               '{"y":[{"left":[["x",1]],"right":"x","coeff":"2"}],"y":[]}}', "y",
               [["coproduct", "--schema", "custom:{}", "--expr", "y", "--output", "text"],
                ["verify", "--schema", "custom:{}", "--max-degree", "2"]], "SchemaError"),
}


@pytest.mark.parametrize("case", sorted(REPEATED_KEY_FILES))
def test_a_key_repeated_in_a_file_is_refused_naming_the_key_and_the_file(case, tmp_path, capsys):
    text, key, commands, error = REPEATED_KEY_FILES[case]
    path = tmp_path / "input.json"
    path.write_text(text)
    message = f"{case} file {path} gives the key {key!r} twice in one object"
    for argv in commands:
        assert cli.main([a.format(path) for a in argv]) == 2
        captured = capsys.readouterr()
        assert not captured.out
        assert json.loads(captured.err) == {"error": error, "message": message}
    proc = run_cli(*[a.format(path) for a in commands[0]], expect=2)
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert json.loads(proc.stderr) == {"error": error, "message": message}


def test_a_ladder_key_may_hold_whitespace(tmp_path, capsys):
    outs = []
    for key in ("t1", " t1 "):
        assert cli.main(["log", write(tmp_path, "chi.json", {"kind": "character", "values": {key: "1"}}),
                         "--max-degree", "3"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_huge_exponent_is_rejected_before_any_multiplication(capsys):
    argv = ["coproduct", "--schema", "ladder", "--expr", "t1^99999999"]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert json.loads(capsys.readouterr().err)["error"] == "HopfError"
    proc = run_cli(*argv, expect=2)
    err = json.loads(proc.stderr)
    assert "Traceback" not in proc.stderr and not proc.stdout
    assert f"MAX_EXPONENT = {MAX_EXPONENT}" in err["message"] and "99999999" in err["message"]


def test_unknown_generator_is_input_error():
    proc = run_cli(
        "antipode", "--schema", "ladder", "--expr", "q7", expect=2
    )
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError"
    assert "q7" in err["message"]


def test_parse_error_is_input_error():
    proc = run_cli("antipode", "--schema", "ladder", "--expr", "t1 +", expect=2)
    assert json.loads(proc.stderr)["error"] == "HopfError"


def test_exp_command_matches_closed_form(tmp_path):
    z = write(
        tmp_path,
        "z.json",
        {"kind": "infinitesimal", "ring": "rational", "values": {"t1": "3"}},
    )
    proc = run_cli("exp", z, "--schema", "ladder", "--max-degree", "3")
    data = json.loads(proc.stdout)
    assert data["kind"] == "character"
    assert data["values"] == {"t1": "3", "t2": "9/2", "t3": "9/2"}


def test_log_command_matches_closed_form(tmp_path):
    # On the ladder a character is a power series 1 + sum chi(t_n) x^n, and
    # log_* is its logarithm: log(1 + x - 2x^2) = x - 5/2 x^2 + 7/3 x^3 - ...
    chi = write(
        tmp_path,
        "chi.json",
        {"kind": "character", "ring": "rational", "values": {"t1": "1", "t2": "-2"}},
    )
    proc = run_cli("log", chi, "--schema", "ladder", "--max-degree", "3")
    data = json.loads(proc.stdout)
    assert data["kind"] == "infinitesimal"
    assert data["values"] == {"t1": "1", "t2": "-5/2", "t3": "7/3"}


def test_convolve_characters(tmp_path):
    f1 = write(
        tmp_path,
        "c1.json",
        {"kind": "character", "ring": "rational", "values": {"t1": "1"}},
    )
    f2 = write(
        tmp_path,
        "c2.json",
        {"kind": "character", "ring": "rational", "values": {"t1": "2"}},
    )
    proc = run_cli("convolve", f1, f2, "--schema", "ladder", "--max-degree", "3")
    data = json.loads(proc.stdout)
    assert data["kind"] == "character"
    assert data["values"]["t1"] == "3"


def test_birkhoff_worked_example(tmp_path):
    phi = write(
        tmp_path,
        "phi.json",
        {
            "kind": "character",
            "ring": "laurent",
            "values": {
                "t1": {"minExp": -1, "truncation": None, "coeffs": {"-1": "1"}},
                "t2": {"minExp": -2, "truncation": None, "coeffs": {"-2": "1"}},
            },
        },
    )
    proc = run_cli("birkhoff", phi, "--schema", "ladder", "--max-degree", "2")
    data = json.loads(proc.stdout)
    assert data["phiMinus"]["values"]["t1"]["coeffs"] == {"-1": "-1"}
    assert "t2" not in data["phiMinus"]["values"]
    assert data["phiPlus"]["values"] == {}
    assert data["report"]["passed"]


def test_birkhoff_underresolved_is_input_error(tmp_path):
    phi = write(
        tmp_path,
        "phi.json",
        {
            "kind": "character",
            "ring": "laurent",
            "values": {
                "t1": {"minExp": -2, "truncation": 1, "coeffs": {"-2": "1"}},
                "t2": {"minExp": -2, "truncation": 1, "coeffs": {"-2": "1"}},
            },
        },
    )
    proc = run_cli("birkhoff", phi, "--schema", "ladder", "--max-degree", "3", expect=2)
    err = json.loads(proc.stderr)
    assert err["error"] == "TruncationError"
    assert err["requiredOrder"] == 4


def test_build_loop_then_rg_check(tmp_path):
    beta = write(
        tmp_path,
        "beta.json",
        {"kind": "infinitesimal", "ring": "rational", "values": {"t1": "2"}},
    )
    proc = run_cli("build-loop", beta, "--schema", "ladder", "--max-degree", "3")
    loop = tmp_path / "loop.json"
    loop.write_text(proc.stdout)
    proc = run_cli("rg-check", str(loop), "--schema", "ladder", "--max-degree", "3")
    data = json.loads(proc.stdout)
    assert data["special"] is True
    assert data["passed"] is True
    assert data["beta"]["values"] == {"t1": "2"}
    assert data["flow"]["t1"] == ["0", "2"]


def test_rg_check_non_special(tmp_path):
    phi = write(
        tmp_path,
        "phi.json",
        {
            "kind": "character",
            "ring": "laurent",
            "values": {
                "t1": {"minExp": -2, "truncation": None, "coeffs": {"-2": "1"}}
            },
        },
    )
    proc = run_cli(
        "rg-check", phi, "--schema", "ladder", "--max-degree", "1", expect=1
    )
    data = json.loads(proc.stdout)
    assert data["special"] is False
    assert data["witnesses"][0]["monomial"] == "t1"


def test_scattering_command(tmp_path):
    beta = write(
        tmp_path,
        "beta.json",
        {"kind": "infinitesimal", "ring": "rational", "values": {"t1": "1", "t2": "1"}},
    )
    proc = run_cli(
        "scattering", beta, "--schema", "ladder", "--max-degree", "3", "--max-order", "2"
    )
    data = json.loads(proc.stdout)
    assert data["passed"] is True


def test_verify_passes_on_builtin_schemas():
    run_cli("verify", "--schema", "ladder", "--max-degree", "4")
    run_cli("verify", "--schema", "trees:3", "--max-degree", "3")


# Schemas with few monomials up to their top degree, or no generator of
# degree <= 3 to draw: every verify check must pass on them, as on the ladder.
SMALL_SCHEMAS = {"empty": {"generators": []}, "degree-2-only": {"generators": [{"name": "y", "degree": 2}]}}


def test_verify_passes_every_check_on_small_and_sparse_schemas(tmp_path, capsys):
    runs = [("ladder", d) for d in (1, 2, 3)]
    runs += [(f"trees:{n}", d) for n in (1, 2, 3, 4) for d in range(1, min(n, 3) + 1)]
    runs += [(f"custom:{write(tmp_path, f'{name}.json', payload)}", d) for name, payload in SMALL_SCHEMAS.items()
             for d in (1, 2, 3)]
    for schema, degree in runs:
        code = cli.main(["verify", "--schema", schema, "--max-degree", str(degree)])
        out, err = capsys.readouterr()
        report = json.loads(out)
        failed = [c for part in ("axioms", "dualConvolution", "birkhoff") for c in report[part]["checks"]
                  if not c["passed"]]
        assert (code, err, failed, report["passed"]) == (0, "", [], True), (schema, degree)


def test_verify_corrupted_schema_fails(tmp_path):
    schema = {
        "generators": [
            {"name": "t1", "degree": 1},
            {"name": "t2", "degree": 2},
            {"name": "t3", "degree": 3},
            {"name": "t4", "degree": 4},
        ],
        "reducedCoproduct": {
            # t2's term deliberately dropped; t3, t4 keep the full sums.
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
    path = write(tmp_path, "bad.json", schema)
    proc = run_cli(
        "verify", f"--schema=custom:{path}", "--max-degree", "4", expect=1
    )
    data = json.loads(proc.stdout)
    checks = {c["axiom"]: c for c in data["axioms"]["checks"]}
    assert not checks["CDelta"]["passed"]
    assert checks["CDelta"]["counterexample"] == "t4"


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["enumerate-trees", "18"], "MAX_TREES = 5000"),
        (["enumerate-trees", "99999999"], "MAX_TREES = 5000"),
        (["coproduct", "--schema", "trees:40", "--expr", "[]"], "MAX_TREES = 5000"),
        (["coproduct", "--schema", "ladder", "--expr", "(t1+t2+t3+1)^64"],
         "47905 terms, above the limit MAX_POWER_TERMS = 10000"),
        (["coproduct", "--schema", "ladder", "--expr", "(t1+t2+t3+1)^35"],
         "708930508 terms, above the limit MAX_COPRODUCT_TERMS = 100000"),
        (["coproduct", "--schema", "ladder", "--expr", "(t1+t2+t3+1)^11"],
         "167960 terms, above the limit MAX_COPRODUCT_TERMS = 100000"),
        (["antipode", "--schema", "ladder", "--expr", "*".join(f"t{n}^64" for n in range(1, 17))],
         "terms, above the limit MAX_COPRODUCT_TERMS = 100000"),
        (["antipode", "--schema", "ladder", "--expr", "*".join(["t1^64"] * 16)],
         "525825 terms, above the limit MAX_COPRODUCT_TERMS = 100000"),
        # S(t45) would fill p(1) + ... + p(45) terms; priced before any of them.
        # The price stops at the first degree where its sum passes the limit:
        # p(0) + ... + p(37).
        (["antipode", "--schema", "ladder", "--expr", "t45"],
         "the antipode of this element may fill 120770 terms, above the limit MAX_COPRODUCT_TERMS = 100000"),
        # Rejected before the (here missing) file is read.
        (["rg-check", "no-such-loop.json", "--schema", "ladder", "--eps-order", "101"],
         "--eps-order 101 is above the limit MAX_EPS_ORDER = 100"),
        # S(t2^64) has 65 terms, but the fill reads D(t1^a t2^b) for a + b <= 64
        # (11238513 terms in all; the price stops once its sum passes the limit).
        (["antipode", "--schema", "ladder", "--expr", "t2^64"],
         "the antipode of this element may fill 112651 terms, above the limit MAX_COPRODUCT_TERMS = 100000"),
    ],
    ids=["trees-18", "trees-huge", "schema-trees-40", "power-of-a-sum", "coproduct-of-a-power",
         "coproduct-just-past-the-limit", "antipode-of-sixteen-generators", "antipode-of-sixteen-factors-of-t1",
         "antipode-of-t45",
         "eps-order-past-the-limit", "antipode-of-t2-to-the-64"],
)
def test_explosive_requests_are_priced_before_any_work(argv, limit, capsys):
    assert cli.main(argv) == 2
    assert limit in json.loads(capsys.readouterr().err)["message"]

@pytest.mark.parametrize("command", ["coproduct", "antipode"])
def test_a_large_exponent_from_a_file_is_priced(command, tmp_path, capsys):
    # Filling D(t1^3000) recursed once per unit of exponent; the fill is now
    # priced first: sum over j <= 3000 of (j + 1) terms, plus D(1).
    path = write(tmp_path, "e.json", {"terms": [{"coeff": "1", "monomial": [["t1", 3000]]}]})
    assert cli.main([command, "--schema", "ladder", "--file", path]) == 2
    message = json.loads(capsys.readouterr().err)["message"]
    assert "4504501 terms, above the limit MAX_COPRODUCT_TERMS = 100000" in message


def test_the_antipode_price_stops_at_its_limit(capsys):
    # The price is counted degree by degree and stops at the first degree
    # where it passes the limit, so S(t99998) is rejected as fast as S(t37).
    start = time.perf_counter()
    assert cli.main(["antipode", "--schema", "ladder", "--expr", "t99998"]) == 2
    assert time.perf_counter() - start < 1
    assert "may fill 120770 terms" in json.loads(capsys.readouterr().err)["message"]


def test_the_largest_priced_power_fills_without_deep_recursion(tmp_path, capsys):
    # t1^445 is the highest power of t1 inside the limit (99681 terms).
    path = write(tmp_path, "e.json", {"terms": [{"coeff": "1", "monomial": [["t1", 445]]}]})
    assert cli.main(["antipode", "--schema", "ladder", "--file", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"terms": [{"coeff": "-1", "monomial": [["t1", 445]]}]}
    assert cli.main(["coproduct", "--schema", "ladder", "--file", path]) == 0
    terms = json.loads(capsys.readouterr().out)["terms"]
    assert len(terms) == 446
    assert {"coeff": str(math.comb(445, 200)), "legs": [[["t1", 200]], [["t1", 245]]]} in terms


def test_enumerate_trees_counts():
    proc = run_cli("enumerate-trees", "6")
    data = json.loads(proc.stdout)
    assert data["count"] == 20
    assert len(set(data["trees"])) == 20


def test_custom_schema_is_named_by_its_path(tmp_path, monkeypatch, capsys):
    schema = {
        "generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}],
        "reducedCoproduct": {
            "x2": [{"left": [["x1", 1]], "right": "x1", "coeff": "1"}]
        },
    }
    path = write(tmp_path, "custom.json", schema)
    proc = run_cli("antipode", "--schema", f"custom:{path}", "--expr", "x2", "--output", "text")
    assert proc.stdout.strip() == "x1^2 - x2"
    # A bare `custom` names no file, and no environment variable supplies one.
    monkeypatch.setenv("HOPF_SCHEMA_PATH", path)
    assert cli.main(["antipode", "--schema", "custom", "--expr", "x2"]) == 2
    assert "unknown schema selector 'custom'" in json.loads(capsys.readouterr().err)["message"]
    assert cli.main(["antipode", "--expr", "t2", "--output", "text"]) == 0
    assert capsys.readouterr().out == "t1^2 - t2\n"


# The five common options, each with a value that parses, and the ones each
# command reads (27 in all); a command rejects every other one.
SHARED_FLAGS = {"--schema": "trees:3", "--max-degree": "3", "--eps-order": "2", "--seed": "1", "--output": "text"}
SCHEMA_FLAGS = {"--schema", "--max-degree"}
DECLARED_FLAGS = {
    "coproduct": {"--schema", "--output"},
    "antipode": {"--schema", "--output"},
    "convolve": SCHEMA_FLAGS,
    "exp": SCHEMA_FLAGS,
    "log": SCHEMA_FLAGS,
    "birkhoff": SCHEMA_FLAGS,
    "beta": SCHEMA_FLAGS,
    "build-loop": SCHEMA_FLAGS,
    "rg-check": SCHEMA_FLAGS | {"--eps-order", "--output"},
    "scattering": SCHEMA_FLAGS,
    "verify": SCHEMA_FLAGS | {"--seed", "--output"},
    "enumerate-trees": {"--output"},
}
REQUIRED_ARGS = {"coproduct": ["--expr", "t1"], "antipode": ["--expr", "t1"], "convolve": ["a.json", "b.json"],
                 "verify": [], "enumerate-trees": ["3"]}


@pytest.mark.parametrize("command", sorted(DECLARED_FLAGS))
def test_each_command_parses_exactly_the_shared_flags_it_reads(command, capsys):
    argv = [command, *REQUIRED_ARGS.get(command, ["f.json"])]
    declared = DECLARED_FLAGS[command]
    values = [a for flag in sorted(declared) for a in (flag, SHARED_FLAGS[flag])]
    args = cli.make_parser(command).parse_args(argv + values)
    assert {flag: str(getattr(args, flag[2:].replace("-", "_"))) for flag in declared} == \
        {flag: SHARED_FLAGS[flag] for flag in declared}
    for flag in sorted(SHARED_FLAGS.keys() - declared):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + [flag, SHARED_FLAGS[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {SHARED_FLAGS[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        ("exp z.json --seed 3", "unrecognized arguments: --seed 3"),
        ("enumerate-trees 3 --schema ladder", "unrecognized arguments: --schema ladder"),
        ("exp", "the following arguments are required: Z_JSON"),
        ("coproduct --schema ladder", "one of the arguments --expr --file is required"),
        ("verify --max-degree x", "argument --max-degree: invalid int value: 'x'"),
        ("", "the following arguments are required: command"),
        ("build-loop b.json --max-order 3", "unrecognized arguments: --max-order 3"),
    ],
    ids=["undeclared-flag", "undeclared-flag-enumerate-trees", "missing-argument", "missing-element",
         "non-integer-degree", "no-command", "build-loop-max-order"],
)
def test_usage_errors_exit_2_with_a_json_diagnostic(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert not out and "usage:" not in err
    assert json.loads(err) == {"error": "UsageError", "message": message}


def test_determinism_across_runs():
    out1 = run_cli("verify", "--schema", "ladder", "--max-degree", "4", "--seed", "7")
    out2 = run_cli("verify", "--schema", "ladder", "--max-degree", "4", "--seed", "7")
    assert out1.stdout == out2.stdout
    out3 = run_cli("rg-check", "--schema", "ladder", "--max-degree", "2", "--help")
    assert out3.stdout  # help text exists; argparse exit 0


def test_corrupted_schema_rejected_at_construction_and_reported_by_verify(tmp_path):
    # The criterion-8 schema: t4 drops the t1 (x) t2 leg of the ladder's
    # reduced coproduct, so coassociativity first fails on t4.
    schema = {
        "generators": [{"name": f"t{n}", "degree": n} for n in range(1, 5)],
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
    selector = "--schema=custom:" + write(tmp_path, "corrupted.json", schema)
    proc = run_cli("coproduct", selector, "--expr", "t1", expect=2)
    err = json.loads(proc.stderr)
    assert err["error"] == "SchemaError"
    assert "'t4'" in err["message"] and "not coassociative" in err["message"]
    proc = run_cli("verify", selector, "--max-degree", "4", expect=1)
    checks = json.loads(proc.stdout)["axioms"]["checks"]
    cdelta = next(c for c in checks if c["axiom"] == "CDelta")
    assert not cdelta["passed"]
    assert cdelta["counterexample"] == "t4"


RATIONAL_CHARACTER = {"kind": "character", "ring": "rational", "values": {"t1": "1", "t2": "-2"}}
LAURENT_ONE = {"minExp": -1, "truncation": None, "coeffs": {"-1": "1", "0": "1/2"}}


@pytest.mark.parametrize(
    "argv, payload, schema",
    [
        (["coproduct", "--expr", "1/0"], None, "ladder"),
        (["coproduct", "--file", "{}"], {"terms": [{"coeff": "1"}]}, "ladder"),
        (["coproduct", "--file", "{}"], {"terms": [{"coeff": "1", "monomial": [["t1"]]}]}, "ladder"),
        (["exp", "{}"], {"kind": "infinitesimal", "values": ["t1"]}, "ladder"),
        (
            ["birkhoff", "{}"],
            {"kind": "character", "ring": "laurent", "values": {"t1": {"coeffs": {"x": "1"}}}},
            "ladder",
        ),
        (["exp", "{}"], {"kind": "infinitesimal", "values": {"t1": "1"}, "cutoff": "x"}, "ladder"),
        (
            ["birkhoff", "{}"],
            {"kind": "character", "ring": "laurent",
             "values": {"t1": {"minExp": "a", "coeffs": {"-1": "1"}}}},
            "ladder",
        ),
        (["verify"], {"generators": "abc"}, "custom:{}"),
        (["coproduct", "--expr", "x1"], {"generators": "abc"}, "custom:{}"),
        (["birkhoff", "{}"], RATIONAL_CHARACTER, "ladder"),
        (["rg-check", "{}"], RATIONAL_CHARACTER, "ladder"),
        (["beta", "{}"], RATIONAL_CHARACTER, "ladder"),
        (["beta", "{}"], {"kind": "table", "ring": "rational", "values": {"t1": "1"}}, "ladder"),
        (["build-loop", "{}"], {"kind": "infinitesimal", "ring": "laurent", "values": {"t1": LAURENT_ONE}}, "ladder"),
        (["coproduct", "--file", "{}"], "{not json", "ladder"),
        (["antipode", "--file", "{}"], "{not json", "ladder"),
        (["rg-check", "{}", "--max-degree", "-1"], {"kind": "character", "ring": "laurent",
                                                   "values": {"t1": LAURENT_ONE}}, "ladder"),
        (["log", "{}", "--max-degree", "-1"], RATIONAL_CHARACTER, "ladder"),
        (["convolve", "{}", "{}", "--max-degree", "-1"], RATIONAL_CHARACTER, "ladder"),
        # JSON true is not the integer 1
        (["birkhoff", "{}", "--max-degree", "1"],
         {"kind": "character", "ring": "laurent",
          "values": {"t1": {"minExp": -1, "truncation": True, "coeffs": {"-1": "1"}}}}, "ladder"),
        (["birkhoff", "{}"], {"kind": "character", "ring": "laurent",
                              "values": {"t1": {"minExp": True, "coeffs": {"1": "1"}}}}, "ladder"),
        (["exp", "{}", "--max-degree", "1"], {"kind": "infinitesimal", "values": {"t1": "1"}, "cutoff": True},
         "ladder"),
        (["coproduct", "--file", "{}"], {"terms": [{"coeff": "1", "monomial": [["t1", True]]}]}, "ladder"),
        (["coproduct", "--expr", "x1"], {"generators": [{"name": "x1", "degree": True}]}, "custom:{}"),
        (["coproduct", "--expr", "x2"],
         {"generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}],
          "reducedCoproduct": {"x2": [{"left": [["x1", True]], "right": "x1"}]}}, "custom:{}"),
        # Generator names are checked before the schema is built.
        (["exp", "{}"], {"kind": "infinitesimal", "values": {"t1": "1"}}, "trees:10"),
        (["log", "{}"], {"kind": "character", "values": {"[]": "1", "[[[]]]": "1"}}, "trees:2"),
        # A spelling of a tree past the cutoff, with its children out of order.
        (["exp", "{}"], {"kind": "infinitesimal", "values": {"[[][[]]]": "1"}}, "trees:3"),
        (["beta", "{}", "--max-order", "-5"], {"kind": "character", "ring": "laurent",
                                               "values": {"t1": LAURENT_ONE}}, "ladder"),
        # verify records only a SchemaError of the structure check as a failed
        # check; asking trees:4 for degree 5 is a CutoffExceededError.
        (["verify", "--max-degree", "6"], None, "trees:4"),
    ],
    ids=["zero-denominator", "term-without-monomial", "unpaired-factor", "values-list", "laurent-key",
         "cutoff-string", "min-exp-string", "generators-string-verify", "generators-string-coproduct",
         "rational-birkhoff", "rational-rg-check", "rational-beta", "rational-table-beta",
         "laurent-build-loop", "non-json-coproduct", "non-json-antipode", "negative-degree-rg-check",
         "negative-degree-log", "negative-degree-convolve", "truncation-true", "min-exp-true",
         "cutoff-true", "monomial-exponent-true", "degree-true", "left-exponent-true",
         "ladder-name-on-trees-10", "tree-past-the-cutoff", "tree-spelling-past-the-cutoff",
         "negative-order-beta", "verify-past-the-tree-cutoff"],
)
def test_malformed_input_exits_2_with_a_diagnostic(tmp_path, argv, payload, schema, monkeypatch, capsys):
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [a.format(path) for a in argv]
        schema = schema.format(path)
    proc = run_cli(*argv, "--schema", schema, expect=2)
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]
    # In process the input is rejected before the engine does any work.  Every
    # module that binds the name by import is patched, so that no import made
    # under the patch keeps the stand-in after it.
    monkeypatch.setattr(rg, "build_special_loop", no_work)
    monkeypatch.setattr(suites, "build_special_loop", no_work)
    monkeypatch.setattr(trees, "cocycle_coproducts", no_work)
    assert cli.main([*argv, "--schema", schema]) == 2
    assert not capsys.readouterr().out


NESTED_KEY = "(" * 400 + "t1" + ")" * 400
DEEP_NESTING_CASES = {
    "expr-parentheses": (["coproduct", "--expr", "(" * 300 + "t1" + ")" * 300], None,
                         "HopfError", "expression nests too deeply to parse"),
    "table-key": (["convolve", "{}", "{}"], json.dumps({"kind": "table", "ring": "rational", "values": {NESTED_KEY: "1"}}),
                  "HopfError", "expression nests too deeply to parse"),
    "functional-file": (["exp", "{}"], "[" * 200_000, "HopfError",
                        "cannot parse functional file {}: its JSON nests too deeply"),
    "schema-file": (["verify", "--schema", "custom:{}"], "[" * 100_000, "SchemaError",
                    "cannot parse schema file {}: its JSON nests too deeply"),
}


@pytest.mark.parametrize("case", list(DEEP_NESTING_CASES))
def test_deeply_nested_input_exits_2_naming_the_nesting(case, tmp_path, capsys):
    argv, text, error, message = DEEP_NESTING_CASES[case]
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    assert cli.main([a.format(path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert json.loads(captured.err) == {"error": error, "message": message.format(path)}


def test_a_negative_order_is_named_by_its_flag(capsys):
    assert cli.main(["beta", "loop.json", "--max-order", "-5"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "DomainError",
                                                   "message": "--max-order must be >= 0, got -5"}


@pytest.mark.parametrize("command", ["beta", "scattering"])
def test_an_order_above_the_limit_is_refused_before_any_input_is_read(command, tmp_path, capsys):
    # Orders above --max-degree are zero, yet each built a tower table over the
    # basis: unlimited, scattering --max-order 10000 at --max-degree 2 printed 609 KB.
    for order in (101, 10**9):
        start = time.perf_counter()
        assert cli.main([command, "no-such-file.json", "--max-degree", "2", "--max-order", str(order)]) == 2
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert not captured.out
        assert json.loads(captured.err) == {"error": "DomainError",
                                            "message": f"--max-order {order} is above the limit MAX_ORDER = 100"}
    path = write(tmp_path, "in.json", {"kind": "infinitesimal", "ring": "laurent", "values": {"t1": LAURENT_ONE}})
    assert cli.main([command, path, "--max-degree", "2", "--max-order", "100"]) == 0
    assert json.loads(capsys.readouterr().out)["maxOrder"] == 100


def test_a_negative_eps_order_is_named_by_its_flag_before_the_file_is_read(tmp_path, capsys):
    loop = write(tmp_path, "loop.json", {"kind": "character", "ring": "laurent", "values": {"t1": LAURENT_ONE}})
    for path in (loop, "no-such-loop.json"):
        assert cli.main(["rg-check", path, "--eps-order", "-1"]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "DomainError",
                                                       "message": "--eps-order must be >= 0, got -1"}


DEGREE_FLOOR_CASES = {
    "exp": (["exp", "z.json"], "--max-degree must be >= 1, got 0"),
    "birkhoff": (["birkhoff", "phi.json"], "--max-degree must be >= 1, got 0"),
    "verify": (["verify"], "--max-degree must be >= 1, got 0"),
    "build-loop": (["build-loop", "beta.json"], "--max-degree must be >= 1, got 0"),
    "beta": (["beta", "phi.json"], "--max-degree must be >= 1 when --max-order is not set, got 0"),
    "scattering": (["scattering", "beta.json"], "--max-degree must be >= 1 when --max-order is not set, got 0"),
}


@pytest.mark.parametrize("command", list(DEGREE_FLOOR_CASES))
def test_a_degree_below_the_floor_is_named_by_its_flag(command, capsys):
    # Checked before any file is read: none of these files exists.
    argv, message = DEGREE_FLOOR_CASES[command]
    assert cli.main([*argv, "--max-degree", "0"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize("argv", [
    ["log", "{chi}"], ["convolve", "{chi}", "{chi}"], ["rg-check", "{phi}"],
    ["beta", "{phi}", "--max-order", "2"], ["scattering", "{z}", "--max-order", "2"],
], ids=["log", "convolve", "rg-check", "beta-max-order", "scattering-max-order"])
def test_commands_without_a_degree_floor_run_at_degree_0(argv, tmp_path, capsys):
    paths = {"chi": write(tmp_path, "chi.json", RATIONAL_CHARACTER),
             "phi": write(tmp_path, "phi.json", {"kind": "character", "ring": "laurent", "values": {"t1": LAURENT_ONE}}),
             "z": write(tmp_path, "z.json", {"kind": "infinitesimal", "values": {"t1": "1"}})}
    assert cli.main([a.format(**paths) for a in argv] + ["--max-degree", "0"]) == 0
    assert json.loads(capsys.readouterr().out)


def no_work(*args, **kwargs):
    raise AssertionError("the engine ran on an input it should have rejected")


@pytest.mark.parametrize("selector", ["ladder", "trees:2", "trees:4"])
def test_names_checked_before_the_build_fail_as_the_built_schema_does(selector, tmp_path):
    from hopfalg.errors import SchemaError

    schema = cli.resolve_schema(selector)
    names = ["t1", "t01", "t0", "x", "", "[]", "[[]]", "[[[]]]", "[[[]][]]", "[[][[]]]", " []", "[]x", "[" * 40]
    for name in names:
        path = write(tmp_path, "f.json", {"kind": "character", "values": {name: "1"}})
        try:
            schema.generator_by_name(name)
            expected = None
        except SchemaError as exc:
            expected = str(exc)
        try:
            cli.read_functionals(functional_args("log", selector, path))
            got = None
        except SchemaError as exc:
            got = str(exc)
        assert got == expected, name


def functional_args(command, selector, *paths):
    """The parsed arguments of ``command`` on these functional files."""
    return SimpleNamespace(command=command, schema=selector, max_degree=4, functional=list(paths))


def error_of(call):
    """The message of the HopfError ``call()`` raises, or None."""
    from hopfalg.errors import HopfError

    try:
        call()
    except HopfError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("selector", ["ladder", "trees:2", "trees:4"])
def test_table_keys_checked_before_the_build_fail_as_the_built_schema_does(selector, tmp_path):
    from hopfalg.hopf import HopfAlgebra
    from hopfalg.serialize import load_functional

    ctx = HopfAlgebra(cli.resolve_schema(selector))
    keys = ["t1", "t2*t1^2", "t0", "x", "[]", "[]*[[]]", "[[]]^2", "[[[]]]", "[[][[]]]", "t1 +", "[]x", "2*[]"]
    for key in keys:
        path = write(tmp_path, "f.json", {"kind": "table", "values": {key: "1"}})
        expected = error_of(lambda: load_functional(ctx, path))
        assert error_of(lambda: cli.read_functionals(functional_args("convolve", selector, path))) == expected, key


def test_a_table_file_is_name_checked_before_the_build(tmp_path, monkeypatch, capsys):
    path = write(tmp_path, "f.json", {"kind": "table", "ring": "laurent",
                                      "values": {"t1": {"minExp": -1, "truncation": None, "coeffs": {"-1": "1"}}}})
    monkeypatch.setattr(trees, "cocycle_coproducts", no_work)
    assert cli.main(["beta", path, "--schema", "trees:10"]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "SchemaError", "message": "unknown generator 't1' in schema 'trees:10'"}


@pytest.mark.parametrize("command, selector, expr, error", [
    ("coproduct", "trees:10", "t1", {"error": "SchemaError", "message": "unknown generator 't1' in schema 'trees:10'"}),
    ("antipode", "trees:11", "t1", {"error": "SchemaError", "message": "unknown generator 't1' in schema 'trees:11'"}),
    # A 9-leaf corolla has 9 reduced terms, priced from its shape; its 40th
    # power is priced at C(40 + 11, 40) = 47626016970.
    ("antipode", "trees:11", "[[][][][][][][][][]]^40",
     {"error": "DomainError", "message": "the coproducts of this element may fill 47626016970 terms, "
                                         "above the limit MAX_COPRODUCT_TERMS = 100000"}),
], ids=["coproduct-trees:10", "antipode-trees:11", "antipode-trees:11-corolla-power"])
def test_an_expression_is_read_before_the_tree_coproducts_are_built(command, selector, expr, error, monkeypatch,
                                                                    capsys):
    monkeypatch.setattr(trees, "cocycle_coproducts", no_work)
    assert cli.main([command, "--expr", expr, "--schema", selector]) == 2
    assert json.loads(capsys.readouterr().err) == error


@pytest.mark.parametrize("command, files", [
    ("convolve", [RATIONAL_CHARACTER, RATIONAL_CHARACTER]),
    ("exp", [{"kind": "infinitesimal", "values": {"t1": "1", "t2": "1/2"}}]),
    ("beta", [{"kind": "table", "ring": "laurent",
               "values": {"t1": {"minExp": -1, "truncation": None, "coeffs": {"-1": "1"}}}}]),
])
def test_each_functional_file_is_read_once(command, files, tmp_path, monkeypatch, capsys):
    from hopfalg import serialize

    paths = [write(tmp_path, f"f{i}.json", data) for i, data in enumerate(files)]
    reads = []
    read_json = serialize.read_json
    monkeypatch.setattr(serialize, "read_json", lambda path, what: reads.append(path) or read_json(path, what))
    assert cli.main([command, *paths, "--schema", "ladder", "--max-degree", "3"]) in (0, 1)
    assert capsys.readouterr().out
    assert sorted(reads) == sorted(paths)


def _laurent_loop(names, pole, top, trunc):
    """A fixed Laurent character: on the i-th generator, exponents -pole..top."""
    values = {}
    for i, name in enumerate(names, 1):
        coeffs = {str(k): f"{(3 * i + k) % 7 - 3}/{1 + (i * i + k * k) % 5}" for k in range(-pole, top + 1)}
        coeffs[str(-pole)] = str(i)  # the leading pole stays nonzero
        coeffs = {k: v for k, v in coeffs.items() if not v.startswith("0/")}
        values[name] = {"minExp": -pole, "truncation": trunc, "coeffs": coeffs}
    return {"kind": "character", "ring": "laurent", "values": values}


# sha256 of stdout, recorded before series products went through the
# integer convolution kernel; a change of representation must not move them.
@pytest.mark.parametrize(
    "schema, degree, names, pole, truncated, digest",
    [
        ("ladder", 6, [f"t{n}" for n in range(1, 7)], 3, False,
         "ed411214ec659e7477e971d4771a2f7e1c769850ce56ad86d7ebfa8682f97c02"),
        ("trees:5", 5, [g.name for g in rooted_tree_schema(5).generators_up_to(5)], 2, True,
         "ec43fd4954366e4c78324beccd90c4491927601077d9a64b3323347ab92d99c8"),
    ],
)
def test_birkhoff_output_is_pinned(schema, degree, names, pole, truncated, digest, tmp_path, capsys):
    budget = (degree - 1) * pole
    loop = _laurent_loop(names, pole, budget if truncated else 2, budget if truncated else None)
    phi = write(tmp_path, "phi.json", loop)
    assert cli.main(["birkhoff", phi, "--schema", schema, "--max-degree", str(degree)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["report"]["passed"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of birkhoff stdout at larger sizes (truncated trees:7 and exact ladder
# d=10, pole order 2), recorded before series kept their integer operand form
# and characters were tabulated one product per monomial.
@pytest.mark.parametrize(
    "schema, degree, truncated, digest",
    [
        ("trees:7", 7, True, "b35c5940530723fec0654643a2a753c35540c07f2018b6d85858bf40606d1ff5"),
        ("ladder", 10, False, "68c994f4f028a6a67f9785f9546764716a92440c5f77081a4c9abedc7740f91b"),
    ],
    ids=["trees7-truncated", "ladder10-exact"],
)
def test_birkhoff_output_is_pinned_at_scale(schema, degree, truncated, digest, tmp_path, capsys):
    names = ([g.name for g in rooted_tree_schema(7).generators_up_to(7)] if schema == "trees:7"
             else [f"t{n}" for n in range(1, 11)])
    budget = (degree - 1) * 2
    phi = write(tmp_path, "phi.json", _laurent_loop(names, 2, budget if truncated else 2, budget if truncated else None))
    assert cli.main(["birkhoff", phi, "--schema", schema, "--max-degree", str(degree)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["report"]["passed"]
    assert hashlib.sha256(out.encode()).hexdigest() == digest

# sha256 of rg-check stdout, recorded before the fused sum-of-products kernel
# (special ladder d=6, non-special) and before the integer Q[t] kernel (special
# ladder d=8, special trees:6 at d=5, where that kernel does most of the work).
# Their flow values are Laurent series over Q[t] and the additivity check runs
# over Q[t][s], so they pin the Q[t] kernel the way the birkhoff pins pin the
# rational one.
LADDER_BETA = {"t1": "2", "t2": "-1/3", "t4": "5/7"}
TREES_BETA = {"[]": "2", "[[]]": "-1/3", "[[][]]": "5/7", "[[[]]]": "3/2"}


@pytest.mark.parametrize(
    "schema, degree, beta, code, digest",
    [
        ("ladder", 6, LADDER_BETA, 0, "cf5c10452828ad7f7bc75cd89415a109063fd1c9562947a3e7b5cd2555169541"),
        ("ladder", 4, None, 1, "08af3f422880f11f37b7209b44b1d082bcfad21acef9eff5581c696b5973fef3"),
        ("ladder", 8, LADDER_BETA, 0, "72b0926287562926bd74ed3386849091afadf1c233e26feeea731a57ec948dc6"),
        ("trees:6", 5, TREES_BETA, 0, "126768c798da083767a52a3893419bfddf74c89502710fe98a1b378c9acbe28a"),
    ],
    ids=["special", "non-special", "special-ladder-8", "special-trees6-5"],
)
def test_rg_check_output_is_pinned(schema, degree, beta, code, digest, tmp_path, capsys):
    special = beta is not None
    common = ["--schema", schema, "--max-degree", str(degree)]
    if special:
        beta = write(tmp_path, "beta.json", {"kind": "infinitesimal", "ring": "rational", "values": beta})
        assert cli.main(["build-loop", beta] + common) == 0
        loop = tmp_path / "loop.json"
        loop.write_text(capsys.readouterr().out)
        loop = str(loop)
    else:
        loop = write(tmp_path, "loop.json", _laurent_loop([f"t{n}" for n in range(1, 5)], 2, 2, None))
    assert cli.main(["rg-check", loop] + common) == code
    out = capsys.readouterr().out
    data = json.loads(out)
    assert data["special"] is special and bool(data["witnesses"]) is not special
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of coproduct and antipode stdout on a trees:5 expression with a
# rational coefficient, recorded before the structure constants became ints.
@pytest.mark.parametrize(
    "command, output, digest",
    [
        ("coproduct", "json", "8c3c347e5656dd55302945d4ad1d8ba82395ac7c899b4a79482a4a1d0223598f"),
        ("coproduct", "text", "58edf43fb91bab4f6c3185492908f999272a81b3a4138aa0d2ee7da0b9ba2023"),
        ("antipode", "json", "a4bccc5efc71de37b1d7e2fda8cd73a942113c57ed010dd2198ea96e3351f9ab"),
        ("antipode", "text", "0db7249261de7264fe2b7783e11fa14e42b27ae44eceb6b2c6f893d76ff80f87"),
    ],
)
def test_structure_map_output_is_pinned(command, output, digest, capsys):
    expr = "[[[]][]] + 3*[[][]]*[]^2 - 1/2*[[[[[]]]]] + 2*[[]]"
    assert cli.main([command, "--schema", "trees:5", "--expr", expr, "--output", output]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of coproduct stdout on trees:9 and antipode stdout on trees:8,
# recorded before generators, monomials and rooted trees were interned.
@pytest.mark.parametrize(
    "command, schema, expr, output, digest",
    [
        ("coproduct", "trees:9", "[[[[]]][[][]][[]]] + 2*[[][]]*[[]] - 1/3*[[[[[[[[[]]]]]]]]]", "json",
         "74926adffb4d3b60c6f7d4c04c7036e89fef21fa609cce41f81b23a098f1bbb2"),
        ("coproduct", "trees:9", "[[[[]]][[][]][[]]] + 2*[[][]]*[[]] - 1/3*[[[[[[[[[]]]]]]]]]", "text",
         "b266dc8e1f64d92bad290ed8664ceae95d327316fb3f77776aee29d4ba512b07"),
        ("antipode", "trees:8", "[[[[]]][[][]][]] - 2*[[]]^2*[[[]][]]", "json",
         "fe331f75728a3924de4922eefa7316975777a9609f2e698a61e1ae9b6fd34651"),
        ("antipode", "trees:8", "[[[[]]][[][]][]] - 2*[[]]^2*[[[]][]]", "text",
         "36f0ee0c04f0984d4d965b3877b1efeb0fefa88549d1df020ecea2cc53f650dc"),
    ],
    ids=["coproduct-trees9-json", "coproduct-trees9-text", "antipode-trees8-json", "antipode-trees8-text"],
)
def test_structure_maps_on_large_trees_are_pinned(command, schema, expr, output, digest, capsys):
    assert cli.main([command, "--schema", schema, "--expr", expr, "--output", output]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the report commands' stdout (verify's axiom and suite reports,
# beta's tower, scattering's orders), recorded while those report records
# were dataclasses.
@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["verify", "--schema", "ladder", "--max-degree", "4", "--seed", "3"], 0,
         "bba12497a9bcfb82213dbf536be03f233ac9e98f10087aa67e62f365bff00a76"),
        (["verify", "--schema", "trees:4", "--max-degree", "4", "--output", "text"], 0,
         "8a2cd1cec9874f8215ad0eaa5cdb197370dfce6941ea8d78f83ef70b8cee28b7"),
        (["beta", "{loop}", "--schema", "ladder", "--max-degree", "4", "--max-order", "3"], 1,
         "b393ccd769ccb976eaa1a75798436ff831a74202b882d10b72c5dbde4a9da8ad"),
        (["scattering", "{beta}", "--schema", "ladder", "--max-degree", "4", "--max-order", "3"], 0,
         "77af129d215e06dd77d617d832d7ae6d4aff3f10fc33834b64f6667b32720c21"),
    ],
    ids=["verify-ladder-json", "verify-trees-text", "beta-ladder", "scattering-ladder"],
)
def test_report_output_is_pinned(argv, code, digest, tmp_path, capsys):
    files = {
        "loop": write(tmp_path, "loop.json", _laurent_loop([f"t{n}" for n in range(1, 5)], 2, 2, None)),
        "beta": write(tmp_path, "beta.json", {"kind": "infinitesimal", "ring": "rational",
                                              "values": {"t1": "1", "t2": "-1/2", "t4": "3"}}),
    }
    assert cli.main([a.format(**files) for a in argv]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of verify's JSON report at degree 6, on the binomial ladder
# D x_n = sum_k C(n, k) x_k (x) x_(n-k) given as a custom schema file and on
# trees:6, recorded under PYTHONHASHSEED 0 and 1 (the same bytes) while the
# flat convolution oracle still multiplied every leg and QQ.dot still ran the
# series kernel.
BINOMIAL_6 = {
    "generators": [{"name": f"x{n}", "degree": n} for n in range(1, 7)],
    "reducedCoproduct": {
        f"x{n}": [{"left": [[f"x{k}", 1]], "right": f"x{n - k}", "coeff": str(math.comb(n, k))} for k in range(1, n)]
        for n in range(2, 7)
    },
}


@pytest.mark.parametrize(
    "schema, seed, digest",
    [
        ("custom:binomial.json", 11, "b5de42d47cee87756e2182148a386e3c45e817e1700a01ad5997cf73739c49b7"),
        ("trees:6", 12, "14b01f486f464c973f50b1a92aca82464ecdbb540c54271493ffc5b3cc5d778f"),
    ],
    ids=["verify-binomial-6-json", "verify-trees6-6-json"],
)
def test_verify_output_at_degree_6_is_pinned(schema, seed, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the report names the schema file by this relative path
    (tmp_path / "binomial.json").write_text(json.dumps(BINOMIAL_6))
    assert cli.main(["verify", "--schema", schema, "--max-degree", "6", "--seed", str(seed)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# The help text of `hopfalg --help` and of every `hopfalg <command> --help`,
# recorded at 80 columns.
HELP = json.loads((pathlib.Path(__file__).parent / "cli_help.json").read_text())


@pytest.mark.parametrize("argv", sorted(HELP), ids=lambda a: a.replace(" ", "_"))
def test_help_text_is_unchanged(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP[argv]


def test_top_level_help_lists_every_command_and_a_command_builds_only_its_own():
    listed = [line.split()[0] for line in HELP["--help"].splitlines() if re.match(r"    \S", line)]
    assert listed == list(cli.COMMANDS) and len(listed) == 12
    assert sorted(a.split()[0] for a in HELP if a != "--help") == sorted(cli.COMMANDS)
    with pytest.raises(SystemExit):
        cli.make_parser("verify").parse_args(["coproduct", "--expr", "t1"])
    assert cli.make_parser().parse_args(["coproduct", "--expr", "t1"]).fn is cli.cmd_coproduct


def test_input_contracts_name_exactly_the_functional_commands():
    reads = {name for name, (_, _, contract) in cli.COMMANDS.items() if contract is not None}
    takes = {name for name, (_, arguments, _) in cli.COMMANDS.items()
             if any(argument[0] == "functional" for argument in arguments if argument != cli.ELEMENT)}
    assert reads == takes == {"convolve", "exp", "log", "birkhoff", "beta", "build-loop", "rg-check", "scattering"}


def test_a_product_is_priced_before_it_is_multiplied(capsys):
    # Each power passes MAX_POWER_TERMS with 2145 terms; their product would
    # take 2145 * 2145 term products before the coproduct price ran.
    start = time.perf_counter()
    assert cli.main(["coproduct", "--expr", "(t1+t2+t3)^64*(t1+t2+t3)^64"]) == 2
    assert time.perf_counter() - start < 1
    message = json.loads(capsys.readouterr().err)["message"]
    assert "a product of a 2145-term and a 2145-term factor may expand to 4601025 terms" in message
    assert "MAX_POWER_TERMS = 10000" in message


@pytest.mark.parametrize("rest", [[], ["--output", "text"]], ids=["json", "text"])
def test_an_expression_may_start_with_a_minus(rest, capsys):
    assert cli.main(["antipode", "--expr=-t2", *rest]) == 0
    joined = capsys.readouterr().out
    assert cli.main(["antipode", "--expr", "-t2", *rest]) == 0
    assert capsys.readouterr().out == joined
    assert run_cli("antipode", "--expr", "-t2", *rest).stdout == joined
    assert joined.strip() in ("-t1^2 + t2", json.dumps(
        {"terms": [{"coeff": "-1", "monomial": [["t1", 2]]}, {"coeff": "1", "monomial": [["t2", 1]]}]},
        separators=(",", ":")))


@pytest.mark.parametrize("argv", [
    ["antipode", "--expr", "--output", "text"],
    ["antipode", "--expr"],
    ["coproduct", "--expr", "-h"],
], ids=["flag-after-expr", "missing-value", "help-flag-after-expr"])
def test_a_flag_after_expr_still_reads_as_a_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert not out
    assert json.loads(err) == {"error": "UsageError", "message": "argument --expr: expected one argument"}


def test_a_flag_given_as_flag_equals_dash_dash_keeps_its_value(capsys):
    # argparse drops a value "--" given as --flag=--: --expr reads it back as
    # the expression "--", and any other flag is refused without its value.
    assert cli.main(["coproduct", "--expr=--"]) == 2
    out, err = capsys.readouterr()
    assert not out and json.loads(err) == {"error": "HopfError", "message": "unexpected token '-' in '--'"}
    for argv, flag in ([["coproduct", "--file=--"], "--file"], [["verify", "--max-degree=--"], "--max-degree"],
                       [["rg-check", "loop.json", "--eps-order=--"], "--eps-order"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert not out
        assert json.loads(err) == {"error": "UsageError", "message": f"argument {flag}: expected one argument"}
