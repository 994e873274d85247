"""End-to-end CLI tests: encodings, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "hopfalg.cli"]


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        CLI + list(argv), capture_output=True, text=True, timeout=300
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


def test_enumerate_trees_counts():
    proc = run_cli("enumerate-trees", "6")
    data = json.loads(proc.stdout)
    assert data["count"] == 20
    assert len(set(data["trees"])) == 20


def test_custom_schema_env_var(tmp_path, monkeypatch_path=None):
    schema = {
        "generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}],
        "reducedCoproduct": {
            "x2": [{"left": [["x1", 1]], "right": "x1", "coeff": "1"}]
        },
    }
    path = write(tmp_path, "custom.json", schema)
    import os
    import subprocess as sp

    env = dict(os.environ, HOPF_SCHEMA_PATH=path)
    proc = sp.run(
        CLI + ["antipode", "--schema", "custom", "--expr", "x2", "--output", "text"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x1^2 - x2"


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


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["coproduct", "--expr", "1/0"], None),
        (["coproduct", "--file", "{}"], {"terms": [{"coeff": "1"}]}),
        (["coproduct", "--file", "{}"], {"terms": [{"coeff": "1", "monomial": [["t1"]]}]}),
        (["exp", "{}"], {"kind": "infinitesimal", "values": ["t1"]}),
        (
            ["birkhoff", "{}"],
            {"kind": "character", "ring": "laurent", "values": {"t1": {"coeffs": {"x": "1"}}}},
        ),
    ],
    ids=["zero-denominator", "term-without-monomial", "unpaired-factor", "values-list", "laurent-key"],
)
def test_malformed_input_exits_2_with_a_diagnostic(tmp_path, argv, payload):
    if payload is not None:
        path = write(tmp_path, "input.json", payload)
        argv = [a.format(path) for a in argv]
    proc = run_cli(*argv, "--schema", "ladder", expect=2)
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"]
