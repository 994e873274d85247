"""Hypothesis fuzz of the JSON input files: functional files of every kind and
ring, and custom schema files, mutated and run through ``cli.main``.

Whatever the file holds, a command exits 0 or 1 with its payload on stdout,
or 2 with one JSON diagnostic on stderr and nothing on stdout, and never
raises; each example finishes within a fixed time.
"""

import copy
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfalg import cli

# Seconds one example may take, far above what any of them takes when the
# input is priced or refused before the work.
EXAMPLE_LIMIT_S = 3.0


def laurent(*pairs, trunc=None):
    coeffs = dict(pairs)
    return {"minExp": min(int(k) for k in coeffs), "truncation": trunc, "coeffs": coeffs}


# Well-formed files of each kind and ring, with the commands that read them.
FUNCTIONALS = {
    "character-rational": ({"kind": "character", "ring": "rational", "values": {"t1": "1", "t2": "-1/2"}},
                           ["log", "convolve"]),
    "infinitesimal-rational": ({"kind": "infinitesimal", "ring": "rational", "cutoff": 3,
                                "values": {"t1": "2", "t3": "1/3"}}, ["exp", "build-loop", "scattering"]),
    "table-rational": ({"kind": "table", "ring": "rational", "values": {"1": "1", "t1": "1/2", "t1^2": "3", "t2": "-1"}},
                       ["convolve"]),
    "character-laurent": ({"kind": "character", "ring": "laurent", "values": {
        "t1": laurent(("-1", "1"), ("0", "1/2"), trunc=4), "t2": laurent(("-2", "1"))}},
        ["birkhoff", "rg-check", "beta", "log"]),
    "infinitesimal-laurent": ({"kind": "infinitesimal", "ring": "laurent", "values": {
        "t1": laurent(("-1", "1")), "t2": laurent(("0", "3"), trunc=2)}}, ["exp", "beta", "convolve"]),
    "table-laurent": ({"kind": "table", "ring": "laurent", "values": {
        "t1": laurent(("-1", "1")), "t1*t2": laurent(("1", "-1/3"), trunc=3)}}, ["beta", "convolve"]),
}
# A ladder-like schema to degree 3, and the commands that read one.
SCHEMA = {"generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}, {"name": "x3", "degree": 3}],
          "reducedCoproduct": {"x2": [{"left": [["x1", 1]], "right": "x1", "coeff": "1"}],
                               "x3": [{"left": [["x1", 1]], "right": "x2", "coeff": "1"},
                                      {"left": [["x2", 1]], "right": "x1", "coeff": "1"}]}}
SCHEMA_CHARACTER = {"kind": "character", "ring": "rational", "values": {"x1": "1", "x2": "1/2"}}
# The schema files mutated: SCHEMA, and two without a generator of degree 1.
SCHEMA_BASES = [SCHEMA, {"generators": []}, {"generators": [{"name": "y", "degree": 2}]}]
SCHEMA_COMMANDS = [["verify", "--max-degree", "{degree}"], ["coproduct", "--expr", "x1*x3"],
                   ["antipode", "--expr", "x3"], ["log", "{character}", "--max-degree", "3"]]

# Element files of ``coproduct --file`` and ``antipode --file``, on each schema
# that reads them; "custom" is SCHEMA, written to a file.
ELEMENTS = {
    "ladder": {"terms": [{"coeff": "1", "monomial": [["t1", 2], ["t3", 1]]},
                         {"coeff": "-1/2", "monomial": [["t2", 1]]}]},
    "trees:5": {"terms": [{"coeff": "3", "monomial": [["[[]]", 1], ["[]", 2]]},
                          {"coeff": "1/3", "monomial": [["[[][[]]]", 1]]}]},
    "custom": {"terms": [{"coeff": "2", "monomial": [["x1", 1], ["x2", 1]]}, {"coeff": "-1", "monomial": [["x3", 1]]},
                         {"coeff": "1", "monomial": []}]},
}

# A JSON integer past the interpreter's limit on the digits of an int it reads.
TOO_LONG = "9" * 5000
NEST = "@@nest@@"
WRONG_TYPES = [None, True, False, 0, -1, 1.5, "", "x", "1/0", [], {}, [[]], {"": None}]
HUGE = [10 ** 30, -(10 ** 30), 10 ** 4000, 2 ** 63, "1" + "0" * 4000, "1/" + "7" * 4000]
# Around the recursion limit (1000, raised to about 2000 while Hypothesis
# runs a test) and far past it.
DEPTHS = [50, 900, 1100, 2500, 50_000]
UNKNOWN_NAMES = ["t0", "q9", "x9", "[]", "t1 t2", "(t1", "t" + "9" * 30, "t" + "9" * 5000, "t²",
                 *("(" * depth + "t1" + ")" * depth for depth in DEPTHS)]


def paths(doc, prefix=()):
    """Every (container path, key) in a JSON document, the root included as ((), None)."""
    out = [(prefix, None)] if not prefix else []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((prefix, key))
        out.extend(paths(value, prefix + (key,)))
    return out


def container(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc):
    """A copy of ``doc`` with one to three mutations, as JSON text."""
    doc = copy.deepcopy(doc)
    nested = None
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        path, key = draw(st.sampled_from(paths(doc)))
        if key is None:
            continue
        parent = container(doc, path)
        kind = draw(st.sampled_from(["type", "huge", "rename", "stray", "nest", "delete"]))
        if kind == "type":
            parent[key] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
        elif kind == "huge":
            parent[key] = draw(st.sampled_from(HUGE))
        elif kind == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(UNKNOWN_NAMES))] = parent.pop(key)
        elif kind == "rename" and isinstance(parent[key], str):  # a generator name in a monomial's list
            parent[key] = draw(st.sampled_from(UNKNOWN_NAMES))
        elif kind == "stray" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["zzz", "kind", "ring", "cutoff", "values", "minExp"]))] = \
                copy.deepcopy(draw(st.sampled_from(WRONG_TYPES + HUGE)))
        elif kind == "nest":
            nested = draw(st.sampled_from(DEPTHS)), draw(st.sampled_from(["[", "{\"a\":", "(expr"]))
            parent[key] = NEST
        elif kind == "delete" and isinstance(parent, dict):
            del parent[key]
    text = json.dumps(doc)
    if draw(st.booleans()):
        text = text.replace(str(10 ** 4000), TOO_LONG)
    if nested is not None:
        depth, opener = nested
        if opener == "(expr":  # a table key or value string in parentheses
            body = json.dumps("(" * depth + "t1" + ")" * depth)
        else:
            body = opener * depth + "1" + ("]" if opener == "[" else "}") * depth
        text = text.replace(json.dumps(NEST), body)
    return text


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def check(code, out, err, elapsed):
    assert elapsed < EXAMPLE_LIMIT_S
    if code == 2:
        assert not out
        assert err.endswith("\n") and err.count("\n") == 1
        diagnostic = json.loads(err)
        assert isinstance(diagnostic, dict) and {"error", "message"} <= diagnostic.keys()
    else:
        assert code in (0, 1)
        assert out or err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("json-fuzz")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_functional_file_exits_0_1_or_2_with_a_json_diagnostic(workdir, data):
    name = data.draw(st.sampled_from(sorted(FUNCTIONALS)))
    doc, commands = FUNCTIONALS[name]
    command = data.draw(st.sampled_from(commands))
    path = workdir / "functional.json"
    path.write_text(data.draw(mutated(doc)))
    files = [str(path)] * (2 if command == "convolve" else 1)
    check(*run([command, *files, "--schema", "ladder", "--max-degree", "3"]))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_schema_file_exits_0_1_or_2_with_a_json_diagnostic(workdir, data):
    schema = workdir / "schema.json"
    schema.write_text(data.draw(mutated(data.draw(st.sampled_from(SCHEMA_BASES)))))
    character = workdir / "character.json"
    character.write_text(json.dumps(SCHEMA_CHARACTER))
    degree = data.draw(st.integers(min_value=1, max_value=3))
    argv = [a.format(character=character, degree=degree) for a in data.draw(st.sampled_from(SCHEMA_COMMANDS))]
    check(*run([*argv, "--schema", f"custom:{schema}"]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_any_element_file_exits_0_or_2_with_a_json_diagnostic(workdir, data):
    schema = key = data.draw(st.sampled_from(sorted(ELEMENTS)))
    if key == "custom":
        path = workdir / "element-schema.json"
        path.write_text(json.dumps(SCHEMA))
        schema = f"custom:{path}"
    element = workdir / "element.json"
    element.write_text(data.draw(mutated(ELEMENTS[key])))
    code, out, err, elapsed = run([data.draw(st.sampled_from(["coproduct", "antipode"])), "--file", str(element),
                                   "--schema", schema])
    check(code, out, err, elapsed)
    assert code in (0, 2)


# Respellings of a key, the key itself among them: a generator name padded or
# split by whitespace (and a ladder index by a leading zero), a monomial spaced
# out, reordered or parenthesized, and an exponent signed, zero-padded or spaced.
def name_spellings(key):
    return [key, f" {key}", f"{key}\t", f"{key[:1]} {key[1:]}", *([f"t0{key[1:]}"] if key.startswith("t") else [])]


def monomial_spellings(key):
    factors = key.split("*")
    return [key, f" {key} ", " * ".join(factors), "*".join(reversed(factors)), "*".join(f"({f})" for f in factors)]


def exponent_spellings(key):
    sign, digits = ("-", key[1:]) if key.startswith("-") else ("+", key)
    return [key, f"{sign}{digits}", f"{sign}0{digits}", f" {key} "]


# Objects whose keys each name one value: (file, path to the object in it, the
# respellings of a key, and a command reading the file).
KEYED = {
    "character-values": (FUNCTIONALS["character-rational"][0], ("values",), name_spellings,
                         ["log", "{}", "--max-degree", "3"]),
    "table-keys": (FUNCTIONALS["table-laurent"][0], ("values",), monomial_spellings,
                   ["convolve", "{}", "{}", "--max-degree", "3"]),
    "laurent-coeffs": (FUNCTIONALS["character-laurent"][0], ("values", "t1", "coeffs"), exponent_spellings,
                       ["birkhoff", "{}", "--max-degree", "3"]),
    "reduced-coproduct": (SCHEMA, ("reducedCoproduct",), name_spellings,
                          ["coproduct", "--expr", "x1*x3", "--schema", "custom:{}"]),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_key_repeated_or_respelled_exits_2_naming_both_spellings(workdir, data):
    """json.load keeps the last value of a repeated key, and two spellings of
    one key are two keys to it; either way one value would be dropped."""
    doc, path, spellings, argv = KEYED[data.draw(st.sampled_from(sorted(KEYED)))]
    pairs = list(container(doc, path).items())
    key, value = data.draw(st.sampled_from(pairs))
    other = data.draw(st.sampled_from(spellings(key)))
    pairs.insert(data.draw(st.integers(min_value=0, max_value=len(pairs))), (other, value))
    doc = copy.deepcopy(doc)
    container(doc, path[:-1])[path[-1]] = NEST
    body = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    file = workdir / "keyed.json"
    file.write_text(json.dumps(doc).replace(json.dumps(NEST), body))
    code, out, err, elapsed = run([a.format(file) for a in argv])
    check(code, out, err, elapsed)
    assert code == 2 and "Traceback" not in err
    message = json.loads(err)["message"]
    assert repr(key) in message and repr(other) in message


@pytest.mark.parametrize("argv, payload, message", [
    # Integers past the interpreter's digit limit, in a file and in --expr.
    (["log", "{}"], '{"kind": "character", "cutoff": ' + TOO_LONG + ', "values": {}}',
     "cannot parse functional file {}: Exceeds the limit (4300 digits) for integer string conversion"),
    (["antipode", "--expr", "t" + TOO_LONG], None, "a ladder generator index of 5000 digits is past what Python reads"),
    (["antipode", "--expr", "t1^" + TOO_LONG], None,
     f"exponent {TOO_LONG[:40]!r}... (5000 characters) exceeds the limit MAX_EXPONENT = 64"),
    # A value of more digits than Python writes.
    (["log", "{}", "--max-degree", "3"], json.dumps({"kind": "character", "values": {"t1": "9" * 3000}}),
     "a value has more than 4300 decimal digits"),
    (["log", "{}"], json.dumps({"kind": "character", "values": {"t²": "1"}}),
     "unknown generator 't²' in the ladder schema"),
    # Costs that grow with a degree or a pole order read from the file.
    (["rg-check", "{}"], json.dumps({"kind": "character", "ring": "laurent", "values": {
        "t1": {"minExp": -10 ** 9, "truncation": None, "coeffs": {str(-10 ** 9): "1"}}}}),
     "phi has a pole of order 4000000000 through degree 4, above the limit MAX_POLE_ORDER = 100"),
    (["verify", "--schema", "custom:{}"], json.dumps({"generators": [{"name": "x", "degree": 10 ** 9}]}),
     "generator 'x' has degree 1000000000, above the limit MAX_SCHEMA_DEGREE = 100"),
    # A price of more digits than Python writes.
    (["coproduct", "--file", "{}"], json.dumps({"terms": [{"coeff": "1", "monomial": [["t3", 10 ** 4000]]}]}),
     "the coproducts of this element may fill more than 10^15998 terms, above the limit MAX_COPRODUCT_TERMS"),
], ids=["long-integer-in-a-file", "long-ladder-index", "long-exponent", "long-output-value", "unicode-digit-name",
        "pole-order", "schema-degree", "long-price"])
def test_inputs_the_fuzz_found_exit_2_naming_the_limit(argv, payload, message, tmp_path):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(payload)
    code, out, err, elapsed = run([a.format(path) for a in argv])
    assert (code, out) == (2, "") and elapsed < EXAMPLE_LIMIT_S
    assert message.format(path) in json.loads(err)["message"]


def test_diagnostics_quote_at_most_40_characters_of_an_input(tmp_path):
    character = tmp_path / "character.json"
    character.write_text(json.dumps({"kind": "character", "values": {"t1": "9" * 5000}}))
    element = tmp_path / "element.json"
    element.write_text(json.dumps({"terms": [{"coeff": "1", "monomial": [["t1", -(10 ** 4000)]]}]}))
    values = tmp_path / "values.json"
    values.write_text(json.dumps({"kind": "character", "values": [["t1", "1"]] * 2000}))
    listed = repr([["t1", "1"]] * 2000)
    unclosed = "(" + "t1+" * 2000 + "t1"
    cases = [
        (["log", str(values)], f"functional 'values' must be an object, got {listed[:40]}... ({len(listed)} characters)"),
        (["log", str(values), "--schema", "x" * 5000],
         f"unknown schema selector {'x' * 40!r}... (5000 characters); expected ladder, trees:<n> or custom:<path>"),
        (["log", str(character)], f"not a rational number: {'9' * 40!r}... (5000 characters)"),
        (["coproduct", "--file", str(element)],
         f"monomial exponents must be integers >= 1, got -{'1' + '0' * 38}... (4002 characters)"),
        (["antipode", "--expr", "t1+" * 2000 + "q" * 5000],
         f"unknown generator {'q' * 40!r}... (5000 characters) in the ladder schema"),
        (["antipode", "--expr", unclosed], f"expected ')' in {unclosed[:40]!r}... (6003 characters), got None"),
        # Up to 40 characters an input is quoted whole, as before.
        (["antipode", "--expr", "t1 + 1/0"], "not a rational number: '1/0'"),
        (["antipode", "--expr", "t1 + (t2"], "expected ')' in 't1 + (t2', got None"),
    ]
    for argv, message in cases:
        code, out, err, _ = run(argv)
        assert (code, out) == (2, "")
        assert json.loads(err)["message"] == message
        assert len(err) < 200


# A custom schema whose generators sit at degrees 1 and 100, and y primitive.
SPARSE_SCHEMA = {"generators": [{"name": "x", "degree": 1}, {"name": "y", "degree": 100}]}


def test_a_sparse_schema_prices_the_antipode_at_any_degree(tmp_path):
    from hopfalg.exprparse import parse_element
    from hopfalg.hopf import HopfAlgebra
    from hopfalg.instances import load_schema
    from hopfalg.pricing import antipode_term_bound

    schema = tmp_path / "sparse.json"
    schema.write_text(json.dumps(SPARSE_SCHEMA))
    for powers in ([6], range(1, 11)):
        expr = "+".join(f"y^{k}" for k in powers)
        code, out, err, elapsed = run(["antipode", "--schema", f"custom:{schema}", "--expr", expr])
        assert (code, err) == (0, "") and elapsed < EXAMPLE_LIMIT_S
        # S(y^k) = (-1)^k y^k for a primitive y.
        assert json.loads(out)["terms"] == [{"coeff": str((-1) ** k), "monomial": [["y", k]]} for k in powers]
        ctx = HopfAlgebra(load_schema(str(schema)), validate_to=0)
        h = parse_element(ctx, expr)
        bound = antipode_term_bound(ctx, h)
        ctx.antipode(h)
        assert sum(len(s.terms) for s in ctx._antipode_r.values()) <= bound
        assert sum(len(d.terms) for d in ctx._coproduct.values()) <= bound
    # Sums that grow slowly over sparse degrees still reach the limit in time.
    schema.write_text(json.dumps({"generators": [{"name": "a", "degree": 99}, {"name": "y", "degree": 100}]}))
    code, out, err, elapsed = run(["antipode", "--schema", f"custom:{schema}", "--expr", "a^64*a^64*a^64*a^64*y"])
    assert (code, out) == (2, "") and elapsed < EXAMPLE_LIMIT_S
    assert "above the limit MAX_COPRODUCT_TERMS = 100000" in json.loads(err)["message"]


def test_a_price_over_sparse_degrees_builds_only_the_degrees_it_reaches(tmp_path):
    """a^256 y on generators of degrees 99 and 100: the price passes the limit
    at degree 19,800, and its sums are nonzero on about 3 of every 99 degrees
    below that, so the price holds only those."""
    import tracemalloc

    from hopfalg.exprparse import parse_element
    from hopfalg.hopf import HopfAlgebra
    from hopfalg.instances import load_schema
    from hopfalg.pricing import antipode_term_bound

    schema = tmp_path / "sparse.json"
    schema.write_text(json.dumps({"generators": [{"name": "a", "degree": 99}, {"name": "y", "degree": 100}]}))
    expr = "a^64*a^64*a^64*a^64*y"
    ctx = HopfAlgebra(load_schema(str(schema)), validate_to=0)
    h = parse_element(ctx, expr)
    tracemalloc.start()
    try:
        bound = antipode_term_bound(ctx, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bound == 100_301 and peak < 2_000_000
    code, out, err, elapsed = run(["antipode", "--schema", f"custom:{schema}", "--expr", expr])
    assert (code, out) == (2, "") and elapsed < EXAMPLE_LIMIT_S
    assert json.loads(err)["message"] == ("the antipode of this element may fill 100301 terms, "
                                          "above the limit MAX_COPRODUCT_TERMS = 100000")
