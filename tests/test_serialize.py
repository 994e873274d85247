"""JSON interchange round trips."""

import json
from fractions import Fraction

import pytest

from hopfalg import cli
from hopfalg.algebra import Monomial
from hopfalg.duals import Character, InfinitesimalCharacter, TableFunctional
from hopfalg.errors import HopfError
from hopfalg.exprparse import parse_element
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema, load_schema
from hopfalg.rings import EPS_RING, QQ
from hopfalg.serialize import (
    canonical_dumps,
    element_from_json,
    element_to_json,
    functional_from_json,
    functional_to_json,
    load_functional,
    tensor_to_json,
)
from hopfalg.trees import rooted_tree_schema
from perfbench.workloads import binomial_schema


def test_element_round_trip(ladder):
    e = parse_element(ladder, "t1^2*t3 - 3/2*t2 + 1")
    data = element_to_json(e)
    assert {"coeff": "-3/2", "monomial": [["t2", 1]]} in data["terms"]
    back = element_from_json(ladder, data)
    assert back == e


def test_tensor_encoding(ladder):
    d = ladder.coproduct(parse_element(ladder, "t2"))
    data = tensor_to_json(d)
    assert data["rank"] == 2
    assert {"coeff": "1", "legs": [[["t1", 1]], [["t1", 1]]]} in data["terms"]


def test_character_round_trip(ladder):
    chi = Character(
        ladder,
        QQ,
        {ladder.schema.generator(1): Fraction(2), ladder.schema.generator(2): Fraction(-1, 3)},
        cutoff=4,
    )
    data = functional_to_json(chi)
    assert data == {
        "kind": "character",
        "ring": "rational",
        "values": {"t1": "2", "t2": "-1/3"},
        "cutoff": 4,
    }
    back = functional_from_json(ladder, data)
    assert isinstance(back, Character)
    for m in ladder.basis_up_to(4):
        assert back.value_on(m) == chi.value_on(m)


def test_laurent_character_round_trip(ladder):
    chi = Character(
        ladder,
        EPS_RING,
        {ladder.schema.generator(1): EPS_RING.make({-1: Fraction(1)}, 6)},
    )
    back = functional_from_json(ladder, functional_to_json(chi))
    v = back.value_on(Monomial.of(ladder.schema.generator(1)))
    assert v.as_dict() == {-1: Fraction(1)}
    assert v.trunc == 6


def test_infinitesimal_round_trip(ladder):
    z = InfinitesimalCharacter(
        ladder, QQ, {ladder.schema.generator(3): Fraction(7)}
    )
    back = functional_from_json(ladder, functional_to_json(z))
    assert isinstance(back, InfinitesimalCharacter)
    assert back.value_on(Monomial.of(ladder.schema.generator(3))) == 7
    assert back.value_on(Monomial.of(ladder.schema.generator(3), 2)) == 0


def test_table_round_trip(ladder):
    m = parse_element(ladder, "t1*t2").terms
    (mono,) = m
    f = TableFunctional(ladder, QQ, {mono: Fraction(5)})
    back = functional_from_json(ladder, functional_to_json(f))
    assert back.value_on(mono) == 5


def test_unknown_kind_rejected(ladder):
    with pytest.raises(HopfError):
        functional_from_json(ladder, {"kind": "mystery", "values": {}})


def test_unknown_ring_rejected(ladder):
    with pytest.raises(HopfError):
        functional_from_json(ladder, {"kind": "character", "ring": "float", "values": {}})


@pytest.mark.parametrize("kind, values, first, second, target", [
    ("character", {"t1": "2", "t01": "3"}, "t1", "t01", "t1"),
    ("infinitesimal", {"t02": "2", "t3": "1", "t2": "3"}, "t02", "t2", "t2"),
    ("table", {"t1^2": "3", "t1*t1": "4"}, "t1^2", "t1*t1", "t1^2"),
    ("table", {"t2*t1": "1", "t1 * t2": "1"}, "t2*t1", "t1 * t2", "t1*t2"),
])
def test_two_keys_for_one_generator_or_monomial_are_rejected(ladder, kind, values, first, second, target,
                                                             tmp_path, capsys):
    # The last key would otherwise win silently, dropping the first value.
    with pytest.raises(HopfError) as err:
        functional_from_json(ladder, {"kind": kind, "values": values})
    assert str(err.value) == f"functional keys {first!r} and {second!r} both name {target}"
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"kind": kind, "values": values}))
    command = {"character": "log", "infinitesimal": "exp", "table": "convolve"}[kind]
    paths = [str(path)] * (2 if command == "convolve" else 1)
    assert cli.main([command, *paths, "--schema", "ladder", "--max-degree", "3"]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "HopfError", "message": str(err.value)}


def test_a_lone_padded_ladder_name_is_read():
    f = functional_from_json(HopfAlgebra(ladder_schema()), {"kind": "character", "values": {"t01": "3"}})
    assert f.value_on(Monomial.of(f.ctx.schema.generator_by_name("t1"))) == 3


@pytest.mark.parametrize("schema", ["ladder", "trees:4", "binomial"])
def test_every_functional_the_cli_writes_reads_back(schema, tmp_path, capsys):
    # Each key the engine writes, a generator name or a monomial joined by *
    # and ^, must name on reading what it named on writing.
    if schema == "binomial":
        path = tmp_path / "binomial.json"
        path.write_text(json.dumps(binomial_schema()))
        schema, ctx = f"custom:{path}", HopfAlgebra(load_schema(str(path)))
    else:
        ctx = HopfAlgebra(ladder_schema() if schema == "ladder" else rooted_tree_schema(4))
    names = [g.name for g in ctx.schema.generators_up_to(4)]
    inputs = {}
    for kind in ("character", "infinitesimal"):
        inputs[kind] = tmp_path / f"{kind}.json"
        inputs[kind].write_text(json.dumps({"kind": kind, "values": {n: f"{i + 1}/{i + 2}" for i, n in
                                                                     enumerate(names)}}))
    chi, z = str(inputs["character"]), str(inputs["infinitesimal"])
    written = tmp_path / "written.json"
    for argv in (["convolve", chi, z], ["exp", z], ["log", chi], ["build-loop", z]):
        assert cli.main([*argv, "--schema", schema, "--max-degree", "4"]) == 0
        out = capsys.readouterr().out
        written.write_text(out)
        assert functional_to_json(load_functional(ctx, str(written))) == json.loads(out)


def test_canonical_dumps_sorts_keys():
    assert canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'
