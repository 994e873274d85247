"""Built-in schemas: ladder, rooted trees, loader."""

import json
import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from closed_forms import (
    connes_moscovici_schema,
    dyson_schwinger_coproduct,
    dyson_schwinger_schema,
    dyson_schwinger_trees,
    faa_di_bruno_schema,
    oracle_structure,
    polynomial_times,
    rescaled_binomial_schema,
)
from hopfalg.algebra import Element, Monomial, TensorElement
from hopfalg.axioms import verify_axioms
from hopfalg.birkhoff import birkhoff_decompose
from hopfalg.duals import Character, InfinitesimalCharacter, convolve_tables, exp_star, log_star
from hopfalg.errors import CutoffExceededError, DomainError, HopfError, SchemaError
from hopfalg.functionals import character_inverse
from hopfalg.hopf import HopfAlgebra
from hopfalg.instances import ladder_schema, load_schema, schema_from_dict
from hopfalg.rationals import format_rational
from hopfalg.rings import EPS_RING, QQ
from hopfalg.trees import (
    MAX_TREES,
    RootedTree,
    admissible_cuts,
    check_tree_budget,
    enumerate_trees,
    parse_tree,
    rooted_tree_count,
    rooted_tree_schema,
    tree_generator,
)
from perfbench import oracles

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def parse_forest(text):
    """Space-separated trees."""
    return tuple(parse_tree(p) for p in text.split())


def schema_to_dict(schema, up_to):
    """A schema's generators and reduced coproducts to degree ``up_to``, in the
    JSON contract that ``load_schema`` reads."""
    gens = schema.generators_up_to(up_to)
    out = {
        "generators": [{"name": g.name, "degree": g.degree} for g in gens],
        "reducedCoproduct": {},
    }
    for g in gens:
        terms = schema.reduced_terms(g)
        if terms:
            out["reducedCoproduct"][g.name] = [
                {"left": [[lg.name, e] for lg, e in t.left.powers], "right": t.right.name, "coeff": str(t.coeff)}
                for t in terms
            ]
    return out


def test_ladder_reduced_coproduct():
    schema = ladder_schema()
    assert schema.reduced_terms(schema.generator(1)) == ()
    t3_terms = schema.reduced_terms(schema.generator(3))
    got = {(t.left, t.right.name, t.coeff) for t in t3_terms}
    assert got == {
        (Monomial.of(schema.generator(1)), "t2", Fraction(1)),
        (Monomial.of(schema.generator(2)), "t1", Fraction(1)),
    }


def test_ladder_is_cocommutative_to_degree_5():
    ctx = HopfAlgebra(ladder_schema(), validate_to=5)
    for m in ctx.basis_up_to(5):
        d = ctx.coproduct_monomial(m).terms
        assert {(b, a): c for (a, b), c in d.items()} == d


def test_tree_counts():
    assert [len(enumerate_trees(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]


def test_tree_enumeration_canonical_and_deterministic():
    for n in range(1, 6):
        trees = enumerate_trees(n)
        encodings = [t.encoding() for t in trees]
        assert encodings == sorted(encodings)
        for t in trees:
            assert parse_tree(t.encoding()) == t
            assert t.vertex_count == n


def _encoding_by_recursion(tree):
    """The canonical encoding recomputed from the children on every call."""
    return "[" + "".join(sorted(_encoding_by_recursion(c) for c in tree.children)) + "]"


def test_cached_encoding_matches_a_recursive_encoder():
    for n in range(1, 10):
        for t in enumerate_trees(n):
            enc = _encoding_by_recursion(t)
            assert t.encoding() == str(t) == enc
            assert t.vertex_count == n == enc.count("[")
            assert parse_tree(enc) is t


def test_building_trees_8_encodes_each_tree_once():
    # A fresh process, so that no tree is interned before the count starts.
    code = textwrap.dedent("""
        import collections
        from hopfalg import trees
        calls = collections.Counter()
        encode = trees._encode
        def counting(children):
            enc = encode(children)
            calls[enc] += 1
            return enc
        trees._encode = counting
        schema = trees.rooted_tree_schema(8)
        schema.reduced_terms(schema.generators_of_degree(8)[0])  # runs the B+ cocycle
        print(len(calls), max(calls.values()))
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(sum(rooted_tree_count(n) for n in range(1, 9))), "1"]


def test_three_vertex_trees_by_hand():
    trees = enumerate_trees(3)
    encodings = {t.encoding() for t in trees}
    assert encodings == {"[[[]]]", "[[][]]"}


def test_single_vertex_has_no_cuts():
    leaf = parse_tree("[]")
    assert admissible_cuts(leaf) == ()


def test_two_vertex_path_single_cut():
    ell2 = parse_tree("[[]]")
    cuts = admissible_cuts(ell2)
    assert len(cuts) == 1
    (cut,) = cuts
    assert [t.encoding() for t in cut.pruned] == ["[]"]
    assert cut.trunk.encoding() == "[]"


def test_cherry_cuts_by_hand():
    # Root with two leaf children: two single-edge cuts (each pruning one
    # leaf) plus the double cut pruning both.
    cherry = parse_tree("[[][]]")
    cuts = admissible_cuts(cherry)
    assert len(cuts) == 3
    summary = sorted(
        (" ".join(t.encoding() for t in c.pruned), c.trunk.encoding()) for c in cuts
    )
    assert summary == [("[]", "[[]]"), ("[]", "[[]]"), ("[] []", "[]")]


def test_path_has_n_minus_one_cuts():
    text = "[]"
    for n in range(2, 7):
        text = f"[{text}]"
        assert len(admissible_cuts(parse_tree(text))) == n - 1


def test_tree_schema_generator_count():
    schema = rooted_tree_schema(4)
    assert len(schema.generators_up_to(4)) == 1 + 1 + 2 + 4


def test_tree_schema_cutoff_is_hard():
    schema = rooted_tree_schema(3)
    with pytest.raises(CutoffExceededError):
        schema.generators_of_degree(4)
    ctx = HopfAlgebra(schema)
    with pytest.raises(CutoffExceededError):
        ctx.monomials_of_degree(4)


def test_tree_schema_reduced_coproduct_cherry():
    schema = rooted_tree_schema(3)
    cherry = schema.generator_by_name("[[][]]")
    terms = {(str(t.left), t.right.name): t.coeff for t in schema.reduced_terms(cherry)}
    assert terms == {("[]", "[[]]"): Fraction(2), ("[]^2", "[]"): Fraction(1)}


def test_cocycle_coproducts_match_the_cuts_and_a_brute_force_count_to_8_vertices():
    # Two references: this module's admissible cuts, and perfbench's count
    # over every edge subset (used read-only; it imports nothing from hopfalg).
    from perfbench.oracles import admissible_cuts as edge_subset_cuts, tree_encoding, trees_up_to

    schema = rooted_tree_schema(8)
    everything = trees_up_to(8)
    assert len(everything) == 200
    for tree in everything:
        g = schema.generator_by_name(tree_encoding(tree))
        terms = schema.reduced_terms(g)
        assert list(terms) == sorted(terms, key=lambda t: (t.left.sort_key(), t.right)), g.name
        built = {(tuple(sorted(h.name for h, e in t.left.powers for _ in range(e))), t.right.name): t.coeff
                 for t in terms}
        by_cuts, by_subsets = {}, {}
        for cut in admissible_cuts(parse_tree(g.name)):
            key = (tuple(f.encoding() for f in cut.pruned), cut.trunk.encoding())
            by_cuts[key] = by_cuts.get(key, 0) + 1
        for pruned, trunk in edge_subset_cuts(tree):
            key = (tuple(sorted(tree_encoding(f) for f in pruned)), tree_encoding(trunk))
            by_subsets[key] = by_subsets.get(key, 0) + 1
        assert built == by_cuts == by_subsets, g.name


def test_trees_not_cocommutative_from_three_vertices():
    ctx = HopfAlgebra(rooted_tree_schema(3))
    witnesses = []
    for g in ctx.schema.generators_of_degree(3):
        d = ctx.coproduct_monomial(Monomial.of(g)).terms
        if {(b, a): c for (a, b), c in d.items()} != d:
            witnesses.append(g.name)
    assert "[[][]]" in witnesses


def test_enumerate_rejects_zero():
    with pytest.raises(DomainError):
        enumerate_trees(0)


def test_forest_parsing():
    forest = parse_forest("[] [[]]")
    m = Monomial.from_powers((tree_generator(t), 1) for t in forest)
    assert m.y_degree == 3 and m.poly_degree == 2


def test_schema_round_trip(tmp_path):
    # Serialize the ladder slice, reload, and compare coproduct + antipode
    # behavior on the whole basis to degree 6.
    ladder = HopfAlgebra(ladder_schema(), validate_to=6)
    data = schema_to_dict(ladder.schema, up_to=6)
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(data))
    reloaded = HopfAlgebra(load_schema(str(path)))

    def rename(m):
        return Monomial.from_powers(
            (reloaded.schema.generator_by_name(g.name), e) for g, e in m.powers
        )

    for m in ladder.basis_up_to(6):
        expect_cop = ladder.coproduct_monomial(m)
        got_cop = reloaded.coproduct_monomial(rename(m))
        assert got_cop == TensorElement.from_terms(
            2,
            [((rename(a), rename(b)), c) for (a, b), c in expect_cop.terms.items()],
        )
        got_anti = reloaded.antipode_monomial(rename(m))
        expect_anti = ladder.antipode_monomial(m)
        assert got_anti.terms == {
            rename(mm): c for mm, c in expect_anti.terms.items()
        }


def test_schema_degree_zero_generator_rejected():
    with pytest.raises(SchemaError, match="degree"):
        schema_from_dict(
            {"generators": [{"name": "x0", "degree": 0}], "reducedCoproduct": {}}
        )


def test_schema_right_leg_must_be_generator():
    with pytest.raises(SchemaError, match="right leg"):
        schema_from_dict(
            {
                "generators": [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}],
                "reducedCoproduct": {
                    "x2": [{"left": [["x1", 1]], "right": "nope", "coeff": "1"}]
                },
            }
        )


# Each fault with the message schema_from_dict gave when it checked the
# invariants itself; a term that is neither progressive nor graded is named
# for progressiveness.
@pytest.mark.parametrize(
    "generators, reduced, message",
    [
        ([{"name": "x1", "degree": 1}, {"name": "x3", "degree": 3}],
         {"x3": [{"left": [["x1", 1]], "right": "x1", "coeff": "1"}]},
         "reduced coproduct of 'x3' is not graded: left degree 1 + right degree 1 != 3"),
        ([{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}],
         {"x2": [{"left": [["x1", 1]], "right": "x1", "coeff": "0"}]},
         "reduced coproduct of 'x2' stores a zero coefficient"),
        ([{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}],
         {"x2": [{"left": [], "right": "x1"}]},
         "reduced coproduct of 'x2' is not progressive: left leg must have strictly positive degree"),
    ],
    ids=["not-graded", "zero-coefficient", "not-progressive"],
)
def test_schema_gradedness_violation_named(generators, reduced, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        schema_from_dict(
            {
                "generators": generators,
                "reducedCoproduct": reduced,
            }
        )


X12 = [{"name": "x1", "degree": 1}, {"name": "x2", "degree": 2}]


@pytest.mark.parametrize(
    "data",
    [
        {"generators": "abc"},
        {"generators": ["x1"]},
        {"generators": [{"name": "x1", "degree": 1}], "reducedCoproduct": []},
        {"generators": [{"name": "x1", "degree": 1}], "reducedCoproduct": {"x1": "abc"}},
        {"generators": [{"name": "x1", "degree": 1}], "reducedCoproduct": {"x1": [["x1"]]}},
        {"generators": X12, "reducedCoproduct": {"x2": [{"left": [["x1"]], "right": "x1"}]}},
        {"generators": X12, "reducedCoproduct": {"x2": [{"left": 1, "right": "x1"}]}},
        {"generators": X12, "reducedCoproduct": {"x2": [{"left": [["x1", 1]], "right": ["x1"]}]}},
        {"generators": X12, "reducedCoproduct": {"x2": [{"left": [["x1", 1]], "right": "x1", "coeff": 1}]}},
    ],
    ids=["generators-string", "generator-not-object", "table-list", "terms-string", "term-not-object",
         "unpaired-left-factor", "left-not-list", "right-not-name", "coeff-not-string"],
)
def test_schema_shape_errors_are_input_errors(data):
    with pytest.raises(HopfError):
        schema_from_dict(data)


def test_bad_tree_encodings_rejected():
    for bad in ["", "[", "[]]", "[]x", "x"]:
        with pytest.raises(HopfError):
            parse_tree(bad)


def test_a_tree_is_named_in_any_spelling_within_the_cutoff(monkeypatch):
    schema = rooted_tree_schema(4)
    g = schema.generator_by_name("[[[]][]]")
    assert schema.generator_by_name("[[][[]]]") == g
    assert schema.generator_by_name(" [ [ ]\n[[ ]] ] ") == g
    # Not a tree, a forest, not brackets, and a tree past the cutoff.
    for name in ("[[][[]]", "[][]", "x", "[[[[[]]]]]"):
        with pytest.raises(SchemaError) as exc:
            schema.generator_by_name(name)
        assert str(exc.value) == f"unknown generator {name!r} in schema 'trees:4'"
    # A name longer than 2 * 4 characters is no tree here, and is not parsed.
    monkeypatch.setattr("hopfalg.trees.parse_tree", no_parse)
    with pytest.raises(SchemaError):
        schema.generator_by_name("[" * 10**6 + "]" * 10**6)


def no_parse(text):
    raise AssertionError("a name past the cutoff was parsed")


def test_tree_counts_follow_the_a000081_recurrence():
    assert [rooted_tree_count(n) for n in range(1, 19)] == [
        1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486, 32973, 87811, 235381, 634847, 1721159]
    assert all(rooted_tree_count(n) == len(enumerate_trees(n)) for n in range(1, 9))


def test_tree_enumeration_is_the_grafting_oracle_at_every_admitted_size():
    # perfbench's oracle grows each tree by grafting a leaf anywhere, with no
    # code in common with B+ over the basis monomials of the smaller trees.
    top = max(n for n in range(1, 20) if sum(map(rooted_tree_count, range(1, n + 1))) <= MAX_TREES)
    assert top == 11
    by_size = {}
    for tree in oracles.trees_up_to(top):
        encoding = oracles.tree_encoding(tree)
        by_size.setdefault(encoding.count("["), []).append(encoding)
    for n in range(1, top + 1):
        assert [t.encoding() for t in enumerate_trees(n)] == sorted(by_size[n]), n


def test_tree_requests_above_the_cap_are_rejected_before_enumerating():
    assert sum(rooted_tree_count(n) for n in range(1, 12)) <= MAX_TREES
    check_tree_budget(11)
    with pytest.raises(DomainError, match=f"at most 12 vertices number 7813, above the limit MAX_TREES = {MAX_TREES}"):
        check_tree_budget(12)
    with pytest.raises(DomainError, match="at least 7813"):
        rooted_tree_schema(10**6)


# -- the Connes-Moscovici algebra: the delta_n, generated in plain ints ---------------


def test_connes_moscovici_coproduct_of_delta_3():
    # D d3 = d3 (x) 1 + 1 (x) d3 + 3 d1 (x) d2 + d2 (x) d1 + d1^2 (x) d1
    data = connes_moscovici_schema(3)
    assert data["reducedCoproduct"]["d3"] == [
        {"left": [["d1", 1]], "right": "d2", "coeff": "3"},
        {"left": [["d1", 2]], "right": "d1", "coeff": "1"},
        {"left": [["d2", 1]], "right": "d1", "coeff": "1"},
    ]
    ctx = HopfAlgebra(schema_from_dict(data))
    d3 = Monomial.of(ctx.schema.generator_by_name("d3"))
    assert {(str(a), str(b)): c for (a, b), c in ctx.coproduct_monomial(d3).terms.items()} == {
        ("d3", "1"): 1, ("1", "d3"): 1, ("d1", "d2"): 3, ("d2", "d1"): 1, ("d1^2", "d1"): 1}


def test_connes_moscovici_passes_verify_and_one_flipped_coefficient_fails(tmp_path, capsys):
    from hopfalg import cli

    data = connes_moscovici_schema(8)
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    data["reducedCoproduct"]["d3"][0]["coeff"] = "-3"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "8"]) == 1
    checks = json.loads(capsys.readouterr().out)["axioms"]["checks"]
    assert [(c["axiom"], c["counterexample"]) for c in checks if not c["passed"]] == [("CDelta", "d3")]


# -- the Connes-Kreimer morphism H_CM -> H_R: delta_n -> N^(n-1)(.) -------------------
#
# N grafts one new leaf onto each vertex of a tree in turn and sums the results,
# with multiplicity.  delta_n -> N^(n-1) of the one-vertex tree, extended
# multiplicatively, is a Hopf morphism into rooted trees (hep-th/9808042).
# Trees are the canonical tuples of ``perfbench.oracles``; a forest is a tuple of
# trees sorted by encoding, the empty forest the unit.


def natural_growth(combination):
    """N on a {tree: coefficient} combination."""

    def grafted(tree):  # one tree per vertex, a leaf grafted there
        yield oracles.canonical(tree + ((),))
        for i, child in enumerate(tree):
            for grown in grafted(child):
                yield oracles.canonical(tree[:i] + (grown,) + tree[i + 1:])

    out = {}
    for tree, c in combination.items():
        for grown in grafted(tree):
            out[grown] = out.get(grown, 0) + c
    return out


def forest_product(a, b):
    """The product of two {forest: coefficient} combinations."""
    out = {}
    for f, c in a.items():
        for g, d in b.items():
            key = tuple(sorted(f + g, key=oracles.tree_encoding))
            out[key] = out.get(key, 0) + c * d
    return out


def cm_image_of_coproduct(data, k, phi):
    """(phi (x) phi)(D delta_k) from the generated schema JSON, as {(forest, forest): coefficient}."""

    def image(powers):  # phi of a monomial given as [[name, exponent], ...]
        out = {(): 1}
        for name, e in powers:
            for _ in range(e):
                out = forest_product(out, phi[name])
        return out

    name = f"d{k}"
    terms = [([[name, 1]], [], 1), ([], [[name, 1]], 1)]
    terms += [(t["left"], [[t["right"], 1]], int(t["coeff"])) for t in data["reducedCoproduct"].get(name, [])]
    out = {}
    for left, right, c in terms:
        for f, x in image(left).items():
            for g, y in image(right).items():
                out[f, g] = out.get((f, g), 0) + c * x * y
    return {key: c for key, c in out.items() if c}


def test_connes_moscovici_maps_into_rooted_trees_by_natural_growth():
    top = 7
    data = connes_moscovici_schema(top)
    phi, tree = {}, {(): 1}
    for k in range(1, top + 1):
        phi[f"d{k}"] = {(t,): c for t, c in tree.items()}
        tree = natural_growth(tree)
    assert phi["d3"] == {(oracles.parse_tree("[[[]]]"),): 1, (oracles.parse_tree("[[][]]"),): 1}
    ctx = HopfAlgebra(rooted_tree_schema(top))

    def forest(m):
        return tuple(sorted((oracles.parse_tree(g.name) for g, e in m.powers for _ in range(e)),
                            key=oracles.tree_encoding))

    for k in range(1, top + 1):
        h = Element.from_terms((Monomial.of(ctx.schema.generator_by_name(oracles.tree_encoding(t))), c)
                               for (t,), c in phi[f"d{k}"].items())
        trees_side = {(forest(a), forest(b)): c for (a, b), c in ctx.coproduct(h).terms.items()}
        assert trees_side == cm_image_of_coproduct(data, k, phi), k
        if k == top:
            assert len(trees_side) == 236
        # Each coefficient of D delta_k, flipped on its own, breaks the identity.
        for term in data["reducedCoproduct"].get(f"d{k}", []):
            term["coeff"] = str(-int(term["coeff"]))
            assert trees_side != cm_image_of_coproduct(data, k, phi), (k, term)
            term["coeff"] = str(-int(term["coeff"]))


def test_the_ladder_embeds_in_the_trees_by_path_trees():
    # t_n -> l_n, the path tree of n vertices, is a Hopf morphism.  The
    # ladder's closed-form table shares no code with the trees' B+ cocycle,
    # and maps term by term onto D and S of trees:8 on the whole ladder basis.
    # exp and both Birkhoff factors of seeded trees:6 functionals with rational
    # coefficients commute with restriction along the map.
    ladder = HopfAlgebra(ladder_schema(), validate_to=0)

    def path_trees(top):
        """The trees:top context, and t_n -> the generator of l_n for n <= top."""
        ctx, path, tree = HopfAlgebra(rooted_tree_schema(top), validate_to=0), {}, RootedTree.leaf()
        for n in range(1, top + 1):
            path[ladder.schema.generator(n)] = ctx.schema.generator_by_name(tree.encoding())
            tree = RootedTree((tree,))
        return ctx, lambda m: Monomial.from_powers((path[g], e) for g, e in m.powers)

    trees, image = path_trees(8)
    for m in ladder.basis_up_to(8):
        want = {(image(a), image(b)): c for (a, b), c in ladder.coproduct_terms(m)}
        assert dict(trees.coproduct_terms(image(m))) == want, str(m)
        assert dict(trees.antipode_terms(image(m))) == {image(k): c for k, c in ladder.antipode_terms(m)}, str(m)

    trees, image = path_trees(6)
    basis = ladder.basis_up_to(6)
    images = [image(m) for m in basis]
    rng = random.Random(6)

    def value():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))

    def restricted(kind, ring, draw):
        """``kind`` on trees:6 with one drawn value per generator, and its restriction to the ladder."""
        on_trees = kind(trees, ring, {g: draw() for g in trees.schema.generators_up_to(6)})
        return on_trees, kind(ladder, ring, {g: on_trees.value_on(image(Monomial.of(g)))
                                             for g in ladder.schema.generators_up_to(6)})

    def first_difference(ring, on_trees, on_ladder):
        zero = ring.zero()
        return next((str(m) for m, i in zip(basis, images)
                     if not ring.eq(on_trees.get(i, zero), on_ladder.get(m, zero))), None)

    z, z_ladder = restricted(InfinitesimalCharacter, QQ, value)
    assert first_difference(QQ, exp_star(z, 6).tabulate(images), exp_star(z_ladder, 6).tabulate(basis)) is None
    phi, phi_ladder = restricted(Character, EPS_RING, lambda: EPS_RING.make({k: value() for k in range(-2, 2)}, None))
    split, split_ladder = birkhoff_decompose(phi, 6), birkhoff_decompose(phi_ladder, 6)
    assert first_difference(EPS_RING, split.minus_table, split_ladder.minus_table) is None
    assert first_difference(EPS_RING, split.plus_table, split_ladder.plus_table) is None


# -- birkhoff on custom schemas against the Bogoliubov recursion of perfbench.oracles ---


@pytest.mark.parametrize("data", [connes_moscovici_schema(6), rescaled_binomial_schema(6)],
                         ids=["connes-moscovici-6", "rescaled-binomial-6"])
def test_birkhoff_on_custom_schemas_matches_the_bogoliubov_recursion(data, tmp_path, capsys):
    from hopfalg import cli

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps(data))
    cuts, degree = oracle_structure(data)
    rng = random.Random(6)
    for draw in range(5):
        phi = {g: {k: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for k in range(-2, 2)} for g in degree}
        for g in phi:
            phi[g][-2] = phi[g][-2] or Fraction(1)  # a pole of order 2 on every generator
        path = tmp_path / f"phi-{draw}.json"
        path.write_text(json.dumps({"kind": "character", "ring": "laurent", "values": {
            g: {"truncation": None, "coeffs": {str(k): str(c) for k, c in v.items()}} for g, v in phi.items()}}))
        argv = ["birkhoff", str(path), "--schema", f"custom:{schema}", "--max-degree", str(max(degree.values()))]
        assert cli.main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["passed"]
        minus, plus = oracles.birkhoff_recursion(cuts, degree, {g: oracles.Poly(v) for g, v in phi.items()})
        for got, want in ((out["phiMinus"]["values"], minus), (out["phiPlus"]["values"], plus)):
            for g in degree:
                raw = got.get(g, {"coeffs": {}, "truncation": None})
                assert raw["truncation"] is None
                assert oracles.Poly({int(k): Fraction(c) for k, c in raw["coeffs"].items()}) == want[g], (draw, g)


# -- generator rescalings are Hopf isomorphisms ------------------------------------

NONZERO = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)


def weight(scale, m):
    """scale(m): the product of scale[g]^e over the factors g^e of m."""
    out = Fraction(1)
    for g, e in m.powers:
        out *= scale[g] ** e
    return out


@settings(max_examples=8, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("selector, degree", [("ladder", 6), ("trees:5", 5)])
def test_random_generator_rescalings_are_hopf_isomorphisms(selector, degree, data):
    # g -> g / lam_g maps H onto the custom schema whose reduced terms of g are
    # c lam_g / (lam(L) lam_b) L (x) b, for each c L (x) b of g.  It carries D,
    # S, a character chi and exp of an infinitesimal z to D~, S~, chi~ and
    # exp(z~), with chi~(g) = lam_g chi(g) and z~(g) = lam_g z(g).  Generators
    # are interned, so both algebras key their monomials by the same objects.
    from hopfalg import cli
    from hopfalg.rationals import format_rational

    ctx = HopfAlgebra(cli.resolve_schema(selector), validate_to=0)
    gens = ctx.schema.generators_up_to(degree)
    lam = {g: data.draw(NONZERO) for g in gens}
    chi = {g: v for g in gens if (v := data.draw(st.none() | NONZERO)) is not None}
    z = {g: data.draw(NONZERO) for g in gens}
    rescaled = HopfAlgebra(schema_from_dict({
        "generators": [{"name": g.name, "degree": g.degree} for g in gens],
        "reducedCoproduct": {g.name: [
            {"left": [[h.name, e] for h, e in t.left.powers], "right": t.right.name,
             "coeff": format_rational(t.coeff * lam[g] / (weight(lam, t.left) * lam[t.right]))}
            for t in ctx.schema.reduced_terms(g)] for g in gens}}))
    basis = ctx.basis_up_to(degree)
    for m in basis:
        w = weight(lam, m)
        assert rescaled.coproduct_monomial(m).terms == {
            (a, b): c * w / (weight(lam, a) * weight(lam, b)) for (a, b), c in ctx.coproduct_terms(m)}, str(m)
        assert rescaled.antipode_monomial(m).terms == {
            k: c * w / weight(lam, k) for k, c in ctx.antipode_monomial(m).terms.items()}, str(m)
    chi_tilde = {g: lam[g] * v for g, v in chi.items()}
    z_tilde = {g: lam[g] * v for g, v in z.items()}
    for f, f_tilde in ((Character(ctx, QQ, chi), Character(rescaled, QQ, chi_tilde)),
                       (exp_star(InfinitesimalCharacter(ctx, QQ, z), degree),
                        exp_star(InfinitesimalCharacter(rescaled, QQ, z_tilde), degree))):
        assert f_tilde.tabulate(basis) == {m: weight(lam, m) * v for m, v in f.tabulate(basis).items()}


def custom_schema(schema, gens, name=lambda g: g.name, coeff=lambda g, t: t.coeff):
    """``schema`` on the generators ``gens`` written as a ``custom:`` schema
    through ``schema_from_dict``: each generator g named name(g), and each
    reduced term t of g given the coefficient coeff(g, t)."""
    return schema_from_dict({
        "generators": [{"name": name(g), "degree": g.degree} for g in gens],
        "reducedCoproduct": {name(g): [
            {"left": [[name(h), e] for h, e in t.left.powers], "right": name(t.right),
             "coeff": format_rational(coeff(g, t))}
            for t in schema.reduced_terms(g)] for g in gens}})


# A nonzero rational in [-4, 4] that shrinks towards 1 without a filter's rejections.
SCALE = st.builds(lambda sign, p, q: Fraction(sign * p, q), st.sampled_from((1, -1)), st.integers(1, 4),
                  st.integers(1, 5))


@settings(max_examples=8, deadline=None, phases=[p for p in Phase if p is not Phase.explain])
@given(data=st.data())
@pytest.mark.parametrize("selector, degree", [("ladder", 6), ("trees:5", 5)])
def test_random_generator_rescalings_carry_log_convolution_and_birkhoff(selector, degree, data):
    # On the rescaled schema of the test above, with f~(g) = lam_g f(g) for
    # each functional f: log, the binary convolution of tables and both
    # Birkhoff factors of a Laurent character scale by lam(m) on the basis.
    # The values of f come from one drawn seed, which keeps the shrinking of a
    # failure short.
    from hopfalg import cli

    ctx = HopfAlgebra(cli.resolve_schema(selector), validate_to=0)
    gens = ctx.schema.generators_up_to(degree)
    lam = {g: data.draw(SCALE) for g in gens}
    rescaled = HopfAlgebra(custom_schema(
        ctx.schema, gens, coeff=lambda g, t: t.coeff * lam[g] / (weight(lam, t.left) * lam[t.right])))
    basis = ctx.basis_up_to(degree)
    rng = data.draw(st.randoms(use_true_random=True))

    def value():
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 5))

    def pair(kind, ring, values):
        """The functional ``kind`` with these generator values, and its rescaled form."""
        return (kind(ctx, ring, values),
                kind(rescaled, ring, {g: ring.scale(lam[g], v) for g, v in values.items()}))

    def unscaled(ring, got, want):
        """The first monomial where the table ``got`` is not lam(m) times ``want``, as a
        string, or None: a short failure message, cheap to build on every shrink."""
        zero = ring.zero()
        return next((str(m) for m in basis
                     if got.get(m, zero) != ring.scale(weight(lam, m), want.get(m, zero))), None)

    chi, chi_tilde = pair(Character, QQ, {g: value() for g in gens if rng.random() < 0.7})
    psi, psi_tilde = pair(Character, QQ, {g: value() for g in gens})
    z, z_tilde = pair(InfinitesimalCharacter, QQ, {g: value() for g in gens})
    assert unscaled(QQ, log_star(chi_tilde, degree).tabulate(basis), log_star(chi, degree).tabulate(basis)) is None
    for (f, f_tilde), (h, h_tilde) in (((chi, chi_tilde), (psi, psi_tilde)), ((chi, chi_tilde), (z, z_tilde))):
        assert unscaled(QQ, convolve_tables(rescaled, QQ, f_tilde.tabulate(basis), h_tilde.tabulate(basis), basis),
                        convolve_tables(ctx, QQ, f.tabulate(basis), h.tabulate(basis), basis)) is None
    laurent = {g: EPS_RING.make({k: value() for k in range(-2, 2)}, None) for g in gens}  # poles of order <= 2
    phi, phi_tilde = pair(Character, EPS_RING, laurent)
    split, split_tilde = birkhoff_decompose(phi, degree), birkhoff_decompose(phi_tilde, degree)
    assert unscaled(EPS_RING, split_tilde.minus_table, split.minus_table) is None
    assert unscaled(EPS_RING, split_tilde.plus_table, split.plus_table) is None


def test_a_renaming_that_reorders_same_degree_generators_changes_no_map():
    # trees:4 as a custom schema under two namings: x0 .. x7 in the canonical
    # generator order, and x7 .. x0, which orders the generators of each degree
    # the other way and names them against their degrees.  Read back on the
    # trees, both give the same D, S, exp, log, Birkhoff tables and verdict.
    trees = rooted_tree_schema(4)
    gens = trees.generators_up_to(4)
    rng = random.Random(4)
    z = {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in gens}
    chi = {g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in gens}
    phi = {g: EPS_RING.make({k: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for k in range(-2, 2)}, None)
           for g in gens}
    sides = []
    for order in (range(len(gens)), reversed(range(len(gens)))):
        names = {g: f"x{k}" for g, k in zip(gens, order)}
        ctx = HopfAlgebra(custom_schema(trees, gens, name=names.__getitem__), validate_to=0)
        own = {g: ctx.schema.generator_by_name(names[g]) for g in gens}
        back = {h: g for g, h in own.items()}

        def tree(m):
            return Monomial.from_powers((back[g], e) for g, e in m.powers)

        def on_trees(table):
            return {tree(m): v for m, v in table.items()}

        def local(values):
            return {own[g]: v for g, v in values.items()}

        basis = ctx.basis_up_to(4)
        split = birkhoff_decompose(Character(ctx, EPS_RING, local(phi)), 4)
        report = verify_axioms(ctx, 4)
        sides.append({
            "D": {tree(m): {(tree(a), tree(b)): c for (a, b), c in ctx.coproduct_terms(m)} for m in basis},
            "S": {tree(m): {tree(k): c for k, c in ctx.antipode_terms(m)} for m in basis},
            "exp": on_trees(exp_star(InfinitesimalCharacter(ctx, QQ, local(z)), 4).tabulate(basis)),
            "log": on_trees(log_star(Character(ctx, QQ, local(chi)), 4).tabulate(basis)),
            "birkhoff": (on_trees(split.minus_table), on_trees(split.plus_table)),
            "verify": (report.passed, [(c.name, c.passed) for c in report.checks]),
        })
    assert sides[0]["verify"][0]
    assert len(sides[0]["D"]) == len(HopfAlgebra(trees).basis_up_to(4))
    for name in sides[0]:
        assert sides[0][name] == sides[1][name], name


# -- Dyson-Schwinger: X = 1 + alpha B+(X^(1+s)) spans a Hopf subalgebra of trees ------


@pytest.mark.parametrize("s", range(4))
def test_the_dyson_schwinger_closed_form_is_the_tree_coproduct(s):
    n = 6
    x = dyson_schwinger_trees(s, n)
    ctx = HopfAlgebra(rooted_tree_schema(n))

    def forest(m):
        return tuple(sorted(g.name for g, e in m.powers for _ in range(e)))

    def in_trees(left):  # a polynomial in the c's, expanded into trees
        out = {}
        for a, coeff in left.items():
            p = {(): coeff}
            for i in a:
                p = polynomial_times(p, x[i])
            for key, c in p.items():
                out[key] = out.get(key, 0) + c
        return out

    for k, terms in dyson_schwinger_coproduct(s, n).items():
        want, got = {}, {}
        for left, j in terms:
            for a, c in in_trees(left).items():
                for b, d in x[j].items():
                    want[a, b] = want.get((a, b), 0) + c * d
        for (tree,), coeff in x[k].items():
            for (a, b), c in ctx.coproduct_monomial(Monomial.of(ctx.schema.generator_by_name(tree))).terms.items():
                got[forest(a), forest(b)] = got.get((forest(a), forest(b)), 0) + coeff * c
        assert {key: c for key, c in got.items() if c} == want, (s, k)


@pytest.mark.parametrize("s", [1, 2])
def test_dyson_schwinger_schemas_pass_verify_and_one_flipped_coefficient_fails(s, tmp_path, capsys):
    from hopfalg import cli

    data = dyson_schwinger_schema(s, 8)
    if s == 1:  # D c_3 = c_3 (x) 1 + 1 (x) c_3 + 3 c_1 (x) c_2 + 2 c_2 (x) c_1 + c_1^2 (x) c_1
        assert data["reducedCoproduct"]["c3"] == [
            {"left": [["c1", 2]], "right": "c1", "coeff": "1"},
            {"left": [["c2", 1]], "right": "c1", "coeff": "2"},
            {"left": [["c1", 1]], "right": "c2", "coeff": "3"},
        ]
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    data["reducedCoproduct"]["c4"][0]["coeff"] = str(-int(data["reducedCoproduct"]["c4"][0]["coeff"]))
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "8"]) == 1
    checks = json.loads(capsys.readouterr().out)["axioms"]["checks"]
    assert [(c["axiom"], c["counterexample"]) for c in checks if not c["passed"]] == [("CDelta", "c4")]


# -- Faa di Bruno: characters are series x + sum c_j x^(j+1) under composition ------


def series_product(s, t):
    top = len(s) - 1
    out = [Fraction(0)] * (top + 1)
    for i, a in enumerate(s):
        for j, b in enumerate(t[:top + 1 - i]):
            out[i + j] += a * b
    return out


def composed(f, g):
    """f(g(x)) for g without a constant term, to the length of f."""
    out, power = [Fraction(0)] * len(f), [Fraction(1)] + [Fraction(0)] * (len(f) - 1)
    for c in f:
        out = [o + c * p for o, p in zip(out, power)]
        power = series_product(power, g)
    return out


def compositional_inverse(g):
    """h with g(h(x)) = x, by h -> h - (g(h) - x): each step fixes one more coefficient."""
    x = [Fraction(0), Fraction(1)] + [Fraction(0)] * (len(g) - 2)
    h = x
    for _ in range(len(g)):
        h = [a - (b - c) for a, b, c in zip(h, composed(g, h), x)]
    return h


def time_one_flow(v):
    """The Lie series sum_k (v d/dx)^k x / k!, the flow of v d/dx at time 1."""
    term = [Fraction(0), Fraction(1)] + [Fraction(0)] * (len(v) - 2)
    out = term
    for k in range(1, len(v)):
        slope = [(i + 1) * c for i, c in enumerate(term[1:])] + [Fraction(0)]
        term = [c / k for c in series_product(v, slope)]
        out = [a + b for a, b in zip(out, term)]
    return out


def test_faa_di_bruno_passes_verify_and_one_flipped_coefficient_fails(tmp_path, capsys):
    from hopfalg import cli

    data = faa_di_bruno_schema(7)
    # D a_3 = a_3 (x) 1 + 1 (x) a_3 + (2 a_1 (x) a_2) + (a_1^2 + 2 a_2) (x) a_1, read off g^2 and g^3.
    assert data["reducedCoproduct"]["a3"] == [
        {"left": [["a1", 2]], "right": "a1", "coeff": "1"},
        {"left": [["a2", 1]], "right": "a1", "coeff": "2"},
        {"left": [["a1", 1]], "right": "a2", "coeff": "3"},
    ]
    path = tmp_path / "fdb.json"
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    data["reducedCoproduct"]["a4"][0]["coeff"] = str(-int(data["reducedCoproduct"]["a4"][0]["coeff"]))
    path.write_text(json.dumps(data))
    assert cli.main(["verify", "--schema", f"custom:{path}", "--max-degree", "7"]) == 1
    checks = json.loads(capsys.readouterr().out)["axioms"]["checks"]
    assert [(c["axiom"], c["counterexample"]) for c in checks if not c["passed"]] == [("CDelta", "a4")]


def test_faa_di_bruno_convolution_inverse_and_exp_are_composition_inversion_and_flow():
    n = 8
    ctx = HopfAlgebra(schema_from_dict(faa_di_bruno_schema(n), name="faa-di-bruno"))
    gens = ctx.schema.generators_up_to(n)  # a_1 .. a_n
    ones = [Monomial.of(g) for g in gens]

    def series(table):  # x + sum_m table(a_m) x^(m+1)
        return [Fraction(0), Fraction(1)] + [table.get(m, 0) for m in ones]

    basis, rng = ctx.basis_up_to(n), random.Random(8)
    for _ in range(3):
        values = [{g: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for g in gens} for _ in range(3)]
        chi1, chi2 = (Character(ctx, QQ, v, cutoff=n) for v in values[:2])
        t1, t2 = chi1.tabulate(basis), chi2.tabulate(basis)
        g1, g2 = series(t1), series(t2)
        assert series(convolve_tables(ctx, QQ, t1, t2, ones)) == composed(g2, g1)  # chi1 * chi2 <-> g2 o g1
        assert series(character_inverse(chi1, n).tabulate(ones)) == compositional_inverse(g1)
        z = InfinitesimalCharacter(ctx, QQ, values[2], cutoff=n)
        v = [Fraction(0), Fraction(0)] + [values[2][g] for g in gens]  # sum z_m x^(m+1)
        assert series(exp_star(z, n).tabulate(ones)) == time_one_flow(v)
