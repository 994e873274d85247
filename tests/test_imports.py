"""Import footprint: a CLI command loads only the engine modules it runs.

Each case runs in a fresh interpreter, so nothing the test process imported
earlier can hide a module that the command pulls in.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import hopfalg
from perfbench import trace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every command loads these: the package, the CLI and its error types.
BASE = {"hopfalg", "hopfalg.cli", "hopfalg.errors"}
# A schema context: what ``cli.build_context`` loads, the exact-rational core,
# the module of its selector's schema, and no series ring.
CORE = BASE | {"hopfalg.hopf", "hopfalg.algebra", "hopfalg.rationals"}
CONTEXT = CORE | {"hopfalg.instances"}
DUAL = CONTEXT | {"hopfalg.duals", "hopfalg.serialize"}
# The Laurent rings, which only series-valued commands load.
SERIES = {"hopfalg.rings"}

INFINITESIMAL = {"kind": "infinitesimal", "ring": "rational", "values": {"t1": "1", "t2": "1/2"}}
CHARACTER = {"kind": "character", "ring": "rational", "values": {"t1": "1", "t2": "-2"}}
LAURENT_INFINITESIMAL = {"kind": "infinitesimal", "ring": "laurent",
                         "values": {"t1": {"minExp": 1, "truncation": 4, "coeffs": {"1": "1"}}}}
LOOP = {"kind": "character", "ring": "laurent",
        "values": {"t1": {"minExp": -1, "truncation": None, "coeffs": {"-1": "1", "0": "1/2"}}}}
# The special loop that build-loop assembles from INFINITESIMAL at degree 3.
SPECIAL = {"kind": "character", "ring": "laurent", "cutoff": 3, "values": {
    "t1": {"minExp": -1, "truncation": None, "coeffs": {"-1": "1"}},
    "t2": {"minExp": -2, "truncation": None, "coeffs": {"-2": "1/2", "-1": "1/4"}},
    "t3": {"minExp": -3, "truncation": None, "coeffs": {"-3": "1/6", "-2": "1/4"}}}}
# The layers of the renormalization-group commands, and what verify adds to them.
RENORM = DUAL | SERIES | {"hopfalg.rg", "hopfalg.polynomials"}
CHECKS = {"hopfalg.exp_integrals", "hopfalg.axioms", "hopfalg.suites", "hopfalg.birkhoff", "hopfalg.functionals"}
# The names the benchmark tracer reads through their old modules, by the
# module each moved to.
FORWARDED = {
    "birkhoff": ("rg", ("dn_recursive", "dn_simplex", "build_special_loop", "beta_data", "rg_limit_check",
                        "_flow_is_additive", "_flow_matches_exponential", "_residue_identity_holds",
                        "scattering_check")),
    "duals": ("functionals", ("ConvolutionProduct", "materialize_character", "character_inverse")),
    "rings": ("polynomials", ("PolynomialRing",)),
    "instances": ("trees", ("rooted_tree_schema",)),
}


def loaded_after(code):
    """The hopfalg modules, and whether dataclasses is loaded, after ``code`` runs."""
    probe = (
        f"import json\nimport sys\n{code}\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'hopfalg')))\n"
        "print('dataclasses' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    *_, modules, dataclasses = proc.stdout.splitlines()
    return set(json.loads(modules)), dataclasses == "True"


def run_command(argv):
    return f"from hopfalg import cli\nassert cli.main({argv!r}) == 0, 'command failed'"


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import hopfalg") == ({"hopfalg"}, False)
    assert loaded_after("from hopfalg import cli") == (BASE, False)


def build_context(selector):
    return ("from types import SimpleNamespace\nfrom hopfalg import cli\n"
            f"cli.build_context(SimpleNamespace(schema={selector!r}, max_degree=4))")


def test_build_context_loads_only_the_schema_layers():
    assert loaded_after(build_context("trees:4")) == (CORE | {"hopfalg.trees"}, False)


@pytest.mark.parametrize("selector", ["ladder", "custom:{}"])
def test_a_ladder_or_custom_selector_loads_no_tree(selector, tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"generators": [{"name": "x1", "degree": 1}]}))
    # A schema file is read by serialize's JSON, name and monomial readers; a
    # ladder loads none of them.
    reader = {"hopfalg.serialize"} if selector.startswith("custom:") else set()
    assert loaded_after(build_context(selector.format(path))) == (CONTEXT | reader, False)


@pytest.mark.parametrize(
    "command, payload, loads",
    [
        ("exp", INFINITESIMAL, DUAL),
        ("log", CHARACTER, DUAL),
        ("convolve", CHARACTER, DUAL),
        ("birkhoff", LOOP, DUAL | SERIES | {"hopfalg.birkhoff"}),
        ("build-loop", INFINITESIMAL, RENORM),
        ("rg-check", SPECIAL, RENORM),
        ("beta", SPECIAL, RENORM),
        ("scattering", INFINITESIMAL, RENORM | {"hopfalg.exp_integrals"}),
        ("verify", None, RENORM | CHECKS),
        # A Laurent file loads the series rings; a rational one (above) does not.
        ("exp", LAURENT_INFINITESIMAL, DUAL | SERIES),
    ],
)
def test_functional_commands_load_only_what_they_run(command, payload, loads, tmp_path):
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    files = [str(path)] * {"convolve": 2, "verify": 0}.get(command, 1)
    loaded = loaded_after(run_command([command, *files, "--max-degree", "3"]))
    assert loaded == (loads, False)
    # Only verify runs the flat oracle; birkhoff runs none of the RG layer; a
    # ladder selector builds no tree.
    assert ("hopfalg.functionals" in loaded[0]) == (command == "verify")
    if command == "birkhoff":
        assert not loaded[0] & {"hopfalg.rg", "hopfalg.polynomials"}
    assert "hopfalg.trees" not in loaded[0]


@pytest.mark.parametrize("command", ["coproduct", "antipode"])
def test_structure_maps_load_neither_the_dual_calculus_nor_the_checks(command, tmp_path):
    priced = CONTEXT | {"hopfalg.serialize", "hopfalg.pricing"}
    assert loaded_after(run_command([command, "--expr", "t1^2*t3"])) == (priced | {"hopfalg.exprparse"}, False)
    path = tmp_path / "e.json"
    path.write_text(json.dumps({"terms": [{"coeff": "1", "monomial": [["t2", 2]]}]}))
    assert loaded_after(run_command([command, "--file", str(path)])) == (priced, False)


def test_enumerate_trees_loads_the_schema_core_and_no_dual_calculus():
    # The trees are B+ of the engine's basis monomials, so the command loads
    # hopf and algebra, but no functional, ring of series or check.
    trees = CORE | {"hopfalg.trees", "hopfalg.serialize"}
    assert loaded_after(run_command(["enumerate-trees", "6"])) == (trees, False)


def test_the_birkhoff_module_loads_no_renormalization_group():
    loaded, _ = loaded_after("import hopfalg.birkhoff")
    assert "hopfalg.birkhoff" in loaded
    assert not loaded & {"hopfalg.rg", "hopfalg.polynomials", "hopfalg.functionals", "hopfalg.trees"}


def test_each_moved_name_still_resolves_in_its_old_module():
    for old, (home, names) in FORWARDED.items():
        module, moved = (importlib.import_module(f"hopfalg.{m}") for m in (old, home))
        for name in names:
            assert getattr(module, name) is getattr(moved, name)
        # No other name of the new home reads through the old module.
        for name in {n for n in vars(moved) if not n.startswith("__")} - set(vars(module)) - set(names):
            assert not hasattr(module, name), f"{old}.{name}"
    # The tracer's targets are among them: each resolves where it looks.
    for _, owner, attrs, _ in trace.TARGETS:
        module_name, _, class_name = owner.partition(":")
        holder = importlib.import_module(f"hopfalg.{module_name}")
        holder = getattr(holder, class_name) if class_name else holder
        for attr in attrs:
            assert callable(getattr(holder, attr)), f"{owner}.{attr}"


# The public API, by name: a change to it shows here in review.
PUBLIC = [
    "AxiomReport", "BetaData", "BirkhoffPair", "Character", "ConvolutionProduct", "CutoffExceededError",
    "DomainError", "Element", "Generator", "HopfAlgebra", "HopfError", "HopfSchema", "InfinitesimalCharacter",
    "LaurentRing", "LaurentSeries", "Monomial", "PolynomialRing", "QQ", "RankMismatchError", "RationalField",
    "ReducedTerm", "RingMismatchError", "RootedTree", "SchemaError", "SingularInputError", "TableFunctional",
    "TableSchema", "TensorElement", "TruncationError", "UnsupportedRingError", "VerificationError",
    "admissible_cuts", "beta_data", "birkhoff_decompose", "build_special_loop",
    "character_inverse", "convolve", "counit_functional", "dn_recursive", "dn_simplex", "enumerate_trees",
    "exp_star", "ladder_schema", "lie_bracket", "load_schema", "log_star", "metric_distance", "parse_tree",
    "residue", "rg_limit_check", "rooted_tree_schema", "rota_baxter_T", "scattering_check",
    "verify_axioms",
]


def test_every_public_name_is_its_submodule_object():
    assert hopfalg.__all__ == PUBLIC and len(set(PUBLIC)) == 54
    for name in hopfalg.__all__:
        value = getattr(hopfalg, name)
        assert getattr(sys.modules[value.__module__], name) is value
        assert name in dir(hopfalg)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hopfalg.no_such_name
    with pytest.raises(ImportError):
        from hopfalg import no_such_name  # noqa: F401


def unused_imports(path):
    """The names the module at ``path`` imports and never reads, by line; an
    import statement marked ``# noqa: F401`` is a re-export and counts as read."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # quoted annotations hold names too
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                read |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval")) if isinstance(n, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.partition(".")[0]
            if name not in read:
                unused.append(f"{node.lineno}: {name}")
    return unused


def test_every_imported_name_is_used():
    package = os.path.join(SRC, "hopfalg")
    found = {f: unused_imports(os.path.join(package, f)) for f in sorted(os.listdir(package)) if f.endswith(".py")}
    assert {f: names for f, names in found.items() if names} == {}


def test_each_ring_is_built_once_as_its_module_instance():
    # One Laurent ring over Q and one Q[t] value type: every other module
    # uses EPS_RING and POLY_T, so no call site builds a ring of its own.
    package = os.path.join(SRC, "hopfalg")
    calls = []
    for f in sorted(os.listdir(package)):
        if not f.endswith(".py"):
            continue
        with open(os.path.join(package, f), encoding="utf-8") as fh:
            source = fh.read()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("LaurentRing", "PolynomialRing"):
                    calls.append((f, source.splitlines()[node.lineno - 1]))
    assert calls == [("polynomials.py", "POLY_T = PolynomialRing()"), ("rings.py", "EPS_RING = LaurentRing()")]


def test_no_test_module_imports_another_and_the_closed_forms_import_no_engine():
    """Test modules share closed forms through ``closed_forms`` and fixtures
    through ``conftest``, never by importing each other, and ``closed_forms``
    stays independent of the engine it is compared with."""
    tests = os.path.dirname(os.path.abspath(__file__))
    stems = {f[:-3] for f in os.listdir(tests) if f.endswith(".py")}
    local = {s for s in stems if s.startswith("test_")} | {"conftest"}
    assert {"closed_forms", "conftest", "test_hopf"} <= stems
    found = []
    for stem in sorted(local) + ["closed_forms"]:
        forbidden = local | {"hopfalg"} if stem == "closed_forms" else local
        path = os.path.join(tests, f"{stem}.py")
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{stem}:{node.lineno} {name}" for name in names if name.partition(".")[0] in forbidden]
    assert found == []
