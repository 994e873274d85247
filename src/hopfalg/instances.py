"""Built-in schemas: the ladder algebra and custom ones read by ``serialize``.

A custom schema is validated against the schema invariants rather than
trusted.  The rooted-tree schemas live in ``trees``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from . import _forwarder
from .algebra import Generator, Monomial
from .errors import HopfError, SchemaError, quoted
from .hopf import HopfSchema, ReducedTerm, TableSchema, validate_schema_structure
from .rationals import QQ, is_json_int

# The tree schema moved to ``trees``; its name still resolves here.
__getattr__ = _forwarder(__name__, "trees", ("rooted_tree_schema",))

# -- the ladder schema --------------------------------------------------------


class LadderSchema(HopfSchema):
    """Generators t_n of degree n with reduced coproduct sum_k t_k (x) t_(n-k).

    There is one generator in every positive degree, so the schema is
    unbounded; generators are created on demand (and interned, so every
    ladder schema shares them).
    """

    name = "ladder"
    max_degree = None

    def generator(self, n: int) -> Generator:
        if n < 1:
            raise SchemaError("ladder generators are indexed by n >= 1")
        return Generator(n, f"t{n}")

    def generators_of_degree(self, degree: int) -> Tuple[Generator, ...]:
        if degree < 1:
            return ()
        return (self.generator(degree),)

    def reduced_terms(self, gen: Generator) -> Tuple[ReducedTerm, ...]:
        n = gen.degree
        return tuple(
            ReducedTerm(
                left=Monomial.of(self.generator(k)),
                right=self.generator(n - k),
                coeff=1,
            )
            for k in range(1, n)
        )

    def reduced_term_count(self, gen: Generator) -> int:
        return gen.degree - 1

    def generator_by_name(self, name: str) -> Generator:
        text = "".join(name.split())
        index = text[1:]
        if text.startswith("t") and index.isascii() and index.isdigit():
            try:
                n = int(index)
            except ValueError:  # past the interpreter's limit on the digits of an int
                raise SchemaError(f"a ladder generator index of {len(index)} digits is past what "
                                  "Python reads") from None
            if n >= 1:
                return self.generator(n)
        raise SchemaError(f"unknown generator {quoted(name)} in the ladder schema")


def ladder_schema() -> LadderSchema:
    return LadderSchema()


# -- custom schema loading ------------------------------------------------------

# The highest generator degree of a custom schema.  It bounds the exponents of
# the left legs, and so the coproducts that checking coassociativity fills.
MAX_SCHEMA_DEGREE = 100


def schema_from_dict(data: dict, name: str = "custom") -> TableSchema:
    """Build and structurally validate a schema from its JSON dict form.

    Names resolve through the schema's own ``generator_by_name``, left legs
    through ``serialize.monomial_from_json``.  Violations are reported with the
    offending generator and the invariant that failed (right leg a declared
    generator, gradedness, strictly positive left degree).
    """
    from .serialize import claim_key, monomial_from_json

    if not isinstance(data, dict) or not _is_list_of(data.get("generators"), dict):
        raise SchemaError("schema JSON must be an object with a 'generators' list of objects")
    gens: List[Generator] = []
    for entry in data["generators"]:
        gname = entry.get("name")
        degree = entry.get("degree")
        if not isinstance(gname, str):
            raise SchemaError(f"generator entry {quoted(entry)} needs a string 'name'")
        if not is_json_int(degree) or degree < 1:
            raise SchemaError(f"generator {quoted(gname)} has degree {quoted(degree)}; generators must be "
                              "homogeneous of degree >= 1")
        if degree > MAX_SCHEMA_DEGREE:
            raise SchemaError(f"generator {quoted(gname)} has degree {degree}, above the limit "
                              f"MAX_SCHEMA_DEGREE = {MAX_SCHEMA_DEGREE}")
        gens.append(Generator(degree=degree, name=gname))
    names = TableSchema(name=name, generators=gens, reduced={})

    table = data.get("reducedCoproduct", {})
    if not isinstance(table, dict):
        raise SchemaError(f"'reducedCoproduct' must be an object, got {quoted(table)}")
    reduced: Dict[Generator, Tuple[ReducedTerm, ...]] = {}
    keys: Dict[str, str] = {}
    for key, terms in table.items():
        g = _read_at("reducedCoproduct", names.generator_by_name, key)
        _read_at("reducedCoproduct", claim_key, keys, g.name, key, "keys")
        where = f"reduced coproduct of {quoted(key)}"
        if not _is_list_of(terms, dict):
            raise SchemaError(f"{where} must be a list of term objects")
        built: List[ReducedTerm] = []
        for term in terms:
            right = term.get("right")
            if not isinstance(right, str):
                raise SchemaError(f"{where}: right leg {quoted(right)} must be a single generator name")
            left = _read_at(f"{where}, left leg", monomial_from_json, names, term.get("left", []))
            right = _read_at(f"{where}, right leg", names.generator_by_name, right)
            built.append(ReducedTerm(left=left, right=right, coeff=QQ.value_from_json(term.get("coeff", "1"))))
        reduced[g] = tuple(built)

    schema = TableSchema(name=name, generators=gens, reduced=reduced)
    validate_schema_structure(schema, schema.max_degree)
    return schema


def _read_at(where: str, read, *args):
    """``read(*args)``; a HopfError it raises becomes a SchemaError that starts with ``where``."""
    try:
        return read(*args)
    except HopfError as exc:
        raise SchemaError(f"{where}: {exc}") from None


def _is_list_of(value, kind: type) -> bool:
    return isinstance(value, list) and all(isinstance(v, kind) for v in value)


def load_schema(path: str) -> TableSchema:
    """Load a schema from a JSON file; full validation happens at load."""
    from .serialize import read_json

    return schema_from_dict(read_json(path, "schema", SchemaError), name=f"custom:{path}")
