"""JSON encodings: the interchange contract for all CLI input and output.

Rationals travel as decimal strings "p/q"; elements as term lists keyed by
monomials; Laurent series with explicit minExp / truncation; functionals
with a "kind" discriminator.  Output is canonical (sorted keys, fixed
separators), so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import TYPE_CHECKING

from .algebra import Element, Monomial, TensorElement
from .errors import HopfError, quoted
from .hopf import HopfAlgebra, HopfSchema
from .rationals import QQ, Ring, format_rational, is_json_int

if TYPE_CHECKING:  # element and tensor I/O runs without the dual calculus
    from .duals import Functional

# The ring tags of JSON functionals; only a "laurent" one loads the series rings.
RING_TAGS = ("laurent", "rational")


def ring_by_tag(tag) -> Ring:
    if tag == "rational":
        return QQ
    if tag == "laurent":
        from .rings import EPS_RING

        return EPS_RING
    raise HopfError(f"unknown ring tag {quoted(tag)}; expected one of {list(RING_TAGS)}")


# -- monomials and elements ------------------------------------------------------


def monomial_to_json(m: Monomial) -> list:
    return [[g.name, e] for g, e in m.powers]


def monomial_from_json(schema: HopfSchema, data) -> Monomial:
    if not isinstance(data, list):
        raise HopfError(f"monomial encoding must be a list of [name, exp]: {quoted(data)}")
    powers = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[0], str):
            raise HopfError(f"monomial factors are [name, exp] pairs, got {quoted(entry)}")
        name, exp = entry
        if not is_json_int(exp) or exp < 1:
            raise HopfError(f"monomial exponents must be integers >= 1, got {quoted(exp)}")
        powers.append((schema.generator_by_name(name), exp))
    return Monomial.from_powers(powers)


def element_to_json(e: Element) -> dict:
    return {"terms": [{"coeff": format_rational(c), "monomial": monomial_to_json(m)} for m, c in e.sorted_terms()]}


def element_from_json(ctx: HopfAlgebra, data) -> Element:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise HopfError("element encoding must be an object with a 'terms' list")
    pairs = []
    for term in data["terms"]:
        if not isinstance(term, dict) or not {"coeff", "monomial"} <= term.keys():
            raise HopfError(f"element terms are objects with 'coeff' and 'monomial', got {quoted(term)}")
        coeff = QQ.value_from_json(term["coeff"])
        m = monomial_from_json(ctx.schema, term["monomial"])
        pairs.append((m, coeff))
    return Element.from_terms(pairs)


def tensor_to_json(t: TensorElement) -> dict:
    terms = [{"coeff": format_rational(c), "legs": [monomial_to_json(m) for m in key]} for key, c in t.sorted_terms()]
    return {"rank": t.rank, "terms": terms}


# -- functionals -------------------------------------------------------------------


def functional_to_json(f: Functional) -> dict:
    from .duals import TableFunctional

    ring = f.ring
    tag = ring.tag  # QQ's and EPS_RING's, the two rings a functional is over
    if f.kind == TableFunctional.kind:
        values = {
            str(m): ring.value_to_json(v)
            for m, v in sorted(f.table.items(), key=lambda kv: kv[0].sort_key())
        }
        return {"kind": f.kind, "ring": tag, "values": values}
    if f.kind is None:
        raise HopfError(f"cannot serialize functional of type {type(f).__name__}")
    values = {
        g.name: ring.value_to_json(v)
        for g, v in sorted(f.gen_values.items(), key=lambda kv: kv[0])
    }
    out = {"kind": f.kind, "ring": tag, "values": values}
    if f.cutoff is not None:
        out["cutoff"] = f.cutoff
    return out


def functional_from_json(ctx: HopfAlgebra, data: dict) -> Functional:
    from .duals import Character, InfinitesimalCharacter, TableFunctional

    if not isinstance(data, dict) or "kind" not in data:
        raise HopfError("functional encoding must be an object with a 'kind'")
    kind = data["kind"]
    ring = ring_by_tag(data.get("ring", "rational"))
    cutoff = data.get("cutoff")
    if cutoff is not None and (not is_json_int(cutoff) or cutoff < 0):
        raise HopfError(f"functional 'cutoff' must be an integer >= 0, got {quoted(cutoff)}")
    values = data.get("values", {})
    if not isinstance(values, dict):
        raise HopfError(f"functional 'values' must be an object, got {quoted(values)}")
    if kind == TableFunctional.kind:
        from .exprparse import parse_element

        table, keys = {}, {}
        for expr, raw in values.items():
            e = parse_element(ctx, expr)
            if len(e.terms) != 1:
                raise HopfError(f"table keys must be single monomials, got {quoted(expr)}")
            (m, c), = e.terms.items()
            if c != 1:
                raise HopfError(f"table keys must be bare monomials, got {quoted(expr)}")
            claim_key(keys, m, expr)
            table[m] = ring.value_from_json(raw)
        return TableFunctional(ctx, ring, table)
    for cls in (Character, InfinitesimalCharacter):
        if kind == cls.kind:
            gen_values, keys = {}, {}
            for name, raw in values.items():
                g = ctx.schema.generator_by_name(name)
                claim_key(keys, g.name, name)
                gen_values[g] = ring.value_from_json(raw)
            return cls(ctx, ring, gen_values, cutoff=cutoff)
    raise HopfError(f"unknown functional kind {quoted(kind)}")


def claim_key(keys: dict, target, key: str, what: str = "functional keys") -> None:
    """Record that the key ``key`` of one JSON object reads as ``target``; two keys
    that read as one would give it two values, so the second is refused."""
    if target in keys:
        raise HopfError(f"{what} {quoted(keys[target])} and {quoted(key)} both name {target}")
    keys[target] = key


def read_json(path: str, what: str, error: type = HopfError):
    """The JSON document in the file ``path``; ``what`` names its content in
    the ``error`` raised when the file does not parse, or when one of its
    objects gives a key twice, which ``json`` alone would read as its last."""

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            key = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
            raise error(f"{what} file {path} gives the key {quoted(key)} twice in one object")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=unique)
        except ValueError as exc:  # not JSON, or an integer past the interpreter's digit limit
            raise error(f"cannot parse {what} file {path}: {exc}") from exc
        except RecursionError:
            raise error(f"cannot parse {what} file {path}: its JSON nests too deeply") from None


def load_functional(ctx: HopfAlgebra, path: str) -> Functional:
    return functional_from_json(ctx, read_json(path, "functional"))


# -- canonical dumps ------------------------------------------------------------------


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
