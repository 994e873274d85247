"""JSON encodings: the interchange contract for all CLI input and output.

Rationals travel as decimal strings "p/q"; elements as term lists keyed by
monomials; Laurent series with explicit minExp / truncation; functionals
with a "kind" discriminator.  Output is canonical (sorted keys, fixed
separators), so identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from typing import Optional

from .algebra import Element, Monomial, TensorElement
from .duals import Character, Functional, InfinitesimalCharacter, TableFunctional
from .errors import HopfError
from .hopf import HopfAlgebra
from .rings import QQ, LaurentRing, Ring

EPS_RING = LaurentRing(QQ, "eps")

_RINGS = {
    "rational": QQ,
    "laurent": EPS_RING,
}


def ring_by_tag(tag: str) -> Ring:
    try:
        return _RINGS[tag]
    except KeyError:
        raise HopfError(
            f"unknown ring tag {tag!r}; expected one of {sorted(_RINGS)}"
        ) from None


def ring_tag(ring: Ring) -> str:
    for tag, r in _RINGS.items():
        if r is ring or r.tag == ring.tag:
            return tag
    raise HopfError(f"ring {ring.tag!r} has no JSON tag")


# -- monomials and elements ------------------------------------------------------


def monomial_to_json(m: Monomial) -> list:
    return [[g.name, e] for g, e in m.powers]


def monomial_from_json(ctx: HopfAlgebra, data, search_to: Optional[int] = None) -> Monomial:
    if not isinstance(data, list):
        raise HopfError(f"monomial encoding must be a list of [name, exp]: {data!r}")
    powers = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2 or not isinstance(entry[0], str):
            raise HopfError(f"monomial factors are [name, exp] pairs, got {entry!r}")
        name, exp = entry
        if not isinstance(exp, int) or exp < 1:
            raise HopfError(f"monomial exponents must be integers >= 1, got {exp!r}")
        powers.append((ctx.schema.generator_by_name(name, search_to=search_to), exp))
    return Monomial.from_powers(powers)


def element_to_json(e: Element) -> dict:
    terms = []
    for m, c in e.sorted_terms():
        terms.append({"coeff": e.ring.value_to_json(c), "monomial": monomial_to_json(m)})
    return {"terms": terms}


def element_from_json(ctx: HopfAlgebra, data, ring: Ring = QQ) -> Element:
    if not isinstance(data, dict) or not isinstance(data.get("terms"), list):
        raise HopfError("element encoding must be an object with a 'terms' list")
    pairs = []
    for term in data["terms"]:
        if not isinstance(term, dict) or not {"coeff", "monomial"} <= term.keys():
            raise HopfError(f"element terms are objects with 'coeff' and 'monomial', got {term!r}")
        coeff = ring.value_from_json(term["coeff"])
        m = monomial_from_json(ctx, term["monomial"])
        pairs.append((m, coeff))
    return Element.from_terms(ring, pairs)


def tensor_to_json(t: TensorElement) -> dict:
    terms = []
    for key, c in t.sorted_terms():
        terms.append(
            {
                "coeff": t.ring.value_to_json(c),
                "legs": [monomial_to_json(m) for m in key],
            }
        )
    return {"rank": t.rank, "terms": terms}


# -- functionals -------------------------------------------------------------------


def functional_to_json(f: Functional) -> dict:
    ring = f.ring
    tag = ring_tag(ring)
    if isinstance(f, Character) or isinstance(f, InfinitesimalCharacter):
        kind = "character" if isinstance(f, Character) else "infinitesimal"
        values = {
            g.name: ring.value_to_json(v)
            for g, v in sorted(f.gen_values.items(), key=lambda kv: kv[0])
        }
        out = {"kind": kind, "ring": tag, "values": values}
        if f.cutoff is not None:
            out["cutoff"] = f.cutoff
        return out
    if isinstance(f, TableFunctional):
        values = {
            str(m): ring.value_to_json(v)
            for m, v in sorted(f.table.items(), key=lambda kv: kv[0].sort_key())
        }
        return {"kind": "table", "ring": tag, "values": values}
    raise HopfError(f"cannot serialize functional of type {type(f).__name__}")


def functional_from_json(ctx: HopfAlgebra, data: dict) -> Functional:
    if not isinstance(data, dict) or "kind" not in data:
        raise HopfError("functional encoding must be an object with a 'kind'")
    kind = data["kind"]
    ring = ring_by_tag(data.get("ring", "rational"))
    cutoff = data.get("cutoff")
    values = data.get("values", {})
    if not isinstance(values, dict):
        raise HopfError(f"functional 'values' must be an object, got {values!r}")
    if kind in ("character", "infinitesimal"):
        gen_values = {}
        for name, raw in values.items():
            g = ctx.schema.generator_by_name(name)
            gen_values[g] = ring.value_from_json(raw)
        cls = Character if kind == "character" else InfinitesimalCharacter
        return cls(ctx, ring, gen_values, cutoff=cutoff)
    if kind == "table":
        from .exprparse import parse_element

        table = {}
        for expr, raw in values.items():
            e = parse_element(ctx, expr)
            if len(e.terms) != 1:
                raise HopfError(f"table keys must be single monomials, got {expr!r}")
            (m, c), = e.terms.items()
            if c != 1:
                raise HopfError(f"table keys must be bare monomials, got {expr!r}")
            table[m] = ring.value_from_json(raw)
        return TableFunctional(ctx, ring, table)
    raise HopfError(f"unknown functional kind {kind!r}")


def load_functional(ctx: HopfAlgebra, path: str) -> Functional:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise HopfError(f"cannot parse functional file {path}: {exc}") from exc
    return functional_from_json(ctx, data)


# -- canonical dumps ------------------------------------------------------------------


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
