"""Recursive-descent parser for the element mini-syntax.

Grammar:  expr := ['-'] term (('+'|'-') term)* ;  term := factor ('*' factor)*
factor := atom ('^' nat)? ;  atom := rational | name | '(' expr ')'
A name is an identifier or a run of brackets such as a rooted tree's encoding
(``hopf.NAME_PATTERN``); exponents are at most MAX_EXPONENT, and a power or a
product may expand to at most MAX_POWER_TERMS terms.
JSON stays the canonical interchange form, this syntax is for humans.
"""

from __future__ import annotations

import re
from math import comb
from typing import List, Tuple

from .algebra import Element, Monomial
from .errors import HopfError, quoted
from .hopf import NAME_PATTERN, HopfAlgebra
from .rationals import parse_rational

# The largest N accepted in ``atom^N``, which is expanded before anything
# else can bound the work.
MAX_EXPONENT = 64
# The most terms a power may expand to: a k-term base to the power N has at
# most C(k + N - 1, N) of them, one per monomial of degree N in k letters.
# A product of an a-term and a b-term factor, with at most a * b terms, has
# the same limit, checked before each multiplication.
MAX_POWER_TERMS = 10_000

# A name is the one atom a schema reads: ``hopf.NAME_PATTERN``, an identifier or
# a run of brackets and whitespace, passed to the schema as written.
_TOKEN = re.compile(
    rf"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>{NAME_PATTERN})|(?P<op>[-+*^()])|(?P<end>$))"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos <= len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise HopfError(f"cannot tokenize expression at: {quoted(text[pos:])}")
        if match.lastgroup == "end":
            break
        tokens.append((match.lastgroup, match.group(match.lastgroup)))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, ctx: HopfAlgebra, text: str):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise HopfError(f"expected {op!r} in {quoted(self.text)}, got {quoted(value)}")

    def parse(self) -> Element:
        e = self.expr()
        kind, value = self.peek()
        if kind is not None:
            raise HopfError(f"unexpected trailing {quoted(value)} in {quoted(self.text)}")
        return e

    def expr(self) -> Element:
        kind, value = self.peek()
        negate = False
        if kind == "op" and value == "-":
            self.take()
            negate = True
        acc = self.term()
        if negate:
            acc = -acc
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                nxt = self.term()
                acc = acc + (-nxt if value == "-" else nxt)
            else:
                return acc

    def term(self) -> Element:
        acc = self.factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.take()
                factor = self.factor()
                bound = len(acc.terms) * len(factor.terms)
                if bound > MAX_POWER_TERMS:
                    raise HopfError(f"a product of a {len(acc.terms)}-term and a {len(factor.terms)}-term factor "
                                    f"may expand to {bound} terms, above the limit MAX_POWER_TERMS = "
                                    f"{MAX_POWER_TERMS} in {quoted(self.text)}")
                acc = acc * factor
            else:
                return acc

    def factor(self) -> Element:
        base = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value = self.take()
            if kind != "number" or "/" in value:
                raise HopfError(f"exponent must be a natural number in {quoted(self.text)}")
            # str(int(value)), compared by its length first, since Python
            # limits the digits of an int it reads.
            digits = value.lstrip("0") or "0"
            if digits == "0":
                raise HopfError("exponents must be >= 1")
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise HopfError(f"exponent {digits if len(digits) <= 40 else quoted(digits)} exceeds the limit "
                                f"MAX_EXPONENT = {MAX_EXPONENT} in {quoted(self.text)}")
            n = int(digits)
            k = len(base.terms)
            bound = comb(k + n - 1, n)
            if bound > MAX_POWER_TERMS:
                raise HopfError(f"a {k}-term base to the power {n} may expand to {bound} terms, "
                                f"above the limit MAX_POWER_TERMS = {MAX_POWER_TERMS} in {quoted(self.text)}")
            return _power(base, n)
        return base

    def atom(self) -> Element:
        kind, value = self.take()
        if kind == "number":
            return Element.unit().scale(parse_rational(value))
        if kind == "name":
            gen = self.ctx.schema.generator_by_name(value)
            return self.ctx.monomial_element(Monomial.of(gen))
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise HopfError(f"unexpected token {quoted(value)} in {quoted(self.text)}")


def _power(base: Element, n: int) -> Element:
    """base^n by the multinomial theorem: the sum over e_1 + ... + e_k = n of
    n! / (e_1! ... e_k!) prod c_i^e_i m_i^e_i over the terms c_i m_i of base,
    with e_i chosen one term at a time.  Partial products that reach the same
    monomial with the same number of factors taken are summed as they meet."""
    if not base.terms:
        return base
    terms = list(base.terms.items())
    last = len(terms) - 1
    partial = {(0, Monomial.unit()): 1}  # (factors taken, monomial) -> coefficient
    for i, (m, c) in enumerate(terms):
        powers = [Monomial(tuple((g, f * e) for g, f in m.powers)) if e else m.unit() for e in range(n + 1)]
        grown = {}
        for (taken, acc), a in partial.items():
            # The last term takes every factor left.
            for e in range(n - taken if i == last else 0, n - taken + 1):
                key = (taken + e, acc * powers[e])
                grown[key] = grown.get(key, 0) + (a * comb(n - taken, e) * c ** e if e else a)
        partial = grown
    return Element.from_terms((acc, a) for (_, acc), a in partial.items())


def parse_element(ctx: HopfAlgebra, text: str) -> Element:
    """Parse expressions like "t1^2*t2 + 3*t3" or "[[][]] - 2*[]^2"."""
    if not text.strip():
        raise HopfError("empty expression")
    try:
        return _Parser(ctx, text).parse()
    except RecursionError:
        raise HopfError("expression nests too deeply to parse") from None
