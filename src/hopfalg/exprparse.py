"""Recursive-descent parser for the element mini-syntax.

Grammar:  expr := ['-'] term (('+'|'-') term)* ;  term := factor ('*' factor)*
factor := atom ('^' nat)? ;  atom := rational | generator | tree | '(' expr ')'
Generator names are identifiers; rooted trees are balanced bracket strings.
JSON stays the canonical interchange form, this syntax is for humans.
"""

from __future__ import annotations

import re
from typing import List, Tuple

from .algebra import Element
from .errors import HopfError
from .hopf import HopfAlgebra
from .rings import QQ, parse_rational

_TOKEN = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_]\w*)|(?P<lbrack>\[)|(?P<op>[-+*^()])|(?P<end>$))"
)


def _tokenize(text: str) -> List[Tuple[str, str]]:
    tokens: List[Tuple[str, str]] = []
    pos = 0
    while pos <= len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise HopfError(f"cannot tokenize expression at: {text[pos:]!r}")
        if match.lastgroup == "end":
            break
        if match.lastgroup == "lbrack":
            # Lex a whole balanced-bracket tree encoding as one token.
            depth = 0
            start = match.start("lbrack")
            i = start
            while i < len(text):
                if text[i] == "[":
                    depth += 1
                elif text[i] == "]":
                    depth -= 1
                    if depth == 0:
                        break
                elif not text[i].isspace():
                    pass
                i += 1
            if depth != 0:
                raise HopfError(f"unbalanced tree brackets in {text!r}")
            tokens.append(("tree", text[start : i + 1]))
            pos = i + 1
            continue
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
            raise HopfError(f"expected {op!r} in {self.text!r}, got {value!r}")

    def parse(self) -> Element:
        e = self.expr()
        kind, value = self.peek()
        if kind is not None:
            raise HopfError(f"unexpected trailing {value!r} in {self.text!r}")
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
                acc = acc * self.factor()
            else:
                return acc

    def factor(self) -> Element:
        base = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value = self.take()
            if kind != "number" or "/" in value:
                raise HopfError(f"exponent must be a natural number in {self.text!r}")
            n = int(value)
            if n < 1:
                raise HopfError("exponents must be >= 1")
            acc = base
            for _ in range(n - 1):
                acc = acc * base
            return acc
        return base

    def atom(self) -> Element:
        kind, value = self.take()
        if kind == "number":
            return Element.unit(QQ).scale_rational(parse_rational(value))
        if kind == "name":
            return self.ctx.element_from_generator_name(value)
        if kind == "tree":
            compact = "".join(value.split())
            return self.ctx.element_from_generator_name(compact)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise HopfError(f"unexpected token {value!r} in {self.text!r}")


def parse_element(ctx: HopfAlgebra, text: str) -> Element:
    """Parse expressions like "t1^2*t2 + 3*t3" or "[[][]] - 2*[]^2"."""
    if not text.strip():
        raise HopfError("empty expression")
    return _Parser(ctx, text).parse()
