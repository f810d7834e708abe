"""Symbolic vector expressions for LY, e.g. "L(1)+e2" or "2*L(1)-deltaY".

Grammar (bit-exact, whitespace allowed between tokens):

    expr    ::= [sign] term (sign term)*
    sign    ::= '+' | '-'
    term    ::= [digits '*'] name [ '(' ['-'] digits ')' ]
    name    ::= letter (letter | digit)*
    digits  ::= digit+

A sign between terms belongs to the following term, so "2*L(1)-deltaY" is the
difference of 2*L(1) and deltaY, while a minus inside parentheses negates the
argument, as in "L(-2)".  Recognized names: ``L`` (requires an argument,
L(i) = u1 + i*u2), ``u1``..``u6``, ``eps1``..``eps8``, ``e1``, ``e2``, ``ew``,
``w``, ``gamma1``, ``gamma2``, ``deltaY``, ``SigmaY``.  Names are case
sensitive.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .lattice import LatticeVector
from .model import build_model


class ExpressionError(ValueError):
    """The input string does not conform to the vector-expression grammar."""


_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[+\-*()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        tokens.append((m.lastgroup, m[m.lastgroup]))
    return tokens


@lru_cache(maxsize=1)
def _names() -> dict[str, LatticeVector]:
    _, nv = build_model()
    return nv.by_name()


def parse_vector(text: str) -> LatticeVector:
    """Parse an expression into a vector of LY, summing the terms into one list of ints."""
    model, nv = build_model()
    names = _names()
    total = [0] * model.lambda_Y.rank
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")

    pos = 0

    def peek() -> tuple[str, str] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take() -> tuple[str, str]:
        nonlocal pos
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def add_term(sign: int) -> None:
        coeff = sign
        kind, val = take()
        if kind == "int":
            coeff *= int(val)
            kind, val = take()
            if (kind, val) != ("punct", "*"):
                raise ExpressionError(f"expected '*' after coefficient, got {val!r}")
            kind, val = take()
        if kind != "name":
            raise ExpressionError(f"expected a vector name, got {val!r}")
        name = val
        arg = None
        nxt = peek()
        if nxt == ("punct", "("):
            take()
            kind, val = take()
            arg_sign = 1
            if (kind, val) == ("punct", "-"):
                arg_sign = -1
                kind, val = take()
            if kind != "int":
                raise ExpressionError(f"expected an integer argument, got {val!r}")
            arg = arg_sign * int(val)
            if take() != ("punct", ")"):
                raise ExpressionError("missing ')' after argument")
        if name == "L":
            if arg is None:
                raise ExpressionError("L requires an argument, e.g. L(1)")
            base = nv.L(arg)
        else:
            if arg is not None:
                raise ExpressionError(f"{name!r} does not take an argument")
            if name not in names:
                raise ExpressionError(f"unknown vector name {name!r}")
            base = names[name]
        for i, c in enumerate(base.coords):
            if c:
                total[i] += coeff * c

    sign = 1
    first = peek()
    if first is not None and first[0] == "punct" and first[1] in "+-":
        take()
        sign = -1 if first[1] == "-" else 1
    add_term(sign)
    while (nxt := peek()) is not None:
        if nxt[0] != "punct" or nxt[1] not in "+-":
            raise ExpressionError(f"expected '+' or '-', got {nxt[1]!r}")
        take()
        add_term(-1 if nxt[1] == "-" else 1)
    return LatticeVector._of_ints(model.lambda_Y, tuple(total))


def format_vector(v: LatticeVector) -> str:
    """Render a vector of LY as an expression over the named basis."""
    _, nv = build_model()
    if v.lattice != nv.u[0].lattice:
        raise ExpressionError("can only format vectors of LY")
    basis_names = [f"u{k}" for k in range(1, 7)]
    basis_names += [f"eps{k}" for k in range(1, 9)]
    basis_names += ["gamma1", "gamma2"]
    parts = []
    for coeff, name in zip(v.coords, basis_names):
        if coeff == 0:
            continue
        if coeff == 1:
            text = name
        elif coeff == -1:
            text = f"-{name}"
        else:
            text = f"{coeff}*{name}"
        parts.append(text)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out
