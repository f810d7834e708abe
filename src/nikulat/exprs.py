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

The grammar is matched one term at a time, sign included, by one pattern,
``_TERM``; a syntax error names the position where no term fits.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .lattice import LatticeVector
from .model import build_model


class ExpressionError(ValueError):
    """The input string does not conform to the vector-expression grammar."""


_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coeff>\d+)\s*\*\s*)?(?P<name>[A-Za-z][A-Za-z0-9]*)"
    r"(?:\s*\(\s*(?P<neg>-)?\s*(?P<arg>\d+)\s*\))?"
)

#: The names of LY's basis vectors, in coordinate order.
_BASIS = (*(f"u{k}" for k in range(1, 7)), *(f"eps{k}" for k in range(1, 9)), "gamma1", "gamma2")


@lru_cache(maxsize=1)
def _names() -> dict[str, LatticeVector]:
    _, nv = build_model()
    return nv.by_name()


def parse_vector(text: str) -> LatticeVector:
    """Parse an expression into a vector of LY, summing the terms into one list of ints."""
    model, nv = build_model()
    names = _names()
    total = [0] * model.lambda_Y.rank
    pos, end = 0, len(text.rstrip())
    if not end:
        raise ExpressionError("empty expression")
    terms = []  # the whole string is matched before any name is looked up
    while pos < end:
        m = _TERM.match(text, pos)
        if m is None or (pos and not m["sign"]):  # only the first term may omit its sign
            raise ExpressionError(f"no term fits at position {pos} of {text!r}")
        terms.append(m)
        pos = m.end()
    for m in terms:
        name, arg = m["name"], m["arg"]
        if name == "L":
            if arg is None:
                raise ExpressionError("L requires an argument, e.g. L(1)")
            base = nv.L(-int(arg) if m["neg"] else int(arg))
        elif arg is not None:
            raise ExpressionError(f"{name!r} does not take an argument")
        elif name not in names:
            raise ExpressionError(f"unknown vector name {name!r}")
        else:
            base = names[name]
        coeff = (-1 if m["sign"] == "-" else 1) * int(m["coeff"] or 1)
        for i, c in enumerate(base.coords):
            if c:
                total[i] += coeff * c
    return LatticeVector._of_ints(model.lambda_Y, tuple(total))


def format_vector(v: LatticeVector) -> str:
    """Render a vector of LY as an expression over the named basis."""
    _, nv = build_model()
    if v.lattice != nv.u[0].lattice:
        raise ExpressionError("can only format vectors of LY")
    text = "".join(
        ("-" if c < 0 else "+") + ("" if c in (1, -1) else f"{abs(c)}*") + name
        for c, name in zip(v.coords, _BASIS)
        if c
    )
    return text.removeprefix("+") or "0"
