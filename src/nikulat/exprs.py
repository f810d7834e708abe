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

One scan of a whole-term pattern cuts the string into terms that must cover it,
else the error names the position where no term fits.  Each term's contribution
comes from its text alone, kept in a table of the 1,024 terms read last unless
the term has 640 characters or more: only those can meet ``int``'s digit limit,
so no answer depends on the limit in force when a term was first read.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

from .lattice import LatticeVector
from .model import build_model


class ExpressionError(ValueError):
    """The input string does not conform to the vector-expression grammar."""


#: A term after its sign, ``[digits *] name [( [-] digits )]``, its coeff, name, neg and arg each
#: opened by ``{0}``: "(" captures them, "(?:" only matches.
_BODY = r"(?:{0}\d+)\s*\*\s*)?{0}[A-Za-z][A-Za-z0-9]*)(?:\s*\(\s*{0}-)?\s*{0}\d+)\s*\))?"
#: One term with its optional sign, its groups (sign, coeff, name, neg, arg), None if absent.
_TERM = re.compile(r"\s*([+-])?\s*" + _BODY.format("("))
#: One term with its sign, captures none: only the first term may omit its sign.
_WHOLE = re.compile(r"\s*(?:[+-]|^)\s*" + _BODY.format("(?:"))
#: The shortest digit string that ``int`` may check against the digit limit, under any setting.
_LONG = getattr(sys.int_info, "str_digits_check_threshold", 640)

#: The names of LY's basis vectors, in coordinate order.
_BASIS = (*(f"u{k}" for k in range(1, 7)), *(f"eps{k}" for k in range(1, 9)), "gamma1", "gamma2")
#: Per basis vector, its name with a plus sign, with a minus sign, and bare.
_SIGNED_BASIS = tuple((f"+{name}", f"-{name}", name) for name in _BASIS)


@lru_cache(maxsize=1)
def _names() -> dict[str, tuple[tuple[int, int], ...]]:
    """Each name's sparse support ``((i, c), ...)``, the nonzero coordinates of its vector."""
    _, nv = build_model()
    return {name: tuple((i, c) for i, c in enumerate(v.coords) if c) for name, v in nv.by_name().items()}


def _support(term: str) -> tuple[tuple[int, int], ...]:
    """The sparse contribution ``((i, c), ...)`` of a term that :data:`_WHOLE` found, from its text alone."""
    sign, coeff, name, neg, arg = _TERM.match(term).groups()
    k = -int(coeff or 1) if sign == "-" else int(coeff or 1)
    names = _names()
    if name == "L":  # L(i) = u1 + i*u2
        if not arg:
            raise ExpressionError("L requires an argument, e.g. L(1)")
        parts = ((1, names["u1"]), (-int(arg) if neg else int(arg), names["u2"]))
    elif arg:
        raise ExpressionError(f"{name!r} does not take an argument")
    elif name not in names:
        raise ExpressionError(f"unknown vector name {name!r}")
    else:
        parts = ((1, names[name]),)
    return tuple((i, n * k * c) for n, support in parts for i, c in support)


#: the contributions of the terms read last, a term shorter than :data:`_LONG` each
_table = lru_cache(maxsize=1024)(_support)


def parse_vector(text: str) -> LatticeVector:
    """Parse an expression into a vector of LY, adding each term's support into one list of ints."""
    model, _ = build_model()
    total = [0] * model.lambda_Y.rank
    end = len(text.rstrip())
    if not end:
        raise ExpressionError("empty expression")
    terms = _WHOLE.findall(text, 0, end)  # disjoint and in order: they cover text[:end] if their lengths add up
    if sum(map(len, terms)) != end:  # the whole string is checked before any name is looked up
        pos = 0
        while (m := _TERM.match(text, pos, end)) and (m[1] or not pos):
            pos = m.end()
        raise ExpressionError(f"no term fits at position {pos} of {text!r}")
    for term in terms:
        for i, c in _table(term) if len(term) < _LONG else _support(term):
            total[i] += c
    return LatticeVector._of_ints(model.lambda_Y, tuple(total))


def format_vector(v: LatticeVector) -> str:
    """Render a vector of LY as an expression over the named basis."""
    model, _ = build_model()
    if v.lattice is not model.lambda_Y and v.lattice != model.lambda_Y:
        raise ExpressionError("can only format vectors of LY")
    parts = []
    for c, (plus, minus, name) in zip(v.coords, _SIGNED_BASIS):
        if c == 1:
            parts.append(plus)
        elif c == -1:
            parts.append(minus)
        elif c:
            parts.append(f"+{c}*{name}" if c > 0 else f"-{-c}*{name}")
    return "".join(parts).removeprefix("+") or "0"
