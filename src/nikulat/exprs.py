"""Symbolic vector expressions for LY, e.g. "L(1)+e2" or "2*L(1)-deltaY".

Grammar (bit-exact, whitespace allowed between tokens):

    expr    ::= [sign] term (sign term)*
    sign    ::= '+' | '-'
    term    ::= [digits '*'] name [ '(' ['-'] digits ')' ]
    name    ::= letter (letter | digit)*
    digits  ::= digit+

A sign between terms belongs to the following term, so "2*L(1)-deltaY" is the
difference of 2*L(1) and deltaY, while a minus inside parentheses negates the
argument, as in "L(-2)".  Recognized names: the names of
``NamedVectors.by_name()``, and ``L(i)``.  Names are case sensitive.

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
from .core import build_model


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


@lru_cache(maxsize=1)
def _names() -> dict[str, LatticeVector]:
    """The named vectors of LY under their names, LY's basis first (:meth:`NamedVectors.by_name`)."""
    _, nv = build_model()
    return nv.by_name()


@lru_cache(maxsize=1)
def _signed_basis() -> tuple[tuple[str, str, str], ...]:
    """Per basis vector of LY, in coordinate order, its name with a plus sign, with a minus sign, and bare."""
    model, _ = build_model()
    return tuple((f"+{name}", f"-{name}", name) for name in list(_names())[: model.lambda_Y.rank])


def _support(term: str) -> tuple[tuple[int, int], ...]:
    """The sparse contribution ``((i, c), ...)`` of a term that :data:`_WHOLE` found, from its text alone."""
    sign, coeff, name, neg, arg = _TERM.match(term).groups()
    k = -int(coeff or 1) if sign == "-" else int(coeff or 1)
    if name == "L":
        if not arg:
            raise ExpressionError("L requires an argument, e.g. L(1)")
        _, nv = build_model()
        v = nv.L(-int(arg) if neg else int(arg))
    elif arg:
        raise ExpressionError(f"{name!r} does not take an argument")
    elif (v := _names().get(name)) is None:
        raise ExpressionError(f"unknown vector name {name!r}")
    return tuple((i, k * c) for i, c in enumerate(v.coords) if c)


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
    for c, (plus, minus, name) in zip(v.coords, _signed_basis()):
        if c == 1:
            parts.append(plus)
        elif c == -1:
            parts.append(minus)
        elif c:
            parts.append(f"+{c}*{name}" if c > 0 else f"-{-c}*{name}")
    return "".join(parts).removeprefix("+") or "0"
