"""The vector-expression grammar."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikulat import ExpressionError, enumerate_primitive_isotropic, format_vector, parse_vector
from nikulat.exprs import _LONG, _table
from nikulat.model import EnumerationWindow, build_model

_, _NV = build_model()
_NAMES = _NV.by_name()


@pytest.fixture(scope="module")
def nv():
    _, vectors = build_model()
    return vectors


@pytest.mark.parametrize(
    "text, builder",
    [
        ("L(1)+e2", lambda nv: nv.L(1) + nv.e2),
        ("2*L(1)-deltaY", lambda nv: 2 * nv.L(1) - nv.deltaY),
        ("gamma1-gamma2", lambda nv: nv.gamma1 - nv.gamma2),
        ("w", lambda nv: nv.w),
        ("L(-2)", lambda nv: nv.L(-2)),
        ("-gamma1", lambda nv: -1 * nv.gamma1),
        ("  L( 3 ) + 4 * eps8 ", lambda nv: nv.L(3) + 4 * nv.eps[7]),
        ("u1+u2+eps4+eps6+gamma1", lambda nv: nv.w),
        ("SigmaY", lambda nv: nv.SigmaY),
        ("-2*e1+ew", lambda nv: -2 * nv.e1 + nv.ew),
        ("L(1)-L(1)", lambda nv: 0 * nv.L(0)),
        ("L ( - 2 )", lambda nv: nv.L(-2)),
        ("- e2", lambda nv: -1 * nv.e2),
        ("+e2", lambda nv: nv.e2),
        ("007*e2", lambda nv: 7 * nv.e2),
        ("0*e2", lambda nv: 0 * nv.e2),
    ],
)
def test_parse(nv, text, builder):
    assert parse_vector(text) == builder(nv)


#: each malformed input and its exact error: the syntax error, naming its position, comes before
#: any name error, and name errors come in term order
_ERRORS = {
    "": "empty expression",
    "   ": "empty expression",
    "L": "L requires an argument, e.g. L(1)",          # missing argument
    "L(1": "no term fits at position 1 of 'L(1'",      # missing close paren
    "L()": "no term fits at position 1 of 'L()'",
    "e2(3)": "'e2' does not take an argument",         # argument on a constant name
    "q7": "unknown vector name 'q7'",                  # unknown name
    "2L(1)": "no term fits at position 0 of '2L(1)'",  # missing '*'
    "L(1)++e2": "no term fits at position 4 of 'L(1)++e2'",
    "L(1)+": "no term fits at position 4 of 'L(1)+'",
    "e2 e2": "no term fits at position 2 of 'e2 e2'",
    "3*": "no term fits at position 0 of '3*'",
    "$": "no term fits at position 0 of '$'",
    "+-e2": "no term fits at position 0 of '+-e2'",
    "--e2": "no term fits at position 0 of '--e2'",
    "L(+1)": "no term fits at position 1 of 'L(+1)'",
    "L(1)(2)": "no term fits at position 4 of 'L(1)(2)'",
    "2 L(1)": "no term fits at position 0 of '2 L(1)'",
    "2*3*e2": "no term fits at position 0 of '2*3*e2'",
    "L(1)2": "no term fits at position 4 of 'L(1)2'",
    "e2 (3)": "'e2' does not take an argument",
    "*e2": "no term fits at position 0 of '*e2'",
    "L(1 2)": "no term fits at position 1 of 'L(1 2)'",
    "q7+L": "unknown vector name 'q7'",                # the first term's error comes first
    "L+q7": "L requires an argument, e.g. L(1)",
    "e2(3)+q7": "'e2' does not take an argument",
    "q7+2L(1)": "no term fits at position 2 of 'q7+2L(1)'",  # syntax before any name
}


@pytest.mark.parametrize("bad", list(_ERRORS))
def test_parse_errors(bad):
    with pytest.raises(ExpressionError) as exc:
        parse_vector(bad)
    assert str(exc.value) == _ERRORS[bad]


def test_term_table_holds_at_most_its_size():
    for n in range(3000):  # 6,000 distinct terms
        assert parse_vector(f"{n}*e2-L({n})") == n * _NAMES["e2"] - _NV.L(n)
    info = _table.cache_info()
    assert info.currsize == info.maxsize == 1024


@pytest.mark.parametrize("length, lookups", [(_LONG - 1, 2), (_LONG, 1)])
def test_a_term_of_the_digit_check_length_bypasses_the_term_table(length, lookups):
    # int() may check a digit string of _LONG (640) characters against the limit, never a shorter one
    term = "+" + "7" * (length - 4) + "*e2"
    assert len(term) == length
    expected = _NAMES["u1"] + int(term[1:-3]) * _NAMES["e2"]
    before = _table.cache_info()
    assert parse_vector("u1" + term) == expected
    after = _table.cache_info()
    assert (after.hits + after.misses) - (before.hits + before.misses) == lookups


def test_format_round_trip(nv):
    for v in [nv.w, 2 * nv.L(1) - nv.deltaY, nv.L(0), -3 * nv.e2 + nv.gamma2]:
        assert parse_vector(format_vector(v)) == v


def test_format_zero(nv):
    assert format_vector(0 * nv.L(0)) == "0"


def test_format_rejects_other_lattices():
    from nikulat import standard_lattice

    with pytest.raises(ExpressionError):
        format_vector(standard_lattice("U").basis_vector(0))


# The reference: each term's coefficient times its named vector, summed with
# the checked vector arithmetic of the lattice module.
_term = st.tuples(
    st.sampled_from("+-"),
    st.none() | st.integers(0, 10**6),
    # an int i stands for L(i); the second range makes L(0) and negative L(i) frequent
    st.sampled_from(sorted(_NAMES)) | st.integers(-(10**6), 10**6) | st.integers(-3, 0),
)
_terms = st.lists(_term, min_size=1, max_size=12)


def _render(terms, lead, space):
    parts = []
    for n, (sign, coeff, name) in enumerate(terms):
        text = f"L({name})" if isinstance(name, int) else name
        if coeff is not None:
            text = f"{coeff}{space}*{space}{text}"
        parts.append((lead if n == 0 else sign) + space + text)
    return space.join(parts)


def _fold(terms, lead):
    total = 0 * _NV.L(0)
    for n, (sign, coeff, name) in enumerate(terms):
        base = _NV.L(name) if isinstance(name, int) else _NAMES[name]
        k = (1 if coeff is None else coeff) * (-1 if (lead if n == 0 else sign) == "-" else 1)
        total = total + k * base
    return total


@given(terms=_terms, lead=st.sampled_from(["", "+", "-"]), space=st.sampled_from(["", " "]))
@settings(max_examples=200, deadline=None)
def test_parse_matches_term_fold(terms, lead, space):
    assert parse_vector(_render(terms, lead, space)) == _fold(terms, lead)


@given(terms=_terms, lead=st.sampled_from(["", "+", "-"]))
@settings(max_examples=100, deadline=None)
def test_parse_cancelling_sum_is_zero(terms, lead):
    flip = {"+": "-", "-": "+", "": "-"}
    negated = [(flip[lead if n == 0 else sign], coeff, name) for n, (sign, coeff, name) in enumerate(terms)]
    text = _render(terms, lead, "") + _render(negated, negated[0][0], "")
    v = parse_vector(text)
    assert v == _fold(terms + negated, lead) and v.is_zero()


def test_format_round_trip_on_census_window():
    vectors = list(enumerate_primitive_isotropic(EnumerationWindow(("U1", "E8"), 2)))
    assert len(vectors) == 53172
    for v in vectors[::10]:
        assert parse_vector(format_vector(v)) == v


# The differential oracle: the earlier tokenizer and token parser, kept as
# they were, which the one-term-pattern parser must agree with on every
# string, accepted or rejected.
_REF_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<punct>[+\-*()]))")


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        pos = m.end()
        tokens.append((m.lastgroup, m[m.lastgroup]))
    return tokens


def reference_parse(text):
    total = [0] * 16
    tokens = _ref_tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")

    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos >= len(tokens):
            raise ExpressionError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        return tok

    def add_term(sign):
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
        if peek() == ("punct", "("):
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
            base = _NV.L(arg)
        else:
            if arg is not None:
                raise ExpressionError(f"{name!r} does not take an argument")
            if name not in _NAMES:
                raise ExpressionError(f"unknown vector name {name!r}")
            base = _NAMES[name]
        for i, c in enumerate(base.coords):
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
    return _NV.u[0].lattice.vector(total)


_ALPHABET = st.sampled_from(
    ["L", "e2", "w", "deltaY", "gamma1", "eps8", "u3", "q7", "Lx", "e2e2",
     "0", "1", "2", "007", "12", "+", "-", "*", "(", ")", " ", "\t", "$", "\x1c", "\u2003", "\u0663"]
)


@st.composite
def _near_valid(draw):
    """A short well-formed expression with one character inserted somewhere."""
    terms = draw(st.lists(_term, min_size=1, max_size=3))
    text = _render(terms, draw(st.sampled_from(["", "+", "-"])), draw(st.sampled_from(["", " "])))
    k = draw(st.integers(0, len(text)))
    return text[:k] + draw(st.sampled_from("+-*()2 \t$")) + text[k:]


def _outcome(parse, text):
    try:
        return parse(text)
    except ExpressionError:
        return ExpressionError


@given(text=st.lists(_ALPHABET, max_size=12).map("".join) | _near_valid())
@settings(max_examples=500, deadline=None)
def test_parse_agrees_with_reference_parser(text):
    assert _outcome(parse_vector, text) == _outcome(reference_parse, text)


@pytest.mark.parametrize(
    "text",
    ["L(0)", "L(-3)", "-L(-3)", "2*L(0)+L(-3)", "e2+e2+e2", "u1-u1", "gamma1+gamma2-deltaY",
     "L(2)-L(2)", "w-w+w", "0*u1", "0*L(5)+u2", "u1+0*u1"],
)
def test_parse_supports_agree_with_reference_parser(text):
    assert parse_vector(text) == reference_parse(text)
