"""The vector-expression grammar."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikulat import ExpressionError, enumerate_primitive_isotropic, format_vector, parse_vector
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
    ],
)
def test_parse(nv, text, builder):
    assert parse_vector(text) == builder(nv)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "L",          # missing argument
        "L(1",        # missing close paren
        "L()",
        "e2(3)",      # argument on a constant name
        "q7",         # unknown name
        "2L(1)",      # missing '*'
        "L(1)++e2",
        "L(1)+",
        "e2 e2",
        "3*",
        "$",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ExpressionError):
        parse_vector(bad)


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
_terms = st.lists(
    st.tuples(
        st.sampled_from("+-"),
        st.none() | st.integers(0, 10**6),
        st.sampled_from(sorted(_NAMES)) | st.integers(-(10**6), 10**6),  # an int i stands for L(i)
    ),
    min_size=1,
    max_size=12,
)


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
