"""Smith normal form and exact matrix arithmetic."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense import matmul, smith_certified, sympy_invariant_factors
from nikulat import intmat
from nikulat.lattice import E8_NEG_GRAM


def sympy_det(m):
    import sympy

    return int(sympy.Matrix([list(r) for r in m]).det())


def random_matrix(rng, max_size=6, lo=-9, hi=9):
    nrows = rng.randint(1, max_size)
    ncols = rng.randint(1, max_size)
    return intmat.freeze([[rng.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)])


def test_snf_hyperbolic_rescaled():
    # hand elimination: [[0,2],[2,0]] -> swap rows -> [[2,0],[0,2]]
    assert intmat.smith_decomposition(((0, 2), (2, 0))).diag == ((2, 0), (0, 2))


def test_snf_identity():
    assert intmat.smith_decomposition(intmat.identity(5)).diag == intmat.identity(5)


def test_snf_e8_cartan_is_unimodular():
    cartan = tuple(tuple(-x for x in row) for row in E8_NEG_GRAM)
    assert intmat.smith_decomposition(cartan).diag == intmat.identity(8)
    assert sympy_det(cartan) == 1  # independent determinant oracle


def test_snf_round_trip_and_unimodularity():
    rng = random.Random(20240811)
    for _ in range(200):
        m = random_matrix(rng)
        dec = intmat.smith_decomposition(m)
        assert smith_certified(m, dec)
        diag = dec.diagonal()
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        for i, row in enumerate(dec.diag):
            for j, x in enumerate(row):
                assert x == 0 or i == j


def test_snf_matches_sympy_invariant_factors():
    rng = random.Random(7)
    for _ in range(60):
        m = random_matrix(rng, max_size=5, lo=-7, hi=7)
        mine = [d for d in intmat.smith_decomposition(m).diagonal() if d != 0]
        assert mine == sympy_invariant_factors(m)


def test_det_matches_sympy():
    rng = random.Random(99)
    for _ in range(80):
        n = rng.randint(1, 7)
        m = intmat.freeze([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
        assert intmat.det(m) == sympy_det(m)


def test_det_big_integers_are_exact():
    m = intmat.freeze([[10**20, 1], [1, 10**20]])
    assert intmat.det(m) == 10**40 - 1


@given(
    st.lists(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=150, deadline=None)
def test_snf_round_trip_property(rows):
    m = intmat.freeze(rows)
    assert smith_certified(m, intmat.smith_decomposition(m))


def test_invert_unimodular():
    """A unimodular m has Smith form I, and the certificate gives unimodular L and R with
    L @ m @ R == I, so m is invertible over Z (its inverse is R @ L)."""
    m = ((1, 2, 0), (0, 1, 5), (0, 0, 1))
    dec = intmat.smith_decomposition(m)
    assert dec.diag == intmat.identity(3)
    assert smith_certified(m, dec)


def test_invert_rejects_non_unimodular():
    """The Smith form tells a non-unimodular matrix from a unimodular one."""
    assert intmat.smith_decomposition(((2, 0), (0, 1))).diagonal() == (1, 2)
    assert intmat.smith_decomposition(((1, 2, 3),)).diag == ((1, 0, 0),)


def test_freeze_rejects_ragged():
    with pytest.raises(ValueError):
        intmat.freeze([[1, 2], [3]])


def test_matmul_shape_check():
    with pytest.raises(ValueError):
        matmul(((1, 2),), ((1, 2),))


@pytest.mark.parametrize("bad", [1.9, 2.0, True, "1"])
def test_freeze_rejects_non_int_entries(bad):
    with pytest.raises(ValueError, match="not an integer"):
        intmat.freeze([[1, bad], [3, 4]])
