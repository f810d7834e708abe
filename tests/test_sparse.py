"""Sparse Gram kernels against the dense reference ``intmat.matvec``.

Pairings, divisibility, reflections and block squares read only the nonzero
Gram entries; each must agree exactly with the dense matrix formula.
"""

from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nikulat import intmat
from nikulat.isometry import reflection
from nikulat.lattice import E8_NEG_GRAM, Lattice, coords_divisibility, divisibility, pair, square
from nikulat.model import (
    _block_table,
    _e8_square,
    build_model,
    default_generator_table,
)

MODEL, NV = build_model()
LATTICES = {
    "LX": MODEL.lambda_X,
    "Lfix": MODEL.lambda_fix,
    "LY": MODEL.lambda_Y,
}
COORD = st.integers(min_value=-6, max_value=6)


def dense_pair(gram, x, y):
    return sum(a * b for a, b in zip(x, intmat.matvec(gram, y)))


def coords(rank):
    return st.lists(COORD, min_size=rank, max_size=rank).map(tuple)


@st.composite
def small_symmetric_lattice(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entries)
    assume(intmat.det(rows) != 0)
    return Lattice("random", rows)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_sparse_rows_hold_exactly_the_nonzero_gram_entries(name):
    lat = LATTICES[name]
    rebuilt = [[0] * lat.rank for _ in range(lat.rank)]
    for i, row in enumerate(lat.sparse_rows):
        for j, g in row:
            assert g != 0
            rebuilt[i][j] = g
    assert tuple(map(tuple, rebuilt)) == lat.gram


def check_against_dense(lat, data):
    x = data.draw(coords(lat.rank))
    y = data.draw(coords(lat.rank))
    v, w = lat.vector(x), lat.vector(y)
    assert pair(v, w) == dense_pair(lat.gram, x, y)
    assert square(v) == dense_pair(lat.gram, x, x)
    assert coords_divisibility(lat, x) == gcd(*intmat.matvec(lat.gram, x))
    if any(x):
        assert divisibility(v) == gcd(*intmat.matvec(lat.gram, x))


@pytest.mark.parametrize("name", sorted(LATTICES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pair_and_divisibility_match_dense(name, data):
    check_against_dense(LATTICES[name], data)


@settings(max_examples=150, deadline=None)
@given(lat=small_symmetric_lattice(), data=st.data())
def test_pair_and_divisibility_match_dense_on_random_lattice(lat, data):
    check_against_dense(lat, data)


REFLECTIONS = [(name, reflection(root)) for name, root in default_generator_table()]


@pytest.mark.parametrize("name,iso", REFLECTIONS, ids=[name for name, _ in REFLECTIONS])
@settings(max_examples=40, deadline=None)
@given(x=coords(16))
def test_reflection_matches_dense_matrix(name, iso, x):
    assert iso.apply_coords(x) == intmat.matvec(iso.matrix, x)
    # 2x + (x, r) r pairs to zero with r, so the reflection must fix it
    c = dense_pair(MODEL.lambda_Y.gram, x, iso.root)
    fixed = tuple(2 * a + c * b for a, b in zip(x, iso.root))
    assert dense_pair(MODEL.lambda_Y.gram, fixed, iso.root) == 0
    assert iso.apply_coords(fixed) == fixed == intmat.matvec(iso.matrix, fixed)


def test_block_table_squares_match_dense_on_e8():
    lat = MODEL.lambda_Y
    table = _block_table(lat, lat.block_slice("E8"), 1)
    assert [t for t, _ in table] == list(product((-1, 0, 1), repeat=8))
    for t, q in table:
        assert q == dense_pair(E8_NEG_GRAM, t, t)


@settings(max_examples=100, deadline=None)
@given(t=coords(8))
def test_e8_square_matches_dense(t):
    assert _e8_square(t) == dense_pair(E8_NEG_GRAM, t, t)
