"""Sparse Gram kernels against the dense reference ``intmat.matvec``.

Pairings, divisibility, reflections and block squares read only the nonzero
Gram entries, and embeddings only the nonzero matrix entries; each must agree
exactly with the dense matrix formula.  The
lazy block walker of the enumeration is checked against a full box table.
"""

from functools import lru_cache
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nikulat import intmat
from nikulat.isometry import Isometry, reflection
from nikulat.lattice import (
    E8_NEG_GRAM,
    EmbeddingMap,
    Lattice,
    LatticeError,
    coords_divisibility,
    direct_sum,
    divisibility,
    pair,
    rescale,
    square,
    standard_lattice,
)
from nikulat.model import (
    _block_square,
    _block_walker,
    _ellipsoid,
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


def dense_reflection(lat, r):
    """Oracle: the dense matrix I + r (G r)^T of x |-> x + (x, r) r."""
    gr = intmat.matvec(lat.gram, r)
    return tuple(tuple(int(i == j) + r[i] * gr[j] for j in range(lat.rank)) for i in range(lat.rank))


def conserves_gram(lat, m):
    """Oracle: M^T G M == G, computed densely."""
    return intmat.matmul(intmat.matmul(intmat.transpose(m), lat.gram), m) == lat.gram


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


def content(row):
    return gcd(*(g for _, g in row))


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_rows_by_content_permute_sparse_rows_smallest_content_first(name):
    lat = LATTICES[name]
    rows = lat.rows_by_content
    assert sorted(rows) == sorted(lat.sparse_rows)
    contents = [content(row) for row in rows]
    assert contents == sorted(contents)


def test_divisibility_matches_dense_when_leading_rows_have_content_above_one():
    """U(2) + E8(-1): the two U(2) rows (content 2) come first in the Gram matrix and
    are read after the E8 rows; the early exit still gives the full gcd."""
    lat = direct_sum([rescale(standard_lattice("U"), 2), standard_lattice("E8_neg")])
    assert [content(row) for row in lat.sparse_rows[:2]] == [2, 2]
    assert [content(row) for row in lat.rows_by_content] == [1] * 8 + [2, 2]
    cases = [
        (1, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
        (2, (1, 3, 0, 0, 0, 0, 0, 0, 0, 0)),
        (2, (1, 0, 2, 0, 2, 0, 0, 0, 0, 2)),
        (0, (0,) * 10),
    ]
    for div, x in cases:
        assert coords_divisibility(lat, x) == gcd(*intmat.matvec(lat.gram, x)) == div


@st.composite
def embedding_with_zero_lines(draw):
    """A random integer matrix between two random lattices, with a zero row and a zero
    column forced in on some draws."""
    domain, codomain = draw(small_symmetric_lattice()), draw(small_symmetric_lattice())
    entries = st.sampled_from((0, 0, 0, 1, -1, 2, -3))
    rows = [[draw(entries) for _ in range(domain.rank)] for _ in range(codomain.rank)]
    zero_row = draw(st.none() | st.integers(0, codomain.rank - 1))
    zero_col = draw(st.none() | st.integers(0, domain.rank - 1))
    for i, row in enumerate(rows):
        for j in range(domain.rank):
            if i == zero_row or j == zero_col:
                row[j] = 0
    return EmbeddingMap(domain, codomain, rows)


@settings(max_examples=150, deadline=None)
@given(emb=embedding_with_zero_lines(), data=st.data())
def test_embedding_matches_dense_matvec(emb, data):
    x = data.draw(coords(emb.domain.rank))
    image = emb(emb.domain.vector(x))
    assert image == emb.codomain.vector(intmat.matvec(emb.matrix, x))
    other = Lattice("other", ((2,),) if emb.domain.gram != ((2,),) else ((4,),))
    with pytest.raises(LatticeError) as err:
        emb(other.vector((1,)))
    assert str(err.value) == f"vector lattice 'other' does not match domain {emb.domain.label!r}"


REFLECTIONS = [(name, reflection(root)) for name, root in default_generator_table()]


@pytest.mark.parametrize("name,iso", REFLECTIONS, ids=[name for name, _ in REFLECTIONS])
@settings(max_examples=40, deadline=None)
@given(x=coords(16))
def test_reflection_matches_dense_matrix(name, iso, x):
    matrix = dense_reflection(iso.lattice, iso.root)
    assert iso.apply_coords(x) == intmat.matvec(matrix, x)
    # 2x + (x, r) r pairs to zero with r, so the reflection must fix it
    c = dense_pair(MODEL.lambda_Y.gram, x, iso.root)
    fixed = tuple(2 * a + c * b for a, b in zip(x, iso.root))
    assert dense_pair(MODEL.lambda_Y.gram, fixed, iso.root) == 0
    assert iso.apply_coords(fixed) == fixed == intmat.matvec(matrix, fixed)


@settings(max_examples=300, deadline=None)
@given(lat=small_symmetric_lattice(), data=st.data())
def test_root_check_matches_dense_gram_conservation(lat, data):
    """Isometry accepts a nonzero root exactly when the dense reflection conserves the
    Gram form, and then acts as that matrix.  Root entries in -1..1 make about one
    draw in ten a root of square -2."""
    r = data.draw(st.lists(st.integers(-1, 1), min_size=lat.rank, max_size=lat.rank).map(tuple).filter(any))
    matrix = dense_reflection(lat, r)
    try:
        iso = Isometry(lat, r)
    except LatticeError:
        assert not conserves_gram(lat, matrix)
        return
    assert conserves_gram(lat, matrix)
    x = data.draw(coords(lat.rank))
    assert iso.apply_coords(x) == intmat.matvec(matrix, x)


def block_table(lattice, block, bound):
    """Oracle: all coordinate tuples of one block with |c| <= bound, lex order, with
    squares accumulated along the recursion from the block's dense Gram slice."""
    gram = [row[block] for row in lattice.gram[block]]
    size = len(gram)
    values = range(-bound, bound + 1)
    table = []
    coords = [0] * size

    def rec(i, q):
        if i == size:
            table.append((tuple(coords), q))
            return
        diag = gram[i][i]
        cross = sum(2 * gram[i][j] * coords[j] for j in range(i))
        for v in values:
            coords[i] = v
            rec(i + 1, q + v * (diag * v + cross))

    rec(0, 0)
    return table


def test_block_table_squares_match_dense_on_e8():
    lat = MODEL.lambda_Y
    table = block_table(lat, lat.block_slice("E8"), 1)
    assert [t for t, _ in table] == list(product((-1, 0, 1), repeat=8))
    for t, q in table:
        assert q == dense_pair(E8_NEG_GRAM, t, t)


@settings(max_examples=100, deadline=None)
@given(t=coords(8))
def test_e8_square_matches_dense(t):
    lat = MODEL.lambda_Y
    assert _block_square(lat, lat.block_slice("E8"), t) == dense_pair(E8_NEG_GRAM, t, t)


# --- the block walker of enumerate_with_square against the box oracle --------------


def ly_run(first, last):
    """The coordinates of LY's blocks from ``first`` to ``last``, as enumerate walks
    adjacent definite blocks together."""
    lat = MODEL.lambda_Y
    return slice(lat.block_slice(first).start, lat.block_slice(last).stop)


@lru_cache(maxsize=1)
def ly_run_table(first, last, bound):
    # one table at a time: E8 at bound 2 alone holds 390,625 entries
    return block_table(MODEL.lambda_Y, ly_run(first, last), bound)


def assert_walker_matches_oracle(lattice, block, bound, table, lo, hi):
    qmin, qmax, walk = _block_walker(lattice, block, bound)
    assert all(qmin <= q <= qmax for _, q in table)
    assert list(walk(lo, hi)) == [(t, q) for t, q in table if lo <= q <= hi]


@pytest.mark.parametrize("first,last,bound", [
    ("E8", "E8", 1), ("E8", "E8", 2), ("G1", "G1", 1), ("G1", "G1", 2), ("U1", "U1", 2),
    ("E8", "G2", 1), ("G1", "G2", 2),
])
@settings(max_examples=10, deadline=None)
@given(lo=st.integers(-24, 4), width=st.integers(-1, 30))
def test_walker_matches_box_oracle_on_ly_blocks(first, last, bound, lo, width):
    table = ly_run_table(first, last, bound)
    assert_walker_matches_oracle(MODEL.lambda_Y, ly_run(first, last), bound, table, lo, lo + width)


@st.composite
def negative_definite_gram(draw):
    """-(M^T M) - D with D a positive diagonal: negative definite for any integer M."""
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n))
    d = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    return tuple(
        tuple(-sum(row[i] * row[j] for row in m) - (d[i] if i == j else 0) for j in range(n))
        for i in range(n)
    )


@settings(max_examples=60, deadline=None)
@given(gram=negative_definite_gram(), bound=st.integers(1, 2), lo=st.integers(-200, 4), width=st.integers(-1, 80))
def test_walker_matches_box_oracle_on_random_definite_blocks(gram, bound, lo, width):
    lat = Lattice("definite", gram)
    block = lat.block_slice(lat.label)
    assert _ellipsoid(lat.gram) is not None
    assert_walker_matches_oracle(lat, block, bound, block_table(lat, block, bound), lo, lo + width)


@settings(max_examples=100, deadline=None)
@given(lat=small_symmetric_lattice())
def test_ellipsoid_exists_exactly_for_negative_definite_blocks(lat):
    """Sylvester's criterion on -G: every leading principal minor is positive."""
    minus = tuple(tuple(-g for g in row) for row in lat.gram)
    definite = all(intmat.det(tuple(row[:k] for row in minus[:k])) > 0 for k in range(1, lat.rank + 1))
    assert (_ellipsoid(lat.gram) is not None) == definite
