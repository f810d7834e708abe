"""Sparse Gram kernels against the dense reference ``intmat.matvec``.

Pairings, divisibility, reflections, block squares and the embedding check read
only the nonzero Gram entries, through the lattice's compiled square, divisibility
and G.x, and embeddings only the nonzero matrix entries; each must agree exactly
with the dense matrix formula (``dense``), and the compiled enumerator with a full
box table.
"""

import io
import re
import sys
import tokenize
from functools import lru_cache, partial
from itertools import combinations, islice, product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense
from nikulat import intmat, model
from nikulat.isometry import Isometry, reflection
from nikulat.lattice import (
    E8_NEG_GRAM,
    EmbeddingMap,
    Lattice,
    LatticeError,
    _invariant_source,
    check_embedding,
    direct_sum,
    divisibility,
    pair,
    rescale,
    square,
    standard_lattice,
)
from nikulat.model import (
    _ellipsoid,
    build_model,
    default_generator_table,
    enumerate_with_square,
)

MODEL, NV = build_model()
LATTICES = {
    "LX": MODEL.lambda_X,
    "Lfix": MODEL.lambda_fix,
    "LY": MODEL.lambda_Y,
}
COORD = st.integers(min_value=-6, max_value=6)
BIG = 10**5000


def dense_pair(gram, x, y):
    return sum(a * b for a, b in zip(x, intmat.matvec(gram, y)))


def dense_reflection(lat, r):
    """Oracle: the dense matrix I + r (G r)^T of x |-> x + (x, r) r."""
    gr = intmat.matvec(lat.gram, r)
    return tuple(tuple(int(i == j) + r[i] * gr[j] for j in range(lat.rank)) for i in range(lat.rank))


def conserves_gram(lat, m):
    """Oracle: M^T G M == G, computed densely."""
    return dense.pulls_back(lat.gram, m, lat.gram)


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
    assert lat.invariant_kernels[1](x) == gcd(*intmat.matvec(lat.gram, x))
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


def divisibility_links(lat):
    """The ``gcd`` arguments of each link of the compiled ``divisibility`` chain, off its source, in order."""
    body = _invariant_source(lat).partition("def divisibility(x):")[2].partition("def gram_product(x):")[0]
    return re.findall(r"gcd\((?:d, )?(.*)\)$", body, re.M)


def rows_by_content(lat):
    """The sparse rows in the order that the compiled ``divisibility`` reads them, off its links:
    a ``c*gcd(xj, ...)`` or bare ``xj, ...`` group stands for the rows j, any other link for its row."""
    rows = []
    for link in divisibility_links(lat):
        group = re.fullmatch(r"(?:(0x[0-9a-f]+)\*gcd\()?((?:x\d+, )*x\d+)\)?", link)
        if group:
            rows.append([lat.sparse_rows[int(j)] for j in re.findall(r"x(\d+)", group[2])])
        else:
            terms = re.findall(r"([+-]?)\s*(?:(0x[0-9a-f]+)\*)?x(\d+)", link)
            rows.append([tuple((int(j), int(f"{sign}{coef or 1}", 0)) for sign, coef, j in terms)])
    return rows


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_rows_by_content_permute_sparse_rows_smallest_content_first(name):
    """Each link reads rows of one content, the links together read every sparse row once,
    and their contents never fall."""
    links = rows_by_content(LATTICES[name])
    assert sorted(row for link in links for row in link) == sorted(LATTICES[name].sparse_rows)
    contents = [{content(row) for row in link} for link in links]
    assert all(len(c) == 1 for c in contents)
    assert [min(c) for c in contents] == sorted(min(c) for c in contents)
    assert sorted(row for link in rows_by_content(mixed_sum()) for row in link) == sorted(mixed_sum().sparse_rows)


def xs(*indices):
    return ", ".join(f"x{i}" for group in indices for i in group)


A2_2 = Lattice("A2(2)", ((4, 2), (2, 4)))  # content 2, det 12: not 2 times a unimodular form


def mixed_sum():
    """A2(2) + <-2> + U(3): one component that keeps its rows and two scaled-unimodular ones."""
    return direct_sum([A2_2, standard_lattice("rank1", -2), rescale(standard_lattice("U"), 3)])


def test_divisibility_reads_one_gcd_per_content_of_the_unimodular_components():
    """LY: its E8(-1) coordinates as one content-1 group, then its U(2) and <-2> coordinates as
    one content-2 group; LX and Lfix alike; A2(2) keeps its rows, read before the content-2 group."""
    assert divisibility_links(LATTICES["LY"]) == [xs(range(6, 14)), f"0x2*gcd({xs(range(6), (14, 15))})"]
    assert divisibility_links(LATTICES["LX"]) == [xs(range(22)), "0x2*gcd(x22)"]
    assert divisibility_links(LATTICES["Lfix"]) == [xs(range(6)), f"0x2*gcd({xs(range(6, 15))})"]
    assert divisibility_links(mixed_sum()) == ["0x4*x0 + 0x2*x1", "0x2*x0 + 0x4*x1", "0x2*gcd(x2)", "0x3*gcd(x3, x4)"]
    assert [mixed_sum().invariant_kernels[1](x) for x in ((1, 1, 0, 0, 0), (1, 0, 0, 0, 0))] == [6, 2]


@pytest.mark.parametrize("c,x", [(-2, 5), (3, -7), (1, -4), (-1, 0)])
def test_a_lone_group_still_goes_through_gcd(c, x):
    """A rank-1 lattice <c> is one group: its divisibility is |c*x|, never negative."""
    lat = standard_lattice("rank1", c)
    assert divisibility_links(lat) == ["x0" if abs(c) == 1 else f"{abs(c):#x}*gcd(x0)"]
    assert lat.invariant_kernels[1]((x,)) == abs(c * x)


SUMMANDS = {
    "A2(2)": A2_2,
    "[[2,1],[1,1]]": Lattice("P", ((2, 1), (1, 1))),  # unimodular, off-diagonal: one component, not a block
    "<-2>": standard_lattice("rank1", -2),
    "<6>": standard_lattice("rank1", 6),
    "U(3)": rescale(standard_lattice("U"), 3),
    "E8(-1)(2)": rescale(standard_lattice("E8_neg"), 2),
    "[[2,3],[3,0]]": Lattice("Q", ((2, 3), (3, 0))),  # content 1, det -9
}


@st.composite
def mixed_sum_and_vector(draw):
    """A direct sum of two to four of ``SUMMANDS``, and a vector of it with many zeros (so that
    one summand can decide the gcd), small entries and entries past 10^5000."""
    names = draw(st.lists(st.sampled_from(sorted(SUMMANDS)), min_size=2, max_size=4))
    lat = direct_sum([SUMMANDS[name] for name in names])
    entry = (st.sampled_from((0, 0, 0, 1, -1, 3)) | st.integers(-6, 6)
             | st.builds(lambda a, b: a * BIG + b, st.integers(-3, 3), st.integers(-6, 6)))
    return lat, tuple(draw(st.lists(entry, min_size=lat.rank, max_size=lat.rank)))


@settings(max_examples=120, deadline=None)
@given(case=mixed_sum_and_vector())
def test_divisibility_matches_dense_on_mixed_direct_sums(case):
    lat, x = case
    assert lat.invariant_kernels[1](x) == gcd(*intmat.matvec(lat.gram, x))
    assert lat.invariant_kernels[1]((0,) * lat.rank) == 0


def test_divisibility_matches_dense_when_leading_rows_have_content_above_one():
    """U(2) + E8(-1): the two U(2) rows (content 2) come first in the Gram matrix and
    are read as one group after the E8 group; the early exit still gives the full gcd."""
    lat = direct_sum([rescale(standard_lattice("U"), 2), standard_lattice("E8_neg")])
    assert [content(row) for row in lat.sparse_rows[:2]] == [2, 2]
    assert divisibility_links(lat) == [xs(range(2, 10)), f"0x2*gcd({xs(range(2))})"]
    cases = [
        (1, (1, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
        (2, (1, 3, 0, 0, 0, 0, 0, 0, 0, 0)),
        (2, (1, 0, 2, 0, 2, 0, 0, 0, 0, 2)),
        (0, (0,) * 10),
    ]
    for div, x in cases:
        assert lat.invariant_kernels[1](x) == gcd(*intmat.matvec(lat.gram, x)) == div


# --- the compiled square and divisibility ------------------------------------------


def big_entry():
    """A new lattice, so not compiled yet, with a 5,001-digit Gram entry; det = -BIG."""
    return Lattice("big", ((BIG, 1, 0), (1, -2, 1), (0, 1, 0)))


def at_default_digit_limit(check):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        check()
    finally:
        sys.set_int_max_str_digits(limit)


def assert_invariants_match_dense(lat, x):
    """G.x, square and both divisibilities against the dense oracle; the zero vector too."""
    gx = intmat.matvec(lat.gram, x)
    assert lat.invariant_kernels[2](x) == gx
    assert square(lat.vector(x)) == dense_pair(lat.gram, x, x)
    assert lat.invariant_kernels[1](x) == gcd(*gx)
    if any(x):
        assert divisibility(lat.vector(x)) == gcd(*gx)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_invariants_of_basis_vectors_and_their_sums_match_the_gram_columns(name):
    """Every Gram entry enters: e_i + e_j has square G_ii + 2 G_ij + G_jj, and its G.x is
    the sum of two columns, whose gcd a term dropped from any row can change."""
    lat = LATTICES[name]
    for i in range(lat.rank):
        for j in range(i, lat.rank):
            x = tuple((k == i) + (k == j) for k in range(lat.rank))
            assert_invariants_match_dense(lat, x)


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_invariants_take_a_coordinate_past_the_decimal_conversion_limit(name):
    lat = LATTICES[name]
    vectors = [tuple(BIG if i == k else 0 for i in range(lat.rank)) for k in (0, 6, lat.rank - 1)]
    vectors += [tuple((-BIG if i % 3 else BIG + i) for i in range(lat.rank)),
                tuple(-BIG if i == 7 else i % 3 - 1 for i in range(lat.rank))]
    at_default_digit_limit(lambda: [assert_invariants_match_dense(lat, x) for x in vectors])


def test_invariants_compile_a_gram_entry_past_the_decimal_conversion_limit():
    vectors = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (2, -3, 5), (0, 2, 0), (BIG, -BIG, 1), (-BIG, 0, 0)]

    def check():
        lat = big_entry()
        for x in vectors:
            assert_invariants_match_dense(lat, x)
        assert square(lat.vector((1, 0, 0))) == BIG
        assert lat.invariant_kernels[1]((0, 2, 0)) == 2

    at_default_digit_limit(check)


@pytest.mark.parametrize("lat", [*LATTICES.values(), big_entry()], ids=[*LATTICES, "big"])
def test_zero_vector_has_divisibility_zero_and_square_zero(lat):
    zero = (0,) * lat.rank
    assert lat.invariant_kernels[1](zero) == 0
    assert square(lat.vector(zero)) == 0
    with pytest.raises(LatticeError, match="divisibility of the zero vector is undefined"):
        divisibility(lat.vector(zero))


@pytest.mark.parametrize("lat", [*LATTICES.values(), big_entry()], ids=[*LATTICES, "big"])
def test_invariant_source_writes_every_integer_in_hex(lat):
    source = _invariant_source(lat)
    numbers = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
               if t.type == tokenize.NUMBER]
    assert numbers and all(n.startswith("0x") for n in numbers)


def test_each_lattice_compiles_its_invariants_once(compiled_sources):
    fresh = [direct_sum([rescale(standard_lattice("U"), 2), standard_lattice("E8_neg")]),
             direct_sum([standard_lattice("U"), standard_lattice("rank1", -2)])]
    for lat in fresh:
        for k in range(50):
            x = tuple((k * i) % 7 - 3 for i in range(lat.rank))
            assert_invariants_match_dense(lat, x)
    assert compiled_sources == [_invariant_source(lat) for lat in fresh]


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


@st.composite
def inclusion_with_one_change(draw):
    """The inclusion of a random lattice into its sum with another, an isometric embedding,
    with one matrix entry moved by 1 on most draws."""
    domain, extra = draw(small_symmetric_lattice()), draw(small_symmetric_lattice())
    codomain = direct_sum([domain, extra])
    rows = [[int(i == j) for j in range(domain.rank)] for i in range(codomain.rank)]
    rows[draw(st.integers(0, codomain.rank - 1))][draw(st.integers(0, domain.rank - 1))] += draw(
        st.sampled_from((0, 1, -1)))
    return EmbeddingMap(domain, codomain, rows)


@settings(max_examples=200, deadline=None)
@given(emb=st.one_of(embedding_with_zero_lines(), inclusion_with_one_change()))
def test_isometric_matches_dense_pull_back(emb):
    """``check_embedding`` pairs the columns through the codomain's compiled G.x; the dense
    M^T G M is the oracle.  Dependent columns make the saturation raise, and such a map
    never pulls back the nondegenerate domain form."""
    isometric = dense.pulls_back(emb.codomain.gram, emb.matrix, emb.domain.gram)
    try:
        report = check_embedding(emb)
    except LatticeError as err:
        assert str(err) == "generators are linearly dependent over Q" and not isometric
        return
    assert report.isometric == isometric


@settings(max_examples=100, deadline=None)
@given(emb=st.one_of(embedding_with_zero_lines(), inclusion_with_one_change()))
def test_gram_pair_failures_count_the_dense_upper_triangle(emb):
    """``gram_pair_failures`` counts the pairs i <= j at which the dense M^T G M differs from
    the domain form, and the map is isometric exactly when there is none."""
    pulled = dense.matmul(dense.matmul(dense.transpose(emb.matrix), emb.codomain.gram), emb.matrix)
    n = emb.domain.rank
    expected = sum(pulled[i][j] != emb.domain.gram[i][j] for i in range(n) for j in range(i, n))
    try:
        report = check_embedding(emb)
    except LatticeError:  # dependent columns: checked by the test above
        return
    assert report.gram_pair_failures == expected and report.isometric == (expected == 0)


def test_each_embedding_compiles_its_image_once_with_a_huge_entry(compiled_sources):
    """A 5,001-digit entry and a zero row: the image source writes its integers in hex, so it
    compiles under the default digit limit, and 30 images compile it once."""
    domain, codomain = standard_lattice("U"), Lattice("three", ((-2, 0, 0), (0, 2, 1), (0, 1, 2)))
    emb = EmbeddingMap(domain, codomain, ((BIG, -1), (0, 0), (3, BIG + 1)))

    def check():
        for k in range(30):
            x = (k - 15, BIG if k % 2 else 2 - k)
            assert emb(domain.vector(x)) == codomain.vector(intmat.matvec(emb.matrix, x))

    at_default_digit_limit(check)
    assert len(compiled_sources) == 1 and "0x0," in compiled_sources[0]


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
    """E8 is a direct summand of LY: the square of t, zero-padded to LY, is its E8 square,
    as the enumerator reads a plane's box squares."""
    lat = MODEL.lambda_Y
    padded = [0] * lat.rank
    padded[lat.block_slice("E8")] = t
    assert square(lat.vector(padded)) == dense_pair(E8_NEG_GRAM, t, t)


# --- enumerate_with_square against the box oracle ---------------------------------

LY_BLOCKS = ("U1", "U2", "U3", "E8", "G1", "G2")


@lru_cache(maxsize=4)
def by_square(table, name):
    """The entries of ``table(name)`` grouped by square, each group in table order."""
    index = {}
    for entry in table(name):
        index.setdefault(entry[1], []).append(entry)
    return index


def box_oracle(lattice, names, table, targets):
    """Oracle: the box of the blocks ``names`` as the product of their ``table(name)`` in
    coordinate order, so in lexicographic order, filtered by square and gcd == 1: for each
    of the ``targets``, the primitive vectors of that square.  The blocks are direct
    summands, so a square is the sum of the block squares; for each product of the other
    blocks' entries, the last block's entries of each target's remaining square are read
    from :func:`by_square`, in table order."""
    *heads, last = sorted(names, key=lambda name: lattice.block_slice(name).start)
    slices = [lattice.block_slice(name) for name in (*heads, last)]
    found, tails = {target: [] for target in targets}, by_square(table, last)
    for parts in product(*map(table, heads)):
        head = sum(q for _, q in parts)
        for target, vectors in found.items():
            for tail in tails.get(target - head, ()):
                full = [0] * lattice.rank
                for block, (t, _) in zip(slices, (*parts, tail)):
                    full[block] = t
                if gcd(*full) == 1:
                    vectors.append(tuple(full))
    return found


def draw_targets(data, names, table):
    """Up to four squares, each one the box reaches or any integer near the squares of small vectors."""
    sums = {0}
    for name in names:
        sums = {a + q for a in sums for q in by_square(table, name)}
    return data.draw(st.lists(st.sampled_from(sorted(sums)) | st.integers(-30, 16), min_size=1, max_size=4))


def assert_enumerate_matches_oracle(lattice, names, bound, table, targets):
    for target, vectors in box_oracle(lattice, names, table, targets).items():
        assert [v.coords for v in enumerate_with_square(lattice, tuple(names), bound, target)] == vectors


@lru_cache(maxsize=2)
def ly_table(name, bound):
    # E8 at bound 2 alone holds 390,625 entries
    return block_table(MODEL.lambda_Y, MODEL.lambda_Y.block_slice(name), bound)


#: one table function per bound, so that :func:`by_square` indexes a block once for every example
LY_TABLES = {bound: partial(ly_table, bound=bound) for bound in (1, 2)}


@pytest.mark.parametrize("window,bound", [
    ("E8-E8", 1), ("E8-E8", 2), ("G1-G1", 1), ("G1-G1", 2), ("U1-U1", 2), ("E8-G2", 1), ("G1-G2", 2),
    ("U1,E8", 1), ("U1,G2", 2), ("U2,G1,G2", 2), ("U1,U3,G2", 1), ("U3,E8", 1),
])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_walker_matches_box_oracle_on_ly_blocks(window, bound, data):
    """``first-last`` names the blocks of LY from first to last, adjacent definite ones
    walked as one run; ``a,b,...`` names a window of non-adjacent blocks."""
    if "-" in window:
        first, last = window.split("-")
        names = LY_BLOCKS[LY_BLOCKS.index(first):LY_BLOCKS.index(last) + 1]
    else:
        names = tuple(window.split(","))
    table = LY_TABLES[bound]
    assert_enumerate_matches_oracle(MODEL.lambda_Y, names, bound, table, draw_targets(data, names, table))


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


@st.composite
def mixed_lattice(draw):
    """A direct sum of U and U(2) planes and random negative-definite blocks, one of them
    forced definite, with a bound of 1 or 2 and a window of its blocks that holds that
    definite block and whose box holds at most 3^9 entries."""
    kinds = draw(st.lists(st.sampled_from((1, 2, "definite")), min_size=1, max_size=4))
    forced = draw(st.integers(0, len(kinds) - 1))
    kinds[forced] = "definite"
    parts = []
    for k, kind in enumerate(kinds):
        gram = draw(negative_definite_gram()) if kind == "definite" else ((0, kind), (kind, 0))
        assert (_ellipsoid(gram) is not None) == (kind == "definite")
        parts.append(Lattice(f"B{k}", gram, ((f"B{k}", 0, len(gram)),)))
    bound = draw(st.integers(1, 2))
    names, size = [f"B{forced}"], parts[forced].rank
    others = [p for k, p in enumerate(parts) if k != forced]
    for part in draw(st.permutations(others))[:draw(st.integers(0, 2))]:
        if (2 * bound + 1) ** (size + part.rank) <= 3**9:
            names.append(part.label)
            size += part.rank
    return direct_sum(parts, label="mixed"), draw(st.permutations(names)), bound


@settings(max_examples=200, deadline=None)
@given(case=mixed_lattice(), data=st.data())
def test_walker_matches_box_oracle_on_random_definite_blocks(case, data):
    """Random planes and definite blocks of up to 4x4, adjacent definite ones walked as one run."""
    lattice, names, bound = case
    table = lru_cache(maxsize=None)(lambda name: block_table(lattice, lattice.block_slice(name), bound))
    assert_enumerate_matches_oracle(lattice, names, bound, table, draw_targets(data, names, table))


def chained_lattice():
    """<-2>^5 + E8(-1) + E8(-1): one definite run of 21 coordinates, one loop more than a
    compiled function may nest, so the solved last coordinate (den 2, c = -x17) is chained."""
    diagonal = tuple(tuple(-2 * (i == j) for j in range(5)) for i in range(5))
    return direct_sum([Lattice("G", diagonal), Lattice("E8a", E8_NEG_GRAM), Lattice("E8b", E8_NEG_GRAM)])


@pytest.mark.parametrize("lattice,names,bound,targets", [
    # G2 = <-2> is solved with e = 2: from U1 (square 4xy), -6 leaves 6 + 4xy, which e divides
    # and which is e times a square only at xy = -1; -8 puts x15 at +-bound at xy = 0; -18 gives
    # x15 = +-3 at xy = 0, past the bound, besides x15 = +-1 at xy = -4
    pytest.param(MODEL.lambda_Y, ("U1", "G2"), 2, (-6, -8, -18, 0, -2), id="one-coordinate-run-to-bound"),
    pytest.param(MODEL.lambda_Y, ("G1",), 3, (-6, -2, -8), id="a-multiple-of-e-not-a-square"),
    # the last E8 coordinate has den 2 and c = -x10, so x = (x10 - r) / 2 or (x10 + r) / 2
    pytest.param(MODEL.lambda_Y, ("U1", "E8"), 1, (0, -2, -4, -6), id="den-2-with-c"),
    # 4 * (-q) = 7 x0^2 + (4 x1 - x0)^2: at -q = 2 and x0 = 1, r = 1 gives 4 x1 = 0 or 2, only 0 divisible
    pytest.param(Lattice("B", ((-2, 1), (1, -4))), ("B",), 2, (-2, -4, -8, -14), id="den-4-dividing-one"),
    pytest.param(MODEL.lambda_Y, ("U1", "U2"), 2, (0, 4, -8, 12), id="planes-only"),
    pytest.param(chained_lattice(), ("G", "E8a", "E8b"), 1, (-2, -3), id="chained-past-20-loops"),
])
def test_solved_coordinate_matches_box_oracle(lattice, names, bound, targets):
    """Deterministic windows for the solved last coordinate.  A block table keeps only the
    squares that the other blocks can still raise to the least target: the box is then small
    enough for 21 coordinates, and loses no vector of a target."""
    full = {name: block_table(lattice, lattice.block_slice(name), bound) for name in names}
    most = {name: max(q for _, q in entries) for name, entries in full.items()}

    def table(name):
        floor = min(targets) - (sum(most.values()) - most[name])
        return [(t, q) for t, q in full[name] if q >= floor]

    found = box_oracle(lattice, names, table, targets)
    assert any(found.values())
    assert_enumerate_matches_oracle(lattice, names, bound, table, targets)


# --- the shells of a last definite run, walked once and replayed ---------------------

#: the memo's room: as shipped; 0, so that only empty shells are kept; 8, one E8 vector
ROOMS = pytest.mark.parametrize("room", [None, 0, 8], ids=["room-as-is", "room-0", "room-8"])


def with_room(monkeypatch, room):
    if room is not None:
        monkeypatch.setattr(model, "_MEMO_COORDS", room)


@ROOMS
@pytest.mark.parametrize("names,bound,targets", [
    # U1 = U(2) has squares 4xy: at target 0 its 25 entries at bound 2 leave E8 a square it can
    # reach 17 times, only 4 of them distinct
    (("U1", "E8"), 2, (0, -4)),
    (("U1", "U2", "G1", "G2"), 2, (0, -2, -8)),
    (("U1", "E8", "G1", "G2"), 1, (0, -4)),
], ids=["U1,E8-2", "U1,U2,G1,G2-2", "U1,E8,G1,G2-1"])
def test_replayed_shells_match_box_oracle(monkeypatch, room, names, bound, targets):
    """The square the earlier runs leave to the last run recurs, so most shells are replayed:
    the vectors are the oracle's, in its order, whether shells are kept, or are walked again
    because a shell outgrows the room or its recording was abandoned."""
    with_room(monkeypatch, room)
    assert_enumerate_matches_oracle(MODEL.lambda_Y, names, bound, LY_TABLES[bound], targets)


def diagonal_window(*parts):
    """A direct sum of hyperbolic planes U ("U") and runs of <-2> coordinates (their number)."""
    grams = [((0, 1), (1, 0)) if part == "U" else tuple(tuple(-2 * (i == j) for j in range(part)) for i in range(part))
             for part in parts]
    return direct_sum([Lattice(f"B{k}", gram) for k, gram in enumerate(grams)], label="diagonal")


def isotropic_oracle(lattice, planes):
    """Oracle: the primitive isotropic vectors at bound 1 of a :func:`diagonal_window`, sorted.
    A plane adds 2xy <= 2 to the square and a nonzero <-2> coordinate adds -2, so an isotropic
    vector has at most as many nonzero <-2> coordinates as there are planes."""
    plane = [p for start, stop in planes for p in range(start, stop)]
    rest = [p for p in range(lattice.rank) if p not in plane]
    found = []
    for head in product((-1, 0, 1), repeat=len(plane)):
        for k in range(len(planes) + 1):
            for places in combinations(rest, k):
                for signs in product((-1, 1), repeat=k):
                    full = [0] * lattice.rank
                    for p, c in (*zip(plane, head), *zip(places, signs)):
                        full[p] = c
                    if gcd(*full) == 1 and square(lattice.vector(full)) == 0:
                        found.append(tuple(full))
    return sorted(found)


@ROOMS
@pytest.mark.parametrize("parts,planes", [
    # the walk of 24 coordinates nests 24 loops: the shell is recorded in a chained function
    (("U", 24), ((0, 2),)),
    # 19 + 1 loops come before the replay loop, which opens a chained function
    ((19, "U", 1), ((19, 21),)),
], ids=["U+G24-walk-chained", "G19+U+G1-replay-chained"])
def test_replayed_shells_chain_past_20_loops(monkeypatch, room, parts, planes):
    with_room(monkeypatch, room)
    lattice = diagonal_window(*parts)
    names = tuple(name for name, _, _ in lattice.blocks)
    expected = isotropic_oracle(lattice, planes)
    assert len(expected) > 4
    assert [v.coords for v in enumerate_with_square(lattice, names, 1, 0)] == expected


@pytest.mark.parametrize("k", [1, 700, 30000])
def test_a_closed_enumeration_leaves_no_shell_behind(k):
    """Closed after k vectors, in the first shell's walk or later, the generator drops its
    memo with any shell half recorded; a fresh call gives every vector of the oracle."""
    names, lattice = ("U1", "E8"), MODEL.lambda_Y
    (expected,) = box_oracle(lattice, names, LY_TABLES[2], (0,)).values()
    vectors = enumerate_with_square(lattice, names, 2, 0)
    assert [v.coords for v in islice(vectors, k)] == expected[:k]
    vectors.close()
    assert [v.coords for v in enumerate_with_square(lattice, names, 2, 0)] == expected


@settings(max_examples=100, deadline=None)
@given(lat=small_symmetric_lattice())
def test_ellipsoid_exists_exactly_for_negative_definite_blocks(lat):
    """Sylvester's criterion on -G: every leading principal minor is positive."""
    minus = tuple(tuple(-g for g in row) for row in lat.gram)
    definite = all(intmat.det(tuple(row[:k] for row in minus[:k])) > 0 for k in range(1, lat.rank + 1))
    assert (_ellipsoid(lat.gram) is not None) == definite
