"""Lattice construction, pairings, vector invariants, saturation, embeddings."""

import copy
import dataclasses
import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikulat import (
    EmbeddingMap,
    Lattice,
    LatticeError,
    LatticeVector,
    check_embedding,
    direct_sum,
    discriminant_group,
    divisibility,
    enumerate_primitive_isotropic,
    is_primitive,
    pair,
    parse_vector,
    rescale,
    saturate,
    square,
    standard_lattice,
)
from nikulat.intmat import det
from nikulat.model import DEFAULT_WINDOW, build_model, eta_embedding

U = standard_lattice("U")
U2 = rescale(U, 2)
E8 = standard_lattice("E8_neg")
MINUS2 = standard_lattice("rank1", -2)


@pytest.fixture(scope="module")
def ly():
    model, _ = build_model()
    return model.lambda_Y


@pytest.fixture(scope="module")
def nv():
    _, vectors = build_model()
    return vectors


# --- construction -----------------------------------------------------------


def test_standard_u():
    assert U.gram == ((0, 1), (1, 0))


def test_standard_rank1():
    assert standard_lattice("rank1", -2).gram == ((-2,),)


def test_standard_e8_det_one():
    # derived via Smith normal form; det() is the independent Bareiss route
    assert det(E8.gram) == 1
    assert discriminant_group(E8) == []


def test_standard_unknown_kind():
    with pytest.raises(LatticeError):
        standard_lattice("A1")
    with pytest.raises(LatticeError):
        standard_lattice("rank1", 0)


def test_rescale():
    assert U2.gram == ((0, 2), (2, 0))
    assert rescale(MINUS2, 2).gram == ((-4,),)
    assert U2.label == "U(2)"


def test_rescale_determinant_scaling():
    # det(L(n)) = n^rank * det(L); on U(2): 2^2 * (-1) = -4
    assert det(U2.gram) == -4 == 2**2 * det(U.gram)


def test_rescale_by_zero():
    with pytest.raises(LatticeError):
        rescale(U, 0)


def test_direct_sum_block_diagonal():
    uu = direct_sum([U, U])
    assert uu.rank == 4
    assert uu.gram[0][1] == 1 and uu.gram[0][2] == 0 and uu.gram[2][3] == 1


def test_direct_sum_singleton():
    assert direct_sum([MINUS2]) is MINUS2


def test_direct_sum_empty():
    with pytest.raises(LatticeError):
        direct_sum([])


def test_direct_sum_discriminant_order():
    lat = direct_sum([U2, U2, U2, E8, MINUS2, MINUS2])
    factors = discriminant_group(lat)
    order = 1
    for f in factors:
        order *= f
    assert order == 256
    # blockwise oracle: product of block discriminant orders
    blockwise = 1
    for part in [U2, U2, U2, E8, MINUS2, MINUS2]:
        for f in discriminant_group(part):
            blockwise *= f
    assert blockwise == 256


def test_degenerate_gram_rejected():
    with pytest.raises(LatticeError):
        Lattice("bad", ((1, 1), (1, 1)))


def test_asymmetric_gram_rejected():
    with pytest.raises(LatticeError):
        Lattice("bad", ((0, 1), (2, 0)))


def test_non_square_gram_rejected():
    with pytest.raises(LatticeError, match="not square"):
        Lattice("bad", ((0, 1, 0), (1, 0, 0)))


@pytest.mark.parametrize("i", [-1, 16])
def test_basis_vector_out_of_range(ly, i):
    with pytest.raises(LatticeError, match="out of range for rank 16"):
        ly.basis_vector(i)


def test_vector_float_coords_rejected_not_truncated(ly):
    with pytest.raises(LatticeError, match="must be integers"):
        ly.vector([1.9] * 16)


def test_vector_bool_coord_rejected(ly):
    with pytest.raises(LatticeError, match="must be integers"):
        LatticeVector(ly, [True] + [0] * 15)


# Arithmetic, the enumerator and the parser build vectors without re-checking
# their coordinates; only an int scalar may take that path.


@pytest.mark.parametrize("k", [1.5, Fraction(1, 2), Fraction(2)])
def test_non_int_scalar_rejected(nv, k):
    with pytest.raises(LatticeError, match="must be integers"):
        k * nv.w


def test_bool_scalar_is_an_int(nv):
    v = True * nv.w
    assert v == 1 * nv.w
    assert all(type(c) is int for c in v.coords)


def test_sum_across_lattices_rejected(nv):
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(LatticeError, match="different lattices"):
            op(U.basis_vector(0), U2.basis_vector(0))
        with pytest.raises(LatticeError, match="different lattices"):
            op(nv.w, U.basis_vector(0))
    twin = Lattice("U", ((0, 1), (1, 0)))  # equal to U, but another object
    assert U.basis_vector(0) + twin.basis_vector(1) == U.vector((1, 1))


def test_trusted_vectors_equal_checked_ones(ly, nv):
    enumerated = list(islice(enumerate_primitive_isotropic(DEFAULT_WINDOW), 20))
    assert len(enumerated) == 20
    arithmetic = [nv.w + nv.e2, nv.w - nv.e2, -nv.w, -7 * nv.w, 0 * nv.w, 2**70 * nv.L(3)]
    parsed = [parse_vector("-u1+2*u2-3*u3+eps1-2*eps4+eps8+gamma1-gamma2"), parse_vector("L(1)-L(1)")]
    for v in arithmetic + enumerated + parsed:
        checked = ly.vector(v.coords)
        assert v == checked and hash(v) == hash(checked)
        assert type(v.coords) is tuple and len(v.coords) == ly.rank
        assert all(type(c) is int for c in v.coords)


def test_vector_is_slotted_and_frozen(ly, nv):
    v = nv.L(1) + nv.e2
    assert not hasattr(v, "__dict__") and LatticeVector.__slots__ == ("lattice", "coords")
    for name, value in (("coords", (0,) * 16), ("lattice", ly)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(v, name, value)
    # a name that is no field has no slot; CPython 3.11 raises TypeError here
    with pytest.raises((AttributeError, TypeError)):
        v.other = 1
    assert v.coords == (1, 1) + (0,) * 4 + (1, 0, 1) + (0,) * 7


def test_copies_and_replacements_equal_the_vector(nv):
    for v in (nv.w, -nv.gamma2, 2**70 * nv.L(3), eta_embedding()(eta_embedding().domain.basis_vector(6))):
        for twin in (copy.copy(v), copy.deepcopy(v), dataclasses.replace(v), dataclasses.replace(v, coords=v.coords)):
            assert twin == v and hash(twin) == hash(v) and type(twin) is LatticeVector
            assert repr(twin) == repr(v)


def test_of_ints_vectors_equal_checked_ones(ly):
    for lat, x in ((ly, tuple(range(-8, 8))), (U, (3, -4)), (MINUS2, (10**5000,)), (E8, (0,) * 8)):
        trusted, checked = LatticeVector._of_ints(lat, x), LatticeVector(lat, list(x))
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.lattice is lat and trusted.coords is x and type(checked.coords) is tuple


# --- pairings and invariants -------------------------------------------------


def test_pair_u2_basis():
    e, f = U2.basis_vector(0), U2.basis_vector(1)
    assert pair(e, f) == 2


def test_pair_orthogonal_blocks(nv):
    assert pair(nv.gamma1, nv.gamma2) == 0


def test_pair_paper_value(nv):
    assert pair(nv.L(1) + nv.e2, nv.w) == 5


def test_pair_mismatched_lattices(nv):
    with pytest.raises(LatticeError):
        pair(nv.gamma1, U.basis_vector(0))


@pytest.mark.parametrize("i", range(4))
def test_square_li(nv, i):
    assert square(nv.L(i)) == 4 * i


def test_square_w(nv):
    assert square(nv.w) == -2


def test_square_e2_plus_5ew(nv):
    # -4 + 25*(-4) + 2*5*1 = -94; only the residue 2 mod 4 is pinned upstream
    assert square(nv.e2 + 5 * nv.ew) == -94
    assert square(nv.e2 + 5 * nv.ew) % 4 == 2


def test_divisibility_values(nv):
    v = nv.L(0)
    pairings = [pair(v, v.lattice.basis_vector(i)) for i in range(16)]
    assert all(p % 2 == 0 for p in pairings)  # U(2) vectors pair evenly
    assert divisibility(v) == 2
    assert divisibility(nv.L(1) + nv.e2) == 1  # e2 pairs oddly with eps4
    assert pair(nv.e2, nv.eps[3]) == 1
    assert divisibility(nv.gamma1) == 2


def test_divisibility_zero_vector(ly):
    with pytest.raises(LatticeError):
        divisibility(ly.vector((0,) * 16))


def test_is_primitive(nv):
    assert is_primitive(nv.L(1) + nv.e2)
    assert is_primitive(2 * nv.L(1) - nv.deltaY)
    assert not is_primitive(2 * nv.L(0))
    with pytest.raises(LatticeError):
        is_primitive(nv.L(0).lattice.vector((0,) * 16))


@given(
    a=st.integers(-9, 9),
    b=st.integers(-9, 9),
    x=st.lists(st.integers(-9, 9), min_size=16, max_size=16),
    y=st.lists(st.integers(-9, 9), min_size=16, max_size=16),
    z=st.lists(st.integers(-9, 9), min_size=16, max_size=16),
)
@settings(max_examples=120, deadline=None)
def test_bilinearity(a, b, x, y, z):
    model, _ = build_model()
    lat = model.lambda_Y
    v, u, w = lat.vector(x), lat.vector(y), lat.vector(z)
    assert pair(a * v + b * u, w) == a * pair(v, w) + b * pair(u, w)


@given(
    k=st.integers(-6, 6).filter(lambda k: k != 0),
    x=st.lists(st.integers(-5, 5), min_size=16, max_size=16).filter(lambda c: any(c)),
)
@settings(max_examples=120, deadline=None)
def test_divisibility_scales(k, x):
    model, _ = build_model()
    v = model.lambda_Y.vector(x)
    assert divisibility(k * v) == abs(k) * divisibility(v)
    if abs(k) > 1:
        assert not is_primitive(k * v)


@given(x=st.lists(st.integers(-5, 5), min_size=16, max_size=16).filter(lambda c: any(c)))
@settings(max_examples=120, deadline=None)
def test_divisibility_divides_square_in_even_lattice(x):
    model, _ = build_model()
    v = model.lambda_Y.vector(x)
    assert all(model.lambda_Y.gram[i][i] % 2 == 0 for i in range(16))  # LY is even
    assert square(v) % divisibility(v) == 0


# --- saturation ---------------------------------------------------------------


def test_saturate_scalar_multiple(ly, nv):
    report = saturate(ly, [2 * nv.L(0)])
    assert report.total_index == 2
    (basis,) = report.saturation_basis
    assert basis.coords in ((nv.L(0)).coords, (-1 * nv.L(0)).coords)


def test_saturate_delta_sigma(ly, nv):
    report = saturate(ly, [nv.deltaY, nv.SigmaY])
    assert report.total_index == 2
    assert report.index_invariant_factors == (2,)
    # determinant-ratio oracle: index^2 = det(gram of gens) / det(gram of basis)
    gens_det = det(tuple(tuple(pair(a, b) for b in report.generators) for a in report.generators))
    basis_det = det(
        tuple(tuple(pair(a, b) for b in report.saturation_basis) for a in report.saturation_basis)
    )
    assert gens_det == report.total_index**2 * basis_det


def test_saturate_eta_image_index(ly):
    emb = eta_embedding()
    report = saturate(ly, list(emb.column_vectors()))
    assert report.total_index == 2**8
    assert report.index_invariant_factors == (2,) * 8


def test_saturate_is_idempotent(ly, nv):
    report = saturate(ly, [2 * nv.L(0), 3 * nv.deltaY, nv.SigmaY])
    again = saturate(ly, list(report.saturation_basis))
    assert again.total_index == 1


def test_saturate_generators_in_basis_span(ly, nv):
    gens = [2 * nv.L(0) + nv.deltaY, 2 * nv.SigmaY]
    report = saturate(ly, gens)
    # every generator must be an integer combination of the saturation basis
    from nikulat.intmat import freeze, matvec, smith_decomposition

    basis_matrix = freeze(
        [[b.coords[i] for b in report.saturation_basis] for i in range(ly.rank)]
    )
    dec = smith_decomposition(basis_matrix)
    for g in gens:
        y = matvec(dec.left, g.coords)
        k = len(report.saturation_basis)
        assert all(y[i] % dec.diag[i][i] == 0 for i in range(k))
        assert all(c == 0 for c in y[k:])


def test_saturate_rejects_dependent(ly, nv):
    with pytest.raises(LatticeError):
        saturate(ly, [nv.L(0), 2 * nv.L(0)])


@pytest.mark.parametrize("gens, message", [
    ([], "at least one generator"),
    ([MINUS2.basis_vector(0)], "does not live in the given lattice"),
], ids=["none", "foreign"])
def test_saturate_rejects_missing_and_foreign_generators(ly, gens, message):
    with pytest.raises(LatticeError, match=message):
        saturate(ly, gens)


# --- embeddings ----------------------------------------------------------------


def test_identity_embedding(ly):
    import nikulat.intmat as intmat

    emb = EmbeddingMap(ly, ly, intmat.identity(ly.rank))
    report = check_embedding(emb)
    assert report.isometric and report.primitive and report.saturation_index == 1


def test_eta_as_written_report():
    report = check_embedding(eta_embedding())
    assert report.isometric
    assert not report.primitive
    assert report.saturation_index == 2**8


def test_doubling_map_not_isometric():
    import nikulat.intmat as intmat

    emb = EmbeddingMap(U, U, ((2, 0), (0, 2)))
    report = check_embedding(emb)
    assert not report.isometric


def test_embedding_rejects_rank_deficient(ly):
    cols = [[0] * 2 for _ in range(16)]
    emb = EmbeddingMap(direct_sum([U2]), ly, tuple(tuple(r) for r in cols))
    with pytest.raises(LatticeError):
        check_embedding(emb)


def test_isometric_embedding_preserves_squares():
    rng = random.Random(5)
    emb = eta_embedding()
    for _ in range(1000):
        coords = [rng.randint(-8, 8) for _ in range(15)]
        v = emb.domain.vector(coords)
        assert square(emb(v)) == square(v)


def test_direct_sum_block_offsets():
    lat = direct_sum([U2, U2, U2, E8, MINUS2, MINUS2], label="LYlike")
    assert [b[1] for b in lat.blocks] == [0, 2, 4, 6, 14, 15]
    assert lat.blocks[3] == ("E8(-1)", 6, 8)
    assert lat.block_slice("E8(-1)") == slice(6, 14)
    with pytest.raises(LatticeError):
        lat.block_slice("nope")


def test_block_slice_rejects_ambiguous_label():
    lat = direct_sum([U2, U2])
    assert lat.blocks[1] == ("U(2)", 2, 2)
    with pytest.raises(LatticeError, match="ambiguous"):
        lat.block_slice("U(2)")
