"""Reflections, isometry checks, orbit exploration, witness search."""

import itertools
import random

import pytest

from dense import matmul, transpose

from nikulat import (
    EmbeddingMap,
    LatticeError,
    OrbitBudget,
    check_embedding,
    divisibility,
    is_primitive,
    orbit_explore,
    pair,
    reflection,
    rescale,
    same_orbit_witness,
    square,
    standard_lattice,
)
from nikulat import intmat
from nikulat.isometry import Isometry, distinct_invariants
from nikulat.model import (
    build_model,
    classify_orbit,
    default_generator_table,
    default_generators,
    enumerate_with_square,
    sigma_star,
)


def dense_reflection(iso):
    """Oracle: the dense matrix I + r (G r)^T of the reflection ``iso`` in r."""
    lat, r = iso.lattice, iso.root
    gr = intmat.matvec(lat.gram, r)
    return tuple(tuple(int(i == j) + r[i] * gr[j] for j in range(lat.rank)) for i in range(lat.rank))


@pytest.fixture(scope="module")
def setup():
    model, nv = build_model()
    return model, nv


# --- reflections ----------------------------------------------------------------


def test_reflection_negates_root(setup):
    _, nv = setup
    assert reflection(nv.w)(nv.w) == -1 * nv.w


def test_reflection_chain_value(setup):
    _, nv = setup
    start = nv.L(1) + nv.e2
    assert reflection(nv.w)(start) == start + 5 * nv.w


def test_reflection_fixes_orthogonal(setup):
    _, nv = setup
    assert reflection(nv.gamma1)(nv.gamma2) == nv.gamma2


def test_reflection_rejects_other_squares(setup):
    _, nv = setup
    with pytest.raises(LatticeError):
        reflection(nv.e2)  # square -4


def test_reflection_is_involution_and_isometry(setup):
    model, nv = setup
    rng = random.Random(3)
    roots = [nv.w, nv.gamma1, nv.e1, nv.u[0] + nv.e1]
    for root in roots:
        r = reflection(root)
        matrix = dense_reflection(r)
        assert matmul(matrix, matrix) == intmat.identity(16)
        assert intmat.det(matrix) == -1
        for _ in range(20):
            v = model.lambda_Y.vector([rng.randint(-9, 9) for _ in range(16)])
            if v.is_zero():
                continue
            assert square(r(v)) == square(v)
            assert divisibility(r(v)) == divisibility(v)
            assert is_primitive(r(v)) == is_primitive(v)


def test_compose(setup):
    """Applying two reflections in turn is applying their matrix product."""
    model, nv = setup
    r1, r2 = reflection(nv.gamma1), reflection(nv.gamma2)
    v = model.lambda_Y.vector([1, 2, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, -1])
    both = r1(r2(v))
    assert both.coords == intmat.matvec(matmul(dense_reflection(r1), dense_reflection(r2)), v.coords)
    assert both.coords[14:] == (-3, 1)
    assert both.coords[:14] == v.coords[:14]


# --- Gram conservation, read off check_embedding of a lattice into itself ---------


def is_isometry(lat, m) -> bool:
    return check_embedding(EmbeddingMap(lat, lat, m)).isometric


def test_is_isometry_identity(setup):
    model, _ = setup
    assert is_isometry(model.lambda_Y, intmat.identity(16))


def test_is_isometry_sigma_swap(setup):
    """sigma_star, exchanging the two E8(-1) blocks of LX, conserves the form."""
    model, _ = setup
    lx = model.lambda_X
    images = [sigma_star(lx.basis_vector(j)).coords for j in range(lx.rank)]
    assert is_isometry(lx, transpose(images))  # column j is the image of basis vector j


def test_is_isometry_scaling_fails(setup):
    model, _ = setup
    m = tuple(tuple(2 * int(i == j) for j in range(16)) for i in range(16))
    assert not is_isometry(model.lambda_Y, m)


def test_is_isometry_wrong_shape(setup):
    model, _ = setup
    with pytest.raises(LatticeError):
        is_isometry(model.lambda_Y, ((1, 0), (0, 1)))


def test_isometry_constructor_validates(setup):
    """x |-> x + (x, r) r conserves the form only for (r, r) = -2; e2 has square -4."""
    model, nv = setup
    with pytest.raises(LatticeError, match="Gram form"):
        Isometry(model.lambda_Y, nv.e2.coords)


@pytest.mark.parametrize("extra", [-1, 1])
def test_isometry_constructor_rejects_a_root_of_the_wrong_length(setup, extra):
    """A root of square -2 with a coordinate dropped or a nonzero one appended."""
    model, nv = setup
    coords = nv.e1.coords[:-1] if extra < 0 else nv.e1.coords + (1,)
    with pytest.raises(LatticeError, match="rank 16"):
        Isometry(model.lambda_Y, coords)


def test_isometry_constructor_rejects_a_root_of_non_int_coordinates(setup):
    """A float root of square -2.0 would carry float coordinates into an orbit's members."""
    model, nv = setup
    with pytest.raises(LatticeError, match="integers"):
        Isometry(model.lambda_Y, tuple(map(float, nv.e1.coords)))


# --- orbit exploration -------------------------------------------------------------


@pytest.mark.parametrize("field,value", [
    ("coord_bound", 5.0), ("max_frontier", 1e6), ("max_depth", True), ("max_depth", 2.5),
])
def test_orbit_budget_rejects_non_int_fields(field, value):
    """A float bound made the packed keys floats, inexact above 2**53: coord_bound=5.0
    closed L(0) to 15,753 members at depth 7, against 12,947 with coord_bound=5."""
    with pytest.raises(LatticeError, match=f"budget field {field} must be an integer"):
        OrbitBudget(**{field: value})


def test_orbit_sign_flip(setup):
    _, nv = setup
    orbit = orbit_explore(nv.gamma1, [reflection(nv.gamma1)], OrbitBudget(2, 100, 4))
    assert set(orbit.members) == {nv.gamma1.coords, (-1 * nv.gamma1).coords}
    assert orbit.exhausted


def test_orbit_contains_reflection_image(setup):
    _, nv = setup
    start = nv.L(1) + nv.e2
    orbit = orbit_explore(start, [reflection(nv.w)], OrbitBudget(30, 1000, 4))
    assert (start + 5 * nv.w).coords in set(orbit.members)


def test_orbit_invariant_purity(setup):
    model, nv = setup
    roots = enumerate_with_square(model.lambda_Y, ("E8", "G1", "G2"), 1, target=-2)
    gens = [reflection(r) for r in itertools.islice(roots, 40)]
    orbit = orbit_explore(nv.L(0), gens, OrbitBudget(1, 5000, 3))
    for v in map(model.lambda_Y.vector, orbit.members):
        assert divisibility(v) == 2
        assert square(v) == 0


def test_orbit_permutation_invariance(setup):
    _, nv = setup
    gens = list(default_generators())
    budget = OrbitBudget(2, 4000, 3)
    first = orbit_explore(nv.L(0), gens, budget)
    rng = random.Random(11)
    for _ in range(3):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert orbit_explore(nv.L(0), shuffled, budget).members == first.members


def test_orbit_truncation_is_flagged(setup):
    _, nv = setup
    orbit = orbit_explore(nv.L(1) + nv.e2, default_generators(), OrbitBudget(4, 50, 6))
    assert not orbit.exhausted
    assert len(orbit) <= 50


def test_orbit_rejects_zero_seed(setup):
    model, _ = setup
    with pytest.raises(LatticeError):
        orbit_explore(model.lambda_Y.vector((0,) * 16), default_generators())


#: a (-2)-root of <-2>, a lattice of no model vector
FOREIGN_ROOT = standard_lattice("rank1", -2).basis_vector(0)


@pytest.mark.parametrize("call, message", [
    (lambda nv: orbit_explore(nv.u[0] + 5 * nv.u[1], default_generators()), "exceeds the coordinate bound"),
    (lambda nv: orbit_explore(nv.L(0), [reflection(FOREIGN_ROOT)]), "different lattice than the seed"),
    (lambda nv: same_orbit_witness(nv.L(0), FOREIGN_ROOT, default_generators()), "both vectors in one lattice"),
    (lambda nv: same_orbit_witness(2 * nv.L(0), nv.L(0), default_generators()), "expects primitive vectors"),
    (lambda nv: reflection(nv.w)(FOREIGN_ROOT), "does not live on this isometry's lattice"),
], ids=["orbit-seed-outside-the-box", "orbit-foreign-generator", "witness-across-lattices",
        "witness-non-primitive", "isometry-on-a-foreign-vector"])
def test_inputs_outside_the_domain_raise(setup, call, message):
    _, nv = setup
    with pytest.raises(LatticeError, match=message):
        call(nv)


def test_orbit_reads_a_one_shot_iterable_of_generators(setup):
    # the input check once consumed the iterable, leaving a one-member "complete" orbit
    _, nv = setup
    gens, budget = default_generators(), OrbitBudget(4, 10**6, 2)
    orbit = orbit_explore(nv.L(0), (g for g in gens), budget)
    assert len(orbit) > 1 and not orbit.exhausted
    expected = orbit_explore(nv.L(0), gens, budget)
    assert (orbit.members, orbit.exhausted) == (expected.members, expected.exhausted)


def test_orbit_rank2_brute_force_cross_check():
    """On <-2>^2, the two basis reflections generate the sign-flip group;
    brute force over all |coords| <= 3 is the oracle."""
    minus2 = standard_lattice("rank1", -2)
    lat = rescale(minus2, 1)
    from nikulat.lattice import direct_sum

    plane = direct_sum([minus2, minus2])
    g1, g2 = plane.basis_vector(0), plane.basis_vector(1)
    gens = [reflection(g1), reflection(g2)]
    for a in range(-3, 4):
        for b in range(-3, 4):
            if a == 0 and b == 0:
                continue
            seed = plane.vector((a, b))
            expected = {(sa * a, sb * b) for sa in (1, -1) for sb in (1, -1)}
            orbit = orbit_explore(seed, gens, OrbitBudget(3, 100, 5))
            assert set(orbit.members) == expected
            assert orbit.exhausted


# --- witness search ------------------------------------------------------------------


def test_witness_trivial(setup):
    _, nv = setup
    assert same_orbit_witness(nv.L(0), nv.L(0), default_generators()) == []


def test_witness_one_step(setup):
    _, nv = setup
    gens = default_generators()
    names = [name for name, _ in default_generator_table()]
    word = same_orbit_witness(nv.gamma1, -1 * nv.gamma1, gens, OrbitBudget(2, 1000, 3))
    assert word is not None
    assert names[word[0]] == "gamma1" and len(word) == 1


def test_witness_differing_invariants_is_none(setup):
    _, nv = setup
    # div 2 vs div 1: provably distinct orbits, no search needed
    word = same_orbit_witness(nv.L(0), nv.L(1) + nv.e2, default_generators())
    assert word is None


def test_distinct_invariants_names_each_differing_invariant(setup):
    _, nv = setup
    assert distinct_invariants(nv.L(0), nv.L(1) + nv.e2) == (("divisibility", 2, 1),)
    assert distinct_invariants(nv.L(1), nv.L(1) + nv.e2) == (("square", 4, 0), ("divisibility", 2, 1))
    assert distinct_invariants(nv.L(1) + nv.e2, reflection(nv.w)(nv.L(1) + nv.e2)) == ()


def test_witness_word_applies(setup):
    _, nv = setup
    gens = default_generators()
    start = nv.L(1) + nv.e2
    target = reflection(nv.w)(start)
    word = same_orbit_witness(start, target, gens, OrbitBudget(8, 200000, 4))
    assert word is not None
    cur = start
    for j in word:
        cur = gens[j](cur)
    assert cur == target


def test_witness_reads_a_one_shot_iterable_of_generators(setup):
    # the input check once consumed the iterator, and the search then found no word
    _, nv = setup
    gens, budget = default_generators(), OrbitBudget(4, 10**6, 3)
    start = nv.L(1) + nv.e2
    target = gens[3](gens[0](start))
    word = same_orbit_witness(start, target, iter(gens), budget)
    assert word is not None and len(word) == 2
    assert word == same_orbit_witness(start, target, gens, budget)


def test_readme_witness_endpoints_are_cases_9_and_8(setup):
    """The README witness joins the two isotropic divisibility-1 rows."""
    _, nv = setup
    start, target = classify_orbit(nv.L(1) + nv.e2), classify_orbit(nv.L(1) + nv.e1 - nv.gamma1)
    assert (start.case, start.i) == ("Case9", 0)
    assert (target.case, target.i) == ("Case8", 1)


def test_cases_8_and_9_frozen_witness_word(setup):
    """A 16-step word in the default generators carrying L(1)+e2 to
    L(1)+e1-gamma1 inside the box |coords| <= 5, found by the bidirectional
    search under an earlier generator order.  It is an independent certificate,
    not the word the search prints today (the README's, which
    ``tests/test_readme.py`` runs).  Re-applying it verifies that the two
    isotropic divisibility-1 cases merge under (-2)-reflections alone."""
    _, nv = setup
    gens = default_generators()
    names = [name for name, _ in default_generator_table()]
    word_names = [
        "w21", "eps3", "eps2", "eps7", "eps6", "w21", "u2+gamma1", "u2+eps1",
        "eps7", "eps3", "eps4", "w11", "u1+eps1", "eps3", "w21", "eps2",
    ]
    cur = nv.L(1) + nv.e2
    peak = 0
    for name in word_names:
        cur = gens[names.index(name)](cur)
        peak = max(peak, max(abs(c) for c in cur.coords))
    assert cur == nv.L(1) + nv.e1 - nv.gamma1
    assert peak <= 5
