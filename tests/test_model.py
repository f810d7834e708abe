"""Named model, condition (*), the decision table, types, enumeration."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikulat import (
    LatticeError,
    OrbitBudget,
    classify_isotropic_type,
    classify_orbit,
    discriminant_group,
    divisibility,
    eta_embedding,
    is_primitive,
    orbit_explore,
    pair,
    sigma_star,
    square,
    vector_profile,
)
from nikulat.lattice import check_embedding
from nikulat.model import (
    DEFAULT_WINDOW,
    SECOND_WINDOW,
    EnumerationWindow,
    build_model,
    case_representative,
    default_generators,
    enumerate_primitive_isotropic,
    enumerate_with_square,
    eta_from_matrix,
    lattice_registry,
    sigma_invariant_basis,
)


@pytest.fixture(scope="module")
def setup():
    return build_model()


# --- build_model -------------------------------------------------------------


def test_lattice_shapes(setup):
    model, _ = setup
    assert model.lambda_X.rank == 23
    assert model.lambda_fix.rank == 15
    assert model.lambda_Y.rank == 16
    assert discriminant_group(model.lambda_Y) == [2] * 8


@pytest.mark.parametrize(
    "label, names",
    [
        ("LX", ["U1", "U2", "U3", "E8a", "E8b", "D"]),
        ("Lfix", ["U1", "U2", "U3", "E8", "D"]),
        ("LY", ["U1", "U2", "U3", "E8", "G1", "G2"]),
    ],
)
def test_block_names_unique_and_tiling(label, names):
    lat = lattice_registry()[label]
    assert [name for name, _, _ in lat.blocks] == names
    stops = [0]
    for name in names:
        block = lat.block_slice(name)
        assert block.start == stops[-1] < block.stop
        stops.append(block.stop)
    assert stops[-1] == lat.rank


def test_named_vector_pins(setup):
    _, nv = setup
    assert square(nv.L(2)) == 8
    assert pair(nv.e2, nv.ew) == 1
    assert square(nv.deltaY) == -4


# --- sigma_star ----------------------------------------------------------------


def test_sigma_star_fixes_u_part(setup):
    model, _ = setup
    v = model.lambda_X.vector([1, -2, 3, 0, 0, 1] + [0] * 17)
    assert sigma_star(v) == v


def test_sigma_star_swaps_e8_blocks(setup):
    model, _ = setup
    v = model.lambda_X.basis_vector(6)
    image = sigma_star(v)
    assert image.coords[14] == 1 and image.coords[6] == 0
    assert sigma_star(image) == v


def test_sigma_star_wrong_lattice(setup):
    _, nv = setup
    with pytest.raises(LatticeError):
        sigma_star(nv.L(0))


def test_sigma_invariant_sublattice_is_lfix(setup):
    model, _ = setup
    basis = sigma_invariant_basis()
    assert len(basis) == 15
    gram = tuple(tuple(pair(a, b) for b in basis) for a in basis)
    assert gram == model.lambda_fix.gram  # diagonal E8 classes double their square


# --- eta -----------------------------------------------------------------------


def eta(v):
    """The as-written eta on a vector of Lfix, whose module is that of Lfix(2)."""
    emb = eta_embedding()
    return emb(emb.domain.vector(v.coords))


def test_eta_on_u_part(setup):
    model, _ = setup
    u1 = model.lambda_fix.basis_vector(0)
    assert eta(u1).coords == (1,) + (0,) * 15


def test_eta_alpha_maps_to_delta(setup):
    model, nv = setup
    alpha = model.lambda_fix.basis_vector(14)
    assert eta(alpha) == nv.deltaY
    assert square(alpha) == -2 and square(nv.deltaY) == -4  # doubled form


def test_eta_user_variant_flagged_not_rejected(setup):
    rows = [[0] * 15 for _ in range(16)]
    for k in range(15):
        rows[k][k] = 1
    emb = eta_from_matrix(rows)  # plain inclusion: not isometric from Lfix(2)
    assert not check_embedding(emb).isometric


@given(coords=st.lists(st.integers(-20, 20), min_size=15, max_size=15))
@settings(max_examples=200, deadline=None)
def test_eta_conserves_doubled_form(coords):
    model, _ = build_model()
    v = model.lambda_fix.vector(coords)
    image = eta(v)
    assert square(image) == 2 * square(v)


# --- condition (*) ----------------------------------------------------------------


def test_star_l0(setup):
    _, nv = setup
    profile = vector_profile(nv.L(0))
    assert profile.star
    assert (
        not profile.u_part_div_by_2,
        profile.e8_part_div_by_2,
        profile.gamma_in_delta_sigma_span,
    ) == (True, True, True)


def test_star_gamma_clause_fails(setup):
    _, nv = setup
    profile = vector_profile(nv.u[0] + nv.gamma1)
    assert not profile.star
    assert not profile.gamma_in_delta_sigma_span


def test_star_u_clause_fails(setup):
    _, nv = setup
    profile = vector_profile(2 * nv.L(1) - nv.deltaY)
    assert not profile.star
    assert profile.u_part_div_by_2
    assert profile.e8_part_div_by_2
    assert profile.gamma_in_delta_sigma_span


# --- profiles -----------------------------------------------------------------------


def test_profile_case9_rep(setup):
    _, nv = setup
    p = vector_profile(nv.L(1) + nv.e2)
    assert (p.q, p.div, p.q_e8_mod4) == (0, 1, 0)


def test_profile_case8_rep(setup):
    _, nv = setup
    p = vector_profile(nv.L(1) + nv.e1 - nv.gamma1)
    assert (p.q, p.div, p.q_e8_mod4, p.pair_sigma_mod4) == (0, 1, 2, 2)


def test_profile_sigma(setup):
    _, nv = setup
    p = vector_profile(nv.SigmaY)
    assert (p.q, p.div, p.pair_sigma_mod4) == (-4, 2, 0)


def test_profile_parity_invariants(setup):
    _, nv = setup
    rng = random.Random(17)
    model, _ = setup
    for _ in range(200):
        coords = [rng.randint(-6, 6) for _ in range(16)]
        v = model.lambda_Y.vector(coords)
        if v.is_zero():
            continue
        p = vector_profile(v)
        assert p.q % 2 == 0  # LY is even
        k, m = p.gamma_coords
        assert p.gamma_in_delta_sigma_span == ((k - m) % 2 == 0)
        assert p.q_e8_mod4 in (0, 2)
        assert p.pair_sigma_mod4 in (0, 2)


# --- classify_orbit ------------------------------------------------------------------


@pytest.mark.parametrize(
    "expr_i, expected",
    [
        ("L0", ("Star1", 0)),
        ("L1e2", ("Case9", 0)),
        ("2L1-delta", ("Case2", 1)),
        ("L1e1-g1", ("Case8", 1)),
    ],
)
def test_classify_examples(setup, expr_i, expected):
    _, nv = setup
    vec = {
        "L0": nv.L(0),
        "L1e2": nv.L(1) + nv.e2,
        "2L1-delta": 2 * nv.L(1) - nv.deltaY,
        "L1e1-g1": nv.L(1) + nv.e1 - nv.gamma1,
    }[expr_i]
    got = classify_orbit(vec)
    assert (got.case, got.i) == expected
    assert got.profile == vector_profile(vec)


@pytest.mark.parametrize("case", ["Star1"] + [f"Case{k}" for k in range(2, 10)])
@pytest.mark.parametrize("i", range(4))
def test_table_self_consistency(setup, case, i):
    rep, _ = case_representative(case, i)
    got = classify_orbit(rep)
    assert (got.case, got.i) == (case, i)
    assert square(got.representative) == square(rep)
    assert divisibility(got.representative) == divisibility(rep)


def test_classify_negative_i(setup):
    _, nv = setup
    v = nv.u[0] - 2 * nv.u[1]  # q = -8, satisfies (*)
    got = classify_orbit(v)
    assert (got.case, got.i) == ("Star1", -2)
    assert "negative" in got.note


def test_classify_unmatched_pocket(setup):
    _, nv = setup
    # div 2, q = -2 (2 mod 4), E8-part 2*eps1 nonzero mod 4E8: no printed row
    v = 2 * nv.u[0] + nv.u[1] + 2 * nv.e1 + nv.gamma1
    assert divisibility(v) == 2 and square(v) == -2
    got = classify_orbit(v)
    assert got.case == "Unmatched"
    assert got.representative == v
    assert got.profile == vector_profile(v)


def test_classify_rejects_bad_input(setup):
    model, nv = setup
    with pytest.raises(LatticeError):
        classify_orbit(2 * nv.L(0))
    with pytest.raises(LatticeError):
        classify_orbit(model.lambda_Y.vector((0,) * 16))


def test_classify_random_vectors_land_once(setup):
    """Exclusivity + totality scan: every primitive vector gets exactly one
    verdict and representatives echo (q, div)."""
    model, _ = setup
    rng = random.Random(23)
    unmatched = 0
    for _ in range(400):
        coords = [rng.randint(-4, 4) for _ in range(16)]
        v = model.lambda_Y.vector(coords)
        if v.is_zero() or not is_primitive(v):
            continue
        got = classify_orbit(v)
        if got.case == "Unmatched":
            unmatched += 1
            p = vector_profile(v)
            # the only uncovered signature: div 2, q = 2 mod 4, E8 not 0 mod 4E8
            assert p.div == 2 and p.q % 4 == 2
            assert any(c % 4 for c in p.e8_part)
        else:
            assert square(got.representative) == square(v)
            assert divisibility(got.representative) == divisibility(v)
    assert unmatched  # the pocket is populated at this sampling density


# --- isotropic types ------------------------------------------------------------------


def test_type_b(setup):
    _, nv = setup
    verdict = classify_isotropic_type(nv.L(0))
    assert verdict.type_label == "B"
    assert verdict.polarisation_type == (1, 1)
    assert verdict.representative_expr == "L(0)"


def test_type_a(setup):
    _, nv = setup
    verdict = classify_isotropic_type(nv.L(1) + nv.e2)
    assert verdict.type_label == "A"
    assert verdict.polarisation_type == (1, 2)


def test_type_mixed_example(setup):
    _, nv = setup
    v = nv.u[0] + nv.u[1] + nv.gamma1 + nv.gamma2
    verdict = classify_isotropic_type(v)
    assert verdict.type_label == "B"
    assert verdict.pair_sigma_mod4 == 0


def test_type_rejects_non_isotropic(setup):
    _, nv = setup
    with pytest.raises(LatticeError):
        classify_isotropic_type(nv.L(1))
    with pytest.raises(LatticeError):
        classify_isotropic_type(2 * nv.L(0))


def test_type_constant_on_reflection_orbits(setup):
    _, nv = setup
    budget = OrbitBudget(2, 3000, 3)
    for seed, expected in [(nv.L(0), "B"), (nv.L(1) + nv.e2, "A")]:
        orbit = orbit_explore(seed, default_generators(), budget)
        for c in orbit.members:
            assert classify_isotropic_type(orbit.seed.lattice.vector(c)).type_label == expected


def test_classifier_oracle_agreement(setup):
    _, nv = setup
    budget = OrbitBudget(3, 4000, 3)
    ly = nv.L(0).lattice
    for c in orbit_explore(nv.L(0), default_generators(), budget).members:
        assert classify_orbit(ly.vector(c)).case == "Star1"
    for c in orbit_explore(nv.L(1) + nv.e2, default_generators(), budget).members:
        v = ly.vector(c)
        got = classify_orbit(v)
        assert got.case in ("Case8", "Case9")
        p = vector_profile(v)
        assert p.q == 0 and p.div == 1


# --- enumeration ---------------------------------------------------------------------


def test_enumerate_single_u_block(setup):
    _, nv = setup
    vs = list(enumerate_primitive_isotropic(EnumerationWindow(("U1",), 1)))
    coords = {v.coords[:2] for v in vs}
    assert coords == {(1, 0), (-1, 0), (0, 1), (0, -1)}


def test_enumerate_u_gamma_window(setup):
    _, nv = setup
    vs = list(enumerate_primitive_isotropic(EnumerationWindow(("U1", "G1", "G2"), 1)))
    assert (nv.u[0] + nv.u[1] + nv.gamma1 + nv.gamma2) in [v for v in vs]


def test_enumerate_divisibility_dichotomy(setup):
    for v in enumerate_primitive_isotropic(DEFAULT_WINDOW):
        assert divisibility(v) in (1, 2)


def test_enumerate_lexicographic_and_deterministic(setup):
    window = EnumerationWindow(("U1", "G1"), 2)
    first = [v.coords for v in enumerate_primitive_isotropic(window)]
    assert first == sorted(first)
    assert first == [v.coords for v in enumerate_primitive_isotropic(window)]


def test_enumerate_rejects_empty_window():
    with pytest.raises(LatticeError):
        EnumerationWindow((), 1)
    with pytest.raises(LatticeError):
        EnumerationWindow(("U1",), 0)
    with pytest.raises(LatticeError):
        EnumerationWindow(("U9",), 1)


def test_sigma_pairing_discriminant_on_windows(setup):
    """div = 2 and q = 0 force (v, SigmaY) = 0 mod 4, with even gamma parity."""
    _, nv = setup
    seen_div2 = 0
    for v in itertools.chain(
        enumerate_primitive_isotropic(DEFAULT_WINDOW),
        enumerate_primitive_isotropic(SECOND_WINDOW),
    ):
        if divisibility(v) != 2:
            continue
        seen_div2 += 1
        assert pair(v, nv.SigmaY) % 4 == 0
        k, m = v.coords[14], v.coords[15]
        assert (k - m) % 2 == 0
        assert all(c % 2 == 0 for c in v.coords[6:14])
    assert seen_div2 > 100


def test_minus_two_vectors_are_roots(setup):
    model, _ = setup
    roots = list(enumerate_with_square(model.lambda_Y, ("E8",), 1, target=-2, primitive_only=False))
    assert all(square(r) == -2 for r in roots)
    # connected-subgraph count of the E8 diagram, times two signs
    assert len(roots) == 2 * 44


def test_classify_wide_coordinate_scan(setup):
    """Wider-coordinate sweep: the classifier is total on primitive vectors,
    raises nothing, and Unmatched appears only with its one known signature."""
    model, _ = setup
    rng = random.Random(424242)
    for _ in range(2500):
        width = rng.choice([2, 4, 8, 20, 100])
        coords = [rng.randint(-width, width) for _ in range(16)]
        v = model.lambda_Y.vector(coords)
        if v.is_zero() or not is_primitive(v):
            continue
        got = classify_orbit(v)
        if got.case == "Unmatched":
            p = vector_profile(v)
            assert p.div == 2 and p.q % 4 == 2 and any(c % 4 for c in p.e8_part)
        else:
            assert square(got.representative) == square(v)
            assert divisibility(got.representative) == divisibility(v)
