"""Named model, condition (*), the decision table, types, enumeration."""

import contextlib
import copy
import dataclasses
import hashlib
import io
import itertools
import pickle
import random
import sys
import threading
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from answers import ANSWERS, output
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
    parse_vector,
    sigma_star,
    square,
    vector_profile,
)
from nikulat import model as model_module
from nikulat.lattice import Lattice, check_embedding, direct_sum
from nikulat.model import (
    DEFAULT_WINDOW,
    SECOND_WINDOW,
    EnumerationWindow,
    FibrationType,
    OrbitClass,
    VectorProfile,
    build_model,
    case_representative,
    default_generators,
    enumerate_primitive_isotropic,
    enumerate_with_square,
    eta_as_written_matrix,
    eta_from_matrix,
    lattice_registry,
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


def sigma_invariant_basis():
    """Oracle: a basis of the sigma_star-invariant sublattice of LX (rank 15), ordered to
    match Lfix: the U^3 basis, the diagonal E8 classes eps_i + sigma(eps_i), the <-2> generator."""
    model, _ = build_model()
    block = model.lambda_X.block_basis
    diagonal = tuple(a + b for a, b in zip(block("E8a"), block("E8b")))
    return block("U1", "U2", "U3") + diagonal + block("D")


def test_sigma_invariant_sublattice_is_lfix(setup):
    model, _ = setup
    basis = sigma_invariant_basis()
    assert all(sigma_star(v) == v for v in basis)
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


# --- the compiled profile kernel against the four-pass computation --------------------

# The reference: each invariant by its own pass over LY's Gram rows, through
# the lattice module's square, divisibility, is_primitive and pair, and the
# E8 block square as a dense sum over that block, as the profile and the type
# verdict were computed before one compiled G.x gave them all.


def _reference_profile(v):
    model, nv = build_model()
    ly, x = model.lambda_Y, v.coords
    u1, u2, u3, e8, g1, g2 = map(ly.block_slice, ("U1", "U2", "U3", "E8", "G1", "G2"))
    (k,), (m,) = x[g1], x[g2]
    return VectorProfile(
        q=square(v),
        div=divisibility(v),
        primitive=is_primitive(v),
        u_part_div_by_2=all(c % 2 == 0 for c in x[u1] + x[u2] + x[u3]),
        e8_part=x[e8],
        e8_part_div_by_2=all(c % 2 == 0 for c in x[e8]),
        q_e8_mod4=sum(x[i] * ly.gram[i][j] * x[j] for i in range(16)[e8] for j in range(16)[e8]) % 4,
        gamma_coords=(k, m),
        gamma_in_delta_sigma_span=(k - m) % 2 == 0,
        pair_sigma_mod4=pair(v, nv.SigmaY) % 4,
    )


def _reference_type(v):
    model, nv = build_model()
    if v.lattice != model.lambda_Y:
        raise LatticeError("expected a vector of LY")
    if v.is_zero() or not is_primitive(v):
        raise LatticeError("type classification needs a primitive nonzero vector")
    if square(v) != 0:
        raise LatticeError(f"vector is not isotropic: q = {square(v)}")
    type_label, expr, polarisation = {1: ("A", "L(1)+e2", (1, 2)), 2: ("B", "L(0)", (1, 1))}[divisibility(v)]
    sigma_mod4 = pair(v, nv.SigmaY) % 4
    return FibrationType(type_label, parse_vector(expr), expr, polarisation, sigma_mod4, sigma_mod4 == 2)


def _outcome(fn, v):
    try:
        return fn(v)
    except LatticeError as exc:
        return type(exc), str(exc)


def _isotropic(y, a=1):
    """a*u1 + b*u2 + y, isotropic: y (zero on U1, doubled if its square is 2 mod 4) fixes b."""
    _, nv = build_model()
    if square(y) % 4:
        y = 2 * y
    return a * nv.u[0] - a * (square(y) // 4) * nv.u[1] + y


def _off_u1(coords):
    """The vector of ``coords`` with its U1 part set to zero."""
    model, _ = build_model()
    coords[model.lambda_Y.block_slice("U1")] = [0, 0]
    return model.lambda_Y.vector(coords)


_WIDE_COORDS = st.sampled_from([2, 20, 10**6]).flatmap(
    lambda w: st.lists(st.integers(-w, w), min_size=16, max_size=16)
)


@given(coords=_WIDE_COORDS)
@settings(max_examples=300, deadline=None)
def test_profile_kernel_agrees_with_four_passes(coords):
    model, _ = build_model()
    v = model.lambda_Y.vector(coords)
    if v.is_zero():
        return
    assert vector_profile(v) == _reference_profile(v)
    assert _outcome(classify_isotropic_type, v) == _outcome(_reference_type, v)


@given(coords=_WIDE_COORDS, a=st.sampled_from([1, -1]), scale=st.sampled_from([1, 1, 2, 3]))
@settings(max_examples=300, deadline=None)
def test_profile_kernel_agrees_on_isotropic_vectors(coords, a, scale):
    v = scale * _isotropic(_off_u1(coords), a)
    assert square(v) == 0
    assert vector_profile(v) == _reference_profile(v)
    assert _outcome(classify_isotropic_type, v) == _outcome(_reference_type, v)


def test_profile_kernel_takes_integers_past_the_decimal_conversion_limit(setup):
    model, nv = setup
    big = 10**5000
    vectors = [
        model.lambda_Y.vector([big if i % 3 else -big for i in range(16)]),
        model.lambda_Y.vector([big + i for i in range(16)]),
        _isotropic(big * nv.eps[0] + (big + 1) * nv.gamma1 - nv.u[2]),
        _isotropic(-big * nv.e2 + nv.SigmaY, -1),
    ]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        for v in vectors:
            assert vector_profile(v) == _reference_profile(v)
        for v in vectors[2:]:
            assert classify_isotropic_type(v) == _reference_type(v)
    finally:
        sys.set_int_max_str_digits(limit)


def test_profile_kernel_source_is_pinned():
    """The g_i lines come from the lattice's G.x writer; the whole source text is pinned."""
    source = model_module._profile_source()
    assert len(source) == 970
    assert hashlib.sha256(source.encode()).hexdigest() == (
        "20706fecf53317733307c0796e5812127f9051b5f0fe94b97e796b32a586e507")


def test_profile_kernel_source_writes_every_integer_in_hex():
    source = model_module._profile_source()
    numbers = [t.string for t in tokenize.generate_tokens(io.StringIO(source).readline)
               if t.type == tokenize.NUMBER]
    assert numbers and all(n.startswith("0x") for n in numbers)


def test_type_keeps_its_error_paths(setup):
    model, nv = setup
    cases = [
        (model.lambda_Y.vector((0,) * 16), "type classification needs a primitive nonzero vector"),
        (2 * nv.L(0), "type classification needs a primitive nonzero vector"),
        (nv.L(1), "vector is not isotropic: q = 4"),
        (2 * nv.L(1) - nv.deltaY, "vector is not isotropic: q = 12"),
        (model.lambda_X.basis_vector(0), "expected a vector of LY"),
    ]
    for v, message in cases:
        with pytest.raises(LatticeError) as info:
            classify_isotropic_type(v)
        assert str(info.value) == message
        assert _outcome(_reference_type, v) == (LatticeError, message)


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


@pytest.fixture
def clear_representative_caches():
    model_module._checked_representative.cache_clear()
    yield
    model_module._checked_representative.cache_clear()


def test_wrong_representative_fails_invariant_match(setup, monkeypatch, clear_representative_caches):
    _, nv = setup
    monkeypatch.setitem(model_module._REPRESENTATIVES, "Case9", "L({i})+e2")  # square 4i - 4, not 4i
    for _ in range(2):  # the check is cached, the failure is not
        with pytest.raises(LatticeError, match="fails invariant match"):
            classify_orbit(nv.L(1) + nv.e2)


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


@pytest.mark.parametrize(
    "key,blocks,bound,count",
    [
        ("census-1", ("U1", "E8"), 1, 948),
        ("census-2", ("U1", "E8"), 2, 53172),
        ("window1", DEFAULT_WINDOW.blocks, 1, 1660),
        ("window2", SECOND_WINDOW.blocks, 2, 800),
        ("gap-before-G2", ("U1", "E8", "G2"), 1, 1300),
    ],
    ids=["census-1", "census-2", "window1", "window2", "gap-before-G2"],
)
def test_enumerate_windows_pinned(key, blocks, bound, count):
    """Count and pinned ``nikulat enumerate`` output: U1+E8 is the window the census
    classifies, window1/window2 feed the audit, and E8 + G2 are not adjacent."""
    answer = ANSWERS[f"enumerate:{key}"]
    assert answer.argv == ("enumerate", "--blocks", ",".join(blocks), "--bound", str(bound))
    out = output(answer)
    assert out.endswith(f"# {count} vectors\n".encode()) and out.count(b"\n") == count + 1
    answer.check()


def test_enumerate_rejects_empty_window():
    with pytest.raises(LatticeError):
        EnumerationWindow((), 1)
    with pytest.raises(LatticeError):
        EnumerationWindow(("U1",), 0)
    with pytest.raises(LatticeError):
        EnumerationWindow(("U9",), 1)


@pytest.mark.parametrize("bound", [True, 1.0, 2.5, "2", None], ids=repr)
def test_enumeration_window_rejects_a_bound_that_is_not_an_int(bound):
    with pytest.raises(LatticeError, match="integer"):
        EnumerationWindow(("U1",), bound)


@pytest.mark.parametrize("bound,target", [(True, 0), (1.0, 0), (0, 0), (-1, 0), (1, 0.5), (1, 0.0), (1, False)],
                         ids=repr)
def test_enumerate_with_square_rejects_a_bad_bound_or_target(setup, bound, target):
    model, _ = setup
    with pytest.raises(LatticeError):
        list(enumerate_with_square(model.lambda_Y, ("U1",), bound, target))


def test_enumerate_chains_a_layout_deeper_than_twenty_loops():
    """24 adjacent <-2> blocks form one definite run of 24 coordinates, more loops than
    one compiled function may nest; the roots at bound 1 are exactly the 48 vectors +-e_i."""
    lattice = direct_sum([Lattice(f"G{k}", ((-2,),), ((f"G{k}", 0, 1),)) for k in range(24)])
    roots = [v.coords for v in enumerate_with_square(lattice, tuple(f"G{k}" for k in range(24)), 1, -2)]
    unit = [tuple(int(i == k) for i in range(24)) for k in range(24)]
    assert roots == sorted([tuple(-c for c in e) for e in unit] + unit)


def test_enumerate_chains_a_layout_of_many_runs():
    """20 <-2> blocks parted by U planes, then the last plane: 21 runs, so the plane's box
    loop starts a chained function.  Square 0 at bound 1 means the plane alone at (+-1, 0)
    or (0, +-1), or the plane at +-(1, 1) with one <-2> coordinate +-1."""
    parts = []
    for k in range(20):
        parts += [Lattice(f"G{k}", ((-2,),), ((f"G{k}", 0, 1),)), Lattice(f"U{k}", ((0, 1), (1, 0)), ((f"U{k}", 0, 2),))]
    lattice = direct_sum(parts)
    blocks = tuple(f"G{k}" for k in range(20)) + ("U19",)
    found = [v.coords for v in enumerate_with_square(lattice, blocks, 1, 0)]
    expected = [(0,) * 58 + plane for plane in [(1, 0), (-1, 0), (0, 1), (0, -1)]]
    expected += [tuple(g if i == 3 * k else 0 for i in range(58)) + (s, s)
                 for k in range(20) for g in (-1, 1) for s in (-1, 1)]
    assert found == sorted(expected)


def test_enumerate_gram_entry_and_bound_past_the_digit_limit():
    """A <-10^5000> block puts 5,001-digit ellipsoid data into the generator's source."""
    huge = 10**5000
    lattice = Lattice("huge", ((-huge,),))
    assert [v.coords for v in enumerate_with_square(lattice, ("huge",), huge, -huge)] == [(-1,), (1,)]


@pytest.mark.parametrize("target", [10**5000, -10**5000], ids=["plus", "minus"])
def test_enumerate_huge_target_compiles_and_finds_nothing(setup, target):
    model, _ = setup
    assert list(enumerate_with_square(model.lambda_Y, ("U1", "E8", "G1", "G2"), 1, target)) == []


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
    roots = list(enumerate_with_square(model.lambda_Y, ("E8",), 1, target=-2))
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


# --- one profile per vector object -------------------------------------------------

_READERS = {"vector_profile": vector_profile, "classify_orbit": classify_orbit,
            "classify_isotropic_type": classify_isotropic_type}


def _memo_free(name, v):
    """What reader ``name`` answers for ``v`` with no profile held: the profile kernel's fields,
    the decision table and the type map, every value through its public constructor."""
    model, _ = build_model()
    if v.lattice != model.lambda_Y:
        raise LatticeError("expected a vector of LY")
    profile = VectorProfile(*model_module._profile_kernel()(v.coords))
    if name == "classify_isotropic_type":
        if not profile.primitive:
            raise LatticeError("type classification needs a primitive nonzero vector")
        if profile.q != 0:
            raise LatticeError(f"vector is not isotropic: q = {profile.q}")
        label, expr, polarisation = {1: ("A", "L(1)+e2", (1, 2)), 2: ("B", "L(0)", (1, 1))}[profile.div]
        sigma = profile.pair_sigma_mod4
        return FibrationType(label, parse_vector(expr), expr, polarisation, sigma, sigma == 2)
    if v.is_zero():
        raise LatticeError("profile of the zero vector is undefined")
    if name == "vector_profile":
        return profile
    if not profile.primitive:
        raise LatticeError("vector not primitive")
    matches = [("Star1", profile.q // 4)] if profile.star else model_module._row_matches(profile)
    if not matches:
        return OrbitClass("Unmatched", 0, v, "(input)", profile, f"no printed row matches profile {profile}")
    (case, i), = matches
    rep, expr = case_representative(case, i)
    note = "" if i >= 0 else "parameter i is negative: outside the table's stated range i in N"
    return OrbitClass(case, i, rep, expr, profile, note)


def _special_vectors():
    model, nv = build_model()
    return [model.lambda_Y.vector((0,) * 16), 2 * nv.L(0), 2 * nv.u[0] + nv.u[1] + 2 * nv.e1 + nv.gamma1,
            nv.u[0] - 2 * nv.u[1], nv.L(1) + nv.e2, nv.L(0), model.lambda_X.basis_vector(0)]


_STEP = st.tuples(
    st.sampled_from(sorted(_READERS)),
    st.sampled_from(["same", "twin", "other", "isotropic", "special"]),
    st.lists(st.integers(-3, 3), min_size=16, max_size=16),
    st.integers(0, len(_special_vectors()) - 1),
)


@given(steps=st.lists(_STEP, min_size=1, max_size=12))
@settings(max_examples=300, deadline=None)
def test_readers_share_a_profile_and_answer_as_without_it(steps):
    """Any interleaving of the three readers on the same vector object, on a new vector with
    equal coordinates, and on other vectors answers as the memo-free reference does."""
    model, _ = build_model()
    v = model.lambda_Y.vector([1] + [0] * 15)
    for name, pick, coords, special in steps:
        if pick == "twin":
            v = v.lattice.vector(list(v.coords))  # equal coordinates, another tuple
        elif pick == "other":
            v = model.lambda_Y.vector(coords)
        elif pick == "isotropic":
            v = _isotropic(_off_u1(coords))
        elif pick == "special":
            v = _special_vectors()[special]
        assert _outcome(_READERS[name], v) == _outcome(lambda w: _memo_free(name, w), v)


@pytest.fixture
def kernel_calls(monkeypatch):
    """The coordinate tuples handed to the profile kernel during a test."""
    calls, kernel = [], model_module._profile_kernel()
    monkeypatch.setattr(model_module, "_profile_kernel", lambda: lambda x: calls.append(x) or kernel(x))
    return calls


def test_one_vector_is_profiled_once(setup, kernel_calls):
    _, nv = setup
    v = nv.L(1) + nv.e2
    assert vector_profile(v) is vector_profile(v)
    assert classify_orbit(v).profile is vector_profile(v)
    assert classify_isotropic_type(v).type_label == "A"
    assert [id(x) for x in kernel_calls] == [id(v.coords)]
    twin = v.lattice.vector(list(v.coords))  # equal coordinates, another tuple: computed afresh
    twin_profile, profile = vector_profile(twin), vector_profile(v)
    assert twin_profile == profile and twin_profile is not profile
    assert [id(x) for x in kernel_calls] == [id(v.coords), id(twin.coords), id(v.coords)]


def test_classify_command_profiles_once(capsys, kernel_calls):
    from nikulat.cli import main
    assert main(["classify", "L(1)+e2"]) == 0
    assert "Case9 i=0" in capsys.readouterr().out and len(kernel_calls) == 1


def test_errors_hold_while_a_profile_is_held(setup):
    model, nv = setup
    zero = model.lambda_Y.vector((0,) * 16)
    doubled = Lattice("LY(2)", [[2 * g for g in row] for row in model.lambda_Y.gram])
    errors = ((vector_profile, "profile of the zero vector is undefined"),
              (classify_orbit, "profile of the zero vector is undefined"),
              (classify_isotropic_type, "type classification needs a primitive nonzero vector"))
    for held in (nv.L(0), zero):
        with contextlib.suppress(LatticeError):
            classify_isotropic_type(held)  # holds the profile of held, the zero vector's too
        outside = doubled.vector(held.coords)
        assert outside.coords is model_module._held[0]  # the held tuple, as coordinates outside LY
        for reader in _READERS.values():
            with pytest.raises(LatticeError, match="^expected a vector of LY$"):
                reader(outside)
        for reader, message in errors:
            with pytest.raises(LatticeError, match=f"^{message}$"):
                reader(zero)


def test_two_threads_never_see_each_others_profile(setup):
    _, nv = setup
    vectors = (nv.L(1) + nv.e2, nv.L(0))
    expected = [(vector_profile(v), classify_orbit(v), classify_isotropic_type(v)) for v in vectors]
    wrong = []

    def classify(v, answers):
        for _ in range(10_000):
            got = (vector_profile(v), classify_orbit(v), classify_isotropic_type(v))
            if got != answers:
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter allows
    try:
        threads = [threading.Thread(target=classify, args=args) for args in zip(vectors, expected)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not wrong


# --- the value types ------------------------------------------------------------------


def _values():
    """A classifier-built value of each type, with its twin from the public constructor."""
    _, nv = build_model()
    v = nv.L(1) + nv.e2
    built = (vector_profile(v), classify_orbit(v), classify_isotropic_type(v), classify_orbit(nv.u[0] - 2 * nv.u[1]))
    return [(value, type(value)(*(getattr(value, f.name) for f in dataclasses.fields(value)))) for value in built]


def test_value_types_are_slotted_and_frozen():
    for value, _ in _values():
        assert not hasattr(value, "__dict__")
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
        # a name that is no field has no slot; CPython 3.11 raises TypeError here
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            value.other = 1


def test_built_values_equal_constructed_ones():
    for value, constructed in _values():
        for twin in (constructed, copy.copy(value), copy.deepcopy(value), dataclasses.replace(value)):
            assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)
            assert type(twin) is type(value) and dataclasses.asdict(twin) == dataclasses.asdict(value)


def test_values_pickle_and_copy_before_and_after_their_kernels_compile(setup):
    model, nv = setup
    ly = model.lambda_Y
    fresh = Lattice(ly.label, ly.gram, ly.blocks)  # a new lattice: no kernel compiled yet
    eta = eta_from_matrix(eta_as_written_matrix())  # a new map: no image compiled yet
    w = fresh.vector(nv.w.coords)
    values = [fresh, w, eta] + [value for value, _ in _values()]
    for compiled in (False, True):
        if compiled:
            assert square(w) == -2 and eta(eta.domain.basis_vector(0)) == eta.column_vectors()[0]
            assert "invariant_kernels" in vars(fresh) and "image_kernel" in vars(eta)
        for value in values:
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)
    twin_lattice, twin_map = copy.deepcopy(fresh), pickle.loads(pickle.dumps(eta))
    assert "invariant_kernels" not in vars(twin_lattice) and "image_kernel" not in vars(twin_map)
    assert square(twin_lattice.vector(nv.w.coords)) == -2  # compiled afresh on first use
    assert twin_map(twin_map.domain.basis_vector(6)) == eta(eta.domain.basis_vector(6))
