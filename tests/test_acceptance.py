"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
expected value here is exact integer arithmetic; the time limits are part of
the criteria and are asserted.
"""

import random
import time

import pytest

from answers import ANSWERS, ORBIT_SIZES
from dense import smith_certified

from nikulat import (
    OrbitBudget,
    check_embedding,
    discriminant_group,
    divisibility,
    is_primitive,
    mt_coefficients,
    orbit_explore,
    pair,
    reflection,
    run_claim,
    square,
)
from nikulat import serialize
from nikulat.core import build_model, default_generators, eta_embedding
from nikulat.intmat import det, smith_decomposition
from nikulat.lattice import E8_NEG_GRAM
from nikulat.model import (
    DEFAULT_WINDOW,
    SECOND_WINDOW,
    case_representative,
    classify_orbit,
    enumerate_primitive_isotropic,
    enumerate_with_square,
)


def report(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def model_vectors():
    return build_model()


@pytest.fixture(scope="module")
def desk_scale_run(model_vectors):
    """Shared run for criteria 4 and 5: both windows plus both default-budget orbits."""
    _, nv = model_vectors
    start = time.monotonic()
    window1 = list(enumerate_primitive_isotropic(DEFAULT_WINDOW))
    window2 = list(enumerate_primitive_isotropic(SECOND_WINDOW))
    gens = default_generators()
    orbit_b = orbit_explore(nv.L(0), gens, OrbitBudget())
    orbit_a = orbit_explore(nv.L(1) + nv.e2, gens, OrbitBudget())
    elapsed = time.monotonic() - start
    return window1, window2, orbit_a, orbit_b, elapsed


def test_criterion_1_named_vector_constants(model_vectors):
    _, nv = model_vectors
    start = time.monotonic()
    ok = all(square(nv.L(i)) == 4 * i for i in range(4))
    ok = ok and square(nv.w) == -2
    ok = ok and pair(nv.L(1) + nv.e2, nv.w) == 5
    ok = ok and pair(nv.e2, nv.ew) == 1
    ok = ok and time.monotonic() - start < 1.0
    report(1, "named-vector constants (L(i)^2 = 4i, w^2 = -2, pairings 5 and 1)", ok)


def test_criterion_2_reflection_chain(model_vectors):
    _, nv = model_vectors
    start = time.monotonic()
    v = nv.L(1) + nv.e2
    image = reflection(nv.w)(v)
    e8_square = square(nv.e2 + 5 * nv.ew)
    ok = image == v + 5 * nv.w
    ok = ok and e8_square == -94 and e8_square % 4 == 2
    ok = ok and is_primitive(image) and square(image) == 0 and divisibility(image) == 1
    ok = ok and time.monotonic() - start < 1.0
    report(2, "reflection chain R_w(L(1)+e2) = L(1)+e2+5w with E8-square -94 = 2 mod 4", ok)


def test_criterion_3_table_self_consistency():
    start = time.monotonic()
    ok = True
    for case in ["Star1"] + [f"Case{k}" for k in range(2, 10)]:
        for i in range(4):
            rep, _ = case_representative(case, i)
            got = classify_orbit(rep)
            ok = ok and (got.case, got.i) == (case, i)
    ok = ok and time.monotonic() - start < 1.0
    report(3, "decision-table self-consistency for rows 1-9, i in 0..3", ok)


def test_criterion_4_two_orbit_dichotomy(model_vectors, desk_scale_run):
    _, nv = model_vectors
    window1, window2, orbit_a, orbit_b, elapsed = desk_scale_run
    lat = nv.L(0).lattice
    ok = all(divisibility(v) in (1, 2) for v in window1)
    ok = ok and all(divisibility(v) in (1, 2) for v in window2)
    ok = ok and not (set(orbit_a.members) & set(orbit_b.members))
    ok = ok and all(
        divisibility(lat.vector(c)) == 1 and square(lat.vector(c)) == 0
        for c in orbit_a.members
    )
    ok = ok and all(
        divisibility(lat.vector(c)) == 2 and square(lat.vector(c)) == 0
        for c in orbit_b.members
    )
    ok = ok and elapsed <= 300.0
    report(
        4,
        f"two-orbit dichotomy: {len(window1)}+{len(window2)} window vectors, "
        f"orbits {len(orbit_a)}/{len(orbit_b)} disjoint and invariant-pure "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_default_orbits_pinned(desk_scale_run):
    """Both orbits serialise to the files that the ledger pins for ``nikulat orbit SEED -o FILE``."""
    _, _, orbit_a, orbit_b, _ = desk_scale_run
    orbits = {"L(0)": orbit_b, "L(1)+e2": orbit_a}
    mismatches = [
        ANSWERS[f"orbit:{seed}"].mismatch((serialize.dumps(serialize.orbit_to_obj(orbit)) + "\n").encode())
        for seed, orbit in orbits.items()
    ]
    sizes = {seed: (len(orbit), orbit.exhausted) for seed, orbit in orbits.items()}
    report(4, f"default-budget orbits {sizes} match their pinned sha256", not any(mismatches))
    assert sizes == ORBIT_SIZES


def test_criterion_5_sigma_pairing_discriminant(model_vectors, desk_scale_run):
    _, nv = model_vectors
    window1, window2, _, _, _ = desk_scale_run
    counterexamples = [
        v
        for v in window1 + window2
        if divisibility(v) == 2 and square(v) == 0 and pair(v, nv.SigmaY) % 4 != 0
    ]
    report(
        5,
        f"(div = 2 and q = 0) forces (v, SigmaY) = 0 mod 4: "
        f"{len(counterexamples)} counterexamples over both windows",
        not counterexamples,
    )


def test_criterion_6_eta_audit():
    start = time.monotonic()
    emb = eta_embedding()
    cols = emb.column_vectors()
    pairs_checked = 0
    gram_ok = True
    for i in range(15):
        for j in range(i, 15):
            pairs_checked += 1
            gram_ok = gram_ok and pair(cols[i], cols[j]) == emb.domain.gram[i][j]
    embedding_report = check_embedding(emb)
    claim = run_claim("eta-embedding")
    elapsed = time.monotonic() - start
    ok = (
        pairs_checked == 120
        and gram_ok
        and not embedding_report.primitive
        and embedding_report.saturation_index == 2**8
        and claim.status == "Refuted"
        and "refuted" in claim.note
        and elapsed < 10.0
    )
    report(
        6,
        f"eta is Gram-conserving from Lfix(2) over 120 pair checks, non-primitive, "
        f"saturation index 2^8; index-2 statement flagged Refuted ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_7_mt_arithmetic():
    record = mt_coefficients(4, 48, 2)
    ok = (
        record.ok
        and record.a == 1
        and set(record.k_candidates) == {1, -1}
        and record.pair_sigma_mod4 == 2
        and record.type_label == "A"
    )
    report(7, "coefficient arithmetic: a = 1, k = +-1, (l_Y,SigmaY) = 2 mod 4, type A", ok)


def test_criterion_8_divisibility_remark(model_vectors):
    _, nv = model_vectors
    claim = run_claim("divisibility-remark")
    computed = claim.computed
    ok = claim.status == "Refuted"
    ok = ok and computed["div_L0"] == 2 and computed["div_L1e2"] == 1
    ok = ok and computed["with_swap"] == "Verified"
    # consistency with the embedding consequences: halves of invariant images
    # have div 1 (type A side), embedded classes have even div (type B side)
    invariant = run_claim("invariant-type-a")
    antiinvariant = run_claim("antiinvariant-type-b")
    ok = ok and invariant.status == "Verified" and antiinvariant.status == "Verified"
    ok = ok and divisibility(nv.L(1) + nv.e2) == 1 and divisibility(nv.L(0)) == 2
    report(
        8,
        "divisibility remark refuted as printed (div L(0) = 2, div L(1)+e2 = 1); "
        "swapped assignment consistent with the type-A/type-B lemmas",
        ok,
    )


def test_criterion_9_infrastructure(model_vectors):
    model, nv = model_vectors
    start = time.monotonic()
    rng = random.Random(20260809)

    snf_ok = True
    for _ in range(500):
        nrows = rng.randint(1, 16)
        ncols = rng.randint(1, 16)
        m = tuple(
            tuple(rng.randint(-9, 9) for _ in range(ncols)) for _ in range(nrows)
        )
        snf_ok = snf_ok and smith_certified(m, smith_decomposition(m))

    disc = discriminant_group(model.lambda_Y)
    order = 1
    for f in disc:
        order *= f
    cartan = tuple(tuple(-x for x in row) for row in E8_NEG_GRAM)
    dets_ok = order == 256 and det(cartan) == 1

    roots = list(
        enumerate_with_square(model.lambda_Y, ("U1", "E8", "G1", "G2"), 1, target=-2)
    )
    invariance_ok = True
    for _ in range(1000):
        root = roots[rng.randrange(len(roots))]
        coords = [rng.randint(-6, 6) for _ in range(16)]
        if not any(coords):
            coords[0] = 1
        v = model.lambda_Y.vector(coords)
        image = reflection(root)(v)
        invariance_ok = invariance_ok and (
            square(image) == square(v)
            and divisibility(image) == divisibility(v)
            and is_primitive(image) == is_primitive(v)
        )

    elapsed = time.monotonic() - start
    ok = snf_ok and dets_ok and invariance_ok and elapsed <= 60.0
    report(
        9,
        f"infrastructure: 500 SNF round-trips, disc(LY) order 256, det(E8 Cartan) = 1, "
        f"1000 reflection-invariance checks ({elapsed:.1f}s)",
        ok,
    )
