"""The claim catalog: statuses, witnesses, determinism, coefficient solver."""

import dataclasses
import json

import pytest

from answers import ANSWERS
from nikulat import OrbitBudget, divisibility, mt_coefficients, run_all, run_claim
from nikulat import serialize
from nikulat.audit import (
    CATALOG,
    NOT_CHECKABLE,
    REFUTED,
    VERIFIED,
    AuditContext,
    AuditReport,
    _refuted_index_note,
)
from nikulat.core import build_model, eta_as_written_matrix, eta_from_matrix
from nikulat.exprs import parse_vector
from nikulat.lattice import EmbeddingMap, EmbeddingReport

TINY = OrbitBudget(coord_bound=1, max_frontier=2000, max_depth=2)


@pytest.fixture(scope="module")
def report():
    return run_all()


def test_catalog_size_and_unique_ids():
    assert len(CATALOG) == 11
    assert len({c.id for c in CATALOG}) == 11


def test_expected_statuses(report):
    expected = {
        "table-selfconsistency": VERIFIED,
        "reflection-chain": VERIFIED,
        "two-orbit-dichotomy": VERIFIED,
        "divisibility-remark": REFUTED,
        "third-orbit-discriminant": VERIFIED,
        "eta-embedding": REFUTED,
        "invariant-type-a": VERIFIED,
        "antiinvariant-type-b": VERIFIED,
        "mt-coefficients": VERIFIED,
        "type-polarisation-map": VERIFIED,
        "picard-sublattice-index": REFUTED,
    }
    got = {r.id: r.status for r in report.results}
    assert got == expected
    assert report.unexpected == ()
    assert report.exit_code == 0
    assert report.counts()["NotCheckable"] == 0


def test_results_in_catalog_order(report):
    assert [r.id for r in report.results] == [c.id for c in CATALOG]


def test_reflection_chain_computed(report):
    computed = {r.id: r.computed for r in report.results}["reflection-chain"]
    assert computed["w_square"] == -2
    assert computed["pairing"] == 5
    assert computed["e8_square"] == -94
    assert computed["e8_square_mod4"] == 2
    assert computed["image_expr"] == "6*L(1)+e2+5*ew+5*gamma1"
    assert computed["image_div"] == 1
    assert computed["image_case"][0] == "Case8"


def test_divisibility_remark_swap(report):
    computed = {r.id: r.computed for r in report.results}["divisibility-remark"]
    assert computed["div_L0"] == 2
    assert computed["div_L1e2"] == 1
    assert computed["as_printed"] == REFUTED
    assert computed["with_swap"] == VERIFIED


def test_eta_claim_sub_statements(report):
    computed = {r.id: r.computed for r in report.results}["eta-embedding"]
    assert computed["gram_pair_checks"] == 120
    assert computed["gram_pair_failures"] == 0
    assert computed["isometric"] is True
    assert computed["primitive"] is False
    assert computed["saturation_index"] == 256


def test_picard_claim_witnesses(report):
    computed = {r.id: r.computed for r in report.results}["picard-sublattice-index"]
    assert computed["full_rank_index"] == 512
    assert computed["rank2_span_indices"] == {
        "u1+2*u2-alpha": 1,
        "2*u1+2*u2+eps1-alpha": 2,
        "u1+u2": 1,
    }


def test_refuted_results_carry_witnesses(report):
    for r in report.results:
        assert ("counter_witness" in r.computed) == (r.status == REFUTED), r.id


def test_run_adds_the_witness_a_checker_returns():
    """A checker refutes by returning a counter-witness; Claim.run alone records it."""
    def refutes(ctx, stated):
        return {"x": 1}, {"w": 2}, "no"

    def holds(ctx, stated):
        return {"x": 1}, None, "yes"

    ctx = AuditContext(TINY)
    refuted = dataclasses.replace(CATALOG[0], check=refutes).run(ctx)
    assert (refuted.status, refuted.computed, refuted.note) == (REFUTED, {"x": 1, "counter_witness": {"w": 2}}, "no")
    verified = dataclasses.replace(CATALOG[0], check=holds).run(ctx)
    assert (verified.status, verified.computed, verified.note) == (VERIFIED, {"x": 1}, "yes")


def test_verified_claim_carries_no_counter_witness():
    """The divisibility remark with its two values swapped holds, and then names no witness."""
    claim = next(c for c in CATALOG if c.id == "divisibility-remark")
    result = dataclasses.replace(claim, stated={"div_L0": 2, "div_L1e2": 1}).run(AuditContext(TINY))
    assert result.status == VERIFIED
    assert "counter_witness" not in result.computed


def test_each_eta_sample_is_mapped_once(monkeypatch):
    """The eta claims share one set of images: no Lfix sample goes through eta twice."""
    calls = []
    call = EmbeddingMap.__call__

    def recording(self, v):
        calls.append(v.coords)
        return call(self, v)

    monkeypatch.setattr(EmbeddingMap, "__call__", recording)
    run_all(budget=TINY)
    assert calls and len(calls) == len(set(calls))


def test_refuted_witness_recheck(report):
    """Feeding a counter-witness back through the operation reproduces it."""
    _, nv = build_model()
    witness = {r.id: r.computed["counter_witness"] for r in report.results if r.status == REFUTED}
    assert divisibility(nv.L(0)) == witness["divisibility-remark"]["div_L0"]
    assert divisibility(nv.L(1) + nv.e2) == witness["divisibility-remark"]["div_L1e2"]
    from nikulat import check_embedding, eta_embedding

    assert (
        check_embedding(eta_embedding()).saturation_index
        == witness["eta-embedding"]["saturation_index"]
    )


def test_run_claim_single():
    result = run_claim("mt-coefficients")
    assert result.status == VERIFIED
    assert result.computed["a"] == 1


def test_run_claim_unknown():
    from nikulat import LatticeError

    with pytest.raises(LatticeError):
        run_claim("no-such-claim")


def test_run_all_deterministic_and_idempotent(report):
    again = run_all()
    assert serialize.dumps(again.to_obj()) == serialize.dumps(report.to_obj())


def test_report_json_round_trips_byte_identically(report):
    text = serialize.dumps(report.to_obj())
    assert serialize.dumps(json.loads(text)) == text


def test_report_json_pinned(report):
    """The library's report serialises to the report.json that the ledger pins for ``nikulat audit``."""
    mismatch = ANSWERS["audit"].mismatch((serialize.dumps(report.to_obj()) + "\n").encode())
    assert not mismatch, mismatch


def test_report_schema(report):
    for obj in report.to_obj():
        assert set(obj) == {"id", "status", "computed", "note"}


def test_tiny_budget_notes_reduced_coverage():
    tiny = run_all(budget=OrbitBudget(coord_bound=1, max_frontier=2000, max_depth=2))
    by_id = {r.id: r for r in tiny.results}
    assert "reduced coverage" in (
        by_id["two-orbit-dichotomy"].note + by_id["third-orbit-discriminant"].note
    )
    # arithmetic claims are unaffected by the budget
    assert by_id["mt-coefficients"].status == VERIFIED
    assert by_id["table-selfconsistency"].status == VERIFIED


def test_user_eta_variant_is_exploratory():
    rows = [[0] * 15 for _ in range(16)]
    for k in range(15):
        rows[k][k] = 1
    report = run_all(
        budget=OrbitBudget(coord_bound=1, max_frontier=2000, max_depth=2),
        eta=("inclusion", eta_from_matrix(rows)),
    )
    by_id = {r.id: r for r in report.results}
    assert by_id["eta-embedding"].status == REFUTED  # not even isometric
    assert "eta-embedding" not in report.unexpected  # per-variant, not an expectation
    assert report.exit_code == 0


def test_user_map_labelled_as_written_is_still_per_variant():
    """Per-variant marking follows whether a map was supplied, not the label text."""
    report = run_all(budget=TINY, eta=("as-written", eta_from_matrix(eta_as_written_matrix())))
    assert report.to_obj() == run_all(budget=TINY).to_obj()
    assert "(per-variant)" in report.to_text()
    assert "(per-variant)" not in run_all(budget=TINY).to_text()


def test_supplied_eta_pair_names_the_variant():
    """The label of a supplied (label, map) pair names the variant in the text, the results and the context."""
    eta = ("copy", eta_from_matrix(eta_as_written_matrix()))
    report = run_all(budget=TINY, eta=eta)
    assert "eta variant: copy" in report.to_text()
    assert {r.computed["eta_variant"] for r in report.results if "eta_variant" in r.computed} == {"copy"}
    assert run_claim("eta-embedding", eta=eta).computed["eta_variant"] == "copy"
    assert (AuditContext(TINY, eta).eta_label, AuditContext(TINY).eta_label) == ("copy", "as-written")


def test_a_verdict_other_than_expected_exits_1(report):
    """A verdict that differs from its claim's expectation is unexpected: marked in the text, exit code 1."""
    flipped = tuple(
        dataclasses.replace(r, status=REFUTED, computed={"counter_witness": None}) if r.id == "mt-coefficients" else r
        for r in report.results
    )
    bad = AuditReport(flipped, report.budget, report.eta_label)
    assert (report.unexpected, report.exit_code) == ((), 0)
    assert (bad.unexpected, bad.exit_code) == (("mt-coefficients",), 1)
    text = bad.to_text()
    assert [line for line in text.splitlines() if "<< UNEXPECTED" in line] == [
        f"{'mt-coefficients':28s} {REFUTED:12s} expected {VERIFIED}  << UNEXPECTED"
    ]
    assert text.endswith("unexpected 1\n")


def test_refuted_index_note_names_the_computed_index():
    def note(index, factors):
        return _refuted_index_note(2, EmbeddingReport(True, False, index, factors))

    prefix = "isometric and non-primitive confirmed; the stated saturation index 2 is refuted for this variant "
    assert note(256, (2,) * 8) == prefix + "(computed 2^8: the E8 block lands on 2*E8(-1))"
    assert note(256, (4, 4, 4, 4)) == prefix + "(computed 2^8)"
    assert note(4, (2, 2)) == prefix + "(computed 2^2)"
    assert note(12, (2, 6)) == prefix + "(computed 12)"
    assert note(2, (2,)) == prefix + "(computed 2)"


def test_non_isometric_eta_variant_is_not_checkable():
    """Claims whose checks the variant makes impossible are NotCheckable, not a crash."""
    rows = [list(row) for row in eta_as_written_matrix()]
    rows[0][0] = 2  # no longer isometric
    report = run_all(budget=TINY, eta=("broken", eta_from_matrix(rows)))
    by_id = {r.id: r for r in report.results}
    assert by_id["invariant-type-a"].status == NOT_CHECKABLE
    assert by_id["invariant-type-a"].computed == {"error": "vector is not isotropic: q = 4"}
    assert by_id["antiinvariant-type-b"].status == NOT_CHECKABLE
    assert by_id["antiinvariant-type-b"].computed == {"error": "vector is not isotropic: q = 16"}
    assert report.counts()[NOT_CHECKABLE] == 2
    assert report.unexpected == ()
    assert report.exit_code == 0
    assert "not-checkable 2" in report.to_text()


def test_third_orbit_parity_chain_fires():
    """u1+gamma1 is primitive with divisibility 2, (v, SigmaY) = 2 mod 4 and gamma
    part (1, 0), so it trips both the residue check and the parity chain.

    The chain's E8 clause (E8 part divisible by 2) cannot be tripped alone:
    divisibility 2 makes (v, eps_i) even for every i, and E8(-1) is unimodular,
    so the E8 part of a divisibility-2 vector is always even.
    """
    v = parse_vector("u1+gamma1")
    ctx = AuditContext(TINY)
    ctx.window_vectors = ((v,), ())
    claim = next(c for c in CATALOG if c.id == "third-orbit-discriminant")
    result = claim.run(ctx)
    obj = {"lattice": "LY", "coords": list(v.coords)}
    assert result.status == REFUTED
    assert result.computed["sigma_pairing_counterexamples"] == [obj]
    assert result.computed["parity_chain_violations"] == [obj]


def _changed(value):
    """A different value of the same type, for a stated value of the catalog."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + 1,)
    return {"even": "odd", "A": "B", "B": "A", "Case8": "Case9"}.get(value, value + "+2*e1")


def test_stated_values_drive_every_claim():
    """Every stated value is read: changing any one of them changes the claim's result."""
    ctx = AuditContext(TINY)
    for claim in CATALOG:
        assert claim.stated, claim.id
        baseline = claim.run(ctx).to_obj()
        for key, value in claim.stated.items():
            variant = dataclasses.replace(claim, stated={**claim.stated, key: _changed(value)})
            assert variant.run(ctx).to_obj() != baseline, (claim.id, key)


# --- mt_coefficients -------------------------------------------------------------


def test_mt_headline():
    record = mt_coefficients(4, 48, 2)
    assert record.ok
    assert record.a == 1
    assert set(record.k_candidates) == {1, -1}
    assert set(record.pair_sigma_values) == {2, -2}
    assert record.pair_sigma_mod4 == 2
    assert record.type_label == "A"


def test_mt_double_intersection():
    record = mt_coefficients(4, 96, 2)
    assert record.ok
    assert record.a == 2
    assert set(record.k_candidates) == {2, -2}
    assert record.pair_sigma_mod4 == 0
    assert record.type_label == "undetermined-by-residue"


def test_mt_non_integral():
    record = mt_coefficients(4, 50, 2)
    assert not record.ok
    assert record.a is None
    assert "not divisible" in record.reason


def test_mt_non_square_k():
    record = mt_coefficients(4, 48, 6)  # k^2 = 3
    assert not record.ok
    assert "perfect square" in record.reason


@pytest.mark.parametrize(
    "args, a, reason",
    [
        ((4, 50, 2), None, "intersection number 50 is not divisible by 3*qH^2 = 48"),
        ((4, 48, 1), 1, "a^2 * q(H-delta) = 1 is odd"),
        ((4, 48, 6), 1, "k^2 = 3 is not a perfect square"),
    ],
    ids=["non-integral-a", "odd-k-square", "non-square-k"],
)
def test_mt_failure_records(args, a, reason):
    assert mt_coefficients(*args).to_obj() == {
        "ok": False,
        "a": a,
        "k_candidates": [],
        "pair_sigma_values": [],
        "pair_sigma_mod4": None,
        "type": None,
        "reason": reason,
    }


def test_mt_requires_positive_qh():
    from nikulat import LatticeError

    with pytest.raises(LatticeError):
        mt_coefficients(0, 48, 2)


def test_text_report_mentions_expectations(report):
    text = report.to_text()
    assert "unexpected 0" in text
    assert "divisibility-remark" in text
