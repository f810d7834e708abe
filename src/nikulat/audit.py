"""Machine-checked audit of the displayed computations behind the classifier.

Every claim in the catalog pins one arithmetic statement from the derivation
this package mechanizes: ``@_claim`` declares its stated values next to the
checker, which recomputes them with exact arithmetic and compares against
them.  A checker refutes by returning a counter-witness, and holds by
returning ``None`` in its place; ``AuditContext`` builds the inputs claims
share, namely the enumeration windows and the eta images of the Lfix
samples, once per run.  The verdict is Verified, Refuted (always with the
counter-witness) or NotCheckable (the lattice operations rejected the input).
Three catalog entries are EXPECTED to be refuted as printed (a transposed
divisibility remark and the index-2 statements about the doubling embedding),
so a run is "clean" when every verdict matches its expectation.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from math import isqrt
from typing import Callable

from .core import build_model, default_generators, eta_embedding
from .exprs import parse_vector
from .isometry import OrbitBudget, orbit_explore
from .lattice import (
    EmbeddingMap,
    EmbeddingReport,
    LatticeError,
    LatticeVector,
    check_embedding,
    divisibility,
    is_primitive,
    pair,
    reflection,
    saturate,
    square,
)
from .model import (
    DEFAULT_WINDOW,
    ORBIT_CASES,
    SECOND_WINDOW,
    EnumerationWindow,
    case_representative,
    classify_isotropic_type,
    classify_orbit,
    enumerate_primitive_isotropic,
    enumerate_with_square,
    vector_profile,
)
from .serialize import vector_to_obj

VERIFIED = "Verified"
REFUTED = "Refuted"
NOT_CHECKABLE = "NotCheckable"

#: the two enumeration windows the audit samples, at their full bounds
_WINDOWS = (DEFAULT_WINDOW, SECOND_WINDOW)


@dataclass(frozen=True)
class ClaimResult:
    id: str
    status: str
    computed: dict
    note: str = ""

    def __post_init__(self) -> None:
        if self.status not in (VERIFIED, REFUTED, NOT_CHECKABLE):
            raise LatticeError(f"unknown status {self.status!r}")
        if self.status == REFUTED and "counter_witness" not in self.computed:
            raise LatticeError("a Refuted result must carry a counter-witness")

    def to_obj(self) -> dict:
        return {"id": self.id, "status": self.status, "computed": self.computed, "note": self.note}


@dataclass
class AuditContext:
    """The inputs claims share in one audit run, each built once: the
    enumeration windows and their vectors, and the eta images of the Lfix samples.

    ``eta`` is the variant under audit, a ``(label, EmbeddingMap)`` pair, or
    ``None`` for the as-written eta.
    """

    budget: OrbitBudget
    eta: tuple[str, EmbeddingMap] | None = None

    def __post_init__(self) -> None:
        self.eta_label, self.eta_map = self.eta or ("as-written", eta_embedding())

    @cached_property
    def windows(self) -> tuple[EnumerationWindow, ...]:
        """The audit windows, their bounds capped by the budget's coordinate bound."""
        return tuple(EnumerationWindow(w.blocks, min(w.bound, self.budget.coord_bound)) for w in _WINDOWS)

    @cached_property
    def window_vectors(self) -> tuple[tuple[LatticeVector, ...], ...]:
        return tuple(tuple(enumerate_primitive_isotropic(w)) for w in self.windows)

    @cached_property
    def eta_images(self) -> tuple[tuple[str, LatticeVector, LatticeVector], ...]:
        """``(label, sample, eta image)`` for the U^3 samples, labelled "u-only",
        then for the documented mixed samples."""
        samples = [("u-only", v) for v in _fix_u_only_samples()] + list(_fix_mixed_samples())
        assert all(square(v) == 0 and is_primitive(v) for _, v in samples)
        dom = self.eta_map.domain  # Lfix(2): the samples are Lfix's enumerated or summed ints, of its rank
        return tuple((label, v, self.eta_map(LatticeVector._of_ints(dom, v.coords))) for label, v in samples)

    def coverage_note(self) -> str:
        full = tuple(w.bound for w in _WINDOWS)
        used = tuple(w.bound for w in self.windows)
        if used == full:
            return ""
        return f"reduced coverage: window bounds {used} instead of {full} under this budget"


@dataclass(frozen=True)
class Claim:
    """One printed statement.  ``check(ctx, stated)`` returns ``(computed,
    counter_witness, note)``, with ``None`` for the witness when the statement
    holds; only ``run`` puts a witness into a result.  ``eta_dependent`` claims
    are expected only of the as-written eta."""

    id: str
    expected_status: str
    stated: dict
    check: Callable[[AuditContext, dict], tuple[dict, object, str]]
    eta_dependent: bool = False

    def run(self, ctx: AuditContext) -> ClaimResult:
        """The claim's verdict; input the lattice operations reject is NotCheckable."""
        try:
            computed, witness, note = self.check(ctx, self.stated)
        except LatticeError as exc:
            return ClaimResult(self.id, NOT_CHECKABLE, {"error": str(exc)})
        if witness is None:
            return ClaimResult(self.id, VERIFIED, computed, note)
        return ClaimResult(self.id, REFUTED, {**computed, "counter_witness": witness}, note)


#: the claims in report order, registered by ``_claim`` as the checkers are defined
CATALOG: list[Claim] = []


def _claim(claim_id: str, expected_status: str, eta_dependent: bool = False, **stated):
    """Register the decorated checker as a catalog claim with these stated values."""
    def register(check):
        CATALOG.append(Claim(claim_id, expected_status, stated, check, eta_dependent))
        return check
    return register


@dataclass(frozen=True)
class MtCoefficients:
    """Solution record for the fibration-class coefficient arithmetic."""

    ok: bool
    a: int | None
    k_candidates: tuple[int, ...] = ()
    pair_sigma_values: tuple[int, ...] = ()
    pair_sigma_mod4: int | None = None
    type_label: str | None = None
    reason: str = ""

    def to_obj(self) -> dict:
        return {
            "ok": self.ok,
            "a": self.a,
            "k_candidates": list(self.k_candidates),
            "pair_sigma_values": list(self.pair_sigma_values),
            "pair_sigma_mod4": self.pair_sigma_mod4,
            "type": self.type_label,
            "reason": self.reason,
        }


def mt_coefficients(q_h: int, intersection_number: int, q_h_minus_delta: int) -> MtCoefficients:
    """Solve 3*(a*qH)*qH = N for a, then k^2 = a^2 * q(H-delta)/2, then
    (l_Y, SigmaY) = -2k, and read the type off the mod-4 residue.

    Inconsistent inputs (non-integral a, or k^2 not a perfect square) yield an
    error record rather than an exception, since the point of the computation
    is to document exactly which inputs are consistent.
    """
    if q_h <= 0:
        raise LatticeError("q(H) must be positive")
    denom = 3 * q_h * q_h
    if intersection_number % denom:
        return MtCoefficients(
            ok=False,
            a=None,
            reason=f"intersection number {intersection_number} is not divisible by 3*qH^2 = {denom}",
        )
    a = intersection_number // denom
    k_sq_twice = a * a * q_h_minus_delta
    if k_sq_twice % 2:
        return MtCoefficients(ok=False, a=a, reason=f"a^2 * q(H-delta) = {k_sq_twice} is odd")
    k_sq = k_sq_twice // 2
    k = isqrt(k_sq) if k_sq >= 0 else -1
    if k < 0 or k * k != k_sq:
        return MtCoefficients(ok=False, a=a, reason=f"k^2 = {k_sq} is not a perfect square")
    sigma_values = (-2 * k, 2 * k) if k else (0,)
    mod4 = (2 * k) % 4
    return MtCoefficients(
        ok=True,
        a=a,
        k_candidates=(k, -k) if k else (0,),
        pair_sigma_values=sigma_values,
        pair_sigma_mod4=mod4,
        type_label="A" if mod4 == 2 else "undetermined-by-residue",
    )


# ---------------------------------------------------------------------------
# the catalog: one checker per claim, in report order


@_claim("table-selfconsistency", VERIFIED, rows=9, i_range=(0, 3))
def _claim_table_selfconsistency(ctx: AuditContext, stated: dict):
    """each printed representative satisfies its own row of the decision table"""
    rows = ORBIT_CASES[:-1]  # the last case is "Unmatched", which has no row
    lo, hi = stated["i_range"]
    checked = 0
    mismatches = []
    for case in rows:
        for i in range(lo, hi + 1):
            rep, expr = case_representative(case, i)
            got = classify_orbit(rep)
            checked += 1
            if (got.case, got.i) != (case, i):
                mismatches.append({"case": case, "i": i, "got": [got.case, got.i], "rep": expr})
    computed = {"checked": checked, "mismatches": mismatches}
    if mismatches or len(rows) != stated["rows"]:
        return computed, mismatches[0] if mismatches else {"rows": len(rows)}, ""
    return computed, None, f"every printed representative, i in {lo}..{hi}, classifies back to its own row"


@_claim("reflection-chain", VERIFIED, w_square=-2, pairing=5, image="6*L(1)+e2+5*ew+5*gamma1",
        e8_square=-94, e8_square_mod4=2, image_div=1, image_case="Case8")
def _claim_reflection_chain(ctx: AuditContext, stated: dict):
    """the reflection in w maps L(1)+e2 to L(1)+e2+5w with E8-square residue 2 mod 4"""
    _, nv = build_model()
    start = nv.L(1) + nv.e2
    w_sq = square(nv.w)
    pairing = pair(start, nv.w)
    image = reflection(nv.w)(start)
    e8_sq = square(nv.e2 + stated["pairing"] * nv.ew)
    cls = classify_orbit(image)
    computed = {
        "w_square": w_sq,
        "pairing": pairing,
        "image": vector_to_obj(image),
        "image_expr": stated["image"],
        "e8_square": e8_sq,
        "e8_square_mod4": e8_sq % 4,
        "image_primitive": is_primitive(image),
        "image_isotropic": square(image) == 0,
        "image_div": divisibility(image),
        "image_case": [cls.case, cls.i],
    }
    ok = (
        w_sq == stated["w_square"]
        and pairing == stated["pairing"]
        and image == start + stated["pairing"] * nv.w
        and image == parse_vector(stated["image"])
        and e8_sq == stated["e8_square"]
        and e8_sq % 4 == stated["e8_square_mod4"]
        and computed["image_primitive"]
        and computed["image_isotropic"]
        and computed["image_div"] == stated["image_div"]
        and cls.case == stated["image_case"]
    )
    if not ok:
        return computed, dict(computed), ""
    return computed, None, (
        "cross term is 2*5*(e2,ew) = 10; pairing e2 with e1 instead would give "
        "square -108 and residue 0 mod 4, so the stated residue 2 identifies (e2,ew)"
    )


def _div_census(vectors) -> dict[str, int]:
    return dict(Counter(str(divisibility(v)) for v in vectors))


@_claim("two-orbit-dichotomy", VERIFIED, div_classes=(1, 2))
def _claim_two_orbit_dichotomy(ctx: AuditContext, stated: dict):
    """enumerated primitive isotropic vectors split into divisibility classes 1 and 2;
    reflection orbits of L(0) and L(1)+e2 are disjoint and invariant-pure"""
    _, nv = build_model()
    census1, census2 = map(_div_census, ctx.window_vectors)
    gens = default_generators()
    orbit_b = orbit_explore(nv.L(0), gens, ctx.budget)
    orbit_a = orbit_explore(nv.L(1) + nv.e2, gens, ctx.budget)
    # members are sorted: look each of the smaller orbit's up in the larger by bisection, hashing none
    small, large = (orbit.members for orbit in sorted((orbit_b, orbit_a), key=len))
    overlap = [c for c in small if (i := bisect_left(large, c)) < len(large) and large[i] == c]
    divisibility_of = nv.L(0).lattice.invariant_kernels[1]
    # invariant-pure: every member has the divisibility of its orbit's start
    div_b, div_a = divisibility(nv.L(0)), divisibility(nv.L(1) + nv.e2)
    pure_b = all(d == div_b for d in map(divisibility_of, orbit_b.members))
    pure_a = all(d == div_a for d in map(divisibility_of, orbit_a.members))
    computed = {
        "window1_div_census": census1,
        "window2_div_census": census2,
        "orbit_L0_size": len(orbit_b),
        "orbit_L1e2_size": len(orbit_a),
        "orbit_L0_exhausted": orbit_b.exhausted,
        "orbit_L1e2_exhausted": orbit_a.exhausted,
        "orbits_disjoint": not overlap,
        "orbit_L0_div_pure": pure_b,
        "orbit_L1e2_div_pure": pure_a,
    }
    classes = {str(d) for d in stated["div_classes"]}
    divs_ok = set(census1) == classes and set(census2) <= classes
    if not (divs_ok and not overlap and pure_a and pure_b):
        return computed, {"overlap": overlap[:3], "censuses": [census1, census2]}, ""
    notes = [ctx.coverage_note()]
    if not (orbit_a.exhausted and orbit_b.exhausted):
        notes.append("reflection orbits truncated by the budget (exhausted flags in computed)")
    return computed, None, "; ".join(n for n in notes if n)


@_claim("divisibility-remark", REFUTED, div_L0=1, div_L1e2=2)
def _claim_divisibility_remark(ctx: AuditContext, stated: dict):
    """the printed divisibilities of the two isotropic representatives"""
    _, nv = build_model()
    div_l0 = divisibility(nv.L(0))
    div_l1e2 = divisibility(nv.L(1) + nv.e2)
    as_printed = (div_l0, div_l1e2) == (stated["div_L0"], stated["div_L1e2"])
    swapped = (div_l0, div_l1e2) == (stated["div_L1e2"], stated["div_L0"])
    computed = {
        "div_L0": div_l0,
        "div_L1e2": div_l1e2,
        "stated_div_L0": stated["div_L0"],
        "stated_div_L1e2": stated["div_L1e2"],
        "as_printed": VERIFIED if as_printed else REFUTED,
        "with_swap": VERIFIED if swapped else REFUTED,
    }
    if as_printed:
        return computed, None, ""
    witness = {
        "div_L0": div_l0,
        "div_L1e2": div_l1e2,
        "L0_pairs_evenly": "every pairing of a U(2) vector is even",
        "L1e2_odd_pairing": f"(L(1)+e2, eps4) = {pair(nv.L(1) + nv.e2, nv.eps[3])}",
    }
    return computed, witness, (
        "refuted as printed; verified with the two values swapped, which is the "
        "assignment the decision table and the type definitions rely on"
    )


@_claim("third-orbit-discriminant", VERIFIED, div=2, pair_sigma_mod4=0)
def _claim_third_orbit_discriminant(ctx: AuditContext, stated: dict):
    """divisibility-2 isotropic vectors pair with SigmaY to 0 mod 4, with the parity
    chain on the gamma coordinates"""
    checked = 0
    counterexamples = []
    parity_violations = []
    for v in chain(*ctx.window_vectors):
        if divisibility(v) != stated["div"]:
            continue
        checked += 1
        profile = vector_profile(v)
        if profile.pair_sigma_mod4 != stated["pair_sigma_mod4"]:
            counterexamples.append(vector_to_obj(v))
        if not (profile.gamma_in_delta_sigma_span and profile.e8_part_div_by_2):
            parity_violations.append(vector_to_obj(v))
    computed = {
        "div2_isotropic_checked": checked,
        "sigma_pairing_counterexamples": counterexamples,
        "parity_chain_violations": parity_violations,
    }
    if counterexamples or parity_violations:
        return computed, (counterexamples + parity_violations)[0], ""
    note = "contrapositive: (v,SigmaY) = 2 mod 4 forces divisibility 1, hence the L(1)+e2 orbit"
    return computed, None, "; ".join(n for n in (note, ctx.coverage_note()) if n)


@_claim("eta-embedding", REFUTED, eta_dependent=True, isometric=True, primitive=False, saturation_index=2)
def _claim_eta_embedding(ctx: AuditContext, stated: dict):
    """the doubling embedding conserves the doubled form, is non-primitive, and its
    image has index 2 in its saturation"""
    report, rank = check_embedding(ctx.eta_map), ctx.eta_map.domain.rank
    computed = {
        "eta_variant": ctx.eta_label,
        "gram_pair_checks": rank * (rank + 1) // 2,  # the pairs i <= j that check_embedding tests
        "gram_pair_failures": report.gram_pair_failures,
        "isometric": report.isometric,
        "primitive": report.primitive,
        "saturation_index": report.saturation_index,
        "index_invariant_factors": list(report.index_invariant_factors),
        "stated_saturation_index": stated["saturation_index"],
    }
    form_ok = report.isometric == stated["isometric"] and report.primitive == stated["primitive"]
    if form_ok and report.saturation_index == stated["saturation_index"]:
        return computed, None, ""
    witness = {key: computed[key] for key in ("saturation_index", "index_invariant_factors")}
    return computed, witness, (
        _refuted_index_note(stated["saturation_index"], report)
        if form_ok
        else "embedding fails the isometric/non-primitive sub-statements for this variant"
    )


def _refuted_index_note(stated_index: int, report: EmbeddingReport) -> str:
    """The note of an isometric, non-primitive eta whose saturation index is not the stated one."""
    index = report.saturation_index
    k = index.bit_length() - 1
    computed = f"2^{k}" if k > 1 and index == 1 << k else str(index)
    if report.index_invariant_factors == (2,) * 8:  # what doubling the rank-8 E8 block gives
        computed += ": the E8 block lands on 2*E8(-1)"
    return (f"isometric and non-primitive confirmed; the stated saturation index {stated_index} "
            f"is refuted for this variant (computed {computed})")


def _fix_u_only_samples() -> tuple[LatticeVector, ...]:
    """Primitive isotropic vectors of Lfix supported on U^3 with |coords| <= 2."""
    model, _ = build_model()
    return tuple(enumerate_with_square(model.lambda_fix, ("U1", "U2", "U3"), 2, target=0))


def _fix_mixed_samples() -> tuple[tuple[str, LatticeVector], ...]:
    """Documented invariant isotropic samples with even U-part and odd E8-part."""
    model, _ = build_model()
    block = model.lambda_fix.block_basis
    u = block("U1", "U2", "U3")
    eps = block("E8")
    return (
        ("2*u1+2*u2+(eps1+eps3)", 2 * u[0] + 2 * u[1] + eps[0] + eps[2]),
        ("2*u1+2*u2+(eps4+eps6)", 2 * u[0] + 2 * u[1] + eps[3] + eps[5]),
        ("2*u3+2*u4+(eps1+eps3)", 2 * u[2] + 2 * u[3] + eps[0] + eps[2]),
        ("2*(u1+u2+u3+u4)+(eps1+eps3+eps5+eps7)",
         2 * (u[0] + u[1] + u[2] + u[3]) + eps[0] + eps[2] + eps[4] + eps[6]),
    )


@_claim("invariant-type-a", VERIFIED, eta_dependent=True, half_divisibility=1, type="A")
def _claim_invariant_type_a(ctx: AuditContext, stated: dict):
    """halves of 2-divisible embedded invariant classes have divisibility 1 (type A)"""
    halvable = 0
    bad = []
    witnesses = []
    for label, sample, image in ctx.eta_images:
        if any(c % 2 for c in image.coords):
            continue
        halvable += 1
        half = image.lattice.vector(tuple(c // 2 for c in image.coords))
        d = divisibility(half)
        verdict = classify_isotropic_type(half)
        if d != stated["half_divisibility"] or verdict.type_label != stated["type"]:
            bad.append({"sample": vector_to_obj(sample), "half_div": d, "type": verdict.type_label})
        elif len(witnesses) < 2:
            witnesses.append(
                {"sample_expr": label, "half_image": vector_to_obj(half), "half_div": d, "type": stated["type"]}
            )
    u_only = sum(label == "u-only" for label, _, _ in ctx.eta_images)
    computed = {
        "u_only_samples": u_only,
        "mixed_samples": len(ctx.eta_images) - u_only,
        "images_divisible_by_2": halvable,
        "violations": bad,
        "witnesses": witnesses,
    }
    if bad or halvable == 0:
        return computed, bad[0] if bad else {"images_divisible_by_2": 0}, ""
    return computed, None, (
        "whenever the embedded class is divisible by 2, its half has divisibility 1, "
        "hence type A; U^3-supported samples are never divisible by 2 and do not arise "
        "from this construction"
    )


@_claim("antiinvariant-type-b", VERIFIED, eta_dependent=True, divisibility_parity="even", type="B")
def _claim_antiinvariant_type_b(ctx: AuditContext, stated: dict):
    """embedded classes have even divisibility (type B when primitive)"""
    stated_even = stated["divisibility_parity"] == "even"
    odd_div = []
    primitive_images = 0
    types = set()
    for _, sample, image in ctx.eta_images:
        d = divisibility(image)
        if (d % 2 == 0) != stated_even:
            odd_div.append({"sample": vector_to_obj(sample), "div": d})
            continue
        if is_primitive(image):
            primitive_images += 1
            types.add(classify_isotropic_type(image).type_label)
    computed = {
        "samples": len(ctx.eta_images),
        "odd_divisibility_images": odd_div,
        "primitive_images": primitive_images,
        "types_of_primitive_images": sorted(types),
    }
    if odd_div or types - {stated["type"]}:
        return computed, odd_div[0] if odd_div else {"types": sorted(types)}, ""
    return computed, None, "every embedded class has even divisibility; the primitive ones are type B"


@_claim("mt-coefficients", VERIFIED, q_h=4, intersection_number=48, q_h_minus_delta=2,
        a=1, abs_k=1, pair_sigma_mod4=2, type="A")
def _claim_mt_coefficients(ctx: AuditContext, stated: dict):
    """the coefficient solve a=1, k=+-1, (l_Y,SigmaY) = 2 mod 4, type A"""
    record = mt_coefficients(stated["q_h"], stated["intersection_number"], stated["q_h_minus_delta"])
    computed = record.to_obj()
    ok = (
        record.ok
        and record.a == stated["a"]
        and set(record.k_candidates) == {stated["abs_k"], -stated["abs_k"]}
        and record.pair_sigma_mod4 == stated["pair_sigma_mod4"]
        and record.type_label == stated["type"]
    )
    if not ok:
        return computed, dict(computed), ""
    return computed, None, "3*4*4a = 48 gives a = 1, k = +-1, (l_Y, SigmaY) = -+2 = 2 mod 4, type A"


@_claim("type-polarisation-map", VERIFIED, A=(1, 2), B=(1, 1))
def _claim_type_polarisation_map(ctx: AuditContext, stated: dict):
    """type A carries fiber polarisation (1,2) and type B carries (1,1)"""
    _, nv = build_model()
    t_a = classify_isotropic_type(nv.L(1) + nv.e2)
    t_b = classify_isotropic_type(nv.L(0))
    computed = {
        "A": {"representative": t_a.representative_expr, "polarisation": list(t_a.polarisation_type)},
        "B": {"representative": t_b.representative_expr, "polarisation": list(t_b.polarisation_type)},
    }
    ok = t_a.polarisation_type == stated["A"] and t_b.polarisation_type == stated["B"]
    return computed, None if ok else dict(computed), ""


@_claim("picard-sublattice-index", REFUTED, eta_dependent=True, index=2)
def _claim_picard_sublattice_index(ctx: AuditContext, stated: dict):
    """index-2 statements for the embedded sublattices next to SigmaY"""
    model, nv = build_model()
    emb = ctx.eta_map
    dom = emb.domain
    lam_y = model.lambda_Y

    full_gens = list(emb.column_vectors()) + [nv.SigmaY]
    full = saturate(lam_y, full_gens)

    block = model.lambda_fix.block_basis
    u = block("U1", "U2", "U3")
    eps1 = block("E8")[0]
    (alpha,) = block("D")
    samples = (
        ("u1+2*u2-alpha", u[0] + 2 * u[1] - alpha),
        ("2*u1+2*u2+eps1-alpha", 2 * u[0] + 2 * u[1] + eps1 - alpha),
        ("u1+u2", u[0] + u[1]),
    )
    rank2 = {}
    for expr, sample in samples:
        assert square(sample) == 2
        image = emb(dom.vector(sample.coords))
        report = saturate(lam_y, [image, nv.SigmaY])
        rank2[expr] = report.total_index
    computed = {
        "eta_variant": ctx.eta_label,
        "full_rank_index": full.total_index,
        "full_rank_invariant_factors": list(full.index_invariant_factors),
        "rank2_span_indices": rank2,
        "stated_index": stated["index"],
    }
    if full.total_index == stated["index"] and all(v == stated["index"] for v in rank2.values()):
        return computed, None, ""
    return computed, {"full_rank_index": full.total_index, "rank2_span_indices": rank2}, (
        "refuted as printed for this variant; note the even-U-part analogue "
        "2*u1+2*u2+eps1-alpha does realize index 2, matching the a=1, k=+-1 arithmetic"
    )


_CATALOG_BY_ID = {c.id: c for c in CATALOG}
assert len(_CATALOG_BY_ID) == len(CATALOG), "claim ids must be unique"


@dataclass(frozen=True)
class AuditReport:
    results: tuple[ClaimResult, ...]
    budget: OrbitBudget
    eta_label: str
    eta_supplied: bool = False  # the run checked a user-supplied eta map

    def _per_variant(self, claim: Claim) -> bool:
        """A user-supplied eta variant is exploratory: its dependent claims carry no expectation."""
        return claim.eta_dependent and self.eta_supplied

    @property
    def unexpected(self) -> tuple[str, ...]:
        out = []
        for result in self.results:
            claim = _CATALOG_BY_ID[result.id]
            if not self._per_variant(claim) and result.status != claim.expected_status:
                out.append(result.id)
        return tuple(out)

    @property
    def exit_code(self) -> int:
        return 0 if not self.unexpected else 1

    def counts(self) -> dict[str, int]:
        counts = {VERIFIED: 0, REFUTED: 0, NOT_CHECKABLE: 0}
        for result in self.results:
            counts[result.status] += 1
        return counts

    def to_obj(self) -> list[dict]:
        return [result.to_obj() for result in self.results]

    def to_text(self) -> str:
        lines = []
        lines.append("claim audit")
        lines.append(
            f"budget: coord_bound={self.budget.coord_bound} "
            f"max_frontier={self.budget.max_frontier} max_depth={self.budget.max_depth}; "
            f"eta variant: {self.eta_label}"
        )
        lines.append("-" * 78)
        for result in self.results:
            claim = _CATALOG_BY_ID[result.id]
            expected = claim.expected_status
            marker = "" if result.status == expected else "  << UNEXPECTED"
            if self._per_variant(claim):
                marker = "  (per-variant)"
            lines.append(f"{result.id:28s} {result.status:12s} expected {expected}{marker}")
            if result.note:
                lines.append(f"    {result.note}")
        lines.append("-" * 78)
        counts = self.counts()
        lines.append(
            f"verified {counts[VERIFIED]}  refuted {counts[REFUTED]}  "
            f"not-checkable {counts[NOT_CHECKABLE]}  unexpected {len(self.unexpected)}"
        )
        return "\n".join(lines) + "\n"


def run_claim(claim_id: str, budget: OrbitBudget | None = None,
              eta: tuple[str, EmbeddingMap] | None = None) -> ClaimResult:
    """Run one catalog entry and return its deterministic result; ``eta`` as in :class:`AuditContext`."""
    if claim_id not in _CATALOG_BY_ID:
        raise LatticeError(f"unknown claim id {claim_id!r}")
    return _CATALOG_BY_ID[claim_id].run(AuditContext(budget or OrbitBudget(), eta))


def run_all(budget: OrbitBudget | None = None, eta: tuple[str, EmbeddingMap] | None = None) -> AuditReport:
    """Run the full catalog in order; claim failures are data, not errors."""
    budget = budget or OrbitBudget()
    ctx = AuditContext(budget, eta)
    results = tuple(claim.run(ctx) for claim in CATALOG)
    return AuditReport(results, budget, ctx.eta_label, eta_supplied=eta is not None)
