"""The concrete rank-23/15/16 lattices, their named vectors, and the classifiers.

Fixed conventions (part of this package's contract):

* E8(-1) uses the negated Cartan matrix under the node ordering documented in
  :data:`nikulat.lattice.E8_NEG_GRAM` (path 1-2-3-4-5-6-7, node 8 on node 5).
* ``LY`` = U(2)^3 + E8(-1) + <-2>^2 with blocks named U1 U2 U3 E8 G1 G2.
* ``LX`` = U^3 + E8(-1)^2 + <-2> with blocks named U1 U2 U3 E8a E8b D.
* ``Lfix`` = U^3 + E8(-2) + <-2> with blocks named U1 U2 U3 E8 D.
* Blocks follow each other in the order named; every offset is read from
  ``Lattice.blocks`` through :meth:`Lattice.block_slice`.
* L(i) = u1 + i*u2 in the FIRST U(2) block; e1 = eps1; e2 = eps1 + eps3;
  ew = eps4 + eps6; deltaY = gamma1 + gamma2; SigmaY = gamma1 - gamma2;
  w = L(1) + ew + gamma1.

With this ordering eps1,eps3 and eps4,eps6 are non-adjacent, which forces
e2^2 = ew^2 = -4 and (e2, ew) = 1; a chain ordering with eps1,eps3 adjacent
would give e2^2 = -2 instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import product
from math import gcd, isqrt, lcm
from typing import Iterator

from .intmat import IntVector, Matrix
from .isometry import Isometry, reflection
from .lattice import (
    EmbeddingMap,
    Lattice,
    LatticeError,
    LatticeVector,
    direct_sum,
    discriminant_group,
    divisibility,
    is_primitive,
    pair,
    rescale,
    square,
    standard_lattice,
)

#: The rows of the decision table, each with its printed representative in i (and j = i + 1).
_REPRESENTATIVES = {
    "Star1": "L({i})",
    "Case2": "2*L({i})-deltaY",
    "Case3": "2*L({j})+2*e2-deltaY",
    "Case4": "L({i})-gamma1",
    "Case5": "L({j})+e2-gamma1",
    "Case6": "L({i})+e1",
    "Case7": "2*L({i})+2*e1-deltaY",
    "Case8": "L({i})+e1-gamma1",
    "Case9": "L({j})+e2",
}
ORBIT_CASES = (*_REPRESENTATIVES, "Unmatched")


@dataclass(frozen=True)
class NamedModel:
    lambda_X: Lattice
    lambda_fix: Lattice
    lambda_Y: Lattice


@dataclass(frozen=True)
class NamedVectors:
    """The vectors of LY that the classifiers and the audit talk about."""

    u: tuple[LatticeVector, ...]  # u1..u6, bases of the three U(2) blocks
    eps: tuple[LatticeVector, ...]  # eps1..eps8, simple roots of E8(-1)
    e1: LatticeVector
    e2: LatticeVector
    ew: LatticeVector
    gamma1: LatticeVector
    gamma2: LatticeVector
    deltaY: LatticeVector
    SigmaY: LatticeVector
    w: LatticeVector

    def L(self, i: int) -> LatticeVector:
        """L(i) = u1 + i*u2, a primitive class of square 4i in the first U(2)."""
        return self.u[0] + i * self.u[1]

    def by_name(self) -> dict[str, LatticeVector]:
        names = {f"u{k + 1}": v for k, v in enumerate(self.u)}
        names.update({f"eps{k + 1}": v for k, v in enumerate(self.eps)})
        names.update(
            e1=self.e1,
            e2=self.e2,
            ew=self.ew,
            w=self.w,
            gamma1=self.gamma1,
            gamma2=self.gamma2,
            deltaY=self.deltaY,
            SigmaY=self.SigmaY,
        )
        return names


def _block(name: str, lat: Lattice) -> Lattice:
    """``lat`` as a direct summand whose one block is called ``name``."""
    return Lattice(lat.label, lat.gram, ((name, 0, lat.rank),))


def _u_blocks(plane: Lattice) -> list[Lattice]:
    return [_block(f"U{k}", plane) for k in (1, 2, 3)]


@lru_cache(maxsize=1)
def build_model() -> tuple[NamedModel, NamedVectors]:
    """Construct the three lattices and the named vectors, checking every pin."""
    u_plane = standard_lattice("U")
    e8 = standard_lattice("E8_neg")
    minus2 = standard_lattice("rank1", -2)

    lambda_X = direct_sum(
        _u_blocks(u_plane) + [_block("E8a", e8), _block("E8b", e8), _block("D", minus2)], label="LX"
    )
    lambda_fix = direct_sum(
        _u_blocks(u_plane) + [_block("E8", rescale(e8, 2)), _block("D", minus2)], label="Lfix"
    )
    lambda_Y = direct_sum(
        _u_blocks(rescale(u_plane, 2)) + [_block("E8", e8), _block("G1", minus2), _block("G2", minus2)],
        label="LY",
    )

    block = lambda_Y.block_basis
    u = block("U1", "U2", "U3")
    eps = block("E8")
    gamma1, gamma2 = block("G1", "G2")
    vectors = NamedVectors(
        u=u,
        eps=eps,
        e1=eps[0],
        e2=eps[0] + eps[2],
        ew=eps[3] + eps[5],
        gamma1=gamma1,
        gamma2=gamma2,
        deltaY=gamma1 + gamma2,
        SigmaY=gamma1 - gamma2,
        w=u[0] + u[1] + eps[3] + eps[5] + gamma1,
    )

    # build-time pins; a failure here is a construction bug, not user error
    for i in range(4):
        li = vectors.L(i)
        assert square(li) == 4 * i and is_primitive(li) and divisibility(li) == 2
    assert square(vectors.e1) == -2
    assert square(vectors.e2) == -4 and square(vectors.ew) == -4
    assert pair(vectors.e2, vectors.ew) == 1
    assert square(vectors.deltaY) == -4 and square(vectors.SigmaY) == -4
    assert pair(vectors.deltaY, vectors.SigmaY) == 0
    assert square(vectors.w) == -2
    assert vectors.w == vectors.L(1) + vectors.ew + vectors.gamma1
    assert discriminant_group(lambda_Y) == [2] * 8

    return NamedModel(lambda_X, lambda_fix, lambda_Y), vectors


def lattice_registry() -> dict[str, Lattice]:
    """Built-in lattices addressable by label in vector files."""
    model, _ = build_model()
    return {"LX": model.lambda_X, "Lfix": model.lambda_fix, "LY": model.lambda_Y}


# ---------------------------------------------------------------------------
# the involution on LX and its fixed sublattice


@lru_cache(maxsize=1)
def _sigma_permutation() -> tuple[int, ...]:
    """Coordinate i of sigma_star(v) is coordinate perm[i] of v: LX's E8a and E8b exchanged."""
    model, _ = build_model()
    lx = model.lambda_X
    perm = list(range(lx.rank))
    a, b = lx.block_slice("E8a"), lx.block_slice("E8b")
    perm[a], perm[b] = perm[b], perm[a]
    return tuple(perm)


def sigma_star(v: LatticeVector) -> LatticeVector:
    """The involution of LX exchanging the two E8(-1) blocks."""
    model, _ = build_model()
    if v.lattice != model.lambda_X:
        raise LatticeError("sigma_star acts on LX only")
    return model.lambda_X.vector(tuple(v.coords[j] for j in _sigma_permutation()))


def sigma_invariant_basis() -> tuple[LatticeVector, ...]:
    """A basis of the sigma_star-invariant sublattice of LX (rank 15).

    Ordered to match Lfix: the U^3 basis, the diagonal E8 classes
    eps_i + sigma(eps_i) (whose squares double), and the <-2> generator.
    """
    model, _ = build_model()
    block = model.lambda_X.block_basis
    diagonal = tuple(a + b for a, b in zip(block("E8a"), block("E8b")))
    return block("U1", "U2", "U3") + diagonal + block("D")


# ---------------------------------------------------------------------------
# the doubling embedding eta : Lfix(2) -> LY


def eta_as_written_matrix() -> Matrix:
    """Columns: U^3 coordinates copied, E8 coordinates doubled, <-2> duplicated."""
    model, _ = build_model()
    fix, ly = model.lambda_fix, model.lambda_Y
    rows = [[0] * fix.rank for _ in range(ly.rank)]
    for source, target, scale in (
        ("U1", "U1", 1), ("U2", "U2", 1), ("U3", "U3", 1), ("E8", "E8", 2), ("D", "G1", 1), ("D", "G2", 1)
    ):
        for i, j in zip(range(ly.rank)[ly.block_slice(target)], range(fix.rank)[fix.block_slice(source)]):
            rows[i][j] = scale
    return tuple(tuple(r) for r in rows)


def eta_from_matrix(matrix) -> EmbeddingMap:
    """A user-supplied eta candidate; accepted even when not isometric (flagged downstream)."""
    model, _ = build_model()
    return EmbeddingMap(rescale(model.lambda_fix, 2), model.lambda_Y, matrix)


@lru_cache(maxsize=1)
def eta_embedding() -> EmbeddingMap:
    """The doubling embedding Lfix(2) -> LY as written in the source derivation."""
    return eta_from_matrix(eta_as_written_matrix())


# ---------------------------------------------------------------------------
# profiles and the decision table


def _require_in_LY(v: LatticeVector) -> None:
    model, _ = build_model()
    if v.lattice is not model.lambda_Y and v.lattice != model.lambda_Y:
        raise LatticeError("expected a vector of LY")


@lru_cache(maxsize=1)
def _ly_slices() -> tuple[slice, ...]:
    """The coordinate slices of LY's blocks U1, U2, U3, E8, G1, G2."""
    model, _ = build_model()
    return tuple(map(model.lambda_Y.block_slice, ("U1", "U2", "U3", "E8", "G1", "G2")))


def _block_square(lattice: Lattice, block: slice, t: IntVector) -> int:
    """The square of coordinates ``t`` on ``block``, a direct summand, from its sparse Gram rows."""
    off = block.start
    total = 0
    for x, row in zip(t, lattice.sparse_rows[block]):
        if x:
            for j, g in row:
                total += x * g * t[j - off]
    return total


@dataclass(frozen=True)
class VectorProfile:
    """Every numerical invariant the decision table consults, computed exactly."""

    q: int
    div: int
    primitive: bool
    u_part_div_by_2: bool
    e8_part: IntVector
    e8_part_div_by_2: bool
    q_e8_mod4: int
    gamma_coords: tuple[int, int]
    gamma_in_delta_sigma_span: bool
    pair_sigma_mod4: int

    @property
    def star(self) -> bool:
        """Condition (*): U-part not divisible by 2, E8-part divisible by 2, and
        gamma-part (k, m) inside the span of deltaY, SigmaY (i.e. k = m mod 2)."""
        return not self.u_part_div_by_2 and self.e8_part_div_by_2 and self.gamma_in_delta_sigma_span


def vector_profile(v: LatticeVector) -> VectorProfile:
    _require_in_LY(v)
    if v.is_zero():
        raise LatticeError("profile of the zero vector is undefined")
    model, vectors = build_model()
    u1, u2, u3, e8, g1, g2 = _ly_slices()
    x = v.coords
    e8_part, (k,), (m,) = x[e8], x[g1], x[g2]
    return VectorProfile(
        q=square(v),
        div=divisibility(v),
        primitive=is_primitive(v),
        u_part_div_by_2=all(c % 2 == 0 for c in x[u1] + x[u2] + x[u3]),
        e8_part=e8_part,
        e8_part_div_by_2=all(c % 2 == 0 for c in e8_part),
        q_e8_mod4=_block_square(model.lambda_Y, e8, e8_part) % 4,
        gamma_coords=(k, m),
        gamma_in_delta_sigma_span=(k - m) % 2 == 0,
        pair_sigma_mod4=pair(v, vectors.SigmaY) % 4,
    )


@dataclass(frozen=True)
class OrbitClass:
    """Outcome of the monodromy-orbit decision table."""

    case: str
    i: int
    representative: LatticeVector
    representative_expr: str
    profile: VectorProfile  # the invariants the row was decided from
    note: str = ""

    def __post_init__(self) -> None:
        if self.case not in ORBIT_CASES:
            raise LatticeError(f"unknown case {self.case!r}")


def _row_matches(profile: VectorProfile) -> list[tuple[str, int]]:
    """All non-(*) rows whose signature fits the profile; at most one by design.

    The residue separating rows 2/3 and guaranteeing row 7 is the image of the
    E8-part in E8(-1)/4E8(-1): for a divisibility-2 vector the E8-part is
    already divisible by 2, so a residue mod 2E8 would vanish identically and
    rows 3 and 7 could never fire.  Mod 4E8 (all coordinates divisible by 4)
    is the reading under which every printed representative satisfies its own
    row, and it is the one implemented.
    """
    q, div = profile.q, profile.div
    e8_mod4_zero = all(c % 4 == 0 for c in profile.e8_part)
    matches: list[tuple[str, int]] = []
    if div == 2:
        if (q + 4) % 16 == 0:
            i = (q + 4) // 16
            matches.append(("Case2" if e8_mod4_zero else "Case3", i))
        if (q + 12) % 16 == 0 and not e8_mod4_zero:
            matches.append(("Case7", (q + 12) // 16))
        if (q + 2) % 4 == 0 and e8_mod4_zero:
            matches.append(("Case4", (q + 2) // 4))
    elif div == 1:
        if (q + 2) % 4 == 0:
            i = (q + 2) // 4
            matches.append(("Case5" if profile.q_e8_mod4 == 0 else "Case6", i))
        if q % 4 == 0:
            if profile.q_e8_mod4 == 2:
                matches.append(("Case8", q // 4 + 1))
            else:
                matches.append(("Case9", q // 4))
    return matches


@lru_cache(maxsize=1024)
def _representative_vector(expr: str) -> LatticeVector:
    """The vector of a representative's expression, parsed once."""
    from .exprs import parse_vector  # exprs imports this module at load time
    return parse_vector(expr)


def case_representative(case: str, i: int) -> tuple[LatticeVector, str]:
    """The printed representative of a table row, with its expression string."""
    if case not in _REPRESENTATIVES:
        raise LatticeError(f"no representative for case {case!r}")
    expr = _REPRESENTATIVES[case].format(i=i, j=i + 1)
    return _representative_vector(expr), expr


@lru_cache(maxsize=1024)
def _checked_representative(case: str, i: int, q: int, div: int) -> tuple[LatticeVector, str]:
    """The representative of a row, checked once to have the input's square and divisibility.

    A mismatch raises on every call: ``lru_cache`` does not cache exceptions.
    """
    rep, expr = case_representative(case, i)
    if square(rep) != q or divisibility(rep) != div:
        raise LatticeError(
            f"representative {expr} fails invariant match for case {case}, i={i}"
        )
    return rep, expr


def classify_orbit(v: LatticeVector) -> OrbitClass:
    """Locate a primitive vector of LY in the monodromy-orbit decision table.

    Condition (*) is tested first; otherwise the eight remaining rows are
    matched on (div, q-congruence, E8-residue).  The row signatures are
    mutually exclusive, which is asserted on every input, and a vector
    matching no row is reported as Unmatched rather than guessed at.
    """
    profile = vector_profile(v)
    if not profile.primitive:
        raise LatticeError("vector not primitive")
    if profile.star:
        if profile.q % 4 != 0:
            raise LatticeError(f"(*) vector with q = {profile.q} not divisible by 4")
        case, i = "Star1", profile.q // 4
    else:
        matches = _row_matches(profile)
        if len(matches) > 1:
            raise LatticeError(f"table rows are not exclusive on {v}: {matches}")
        if not matches:
            return OrbitClass(
                case="Unmatched",
                i=0,
                representative=v,
                representative_expr="(input)",
                profile=profile,
                note=f"no printed row matches profile {profile}",
            )
        case, i = matches[0]
    rep, expr = _checked_representative(case, i, profile.q, profile.div)
    note = "" if i >= 0 else "parameter i is negative: outside the table's stated range i in N"
    return OrbitClass(case=case, i=i, representative=rep, representative_expr=expr,
                      profile=profile, note=note)


@dataclass(frozen=True)
class FibrationType:
    """Type A/B verdict for a primitive isotropic class, with its metadata."""

    type_label: str  # "A" or "B"
    orbit_representative: LatticeVector
    representative_expr: str
    polarisation_type: tuple[int, int]
    pair_sigma_mod4: int
    sigma_pairing_forces_type_a: bool


#: divisibility -> (type, orbit representative, fiber polarisation type)
_FIBRATION_TYPES = {1: ("A", "L(1)+e2", (1, 2)), 2: ("B", "L(0)", (1, 1))}


def classify_isotropic_type(v: LatticeVector) -> FibrationType:
    """Type A (div 1, fiber polarisation (1,2)) or B (div 2, polarisation (1,1)).

    Also reports (v, SigmaY) mod 4; the value 2 forces type A, since every
    divisibility-2 isotropic vector pairs with SigmaY to a multiple of 4.
    """
    _require_in_LY(v)
    if v.is_zero() or not is_primitive(v):
        raise LatticeError("type classification needs a primitive nonzero vector")
    if square(v) != 0:
        raise LatticeError(f"vector is not isotropic: q = {square(v)}")
    _, nv = build_model()
    div = divisibility(v)
    if div not in _FIBRATION_TYPES:
        raise RuntimeError(
            f"internal consistency error: primitive vector with divisibility {div}"
        )
    type_label, expr, polarisation = _FIBRATION_TYPES[div]
    sigma_mod4 = pair(v, nv.SigmaY) % 4
    result = FibrationType(
        type_label=type_label,
        orbit_representative=_representative_vector(expr),
        representative_expr=expr,
        polarisation_type=polarisation,
        pair_sigma_mod4=sigma_mod4,
        sigma_pairing_forces_type_a=sigma_mod4 == 2,
    )
    if result.sigma_pairing_forces_type_a and result.type_label != "A":
        raise RuntimeError("internal consistency error: (v,SigmaY) = 2 mod 4 with type B")
    return result


# ---------------------------------------------------------------------------
# bounded enumeration


@dataclass(frozen=True)
class EnumerationWindow:
    """A sub-collection of LY blocks and a coordinate bound."""

    blocks: tuple[str, ...]
    bound: int

    def __post_init__(self) -> None:
        if not self.blocks:
            raise LatticeError("enumeration window selects no blocks")
        model, _ = build_model()
        for name in self.blocks:
            model.lambda_Y.block_slice(name)  # LatticeError unless it names one block of LY
        if self.bound < 1:
            raise LatticeError("coordinate bound must be >= 1")


DEFAULT_WINDOW = EnumerationWindow(("U1", "E8", "G1", "G2"), 1)
SECOND_WINDOW = EnumerationWindow(("U1", "U2", "G1", "G2"), 2)


@lru_cache(maxsize=None)
def _ellipsoid(gram: Matrix):
    """Integer Fincke-Pohst data of a negative-definite block Gram matrix, else None.

    Eliminating over the rationals from the last coordinate back to the first
    writes -t.G.t = sum_k a_k (t_k + sum_{j<k} mu_kj t_j)^2, and every a_k > 0
    exactly when G is negative definite.  The terms k <= i are then the least
    -q over all real completions of the prefix t_0..t_i.  Scaled to integers,
    the data ``(scale, ((e_k, den_k, ((j, n_kj), ...)), ...))`` satisfies
    scale * (-q) = sum_k e_k (den_k t_k + sum_j n_kj t_j)^2.
    """
    from fractions import Fraction  # here, not at module level: the import costs every start-up

    a = [[-Fraction(g) for g in row] for row in gram]
    terms = [None] * len(a)
    for k in range(len(a) - 1, -1, -1):
        pivot = a[k][k]
        if pivot <= 0:
            return None
        mu = [a[k][j] / pivot for j in range(k)]
        for i in range(k):
            for j in range(k):
                a[i][j] -= a[i][k] * mu[j]
        den = lcm(1, *(m.denominator for m in mu))
        terms[k] = (pivot / (den * den), den, tuple((j, int(m * den)) for j, m in enumerate(mu) if m))
    scale = lcm(*(e.denominator for e, _, _ in terms))
    return scale, tuple((int(e * scale), den, lower) for e, den, lower in terms)


def _ellipsoid_walk(ellipsoid, bound: int, lo: int, hi: int) -> Iterator[tuple[IntVector, int]]:
    """(t, q(t)) for the block coordinates t with |t_k| <= bound and lo <= q(t) <= hi,
    in lexicographic order; a prefix is cut once its bound on -q exceeds -lo."""
    scale, rows = ellipsoid
    budget, least = -lo * scale, -hi * scale
    if budget < 0:
        return iter(())
    last = len(rows) - 1
    t = [0] * len(rows)

    def walk(k: int, spent: int) -> Iterator[tuple[IntVector, int]]:
        e, den, lower = rows[k]
        c = 0
        for j, n in lower:
            c += n * t[j]
        r = isqrt((budget - spent) // e)  # the largest |den t_k + c| that stays within budget
        for x in range(max(-bound, -((r + c) // den)), min(bound, (r - c) // den) + 1):
            t[k] = x
            total = spent + e * (den * x + c) ** 2
            if k < last:
                yield from walk(k + 1, total)
            elif total >= least:
                yield tuple(t), -(total // scale)

    return walk(0, 0)


def _slice_gram(lattice: Lattice, block: slice) -> Matrix:
    return tuple(row[block] for row in lattice.gram[block])


def _block_walker(lattice: Lattice, block: slice, bound: int):
    """``(qmin, qmax, walk)`` for the coordinates ``block`` (one block or a run of
    adjacent ones) with |coords| <= bound: ``walk(lo, hi)`` yields (coords, square)
    with lo <= square <= hi in lexicographic order, and every square lies in
    [qmin, qmax].

    A negative-definite block is walked through its ellipsoid, with the range
    [-bound^2 * sum |G_ij|, 0].  Any other block (a U or U(2) plane) has no
    ellipsoid; its box of (2*bound + 1)^size entries is listed once.
    """
    gram = _slice_gram(lattice, block)
    ellipsoid = _ellipsoid(gram)
    if ellipsoid is not None:
        qmin = -bound * bound * sum(abs(g) for row in gram for g in row)
        return qmin, 0, partial(_ellipsoid_walk, ellipsoid, bound)
    size = block.stop - block.start
    box = [(t, _block_square(lattice, block, t)) for t in product(range(-bound, bound + 1), repeat=size)]
    squares = [q for _, q in box]
    return min(squares), max(squares), lambda lo, hi: ((t, q) for t, q in box if lo <= q <= hi)


def enumerate_with_square(
    lattice: Lattice,
    blocks: tuple[str, ...],
    bound: int,
    target: int,
) -> Iterator[LatticeVector]:
    """All primitive vectors on the named ``blocks`` with |coords| <= bound and the given square.

    Deterministic lexicographic order on full coordinate tuples.  The blocks
    are chosen one after another, each within the square range that the
    blocks after it can still make up.  Negative-definite blocks (E8(-1),
    <-2>), and runs of adjacent ones such as E8 + G1 + G2, are walked lazily
    through their ellipsoid: no box of them is built, the first vector comes
    after a few steps, and memory does not grow with the (2*bound + 1)^8 box
    of E8.
    """
    runs: list[slice] = []
    for block in sorted(map(lattice.block_slice, set(blocks)), key=lambda block: block.start):
        joined = slice(runs[-1].start, block.stop) if runs and runs[-1].stop == block.start else None
        if joined is not None and _ellipsoid(_slice_gram(lattice, joined)) is not None:
            runs[-1] = joined  # adjacent definite blocks are walked as one ellipsoid
        else:
            runs.append(block)
    walkers = [_block_walker(lattice, run, bound) for run in runs]
    suffix_min = [0] * (len(walkers) + 1)
    suffix_max = [0] * (len(walkers) + 1)
    for idx in range(len(walkers) - 1, -1, -1):
        qmin, qmax, _ = walkers[idx]
        suffix_min[idx] = suffix_min[idx + 1] + qmin
        suffix_max[idx] = suffix_max[idx + 1] + qmax

    rank = lattice.rank
    chosen: list[IntVector] = []

    def rec(idx: int, acc: int) -> Iterator[LatticeVector]:
        if idx == len(walkers):
            if acc == target:
                full = [0] * rank
                for run, run_coords in zip(runs, chosen):
                    full[run] = run_coords
                if gcd(*full) == 1:
                    yield LatticeVector._of_ints(lattice, tuple(full))  # every coordinate came from a range
            return
        walk = walkers[idx][2]
        for run_coords, q in walk(target - acc - suffix_max[idx + 1], target - acc - suffix_min[idx + 1]):
            chosen.append(run_coords)
            yield from rec(idx + 1, acc + q)
            chosen.pop()

    yield from rec(0, 0)


def enumerate_primitive_isotropic(window: EnumerationWindow) -> Iterator[LatticeVector]:
    """Primitive isotropic vectors of LY supported on the window's blocks."""
    model, _ = build_model()
    yield from enumerate_with_square(model.lambda_Y, window.blocks, window.bound, target=0)


# ---------------------------------------------------------------------------
# default reflection generators for orbit search


@lru_cache(maxsize=1)
def default_generator_table() -> tuple[tuple[str, LatticeVector], ...]:
    """The documented default roots, twenty in all.

    All eight simple roots and both gamma generators; the six roots
    ``wJC = uA + uB + ew + gammaC`` with (uA, uB) running over the three U(2)
    blocks and gammaC over the two <-2> generators (w11 is the root called w
    elsewhere); and four mixers joining the first U(2) block to the E8 and
    gamma coordinates.  This set is rich enough to carry L(1)+e2 to
    L(1)+e1-gamma1 inside the coordinate box |c| <= 5.
    """
    _, nv = build_model()
    named: list[tuple[str, LatticeVector]] = []
    named += [(f"eps{k + 1}", nv.eps[k]) for k in range(8)]
    named += [("gamma1", nv.gamma1), ("gamma2", nv.gamma2)]
    for blk, (a, b) in enumerate([(nv.u[0], nv.u[1]), (nv.u[2], nv.u[3]), (nv.u[4], nv.u[5])]):
        named.append((f"w{blk + 1}1", a + b + nv.ew + nv.gamma1))
        named.append((f"w{blk + 1}2", a + b + nv.ew + nv.gamma2))
    named += [("u1+eps1", nv.u[0] + nv.e1), ("u2+eps1", nv.u[1] + nv.e1)]
    named += [("u1+gamma1", nv.u[0] + nv.gamma1), ("u2+gamma1", nv.u[1] + nv.gamma1)]
    return tuple(named)


def default_generators() -> tuple[Isometry, ...]:
    return tuple(reflection(root) for _, root in default_generator_table())


def default_generator_names() -> tuple[str, ...]:
    return tuple(name for name, _ in default_generator_table())
