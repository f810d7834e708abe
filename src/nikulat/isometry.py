"""Lattice isometries, reflections in (-2)-vectors, and orbit exploration.

The monodromy group itself is out of reach at desk scale; what is explored
here is the subgroup generated by a chosen list of reflections.  A
breadth-first closure under such generators certifies SAME-orbit statements
only -- two vectors are proved to lie in distinct orbits exclusively by an
invariant (square, divisibility, primitivity), never by a failed search.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import intmat
from .intmat import IntVector, Matrix
from .lattice import Lattice, LatticeError, LatticeVector, divisibility, is_primitive, square


@dataclass(frozen=True)
class Isometry:
    """An integer matrix on a lattice that conserves the Gram form.

    Construction validates Gram conservation exactly; use :func:`is_isometry`
    for the non-raising test.  ``root`` is set when the isometry is a
    reflection, enabling the O(support) application path used by orbit
    search: (x, r) sums over the nonzero entries of G.r, x is returned
    unchanged when (x, r) = 0, and otherwise only r's support is updated.
    """

    lattice: Lattice
    matrix: Matrix
    root: IntVector | None = None

    def __post_init__(self) -> None:
        matrix = intmat.freeze(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        n = self.lattice.rank
        if len(matrix) != n or len(matrix[0]) != n:
            raise LatticeError(f"isometry matrix must be {n}x{n}")
        if not _conserves_gram(self.lattice.gram, matrix):
            raise LatticeError("matrix does not conserve the Gram form")

    def __call__(self, v: LatticeVector) -> LatticeVector:
        if v.lattice != self.lattice:
            raise LatticeError("vector does not live on this isometry's lattice")
        return self.lattice.vector(self.apply_coords(v.coords))

    def apply_coords(self, x: IntVector) -> IntVector:
        if self.root is None:
            return intmat.matvec(self.matrix, x)
        gram_root, root = self._supports
        c = 0
        for j, g in gram_root:
            c += g * x[j]
        if not c:
            return x
        y = list(x)
        for i, r in root:
            y[i] += c * r
        return tuple(y)

    @cached_property
    def _supports(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """Nonzero entries of G.r and of r as (index, value) pairs, for a reflection."""
        r = self.root
        gram_root = ((i, sum(g * r[j] for j, g in row)) for i, row in enumerate(self.lattice.sparse_rows))
        return tuple((i, c) for i, c in gram_root if c), tuple((i, c) for i, c in enumerate(r) if c)

    def inverse(self) -> Isometry:
        if self.root is not None:
            return self  # reflections are involutions
        return Isometry(self.lattice, intmat.invert_unimodular(self.matrix))

    def determinant(self) -> int:
        return intmat.det(self.matrix)


def _conserves_gram(gram: Matrix, m: Matrix) -> bool:
    return intmat.matmul(intmat.matmul(intmat.transpose(m), gram), m) == gram


def is_isometry(lat: Lattice, m) -> bool:
    """True iff m^T . gram . m == gram.  Raises on a wrongly shaped matrix."""
    m = intmat.freeze(m)
    if len(m) != lat.rank or len(m[0]) != lat.rank:
        raise LatticeError(f"matrix must be {lat.rank}x{lat.rank}")
    return _conserves_gram(lat.gram, m)


def identity_isometry(lat: Lattice) -> Isometry:
    return Isometry(lat, intmat.identity(lat.rank))


def reflection(v: LatticeVector) -> Isometry:
    """The reflection x |-> x + (x, v) v in a vector of square -2.

    For other negative squares the analogous formula is not integral, so such
    roots are rejected rather than approximated.
    """
    sq = square(v)
    if sq != -2:
        raise LatticeError(
            f"reflection root must have square -2, got {sq}; "
            "generalized reflections are not provided"
        )
    lat = v.lattice
    gv = intmat.matvec(lat.gram, v.coords)
    n = lat.rank
    cols = []
    for j in range(n):
        col = [int(i == j) + gv[j] * v.coords[i] for i in range(n)]
        cols.append(col)
    matrix = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
    return Isometry(lat, matrix, root=v.coords)


def compose(a: Isometry, b: Isometry) -> Isometry:
    """Function composition a after b: (a . b)(x) = a(b(x))."""
    if a.lattice != b.lattice:
        raise LatticeError("cannot compose isometries of different lattices")
    return Isometry(a.lattice, intmat.matmul(a.matrix, b.matrix))


@dataclass(frozen=True)
class OrbitBudget:
    """Bounds for orbit search.

    coord_bound   largest |coordinate| a retained vector may have;
    max_frontier  cap on the total number of retained vectors;
    max_depth     number of breadth-first generations explored.
    """

    coord_bound: int = 4
    max_frontier: int = 10**6
    max_depth: int = 6

    def __post_init__(self) -> None:
        if min(self.coord_bound, self.max_frontier, self.max_depth) <= 0:
            raise LatticeError("all budget fields must be positive")


@dataclass(frozen=True)
class OrbitSet:
    """The breadth-first closure of a seed under a generator list.

    ``members`` holds coordinate tuples in lexicographic order.  ``exhausted``
    is True only when the closure is complete: no generator image of any
    member was discarded for exceeding the budget.  A partial set (exhausted
    False) still consists of genuine orbit members.
    """

    seed: LatticeVector
    members: tuple[IntVector, ...]
    exhausted: bool

    def __post_init__(self) -> None:
        if self.seed.coords not in self.member_set:
            raise LatticeError("orbit seed must be among the members")

    @cached_property
    def member_set(self) -> frozenset[IntVector]:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, v) -> bool:
        coords = v.coords if isinstance(v, LatticeVector) else tuple(v)
        return coords in self.member_set

    def vectors(self):
        lat = self.seed.lattice
        for coords in self.members:
            yield lat.vector(coords)


def _check_orbit_inputs(seed: LatticeVector, gens) -> None:
    if seed.is_zero():
        raise LatticeError("orbit seed must be nonzero")
    for g in gens:
        if g.lattice != seed.lattice:
            raise LatticeError("generator acts on a different lattice than the seed")


def orbit_explore(seed: LatticeVector, gens, budget: OrbitBudget = OrbitBudget()) -> OrbitSet:
    """Deterministic BFS closure of ``seed`` under ``gens`` within ``budget``.

    Each generation expands every frontier vector by every generator, then the
    new vectors are deduplicated and sorted; if admitting all of them would
    exceed ``max_frontier`` retained vectors, the lexicographically smallest
    are kept and the set is marked not exhausted.  The output therefore
    depends only on the set of generators, not on their order or on any
    scheduling.
    """
    _check_orbit_inputs(seed, gens)
    gens = list(gens)
    bound = budget.coord_bound
    if max(abs(c) for c in seed.coords) > bound:
        raise LatticeError("seed already exceeds the coordinate bound")
    appliers = [g.apply_coords for g in gens]

    members: set[IntVector] = {seed.coords}
    frontier: list[IntVector] = [seed.coords]
    exhausted = True
    for _ in range(budget.max_depth):
        if not frontier:
            break
        fresh: set[IntVector] = set()
        for x in frontier:
            for apply in appliers:
                y = apply(x)
                if y in members or y in fresh:
                    continue
                if max(y) > bound or min(y) < -bound:
                    exhausted = False
                    continue
                fresh.add(y)
        if not fresh:
            frontier = []
            break
        room = budget.max_frontier - len(members)
        if len(fresh) > room:
            exhausted = False
            frontier = sorted(fresh)[:max(room, 0)]
            members.update(frontier)
            break
        frontier = sorted(fresh)
        members.update(fresh)
    else:
        # depth exhausted with work left pending
        if frontier:
            exhausted = False
    _assert_orbit_invariants(seed, members)
    return OrbitSet(seed=seed, members=tuple(sorted(members)), exhausted=exhausted)


def _assert_orbit_invariants(seed: LatticeVector, members: set[IntVector]) -> None:
    """Spot-check that members share the seed's square/divisibility/primitivity.

    Isometries conserve all three, so this is a defensive sample (full scan on
    small sets) rather than a per-member recomputation on million-entry sets.
    """
    lat = seed.lattice
    expected = (square(seed), divisibility(seed), is_primitive(seed))
    ordered = sorted(members)
    sample = ordered if len(ordered) <= 2048 else ordered[:: max(1, len(ordered) // 2048)]
    for coords in sample:
        v = lat.vector(coords)
        got = (square(v), divisibility(v), is_primitive(v))
        if got != expected:
            raise LatticeError(
                f"orbit invariant violated at {coords}: {got} != {expected}"
            )


def same_orbit_witness(
    v: LatticeVector,
    u: LatticeVector,
    gens,
    budget: OrbitBudget = OrbitBudget(),
) -> list[int] | None:
    """A word in ``gens`` carrying v to u, if one is found within budget.

    The word [j0, j1, ...] means gens[j0] is applied first.  Search is
    bidirectional; absence of a witness is NOT a proof of distinct orbits,
    merely of distance beyond the budget.
    """
    if v.lattice != u.lattice:
        raise LatticeError("witness search needs both vectors in one lattice")
    if not (is_primitive(v) and is_primitive(u)):
        raise LatticeError("witness search expects primitive vectors")
    _check_orbit_inputs(v, gens)
    gens = list(gens)
    if v.coords == u.coords:
        return []
    if (square(v), divisibility(v)) != (square(u), divisibility(u)):
        return None  # invariants differ; provably distinct orbits

    fwd = [g.apply_coords for g in gens]
    bwd = [g.inverse().apply_coords for g in gens]
    bound = budget.coord_bound

    # parent maps: coords -> (previous coords, generator index)
    src: dict[IntVector, tuple[IntVector, int] | None] = {v.coords: None}
    dst: dict[IntVector, tuple[IntVector, int] | None] = {u.coords: None}
    src_frontier = [v.coords]
    dst_frontier = [u.coords]

    def expand(frontier, seen, appliers):
        fresh = []
        for x in sorted(frontier):
            for j, apply in enumerate(appliers):
                y = apply(x)
                if y in seen or max(y) > bound or min(y) < -bound:
                    continue
                seen[y] = (x, j)
                fresh.append(y)
                if len(seen) > budget.max_frontier:
                    return fresh, True
        return fresh, False

    def word_from(point: IntVector) -> list[int]:
        forward: list[int] = []
        cur = point
        while src[cur] is not None:
            prev, j = src[cur]  # type: ignore[misc]
            forward.append(j)
            cur = prev
        forward.reverse()
        backward: list[int] = []
        cur = point
        while dst[cur] is not None:
            prev, j = dst[cur]  # type: ignore[misc]
            backward.append(j)
            cur = prev
        return forward + backward

    for _ in range(budget.max_depth):
        if not (src_frontier or dst_frontier):
            return None
        # expand the smaller live frontier to keep the two searches balanced
        if dst_frontier and (not src_frontier or len(src_frontier) > len(dst_frontier)):
            dst_frontier, overflow = expand(dst_frontier, dst, bwd)
            fresh, other = dst_frontier, src
        else:
            src_frontier, overflow = expand(src_frontier, src, fwd)
            fresh, other = src_frontier, dst
        meet = next((x for x in fresh if x in other), None)
        if meet is not None:
            word = word_from(meet)
            cur = v.coords
            for j in word:
                cur = fwd[j](cur)
            if cur != u.coords:
                raise LatticeError("internal error: reconstructed word does not verify")
            return word
        if overflow:
            return None
    return None
