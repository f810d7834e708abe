"""Lattice isometries, reflections in (-2)-vectors, and orbit exploration.

The monodromy group itself is out of reach at desk scale; what is explored
here is the subgroup generated by a chosen list of reflections.  A
breadth-first closure under such generators certifies SAME-orbit statements
only -- two vectors are proved to lie in distinct orbits exclusively by an
invariant (square, divisibility, primitivity), never by a failed search.

Orbit closure and witness search share one generation step on packed keys
(balanced base-(2B+1) digits, B >= every |x_i|, so integer order is lexicographic
order and a reflection adds c.key(r)); every generator is a reflection by type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import intmat
from .intmat import IntVector, Matrix
from .lattice import Lattice, LatticeError, LatticeVector, divisibility, is_primitive, square


@dataclass(frozen=True)
class Isometry:
    """The reflection x |-> x + (x, r) r of a lattice in a root r of square -2.

    Every isometry here is such a reflection; build one with :func:`reflection`.
    Construction derives ``matrix`` from ``root`` and validates exactly that it
    conserves the Gram form.  ``apply_coords`` and the orbit searches take the
    O(support) path: (x, r) sums over the nonzero entries of G.r, x is returned
    unchanged when (x, r) = 0, and otherwise only r's support is updated.
    """

    lattice: Lattice
    root: IntVector
    matrix: Matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        lat, r = self.lattice, self.root
        gr = intmat.matvec(lat.gram, r)
        n = lat.rank
        matrix = intmat.freeze([[int(i == j) + r[i] * gr[j] for j in range(n)] for i in range(n)])
        if intmat.matmul(intmat.matmul(intmat.transpose(matrix), lat.gram), matrix) != lat.gram:
            raise LatticeError(f"the reflection in {r} does not conserve the Gram form")
        object.__setattr__(self, "matrix", matrix)

    def __call__(self, v: LatticeVector) -> LatticeVector:
        if v.lattice != self.lattice:
            raise LatticeError("vector does not live on this isometry's lattice")
        return self.lattice.vector(self.apply_coords(v.coords))

    def apply_coords(self, x: IntVector) -> IntVector:
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
        """Nonzero entries of G.r and of r as (index, value) pairs."""
        r = self.root
        gram_root = ((i, sum(g * r[j] for j, g in row)) for i, row in enumerate(self.lattice.sparse_rows))
        return tuple((i, c) for i, c in gram_root if c), tuple((i, c) for i, c in enumerate(r) if c)


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
    return Isometry(v.lattice, v.coords)


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


def _check_orbit_inputs(seed: LatticeVector, gens) -> None:
    if seed.is_zero():
        raise LatticeError("orbit seed must be nonzero")
    for g in gens:
        if g.lattice != seed.lattice:
            raise LatticeError("generator acts on a different lattice than the seed")


def _pack(x: IntVector, width: int) -> int:
    """The packed key of ``x`` (see the module docstring): Horner in base ``width``."""
    key = 0
    for c in x:
        key = key * width + c
    return key


def _moves(gens, width: int):
    """Per reflection: (index, support of G.r, support of r, key step of r)."""
    return tuple((j, *g._supports, _pack(g.root, width)) for j, g in enumerate(gens))


def _generation(frontier: dict, seen: dict, moves, bound: int, cap, other=frozenset()):
    """One breadth-first generation on packed keys, shared by both searches.

    ``frontier`` (key -> coordinates) is expanded in key order, each vector by
    every move in generator order.  A new image inside ``bound`` is recorded as
    ``seen[key] = generator index`` and in ``fresh``.  Expansion stops at the
    first inserted key that ``other`` (the opposite search's parent map; empty
    for orbit closure) already holds, or else once ``seen`` holds more than
    ``cap`` keys.  ``fresh`` is insertion-ordered, so that meeting key is the
    first key of the full generation's ``fresh`` found in ``other``.  Returns
    fresh, whether an image left the box, whether the cap stopped the
    expansion, and the meeting key (None if the sides did not meet).
    """
    fresh = {}
    clipped = False
    for key in sorted(frontier):
        x = frontier[key]
        usable = moves
        if seen[key] is None and (max(x) > bound or min(x) < -bound):
            # a witness endpoint outside the box: r's support must cover its outliers
            out = {i for i, c in enumerate(x) if abs(c) > bound}
            usable = [m for m in moves if out <= {i for i, _ in m[2]}]
        for j, gram_root, root, step in usable:
            c = 0
            for i, g in gram_root:
                c += g * x[i]
            if not c:
                continue
            for i, r in root:
                yi = x[i] + c * r
                if yi > bound or yi < -bound:
                    clipped = True
                    break
            else:
                k = key + c * step
                if k in seen:
                    continue
                y = list(x)
                for i, r in root:
                    y[i] += c * r
                seen[k] = j
                fresh[k] = tuple(y)
                if k in other:
                    return fresh, clipped, False, k
                if len(seen) > cap:
                    return fresh, clipped, True, None
    return fresh, clipped, False, None


def orbit_explore(seed: LatticeVector, gens, budget: OrbitBudget = OrbitBudget()) -> OrbitSet:
    """Deterministic BFS closure of ``seed`` under the reflections ``gens`` within ``budget``.

    Each generation expands every frontier vector by every generator; vectors
    are deduplicated and ordered by their packed keys (B = coord_bound).  If
    admitting all new vectors would exceed ``max_frontier`` retained vectors,
    the lexicographically smallest are kept and the set is marked not
    exhausted.  The output therefore depends only on the set of generators,
    not on their order or on any scheduling.
    """
    _check_orbit_inputs(seed, gens)
    bound = budget.coord_bound
    if max(abs(c) for c in seed.coords) > bound:
        raise LatticeError("seed already exceeds the coordinate bound")
    moves = _moves(gens, 2 * bound + 1)
    key = _pack(seed.coords, 2 * bound + 1)
    # key -> coordinates, also the engine's seen map: update(fresh) overwrites its marks
    members = {key: seed.coords}
    frontier = {key: seed.coords}
    exhausted = True
    for _ in range(budget.max_depth):
        fresh, clipped, _, _ = _generation(frontier, members, moves, bound, float("inf"))
        room = budget.max_frontier - len(members) + len(fresh)
        capped = len(fresh) > room
        if capped:
            for k in sorted(fresh)[room:]:
                del members[k], fresh[k]
        members.update(fresh)
        exhausted = exhausted and not (clipped or capped)
        frontier = fresh
        if capped or not frontier:
            break
    exhausted = exhausted and not frontier  # the depth ran out with work pending
    del frontier, fresh
    members = tuple(members[k] for k in sorted(members))
    _assert_orbit_invariants(seed, members)
    return OrbitSet(seed=seed, members=members, exhausted=exhausted)


def _assert_orbit_invariants(seed: LatticeVector, members: tuple[IntVector, ...]) -> None:
    """Spot-check that members share the seed's square/divisibility/primitivity.

    Isometries conserve all three, so this is a defensive sample (full scan on
    small sets) rather than a per-member recomputation on million-entry sets.
    ``members`` is the sorted member tuple.
    """
    lat = seed.lattice
    expected = (square(seed), divisibility(seed), is_primitive(seed))
    sample = members if len(members) <= 2048 else members[:: max(1, len(members) // 2048)]
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
    """A word in the reflections ``gens`` carrying v to u, if one is found within budget.

    The word [j0, j1, ...] means gens[j0] is applied first.  Search is
    bidirectional on packed keys: each generation stops at the first new key
    the other side holds, and the search gives up as soon as either side
    holds more than ``max_frontier`` vectors.  The endpoints may lie outside
    the box, so keys use B = max(coord_bound, |endpoint coordinates|).
    Absence of a witness is NOT a proof of distinct orbits, merely of distance
    beyond the budget.
    """
    if v.lattice != u.lattice:
        raise LatticeError("witness search needs both vectors in one lattice")
    if not (is_primitive(v) and is_primitive(u)):
        raise LatticeError("witness search expects primitive vectors")
    _check_orbit_inputs(v, gens)
    if v.coords == u.coords:
        return []
    if (square(v), divisibility(v)) != (square(u), divisibility(u)):
        return None  # invariants differ; provably distinct orbits

    bound = budget.coord_bound
    width = 2 * max(bound, *map(abs, v.coords), *map(abs, u.coords)) + 1
    moves = _moves(gens, width)
    apply = [g.apply_coords for g in gens]
    # parent maps: key -> index of the reflection that reached it (None at the root)
    src: dict[int, int | None] = {_pack(v.coords, width): None}
    dst: dict[int, int | None] = {_pack(u.coords, width): None}
    src_frontier = {k: v.coords for k in src}
    dst_frontier = {k: u.coords for k in dst}

    def path(tree: dict, key: int, x: IntVector) -> list[int]:
        # reflections are involutions, so the recorded one leads back to the parent
        word = []
        while (j := tree[key]) is not None:
            word.append(j)
            x = apply[j](x)
            key = _pack(x, width)
        return word

    for _ in range(budget.max_depth):
        if not (src_frontier or dst_frontier):
            return None
        # expand the smaller live frontier to keep the two searches balanced
        if dst_frontier and (not src_frontier or len(src_frontier) > len(dst_frontier)):
            dst_frontier, _, overflow, meet = _generation(
                dst_frontier, dst, moves, bound, budget.max_frontier, src
            )
            fresh = dst_frontier
        else:
            src_frontier, _, overflow, meet = _generation(
                src_frontier, src, moves, bound, budget.max_frontier, dst
            )
            fresh = src_frontier
        if meet is not None:
            word = path(src, meet, fresh[meet])[::-1] + path(dst, meet, fresh[meet])
            cur = v.coords
            for j in word:
                cur = apply[j](cur)
            if cur != u.coords:
                raise LatticeError("internal error: reconstructed word does not verify")
            return word
        if overflow:
            return None
    return None
