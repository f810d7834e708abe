"""Orbit exploration under reflections in (-2)-vectors (:class:`~nikulat.lattice.Isometry`).

The monodromy group itself is out of reach at desk scale; what is explored
here is the subgroup generated by a chosen list of reflections.  A
breadth-first closure under such generators certifies SAME-orbit statements
only -- two vectors are proved to lie in distinct orbits exclusively by an
invariant (square, divisibility, primitivity), never by a failed search.

Orbit closure and witness search share one kernel writer and the key arithmetic on packed
keys (balanced base-(2B+1) digits, B >= every |x_i|, so integer order is lexicographic
order and a reflection adds c.key(r)); every generator is a reflection by type.

Every generation runs in one kernel: a straight-line function compiled from the lattice's
sparse Gram rows and the generators' roots, kept in a table of ``_KERNELS`` entries keyed by
those, the coordinate bound and the kernel's shape, so that endpoints of every key width share
it.  It reads every pairing off one G.x per vector, which is exact as G is symmetric;
``Isometry.apply_coords`` keeps the pairing over the support of G.r.  It stops an image's box
test at the first coordinate out, and builds an image's coordinate tuple only for a key it has
not seen.  The searches record that key in two shapes: witness search marks its generator in a
parent map, keeps the tuple in the generation's map, tests the meet and the cap and returns
the meet; closure writes the tuple once into its member map, appends the key to a list, the
next frontier, notes an image out of the box and caps a generation after it runs.

Each side of a witness search runs through one breadth-first ball around its endpoint,
whose new levels stop at the meet: prefix first, then finish.  A ball knows from its build
whether its endpoint lies outside the box; if so its first generation, new or finishing a
partial level, runs in the guarded kernel, and every other in the plain one.  The last
search that returned leaves its two balls; the next one reuses a side's ball on an equal entry.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache, partial, reduce
from math import gcd

from .lattice import (IntVector, LatticeError, LatticeVector, compile_kernel, divisibility, gx_source, is_primitive,
                      linear_source, square)
from .lattice import Isometry  # noqa: F401  (perfbench's tracer counts nikulat.isometry.Isometry.apply_coords)


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
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:  # floats would make the packed keys inexact; bools are not counts
                raise LatticeError(f"budget field {f.name} must be an integer, got {value!r}")
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
        if self.seed.coords not in self.members:  # a scan of the tuple: hashes no member
            raise LatticeError("orbit seed must be among the members")

    def __len__(self) -> int:
        return len(self.members)


def _check_orbit_inputs(seed: LatticeVector, gens) -> None:
    if seed.is_zero():
        raise LatticeError("orbit seed must be nonzero")
    lat = seed.lattice
    for g in gens:
        if g.lattice is not lat and g.lattice != lat:
            raise LatticeError("generator acts on a different lattice than the seed")


def _pack(x: IntVector, width: int) -> int:
    """The packed key of ``x`` (see the module docstring): Horner in base ``width``."""
    key = 0
    for c in x:
        key = key * width + c
    return key


def _unpack(key: int, width: int, rank: int) -> IntVector:
    """The ``rank`` coordinates packed in ``key``: the inverse of :func:`_pack`."""
    half, x = width // 2, []
    for _ in range(rank):
        key, c = divmod(key + half, width)  # the last digit, shifted into 0..width - 1
        x.append(c - half)
    return tuple(reversed(x))


#: generation kernels kept compiled, least recently used out
_KERNELS = 8


@lru_cache(maxsize=_KERNELS)
def _kernel(rows: tuple, roots: tuple, bound: int, shape: str):
    """The generation kernel of the reflections in ``roots`` on the lattice of sparse Gram
    ``rows``, in the box ``bound``, in one of three shapes.

    ``roots`` holds each reflection's support of r (``Isometry._supports[1]``).  The kernel is one
    straight-line ``generation`` on vectors of rank ``len(rows)``: for each vector, the entries g_i
    of G.x at every coordinate i of the roots' supports, written by :func:`~nikulat.lattice.gx_source`;
    then for each reflection j, in order, the pairing c = (x, r_j) = sum of r_i g_i over r_j's
    support (G is symmetric), the update of r_j's support with its box test, which stops at the
    first coordinate out, the key k = key + c.s_j and the ``seen`` test; only a new key gets its
    coordinate tuple.  The ``generation`` shape, ``generation(frontier, seen, cap, other)``, runs
    :meth:`_Ball.generation`: it reads the map ``frontier`` in key order, marks ``seen[k] = j``, puts
    the tuple in the map ``fresh``, then tests the meet and the cap (counting down the room left), and
    returns ``(fresh, meet)``, the meet None after a cap stop or a whole generation; the ``guarded``
    shape also skips r_j unless r_j's support covers every coordinate outside the box.  The
    ``closure`` shape, ``generation(frontier, seen)``, runs :func:`orbit_explore`: it reads each key
    of the list ``frontier`` from the member map ``seen``, writes a new key's tuple there, appends the
    key to the list ``fresh`` and returns ``(fresh, whether an image left the box)``; no meet, no cap.
    Every integer in the source (an index or a coefficient of G or r, each an int) is written in
    hex, which the interpreter's limit on converting ints to decimal text does not cover.  The
    bound and the steps s_j are closure values: called with the steps in the caller's key width,
    the result returns the generation.
    """
    rank, forms, closure = len(rows), gx_source(rows), shape == "closure"
    lines = [f"def make(lo, hi{''.join(f', s{j}' for j in range(len(roots)))}):",
             " def generation(frontier, seen):\n  fresh = []\n  clipped = False\n  for key in frontier:" if closure
             else " def generation(frontier, seen, cap, other):\n  fresh = {}\n  room = cap - len(seen)\n"
                  "  for key in sorted(frontier):",
             f"   ({''.join(f'x{i}, ' for i in range(rank))}) = {'seen' if closure else 'frontier'}[key]"]
    lines += [f"   g{i} = {forms[i]}" for i in sorted({i for root in roots for i, _ in root})]
    for j, root in enumerate(roots):
        cover = {i for i, _ in root}
        lines.append(f"   c = {linear_source((r, f'g{i}') for i, r in root)}")  # r != 0: its square is -2
        guard = "".join(f" and lo <= x{i} <= hi" for i in range(rank) if shape == "guarded" and i not in cover)
        lines.append(f"   if c{guard}:")
        images = (f"lo <= (y{i} := {linear_source(((1, f'x{i}'), (r, 'c')))}) <= hi" for i, r in root)
        lines.append(f"    if {' and '.join(images)}:")
        image = f"({''.join(f'y{i}, ' if i in cover else f'x{i}, ' for i in range(rank))})"
        lines.append(f"     k = key + c*s{j}\n     if k not in seen:\n      " + (
            f"seen[k] = {image}\n      fresh.append(k)\n    else:\n     clipped = True" if closure else
            f"seen[k] = {j:#x}\n      fresh[k] = {image}\n      if k in other:\n       return fresh, k\n"
            "      room -= 0x1\n      if room < 0x0:\n       return fresh, None"))
    lines.append(f"  return fresh, {'clipped' if closure else 'None'}\n return generation")
    return partial(compile_kernel("\n".join(lines), "generation kernel", ("make",))[0], -bound, bound)


def _stepped(rows: tuple, supports: tuple, bound: int, width: int, shape: str = "generation"):
    """The ``shape`` kernel of the reflections with ``supports`` on the lattice of sparse Gram ``rows``
    in the box ``bound``, bound to their key steps key(r) in base ``width``, for both searches."""
    roots = tuple(root for _, root in supports)
    return _kernel(rows, roots, bound, shape)(*(sum(r * width ** (len(rows) - 1 - i) for i, r in root)
                                                for root in roots))


def orbit_explore(seed: LatticeVector, gens, budget: OrbitBudget = OrbitBudget()) -> OrbitSet:
    """Deterministic BFS closure of ``seed`` under the reflections ``gens`` within ``budget``.

    Each generation runs the closure kernel (see :func:`_kernel`): it expands every
    frontier key by every generator, writes each new vector once into the one member
    map (packed key -> coordinates, B = coord_bound) and lists its key in the next
    frontier.  If the new vectors overflow ``max_frontier`` retained vectors, only the
    lexicographically smallest are kept, the rest deleted from the map, and the set is
    marked not exhausted.  The output therefore depends only on the set of generators,
    not on their order or on any scheduling.
    """
    gens = tuple(gens)  # read twice: checked, then turned into moves
    _check_orbit_inputs(seed, gens)
    bound = budget.coord_bound
    if max(abs(c) for c in seed.coords) > bound:
        raise LatticeError("seed already exceeds the coordinate bound")
    generation = _stepped(seed.lattice.sparse_rows, tuple(g._supports for g in gens), bound, 2 * bound + 1, "closure")
    frontier = [_pack(seed.coords, 2 * bound + 1)]  # keys: their coordinates are in members
    members = {frontier[0]: seed.coords}  # key -> coordinates, also the kernel's seen map
    exhausted = True
    for _ in range(budget.max_depth):
        room = budget.max_frontier - len(members)
        frontier, clipped = generation(frontier, members)
        capped = len(frontier) > room
        if capped:
            for k in sorted(frontier)[room:]:
                del members[k]
        exhausted = exhausted and not (clipped or capped)
        if capped or not frontier:
            break
    exhausted = exhausted and not frontier  # the depth ran out with work pending
    del frontier
    members = tuple(map(members.pop, sorted(members)))  # key order is coordinate order; gathered in C
    _assert_orbit_invariants(seed, members)
    return OrbitSet(seed=seed, members=members, exhausted=exhausted)


def _assert_orbit_invariants(seed: LatticeVector, members: tuple[IntVector, ...]) -> None:
    """Spot-check that members share the seed's square/divisibility/primitivity.

    Isometries conserve all three, so this is a defensive sample of the sorted
    ``members``, not a per-member recomputation on million-entry sets: every member
    when there are n < 4,096, otherwise every (n // 2048)-th, read by the compiled kernels.
    """
    square_of, divisibility_of, _ = seed.lattice.invariant_kernels
    expected = (square(seed), divisibility(seed), is_primitive(seed))
    sample = members if len(members) <= 2048 else members[:: max(1, len(members) // 2048)]
    for coords in sample:  # members are ints of the lattice's rank: no re-validation
        got = (square_of(coords), divisibility_of(coords), gcd(*coords) == 1)
        if got != expected:
            raise LatticeError(
                f"orbit invariant violated at {coords}: {got} != {expected}"
            )


def distinct_invariants(v: LatticeVector, u: LatticeVector) -> tuple[tuple[str, int, int], ...]:
    """``(name, value at v, value at u)`` for each orbit invariant, square and
    divisibility, on which v and u differ; any entry proves distinct orbits."""
    values = (("square", square(v), square(u)), ("divisibility", divisibility(v), divisibility(u)))
    return tuple(entry for entry in values if entry[1] != entry[2])


# under key 0: the last witness search's (entry, ball) pair per side, v then u, and its kernels; an
# entry is (endpoint, generator supports, coord_bound, max_frontier, width)
_last: dict = {}


class _Ball:
    """An endpoint's breadth-first levels: ``tree`` maps each key to the index of the reflection that
    reached it (None at the root), ``levels[d]`` lists the keys at distance d in insertion order, ``cut``
    says that the frontier cap stopped the last level, ``whole`` that it is complete and ``outside`` that
    the endpoint lies outside the box ``bound``.  Only the last whole level, the one expanded next, and a
    partial one after it map keys to coordinates."""

    __slots__ = ("tree", "levels", "cut", "whole", "outside")

    def __init__(self, x: IntVector, width: int, bound: int) -> None:
        key = _pack(x, width)
        self.tree, self.levels, self.cut, self.whole = {key: None}, [{key: x}], False, True
        self.outside = max(map(abs, x)) > bound

    def generation(self, d: int, kernels: tuple, cap: int, other=frozenset()) -> tuple:
        """``(fresh, meet)``: level d - 1 expanded into ``tree`` by one of ``kernels`` (see :func:`_kernel`),
        the plain kernel or a call that returns the guarded one.  The guarded kernel expands the endpoint
        of a ball ``outside`` the box, by the reflections whose r covers its outlying coordinates."""
        kernel, guarded = kernels
        return (guarded() if d == 1 and self.outside else kernel)(self.levels[d - 1], self.tree, cap, other)

    def level(self, d: int, kernels: tuple, cap: int, other) -> tuple:
        """``(level d, its first key in other or None, whether the cap stops the search there)``.

        A new level stops at its first key in ``other``.  A partial level with no such key in
        its prefix is finished by generating it again: that skips the prefix, now in ``tree``,
        and appends the rest as a whole generation does, from the room the prefix left.
        """
        levels, tree = self.levels, self.tree
        if d < len(levels):
            meet = next((k for k in levels[d] if k in other), None)
            if meet is not None or self.whole or d < len(levels) - 1:
                return levels[d], meet, self.cut and d == len(levels) - 1
            fresh = self.generation(d, kernels, cap)[0]
            meet = next((k for k in fresh if k in other), None)
            levels[d].update(fresh)
            self.whole = True
        else:
            fresh, meet = self.generation(d, kernels, cap, other)
            levels.append(fresh)
            self.whole = meet is None or len(tree) > cap  # a meet on the insertion past the cap ends it
        self.cut = len(tree) > cap
        if self.whole:
            levels[d - 1] = tuple(levels[d - 1])
        return levels[d], meet, self.cut


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

    Each side runs through its endpoint's ball of levels: prefix first, then finish.
    A search that returns keeps its two balls (at most 2 * ``max_frontier`` keys) and its
    kernels until the next one, which runs a side through the kept ball when the side's
    endpoint, generators, coordinate bound, ``max_frontier`` and key width are equal, keeps
    the kernels if a side does, and drops every other ball before it expands anything.
    Every answer is the one a search from fresh balls gives.  A search that raises puts
    no ball back.
    """
    if v.lattice is not u.lattice and v.lattice != u.lattice:
        raise LatticeError("witness search needs both vectors in one lattice")
    if not (is_primitive(v) and is_primitive(u)):
        raise LatticeError("witness search expects primitive vectors")
    gens = tuple(gens)  # read more than once: checked, turned into moves, replayed
    _check_orbit_inputs(v, gens)
    if v.coords == u.coords:
        return []
    if distinct_invariants(v, u):
        return None  # provably distinct orbits

    bound, cap, rank = budget.coord_bound, budget.max_frontier, v.lattice.rank
    width = 2 * max(bound, *map(abs, v.coords), *map(abs, u.coords)) + 1
    supports = tuple(g._supports for g in gens)
    apply = [g.apply_coords for g in gens]
    # per side (v, u): its entry, its ball (the last search's on an equal entry, compared without
    # hashing; one pop takes them, so no two threads share one) and the keys it holds at its
    # current depth (while that is the ball's, its tree); an equal entry also keeps the kernels
    entries = [(x, supports, bound, cap, width) for x in (v.coords, u.coords)]
    *pairs, kernels = _last.pop(0, ((None, None), (None, None), None))
    kept = [entry == last for entry, (last, _) in zip(entries, pairs)]
    balls = [ball if same else _Ball(entry[0], width, bound) for entry, same, (_, ball) in zip(entries, kept, pairs)]
    del pairs  # so a ball not kept goes before anything is expanded
    # the plain kernel, and a call that compiles the guarded one when an endpoint outside the box needs it
    stepped = partial(_stepped, v.lattice.sparse_rows, supports, bound, width)
    kernels = kernels if any(kept) else (stepped(), partial(stepped, "guarded"))
    held = [ball.tree if len(ball.levels) == 1 else set(ball.levels[0]) for ball in balls]
    frontiers = [ball.levels[0] for ball in balls]
    depth = [0, 0]

    def path(tree: dict, key: int, x: IntVector) -> list[int]:
        # reflections are involutions, so the recorded one leads back to the parent
        word = []
        while (j := tree[key]) is not None:
            word.append(j)
            x = apply[j](x)
            key = _pack(x, width)
        return word

    word = None
    for _ in range(budget.max_depth):
        if not (frontiers[0] or frontiers[1]):
            break
        # expand the smaller live frontier to keep the two searches balanced
        s = 1 if frontiers[1] and (not frontiers[0] or len(frontiers[0]) > len(frontiers[1])) else 0
        depth[s] += 1
        frontiers[s], meet, overflow = balls[s].level(depth[s], kernels, cap, held[1 - s])
        if held[s] is not balls[s].tree:
            held[s].update(frontiers[s])
        if meet is not None:
            x = _unpack(meet, width, rank)  # its level may keep only keys
            word = path(balls[0].tree, meet, x)[::-1] + path(balls[1].tree, meet, x)
            if reduce(lambda y, j: apply[j](y), word, v.coords) != u.coords:
                raise LatticeError("internal error: reconstructed word does not verify")
            break
        if overflow:
            break
    _last[0] = (*zip(entries, balls), kernels)
    return word
