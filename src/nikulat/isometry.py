"""Lattice isometries, reflections in (-2)-vectors, and orbit exploration.

The monodromy group itself is out of reach at desk scale; what is explored
here is the subgroup generated by a chosen list of reflections.  A
breadth-first closure under such generators certifies SAME-orbit statements
only -- two vectors are proved to lie in distinct orbits exclusively by an
invariant (square, divisibility, primitivity), never by a failed search.

Orbit closure and witness search share one generation step on packed keys
(balanced base-(2B+1) digits, B >= every |x_i|, so integer order is lexicographic
order and a reflection adds c.key(r)); every generator is a reflection by type.
A reflection reads G.r off its lattice's compiled product; its one check is (r, r) = -2.

A generation runs in one kernel: a straight-line function compiled from the
generators' supports and kept in a table of ``_KERNELS`` entries keyed by those,
the coordinate bound and the rank only, so that endpoints of every key width
share it.  It does the sums, updates and comparisons of a loop over the supports,
in the same order, so every answer is exact, and builds an image's coordinate
tuple only for a key it has not seen.

Each side of a witness search runs through one breadth-first ball around its endpoint,
whose new levels stop at the meet: prefix first, then finish.  A least-recently-used table
keeps the balls of endpoints searched more than once under the same generators, coordinate
bound, frontier cap and key width; endpoints searched once only leave a marker.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache, partial, reduce
from math import gcd

from .lattice import (IntVector, Lattice, LatticeError, LatticeVector, compile_kernel, divisibility, is_primitive,
                      linear_source, square)


@dataclass(frozen=True)
class Isometry:
    """The reflection x |-> x + (x, r) r of a lattice in a root r of square -2.

    Every isometry here is such a reflection; build one with :func:`reflection`.
    Construction reads the support of G.r off the lattice's compiled ``gram_product``
    and checks (r, r) = -2 on it and r's support.  That is Gram conservation: with c = (x, r),
    (s x, s x) = (x, x) + c^2 (2 + (r, r)), and c != 0 for some x since the
    lattice is nondegenerate.  ``apply_coords`` and the orbit searches take the
    O(support) path: x is returned unchanged when (x, r) = 0, and otherwise only
    r's support is updated.
    """

    lattice: Lattice
    root: IntVector
    _supports: tuple = field(init=False, repr=False, compare=False)  # nonzero (i, (G.r)_i), (i, r_i)

    def __post_init__(self) -> None:
        r = self.root
        if len(r) != self.lattice.rank:
            raise LatticeError(f"root has {len(r)} coordinates, the lattice has rank {self.lattice.rank}")
        if any(type(c) is not int for c in r):  # orbit members built from it are trusted to be ints
            raise LatticeError(f"root coordinates must be integers, got {list(r)!r}")
        gram_root = tuple((i, c) for i, c in enumerate(self.lattice.invariant_kernels[2](r)) if c)
        sq = sum(c * r[i] for i, c in gram_root)
        if sq != -2:
            raise LatticeError(f"reflection root must have square -2 to conserve the Gram form, got {sq}")
        object.__setattr__(self, "_supports", (gram_root, tuple((i, c) for i, c in enumerate(r) if c)))

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


def reflection(v: LatticeVector) -> Isometry:
    """The reflection x |-> x + (x, v) v in a vector of square -2.

    :class:`Isometry` accepts only roots of square -2 and raises
    ``LatticeError`` for any other root.
    """
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
def _kernel(supports: tuple, bound: int, rank: int):
    """The generation kernel of reflections with ``supports`` in the box ``bound``.

    ``supports`` holds each reflection's ``Isometry._supports``.  The kernel is one
    straight-line ``generation(frontier, seen, cap, other)`` that runs :func:`_generation`
    on vectors of ``rank`` inside the box: for each vector, in key order, and each
    reflection j, in order, the pairing c = (x, r_j), the update of r_j's support, the box
    test there, the key k = key + c.s_j and the ``seen`` test; only a new key gets its
    coordinate tuple, then the meet and cap tests (the cap counting down the room left).
    Every integer in its source (an index or a coefficient of G.r or r, each an int checked
    by :class:`Isometry`) is written in hex, which the interpreter's limit on converting
    ints to decimal text does not cover.  The bound and the steps s_j are closure values:
    called with the steps in the caller's key width, the result returns the generation.
    """
    lines = [f"def make(lo, hi{''.join(f', s{j}' for j in range(len(supports)))}):",
             " def generation(frontier, seen, cap, other):",
             "  fresh = {}\n  clipped = False\n  room = cap - len(seen)\n  for key in sorted(frontier):",
             f"   ({''.join(f'x{i}, ' for i in range(rank))}) = frontier[key]"]
    for j, (gram_root, root) in enumerate(supports):
        cover = {i for i, _ in root}
        lines.append(f"   c = {linear_source((g, f'x{i}') for i, g in gram_root)}")  # G.r != 0: nondegenerate form
        lines.append("   if c:")
        lines.extend(f"    y{i} = {linear_source(((1, f'x{i}'), (r, 'c')))}" for i, r in root)
        lines.append(f"    if {' and '.join(f'lo <= y{i} <= hi' for i, _ in root)}:")
        lines.append(f"     k = key + c*s{j}\n     if k not in seen:\n      seen[k] = {j:#x}")
        lines.append(f"      fresh[k] = ({''.join(f'y{i}, ' if i in cover else f'x{i}, ' for i in range(rank))})")
        lines.append("      if k in other:\n       return fresh, clipped, False, k\n      room -= 0x1\n"
                     "      if room < 0x0:\n       return fresh, clipped, True, None\n    else:\n     clipped = True")
    lines.append("  return fresh, clipped, False, None\n return generation")
    return partial(compile_kernel("\n".join(lines), "generation kernel", ("make",))[0], -bound, bound)


def _engine(supports: tuple, bound: int, rank: int, width: int) -> tuple:
    """What :func:`_generation` expands by: ``(generation, supports, steps, bound)``, the
    kernel of the reflections with ``supports`` bound to their packed steps in base ``width``."""
    steps = [sum(r * width ** (rank - 1 - i) for i, r in root) for _, root in supports]
    return _kernel(supports, bound, rank)(*steps), supports, steps, bound


def _generation(frontier: dict, seen: dict, engine: tuple, cap, other=frozenset()):
    """One breadth-first generation on packed keys, shared by both searches.

    ``frontier`` (key -> coordinates) is expanded in key order, each vector by every
    reflection of the ``engine`` (see :func:`_engine`) in order; image j of the vector of
    key k has key k + c * steps[j].  A new image inside ``bound`` is recorded as
    ``seen[key] = generator index`` and in ``fresh``.  Expansion stops at the first
    inserted key that ``other`` (the opposite search's parent map; empty for orbit
    closure) already holds, or else once ``seen`` holds more than ``cap`` keys.  ``fresh``
    is insertion-ordered, so that meeting key is the first key of the full generation's
    ``fresh`` found in ``other``.  Returns fresh, whether an image before the stop left
    the box, whether the cap stopped the expansion, and the meeting key (None if the
    sides did not meet).  The compiled kernel runs every generation but a witness
    endpoint's outside the box, a root alone in its frontier: that one is expanded here,
    by the reflections whose r covers its outliers.
    """
    generation, supports, steps, bound = engine
    if len(frontier) == 1:
        ((key, x),) = frontier.items()
        if seen[key] is None and (max(x) > bound or min(x) < -bound):
            # a witness endpoint outside the box: r's support must cover its outliers
            out = {i for i, c in enumerate(x) if abs(c) > bound}
            fresh, clipped = {}, False
            for j, (gram_root, root) in enumerate(supports):
                c = sum(g * x[i] for i, g in gram_root)
                if not c or not out <= {i for i, _ in root}:
                    continue
                y = list(x)
                for i, r in root:
                    y[i] += c * r
                if max(y) > bound or min(y) < -bound:
                    clipped = True
                elif (k := key + c * steps[j]) not in seen:
                    seen[k], fresh[k] = j, tuple(y)
                    if k in other:
                        return fresh, clipped, False, k
                    if len(seen) > cap:
                        return fresh, clipped, True, None
            return fresh, clipped, False, None
    return generation(frontier, seen, cap, other)


def orbit_explore(seed: LatticeVector, gens, budget: OrbitBudget = OrbitBudget()) -> OrbitSet:
    """Deterministic BFS closure of ``seed`` under the reflections ``gens`` within ``budget``.

    Each generation expands every frontier vector by every generator; vectors
    are deduplicated and ordered by their packed keys (B = coord_bound).  If
    admitting all new vectors would exceed ``max_frontier`` retained vectors,
    the lexicographically smallest are kept and the set is marked not
    exhausted.  The output therefore depends only on the set of generators,
    not on their order or on any scheduling.
    """
    gens = tuple(gens)  # read twice: checked, then turned into moves
    _check_orbit_inputs(seed, gens)
    bound = budget.coord_bound
    if max(abs(c) for c in seed.coords) > bound:
        raise LatticeError("seed already exceeds the coordinate bound")
    engine = _engine(tuple(g._supports for g in gens), bound, seed.lattice.rank, 2 * bound + 1)
    key = _pack(seed.coords, 2 * bound + 1)
    # key -> coordinates, also the engine's seen map: update(fresh) overwrites its marks
    members = {key: seed.coords}
    frontier = {key: seed.coords}
    exhausted = True
    for _ in range(budget.max_depth):
        fresh, clipped, _, _ = _generation(frontier, members, engine, float("inf"))
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


#: endpoints whose breadth-first balls witness search keeps across searches
_KEPT_ENDPOINTS = 4
#: endpoints searched once that witness search remembers, so that a second search keeps its ball
_SEEN_ONCE = 64
# (endpoint, generator supports, coord_bound, max_frontier, width) -> _Ball in _kept, -> None in
# _seen_once; least recently used first.  A search owns the balls it takes out of _kept.
_kept: OrderedDict = OrderedDict()
_seen_once: OrderedDict = OrderedDict()


class _Ball:
    """An endpoint's breadth-first levels: ``tree`` maps each key to the index of the reflection that
    reached it (None at the root), ``levels[d]`` lists the keys at distance d in insertion order, ``cut``
    says that the frontier cap stopped the last level and ``whole`` that it is complete.  Only the last
    whole level, the one expanded next, and a partial one after it map keys to coordinates."""

    __slots__ = ("tree", "levels", "cut", "whole")

    def __init__(self, key: int, x: IntVector) -> None:
        self.tree, self.levels, self.cut, self.whole = {key: None}, [{key: x}], False, True

    def level(self, d: int, engine: tuple, cap: int, other) -> tuple:
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
            fresh = _generation(levels[d - 1], tree, engine, cap)[0]
            meet = next((k for k in fresh if k in other), None)
            levels[d].update(fresh)
            self.whole = True
        else:
            fresh, _, _, meet = _generation(levels[-1], tree, engine, cap, other)
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
    An endpoint's first search drops its ball and keeps a marker (for the last
    ``_SEEN_ONCE`` endpoints searched once); from its second search under the same
    generators, coordinate bound, ``max_frontier`` and key width, its ball is kept for
    at most ``_KEPT_ENDPOINTS`` endpoints (least recently used out): at most that many
    times ``max_frontier`` keys.  Every answer is the one a search from fresh balls
    gives.  A search that raises puts no ball back.
    """
    if v.lattice != u.lattice:
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
    engine = _engine(supports, bound, rank, width)
    apply = [g.apply_coords for g in gens]
    # per side (v, u): its table entry, the ball taken from _kept (or None), the ball it runs
    # through, and the keys it holds at its current depth (while that is the ball's, its tree)
    entries = [(x, supports, bound, cap, width) for x in (v.coords, u.coords)]
    taken = [_kept.pop(entry, None) for entry in entries]
    balls = [ball or _Ball(_pack(entry[0], width), entry[0]) for ball, entry in zip(taken, entries)]
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
        frontiers[s], meet, overflow = balls[s].level(depth[s], engine, cap, held[1 - s])
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
    for entry, ball, took in zip(entries, balls, taken):
        keep = took is not None or entry in _seen_once
        table, limit = (_kept, _KEPT_ENDPOINTS) if keep else (_seen_once, _SEEN_ONCE)
        table[entry] = ball if keep else None
        while len(table) > limit:  # least recently used out
            with suppress(KeyError):  # emptied meanwhile by searches in other threads
                table.popitem(last=False)
        if entry in _kept:  # checked last: a search in another thread may have kept it meanwhile
            _seen_once.pop(entry, None)
    return word
