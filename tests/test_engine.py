"""The packed-key frontier engine against a plain tuple breadth-first oracle.

``oracle_orbit`` and ``oracle_witness`` are the tuple-keyed loops the engine
replaced: every image is built with ``apply_coords``, deduplicated as a
coordinate tuple and bound-checked on all coordinates.  Orbit members, the
``exhausted`` flag and witness words (or None) must agree exactly, whichever
of coordinate bound, frontier cap or depth cuts the search short.

``reference_generation`` is the generation step as a loop over each
reflection's supports, pairing over the support of G.r, where the compiled
generation kernels read every pairing off one G.x per vector; one generation
of a witness ball, run through ``_Ball.generation``, must equal it insertion
for insertion, stop for stop and meet for meet.  Orbit closure runs the
closure shape of the kernel, which records members only, and is held to
``oracle_orbit``, its clipped flag through ``exhausted``, also at every
frontier cap on or next to a level boundary.
"""

import io
import random
import sys
import threading
import tokenize
import tracemalloc
import weakref
from functools import partial
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nikulat import OrbitBudget, isometry, orbit_explore, parse_vector, reflection, same_orbit_witness
from nikulat.intmat import det
from nikulat.isometry import _Ball, _kernel, _last, _pack, _stepped, _unpack
from nikulat.lattice import Lattice, gx_source, square
from nikulat.model import build_model, default_generators

MODEL, NV = build_model()
LY = MODEL.lambda_Y
LY_GENS = default_generators()


def oracle_orbit(seed, gens, budget):
    appliers = [g.apply_coords for g in gens]
    bound = budget.coord_bound
    members = {seed.coords}
    frontier = [seed.coords]
    exhausted = True
    for _ in range(budget.max_depth):
        if not frontier:
            break
        fresh = set()
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
            frontier = sorted(fresh)[: max(room, 0)]
            members.update(frontier)
            break
        frontier = sorted(fresh)
        members.update(fresh)
    else:
        if frontier:
            exhausted = False
    return tuple(sorted(members)), exhausted


def oracle_witness(v, u, gens, budget):
    """The search part of ``same_orbit_witness`` for v != u of equal invariants."""
    appliers = [g.apply_coords for g in gens]
    bound = budget.coord_bound
    src = {v.coords: None}
    dst = {u.coords: None}
    src_frontier, dst_frontier = [v.coords], [u.coords]

    def expand(frontier, seen):
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

    def walk(tree, point):
        word = []
        while tree[point] is not None:
            point, j = tree[point]
            word.append(j)
        return word

    for _ in range(budget.max_depth):
        if not (src_frontier or dst_frontier):
            return None
        if dst_frontier and (not src_frontier or len(src_frontier) > len(dst_frontier)):
            dst_frontier, overflow = expand(dst_frontier, dst)
            fresh, other = dst_frontier, src
        else:
            src_frontier, overflow = expand(src_frontier, src)
            fresh, other = src_frontier, dst
        meet = next((x for x in fresh if x in other), None)
        if meet is not None:
            return walk(src, meet)[::-1] + walk(dst, meet)
        if overflow:
            return None
    return None


def reference_moves(gens, width):
    """Per reflection: (index, support of G.r, support of r, key step of r)."""
    return tuple((j, *g._supports, _pack(g.root, width)) for j, g in enumerate(gens))


def reference_generation(frontier: dict, seen: dict, moves, bound: int, cap, other=frozenset()):
    """One breadth-first generation on packed keys, shared by both searches.

    ``frontier`` (key -> coordinates) is expanded in key order, each vector by
    every move in generator order.  A new image inside ``bound`` is recorded as
    ``seen[key] = generator index`` and in ``fresh``.  Expansion stops at the
    first inserted key that ``other`` (the opposite search's parent map; empty
    for orbit closure) already holds, or else once ``seen`` holds more than
    ``cap`` keys.  ``fresh`` is insertion-ordered, so that meeting key is the
    first key of the full generation's ``fresh`` found in ``other``.  Returns
    fresh and the meeting key (None if the sides did not meet).
    """
    fresh = {}
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
                    return fresh, k
                if len(seen) > cap:
                    return fresh, None
    return fresh, None


def kernels_of(rows, supports, bound, width):
    """What a witness ball expands by: the plain kernel of the reflections with ``supports`` on the
    lattice of sparse Gram ``rows``, and a call that returns their guarded kernel."""
    stepped = partial(_stepped, rows, supports, bound, width)
    return stepped(), partial(stepped, "guarded")


#: the seam the spies below wrap, as the package defines it
BALL_GENERATION = _Ball.generation


# --- strategies -----------------------------------------------------------------------


@st.composite
def lattice_with_roots(draw):
    """A nondegenerate lattice of rank <= 5 and its (-2)-vectors with |coords| <= 2."""
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from((-2, -2, 0, 2, -4)))
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = draw(st.sampled_from((0, 0, 1, -1, 2)))
    assume(det(rows) != 0)
    lat = Lattice("random", rows)
    roots = [lat.vector(c) for c in product(range(-2, 3), repeat=n)]
    roots = [r for r in roots if square(r) == -2]
    assume(roots)
    return lat, roots


@st.composite
def budgets(draw, max_bound=4, max_depth=6):
    return OrbitBudget(
        coord_bound=draw(st.integers(min_value=1, max_value=max_bound)),
        max_frontier=draw(st.sampled_from((1, 2, 5, 40, 300, 2000, 10**6))),
        max_depth=draw(st.integers(min_value=1, max_value=max_depth)),
    )


@st.composite
def small_lattice_case(draw):
    lat, roots = draw(lattice_with_roots())
    gens = [reflection(r) for r in draw(st.lists(st.sampled_from(roots), min_size=1, max_size=4))]
    budget = draw(budgets())
    bound = budget.coord_bound
    seed = draw(st.tuples(*[st.integers(-bound, bound)] * lat.rank))
    assume(any(seed))
    return lat.vector(seed), gens, budget


def walk_from(draw, start, gens, lo, hi):
    """The end of a walk of lo..hi reflections that each move the vector (fewer if none does)."""
    cur = start
    for _ in range(draw(st.integers(lo, hi))):
        movers = [g for g in gens if g(cur) != cur]
        if not movers:
            break
        cur = draw(st.sampled_from(movers))(cur)
    return cur


# --- orbit closure -------------------------------------------------------------------


def assert_orbit_matches(seed, gens, budget):
    orbit = orbit_explore(seed, gens, budget)
    assert (orbit.members, orbit.exhausted) == oracle_orbit(seed, gens, budget)
    return orbit


@settings(max_examples=150, deadline=None)
@given(case=small_lattice_case())
def test_orbit_matches_oracle_on_small_lattices(case):
    assert_orbit_matches(*case)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_orbit_matches_oracle_on_ly(data):
    budget = data.draw(budgets(max_bound=3, max_depth=4))
    gens = data.draw(st.lists(st.sampled_from(LY_GENS), min_size=1, max_size=20, unique=True))
    seed = data.draw(st.sampled_from([NV.L(0), NV.L(1) + NV.e2, NV.gamma1, NV.L(1)]))
    assume(max(map(abs, seed.coords)) <= budget.coord_bound)
    assert_orbit_matches(seed, gens, budget)


@pytest.mark.parametrize(
    "budget",
    [OrbitBudget(2, 10**6, 5), OrbitBudget(4, 700, 6), OrbitBudget(4, 10**6, 2)],
    ids=["coord-bound", "frontier-cap", "depth"],
)
@pytest.mark.parametrize("seed", ["L(0)", "L(1)+e2"])
def test_orbit_matches_oracle_on_ly_truncations(budget, seed):
    v = NV.L(0) if seed == "L(0)" else NV.L(1) + NV.e2
    orbit = assert_orbit_matches(v, LY_GENS, budget)
    assert not orbit.exhausted


def test_orbit_keys_past_int64():
    budget = OrbitBudget(8, 3000, 3)
    orbit = assert_orbit_matches(NV.L(1) + NV.e2, LY_GENS, budget)
    assert max(abs(_pack(m, 17)) for m in orbit.members) > 2**63


def boundary_caps(seed, gens, budget):
    """Every frontier cap at, one below or one above a cumulative level size of the oracle's
    closure within ``budget``'s bound and depth: the caps at which a generation just fits,
    just overflows or leaves room for one key of the next."""
    sizes = [1] + [len(oracle_orbit(seed, gens, OrbitBudget(budget.coord_bound, 10**6, d))[0])
                   for d in range(1, budget.max_depth + 1)]
    return sorted({n + d for n in sizes for d in (-1, 0, 1)} - {0})


A3 = Lattice("A3(-1)", ((-2, 1, 0), (1, -2, 1), (0, 1, -2)))
A3_GENS = [reflection(A3.vector(r)) for r in ((-1, -1, -1), (-1, -1, 0), (-1, 0, 0), (0, -1, -1), (0, -1, 0),
                                              (0, 0, -1))]


@pytest.mark.parametrize("seed,gens,budget", [
    (NV.L(0), LY_GENS, OrbitBudget(3, 10**6, 5)),
    (NV.L(1) + NV.e2, LY_GENS, OrbitBudget(3, 10**6, 5)),
    # the 12 roots of A3, a whole orbit by depth 2: exhausted at a cap of 12, not at 11
    (A3.vector((1, 0, 0)), A3_GENS, OrbitBudget(1, 10**6, 5)),
], ids=["L(0)", "L(1)+e2", "A3-roots"])
def test_orbit_matches_oracle_at_the_cap_boundaries(seed, gens, budget):
    for cap in boundary_caps(seed, gens, budget):
        assert_orbit_matches(seed, gens, OrbitBudget(budget.coord_bound, cap, budget.max_depth))


@settings(max_examples=100, deadline=None)
@given(case=small_lattice_case(), data=st.data())
def test_orbit_matches_oracle_at_the_cap_boundaries_on_small_lattices(case, data):
    seed, gens, budget = case
    cap = data.draw(st.sampled_from(boundary_caps(seed, gens, budget)))
    assert_orbit_matches(seed, gens, OrbitBudget(budget.coord_bound, cap, budget.max_depth))


def test_closure_peak_above_its_result_is_bounded():
    """The closure of L(1)+e2 at depth 5 under ``tracemalloc``: its traced peak above the
    returned ``OrbitSet`` stays within 0.52 of what the set retains.  One member map with a
    key-list frontier keeps to that; a second key -> coordinates map per generation does not."""
    seed, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**6, 5)
    orbit_explore(seed, LY_GENS, budget)  # compiles the kernel, which stays cached
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        orbit = orbit_explore(seed, LY_GENS, budget)
        retained, peak = (n - base for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(orbit) == 17457
    assert peak - retained <= 0.52 * retained


# --- witness search ------------------------------------------------------------------


def assert_witness_matches(v, u, gens, budget):
    word = same_orbit_witness(v, u, gens, budget)
    expected = [] if v == u else oracle_witness(v, u, gens, budget)
    assert word == expected
    return word


@settings(max_examples=100, deadline=None)
@given(case=small_lattice_case(), data=st.data())
def test_witness_matches_oracle_on_small_lattices(case, data):
    v, gens, budget = case
    assume(gcd(*v.coords) == 1)
    u = walk_from(data.draw, v, gens, 1, 6)
    assert_witness_matches(v, u, gens, budget)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_witness_matches_oracle_on_ly(data):
    budget = data.draw(budgets())
    start = data.draw(st.sampled_from([NV.L(0), NV.L(1) + NV.e2]))
    # the endpoints are walked with no bound, so they may lie outside coord_bound
    v = walk_from(data.draw, start, LY_GENS, 0, 2)
    u = walk_from(data.draw, v, LY_GENS, 1, 5)
    assert_witness_matches(v, u, LY_GENS, budget)


def test_witness_endpoint_outside_the_box():
    start = NV.L(1) + NV.e2
    target = reflection(NV.w)(start)
    assert max(map(abs, target.coords)) > 4
    word = assert_witness_matches(start, target, LY_GENS, OrbitBudget(4, 10**5, 4))
    assert word is not None


def test_witness_keys_are_wide_enough_for_the_endpoints():
    # in base 2*coord_bound + 1 = 3, u = (0, -1, -2) would share its key with (-1, 1, 1)
    lat = Lattice("A3(-1)", ((-2, 1, 0), (1, -2, 1), (0, 1, -2)))
    roots = [(-1, -1, -1), (-1, -1, 0), (-1, 0, 0), (0, -1, -1), (0, -1, 0), (0, 0, -1)]
    gens = [reflection(lat.vector(r)) for r in roots]
    v, u = lat.vector((-1, -1, 1)), lat.vector((0, -1, -2))
    assert assert_witness_matches(v, u, gens, OrbitBudget(1, 1000, 4)) == [2, 5]


# --- meeting on insertion ------------------------------------------------------------


def assert_meets_on_insertion(v, u, gens, budget, generations, side):
    """Grow both parent maps for ``generations`` steps, then expand ``side`` once with
    the other side's map and once without it; the early stop must cut the full
    run's insertions just after the key that ``oracle_witness`` would meet at."""
    bound, cap = budget.coord_bound, budget.max_frontier
    width = 2 * max(bound, *map(abs, v.coords), *map(abs, u.coords)) + 1
    kernels = kernels_of(v.lattice.sparse_rows, tuple(g._supports for g in gens), bound, width)
    balls = [_Ball(v.coords, width, bound), _Ball(u.coords, width, bound)]
    for step in range(generations):
        ball = balls[step % 2]
        ball.levels.append(ball.generation(len(ball.levels), kernels, cap)[0])
        if len(ball.tree) > cap:
            break
    ball, other = balls[side], balls[1 - side].tree
    tree, d = ball.tree, len(ball.levels)

    ball.tree = full_seen = dict(tree)
    full, no_meet = ball.generation(d, kernels, cap)
    assert no_meet is None
    ball.tree = seen = dict(tree)
    fresh, meet = ball.generation(d, kernels, cap, other)

    assert meet == next((k for k in full if k in other), None)  # the post-hoc meeting
    if meet is None:
        assert (fresh, seen) == (full, full_seen)
    else:
        assert next(reversed(fresh)) == meet
        assert list(fresh.items()) == list(full.items())[: len(fresh)]
        assert list(seen.items()) == list(full_seen.items())[: len(seen)]
    return meet


@settings(max_examples=50, deadline=None)
@given(case=small_lattice_case(), data=st.data())
def test_meet_on_insertion_matches_full_generation_on_small_lattices(case, data):
    v, gens, budget = case
    u = walk_from(data.draw, v, gens, 1, 6)
    assume(u != v)
    generations = data.draw(st.integers(min_value=0, max_value=4))
    assert_meets_on_insertion(v, u, gens, budget, generations, data.draw(st.sampled_from((0, 1))))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_meet_on_insertion_matches_full_generation_on_ly(data):
    budget = data.draw(budgets(max_bound=3, max_depth=1))
    v = data.draw(st.sampled_from([NV.L(0), NV.L(1) + NV.e2]))
    u = walk_from(data.draw, v, LY_GENS, 1, 4)
    assume(u != v)
    generations = data.draw(st.integers(min_value=0, max_value=2))
    assert_meets_on_insertion(v, u, LY_GENS, budget, generations, data.draw(st.sampled_from((0, 1))))


@pytest.mark.parametrize("side", [0, 1])
def test_meet_on_insertion_stops_inside_the_generation(side):
    # u is two reflections away, so the third step meets the other map early in the generation
    start = NV.L(1) + NV.e2
    u = LY_GENS[3](LY_GENS[0](start))
    meet = assert_meets_on_insertion(start, u, LY_GENS, OrbitBudget(4, 10**6, 3), 2, side)
    assert meet is not None


# --- the compiled generation kernel --------------------------------------------------


def assert_generation_matches(ball, gens, lattice, bound, width, cap, other):
    """The next generation of ``ball``, through its seam, against ``reference_generation`` from
    the same state: the same insertions in the same order, the same stop and the same meet, also
    when a meet or the cap stopped it.  Appends the new level to the ball; returns the meet."""
    ref_seen = dict(ball.tree)
    ref = reference_generation(ball.levels[-1], ref_seen, reference_moves(gens, width), bound, cap, other)
    kernels = kernels_of(lattice.sparse_rows, tuple(g._supports for g in gens), bound, width)
    got = ball.generation(len(ball.levels), kernels, cap, other)
    assert list(got[0].items()) == list(ref[0].items())
    assert list(ball.tree.items()) == list(ref_seen.items())
    assert got[1] == ref[1]
    ball.levels.append(got[0])
    return got[1]


def assert_generations_match(v, u, gens, budget, generations, meet):
    """Grow the balls of v and u by turns, each generation checked against the reference;
    with ``meet`` each side stops on the other's keys.  Returns both parent maps."""
    bound, cap = budget.coord_bound, budget.max_frontier
    width = 2 * max(bound, *map(abs, v.coords), *map(abs, u.coords)) + 1
    balls = [_Ball(v.coords, width, bound), _Ball(u.coords, width, bound)]
    for step in range(generations):
        s = step % 2
        other = balls[1 - s].tree if meet else frozenset()
        met = assert_generation_matches(balls[s], gens, v.lattice, bound, width, cap, other)
        if len(balls[s].tree) > cap or met is not None:
            break
    return [ball.tree for ball in balls]


@settings(max_examples=150, deadline=None)
@given(case=small_lattice_case(), data=st.data())
def test_kernel_matches_reference_on_small_lattices(case, data):
    v, gens, budget = case
    v = walk_from(data.draw, v, gens, 0, 2)  # walked with no bound: may lie outside the box
    u = walk_from(data.draw, v, gens, 0, 6)
    generations = data.draw(st.integers(min_value=1, max_value=6))
    assert_generations_match(v, u, gens, budget, generations, data.draw(st.booleans()))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference_on_ly(data):
    budget = data.draw(budgets(max_depth=1))
    gens = data.draw(st.lists(st.sampled_from(LY_GENS), max_size=20, unique=True))
    v = walk_from(data.draw, data.draw(st.sampled_from([NV.L(0), NV.L(1) + NV.e2])), LY_GENS, 0, 2)
    u = walk_from(data.draw, v, LY_GENS, 0, 4)
    generations = data.draw(st.integers(min_value=1, max_value=4))
    assert_generations_match(v, u, gens, budget, generations, data.draw(st.booleans()))


@st.composite
def ly_roots(draw):
    """A (-2)-root of LY off the default set: a default root moved by 1-4 default reflections,
    then shifted by k times an isotropic coordinate of a U(2) block whose partner it does not use."""
    coords = list(walk_from(draw, LY.vector(draw(st.sampled_from(LY_GENS)).root), LY_GENS, 1, 4).coords)
    i = draw(st.integers(0, 5))
    if coords[i ^ 1] == 0:  # (e_i, e_i) = 0 and (e_i, r) = 2 r_(i^1): the square stays -2
        coords[i] += draw(st.integers(-3, 3))
    assert square(LY.vector(coords)) == -2
    return tuple(coords)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference_on_ly_under_other_roots(data):
    """Roots with coefficients other than 1 and supports short of the 16 coordinates: the kernel's
    pairings, read off G.x, against the reference's, summed over the support of G.r; with and
    without meets and caps, and with an endpoint just outside the box, which the guarded kernel expands."""
    roots = data.draw(st.lists(ly_roots(), min_size=1, max_size=6, unique=True))
    assume(any(abs(c) > 1 for r in roots for c in r) and all(0 in r for r in roots))
    assume(not set(roots) <= {g.root for g in LY_GENS})
    gens = [reflection(LY.vector(r)) for r in roots]
    budget = data.draw(budgets(max_depth=1))
    v = walk_from(data.draw, data.draw(st.sampled_from([NV.L(0), NV.L(1) + NV.e2])), gens, 0, 2)
    reach = max(map(abs, v.coords))
    if reach > 1 and data.draw(st.booleans()):
        budget = OrbitBudget(reach - 1, budget.max_frontier, budget.max_depth)
    u = walk_from(data.draw, v, gens, 0, 4)
    generations = data.draw(st.integers(min_value=1, max_value=4))
    assert_generations_match(v, u, gens, budget, generations, data.draw(st.booleans()))


def test_kernel_writes_g_x_at_the_roots_supports_only(compiled_sources):
    """One line g_i = (G.x)_i per coordinate i in the union of the roots' supports, none for
    any other coordinate, each the lattice's G.x entry as ``gx_source`` writes it."""
    forms = gx_source(LY.sparse_rows)
    off_default = [(-3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, -2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0)]
    assert all(square(LY.vector(r)) == -2 for r in off_default)
    roots = [[], [g.root for g in LY_GENS[:3]], [LY_GENS[10].root, LY_GENS[16].root], off_default,
             [g.root for g in LY_GENS]]
    for chosen, shape in product(roots, ("generation", "closure")):
        compiled_sources.clear()
        _kernel.cache_clear()
        _kernel(LY.sparse_rows, tuple(tuple((i, c) for i, c in enumerate(r) if c) for r in chosen), 4, shape)
        (source,) = compiled_sources
        written = [line.strip() for line in source.splitlines() if line.strip().startswith("g")]
        union = sorted({i for r in chosen for i, c in enumerate(r) if c})
        assert written == [f"g{i} = {forms[i]}" for i in union]


def test_kernel_matches_reference_with_no_generators():
    lat = Lattice("A1(-1)+U", ((-2, 0, 0), (0, 0, 1), (0, 1, 0)))
    for v, gens in ((lat.vector((1, 2, -3)), []), (NV.L(1) + NV.e2, [])):
        assert_generations_match(v, v, gens, OrbitBudget(2, 10, 3), 3, True)
        assert_orbit_matches(v, gens, OrbitBudget(4, 10, 3))


def test_kernel_matches_reference_on_keys_past_int64():
    v = NV.L(1) + NV.e2
    u = LY_GENS[3](LY_GENS[0](v))
    trees = assert_generations_match(v, u, LY_GENS, OrbitBudget(8, 10**6, 4), 4, False)
    assert max(abs(k) for tree in trees for k in tree) > 2**63


@pytest.mark.parametrize("cap", [1, 2, 7, 30, 80])
def test_kernel_stops_at_the_insertion_past_the_cap(cap):
    start = NV.L(1) + NV.e2
    for v in (LY_GENS[3](LY_GENS[0](start)), reflection(NV.w)(start)):  # the second lies outside the box
        trees = assert_generations_match(v, start, LY_GENS, OrbitBudget(4, cap, 4), 4, False)
        assert cap + 1 in map(len, trees)


def far_from(start, reach, seed=0):
    """A vector at most three reflections from ``start`` whose largest |coordinate| is ``reach``."""
    rng = random.Random(seed)
    while True:
        cur = start
        for _ in range(rng.randint(1, 3)):
            cur = rng.choice(LY_GENS)(cur)
        if max(map(abs, cur.coords)) == reach:
            return cur


@pytest.mark.parametrize("bound", [2, 3, 4])
def test_kernel_matches_reference_at_endpoints_outside_the_box(bound):
    start = NV.L(1) + NV.e2
    for outside in (far_from(start, 6), reflection(NV.w)(start)):
        assert max(map(abs, outside.coords)) > bound
        assert_generations_match(outside, start, LY_GENS, OrbitBudget(bound, 10**6, 3), 3, False)


def test_one_kernel_serves_endpoints_of_every_key_width(fresh_cache):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**5, 4)
    targets = walks(start, 3, 2) + [far_from(start, 5), far_from(start, 6)]
    assert len({2 * max(4, *map(abs, t.coords)) + 1 for t in targets}) == 3
    _kernel.cache_clear()
    engines = []
    for target in targets:
        assert_witness_matches(start, target, LY_GENS, budget)
        engines.append(_last[0][2])
    info = _kernel.cache_info()
    # the three searches in the box's width run through the first one's kernels; each other width
    # binds its own
    assert [len({id(e) for e in engines[:n]}) for n in range(1, 6)] == [1, 1, 1, 2, 3]
    # two compiles: the plain kernel, then shared by the kernels of the two other widths, and the
    # guarded kernel of the two targets outside the box, shared by the second of them
    assert (info.misses, info.hits, info.currsize) == (2, 2 + 1, 2)


def test_orbits_at_two_bounds_compile_a_kernel_each():
    _kernel.cache_clear()
    for bound in (3, 4):
        assert_orbit_matches(NV.L(0), LY_GENS, OrbitBudget(bound, 10**6, 4))
    assert (_kernel.cache_info().misses, _kernel.cache_info().currsize) == (2, 2)


def test_kernel_source_writes_every_integer_in_hex_and_no_step(compiled_sources):
    supports = tuple(g._supports for g in LY_GENS)
    for shape in ("generation", "closure"):
        compiled_sources.clear()
        for bound, width in ((4, 9), (5, 23)):  # another bound, and other steps in another width
            _kernel.cache_clear()
            _stepped(LY.sparse_rows, supports, bound, width, shape)
        first, second = compiled_sources
        assert first == second  # so no bound and no step is written into the source
        numbers = [t.string for t in tokenize.generate_tokens(io.StringIO(first).readline)
                   if t.type == tokenize.NUMBER]
        assert numbers and all(n.startswith("0x") for n in numbers)


def test_kernels_take_integers_past_the_decimal_conversion_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)  # the interpreter's default
    try:
        orbit = orbit_explore(NV.L(0), LY_GENS, OrbitBudget(coord_bound=10**5000, max_depth=2))
        assert (len(orbit), orbit.exhausted) == (44, False)
        # a Gram entry, and so a coefficient of G.r, of 5,001 digits
        lat = Lattice("huge", ((-2, 10**5000), (10**5000, -2)))
        gens = [reflection(lat.vector((1, 0)))]
        for seed in ((1, 0), (0, 1)):
            assert_orbit_matches(lat.vector(seed), gens, OrbitBudget(4, 10, 3))
    finally:
        sys.set_int_max_str_digits(limit)


# --- the last search's balls ---------------------------------------------------------


def walks(start, count, steps, bound=4, seed=0):
    """``count`` distinct vectors ``steps`` moving reflections from ``start``, inside ``bound``."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        cur = start
        for _ in range(steps):
            cur = rng.choice([g for g in LY_GENS if g(cur) != cur])(cur)
        if cur != start and cur not in found and max(map(abs, cur.coords)) <= bound:
            found.append(cur)
    return found


def kept_pairs():
    """The (entry, ball) pairs the last search left, v's then u's (none after a raise)."""
    return _last[0][:2] if 0 in _last else ()


def holding():
    """The endpoints whose balls the last search left, v's then u's (none after a raise)."""
    return [entry[0] for entry, _ in kept_pairs()]


def kept_ball(x):
    """The ball the last search left around the endpoint ``x``."""
    (ball,) = [ball for entry, ball in kept_pairs() if entry[0] == x]
    return ball


def assert_kept_levels_complete():
    """Each kept ball's parent map lists the keys of its levels in their order, and each
    level is the whole generation of the one before it, in insertion order and cut as the
    cap cuts, or, the last level only, a prefix of it; only the last whole level and a
    partial one after it hold coordinates, the older levels being tuples of keys."""
    for (x, supports, bound, cap, width), ball in kept_pairs():
        kernels = kernels_of(LY.sparse_rows, supports, bound, width)
        levels, last = ball.levels, len(ball.levels) - 1
        old = last if ball.whole else last - 1
        assert [type(level) for level in levels] == [tuple] * old + [dict] * (len(levels) - old)
        assert list(ball.tree) == [k for level in levels for k in level]
        fresh_ball = _Ball(x, width, bound)
        seen = fresh_ball.tree
        assert list(levels[0]) == list(fresh_ball.levels[0])
        for d in range(1, len(levels)):
            fresh = fresh_ball.generation(d, kernels, cap)[0]
            fresh_ball.levels.append(fresh)
            cut = len(seen) > cap
            keys = list(levels[d])
            if d == last and not ball.whole:  # a meet stopped it: a prefix, not cut by the cap
                assert keys == list(fresh)[: len(keys)] and keys and not ball.cut
            else:
                assert keys == list(fresh)
                assert cut == (ball.cut and d == last)
            if isinstance(levels[d], dict):
                assert levels[d] == {k: fresh[k] for k in keys}
        assert ball.tree == {k: seen[k] for k in ball.tree}


@pytest.fixture
def fresh_cache():
    _last.clear()
    yield
    assert len(holding()) in (0, 2)
    assert_kept_levels_complete()


@pytest.fixture
def weak_balls(monkeypatch):
    """A weak reference to every ball built while the test runs, in the order built."""
    balls = []

    class Ball(isometry._Ball):  # a ball that takes weak references
        __slots__ = ("__weakref__",)

        def __init__(self, *args):
            super().__init__(*args)
            balls.append(weakref.ref(self))

    monkeypatch.setattr(isometry, "_Ball", Ball)
    return balls


def test_kept_levels_one_start_many_targets_in_both_positions(fresh_cache):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(3, 10**5, 8)
    for target in walks(start, 6, 3, bound=3):
        assert_witness_matches(start, target, LY_GENS, budget)
        assert_witness_matches(target, start, LY_GENS, budget)
        assert holding() == [target.coords, start.coords]


def test_kept_levels_two_starts_interleaved(fresh_cache):
    budget = OrbitBudget(3, 10**5, 8)
    starts = (NV.L(1) + NV.e2, NV.L(0))
    batches = {s: walks(s, 9, 3, bound=3, seed=1) for s in starts}
    for batch in range(3):
        for start in starts:
            for target in batches[start][3 * batch: 3 * batch + 3]:
                assert_witness_matches(start, target, LY_GENS, budget)
                assert holding() == [start.coords, target.coords]


def test_a_search_between_other_endpoints_frees_the_last_balls(fresh_cache, weak_balls, monkeypatch):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**5, 8)
    first, second = walks(start, 2, 3)
    others = walks(NV.L(0), 2, 3, seed=4)
    live = []  # per search, which balls built so far were alive at its first generation

    def generation(*args):
        if not live[-1]:
            live[-1].extend(ref() is not None for ref in weak_balls)
        return BALL_GENERATION(*args)

    monkeypatch.setattr(_Ball, "generation", generation)
    for v, u in ((start, first), (start, second), tuple(others)):
        live.append([])
        assert_witness_matches(v, u, LY_GENS, budget)
        assert holding() == [v.coords, u.coords]
    # the second search runs through start's ball and drops first's; the search between other
    # endpoints drops both of the second search's balls, before either search expands anything
    assert live == [[True, True], [True, False, True], [False, False, False, True, True]]


def test_kept_levels_repeated_identical_pair(fresh_cache):
    start, budget = NV.L(0), OrbitBudget(4, 10**5, 8)
    (target,) = walks(start, 1, 4)
    words = [assert_witness_matches(start, target, LY_GENS, budget) for _ in range(3)]
    assert words[0] is not None and words.count(words[0]) == 3
    assert sorted(holding()) == sorted([start.coords, target.coords])


def test_kept_levels_cut_by_the_cap(fresh_cache):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 60, 8)
    words = [assert_witness_matches(start, t, LY_GENS, budget) for t in walks(start, 8, 4, seed=2)]
    assert None in words
    assert kept_ball(start.coords).cut


def test_a_meet_on_the_insertion_past_the_cap_ends_the_level(fresh_cache):
    # with room for one key, the start's first image meets the first target and fills the cap
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 1, 3)
    first, second = [y for g in LY_GENS if (y := g(start)) != start and max(map(abs, y.coords)) <= 4][:2]
    words = [assert_witness_matches(start, target, LY_GENS, budget) for target in (first, first, second)]
    assert words[0] == words[1] == [next(j for j, g in enumerate(LY_GENS) if g(start) == first)]
    assert words[2] is None  # the kept level is cut at that key, not finished past it
    assert kept_ball(start.coords).cut


def test_kept_levels_endpoint_outside_the_box_has_its_own_width(fresh_cache):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**5, 6)
    outside = reflection(NV.w)(start)
    wide = 2 * max(map(abs, outside.coords)) + 1
    assert wide > 9
    for target in walks(start, 3, 2):
        assert_witness_matches(start, target, LY_GENS, budget)
        assert [entry[4] for entry, _ in kept_pairs()] == [9, 9]
        for _ in range(2):  # the second search runs through both balls of the first
            assert_witness_matches(start, outside, LY_GENS, budget)
            assert [entry[4] for entry, _ in kept_pairs()] == [wide, wide]


def test_kept_partial_first_level_outside_the_box_is_finished_by_the_guarded_kernel(fresh_cache):
    """A search to a key in the first level of an endpoint outside the box stops that level at
    the meet; the next search from the endpoint finishes the level, which the guarded kernel
    must do as it did the prefix, or the ball keeps images that no fresh generation holds."""
    outside, budget = parse_vector("u1+5*u2+3*eps1-eps3"), OrbitBudget(4, 10**5, 6)
    near = LY_GENS[17](outside)  # u2+eps1: the one default reflection that takes it into the box
    far = LY_GENS[0](near)
    assert max(map(abs, outside.coords)) == 5 and max(map(abs, far.coords)) <= 4
    assert_witness_matches(outside, near, LY_GENS, budget)
    assert not kept_ball(outside.coords).whole  # the first level stopped at near
    assert_kept_levels_complete()
    assert_witness_matches(outside, far, LY_GENS, budget)
    assert holding() == [outside.coords, far.coords]
    assert_kept_levels_complete()


def test_a_single_search_leaves_its_two_balls(fresh_cache):
    start = NV.L(1) + NV.e2
    target = walks(start, 1, 3)[0]
    assert same_orbit_witness(start, target, LY_GENS, OrbitBudget(4, 10**5, 8))
    assert holding() == [start.coords, target.coords]


def test_at_most_the_fixed_number_of_endpoints_hold_levels(fresh_cache):
    budget = OrbitBudget(3, 10**5, 6)
    start = NV.L(1) + NV.e2
    ends = walks(start, 6, 2, bound=3)
    for _ in range(2):
        for end in ends:
            same_orbit_witness(start, end, LY_GENS, budget)
            assert holding() == [start.coords, end.coords]
    for end in ends:
        same_orbit_witness(end, start, LY_GENS, budget)
        same_orbit_witness(start, end, LY_GENS, budget)
        assert holding() == [start.coords, end.coords]


def test_kept_levels_shared_by_threads(fresh_cache):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**5, 8)
    targets = walks(start, 12, 5, seed=3)
    expected = [oracle_witness(start, t, LY_GENS, budget) for t in targets]
    words = {}

    def search(n):
        for i in range(n, n + len(targets)):
            words[n, i % len(targets)] = same_orbit_witness(start, targets[i % len(targets)], LY_GENS, budget)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):  # each round, the threads race to take the start's ball and grow it
            _last.clear()
            words.clear()
            threads = [threading.Thread(target=search, args=(n,)) for n in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert words == {(n, i): expected[i] for n in range(4) for i in range(len(targets))}
            assert_kept_levels_complete()
    finally:
        sys.setswitchinterval(interval)


def test_a_ball_holds_coordinates_for_at_most_two_levels(fresh_cache, weak_balls, monkeypatch):
    generations = []

    def coordinate_levels():  # per live ball, the levels that map keys to coordinates
        live = [ref() for ref in weak_balls]
        return [sum(isinstance(level, dict) for level in ball.levels) for ball in live if ball is not None]

    def generation(*args):
        assert all(n <= 2 for n in coordinate_levels())
        generations.append(None)
        return BALL_GENERATION(*args)

    monkeypatch.setattr(_Ball, "generation", generation)
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**5, 8)
    first, *others = walks(start, 4, 6)
    assert same_orbit_witness(start, first, LY_GENS, budget)
    assert len(generations) >= 4 and len(weak_balls) == 2 and len(coordinate_levels()) == 2  # both kept
    for target in [first, *others, first]:  # the start's ball runs through every search, and grows
        assert_witness_matches(start, target, LY_GENS, budget)
    assert len(coordinate_levels()) == 2 and all(n <= 2 for n in coordinate_levels())


def test_repeated_identical_searches_insert_no_more_keys(fresh_cache, monkeypatch):
    inserted = []

    def generation(ball, *args):
        n = len(ball.tree)
        try:
            return BALL_GENERATION(ball, *args)
        finally:
            inserted[-1] += len(ball.tree) - n

    monkeypatch.setattr(_Ball, "generation", generation)
    for start, budget in ((NV.L(0), OrbitBudget(4, 10**5, 8)), (NV.L(1) + NV.e2, OrbitBudget(4, 60, 8))):
        for target in walks(start, 2, 4, seed=6):
            inserted.clear()
            for _ in range(3):
                inserted.append(0)
                assert_witness_matches(start, target, LY_GENS, budget)
            assert inserted[0] > 0 and inserted[1] == inserted[2] == 0


def test_a_search_that_raises_puts_no_ball_back(fresh_cache, monkeypatch):
    start, budget = NV.L(1) + NV.e2, OrbitBudget(4, 10**5, 8)
    first, second = walks(start, 2, 3, seed=5)
    (third,) = walks(start, 1, 7, seed=2)  # seven reflections out, further than the kept ball reaches
    for target in (first, second):
        assert_witness_matches(start, target, LY_GENS, budget)
    assert holding() == [start.coords, second.coords]
    root = _pack(start.coords, 9)

    def generation(ball, d, kernels, *args):
        if root in ball.tree:  # the kept ball grows: stop partway, with half the frontier expanded
            kernel, guarded = kernels

            def half(frontier, *rest):
                return kernel(dict(list(frontier.items())[: (len(frontier) + 1) // 2]), *rest)

            BALL_GENERATION(ball, d, (half, guarded), *args)
            raise RuntimeError("interrupted")
        return BALL_GENERATION(ball, d, kernels, *args)

    with monkeypatch.context() as patch:
        patch.setattr(_Ball, "generation", generation)
        with pytest.raises(RuntimeError, match="interrupted"):
            same_orbit_witness(start, third, LY_GENS, budget)
    assert holding() == []
    for target in (third, first, third, second):
        assert_witness_matches(start, target, LY_GENS, budget)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_unpack_inverts_pack(data):
    b = data.draw(st.integers(1, 9) | st.integers(2**31, 2**70) | st.just(10**5000))
    n = data.draw(st.integers(1, 23))
    x = data.draw(st.tuples(*[st.sampled_from((-b, b, 0)) | st.integers(-b, b)] * n))
    assert _unpack(_pack(x, 2 * b + 1), 2 * b + 1, n) == x


# --- keys and contract ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_key_order_is_tuple_order(data):
    b = data.draw(st.integers(min_value=1, max_value=9))
    n = data.draw(st.integers(min_value=1, max_value=16))
    digits = st.tuples(*[st.integers(-b, b)] * n)
    x, y = data.draw(digits), data.draw(digits)
    kx, ky = _pack(x, 2 * b + 1), _pack(y, 2 * b + 1)
    assert (kx < ky) == (x < y) and (kx == ky) == (x == y)
    r = data.draw(st.tuples(*[st.integers(-2, 2)] * n))
    c = data.draw(st.integers(-9, 9))
    assert _pack(tuple(a + c * s for a, s in zip(x, r)), 2 * b + 1) == kx + c * _pack(r, 2 * b + 1)
