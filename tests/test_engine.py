"""The packed-key frontier engine against a plain tuple breadth-first oracle.

``oracle_orbit`` and ``oracle_witness`` are the tuple-keyed loops the engine
replaced: every image is built with ``apply_coords``, deduplicated as a
coordinate tuple and bound-checked on all coordinates.  Orbit members, the
``exhausted`` flag and witness words (or None) must agree exactly, whichever
of coordinate bound, frontier cap or depth cuts the search short.
"""

from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nikulat import LatticeError, OrbitBudget, compose, orbit_explore, reflection, same_orbit_witness
from nikulat.intmat import det
from nikulat.isometry import _pack
from nikulat.lattice import Lattice, square
from nikulat.model import build_model, default_generators

_, NV = build_model()
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


def test_non_reflection_generator_rejected():
    gens = list(LY_GENS[:3]) + [compose(LY_GENS[0], LY_GENS[1])]
    with pytest.raises(LatticeError, match="reflections"):
        orbit_explore(NV.L(0), gens, OrbitBudget(2, 100, 2))
    with pytest.raises(LatticeError, match="reflections"):
        same_orbit_witness(NV.L(0), reflection(NV.gamma1)(NV.L(0)), gens, OrbitBudget(2, 100, 2))
