"""The classifiers of LY's vectors and their bounded enumeration, on the model of :mod:`nikulat.core`.

The three readers of a vector's :class:`VectorProfile` (``vector_profile``,
``classify_orbit``, ``classify_isotropic_type``) share one profile per vector
object (:func:`_profile`).  The three value types are frozen and slotted; the
profile and a table row's ``OrbitClass`` are built by the compiled
:func:`~nikulat.lattice.trusted_builder`, and the eight ``FibrationType``
values once each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, isqrt, lcm
from typing import Iterator

from .core import build_model
from .core import default_generator_table, default_generators  # noqa: F401  (perfbench reads nikulat.model.*)
from .exprs import parse_vector
from .intmat import IntVector, Matrix
from .lattice import (Lattice, LatticeError, LatticeVector, compile_kernel, divisibility, gx_source, linear_source,
                      sealed, square, trusted_builder)

#: The monodromy-orbit decision table, case -> (d, m, t, residues, representative): a row's vectors
#: have divisibility d, square q = m*i - t and residue in ``residues`` (for d = 2 whether the E8
#: part is 0 mod 4E8, for d = 1 the E8 square mod 4); the representative is written in i and
#: j = i + 1.  Condition (*) decides Star1 before any residue is read.
_TABLE = {
    "Star1": (2, 4, 0, (), "L({i})"),
    "Case2": (2, 16, 4, (True,), "2*L({i})-deltaY"),
    "Case3": (2, 16, 4, (False,), "2*L({j})+2*e2-deltaY"),
    "Case4": (2, 4, 2, (True,), "L({i})-gamma1"),
    "Case5": (1, 4, 2, (0,), "L({j})+e2-gamma1"),
    "Case6": (1, 4, 2, (1, 2, 3), "L({i})+e1"),
    "Case7": (2, 16, 12, (False,), "2*L({i})+2*e1-deltaY"),
    "Case8": (1, 4, 4, (2,), "L({i})+e1-gamma1"),
    "Case9": (1, 4, 0, (0, 1, 3), "L({j})+e2"),
}
ORBIT_CASES = (*_TABLE, "Unmatched")


# ---------------------------------------------------------------------------
# profiles and the decision table


def _require_in_LY(v: LatticeVector) -> None:
    model, _ = build_model()
    if v.lattice is not model.lambda_Y and v.lattice != model.lambda_Y:
        raise LatticeError("expected a vector of LY")


@sealed
@dataclass(frozen=True, slots=True)
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


def _profile_source() -> str:
    """The source of :func:`_profile_kernel`, every integer in it written in hex."""
    model, nv = build_model()
    ly = model.lambda_Y
    idx = range(ly.rank)
    x, g = [f"x{i}" for i in idx], [f"g{i}" for i in idx]
    u1, u2, u3, e8, g1, g2 = map(ly.block_slice, ("U1", "U2", "U3", "E8", "G1", "G2"))
    (k,), (m,) = x[g1], x[g2]
    dot = lambda block: " + ".join(f"x{i}*g{i}" for i in idx[block])
    even = lambda names: f"not ({' | '.join(names)}) & 0x1"
    sigma = linear_source((s, g[i]) for i, s in enumerate(nv.SigmaY.coords) if s)
    lines = ["def profile(x):", f" ({''.join(f'{c}, ' for c in x)}) = x"]
    lines += [f" {g[i]} = {form}" for i, form in enumerate(gx_source(ly.sparse_rows))]
    lines.append(f" return ({dot(slice(None))}, gcd({', '.join(g)}), gcd({', '.join(x)}) == 0x1, "
                 f"{even(x[u1] + x[u2] + x[u3])}, ({''.join(f'{c}, ' for c in x[e8])}), {even(x[e8])}, "
                 f"({dot(e8)}) % 0x4, ({k}, {m}), ({k} - {m}) % 0x2 == 0x0, ({sigma}) % 0x4)")
    return "\n".join(lines)


@lru_cache(maxsize=1)
def _profile_kernel():
    """:class:`VectorProfile`'s fields as one straight-line function of LY's coordinates x, each
    read off one product g = G.x: q = sum x_i g_i, div = gcd(g), (x, SigmaY) = sum SigmaY_i g_i,
    and the E8 square sums x_i g_i over E8, exact because E8 is a direct summand of LY."""
    return compile_kernel(_profile_source(), "profile kernel", ("profile",), gcd=gcd)[0]


_held: tuple = (None, None)  # (coords, profile) of the last profile computed


def _profile(coords: IntVector) -> VectorProfile:
    """The profile of LY's coordinate tuple ``coords``: the one caller of :func:`_profile_kernel`.

    It holds the last ``(coords, profile)`` and returns the held profile for that very tuple
    (``is``), so a vector read by :func:`vector_profile`, :func:`classify_orbit` and
    :func:`classify_isotropic_type` in a row is profiled once.  Exact: the held tuple is never
    freed, so no other tuple takes its id, and a tuple is immutable.  Thread-safe: one read and
    one assignment of a tuple."""
    global _held
    held, profile = _held
    if held is not coords:
        profile = trusted_builder(VectorProfile)(*_profile_kernel()(coords))
        _held = coords, profile
    return profile


def vector_profile(v: LatticeVector) -> VectorProfile:
    """Every invariant of ``v`` that the decision table consults, from one compiled G.x."""
    _require_in_LY(v)
    if v.is_zero():
        raise LatticeError("profile of the zero vector is undefined")
    return _profile(v.coords)


@sealed
@dataclass(frozen=True, slots=True)
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


def _rows_by_divisibility() -> dict[int, list[tuple[str, int, int, tuple]]]:
    """The rows of :data:`_TABLE` as :func:`_row_matches` reads them: d -> [(case, m, t, residues)]."""
    return {d: [(case, m, t, res) for case, (e, m, t, res, _) in _TABLE.items() if e == d] for d in (1, 2)}


_ROWS = _rows_by_divisibility()


def _row_matches(profile: VectorProfile) -> list[tuple[str, int]]:
    """Every row (case, i) of :data:`_TABLE` with the profile's divisibility d, its square q = m*i - t
    and its residue in the row's residues: at most one by design, never Star1 (no residues).  A
    divisibility-2 vector's E8 part is already divisible by 2, so its residue is whether that part
    lies in 4E8(-1): mod 2E8 it would vanish, and Case3 and Case7 could never fire."""
    q, div = profile.q, profile.div
    residue = profile.q_e8_mod4 if div == 1 else all(c % 4 == 0 for c in profile.e8_part)
    return [(case, (q + t) // m) for case, m, t, residues in _ROWS.get(div, ())
            if residue in residues and (q + t) % m == 0]


def case_representative(case: str, i: int) -> tuple[LatticeVector, str]:
    """The printed representative of a table row, with its expression string."""
    if case not in _TABLE:
        raise LatticeError(f"no representative for case {case!r}")
    expr = _TABLE[case][4].format(i=i, j=i + 1)
    return parse_vector(expr), expr


@lru_cache(maxsize=1024)
def _checked_representative(case: str, i: int) -> tuple[LatticeVector, str]:
    """The representative of a row, checked once to have the row's own divisibility d and square
    m*i - t in :data:`_TABLE`; a mismatch raises on every call (``lru_cache`` keeps no errors)."""
    d, m, t, _, _ = _TABLE[case]
    rep, expr = case_representative(case, i)
    if square(rep) != m * i - t or divisibility(rep) != d:
        raise LatticeError(
            f"representative {expr} fails invariant match for case {case}, i={i}"
        )
    return rep, expr


def classify_orbit(v: LatticeVector) -> OrbitClass:
    """Locate a primitive vector of LY in the monodromy-orbit decision table.

    Condition (*) is tested first and decides Star1; otherwise the eight other rows of
    :data:`_TABLE` are matched on their columns (divisibility d, square m*i - t, residues).  The
    rows are mutually exclusive, which is asserted on every input, and a vector matching no row
    is reported as Unmatched rather than guessed at.
    """
    profile = vector_profile(v)
    if not profile.primitive:
        raise LatticeError("vector not primitive")
    if profile.star:
        _, m, t, _, _ = _TABLE["Star1"]
        if (profile.q + t) % m:
            raise LatticeError(f"(*) vector with q = {profile.q} not divisible by {m}")
        case, i = "Star1", (profile.q + t) // m
    else:
        matches = _row_matches(profile)
        if len(matches) > 1:
            raise LatticeError(f"table rows are not exclusive on {v}: {matches}")
        if not matches:
            return OrbitClass(case="Unmatched", i=0, representative=v, representative_expr="(input)",
                              profile=profile, note=f"no printed row matches profile {profile}")
        case, i = matches[0]
    rep, expr = _checked_representative(case, i)
    note = "" if i >= 0 else "parameter i is negative: outside the table's stated range i in N"
    return trusted_builder(OrbitClass)(case, i, rep, expr, profile, note)  # a table case: no check needed


@sealed
@dataclass(frozen=True, slots=True)
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


@lru_cache(maxsize=8)
def _fibration_type(div: int, sigma_mod4: int) -> FibrationType:
    """The verdict of every primitive isotropic vector with this divisibility and (v, SigmaY) mod 4,
    built and checked once; a failed check raises on every call (``lru_cache`` keeps no errors)."""
    if div not in _FIBRATION_TYPES:
        raise RuntimeError(f"internal consistency error: primitive vector with divisibility {div}")
    type_label, expr, polarisation = _FIBRATION_TYPES[div]
    if sigma_mod4 == 2 and type_label != "A":
        raise RuntimeError("internal consistency error: (v,SigmaY) = 2 mod 4 with type B")
    return FibrationType(type_label, parse_vector(expr), expr, polarisation, sigma_mod4, sigma_mod4 == 2)


def classify_isotropic_type(v: LatticeVector) -> FibrationType:
    """Type A (div 1, fiber polarisation (1,2)) or B (div 2, polarisation (1,1)).

    Also reports (v, SigmaY) mod 4; the value 2 forces type A, since every
    divisibility-2 isotropic vector pairs with SigmaY to a multiple of 4.
    Every invariant it reads comes off the profile of :func:`vector_profile`.
    """
    _require_in_LY(v)
    profile = _profile(v.coords)
    if not profile.primitive:  # the zero vector too: its coordinates have gcd 0
        raise LatticeError("type classification needs a primitive nonzero vector")
    if profile.q != 0:
        raise LatticeError(f"vector is not isotropic: q = {profile.q}")
    return _fibration_type(profile.div, profile.pair_sigma_mod4)


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
        _check_bound(self.bound)


def _check_bound(bound: int) -> None:
    if type(bound) is not int or bound < 1:  # a float or bool bound is not a coordinate bound
        raise LatticeError(f"coordinate bound must be an integer >= 1, got {bound!r}")


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


def _slice_gram(lattice: Lattice, block: slice) -> Matrix:
    return tuple(row[block] for row in lattice.gram[block])


#: coordinates that one enumeration keeps of its last run's shells, 2 MB of list slots at most
_MEMO_COORDS = 1 << 18


@lru_cache(maxsize=8)  # layouts kept compiled, least recently used out
def _generator(layout: tuple, rank: int):
    """``make(lattice, bound, ranges, boxes, room)`` of the straight-line generator of a window
    ``layout``, ``(start, stop, ellipsoid)`` for each run; see :func:`enumerate_with_square`,
    also for the last coordinate of a last definite run, solved with one ``isqrt``, and for the
    shells of a last definite run after other runs, walked in ``walk`` and kept in ``memo`` while
    ``room`` coordinates allow."""
    kept = len(layout) > 1 and layout[-1][2] is not None
    out = ["def make(lattice, bound, ranges, boxes, room):", " low = -bound"]
    out.append(f" ({''.join(f'lo{i}, hi{i}, ' for i in range(len(layout)))}) = ranges")
    out.append(f" ({''.join(f'box{i}, ' for i, run in enumerate(layout) if run[2] is None)}) = boxes")
    if kept:
        out.append(" memo = {}")
    out += [" def piece0():", "  a = 0x0"]
    depth, loops, pieces, chosen, head = 2, 0, 0, [], len(out) - 2

    def line(text: str) -> None:
        out.append(" " * depth + text)

    def loop(live: list[str], *lines: str) -> None:
        nonlocal depth, loops, pieces, head
        if loops == 20:  # CPython nests at most 20 loops in a function: chain a new one
            pieces += 1
            names = ", ".join(chosen + live)
            line(f"yield from piece{pieces}({names})")
            out.append(f" def piece{pieces}({names}):")
            depth, loops, head = 2, 0, len(out) - 1
        for text in lines:
            line(text)
        depth, loops = depth + 1, loops + 1

    def definite(i: int, acc: str, carried: list[str]) -> str:
        nonlocal depth
        start, stop, (scale, rows) = layout[i]
        line(f"b{i} = ({acc} - lo{i}) * {scale:#x}")  # scale * the largest -q the run may take
        line(f"if b{i} >= 0x0:")
        line(f" l{i} = ({acc} - hi{i}) * {scale:#x}")
        depth += 1
        spent = ""
        for p, (e, den, lower) in enumerate(rows, start):
            c = linear_source((n, f"x{start + j}") for j, n in lower)
            live = carried + [acc, f"b{i}", f"l{i}"] + ([spent] if spent else [])
            rest = f"b{i}{spent and ' - ' + spent}"
            if i == len(layout) - 1 and p == stop - 1:  # b == l: solve e * (den x + c)^2 == rest
                loop(live, f"c{p} = {c or '0x0'}", f"t = {rest}", f"r = isqrt(t // {e:#x})",
                     f"if {e:#x} * r * r == t:", f" for d in ((-r - c{p}, r - c{p}) if r else (-c{p},)):")
                depth += 1  # d = den x runs over -r - c and r - c, ascending
                chosen.append(f"x{p}")
                line(f"x{p}, m = divmod(d, {den:#x})")
                line(f"if not m and low <= x{p} <= bound:")
                break
            first, last = (f"(r + c{p})", f"(r - c{p})") if c else ("r", "r")
            if den != 1:
                first, last = f"({first} // {den:#x})", f"{last} // {den:#x}"
            loop(live, *([f"c{p} = {c}"] if c else []),
                 f"r = isqrt(({rest}) // {e:#x})",  # the largest |den_k t_k + c_k|
                 f"for x{p} in range(max(low, -{first}), min(bound, {last}) + 0x1):")
            chosen.append(f"x{p}")
            d = f"{f'{den:#x} * ' if den != 1 else ''}x{p}{f' + c{p}' if c else ''}"
            line(f"s{p} = {f'{spent} + ' if spent else ''}{e:#x} * ({d}) ** 0x2")
            spent = f"s{p}"
        else:  # no coordinate solved: the run's sum must reach l
            line(f"if {spent} >= l{i}:")
        return f"{acc} - {spent} // {scale:#x}"

    acc = "a"
    for i, (start, stop, ellipsoid) in enumerate(layout[:-1] if kept else layout):
        if ellipsoid is None:
            loop([acc], f"for ({''.join(f'x{p}, ' for p in range(start, stop))}), q in box{i}:")
            chosen += [f"x{p}" for p in range(start, stop)]
            line(f"if lo{i} <= {acc} + q <= hi{i}:")
            total = f"{acc} + q"
        else:
            total = definite(i, acc, [])
        depth += 1
        if i < len(layout) - 1:
            line(f"a{i} = {total}")
            acc = f"a{i}"
    if kept:  # the run's shell of acc: walked and kept the first time, replayed after
        start, stop, _ = layout[-1]
        found = "".join(f"x{p}, " for p in range(start, stop))
        line(f"fresh = {acc} not in memo")
        line(f"shell = [] if fresh else memo[{acc}]")
        loop([acc, "fresh", "shell"],
             f"for ({found}) in (walk({acc}, shell, room) if fresh else zip(*[iter(shell)] * {stop - start:#x})):")
        chosen += [f"x{p}" for p in range(start, stop)]
    line(f"if gcd({', '.join(chosen)}) == 0x1:")
    line(f" yield of_ints(lattice, ({''.join(f'x{p}, ' if f'x{p}' in chosen else '0x0, ' for p in range(rank))}))")
    if kept:  # a shell is kept only once walked to its end, and only while it fits in room
        depth -= 1
        line("if fresh and len(shell) <= room:")
        line(f" memo[{acc}] = shell")
        line(" room -= len(shell)")
        out.insert(head + 1, "  nonlocal room")
        out.append(f" def walk({acc}, shell, cap):")  # records the shell until it outgrows cap
        depth, loops, chosen, head = 2, 0, [], len(out) - 1
        definite(len(layout) - 1, acc, ["shell", "cap"])
        depth += 1
        line(f"found = ({found})")
        line("if len(shell) <= cap:")
        line(" shell += found")
        line("yield found")
    out.append(" return piece0")
    return compile_kernel("\n".join(out), "enumeration generator", ("make",),
                          isqrt=isqrt, gcd=gcd, of_ints=LatticeVector._of_ints)[0]


def enumerate_with_square(lattice: Lattice, blocks: tuple[str, ...], bound: int,
                          target: int) -> Iterator[LatticeVector]:
    """All primitive vectors on the named ``blocks`` with |coords| <= bound and the given square.

    Deterministic lexicographic order on full coordinate tuples.  The blocks
    are cut into runs (a plane, or adjacent negative-definite blocks), walked
    by one generator that :func:`_generator` compiles for their layout.  A
    plane loops over its box; a definite run writes out the Fincke-Pohst loop
    of each coordinate through its ellipsoid, so no box of E8 is built.  Each
    run keeps the squares that the runs after it can still make up, so the
    last tests acc == target.  A last definite run solves its last coordinate x
    instead of looping: the square left must be e * (den * x + c)^2, so when
    r = isqrt(left // e) has e * r * r == left, den * x + c = -r or r, ascending,
    and each x that den divides and the bound admits is kept.  A last definite
    run after other runs has solutions (its shell) that depend only on the acc
    the earlier runs leave it: the first shell of an acc is walked, each vector
    yielded as found, and recorded; each later one replays the record through
    the same gcd test.  The records of one call hold at most ``_MEMO_COORDS``
    coordinates; a shell that outgrows what is left, or is not walked to its
    end, is never kept.  The source is keyed by the layout alone (runs,
    ellipsoid data, rank), 8 layouts kept; the bound, the ranges, the boxes and
    the memo's room are passed in as values, and the source writes its integers
    in hex.  A function nests at most 20 loops, so a deeper layout chains
    functions.
    """
    if type(target) is not int:
        raise LatticeError(f"target square must be an integer, got {target!r}")
    _check_bound(bound)
    runs: list[slice] = []
    for block in sorted(map(lattice.block_slice, set(blocks)), key=lambda block: block.start):
        joined = slice(runs[-1].start, block.stop) if runs and runs[-1].stop == block.start else None
        if joined is not None and _ellipsoid(_slice_gram(lattice, joined)) is not None:
            runs[-1] = joined  # adjacent definite blocks are walked as one ellipsoid
        else:
            runs.append(block)
    layout, boxes, ranges, lo, hi = [], [], [], target, target
    for run in reversed(runs):  # ranges: the sums that each run may leave behind it
        gram = _slice_gram(lattice, run)
        layout.insert(0, (run.start, run.stop, _ellipsoid(gram)))
        ranges[:0] = (lo, hi)
        if layout[0][2] is not None:  # its squares lie in [-bound^2 * sum |G_ij|, 0]
            hi += bound * bound * sum(abs(g) for row in gram for g in row)
        else:
            box = product(range(-bound, bound + 1), repeat=len(gram))
            pad, tail = (0,) * run.start, (0,) * (lattice.rank - run.stop)  # the plane is a direct summand
            boxes.insert(0, [(t, lattice.invariant_kernels[0](pad + t + tail)) for t in box])
            lo, hi = lo - max(q for _, q in boxes[0]), hi - min(q for _, q in boxes[0])
    make = _generator(tuple(layout), lattice.rank)
    return make(lattice, bound, ranges, boxes, _MEMO_COORDS)()


def enumerate_primitive_isotropic(window: EnumerationWindow) -> Iterator[LatticeVector]:
    """Primitive isotropic vectors of LY supported on the window's blocks."""
    model, _ = build_model()
    return enumerate_with_square(model.lambda_Y, window.blocks, window.bound, target=0)


