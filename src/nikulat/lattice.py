"""Integral lattices with exact Gram-matrix arithmetic.

A lattice is a free Z-module of finite rank together with a nondegenerate
integer-valued symmetric bilinear form, stored as a Gram matrix.  Everything
here is a pure function on immutable values; no floats appear anywhere.

A lattice compiles the square, the divisibility and the product G.x of a coordinate tuple
from its sparse Gram rows on first use (:attr:`Lattice.invariant_kernels`), straight-line,
integers in hex.  The divisibility takes a component c*M of G with M unimodular as c times the
gcd of its coordinates, as M maps Z^k onto itself, and the rows of G.x elsewhere.  That G.x is
the package's one writer of Gram products, and :func:`compile_kernel` compiles every kernel of the
package and every :func:`trusted_builder`.

It also holds the reflection type, :class:`Isometry`, built by :func:`reflection` in a root of
square -2: it reads G.r off the compiled product, and its one check is (r, r) = -2.  Orbit search
under reflections is :mod:`nikulat.isometry`.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field, fields
from functools import cache, cached_property
from math import gcd, prod
from operator import add, mul, sub

from . import intmat
from .intmat import IntVector, Matrix

#: (block label, coordinate offset, block rank) bookkeeping for direct sums.
Block = tuple[str, int, int]

#: Per matrix row, its nonzero entries as (column, value) pairs.
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


class LatticeError(ValueError):
    """Domain-level failure: bad vector, mismatched lattice, degenerate form."""


def _declared_fields(obj) -> dict:
    """The pickle and copy state of a value with cached kernels: its declared fields only, since
    compiled functions do not pickle; a copy compiles its own on first use."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def _refuse(obj, name: str, *value) -> None:
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def sealed(cls):
    """The frozen, slotted dataclass ``cls``, raising ``FrozenInstanceError`` on setting or deleting
    any name.  ``slots=True`` rebuilds the class after ``dataclass`` writes its methods, so on CPython
    3.11 those raise ``TypeError`` for a name that is no field: they call ``super()`` on the old class."""
    cls.__setattr__ = cls.__delattr__ = _refuse
    return cls


# Negated Cartan matrix of E8.  Node ordering: 1-2-3-4-5-6-7 is a path and
# node 8 attaches to node 5, so roots 1,3 are non-adjacent and 4,6 are
# non-adjacent.  This exact matrix is part of the package's wire contract.
E8_NEG_GRAM: Matrix = (
    (-2, 1, 0, 0, 0, 0, 0, 0),
    (1, -2, 1, 0, 0, 0, 0, 0),
    (0, 1, -2, 1, 0, 0, 0, 0),
    (0, 0, 1, -2, 1, 0, 0, 0),
    (0, 0, 0, 1, -2, 1, 0, 1),
    (0, 0, 0, 0, 1, -2, 1, 0),
    (0, 0, 0, 0, 0, 1, -2, 0),
    (0, 0, 0, 0, 1, 0, 0, -2),
)


@dataclass(frozen=True)
class Lattice:
    """A nondegenerate integral lattice presented by a Gram matrix."""

    label: str
    gram: Matrix
    blocks: tuple[Block, ...] = ()

    def __post_init__(self) -> None:
        gram = intmat.freeze(self.gram)
        object.__setattr__(self, "gram", gram)
        n = len(gram)
        if len(gram[0]) != n:
            raise LatticeError(f"Gram matrix of {self.label!r} is not square")
        if gram != tuple(zip(*gram)):
            raise LatticeError(f"Gram matrix of {self.label!r} is not symmetric")
        if intmat.det(gram) == 0:
            raise LatticeError(f"Gram matrix of {self.label!r} is degenerate")
        if not self.blocks:
            object.__setattr__(self, "blocks", ((self.label, 0, n),))

    __getstate__ = _declared_fields

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def sparse_rows(self) -> SparseRows:
        """Per Gram row, its nonzero entries as (column, value) pairs."""
        return _sparse_rows(self.gram)

    @cached_property
    def invariant_kernels(self) -> tuple:
        """``(square, divisibility, gram_product)`` of a coordinate tuple, compiled from
        :func:`_invariant_source` once, on first use, and kept on this lattice."""
        return compile_kernel(_invariant_source(self), "invariant kernel",
                              ("square", "divisibility", "gram_product"), gcd=gcd)

    def vector(self, coords) -> LatticeVector:
        return LatticeVector(self, coords)

    def basis_vector(self, i: int) -> LatticeVector:
        if not 0 <= i < self.rank:
            raise LatticeError(f"basis index {i} out of range for rank {self.rank}")
        return self.vector(tuple(int(j == i) for j in range(self.rank)))

    def block_slice(self, label: str) -> slice:
        """Coordinate slice of the direct summand that ``label`` names, which must be one block."""
        found = [slice(off, off + size) for name, off, size in self.blocks if name == label]
        if len(found) != 1:
            problem = "ambiguous" if found else "no"
            raise LatticeError(f"{problem} block {label!r} in {self.label!r}")
        return found[0]

    def block_basis(self, *labels) -> tuple[LatticeVector, ...]:
        """The basis vectors spanning the given blocks, block after block in the order given."""
        coords = range(self.rank)
        return tuple(self.basis_vector(i) for label in labels for i in coords[self.block_slice(label)])

    def __repr__(self) -> str:
        return f"Lattice({self.label!r}, rank={self.rank})"


@sealed
@dataclass(frozen=True, slots=True)
class LatticeVector:
    """An element of a lattice, given by integer coordinates in its basis.

    Coordinates are not coerced: a float, bool or string raises ``LatticeError``.
    They are checked here, where every reader and :meth:`Lattice.vector` enter.
    Sums, differences and int multiples of checked vectors, and the enumerator's
    and parser's vectors (from ``range``, ``isqrt`` and parsed digits), skip the
    re-check through ``_of_ints(lattice, coords)``, the :func:`trusted_builder` of this
    class: ints are closed under these operations.
    The two fields are slots: a vector has no ``__dict__``."""

    lattice: Lattice
    coords: IntVector

    def __post_init__(self) -> None:
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) != self.lattice.rank:
            raise LatticeError(
                f"vector of length {len(coords)} in lattice of rank {self.lattice.rank}"
            )
        if any(type(c) is not int for c in coords):
            raise LatticeError(f"vector coordinates must be integers, got {list(coords)!r}")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: LatticeVector) -> LatticeVector:
        _same_lattice(self, other)
        return LatticeVector._of_ints(self.lattice, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: LatticeVector) -> LatticeVector:
        _same_lattice(self, other)
        return LatticeVector._of_ints(self.lattice, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> LatticeVector:
        return LatticeVector._of_ints(self.lattice, tuple(-a for a in self.coords))

    def __rmul__(self, k: int) -> LatticeVector:
        make = LatticeVector._of_ints if type(k) is int else LatticeVector  # other scalars: checked
        return make(self.lattice, tuple(k * a for a in self.coords))

    def __repr__(self) -> str:
        return f"{self.lattice.label}{list(self.coords)}"


def _same_lattice(v: LatticeVector, w: LatticeVector) -> None:
    if v.lattice is not w.lattice and v.lattice != w.lattice:
        raise LatticeError(
            f"vectors live in different lattices: {v.lattice.label!r} vs {w.lattice.label!r}"
        )


def _sparse_rows(m: Matrix) -> SparseRows:
    return tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in m)


def standard_lattice(kind: str, param: int | None = None) -> Lattice:
    """One of the standard building blocks: U, E8_neg, or rank1(k).

    U is the hyperbolic plane with Gram [[0,1],[1,0]]; E8_neg is the negated
    E8 Cartan matrix under the fixed node ordering documented on
    ``E8_NEG_GRAM``; rank1(k) is the rank-one lattice whose generator has
    self-pairing k.
    """
    if kind == "U":
        return Lattice("U", ((0, 1), (1, 0)))
    if kind == "E8_neg":
        return Lattice("E8(-1)", E8_NEG_GRAM)
    if kind == "rank1":
        if param is None or param == 0:
            raise LatticeError("rank1 lattice needs a nonzero self-pairing")
        return Lattice(f"<{param}>", ((param,),))
    raise LatticeError(f"unknown standard lattice kind {kind!r}")


def rescale(lat: Lattice, n: int) -> Lattice:
    """The lattice L(n): same module, bilinear form multiplied by n."""
    if n == 0:
        raise LatticeError("cannot rescale a form by 0")
    gram = tuple(tuple(n * x for x in row) for row in lat.gram)
    label = f"{lat.label}({n})"
    blocks = lat.blocks
    if blocks == ((lat.label, 0, lat.rank),):
        blocks = ((label, 0, lat.rank),)
    return Lattice(label, gram, blocks)


def direct_sum(parts: list[Lattice] | tuple[Lattice, ...], label: str | None = None) -> Lattice:
    """Orthogonal direct sum with block-diagonal Gram and block offsets kept."""
    if not parts:
        raise LatticeError("direct sum of an empty list")
    if len(parts) == 1 and label is None:
        return parts[0]
    total = sum(p.rank for p in parts)
    rows: list[list[int]] = [[0] * total for _ in range(total)]
    blocks: list[Block] = []
    off = 0
    for p in parts:
        for i in range(p.rank):
            for j in range(p.rank):
                rows[off + i][off + j] = p.gram[i][j]
        for name, boff, bsize in p.blocks:
            blocks.append((name, off + boff, bsize))
        off += p.rank
    if label is None:
        label = "+".join(p.label for p in parts)
    return Lattice(label, tuple(tuple(r) for r in rows), tuple(blocks))


def compile_kernel(source: str, label: str, names: tuple[str, ...], **scope) -> tuple:
    """The functions ``names`` that ``source`` defines, run once with the globals ``scope``;
    the one place the package compiles source text, which each kernel writes and caches."""
    exec(compile(source, f"<{label}>", "exec"), scope)
    return tuple(scope[name] for name in names)


@cache
def trusted_builder(cls):
    """``build(*values)``: the frozen, slotted dataclass ``cls`` with these field values, each set
    through its slot's member descriptor, past ``__init__``, ``__post_init__`` and the frozen
    ``__setattr__``, for values the caller has checked.  Compiled once per class, on first use."""
    names = [f.name for f in fields(cls)]
    lines = [f"def build({', '.join(names)}):", " obj = new(cls)", *(f" set_{n}(obj, {n})" for n in names)]
    return compile_kernel("\n".join(lines + [" return obj"]), f"{cls.__name__} builder", ("build",),
                          new=object.__new__, cls=cls, **{f"set_{n}": cls.__dict__[n].__set__ for n in names})[0]


LatticeVector._of_ints = staticmethod(trusted_builder(LatticeVector))  # at import: build_model's sums need it


def linear_source(terms) -> str:
    """The sum of coef*var over the ``(coef, var)`` ``terms`` as source text, "" if none, for every
    compiled kernel: each coefficient in hex, which the int-to-decimal-text limit does not cover."""
    text = "".join((" - " if c < 0 else " + ") + (v if abs(c) == 1 else f"{abs(c):#x}*{v}") for c, v in terms)
    return ("-" if text.startswith(" - ") else "") + text[3:]


def gx_source(rows: SparseRows) -> list[str]:
    """Per sparse row of G (a Gram or an embedding matrix), the source of its entry of G.x in x0, x1, ..."""
    return [linear_source((g, f"x{j}") for j, g in row) for row in rows]


def _invariant_source(lat: Lattice) -> str:
    """The source of :attr:`Lattice.invariant_kernels`: ``square(x)``, which sums
    x_i (G_ii x_i + sum_{j>i} 2 G_ij x_j) over the upper triangle of the sparse rows,
    ``divisibility(x)``, the gcd of G.x (0 at x = 0), and ``gram_product(x)``, the tuple G.x.
    ``divisibility`` splits G into the connected components of its nonzero entries, which are
    orthogonal summands whatever the declared blocks say.  A component with Gram c*M, |det M| = 1,
    gives c*gcd(its coordinates), since a unimodular M maps Z^k onto itself; components of one such
    content share one ``gcd``.  Every other component gives its rows of G.x.  The chain reads these
    by content, smallest first and rows before the group of their content, and returns once the gcd
    is 1, which no further entry can move."""
    unpack = f" ({''.join(f'x{i}, ' for i in range(lat.rank))}) = x"
    upper = (linear_source((g if j == i else 2 * g, f"x{j}") for j, g in row if j >= i)
             for i, row in enumerate(lat.sparse_rows))
    square = " + ".join(f"x{i}*({form})" for i, form in enumerate(upper) if form)
    parts, groups, links = [], {}, []  # components; unimodular coordinates by content; (content, gcd arguments)
    for i, row in enumerate(lat.sparse_rows):
        linked = [p for p in parts if any(j in p for j, _ in row)]
        parts = [p for p in parts if p not in linked] + [{i, *(j for j, _ in row)}.union(*linked)]
    for part in sorted(map(sorted, parts)):
        rows = [lat.sparse_rows[i] for i in part]
        c = gcd(*(g for row in rows for _, g in row))  # a nondegenerate form has no zero row
        if abs(intmat.det([[lat.gram[i][j] // c for j in part] for i in part])) == 1:
            groups.setdefault(c, []).extend(f"x{i}" for i in part)
        else:
            links += [(gcd(*(g for _, g in row)), form) for row, form in zip(rows, gx_source(rows))]
    links += [(c, ", ".join(xs) if c == 1 else f"{c:#x}*gcd({', '.join(xs)})") for c, xs in groups.items()]
    (_, first), *rest = sorted(links, key=lambda link: link[0])
    lines = ["def square(x):", unpack, f" return {square}", "def divisibility(x):", unpack, f" d = gcd({first})"]
    lines += [f" if d == 0x1:\n  return d\n d = gcd(d, {form})" for _, form in rest] + [" return d"]
    lines += ["def gram_product(x):", unpack, f" return ({''.join(f'{g}, ' for g in gx_source(lat.sparse_rows))})"]
    return "\n".join(lines)


def pair(v: LatticeVector, w: LatticeVector) -> int:
    """The bilinear pairing (v, w), exactly: v against the compiled G.w."""
    _same_lattice(v, w)
    return sum(map(mul, v.coords, v.lattice.invariant_kernels[2](w.coords)))


def square(v: LatticeVector) -> int:
    """The self-pairing (v, v), from the lattice's compiled square (see :func:`_invariant_source`)."""
    return v.lattice.invariant_kernels[0](v.coords)


def divisibility(v: LatticeVector) -> int:
    """Positive generator of the pairing ideal (v, L) in v's full lattice, by the compiled kernel."""
    if v.is_zero():
        raise LatticeError("divisibility of the zero vector is undefined")
    return v.lattice.invariant_kernels[1](v.coords)


def is_primitive(v: LatticeVector) -> bool:
    """True iff v is not a nontrivial integer multiple of a lattice vector."""
    if v.is_zero():
        raise LatticeError("primitivity of the zero vector is undefined")
    return gcd(*v.coords) == 1


def discriminant_group(lat: Lattice) -> list[int]:
    """Invariant factors (>1) of the discriminant group L*/L = coker(gram)."""
    diag = intmat.smith_decomposition(lat.gram).diagonal()
    return [d for d in diag if d > 1]


@dataclass(frozen=True)
class SublatticeReport:
    """How a finitely generated sublattice sits inside its saturation."""

    generators: tuple[LatticeVector, ...]
    saturation_basis: tuple[LatticeVector, ...]
    index_invariant_factors: tuple[int, ...]

    @property
    def total_index(self) -> int:
        return prod(self.index_invariant_factors, start=1)


def saturate(lat: Lattice, gens: list[LatticeVector] | tuple[LatticeVector, ...]) -> SublatticeReport:
    """Saturation of the sublattice spanned by ``gens``.

    The saturation is the intersection of the rational span with the ambient
    lattice.  With the Smith form D = L @ M @ R of the coordinate matrix M
    (generators as columns), the report's basis is the first k columns of the
    returned L^-1, and its invariant factors, those of saturation/sublattice, are
    the diagonal of D; ``check_embedding``, the audit and the CLI read the report.
    """
    if not gens:
        raise LatticeError("saturate needs at least one generator")
    for g in gens:
        if g.lattice != lat:
            raise LatticeError("generator does not live in the given lattice")
    k = len(gens)
    m = intmat.freeze([[g.coords[i] for g in gens] for i in range(lat.rank)])
    dec = intmat.smith_decomposition(m)
    diag = dec.diagonal()
    if len(diag) < k or any(d == 0 for d in diag):
        raise LatticeError("generators are linearly dependent over Q")
    basis = tuple(
        lat.vector(tuple(dec.left_inv[i][j] for i in range(lat.rank))) for j in range(k)
    )
    return SublatticeReport(
        generators=tuple(gens),
        saturation_basis=basis,
        index_invariant_factors=tuple(d for d in diag if d > 1),
    )


@dataclass(frozen=True)
class EmbeddingMap:
    """A Z-linear injection of lattices; column j is the image of basis vector j."""

    domain: Lattice
    codomain: Lattice
    matrix: Matrix

    def __post_init__(self) -> None:
        matrix = intmat.freeze(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        if len(matrix) != self.codomain.rank or len(matrix[0]) != self.domain.rank:
            raise LatticeError(
                f"embedding matrix must be {self.codomain.rank}x{self.domain.rank}"
            )

    __getstate__ = _declared_fields

    @cached_property
    def image_kernel(self):
        """The image tuple of a coordinate tuple, compiled from the matrix's sparse rows once, on first use."""
        rows = "".join(f"{form or '0x0'}, " for form in gx_source(_sparse_rows(self.matrix)))  # 0x0: a zero row
        source = f"def image(x):\n ({''.join(f'x{j}, ' for j in range(self.domain.rank))}) = x\n return ({rows})"
        return compile_kernel(source, "embedding kernel", ("image",))[0]

    def __call__(self, v: LatticeVector) -> LatticeVector:
        if v.lattice.gram != self.domain.gram:
            raise LatticeError(
                f"vector lattice {v.lattice.label!r} does not match domain {self.domain.label!r}"
            )
        # trusted: the frozen matrix holds ints, its row count is the codomain rank, and v is checked
        return LatticeVector._of_ints(self.codomain, self.image_kernel(v.coords))

    def column_vectors(self) -> tuple[LatticeVector, ...]:
        return tuple(
            self.codomain.vector(tuple(self.matrix[i][j] for i in range(self.codomain.rank)))
            for j in range(self.domain.rank)
        )


@dataclass(frozen=True)
class EmbeddingReport:
    isometric: bool
    primitive: bool
    saturation_index: int
    index_invariant_factors: tuple[int, ...]
    gram_pair_failures: int = 0  # pairs i <= j of domain basis vectors with (M e_i, M e_j) != G_ij


def check_embedding(emb: EmbeddingMap) -> EmbeddingReport:
    """Whether an embedding conserves the form, (M e_i, M e_j) = G_ij, and whether its image is saturated.

    Both forms are symmetric, so the pairs i <= j decide it."""
    columns = emb.column_vectors()
    failures = sum(pair(columns[i], a) != g for i, row in enumerate(emb.domain.gram)
                   for a, g in zip(columns[i:], row[i:]))
    report = saturate(emb.codomain, list(columns))
    return EmbeddingReport(
        isometric=not failures,
        primitive=report.total_index == 1,
        saturation_index=report.total_index,
        index_invariant_factors=report.index_invariant_factors,
        gram_pair_failures=failures,
    )


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
