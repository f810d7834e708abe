"""Integral lattices with exact Gram-matrix arithmetic.

A lattice is a free Z-module of finite rank together with a nondegenerate
integer-valued symmetric bilinear form, stored as a Gram matrix.  Everything
here is a pure function on immutable values; no floats appear anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from operator import add, sub

from . import intmat
from .intmat import IntVector, Matrix

#: (block label, coordinate offset, block rank) bookkeeping for direct sums.
Block = tuple[str, int, int]

#: Per matrix row, its nonzero entries as (column, value) pairs.
SparseRows = tuple[tuple[tuple[int, int], ...], ...]


class LatticeError(ValueError):
    """Domain-level failure: bad vector, mismatched lattice, degenerate form."""


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
        if gram != intmat.transpose(gram):
            raise LatticeError(f"Gram matrix of {self.label!r} is not symmetric")
        if intmat.det(gram) == 0:
            raise LatticeError(f"Gram matrix of {self.label!r} is degenerate")
        if not self.blocks:
            object.__setattr__(self, "blocks", ((self.label, 0, n),))

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def sparse_rows(self) -> SparseRows:
        """Per Gram row, its nonzero entries as (column, value) pairs."""
        return _sparse_rows(self.gram)

    @cached_property
    def rows_by_content(self) -> SparseRows:
        """``sparse_rows`` reordered by content (the gcd of a row's entries), smallest first.

        The sort is stable, so rows of equal content keep their index order.
        """
        return tuple(sorted(self.sparse_rows, key=lambda row: gcd(*(g for _, g in row))))

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


@dataclass(frozen=True)
class LatticeVector:
    """An element of a lattice, given by integer coordinates in its basis.

    Coordinates are not coerced: a float, bool or string raises ``LatticeError``.
    They are checked here, where every reader and :meth:`Lattice.vector` enter.
    Sums, differences and int multiples of checked vectors, and the enumerator's
    and parser's vectors (from ``range`` and parsed digits), skip the re-check
    through :meth:`_of_ints`: ints are closed under these operations.
    """

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

    @classmethod
    def _of_ints(cls, lattice: Lattice, coords: IntVector) -> LatticeVector:
        """The vector with ``coords``, trusted to be a tuple of exact ints of the lattice's rank."""
        v = object.__new__(cls)
        object.__setattr__(v, "lattice", lattice)
        object.__setattr__(v, "coords", coords)
        return v

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


def pair(v: LatticeVector, w: LatticeVector) -> int:
    """The bilinear pairing (v, w), exactly."""
    _same_lattice(v, w)
    x, y = v.coords, w.coords
    total = 0
    for i, row in enumerate(v.lattice.sparse_rows):
        xi = x[i]
        if xi:
            for j, g in row:
                total += xi * g * y[j]
    return total


def square(v: LatticeVector) -> int:
    """The self-pairing (v, v)."""
    return pair(v, v)


def divisibility(v: LatticeVector) -> int:
    """Positive generator of the pairing ideal (v, L), taken in v's full ambient lattice."""
    if v.is_zero():
        raise LatticeError("divisibility of the zero vector is undefined")
    return coords_divisibility(v.lattice, v.coords)


def coords_divisibility(lat: Lattice, x: IntVector) -> int:
    """gcd of the entries of G.x for a coordinate tuple (0 at x = 0).

    The rows of G are read in ``lat.rows_by_content`` order, smallest content
    first, and the walk stops once the gcd is 1.  The gcd of all entries does
    not depend on the order they are read in, and no further entry can move it
    from 1, so the early exit is exact.  A row of content c contributes only
    multiples of c, so a row of content above 1 can never bring the gcd to 1
    by itself; reading the content-1 rows first reaches 1 sooner.
    """
    d = 0
    for row in lat.rows_by_content:
        gx = 0
        for j, g in row:
            gx += g * x[j]
        d = gcd(d, gx)
        if d == 1:
            return 1
    return d


def is_primitive(v: LatticeVector) -> bool:
    """True iff v is not a nontrivial integer multiple of a lattice vector."""
    if v.is_zero():
        raise LatticeError("primitivity of the zero vector is undefined")
    return gcd(*v.coords) == 1


def discriminant_group(lat: Lattice) -> list[int]:
    """Invariant factors (>1) of the discriminant group L*/L = coker(gram)."""
    diag = intmat.smith_decomposition(lat.gram).diagonal()
    if any(d == 0 for d in diag):
        raise LatticeError(f"lattice {lat.label!r} is degenerate")
    return [d for d in diag if d > 1]


@dataclass(frozen=True)
class SublatticeReport:
    """How a finitely generated sublattice sits inside its saturation."""

    generators: tuple[LatticeVector, ...]
    saturation_basis: tuple[LatticeVector, ...]
    index_invariant_factors: tuple[int, ...]
    total_index: int

    def __post_init__(self) -> None:
        if self.total_index != prod(self.index_invariant_factors, start=1):
            raise LatticeError("total_index must be the product of the invariant factors")


def saturate(lat: Lattice, gens: list[LatticeVector] | tuple[LatticeVector, ...]) -> SublatticeReport:
    """Saturation of the sublattice spanned by ``gens``.

    The saturation is the intersection of the rational span with the ambient
    lattice.  With the Smith decomposition L @ M @ R = D of the coordinate
    matrix M (generators as columns), the saturation is spanned by the first
    k columns of L^-1 and the quotient saturation/sublattice has invariant
    factors the diagonal of D.
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
    factors = tuple(d for d in diag if d > 1)
    return SublatticeReport(
        generators=tuple(gens),
        saturation_basis=basis,
        index_invariant_factors=factors,
        total_index=prod(diag, start=1),
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

    @cached_property
    def sparse_rows(self) -> SparseRows:
        """Per matrix row, its nonzero entries as (column, value) pairs."""
        return _sparse_rows(self.matrix)

    def __call__(self, v: LatticeVector) -> LatticeVector:
        if v.lattice.gram != self.domain.gram:
            raise LatticeError(
                f"vector lattice {v.lattice.label!r} does not match domain {self.domain.label!r}"
            )
        x = v.coords
        image = []
        for row in self.sparse_rows:
            y = 0
            for j, a in row:
                y += a * x[j]
            image.append(y)
        # trusted: the frozen matrix holds ints, its row count is the codomain rank, and v is checked
        return LatticeVector._of_ints(self.codomain, tuple(image))

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


def check_embedding(emb: EmbeddingMap) -> EmbeddingReport:
    """Whether an embedding conserves the form and whether its image is saturated."""
    mt = intmat.transpose(emb.matrix)
    pulled_back = intmat.matmul(intmat.matmul(mt, emb.codomain.gram), emb.matrix)
    isometric = pulled_back == emb.domain.gram
    report = saturate(emb.codomain, list(emb.column_vectors()))
    return EmbeddingReport(
        isometric=isometric,
        primitive=report.total_index == 1,
        saturation_index=report.total_index,
        index_invariant_factors=report.index_invariant_factors,
    )
