"""The concrete rank-23/15/16 lattices, their named vectors, the involution, eta and the default roots.

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

This module is what ``import nikulat`` loads on top of ``lattice``: the classifiers and
the enumeration (:mod:`nikulat.model`) and the orbit searches (:mod:`nikulat.isometry`)
load on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache

from .intmat import Matrix
from .lattice import (EmbeddingMap, Isometry, Lattice, LatticeError, LatticeVector, direct_sum, discriminant_group,
                      divisibility, is_primitive, pair, reflection, rescale, square, standard_lattice)


@dataclass(frozen=True)
class NamedModel:
    lambda_X: Lattice
    lambda_fix: Lattice
    lambda_Y: Lattice


@dataclass(frozen=True)
class NamedVectors:
    """The vectors of LY that the classifiers and the audit talk about, LY's basis first."""

    u: tuple[LatticeVector, ...]  # u1..u6, bases of the three U(2) blocks
    eps: tuple[LatticeVector, ...]  # eps1..eps8, simple roots of E8(-1)
    gamma1: LatticeVector
    gamma2: LatticeVector
    e1: LatticeVector
    e2: LatticeVector
    ew: LatticeVector
    deltaY: LatticeVector
    SigmaY: LatticeVector
    w: LatticeVector

    def L(self, i: int) -> LatticeVector:
        """L(i) = u1 + i*u2, a primitive class of square 4i in the first U(2)."""
        return self.u[0] + i * self.u[1]

    def by_name(self) -> dict[str, LatticeVector]:
        """Every named vector under its name, ``u1..u6`` and ``eps1..eps8`` numbered from 1.

        The fields are declared basis first, so the first 16 names are LY's coordinates in order."""
        names = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                names.update({f"{f.name}{k}": v for k, v in enumerate(value, 1)})
            else:
                names[f.name] = value
        return names


def _u_blocks(plane: Lattice) -> list[Lattice]:
    return [Lattice(f"U{k}", plane.gram) for k in (1, 2, 3)]


@lru_cache(maxsize=1)
def build_model() -> tuple[NamedModel, NamedVectors]:
    """Construct the three lattices and the named vectors, checking every pin."""
    u_plane = standard_lattice("U")
    e8 = standard_lattice("E8_neg")
    minus2 = standard_lattice("rank1", -2)

    lambda_X = direct_sum(
        _u_blocks(u_plane) + [Lattice("E8a", e8.gram), Lattice("E8b", e8.gram), Lattice("D", minus2.gram)], label="LX"
    )
    lambda_fix = direct_sum(
        _u_blocks(u_plane) + [Lattice("E8", rescale(e8, 2).gram), Lattice("D", minus2.gram)], label="Lfix"
    )
    lambda_Y = direct_sum(
        _u_blocks(rescale(u_plane, 2))
        + [Lattice("E8", e8.gram), Lattice("G1", minus2.gram), Lattice("G2", minus2.gram)],
        label="LY",
    )

    block = lambda_Y.block_basis
    u = block("U1", "U2", "U3")
    eps = block("E8")
    gamma1, gamma2 = block("G1", "G2")
    vectors = NamedVectors(
        u=u,
        eps=eps,
        gamma1=gamma1,
        gamma2=gamma2,
        e1=eps[0],
        e2=eps[0] + eps[2],
        ew=eps[3] + eps[5],
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


def sigma_star(v: LatticeVector) -> LatticeVector:
    """The involution of LX exchanging the two E8(-1) blocks."""
    model, _ = build_model()
    lx = model.lambda_X
    if v.lattice != lx:
        raise LatticeError("sigma_star acts on LX only")
    coords, a, b = list(v.coords), lx.block_slice("E8a"), lx.block_slice("E8b")
    coords[a], coords[b] = coords[b], coords[a]
    return lx.vector(coords)


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
