"""JSON interchange formats.

Vector file:    {"lattice": label, "coords": [int, ...]}   label one of LX, Lfix, LY;
                read by --coords, and a list of them by orbit --gens-file
Matrix file:    {"matrix": [[int, ...], ...]}   nonempty and rectangular;
                read by embed --matrix-file and audit --eta-matrix
Orbit file:     {"seed": vector, "members": [vector, ...], "exhausted": bool}
                members sorted lexicographically by coordinates
Witness file:   {"from": vector, "to": vector, "word": [generator index, ...]}
Audit report:   [{"id": str, "status": str, "computed": {...}, "note": str}, ...]

Every vector written, audit witnesses included, has the shape of :func:`vector_to_obj`.
Readers take integers only: a float, boolean or string where an int belongs
raises :class:`FormatError`, as does a missing key.  ``dumps`` is canonical
(sorted keys, fixed separators), so equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from typing import Any

from .intmat import Matrix
from .isometry import OrbitSet
from .lattice import Lattice, LatticeError, LatticeVector


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


class FormatError(LatticeError):
    """A JSON object of the wrong shape or value type; the CLI exits 2 on it."""


def int_list(value: Any, what: str) -> list[int]:
    """``value`` itself if it is a list of ints; floats, bools and strings are not coerced."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise FormatError(f"{what} must be a list of integers, got {value!r}")
    return value


def matrix_from_obj(obj: dict) -> Matrix:
    try:
        rows = obj["matrix"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed matrix object: missing {exc}") from None
    if not isinstance(rows, list):
        raise FormatError(f"matrix must be a list of rows, got {rows!r}")
    matrix = tuple(tuple(int_list(row, "matrix row")) for row in rows)
    if not matrix or not matrix[0] or any(len(row) != len(matrix[0]) for row in matrix):
        raise FormatError("matrix must be nonempty with rows of equal length")
    return matrix


def vector_to_obj(v: LatticeVector) -> dict:
    return {"lattice": v.lattice.label, "coords": list(v.coords)}


def vector_from_obj(obj: dict, registry: dict[str, Lattice]) -> LatticeVector:
    try:
        label, coords = obj["lattice"], obj["coords"]
    except (KeyError, TypeError) as exc:
        raise FormatError(f"malformed vector object: missing {exc}") from None
    if not isinstance(label, str) or label not in registry:
        raise LatticeError(f"unknown lattice label {label!r}")
    return registry[label].vector(int_list(coords, "vector coords"))


def orbit_to_obj(orbit: OrbitSet) -> dict:
    lat = orbit.seed.lattice
    return {
        "seed": vector_to_obj(orbit.seed),
        "members": [vector_to_obj(lat.vector(c)) for c in orbit.members],
        "exhausted": orbit.exhausted,
    }


def witness_to_obj(v: LatticeVector, u: LatticeVector, word: list[int]) -> dict:
    return {"from": vector_to_obj(v), "to": vector_to_obj(u), "word": list(word)}


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
