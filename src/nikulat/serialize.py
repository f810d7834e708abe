"""JSON interchange formats.

Vector file:    {"lattice": label, "coords": [int, ...]}   label one of LX, Lfix, LY;
                read by --coords, and a list of them by orbit --gens-file
                and saturate --coords
Matrix file:    {"matrix": [[int, ...], ...]}   nonempty and rectangular;
                16x15 for embed --matrix-file and audit --eta-matrix
Orbit file:     {"seed": vector, "members": [vector, ...], "exhausted": bool}
                members sorted lexicographically by coordinates
Witness file:   {"from": vector, "to": vector, "word": [generator index, ...]}
                "word" is null when no word was found, and a "note" says why
Audit report:   [{"id": str, "status": str, "computed": {...}, "note": str}, ...]

Every vector written, audit witnesses included, has the shape of :func:`vector_to_obj`.
Readers take integers only: a float, boolean or string where an int belongs raises
:class:`FormatError`, as do a missing key, a value that is not the object, list or string it
should be, a file that is not UTF-8 text and one nested deeper than the interpreter's
recursion limit; an unknown lattice label is a :class:`LatticeError`.
``dumps`` is canonical (sorted keys, fixed separators), so equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any

from . import intmat
from .isometry import OrbitSet
from .lattice import LatticeError, LatticeVector
from .core import lattice_registry


def dumps(obj: Any) -> str:
    """``json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)``, byte for byte, for
    dicts with string keys, lists, tuples and JSON scalars.  An ``indent`` makes ``json`` run
    its pure-Python encoder; here a container is one join, a string goes through the C escaper
    and an int in a list through ``repr``."""
    return _dumps(obj, "\n")


def _dumps(obj: Any, pad: str) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + " "  # a newline and the indent of obj's items
    if isinstance(obj, dict):
        items, ends = [f"{encode_basestring_ascii(key)}: {_dumps(obj[key], inner)}" for key in sorted(obj)], "{}"
    elif isinstance(obj, (list, tuple)):
        items, ends = [repr(x) if type(x) is int else _dumps(x, inner) for x in obj], "[]"
    else:
        return json.dumps(obj)  # true, false, null, numbers; a TypeError for what JSON does not hold
    return f"{ends[0]}{inner}{f',{inner}'.join(items)}{pad}{ends[1]}" if items else ends


class FormatError(LatticeError):
    """A JSON object of the wrong shape or value type; the CLI exits 2 on it."""


def int_list(value: Any, what: str) -> list[int]:
    """``value`` itself if it is a list of ints; floats, bools and strings are not coerced."""
    if not isinstance(value, list) or any(type(x) is not int for x in value):
        raise FormatError(f"{what} must be a list of integers, got {value!r}")
    return value


def matrix_from_obj(obj: dict) -> intmat.Matrix:
    try:
        return intmat.freeze(obj["matrix"])
    except KeyError as exc:
        raise FormatError(f"malformed matrix object: missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise FormatError(f"malformed matrix object: {exc}") from None


def vector_to_obj(v: LatticeVector) -> dict:
    return {"lattice": v.lattice.label, "coords": list(v.coords)}


def vector_from_obj(obj: Any) -> LatticeVector:
    if not isinstance(obj, dict):
        raise FormatError(f"malformed vector object: not a JSON object, got {obj!r}")
    registry = lattice_registry()
    try:
        label, coords = obj["lattice"], obj["coords"]
    except KeyError as exc:
        raise FormatError(f"malformed vector object: missing {exc}") from None
    if not isinstance(label, str):
        raise FormatError(f"malformed vector object: lattice label must be a string, got {label!r}")
    if label not in registry:
        raise LatticeError(f"unknown lattice label {label!r}")
    return registry[label].vector(int_list(coords, "vector coords"))


def vectors_from_obj(obj: Any) -> list[LatticeVector]:
    """The vectors of a list of vector objects, as orbit --gens-file and saturate --coords read it."""
    if not isinstance(obj, list):
        raise FormatError(f"malformed vector list: not a JSON list, got {obj!r}")
    return [vector_from_obj(o) for o in obj]


def orbit_to_obj(orbit: OrbitSet) -> dict:
    label = orbit.seed.lattice.label
    return {
        "seed": vector_to_obj(orbit.seed),
        "members": [{"lattice": label, "coords": list(c)} for c in orbit.members],  # vector_to_obj's shape
        "exhausted": orbit.exhausted,
    }


def witness_to_obj(v: LatticeVector, u: LatticeVector, word: list[int] | None) -> dict:
    return {"from": vector_to_obj(v), "to": vector_to_obj(u), "word": None if word is None else list(word)}


def load_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from None
        except RecursionError:
            raise FormatError(f"{path} nests its JSON too deeply to read") from None


def save_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
