"""JSON interchange: vector and matrix files, orbits, canonical dumps; strict integers."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nikulat import Lattice, LatticeError, OrbitBudget, orbit_explore, reflection, standard_lattice
from nikulat import serialize
from nikulat.core import build_model, lattice_registry


@pytest.fixture(scope="module")
def setup():
    return build_model()


def test_lattice_round_trip():
    """A lattice is its label and Gram matrix: rebuilt from them, it is equal."""
    u = standard_lattice("U")
    assert (u.label, u.gram) == ("U", ((0, 1), (1, 0)))
    assert Lattice(u.label, u.gram) == u


def test_lattice_rank_mismatch_rejected():
    """A vector file whose coordinates do not match its lattice's rank is rejected."""
    with pytest.raises(LatticeError, match="rank 16"):
        serialize.vector_from_obj({"lattice": "LY", "coords": [1, 0, 0]})


def test_lattice_missing_key():
    with pytest.raises(serialize.FormatError):
        serialize.vector_from_obj({"coords": [1] + [0] * 15})
    with pytest.raises(serialize.FormatError):
        serialize.matrix_from_obj({"gram": [[0, 1], [1, 0]]})


def test_vector_round_trip(setup):
    _, nv = setup
    v = nv.L(1) + nv.e2
    obj = serialize.vector_to_obj(v)
    assert obj["lattice"] == "LY"
    assert serialize.vector_from_obj(obj) == v


def test_vector_unknown_label():
    with pytest.raises(LatticeError):
        serialize.vector_from_obj({"lattice": "??", "coords": [1]})


def test_registry_contents():
    registry = lattice_registry()
    assert set(registry) == {"LX", "Lfix", "LY"}
    assert registry["LY"].rank == 16


def test_orbit_object_sorted(setup):
    _, nv = setup
    orbit = orbit_explore(nv.gamma1, [reflection(nv.gamma1)], OrbitBudget(2, 10, 3))
    obj = serialize.orbit_to_obj(orbit)
    members = [tuple(m["coords"]) for m in obj["members"]]
    assert members == sorted(members)
    assert obj["exhausted"] is True
    assert obj["seed"]["lattice"] == "LY"


def test_dumps_is_canonical():
    a = serialize.dumps({"b": 1, "a": [2, 3]})
    b = serialize.dumps(json.loads(a))
    assert a == b


#: JSON trees with string keys; tuples are written as lists, and big ints past int64 too
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2**80, 2**80) | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=5) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=4), children, max_size=5),
    max_leaves=30)


@settings(max_examples=150, deadline=None)
@given(obj=JSON_TREES)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    """The writer is ``json.dumps`` with sorted keys, ": " and a one-space indent, byte for byte:
    escapes, non-ASCII text, empty containers, floats and ``NaN`` included."""
    assert serialize.dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)


@pytest.mark.parametrize("obj", [{1: 2}, [{"a": {1, 2}}], object()])
def test_dumps_refuses_a_key_that_is_no_string_and_a_value_json_does_not_hold(obj):
    """``json.dumps`` would write the int key as "1"; the writer raises rather than differ."""
    with pytest.raises(TypeError):
        serialize.dumps(obj)


def test_witness_object(setup):
    _, nv = setup
    obj = serialize.witness_to_obj(nv.L(0), nv.L(0), [])
    assert obj["word"] == [] and obj["from"] == obj["to"]
    assert serialize.witness_to_obj(nv.L(0), nv.L(1), None)["word"] is None


@pytest.mark.parametrize("bad", [1.9, True, "1", None])
def test_vector_rejects_non_int_coords(bad):
    with pytest.raises(serialize.FormatError):
        serialize.vector_from_obj({"lattice": "LY", "coords": [bad] + [0] * 15})


def test_vector_rejects_coords_that_are_not_a_list():
    with pytest.raises(serialize.FormatError):
        serialize.vector_from_obj({"lattice": "LY", "coords": "1" + "0" * 15})


@pytest.mark.parametrize("bad", [1.5, 2.0, False, "0"])
def test_lattice_rejects_non_int_gram_entries(bad):
    """A Gram entry that is not an int is rejected, not truncated, in a file and in the library."""
    with pytest.raises(serialize.FormatError):
        serialize.matrix_from_obj({"matrix": [[bad, 1], [1, 0]]})
    with pytest.raises(ValueError, match="not an integer"):
        Lattice("U", ((bad, 1), (1, 0)))


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_lattice_rejects_non_int_rank(bad):
    """The integer parameter of a rank-1 lattice is not coerced either."""
    with pytest.raises(ValueError, match="not an integer"):
        standard_lattice("rank1", bad)
