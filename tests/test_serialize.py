"""JSON interchange: lattice files, vector files, orbits, canonical dumps."""

import json

import pytest

from nikulat import LatticeError, OrbitBudget, orbit_explore, reflection, standard_lattice
from nikulat import serialize
from nikulat.model import build_model, lattice_registry


@pytest.fixture(scope="module")
def setup():
    return build_model()


def test_lattice_round_trip():
    u = standard_lattice("U")
    obj = serialize.lattice_to_obj(u)
    assert obj == {"label": "U", "rank": 2, "gram": [[0, 1], [1, 0]]}
    back = serialize.lattice_from_obj(obj)
    assert back.gram == u.gram and back.label == u.label


def test_lattice_rank_mismatch_rejected():
    with pytest.raises(LatticeError):
        serialize.lattice_from_obj({"label": "U", "rank": 3, "gram": [[0, 1], [1, 0]]})


def test_lattice_missing_key():
    with pytest.raises(LatticeError):
        serialize.lattice_from_obj({"label": "U"})


def test_vector_round_trip(setup):
    _, nv = setup
    v = nv.L(1) + nv.e2
    obj = serialize.vector_to_obj(v)
    assert obj["lattice"] == "LY"
    assert serialize.vector_from_obj(obj, lattice_registry()) == v


def test_vector_unknown_label():
    with pytest.raises(LatticeError):
        serialize.vector_from_obj({"lattice": "??", "coords": [1]}, lattice_registry())


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


def test_witness_object(setup):
    _, nv = setup
    obj = serialize.witness_to_obj(nv.L(0), nv.L(0), [])
    assert obj["word"] == [] and obj["from"] == obj["to"]


@pytest.mark.parametrize("bad", [1.9, True, "1", None])
def test_vector_rejects_non_int_coords(bad):
    with pytest.raises(serialize.FormatError):
        serialize.vector_from_obj({"lattice": "LY", "coords": [bad] + [0] * 15}, lattice_registry())


def test_vector_rejects_coords_that_are_not_a_list():
    with pytest.raises(serialize.FormatError):
        serialize.vector_from_obj({"lattice": "LY", "coords": "1" + "0" * 15}, lattice_registry())


@pytest.mark.parametrize("bad", [1.5, False, "0"])
def test_lattice_rejects_non_int_gram_entries(bad):
    with pytest.raises(serialize.FormatError):
        serialize.lattice_from_obj({"label": "U", "rank": 2, "gram": [[bad, 1], [1, 0]]})


@pytest.mark.parametrize("bad", [2.0, True, "2"])
def test_lattice_rejects_non_int_rank(bad):
    with pytest.raises(serialize.FormatError):
        serialize.lattice_from_obj({"label": "U", "rank": bad, "gram": [[0, 1], [1, 0]]})
