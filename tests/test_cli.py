"""End-to-end CLI: verbs, JSON modes, exit-code taxonomy."""

import json

import pytest

from nikulat.cli import main
from nikulat.model import build_model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- classify -------------------------------------------------------------------


def test_classify_type_a(capsys):
    code, out, _ = run(capsys, "classify", "L(1)+e2")
    assert code == 0
    assert "Case9 i=0" in out
    assert "type A" in out and "(1, 2)" in out


def test_classify_type_b(capsys):
    code, out, _ = run(capsys, "classify", "L(0)")
    assert code == 0
    assert "Star1 i=0" in out
    assert "type B" in out and "(1, 1)" in out


def test_classify_non_primitive_exits_1(capsys):
    code, _, err = run(capsys, "classify", "2*L(0)")
    assert code == 1
    assert "not primitive" in err


def test_classify_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "classify", "L(1)+!!")
    assert code == 2
    assert "error" in err


def test_classify_json_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "2*L(1)-deltaY", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["case"] == "Case2" and obj["i"] == 1
    assert obj["representative"]["lattice"] == "LY"
    assert obj["fibration"] is None
    assert obj["profile"]["div"] == 2


# --- profile / reflect ------------------------------------------------------------


def test_profile_json(capsys):
    code, out, _ = run(capsys, "profile", "SigmaY", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == -4 and obj["div"] == 2
    assert obj["star_condition"]["holds"] is False


def test_reflect(capsys):
    code, out, _ = run(capsys, "reflect", "w", "L(1)+e2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["image"]["coords"] == [6, 6, 0, 0, 0, 0, 1, 0, 1, 5, 0, 5, 0, 0, 5, 0]


def test_reflect_bad_root_exits_1(capsys):
    code, _, err = run(capsys, "reflect", "e2", "L(1)+e2")
    assert code == 1
    assert "square -2" in err


# --- orbit --------------------------------------------------------------------------


def test_orbit_small(capsys):
    code, out, _ = run(
        capsys, "orbit", "gamma1", "--coord-bound", "1", "--max-depth", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    members = [tuple(m["coords"]) for m in obj["members"]]
    assert members == sorted(members)


@pytest.mark.parametrize("flag", ["--coord-bound", "--max-frontier", "--max-depth"])
def test_orbit_zero_budget_flag_exits_2(capsys, flag):
    code, out, err = run(capsys, "orbit", "L(0)", flag, "0")
    assert code == 2
    assert out == ""
    assert "budget" in err


def test_audit_zero_budget_flag_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "audit", "--budget-max-depth", "0", "--output-dir", str(tmp_path))
    assert code == 2
    assert "budget" in err
    assert not (tmp_path / "report.json").exists()


def test_orbit_output_file(tmp_path, capsys):
    path = tmp_path / "orbit.json"
    code, out, _ = run(
        capsys,
        "orbit",
        "gamma1",
        "--coord-bound",
        "1",
        "--max-depth",
        "2",
        "--output",
        str(path),
        "--json",
    )
    assert code == 0
    obj = json.loads(path.read_text())
    assert obj["seed"]["coords"][14] == 1


def test_orbit_witness(capsys):
    code, out, _ = run(capsys, "orbit", "gamma1", "--witness=-gamma1", "--max-depth", "2")
    assert code == 0
    assert "gamma1" in out


def test_orbit_gens_file(tmp_path, capsys):
    _, nv = build_model()
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"lattice": "LY", "coords": list(nv.gamma1.coords)}]))
    code, out, _ = run(
        capsys, "orbit", "gamma1", "--gens-file", str(path), "--max-depth", "2", "--json"
    )
    assert code == 0
    assert len(json.loads(out)["members"]) == 2


# --- embed / saturate / enumerate ------------------------------------------------------


def test_embed_as_written(capsys):
    code, out, _ = run(capsys, "embed", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["isometric"] is True
    assert obj["primitive"] is False
    assert obj["saturation_index"] == 256


def test_embed_vector_bad_json(capsys):
    code, out, _ = run(capsys, "embed", "--vector", "[0]*0", "--json")
    assert code == 2  # not valid JSON for coordinates


def test_embed_maps_vector_ok(capsys):
    coords = [0] * 14 + [1]
    code, out, _ = run(capsys, "embed", "--vector", json.dumps(coords), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["image"]["coords"][14:] == [1, 1]


def test_embed_matrix_file(tmp_path, capsys):
    rows = [[0] * 15 for _ in range(16)]
    for k in range(15):
        rows[k][k] = 1
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run(capsys, "embed", "--matrix-file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["isometric"] is False


def test_saturate(capsys):
    code, out, _ = run(capsys, "saturate", "deltaY", "SigmaY", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total_index"] == 2
    assert obj["index_invariant_factors"] == [2]


def test_saturate_dependent_exits_1(capsys):
    code, _, err = run(capsys, "saturate", "L(0)", "2*L(0)")
    assert code == 1


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--blocks", "U1", "--bound", "1")
    assert code == 0
    assert "# 4 vectors" in out


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--blocks", "U1,G1,G2", "--bound", "1", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(obj["lattice"] == "LY" for obj in lines)


def test_enumerate_bad_block_exits_1(capsys):
    code, _, err = run(capsys, "enumerate", "--blocks", "U9")
    assert code == 1


# --- audit -------------------------------------------------------------------------


def test_audit_writes_reports(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "audit",
        "--budget-coord-bound", "1",
        "--budget-max-frontier", "2000",
        "--budget-max-depth", "2",
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert "unexpected 0" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert len(report) == 11
    assert (tmp_path / "report.txt").read_text().startswith("claim audit")


def test_audit_unwritable_dir_exits_2(tmp_path, capsys):
    target = tmp_path / "file"
    target.write_text("x")
    code, _, err = run(
        capsys,
        "audit",
        "--budget-coord-bound", "1",
        "--budget-max-frontier", "2000",
        "--budget-max-depth", "2",
        "--output-dir", str(target / "sub"),
    )
    assert code == 2


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


def test_classify_coords_file(tmp_path, capsys):
    _, nv = build_model()
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"lattice": "LY", "coords": list((nv.L(1) + nv.e2).coords)}))
    code, out, _ = run(capsys, "classify", "--coords", str(path))
    assert code == 0
    assert "Case9" in out


def test_classify_coords_wrong_lattice(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"lattice": "Lfix", "coords": [1] + [0] * 14}))
    code, _, err = run(capsys, "classify", "--coords", str(path))
    assert code == 1
    assert "LY" in err


def test_classify_coords_malformed_json(tmp_path, capsys):
    path = tmp_path / "vec.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "classify", "--coords", str(path))
    assert code == 2


@pytest.mark.parametrize("bad", [1.9, True, "1"])
def test_classify_coords_non_int_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps({"lattice": "LY", "coords": [bad] + [0] * 15}))
    code, out, err = run(capsys, "classify", "--coords", str(path))
    assert code == 2
    assert out == "" and "integers" in err


@pytest.mark.parametrize("bad", [1.9, True, "1"])
def test_orbit_gens_file_non_int_exits_2(tmp_path, capsys, bad):
    _, nv = build_model()
    coords = list(nv.gamma1.coords)
    coords[coords.index(1)] = bad
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"lattice": "LY", "coords": coords}]))
    code, out, _ = run(capsys, "orbit", "gamma1", "--gens-file", str(path), "--max-depth", "2")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_embed_vector_non_int_exits_2(capsys, bad):
    code, out, _ = run(capsys, "embed", "--vector", json.dumps([0] * 14 + [bad]), "--json")
    assert code == 2
    assert out == ""
