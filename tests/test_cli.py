"""End-to-end CLI: verbs, JSON modes, exit-code taxonomy."""

import json
import sys

import pytest

from answers import ANSWERS, INPUTS, LEDGER
from nikulat import is_primitive, parse_vector, square
from nikulat.cli import main
from nikulat.core import build_model, eta_as_written_matrix
from nikulat.model import ORBIT_CASES, case_representative


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


def test_classify_without_a_vector_exits_2(capsys):
    code, out, err = run(capsys, "classify")
    assert code == 2
    assert out == "" and "no vector given" in err


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


def test_orbit_witness_distinct_invariants_text(capsys):
    # div L(0) = 2, div L(1)+e2 = 1: distinct orbits, not an inconclusive search
    code, out, _ = run(capsys, "orbit", "L(0)", "--witness", "L(1)+e2")
    assert code == 0
    assert out == "distinct orbits: divisibility 2 vs 1\n"


def test_orbit_witness_not_found_text(capsys):
    # same square and divisibility, and no word within the default budget: no verdict
    code, out, _ = run(capsys, "orbit", "L(0)", "--witness", "L(0)+u3")
    assert code == 0
    assert out == "no witness within budget (absence is not a proof of distinct orbits)\n"


def test_orbit_witness_distinct_invariants_json(capsys):
    code, out, _ = run(capsys, "orbit", "L(0)", "--witness", "L(1)+e2", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["word"] is None
    assert obj["note"] == "distinct orbits: divisibility 2 vs 1"


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


def test_embed_coords_maps_an_lfix_vector(tmp_path, capsys):
    coords = [0] * 14 + [1]
    path = tmp_path / "fix.json"
    path.write_text(json.dumps({"lattice": "Lfix", "coords": coords}))
    code, out, _ = run(capsys, "embed", "--coords", str(path), "--json")
    assert code == 0
    assert json.loads(out)["image"]["coords"][14:] == [1, 1]
    assert (code, out) == run(capsys, "embed", "--vector", json.dumps(coords), "--json")[:2]


def test_embed_coords_rejects_an_ly_vector(tmp_path, capsys):
    path = tmp_path / "ly.json"
    path.write_text(json.dumps({"lattice": "LY", "coords": [1] + [0] * 15}))
    code, out, err = run(capsys, "embed", "--coords", str(path))
    assert code == 1
    assert out == "" and "expects a vector of Lfix" in err


def test_embed_matrix_file(tmp_path, capsys):
    rows = [[0] * 15 for _ in range(16)]
    for k in range(15):
        rows[k][k] = 1
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run(capsys, "embed", "--matrix-file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["isometric"] is False


def test_embed_labels_a_matrix_file_by_its_basename(tmp_path, monkeypatch, capsys):
    """``variant`` is the file's name however its path is typed, as ``audit --eta-matrix`` labels it."""
    (tmp_path / "eta-broken.json").write_text(INPUTS["eta-broken.json"]())
    monkeypatch.chdir(tmp_path)
    for path in ("eta-broken.json", "./eta-broken.json", str(tmp_path / "eta-broken.json")):
        code, out, _ = run(capsys, "embed", "--matrix-file", path, "--json")
        assert code == 0 and json.loads(out)["variant"] == "eta-broken.json"
        assert not ANSWERS["embed:broken-eta"].mismatch(out.encode())


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"matrix": [[1.7] * 15 for _ in range(16)]},
        {"matrix": "abc"},
        {"matrix": [[0] * 15 for _ in range(15)] + [[0] * 14]},
        {"matrix": [[True] * 15 for _ in range(16)]},
        {"matrix": []},
    ],
    ids=["missing-key", "float", "string", "ragged", "bool", "empty"],
)
@pytest.mark.parametrize("verb, flag", [("embed", "--matrix-file"), ("audit", "--eta-matrix")])
def test_matrix_file_malformed_exits_2(tmp_path, capsys, obj, verb, flag):
    path = tmp_path / "eta.json"
    path.write_text(json.dumps(obj))
    extra = ["--output-dir", str(tmp_path)] if verb == "audit" else []
    code, _, err = run(capsys, verb, flag, str(path), *extra)
    assert code == 2
    assert "error" in err
    assert not (tmp_path / "report.json").exists()


def test_saturate(capsys):
    code, out, _ = run(capsys, "saturate", "deltaY", "SigmaY", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["total_index"] == 2
    assert obj["index_invariant_factors"] == [2]


def test_saturate_coords_file_matches_the_expressions(tmp_path, capsys):
    _, nv = build_model()
    path = tmp_path / "gens.json"
    path.write_text(json.dumps([{"lattice": "LY", "coords": list(v.coords)} for v in (nv.deltaY, nv.SigmaY)]))
    from_file = run(capsys, "saturate", "--coords", str(path))
    assert from_file == run(capsys, "saturate", "deltaY", "SigmaY")
    assert from_file[0] == 0 and from_file[1].startswith("total index 2")


def test_saturate_empty_coords_file_exits_2(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text("[]")
    code, out, err = run(capsys, "saturate", "--coords", str(path))
    assert code == 2
    assert out == "" and "at least one generator" in err


def test_saturate_dependent_exits_1(capsys):
    code, _, err = run(capsys, "saturate", "L(0)", "2*L(0)")
    assert code == 1


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--blocks", "U1", "--bound", "1")
    assert code == 0
    assert "# 4 vectors" in out


def test_enumerate_default_window(capsys):
    code, out, _ = run(capsys, "enumerate")
    assert code == 0
    assert out.endswith("# 1660 vectors\n")


def test_enumerate_json_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--blocks", "U1,G1,G2", "--bound", "1", "--json")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert all(obj["lattice"] == "LY" for obj in lines)


def test_enumerate_e8_bound_3_first_vector(capsys):
    """The E8 box at bound 3 has 5.76M entries; the first vector must not wait for it."""
    code, out, _ = run(capsys, "enumerate", "--blocks", "U1,E8", "--bound", "3", "--limit", "1")
    assert code == 0
    expr, count = out.strip().splitlines()
    assert count == "# 1 vectors"
    v = parse_vector(expr.split(" [")[0])
    assert square(v) == 0 and is_primitive(v)


def test_enumerate_bad_block_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "--blocks", "U9")
    assert code == 2
    assert "no block 'U9'" in err


@pytest.mark.parametrize(
    "flags",
    [["--bound", "0"], ["--blocks", ","], ["--limit", "-1"]],
    ids=["bound-0", "no-block", "negative-limit"],
)
def test_enumerate_bad_flag_exits_2(capsys, flags):
    code, out, err = run(capsys, "enumerate", "--blocks", "U1", *flags)
    assert code == 2
    assert "bad enumerate flags" in err
    assert out == ""


@pytest.mark.parametrize("verb", ["embed", "audit"])
def test_eta_variant_flag_is_gone(tmp_path, capsys, verb):
    """Only the as-written eta is built in; other variants come in as matrix files."""
    with pytest.raises(SystemExit) as exc:
        main([verb, "--eta-variant", "x", *(["--output-dir", str(tmp_path)] if verb == "audit" else [])])
    assert exc.value.code == 2
    assert not (tmp_path / "report.json").exists()


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


def test_audit_non_isometric_eta_matrix_is_reported(tmp_path, capsys):
    """A non-isometric --eta-matrix is accepted: its impossible checks are NotCheckable."""
    rows = [list(row) for row in eta_as_written_matrix()]
    rows[0][0] = 2
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run(
        capsys,
        "audit",
        "--budget-coord-bound", "1",
        "--budget-max-frontier", "2000",
        "--budget-max-depth", "2",
        "--eta-matrix", str(path),
        "--output-dir", str(tmp_path),
    )
    assert code == 0
    assert "not-checkable 2" in out
    report = {obj["id"]: obj for obj in json.loads((tmp_path / "report.json").read_text())}
    assert report["invariant-type-a"]["status"] == "NotCheckable"
    assert report["antiinvariant-type-b"]["status"] == "NotCheckable"
    assert "not-checkable 2" in (tmp_path / "report.txt").read_text()


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


@pytest.mark.parametrize("argv, obj", [
    (["classify", "L(1)+e2"], {"lattice": "LY", "coords": [1] + [0] * 15}),
    (["profile", "L(1)+e2"], {"lattice": "LY", "coords": [1] + [0] * 15}),
    (["reflect", "e1", "L(1)+e2"], {"lattice": "LY", "coords": [1] + [0] * 15}),
    (["orbit", "L(1)+e2"], {"lattice": "LY", "coords": [1] + [0] * 15}),
    (["saturate", "deltaY"], [{"lattice": "LY", "coords": [1] + [0] * 15}]),
    (["embed", "--vector", json.dumps([0] * 14 + [1])], {"lattice": "Lfix", "coords": [1] + [0] * 14}),
], ids=["classify", "profile", "reflect", "orbit", "saturate", "embed"])
def test_two_sources_for_one_vector_exit_2(tmp_path, capsys, argv, obj):
    """An expression (or --vector) and --coords together are refused, not resolved in favour of the file."""
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv, "--coords", str(path))
    assert code == 2
    assert out == "" and "two sources" in err


NO_FILE = "No such file or directory"


@pytest.mark.parametrize("argv, reason", [
    (["classify", "--coords"], NO_FILE),
    (["embed", "--coords"], NO_FILE),
    (["saturate", "--coords"], NO_FILE),
    (["embed", "--matrix-file"], NO_FILE),
    (["audit", "--eta-matrix"], NO_FILE),
    (["orbit", "L(0)", "--gens-file"], NO_FILE),
    (["embed", "--vector"], "Expecting value"),
    (["orbit", "L(0)", "--witness"], "empty expression"),
    (["orbit", "L(0)", "--max-depth", "1", "-o"], "not a file in an existing directory"),
], ids=["classify-coords", "embed-coords", "saturate-coords", "matrix-file", "eta-matrix", "gens-file", "vector",
        "witness", "output"])
def test_empty_flag_value_exits_2(tmp_path, monkeypatch, capsys, argv, reason):
    """An empty value is a value: it reaches open, json.loads or parse_vector, never counts as an absent flag."""
    monkeypatch.chdir(tmp_path)  # audit's default --output-dir
    code, out, err = run(capsys, *argv, "")
    assert code == 2
    assert out == "" and err.startswith("error: ") and reason in err


@pytest.mark.parametrize("argv, path", [
    (["orbit", "L(1)+e2", "-o"], "no-such-dir/x.json"),
    (["orbit", "L(1)+e2", "-o"], "plain.txt/x.json"),
    (["orbit", "L(1)+e2", "-o"], "sub"),
    (["orbit", "L(1)+e2", "-o"], ""),
    (["audit", "--output-dir"], ""),
    (["audit", "--output-dir"], "plain.txt/sub"),
], ids=["orbit-no-parent", "orbit-under-a-file", "orbit-a-directory", "orbit-empty", "audit-empty",
        "audit-under-a-file"])
def test_bad_output_location_fails_before_the_computation(tmp_path, monkeypatch, capsys, argv, path):
    """An output location that cannot be written exits 2 before the orbit closure or the audit runs,
    and writes nothing."""
    def never(*_, **__):
        pytest.fail("computed before the output location was checked")

    monkeypatch.setattr("nikulat.cli.orbit_explore", never)
    monkeypatch.setattr("nikulat.cli.run_all", never)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plain.txt").write_text("kept\n")
    (tmp_path / "sub").mkdir()
    code, out, err = run(capsys, *argv, path)
    assert code == 2
    assert out == "" and err.startswith("error: ") and (path in err or not path)
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["plain.txt", "sub"]
    assert (tmp_path / "plain.txt").read_text() == "kept\n"


def test_witness_with_output_exits_2_before_the_search(tmp_path, monkeypatch, capsys):
    """A witness search writes no orbit file, so ``-o`` beside ``--witness`` is refused, not ignored."""
    def never(*_, **__):
        pytest.fail("searched before the flags were checked")

    monkeypatch.setattr("nikulat.cli.same_orbit_witness", never)
    code, out, err = run(capsys, "orbit", "L(1)+e2", "--witness", "L(1)+e1", "-o", str(tmp_path / "w.json"))
    assert code == 2
    assert out == "" and err.startswith("error: ") and "--witness" in err and "--output" in err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("obj, message", [
    (5, "malformed vector object: not a JSON object, got 5"),
    ({"lattice": "LY"}, "malformed vector object: missing 'coords'"),
], ids=["int", "missing-coords"])
def test_classify_coords_malformed_vector_object_exits_2(tmp_path, capsys, obj, message):
    path = tmp_path / "vec.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "classify", "--coords", str(path))
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("obj", [5, None, {"lattice": "LY", "coords": [1] + [0] * 15}], ids=["int", "null", "object"])
@pytest.mark.parametrize("argv", [("saturate", "--coords"), ("orbit", "L(0)", "--max-depth", "1", "--gens-file")],
                         ids=["saturate", "orbit"])
def test_vector_list_file_that_is_not_a_list_exits_2(tmp_path, capsys, obj, argv):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2
    assert out == "" and err == f"error: malformed vector list: not a JSON list, got {obj!r}\n"


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


# --- pinned JSON output -------------------------------------------------------------

#: every printed table representative (i = 0..3) and SigmaY, whose ``profile --json`` and
#: ``classify --json`` outputs the ledger pins
REPRESENTATIVES = [answer.argv[-1] for answer in LEDGER if answer.name.startswith("profile:")]


def test_pinned_exprs_cover_every_representative():
    reps = [case_representative(case, i)[1] for case in ORBIT_CASES[:-1] for i in range(4)]
    assert REPRESENTATIVES == reps + ["SigmaY"]


@pytest.mark.parametrize("expr", REPRESENTATIVES)
def test_profile_and_classify_json_pinned(expr):
    for verb in ("profile", "classify"):
        ANSWERS[f"{verb}:{expr}"].check()


@pytest.mark.parametrize("expr", ["2*u1+u2+2*e1+gamma1", "u1-2*u2"])
def test_classify_text_and_json_pinned(expr):
    """The Unmatched pocket, whose note prints the profile's repr, and a row of negative i."""
    for name in (f"classify-text:{expr}", f"classify:{expr}"):
        ANSWERS[name].check()


# --- integers beyond the interpreter's default int/str conversion limit ----------

ONES = "1" * 5000  # more digits than the default limit of 4,300


def _decimal(n: int) -> str:
    """``str(n)`` for an integer longer than the default conversion limit."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(n)
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(digits)


def test_big_coefficient_exits_by_the_normal_rules(capsys):
    code, _, err = run(capsys, "classify", f"{ONES}*e2")
    assert code == 1
    assert "vector not primitive" in err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit")
def test_big_coefficient_read_by_the_cli_still_fails_under_the_default_limit(capsys):
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        assert run(capsys, "classify", f"{ONES}*e2")[0] == 1  # read with the limit lifted
        with pytest.raises(ValueError) as exc:
            parse_vector(f"{ONES}*e2")
        assert type(exc.value) is ValueError  # the digit limit's, not a grammar error
    finally:
        sys.set_int_max_str_digits(digits)


def test_big_coordinate_file_classifies_exactly(tmp_path, capsys):
    path = tmp_path / "v.json"
    path.write_text('{"lattice": "LY", "coords": [' + ONES + ", 1" + ", 0" * 14 + "]}")
    code, out, _ = run(capsys, "classify", "--coords", str(path))
    assert code == 0
    assert f"rep=L({ONES}) [q={'4' * 5000} div=2]" in out


def test_big_embed_vector_maps_exactly(capsys):
    code, out, _ = run(capsys, "embed", "--vector", f"[{ONES}, 1" + ", 0" * 13 + "]")
    assert code == 0
    assert f"image: [{ONES}, 1, 0," in out


def test_big_square_is_printed_exactly(capsys):
    a, b = "1" * 3000, "1" * 2999
    code, out, _ = run(capsys, "profile", "--json", f"{a}*u1+{b}*u2")
    assert code == 0
    assert f'"q": {_decimal(4 * int(a) * int(b))},' in out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str limit before Python 3.10.7")
@pytest.mark.parametrize("argv", [["classify", "L(1)+e2"], ["classify", "2*L(0)"], ["classify", "L(1"]],
                         ids=["exit-0", "exit-1", "exit-2"])
def test_main_restores_the_digit_limit(capsys, argv):
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(digits)
