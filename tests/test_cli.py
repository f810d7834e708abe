"""End-to-end CLI: verbs, JSON modes, exit-code taxonomy."""

import hashlib
import json
import sys

import pytest

from nikulat import is_primitive, parse_vector, square
from nikulat.cli import main
from nikulat.model import ORBIT_CASES, build_model, case_representative, eta_as_written_matrix


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


def test_orbit_witness_distinct_invariants_text(capsys):
    # div L(0) = 2, div L(1)+e2 = 1: distinct orbits, not an inconclusive search
    code, out, _ = run(capsys, "orbit", "L(0)", "--witness", "L(1)+e2")
    assert code == 0
    assert out == "distinct orbits: divisibility 2 vs 1\n"


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


def test_embed_matrix_file(tmp_path, capsys):
    rows = [[0] * 15 for _ in range(16)]
    for k in range(15):
        rows[k][k] = 1
    path = tmp_path / "eta.json"
    path.write_text(json.dumps({"matrix": rows}))
    code, out, _ = run(capsys, "embed", "--matrix-file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["isometric"] is False


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"matrix": [[1.7] * 15 for _ in range(16)]},
        {"matrix": "abc"},
        {"matrix": [[0] * 15 for _ in range(15)] + [[0] * 14]},
        {"matrix": [[True] * 15 for _ in range(16)]},
    ],
    ids=["missing-key", "float", "string", "ragged", "bool"],
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


# --- pinned JSON output -------------------------------------------------------------

#: expression -> sha256 of the stdout of ``profile EXPR --json`` and ``classify EXPR --json``,
#: for every printed table representative (i = 0..3) and SigmaY
JSON_SHA256 = {
    "L(0)": (
        "0d1a1e2d373b81c257360af2962a685d3e989eea1e8d28d611f9816256591895",
        "cc51c3c1ff30692c082fcfee11260f7f99ae61a76755390ecb7c1b811174d4fa",
    ),
    "L(1)": (
        "bdc19253b342382575ce383f5bbfc733591acf97cb384fec49b1f5fd3ea6fda7",
        "189d29fbcd972295d4ead6cdeb3bce43a702a9f8609f08d391c4fd85faf14314",
    ),
    "L(2)": (
        "b472c02a1b3bef3b9b7b77bb9e93600012e0860398b856c0fff6d23499d2170b",
        "652f5b8d009571e733100cca634db31d9876c196451a5e320cb35baad53a94cd",
    ),
    "L(3)": (
        "d271a9b30184c6f3b17a92b12fdefc0ed6ee9b0e0ec55b1c16d08d348cf9e715",
        "4a83018e6fefe73c65ccbde23494e713c321c0bf1a23fdce0b850ad70676d1bd",
    ),
    "2*L(0)-deltaY": (
        "fd13e6be43b843b19c721eea114a5422cc1b8f2ca2d57d5108dd76b064107128",
        "517f0873215678b6aa277d3db92c065312e6df03815759aee4524a250f47235a",
    ),
    "2*L(1)-deltaY": (
        "ccde6f17361087c02f01ea8de36332f8d75ad539de28951d3977d3bf6a68b874",
        "4b0cb8a8821210c1fdb5bf796412d9648b30a32d93e1bd2bbde460d14fd35128",
    ),
    "2*L(2)-deltaY": (
        "06fa8c0c3316ddd1a1a7a0a00540f02de8effec0ab1e35bd3445a13a7a8708ab",
        "5ac8afa67d60049344969fa8abdd78af54ec3d37f40a7f8817dbf2f67a46c85a",
    ),
    "2*L(3)-deltaY": (
        "41f4fe697099d0981814df3c54f037af532f61e0ff129eee68da38821d5929bd",
        "2b9e77ba468a7aaf09a63e3efdfac8defb04526ab3c831c3564cb2bc63c8de92",
    ),
    "2*L(1)+2*e2-deltaY": (
        "1caf06c3dad878bfceff3c6ef8df9466fddbd4442efa6cc83b031a5f033e6322",
        "c5f60f494efd40b83c3d8c65e6f528159a74a404042ab67d95860a3d9b038f9d",
    ),
    "2*L(2)+2*e2-deltaY": (
        "ebda95a83d585e347bef4951382de169ff275da6a0963b8c235dd21d9827d88d",
        "f166223c9df94e0f0e0c1ae0ea5bf96a51d149b95bd12dc6598b4b7b2c343afc",
    ),
    "2*L(3)+2*e2-deltaY": (
        "82f5e7719323b79839d71dfcd4514cce093645d656f7b19b279c925a028912ef",
        "2bb570787511865768deb99605ef44ae84b32d388a423188f698277e06984378",
    ),
    "2*L(4)+2*e2-deltaY": (
        "e91f973c53b95a1975301c45cdf4acbee171723ded3bf45b3342406754632937",
        "dae9c12dbb5d268641dedddc86265ef498b0a64eb80d5a947a1e988358473a65",
    ),
    "L(0)-gamma1": (
        "5473b84d4ca8e052fbb29e9795209b87eb494961dbb0cad2dc94521a341a10be",
        "687f3ab345b5b6d3b250608445b7cad3a85a9475df4036dac37553659094ab7f",
    ),
    "L(1)-gamma1": (
        "aba3702fc921d17a1bf8f729909909b940bc4da007c2f73030eeb39380937cb1",
        "0292bb556e05414b042a7018caa2916f636976bb310e5074f214952aa3628b31",
    ),
    "L(2)-gamma1": (
        "8a02f06e056334de4d487615dde9797e09dbfaa799e751d1a9b11b20c8ae1069",
        "d35bbefc515bbb49b8e3d868a198b061bd57003480780d73f53d23c9266010ce",
    ),
    "L(3)-gamma1": (
        "e96cb50aa5deb155e128184bff05e603753a72c707a7001fde805ec8679074ea",
        "053412001644cbf7621b086116ede2cf49e6ae928a7fb06cda210f2d55337f9c",
    ),
    "L(1)+e2-gamma1": (
        "bb944ea282f451a6a56b5c3b62a9267359484ece1414abeb1e2e0261d6264c7d",
        "d061d3e469716c1ceb270a326c9c41d0fbcdb7adac61588161f3257e23e10e15",
    ),
    "L(2)+e2-gamma1": (
        "c25ffd1b7db311d47b3abc5e47e961f8ba5e95c482579316502d63d828e0c0e0",
        "5d07d28d65162764cb7ba49f06a7e1b2a5cfcf335eb28662f84a59753968bbd1",
    ),
    "L(3)+e2-gamma1": (
        "2ff5a236edfc6510b1a12baeb6200f9a3ac2f3b306dc3ceaf56a9c66dce280f0",
        "68750bd1ede2951639113559291553c21f511a0ab8605a20d781478bb25e1ea2",
    ),
    "L(4)+e2-gamma1": (
        "0b19e7ea17b89f97e3a397c9fe9a7f9422647f5234b0bc47361d74da52f6d2a9",
        "1d033d03f9fe97c0018208cdd4ca7190bb187b89d6285b9e1bea0dbe0a294da6",
    ),
    "L(0)+e1": (
        "83c2f779bdf36347486603bd723155d86d5f2a4c153ff26cef8926c21b1bba58",
        "a328f7378271f663c79b329b0ac670b719f5703e73c7752f29ae59d205e151bb",
    ),
    "L(1)+e1": (
        "df3100dd2f4198a6b7178f0ac59837caf0ffb35aaa9c84c6a920b0c07d33bc58",
        "6c6b5f5dd8e72a858cf97396ae806844f40bc46b2426671cc4204742406cae2f",
    ),
    "L(2)+e1": (
        "7b44a53b02f83c5f323d3270a282f5289e2aa55c14a0b5b5a049a5b75266dd84",
        "d81bbf71cd8bfbb6de1a298bb62c0297b8f3ea23d3407db2ae6bb3cc1d91d869",
    ),
    "L(3)+e1": (
        "284a6b1c06dfa19cb008944ac944723bbeb6cea567bdf482661dfe7245bb18f6",
        "ab7dddb5002c748de17885dea7310c0f82482d3a33ea6dd4d426704dcfd9ea82",
    ),
    "2*L(0)+2*e1-deltaY": (
        "06adf22250125441e8591dc58f3b98249c72ab2ce5da01c1700eaf4f4c1e3441",
        "2a832440ed28cff15e5c3576c2a505d3705ee796cb6d0a60646b25673e22efc5",
    ),
    "2*L(1)+2*e1-deltaY": (
        "1e8199e7714bf391fd28649caa73d6baddf79123f1274f470ae76a71ee955f23",
        "9391e977de82cf64aef6cf234eea0003fd96cb13f7af8eb570d26c016677c763",
    ),
    "2*L(2)+2*e1-deltaY": (
        "99248241bd94965c475b4468dfabdb14cb8542426b03488c2b80620ccb9de9a1",
        "5e61a6d8ae06b39e8cef33f172226ea12305d97c50fbbf70c0c0077b047d25c8",
    ),
    "2*L(3)+2*e1-deltaY": (
        "3089a212d4d64cc792002c792ec97bed3946cbdb84582c11df95f39dda14f055",
        "eb195f91f1d54529a93f3bf184cc18045c77e105b57ef32d62b9ba58827f64cb",
    ),
    "L(0)+e1-gamma1": (
        "41af95128d9d144659fe1a5d2234a555dcb79ae292a07c8b9d3875d8482576d1",
        "24d206860121936adf9554ecf115bc0f1d139f6a3ef2afb20d0b697b6ee947b4",
    ),
    "L(1)+e1-gamma1": (
        "559313f4591d2c4211977f6c17ca6dac8519c60502a16f84477bf6dabae1cbc2",
        "7b4c0115268e7def525ba95769a845e1fe27599f19ce35131d93d2445df6e0fc",
    ),
    "L(2)+e1-gamma1": (
        "522bf0fc1cab051dce6fdac262c449c2da2f550cbb365ec79cf5e5ca8e547f43",
        "84e4d3b5f046b604803c4d2f59ef065b813386d681ffcbb842e60064d2cfe0e9",
    ),
    "L(3)+e1-gamma1": (
        "3d0e1631c92442d3d5b34f13a7ed8b84e83fa547999b5ca5262f01a68db5c437",
        "235a96279e5dc1dd759eafb815472d08b5693f45c4db5dd71784ac212f6a218f",
    ),
    "L(1)+e2": (
        "11a00215701ee3881c114367260c38e2c92fb17490988ddfa07a79b03b84a3aa",
        "e3163490763b663626cee0dd6a8acc6dcf9e3015492c193377267fde79017d9f",
    ),
    "L(2)+e2": (
        "72f38e17cf2ab12e9be1e7458da0a7b697b278c0ca5eda1e0830c514fd0378e6",
        "ffac50090a0cd1cdc60a1f927c5ee046ebd7b1bfe31ff3ea4ca622349e8c45cb",
    ),
    "L(3)+e2": (
        "b723940cba9e6afb85e776edfd9b596aaa913c469832fabc6b1abf224da84b07",
        "398c16cc18e0755daae5b8553073439799c48a254662cdcac723233c191e90e5",
    ),
    "L(4)+e2": (
        "d109309a811480c1398d467575e907a11c84fdb6890b064e5a16b173a46ec38a",
        "15bca11142c62f1684be33f7e9747a2ebde347380d9a9179953af818b95b0a4f",
    ),
    "SigmaY": (
        "78929b2cd48a602b31c9366a1fe454b71922a5502bf57c29a11e7bf0b6ffb95b",
        "0e1a58a8c2bba51cfe84a4226381cf39bb818bd6fc87db1a09643ccb7dfa56fd",
    ),
}


def test_pinned_exprs_cover_every_representative():
    reps = [case_representative(case, i)[1] for case in ORBIT_CASES[:-1] for i in range(4)]
    assert list(JSON_SHA256) == reps + ["SigmaY"]


@pytest.mark.parametrize("expr", list(JSON_SHA256))
def test_profile_and_classify_json_pinned(capsys, expr):
    digests = []
    for verb in ("profile", "classify"):
        code, out, _ = run(capsys, verb, expr, "--json")
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == JSON_SHA256[expr]


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
