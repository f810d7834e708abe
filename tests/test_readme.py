"""The README's examples run as documented.

The "Library quick tour" block is executed as it stands.  Every ``nikulat``
line of "Command line" runs through ``cli.main`` in a temporary directory and
must exit 0; the ``# ...`` lines under a command are its documented output.
That includes the witness search (about 4 s), whose printed word is checked.
The decision table under "The classifiers" is ``model._TABLE``, row by row.
Under "The lattices", each lattice's rank and block offsets are ``build_model()``'s,
and each named vector of ``LY`` is the model's, with the documented square.
"""

import re
import shlex
from pathlib import Path

import pytest

from nikulat import core, divisibility, is_primitive, model, parse_vector, square
from nikulat.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end >= 0 else None]


def commands() -> list[tuple[list[str], list[str]]]:
    """(argv after ``nikulat``, documented output lines) per command line."""
    found = []
    for line in section("Command line").splitlines():
        if line.startswith("    nikulat "):
            found.append((shlex.split(line)[1:], []))
        elif line.startswith("    # ") and found:
            found[-1][1].append(line[len("    # "):])
    return found


COMMANDS = commands()


def test_command_list_is_complete():
    assert len(COMMANDS) == 10


@pytest.mark.parametrize("argv, documented", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_command_line_example(tmp_path, monkeypatch, capsys, argv, documented):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if documented:
        assert out.splitlines() == documented


def test_classify_example_output_is_documented():
    documented = dict((" ".join(argv), out) for argv, out in COMMANDS)
    assert documented["classify L(1)+e2"] == [
        "Case9 i=0 rep=L(1)+e2 [q=0 div=1]",
        "isotropic: type A, polarisation (1, 2), (v,SigmaY) mod 4 = 0",
    ]


def test_witness_example_output_is_documented():
    (word,) = [out for argv, out in COMMANDS if "--witness" in " ".join(argv)]
    assert word == [
        "word: w31 eps3 eps7 eps6 w31 u1+gamma1 eps7 eps2 eps3 eps4 u1+eps1 w11 u2+eps1 eps3 w31 eps2"
    ]


def test_library_quick_tour_runs():
    (block,) = re.findall(r"```python\n(.*?)```", section("Library quick tour"), re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["classify_orbit"](namespace["v"]).case == "Case9"
    assert namespace["orbit"].exhausted is False


def readme_table() -> dict[str, tuple]:
    """case -> (d, m, t, residues, representative) as "The classifiers" prints each row of the
    decision table: square "m i − t", residue "condition (*)", "E8 part [not] in 4·E8" or
    "E8 square ≡ r, ... mod 4", representative in i and i+1 (written j in ``_TABLE``).
    Unmatched maps to its four cells as printed."""
    lines = [line for line in section("The classifiers").splitlines() if line.startswith("| ")]
    header, *rows = [[cell.strip() for cell in line.strip("|").split("|")] for line in lines]
    assert header == ["case", "divisibility", "square", "residue", "representative"]
    table = {}
    for case, d, square, residue, representative in rows:
        if case == "Unmatched":
            table[case] = (d, square, residue, representative)
            continue
        m, t = re.fullmatch(r"(\d+)i(?: − (\d+))?", square).groups()
        if residue == "condition (*)":
            residues = ()
        elif residue.startswith("E8 part "):
            residues = ({"E8 part in 4·E8": True, "E8 part not in 4·E8": False}[residue],)
        else:
            residues = tuple(map(int, re.fullmatch(r"E8 square ≡ ([\d, ]+) mod 4", residue)[1].split(", ")))
        expr = representative.strip("`").replace("(i+1)", "({j})").replace("(i)", "({i})")
        table[case] = (int(d), int(m), int(t or 0), residues, expr)
    return table


def test_decision_table_is_documented_row_by_row():
    documented = readme_table()
    assert list(documented) == list(model.ORBIT_CASES)
    assert documented.pop("Unmatched") == ("", "", "no row", "the input")
    for case, row in model._TABLE.items():
        assert documented[case] == row, case


def test_lattice_table_matches_the_model():
    """Each row of "The lattices": the label's rank and its blocks, name and offset, in order."""
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section("The lattices").splitlines() if line.startswith("| `")]
    documented = {label.strip("`"): (int(rank), [tuple(block.split()) for block in re.split("[,;] ", blocks)])
                  for label, _, rank, blocks in rows}
    built = core.lattice_registry()
    assert set(documented) == set(built)
    for label, lat in built.items():
        assert documented[label] == (lat.rank, [(name, str(offset)) for name, offset, _ in lat.blocks]), label


def named_vectors() -> tuple[str, dict[str, tuple[str, str, str]]]:
    """The prose of "Named vectors of `LY`" and, per indented line, name -> (right-hand side,
    square, the rest of the line)."""
    text = section("The lattices").partition("**Named vectors of `LY`**")[2]
    prose, _, block = text.partition("\n\n")
    lines = re.findall(r"^    (\S+)\s+= (.+?)\s+(?:primitive, )?square (-?\d+i?),?(.*)$", block, re.M)
    return prose, {name: (rhs, sq, rest) for name, rhs, sq, rest in lines}


def test_named_vectors_parse_to_the_model_with_their_squares():
    _, nv = core.build_model()
    prose, documented = named_vectors()
    rhs, sq, rest = documented.pop("L(i)")
    assert (sq, rest.strip()) == ("4i", "divisibility 2")
    for i in range(4):
        li = parse_vector(rhs.replace("i*", f"{i}*"))
        assert li == parse_vector(f"L({i})") == nv.L(i)
        assert square(li) == 4 * i and divisibility(li) == 2 and is_primitive(li)
    names = nv.by_name()
    for name, (rhs, sq, _) in documented.items():
        assert parse_vector(rhs) == parse_vector(name) == names[name], name
        assert square(names[name]) == int(sq), name
    ranges = re.findall(r"`([a-z]+)1\.\.\1(\d+)`", prose)
    listed = {f"{stem}{k}" for stem, last in ranges for k in range(1, int(last) + 1)}
    listed |= set(re.findall(r"`(gamma\d)`", prose)) | set(documented)
    assert listed == set(names)
