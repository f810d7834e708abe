"""The ledger of pinned answers (``answers.py``): every entry of 1 s or less in process runs
here through ``cli.main``; CI checks the console script's outputs against the same entries."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

from answers import ANSWERS, LEDGER, ORBIT_SIZES, main, output

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
FAST = [answer for answer in LEDGER if not answer.ci_only]


@pytest.mark.parametrize("answer", FAST, ids=[answer.name for answer in FAST])
def test_answer_pinned(answer):
    answer.check()


def one_digit_changed(digest: str, k: int) -> str:
    return digest[:k] + format((int(digest[k], 16) + 1) % 16, "x") + digest[k + 1:]


def test_a_changed_hex_digit_fails_the_comparison():
    """A copy of an entry with any one hex digit changed fails the Tier-1 comparison."""
    answer = ANSWERS["embed"]
    data = output(answer)
    assert not answer.mismatch(data)
    for k in range(64):
        assert dataclasses.replace(answer, sha256=one_digit_changed(answer.sha256, k)).mismatch(data)
    wrong = dataclasses.replace(answer, sha256=one_digit_changed(answer.sha256, 0))
    with pytest.raises(AssertionError, match=f"embed: sha256 {answer.sha256}, pinned {wrong.sha256}"):
        wrong.check()


def test_check_exits_1_on_a_mismatch(tmp_path, monkeypatch, capsys):
    """CI's entry point: 0 on the pinned output, 1 on other bytes or on a copy of the entry
    with one digit changed."""
    answer = ANSWERS["embed"]
    pinned, other = tmp_path / "pinned.json", tmp_path / "other.json"
    pinned.write_bytes(output(answer))
    other.write_bytes(output(answer) + b"\n")
    assert main(["check", "embed", str(pinned)]) == 0
    assert main(["check", "embed", str(other)]) == 1
    monkeypatch.setitem(ANSWERS, "embed", dataclasses.replace(answer, sha256=one_digit_changed(answer.sha256, 63)))
    assert main(["check", "embed", str(pinned)]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("embed: sha256 ")


def test_each_digest_is_written_once():
    """Names and digests are unique, and no other test file or the CI workflow writes a digest."""
    digests = [answer.sha256 for answer in LEDGER]
    assert len(ANSWERS) == len(LEDGER)
    assert len(set(digests)) == len(digests)
    assert all(re.fullmatch("[0-9a-f]{64}", digest) for digest in digests)
    for path in [*(ROOT / "tests").glob("*.py"), WORKFLOW]:
        if path.name != "answers.py":
            text = path.read_text(encoding="utf-8")
            assert not [digest for digest in digests if digest in text], path.name
    assert not re.search("[0-9a-f]{64}", WORKFLOW.read_text(encoding="utf-8"))


def test_ci_checks_named_entries_and_every_ci_only_one():
    checked = re.findall(r'"\$ANSWERS" check "([^"]+)"', WORKFLOW.read_text(encoding="utf-8"))
    assert set(checked) <= set(ANSWERS)
    assert {answer.name for answer in LEDGER if answer.ci_only} <= set(checked)


def test_benchmark_copy_matches_the_ledger():
    """``perfbench/workloads.py`` keeps its own copy of the audit digest and the orbit sizes;
    it is read here, not imported or edited."""
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    constants = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", "") in ("AUDIT_REPORT_SHA256", "AUDIT_ORBITS")
    }
    assert constants["AUDIT_REPORT_SHA256"] == ANSWERS["audit"].sha256
    assert constants["AUDIT_ORBITS"] == {"orbit_L0": ORBIT_SIZES["L(0)"], "orbit_L1e2": ORBIT_SIZES["L(1)+e2"]}
