"""The ledger of pinned answers: each output of ``nikulat`` that is checked by digest, pinned once.

An entry names the ``nikulat`` command line, the output that is hashed (its stdout, or a
file that the command writes), the input files it reads, the sha256 of the output and the
commit that computed it.  In an argument, ``{dir}`` stands for a fresh directory that
holds the input files, written from :data:`INPUTS`, and the outputs.

- Tier-1 (``tests/test_answers.py``) runs every entry that takes 1 s or less in process
  through ``cli.main`` and compares its digest.  The entries marked ``ci_only`` run in CI
  only.
- CI writes the input files and checks what the console script wrote with::

      python tests/answers.py check NAME FILE   # exit 0 if FILE's sha256 is pinned, 1 if not
      python tests/answers.py input NAME        # the input file NAME on stdout

To update a pin, recompute it at the parent commit, change the digest and the commit here,
and list the old and the new digest with the reason in ``CHANGES.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from nikulat.cli import main as nikulat
from nikulat.model import eta_as_written_matrix


def _broken_eta() -> str:
    """The as-written eta matrix with its top-left entry set to 2: not an isometric embedding."""
    rows = [list(row) for row in eta_as_written_matrix()]
    rows[0][0] = 2
    return json.dumps({"matrix": rows}) + "\n"


#: input file name -> its text
INPUTS = {"eta-broken.json": _broken_eta}


@dataclass(frozen=True)
class Answer:
    name: str
    argv: tuple[str, ...]
    sha256: str
    commit: str  # the commit that computed sha256
    output: str = ""  # a file the command writes under {dir}; "" hashes stdout
    inputs: tuple[str, ...] = ()  # files of INPUTS written to {dir} first
    ci_only: bool = False  # over 1 s in process

    def mismatch(self, data: bytes) -> str:
        """The empty string if ``data`` hashes to the pinned digest, else what differs."""
        got = hashlib.sha256(data).hexdigest()
        return "" if got == self.sha256 else f"{self.name}: sha256 {got}, pinned {self.sha256} at {self.commit}"

    def check(self) -> None:
        """The Tier-1 comparison: fail unless the in-process output hashes to the pinned digest."""
        mismatch = self.mismatch(output(self))
        assert not mismatch, mismatch


@functools.cache
def output(answer: Answer) -> bytes:
    """The bytes the entry hashes, from one in-process run per session in a fresh directory:
    an entry that two tests check runs once."""
    with tempfile.TemporaryDirectory() as name:
        directory = Path(name)
        for input_name in answer.inputs:
            (directory / input_name).write_text(INPUTS[input_name]())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = nikulat([arg.replace("{dir}", name) for arg in answer.argv])
        assert code == 0, f"{answer.name}: nikulat exited {code}"
        return (directory / answer.output).read_bytes() if answer.output else out.getvalue().encode()


def _profile(expr: str, sha256: str, commit: str) -> Answer:
    return Answer(f"profile:{expr}", ("profile", "--json", "--", expr), sha256, commit)


def _classify(expr: str, sha256: str, commit: str) -> Answer:
    return Answer(f"classify:{expr}", ("classify", "--json", "--", expr), sha256, commit)


def _classify_text(expr: str, sha256: str, commit: str) -> Answer:
    return Answer(f"classify-text:{expr}", ("classify", "--", expr), sha256, commit)


def _enumerate(key: str, blocks: str, bound: int, sha256: str, commit: str, **kw) -> Answer:
    return Answer(f"enumerate:{key}", ("enumerate", "--blocks", blocks, "--bound", str(bound)), sha256, commit, **kw)


def _witness(seed: str, other: str, sha256: str, commit: str, *flags: str) -> Answer:
    return Answer(f"witness:{seed} {other}", ("orbit", seed, "--witness", other, *flags, "--json"), sha256, commit)


#: seed -> (members, exhausted) of the reflection orbit at the default budget
ORBIT_SIZES = {"L(0)": (3474, False), "L(1)+e2": (76064, False)}

LEDGER = (
    # the claim audit: report.json at the default budget, a non-isometric eta and a reduced budget
    Answer("audit", ("audit", "--output-dir", "{dir}"),
           "16ead83d859c0480b99f457e31a46149db055227f55d2a139616020a7ec05fc6", "83ea8c1", output="report.json"),
    Answer("audit:broken-eta", ("audit", "--eta-matrix", "{dir}/eta-broken.json", "--output-dir", "{dir}"),
           "29b91ea8e807de9fda36511642f3c9d4b5ef5a8d5a04c9cb918a7717be9ccc25", "a2d8c80", output="report.json",
           inputs=("eta-broken.json",)),
    Answer("audit:reduced", ("audit", "--budget-coord-bound", "1", "--budget-max-frontier", "2000",
                             "--budget-max-depth", "2", "--output-dir", "{dir}"),
           "668c942efa80d44de705157b6803944a090c9e52f613e8716776f1165f7bec34", "fb44a53", output="report.json"),
    # eta as written and the non-isometric eta
    Answer("embed", ("embed", "--json"),
           "88ce7fcaf7006281a605c95841eb66a13b0df01f4cda82d1aeaf315af4ceae25", "9e1209a"),
    Answer("embed:broken-eta", ("embed", "--matrix-file", "{dir}/eta-broken.json", "--json"),
           "a12a4732427a066e903992e990445948f12ef85cf30e4c1b7a30bb6c2ec90404", "9e1209a",
           inputs=("eta-broken.json",)),
    # saturations: the basis is the first columns of the Smith form's left_inv
    Answer("saturate:deltaY SigmaY", ("saturate", "--json", "deltaY", "SigmaY"),
           "ca32a0e013b8bd0b98138501b1c142e5bdac46c40b3fe01920700abdc3c4d0a3", "0e59e64"),
    Answer("saturate:2*L(0)+deltaY 2*SigmaY", ("saturate", "--json", "2*L(0)+deltaY", "2*SigmaY"),
           "a1c332ff6628e1bc824727b005aa0d4f0d4342d163c72c0912ebdb43b622693b", "0e59e64"),
    # reflection orbits at the default budget, written with -o (their sizes: ORBIT_SIZES)
    Answer("orbit:L(0)", ("orbit", "L(0)", "-o", "{dir}/orbit.json"),
           "455d6220d2e0414470c2dd7a1a5751a4193e20490ccd9a9b7dd54aaf6e020249", "fe2fe03", output="orbit.json"),
    Answer("orbit:L(1)+e2", ("orbit", "L(1)+e2", "-o", "{dir}/orbit.json"),
           "00927750e9757a28b8da0c6ee998697304f84fc20a964f68cabaf66daabf1238", "dc02942", output="orbit.json",
           ci_only=True),
    # witness searches as JSON: distinct invariants and no word within the budget (a null word and a
    # note each), and a word to an endpoint outside the box, which the guarded kernel finds
    _witness("L(0)", "L(1)+e2", "0216020dd49a7e42726fff798a3336efec40c5478222106af45bfa95bf068dd3", "f31241b"),
    _witness("L(0)", "L(0)+u3", "84924ab8c398f3d4e8e0c2f4f0f982d9fe7f5aafb66ac49293f5ccd2f240ebed", "f31241b"),
    _witness("L(1)+e2", "u1+5*u2+3*eps1-eps3",
             "6dcf0ba013a045382de26ffcd3fb979719e56d9bfb2e4336764de8221291e04f", "f31241b", "--coord-bound", "4"),
    # enumeration windows: census-2 is the window the census classifies, census-3 streams 809,624
    # vectors through shells that outgrow the memo, window1 and window2
    # feed the audit, E8 and G2 are not adjacent in gap-before-G2
    _enumerate("census-1", "U1,E8", 1,
               "85521d08ef510ab7f10a775baf93554ac18f25880be8dc9f38778c3f55053b8e", "dc02942"),
    _enumerate("census-2", "U1,E8", 2,
               "4a083550f29649b0bc6b450dd5cafc44ab2b459df8ec3cd94164b1ef641f3b75", "4ecfb77"),
    _enumerate("census-3", "U1,E8", 3,
               "2aa7cf47574bddf2ef1ecd1aec8c0a51b8ed179a18c16be0d58d57b2e38c2b78", "b3a0a3a", ci_only=True),
    _enumerate("window1", "U1,E8,G1,G2", 1,
               "fe7484fe9bbff404c8a85873e88a52b22dcd4a38df9f327939eb6a1bc7279eb7", "dc02942"),
    _enumerate("window2", "U1,U2,G1,G2", 2,
               "c252eca44ceff40131fc4fbb8c26eba75940c7dc719a17c6e54ac9bfb09b7458", "dc02942"),
    _enumerate("gap-before-G2", "U1,E8,G2", 1,
               "153aad24eb4cae23763eddd742b7f7836852ebb07b856a32d587146acd8cc60a", "dc02942"),
    _enumerate("joined", "U1,E8,G1,G2", 2,
               "e88ed140e2ac527c5352cf8cee0d540f5f28edacbd848fd5b6ead24a6adf1f25", "2ce56d8",
               ci_only=True),
    # classify: a long expression, the Unmatched pocket, whose note prints the profile's repr,
    # and a row of negative i
    _classify("-u1+2*u2-3*u3+eps1-2*eps4+eps8+gamma1-gamma2",
              "4102b3c139770fafd4814c9494b54a37123e7953b4ff23e06eb4580d2f1202f0", "5dea06e"),
    _classify("2*u1+u2+2*e1+gamma1", "df080cb7941ebdc645454aa8a3d8c17e4d664666af8bc7552c20665c6c4f2575", "75ef8ec"),
    _classify_text("2*u1+u2+2*e1+gamma1",
                   "ae960afe6596951b564d04b2720f502a92bb878e8da87a296dad129704ef13b8", "75ef8ec"),
    _classify("u1-2*u2", "001daaf3bd2bec7fc74af632e43351030301ea70d570f12adf627d5b486591a2", "75ef8ec"),
    _classify_text("u1-2*u2",
                   "95d1200cb8d2543c1ecf31efeb601325bcd3c7db7a01acf9701fdd9f6387b93e", "75ef8ec"),
    # profile and classify of every printed table representative (i = 0..3) and SigmaY
    _profile("L(0)", "0d1a1e2d373b81c257360af2962a685d3e989eea1e8d28d611f9816256591895", "a9f31ea"),
    _classify("L(0)", "cc51c3c1ff30692c082fcfee11260f7f99ae61a76755390ecb7c1b811174d4fa", "a9f31ea"),
    _profile("L(1)", "bdc19253b342382575ce383f5bbfc733591acf97cb384fec49b1f5fd3ea6fda7", "a9f31ea"),
    _classify("L(1)", "189d29fbcd972295d4ead6cdeb3bce43a702a9f8609f08d391c4fd85faf14314", "a9f31ea"),
    _profile("L(2)", "b472c02a1b3bef3b9b7b77bb9e93600012e0860398b856c0fff6d23499d2170b", "a9f31ea"),
    _classify("L(2)", "652f5b8d009571e733100cca634db31d9876c196451a5e320cb35baad53a94cd", "a9f31ea"),
    _profile("L(3)", "d271a9b30184c6f3b17a92b12fdefc0ed6ee9b0e0ec55b1c16d08d348cf9e715", "a9f31ea"),
    _classify("L(3)", "4a83018e6fefe73c65ccbde23494e713c321c0bf1a23fdce0b850ad70676d1bd", "a9f31ea"),
    _profile("2*L(0)-deltaY", "fd13e6be43b843b19c721eea114a5422cc1b8f2ca2d57d5108dd76b064107128", "a9f31ea"),
    _classify("2*L(0)-deltaY", "517f0873215678b6aa277d3db92c065312e6df03815759aee4524a250f47235a", "a9f31ea"),
    _profile("2*L(1)-deltaY", "ccde6f17361087c02f01ea8de36332f8d75ad539de28951d3977d3bf6a68b874", "a9f31ea"),
    _classify("2*L(1)-deltaY", "4b0cb8a8821210c1fdb5bf796412d9648b30a32d93e1bd2bbde460d14fd35128", "a9f31ea"),
    _profile("2*L(2)-deltaY", "06fa8c0c3316ddd1a1a7a0a00540f02de8effec0ab1e35bd3445a13a7a8708ab", "a9f31ea"),
    _classify("2*L(2)-deltaY", "5ac8afa67d60049344969fa8abdd78af54ec3d37f40a7f8817dbf2f67a46c85a", "a9f31ea"),
    _profile("2*L(3)-deltaY", "41f4fe697099d0981814df3c54f037af532f61e0ff129eee68da38821d5929bd", "a9f31ea"),
    _classify("2*L(3)-deltaY", "2b9e77ba468a7aaf09a63e3efdfac8defb04526ab3c831c3564cb2bc63c8de92", "a9f31ea"),
    _profile("2*L(1)+2*e2-deltaY", "1caf06c3dad878bfceff3c6ef8df9466fddbd4442efa6cc83b031a5f033e6322", "a9f31ea"),
    _classify("2*L(1)+2*e2-deltaY", "c5f60f494efd40b83c3d8c65e6f528159a74a404042ab67d95860a3d9b038f9d", "a9f31ea"),
    _profile("2*L(2)+2*e2-deltaY", "ebda95a83d585e347bef4951382de169ff275da6a0963b8c235dd21d9827d88d", "a9f31ea"),
    _classify("2*L(2)+2*e2-deltaY", "f166223c9df94e0f0e0c1ae0ea5bf96a51d149b95bd12dc6598b4b7b2c343afc", "a9f31ea"),
    _profile("2*L(3)+2*e2-deltaY", "82f5e7719323b79839d71dfcd4514cce093645d656f7b19b279c925a028912ef", "a9f31ea"),
    _classify("2*L(3)+2*e2-deltaY", "2bb570787511865768deb99605ef44ae84b32d388a423188f698277e06984378", "a9f31ea"),
    _profile("2*L(4)+2*e2-deltaY", "e91f973c53b95a1975301c45cdf4acbee171723ded3bf45b3342406754632937", "a9f31ea"),
    _classify("2*L(4)+2*e2-deltaY", "dae9c12dbb5d268641dedddc86265ef498b0a64eb80d5a947a1e988358473a65", "a9f31ea"),
    _profile("L(0)-gamma1", "5473b84d4ca8e052fbb29e9795209b87eb494961dbb0cad2dc94521a341a10be", "a9f31ea"),
    _classify("L(0)-gamma1", "687f3ab345b5b6d3b250608445b7cad3a85a9475df4036dac37553659094ab7f", "a9f31ea"),
    _profile("L(1)-gamma1", "aba3702fc921d17a1bf8f729909909b940bc4da007c2f73030eeb39380937cb1", "a9f31ea"),
    _classify("L(1)-gamma1", "0292bb556e05414b042a7018caa2916f636976bb310e5074f214952aa3628b31", "a9f31ea"),
    _profile("L(2)-gamma1", "8a02f06e056334de4d487615dde9797e09dbfaa799e751d1a9b11b20c8ae1069", "a9f31ea"),
    _classify("L(2)-gamma1", "d35bbefc515bbb49b8e3d868a198b061bd57003480780d73f53d23c9266010ce", "a9f31ea"),
    _profile("L(3)-gamma1", "e96cb50aa5deb155e128184bff05e603753a72c707a7001fde805ec8679074ea", "a9f31ea"),
    _classify("L(3)-gamma1", "053412001644cbf7621b086116ede2cf49e6ae928a7fb06cda210f2d55337f9c", "a9f31ea"),
    _profile("L(1)+e2-gamma1", "bb944ea282f451a6a56b5c3b62a9267359484ece1414abeb1e2e0261d6264c7d", "a9f31ea"),
    _classify("L(1)+e2-gamma1", "d061d3e469716c1ceb270a326c9c41d0fbcdb7adac61588161f3257e23e10e15", "a9f31ea"),
    _profile("L(2)+e2-gamma1", "c25ffd1b7db311d47b3abc5e47e961f8ba5e95c482579316502d63d828e0c0e0", "a9f31ea"),
    _classify("L(2)+e2-gamma1", "5d07d28d65162764cb7ba49f06a7e1b2a5cfcf335eb28662f84a59753968bbd1", "a9f31ea"),
    _profile("L(3)+e2-gamma1", "2ff5a236edfc6510b1a12baeb6200f9a3ac2f3b306dc3ceaf56a9c66dce280f0", "a9f31ea"),
    _classify("L(3)+e2-gamma1", "68750bd1ede2951639113559291553c21f511a0ab8605a20d781478bb25e1ea2", "a9f31ea"),
    _profile("L(4)+e2-gamma1", "0b19e7ea17b89f97e3a397c9fe9a7f9422647f5234b0bc47361d74da52f6d2a9", "a9f31ea"),
    _classify("L(4)+e2-gamma1", "1d033d03f9fe97c0018208cdd4ca7190bb187b89d6285b9e1bea0dbe0a294da6", "a9f31ea"),
    _profile("L(0)+e1", "83c2f779bdf36347486603bd723155d86d5f2a4c153ff26cef8926c21b1bba58", "a9f31ea"),
    _classify("L(0)+e1", "a328f7378271f663c79b329b0ac670b719f5703e73c7752f29ae59d205e151bb", "a9f31ea"),
    _profile("L(1)+e1", "df3100dd2f4198a6b7178f0ac59837caf0ffb35aaa9c84c6a920b0c07d33bc58", "a9f31ea"),
    _classify("L(1)+e1", "6c6b5f5dd8e72a858cf97396ae806844f40bc46b2426671cc4204742406cae2f", "a9f31ea"),
    _profile("L(2)+e1", "7b44a53b02f83c5f323d3270a282f5289e2aa55c14a0b5b5a049a5b75266dd84", "a9f31ea"),
    _classify("L(2)+e1", "d81bbf71cd8bfbb6de1a298bb62c0297b8f3ea23d3407db2ae6bb3cc1d91d869", "a9f31ea"),
    _profile("L(3)+e1", "284a6b1c06dfa19cb008944ac944723bbeb6cea567bdf482661dfe7245bb18f6", "a9f31ea"),
    _classify("L(3)+e1", "ab7dddb5002c748de17885dea7310c0f82482d3a33ea6dd4d426704dcfd9ea82", "a9f31ea"),
    _profile("2*L(0)+2*e1-deltaY", "06adf22250125441e8591dc58f3b98249c72ab2ce5da01c1700eaf4f4c1e3441", "a9f31ea"),
    _classify("2*L(0)+2*e1-deltaY", "2a832440ed28cff15e5c3576c2a505d3705ee796cb6d0a60646b25673e22efc5", "a9f31ea"),
    _profile("2*L(1)+2*e1-deltaY", "1e8199e7714bf391fd28649caa73d6baddf79123f1274f470ae76a71ee955f23", "a9f31ea"),
    _classify("2*L(1)+2*e1-deltaY", "9391e977de82cf64aef6cf234eea0003fd96cb13f7af8eb570d26c016677c763", "a9f31ea"),
    _profile("2*L(2)+2*e1-deltaY", "99248241bd94965c475b4468dfabdb14cb8542426b03488c2b80620ccb9de9a1", "a9f31ea"),
    _classify("2*L(2)+2*e1-deltaY", "5e61a6d8ae06b39e8cef33f172226ea12305d97c50fbbf70c0c0077b047d25c8", "a9f31ea"),
    _profile("2*L(3)+2*e1-deltaY", "3089a212d4d64cc792002c792ec97bed3946cbdb84582c11df95f39dda14f055", "a9f31ea"),
    _classify("2*L(3)+2*e1-deltaY", "eb195f91f1d54529a93f3bf184cc18045c77e105b57ef32d62b9ba58827f64cb", "a9f31ea"),
    _profile("L(0)+e1-gamma1", "41af95128d9d144659fe1a5d2234a555dcb79ae292a07c8b9d3875d8482576d1", "a9f31ea"),
    _classify("L(0)+e1-gamma1", "24d206860121936adf9554ecf115bc0f1d139f6a3ef2afb20d0b697b6ee947b4", "a9f31ea"),
    _profile("L(1)+e1-gamma1", "559313f4591d2c4211977f6c17ca6dac8519c60502a16f84477bf6dabae1cbc2", "a9f31ea"),
    _classify("L(1)+e1-gamma1", "7b4c0115268e7def525ba95769a845e1fe27599f19ce35131d93d2445df6e0fc", "a9f31ea"),
    _profile("L(2)+e1-gamma1", "522bf0fc1cab051dce6fdac262c449c2da2f550cbb365ec79cf5e5ca8e547f43", "a9f31ea"),
    _classify("L(2)+e1-gamma1", "84e4d3b5f046b604803c4d2f59ef065b813386d681ffcbb842e60064d2cfe0e9", "a9f31ea"),
    _profile("L(3)+e1-gamma1", "3d0e1631c92442d3d5b34f13a7ed8b84e83fa547999b5ca5262f01a68db5c437", "a9f31ea"),
    _classify("L(3)+e1-gamma1", "235a96279e5dc1dd759eafb815472d08b5693f45c4db5dd71784ac212f6a218f", "a9f31ea"),
    _profile("L(1)+e2", "11a00215701ee3881c114367260c38e2c92fb17490988ddfa07a79b03b84a3aa", "a9f31ea"),
    _classify("L(1)+e2", "e3163490763b663626cee0dd6a8acc6dcf9e3015492c193377267fde79017d9f", "a9f31ea"),
    _profile("L(2)+e2", "72f38e17cf2ab12e9be1e7458da0a7b697b278c0ca5eda1e0830c514fd0378e6", "a9f31ea"),
    _classify("L(2)+e2", "ffac50090a0cd1cdc60a1f927c5ee046ebd7b1bfe31ff3ea4ca622349e8c45cb", "a9f31ea"),
    _profile("L(3)+e2", "b723940cba9e6afb85e776edfd9b596aaa913c469832fabc6b1abf224da84b07", "a9f31ea"),
    _classify("L(3)+e2", "398c16cc18e0755daae5b8553073439799c48a254662cdcac723233c191e90e5", "a9f31ea"),
    _profile("L(4)+e2", "d109309a811480c1398d467575e907a11c84fdb6890b064e5a16b173a46ec38a", "a9f31ea"),
    _classify("L(4)+e2", "15bca11142c62f1684be33f7e9747a2ebde347380d9a9179953af818b95b0a4f", "a9f31ea"),
    _profile("SigmaY", "78929b2cd48a602b31c9366a1fe454b71922a5502bf57c29a11e7bf0b6ffb95b", "a9f31ea"),
    _classify("SigmaY", "0e1a58a8c2bba51cfe84a4226381cf39bb818bd6fc87db1a09643ccb7dfa56fd", "a9f31ea"),
)

#: name -> entry
ANSWERS = {answer.name: answer for answer in LEDGER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="answers", description="Check an output of nikulat against its pin.")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="exit 0 if FILE's sha256 is the one pinned for NAME, else 1")
    check.add_argument("name", metavar="NAME")
    check.add_argument("file", type=Path)
    make = sub.add_parser("input", help="print the input file NAME as the ledger's entries read it")
    make.add_argument("name", choices=INPUTS, metavar="NAME")
    args = parser.parse_args(argv)
    if args.command == "input":
        print(INPUTS[args.name](), end="")
        return 0
    if args.name not in ANSWERS:
        parser.error(f"no entry named {args.name!r}")
    mismatch = ANSWERS[args.name].mismatch(args.file.read_bytes())
    print(mismatch or f"{args.name}: sha256 matches")
    return 1 if mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
