"""The benchmark's workloads: seeded inputs, timed passes, and answer checks.

Each workload is driven through nikulat's public API.  ``prepare`` makes the
inputs (untimed), ``run_pass`` does the timed work once and returns the raw
answers with ``perf_counter`` timestamps, and ``check`` verifies every answer
and returns exact counts.  Each failed check is counted, so a wrong answer
is never timed as a fast one.

A pass returns ``intervals`` (the timed phase, a list of (start, end)),
``ops`` (one interval per operation) and optionally ``first`` (until the
first result) and ``ops_phase`` (the operations' own phase).

Functions of nikulat are looked up at the start of every pass, so a traced
pass calls the wrappers that :mod:`tracing` installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from math import gcd
from time import perf_counter

#: sha256 of report.json written by ``nikulat audit`` at the default budget
AUDIT_REPORT_SHA256 = "16ead83d859c0480b99f457e31a46149db055227f55d2a139616020a7ec05fc6"
AUDIT_ORBITS = {"orbit_L0": (3474, False), "orbit_L1e2": (76064, False)}

#: primitive isotropic vectors per enumeration window
ENUMERATED = {(("U1", "E8"), 2): 53172, (("U1", "E8"), 1): 948}

WITNESS_BUDGET = dict(coord_bound=4, max_frontier=10**6, max_depth=14)

SIZES = {
    # full: what the benchmark measures; toy: the self-test's quick check
    "witness": {
        "full": {"depth_a": 6, "count_a": 150, "depth_b": 8, "count_b": 150},
        "toy": {"depth_a": 4, "count_a": 6, "depth_b": 4, "count_b": 6},
    },
    "census": {
        "full": {"window": (("U1", "E8"), 2), "sample": 3280, "per_class": 80},
        "toy": {"window": (("U1", "E8"), 1), "sample": 40, "per_class": 40},
    },
    "audit": {"full": {}},
}


class Workload:
    name = ""

    def __init__(self, nk, seed: int, size: str, workdir: str) -> None:
        self.nk = nk
        self.seed = seed
        self.params = SIZES[self.name][size]
        self.workdir = workdir

    def prepare(self) -> None:
        pass

    def run_pass(self, tracer=None) -> dict:
        """One timed pass; with a tracer, each operation gets its own run id."""
        raise NotImplementedError

    def check(self, raw: dict) -> tuple[int, list[str], dict]:
        """(attempted, failure messages, exact counts) for one pass."""
        raise NotImplementedError

    def traced_extra(self, tracer) -> None:
        """Extra traced work after the traced passes."""


# ---------------------------------------------------------------------------


class Audit(Workload):
    """``nikulat audit`` at the default budget, in process through cli.main."""

    name = "audit"

    def prepare(self) -> None:
        self.out_dir = os.path.join(self.workdir, "audit-report")

    def run_pass(self, tracer=None) -> dict:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        main = self.nk.cli.main
        sink = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(sink):
            code = main(["audit", "--output-dir", self.out_dir])
        span = (t0, perf_counter())
        with open(os.path.join(self.out_dir, "report.json"), "rb") as fh:
            report = fh.read()
        return {"intervals": [span], "ops": [span], "first": span, "exit_code": code, "report": report}

    def check(self, raw):
        failures = []
        if raw["exit_code"] != 0:
            failures.append(f"audit exit code {raw['exit_code']}")
        digest = hashlib.sha256(raw["report"]).hexdigest()
        if digest != AUDIT_REPORT_SHA256:
            failures.append(f"report.json sha256 {digest} != pinned {AUDIT_REPORT_SHA256}")
        entries = {e["id"]: e for e in json.loads(raw["report"])}
        dichotomy = entries["two-orbit-dichotomy"]["computed"]
        counts = {
            "report_sha256": digest,
            "statuses": dict(sorted(Counter(e["status"] for e in entries.values()).items())),
        }
        for key, pinned in AUDIT_ORBITS.items():
            got = (dichotomy[f"{key}_size"], dichotomy[f"{key}_exhausted"])
            counts[key] = {"members": got[0], "exhausted": got[1]}
            if got != pinned:
                failures.append(f"{key}: (members, exhausted) {got} != pinned {pinned}")
        return 1, failures, counts

    def traced_extra(self, tracer) -> None:
        """One span per catalog claim, through run_claim.  Each call builds
        its own audit context, so claims that use the enumeration windows
        pay for them again (about 70 ms) and the spans add up to more than
        one audit pass."""
        run_claim = self.nk.run_claim
        for claim in self.nk.audit.CATALOG:
            with tracer.span(f"audit.claim.{claim.id}"):
                run_claim(claim.id)


# ---------------------------------------------------------------------------


class Witness(Workload):
    """Seeded same_orbit_witness searches from L(1)+e2 (A) and L(0) (B)."""

    name = "witness"

    def prepare(self) -> None:
        nk, p = self.nk, self.params
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "targets.py")
        src = os.path.dirname(os.path.dirname(os.path.abspath(nk.__file__)))
        args = [str(self.seed), p["depth_a"], p["count_a"], p["depth_b"], p["count_b"]]
        proc = subprocess.run(
            [sys.executable, script, src, *map(str, args)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        _, nv = nk.build_model()
        lat = nv.L(0).lattice
        starts = {"A": nv.L(1) + nv.e2, "B": nv.L(0)}
        self.targets = [
            (t["type"], starts[t["type"]], lat.vector(t["coords"]))
            for t in json.loads(proc.stdout)
        ]
        self.gens = nk.default_generators()
        self.budget = nk.OrbitBudget(**WITNESS_BUDGET)
        # an independent set of reflections, used only to replay the words
        self.replay = [nk.reflection(root).apply_coords for _, root in nk.model.default_generator_table()]

    def run_pass(self, tracer=None) -> dict:
        search = self.nk.same_orbit_witness
        gens, budget = self.gens, self.budget
        words, ops = [], []
        t_pass = perf_counter()
        for k, (_, start, target) in enumerate(self.targets):
            if tracer is not None:
                tracer.run_id = k
            t0 = perf_counter()
            try:
                word = search(start, target, gens, budget)
            except Exception as exc:  # a raising search is a failed operation
                word = exc
            ops.append((t0, perf_counter()))
            words.append(word)
        return {"intervals": [(t_pass, perf_counter())], "ops": ops, "words": words}

    def check(self, raw):
        failures = []
        lengths = Counter()
        for (kind, start, target), word in zip(self.targets, raw["words"]):
            if not isinstance(word, list):
                failures.append(f"{kind} search to {list(target.coords)} returned {word!r}")
                continue
            cur = start.coords
            for j in word:
                cur = self.replay[j](cur)
            if cur != target.coords or len(word) > WITNESS_BUDGET["max_depth"]:
                failures.append(f"{kind} word {word} does not carry the start to {list(target.coords)}")
                continue
            lengths[f"{kind}{len(word)}"] += 1
        counts = {"searches": len(self.targets), "word_lengths": dict(sorted(lengths.items()))}
        return len(self.targets), failures, counts


# ---------------------------------------------------------------------------


def _random_part(rng, n, lo, hi):
    return [rng.randint(lo, hi) for _ in range(n)]


def _constructed(rng, kind):
    """One LY coordinate vector of the given kind (see CONSTRUCTED_KINDS)."""
    while True:
        u = _random_part(rng, 6, -3, 3)
        k, m = rng.randint(-3, 3), rng.randint(-3, 3)
        if kind == "div1":  # an odd E8 coordinate: divisibility 1, rows 5, 6, 8, 9
            e8 = _random_part(rng, 8, -2, 2)
            ok = any(c % 2 for c in e8)
        elif kind == "star":  # odd U part, even E8 part, k = m mod 2: Star1
            e8 = [2 * c for c in _random_part(rng, 8, -1, 1)]
            ok = any(c % 2 for c in u) and (k - m) % 2 == 0
        elif kind in ("even_u_4", "even_u_2"):  # even U part, k and m odd: rows 2, 3, 7
            u = [2 * c for c in _random_part(rng, 6, -1, 1)]
            f = _random_part(rng, 8, -1, 1)
            e8 = [(4 if kind == "even_u_4" else 2) * c for c in f]
            ok = k % 2 == 1 and m % 2 == 1 and (kind == "even_u_4" or any(c % 2 for c in f))
        else:  # k != m mod 2 with an even E8 part: row 4 (E8 part = 0 mod 4) or Unmatched
            f = _random_part(rng, 8, -1, 1)
            e8 = [(4 if kind == "odd_gamma_4" else 2) * c for c in f]
            ok = (k - m) % 2 == 1 and (kind == "odd_gamma_4" or any(c % 2 for c in f))
        coords = u + e8 + [k, m]
        if ok and gcd(*coords) == 1:
            return coords


CONSTRUCTED_KINDS = ("div1", "div1", "div1", "star", "even_u_4", "even_u_2", "even_u_2", "odd_gamma_4", "odd_gamma_2")
ALL_VERDICTS = ("Star1", "Case2", "Case3", "Case4", "Case5", "Case6", "Case7", "Case8", "Case9", "Unmatched")


class Census(Workload):
    """Enumerate a window's primitive isotropic vectors, then classify vectors
    as ``nikulat classify`` does, each given as a format_vector expression."""

    name = "census"

    def prepare(self) -> None:
        nk, p = self.nk, self.params
        blocks, bound = p["window"]
        self.window = nk.EnumerationWindow(blocks, bound)
        self.expected_count = ENUMERATED[p["window"]]
        model, _ = nk.build_model()
        self.lat = model.lambda_Y
        self.gram = model.lambda_Y.gram
        rng = random.Random(self.seed)
        self.constructed = [_constructed(rng, kind) for kind in CONSTRUCTED_KINDS for _ in range(p["per_class"])]
        self.sample_rng = random.Random(self.seed + 1)
        self.inputs = None  # (coords, expression), fixed after the first enumeration

    def _make_inputs(self, vectors) -> None:
        picks = sorted(self.sample_rng.sample(range(len(vectors)), self.params["sample"]))
        coords = [list(vectors[i].coords) for i in picks] + self.constructed
        fmt = self.nk.format_vector
        self.inputs = [(c, fmt(self.lat.vector(c))) for c in coords]

    def run_pass(self, tracer=None) -> dict:
        nk = self.nk
        enumerate_isotropic = nk.enumerate_primitive_isotropic
        t_pass = perf_counter()
        gen = enumerate_isotropic(self.window)
        first = next(gen)
        t_first = perf_counter()
        vectors = [first]
        vectors.extend(gen)
        t_enum = perf_counter()
        # counted and hashed here, so that a garbage collection during the
        # operations does not have to walk 53k dead vectors
        enumerated = (len(vectors), hashlib.sha256(repr([v.coords for v in vectors]).encode()).hexdigest())
        if self.inputs is None:
            self._make_inputs(vectors)
        del vectors, first
        parse, classify, profile_of, fibration_of = (
            nk.parse_vector, nk.classify_orbit, nk.vector_profile, nk.classify_isotropic_type,
        )
        answers, ops = [], []
        t_ops = perf_counter()
        for k, (_, expr) in enumerate(self.inputs):
            if tracer is not None:
                tracer.run_id = k + 1
            t0 = perf_counter()
            try:
                v = parse(expr)
                verdict = classify(v)
                profile = profile_of(v)
                fibration = fibration_of(v) if profile.q == 0 else None
                answer = (v, verdict, profile, fibration)
            except Exception as exc:  # a raising classification is a failed operation
                answer = exc
            ops.append((t0, perf_counter()))
            answers.append(answer)
        ops_phase = (t_ops, perf_counter())
        return {
            "intervals": [(t_pass, t_enum), ops_phase],
            "first": (t_pass, t_first),
            "ops_phase": ops_phase,
            "ops": ops,
            "enumerated": enumerated,
            "answers": answers,
        }

    def _signature(self, coords):
        """The invariants the decision table reads, computed here from the Gram
        matrix: square, divisibility and condition (*); outside (*) also
        whether the E8 part is 0 mod 4 and the E8 part's square mod 4."""
        g = [sum(a * b for a, b in zip(row, coords)) for row in self.gram]
        q, div = sum(a * b for a, b in zip(coords, g)), gcd(*g)
        u, e8, (k, m) = coords[:6], coords[6:14], coords[14:]
        if any(c % 2 for c in u) and all(c % 2 == 0 for c in e8) and (k - m) % 2 == 0:
            return q, div, "star"
        q_e8 = sum(a * self.gram[6 + i][6 + j] * b for i, a in enumerate(e8) for j, b in enumerate(e8))
        return q, div, all(c % 4 == 0 for c in e8), q_e8 % 4

    def check(self, raw):
        failures = []
        count, digest = raw["enumerated"]
        verdicts, types = Counter(), Counter()
        n_sample = self.params["sample"]
        for idx, ((coords, expr), answer) in enumerate(zip(self.inputs, raw["answers"])):
            if isinstance(answer, Exception):
                failures.append(f"{expr}: raised {answer!r}")
                continue
            v, verdict, profile, fibration = answer
            signature = self._signature(coords)
            q, div = signature[:2]
            unmatched_signature = div == 2 and q % 4 == 2 and not all(c % 4 == 0 for c in coords[6:14])
            problems = []
            if list(v.coords) != coords:
                problems.append("parse does not round-trip")
            if (profile.q, profile.div) != (q, div):
                problems.append(f"profile (q, div) differs from the input's ({q}, {div})")
            if self._signature(list(verdict.representative.coords)) != signature:
                problems.append(f"representative {verdict.representative_expr} has other invariants than the input")
            if (verdict.case == "Unmatched") != unmatched_signature:
                problems.append(f"verdict {verdict.case} against the Unmatched signature")
            if idx < n_sample and q != 0:
                problems.append("enumerated vector is not isotropic")
            if q == 0:
                expected_type = {1: "A", 2: "B"}.get(div)
                if fibration is None or fibration.type_label != expected_type:
                    problems.append(f"type {getattr(fibration, 'type_label', None)} for divisibility {div}")
                else:
                    types[fibration.type_label] += 1
            if problems:
                failures.append(f"{expr}: " + "; ".join(problems))
            verdicts[verdict.case] += 1
        if count != self.expected_count:
            failures.append(f"enumerated {count} vectors, pinned {self.expected_count}")
        missing = [c for c in ALL_VERDICTS if c not in verdicts]
        if missing:
            failures.append(f"decision-table rows never fired: {missing}")
        counts = {
            "enumerated": count,
            "enumerated_sha256": digest,
            "classified": len(self.inputs),
            "verdicts": dict(sorted(verdicts.items())),
            "fibration_types": dict(sorted(types.items())),
        }
        return len(self.inputs) + 1, failures, counts


WORKLOADS = {w.name: w for w in (Audit, Witness, Census)}
