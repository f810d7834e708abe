"""Self-test of the benchmark at toy size.

Run from the root of a checkout:  python3 perfbench/selftest.py

Runs the witness and census workloads with ``--size toy`` on seed 11, traced
and untraced, and checks the result schema against BENCHMARK.json, that every
correctness gate passed, and that the exact counts of the traced and the
untraced run agree.  Finally it checks that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and perfbench/.  Exits 1 on the
first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 11
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selftest FAILED: {message}")
    sys.exit(1)


def bench(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )


def check_result(workload: str, trace: int, spec: list[dict]) -> dict:
    proc = bench(workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if not (result["correct"] is True and result["failed"] == 0):
        fail(f"{workload} trace {trace}: correctness gate failed: {proc.stderr[-2000:]}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail(f"{workload}: attempted = {result['attempted']!r}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))} differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        value = m["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload}: {name} = {value!r}")
        if trace == 0 and value <= 0:
            fail(f"{workload}: end-to-end metric {name} = {value}")
    with open(os.path.join(".bench_out", f"{workload}-seed{SEED}-trace{trace}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != run.per_layer_names():
        fail("per_layer in BENCHMARK.json differs from run.per_layer_names()")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.E2E):
        fail("end_to_end in BENCHMARK.json differs from run.E2E")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.workloads.WORKLOADS):
        fail("workloads in BENCHMARK.json differ from the benchmark's")
    nk = run.import_nikulat(os.path.abspath("src"))
    if tuple(c.id for c in nk.audit.CATALOG) != run.CLAIM_IDS:
        fail("run.CLAIM_IDS differs from the audit catalog")

    for workload in ("witness", "census"):
        untraced = check_result(workload, 0, spec["end_to_end"])
        traced = check_result(workload, 1, spec["per_layer"])
        if untraced["counts"] != traced["counts"]:
            fail(f"{workload}: exact counts differ between runs: {untraced['counts']} vs {traced['counts']}")
        print(f"selftest {workload}: ok, counts {json.dumps(untraced['counts'], sort_keys=True)}")

    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("census", 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the program's sources")
    print("selftest: refuses to run without src/: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
