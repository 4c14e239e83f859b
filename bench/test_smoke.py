"""Smoke test of the benchmark harness on one tiny query per workload.

Checks the result schema against BENCHMARK.json and that the answer checks
pass right answers and catch wrong ones. Asserts nothing about timings.

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import harness  # noqa: E402
import workloads  # noqa: E402
from checks import check_answer, sha256  # noqa: E402
from workloads import Query  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CERT_M2 = ("construct", "--instructions=(+)", "--order", "2")
HIT = ("scan", "paperfolding", "(+)", "--length", "64", "--order", "4", "--kind", "abelian-antipower")
TINY = {
    "synth": Query(CERT_M2, workloads.PINS[" ".join(CERT_M2)]),
    "scan": Query(HIT),
    "tables": Query(
        ("complexity", "thue-morse", "--max-n", "4", "--length", "64"),
        sha256(b"n,value\n1,2\n2,3\n3,2\n4,3\n"),
    ),
}
# what the tiny query adds to its layer's counters
TINY_COUNTS = {
    "synth": ("calculus.additivity_steps", 1),
    "scan": ("scan.widths", 16),
    "tables": ("abelian.windows", 64 + 63 + 62 + 61),
}


def _check_schema(result: dict, section: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.FIXED)


@pytest.mark.parametrize("workload", list(TINY))
def test_measure(workload):
    result, details = harness.measure([TINY[workload]], workloads.probe(), 0, Random(0))
    _check_schema(result, "end_to_end")
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert len(details) == 2  # the set-up probes, then one pass


@pytest.mark.parametrize("workload", list(TINY))
def test_trace(workload, tmp_path):
    result, _ = harness.trace([TINY[workload]], 0, Random(0), tmp_path / "spans.jsonl")
    _check_schema(result, "per_layer")
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    counter, value = TINY_COUNTS[workload]
    assert result["metrics"][counter]["value"] == value
    assert result["metrics"]["cli.out_bytes"]["value"] > 0


def test_wrong_pin_fails_the_query():
    query = Query(TINY["tables"].argv, "0" * 64)
    result, _ = harness.measure([query], workloads.probe(), 0, Random(0))
    assert not result["correct"] and result["failed"] == 1


def test_checks_catch_wrong_answers():
    out = subprocess.run(
        [sys.executable, "-m", "antipow.cli", *CERT_M2],
        capture_output=True,
        env=harness.child_env(),
        check=True,
    ).stdout
    assert check_answer(CERT_M2, None, out) is None
    cert = json.loads(out)
    cert["cell_one_counts"] = ["16", "17"]
    assert check_answer(CERT_M2, None, json.dumps(cert).encode()) is not None
    hit = {"start": 1, "d": 10, "m": 4, "kind": "abelian_antipower"}
    assert check_answer(HIT, None, json.dumps(hit).encode()) is None
    hit["d"] = 1
    assert check_answer(HIT, None, json.dumps(hit).encode()) is not None


def test_seed_fixes_the_queries():
    assert workloads.queries("synth", Random(7)) == workloads.queries("synth", Random(7))
    assert len({tuple(workloads.queries("synth", Random(s))) for s in range(10)}) > 1
    assert len(workloads.queries("synth", Random(7))) == 11


def test_without_source_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
