"""Tests of the benchmark harness itself (smoke sizes, a few seconds)."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from workloads import WORKLOADS, generate

import iwnet.cli

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(tmp_path, name):
    w = WORKLOADS[name]
    a, b, c, d = (tmp_path / f"{x}.csv" for x in "abcd")
    generate(w, 7, 0, a)
    generate(w, 7, 0, b)
    generate(w, 8, 0, c)
    generate(w, 7, 1, d)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()
    assert a.read_bytes() != d.read_bytes()


def test_midpoint_flows_has_what_ingest_must_handle(tmp_path):
    w = WORKLOADS["midpoint_flows_trace"]
    path = tmp_path / "flows.csv"
    generate(w, 1, 0, path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    pairs = {(s, d) for s, d, _, _ in rows}
    assert any(s == d for s, d in pairs)
    assert any((d, s) in pairs for s, d in pairs if s != d)
    assert any((d, s) not in pairs for s, d in pairs)
    below = sum(float(hi) < w.min_weight for *_, hi in rows)
    assert 0.05 < below / len(rows) < 0.15


@pytest.fixture
def checked_output(tmp_path):
    w = WORKLOADS["cl_planted"]
    csv = tmp_path / "in.csv"
    generate(w, 3, 0, csv, smoke=True)
    inp = harness.Input(csv, tmp_path / "out.json", w)
    assert iwnet.cli.main(inp.argv()) == 0
    return inp, json.loads(inp.out.read_text())


def test_check_accepts_real_output(checked_output):
    inp, doc = checked_output
    assert harness.check_doc(doc, inp) is None


def _corruptions(doc):
    final = doc["final"]
    first, second = final["communities"][0][0], final["communities"][-1][0]
    yield lambda d: d["final"]["membership"].pop(first)
    yield lambda d: d["final"]["membership"].update(ghost=0)
    yield lambda d: d["final"]["membership"].update({first: d["final"]["membership"][second]})
    yield lambda d: d["final"]["communities"][0].append(second)
    yield lambda d: d["final"].update(q=d["final"]["q"] * (1 + 1e-6))
    yield lambda d: d.update(method="hl")


def test_check_rejects_corrupted_membership_or_q(checked_output):
    inp, doc = checked_output
    assert len(doc["final"]["communities"]) > 1
    for corrupt in _corruptions(doc):
        bad = json.loads(json.dumps(doc))
        corrupt(bad)
        assert harness.check_doc(bad, inp) is not None


def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == harness.PER_LAYER
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--smoke", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    names = harness.PER_LAYER if trace else harness.END_TO_END
    assert set(doc["metrics"]) == {n for n, _ in names}
