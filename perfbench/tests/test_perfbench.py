"""Tests of the benchmark harness itself; run with
``python3 -m pytest perfbench/tests -q`` from the repository root."""

import json
import re

import pytest

import run
import tracing
import workloads
from workloads import SMOKE

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def records_in_tmp(tmp_path, monkeypatch):
    """Smoke runs write their records and spans under tmp_path, so they never
    replace a full-size record of the same workload and seed."""
    monkeypatch.setattr(run, "OUT", tmp_path / "out")


def test_metric_names_and_units_match_the_harness():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        k: v[:2] for k, v in tracing.PER_LAYER.items()
    }
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_self_times_on_a_synthetic_span_tree():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 10.5, 11.0, 12.0])
    tracer = tracing.Tracer(clock=lambda: next(ticks))
    root = tracer.enter("a")        # 0 .. 12
    child = tracer.enter("b")       # 1 .. 5
    grandchild = tracer.enter("c")  # 2 .. 4
    tracer.exit(grandchild)
    tracer.exit(child)
    second = tracer.enter("b")      # 9 .. 11
    nested = tracer.enter("b")      # 10 .. 10.5, nested in a span of its own name
    tracer.exit(nested)
    tracer.exit(second)
    tracer.exit(root)
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 3]
    selfs = tracing.self_times(tracer.spans)
    # a: 12 - (4 + 2); b: (4 - 2) + (2 - 0.5) + 0.5; c: 2
    assert selfs == {"a": 6.0, "b": 4.0, "c": 2.0}
    assert sum(selfs.values()) == 12.0
    assert tracing.inclusive_time(tracer.spans, "b") == 4.0 + 2.0
    assert tracing.call_counts(tracer.spans) == {"a": 1, "b": 3, "c": 1}


def test_generated_args_are_seeded_and_pass_forms_inline():
    for wl in workloads.WORKLOADS.values():
        assert wl.jobs(7, wl.workers) == wl.jobs(7, wl.workers)
        assert wl.jobs(7, wl.workers) != wl.jobs(8, wl.workers)
    for name in ("large-cells", "slp-scan"):
        wl = workloads.WORKLOADS[name]
        for job in wl.jobs(3, 1):
            assert "--forms" not in job.args
            assert job.args[-1].startswith("--forms=")


@pytest.mark.parametrize("name", list(SMOKE))
def test_smoke_run_passes(name):
    res = run.run_one(name, 11, 0, False, SMOKE)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert set(res["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", list(SMOKE))
def test_traced_run_returns_the_untraced_values(name, tmp_path):
    wl = SMOKE[name]
    for job in wl.jobs(4, 1):
        plain = run.spawn(job.argv())
        traced = run.spawn(job.traced_argv(str(tmp_path / "spans.json")))
        assert plain.code == traced.code == 0
        assert plain.stdout == traced.stdout
        assert json.loads((tmp_path / "spans.json").read_text())["spans"]
    res = run.run_one(name, 4, 0, True, SMOKE)
    assert res["correct"]
    assert set(res["metrics"]) == set(tracing.PER_LAYER)


def _corrupt_verify(doc):
    row = doc["cells"][-1]["trials"][0]
    wrong = str(int(row["det_direct"].split("/")[0]) + 1)
    row["det_direct"] = row["det_expansion"] = row["det_closed"] = wrong


def _corrupt_symbolic(doc):
    rec = max(doc["triples"], key=lambda r: len(r["det_direct"]))
    rec["det_direct"][0][1] = str(int(rec["det_direct"][0][1]) + 1)


def _corrupt_large(doc):
    doc["det"] = str(-int(doc["det"].split("/")[0]) or 1)


def _corrupt_slp(doc):
    doc["per_k"][1]["det"] = "2" + doc["per_k"][1]["det"]


CORRUPT = {
    "verify-lattice": _corrupt_verify,
    "symbolic-lattice": _corrupt_symbolic,
    "large-cells": _corrupt_large,
    "slp-scan": _corrupt_slp,
}


@pytest.mark.parametrize("name", list(SMOKE))
def test_gate_counts_a_corrupted_value(name):
    """The program's own verdict still says "match": only the oracle objects."""
    wl = SMOKE[name]
    job = wl.jobs(2, wl.workers)[0]
    proc = run.spawn(job.argv())
    assert wl.check(job, proc.code, proc.stdout).failed == 0
    doc = json.loads(proc.stdout)
    CORRUPT[name](doc)
    corrupted = json.dumps(doc).encode()
    failed = wl.check(job, proc.code, corrupted).failed
    assert 0 < failed <= job.items
    assert wl.check(job, 1, proc.stdout).failed == job.items
    assert wl.check(job, 0, b"not json").failed == job.items
