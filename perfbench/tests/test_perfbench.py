"""The benchmark's own tests, on the reduced targets (``full=False``).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def iterate(name, seed, answers=None, tmp_path=None):
    workload = WORKLOADS[name](
        seed, False, answers or run.load_answers(), tmp_path or run.OUT
    )
    workload.prepare(run.NullTracer())
    return run.one_iteration(workload, run.NullTracer(), "test")[1]


def printed(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_matches_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {"wall_s", "peak_rss_mb", "setup_s"}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric_with_its_unit(name, capsys):
    assert run.measure(name, 5, 0.01, 0, full=False) == 0
    lines, result = printed(capsys)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for metric in SPEC["end_to_end"]:
        name_, unit = metric["name"], metric["unit"]
        assert result["metrics"][name_]["unit"] == unit
        assert result["metrics"][name_]["value"] > 0
        assert any(line.startswith(f"{name_} ") and line.endswith(f" {unit}") for line in lines)
    assert any(line.startswith("failed_share 0 share") for line in lines)
    assert lines[0].startswith("fingerprint ")


def test_traced_run_prints_every_per_layer_metric_with_its_unit(capsys):
    assert run.measure("verify-registry", 5, 0.01, 1, full=False) == 0
    lines, result = printed(capsys)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(metric["name"] + " ") for line in lines)
    spans = json.loads((run.OUT / "spans-verify-registry-seed5.json").read_text())
    ops = {span["op"].split("/")[1] for span in spans if span["op"].startswith("pass/")}
    assert ops == set(WORKLOADS)  # spans for each workload


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_at_one_seed(name, tmp_path):
    first = iterate(name, 3, tmp_path=tmp_path)
    second = iterate(name, 3, tmp_path=tmp_path)
    assert first.counts and first.counts == second.counts
    assert [op.error for op in first.ops + second.ops] == [None] * (2 * len(first.ops))


@pytest.mark.parametrize("name", [w.name for w in WORKLOADS.values() if w.seeded])
def test_known_answers_hold_at_a_second_seed(name, tmp_path):
    checked = iterate(name, 12, tmp_path=tmp_path)
    assert [op.error for op in checked.ops] == [None] * len(checked.ops)


def test_a_corrupted_known_answer_is_counted_as_a_failure(tmp_path):
    answers = copy.deepcopy(run.load_answers())
    answers["verify-registry"]["figure-1-mutex(m=3)"]["states"] += 1
    checked = iterate("verify-registry", 0, answers, tmp_path)
    failed = [op for op in checked.ops if op.error is not None]
    assert [op.name for op in failed] == ["figure-1-mutex(m=3)"]
    assert "states=1747, expected 1748" in failed[0].error


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("bench", "pass", "op") as outer:
        with tracer.span("verify", "verify_instance", "op") as inner:
            pass
    self_time = tracer.self_seconds(outer)
    assert self_time["verify"] == pytest.approx(inner.seconds)
    assert self_time["bench"] == pytest.approx(outer.seconds - inner.seconds)


def test_compare_flags_results_from_different_hosts(tmp_path, capsys):
    record = {
        "workload": "verify-registry", "trace": 0,
        "metrics": {"wall_s": {"value": 1.0, "unit": "s"}},
        "fingerprint": {"nproc": 2, "python": "3.11.7", "machine": "x86_64", "seed": 1},
    }
    other = copy.deepcopy(record)
    other["fingerprint"]["seed"] = 2
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, data in zip(paths, (record, other)):
        path.write_text(json.dumps(data))
    assert compare.main([str(p) for p in paths]) == 0
    other["fingerprint"]["nproc"] = 1
    paths[1].write_text(json.dumps(other))
    assert compare.main([str(p) for p in paths]) == 1
    assert "WARNING host fingerprints differ, nproc: 2 vs 1" in capsys.readouterr().out


def test_without_the_source_tree_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    probe = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-registry",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode != 0
    assert '"correct"' not in probe.stdout
