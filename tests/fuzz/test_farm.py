"""Fuzz cells on the disk farm: sharding, aggregation, resume identity.

The properties pinned here mirror the sweep farm's (PR 8) for the new
``fuzz`` cell kind: episode ranges shard deterministically, a sharded
farm reproduces the one-shot engine's violations byte-for-byte (episode
RNGs derive from the *global* episode index, so cell boundaries are
invisible), and a farm killed mid-cell resumes to results identical to
an uninterrupted run.
"""

import json

import pytest

from repro.__main__ import main
from repro.farm import (
    create_farm,
    drain_farm,
    farm_result,
    grid_cells,
    resume_farm,
    run_farm,
)
from repro.fuzz.cli import aggregate_fuzz_rows
from repro.fuzz.engine import run_fuzz
from repro.obs.manifest import load_manifests
from repro.request import RunRequest

EPISODES = 16
PER_CELL = 4


def fuzz_config(episodes=EPISODES, per_cell=PER_CELL, max_attempts=1):
    return {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex-even-m",
        "params": None,
        "fuzz": {
            "seed": 7,
            "episodes": episodes,
            "max_steps": 64,
            "max_states": None,
            "families": None,
            "episodes_per_cell": per_cell,
        },
        "max_attempts": max_attempts,
    }


def one_shot_report():
    return run_fuzz(
        RunRequest(
            problem="figure-1-mutex",
            instance="figure-1-mutex-even-m",
            seed=7,
            max_steps=64,
        ),
        episodes=EPISODES,
    )


class Killed(RuntimeError):
    """Stands in for SIGKILL: raised after the claim commits."""


class TestFuzzGrid:
    def test_episodes_shard_into_fuzz_cells(self):
        cells = grid_cells(fuzz_config())
        assert [cell.kind for cell in cells] == ["fuzz"] * 4
        assert [cell.payload["episode_base"] for cell in cells] == [0, 4, 8, 12]
        assert all(cell.payload["episodes"] == 4 for cell in cells)

    def test_ragged_final_cell(self):
        cells = grid_cells(fuzz_config(episodes=10, per_cell=4))
        assert [cell.payload["episodes"] for cell in cells] == [4, 4, 2]
        assert cells[-1].payload["episode_base"] == 8

    def test_sharding_is_deterministic(self):
        assert grid_cells(fuzz_config()) == grid_cells(fuzz_config())


class TestFuzzFarmEquivalence:
    def test_sharded_farm_matches_one_shot_engine(self, tmp_path):
        farm = tmp_path / "farm"
        create_farm(farm, fuzz_config())
        result = drain_farm(farm)
        assert result.complete

        summary = aggregate_fuzz_rows(result.rows)
        reference = one_shot_report()
        assert summary["episodes_run"] == reference.episodes_run == EPISODES
        assert summary["steps"] == reference.steps
        # cell boundaries are invisible: same violations, byte for byte
        assert summary["violations"] == [
            v.to_dict() for v in reference.violations
        ]
        assert summary["violations_by_family"] == dict(reference.by_family())

    def test_fuzz_cell_manifests_have_fuzz_kind(self, tmp_path):
        farm = tmp_path / "farm"
        create_farm(farm, fuzz_config())
        drain_farm(farm, worker="w0")
        manifests = load_manifests(farm / "manifests-w0.ndjson")
        assert len(manifests) == 4
        assert {m.kind for m in manifests} == {"fuzz"}


class TestFuzzResumeIdentity:
    def test_killed_farm_resumes_bit_identical(self, tmp_path):
        config = fuzz_config()
        ref = tmp_path / "reference"
        create_farm(ref, config)
        ref_rows = drain_farm(ref).rows

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_cell_2(cell):
            if cell.index == 2:
                raise Killed("worker killed after claim")

        with pytest.raises(Killed):
            drain_farm(farm, worker="w0", fault_injector=kill_on_cell_2)
        mid = farm_result(farm)
        assert mid.counts == {"done": 2, "claimed": 1, "pending": 1, "error": 0}

        assert resume_farm(farm) == 1
        final = drain_farm(farm, worker="w0")
        assert final.complete
        assert [
            json.dumps(row.result, sort_keys=True) for row in final.rows
        ] == [
            json.dumps(row.result, sort_keys=True) for row in ref_rows
        ]

    def test_two_workers_match_serial(self, tmp_path):
        config = fuzz_config()
        ref = tmp_path / "reference"
        create_farm(ref, config)
        ref_rows = drain_farm(ref).rows

        farm = tmp_path / "farm"
        create_farm(farm, config)
        result = run_farm(farm, workers=2)
        assert result.complete
        assert [row.result for row in result.rows] == [
            row.result for row in ref_rows
        ]


class TestFuzzFarmCli:
    def test_out_then_resume_round_trip(self, tmp_path, capsys):
        out = tmp_path / "farm"
        code = main([
            "fuzz", "--problem", "figure-1-mutex",
            "--instance", "figure-1-mutex-even-m",
            "--seed", "7", "--episodes", "8", "--max-steps", "64",
            "--episodes-per-cell", "4", "--out", str(out),
        ])
        captured = capsys.readouterr().out
        assert code == 1  # violations found, no --expect-violation
        assert "fuzz farm: 2 cell(s)" in captured
        assert "[HIT]" in captured
        # resuming the completed farm re-reports without re-running
        code = main(["fuzz", "--resume", str(out), "--expect-violation"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "0 cell(s) to run" in captured
        assert "[HIT]" in captured

    def test_one_shot_flags_rejected_in_farm_mode(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "fuzz", "--problem", "figure-1-mutex",
                "--out", str(tmp_path / "farm"), "--max-violations", "1",
            ])
        assert "one-shot only" in capsys.readouterr().err
