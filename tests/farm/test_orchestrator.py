"""Farm orchestration tests: drain, crash, resume, multi-process, CLI.

The acceptance property pinned here is resume identity: a farm killed
mid-cell (simulated by a fault injector that raises *after* the claim
transaction commits — byte-for-byte the state SIGKILL leaves) and
restarted with resume produces per-cell results, manifests and retained
graph digests identical to an uninterrupted run, with no cell executed
twice.
"""

import pytest

from repro.__main__ import main
from repro.errors import FarmError
from repro.farm import (
    create_farm,
    drain_farm,
    farm_result,
    grid_cells,
    is_farm_dir,
    load_state_graph,
    resume_farm,
    run_farm,
)
from repro.obs.manifest import load_manifests


def make_config(retain_graph=False, adversary_seeds=(1, 2, 3)):
    return {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex(m=3)",
        "namings": [{"type": "identity"}, {"type": "random", "seed": 1}],
        "adversaries": [
            {"type": "random", "seed": seed} for seed in adversary_seeds
        ],
        "max_steps": 2_000,
        "retain_graph": retain_graph,
    }


def reference_rows(tmp_path, config):
    """Rows of an uninterrupted serial farm over ``config``."""
    ref = tmp_path / "reference"
    create_farm(ref, config)
    return drain_farm(ref).rows, ref


class Killed(RuntimeError):
    """Stands in for SIGKILL: raised after the claim commits."""


class TestGrid:
    def test_grid_is_naming_major_and_deterministic(self):
        config = make_config(retain_graph=True)
        cells = grid_cells(config)
        assert [cell.kind for cell in cells] == ["run"] * 6 + ["verify"]
        assert [cell.index for cell in cells] == list(range(7))
        assert cells[0].payload["naming"] == {"type": "identity"}
        assert cells[0].payload["adversary"] == {"type": "random", "seed": 1}
        assert cells[3].payload["naming"] == {"type": "random", "seed": 1}
        assert grid_cells(config) == cells

    def test_empty_grid_rejected(self, tmp_path):
        config = make_config()
        config["namings"] = []
        with pytest.raises(FarmError, match="zero cells"):
            create_farm(tmp_path / "farm", config)


class TestDrain:
    def test_drain_completes_every_cell(self, tmp_path):
        config = make_config()
        create_farm(tmp_path / "farm", config)
        result = drain_farm(tmp_path / "farm")
        assert result.complete
        assert result.counts["done"] == 6
        assert all(row.result["verdict"] == "ok" for row in result.rows)
        assert all(row.attempts == 1 for row in result.rows)

    def test_results_deterministic_across_farms(self, tmp_path):
        config = make_config()
        ref_rows, _ = reference_rows(tmp_path, config)
        create_farm(tmp_path / "again", config)
        again = drain_farm(tmp_path / "again")
        assert [row.result for row in again.rows] == [
            row.result for row in ref_rows
        ]

    def test_manifests_one_line_per_done_cell(self, tmp_path):
        config = make_config()
        create_farm(tmp_path / "farm", config)
        drain_farm(tmp_path / "farm", worker="w0")
        manifests = load_manifests(tmp_path / "farm" / "manifests-w0.ndjson")
        assert len(manifests) == 6
        assert {m.kind for m in manifests} == {"farm-cell"}
        assert sorted(m.parameters["cell"] for m in manifests) == list(range(6))

    def test_broken_cell_goes_to_error_and_drain_continues(self, tmp_path):
        config = make_config()
        config["max_steps"] = "bogus"  # TypeError inside each cell's run
        create_farm(tmp_path / "farm", config)
        result = drain_farm(tmp_path / "farm")
        assert not result.complete
        assert result.counts["error"] == 6
        assert all("Error" in row.error or ":" in row.error for row in result.errors)
        # error is terminal: resume reclaims nothing and retries nothing
        assert resume_farm(tmp_path / "farm") == 0
        assert drain_farm(tmp_path / "farm").counts["error"] == 6

    def test_verify_cell_persists_graph_store(self, tmp_path):
        config = make_config(retain_graph=True, adversary_seeds=(1,))
        create_farm(tmp_path / "farm", config)
        result = drain_farm(tmp_path / "farm")
        verify_row = result.rows[-1]
        assert verify_row.kind == "verify"
        assert verify_row.result["verdict"] == "verified"
        store = tmp_path / "farm" / "graphs" / f"cell-{verify_row.index:05d}"
        with load_state_graph(store) as disk:
            assert disk.digest() == verify_row.result["graph_sha256"]
            assert disk.edge_count == verify_row.result["retained_edges"]


class TestCrashResume:
    def test_killed_cell_stays_claimed_then_resume_matches_reference(
        self, tmp_path
    ):
        config = make_config(retain_graph=True)
        ref_rows, _ = reference_rows(tmp_path, config)

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_cell_3(cell):
            if cell.index == 3:
                raise Killed("worker killed after claim")

        with pytest.raises(Killed):
            drain_farm(farm, worker="w0", fault_injector=kill_on_cell_3)

        mid = farm_result(farm)
        assert mid.counts == {"done": 3, "claimed": 1, "pending": 3, "error": 0}
        claimed = next(row for row in mid.rows if row.status == "claimed")
        assert claimed.index == 3

        # resume: exactly the one stale claim is reclaimed, then the
        # farm finishes with results identical to the uninterrupted run
        assert resume_farm(farm) == 1
        final = drain_farm(farm, worker="w0")
        assert final.complete
        assert [row.result for row in final.rows] == [
            row.result for row in ref_rows
        ]

        # the reclaimed cell ran exactly twice-claimed, once-executed;
        # every other cell was claimed once — no cell executed twice
        assert [row.attempts for row in final.rows] == [1, 1, 1, 2, 1, 1, 1]
        manifests = load_manifests(farm / "manifests-w0.ndjson")
        cells_seen = [m.parameters["cell"] for m in manifests]
        assert sorted(cells_seen) == list(range(7))
        assert len(cells_seen) == len(set(cells_seen))

    def test_reclaimed_cell_manifest_identical_to_reference(self, tmp_path):
        config = make_config()
        _, ref_dir = reference_rows(tmp_path, config)

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_cell_2(cell):
            if cell.index == 2:
                raise Killed()

        with pytest.raises(Killed):
            drain_farm(farm, worker="w0", fault_injector=kill_on_cell_2)
        resume_farm(farm)
        drain_farm(farm, worker="w0")

        def deterministic(manifest):
            # host/git/created_at vary per run; worker/attempt are the
            # audit trail of the crash itself.  Everything else —
            # the cell's identity and its entire outcome — must match.
            params = {
                k: v
                for k, v in manifest.parameters.items()
                if k not in ("worker", "attempt")
            }
            return (manifest.kind, manifest.algorithm, manifest.naming,
                    manifest.adversary, params, manifest.outcome)

        ref = {
            m.parameters["cell"]: deterministic(m)
            for m in load_manifests(ref_dir / "manifests-w0.ndjson")
        }
        resumed = {
            m.parameters["cell"]: deterministic(m)
            for m in load_manifests(farm / "manifests-w0.ndjson")
        }
        assert resumed == ref
        reclaimed = next(
            m for m in load_manifests(farm / "manifests-w0.ndjson")
            if m.parameters["cell"] == 2
        )
        assert reclaimed.parameters["attempt"] == 2

    def test_resumed_verify_cell_graph_digest_matches_reference(self, tmp_path):
        config = make_config(retain_graph=True, adversary_seeds=(1,))
        ref_rows, ref_dir = reference_rows(tmp_path, config)
        verify_index = len(ref_rows) - 1

        farm = tmp_path / "farm"
        create_farm(farm, config)

        def kill_on_verify(cell):
            if cell.kind == "verify":
                raise Killed()

        with pytest.raises(Killed):
            drain_farm(farm, fault_injector=kill_on_verify)
        resume_farm(farm)
        final = drain_farm(farm)

        assert (
            final.rows[verify_index].result
            == ref_rows[verify_index].result
        )
        store = farm / "graphs" / f"cell-{verify_index:05d}"
        ref_store = ref_dir / "graphs" / f"cell-{verify_index:05d}"
        with load_state_graph(store) as a, load_state_graph(ref_store) as b:
            assert a.to_bytes() == b.to_bytes()


class TestMultiProcess:
    def test_two_workers_drain_identically_to_serial(self, tmp_path):
        config = make_config()
        ref_rows, _ = reference_rows(tmp_path, config)
        farm = tmp_path / "farm"
        create_farm(farm, config)
        result = run_farm(farm, workers=2)
        assert result.complete
        assert [row.result for row in result.rows] == [
            row.result for row in ref_rows
        ]
        # every done cell appears in exactly one worker's manifest stream
        cells = []
        for stream in sorted(farm.glob("manifests-*.ndjson")):
            cells.extend(
                m.parameters["cell"] for m in load_manifests(stream)
            )
        assert sorted(cells) == list(range(6))

    def test_fault_injector_is_single_process_only(self, tmp_path):
        create_farm(tmp_path / "farm", make_config())
        with pytest.raises(FarmError, match="single-process"):
            run_farm(tmp_path / "farm", workers=2, fault_injector=lambda c: None)


class TestSweepRecords:
    def test_sweep_records_are_pinned(self):
        # Pinned records: the ordered map over the grid must reproduce
        # every cell's run exactly.
        from repro.analysis.experiments import sweep
        from repro.core.mutex import AnonymousMutex
        from repro.memory.naming import IdentityNaming, RandomNaming
        from repro.runtime.adversary import RandomAdversary, RoundRobinAdversary
        from repro.spec.mutex_spec import MutualExclusionChecker

        result = sweep(
            lambda: AnonymousMutex(m=3, cs_visits=1),
            [11, 13],
            [IdentityNaming(), RandomNaming(1)],
            [RandomAdversary(1), RandomAdversary(2), RoundRobinAdversary()],
            lambda: [MutualExclusionChecker()],
            max_steps=2_000,
        )
        assert result.algorithm == AnonymousMutex(m=3, cs_visits=1).name
        assert result.all_ok
        assert [
            (
                record.naming,
                record.adversary,
                record.metrics.total_events,
                record.metrics.steps_per_process,
            )
            for record in result.records
        ] == [
            ("IdentityNaming", "RandomAdversary(seed=1)", 72, {11: 27, 13: 45}),
            ("IdentityNaming", "RandomAdversary(seed=2)", 72, {11: 22, 13: 50}),
            ("IdentityNaming", "RoundRobinAdversary", 48, {11: 33, 13: 15}),
            ("RandomNaming(seed=1)", "RandomAdversary(seed=1)", 57, {11: 21, 13: 36}),
            ("RandomNaming(seed=1)", "RandomAdversary(seed=2)", 67, {11: 40, 13: 27}),
            ("RandomNaming(seed=1)", "RoundRobinAdversary", 72, {11: 27, 13: 45}),
        ]


class TestSweepCli:
    def test_out_then_resume_round_trip(self, tmp_path, capsys):
        out = tmp_path / "farm"
        code = main([
            "sweep", "--problem", "figure-1-mutex",
            "--instance", "figure-1-mutex(m=3)",
            "--namings", "identity",
            "--adversaries", "random:1,random:2",
            "--max-steps", "2000",
            "--out", str(out),
        ])
        assert code == 0
        assert is_farm_dir(out)
        assert "2 done" in capsys.readouterr().out
        # resuming a completed farm is a clean no-op
        assert main(["sweep", "--resume", str(out)]) == 0
        assert "0 cell(s) to run" in capsys.readouterr().out

    def test_in_memory_one_shot(self, capsys):
        code = main([
            "sweep", "--problem", "figure-1-mutex",
            "--param", "m=3",
            "--namings", "identity",
            "--adversaries", "round-robin",
            "--max-steps", "2000",
        ])
        assert code == 0
        assert "1 done" in capsys.readouterr().out

    def test_in_memory_run_leaves_no_directory_behind(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        code = main([
            "sweep", "--problem", "figure-1-mutex",
            "--instance", "figure-1-mutex(m=3)",
            "--namings", "identity",
            "--adversaries", "round-robin",
            "--max-steps", "2000",
            "--retain-graph",
        ])
        assert code == 0
        assert "2 done" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_out_refuses_existing_farm(self, tmp_path, capsys):
        out = tmp_path / "farm"
        create_farm(out, make_config())
        with pytest.raises(SystemExit):
            main(["sweep", "--problem", "figure-1-mutex", "--out", str(out)])
        assert "use --resume" in capsys.readouterr().err

    def test_resume_refuses_non_farm_dir(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--resume", str(tmp_path)])
        assert "no run table" in capsys.readouterr().err

    def test_workers_require_out(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--problem", "figure-1-mutex", "--workers", "2"])
        assert "--out" in capsys.readouterr().err

    def test_report_on_farm_dir(self, tmp_path, capsys):
        out = tmp_path / "farm"
        create_farm(out, make_config(adversary_seeds=(1,)))
        drain_farm(out)
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "sweep farm" in captured
        assert "2 done" in captured
        assert "farm-cell" in captured

    def test_report_tolerates_truncated_manifest_tail(self, tmp_path, capsys):
        out = tmp_path / "farm"
        create_farm(out, make_config(adversary_seeds=(1,)))
        drain_farm(out, worker="w0")
        stream = out / "manifests-w0.ndjson"
        stream.write_text(stream.read_text()[:-40])  # torn final line
        assert main(["report", str(out)]) == 0
        captured = capsys.readouterr()
        assert "truncated final line" in captured.err
        assert "1 run(s)" in captured.out
