"""Cell-level retry budget tests.

``error`` is a deliberate terminal state (PR 8), distinct from a killed
worker's ``claimed``.  The retry budget (``max_attempts``) carves out
the transient-failure case: a failed cell with attempts to spare goes
back to ``pending`` — live, during the drain, and at ``--resume`` time —
and because cell execution is deterministic, a farm that needed retries
is byte-identical to one that never failed.
"""

import pytest

import repro.farm.cells
from repro.__main__ import main
from repro.farm import create_farm, drain_farm, farm_result, resume_farm


def make_config(**overrides):
    config = {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex(m=3)",
        "namings": [{"type": "identity"}],
        "adversaries": [{"type": "random", "seed": s} for s in (1, 2, 3)],
        "max_steps": 2_000,
        "retain_graph": False,
    }
    config.update(overrides)
    return config


#: A two-cell ``repro sweep`` without ``--out``.
IN_MEMORY_SWEEP = [
    "sweep", "--problem", "figure-1-mutex",
    "--instance", "figure-1-mutex(m=3)",
    "--namings", "identity",
    "--adversaries", "random:1,random:2",
    "--max-steps", "2000",
]


class Transient(RuntimeError):
    """A failure that would succeed on retry (OOM kill, disk hiccup)."""


@pytest.fixture
def flaky(monkeypatch):
    """Make ``execute_cell`` raise on selected (index, attempt) pairs.

    Returns a ``schedule`` dict test code fills in: ``schedule[idx] = n``
    makes cell ``idx`` fail its first ``n`` executions.  Call counts per
    cell land in ``calls``.
    """
    real = repro.farm.cells.execute_cell
    schedule = {}
    calls = {}

    def execute(config, cell, graphs_dir=None):
        calls[cell.index] = calls.get(cell.index, 0) + 1
        if calls[cell.index] <= schedule.get(cell.index, 0):
            raise Transient(f"cell {cell.index} transient failure")
        return real(config, cell, graphs_dir=graphs_dir)

    monkeypatch.setattr(repro.farm.cells, "execute_cell", execute)
    return schedule, calls


def reference_rows(tmp_path, config):
    ref = tmp_path / "reference"
    create_farm(ref, config)
    return drain_farm(ref).rows


class TestLiveRetry:
    def test_transient_failure_retried_within_drain(self, tmp_path, flaky):
        config = make_config()
        schedule, calls = flaky
        ref_rows = reference_rows(tmp_path, config)
        calls.clear()  # reference ran under the same patch

        schedule[1] = 1  # cell 1 fails once, succeeds on retry
        farm = tmp_path / "farm"
        create_farm(farm, config)
        result = drain_farm(farm, max_attempts=2)

        assert result.complete
        assert calls[1] == 2
        # attempts counts claims: the retried cell was claimed twice
        assert [row.attempts for row in result.rows] == [1, 2, 1]
        # determinism: the retried farm matches the never-failed one
        assert [row.result for row in result.rows] == [
            row.result for row in ref_rows
        ]

    def test_budget_from_grid_config(self, tmp_path, flaky):
        schedule, calls = flaky
        schedule[0] = 1
        farm = tmp_path / "farm"
        create_farm(farm, make_config(max_attempts=2))
        result = drain_farm(farm)  # no explicit budget: config's applies
        assert result.complete
        assert calls[0] == 2

    def test_default_budget_keeps_error_terminal(self, tmp_path, flaky):
        schedule, calls = flaky
        schedule[2] = 1
        farm = tmp_path / "farm"
        create_farm(farm, make_config())
        result = drain_farm(farm)
        assert result.counts["error"] == 1
        assert calls[2] == 1
        assert "Transient" in result.errors[0].error

    def test_exhausted_budget_settles_in_error(self, tmp_path, flaky):
        schedule, calls = flaky
        schedule[1] = 99  # fails every time
        farm = tmp_path / "farm"
        create_farm(farm, make_config())
        result = drain_farm(farm, max_attempts=3)
        assert result.counts == {
            "done": 2, "pending": 0, "claimed": 0, "error": 1,
        }
        assert calls[1] == 3
        assert result.errors[0].attempts == 3


class TestResumeRetry:
    def test_resume_re_pends_error_cells_within_budget(self, tmp_path, flaky):
        config = make_config()
        schedule, calls = flaky
        ref_rows = reference_rows(tmp_path, config)
        calls.clear()  # reference ran under the same patch

        schedule[0] = 1
        farm = tmp_path / "farm"
        create_farm(farm, config)
        assert drain_farm(farm).counts["error"] == 1  # budget 1: terminal

        # a later resume grants the budget; the error cell re-pends
        schedule.clear()
        assert resume_farm(farm, max_attempts=2) == 1
        final = drain_farm(farm, max_attempts=2)
        assert final.complete
        assert [row.result for row in final.rows] == [
            row.result for row in ref_rows
        ]
        assert final.rows[0].attempts == 2

    def test_resume_without_budget_reclaims_nothing(self, tmp_path, flaky):
        schedule, _ = flaky
        schedule[0] = 1
        farm = tmp_path / "farm"
        create_farm(farm, make_config())
        drain_farm(farm)
        assert resume_farm(farm) == 0
        assert farm_result(farm).counts["error"] == 1

    def test_resume_skips_cells_with_exhausted_attempts(self, tmp_path, flaky):
        schedule, _ = flaky
        schedule[0] = 99
        farm = tmp_path / "farm"
        create_farm(farm, make_config())
        drain_farm(farm, max_attempts=2)  # two failed attempts recorded
        assert resume_farm(farm, max_attempts=2) == 0
        assert farm_result(farm).errors[0].attempts == 2


class TestSweepCliRetry:
    def test_resume_with_max_attempts_retries_error_cells(
        self, tmp_path, flaky, capsys
    ):
        out = tmp_path / "farm"
        code = main([
            "sweep", "--problem", "figure-1-mutex",
            "--instance", "figure-1-mutex(m=3)",
            "--namings", "identity",
            "--adversaries", "random:1,random:2",
            "--max-steps", "2000",
            "--out", str(out),
        ])
        schedule, calls = flaky
        capsys.readouterr()
        assert code == 0  # schedule still empty: clean first pass
        calls.clear()

        # poison a second farm with an error row, then resume with budget
        schedule[1] = 1
        farm2 = tmp_path / "farm2"
        create_farm(farm2, make_config())
        drain_farm(farm2)
        assert farm_result(farm2).counts["error"] == 1
        schedule.clear()
        code = main(["sweep", "--resume", str(farm2), "--max-attempts", "2"])
        assert code == 0
        captured = capsys.readouterr().out
        assert "reclaimed 1 cell(s)" in captured
        assert farm_result(farm2).complete

    def test_in_memory_failing_cell_is_an_error_row(self, flaky, capsys):
        schedule, calls = flaky
        schedule[1] = 1
        code = main(IN_MEMORY_SWEEP)
        assert code == 1
        captured = capsys.readouterr()
        assert "1 done" in captured.out and "1 error" in captured.out
        assert "[error] cell 1: Transient" in captured.err
        assert calls[1] == 1

    def test_in_memory_max_attempts_retries_to_done(self, flaky, capsys):
        schedule, calls = flaky
        schedule[1] = 1
        code = main([*IN_MEMORY_SWEEP, "--max-attempts", "2"])
        assert code == 0
        assert "2 done" in capsys.readouterr().out
        assert calls[1] == 2
