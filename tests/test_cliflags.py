"""The execution-flag matrix, pinned.

Every command that executes registry work either *accepts* one of the
four shared execution flags (``--backend``, ``--workers``, ``--seed``,
``--max-states``) or *explicitly rejects* it with
:func:`repro.cliflags.rejection_message`'s uniform text — silently
ignoring an execution flag is the failure mode ruled out here.  The
matrix lives in ``src/repro/cliflags.py``'s docstring; this module is
its executable twin.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.cliflags import rejection_message

REPO = Path(__file__).resolve().parents[1]


def run_expecting_usage_error(argv, capsys):
    """Run the CLI expecting argparse's exit-2 usage error; return stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    return capsys.readouterr().err


def help_text(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestRejectionMessage:
    def test_shape(self):
        assert rejection_message("--seed", "verify", "because") == (
            "--seed is not supported by `repro verify`: because"
        )


class TestVerifyRow:
    def test_accepts_max_states(self, capsys):
        text = help_text("verify", capsys)
        assert "--max-states" in text
        for flag in ("--backend", "--workers", "--seed"):
            assert flag not in text  # rejected flags are suppressed

    @pytest.mark.parametrize("flag", ["--backend", "--workers"])
    def test_rejects_backend_and_workers_with_pinned_text(self, flag, capsys):
        err = run_expecting_usage_error(
            ["verify", "--problem", "figure-1-mutex", flag, "2"], capsys
        )
        assert rejection_message(
            flag, "verify",
            "every walk runs on the one in-process packed walker; "
            "there is no backend to choose",
        ) in err

    def test_kernel_flag_is_gone(self, capsys):
        err = run_expecting_usage_error(
            ["verify", "--problem", "figure-1-mutex", "--kernel", "compiled"],
            capsys,
        )
        assert "unrecognized arguments: --kernel" in err

    def test_rejects_seed_with_pinned_text(self, capsys):
        err = run_expecting_usage_error(
            ["verify", "--problem", "figure-1-mutex", "--seed", "3"], capsys
        )
        assert rejection_message(
            "--seed", "verify",
            "exhaustive verification quantifies over every schedule; "
            "there is nothing to seed (randomised search is `repro fuzz`)",
        ) in err


class TestSweepRow:
    def test_accepts_workers(self, capsys):
        assert "--workers" in help_text("sweep", capsys)

    @pytest.mark.parametrize("flag, reason", [
        ("--backend",
         "the farm schedules cells across claiming processes; pick "
         "parallelism with --workers"),
        ("--seed",
         "adversary seeds ride in the --adversaries specs "
         "(e.g. random:SEED)"),
        ("--max-states",
         "run cells are step-bounded (--max-steps); the verify cell's "
         "state budget is --verify-max-states"),
    ])
    def test_rejects_with_pinned_text(self, flag, reason, capsys):
        err = run_expecting_usage_error(
            ["sweep", "--problem", "figure-1-mutex", flag, "x"], capsys
        )
        assert rejection_message(flag, "sweep", reason) in err


class TestFuzzRow:
    def test_accepts_workers_seed_max_states(self, capsys):
        text = help_text("fuzz", capsys)
        for flag in ("--workers", "--seed", "--max-states"):
            assert flag in text
        assert "--backend" not in text

    def test_backend_rejected_with_pinned_text(self, capsys):
        err = run_expecting_usage_error(
            ["fuzz", "--problem", "figure-1-mutex",
             "--backend", "serial"], capsys
        )
        assert rejection_message(
            "--backend", "fuzz",
            "episodes are serial by construction; shard them across "
            "farm cells with --workers",
        ) in err


class TestWorkersValidation:
    """``--workers 0`` (or negative, or junk) dies at the parser with
    the same one-line message in every command that accepts the flag —
    the text mirrors the backends' ConfigurationError for the same
    mistake, so the CLI and API layers never disagree."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--problem", "figure-1-mutex"],
        ["fuzz", "--problem", "figure-1-mutex"],
    ], ids=["sweep", "fuzz"])
    @pytest.mark.parametrize("value, shown", [
        ("0", "0"), ("-2", "-2"), ("many", "'many'"),
    ])
    def test_rejected_with_pinned_text(self, argv, value, shown, capsys):
        err = run_expecting_usage_error(argv + ["--workers", value], capsys)
        assert (
            f"argument --workers: workers must be a positive int, "
            f"got {shown}" in err
        )

class TestBenchRow:
    @staticmethod
    def bench(*argv):
        return subprocess.run(
            [sys.executable, str(REPO / "benchmarks" / "run_experiments.py"),
             *argv],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_accepts_seed_and_max_states(self):
        result = self.bench("--help")
        assert result.returncode == 0
        for flag in ("--seed", "--max-states"):
            assert flag in result.stdout
        for flag in ("--kernel", "--backend", "--workers"):
            assert flag not in result.stdout

    @pytest.mark.parametrize("flag", ["--backend", "--workers"])
    def test_rejects_backend_and_workers_with_pinned_text(self, flag):
        result = self.bench("--bench", "--quick", flag, "2")
        assert result.returncode == 2
        assert rejection_message(
            flag, "bench",
            "the bench times the one in-process walker against its "
            "SerialBackend oracle; there is no backend to choose",
        ) in result.stderr
