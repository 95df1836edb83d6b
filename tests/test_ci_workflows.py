"""The CI configuration is itself tested.

Every workflow under ``.github/workflows`` must load under a YAML loader
that rejects duplicate mapping keys — a plain ``safe_load`` keeps the
last duplicate silently, which is how a dropped job header once merged
two jobs into one without any error — every job must say where it
runs and what it does, and every path the ``ruff`` and ``mypy`` jobs
name must exist, so a moved or deleted module fails here rather than
only on the CI runner.  The sweep smoke's live-oracle step is run here
against a real farm, and must fail on a tampered row; the verify smoke's
report check is run on real manifests, and must fail on one that names
another engine.
"""

import json
import shlex
import sqlite3
import textwrap
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))


class UniqueKeyLoader(yaml.SafeLoader):
    """A ``SafeLoader`` that raises on a key repeated within one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    None, None, f"duplicate key {key!r}", key_node.start_mark
                )
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load(text):
    return yaml.load(text, Loader=UniqueKeyLoader)


def test_the_loader_rejects_duplicate_keys():
    with pytest.raises(yaml.constructor.ConstructorError, match="duplicate"):
        load("jobs:\n  a:\n    name: x\n    name: y\n")


def test_there_are_workflows():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=[p.name for p in WORKFLOWS])
def test_workflow_loads_without_duplicate_keys(path):
    document = load(path.read_text())
    assert document["jobs"]


@pytest.mark.parametrize("path", WORKFLOWS, ids=[p.name for p in WORKFLOWS])
def test_every_job_has_runs_on_and_steps(path):
    for name, job in load(path.read_text())["jobs"].items():
        assert "runs-on" in job, f"{path.name}: job {name!r} has no runs-on"
        assert job.get("steps"), f"{path.name}: job {name!r} has no steps"


#: The command words that precede the file list in each checked job.
TOOL_COMMANDS = {"ruff": ["ruff", "check"], "mypy": ["mypy"]}


def named_paths(tool):
    """Every path the ``tool`` job of ci.yml passes to ``tool``."""
    job = load((ROOT / ".github" / "workflows" / "ci.yml").read_text())["jobs"][tool]
    command = TOOL_COMMANDS[tool]
    paths = []
    for step in job["steps"]:
        words = step.get("run", "").split()
        if words[: len(command)] == command:
            paths.extend(w for w in words[len(command):] if not w.startswith("-"))
    return paths


@pytest.mark.parametrize("tool", sorted(TOOL_COMMANDS))
def test_every_path_the_linters_name_exists(tool):
    paths = named_paths(tool)
    assert paths, f"no {tool} command with a file list in ci.yml"
    missing = [path for path in paths if not (ROOT / path).exists()]
    assert not missing, f"ci.yml {tool} job names missing paths: {missing}"


def smoke_step_script(name, job_name="sweep-farm-smoke"):
    """The Python heredoc of one named step of a smoke job."""
    job = load((ROOT / ".github" / "workflows" / "ci.yml").read_text())["jobs"][
        job_name
    ]
    names = [step.get("name") for step in job["steps"]]
    run = job["steps"][names.index(name)]["run"]
    body = run.split("<<'EOF'\n", 1)[1].rsplit("EOF", 1)[0]
    return names, textwrap.dedent(body)


LIVE_ORACLE_STEP = "Re-run every run cell on the live scheduler"


def test_the_sweep_smoke_re_runs_run_cells_after_the_resume():
    names, script = smoke_step_script(LIVE_ORACLE_STEP)
    assert names.index(LIVE_ORACLE_STEP) > names.index(
        "Resume the killed farm to completion"
    )
    assert "live_run_cell_result" in script and "kind = 'run'" in script


def test_the_live_oracle_step_passes_a_farm_and_fails_a_tampered_row(
    tmp_path, monkeypatch
):
    from repro.farm import create_farm, drain_farm

    _, script = smoke_step_script(LIVE_ORACLE_STEP)
    create_farm(tmp_path / "farm", {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex(m=3)",
        "namings": [{"type": "identity"}],
        "adversaries": [{"type": "round-robin"}, {"type": "random", "seed": 1}],
        "max_steps": 2_000,
    })
    drain_farm(tmp_path / "farm")
    monkeypatch.chdir(tmp_path)
    exec(compile(script, LIVE_ORACLE_STEP, "exec"), {})

    db = sqlite3.connect("farm/runs.sqlite")
    with db:
        (stored,) = db.execute("SELECT result FROM cells WHERE idx = 1").fetchone()
        tampered = json.loads(stored)
        tampered["events"] += 1
        db.execute(
            "UPDATE cells SET result = ? WHERE idx = 1",
            (json.dumps(tampered, sort_keys=True),),
        )
    db.close()
    with pytest.raises(AssertionError):
        exec(compile(script, LIVE_ORACLE_STEP, "exec"), {})


VERIFY_REPORT_STEP = "Validate and render the verify manifests"


def verify_smoke_instances():
    """The ``--instance`` labels the verify smoke's `repro verify` step passes."""
    job = load((ROOT / ".github" / "workflows" / "ci.yml").read_text())["jobs"][
        "verify-smoke"
    ]
    steps = job["steps"]
    (run,) = [step["run"] for step in steps if "repro verify" in step.get("run", "")]
    words = shlex.split(run)
    return [words[i + 1] for i, word in enumerate(words) if word == "--instance"]


def test_the_verify_report_step_passes_real_manifests_and_fails_a_compiled_one(
    tmp_path, monkeypatch, capsys
):
    from repro.__main__ import main

    _, script = smoke_step_script(VERIFY_REPORT_STEP, "verify-smoke")
    assert "packed x1" in script
    monkeypatch.chdir(tmp_path)
    instances = verify_smoke_instances()
    assert len(instances) == 3
    argv = ["verify", "--telemetry", "verify-manifests"]
    for label in instances:
        argv += ["--instance", label]
    assert main(argv) == 0

    def render_and_check():
        capsys.readouterr()
        assert main(["report", "verify-manifests"]) == 0
        Path("report.txt").write_text(capsys.readouterr().out)
        exec(compile(script, VERIFY_REPORT_STEP, "exec"), {})

    render_and_check()

    manifests = sorted(Path("verify-manifests").glob("*.json"))
    assert len(manifests) == len(instances)
    document = json.loads(manifests[0].read_text())
    assert document["backend"] == "packed"
    document["backend"] = "compiled"
    manifests[0].write_text(json.dumps(document))
    with pytest.raises(AssertionError, match="not on the packed walker"):
        render_and_check()
