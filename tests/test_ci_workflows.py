"""The CI configuration is itself tested.

Every workflow under ``.github/workflows`` must load under a YAML loader
that rejects duplicate mapping keys — a plain ``safe_load`` keeps the
last duplicate silently, which is how a dropped job header once merged
two jobs into one without any error — every job must say where it
runs and what it does, and every path the ``ruff`` and ``mypy`` jobs
name must exist, so a moved or deleted module fails here rather than
only on the CI runner.
"""

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
