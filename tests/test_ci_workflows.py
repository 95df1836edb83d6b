"""The CI configuration is itself tested.

Every workflow under ``.github/workflows`` must load under a YAML loader
that rejects duplicate mapping keys — a plain ``safe_load`` keeps the
last duplicate silently, which is how a dropped job header once merged
two jobs into one without any error — and every job must say where it
runs and what it does.
"""

from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

WORKFLOWS = sorted(
    (Path(__file__).resolve().parents[1] / ".github" / "workflows").glob("*.yml")
)


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
