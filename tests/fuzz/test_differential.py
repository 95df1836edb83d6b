"""Stepper-differential pinning: at a fixed seed the fuzzer produces
byte-identical reports — schedules, violations, shrunk witnesses,
coverage counts — on the default packed stepper and on the interpreter
oracle.

This holds because packing is a bijection on every state the run has
seen (state revisits happen at identical schedule positions) and both
steppers derive identical :class:`~repro.fuzz.strategies.FuzzContext`
snapshots (same enabled order, same pending physical registers), so the
strategies' RNG streams never diverge.
"""

import json

import pytest

from repro.fuzz.engine import _InterpretedStepper, run_fuzz
from repro.request import RunRequest


def report_json(instance, episodes, **oracle):
    report = run_fuzz(
        RunRequest(problem="figure-1-mutex", instance=instance, seed=7),
        episodes=episodes,
        **oracle,
    )
    return json.dumps(report.to_dict(), sort_keys=True)


@pytest.mark.parametrize("instance, episodes, expect_found", [
    ("figure-1-mutex-even-m", 8, True),
    ("figure-1-mutex(m=3)", 8, False),
])
def test_walker_and_oracle_reports_byte_identical(
    instance, episodes, expect_found
):
    walker = report_json(instance, episodes)
    oracle = report_json(
        instance, episodes, stepper_class=_InterpretedStepper
    )
    assert bool(json.loads(walker)["violations"]) == expect_found
    assert walker == oracle


def test_reports_name_no_kernel():
    document = json.loads(report_json("figure-1-mutex(m=3)", 1))
    assert "kernel" not in document and "effective_kernel" not in document
