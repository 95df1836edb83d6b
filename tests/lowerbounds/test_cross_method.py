"""Cross-method agreement on Theorem 3.4's forbidden regimes.

Two independent methods decide whether Figure 1 can be deadlock-free
for n=2 processes and m registers: the exhaustive graph checker
(``verify_instance``) and the paper's own lockstep construction
(``run_symmetry_attack``), whose forbidden pairs ``forbidden_pairs``
enumerates.  They must agree: verify finds a deadlock-freedom violation
exactly for the forbidden m, the attack reproduces it there, and for
odd m verify proves the theorem.
"""

import pytest

from repro.lowerbounds.symmetry import forbidden_pairs, run_symmetry_attack
from repro.request import resolve_target
from repro.verify.runner import verify_instance

MS = (3, 4, 5, 6)
FORBIDDEN = {m for m, procs in forbidden_pairs(2, MS) if procs == 2}


def _instance(m):
    key = "figure-1-mutex" if m % 2 else "figure-1-mutex-even-m"
    return resolve_target(key, None, {"m": m})


def test_the_even_m_are_forbidden():
    assert FORBIDDEN == {4, 6}


@pytest.mark.parametrize("m", MS)
def test_exhaustive_verify_agrees_with_forbidden_pairs(m):
    spec, instance = _instance(m)
    report = verify_instance(spec, instance)
    assert report.exploration.complete and report.safety_ok
    (outcome,) = [o for o in report.outcomes if o.verdict.kind == "deadlock-freedom"]
    assert (not outcome.verdict.holds) == (m in FORBIDDEN)
    if m not in FORBIDDEN:
        assert report.ok and outcome.verdict.holds


@pytest.mark.parametrize("m", sorted(FORBIDDEN))
def test_the_lockstep_attack_finds_the_same_violation(m):
    spec, instance = _instance(m)
    params = instance.params_dict()
    attack = run_symmetry_attack(spec.build(params), spec.inputs(params))
    assert attack.violation == "deadlock-freedom"
