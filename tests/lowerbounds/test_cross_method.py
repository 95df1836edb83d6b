"""Cross-method agreement on the paper's forbidden regimes.

Theorem 3.4: two independent methods decide whether Figure 1 can be
deadlock-free for n=2 processes and m registers: the exhaustive graph
checker (``verify_instance``) and the paper's own lockstep construction
(``run_symmetry_attack``), whose forbidden pairs ``forbidden_pairs``
enumerates.  They must agree: verify finds a deadlock-freedom violation
exactly for the forbidden m, the attack reproduces it there, and for
odd m verify proves the theorem.

Theorem 6.3: the exhaustive walk of Figure 2 on too few registers and
the covering construction (``demonstrate_consensus_space_bound``) must
both break agreement where the theorem forbids the register count.
"""

import pytest

from repro.core.consensus import AnonymousConsensus
from repro.errors import SchedulingError
from repro.lowerbounds.consensus_space import demonstrate_consensus_space_bound
from repro.lowerbounds.symmetry import forbidden_pairs, run_symmetry_attack
from repro.problems import get_problem
from repro.request import resolve_target
from repro.runtime.exploration import explore
from repro.runtime.system import System
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


# -- consensus: Theorem 6.3 --------------------------------------------
#
# Figure 2 needs 2n-1 registers.  The covering construction of Theorem
# 6.3 breaks agreement for n processes on k <= n-1 registers; the
# exhaustive walk of AnonymousConsensus(n, registers=k) must find the
# same violation there.  Above n-1 the construction needs more covering
# processes than the instance has and cannot start; the walk alone
# decides, and it finds Figure 2 broken below 2n-1 and whole at 2n-1.

#: (n, registers) -> states the walk explores, and whether it violates.
CONSENSUS = {
    (2, 1): (7, True),
    (2, 2): (101, True),
    (3, 2): (17, True),
    (2, 3): (2_888, False),
}


def _consensus_walk(n, registers):
    spec = get_problem("figure-2-consensus")
    system = System(AnonymousConsensus(n, registers=registers), spec.inputs({"n": n}))
    return explore(system, spec.invariant)


def _consensus_construction(n, registers):
    """Theorem 6.3 with the instance's own n processes: q and n-1 others."""
    return demonstrate_consensus_space_bound(
        lambda: AnonymousConsensus(n, registers=registers),
        pool_pids=tuple(range(201, 201 + n - 1)),
    )


@pytest.mark.parametrize("n,registers", sorted(CONSENSUS))
def test_the_consensus_walk_is_pinned(n, registers):
    states, violates = CONSENSUS[(n, registers)]
    result = _consensus_walk(n, registers)
    assert result.states_explored == states
    if violates:
        assert result.violation.startswith("conflicting decisions")
    else:
        assert result.violation is None and result.complete


def test_the_full_width_walk_is_the_registry_instance():
    spec, instance = resolve_target("figure-2-consensus", "figure-2-consensus(n=2)", None)
    result = explore(spec.system(instance), spec.invariant)
    assert result.complete and result.states_explored == CONSENSUS[(2, 3)][0]


@pytest.mark.parametrize("n,registers", sorted(CONSENSUS))
def test_the_covering_construction_agrees_with_the_walk(n, registers):
    _, violates = CONSENSUS[(n, registers)]
    if registers <= n - 1:
        report = _consensus_construction(n, registers)
        assert report.branch == "rho-violation"
        assert "agreement violated" in report.violation
        assert violates
    else:
        with pytest.raises(SchedulingError, match="supply a larger pool"):
            _consensus_construction(n, registers)
        assert violates == (registers < 2 * n - 1)
