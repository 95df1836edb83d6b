"""Differential validation of the symmetry-reduced explorer.

The quotient walk must be an *observational no-op*: on every instance —
shipped algorithms, broken candidates, and all the lint mutants — it
must reach exactly the ok/violation verdict of the seed explorer
(raw-state deduplication, reproduced here by an explicit
:class:`TrivialCanonicalizer`), with any reported violation schedule
replaying to a real violation on a fresh system.
"""

import pytest

from repro.core.consensus import AnonymousConsensus
from repro.core.mutex import AnonymousMutex
from repro.core.renaming import AnonymousRenaming
from repro.lowerbounds.candidates import NaiveTestAndSetLock
from repro.memory.naming import RingNaming
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.exploration import (
    agreement_invariant,
    conjoin,
    explore,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.replay import replay_schedule
from repro.runtime.system import System

from tests.conftest import pids
from tests.lint.mutants import ALL_MUTANTS, HOOKED_MUTANTS, MutantAlgorithm

consensus_invariant = conjoin(agreement_invariant, validity_invariant)


def seed_explore(system, invariant, **budgets):
    """The seed explorer's semantics: raw-state deduplication only."""
    return explore(
        system,
        invariant,
        canonicalizer=TrivialCanonicalizer(system.scheduler),
        **budgets,
    )


def reduced_explore(system, invariant, **budgets):
    """The quotient walk through the unified entrypoint."""
    return explore(system, invariant, reduction="symmetry", **budgets)


#: No safety invariant: the walks below compare exploration alone.
null_invariant = None


SHIPPED_INSTANCES = [
    pytest.param(
        lambda: System(
            AnonymousMutex(m=3, cs_visits=1), pids(2), record_trace=False
        ),
        mutual_exclusion_invariant,
        id="mutex-m3",
    ),
    pytest.param(
        lambda: System(
            AnonymousMutex(m=5, cs_visits=1), pids(2), record_trace=False
        ),
        mutual_exclusion_invariant,
        id="mutex-m5",
    ),
    pytest.param(
        lambda: System(
            AnonymousMutex(m=4, cs_visits=1, unsafe_allow_any_m=True),
            pids(2),
            naming=RingNaming.equispaced(pids(2), 4),
            record_trace=False,
        ),
        mutual_exclusion_invariant,
        id="mutex-m4-ring",
    ),
    pytest.param(
        lambda: System(
            AnonymousConsensus(n=2),
            {pid: f"v{k}" for k, pid in enumerate(pids(2))},
            record_trace=False,
        ),
        consensus_invariant,
        id="consensus-n2-distinct",
    ),
    pytest.param(
        lambda: System(
            AnonymousConsensus(n=2),
            {pid: "same" for pid in pids(2)},
            record_trace=False,
        ),
        consensus_invariant,
        id="consensus-n2-equal",
    ),
    pytest.param(
        lambda: System(AnonymousRenaming(n=2), pids(2), record_trace=False),
        unique_names_invariant,
        id="renaming-n2",
    ),
]

VIOLATING_INSTANCES = [
    pytest.param(
        lambda: System(NaiveTestAndSetLock(), pids(2), record_trace=False),
        mutual_exclusion_invariant,
        id="naive-lock",
    ),
    pytest.param(
        # Theorem 6.3 territory: one register cannot support 2-process
        # consensus — and this instance runs with the swap group active.
        lambda: System(
            AnonymousConsensus(n=2, registers=1),
            {pid: f"v{k}" for k, pid in enumerate(pids(2))},
            record_trace=False,
        ),
        consensus_invariant,
        id="consensus-1-register",
    ),
]


class TestShippedInstancesAgree:
    @pytest.mark.parametrize("factory, invariant", SHIPPED_INSTANCES)
    def test_same_verdict_with_fewer_states(self, factory, invariant):
        seed = seed_explore(factory(), invariant)
        reduced = reduced_explore(factory(), invariant)
        assert seed.complete and reduced.complete
        assert seed.ok and reduced.ok
        assert reduced.states_explored <= seed.states_explored
        # The engine must actually have engaged on the shipped automata.
        assert reduced.group_size >= 2
        assert reduced.orbits_collapsed > 0


class TestViolationsAgree:
    @pytest.mark.parametrize("factory, invariant", VIOLATING_INSTANCES)
    def test_both_engines_find_the_violation(self, factory, invariant):
        seed = seed_explore(factory(), invariant)
        reduced = reduced_explore(factory(), invariant)
        assert not seed.ok and not reduced.ok
        assert seed.truncated_by == "violation"
        assert reduced.truncated_by == "violation"

    @pytest.mark.parametrize("factory, invariant", VIOLATING_INSTANCES)
    def test_reduced_schedule_replays_to_a_violation(self, factory, invariant):
        reduced = reduced_explore(factory(), invariant)
        assert reduced.violation_schedule is not None
        fresh = factory()
        replay_schedule(fresh, reduced.violation_schedule)
        assert invariant(fresh) is not None


class TestMutantsAgree:
    """The trust gate must make the mutants behave *identically*.

    Every lint mutant here subclasses a hook-less base (or overrides
    behaviour), so :func:`build_canonicalizer` degrades to the trivial
    canonicalizer and the two walks must coincide step for step —
    including the two mutants whose exploration raises.  The
    ``HOOKED_MUTANTS`` are excluded: they deliberately carry a trusted
    but lying hook bundle, which the footprint pass rejects statically
    before exploration is ever attempted.
    """

    @pytest.mark.parametrize(
        "mutant_cls",
        [cls for cls, _pass in ALL_MUTANTS if cls not in HOOKED_MUTANTS],
        ids=[
            cls.__name__
            for cls, _pass in ALL_MUTANTS
            if cls not in HOOKED_MUTANTS
        ],
    )
    def test_mutant_exploration_is_bit_identical(self, mutant_cls):
        def build():
            return System(
                MutantAlgorithm(mutant_cls), pids(2), record_trace=False
            )

        budgets = dict(max_states=2_000, max_depth=200)
        outcomes = []
        for engine in (seed_explore, reduced_explore):
            system = build()
            if engine is reduced_explore:
                assert isinstance(
                    build_canonicalizer(system), TrivialCanonicalizer
                )
            try:
                result = engine(system, null_invariant, **budgets)
            except Exception as error:  # noqa: BLE001 — compared below
                outcomes.append(("raised", type(error).__name__))
            else:
                outcomes.append(
                    (
                        result.ok,
                        result.complete,
                        result.truncated_by,
                        result.states_explored,
                        result.events_executed,
                    )
                )
        assert outcomes[0] == outcomes[1]
