"""Differential + property validation of the packed walker.

The default exploration engine's contract is *bit-identity* with its
differential oracle, the :class:`SerialBackend` interpreter: on every
instance it must reproduce the oracle's results exactly — verdict,
counters, violation text and schedule, retained graph bytes — at a
fraction of the wall time, with no enumeration cap and no fallback
engine.  Its tables are filled lazily, so the properties below also pin
what laziness promises: only states the walk produced are interned, and
a register value first seen mid-walk extends the read rows already
built.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consensus import AnonymousConsensus
from repro.core.mutex import AnonymousMutex
from repro.problems import get_problem, problem_specs
from repro.request import RunRequest, resolve_target
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.compiled import UNFILLED, CompiledBackend, CompiledProgram
from repro.runtime.exploration import (
    agreement_invariant,
    conjoin,
    explore,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.kernel import StepInstance, enabled_pids, step_value
from repro.runtime.system import System

from tests.conftest import pids
from tests.lint.mutants import (
    ALL_MUTANTS,
    HOOKED_MUTANTS,
    MutantAlgorithm,
    _TwoStepBase,
)
from tests.runtime.test_exploration_differential import (
    SHIPPED_INSTANCES,
    VIOLATING_INSTANCES,
    null_invariant,
)


def fingerprint(result):
    """Every observable field the two backends must agree on."""
    return (
        result.ok,
        result.complete,
        result.truncated_by,
        result.violation,
        result.violation_schedule,
        result.states_explored,
        result.events_executed,
        result.max_depth_reached,
        result.stuck_states,
        result.orbits_collapsed,
        result.peak_visited,
    )


def mutex_system(m=3):
    return System(AnonymousMutex(m=m, cs_visits=1), pids(2), record_trace=False)


class TestWalkerMatchesOracle:
    @pytest.mark.parametrize(
        "factory, invariant", SHIPPED_INSTANCES + VIOLATING_INSTANCES
    )
    @pytest.mark.parametrize("reduction", ["trivial", "symmetry"])
    def test_bit_identical(self, factory, invariant, reduction):
        def run(backend):
            system = factory()
            canonicalizer = (
                TrivialCanonicalizer(system.scheduler)
                if reduction == "trivial"
                else build_canonicalizer(system)
            )
            return explore(
                system, invariant, canonicalizer=canonicalizer, backend=backend
            )

        oracle = run(SerialBackend())
        walker = run(None)
        assert fingerprint(oracle) == fingerprint(walker)
        assert walker.backend == "packed"

    @pytest.mark.parametrize(
        "budgets",
        [dict(max_states=5_000), dict(max_depth=25)],
        ids=["max_states", "max_depth"],
    )
    def test_truncated_walks_are_bit_identical(self, budgets):
        def run(backend):
            system = mutex_system(m=5)
            return explore(
                system,
                mutual_exclusion_invariant,
                canonicalizer=TrivialCanonicalizer(system.scheduler),
                backend=backend,
                **budgets,
            )

        oracle = run(SerialBackend())
        walker = run(None)
        assert not oracle.complete
        assert fingerprint(oracle) == fingerprint(walker)


#: Every registry instance but the bench-only scale rows (mutex m=9,
#: consensus n=3), whose oracle walks take tens of seconds; the
#: benchmark harness compares those against the oracle on every run.
REGISTRY_INSTANCES = [
    (spec, inst)
    for spec in problem_specs(include_mutants=True)
    for inst in spec.instances
    if set(inst.roles) != {"bench"}
]


class TestEveryRegistryInstance:
    """Verdict, counters, violation schedule and retained graph bytes."""

    @pytest.mark.parametrize(
        "spec, inst",
        REGISTRY_INSTANCES,
        ids=[inst.label for _, inst in REGISTRY_INSTANCES],
    )
    def test_walker_matches_the_oracle(self, spec, inst):
        invariant = spec.invariant or null_invariant
        budget = inst.verify_max_states

        def run(backend):
            try:
                result = explore(
                    spec.system(inst), invariant, max_states=budget,
                    max_depth=budget, backend=backend, retain_graph=True,
                )
            except Exception as error:  # noqa: BLE001 — compared below
                # Some lint-role candidates outgrow their simulation
                # horizon; the walker must raise exactly what the
                # oracle raises.
                return ("raised", type(error).__name__, str(error))
            return fingerprint(result), result.graph.to_bytes()

        assert run(SerialBackend()) == run(None)


class TestMutantsAgree:
    """The generic (no suspect table) path, across every non-hooked lint
    mutant — including the two whose exploration raises, where the
    walker must propagate the same exception from its slow branch."""

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
        for backend in (SerialBackend(), None):
            system = build()
            try:
                result = explore(
                    system,
                    null_invariant,
                    canonicalizer=TrivialCanonicalizer(system.scheduler),
                    backend=backend,
                    **budgets,
                )
            except Exception as error:  # noqa: BLE001 — compared below
                outcomes.append(("raised", type(error).__name__))
            else:
                outcomes.append(fingerprint(result))
        assert outcomes[0] == outcomes[1]


class _RaisingFactHooks(_TwoStepBase):
    """A legal write-then-read automaton whose invariant hooks raise:
    ``in_critical_section`` on the readback state, ``output`` always."""

    def in_critical_section(self, state):
        if state.pc == "readback":
            raise RuntimeError("in_critical_section hook raised")
        return False

    def output(self, state):
        raise RuntimeError("output hook raised")


class TestRaisingFactHooks:
    """A fact hook that raises marks its local state suspect, so the real
    invariant meets the genuine exception where the oracle does."""

    @pytest.mark.parametrize("invariant", [
        mutual_exclusion_invariant,
        agreement_invariant,
        unique_names_invariant,
        conjoin(agreement_invariant, validity_invariant),
    ], ids=["mutex", "agreement", "unique-names", "consensus"])
    def test_walker_raises_what_the_oracle_raises(self, invariant):
        raised = []
        for backend in (SerialBackend(), None):
            system = System(
                MutantAlgorithm(_RaisingFactHooks), pids(2), record_trace=False
            )
            with pytest.raises(RuntimeError) as error:
                explore(system, invariant, backend=backend)
            raised.append(str(error.value))
        assert raised[0] == raised[1]

    def test_a_state_produced_but_never_checked_raises_nothing(self):
        # max_states=1: the first child interns the raising local state
        # but the budget stops the walk before that state is checked.
        results = []
        for backend in (SerialBackend(), None):
            system = System(
                MutantAlgorithm(_RaisingFactHooks), pids(2), record_trace=False
            )
            results.append(fingerprint(explore(
                system, mutual_exclusion_invariant, max_states=1,
                backend=backend,
            )))
        assert results[0] == results[1]
        assert results[0][2] == "max_states"


def _program(system):
    instance = StepInstance.from_system(system)
    initial = system.scheduler.capture_state()
    return instance, initial, CompiledProgram(instance, initial)


_MUTEX_PROGRAM = _program(mutex_system())


def _walk(instance, initial, choices):
    """A reachable state: follow the choice list through enabled pids."""
    state = initial
    for choice in choices:
        enabled = enabled_pids(instance, state)
        if not enabled:
            break
        state = step_value(instance, state, enabled[choice % len(enabled)])
    return state


def _consensus_system():
    return System(
        AnonymousConsensus(n=2),
        dict(zip(pids(2), ("a", "b"))),
        record_trace=False,
    )


class TestPackedStateProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), max_size=40))
    def test_pack_unpack_round_trips(self, choices):
        instance, initial, program = _MUTEX_PROGRAM
        state = _walk(instance, initial, choices)
        assert program.unpack(program.pack(state)) == state

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["mutex", "consensus"]),
        st.lists(st.integers(min_value=0, max_value=7), max_size=60),
    )
    def test_lazy_steps_agree_with_the_interpreter(self, target, choices):
        # A fresh program per example: every step may intern a value or
        # local state for the first time.  A register value first seen
        # mid-walk must extend every read row built before it, and every
        # step must still agree with step_value.
        system = mutex_system() if target == "mutex" else _consensus_system()
        instance, state, program = _program(system)
        packed = program.initial_packed
        for choice in choices:
            enabled = enabled_pids(instance, state)
            if not enabled:
                break
            pid = enabled[choice % len(enabled)]
            values_before = len(program.values)
            packed = program.step_packed(packed, instance.slot_of[pid])
            state = step_value(instance, state, pid)
            assert program.unpack(packed) == state
            assert program.pack(state) == packed
            for slot_rows in program.rows:
                for row in slot_rows:
                    if row is not None:
                        assert len(row) == len(program.values)
                        assert all(
                            entry == UNFILLED
                            for entry in row[values_before:]
                        )

    def test_a_new_value_extends_existing_read_rows(self):
        # Figure 1 starts with all-zero registers, so the first read row
        # is one entry wide; the first write of a pid widens it.
        instance, state, program = _program(mutex_system())
        packed = program.initial_packed
        rows_seen = []
        for step in range(40):
            enabled = enabled_pids(instance, state)
            if not enabled:
                break
            pid = enabled[step % len(enabled)]
            before = [row for rows in program.rows for row in rows if row]
            widths = [len(row) for row in before]
            packed = program.step_packed(packed, instance.slot_of[pid])
            state = step_value(instance, state, pid)
            if before and len(program.values) > max(widths):
                rows_seen.append(before)
        assert rows_seen, "the walk never met a new value after a read"
        for row in rows_seen[0]:
            assert len(row) == len(program.values)


def _reachable_packed(program, limit=150):
    """A deterministic breadth-first sample of reachable packed states,
    interning every local state and value it meets on the way."""
    seen = {program.initial_packed}
    order = [program.initial_packed]
    frontier = [program.initial_packed]
    while frontier and len(order) < limit:
        next_frontier = []
        for state in frontier:
            for _pid, slot, off in program.step_order:
                if not program.live[slot][state[off]]:
                    continue
                child = program.step_packed(state, slot)
                if child not in seen:
                    seen.add(child)
                    order.append(child)
                    next_frontier.append(child)
        frontier = next_frontier
    return order


KEY_INSTANCES = SHIPPED_INSTANCES + VIOLATING_INSTANCES


class TestPackedKeys:
    """The walk's state keys, checked state by state.

    Both key functions are built on a fresh program *before* the sample
    is walked, so every entry they read was interned after they hoisted
    the tables — the in-place growth the walk relies on.
    """

    @pytest.mark.parametrize("factory, invariant", KEY_INSTANCES)
    @pytest.mark.parametrize("reduction", ["trivial", "symmetry"])
    def test_digest_key_equals_key_of_state(self, factory, invariant, reduction):
        from repro.runtime.compiled import _digest_key

        system = factory()
        canonicalizer = (
            TrivialCanonicalizer(system.scheduler)
            if reduction == "trivial"
            else build_canonicalizer(system)
        )
        program = CompiledProgram(
            StepInstance.from_system(system),
            system.scheduler.capture_state(),
            canonicalizer=canonicalizer,
        )
        key_of = _digest_key(program)
        sample = _reachable_packed(program)
        assert len(sample) > 1
        for packed in sample:
            assert key_of(packed) == canonicalizer.key_of_state(
                program.unpack(packed)
            )

    @pytest.mark.parametrize("factory, invariant", KEY_INSTANCES)
    def test_trivial_key_separates_exactly_the_distinct_states(
        self, factory, invariant
    ):
        from repro.runtime.compiled import _trivial_key

        system = factory()
        canonicalizer = TrivialCanonicalizer(system.scheduler)
        program = CompiledProgram(
            StepInstance.from_system(system), system.scheduler.capture_state()
        )
        key_of = _trivial_key(program)
        sample = _reachable_packed(program)
        keys = [key_of(packed) for packed in sample]
        for key, raw in keys:
            assert key == raw
        raws = [
            canonicalizer.key_of_state(program.unpack(packed))[1]
            for packed in sample
        ]
        # The sample holds distinct states, so both keys must be
        # pairwise distinct — and agree on every pair's equality.
        assert len({key for key, _ in keys}) == len(sample)
        assert len(set(raws)) == len(sample)


class TestLaziness:
    def test_complete_walk_interns_exactly_the_visited_locals(self):
        # figure-1-mutex(m=5): the ahead-of-time fixpoint enumerated 271
        # local states per slot; the walk only ever reaches 181.
        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=5)")
        budget = inst.verify_max_states
        oracle = explore(
            spec.system(inst), spec.invariant, max_states=budget,
            max_depth=budget, backend=SerialBackend(), retain_graph=True,
        )
        walker = explore(
            spec.system(inst), spec.invariant, max_states=budget,
            max_depth=budget,
        )
        assert walker.complete
        visited = [oracle.graph.state(i) for i in range(len(oracle.graph))]
        per_slot = tuple(
            len({locals_part[slot][1] for _, locals_part in visited})
            for slot in range(2)
        )
        values = {value for registers, _ in visited for value in registers}
        assert per_slot == walker.interned_locals == (181, 181)
        assert walker.interned_values == len(values)

    def test_no_cap_on_interned_local_states(self):
        # figure-1-mutex(m=11): each slot's full local-state closure
        # exceeds the 65,536 states an ahead-of-time enumeration would
        # have to build; the lazy walk runs it, bit-identical to the
        # oracle.
        spec, inst = resolve_target("figure-1-mutex", params={"m": 11})
        budgets = dict(max_states=20_000, max_depth=20_000)
        walker = explore(spec.system(inst), spec.invariant, **budgets)
        oracle = explore(
            spec.system(inst), spec.invariant, backend=SerialBackend(),
            **budgets,
        )
        assert walker.backend == "packed"
        assert walker.truncated_by == "max_states"
        assert min(walker.interned_locals) > 0
        assert fingerprint(walker) == fingerprint(oracle)


class TestDefaultEngine:
    def test_explore_runs_the_packed_walker_by_default(self):
        result = explore(mutex_system(), mutual_exclusion_invariant)
        assert result.backend == "packed"
        assert result.interned_locals == (39, 39)

    def test_the_kernel_keyword_is_gone(self):
        with pytest.raises(TypeError):
            explore(
                mutex_system(), mutual_exclusion_invariant, kernel="compiled"
            )

    def test_a_symmetric_retained_graph_is_refused(self):
        from repro.errors import ConfigurationError
        from repro.runtime.backends import ExplorationTask

        system = mutex_system()
        task = ExplorationTask(
            instance=StepInstance.from_system(system),
            initial=system.scheduler.capture_state(),
            invariant=mutual_exclusion_invariant,
            canonicalizer=build_canonicalizer(system),
            max_states=100,
            max_depth=100,
            retain_graph=True,
        )
        with pytest.raises(ConfigurationError, match="trivial"):
            CompiledBackend().run(task)


class TestVerifyOnTheWalker:
    def test_verify_instance_matches_the_oracle(self):
        from repro.verify import verify_instance

        spec = get_problem("figure-1-mutex")
        inst = spec.instance("figure-1-mutex(m=3)")
        oracle = verify_instance(
            spec, inst, request=RunRequest(backend=SerialBackend())
        )
        walker = verify_instance(spec, inst)
        assert walker.exploration.backend == "packed"
        assert oracle.exploration.backend == "serial"
        assert fingerprint(walker.exploration) == fingerprint(
            oracle.exploration
        )
        assert (
            walker.exploration.graph.to_bytes()
            == oracle.exploration.graph.to_bytes()
        )
        assert [o.describe() for o in walker.outcomes] == [
            o.describe() for o in oracle.outcomes
        ]

    def test_cli_kernel_flag_is_gone(self, capsys):
        from repro.__main__ import cmd_verify

        with pytest.raises(SystemExit):
            cmd_verify(
                ["--instance", "figure-1-mutex(m=3)", "--kernel", "compiled"]
            )
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
