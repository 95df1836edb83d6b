"""One declaration per safety invariant, checked on every surface.

Each stock invariant is a :class:`StateInvariant` — a per-process
``fact`` and a ``verdict`` over the facts — and the interpreter, the
packed walker's flag tables and the farm's trace checkers all derive
from it.  The walker filter must be *exact*: on every reachable packed
state of every verify-role instance and of the violating instances, the
compiled check returns (or raises) exactly what the interpreted
invariant returns (or raises) on the unpacked state.
"""

import pickle
import random
from dataclasses import replace

import pytest

from repro.farm.cells import default_checkers
from repro.problems import get_problem, instances_with_role
from repro.runtime.compiled import CompiledProgram, compile_checker
from repro.runtime.exploration import (
    agreement_invariant,
    conjoin,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.invariants import StateInvariant
from repro.runtime.kernel import StateView, StepInstance
from repro.runtime.system import System
from repro.spec import (
    AgreementChecker,
    MutualExclusionChecker,
    NameRangeChecker,
    UniqueNamesChecker,
    ValidityChecker,
)

from tests.lint.mutants import MutantAlgorithm, _TwoStepBase
from tests.runtime.test_exploration_differential import (
    SHIPPED_INSTANCES,
    VIOLATING_INSTANCES,
)

#: What a process outputs after reading each pid back: a legal name and
#: input, a name out of range that is no input, and an unhashable value.
#: Two processes reading the same pid decide a duplicate name.
_OUTPUT_OF_READ = {101: 1, 103: 9, 107: ["unhashable"]}
_INPUTS = {101: 1, 103: 2, 107: 3}


class _ChosenOutputs(_TwoStepBase):
    """Write the pid, read register 0 back, decide what the pid read maps to."""

    def output(self, state):
        return _OUTPUT_OF_READ[state.scratch] if state.pc == "done" else None


class AtMostOneHalted(StateInvariant):
    """A custom declared invariant: it gets flag tables like the stock ones."""

    def fact(self, automaton, local, halted):
        return True if halted else None

    def verdict(self, facts, inputs):
        return f"{sorted(facts)} halted" if len(facts) > 1 else None


def _synthetic():
    return System(MutantAlgorithm(_ChosenOutputs), _INPUTS, record_trace=False)


SYNTHETIC_INVARIANTS = [
    pytest.param(mutual_exclusion_invariant, id="mutex-hook-missing"),
    pytest.param(agreement_invariant, id="agreement"),
    pytest.param(validity_invariant, id="validity"),
    pytest.param(unique_names_invariant, id="unique-names"),
    pytest.param(conjoin(agreement_invariant, validity_invariant), id="consensus"),
    pytest.param(conjoin(unique_names_invariant, validity_invariant), id="names+validity"),
    pytest.param(AtMostOneHalted(), id="custom"),
]


def _outcome(check, state):
    """What checking ``state`` returns, or the exception it raises."""
    try:
        return check(state)
    except Exception as error:  # noqa: BLE001 — compared by the caller
        return ("raised", type(error).__name__, str(error))


def _reachable(program):
    """Every packed state reachable from the initial one, violations
    included (the walk does not stop at them)."""
    seen = {program.initial_packed}
    stack = [program.initial_packed]
    while stack:
        state = stack.pop()
        yield state
        for _pid, slot, off in program.step_order:
            if program.live[slot][state[off]]:
                child = program.step_packed(state, slot)
                if child not in seen:
                    seen.add(child)
                    stack.append(child)


def _assert_exact_on_every_state(system, invariant):
    """Returns the distinct outcomes seen, for coverage assertions."""
    instance = StepInstance.from_system(system)
    program = CompiledProgram(instance, system.scheduler.capture_state())
    check = compile_checker(invariant, program)
    seen = set()
    states = 0
    for packed in _reachable(program):
        states += 1
        expected = _outcome(invariant, StateView(instance, program.unpack(packed)))
        assert _outcome(check, packed) == expected, packed
        seen.add(expected)
    assert states > 1
    return seen


VERIFY_INSTANCES = [
    pytest.param(spec, inst, id=inst.label)
    for spec, inst in instances_with_role("verify", include_mutants=True)
]


class TestEveryStateExactness:
    @pytest.mark.parametrize("spec, inst", VERIFY_INSTANCES)
    def test_verify_instances(self, spec, inst):
        assert isinstance(spec.invariant, StateInvariant)
        _assert_exact_on_every_state(spec.system(inst), spec.invariant)

    @pytest.mark.parametrize("factory, invariant", VIOLATING_INSTANCES)
    def test_violating_instances(self, factory, invariant):
        outcomes = _assert_exact_on_every_state(factory(), invariant)
        assert any(isinstance(o, str) for o in outcomes)

    @pytest.mark.parametrize("invariant", SYNTHETIC_INVARIANTS)
    def test_synthetic_outputs(self, invariant):
        _assert_exact_on_every_state(_synthetic(), invariant)

    def test_the_synthetic_outputs_hit_every_failure_kind(self):
        outcomes = set()
        for param in SYNTHETIC_INVARIANTS:
            outcomes |= _assert_exact_on_every_state(_synthetic(), param.values[0])
        messages = " | ".join(o for o in outcomes if isinstance(o, str))
        assert "duplicate names acquired" in messages
        assert "names outside 1..3" in messages
        assert "not an input" in messages
        assert "conflicting decisions" in messages
        raised = {o[1] for o in outcomes if isinstance(o, tuple)}
        assert {"TypeError", "AttributeError"} <= raised

    def test_no_invariant_checks_nothing(self):
        system = _synthetic()
        instance = StepInstance.from_system(system)
        program = CompiledProgram(instance, system.scheduler.capture_state())
        check = compile_checker(None, program)
        assert all(check(packed) is None for packed in _reachable(program))


def _live_runs(factory, seeds=range(3), max_steps=80):
    """Live systems after every step of a few seeded random schedules."""
    for seed in seeds:
        rng = random.Random(seed)
        system = factory()
        yield system
        for _ in range(max_steps):
            enabled = system.scheduler.enabled_pids()
            if not enabled:
                break
            system.scheduler.step(rng.choice(sorted(enabled)))
            yield system


LIVE_CASES = [
    pytest.param(*p.values, id=p.id)
    for p in SHIPPED_INSTANCES + VIOLATING_INSTANCES
] + [
    pytest.param(_synthetic, p.values[0], id=f"synthetic-{p.id}")
    for p in SYNTHETIC_INVARIANTS
]


class TestLiveSystemMatchesStateView:
    """The fuzzer certifies safety on a live ``System``; the walks check
    a ``StateView``.  Both forms must say the same thing."""

    @pytest.mark.parametrize("factory, invariant", LIVE_CASES)
    def test_same_message_on_both_forms(self, factory, invariant):
        for system in _live_runs(factory):
            view = StateView(
                StepInstance.from_system(system), system.scheduler.capture_state()
            )
            assert _outcome(invariant, system) == _outcome(invariant, view)


class TestDeclarations:
    @pytest.mark.parametrize("invariant", SYNTHETIC_INVARIANTS[1:-1])
    def test_declarations_pickle(self, invariant):
        copy = pickle.loads(pickle.dumps(invariant))
        assert type(copy) is type(invariant)
        for system in _live_runs(_synthetic, seeds=[0]):
            assert _outcome(copy, system) == _outcome(invariant, system)

    def test_an_undeclared_member_makes_an_undeclared_conjunction(self):
        def custom(system):
            return None

        assert isinstance(
            conjoin(agreement_invariant, validity_invariant), StateInvariant
        )
        assert not isinstance(conjoin(agreement_invariant, custom), StateInvariant)

    @pytest.mark.parametrize("key, expected", [
        ("figure-1-mutex", [MutualExclusionChecker]),
        ("figure-2-consensus", [AgreementChecker, ValidityChecker]),
        ("figure-3-renaming", [UniqueNamesChecker, NameRangeChecker]),
        ("election", [AgreementChecker]),
    ])
    def test_the_farm_asks_the_declaration_for_its_checkers(self, key, expected):
        spec = get_problem(key)
        params = spec.instances[0].params_dict()
        inputs = spec.inputs(params)
        checkers = default_checkers(spec, inputs)
        assert [type(c) for c in checkers] == expected
        for checker in checkers:
            if isinstance(checker, NameRangeChecker):
                assert checker.bound == len(list(inputs))
            if isinstance(checker, ValidityChecker):
                assert checker.inputs == dict(inputs)

    def test_undeclared_invariants_get_no_trace_checkers(self):
        spec = replace(get_problem("figure-1-mutex"), invariant=lambda s: None)
        assert default_checkers(spec, {}) == []
