"""Run cells on the packed program agree with the live scheduler.

A farm ``run`` cell steps the lazily interned packed program under the
descriptor adversaries and checks the declared invariant on every state
it reaches; a cell whose check flags a state is re-run on the live
scheduler, whose trace checkers render the record.  The live function
(:func:`~repro.farm.cells.live_run_cell_result`) is the oracle here:
every record must equal its record, verdict, counters and violation
text included.
"""

from dataclasses import dataclass

import pytest

import repro.farm.cells as cells
from repro.core.consensus import AnonymousConsensus, AnonymousConsensusProcess
from repro.core.mutex import MutexAutomatonMixin
from repro.errors import ConfigurationError, SchedulingError
from repro.farm import parse_adversary_spec, parse_naming_spec
from repro.farm.cells import live_run_cell_result, run_cell_result
from repro.farm.runtable import Cell
from repro.problems import get_problem
from repro.problems.spec import ProblemSpec
from repro.runtime.adversary import Adversary, RoundRobinAdversary
from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.runtime.compiled import CompiledProgram, compile_checker, run_packed
from repro.runtime.invariants import (
    agreement_invariant,
    conjoin,
    mutual_exclusion_invariant,
    validity_invariant,
)
from repro.runtime.kernel import StepInstance
from repro.runtime.ops import CritOp, EnterCritOp, ExitCritOp, WriteOp
from repro.runtime.system import System
from tests.conftest import pids

MAX_STEPS = 3_000

ADVERSARIES = ("round-robin", "random:3", "burst:3", "staged:20:3")
NAMINGS = ("identity", "random:2")
TARGETS = (
    ("figure-1-mutex", {"m": 3}),
    ("figure-1-mutex", {"m": 5}),
    ("figure-2-consensus", {"n": 2}),
    ("figure-2-consensus", {"n": 3}),
    ("figure-3-renaming", {"n": 2}),
)


def make_cell(naming, adversary):
    return Cell(
        index=0,
        kind="run",
        payload={
            "naming": parse_naming_spec(naming),
            "adversary": parse_adversary_spec(adversary),
        },
    )


@pytest.fixture
def live_calls(monkeypatch):
    """Counts the live re-runs :func:`run_cell_result` falls back to."""
    calls = []

    def counted(*args):
        calls.append(args)
        return live_run_cell_result(*args)

    monkeypatch.setattr(cells, "live_run_cell_result", counted)
    return calls


def both(spec, params, cell, max_steps=MAX_STEPS):
    return (
        run_cell_result(spec, params, cell, max_steps),
        live_run_cell_result(spec, params, cell, max_steps),
    )


@pytest.mark.parametrize("naming", NAMINGS)
@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize(
    "problem,params",
    TARGETS,
    ids=[f"{p}({','.join(f'{k}={v}' for k, v in q.items())})" for p, q in TARGETS],
)
def test_packed_records_equal_the_live_ones(problem, params, adversary, naming,
                                            live_calls):
    packed, live = both(get_problem(problem), params, make_cell(naming, adversary))
    assert packed == live
    assert packed["verdict"] == "ok"
    assert not live_calls, "a correct cell fell back to the live scheduler"


def test_round_robin_consensus_runs_into_the_step_cap(live_calls):
    # Figure 2 is only obstruction-free: round-robin livelocks it.
    packed, live = both(
        get_problem("figure-2-consensus"), {"n": 3},
        make_cell("identity", "round-robin"),
    )
    assert packed == live
    assert packed["events"] == MAX_STEPS
    assert packed["reads"] + packed["writes"] == MAX_STEPS
    assert packed["decided"] == 0
    assert not live_calls


# -- must-violate cells ------------------------------------------------


def consensus_on_one_register():
    return ProblemSpec(
        key="consensus-on-one-register",
        title="Figure 2 on one register (Theorem 6.3 regime)",
        module=__name__,
        automata=(AnonymousConsensusProcess,),
        build=lambda p: AnonymousConsensus(n=2, registers=1),
        inputs=lambda p: dict(zip(pids(2), ("a", "b"))),
        invariant=conjoin(agreement_invariant, validity_invariant),
    )


@dataclass(frozen=True)
class _GreedyState:
    pc: str = "enter_cs"
    #: Critical-section steps still to spend.
    left: int = 0


class _GreedyProcess(MutexAutomatonMixin, ProcessAutomaton):
    """Enters its critical section without waiting, stays there for
    ``CS_STEPS`` steps, then marks a register.

    With ``halt_in_cs`` it halts inside the critical section, which the
    trace sees as an interval left open and the invariant's facts, which
    drop halted processes, do not see at all.
    """

    PC_LINES = {
        "enter_cs": "synthetic — enter the CS unconditionally",
        "crit": "synthetic — inside the critical section",
        "exit_crit": "synthetic — leave the CS",
        "mark": "synthetic — write the pid",
        "done": "synthetic — halted",
    }

    CS_STEPS = 12

    def __init__(self, pid, halt_in_cs):
        self.pid = pid
        self.halt_in_cs = halt_in_cs

    def initial_state(self):
        return _GreedyState()

    def is_halted(self, state):
        return state.pc == "done" or (self.halt_in_cs and state.pc == "crit")

    def output(self, state):
        return 1 if self.is_halted(state) else None

    def next_op(self, state):
        self.require_running(state)
        return {
            "enter_cs": EnterCritOp(),
            "crit": CritOp(),
            "exit_crit": ExitCritOp(),
            "mark": WriteOp(0, self.pid),
        }[state.pc]

    def apply(self, state, op, result):
        if state.pc == "enter_cs":
            return _GreedyState("crit", self.CS_STEPS)
        if state.pc == "crit" and state.left > 1:
            return _GreedyState("crit", state.left - 1)
        following = {"crit": "exit_crit", "exit_crit": "mark", "mark": "done"}
        return _GreedyState(following[state.pc])


class _Greedy(Algorithm):
    name = "greedy-mutex"

    def __init__(self, halt_in_cs):
        self.halt_in_cs = halt_in_cs

    def register_count(self):
        return 1

    def initial_value(self):
        return 0

    def automaton_for(self, pid, input=None):
        return _GreedyProcess(pid, self.halt_in_cs)


def greedy_mutex(halt_in_cs=False):
    return ProblemSpec(
        key="greedy-mutex",
        title="a mutex that never waits",
        module=__name__,
        automata=(_GreedyProcess,),
        build=lambda p: _Greedy(halt_in_cs),
        inputs=lambda p: pids(2),
        invariant=mutual_exclusion_invariant,
    )


@pytest.mark.parametrize("naming", NAMINGS)
@pytest.mark.parametrize("adversary", ADVERSARIES)
@pytest.mark.parametrize(
    "make_spec",
    [consensus_on_one_register, greedy_mutex, lambda: greedy_mutex(halt_in_cs=True)],
    ids=["consensus-one-register", "greedy-mutex", "greedy-mutex-halts-in-cs"],
)
def test_violating_cells_render_the_live_record(make_spec, adversary, naming,
                                               live_calls):
    packed, live = both(make_spec(), {}, make_cell(naming, adversary))
    assert packed == live
    assert packed["verdict"] == "violation" and packed["violations"]
    assert len(live_calls) == 1


def test_a_process_halted_in_its_cs_is_invisible_to_the_state_check():
    # Why the halted-in-CS fallback exists: the per-state check never
    # flags this run, yet its trace intervals overlap.
    spec = greedy_mutex(halt_in_cs=True)
    system = System(spec.build({}), spec.inputs({}))
    program = CompiledProgram(
        StepInstance.from_system(system), system.scheduler.capture_state()
    )
    run = run_packed(
        program, RoundRobinAdversary(), MAX_STEPS,
        compile_checker(spec.invariant, program),
    )
    assert run.violation is None and run.events == 2
    final = program.unpack(run.state)[1]
    assert all(halted for _, _, halted, _ in final)
    conjunction = conjoin(validity_invariant, mutual_exclusion_invariant)
    for slot, (_, local, _, _) in enumerate(final):
        assert spec.invariant.hidden_at_halt(program.autos[slot], local)
        assert conjunction.hidden_at_halt(program.autos[slot], local)
        assert not validity_invariant.hidden_at_halt(program.autos[slot], local)


def _always_failing(system):
    return "an undeclared invariant is never consulted by a run cell"


def test_an_undeclared_invariant_checks_nothing_on_either_path(live_calls):
    base = get_problem("figure-1-mutex")
    spec = ProblemSpec(
        key="undeclared-invariant",
        title="Figure 1 with a plain callable invariant",
        module=__name__,
        automata=base.automata,
        build=base.build,
        inputs=base.inputs,
        invariant=_always_failing,
    )
    packed, live = both(spec, {"m": 3}, make_cell("identity", "random:1"))
    assert packed == live
    assert packed["verdict"] == "ok" and not packed["violations"]
    assert not live_calls


# -- the run loop's contract -------------------------------------------


def mutex_program():
    system = System(get_problem("figure-1-mutex").build({"m": 3}), pids(2))
    return system, CompiledProgram(
        StepInstance.from_system(system), system.scheduler.capture_state()
    )


class _Chooses(Adversary):
    def __init__(self, pid):
        self.pid = pid

    def choose(self, scheduler):
        return self.pid


class _Observes(RoundRobinAdversary):
    def observe(self, event, scheduler):
        pass


def test_a_choice_that_is_not_enabled_raises_as_the_scheduler_does():
    system, program = mutex_program()
    with pytest.raises(SchedulingError) as live:
        system.run(_Chooses(999), max_steps=10)
    with pytest.raises(SchedulingError) as packed:
        run_packed(program, _Chooses(999), 10, compile_checker(None, program))
    assert str(packed.value) == str(live.value)


def test_an_adversary_that_observes_events_is_rejected():
    _, program = mutex_program()
    with pytest.raises(ConfigurationError, match="observe"):
        run_packed(program, _Observes(), 10, compile_checker(None, program))


def test_the_packed_view_shows_what_the_scheduler_shows():
    # Every choose() sees the live scheduler's pids, enabled set and
    # step count.
    seen = {"live": [], "packed": []}

    class Recording(Adversary):
        def __init__(self, key):
            self.key = key
            self.inner = RoundRobinAdversary()

        def choose(self, scheduler):
            seen[self.key].append(
                (scheduler.pids, scheduler.enabled_pids(), scheduler.steps_so_far)
            )
            return self.inner.choose(scheduler)

        def reset(self):
            self.inner.reset()

    system, program = mutex_program()
    system.run(Recording("live"), max_steps=500)
    run_packed(program, Recording("packed"), 500, compile_checker(None, program))
    assert seen["packed"] == seen["live"]
    assert seen["live"][-1][1] != seen["live"][0][1], "no process halted"
