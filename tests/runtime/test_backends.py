"""Differential and unit tests for the pluggable exploration backends.

:class:`SerialBackend` is the reference semantics (the seed DFS over
value states; its bit-parity with the historical explorer is pinned by
``test_exploration_differential.py``, which now runs through it) and
the differential oracle of the default packed walker
(:class:`~repro.runtime.compiled.CompiledBackend`, whose bit-identity
is pinned by ``test_compiled.py``).  The tests here pin, for both, the
budget-truncation accounting, the inert self-loop acceleration's
livelock break and the untouched system; for the walker, that a spawned
process reproduces its results and that its violation schedules
replay; plus the executor pair the sweep harness fans out over.
"""

import multiprocessing
import pickle

import pytest

from repro.analysis.experiments import sweep
from repro.core.mutex import AnonymousMutex
from repro.errors import ConfigurationError, ExplorationLimitExceeded
from repro.memory.naming import IdentityNaming
from repro.runtime.adversary import RandomAdversary, RoundRobinAdversary
from repro.runtime.automaton import Algorithm, ProcessAutomaton
from repro.runtime.backends import (
    ProcessExecutor,
    SerialBackend,
    SerialExecutor,
)
from repro.runtime.canonical import build_canonicalizer
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import (
    ExplorationResult,
    explore,
    mutual_exclusion_invariant,
)
from repro.runtime.ops import ReadOp
from repro.runtime.replay import replay_schedule
from repro.runtime.system import System
from repro.spec.mutex_spec import MutualExclusionChecker

from tests.conftest import pids
from tests.runtime.test_exploration_differential import (
    VIOLATING_INSTANCES,
    null_invariant,
)


def mutex_system(m=3, record_trace=False):
    return System(AnonymousMutex(m=m, cs_visits=1), pids(2), record_trace=record_trace)


class TestExecutorConfiguration:
    def test_nonpositive_executor_workers_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessExecutor(workers=0)


def _walk_outcome(reduction):
    """A default-walker run on mutex m=3, reduced to comparable values
    (module level, so a spawned worker can import it)."""
    from tests.runtime.test_compiled import fingerprint

    system = mutex_system()
    if reduction == "symmetry":
        result = explore(system, mutual_exclusion_invariant, reduction="symmetry")
        return fingerprint(result), result.group_size, None
    result = explore(system, mutual_exclusion_invariant, retain_graph=True)
    return fingerprint(result), result.group_size, result.graph.to_bytes()


class TestDefaultWalkerAcrossProcesses:
    def test_spawn_context_reproduces_in_process_results(self):
        # A spawned worker runs a fresh interpreter with its own hash
        # seed and interns ids in its own order of first sight: equal
        # results pin that nothing observable depends on either.
        reductions = ["trivial", "symmetry"]
        local = [_walk_outcome(reduction) for reduction in reductions]
        spawned = ProcessExecutor(
            workers=2, mp_context=multiprocessing.get_context("spawn")
        ).map(_walk_outcome, reductions)
        assert spawned == local
        assert local[1][1] >= 2  # the symmetry group actually engaged


class TestDefaultWalkerViolations:
    @pytest.mark.parametrize("factory, invariant", VIOLATING_INSTANCES)
    def test_violations_agree_and_replay(self, factory, invariant):
        serial = explore(
            factory(), invariant, reduction="symmetry", backend=SerialBackend()
        )
        walker = explore(factory(), invariant, reduction="symmetry")
        assert walker.backend == "compiled"
        assert not serial.ok and not walker.ok
        assert serial.truncated_by == "violation"
        assert walker.truncated_by == "violation"
        assert walker.violation_schedule is not None
        fresh = factory()
        replay_schedule(fresh, walker.violation_schedule)
        assert invariant(fresh) is not None


BACKENDS = [
    pytest.param(lambda: SerialBackend(), id="serial"),
    pytest.param(lambda: CompiledBackend(), id="compiled"),
]


class TestBudgetAccounting:
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_max_depth_prunes_without_stopping(self, make_backend):
        result = explore(
            mutex_system(m=5),
            mutual_exclusion_invariant,
            max_depth=3,
            backend=make_backend(),
        )
        assert result.truncated_by == "max_depth"
        assert not result.complete
        assert result.ok
        assert result.max_depth_reached == 3
        assert result.states_explored > 1

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_max_states_stops_immediately(self, make_backend):
        result = explore(
            mutex_system(m=5),
            mutual_exclusion_invariant,
            max_states=10,
            backend=make_backend(),
        )
        assert result.truncated_by == "max_states"
        assert not result.complete
        assert result.peak_visited <= 10

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_raise_on_truncation(self, make_backend):
        with pytest.raises(ExplorationLimitExceeded, match="max_depth"):
            explore(
                mutex_system(m=5),
                mutual_exclusion_invariant,
                max_depth=2,
                raise_on_truncation=True,
                backend=make_backend(),
            )

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_crash_terminal_states_are_settled_not_stuck(self, make_backend):
        system = mutex_system()
        system.scheduler.crash(pids(2)[1])
        result = explore(
            system, mutual_exclusion_invariant, backend=make_backend()
        )
        assert result.complete and result.ok
        assert result.stuck_states == 0


# ---------------------------------------------------------------------------
# Inert self-loop acceleration
# ---------------------------------------------------------------------------


class _SpinState:
    """Hashable spin-local state (plain class to keep it minimal)."""

    __slots__ = ("counter",)

    def __init__(self, counter: int) -> None:
        self.counter = counter

    def __eq__(self, other) -> bool:
        return isinstance(other, _SpinState) and other.counter == self.counter

    def __hash__(self) -> int:
        return hash(("spin", self.counter))

    def __repr__(self) -> str:
        return f"_SpinState({self.counter})"


class _SpinAutomaton(ProcessAutomaton):
    """Reads register 0 forever; the local counter cycles mod ``period``.

    With ``period=1`` every step reproduces the *identical* global
    state; with a larger period the states differ but the footprint
    hook collapses the counter away, so the canonicalizer sees an inert
    self-loop whose local states cycle — exactly the shape the
    ``seen_locals`` livelock break exists for.
    """

    SYMMETRIC = True
    PC_LINES = {"spin": "synthetic — not from the paper"}

    def __init__(self, pid, period: int) -> None:
        self.pid = pid
        self.period = period

    def initial_state(self):
        return _SpinState(0)

    def next_op(self, state):
        return ReadOp(0)

    def apply(self, state, op, result):
        return _SpinState((state.counter + 1) % self.period)

    def is_halted(self, state):
        return False

    # Trusted hook bundle: the counter is dead state (never read, never
    # written to memory), so footprints may drop it.
    def symmetry_signature(self):
        return None

    def state_footprint(self, state):
        return "spinning"

    def rename_state_footprint(self, footprint, pids_renamed, values_renamed):
        return footprint

    def rename_register_value(self, value, pids_renamed, values_renamed):
        return value


class _SpinAlgorithm(Algorithm):
    name = "spin"

    def __init__(self, period: int) -> None:
        self.period = period

    def register_count(self) -> int:
        return 1

    def automaton_for(self, pid, input=None):
        return _SpinAutomaton(pid, self.period)


class TestInertSelfLoopAcceleration:
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_identical_state_spin_terminates(self, make_backend):
        # period=1: the successor *is* the parent state.  The walk must
        # recognise the livelock and reach a fixpoint with one state.
        system = System(_SpinAlgorithm(period=1), pids(1), record_trace=False)
        result = explore(system, null_invariant, backend=make_backend())
        assert result.complete and result.ok
        assert result.states_explored == 1
        # First step plus one acceleration step before the repeated
        # local state breaks the loop.
        assert result.events_executed == 2

    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_footprint_collapsed_spin_terminates(self, make_backend):
        # period=3 under the footprint hook: raw keys repeat while the
        # local states cycle 1 → 2 → 0 → 1; only the seen_locals check
        # stops the acceleration loop.
        system = System(_SpinAlgorithm(period=3), pids(1), record_trace=False)
        canonicalizer = build_canonicalizer(system)
        assert canonicalizer.uses_footprints
        result = explore(
            system,
            null_invariant,
            canonicalizer=canonicalizer,
            backend=make_backend(),
        )
        assert result.complete and result.ok
        assert result.states_explored == 1
        # First step, then the cycle 2, 0, 1 — the last one repeats.
        assert result.events_executed == 4


# ---------------------------------------------------------------------------
# explore() must not touch the system (the historical record_trace bug)
# ---------------------------------------------------------------------------


class TestExploreLeavesTheSystemUntouched:
    @pytest.mark.parametrize("make_backend", BACKENDS)
    def test_record_trace_and_state_survive(self, make_backend):
        # The seed explorer force-flipped record_trace to False and
        # never restored it, silently breaking any later system.run()
        # the caller expected to be traced.
        system = mutex_system(record_trace=True)
        before = system.scheduler.capture_state()
        result = explore(
            system, mutual_exclusion_invariant, backend=make_backend()
        )
        assert result.complete and result.ok
        assert system.scheduler.record_trace is True
        assert len(system.scheduler.trace) == 0
        assert system.scheduler.steps_so_far == 0
        assert system.scheduler.capture_state() == before
        # ... so a subsequent live run still records its trace.
        trace = system.run(RoundRobinAdversary(), max_steps=500)
        assert len(trace) > 0


class TestStatesPerSecond:
    def base(self, **overrides):
        values = dict(
            complete=True,
            states_explored=100,
            events_executed=0,
            max_depth_reached=0,
        )
        values.update(overrides)
        return ExplorationResult(**values)

    def test_sub_timer_walks_have_no_rate(self):
        assert self.base(wall_seconds=0.0).states_per_second is None

    def test_positive_wall_time_gives_a_rate(self):
        assert self.base(wall_seconds=0.5).states_per_second == 200.0


# ---------------------------------------------------------------------------
# Executors (sweep fan-out)
# ---------------------------------------------------------------------------


def _square(value: int) -> int:
    return value * value


class TestExecutors:
    def test_serial_executor_runs_initializer_in_process(self):
        seen = []
        executor = SerialExecutor()
        out = executor.map(
            _square, [3, 1, 2], initializer=seen.append, initargs=("ready",)
        )
        assert out == [9, 1, 4]
        assert seen == ["ready"]

    def test_process_executor_preserves_order(self):
        out = ProcessExecutor(workers=2).map(_square, list(range(10)))
        assert out == [n * n for n in range(10)]

    def test_process_executor_empty_items_short_circuit(self):
        assert ProcessExecutor(workers=2).map(_square, []) == []

    def test_sweep_records_identical_under_both_executors(self):
        def run(backend):
            return sweep(
                lambda: AnonymousMutex(m=3, cs_visits=1),
                pids(2),
                namings=[IdentityNaming()],
                adversaries=[RoundRobinAdversary()]
                + [RandomAdversary(seed) for seed in range(3)],
                checkers_factory=lambda: [MutualExclusionChecker()],
                max_steps=20_000,
                backend=backend,
            )

        serial = run(SerialExecutor())
        parallel = run(ProcessExecutor(workers=2))
        assert serial.runs == parallel.runs == 4
        for ours, theirs in zip(serial.records, parallel.records):
            assert ours.naming == theirs.naming
            assert ours.adversary == theirs.adversary
            assert ours.ok == theirs.ok
            assert ours.metrics == theirs.metrics
            assert ours.trace.events == theirs.trace.events


class TestTaskPickling:
    def test_a_whole_task_round_trips(self):
        from repro.runtime.backends import ExplorationTask
        from repro.runtime.kernel import StepInstance

        system = mutex_system()
        task = ExplorationTask(
            instance=StepInstance.from_system(system),
            initial=system.scheduler.capture_state(),
            invariant=mutual_exclusion_invariant,
            canonicalizer=build_canonicalizer(system),
            max_states=100,
            max_depth=100,
        )
        copy = pickle.loads(pickle.dumps(task))
        assert copy.initial == task.initial
        original = task.canonicalizer.key_of_state(task.initial)
        assert copy.canonicalizer.key_of_state(copy.initial) == original
        # The unpickled canonicalizer has no live scheduler to read.
        with pytest.raises(RuntimeError, match="key_of_state"):
            copy.canonicalizer.key_of()
