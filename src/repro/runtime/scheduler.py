"""The scheduler: executes automata against shared memory, one atomic
operation per event, under adversary control.

The paper's model (§2) assumes "a very powerful adversary, which can
determine (essentially) the order in which processes access the
registers".  The :class:`Scheduler` realises that model exactly: at each
point it asks an :class:`~repro.runtime.adversary.Adversary` which enabled
process takes the next step, performs that process's single pending
operation atomically, and records the event.

The scheduler also supports the two "outside-the-model" capabilities the
reproduction needs:

* **crashes** — the adversary may permanently stop a process
  (:meth:`Scheduler.crash`), modelling the paper's crash faults ("leaving
  the algorithm at some point and thereafter permanently refraining from
  writing the shared registers");
* **state capture/restore** — the bounded model checker and the Section 6
  covering constructions rewind runs; because automata keep all local
  state in immutable dataclasses, a captured global state is just the
  register contents plus per-process local states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.errors import ProtocolError, SchedulingError
from repro.memory.anonymous import AnonymousMemory, MemoryView
from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.automaton import LocalState, ProcessAutomaton
from repro.runtime.events import Event, Trace
from repro.runtime.kernel import GlobalState, execute_via_view
from repro.runtime.ops import ReadOp, WriteOp
from repro.types import ProcessId

__all__ = ["ProcessRuntime", "Scheduler"]


@dataclass
class ProcessRuntime:
    """Scheduler-side bookkeeping for one process."""

    automaton: ProcessAutomaton
    view: MemoryView
    state: LocalState
    halted: bool = False
    crashed: bool = False
    steps: int = 0

    @property
    def enabled(self) -> bool:
        """Whether the process can take a step."""
        return not self.halted and not self.crashed


class Scheduler:
    """Drives a set of process automata over an anonymous memory.

    Parameters
    ----------
    memory:
        The shared :class:`~repro.memory.anonymous.AnonymousMemory`.
    automata:
        Mapping from pid to that process's automaton.  Every pid must have
        a view in ``memory``.
    record_trace:
        When False, events are not accumulated (used by the model checker,
        which replays millions of short runs and only needs final states).
    telemetry:
        Optional :class:`~repro.obs.telemetry.TelemetrySink` receiving
        per-step counters (``scheduler.steps`` / ``.reads`` /
        ``.writes`` / ``.halts``) and the register-contention counter
        ``scheduler.contended_accesses`` — accesses to a physical
        register whose previous access came from a *different* process.
        Defaults to the shared null sink (no recording, no overhead
        beyond one flag test per step).
    """

    def __init__(
        self,
        memory: AnonymousMemory,
        automata: Dict[ProcessId, ProcessAutomaton],
        record_trace: bool = True,
        telemetry: Optional[TelemetrySink] = None,
    ):
        self.memory = memory
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: physical register index -> pid of its last accessor; only
        #: maintained while telemetry is enabled (contention counter).
        self._last_accessor: Dict[int, ProcessId] = {}
        self._runtimes: Dict[ProcessId, ProcessRuntime] = {}
        for pid, automaton in automata.items():
            view = memory.view(pid)
            state = automaton.initial_state()
            self._runtimes[pid] = ProcessRuntime(
                automaton=automaton,
                view=view,
                state=state,
                # Degenerate but legal: an automaton may halt without
                # taking a single step (e.g. a 1-process renaming chain).
                halted=automaton.is_halted(state),
            )
        self.record_trace = record_trace
        self.trace = Trace(
            pids=tuple(automata),
            register_count=memory.size,
            initial_values=memory.snapshot(),
            naming_description=memory.naming.describe(),
        )
        self._seq = 0
        if record_trace:
            for pid, rt in self._runtimes.items():
                if rt.halted:
                    self.trace.record_halt(pid, rt.automaton.output(rt.state))

    # -- inspection (adversary/checker-facing) -----------------------------

    @property
    def pids(self) -> Tuple[ProcessId, ...]:
        """All process ids managed by this scheduler."""
        return tuple(self._runtimes)

    @property
    def steps_so_far(self) -> int:
        """Total events executed."""
        return self._seq

    def runtime(self, pid: ProcessId) -> ProcessRuntime:
        """Bookkeeping record for ``pid`` (read-only use expected)."""
        try:
            return self._runtimes[pid]
        except KeyError:
            raise SchedulingError(f"unknown process id {pid!r}") from None

    def runtimes(self) -> Iterator[Tuple[ProcessId, ProcessRuntime]]:
        """All ``(pid, runtime)`` pairs in ascending pid order.

        The supported way for invariants and inspection code to sweep
        every process (read-only use expected) — callers should not
        reach into the private runtime table.
        """
        return iter(sorted(self._runtimes.items()))

    def enabled_pids(self) -> Tuple[ProcessId, ...]:
        """Processes that can take a step (not halted, not crashed)."""
        return tuple(pid for pid, rt in self._runtimes.items() if rt.enabled)

    def all_halted(self) -> bool:
        """True when no process is enabled anymore."""
        return not self.enabled_pids()

    def all_settled(self) -> bool:
        """True when every process has halted or crashed.

        Under the current process model this coincides with
        :meth:`all_halted` (enabled ⟺ neither halted nor crashed), but
        the two express different questions: "is nobody runnable?"
        versus "has every process reached a final status?".  The
        explorers ask the second and count any terminal-but-unsettled
        state as stuck — a defensive guard that fires only if the two
        notions ever diverge (e.g. a process model with blocked/waiting
        states).  The value-state analogue for exploration backends is
        :func:`repro.runtime.kernel.all_settled`.
        """
        return all(
            rt.halted or rt.crashed for rt in self._runtimes.values()
        )

    def output_of(self, pid: ProcessId) -> Any:
        """Output of a halted process."""
        rt = self.runtime(pid)
        if not rt.halted:
            raise SchedulingError(f"process {pid} has not halted")
        return rt.automaton.output(rt.state)

    def outputs(self) -> Dict[ProcessId, Any]:
        """Outputs of all halted processes."""
        return {
            pid: rt.automaton.output(rt.state)
            for pid, rt in self._runtimes.items()
            if rt.halted
        }

    def pending_op(self, pid: ProcessId):
        """The operation ``pid`` would perform next, or None if not enabled."""
        rt = self.runtime(pid)
        if not rt.enabled:
            return None
        return rt.automaton.next_op(rt.state)

    def covered_register(self, pid: ProcessId) -> Optional[int]:
        """Physical register covered by ``pid`` (§6.1), or None."""
        from repro.runtime.automaton import pending_write_target

        rt = self.runtime(pid)
        if not rt.enabled:
            return None
        return pending_write_target(rt.automaton, rt.state, rt.view)

    # -- execution ----------------------------------------------------------

    def step(self, pid: ProcessId) -> Event:
        """Execute ``pid``'s single pending operation atomically.

        The scheduler is a stateful façade over the value-state kernel:
        the transition itself is computed by
        :func:`repro.runtime.kernel.execute_via_view` (the same core the
        exploration backends run purely over value states), and this
        method only adds what a *live* run has that a value walk does
        not — the event sequence, trace recording and per-process step
        counters.
        """
        rt = self.runtime(pid)
        if rt.crashed:
            raise SchedulingError(f"process {pid} has crashed and cannot step")
        if rt.halted:
            raise SchedulingError(f"process {pid} has halted and cannot step")

        op, physical_index, result, new_state, halted = execute_via_view(
            rt.automaton, rt.state, rt.view
        )

        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.count("scheduler.steps")
            if isinstance(op, ReadOp):
                telemetry.count("scheduler.reads")
            elif isinstance(op, WriteOp):
                telemetry.count("scheduler.writes")
            if physical_index is not None:
                previous = self._last_accessor.get(physical_index)
                if previous is not None and previous != pid:
                    telemetry.count("scheduler.contended_accesses")
                self._last_accessor[physical_index] = pid
            if halted:
                telemetry.count("scheduler.halts")

        phase_fn = getattr(rt.automaton, "phase", None)
        event = Event(
            seq=self._seq,
            pid=pid,
            op=op,
            physical_index=physical_index,
            result=result,
            phase=phase_fn(rt.state) if callable(phase_fn) else None,
        )
        self._seq += 1
        if self.record_trace:
            self.trace.append(event)

        rt.state = new_state
        rt.steps += 1
        if halted:
            rt.halted = True
            if self.record_trace:
                self.trace.record_halt(pid, rt.automaton.output(rt.state))
        return event

    def crash(self, pid: ProcessId) -> None:
        """Permanently stop ``pid`` (adversarial crash fault)."""
        rt = self.runtime(pid)
        if rt.halted:
            raise SchedulingError(f"process {pid} already halted; cannot crash")
        rt.crashed = True
        if self.record_trace:
            self.trace.record_crash(pid)

    def run(self, adversary, max_steps: int = 100_000) -> Trace:
        """Run under ``adversary`` until it stops, all halt, or the budget
        is exhausted.  Returns the finished trace."""
        adversary.reset()
        stop_reason = "max-steps"
        while self._seq < max_steps:
            enabled = self.enabled_pids()
            if not enabled:
                stop_reason = "all-halted"
                break
            pid = adversary.choose(self)
            if pid is None:
                stop_reason = "adversary-stop"
                break
            if pid not in enabled:
                raise SchedulingError(
                    f"adversary chose {pid!r}, which is not enabled "
                    f"(enabled: {list(enabled)})"
                )
            event = self.step(pid)
            adversary.observe(event, self)
        self.trace.final_values = self.memory.snapshot()
        self.trace.stop_reason = stop_reason
        return self.trace

    # -- capture / restore (model checker & covering constructions) ---------

    def capture_state(self) -> GlobalState:
        """Snapshot the global state (registers + local states + status)."""
        locals_part = tuple(
            (pid, rt.state, rt.halted, rt.crashed)
            for pid, rt in sorted(self._runtimes.items())
        )
        return (self.memory.snapshot(), locals_part)

    def restore_state(self, global_state: GlobalState) -> None:
        """Rewind to a previously captured global state.

        Traces and step counters are *not* rewound — exploration callers
        run with ``record_trace=False`` and treat counters as cumulative
        work performed, not logical time.
        """
        registers, locals_part = global_state
        self.memory.restore(registers)
        for pid, state, halted, crashed in locals_part:
            rt = self.runtime(pid)
            rt.state = state
            rt.halted = halted
            rt.crashed = crashed

    def run_schedule(self, pids: Sequence[ProcessId]) -> None:
        """Execute a fixed sequence of steps (covering-construction glue)."""
        for pid in pids:
            self.step(pid)

    def run_solo_until_halt(self, pid: ProcessId, max_steps: int = 1_000_000) -> int:
        """Let ``pid`` run alone until it halts; returns steps taken.

        The paper's obstruction-freedom scenario.  Raises
        :class:`ProtocolError` if the process exceeds ``max_steps``.
        """
        taken = 0
        rt = self.runtime(pid)
        while not rt.halted:
            if taken >= max_steps:
                raise ProtocolError(
                    f"process {pid} did not halt within {max_steps} solo steps"
                )
            self.step(pid)
            taken += 1
        return taken
