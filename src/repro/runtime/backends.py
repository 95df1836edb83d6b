"""Pluggable exploration backends over the value-state kernel.

PR 2 made the walk symmetry-reduced; this module makes it *retargetable*.
An :class:`ExplorationBackend` receives an :class:`ExplorationTask` — the
pure ``(instance, initial state, invariant, canonicalizer, budgets)``
value — and returns an
:class:`~repro.runtime.exploration.ExplorationResult`.  Nothing in a task
is live: no scheduler, no memory, no locks.  Two backends ship — this
module's interpreter and :mod:`repro.runtime.compiled`'s packed walker:

:class:`SerialBackend`
    The seed explorer's depth-first walk, re-expressed over
    :func:`~repro.runtime.kernel.step_value` instead of
    restore → step → capture on a shared scheduler.  Same visit order,
    same dedup rule, same acceleration, same counters — bit-identical
    results (the differential tests in
    ``tests/runtime/test_exploration_differential.py`` pin this) — but
    the system is never mutated and successor capture is free value
    passing.  It is the differential oracle of the default engine, the
    packed walker :class:`~repro.runtime.compiled.CompiledBackend`;
    tests and benchmarks reach it by passing an instance to
    ``explore``.

A backend instance is the only meaning of "backend" in the package:
``explore(backend=...)`` and ``RunRequest.backend`` take one (or ``None``
for the packed walker).  Nothing here crosses a process boundary; the
sweep farm (:mod:`repro.farm`) is the one multi-process path, and it
ships JSON grid configs and sqlite rows, not Python objects.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Protocol, Tuple

from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.canonical import Canonicalizer, CanonicalKey
from repro.runtime.exploration import ExplorationResult
from repro.runtime.kernel import (
    GlobalState,
    StateView,
    StepInstance,
    all_settled,
    enabled_pids,
    step_value,
)
from repro.types import ProcessId

#: An invariant over the duck-typed system surface (live ``System`` or
#: value :class:`~repro.runtime.kernel.StateView`).
Invariant = Callable[[Any], Optional[str]]


@dataclass
class ExplorationTask:
    """Everything a backend needs to run one bounded exploration.

    A pure value: picklable, scheduler-free, reusable.  ``initial`` is
    the state the walk starts from (usually the system's initial state);
    the canonicalizer supplies the dedup keys and must have been built
    for the same instance.
    """

    instance: StepInstance
    initial: GlobalState
    #: ``None`` checks no safety invariant.
    invariant: Optional[Invariant]
    canonicalizer: Canonicalizer
    max_states: int
    max_depth: int
    #: Retain the full labelled successor relation as a
    #: :class:`~repro.verify.graph.StateGraph` on the result.  Only
    #: sound under a trivial canonicalizer (``explore()`` enforces
    #: this); see :mod:`repro.verify.graph` for why.
    retain_graph: bool = False


class ExplorationBackend(Protocol):
    """The strategy interface :func:`repro.runtime.exploration.explore`
    delegates the actual walk to."""

    #: Short name recorded in results and benchmark records.
    name: str

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        """Explore ``task`` and return the outcome.

        ``telemetry`` is an optional observability hook; backends must
        produce identical results whether it is the null sink or a
        recording one (telemetry observes the walk, never steers it).
        """
        ...


# ---------------------------------------------------------------------------
# Serial backend — the seed DFS over value states
# ---------------------------------------------------------------------------


class SerialBackend:
    """Depth-first search over value states; the reference semantics.

    Visit order, deduplication, inert-self-loop acceleration, budget
    handling and all counters match the historical scheduler-mutating
    explorer exactly — only the mechanics changed (pure
    :func:`~repro.runtime.kernel.step_value` transitions instead of
    restore/step/capture, :class:`~repro.runtime.kernel.StateView`
    invariant evaluation instead of a live system).
    """

    name = "serial"

    #: Emit one progress event per this many popped states (power of
    #: two: the hot-loop check is a single mask).  Class attribute so
    #: tests can lower it to exercise the progress path on toy walks.
    progress_interval = 8192

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        instance = task.instance
        canonicalizer = task.canonicalizer
        invariant = task.invariant
        max_states = task.max_states
        max_depth = task.max_depth
        slot_of = instance.slot_of
        # Hoisted once: with the null sink the per-state telemetry cost
        # is a single short-circuited local-bool test.
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1

        initial = task.initial
        initial_key, initial_raw = canonicalizer.key_of_state(initial)
        #: canonical key -> raw key of the representative that claimed
        #: it; with a retained graph (trivial keys only), the node
        #: ordinal, which is ``len(visited)`` when the state is first seen.
        visited: Dict[CanonicalKey, Any] = {initial_key: initial_raw}
        recorder = None
        if task.retain_graph:
            # Imported lazily: repro.verify sits above the runtime layer.
            from repro.verify.graph import GraphRecorder, StateInterner

            interner = StateInterner(len(initial[1]))
            recorder = GraphRecorder(
                len(initial[0]), interner.values, interner.entries, canonicalizer
            )
            recorder.add_row(interner.pack(initial))
            visited[initial_key] = 0
        # Each frame: (state, depth, parent link, raw key).  The link is
        # a structure-sharing chain (parent_link, pid) so path
        # reconstruction costs O(depth) only when a violation is found.
        stack: List[
            Tuple[GlobalState, int, Optional[Tuple[Any, ProcessId]], bytes]
        ] = [(initial, 0, None, initial_raw)]
        result = ExplorationResult(
            complete=True,
            states_explored=0,
            events_executed=0,
            max_depth_reached=0,
            group_size=canonicalizer.group_order,
        )
        started = time.perf_counter()

        def unwind(
            link: Optional[Tuple[Any, ProcessId]]
        ) -> Tuple[ProcessId, ...]:
            path: List[ProcessId] = []
            while link is not None:
                link, pid = link
                path.append(pid)
            return tuple(reversed(path))

        while stack:
            state, depth, link, state_raw = stack.pop()
            result.states_explored += 1
            if depth > result.max_depth_reached:
                result.max_depth_reached = depth
            if emit and not (result.states_explored & progress_mask):
                telemetry.gauge("explore.visited", len(visited))
                telemetry.gauge("explore.frontier", len(stack))
                telemetry.event(
                    "explore.progress",
                    states=result.states_explored,
                    frontier=len(stack),
                    visited=len(visited),
                    orbit_hits=result.orbits_collapsed,
                    depth=depth,
                )

            if invariant is not None:
                violation = invariant(StateView(instance, state))
                if violation is not None:
                    result.violation = violation
                    result.violation_schedule = unwind(link)
                    result.truncated_by = "violation"
                    break

            enabled = enabled_pids(instance, state)
            if not enabled:
                if not all_settled(state):
                    result.stuck_states += 1
                if recorder is not None:
                    recorder.expand(visited[state_raw])
                continue

            if depth >= max_depth:
                result.truncated_by = "max_depth"
                continue

            if recorder is not None:
                src = visited[state_raw]
                recorder.expand(src)
            budget_exhausted = False
            for pid in enabled:
                child = step_value(instance, state, pid)
                result.events_executed += 1
                key, raw = canonicalizer.key_of_state(child)
                step_link: Tuple[Any, ProcessId] = (link, pid)
                if raw == state_raw:
                    # Inert self-loop: the step changed nothing the
                    # canonicalizer records — no memory effect, identical
                    # footprints and flags — so the successor is
                    # bisimilar to the popped state and its steps commute
                    # with every other process.  Accelerate: keep
                    # stepping this process until something observable
                    # changes; only that exit state is a new quotient
                    # edge.  A repeated local state inside the loop is a
                    # genuine livelock within the class — nothing new is
                    # reachable.
                    slot = slot_of[pid]
                    seen_locals = {child[1][slot][1]}
                    while raw == state_raw and not (
                        child[1][slot][2] or child[1][slot][3]
                    ):
                        child = step_value(instance, child, pid)
                        result.events_executed += 1
                        step_link = (step_link, pid)
                        key, raw = canonicalizer.key_of_state(child)
                        local = child[1][slot][1]
                        if raw == state_raw:
                            if local in seen_locals:
                                break
                            seen_locals.add(local)
                    if raw == state_raw:
                        # A genuine single-step self-loop: under the
                        # trivial canonicalizer ``raw == state_raw`` on
                        # the *first* step already means the successor
                        # equals the popped state, so the loop above
                        # exits immediately and the retained edge is the
                        # one-step ``(pid, src)`` the liveness analyses
                        # need (a solo livelock in the making).
                        if recorder is not None:
                            recorder.add_edge(pid, src)
                        continue
                if recorder is not None:
                    # ``visited`` maps a state to its node ordinal; a new child
                    # gets the next ordinal and its row, and its edge is
                    # recorded, even when it trips the state budget.
                    dst = visited.get(key)
                    if dst is None:
                        dst = len(visited)
                        recorder.add_row(interner.pack(child))
                        if dst >= max_states:
                            result.truncated_by = "max_states"
                            budget_exhausted = True
                        else:
                            visited[key] = dst
                            stack.append((child, depth + 1, step_link, raw))
                    recorder.add_edge(pid, dst)
                    if budget_exhausted:
                        break
                    continue
                claimed = visited.get(key)
                if claimed is not None:
                    if claimed != raw:
                        result.orbits_collapsed += 1
                    continue
                if len(visited) >= max_states:
                    result.truncated_by = "max_states"
                    budget_exhausted = True
                    break
                visited[key] = raw
                stack.append((child, depth + 1, step_link, raw))
            if budget_exhausted:
                break

        result.complete = result.truncated_by is None
        result.peak_visited = len(visited)
        if recorder is not None:
            result.graph = recorder.finish(result.complete)
        result.wall_seconds = time.perf_counter() - started
        if emit:
            telemetry.gauge("explore.visited", len(visited))
            telemetry.gauge("explore.frontier", len(stack))
            telemetry.count("explore.events", result.events_executed)
            telemetry.count("explore.orbit_hits", result.orbits_collapsed)
        return result
