"""Bounded exhaustive exploration — a small explicit-state model checker.

Randomised adversaries sample the schedule space; for the safety theorems
(mutual exclusion, agreement, uniqueness) we can do better on small
instances: enumerate **every** reachable global state.  Because automata
keep their local state in immutable dataclasses, a global state is
hashable (§6.1's "values of the registers and the location counters"),
so a depth-first search with state deduplication is sound and, when it
reaches a fixpoint within its budgets, *complete*: the checked invariant
then provably holds on every schedule of that instance.

This is how the reproduction turns Theorem 3.2 ("the algorithm satisfies
mutual exclusion") from a sampled claim into an exhaustively verified one
for concrete (n, m, naming) instances.

Deduplication is delegated to a
:class:`~repro.runtime.canonical.Canonicalizer`: at minimum a compact
interned encoding of the raw global state, and — via
``explore(..., reduction="symmetry")`` — a quotient under the
instance's naming-automorphism group, which collapses states that
differ only by a symmetry and typically shrinks the visited set by the
group order and more (see docs/EXPLORATION.md for the soundness
argument).  The quotient walk explores *real* states (one
representative per orbit), so reported violation schedules replay
directly on a fresh system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

from repro.errors import ConfigurationError, ExplorationLimitExceeded
from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.canonical import (
    Canonicalizer,
    TrivialCanonicalizer,
    build_canonicalizer,
)
from repro.runtime.invariants import (  # noqa: F401 - re-exported
    agreement_invariant,
    conjoin,
    mutual_exclusion_invariant,
    unique_names_invariant,
    validity_invariant,
)
from repro.runtime.system import System
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (backends
    # imports ExplorationResult from here at runtime)
    from repro.request import RunRequest
    from repro.runtime.backends import ExplorationBackend
    from repro.verify.graph import StateGraph

#: An invariant receives the system (or a value-state
#: :class:`~repro.runtime.kernel.StateView`, which exposes the same
#: duck-typed read surface) in the state under check and returns ``None``
#: if the state is fine, or a human-readable description of the
#: violation.  The stock ones are
#: :class:`~repro.runtime.invariants.StateInvariant` declarations.
Invariant = Callable[[System], Optional[str]]


@dataclass
class ExplorationResult:
    """Outcome of a bounded exhaustive exploration.

    Two orthogonal axes describe the outcome:

    * ``violation`` / :attr:`ok` — whether the invariant failed in some
      reached state;
    * ``complete`` / ``truncated_by`` — whether the walk reached a
      fixpoint.  **Invariant:** ``complete ⟺ truncated_by is None``,
      always.  A search stopped early — by a budget (``"max_states"``,
      ``"max_depth"``) or by a found violation (``"violation"``) — has
      explored a strict under-approximation of the reachable space, so
      its ``complete`` is False even though its verdict may already be
      final.

    ``exhaustive-ok`` therefore means exactly: every reachable state
    (up to the canonicalizer's symmetry quotient) satisfies the
    invariant.
    """

    #: True when the reachable state space was fully explored within the
    #: budgets — the invariant then holds on *all* schedules.  Always
    #: equal to ``truncated_by is None``.
    complete: bool
    #: Number of distinct global states visited (orbit representatives
    #: when symmetry reduction is active).
    states_explored: int
    #: Total scheduler events executed (includes re-exploration work).
    events_executed: int
    #: Deepest schedule prefix reached.
    max_depth_reached: int
    #: Description of the first invariant violation found, if any.
    violation: Optional[str] = None
    #: The schedule (sequence of pids) reproducing the violation.
    violation_schedule: Optional[Tuple[ProcessId, ...]] = None
    #: Terminal states (no process enabled) that are not *settled*
    #: (halted or crashed).  Provably 0 under the current process model
    #: (enabled ⟺ neither halted nor crashed); counted defensively so a
    #: future model with disabled-but-unsettled processes (blocked,
    #: waiting) cannot be silently under-explored.
    stuck_states: int = 0
    #: What stopped the search before it exhausted the reachable states:
    #: ``"max_states"``, ``"max_depth"``, ``"violation"``, or ``None``
    #: (fixpoint reached — the search is complete).
    truncated_by: Optional[str] = None
    #: Successor encounters whose state was new but whose symmetry orbit
    #: was already visited — the work the quotient saved.  Always 0 under
    #: a trivial canonicalizer.
    orbits_collapsed: int = 0
    #: Order of the symmetry group the canonicalizer reduced by (1 when
    #: trivial).
    group_size: int = 1
    #: Wall-clock duration of the walk, in seconds.
    wall_seconds: float = 0.0
    #: Final size of the visited table (canonical keys), the walk's
    #: peak memory driver.
    peak_visited: int = 0
    #: Name of the backend that ran the walk (``"compiled"`` for the
    #: default packed walker, ``"serial"`` for the interpreter oracle).
    backend: str = "compiled"
    #: Local states the packed walker interned, per slot (empty for the
    #: interpreter oracle).  After a complete trivial-dedup walk these
    #: are exactly the local states occurring in the visited set.
    interned_locals: Tuple[int, ...] = ()
    #: Register values the packed walker interned (0 for the oracle).
    interned_values: int = 0
    #: The retained :class:`~repro.verify.graph.StateGraph` when the
    #: walk ran with ``retain_graph=True`` (else ``None``).  On complete
    #: runs the graph is byte-identical across backends; liveness
    #: verification (:mod:`repro.verify.liveness`) consumes it.
    graph: Optional["StateGraph"] = None

    @property
    def ok(self) -> bool:
        """True when no violation was found."""
        return self.violation is None

    @property
    def states_per_second(self) -> Optional[float]:
        """Exploration throughput, or ``None`` when the walk finished
        below timer resolution (a 0-second walk has no meaningful rate;
        reporting 0.0 would silently record the *worst* possible
        throughput for the *fastest* possible walk)."""
        if self.wall_seconds <= 0.0:
            return None
        return self.states_explored / self.wall_seconds

    def summary(self) -> str:
        """One-line report for experiment tables."""
        status = "VIOLATION" if self.violation else (
            "exhaustive-ok" if self.complete else "bounded-ok"
        )
        line = (
            f"{status}: {self.states_explored} states, "
            f"{self.events_executed} events, depth<={self.max_depth_reached}"
        )
        if self.truncated_by is not None and self.truncated_by != "violation":
            line += f", truncated by {self.truncated_by}"
        if self.orbits_collapsed:
            line += (
                f", {self.orbits_collapsed} orbit hits (group {self.group_size})"
            )
        if self.stuck_states:
            line += f", {self.stuck_states} stuck states"
        return line


def explore(
    system: System,
    invariant: Optional[Invariant],
    max_states: int = 500_000,
    max_depth: int = 10_000,
    raise_on_truncation: bool = False,
    canonicalizer: Optional[Canonicalizer] = None,
    backend: Optional["ExplorationBackend"] = None,
    *,
    reduction: Optional[str] = None,
    telemetry: Optional[TelemetrySink] = None,
    footprints: bool = True,
    max_group: int = 720,
    retain_graph: bool = False,
    request: Optional["RunRequest"] = None,
) -> ExplorationResult:
    """Exhaustively explore ``system``'s reachable states, checking
    ``invariant`` in each.  The single public exploration entrypoint.

    The walk runs entirely over *value* states: the system's current
    state is captured once as the initial state and ``system`` itself is
    never stepped, mutated or rewound — in particular its
    ``record_trace`` flag and trace are left exactly as the caller set
    them (historically this function force-flipped ``record_trace`` to
    False and left it that way; the value-state kernel made the whole
    concern moot).  Invariants are evaluated against a read-only
    :class:`~repro.runtime.kernel.StateView`, which duck-types the
    ``system.scheduler.*`` / ``system.inputs`` surface the stock
    invariants (and the lint passes' custom collectors) read.

    Parameters
    ----------
    system:
        The configured :class:`~repro.runtime.system.System` to explore.
    invariant:
        Checked in every reached representative state; the first
        violation stops the search and is reported with a reproducing
        schedule (replayable from the initial state, e.g. via
        :func:`repro.runtime.replay.replay_schedule`).  ``None`` checks
        no safety invariant.  With symmetry reduction active the
        invariant must be symmetric — indifferent to the renamings the
        group applies (all stock invariants are).
    max_states / max_depth:
        Search budgets.  Hitting ``max_states`` stops the walk
        immediately; hitting ``max_depth`` prunes deeper exploration
        only.  Either way the result has ``complete=False`` and
        ``truncated_by`` set (``raise_on_truncation`` optionally turns
        budget truncation into
        :class:`~repro.errors.ExplorationLimitExceeded`).
    reduction:
        State-space quotient selector: ``"none"`` (the default — plain
        compact dedup of raw states) or ``"symmetry"`` (the strongest
        sound canonicalizer for this system, built via
        :func:`~repro.runtime.canonical.build_canonicalizer` with
        ``footprints``/``max_group`` — typically shrinks the visited
        set by the naming-automorphism group order and more).  Mutually
        exclusive with ``canonicalizer``.
    canonicalizer:
        Explicit state-keying strategy for callers that need one beyond
        the two ``reduction`` presets (the benchmark harness compares
        engines this way).  Must have been built for this ``system``'s
        scheduler.
    backend:
        The :class:`~repro.runtime.backends.ExplorationBackend` instance
        that runs the walk.  Defaults to the packed walker,
        :class:`~repro.runtime.compiled.CompiledBackend`: a depth-first
        walk over lazily interned integer states whose results —
        verdict, counters, violation schedule, retained
        ``StateGraph.to_bytes()`` — are bit-identical to the
        interpreter's.  Pass :class:`~repro.runtime.backends.SerialBackend`
        to run the interpreter itself, the differential oracle.
    telemetry:
        A :class:`~repro.obs.telemetry.TelemetrySink` receiving phase
        timers (canonicalizer build, walk), visited/frontier gauges and
        periodic progress events.  Defaults to the shared
        :data:`~repro.obs.telemetry.NULL_TELEMETRY`, which disables all
        recording; results are identical either way (pinned by the
        differential tests in ``tests/obs/test_telemetry.py``).
    footprints / max_group:
        Forwarded to the canonicalizer builder when
        ``reduction="symmetry"``; ignored (and unvalidated) otherwise.
    request:
        A :class:`~repro.request.RunRequest` carrying the execution
        fields (``backend``, ``max_states``, ``telemetry``) as one value — the unified spelling shared with
        ``verify_instance``/``sweep_problem``/``run_farm``/``run_fuzz``.
        Request fields win over the keyword defaults; a keyword
        explicitly contradicting a set request field raises
        :class:`~repro.errors.ConfigurationError`.
    retain_graph:
        Record the full labelled successor relation during the walk and
        attach it to the result as
        :attr:`ExplorationResult.graph` (a
        :class:`~repro.verify.graph.StateGraph`).  Requires the trivial
        canonicalizer: under a symmetry quotient the node set depends on
        which orbit representatives the visit order happens to claim and
        the edge pid labels are only correct up to a group element, so a
        quotient graph is sound for *safety* verdicts but not for the
        per-pid fairness analysis the graph exists to feed (see
        :mod:`repro.verify.graph`).  Passing
        ``reduction="symmetry"`` or a non-trivial canonicalizer together
        with ``retain_graph=True`` raises
        :class:`~repro.errors.ConfigurationError`.
    """
    # Imported here, not at module top: backends imports
    # ExplorationResult from this module.
    from repro.runtime.backends import ExplorationTask
    from repro.runtime.kernel import StepInstance

    if request is not None:
        backend = request.merged("backend", backend)
        max_states = request.merged("max_states", max_states, default=500_000)
        telemetry = request.merged("telemetry", telemetry)
    if telemetry is None:
        telemetry = NULL_TELEMETRY
    scheduler = system.scheduler
    if reduction is not None and canonicalizer is not None:
        raise ConfigurationError(
            "pass either reduction= or canonicalizer=, not both "
            f"(got reduction={reduction!r} and an explicit canonicalizer)"
        )
    if canonicalizer is None:
        if reduction in (None, "none"):
            canonicalizer = TrivialCanonicalizer(scheduler)
        elif reduction == "symmetry":
            with telemetry.phase("explore.build_canonicalizer"):
                canonicalizer = build_canonicalizer(
                    system, footprints=footprints, max_group=max_group
                )
        else:
            raise ConfigurationError(
                f"unknown reduction {reduction!r}; expected 'symmetry' or 'none'"
            )
    if retain_graph and not isinstance(canonicalizer, TrivialCanonicalizer):
        raise ConfigurationError(
            "retain_graph=True requires the trivial canonicalizer "
            "(reduction='none'): a symmetry-quotient graph's node set "
            "depends on which orbit representatives the visit order "
            "claims, and its edge pid labels are only correct up to a "
            "group element — unsound for the liveness analyses the "
            "graph feeds (see repro.verify.graph)"
        )
    if backend is None:
        # Imported here: the packed walker imports this module.
        from repro.runtime.compiled import CompiledBackend

        backend = CompiledBackend()
    elif isinstance(backend, str):
        raise ConfigurationError(
            f"backend must be an ExplorationBackend instance, got {backend!r}"
        )

    task = ExplorationTask(
        instance=StepInstance.from_system(system),
        initial=scheduler.capture_state(),
        invariant=invariant,
        canonicalizer=canonicalizer,
        max_states=max_states,
        max_depth=max_depth,
        retain_graph=retain_graph,
    )
    if telemetry.enabled:
        telemetry.gauge("explore.group_size", canonicalizer.group_order)
        telemetry.event(
            "explore.start",
            engine=backend.name,
            reduction="none" if isinstance(
                canonicalizer, TrivialCanonicalizer
            ) else "symmetry",
            max_states=max_states,
            max_depth=max_depth,
        )
    with telemetry.phase("explore.walk"):
        result = backend.run(task, telemetry=telemetry)
    result.backend = backend.name
    if telemetry.enabled:
        telemetry.gauge("explore.states", result.states_explored)
        telemetry.gauge("explore.peak_visited", result.peak_visited)
        telemetry.gauge("explore.orbit_hits", result.orbits_collapsed)
        for slot, count in enumerate(result.interned_locals):
            telemetry.gauge(f"explore.interned_locals.{slot}", count)
        if result.interned_locals:
            telemetry.gauge("explore.interned_values", result.interned_values)
        if result.graph is not None:
            telemetry.gauge("explore.retained_edges", result.graph.edge_count)
        telemetry.event(
            "explore.done",
            verdict="violation" if not result.ok else (
                "exhaustive-ok" if result.complete else "bounded-ok"
            ),
            states=result.states_explored,
            events=result.events_executed,
            truncated_by=result.truncated_by,
        )
    if raise_on_truncation and result.truncated_by in ("max_states", "max_depth"):
        raise ExplorationLimitExceeded(
            f"exploration truncated by {result.truncated_by}; "
            f"{result.states_explored} states visited"
        )
    return result
