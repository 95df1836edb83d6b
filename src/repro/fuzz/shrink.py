"""Schedule shrinking and the pure-kernel violation oracles.

A fuzz hit arrives as a raw schedule (hundreds of steps of whatever the
strategy happened to do); what ships in a report must be the *minimal*
schedule that still exhibits the violation, because minimal schedules
are what humans read and what regression tests replay.  This module
holds both halves of that contract:

* the **oracles** — pure :func:`~repro.runtime.kernel.step_value` walks
  that decide whether a schedule (or a prefix+cycle lasso) exhibits a
  safety violation, a fair non-progress cycle (deadlock-freedom:
  :func:`~repro.verify.liveness.cycle_is_df_violation`, the definition
  ``repro.verify``'s lasso validator checks, re-exported here) or a
  solo livelock (obstruction-freedom).  The engine uses them to confirm
  candidate hits; the shrinker uses them as the predicate to preserve;
* the **shrinkers** — ddmin-style chunk removal over schedules
  (:func:`shrink_safety`) and a cycle-aware reduction for lassos
  (:func:`shrink_lasso`: collapse the cycle to its minimal repeating
  unit, drop cycle chunks, then ddmin the prefix while re-checking the
  cycle from wherever the shorter prefix lands).

Everything here is deterministic — no RNG, no wall clock — so shrunk
schedules are reproducible artefacts of the (seed, episode) that found
them.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.errors import ProtocolError, SchedulingError
from repro.runtime.kernel import (
    GlobalState,
    StepInstance,
    solo_run_value,
    step_value,
)
from repro.types import ProcessId
from repro.verify.liveness import CsLabels, cycle_is_df_violation, live_pids

__all__ = [
    "replay_values",
    "safety_message",
    "cycle_is_df_violation",
    "cycle_is_of_violation",
    "shrink_safety",
    "shrink_lasso",
]

Schedule = Tuple[ProcessId, ...]


# -- oracles -----------------------------------------------------------

def replay_values(
    instance: StepInstance,
    initial: GlobalState,
    schedule: Sequence[ProcessId],
) -> Optional[GlobalState]:
    """Walk ``schedule`` through the pure kernel; ``None`` if infeasible
    (a step targets a halted/crashed process or is otherwise rejected —
    the state shrinking has to avoid creating)."""
    state = initial
    for pid in schedule:
        try:
            state = step_value(instance, state, pid)
        except (SchedulingError, ProtocolError):
            return None
    return state


def cycle_is_of_violation(
    instance: StepInstance,
    entry: GlobalState,
    cycle: Sequence[ProcessId],
) -> bool:
    """Whether ``cycle`` is a solo livelock (obstruction-freedom hit):
    a single live process runs the whole cycle alone and returns to
    ``entry`` without settling."""
    if not cycle or len(set(cycle)) != 1:
        return False
    pid = cycle[0]
    if pid not in live_pids(instance, entry):
        return False
    final, steps, settled = solo_run_value(instance, entry, pid, len(cycle))
    return not settled and steps == len(cycle) and final == entry


def safety_message(
    instance: StepInstance,
    initial: GlobalState,
    schedule: Sequence[ProcessId],
    invariant: Callable[..., Optional[str]],
) -> Optional[str]:
    """The invariant's violation message at the end of ``schedule``
    (``None`` when the schedule is infeasible or the final state is
    clean)."""
    from repro.runtime.kernel import StateView

    state = replay_values(instance, initial, schedule)
    if state is None:
        return None
    return invariant(StateView(instance, state))


# -- ddmin -------------------------------------------------------------

def _ddmin(
    sequence: Schedule, predicate: Callable[[Schedule], bool]
) -> Schedule:
    """Classic delta-debugging minimisation: greedily drop chunks of
    halving granularity while ``predicate`` stays true.  ``predicate``
    must already hold for ``sequence``."""
    granularity = 2
    while len(sequence) >= 2:
        size = max(1, len(sequence) // granularity)
        reduced = False
        start = 0
        while start < len(sequence):
            candidate = sequence[:start] + sequence[start + size:]
            if candidate != sequence and predicate(candidate):
                sequence = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            start += size
        if not reduced:
            if size <= 1:
                break
            granularity = min(len(sequence), granularity * 2)
    return sequence


# -- the shrinkers -----------------------------------------------------

def shrink_safety(
    instance: StepInstance,
    initial: GlobalState,
    schedule: Sequence[ProcessId],
    invariant: Callable[..., Optional[str]],
) -> Schedule:
    """A minimal feasible schedule whose final state still violates
    ``invariant`` (any violation message counts — shrinking may land on
    a different, smaller witness of the same property)."""

    def still_violates(candidate: Schedule) -> bool:
        return safety_message(instance, initial, candidate, invariant) is not None

    return _ddmin(tuple(schedule), still_violates)


def _minimal_repeating_unit(
    cycle: Schedule, valid: Callable[[Schedule], bool]
) -> Schedule:
    """The shortest prefix ``u`` with ``cycle == u * k`` that is itself
    a valid cycle (lockstep livelocks are long powers of one round)."""
    length = len(cycle)
    for unit_len in range(1, length):
        if length % unit_len:
            continue
        unit = cycle[:unit_len]
        if unit * (length // unit_len) == cycle and valid(unit):
            return unit
    return cycle


def shrink_lasso(
    instance: StepInstance,
    initial: GlobalState,
    prefix: Sequence[ProcessId],
    cycle: Sequence[ProcessId],
    kind: str,
    labels: CsLabels,
) -> Tuple[Schedule, Schedule]:
    """Minimise a liveness lasso, preserving its violation ``kind``
    (``"deadlock-freedom"`` or ``"obstruction-freedom"``).

    Cycle first (entry state fixed): collapse to the minimal repeating
    unit, then ddmin chunks out of it.  Then the prefix: ddmin with the
    predicate "still feasible *and* the cycle still violates from the
    state this prefix reaches" — a shorter prefix may legitimately land
    on a different entry state of the same recurrent class.
    """
    prefix = tuple(prefix)
    cycle = tuple(cycle)

    def cycle_valid_from(entry: GlobalState, candidate: Schedule) -> bool:
        if kind == "deadlock-freedom":
            return cycle_is_df_violation(instance, entry, candidate, labels)
        return cycle_is_of_violation(instance, entry, candidate)

    entry = replay_values(instance, initial, prefix)
    assert entry is not None, "lasso prefix must be feasible"
    cycle = _minimal_repeating_unit(
        cycle, lambda unit: cycle_valid_from(entry, unit)
    )
    cycle = _ddmin(cycle, lambda unit: cycle_valid_from(entry, unit))

    def prefix_ok(candidate: Schedule) -> bool:
        reached = replay_values(instance, initial, candidate)
        return reached is not None and cycle_valid_from(reached, cycle)

    prefix = _ddmin(prefix, prefix_ok) if prefix else prefix
    # ddmin bottoms out at one element; a zero-length prefix is common
    # (livelocks reachable from the initial state), so try it explicitly.
    if prefix and prefix_ok(()):
        prefix = ()
    return prefix, cycle
