"""The stock safety invariants, each declared once.

A :class:`StateInvariant` states a safety property in two parts:

* :meth:`~StateInvariant.fact` — what one process contributes, from its
  automaton, local state and halted flag, or ``None`` if it contributes
  nothing;
* :meth:`~StateInvariant.verdict` — the violation message over the
  facts of the contributing processes (keyed by pid, ascending) and the
  instance inputs, or ``None``.

Every checking surface derives from those two methods:

* **the interpreter** — calling the invariant on a live
  :class:`~repro.runtime.system.System` or a value-state
  :class:`~repro.runtime.kernel.StateView` computes the facts over
  ``system.scheduler.runtimes()`` and returns their verdict;
* **the packed walker** — :mod:`repro.runtime.compiled` tabulates, per
  (slot, local state), whether the process's fact *alone* is fine or
  already fails, and hands the real invariant only the states where two
  facts meet or one fails alone;
* **the sweep farm** — a run cell checks the packed flag tables on every
  state its schedule reaches; a cell they flag, or one that ends with a
  halted process :meth:`~StateInvariant.hidden_at_halt` names, is
  re-run live, where :meth:`~StateInvariant.trace_checkers` names the
  :mod:`repro.spec` checkers that test the same property on the
  recorded trace.

Declarations are plain module-level classes, so every invariant here
pickles under any ``multiprocessing`` start method.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.types import ProcessId

#: A fact set: one entry per contributing process, in ascending pid order.
Facts = Dict[ProcessId, Any]


class StateInvariant:
    """A safety invariant declared by per-process facts and a verdict.

    Subclasses implement :meth:`fact` and :meth:`verdict`, and
    :meth:`trace_checkers` when a trace checker tests the same property.
    Both methods must be pure functions of their arguments.  A custom
    invariant declared this way gets the packed walker's fact tables;
    a plain callable is evaluated on every state instead.
    """

    def fact(self, automaton: Any, local: Any, halted: bool) -> Any:
        """One process's contribution, or ``None`` for none."""
        raise NotImplementedError

    def verdict(self, facts: Facts, inputs: Dict[ProcessId, Any]) -> Optional[str]:
        """The violation message over ``facts``, or ``None``."""
        raise NotImplementedError

    def trace_checkers(self, inputs: Dict[ProcessId, Any]) -> List[Any]:
        """The :mod:`repro.spec` trace checkers for this property."""
        return []

    def hidden_at_halt(self, automaton: Any, local: Any) -> bool:
        """Whether a process halted in ``local`` can still fail the trace
        checkers although its fact does not show it — the one place a
        trace and a per-state check of the same property may part."""
        return False

    def __call__(self, system: Any) -> Optional[str]:
        facts: Facts = {}
        for pid, runtime in system.scheduler.runtimes():
            fact = self.fact(runtime.automaton, runtime.state, runtime.halted)
            if fact is not None:
                facts[pid] = fact
        return self.verdict(facts, system.inputs)


class MutualExclusion(StateInvariant):
    """At most one process inside its critical section (§3.1).

    Requires the automata to expose ``in_critical_section(state)`` (all
    mutex automata in this library do, via
    :class:`repro.core.mutex.MutexAutomatonMixin`).
    """

    def fact(self, automaton: Any, local: Any, halted: bool) -> Any:
        if not halted and automaton.in_critical_section(local):
            return True
        return None

    def verdict(self, facts: Facts, inputs: Dict[ProcessId, Any]) -> Optional[str]:
        if len(facts) > 1:
            return (
                f"processes {list(facts)} are in the critical section "
                "simultaneously"
            )
        return None

    def trace_checkers(self, inputs: Dict[ProcessId, Any]) -> List[Any]:
        from repro.spec.mutex_spec import MutualExclusionChecker

        return [MutualExclusionChecker()]

    def hidden_at_halt(self, automaton: Any, local: Any) -> bool:
        # Halting inside the CS leaves the trace's interval open for
        # good, while the fact drops every halted process.
        return bool(automaton.in_critical_section(local))


class _Decisions(StateInvariant):
    """A halted process's non-``None`` output is its fact."""

    def fact(self, automaton: Any, local: Any, halted: bool) -> Any:
        return automaton.output(local) if halted else None


class Agreement(_Decisions):
    """All halted processes decided the same value (§4)."""

    def verdict(self, facts: Facts, inputs: Dict[ProcessId, Any]) -> Optional[str]:
        if len(set(facts.values())) > 1:
            return f"conflicting decisions: {facts}"
        return None

    def trace_checkers(self, inputs: Dict[ProcessId, Any]) -> List[Any]:
        from repro.spec.consensus_spec import AgreementChecker

        return [AgreementChecker()]


class Validity(_Decisions):
    """Every decision equals some participant's input (§4)."""

    def verdict(self, facts: Facts, inputs: Dict[ProcessId, Any]) -> Optional[str]:
        legal = set(inputs.values())
        for pid, out in facts.items():
            if out not in legal:
                return f"process {pid} decided {out!r}, not an input ({legal})"
        return None

    def trace_checkers(self, inputs: Dict[ProcessId, Any]) -> List[Any]:
        from repro.spec.consensus_spec import ValidityChecker

        return [ValidityChecker(inputs)]


class UniqueNames(_Decisions):
    """No two halted processes hold the same new name, and all names
    are within ``{1..n}`` (§5, Theorem 5.2)."""

    def verdict(self, facts: Facts, inputs: Dict[ProcessId, Any]) -> Optional[str]:
        names = list(facts.values())
        if len(set(names)) != len(names):
            return f"duplicate names acquired: {facts}"
        n = len(inputs)
        bad = {pid: name for pid, name in facts.items() if not 1 <= name <= n}
        if bad:
            return f"names outside 1..{n}: {bad}"
        return None

    def trace_checkers(self, inputs: Dict[ProcessId, Any]) -> List[Any]:
        from repro.spec.renaming_spec import NameRangeChecker, UniqueNamesChecker

        return [UniqueNamesChecker(), NameRangeChecker(bound=len(list(inputs)))]


def _first_violation(
    invariants: Sequence[Callable[[Any], Optional[str]]], system: Any
) -> Optional[str]:
    for invariant in invariants:
        message = invariant(system)
        if message is not None:
            return message
    return None


class Conjunction(StateInvariant):
    """Declared invariants that must all hold.

    A process's fact is the tuple of its member facts, so the packed
    walker's flag for it is the largest of the members' flags.  Called
    directly, it evaluates the members in order, each as it would run
    alone, and reports the first violation.
    """

    def __init__(self, invariants: Sequence[StateInvariant]) -> None:
        self.invariants = tuple(invariants)

    def fact(self, automaton: Any, local: Any, halted: bool) -> Any:
        facts = tuple(inv.fact(automaton, local, halted) for inv in self.invariants)
        return None if all(f is None for f in facts) else facts

    def verdict(self, facts: Facts, inputs: Dict[ProcessId, Any]) -> Optional[str]:
        for i, inv in enumerate(self.invariants):
            member = {pid: f[i] for pid, f in facts.items() if f[i] is not None}
            message = inv.verdict(member, inputs)
            if message is not None:
                return message
        return None

    def trace_checkers(self, inputs: Dict[ProcessId, Any]) -> List[Any]:
        return [c for inv in self.invariants for c in inv.trace_checkers(inputs)]

    def hidden_at_halt(self, automaton: Any, local: Any) -> bool:
        return any(inv.hidden_at_halt(automaton, local) for inv in self.invariants)

    def __call__(self, system: Any) -> Optional[str]:
        return _first_violation(self.invariants, system)


def conjoin(
    *invariants: Callable[[Any], Optional[str]]
) -> Callable[[Any], Optional[str]]:
    """Combine invariants; reports the first violation among them.

    Declared members make a declared :class:`Conjunction`; any plain
    callable among them makes the whole conjunction a plain (picklable)
    callable, which the packed walker evaluates on every state.
    """
    if all(isinstance(inv, StateInvariant) for inv in invariants):
        return Conjunction(invariants)  # type: ignore[arg-type]
    return partial(_first_violation, invariants)


mutual_exclusion_invariant = MutualExclusion()
agreement_invariant = Agreement()
validity_invariant = Validity()
unique_names_invariant = UniqueNames()
