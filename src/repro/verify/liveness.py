"""Exhaustive liveness checking over retained state graphs.

The paper's liveness theorems quantify over *infinite* executions: no
fair schedule starves the Figure 1 mutex forever (Theorem 3.3), every
solo run of the Figure 2/3 algorithms terminates (Theorems 4.1, 5.1).
On the finite, complete transition system a backend retains (see
:mod:`repro.verify.graph`) both reduce to cycle analysis:

* **Deadlock-freedom.**  A violation is a *fair non-progress cycle*: a
  reachable cycle in which every live process takes a step (so a fair
  scheduler could loop it forever), no step enters the critical section,
  and some live process is in its entry section.  The checker deletes
  the progress edges (stepping pid's ``in_critical_section`` goes false
  to true), computes strongly connected components of what remains, and
  looks for an SCC whose internal edges cover the whole live set with a
  trying state inside.  No such SCC means every fair infinite execution
  enters the critical section infinitely often — the exhaustive form of
  Theorem 3.3 (and, on the even-``m`` mutant, the Theorem 3.4 livelock
  is *found* rather than assumed).
* **Obstruction-freedom.**  A violation is a solo livelock: some state
  from which one process, running alone, never halts.  Because each
  node has at most one ``p``-labelled edge, ``p``'s solo runs form a
  functional subgraph; the checker chain-walks it with memoisation and
  reports any cycle (an inert self-loop included).  No cycle for any
  process means every solo run from every reachable state terminates —
  Theorems 4.1/4.2/5.1 as exhaustive verification instead of adversary
  sampling.

Both analyses run on integers.  The graph's nodes are ordinals and its
edges CSR arrays; the labels they need — which processes are live, in
their critical section, or in their entry section — are looked up once
per distinct local state (:class:`CsLabels`, per slot) and spread over
the nodes as per-node lists and bitmasks.  The cores
(:func:`find_fair_nonprogress_cycle`, :func:`find_solo_livelock`) take
only ``(n, CSR, labels)``, so they can be checked against brute force on
synthetic graphs.

Counterexamples come back as a :class:`Lasso` — a finite prefix
schedule from the initial state plus a repeatable cycle schedule — and
are *validated before being returned*: the checker replays both parts
through the pure kernel (:func:`~repro.runtime.kernel.step_value`,
:func:`~repro.runtime.kernel.solo_run_value`) and re-checks the cycle
with :func:`cycle_is_df_violation`, the one definition of a fair
non-progress cycle (the fuzzer's oracle uses the same function).  A
lasso that fails its own replay is an internal error, never a verdict.

All checkers require a ``complete`` graph: a truncated walk is a strict
under-approximation and any liveness verdict over it would be unsound
(:class:`~repro.errors.VerificationError`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import and_, eq, ge, or_, sub
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ProtocolError, SchedulingError, VerificationError
from repro.runtime.kernel import (
    GlobalState,
    StepInstance,
    solo_run_value,
    step_value,
)
from repro.types import ProcessId
from repro.verify.graph import Entry, StateGraph


@dataclass(frozen=True)
class Lasso:
    """A replayable infinite-execution witness: finite prefix + cycle.

    ``prefix`` drives the system from the initial state to the cycle
    entry; repeating ``cycle`` from there loops forever.  Both replay
    through :func:`~repro.runtime.replay.replay_schedule` on a fresh
    system (or :func:`~repro.runtime.kernel.step_value` on values).
    """

    prefix: Tuple[ProcessId, ...]
    cycle: Tuple[ProcessId, ...]
    #: Node ordinal of the cycle entry state in the retained graph
    #: (``graph.state(entry)`` is the state).
    entry: int


@dataclass(frozen=True)
class LivenessVerdict:
    """Outcome of one exhaustive liveness check."""

    kind: str
    holds: bool
    states: int
    detail: str
    lasso: Optional[Lasso] = None


def _require_complete(graph: StateGraph, kind: str) -> None:
    if not graph.complete:
        raise VerificationError(
            f"cannot check {kind} on a truncated state graph "
            f"({len(graph)} states retained): an incomplete graph is a "
            "strict under-approximation, so any liveness verdict over "
            "it would be unsound — raise the verification state budget"
        )


def live_pids(
    instance: StepInstance, state: GlobalState
) -> Tuple[ProcessId, ...]:
    """Processes neither halted nor crashed, in scheduler order."""
    locals_part = state[1]
    slot_of = instance.slot_of
    return tuple(
        pid
        for pid in instance.pid_order
        if not (locals_part[slot_of[pid]][2] or locals_part[slot_of[pid]][3])
    )


def _replay(
    instance: StepInstance,
    state: GlobalState,
    schedule: Tuple[ProcessId, ...],
) -> GlobalState:
    for pid in schedule:
        state = step_value(instance, state, pid)
    return state


# ---------------------------------------------------------------------------
# The deadlock-freedom predicate
# ---------------------------------------------------------------------------


class CsLabels:
    """``in_critical_section`` / ``phase``, memoised per (slot, local).

    The one definition of the deadlock-freedom labels, shared by the
    graph checker (which spreads them over node ordinals) and the
    fuzzer's cycle oracle (which asks about value states).
    ``supported`` reports whether every automaton exposes both hooks
    (mutex-style automata only); ``unsupported`` lists the pids whose
    automaton does not.
    """

    def __init__(self, instance: StepInstance) -> None:
        self.instance = instance
        self.unsupported = [
            pid
            for pid in instance.pid_order
            if not (
                hasattr(instance.automata[pid], "in_critical_section")
                and hasattr(instance.automata[pid], "phase")
            )
        ]
        self.supported = not self.unsupported
        slots = len(instance.pid_order)
        self._autos: List[Any] = [None] * slots
        for pid, slot in instance.slot_of.items():
            self._autos[slot] = instance.automata[pid]
        self._in_cs: List[Dict[Any, bool]] = [{} for _ in range(slots)]
        self._phase: List[Dict[Any, str]] = [{} for _ in range(slots)]

    def in_cs_local(self, slot: int, local: Any) -> bool:
        memo = self._in_cs[slot]
        cached = memo.get(local)
        if cached is None:
            cached = memo[local] = bool(self._autos[slot].in_critical_section(local))
        return cached

    def phase_local(self, slot: int, local: Any) -> str:
        memo = self._phase[slot]
        cached = memo.get(local)
        if cached is None:
            cached = memo[local] = self._autos[slot].phase(local)
        return cached

    def in_cs(self, state: GlobalState, pid: ProcessId) -> bool:
        slot = self.instance.slot_of[pid]
        return self.in_cs_local(slot, state[1][slot][1])

    def phase(self, state: GlobalState, pid: ProcessId) -> str:
        slot = self.instance.slot_of[pid]
        return self.phase_local(slot, state[1][slot][1])


def cycle_is_df_violation(
    instance: StepInstance,
    entry: GlobalState,
    cycle: Sequence[ProcessId],
    labels: CsLabels,
) -> bool:
    """Whether ``cycle`` from ``entry`` is a fair non-progress cycle.

    The single definition of a deadlock-freedom violation: the cycle
    closes back to ``entry``; every live process steps in it
    (fairness); no step is a critical-section *entry* (non-progress);
    and some live process is in its entry section at ``entry`` (someone
    is actually trying).  Sound: on a deadlock-free instance no cycle
    can satisfy all four, so neither the graph checker's validator nor
    the fuzzer can report a false positive.
    """
    if not cycle or not labels.supported:
        return False
    live = live_pids(instance, entry)
    if not live or not set(live) <= set(cycle):
        return False
    if not any(labels.phase(entry, pid) == "entry" for pid in live):
        return False
    state = entry
    for pid in cycle:
        try:
            successor = step_value(instance, state, pid)
        except (SchedulingError, ProtocolError):
            return False
        if not labels.in_cs(state, pid) and labels.in_cs(successor, pid):
            return False  # progress edge: someone got in
        state = successor
    return state == entry


# ---------------------------------------------------------------------------
# Integer cores
# ---------------------------------------------------------------------------


def _tarjan(
    n: int, offsets: Sequence[int], dsts: Sequence[int]
) -> Iterator[List[int]]:
    """Strongly connected components of a CSR graph, iteratively.

    Yields each component's members (in Tarjan-stack order, its root
    first) in completion order — a reverse topological order of the
    condensation.  Roots are tried in node order.
    """
    index = [-1] * n
    low = [0] * n
    cursor = list(offsets[:n])
    on_stack = bytearray(n)
    stack: List[int] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        calls = [root]
        while calls:
            node = calls[-1]
            edge = cursor[node]
            end = offsets[node + 1]
            descended = False
            while edge < end:
                dst = dsts[edge]
                edge += 1
                if index[dst] < 0:
                    cursor[node] = edge
                    index[dst] = low[dst] = counter
                    counter += 1
                    stack.append(dst)
                    on_stack[dst] = 1
                    calls.append(dst)
                    descended = True
                    break
                if on_stack[dst] and index[dst] < low[node]:
                    low[node] = index[dst]
            if descended:
                continue
            calls.pop()
            node_low = low[node]
            if node_low == index[node]:
                top = len(stack) - 1
                while stack[top] != node:
                    top -= 1
                members = stack[top:]
                del stack[top:]
                for member in members:
                    on_stack[member] = 0
                yield members
            if calls:
                parent = calls[-1]
                if node_low < low[parent]:
                    low[parent] = node_low


def _route(
    offsets: Sequence[int],
    pids: Sequence[int],
    dsts: Sequence[int],
    inside: Set[int],
    src: int,
    accept: Callable[[ProcessId, int], bool],
) -> Tuple[List[ProcessId], int]:
    """Shortest schedule from ``src`` whose final edge satisfies
    ``accept(pid, dst)``, breadth-first over the edges that stay
    ``inside`` the component."""
    parent: Dict[int, Tuple[int, ProcessId]] = {}
    queue: Deque[int] = deque([src])
    seen = {src}
    while queue:
        node = queue.popleft()
        for edge in range(offsets[node], offsets[node + 1]):
            dst = dsts[edge]
            if dst not in inside:
                continue
            pid = pids[edge]
            if accept(pid, dst):
                path: List[ProcessId] = [pid]
                cur = node
                while cur != src:
                    cur, step = parent[cur]
                    path.append(step)
                path.reverse()
                return path, dst
            if dst not in seen:
                seen.add(dst)
                parent[dst] = (node, pid)
                queue.append(dst)
    raise RuntimeError(
        "internal error: SCC routing failed — the component is not "
        "strongly connected under its internal edges"
    )


def _fair_cycle(
    offsets: Sequence[int],
    pids: Sequence[int],
    dsts: Sequence[int],
    inside: Set[int],
    start: int,
    required: Sequence[ProcessId],
) -> Tuple[ProcessId, ...]:
    """A cycle through ``start`` (within the component ``inside``) in
    which every required pid steps at least once."""
    schedule: List[ProcessId] = []
    remaining = set(required)
    cur = start
    while remaining:
        hop, cur = _route(
            offsets, pids, dsts, inside, cur, lambda p, v: p in remaining
        )
        remaining.difference_update(hop)
        schedule.extend(hop)
    if cur != start:
        hop, cur = _route(offsets, pids, dsts, inside, cur, lambda p, v: v == start)
        schedule.extend(hop)
    return tuple(schedule)


@dataclass(frozen=True)
class FairCycle:
    """A fair non-progress cycle found by :func:`find_fair_nonprogress_cycle`."""

    #: Node ordinal the cycle starts and ends at (a trying state).
    entry: int
    #: The cycle's schedule: every live pid steps, no edge is progress.
    cycle: Tuple[ProcessId, ...]
    #: The live pids of the component, in ``pid_order``.
    live: Tuple[ProcessId, ...]
    #: Size of the strongly connected component it lies in.
    component: int


def find_fair_nonprogress_cycle(
    n: int,
    offsets: Sequence[int],
    pids: Sequence[int],
    dsts: Sequence[int],
    pid_order: Sequence[ProcessId],
    in_cs: Sequence[int],
    live: Sequence[int],
    trying: Sequence[int],
) -> Tuple[Optional[FairCycle], int]:
    """The deadlock-freedom core over a CSR graph with node labels.

    The labels are per-node bitmasks over ``pid_order`` (bit ``k`` for
    ``pid_order[k]``): ``in_cs[u]`` of the processes in their critical
    section at node ``u``, ``live[u]`` of the live ones and
    ``trying[u]`` of the live ones in their entry section.

    Deletes the progress edges, walks the SCCs of what remains in
    completion order and returns the first whose internal edges step
    every live pid and which holds a trying node, as a
    :class:`FairCycle`, with the number of SCCs walked.  ``(None,
    all SCCs)`` means no fair non-progress cycle exists.
    """
    bit = {pid: 1 << k for k, pid in enumerate(pid_order)}
    # Edge-parallel lists, built by C-level maps: each edge's source,
    # its pid's bit, and whether it is kept.  A progress edge takes its
    # pid from outside the critical section (masked source label 0) to
    # inside it (masked destination label = the bit); every other edge
    # has source label >= destination label.
    srcs = list(
        chain.from_iterable(
            map(repeat, range(n), map(sub, offsets[1:], offsets[:-1]))
        )
    )
    bits = list(map(bit.__getitem__, pids))
    keep = list(
        map(
            ge,
            map(and_, map(in_cs.__getitem__, srcs), bits),
            map(and_, map(in_cs.__getitem__, dsts), bits),
        )
    )
    kept = list(accumulate(keep, initial=0))
    keep_offsets = list(map(kept.__getitem__, offsets))
    keep_pids = list(compress(pids, keep))
    keep_dsts = list(compress(dsts, keep))
    keep_srcs = list(compress(srcs, keep))
    # A one-node SCC has a cycle through it only by a kept self-loop.
    looping = set(compress(keep_srcs, map(eq, keep_srcs, keep_dsts)))

    sccs = 0
    for members in _tarjan(n, keep_offsets, keep_dsts):
        sccs += 1
        if len(members) == 1 and members[0] not in looping:
            continue  # trivial SCC: no cycle through it
        inside = set(members)
        stepped = 0
        for node in members:
            for edge in range(keep_offsets[node], keep_offsets[node + 1]):
                if keep_dsts[edge] in inside:
                    stepped |= bit[keep_pids[edge]]
        live_mask = live[members[0]]
        for node in members:
            if live[node] != live_mask:
                raise RuntimeError(
                    "internal error: live set varies within an SCC — "
                    "halted/crashed flags are supposed to be monotone"
                )
        if not live_mask or live_mask & ~stepped:
            continue  # no fair scheduler can loop here forever
        start = next((node for node in members if trying[node] & live_mask), None)
        if start is None:
            continue  # nobody trying: starving no one
        live_set = tuple(pid for pid in pid_order if bit[pid] & live_mask)
        cycle = _fair_cycle(
            keep_offsets, keep_pids, keep_dsts, inside, start, live_set
        )
        return FairCycle(start, cycle, live_set, len(members)), sccs
    return None, sccs


def find_solo_livelock(
    n: int,
    offsets: Sequence[int],
    pids: Sequence[int],
    dsts: Sequence[int],
    pid_order: Sequence[ProcessId],
) -> Optional[Tuple[ProcessId, int, int]]:
    """The obstruction-freedom core over a CSR graph.

    For each pid in order, chain-walks its functional ``pid``-edge
    subgraph from every node in node order, memoising nodes whose solo
    run settles (no ``pid`` edge).  Returns ``(pid, entry, cycle
    length)`` for the first solo cycle met, or ``None``.
    """
    for pid in pid_order:
        succ = [-1] * n
        for node in range(n):
            for edge in range(offsets[node], offsets[node + 1]):
                if pids[edge] == pid:
                    succ[node] = dsts[edge]
                    break
        settled = bytearray(n)
        position = [-1] * n
        for origin in range(n):
            if settled[origin]:
                continue
            path: List[int] = []
            cur = origin
            while cur >= 0 and not settled[cur]:
                if position[cur] >= 0:
                    return pid, cur, len(path) - position[cur]
                position[cur] = len(path)
                path.append(cur)
                cur = succ[cur]
            for node in path:
                settled[node] = 1
    return None


# ---------------------------------------------------------------------------
# Graph labels
# ---------------------------------------------------------------------------


def _node_masks(
    graph: StateGraph,
    instance: StepInstance,
    label: Callable[[int, Entry], bool],
) -> List[int]:
    """Per node, the bitmask over ``pid_order`` of the processes whose
    local-state entry satisfies ``label(slot, entry)``.  ``label`` runs
    once per distinct local state the graph holds, per slot."""
    masks: List[int] = [0] * len(graph)
    for k, pid in enumerate(instance.pid_order):
        slot = instance.slot_of[pid]
        column = graph.slot_column(slot)
        entries = graph.entries[slot]
        table = [0] * len(entries)
        for si in set(column):
            if label(slot, entries[si]):
                table[si] = 1 << k
        masks = list(map(or_, masks, map(table.__getitem__, column)))
    return masks


def _is_live(slot: int, entry: Entry) -> bool:
    return not (entry[2] or entry[3])


# ---------------------------------------------------------------------------
# Deadlock-freedom: fair non-progress cycles via SCC analysis
# ---------------------------------------------------------------------------


def check_deadlock_freedom(
    instance: StepInstance, graph: StateGraph
) -> LivenessVerdict:
    """Exhaustive Theorem 3.3-style deadlock-freedom over ``graph``.

    Holds iff the non-progress subgraph has no SCC whose internal edges
    are fair for the component's live set while some member state has a
    live process in its entry section.  On violation the returned
    verdict carries a replay-validated :class:`Lasso`.
    """
    _require_complete(graph, "deadlock-freedom")
    labels = CsLabels(instance)
    if not labels.supported:
        pid = labels.unsupported[0]
        raise VerificationError(
            "deadlock-freedom requires mutex-style automata with "
            "in_critical_section()/phase() predicates; process "
            f"{pid}'s {type(instance.automata[pid]).__name__} has neither"
        )
    found, sccs = find_fair_nonprogress_cycle(
        len(graph),
        graph.offsets,
        graph.pids,
        graph.dsts,
        instance.pid_order,
        _node_masks(
            graph, instance, lambda slot, e: labels.in_cs_local(slot, e[1])
        ),
        _node_masks(graph, instance, _is_live),
        _node_masks(
            graph,
            instance,
            lambda slot, e: _is_live(slot, e)
            and labels.phase_local(slot, e[1]) == "entry",
        ),
    )
    if found is None:
        return LivenessVerdict(
            kind="deadlock-freedom",
            holds=True,
            states=len(graph),
            detail=(
                f"no fair non-progress cycle in {len(graph)} states / "
                f"{sccs} SCCs: every fair infinite execution enters "
                "the critical section infinitely often"
            ),
        )
    prefix = graph.path_to(found.entry)
    _validate_df_lasso(instance, graph, prefix, found.cycle, found.entry, labels)
    return LivenessVerdict(
        kind="deadlock-freedom",
        holds=False,
        states=len(graph),
        detail=(
            f"fair non-progress cycle of length {len(found.cycle)} through "
            f"an SCC of {found.component} states (live pids "
            f"{list(found.live)} all step, no critical-section entry, a "
            f"live process stays in its entry section); prefix length "
            f"{len(prefix)}"
        ),
        lasso=Lasso(prefix=prefix, cycle=found.cycle, entry=found.entry),
    )


def _validate_df_lasso(
    instance: StepInstance,
    graph: StateGraph,
    prefix: Tuple[ProcessId, ...],
    cycle: Tuple[ProcessId, ...],
    entry: int,
    labels: CsLabels,
) -> None:
    """Replay the lasso through the pure kernel and re-check the cycle
    with :func:`cycle_is_df_violation`.  Failures are internal errors."""
    entry_state = graph.state(entry)
    if _replay(instance, graph.state(graph.initial), prefix) != entry_state:
        raise RuntimeError(
            "internal error: lasso prefix does not replay to the cycle "
            "entry state"
        )
    if not cycle_is_df_violation(instance, entry_state, cycle, labels):
        raise RuntimeError(
            "internal error: lasso cycle is not a fair non-progress cycle "
            "from its entry state"
        )


# ---------------------------------------------------------------------------
# Obstruction-freedom: solo livelocks via functional-subgraph chain walks
# ---------------------------------------------------------------------------


def check_obstruction_freedom(
    instance: StepInstance, graph: StateGraph
) -> LivenessVerdict:
    """Exhaustive Theorem 4.1/5.1-style obstruction-freedom over ``graph``.

    For every process ``p`` and every reachable state, running ``p``
    solo must terminate.  Each node has at most one ``p``-edge, so solo
    runs form a functional subgraph: memoised chain walks classify each
    node as terminating or cycling, and any cycle (self-loops included)
    is a solo livelock, returned with a replay-validated lasso whose
    cycle is just ``p`` repeated.
    """
    _require_complete(graph, "obstruction-freedom")
    found = find_solo_livelock(
        len(graph), graph.offsets, graph.pids, graph.dsts, instance.pid_order
    )
    if found is not None:
        return _of_violation(instance, graph, *found)
    live_counts = sorted(
        {bin(mask).count("1") for mask in set(_node_masks(graph, instance, _is_live))}
    )
    return LivenessVerdict(
        kind="obstruction-freedom",
        holds=True,
        states=len(graph),
        detail=(
            f"every solo run from every of {len(graph)} states "
            f"terminates, for each of {len(instance.pid_order)} "
            f"processes (live-set sizes seen: {live_counts})"
        ),
    )


def _of_violation(
    instance: StepInstance,
    graph: StateGraph,
    pid: ProcessId,
    entry: int,
    cycle_len: int,
) -> LivenessVerdict:
    prefix = graph.path_to(entry)
    cycle = (pid,) * cycle_len
    entry_state = graph.state(entry)
    state = _replay(instance, graph.state(graph.initial), prefix)
    if state != entry_state:
        raise RuntimeError(
            "internal error: solo-livelock prefix does not replay to the "
            "cycle entry state"
        )
    final, steps, settled = solo_run_value(
        instance, entry_state, pid, cycle_len
    )
    if settled or final != entry_state:
        raise RuntimeError(
            "internal error: claimed solo livelock does not cycle under "
            "the kernel's solo run"
        )
    return LivenessVerdict(
        kind="obstruction-freedom",
        holds=False,
        states=len(graph),
        detail=(
            f"solo livelock: process {pid} running alone repeats a "
            f"{cycle_len}-step cycle forever (prefix length "
            f"{len(prefix)})"
        ),
        lasso=Lasso(prefix=prefix, cycle=cycle, entry=entry),
    )


#: Liveness property kind -> exhaustive checker.
LIVENESS_CHECKERS: Dict[
    str, Callable[[StepInstance, StateGraph], LivenessVerdict]
] = {
    "deadlock-freedom": check_deadlock_freedom,
    "obstruction-freedom": check_obstruction_freedom,
}
