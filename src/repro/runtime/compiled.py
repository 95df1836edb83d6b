"""The packed walker: lazily interned states, integer transition tables.

The interpreted hot path costs, per event, a ``next_op`` call, an
``isinstance`` dispatch, an ``apply`` call, an ``is_halted`` call, and a
tuple rebuild over heterogeneous values.  For the shipped automata the
whole of that work is a pure function of *which local state the stepping
process is in* and *which register value it reads*.  This module caches
it in dense integer tables, filled the first time the walk needs them:

1. A :data:`PackedState` is a flat tuple of small integers — ``m``
   register value ids followed by one local-state id per slot — the
   §6.1 state ("register values + location counters") with every
   component replaced by its id.  Successor expansion is integer
   indexing plus a tuple copy.

2. :class:`CompiledProgram` assigns ids on demand.  Its
   :meth:`~CompiledProgram.intern_local` gives a local state its id the
   first time the walk produces it, and fills in the same call every
   per-state table: ``halted``/``live``, the state's digest-table
   entries (:class:`~repro.runtime.canonical.PackedDigestTables`) and
   its invariant flags (see below).  :meth:`~CompiledProgram.intern_value`
   does the same for a register value.  A state's transition entries —
   ``kind[s][si]`` (LOCAL / READ / WRITE / HALTED / NEW), ``arg[s][si]``
   (physical register index), ``write_value[s][si]``,
   ``next_state[s][si]`` and the read row ``rows[s][si][value_id]`` —
   start unfilled (kind :data:`OP_NEW`, read entries ``< 0``) and are
   filled by :meth:`~CompiledProgram.step_packed` the first time a walk
   steps through them.  The walks' hot loops test exactly those two
   sentinels and call ``step_packed`` for them, so there is no
   ahead-of-time enumeration, no cap on the number of local states or
   values, and no fallback engine: ids are interned by value equality,
   so packing is injective over everything the walk has seen.

3. :class:`CompiledBackend` conforms to the
   :class:`~repro.runtime.backends.ExplorationBackend` protocol and
   mirrors :class:`~repro.runtime.backends.SerialBackend` statement for
   statement over packed states.  It is the engine behind
   :func:`~repro.runtime.exploration.explore`'s default;
   ``SerialBackend`` stays as its differential oracle.  A trivial walk
   keys its visited table on the packed ids themselves
   (:func:`_trivial_key`); only a symmetry walk assembles the
   canonicalizer's digests (:func:`_digest_key`).  With
   ``retain_graph`` the trivial walk records a
   :class:`~repro.verify.graph.StateGraph` directly in packed form: a
   state's ``visited`` value is its node ordinal, its packed tuple is
   the node's row (indexing the program's ``values`` and per-slot entry
   tables, which the graph shares), and edges go to integer arrays — no
   digest and no unpack per child.

**Hook exceptions.**  The automata hooks run at the step that first
needs them — ``next_op``/``apply``/``is_halted`` inside ``step_packed``,
footprint and rename hooks inside the digest tables — which is the step
at which the interpreter calls them, so a hook that raises propagates
its genuine exception from the same step; no table entry is written for
it, and a later attempt raises again (the automata are deterministic).

**Invariants** declared as
:class:`~repro.runtime.invariants.StateInvariant` get one flag table
derived from their ``fact``/``verdict`` pair: per (slot, local state),
whether the process contributes a fact and whether that fact alone
already fails.  The per-state check is then a few integer lookups, and
only a state where two facts meet or one fails alone is unpacked and
handed to the real invariant — so violation messages are byte-identical
by construction.  The one documented ``except Exception`` in this module
is in that flag computation: a ``fact`` or ``verdict`` hook that raises
flags its local state, so the real invariant re-raises the genuine
exception when it checks a state holding it.  Undeclared invariants are
evaluated on every state over an unpacked
:class:`~repro.runtime.kernel.StateView` (slow but exact); ``None``
checks nothing.
"""

from __future__ import annotations

import struct
import time
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.telemetry import NULL_TELEMETRY, TelemetrySink
from repro.runtime.backends import ExplorationTask, Invariant
from repro.runtime.canonical import (
    Canonicalizer,
    PackedDigestTables,
    TrivialCanonicalizer,
)
from repro.runtime.exploration import ExplorationResult
from repro.runtime.invariants import StateInvariant
from repro.runtime.kernel import (
    GlobalState,
    StateView,
    StepInstance,
    _physical_index,
    step_value,
)
from repro.runtime.ops import ReadOp, WriteOp
from repro.types import ProcessId

if TYPE_CHECKING:  # pragma: no cover - repro.verify sits above the runtime
    from repro.verify.graph import GraphRecorder

#: A packed global state: ``m`` register value ids followed by one
#: local-state id per slot, all small ints.
PackedState = Tuple[int, ...]

# Transition kinds, one per local state per slot.
OP_LOCAL = 0  #: no memory effect; successor in ``next_state``
OP_READ = 1  #: successor row indexed by the read value's id
OP_WRITE = 2  #: writes ``write_value`` to ``arg``; successor in ``next_state``
OP_HALTED = 3  #: no transition; stepping it is a scheduling error
OP_NEW = 4  #: interned but not yet stepped; ``step_packed`` classifies it

#: A read-row entry whose (state, value) transition has not run yet.
UNFILLED = -1

#: A fact-table callback: ``fact(slot, local_state, halted)``.
FactFn = Callable[[int, Any, bool], Any]


class CompiledProgram:
    """Lazily grown transition tables for one :class:`StepInstance`.

    Every table is a plain list that only ever grows in place, so a
    walk may hoist per-slot rows into locals once and see every entry
    interned after that.  ``canonicalizer`` (optional) attaches digest
    tables the walk assembles state keys from; fact tables attach with
    :meth:`add_facts`.
    """

    def __init__(
        self,
        instance: StepInstance,
        initial: GlobalState,
        canonicalizer: Optional[Canonicalizer] = None,
    ) -> None:
        registers, locals_part = initial
        slots = tuple(entry[0] for entry in locals_part)
        for pid, slot in instance.slot_of.items():
            if slot >= len(slots) or slots[slot] != pid:
                raise ConfigurationError(
                    "the initial state's slot layout does not match the "
                    "step instance"
                )
        nslots = len(slots)
        self.instance = instance
        self.slots = slots
        self.m = len(registers)
        self.autos = [instance.automata[pid] for pid in slots]
        self.crashed = [bool(entry[3]) for entry in locals_part]
        self.values: List[Any] = []
        self.value_index: Dict[Any, int] = {}
        self.states: List[List[Any]] = [[] for _ in range(nslots)]
        self.state_index: List[Dict[Any, int]] = [{} for _ in range(nslots)]
        self.halted: List[List[bool]] = [[] for _ in range(nslots)]
        #: ``live[slot][si]`` ⟺ the slot can step from local state si.
        self.live: List[List[bool]] = [[] for _ in range(nslots)]
        self.kind: List[List[int]] = [[] for _ in range(nslots)]
        self.arg: List[List[int]] = [[] for _ in range(nslots)]
        self.write_value: List[List[int]] = [[] for _ in range(nslots)]
        self.next_state: List[List[int]] = [[] for _ in range(nslots)]
        self.rows: List[List[Optional[List[int]]]] = [[] for _ in range(nslots)]
        #: The ReadOp of every READ state, for filling its row.
        self._read_op: List[List[Optional[ReadOp]]] = [[] for _ in range(nslots)]
        #: Every read row, so a new value can extend them all.
        self._all_rows: List[List[int]] = []
        self._facts: List[Tuple[FactFn, List[List[Any]]]] = []
        #: Per slot, the ``(pid, local, halted, crashed)`` entry of each
        #: interned local state, shared by every state unpacked.
        self._entries: List[List[Tuple[ProcessId, Any, bool, bool]]] = [
            [] for _ in range(nslots)
        ]
        self.digests: Optional[PackedDigestTables] = (
            canonicalizer.packed_digest_tables(self.crashed)
            if canonicalizer is not None
            else None
        )
        self.initial_packed = self.pack(initial)
        for slot, entry in enumerate(locals_part):
            if self.halted[slot][self.initial_packed[self.m + slot]] != bool(
                entry[2]
            ):
                raise ConfigurationError(
                    f"slot {slot}: the initial state's halted flag "
                    "disagrees with the automaton's is_halted"
                )
        #: (pid, slot, packed offset) in the instance's scheduling order.
        self.step_order: Tuple[Tuple[ProcessId, int, int], ...] = tuple(
            (pid, instance.slot_of[pid], self.m + instance.slot_of[pid])
            for pid in instance.pid_order
        )

    # -- interning -----------------------------------------------------

    def intern_value(self, value: Any) -> int:
        """The id of a register value, assigned on first sight.

        A new value extends every existing read row with an unfilled
        entry and appends its digest-table entries.
        """
        vi = self.value_index.get(value)
        if vi is None:
            if self.digests is not None:
                self.digests.add_value(value)
            vi = len(self.values)
            self.value_index[value] = vi
            self.values.append(value)
            for row in self._all_rows:
                row.append(UNFILLED)
        return vi

    def intern_local(self, slot: int, local: Any) -> int:
        """The id of one of ``slot``'s local states, assigned on first
        sight together with its halted flag, digest-table entries and
        facts; its transition entries start unfilled (:data:`OP_NEW`).

        Hooks run before any table grows, so one that raises leaves the
        program unchanged.
        """
        si = self.state_index[slot].get(local)
        if si is not None:
            return si
        halted = bool(self.autos[slot].is_halted(local))
        facts = [fact(slot, local, halted) for fact, _ in self._facts]
        if self.digests is not None:
            self.digests.add_local(slot, local, halted)
        si = len(self.states[slot])
        self.state_index[slot][local] = si
        self.states[slot].append(local)
        self._entries[slot].append(
            (self.slots[slot], local, halted, self.crashed[slot])
        )
        self.halted[slot].append(halted)
        self.live[slot].append(not (halted or self.crashed[slot]))
        self.kind[slot].append(OP_HALTED if halted else OP_NEW)
        self.arg[slot].append(0)
        self.write_value[slot].append(0)
        self.next_state[slot].append(0)
        self.rows[slot].append(None)
        self._read_op[slot].append(None)
        for (_, tables), value in zip(self._facts, facts):
            tables[slot].append(value)
        return si

    def add_facts(self, fact: FactFn) -> List[List[Any]]:
        """Attach a per-(slot, local-state) fact table.

        ``fact`` runs on every local state already interned and then on
        each one :meth:`intern_local` adds; it must not raise.  Returns
        the per-slot tables (grown in place).
        """
        tables = [
            [
                fact(slot, local, self.halted[slot][si])
                for si, local in enumerate(states)
            ]
            for slot, states in enumerate(self.states)
        ]
        self._facts.append((fact, tables))
        return tables

    # -- conversions ---------------------------------------------------

    def pack(self, state: GlobalState) -> PackedState:
        """Pack a kernel value state, interning any new component."""
        registers, locals_part = state
        return tuple(self.intern_value(v) for v in registers) + tuple(
            self.intern_local(s, entry[1]) for s, entry in enumerate(locals_part)
        )

    def unpack(self, packed: PackedState) -> GlobalState:
        """Rebuild the exact kernel value state a packed state denotes."""
        m = self.m
        values = self.values
        return (
            tuple([values[vi] for vi in packed[:m]]),
            tuple([entries[packed[m + s]] for s, entries in enumerate(self._entries)]),
        )

    # -- stepping ------------------------------------------------------

    def _classify(self, slot: int, si: int) -> int:
        """Fill local state ``si``'s transition entries; returns its kind.

        Runs ``next_op`` and, for a write or a local step, ``apply`` and
        the successor's interning — the hooks the interpreter runs on
        the same step, in the same order.
        """
        kind = self.kind[slot][si]
        if kind != OP_NEW:
            return kind
        local = self.states[slot][si]
        auto = self.autos[slot]
        pid = self.slots[slot]
        op = auto.next_op(local)
        if isinstance(op, ReadOp):
            phys = _physical_index(self.instance, pid, op.index)
            row = [UNFILLED] * len(self.values)
            self._all_rows.append(row)
            self.rows[slot][si] = row
            self._read_op[slot][si] = op
            self.arg[slot][si] = phys
            kind = OP_READ
        elif isinstance(op, WriteOp):
            phys = _physical_index(self.instance, pid, op.index)
            vi = self.intern_value(op.value)
            nsi = self.intern_local(slot, auto.apply(local, op, None))
            self.arg[slot][si] = phys
            self.write_value[slot][si] = vi
            self.next_state[slot][si] = nsi
            kind = OP_WRITE
        else:
            # Any other operation: no memory effect, read result is None.
            self.next_state[slot][si] = self.intern_local(
                slot, auto.apply(local, op, None)
            )
            kind = OP_LOCAL
        self.kind[slot][si] = kind
        return kind

    def step_packed(self, packed: PackedState, slot: int) -> PackedState:
        """One step of ``slot``'s process on a packed state.

        The walks' slow branch: classifies an :data:`OP_NEW` state and
        fills an unfilled read entry before stepping.  Stepping a halted
        or crashed slot runs the interpreter, which raises its
        scheduling error.
        """
        off = self.m + slot
        si = packed[off]
        if not self.live[slot][si]:
            # Halted or crashed: the interpreter raises its scheduling error.
            child = step_value(self.instance, self.unpack(packed), self.slots[slot])
            return self.pack(child)
        k = self._classify(slot, si)
        if k == OP_READ:
            row = self.rows[slot][si]
            assert row is not None
            vi = packed[self.arg[slot][si]]
            nsi = row[vi]
            if nsi < 0:
                op = self._read_op[slot][si]
                local = self.states[slot][si]
                nsi = self.intern_local(
                    slot, self.autos[slot].apply(local, op, self.values[vi])
                )
                row[vi] = nsi
            return packed[:off] + (nsi,) + packed[off + 1 :]
        if k == OP_WRITE:
            phys = self.arg[slot][si]
            return (
                packed[:phys]
                + (self.write_value[slot][si],)
                + packed[phys + 1 : off]
                + (self.next_state[slot][si],)
                + packed[off + 1 :]
            )
        return packed[:off] + (self.next_state[slot][si],) + packed[off + 1 :]


# -- invariant compilation ---------------------------------------------
#
# A declared invariant gets one flag table: per (slot, local state), 0
# when the process contributes no fact, 1 when its fact's verdict alone
# is None, 2 when that verdict alone is a violation or a hook raised (or
# when even the verdict over no facts fails).  A state whose flags sum
# to at most 1 holds at most one fact, whose verdict was None on its
# own, so it is fine; every other state is *suspect* and is unpacked
# and handed to the real invariant, so its message — or the exception a
# raising hook propagates — is exactly the interpreted one.  Only the
# flag computation catches exceptions: the one documented ``except``.


def _flag_table(
    invariant: StateInvariant, program: CompiledProgram
) -> List[List[int]]:
    inputs = program.instance.inputs
    slots = program.slots
    autos = program.autos

    def flag(slot: int, local: Any, halted: bool) -> int:
        try:
            fact = invariant.fact(autos[slot], local, halted)
            facts = {} if fact is None else {slots[slot]: fact}
            if invariant.verdict(facts, inputs) is not None:
                return 2
        except Exception:  # noqa: BLE001 - the real invariant re-raises it
            return 2
        return 1 if facts else 0

    return program.add_facts(flag)


def _checker_pair(
    invariant: Optional[Invariant], program: CompiledProgram
) -> Tuple[Callable[[PackedState], bool], Callable[[PackedState], Optional[str]]]:
    """The packed check as ``(suspect, slow)``: ``slow`` runs the real
    invariant on an unpacked state, and only where ``suspect`` says so.

    No invariant is never suspect; an undeclared one is always suspect
    (slow but exact); a declared one is suspect where its flags sum
    above 1.
    """
    if invariant is None:
        return (lambda packed: False), (lambda packed: None)
    check = invariant
    instance = program.instance
    unpack = program.unpack

    def slow(packed: PackedState) -> Optional[str]:
        return check(StateView(instance, unpack(packed)))

    if not isinstance(invariant, StateInvariant):
        return (lambda packed: True), slow
    m = program.m
    offs = [(m + slot, row) for slot, row in enumerate(_flag_table(invariant, program))]
    if len(offs) == 2:
        (off_a, row_a), (off_b, row_b) = offs

        def pair(packed: PackedState) -> bool:
            return row_a[packed[off_a]] + row_b[packed[off_b]] > 1

        return pair, slow

    def suspect(packed: PackedState) -> bool:
        total = 0
        for off, row in offs:
            total += row[packed[off]]
        return total > 1

    return suspect, slow


def compile_checker(
    invariant: Optional[Invariant], program: CompiledProgram
) -> Callable[[PackedState], Optional[str]]:
    """Packed-state invariant checker, message-identical to ``invariant``
    (``None`` checks nothing)."""
    suspect, slow = _checker_pair(invariant, program)

    def check(packed: PackedState) -> Optional[str]:
        return slow(packed) if suspect(packed) else None

    return check


# -- the backend -------------------------------------------------------


def _unwind(link: Any) -> Tuple[ProcessId, ...]:
    path: List[ProcessId] = []
    while link:
        link, pid = link
        path.append(pid)
    return tuple(reversed(path))


def _trivial_key(
    program: CompiledProgram,
) -> Callable[[PackedState], Tuple[bytes, bytes]]:
    """The trivial canonicalizer's ``(key, raw)`` over packed states.

    Its raw key is the content digest of the concrete state, so raw
    equality is state equality — and the packed ids (injective over
    everything interned), packed four bytes an id into one ``bytes``,
    are an equivalent key at a fraction of a tuple's or a digest key's
    memory.
    """
    pack = struct.Struct(f"<{program.m + len(program.slots)}I").pack

    def key_of(packed: PackedState) -> Tuple[bytes, bytes]:
        key = pack(*packed)
        return key, key

    return key_of


def _digest_key(
    program: CompiledProgram,
) -> Callable[[PackedState], Tuple[bytes, bytes]]:
    """``canonicalizer.key_of_state`` over a packed state.

    Byte-identical by construction: every digest in the tables went
    through the canonicalizer's own intern/digest path.
    """
    digests = program.digests
    assert digests is not None
    m = program.m
    value_raw = digests.value_raw
    slot_raws = list(enumerate(digests.slot_raw))
    candidates = digests.candidates

    def key_of(packed: PackedState) -> Tuple[bytes, bytes]:
        parts = [value_raw[packed[i]] for i in range(m)]
        for s, slot_raw in slot_raws:
            parts.append(slot_raw[packed[m + s]])
        raw = b"".join(parts)
        if not candidates:
            return raw, raw
        best = raw
        for cand in candidates:
            cparts = [cand.value_digest[packed[phys]] for phys in cand.source_phys]
            for s in cand.source_slot:
                cparts.append(cand.slot_digest[s][packed[m + s]])
            joined = b"".join(cparts)
            if joined < best:
                best = joined
        return best, raw

    return key_of


class CompiledBackend:
    """Serial DFS over packed states; bit-identical to ``SerialBackend``.

    The default exploration engine.  ``result.interned_locals`` and
    ``result.interned_values`` report how many local states (per slot)
    and register values the walk interned.
    """

    name = "compiled"
    progress_interval = 8192  # power of two, matches SerialBackend

    def run(
        self,
        task: ExplorationTask,
        telemetry: TelemetrySink = NULL_TELEMETRY,
    ) -> ExplorationResult:
        trivial = isinstance(task.canonicalizer, TrivialCanonicalizer)
        if task.retain_graph and not trivial:
            raise ConfigurationError(
                "retain_graph=True requires the trivial canonicalizer"
            )
        # Trivial dedup, with or without a graph, keys on the packed
        # ids; the canonicalizer's digests are only needed for a
        # symmetry quotient.
        program = CompiledProgram(
            task.instance,
            task.initial,
            canonicalizer=None if trivial else task.canonicalizer,
        )
        suspect, slow = _checker_pair(task.invariant, program)
        recorder = None
        if task.retain_graph:
            # Imported lazily: repro.verify sits above the runtime layer.
            from repro.verify.graph import GraphRecorder

            recorder = GraphRecorder(
                program.m, program.values, program._entries, task.canonicalizer
            )
        result = self._walk(
            task,
            program,
            suspect,
            slow,
            _trivial_key(program) if trivial else _digest_key(program),
            recorder,
            telemetry,
        )
        result.interned_locals = tuple(len(states) for states in program.states)
        result.interned_values = len(program.values)
        return result

    # The walk below mirrors SerialBackend.run statement for statement;
    # every counter update, telemetry emission, budget check and
    # recorder call happens at the same point in the same order.
    # Deviations are all of the form "equivalent predicate over packed
    # states" and are individually justified in comments.  Kind OP_NEW
    # and a read entry < 0 take the slow branch (step_packed), which
    # fills the tables.

    def _walk(
        self,
        task: ExplorationTask,
        program: CompiledProgram,
        suspect: Callable[[PackedState], bool],
        slow: Callable[[PackedState], Optional[str]],
        key_of: Callable[[PackedState], Tuple[Any, Any]],
        recorder: Optional["GraphRecorder"],
        telemetry: TelemetrySink,
    ) -> ExplorationResult:
        """The packed DFS, parameterised by its ``(key, raw)`` function.

        ``key_of`` is :func:`_trivial_key` for a trivial walk, else
        :func:`_digest_key` — the canonicalizer's own ``(canonical,
        raw)`` digests.  With a ``recorder`` (trivial walks only) the
        ``visited`` value of a state is its node ordinal, which is
        ``len(visited)`` when the state is first seen.
        """
        max_states = task.max_states
        max_depth = task.max_depth
        emit = telemetry.enabled
        progress_mask = self.progress_interval - 1

        halted = program.halted
        crashed = program.crashed
        step_packed = program.step_packed
        # One bundle per pid in scheduling order: every per-slot table
        # the expansion needs, pre-indexed so the hot loop does single
        # subscripts only.  live[s][si] ⟺ the slot can step.
        step_tabs = tuple(
            (
                pid,
                s,
                off,
                program.live[s],
                program.kind[s],
                program.arg[s],
                program.write_value[s],
                program.next_state[s],
                program.rows[s],
            )
            for pid, s, off in program.step_order
        )

        initial = program.initial_packed
        initial_key, initial_raw = key_of(initial)
        visited: Dict[Any, Any] = {initial_key: initial_raw}
        if recorder is not None:
            visited[initial_key] = 0
            recorder.add_row(initial)
            add_row = recorder.rows.extend
            edge_pid = recorder.pids.append
            edge_dst = recorder.dsts.append
        stack: List[Tuple[PackedState, int, Any, Any]] = [
            (initial, 0, None, initial_raw)
        ]
        result = ExplorationResult(
            complete=True,
            states_explored=0,
            events_executed=0,
            max_depth_reached=0,
            group_size=task.canonicalizer.group_order,
        )
        states_explored = 0
        events_executed = 0
        max_depth_reached = 0
        orbits_collapsed = 0
        started = time.perf_counter()

        while stack:
            state, depth, link, state_raw = stack.pop()
            states_explored += 1
            if depth > max_depth_reached:
                max_depth_reached = depth
            if emit and not (states_explored & progress_mask):
                telemetry.gauge("explore.visited", len(visited))
                telemetry.gauge("explore.frontier", len(stack))
                telemetry.event(
                    "explore.progress",
                    states=states_explored,
                    frontier=len(stack),
                    visited=len(visited),
                    orbit_hits=orbits_collapsed,
                    depth=depth,
                )
            if suspect(state):
                violation = slow(state)
                if violation is not None:
                    result.violation = violation
                    result.violation_schedule = _unwind(link)
                    result.truncated_by = "violation"
                    break
            expand = [t for t in step_tabs if t[3][state[t[2]]]]
            if not expand:
                # No enabled pid ⟺ every slot halted or crashed ⟺
                # all_settled, so the serial stuck counter can never
                # tick here.
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
            for (
                pid,
                s,
                off,
                _live_row,
                kind_row,
                arg_row,
                wval_row,
                nxt_row,
                rows_row,
            ) in expand:
                si = state[off]
                k = kind_row[si]
                if k == OP_READ:
                    nsi = rows_row[si][state[arg_row[si]]]
                    child = (
                        state[:off] + (nsi,) + state[off + 1 :]
                        if nsi >= 0
                        else step_packed(state, s)
                    )
                elif k == OP_WRITE:
                    phys = arg_row[si]
                    child = (
                        state[:phys]
                        + (wval_row[si],)
                        + state[phys + 1 : off]
                        + (nxt_row[si],)
                        + state[off + 1 :]
                    )
                elif k == OP_LOCAL:
                    child = state[:off] + (nxt_row[si],) + state[off + 1 :]
                else:
                    child = step_packed(state, s)
                events_executed += 1
                key, raw = key_of(child)
                step_link = (link, pid)
                if raw == state_raw:
                    # Inert acceleration, exactly as serial: keep
                    # stepping this pid while it stays inert, watching
                    # its local state (⟺ its packed id — interning is
                    # by value equality) for a repeat.  Under the
                    # trivial key the first repeat ends the loop: an
                    # inert step there is a self-loop (2 events).
                    seen_locals = {child[off]}
                    while raw == state_raw and not (
                        halted[s][child[off]] or crashed[s]
                    ):
                        child = step_packed(child, s)
                        events_executed += 1
                        step_link = (step_link, pid)
                        key, raw = key_of(child)
                        local = child[off]
                        if raw == state_raw:
                            if local in seen_locals:
                                break
                            seen_locals.add(local)
                    if raw == state_raw:
                        if recorder is not None:
                            edge_pid(pid)
                            edge_dst(src)
                        continue
                if recorder is not None:
                    # ``visited`` maps a state to its node ordinal; a new child
                    # gets the next ordinal and its row, and its edge is
                    # recorded, even when it trips the state budget.
                    dst = visited.get(key)
                    if dst is None:
                        dst = len(visited)
                        add_row(child)
                        if dst >= max_states:
                            result.truncated_by = "max_states"
                            budget_exhausted = True
                        else:
                            visited[key] = dst
                            stack.append((child, depth + 1, step_link, raw))
                    edge_pid(pid)
                    edge_dst(dst)
                    if budget_exhausted:
                        break
                    continue
                claimed = visited.get(key)
                if claimed is not None:
                    if claimed != raw:
                        orbits_collapsed += 1
                    continue
                if len(visited) >= max_states:
                    result.truncated_by = "max_states"
                    budget_exhausted = True
                    break
                visited[key] = raw
                stack.append((child, depth + 1, step_link, raw))
            if budget_exhausted:
                break

        result.states_explored = states_explored
        result.events_executed = events_executed
        result.max_depth_reached = max_depth_reached
        result.orbits_collapsed = orbits_collapsed
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
