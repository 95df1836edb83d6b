"""The retained state graph: exploration's successor relation as a value.

When :func:`repro.runtime.exploration.explore` is called with
``retain_graph=True`` the backend records, for every expanded state, the
full labelled successor relation — one ``(pid, destination)`` edge per
enabled process — alongside the states themselves.  The result is a
:class:`StateGraph`: the exact transition system the walk explored,
over which :mod:`repro.verify.liveness` runs its SCC and solo-run
analyses.

Layout.  The graph is integer-indexed throughout:

* **Nodes are ordinals.**  Node ``i`` is the ``i``-th distinct state the
  walk saw (as an edge destination, or the start); node 0 is the
  initial state.  Each node is stored as a packed row — ``m`` register
  value ids followed by one local-state id per slot — in one flat
  ``array('I')``.  The rows index two tables the graph shares with the
  engine that recorded it: ``values`` (register values) and, per slot,
  ``entries`` (the ``(pid, local, halted, crashed)`` tuple of each local
  state).  The packed walker hands over its program's interned tables;
  the interpreter oracle packs its value states through a
  :class:`StateInterner`.  Row ids therefore differ between the two
  engines, but :meth:`StateGraph.state` — which unpacks one node, only
  when a lasso or a test asks — does not.
* **Edges are CSR.**  ``offsets`` (``n + 1`` entries), ``pids`` and
  ``dsts`` are ``array('q')``: node ``i``'s out-edges are
  ``pids[offsets[i]:offsets[i + 1]]`` / ``dsts[...]`` in scheduler pid
  order.  ``expansion_order`` lists the expanded nodes in the order the
  walk expanded them; a node missing from it is an unexpanded frontier
  node of a truncated walk, and an expanded node without edges is
  terminal.

Soundness constraints (enforced at the ``explore()`` entrance):

* **Trivial canonicalizer only.**  Under a symmetry quotient the graph's
  nodes are orbit *representatives*, and which representative claims an
  orbit depends on visit order.  Worse, quotient edges carry pid labels
  that are only correct up to the group element mapping the concrete
  successor onto its representative, which breaks the per-pid fairness
  bookkeeping the liveness analyses rely on.  With the trivial
  canonicalizer an edge ``(p, j)`` out of node ``i`` means exactly
  ``step_value(instance, state(i), p) == state(j)`` — including
  self-loops, which the liveness checkers need (an inert self-loop *is*
  a solo livelock).
* **Complete walks only** for liveness verdicts: a truncated graph is a
  strict under-approximation, so :class:`StateGraph` records
  ``complete`` and the checkers refuse incomplete graphs.

Determinism: the packed walker and the interpreter oracle visit the
same states in the same order and expand each exactly once, recording
the same edges in the same per-node order, so their graphs have equal
``offsets``/``pids``/``dsts`` and equal :meth:`StateGraph.state` for
every node.  :meth:`StateGraph.to_bytes` is the ``repro.stategraph/v1``
serialisation — nodes sorted by the canonicalizer's raw content key,
computed lazily, once per node, through ``key_of_state`` — and is
byte-identical across engines.  The differential tests in
``tests/verify/test_graph.py`` pin all of this.

The edge reads and the serialiser live on :class:`CsrGraph`, which the
farm's disk store (:mod:`repro.farm.store`) shares: it maps these same
arrays from files, so a stored graph serialises to the same bytes
through the same code.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.runtime.canonical import Canonicalizer
from repro.runtime.kernel import GlobalState
from repro.types import ProcessId

#: One labelled edge: (stepping pid, destination node ordinal).
Edge = Tuple[ProcessId, int]

#: One slot's local-state entry of a global state:
#: ``(pid, local, halted, crashed)``.
Entry = Tuple[ProcessId, Any, bool, bool]

#: Leading magic of the canonical serialisation (:meth:`CsrGraph.to_bytes`).
_STATEGRAPH_MAGIC = b"repro.stategraph/v1"


class CsrGraph:
    """The reads every holder of a graph's CSR arrays shares.

    :class:`StateGraph` holds the arrays in RAM; the farm's disk store
    (:class:`repro.farm.store.DiskStateGraph`) maps the same arrays
    from files.  Both expose ``complete``, ``offsets``, ``pids``,
    ``dsts`` and ``expansion_order`` and name each node's raw key
    through :meth:`_node_keys`; everything below derives from those,
    including the one ``repro.stategraph/v1`` serialiser.
    """

    __slots__ = ()

    complete: bool
    offsets: Sequence[int]
    pids: Sequence[int]
    dsts: Sequence[int]
    expansion_order: Sequence[int]

    #: The initial state's ordinal.
    initial = 0

    def _node_keys(self) -> Sequence[bytes]:
        """Every node's raw content key, in node order."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def edge_count(self) -> int:
        """Recorded edges (one per enabled pid of every expanded node)."""
        return len(self.dsts)

    def key(self, node: int) -> bytes:
        """The canonicalizer's raw content key of ``node``'s state."""
        return self._node_keys()[node]

    def successors(self, node: int) -> Tuple[Edge, ...]:
        """Outgoing ``(pid, dst)`` edges (empty for terminal or
        unexpanded nodes)."""
        start, end = self.offsets[node], self.offsets[node + 1]
        return tuple(zip(self.pids[start:end], self.dsts[start:end]))

    def expanded(self) -> bytearray:
        """Per node, 1 if the walk expanded it (terminal nodes included)
        and 0 for a truncated walk's unexpanded frontier."""
        flags = bytearray(len(self))
        for node in self.expansion_order:
            flags[node] = 1
        return flags

    # -- canonical serialisation ---------------------------------------

    def _serialised(self) -> Iterator[bytes]:
        """The ``repro.stategraph/v1`` framing, one chunk per node.

        Nodes are emitted sorted by raw content key, each with its edges
        in recorded (scheduler pid) order.  Node *states* are not
        serialised — the key already is the content digest of the
        state, so two graphs with equal serialisations describe the
        same transition system.
        """
        keys = self._node_keys()
        offsets, pids, dsts = self.offsets, self.pids, self.dsts
        yield b"".join((
            _STATEGRAPH_MAGIC,
            b"\x01" if self.complete else b"\x00",
            keys[0],
            len(keys).to_bytes(8, "big"),
        ))
        labels: Dict[int, bytes] = {}
        for node in sorted(range(len(keys)), key=keys.__getitem__):
            start, end = offsets[node], offsets[node + 1]
            chunk = [keys[node], (end - start).to_bytes(4, "big")]
            for edge in range(start, end):
                pid = pids[edge]
                label = labels.get(pid)
                if label is None:
                    label = labels[pid] = f"p{pid};".encode("ascii")
                chunk.append(label)
                chunk.append(keys[dsts[edge]])
            yield b"".join(chunk)

    def to_bytes(self) -> bytes:
        """Canonical serialisation: identical bytes for identical graphs."""
        return b"".join(self._serialised())

    def digest(self) -> str:
        """sha256 of :meth:`to_bytes`, streamed chunk by chunk."""
        digest = hashlib.sha256()
        for chunk in self._serialised():
            digest.update(chunk)
        return digest.hexdigest()


class StateGraph(CsrGraph):
    """The explored transition system: packed node rows, CSR edges.

    See the module docstring for the layout.  Built by
    :meth:`GraphRecorder.finish`; the constructor takes the finished
    arrays as they are.
    """

    __slots__ = (
        "complete",
        "offsets",
        "pids",
        "dsts",
        "expansion_order",
        "rows",
        "m",
        "width",
        "values",
        "entries",
        "canonicalizer",
        "_keys",
    )

    def __init__(
        self,
        *,
        complete: bool,
        offsets: array[int],
        pids: array[int],
        dsts: array[int],
        expansion_order: array[int],
        rows: array[int],
        m: int,
        values: List[Any],
        entries: List[List[Entry]],
        canonicalizer: Canonicalizer,
    ) -> None:
        self.complete = complete
        self.offsets = offsets
        self.pids = pids
        self.dsts = dsts
        self.expansion_order = expansion_order
        self.rows = rows
        self.m = m
        self.width = m + len(entries)
        self.values = values
        self.entries = entries
        self.canonicalizer = canonicalizer
        self._keys: Optional[List[bytes]] = None

    # -- nodes ---------------------------------------------------------

    def state(self, node: int) -> GlobalState:
        """The concrete kernel value state of ``node``, unpacked."""
        if not 0 <= node < len(self):
            raise IndexError(f"node {node} is not in this {len(self)}-node graph")
        start = node * self.width
        row = self.rows[start : start + self.width]
        m = self.m
        values = self.values
        return (
            tuple([values[vi] for vi in row[:m]]),
            tuple(
                [entries[row[m + s]] for s, entries in enumerate(self.entries)]
            ),
        )

    def slot_column(self, slot: int) -> array[int]:
        """Every node's local-state id of ``slot``, in node order (an
        index into ``entries[slot]``)."""
        return self.rows[self.m + slot :: self.width]

    def _node_keys(self) -> List[bytes]:
        if self._keys is None:
            key_of_state = self.canonicalizer.key_of_state
            self._keys = [
                key_of_state(self.state(node))[1] for node in range(len(self))
            ]
        return self._keys

    # -- edges ---------------------------------------------------------

    def path_to(self, target: int) -> Tuple[ProcessId, ...]:
        """A schedule from the initial state to node ``target``.

        Deterministic breadth-first search over the recorded edges
        (neighbours in recorded order), so equal graphs yield the same
        schedule.  The returned pids replay through
        :func:`~repro.runtime.kernel.step_value` (or
        :func:`~repro.runtime.replay.replay_schedule` on a fresh
        system) from the initial state to ``state(target)``.
        """
        return path_between(self.offsets, self.pids, self.dsts, 0, target)


def path_between(
    offsets: Sequence[int],
    pids: Sequence[int],
    dsts: Sequence[int],
    source: int,
    target: int,
) -> Tuple[ProcessId, ...]:
    """Shortest schedule from ``source`` to ``target`` over CSR edges.

    Breadth-first, neighbours in recorded order, so the result is a
    function of the arrays alone.  Raises ``KeyError`` when ``target``
    is unreachable.
    """
    if target == source:
        return ()
    parent: Dict[int, Tuple[int, ProcessId]] = {}
    frontier = [source]
    seen = {source}
    while frontier:
        next_frontier: List[int] = []
        for node in frontier:
            for edge in range(offsets[node], offsets[node + 1]):
                dst = dsts[edge]
                if dst in seen:
                    continue
                seen.add(dst)
                parent[dst] = (node, pids[edge])
                if dst == target:
                    path: List[ProcessId] = []
                    cur = dst
                    while cur != source:
                        cur, step = parent[cur]
                        path.append(step)
                    return tuple(reversed(path))
                next_frontier.append(dst)
        frontier = next_frontier
    raise KeyError(f"node {target} is not reachable in this graph")


class StateInterner:
    """Packs kernel value states into graph rows, calling no hooks.

    The interpreter oracle's counterpart of the packed walker's program
    tables: register values and per-slot ``(pid, local, halted,
    crashed)`` entries get ids on first sight, by value equality.
    """

    __slots__ = ("values", "entries", "_value_ids", "_entry_ids")

    def __init__(self, nslots: int) -> None:
        self.values: List[Any] = []
        self.entries: List[List[Entry]] = [[] for _ in range(nslots)]
        self._value_ids: Dict[Any, int] = {}
        self._entry_ids: List[Dict[Entry, int]] = [{} for _ in range(nslots)]

    def pack(self, state: GlobalState) -> Tuple[int, ...]:
        registers, locals_part = state
        row: List[int] = []
        for value in registers:
            vi = self._value_ids.get(value)
            if vi is None:
                vi = self._value_ids[value] = len(self.values)
                self.values.append(value)
            row.append(vi)
        for slot, entry in enumerate(locals_part):
            ids = self._entry_ids[slot]
            ei = ids.get(entry)
            if ei is None:
                ei = ids[entry] = len(self.entries[slot])
                self.entries[slot].append(entry)
            row.append(ei)
        return tuple(row)


class GraphRecorder:
    """The accumulator a walk records its graph into.

    The walk appends one packed row per new node (:meth:`add_row`; the
    ``i``-th row is node ``i``), opens each expanded node's run of edges
    with :meth:`expand`, and appends that node's edges to ``pids`` and
    ``dsts`` (hot loops hoist the two ``append`` methods).  A node's
    edges therefore arrive contiguously, in expansion order;
    :meth:`finish` reorders the runs into node-order CSR.
    """

    __slots__ = (
        "m",
        "values",
        "entries",
        "canonicalizer",
        "rows",
        "pids",
        "dsts",
        "_order",
        "_starts",
    )

    def __init__(
        self,
        m: int,
        values: List[Any],
        entries: List[List[Entry]],
        canonicalizer: Canonicalizer,
    ) -> None:
        self.m = m
        self.values = values
        self.entries = entries
        self.canonicalizer = canonicalizer
        self.rows = array("I")
        self.pids = array("q")
        self.dsts = array("q")
        self._order = array("q")
        self._starts = array("q")

    def add_row(self, row: Sequence[int]) -> None:
        """Append the next node's packed row."""
        self.rows.extend(row)

    def expand(self, src: int) -> None:
        """Open node ``src``'s run of edges (possibly empty: terminal)."""
        self._order.append(src)
        self._starts.append(len(self.dsts))

    def add_edge(self, pid: ProcessId, dst: int) -> None:
        """Append one edge of the node last opened by :meth:`expand`."""
        self.pids.append(pid)
        self.dsts.append(dst)

    def finish(self, complete: bool) -> StateGraph:
        """Package the recorded relation as a :class:`StateGraph`."""
        n = len(self.rows) // (self.m + len(self.entries))
        order, starts = self._order, self._starts
        run_of = [-1] * n
        for run, node in enumerate(order):
            run_of[node] = run
        starts.append(len(self.dsts))
        pids, dsts = self.pids, self.dsts
        offsets = array("q", [0])
        out_pids = array("q")
        out_dsts = array("q")
        total = 0
        for node in range(n):
            run = run_of[node]
            if run >= 0:
                start, end = starts[run], starts[run + 1]
                if end > start:
                    out_pids += pids[start:end]
                    out_dsts += dsts[start:end]
                    total += end - start
            offsets.append(total)
        return StateGraph(
            complete=complete,
            offsets=offsets,
            pids=out_pids,
            dsts=out_dsts,
            expansion_order=order,
            rows=self.rows,
            m=self.m,
            values=self.values,
            entries=self.entries,
            canonicalizer=self.canonicalizer,
        )
