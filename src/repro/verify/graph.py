"""The retained state graph: exploration's successor relation as a value.

When :func:`repro.runtime.exploration.explore` is called with
``retain_graph=True`` the backend records, for every expanded state, the
full labelled successor relation — one ``(pid, destination key)`` edge
per enabled process — alongside the state values themselves.  The result
is a :class:`StateGraph`: the exact transition system the walk explored,
over which :mod:`repro.verify.liveness` runs its SCC and solo-run
analyses.

Soundness constraints (enforced at the ``explore()`` entrance):

* **Trivial canonicalizer only.**  Under a symmetry quotient the graph's
  nodes are orbit *representatives*, and which representative claims an
  orbit depends on visit order — DFS and BFS legitimately pick different
  ones, so quotient graphs are not byte-comparable across backends.
  Worse, quotient edges carry pid labels that are only correct up to the
  group element mapping the concrete successor onto its representative,
  which breaks the per-pid fairness bookkeeping the liveness analyses
  rely on.  With the trivial canonicalizer a node key is the content
  digest of the concrete state and an edge ``(p, dst)`` means exactly
  ``step_value(instance, nodes[src], p) == nodes[dst]`` — including
  self-loops, which the liveness checkers need (an inert self-loop *is*
  a solo livelock).
* **Complete walks only** for liveness verdicts: a truncated graph is a
  strict under-approximation, so :class:`StateGraph` records
  ``complete`` and the checkers refuse incomplete graphs.

Determinism: on complete runs the packed walker and the interpreter
oracle visit the same states and expand each exactly once, recording
the same edges in the same per-node order (the instance's scheduler pid
order), so :meth:`StateGraph.to_bytes` — which sorts nodes by key —
produces byte-identical serialisations from both backends.  The
differential tests in ``tests/verify/test_graph.py`` pin this.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.runtime.kernel import GlobalState
from repro.types import ProcessId

#: A node key: the canonicalizer's raw content digest of the state.
NodeKey = bytes

#: One labelled edge: (stepping pid, destination node key).
Edge = Tuple[ProcessId, NodeKey]

#: Leading magic of the canonical :meth:`StateGraph.to_bytes` framing.
#: Public so the disk store (:mod:`repro.farm.store`) can emit the same
#: serialisation without re-stating the format.
STATEGRAPH_MAGIC = b"repro.stategraph/v1"
_MAGIC = STATEGRAPH_MAGIC


@dataclass
class StateGraph:
    """The explored transition system, as plain dictionaries.

    ``nodes`` maps each visited key to its concrete
    :data:`~repro.runtime.kernel.GlobalState`; ``edges`` maps each
    *expanded* key to its outgoing edges in scheduler pid order.
    Terminal states (no enabled process) have an empty edge tuple; on a
    ``complete`` graph every node appears in ``edges``.
    """

    initial: NodeKey
    nodes: Dict[NodeKey, GlobalState]
    edges: Dict[NodeKey, Tuple[Edge, ...]]
    complete: bool
    #: Scheduler events the retention observed (one per recorded edge;
    #: informational — the walk's own counter includes acceleration).
    edge_count: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.edge_count = sum(len(out) for out in self.edges.values())

    def __len__(self) -> int:
        return len(self.nodes)

    def successors(self, key: NodeKey) -> Tuple[Edge, ...]:
        """Outgoing edges of a node (empty for terminal states)."""
        return self.edges.get(key, ())

    def successor_via(self, key: NodeKey, pid: ProcessId) -> Optional[NodeKey]:
        """The destination of ``key``'s ``pid``-labelled edge, if any."""
        for edge_pid, dst in self.edges.get(key, ()):
            if edge_pid == pid:
                return dst
        return None

    def iter_nodes(self) -> Iterator[NodeKey]:
        """Node keys in sorted (deterministic) order."""
        return iter(sorted(self.nodes))

    def path_to(self, target: NodeKey) -> Tuple[ProcessId, ...]:
        """A schedule from the initial state to ``target``.

        Deterministic breadth-first search over the recorded edges
        (neighbours in recorded order), so both backends' graphs yield
        the same schedule for the same target.  The returned pids replay
        through :func:`~repro.runtime.kernel.step_value` (or
        :func:`~repro.runtime.replay.replay_schedule` on a fresh
        system) from the initial state to ``target``'s state.
        """
        if target == self.initial:
            return ()
        parent: Dict[NodeKey, Tuple[NodeKey, ProcessId]] = {}
        frontier: List[NodeKey] = [self.initial]
        seen = {self.initial}
        while frontier:
            next_frontier: List[NodeKey] = []
            for key in frontier:
                for pid, dst in self.edges.get(key, ()):
                    if dst in seen:
                        continue
                    seen.add(dst)
                    parent[dst] = (key, pid)
                    if dst == target:
                        path: List[ProcessId] = []
                        cur = dst
                        while cur != self.initial:
                            cur, step = parent[cur]
                            path.append(step)
                        return tuple(reversed(path))
                    next_frontier.append(dst)
            frontier = next_frontier
        raise KeyError(f"node {target.hex()} is not reachable in this graph")

    def to_bytes(self) -> bytes:
        """Canonical serialisation: identical bytes for identical graphs.

        Nodes are emitted sorted by key, each with its edges in recorded
        (scheduler pid) order.  Node *states* are not re-serialised —
        the key already is the content digest of the state, so two
        graphs with equal serialisations describe the same transition
        system.
        """
        out: List[bytes] = [
            _MAGIC,
            b"\x01" if self.complete else b"\x00",
            self.initial,
            len(self.nodes).to_bytes(8, "big"),
        ]
        for key in sorted(self.nodes):
            edges = self.edges.get(key, ())
            out.append(key)
            out.append(len(edges).to_bytes(4, "big"))
            for pid, dst in edges:
                out.append(f"p{pid};".encode("ascii"))
                out.append(dst)
        return b"".join(out)


class GraphRecorder:
    """Incremental edge/node accumulator the backends feed during a walk.

    Kept deliberately dumb: ``add_node`` on first claim of a key,
    ``add_edge`` for every enabled pid of every expanded state (inert
    self-loops included).  ``finish`` packages the accumulated relation
    into a :class:`StateGraph` with the walk's completeness verdict.
    """

    __slots__ = ("initial", "nodes", "edges")

    def __init__(self, initial: NodeKey, initial_state: GlobalState) -> None:
        self.initial = initial
        self.nodes: Dict[NodeKey, GlobalState] = {initial: initial_state}
        self.edges: Dict[NodeKey, List[Edge]] = {}

    def add_node(self, key: NodeKey, state: GlobalState) -> None:
        self.nodes.setdefault(key, state)

    def add_edge(self, src: NodeKey, pid: ProcessId, dst: NodeKey) -> None:
        self.edges.setdefault(src, []).append((pid, dst))

    def mark_expanded(self, src: NodeKey) -> None:
        """Record that ``src`` was expanded, even if it has no edges
        (terminal states must be distinguishable from never-expanded
        ones on truncated walks)."""
        self.edges.setdefault(src, [])

    def finish(self, complete: bool) -> StateGraph:
        return StateGraph(
            initial=self.initial,
            nodes=self.nodes,
            edges={src: tuple(out) for src, out in self.edges.items()},
            complete=complete,
        )
