"""Disk-backed StateGraph retention: append-only mmap edge arrays.

A verify-grade sweep cell retains the full labelled successor relation
of its exploration walk.  In RAM that is a
:class:`~repro.verify.graph.StateGraph` — packed node rows and CSR edge
arrays indexed by node ordinal, whose size still caps how large an
instance one process lifetime can verify.  This module persists the
same relation under a farm directory in a fixed-width binary layout
that is written append-only and read back through ``mmap``, so tens of
millions of retained edges cost file pages, not heap:

* ``nodes.bin`` — node keys (the canonicalizer's raw content digests,
  :meth:`StateGraph.key`), fixed ``key_len`` bytes each, in first-seen
  order.  A node's position in this file is its *ordinal* — the same
  ordinal the in-RAM graph gives it.
* ``edges.bin`` — one 16-byte record per edge, ``>IIq``:
  ``(src ordinal, dst ordinal, pid)``, appended in recording order
  (the walk's expansion order, ``StateGraph.expansion_order``).
  Edges of one source node are contiguous (the writer API enforces
  it), so a node's out-edges are a single slice.
* ``index.bin`` — written once at finalisation, one 17-byte record per
  node in **sorted-key order**, ``>IQIB``: ``(ordinal, first edge
  record, edge count, expanded flag)``.  Sorted order makes
  ``successors()`` a binary search and lets :meth:`DiskStateGraph.to_bytes`
  stream the canonical serialisation without building dictionaries.
* ``meta.json`` — schema id, key length, counts, completeness flag and
  the initial key.

:func:`write_state_graph` writes a finished in-RAM graph straight from
its ordinals through :class:`DiskGraphWriter`.
:meth:`DiskStateGraph.to_bytes` reproduces the in-RAM
:meth:`StateGraph.to_bytes` framing byte-for-byte (pinned by the
differential tests in ``tests/farm/test_store.py``), so graph digests
computed from the store equal digests computed from the walk.  What the
store deliberately drops is the node *states* — the key already is the
content digest of the state, exactly the argument ``to_bytes`` itself
makes for not serialising them.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import struct
from pathlib import Path
from typing import IO, Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.errors import FarmError
from repro.verify.graph import STATEGRAPH_MAGIC, StateGraph

__all__ = [
    "GRAPHSTORE_SCHEMA",
    "DiskGraphWriter",
    "DiskStateGraph",
    "write_state_graph",
    "load_state_graph",
    "graph_store_bytes",
]

GRAPHSTORE_SCHEMA = "repro.graphstore/v1"

_NODES = "nodes.bin"
_EDGES = "edges.bin"
_INDEX = "index.bin"
_META = "meta.json"

#: One edge record: (src ordinal, dst ordinal, pid).
_EDGE = struct.Struct(">IIq")
#: One index record: (ordinal, first edge record, edge count, expanded).
_INDEX_ENTRY = struct.Struct(">IQIB")


class DiskGraphWriter:
    """Incremental writer of one graph store.

    ``add_node`` assigns ordinals on first sight and appends the key to
    ``nodes.bin``; ``add_edge`` appends an edge between two added
    ordinals to ``edges.bin`` and requires one source's edges to arrive
    contiguously (which a walk's expansion order guarantees);
    ``expand`` distinguishes expanded-but-terminal nodes from
    never-expanded frontier nodes on truncated walks.  ``finalize``
    writes the sorted index and metadata — until then the directory is
    an unreadable partial write, which is fine: a killed verify cell is
    still ``claimed`` in the run table and will be re-run from scratch
    on resume.
    """

    def __init__(self, directory: Union[str, Path], key_len: int):
        if key_len <= 0:
            raise FarmError(f"key_len must be positive, got {key_len}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.key_len = key_len
        self._nodes: IO[bytes] = (self.directory / _NODES).open("wb")
        self._edges: IO[bytes] = (self.directory / _EDGES).open("wb")
        self._ordinals: Dict[bytes, int] = {}
        #: src ordinal -> (first edge record, edge count)
        self._edge_spans: Dict[int, List[int]] = {}
        self._expanded: set = set()
        self._open_src: Optional[int] = None
        self._edge_count = 0
        self._finalized = False

    def add_node(self, key: bytes) -> int:
        """Record a node key (idempotent); returns its ordinal."""
        ordinal = self._ordinals.get(key)
        if ordinal is not None:
            return ordinal
        if len(key) != self.key_len:
            raise FarmError(
                f"node key is {len(key)} bytes; this store was opened "
                f"with key_len={self.key_len}"
            )
        ordinal = len(self._ordinals)
        self._ordinals[key] = ordinal
        self._nodes.write(key)
        return ordinal

    def _check_ordinal(self, ordinal: int) -> None:
        if not 0 <= ordinal < len(self._ordinals):
            raise FarmError(
                f"node ordinal {ordinal} was never added "
                f"({len(self._ordinals)} nodes so far)"
            )

    def expand(self, src_ord: int) -> None:
        """Mark node ``src_ord`` expanded (terminal if it gets no edges)."""
        self._check_ordinal(src_ord)
        self._expanded.add(src_ord)

    def add_edge(self, src_ord: int, pid: int, dst_ord: int) -> None:
        """Append the ``pid`` edge ``src_ord -> dst_ord``."""
        self._check_ordinal(src_ord)
        self._check_ordinal(dst_ord)
        if src_ord != self._open_src:
            if src_ord in self._edge_spans:
                raise FarmError(
                    f"edges for node ordinal {src_ord} arrived "
                    "non-contiguously; the disk store requires one "
                    "source's edges in a single run"
                )
            self._edge_spans[src_ord] = [self._edge_count, 0]
            self._open_src = src_ord
        self._edges.write(_EDGE.pack(src_ord, dst_ord, pid))
        self._edge_spans[src_ord][1] += 1
        self._edge_count += 1
        self._expanded.add(src_ord)

    def finalize(self, initial: bytes, complete: bool) -> Dict[str, Any]:
        """Write the sorted index + metadata; returns the meta document."""
        if self._finalized:
            raise FarmError("finalize() called twice on one DiskGraphWriter")
        self._finalized = True
        if initial not in self._ordinals:
            raise FarmError("initial key was never added as a node")
        self._nodes.close()
        self._edges.close()
        with (self.directory / _INDEX).open("wb") as index:
            for key in sorted(self._ordinals):
                ordinal = self._ordinals[key]
                start, count = self._edge_spans.get(ordinal, (0, 0))
                index.write(
                    _INDEX_ENTRY.pack(
                        ordinal, start, count, 1 if ordinal in self._expanded else 0
                    )
                )
        meta = {
            "schema": GRAPHSTORE_SCHEMA,
            "key_len": self.key_len,
            "nodes": len(self._ordinals),
            "edges": self._edge_count,
            "complete": complete,
            "initial": initial.hex(),
        }
        (self.directory / _META).write_text(
            json.dumps(meta, indent=1, sort_keys=True) + "\n"
        )
        return meta


def write_state_graph(
    graph: StateGraph, directory: Union[str, Path]
) -> Dict[str, Any]:
    """Persist an in-RAM :class:`StateGraph` into a store directory.

    Straight from the ordinals: the graph's node ``i`` is the store's
    ordinal ``i`` (its raw key, :meth:`StateGraph.key`, goes to
    ``nodes.bin`` in node order), and each expanded node's edges are
    appended in the graph's ``expansion_order`` — exactly what an
    in-walk recorder would have produced, so the store layout is
    independent of whether the graph was spooled during the walk or
    dumped afterwards.
    """
    keys = [graph.key(node) for node in range(len(graph))]
    writer = DiskGraphWriter(directory, key_len=len(keys[0]))
    for key in keys:
        writer.add_node(key)
    offsets, pids, dsts = graph.offsets, graph.pids, graph.dsts
    for src in graph.expansion_order:
        writer.expand(src)
        for edge in range(offsets[src], offsets[src + 1]):
            writer.add_edge(src, pids[edge], dsts[edge])
    return writer.finalize(keys[0], graph.complete)


class DiskStateGraph:
    """Read side of the store: the retained graph over ``mmap`` pages.

    Key-addressed reads — ``len``, ``successors`` and ``expanded`` by
    node key, ``iter_nodes`` in key order, ``complete``, ``to_bytes``,
    ``digest`` — without materialising the graph.  Node *states* are
    not stored, so analyses needing concrete states (the liveness
    checkers, lasso replay) run against the in-RAM
    :class:`StateGraph`.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        meta_path = self.directory / _META
        if not meta_path.exists():
            raise FarmError(
                f"{self.directory}: not a graph store (missing {_META}; "
                "writer killed before finalize?)"
            )
        meta = json.loads(meta_path.read_text())
        if meta.get("schema") != GRAPHSTORE_SCHEMA:
            raise FarmError(
                f"{self.directory}: unsupported graph store schema "
                f"{meta.get('schema')!r} (this reader knows {GRAPHSTORE_SCHEMA!r})"
            )
        self.key_len: int = meta["key_len"]
        self.node_count: int = meta["nodes"]
        self.edge_count: int = meta["edges"]
        self.complete: bool = meta["complete"]
        self.initial: bytes = bytes.fromhex(meta["initial"])
        self._files: List[IO[bytes]] = []
        self._nodes = self._map(_NODES, self.node_count * self.key_len)
        self._edges = self._map(_EDGES, self.edge_count * _EDGE.size)
        self._index = self._map(_INDEX, self.node_count * _INDEX_ENTRY.size)

    def _map(self, name: str, expected: int) -> Union[bytes, mmap.mmap]:
        path = self.directory / name
        size = path.stat().st_size
        if size != expected:
            raise FarmError(
                f"{path}: expected {expected} bytes per meta.json, found {size}"
            )
        if size == 0:
            # mmap refuses zero-length maps; an empty buffer reads the same.
            return b""
        handle = path.open("rb")
        self._files.append(handle)
        return mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)

    def close(self) -> None:
        for view in (self._nodes, self._edges, self._index):
            if isinstance(view, mmap.mmap):
                view.close()
        for handle in self._files:
            handle.close()
        self._files = []

    def __enter__(self) -> "DiskStateGraph":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __len__(self) -> int:
        return self.node_count

    # -- lookups -------------------------------------------------------

    def _key_at(self, ordinal: int) -> bytes:
        start = ordinal * self.key_len
        return bytes(self._nodes[start : start + self.key_len])

    def _index_entry(self, position: int) -> Tuple[int, int, int, int]:
        start = position * _INDEX_ENTRY.size
        entry: Tuple[int, int, int, int] = _INDEX_ENTRY.unpack_from(self._index, start)
        return entry

    def _edge_at(self, record: int) -> Tuple[int, int, int]:
        start = record * _EDGE.size
        edge: Tuple[int, int, int] = _EDGE.unpack_from(self._edges, start)
        return edge

    def iter_nodes(self) -> Iterator[bytes]:
        """Node keys in sorted (deterministic) order."""
        for position in range(self.node_count):
            ordinal, _, _, _ = self._index_entry(position)
            yield self._key_at(ordinal)

    def _find(self, key: bytes) -> Optional[int]:
        """Binary-search the sorted index for ``key``'s position."""
        lo, hi = 0, self.node_count
        while lo < hi:
            mid = (lo + hi) // 2
            ordinal, _, _, _ = self._index_entry(mid)
            probe = self._key_at(ordinal)
            if probe == key:
                return mid
            if probe < key:
                lo = mid + 1
            else:
                hi = mid
        return None

    def __contains__(self, key: bytes) -> bool:
        return self._find(key) is not None

    def successors(self, key: bytes) -> Tuple[Tuple[int, bytes], ...]:
        """Outgoing ``(pid, dst key)`` edges (empty for terminal states)."""
        position = self._find(key)
        if position is None:
            return ()
        _, start, count, _ = self._index_entry(position)
        out: List[Tuple[int, bytes]] = []
        for record in range(start, start + count):
            _, dst_ord, pid = self._edge_at(record)
            out.append((pid, self._key_at(dst_ord)))
        return tuple(out)

    def expanded(self, key: bytes) -> bool:
        """Whether the walk expanded this node (vs truncated frontier)."""
        position = self._find(key)
        if position is None:
            raise KeyError(key.hex())
        return bool(self._index_entry(position)[3])

    # -- canonical serialisation ---------------------------------------

    def _iter_serialised(self) -> Iterator[bytes]:
        yield STATEGRAPH_MAGIC
        yield b"\x01" if self.complete else b"\x00"
        yield self.initial
        yield self.node_count.to_bytes(8, "big")
        for position in range(self.node_count):
            ordinal, start, count, _ = self._index_entry(position)
            chunk: List[bytes] = [self._key_at(ordinal), count.to_bytes(4, "big")]
            for record in range(start, start + count):
                _, dst_ord, pid = self._edge_at(record)
                chunk.append(f"p{pid};".encode("ascii"))
                chunk.append(self._key_at(dst_ord))
            yield b"".join(chunk)

    def to_bytes(self) -> bytes:
        """Byte-identical to the source graph's :meth:`StateGraph.to_bytes`."""
        return b"".join(self._iter_serialised())

    def digest(self) -> str:
        """sha256 of :meth:`to_bytes`, streamed (no full materialisation)."""
        digest = hashlib.sha256()
        for chunk in self._iter_serialised():
            digest.update(chunk)
        return digest.hexdigest()


def load_state_graph(directory: Union[str, Path]) -> DiskStateGraph:
    """Open a graph store directory for reading."""
    return DiskStateGraph(directory)


def graph_store_bytes(directory: Union[str, Path]) -> int:
    """Total on-disk bytes of one graph store (or a tree of them)."""
    root = Path(directory)
    if not root.exists():
        return 0
    return sum(
        entry.stat().st_size for entry in root.rglob("*") if entry.is_file()
    )
