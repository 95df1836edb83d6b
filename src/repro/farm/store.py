"""Disk-backed StateGraph retention: the graph's own arrays, mmapped.

A verify-grade sweep cell retains the full labelled successor relation
of its exploration walk.  In RAM that is a
:class:`~repro.verify.graph.StateGraph` — node keys plus CSR edge arrays
indexed by node ordinal.  This module persists exactly those arrays
under a farm directory and reads them back through ``mmap``, so a
stored graph costs file pages, not heap.  A store directory
(``repro.graphstore/v2``) holds:

* ``keys.bin`` — :meth:`StateGraph.key` of every node (the
  canonicalizer's raw content digest, ``key_len`` bytes each), in node
  order; node 0 is the initial state.
* ``offsets.bin``, ``pids.bin``, ``dsts.bin`` and
  ``expansion_order.bin`` — the graph's ``array('q')`` attributes of
  the same names, dumped as they are with ``array.tofile``.
* ``meta.json`` — schema id, ``key_len``, the node, edge and expanded
  counts, ``complete``, and the ``byteorder`` and ``itemsize`` of the
  writing host.  Written last, through a temporary file and
  ``os.replace``: a directory without it is an unfinished write.

The arrays are native-endian, so a store reads back only on a host of
the byte order and item size its ``meta.json`` records; any other host,
a missing or malformed ``meta.json``, an array of the wrong size or a
directory of another schema (such as the retired ``repro.graphstore/v1``
layout, for which there is no reader) raises :class:`FarmError`.

:class:`DiskStateGraph` exposes the arrays as zero-copy
``memoryview.cast('q')`` views of the maps and shares its reads —
``successors``, ``expanded``, ``to_bytes``, ``digest`` — with the
in-RAM graph through :class:`~repro.verify.graph.CsrGraph`, so a stored
graph serialises to the source graph's bytes through the same code
(pinned by ``tests/farm/test_store.py``).  What the store drops is the
node *states*: the key already is the content digest of the state,
exactly the argument ``to_bytes`` makes for not serialising them.
"""

from __future__ import annotations

import json
import mmap
import os
import sys
from array import array
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.errors import FarmError
from repro.verify.graph import CsrGraph, StateGraph

__all__ = [
    "GRAPHSTORE_SCHEMA",
    "DiskStateGraph",
    "write_state_graph",
    "load_state_graph",
    "graph_store_bytes",
]

GRAPHSTORE_SCHEMA = "repro.graphstore/v2"

_KEYS = "keys.bin"
_META = "meta.json"
#: The graph's ``array('q')`` attributes, each stored as ``<name>.bin``.
_ARRAYS = ("offsets", "pids", "dsts", "expansion_order")
_ITEMSIZE = array("q").itemsize


def write_state_graph(
    graph: StateGraph, directory: Union[str, Path]
) -> Dict[str, Any]:
    """Persist an in-RAM :class:`StateGraph` into a store directory.

    Returns the ``meta.json`` document.  Rewriting an existing store
    (a verify cell re-run after a kill between this write and the run
    table's ``finish``) first removes its ``meta.json``, so the
    directory never vouches for half-rewritten arrays.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    (root / _META).unlink(missing_ok=True)
    keys = [graph.key(node) for node in range(len(graph))]
    key_len = len(keys[0])
    if any(len(key) != key_len for key in keys):
        raise FarmError("node keys differ in length; the store needs fixed-width keys")
    (root / _KEYS).write_bytes(b"".join(keys))
    for name in _ARRAYS:
        with (root / f"{name}.bin").open("wb") as out:
            getattr(graph, name).tofile(out)
    meta = {
        "schema": GRAPHSTORE_SCHEMA,
        "key_len": key_len,
        "nodes": len(graph),
        "edges": graph.edge_count,
        "expanded": len(graph.expansion_order),
        "complete": graph.complete,
        "byteorder": sys.byteorder,
        "itemsize": _ITEMSIZE,
    }
    staging = root / f"{_META}.tmp"
    staging.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    os.replace(staging, root / _META)
    return meta


def _read_meta(root: Path) -> Dict[str, Any]:
    """Load and check ``meta.json``; every defect is a :class:`FarmError`."""
    path = root / _META
    if not path.exists():
        raise FarmError(
            f"{root}: not a graph store (missing {_META}; "
            "writer killed before finalising?)"
        )
    try:
        meta = json.loads(path.read_text())
    except ValueError as exc:
        raise FarmError(f"{path}: unreadable ({exc})") from exc
    if not isinstance(meta, dict):
        raise FarmError(f"{path}: expected a JSON object")
    if meta.get("schema") != GRAPHSTORE_SCHEMA:
        raise FarmError(
            f"{root}: unsupported graph store schema "
            f"{meta.get('schema')!r} (this reader knows {GRAPHSTORE_SCHEMA!r})"
        )
    for field, least in (
        ("key_len", 1), ("nodes", 1), ("edges", 0), ("expanded", 0), ("itemsize", 1),
    ):
        value = meta.get(field)
        if type(value) is not int or value < least:
            raise FarmError(f"{path}: {field!r} must be an integer >= {least}")
    if not isinstance(meta.get("complete"), bool):
        raise FarmError(f"{path}: 'complete' must be a boolean")
    if meta.get("byteorder") != sys.byteorder or meta["itemsize"] != _ITEMSIZE:
        raise FarmError(
            f"{root}: written as {meta.get('byteorder')}-endian with "
            f"{meta['itemsize']}-byte items; this host reads "
            f"{sys.byteorder}-endian with {_ITEMSIZE}-byte items"
        )
    return meta


class DiskStateGraph(CsrGraph):
    """Read side of the store: the retained graph over ``mmap`` pages.

    The same ordinal-addressed reads as the in-RAM
    :class:`StateGraph` — ``len``, ``edge_count``, ``complete``,
    ``key(i)``, ``successors(i)``, ``expanded()``, ``to_bytes()`` and
    ``digest()`` — with ``offsets``, ``pids``, ``dsts`` and
    ``expansion_order`` as zero-copy views of the maps.  Node *states*
    are not stored, so analyses needing concrete states (the liveness
    checkers, lasso replay) run against the in-RAM graph.  Release the
    maps with :meth:`close` (or a ``with`` block) once no view taken
    from them is alive.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        meta = _read_meta(self.directory)
        self.key_len: int = meta["key_len"]
        self.complete = meta["complete"]
        sizes = {
            _KEYS: meta["nodes"] * self.key_len,
            "offsets.bin": (meta["nodes"] + 1) * _ITEMSIZE,
            "pids.bin": meta["edges"] * _ITEMSIZE,
            "dsts.bin": meta["edges"] * _ITEMSIZE,
            "expansion_order.bin": meta["expanded"] * _ITEMSIZE,
        }
        # Check every file before mapping any, so a defective store
        # raises without leaving maps open.
        for name, expected in sizes.items():
            path = self.directory / name
            try:
                size = path.stat().st_size
            except OSError as exc:
                raise FarmError(f"{path}: missing from the graph store") from exc
            if size != expected:
                raise FarmError(
                    f"{path}: expected {expected} bytes per {_META}, found {size}"
                )
        self._maps: List[mmap.mmap] = []
        self._keys = self._map(_KEYS, sizes[_KEYS])
        for name in _ARRAYS:
            view = self._map(f"{name}.bin", sizes[f"{name}.bin"]).cast("q")
            setattr(self, name, view)

    def _map(self, name: str, size: int) -> memoryview:
        if size == 0:
            # mmap refuses zero-length maps; an empty buffer reads the same.
            return memoryview(b"")
        with (self.directory / name).open("rb") as handle:
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        self._maps.append(mapped)
        return memoryview(mapped)

    def close(self) -> None:
        self._keys.release()
        for name in _ARRAYS:
            getattr(self, name).release()
        for mapped in self._maps:
            mapped.close()
        self._maps = []

    def __enter__(self) -> "DiskStateGraph":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def key(self, node: int) -> bytes:
        if not 0 <= node < len(self):
            raise IndexError(f"node {node} is not in this {len(self)}-node graph")
        start = node * self.key_len
        return bytes(self._keys[start : start + self.key_len])

    def _node_keys(self) -> List[bytes]:
        blob, width = bytes(self._keys), self.key_len
        return [blob[start : start + width] for start in range(0, len(blob), width)]


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
