"""Differential tests: the disk graph store vs the in-RAM StateGraph.

The store is the graph's own arrays on disk, so the load-bearing
properties are array equality with the source graph and byte-identity
of ``DiskStateGraph.to_bytes()`` with ``StateGraph.to_bytes()`` — for
complete and truncated walks alike — because verification digests and
the farm's resume-identity guarantee are both defined over those bytes.
Every defect of a store directory must surface as a ``FarmError``.
"""

import hashlib
import json
import sys

import pytest

import repro.farm.store
from repro.errors import FarmError
from repro.farm import GRAPHSTORE_SCHEMA, load_state_graph, write_state_graph
from repro.problems import get_problem
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.verify.graph import GraphRecorder, StateInterner


def retained_graph(max_states=None):
    spec = get_problem("figure-1-mutex")
    instance = spec.instance("figure-1-mutex(m=3)")
    kwargs = {"max_states": max_states} if max_states else {}
    result = explore(
        spec.system(instance),
        mutual_exclusion_invariant,
        retain_graph=True,
        **kwargs,
    )
    assert result.graph is not None
    return result.graph


def one_node_graph():
    """A single expanded terminal node, recorded by ordinal."""
    spec = get_problem("figure-1-mutex")
    system = spec.system(spec.instance("figure-1-mutex(m=3)"))
    interner = StateInterner(2)
    recorder = GraphRecorder(
        1, interner.values, interner.entries, TrivialCanonicalizer(system.scheduler)
    )
    recorder.add_row(
        interner.pack(((0,), ((101, "a", False, False), (103, "b", False, False))))
    )
    recorder.expand(0)
    return recorder.finish(True)


GRAPHS = {
    "complete": retained_graph,
    "truncated": lambda: retained_graph(max_states=100),
    "one-node": one_node_graph,
}


@pytest.fixture(scope="module", params=list(GRAPHS))
def graph(request):
    return GRAPHS[request.param]()


@pytest.fixture()
def disk(graph, tmp_path):
    write_state_graph(graph, tmp_path / "store")
    with load_state_graph(tmp_path / "store") as handle:
        yield handle


@pytest.fixture(scope="module")
def complete_graph():
    return retained_graph()


@pytest.fixture()
def store(complete_graph, tmp_path):
    """A freshly written store of the complete m=3 graph."""
    write_state_graph(complete_graph, tmp_path / "store")
    return tmp_path / "store"


class TestRoundTrip:
    def test_arrays_equal_the_source(self, graph, disk):
        assert disk.offsets == graph.offsets
        assert disk.pids == graph.pids
        assert disk.dsts == graph.dsts
        assert disk.expansion_order == graph.expansion_order

    def test_arrays_are_zero_copy_views(self, disk):
        for view in (disk.offsets, disk.pids, disk.dsts, disk.expansion_order):
            assert isinstance(view, memoryview)
            assert view.format == "q" and view.readonly

    def test_every_key_equals_the_source(self, graph, disk):
        assert [disk.key(node) for node in range(len(disk))] == [
            graph.key(node) for node in range(len(graph))
        ]

    def test_to_bytes_is_byte_identical(self, graph, disk):
        assert disk.to_bytes() == graph.to_bytes()

    def test_digest_is_sha256_of_the_source_bytes(self, graph, disk):
        expected = hashlib.sha256(graph.to_bytes()).hexdigest()
        assert disk.digest() == expected
        assert graph.digest() == expected

    def test_counts_completeness_and_edges_agree(self, graph, disk):
        assert len(disk) == len(graph)
        assert disk.edge_count == graph.edge_count
        assert disk.complete is graph.complete
        assert disk.expanded() == graph.expanded()
        for node in range(len(graph)):
            assert disk.successors(node) == graph.successors(node)

    def test_truncated_store_keeps_its_frontier(self, tmp_path):
        truncated = retained_graph(max_states=100)
        write_state_graph(truncated, tmp_path / "t")
        with load_state_graph(tmp_path / "t") as handle:
            assert handle.complete is False
            assert 0 in handle.expanded()  # unexpanded frontier nodes

    def test_key_out_of_range_raises(self, disk):
        with pytest.raises(IndexError):
            disk.key(len(disk))

    def test_close_releases_the_maps(self, graph, tmp_path):
        write_state_graph(graph, tmp_path / "s")
        with load_state_graph(tmp_path / "s") as handle:
            assert handle.offsets[0] == 0
        with pytest.raises(ValueError):
            handle.offsets[0]


class TestFinalisation:
    def test_meta_json_is_written_last_through_os_replace(
        self, complete_graph, tmp_path, monkeypatch
    ):
        root = tmp_path / "s"
        real_replace = repro.farm.store.os.replace
        seen = {}

        def replace(src, dst):
            seen["files"] = sorted(path.name for path in root.iterdir())
            real_replace(src, dst)

        monkeypatch.setattr(repro.farm.store.os, "replace", replace)
        write_state_graph(complete_graph, root)
        assert "meta.json" not in seen["files"]
        assert "meta.json.tmp" in seen["files"]
        assert sorted(path.name for path in root.iterdir()) == [
            "dsts.bin", "expansion_order.bin", "keys.bin",
            "meta.json", "offsets.bin", "pids.bin",
        ]

    def test_rewrite_killed_before_meta_leaves_no_store(self, store, monkeypatch):
        # A verify cell re-run into its old directory and killed before
        # finalising: the previous meta.json must not vouch for the
        # half-rewritten arrays.
        def killed(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(repro.farm.store.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            write_state_graph(retained_graph(max_states=100), store)
        with pytest.raises(FarmError, match="missing meta.json"):
            load_state_graph(store)

    def test_rewrite_replaces_the_store(self, store):
        truncated = retained_graph(max_states=100)
        write_state_graph(truncated, store)
        with load_state_graph(store) as handle:
            assert handle.to_bytes() == truncated.to_bytes()

    def test_meta_document_is_returned_and_stored(self, complete_graph, tmp_path):
        meta = write_state_graph(complete_graph, tmp_path / "s")
        assert json.loads((tmp_path / "s" / "meta.json").read_text()) == meta
        assert meta["schema"] == GRAPHSTORE_SCHEMA == "repro.graphstore/v2"
        assert meta["nodes"] == len(complete_graph)
        assert meta["edges"] == complete_graph.edge_count
        assert meta["byteorder"] == sys.byteorder
        assert meta["itemsize"] == 8


def rewrite_meta(store, **changes):
    path = store / "meta.json"
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps(meta))


class TestDefectiveStores:
    def test_missing_meta_is_not_a_store(self, tmp_path):
        (tmp_path / "s").mkdir()
        with pytest.raises(FarmError, match="not a graph store"):
            load_state_graph(tmp_path / "s")

    def test_truncated_meta_raises_farm_error(self, store):
        path = store / "meta.json"
        path.write_text(path.read_text()[:40])
        with pytest.raises(FarmError, match="unreadable"):
            load_state_graph(store)

    def test_non_object_meta_raises_farm_error(self, store):
        (store / "meta.json").write_text("[1, 2]\n")
        with pytest.raises(FarmError, match="JSON object"):
            load_state_graph(store)

    def test_v1_directory_is_an_unsupported_schema(self, store):
        rewrite_meta(store, schema="repro.graphstore/v1")
        with pytest.raises(FarmError, match="unsupported graph store schema"):
            load_state_graph(store)

    @pytest.mark.parametrize(
        "field, value",
        [("nodes", None), ("nodes", 0), ("edges", -1), ("key_len", "8"),
         ("expanded", 1.5), ("complete", 1)],
    )
    def test_invalid_field_raises_farm_error(self, store, field, value):
        rewrite_meta(store, **{field: value})
        with pytest.raises(FarmError, match=field):
            load_state_graph(store)

    def test_byte_order_mismatch_raises_farm_error(self, store):
        other = "big" if sys.byteorder == "little" else "little"
        rewrite_meta(store, byteorder=other)
        with pytest.raises(FarmError, match=f"{other}-endian"):
            load_state_graph(store)

    def test_item_size_mismatch_raises_farm_error(self, store):
        rewrite_meta(store, itemsize=4)
        with pytest.raises(FarmError, match="4-byte items"):
            load_state_graph(store)

    def test_short_array_raises_farm_error(self, store):
        path = store / "pids.bin"
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FarmError, match="pids.bin: expected"):
            load_state_graph(store)

    def test_missing_array_raises_farm_error(self, store):
        (store / "dsts.bin").unlink()
        with pytest.raises(FarmError, match="dsts.bin: missing"):
            load_state_graph(store)
