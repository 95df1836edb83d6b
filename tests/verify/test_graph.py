"""State-graph retention: determinism, soundness gates, replayability.

The load-bearing claim is that on complete runs the default packed
walker and the interpreter oracle retain the *same* :class:`StateGraph`
— equal CSR arrays (``offsets``/``pids``/``dsts``), the same state at
every node ordinal, identical :meth:`StateGraph.to_bytes` output and
identical liveness verdicts and lassos — for every shipped verify-role
instance.  Everything downstream (deadlock-freedom SCCs, solo-run chain
walks, lasso schedules) inherits its determinism from this.
"""

import time

import pytest

from repro.errors import ConfigurationError
from repro.problems import get_problem, instances_with_role
from repro.runtime import compiled
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer
from repro.runtime.compiled import CompiledBackend, CompiledProgram
from repro.runtime.exploration import explore
from repro.runtime.kernel import StepInstance, step_value
from repro.verify.graph import GraphRecorder, StateInterner
from repro.verify.liveness import LIVENESS_CHECKERS


def _explore_graph(spec, instance, backend):
    system = spec.system(instance)
    result = explore(
        system,
        spec.invariant,
        max_states=instance.verify_max_states,
        max_depth=instance.verify_max_states,
        backend=backend,
        retain_graph=True,
    )
    return system, result


VERIFY_INSTANCES = [
    pytest.param(spec, inst, id=inst.label)
    for spec, inst in instances_with_role("verify", include_mutants=True)
]


def _canonicalizer():
    spec = get_problem("figure-1-mutex")
    system = spec.system(spec.instance("figure-1-mutex(m=3)"))
    return TrivialCanonicalizer(system.scheduler)


def _state(value, local):
    return (value,), ((101, local, False, False), (103, "idle", False, False))


def _record(states, runs, complete=True):
    """A graph of value states (node i is ``states[i]``) whose expanded
    nodes have ``runs[node]`` edges, expanded in ``runs`` order."""
    interner = StateInterner(2)
    recorder = GraphRecorder(1, interner.values, interner.entries, _canonicalizer())
    for state in states:
        recorder.add_row(interner.pack(state))
    for node, edges in runs.items():
        recorder.expand(node)
        for pid, dst in edges:
            recorder.add_edge(pid, dst)
    return recorder.finish(complete)


A, B, C = _state(0, "a"), _state(1, "b"), _state(1, "c")


@pytest.fixture(scope="module")
def walks():
    """(oracle result, walker result, system) per instance label, each
    walked once for the whole module."""
    cache = {}

    def get(spec, instance):
        if instance.label not in cache:
            system, serial = _explore_graph(spec, instance, SerialBackend())
            _, walker = _explore_graph(spec, instance, CompiledBackend())
            cache[instance.label] = (serial, walker, system)
        return cache[instance.label]

    return get


class TestBackendByteIdentity:
    @pytest.mark.parametrize("spec, instance", VERIFY_INSTANCES)
    def test_walker_and_oracle_graphs_are_byte_identical(
        self, spec, instance, walks
    ):
        serial, walker, _ = walks(spec, instance)
        assert serial.graph is not None and walker.graph is not None
        assert serial.complete and walker.complete
        assert len(serial.graph) == serial.states_explored
        assert serial.graph.to_bytes() == walker.graph.to_bytes()

    @pytest.mark.parametrize("spec, instance", VERIFY_INSTANCES)
    def test_walker_and_oracle_graphs_agree_node_for_node(
        self, spec, instance, walks
    ):
        serial, walker, system = walks(spec, instance)
        oracle_graph, walker_graph = serial.graph, walker.graph
        assert walker_graph.offsets == oracle_graph.offsets
        assert walker_graph.pids == oracle_graph.pids
        assert walker_graph.dsts == oracle_graph.dsts
        assert walker_graph.expansion_order == oracle_graph.expansion_order
        for node in range(len(oracle_graph)):
            assert walker_graph.state(node) == oracle_graph.state(node)
        step = StepInstance.from_system(system)
        for declared in spec.liveness:
            checker = LIVENESS_CHECKERS[declared.kind]
            assert checker(step, walker_graph) == checker(step, oracle_graph)


class TestRetentionContract:
    def test_retain_graph_requires_the_trivial_canonicalizer(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        with pytest.raises(ConfigurationError, match="trivial canonicalizer"):
            explore(
                spec.system(instance),
                spec.invariant,
                reduction="symmetry",
                retain_graph=True,
            )

    def test_graph_is_absent_by_default(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        result = explore(spec.system(instance), spec.invariant)
        assert result.graph is None

    def test_truncated_walks_retain_an_incomplete_graph(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        result = explore(
            spec.system(instance),
            spec.invariant,
            max_states=50,
            retain_graph=True,
        )
        assert not result.complete
        assert result.graph is not None and not result.graph.complete
        # The child that hit the budget is a node, but never expanded.
        assert len(result.graph) == 51
        assert result.graph.expanded()[50] == 0

    @pytest.mark.parametrize(
        "backend", [SerialBackend(), CompiledBackend()], ids=["oracle", "walker"]
    )
    def test_reported_seconds_cover_the_graph_packaging(
        self, backend, monkeypatch
    ):
        finish = GraphRecorder.finish

        def slow_finish(self, complete):
            time.sleep(0.2)
            return finish(self, complete)

        monkeypatch.setattr(GraphRecorder, "finish", slow_finish)
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        _, result = _explore_graph(spec, instance, backend)
        assert result.wall_seconds >= 0.2

    def test_graph_walk_assembles_no_digest_and_unpacks_nothing(
        self, monkeypatch
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("called on the graph-retaining walk")

        monkeypatch.setattr(compiled, "_digest_key", forbidden)
        monkeypatch.setattr(CompiledProgram, "unpack", forbidden)
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        _, result = _explore_graph(spec, instance, CompiledBackend())
        assert result.complete and len(result.graph) == 1747

    def test_every_edge_replays_through_the_pure_kernel(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        system, result = _explore_graph(spec, instance, CompiledBackend())
        graph = result.graph
        step = StepInstance.from_system(system)
        checked = 0
        for node in range(200):
            src = graph.state(node)
            for pid, dst in graph.successors(node):
                assert step_value(step, src, pid) == graph.state(dst)
                checked += 1
        assert checked > 0

    def test_path_to_replays_to_the_target_state(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        system, result = _explore_graph(spec, instance, SerialBackend())
        graph = result.graph
        step = StepInstance.from_system(system)
        target = len(graph) - 1  # the last state first seen
        schedule = graph.path_to(target)
        state = graph.state(graph.initial)
        for pid in schedule:
            state = step_value(step, state, pid)
        assert state == graph.state(target)

    def test_path_to_unreachable_node_raises(self):
        graph = _record([A, B], {0: []}, complete=False)
        with pytest.raises(KeyError, match="not reachable"):
            graph.path_to(1)


class TestSerialisation:
    def _tiny(self, complete=True):
        return _record([A, B], {0: [(101, 1), (103, 0)], 1: []}, complete)

    def test_recorder_round_trip(self):
        graph = self._tiny()
        assert len(graph) == 2
        assert graph.edge_count == 2
        assert graph.successors(0) == ((101, 1), (103, 0))
        assert graph.successors(1) == ()  # terminal
        assert graph.state(0) == A and graph.state(1) == B
        assert list(graph.offsets) == [0, 2, 2]

    def test_state_out_of_range_raises(self):
        with pytest.raises(IndexError):
            self._tiny().state(2)

    def test_finish_reorders_expansion_runs_into_node_order(self):
        # DFS expands the last-seen child first: node 2 before node 1.
        graph = _record(
            [A, B, C], {0: [(101, 1), (103, 2)], 2: [(101, 0)], 1: [(103, 1)]}
        )
        assert list(graph.offsets) == [0, 2, 3, 4]
        assert list(graph.pids) == [101, 103, 103, 101]
        assert list(graph.dsts) == [1, 2, 1, 0]
        assert list(graph.expansion_order) == [0, 2, 1]

    def test_unexpanded_nodes_have_no_edges_and_no_flag(self):
        graph = _record([A, B], {0: [(101, 1)]}, complete=False)
        assert graph.successors(1) == ()
        assert list(graph.expanded()) == [1, 0]

    def test_to_bytes_encodes_the_completeness_flag(self):
        assert (
            self._tiny(complete=True).to_bytes()
            != self._tiny(complete=False).to_bytes()
        )

    def test_to_bytes_is_stable_under_node_insertion_order(self):
        first = _record([A, B, C], {0: [(101, 1), (103, 2)], 1: [], 2: []})
        second = _record([A, C, B], {0: [(101, 2), (103, 1)], 2: [], 1: []})
        assert first.to_bytes() == second.to_bytes()

    def test_keys_are_the_canonicalizers_raw_keys(self):
        graph = self._tiny()
        canonicalizer = graph.canonicalizer
        assert graph.key(1) == canonicalizer.key_of_state(B)[1]
        assert graph.to_bytes().count(graph.key(0)) == 3  # initial, node, edge
