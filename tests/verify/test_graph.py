"""State-graph retention: determinism, soundness gates, replayability.

The load-bearing claim is byte-identity: on complete runs the default
packed walker and the interpreter oracle retain the *same* :class:`StateGraph` — same nodes,
same per-node edge order, identical :meth:`StateGraph.to_bytes` output —
for every shipped verify-role instance.  Everything downstream
(deadlock-freedom SCCs, solo-run chain walks, lasso schedules) inherits
its determinism from this.
"""

import pytest

from repro.errors import ConfigurationError
from repro.problems import get_problem, instances_with_role
from repro.runtime.backends import SerialBackend
from repro.runtime.compiled import CompiledBackend
from repro.runtime.exploration import explore
from repro.runtime.kernel import StepInstance, step_value
from repro.verify.graph import GraphRecorder, StateGraph


def _no_invariant(system):
    return None


def _explore_graph(spec, instance, backend):
    system = spec.system(instance)
    invariant = spec.invariant if spec.invariant is not None else _no_invariant
    result = explore(
        system,
        invariant,
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


class TestBackendByteIdentity:
    @pytest.mark.parametrize("spec, instance", VERIFY_INSTANCES)
    def test_walker_and_oracle_graphs_are_byte_identical(
        self, spec, instance
    ):
        _, serial = _explore_graph(spec, instance, SerialBackend())
        _, walker = _explore_graph(spec, instance, CompiledBackend())
        assert serial.graph is not None and walker.graph is not None
        assert serial.complete and walker.complete
        assert len(serial.graph) == serial.states_explored
        assert serial.graph.to_bytes() == walker.graph.to_bytes()


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

    def test_every_edge_replays_through_the_pure_kernel(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        system, result = _explore_graph(spec, instance, SerialBackend())
        graph = result.graph
        step = StepInstance.from_system(spec.system(instance))
        checked = 0
        for key in list(graph.iter_nodes())[:200]:
            src = graph.nodes[key]
            for pid, dst in graph.successors(key):
                assert step_value(step, src, pid) == graph.nodes[dst]
                checked += 1
        assert checked > 0

    def test_path_to_replays_to_the_target_state(self):
        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        _, result = _explore_graph(spec, instance, SerialBackend())
        graph = result.graph
        step = StepInstance.from_system(spec.system(instance))
        target = max(graph.nodes)  # arbitrary but deterministic
        schedule = graph.path_to(target)
        state = graph.nodes[graph.initial]
        for pid in schedule:
            state = step_value(step, state, pid)
        assert state == graph.nodes[target]

    def test_path_to_unreachable_node_raises(self):
        graph = StateGraph(
            initial=b"a" * 8,
            nodes={b"a" * 8: ((), ()), b"z" * 8: ((), ())},
            edges={b"a" * 8: ()},
            complete=False,
        )
        with pytest.raises(KeyError, match="not reachable"):
            graph.path_to(b"z" * 8)


class TestSerialisation:
    def _tiny(self, complete=True):
        a, b = b"a" * 8, b"b" * 8
        recorder = GraphRecorder(a, ((), ()))
        recorder.add_node(b, ((1,), ()))
        recorder.add_edge(a, 101, b)
        recorder.add_edge(a, 103, a)
        recorder.mark_expanded(b)
        return recorder.finish(complete=complete)

    def test_recorder_round_trip(self):
        graph = self._tiny()
        assert len(graph) == 2
        assert graph.edge_count == 2
        assert graph.successors(b"a" * 8) == ((101, b"b" * 8), (103, b"a" * 8))
        assert graph.successor_via(b"a" * 8, 103) == b"a" * 8
        assert graph.successor_via(b"b" * 8, 101) is None  # terminal

    def test_to_bytes_encodes_the_completeness_flag(self):
        assert (
            self._tiny(complete=True).to_bytes()
            != self._tiny(complete=False).to_bytes()
        )

    def test_to_bytes_is_stable_under_node_insertion_order(self):
        a, b = b"a" * 8, b"b" * 8
        first = GraphRecorder(a, ((), ()))
        first.add_node(b, ((1,), ()))
        first.add_edge(a, 101, b)
        first.mark_expanded(b)
        second = GraphRecorder(a, ((), ()))
        second.add_edge(a, 101, b)
        second.add_node(b, ((1,), ()))
        second.mark_expanded(b)
        assert (
            first.finish(complete=True).to_bytes()
            == second.finish(complete=True).to_bytes()
        )
