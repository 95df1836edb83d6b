"""Property oracle for the integer liveness cores.

:func:`find_fair_nonprogress_cycle` and :func:`find_solo_livelock` take
only ``(n, CSR, labels)``, so they are checked here against brute force
on random small labelled graphs (at most 7 nodes, 2–3 pids):

* deadlock-freedom against an enumeration of every simple cycle of the
  non-progress subgraph — cycles sharing a node merge into one
  recurrent class, and a class is a violation when its cycles step
  every live pid and it holds a trying node;
* obstruction-freedom against brute-force solo chains.

Every reported cycle must close on the graph and satisfy the cycle
conditions.  Graphs are generated the way walks produce them: only a
live pid has an edge, at most one per pid per node, in pid order, and
no edge revives a process (the live set never grows along an edge), so
the live set is constant on every cycle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verify.graph import path_between
from repro.verify.liveness import (
    find_fair_nonprogress_cycle,
    find_solo_livelock,
)

PIDS = (101, 103, 105)


@st.composite
def labelled_graphs(draw):
    n = draw(st.integers(1, 7))
    pid_order = PIDS[: draw(st.integers(2, 3))]
    full = (1 << len(pid_order)) - 1
    # Mostly everyone live, so that cycles (which need equal live sets)
    # are common.
    live = [draw(st.one_of(st.just(full), st.integers(0, full))) for _ in range(n)]
    trying = [draw(st.integers(0, full)) & mask for mask in live]
    in_cs = [draw(st.integers(0, full)) for _ in range(n)]
    offsets, pids, dsts = [0], [], []
    for node in range(n):
        for k, pid in enumerate(pid_order):
            if live[node] >> k & 1 and draw(st.booleans()):
                targets = [v for v in range(n) if not live[v] & ~live[node]]
                pids.append(pid)
                dsts.append(draw(st.sampled_from(targets)))
        offsets.append(len(dsts))
    return n, offsets, pids, dsts, pid_order, in_cs, live, trying


def _edges(graph):
    n, offsets, pids, dsts = graph[:4]
    return [
        (node, pids[edge], dsts[edge])
        for node in range(n)
        for edge in range(offsets[node], offsets[node + 1])
    ]


def _nonprogress(graph):
    pid_order, in_cs = graph[4], graph[5]
    bit = {pid: 1 << k for k, pid in enumerate(pid_order)}
    return [
        (u, p, v)
        for u, p, v in _edges(graph)
        if not (not in_cs[u] & bit[p] and in_cs[v] & bit[p])
    ]


def _simple_cycles(n, edges):
    """Every simple cycle, as its edge list, each found once (from its
    smallest node)."""
    out = {node: [(p, v) for u, p, v in edges if u == node] for node in range(n)}
    cycles = []

    def extend(start, node, path, seen):
        for pid, dst in out[node]:
            if dst == start:
                cycles.append(path + [(node, pid, dst)])
            elif dst > start and dst not in seen:
                extend(start, dst, path + [(node, pid, dst)], seen | {dst})

    for start in range(n):
        extend(start, start, [], {start})
    return cycles


def _brute_force_df(graph):
    """Whether a fair non-progress recurrent class exists."""
    n, pid_order, live, trying = graph[0], graph[4], graph[6], graph[7]
    bit = {pid: 1 << k for k, pid in enumerate(pid_order)}
    cycles = _simple_cycles(n, _nonprogress(graph))
    parent = list(range(n))

    def find(node):
        while parent[node] != node:
            node = parent[node]
        return node

    for cycle in cycles:
        for u, _, v in cycle:
            parent[find(u)] = find(v)
    stepped = {}
    for cycle in cycles:
        root = find(cycle[0][0])
        for _, pid, _ in cycle:
            stepped[root] = stepped.get(root, 0) | bit[pid]
    for root, mask in stepped.items():
        members = [node for node in range(n) if find(node) == root]
        live_mask = live[members[0]]
        assert all(live[node] == live_mask for node in members)
        if (
            live_mask
            and not live_mask & ~mask
            and any(trying[node] & live_mask for node in members)
        ):
            return True
    return False


def _brute_force_scc_count(graph):
    n = graph[0]
    reach = [{node} for node in range(n)]
    edges = _nonprogress(graph)
    changed = True
    while changed:
        changed = False
        for u, _, v in edges:
            if not reach[v] <= reach[u]:
                reach[u] |= reach[v]
                changed = True
    return len({frozenset(w for w in reach[u] if u in reach[w]) for u in range(n)})


def _solo_successor(graph, node, pid):
    offsets, pids, dsts = graph[1], graph[2], graph[3]
    for edge in range(offsets[node], offsets[node + 1]):
        if pids[edge] == pid:
            return dsts[edge]
    return None


def _has_solo_cycle(graph, pid):
    for origin in range(graph[0]):
        node, seen = origin, set()
        while node is not None and node not in seen:
            seen.add(node)
            node = _solo_successor(graph, node, pid)
        if node is not None:
            return True
    return False


@settings(max_examples=400, deadline=None)
@given(labelled_graphs())
def test_df_verdict_matches_brute_force_cycles(graph):
    n, offsets, pids, dsts, pid_order, in_cs, live, trying = graph
    found, sccs = find_fair_nonprogress_cycle(*graph)
    assert (found is not None) == _brute_force_df(graph)
    if found is None:
        assert sccs == _brute_force_scc_count(graph)
        return
    # The reported cycle closes on the graph and is a fair non-progress
    # cycle from a trying entry.
    bit = {pid: 1 << k for k, pid in enumerate(pid_order)}
    live_mask = live[found.entry]
    assert found.live == tuple(p for p in pid_order if bit[p] & live_mask)
    assert trying[found.entry] & live_mask
    node, stepped = found.entry, 0
    for pid in found.cycle:
        dst = _solo_successor(graph, node, pid)
        assert dst is not None, "the cycle follows a missing edge"
        assert in_cs[node] & bit[pid] or not in_cs[dst] & bit[pid]
        assert live[dst] == live_mask
        stepped |= bit[pid]
        node = dst
    assert node == found.entry
    assert not live_mask & ~stepped


@settings(max_examples=400, deadline=None)
@given(labelled_graphs())
def test_scc_count_matches_brute_force_when_nobody_tries(graph):
    # Nobody trying: the verdict holds and every SCC is walked.
    idle = graph[:7] + ([0] * graph[0],)
    found, sccs = find_fair_nonprogress_cycle(*idle)
    assert found is None
    assert sccs == _brute_force_scc_count(idle)


@settings(max_examples=400, deadline=None)
@given(labelled_graphs())
def test_of_verdict_matches_brute_force_solo_chains(graph):
    n, offsets, pids, dsts, pid_order = graph[:5]
    found = find_solo_livelock(n, offsets, pids, dsts, pid_order)
    cycling = [pid for pid in pid_order if _has_solo_cycle(graph, pid)]
    if found is None:
        assert cycling == []
        return
    pid, entry, length = found
    assert pid == cycling[0]
    node = entry
    for step in range(length):
        node = _solo_successor(graph, node, pid)
        assert node is not None
        assert (node == entry) == (step == length - 1)


@settings(max_examples=200, deadline=None)
@given(labelled_graphs(), st.data())
def test_path_between_reaches_its_target(graph, data):
    n, offsets, pids, dsts = graph[:4]
    target = data.draw(st.integers(0, n - 1))
    try:
        schedule = path_between(offsets, pids, dsts, 0, target)
    except KeyError:
        reachable, frontier = {0}, [0]
        while frontier:
            node = frontier.pop()
            for _, _, dst in (e for e in _edges(graph) if e[0] == node):
                if dst not in reachable:
                    reachable.add(dst)
                    frontier.append(dst)
        assert target not in reachable
        return
    node = 0
    for pid in schedule:
        node = _solo_successor(graph, node, pid)
    assert node == target
