"""The benchmark's four closed-loop workloads.

Each workload is one client that calls ``repro``'s public entry points
with their defaults, waits for every verdict, and then starts again.
One pass over a workload's entry-point calls is an *iteration*; its
wall time is what ``wall_s`` reports.  A workload has four steps:

* ``prepare`` — the set-up ``setup_s`` times: resolve targets through
  the registry and build the systems the calls take;
* ``call`` — the timed entry-point calls of one iteration, which
  return raw results (an exception is kept as that operation's result);
* ``check`` — compare every result with the known-answer table and
  turn it into :class:`Op` records plus the exact counts that must
  repeat at one seed;
* ``probe`` — traced runs only: extra calls that split a workload's
  time between layers (for instance a walk without the graph beside
  the walk with it), returned as per-layer metrics.

``repro`` is imported inside the methods, never at module level, so a
fresh interpreter that imports this module can time ``import repro``
as part of set-up.

``full=False`` selects the reduced targets the benchmark's own tests
run; every target of either size has an entry in known_answers.json.
"""

from __future__ import annotations

import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple


@dataclass
class Op:
    """One operation of an iteration; ``error`` is None when it passed."""

    name: str
    error: Optional[str] = None


@dataclass
class Checked:
    ops: List[Op] = field(default_factory=list)
    #: Exact counts (states, events, hits, ...) that must repeat at one seed.
    counts: Dict[str, Any] = field(default_factory=dict)


def _guard(function, *args, **kwargs):
    """Call an entry point; an exception becomes the operation's result
    so one failed operation is counted instead of ending the run."""
    try:
        return function(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        traceback.print_exc(file=sys.stderr)
        return exc


def _mismatch(expected: Dict[str, Any], actual: Dict[str, Any]) -> Optional[str]:
    wrong = [
        f"{key}={actual.get(key)!r}, expected {value!r}"
        for key, value in expected.items()
        if actual.get(key) != value
    ]
    return "; ".join(wrong) or None


def _check_op(checked: Checked, name: str, result: Any, expected, actual_of) -> Any:
    """Record one operation: failed on an exception, a missing known
    answer, or any field of ``actual_of(result)`` that differs from it."""
    if isinstance(result, Exception):
        checked.ops.append(Op(name, f"{type(result).__name__}: {result}"))
        return None
    if expected is None:
        checked.ops.append(Op(name, "no known answer"))
        return None
    try:
        actual = actual_of(result)
    except Exception as exc:  # noqa: BLE001 - a check that crashes is a failure
        traceback.print_exc(file=sys.stderr)
        checked.ops.append(Op(name, f"check raised {type(exc).__name__}: {exc}"))
        return None
    checked.ops.append(Op(name, _mismatch(expected, actual)))
    return actual


def all_lassos_replay(spec, instance, lassos, tracer, op: str) -> Optional[bool]:
    """Whether every ``(prefix, cycle)`` lasso replays; None without lassos."""
    if not lassos:
        return None
    return all(
        lasso_replays(spec, instance, prefix, cycle, tracer, op)
        for prefix, cycle in lassos
    )


def lasso_replays(spec, instance, prefix, cycle, tracer, op: str) -> bool:
    """Whether a deadlock-freedom lasso replays: the pure kernel returns
    to the cycle's entry state after one turn, and a live replay of the
    prefix plus two turns runs every step and enters no critical section
    beyond those the prefix enters."""
    from repro.runtime.kernel import StepInstance, step_value
    from repro.runtime.replay import replay_schedule

    with tracer.span("problems", "ProblemSpec.system", op):
        system = spec.system(instance)
        traced = spec.system(instance, record_trace=True)
        prefix_only = spec.system(instance, record_trace=True)
    with tracer.span("runtime", "replay_schedule", op):
        step = StepInstance.from_system(system)
        state = system.scheduler.capture_state()
        for pid in prefix:
            state = step_value(step, state, pid)
        entry = state
        for pid in cycle:
            state = step_value(step, state, pid)
        schedule = tuple(prefix) + 2 * tuple(cycle)
        trace = replay_schedule(traced, schedule)
        before = replay_schedule(prefix_only, prefix).critical_section_entries()
    return (
        bool(cycle)
        and state == entry
        and len(trace) == len(schedule)
        and trace.critical_section_entries() == before
    )


class Workload:
    name = ""
    #: Whether ``--seed`` changes the workload's inputs.
    seeded = False

    def __init__(
        self, seed: int, full: bool, answers: Dict[str, Any], scratch: Path
    ):
        self.seed = seed
        self.full = full
        self.answers = answers.get(self.name, {})
        #: Where temporary farm directories go (removed after each use).
        self.scratch = scratch
        #: Operations a traced run's probe checks against known answers.
        self.probe_checked = Checked()


class VerifyRegistry(Workload):
    """`repro verify` with no flags: every verify-role instance, the even-m
    mutant included.  The only workload where graph record and liveness
    weigh."""

    name = "verify-registry"
    SMALL = (
        "figure-1-mutex(m=3)",
        "figure-2-consensus(n=2)",
        "figure-3-renaming(n=2)",
        "election(n=2)",
        "figure-1-mutex-even-m(m=4)",
    )

    def prepare(self, tracer) -> None:
        from repro.problems import instances_with_role

        with tracer.span("problems", "instances_with_role", f"setup/{self.name}"):
            self.targets = [
                (spec, inst)
                for spec, inst in instances_with_role("verify", include_mutants=True)
                if self.full or inst.label in self.SMALL
            ]

    def call(self, tracer, op: str) -> List[Any]:
        from repro.request import RunRequest
        from repro.verify import verify_instance

        results = []
        for spec, inst in self.targets:
            with tracer.span("verify", "verify_instance", f"{op}/{inst.label}"):
                results.append(
                    _guard(verify_instance, spec, inst, request=RunRequest())
                )
        return results

    def check(self, results, tracer, op: str) -> Checked:
        checked = Checked()
        #: What each report timed, for the traced run's probe.
        self.timings = [
            {
                "walk_s": report.explore_seconds,
                "liveness_s": report.verify_seconds,
                "edges": report.retained_edges,
                "liveness_states": (
                    report.exploration.states_explored if report.outcomes else 0
                ),
            }
            for report in results
            if not isinstance(report, Exception)
        ]
        for (spec, inst), report in zip(self.targets, results):
            actual = _check_op(
                checked, inst.label, report, self.answers.get(inst.label),
                lambda report: {
                    "ok": report.ok,
                    "states": report.exploration.states_explored,
                    "edges": report.retained_edges,
                    "lasso_replays": all_lassos_replay(
                        spec, inst,
                        [
                            (outcome.verdict.lasso.prefix, outcome.verdict.lasso.cycle)
                            for outcome in report.outcomes
                            if outcome.verdict.lasso is not None
                        ],
                        tracer, f"{op}/{inst.label}",
                    ),
                },
            )
            if actual is not None:
                checked.counts[inst.label] = (actual["states"], actual["edges"])
        return checked

    def probe(self, tracer) -> Dict[str, float]:
        """Split verify into walk, graph record, liveness and lasso replay.

        The reports of the traced iteration time their graph-retaining
        walk and their liveness analyses; a walk without the graph beside
        each gives the cost of recording it.
        """
        from repro.runtime.exploration import explore

        walk = 0.0
        for spec, inst in self.targets:
            op = f"probe/{self.name}/{inst.label}"
            budget = inst.verify_max_states
            with tracer.span("problems", "ProblemSpec.system", op):
                system = spec.system(inst)
            with tracer.span("runtime", "explore", op) as span:
                explore(system, spec.invariant, max_states=budget, max_depth=budget)
            walk += span.seconds
        liveness = sum(timing["liveness_s"] for timing in self.timings)
        return {
            "verify.record_s": sum(timing["walk_s"] for timing in self.timings) - walk,
            "verify.retained_edges": sum(timing["edges"] for timing in self.timings),
            "verify.liveness_s": liveness,
            "verify.liveness_states_per_s": (
                sum(timing["liveness_states"] for timing in self.timings) / liveness
            ),
            "verify.lasso_replay_s": tracer.total(
                "runtime", "replay_schedule", f"pass/{self.name}"
            ),
        }


class ExploreScale(Workload):
    """A safety-only walk of the registry's largest visited set (mutex m=9,
    trivial dedup): the walker's and dedup's scaling cost.

    The symmetry-reduced walk of consensus n=3, where the canonical key
    shows, runs in the traced run's probe only: in every iteration it
    would add 14 s to the 11 s walk, more than a comparison of two
    commits can afford (see README.md, "Budget").
    """

    name = "explore-scale"
    #: (problem, instance) of the timed walk and of the probe's symmetric walk.
    TARGET = {
        True: ("figure-1-mutex", "figure-1-mutex(m=9)"),
        False: ("figure-1-mutex", "figure-1-mutex(m=5)"),
    }
    SYMMETRIC = {
        True: ("figure-2-consensus", "figure-2-consensus(n=3,equal)"),
        False: ("figure-2-consensus", "figure-2-consensus(n=2)"),
    }

    def prepare(self, tracer) -> None:
        from repro.problems import get_problem

        key, label = self.TARGET[self.full]
        with tracer.span("problems", "get_problem", f"setup/{self.name}/{label}"):
            spec = get_problem(key)
            inst = spec.instance(label)
        with tracer.span("problems", "ProblemSpec.system", f"setup/{self.name}/{label}"):
            system = spec.system(inst)
        self.target = (spec, inst, system)

    @staticmethod
    def walk(spec, inst, system, reduction="none"):
        from repro.runtime.exploration import explore

        # The instance's own state budget (what verify_instance uses):
        # explore's default budgets would cut the walk short.
        budget = inst.verify_max_states
        return _guard(
            explore, system, spec.invariant, max_states=budget,
            max_depth=budget, reduction=reduction,
        )

    def call(self, tracer, op: str) -> List[Any]:
        spec, inst, system = self.target
        with tracer.span("runtime", "explore", f"{op}/{inst.label}"):
            self.last = self.walk(spec, inst, system)
        return [self.last]

    def check_walk(self, checked: Checked, label: str, result: Any) -> None:
        actual = _check_op(
            checked, label, result, self.answers.get(label),
            lambda result: {
                "ok": result.ok,
                "complete": result.complete,
                "states": result.states_explored,
                "events": result.events_executed,
            },
        )
        if actual is not None:
            checked.counts[label] = (
                result.states_explored, result.events_executed,
                result.peak_visited, result.orbits_collapsed,
            )

    def check(self, results, tracer, op: str) -> Checked:
        checked = Checked()
        self.check_walk(checked, self.target[1].label, results[0])
        return checked

    def probe(self, tracer) -> Dict[str, float]:
        """The timed walk's counters, and the symmetric walk's canonical
        key: group, orbit hits and the canonicalizer's build time."""
        from repro.problems import get_problem
        from repro.runtime.canonical import build_canonicalizer

        key, label = self.SYMMETRIC[self.full]
        op = f"probe/{self.name}/{label}"
        spec = get_problem(key)
        inst = spec.instance(label)
        with tracer.span("runtime", "build_canonicalizer", op) as span:
            build_canonicalizer(spec.system(inst))
        build = span.seconds
        with tracer.span("runtime", "explore(symmetry)", op):
            symmetric = self.walk(spec, inst, spec.system(inst), "symmetry")
        self.check_walk(self.probe_checked, label, symmetric)
        timed = self.last
        seconds = tracer.total("runtime", "explore", f"pass/{self.name}")
        return {
            "runtime.walk_s": seconds,
            "runtime.states": timed.states_explored,
            "runtime.events": timed.events_executed,
            "runtime.states_per_s": timed.states_explored / seconds,
            "runtime.new_state_ratio": timed.states_explored / timed.events_executed,
            "runtime.peak_visited": timed.peak_visited,
            "runtime.canonical_build_s": build,
            "runtime.orbit_hits": symmetric.orbits_collapsed,
            "runtime.group_size": symmetric.group_size,
        }


class FuzzCampaign(Workload):
    """`repro fuzz` on three targets: kernel steps on single schedules with
    no global dedup, plus shrink and replay certification on the mutant."""

    name = "fuzz-campaign"
    seeded = True
    #: (problem, instance, episodes) per size; the mutant must be hit, the
    #: clean targets never.
    TARGETS = {
        True: (
            ("figure-1-mutex-even-m", None, 256),
            ("figure-1-mutex", "figure-1-mutex(m=7)", 1024),
            ("figure-2-consensus", "figure-2-consensus(n=3,equal)", 256),
        ),
        False: (
            ("figure-1-mutex-even-m", None, 32),
            ("figure-1-mutex", "figure-1-mutex(m=3)", 64),
            ("figure-2-consensus", "figure-2-consensus(n=2)", 32),
        ),
    }

    def prepare(self, tracer) -> None:
        from repro.request import RunRequest

        self.targets = []
        for problem, instance, episodes in self.TARGETS[self.full]:
            request = RunRequest(problem=problem, instance=instance, seed=self.seed)
            with tracer.span("problems", "resolve_target", f"setup/{self.name}/{problem}"):
                spec, inst = request.resolve()
            self.targets.append((request, spec, inst, episodes))

    def call(self, tracer, op: str) -> List[Any]:
        from repro.fuzz.engine import run_fuzz

        results = []
        for request, spec, inst, episodes in self.targets:
            with tracer.span("fuzz", "run_fuzz", f"{op}/{inst.label}"):
                results.append(_guard(run_fuzz, request, episodes=episodes))
        self.last = results
        return results

    def check(self, results, tracer, op: str) -> Checked:
        checked = Checked()
        for (request, spec, inst, episodes), report in zip(self.targets, results):
            actual = _check_op(
                checked, inst.label, report, self.answers.get(inst.label),
                lambda report: {
                    "found": report.found,
                    "kinds": sorted({v.kind for v in report.violations}),
                    "episodes_run": report.episodes_run == episodes,
                    "lassos_replay": all_lassos_replay(
                        spec, inst,
                        [
                            (v.shrunk_prefix, v.shrunk_cycle)
                            for v in report.violations
                            if v.kind != "safety"
                        ],
                        tracer, f"{op}/{inst.label}",
                    ),
                },
            )
            if actual is not None:
                checked.counts[inst.label] = (
                    len(report.violations), report.steps, report.distinct_states,
                )
        return checked

    def probe(self, tracer) -> Dict[str, float]:
        """Time the raw episodes (no shrink, no certification) beside the
        full runs of the traced pass."""
        from repro.fuzz.engine import run_fuzz

        raw_seconds = 0.0
        steps = 0
        for request, spec, inst, episodes in self.targets:
            with tracer.span(
                "fuzz", "run_fuzz(raw)", f"probe/{self.name}/{inst.label}"
            ) as span:
                raw = run_fuzz(request, episodes=episodes, shrink=False, validate=False)
            raw_seconds += span.seconds
            steps += raw.steps
        reports = [report for report in self.last if not isinstance(report, Exception)]
        violations = [v for report in reports for v in report.violations]
        hit_episodes = sum(
            report.episodes_run for report in reports if report.violations
        )
        return {
            "fuzz.episodes_s": raw_seconds,
            "fuzz.steps_per_s": steps / raw_seconds,
            "fuzz.distinct_states": sum(report.distinct_states for report in reports),
            "fuzz.shrink_certify_s": (
                tracer.total("fuzz", "run_fuzz", f"pass/{self.name}") - raw_seconds
            ),
            "fuzz.hits": len(violations),
            "fuzz.hit_rate": len(violations) / max(hit_episodes, 1),
            "fuzz.shrink_ratio": (
                sum(len(v.shrunk_schedule) for v in violations)
                / max(sum(len(v.schedule) for v in violations), 1)
            ),
            "fuzz.replay_s": tracer.total(
                "runtime", "replay_schedule", f"pass/{self.name}"
            ),
        }


class SweepGrid(Workload):
    """`repro sweep --out DIR --workers 2` on two grids: live System.run
    cells, trace checkers, sqlite claims, forked workers and the disk
    graph store."""

    name = "sweep-grid"
    seeded = True
    WORKERS = 2

    def configs(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The two grids.  The mutex grid swaps the consensus grid's staged
        adversary for a second burst seed: under some seeds a staged
        schedule drives Figure 1 into the step cap, which would make the
        workload's cost depend on the seed."""
        from repro.farm import parse_adversary_spec, parse_naming_spec

        s = self.seed
        if self.full:
            namings = ["identity", f"random:{s}", f"random:{s + 1}", f"random:{s + 2}"]
            consensus = ["round-robin", f"random:{s}", f"random:{s + 1}",
                         f"burst:{s}", f"staged:50:{s}"]
            mutex = ["round-robin", f"random:{s}", f"random:{s + 1}",
                     f"burst:{s}", f"burst:{s + 1}"]
            grids = (("figure-2-consensus", {"n": 3}, None, consensus, False),
                     ("figure-1-mutex", None, "figure-1-mutex(m=5)", mutex, True))
            max_steps = 200_000  # the `repro sweep` default
        else:
            namings = ["identity", f"random:{s}"]
            grids = (("figure-2-consensus", {"n": 2}, None,
                      ["round-robin", f"random:{s}", f"staged:50:{s}"], False),
                     ("figure-1-mutex", None, "figure-1-mutex(m=3)",
                      ["round-robin", f"random:{s}", f"burst:{s}"], True))
            max_steps = 2_000
        configs = []
        for problem, params, instance, adversaries, retain in grids:
            label = instance or f"{problem}(n={params['n']})"
            configs.append((label, {
                "problem": problem,
                "instance": instance,
                "params": params,
                "namings": [parse_naming_spec(text) for text in namings],
                "adversaries": [parse_adversary_spec(text) for text in adversaries],
                "max_steps": max_steps,
                "retain_graph": retain,
                "verify_max_states": None,
                "max_attempts": 1,
            }))
        return configs

    def prepare(self, tracer) -> None:
        from repro.farm import grid_cells, resolve_grid_params
        from repro.problems import get_problem

        self.grids = []
        for label, config in self.configs():
            with tracer.span("problems", "get_problem", f"setup/{self.name}/{label}"):
                resolve_grid_params(get_problem(config["problem"]), config)
            self.grids.append((label, config, len(grid_cells(config))))

    def call(self, tracer, op: str) -> List[Any]:
        from repro.farm import create_farm, run_farm

        results = []
        with tempfile.TemporaryDirectory(dir=self.scratch) as root:
            for label, config, _ in self.grids:
                directory = Path(root) / label
                span_op = f"{op}/{label}"
                with tracer.span("farm", "create_farm", span_op):
                    created = _guard(create_farm, directory, config)
                if isinstance(created, Exception):
                    results.append(created)
                    continue
                with tracer.span("farm", "run_farm", span_op):
                    results.append(_guard(run_farm, directory, workers=self.WORKERS))
        return results

    def check(self, results, tracer, op: str) -> Checked:
        checked = Checked()
        for (label, config, cells), result in zip(self.grids, results):
            expected = self.answers.get(label)
            if isinstance(result, Exception) or expected is None:
                error = (
                    f"{type(result).__name__}: {result}"
                    if isinstance(result, Exception)
                    else "no known answer"
                )
                checked.ops.extend(Op(f"{label}#{index}", error) for index in range(cells))
                continue
            rows = {row.index: row for row in result.rows}
            for index in range(max(cells, expected["cells"], len(rows))):
                row = rows.get(index)
                name = f"{label}#{index}"
                if row is None or index >= expected["cells"]:
                    checked.ops.append(Op(name, "missing or unexpected cell"))
                    continue
                if row.status != "done":
                    checked.ops.append(Op(name, f"status {row.status}: {row.error}"))
                    continue
                outcome = row.result or {}
                if row.kind == "verify":
                    want = expected["verify"]
                    got = {key: outcome.get(key) for key in want}
                else:
                    want = {"verdict": expected["run_verdict"]}
                    got = {"verdict": outcome.get("verdict")}
                checked.ops.append(Op(name, _mismatch(want, got)))
                checked.counts[name] = outcome.get("events", outcome.get("states"))
        return checked

    def probe(self, tracer) -> Dict[str, float]:
        """Split the farm's time between its cells and its own bookkeeping.

        Every cell runs again in this process, outside any farm: that
        gives the cell work, the tail cell and the simulator's event rate.
        The farm's per-cell bookkeeping (sqlite claim and finish, manifest
        append) does not depend on what a cell computes, so the overhead
        comes from the grid whose cells cost least: a one-worker drain of
        a fresh copy, minus its cells.  One retained graph is stored and
        reloaded.
        """
        from repro.farm import (
            create_farm,
            execute_cell,
            farm_result,
            graph_store_bytes,
            grid_cells,
            load_state_graph,
            run_farm,
            write_state_graph,
        )
        from repro.problems import get_problem
        from repro.runtime.exploration import explore

        cell_times: Dict[str, List[float]] = {}
        run_seconds = run_events = 0.0
        metrics: Dict[str, float] = {}
        with tempfile.TemporaryDirectory(dir=self.scratch) as root:
            for label, config, _ in self.grids:
                op = f"probe/{self.name}/{label}"
                cell_times[label] = []
                for cell in grid_cells(config):
                    with tracer.span("farm", "execute_cell", op) as span:
                        outcome = execute_cell(config, cell, graphs_dir=None)
                    cell_times[label].append(span.seconds)
                    if cell.kind == "run":
                        run_seconds += span.seconds
                        run_events += outcome["events"]
                if config["retain_graph"]:
                    spec = get_problem(config["problem"])
                    inst = spec.instance(config["instance"])
                    with tracer.span("verify", "explore(retain_graph)", op):
                        graph = explore(
                            spec.system(inst), spec.invariant,
                            max_states=inst.verify_max_states,
                            max_depth=inst.verify_max_states, retain_graph=True,
                        ).graph
                    store = Path(root) / f"graph-{label}"
                    with tracer.span("farm", "write_state_graph", op) as span:
                        write_state_graph(graph, store)
                    metrics["farm.graph_write_s"] = span.seconds
                    with tracer.span("farm", "load_state_graph", op) as span:
                        with load_state_graph(store) as loaded:
                            loaded.to_bytes()
                    metrics["farm.graph_read_s"] = span.seconds
                    metrics["farm.graph_store_bytes"] = graph_store_bytes(store)
            label, config, _ = min(self.grids, key=lambda grid: sum(cell_times[grid[0]]))
            op = f"probe/{self.name}/{label}"
            directory = Path(root) / label
            create_farm(directory, config)
            with tracer.span("farm", "run_farm(workers=1)", op) as span:
                run_farm(directory, workers=1)
            metrics["farm.overhead_s"] = span.seconds - sum(cell_times[label])
            with tracer.span("farm", "farm_result", op) as span:
                farm_result(directory)
            metrics["farm.read_s"] = span.seconds
        every_cell = [seconds for times in cell_times.values() for seconds in times]
        two_workers = tracer.total("farm", "run_farm", f"pass/{self.name}")
        metrics.update({
            "farm.create_s": tracer.total("farm", "create_farm", f"pass/{self.name}"),
            "farm.parallel_efficiency": sum(every_cell) / (self.WORKERS * two_workers),
            "farm.cell_max_s": max(every_cell),
            "runtime.sim_events_per_s": run_events / run_seconds,
        })
        return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (VerifyRegistry, ExploreScale, FuzzCampaign, SweepGrid)
}
