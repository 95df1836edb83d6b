#!/usr/bin/env python3
"""Regenerate the paper-claim experiment tables (E1-E14), without pytest.

This is the script that produced the measurements recorded in
EXPERIMENTS.md.  Each section corresponds to one experiment in
DESIGN.md's E1-E17 index; each experiment asserts the paper's claim
before printing its table, so a successful run *is* the reproduction.
The three extension experiments (E15-E17) are pytest-benchmark suites
and run separately: ``pytest benchmarks/ --benchmark-only``.

Run with:           python benchmarks/run_experiments.py [E1 E12 ...]

The exploration benchmark (E14d, the symmetry-reduced explorer against
the seed explorer) is separate because it is the one section whose
numbers are recorded as a machine-readable trajectory:

    python benchmarks/run_experiments.py --bench            # full, writes
                                                            # BENCH_explore.json
    python benchmarks/run_experiments.py --bench --quick    # CI smoke subset
    ... --bench --quick --check-baseline benchmarks/BENCH_explore.json
    ... --bench --quick --telemetry benchmarks/telemetry    # + run manifests

``--check-baseline`` exits non-zero if any instance's verdict changed or
its canonical state count regressed against the recorded baseline.
``--telemetry DIR`` attaches a live :class:`repro.obs.Telemetry` sink to
every engine run and writes one ``repro.obs`` run manifest per run into
DIR (render them with ``python -m repro report DIR``); the bench JSON
then carries a ``telemetry`` block naming the manifests.
See docs/EXPLORATION.md for the trajectory format and
docs/OBSERVABILITY.md for the manifest schema.
"""

import argparse
import json
import os
import sys
import time
from math import gcd
from pathlib import Path

from repro.analysis.experiments import gives_solo_opportunities, sweep_problem
from repro.analysis.metrics import contention_spread, solo_iterations
from repro.analysis.tables import print_table
from repro.baselines.named_consensus import NamedConsensus, PaddedAlgorithm
from repro.baselines.named_mutex import PetersonMutex, TournamentMutex
from repro.baselines.named_renaming import ElectionChainRenaming
from repro.cliflags import reject_flag
from repro.core.consensus import AnonymousConsensus
from repro.core.election import AnonymousElection
from repro.core.mutex import AnonymousMutex
from repro.core.renaming import AnonymousRenaming
from repro.lowerbounds.candidates import NaiveTestAndSetLock
from repro.lowerbounds.consensus_space import demonstrate_consensus_space_bound
from repro.lowerbounds.mutex_unbounded import demonstrate_mutex_impossibility
from repro.lowerbounds.renaming_space import demonstrate_renaming_space_bound
from repro.lowerbounds.symmetry import attack_group_size, run_symmetry_attack
from repro.memory.naming import (
    IdentityNaming,
    RandomNaming,
    RingNaming,
    all_namings_for_tests,
)
from repro.obs import RunManifest, Telemetry
from repro.request import RunRequest
from repro.runtime.adversary import (
    RandomAdversary,
    SoloAdversary,
    StagedObstructionAdversary,
    standard_adversaries,
)
from repro.runtime.backends import SerialBackend
from repro.runtime.canonical import TrivialCanonicalizer, build_canonicalizer
from repro.runtime.exploration import explore, mutual_exclusion_invariant
from repro.runtime.system import System
from repro.spec.consensus_spec import (
    AgreementChecker,
    ElectionChecker,
    ObstructionFreeTerminationChecker,
    ValidityChecker,
)
from repro.spec.mutex_spec import MutualExclusionChecker, mutex_checkers
from repro.spec.properties import check_all
from repro.spec.renaming_spec import (
    NameRangeChecker,
    RenamingTerminationChecker,
    UniqueNamesChecker,
)

PIDS = (101, 103, 107, 109, 113, 127, 131, 137)


def pids(n):
    return PIDS[:n]


def consensus_inputs(n):
    return {pid: f"v{k}" for k, pid in enumerate(pids(n))}


def e1_mutex():
    rows = []
    for m in (3, 5, 7, 9, 11):
        system = System(AnonymousMutex(m=m, cs_visits=3, cs_steps=2), pids(2))
        trace = system.run(RandomAdversary(0), max_steps=500_000)
        check_all(trace, mutex_checkers(m, min_entries=6))
        rows.append([m, "odd", len(trace), trace.critical_section_entries(),
                     "ME+DF hold"])
    for m in (2, 4, 6, 8, 10):
        result = run_symmetry_attack(
            AnonymousMutex(m=m, unsafe_allow_any_m=True), pids(2)
        )
        assert result.violated
        rows.append([m, "even", result.steps, 0,
                     f"{result.violation} (cycle={result.cycle_rounds} rounds)"])
    print_table(
        ["m", "parity", "events", "CS entries", "outcome"],
        rows,
        title="E1 — Thm 3.1: Fig 1 mutex works iff m is odd",
    )
    system = System(AnonymousMutex(m=3, cs_visits=1), pids(2), record_trace=False)
    res = explore(system, mutual_exclusion_invariant)
    assert res.complete and res.ok and res.stuck_states == 0
    print_table(
        ["instance", "reachable states", "events", "verdict"],
        [["Fig1 m=3 n=2 (identity naming)", res.states_explored,
          res.events_executed, "exhaustively verified"]],
        title="E1 — Thm 3.2 verified over ALL schedules",
    )


def e2_space_bounds():
    m_values, n = range(2, 13), 6
    rows = []
    for m in m_values:
        cells = []
        for l in range(2, n + 1):
            if gcd(m, l) == 1:
                cells.append("-")
                continue
            group = attack_group_size(m, l)
            result = run_symmetry_attack(
                AnonymousMutex(m=m, unsafe_allow_any_m=True),
                pids(group),
                max_rounds=50_000,
            )
            assert result.violated
            cells.append("DF" if result.violation == "deadlock-freedom" else "ME")
        rows.append([m] + cells)
    print_table(
        ["m"] + [f"l={l}" for l in range(2, n + 1)],
        rows,
        title=(
            "E2 — Thm 3.4 grid (DF/ME = attack found that violation; "
            "'-' = coprime, theorem silent)"
        ),
    )


def e3_e4_consensus():
    rows = []
    for n in (1, 2, 3, 4, 5, 6):
        system = System(AnonymousConsensus(n=n), consensus_inputs(n))
        pid = pids(n)[0]
        trace = system.run(SoloAdversary(pid), max_steps=10**6)
        iters = solo_iterations(trace, pid)
        assert iters <= 2 * n - 1
        rows.append([n, 2 * n - 1, iters, 2 * n - 1, trace.steps_taken(pid)])
    print_table(
        ["n", "registers", "solo iterations", "paper bound 2n-1", "solo steps"],
        rows,
        title="E3 — Thm 4.1: solo termination within 2n-1 iterations",
    )

    rows = []
    for n in (2, 3, 4):
        inputs = consensus_inputs(n)

        def checkers(adversary):
            battery = [AgreementChecker(), ValidityChecker(inputs)]
            if gives_solo_opportunities(adversary):
                battery.append(ObstructionFreeTerminationChecker())
            return battery

        result = sweep_problem(
            "figure-2-consensus",
            namings=all_namings_for_tests(pids(n), 2 * n - 1),
            adversaries=standard_adversaries(range(3)),
            checkers_factory=checkers,
            params={"n": n},
            request=RunRequest(max_steps=150_000),
        )
        assert result.all_ok, result.describe_failures()
        rows.append([n, result.runs, 0, "agreement+validity+OF-termination"])
    print_table(
        ["n", "runs (namings x adversaries)", "violations", "properties"],
        rows,
        title="E4 — Thms 4.1/4.2 sweep",
    )


def e5_election():
    rows = []
    for n in (2, 3, 4, 5):
        system = System(AnonymousElection(n=n), pids(n))
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=40 * n, seed=1),
            max_steps=500_000,
        )
        ElectionChecker().check(trace)
        assert len(trace.decided()) == n
        rows.append([n, next(iter(trace.decided().values())), len(trace)])
    print_table(
        ["n", "unanimous winner", "events"],
        rows,
        title="E5 — §4 note: obstruction-free election from consensus",
    )


def e6_e7_e8_renaming():
    rows = []
    for n in (2, 3, 4, 5):
        system = System(AnonymousRenaming(n=n), pids(n))
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=40 * n, seed=1),
            max_steps=10**6,
        )
        RenamingTerminationChecker().check(trace)
        UniqueNamesChecker().check(trace)
        NameRangeChecker(bound=n).check(trace)
        rows.append([n, 2 * n - 1, len(trace), str(sorted(trace.outputs.values()))])
    print_table(
        ["n", "registers", "events", "names acquired"],
        rows,
        title="E6/E7 — Thms 5.1/5.2: perfect renaming with 2n-1 registers",
    )

    rows = []
    n = 5
    for k in (1, 2, 3, 4, 5):
        system = System(AnonymousRenaming(n=n), pids(n)[:k])
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=30 * k, seed=2),
            max_steps=10**6,
        )
        names = sorted(trace.outputs.values())
        assert names == list(range(1, k + 1))
        rows.append([n, k, str(names)])
    print_table(
        ["n (dimensioned)", "k (participants)", "names"],
        rows,
        title="E8 — Thm 5.3: adaptivity, k participants use exactly {1..k}",
    )


def e9_e10_e11_impossibility():
    rows = []
    report = demonstrate_mutex_impossibility(lambda: NaiveTestAndSetLock())
    assert report.branch == "rho-violation"
    rows.append(["Thm 6.2", "naive test-and-set lock", len(report.write_set),
                 report.branch, "mutual exclusion"])
    report = demonstrate_mutex_impossibility(lambda: AnonymousMutex(m=3))
    assert report.branch == "z-no-progress"
    rows.append(["Thm 6.2", "Fig 1 (m=3)", len(report.write_set),
                 report.branch, "deadlock-freedom"])
    for n in (2, 3, 4, 6):
        report = demonstrate_consensus_space_bound(
            lambda: AnonymousConsensus(n=n, registers=n - 1)
        )
        assert report.branch == "rho-violation"
        assert report.indistinguishability_verified
        rows.append(["Thm 6.3", f"Fig 2 (n={n}, m=n-1={n - 1})",
                     len(report.write_set), report.branch, "agreement"])
    for n in (2, 3, 4, 6):
        report = demonstrate_renaming_space_bound(
            lambda: AnonymousRenaming(n=n, registers=n - 1)
        )
        assert report.branch == "rho-violation"
        rows.append(["Thm 6.5", f"Fig 3 (n={n}, m=n-1={n - 1})",
                     len(report.write_set), report.branch, "uniqueness"])
    print_table(
        ["theorem", "candidate", "|write(y,q)|", "branch", "property broken"],
        rows,
        title=(
            "E9/E10/E11 — Section 6 covering constructions "
            "(indistinguishability verified exactly in every rho branch)"
        ),
    )


def e12_baselines():
    rows = []
    for label, algorithm in (
        ("Fig1 anonymous", AnonymousMutex(m=3, cs_visits=3)),
        ("Peterson named", PetersonMutex(cs_visits=3)),
    ):
        system = System(algorithm, pids(2))
        trace = system.run(RandomAdversary(0), max_steps=500_000)
        MutualExclusionChecker().check(trace)
        rows.append(["mutex (2 proc)", label, system.memory.size, len(trace)])
    inputs = consensus_inputs(3)
    for label, factory in (
        ("Fig2 anonymous", lambda: AnonymousConsensus(n=3)),
        ("named [5]-style", lambda: NamedConsensus(n=3)),
    ):
        system = System(factory(), inputs)
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=80, seed=0), max_steps=500_000
        )
        AgreementChecker().check(trace)
        rows.append(["consensus (n=3)", label, system.memory.size, len(trace)])
    for label, factory in (
        ("Fig3 anonymous", lambda: AnonymousRenaming(n=3)),
        ("election chain named", lambda: ElectionChainRenaming(n=3)),
    ):
        system = System(factory(), pids(3))
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=60, seed=1), max_steps=10**6
        )
        UniqueNamesChecker().check(trace)
        rows.append(["renaming (n=3)", label, system.memory.size, len(trace)])
    system = System(PaddedAlgorithm(AnonymousMutex(m=3, cs_visits=2), 4), pids(2))
    trace = system.run(RandomAdversary(5), max_steps=500_000)
    MutualExclusionChecker().check(trace)
    rows.append(["mutex padded to even m", "padded(Fig1, m=4) named", 4, len(trace)])
    for n in (3, 6, 8):
        system = System(TournamentMutex(n=n, cs_visits=1), pids(n))
        trace = system.run(RandomAdversary(n), max_steps=2 * 10**6)
        MutualExclusionChecker().check(trace)
        rows.append([f"mutex ({n} proc)", "tournament named",
                     system.memory.size, len(trace)])
    print_table(
        ["problem", "algorithm", "registers", "events"],
        rows,
        title="E12 — §3.2 contrast: named baselines vs anonymous algorithms",
    )


def e13_plasticity():
    rows = []
    namings = [("identity", IdentityNaming()), ("random(0)", RandomNaming(0)),
               ("random(1)", RandomNaming(1)),
               ("ring", RingNaming({pid: k for k, pid in enumerate(pids(3))}))]
    inputs = consensus_inputs(3)
    for label, naming in namings:
        system = System(AnonymousConsensus(n=3), inputs, naming=naming)
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=60, seed=4), max_steps=500_000
        )
        AgreementChecker().check(trace)
        assert len(trace.decided()) == 3
        rows.append([label, len(trace), f"{contention_spread(trace):.2f}", "ok"])
    print_table(
        ["naming", "events", "write spread (max/mean)", "spec"],
        rows,
        title="E13 — §1 plasticity: Fig 2 correct under every register ordering",
    )


def e14_performance(rng_seed=5):
    rows = []
    for n in (2, 4, 6, 8):
        system = System(AnonymousConsensus(n=n), consensus_inputs(n))
        start = time.perf_counter()
        trace = system.run(SoloAdversary(pids(n)[0]), max_steps=10**6)
        elapsed = time.perf_counter() - start
        rows.append(["consensus solo", n, trace.steps_taken(pids(n)[0]),
                     f"{elapsed * 1000:.1f}ms"])
    for n in (2, 3, 4, 5):
        system = System(AnonymousRenaming(n=n), pids(n))
        start = time.perf_counter()
        trace = system.run(
            StagedObstructionAdversary(prefix_steps=50 * n, seed=rng_seed),
            max_steps=2 * 10**6,
        )
        elapsed = time.perf_counter() - start
        rows.append(["renaming staged", n, len(trace), f"{elapsed * 1000:.1f}ms"])
    system = System(AnonymousMutex(m=5, cs_visits=3), pids(2))
    start = time.perf_counter()
    trace = system.run(RandomAdversary(rng_seed), max_steps=200_000)
    elapsed = time.perf_counter() - start
    rows.append([f"mutex random(seed={rng_seed})", 2, len(trace),
                 f"{elapsed * 1000:.1f}ms"])
    for m in (3, 5):
        system = System(
            AnonymousMutex(m=m, cs_visits=1), pids(2), record_trace=False
        )
        start = time.perf_counter()
        res = explore(system, mutual_exclusion_invariant, max_states=3_000_000)
        elapsed = time.perf_counter() - start
        assert res.complete and res.ok
        rows.append([f"exploration m={m}", 2, res.states_explored,
                     f"{elapsed * 1000:.1f}ms"])
    print_table(
        ["workload", "n", "steps/states", "wall clock"],
        rows,
        title=f"E14 — performance profile (CPython, single core, rng seed {rng_seed})",
    )


# ---------------------------------------------------------------------------
# E14d — the exploration benchmark (symmetry-reduced vs seed explorer).
#
# Unlike E1-E14 this section records its numbers as a machine-readable
# trajectory (BENCH_explore.json) so CI can detect state-count
# regressions; docs/EXPLORATION.md documents the format.
# ---------------------------------------------------------------------------

#: Budgets shared by both engines on every instance.  ``max_states`` is
#: the explorer's default; ``max_depth`` is raised because the quotient
#: walk legitimately produces deeper DFS paths (one representative per
#: orbit strings previously-parallel branches into longer chains).
BENCH_BUDGETS = {"max_states": 500_000, "max_depth": 1_000_000}

def _bench_instances(quick):
    """(label, factory, invariant, overrides, spec, instance) rows,
    projected from the problem registry's ``"bench"``-role instances
    (``--quick`` keeps the ``bench_quick`` subset).  Labels are the
    registry's ``bench_label`` values — the stable trajectory keys of
    BENCH_explore.json.

    The two "extended budget" instances raise ``max_states`` past the
    default so the *seed* side can show its true cost: m=9 completes
    (x4.2 the canonical states), while consensus n=3 still cannot —
    the quotient's verdict there is strictly stronger at a fraction of
    the states.
    """
    from functools import partial

    from repro.problems import instances_with_role

    rows = []
    for spec, instance in instances_with_role("bench"):
        if quick and not instance.bench_quick:
            continue
        assert spec.invariant is not None, spec.key
        rows.append((
            instance.bench_label,
            partial(spec.system, instance),
            spec.invariant,
            dict(instance.bench_overrides) or None,
            spec,
            instance,
        ))
    return rows


def _rate(res):
    """Human-readable throughput; honest about untimeable walks."""
    rate = res.states_per_second
    return "n/a" if rate is None else f"{rate:,.0f}/s"


def _engine_record(res, canonicalizer=None):
    verdict = "violation" if not res.ok else (
        "exhaustive-ok" if res.complete else "bounded-ok"
    )
    rate = res.states_per_second
    record = {
        "verdict": verdict,
        "states": res.states_explored,
        "events": res.events_executed,
        "truncated_by": res.truncated_by,
        "wall_seconds": round(res.wall_seconds, 3),
        # None (JSON null) when the walk finished below timer resolution.
        "states_per_second": None if rate is None else round(rate, 1),
        "peak_visited": res.peak_visited,
    }
    if canonicalizer is not None:
        record["orbits_collapsed"] = res.orbits_collapsed
        record["group_size"] = res.group_size
        record["canonicalizer"] = canonicalizer.describe()
    return record


def _bench_slug(label):
    """Filesystem-safe manifest stem from an instance label."""
    slug = "".join(ch if ch.isalnum() else "-" for ch in label.lower())
    while "--" in slug:
        slug = slug.replace("--", "-")
    return slug.strip("-")


def _write_bench_manifest(directory, index, label, engine, budgets, record,
                          telemetry, backend="serial", workers=1):
    """Write one repro.obs run manifest for one engine run; returns its name."""
    manifest = RunManifest.create(
        kind="exploration",
        algorithm=label,
        parameters=dict(budgets, engine=engine),
        naming="identity",
        adversary="exhaustive (all schedules)",
        backend=backend,
        workers=workers,
        outcome=dict(record),
        telemetry=telemetry.snapshot(),
    )
    name = f"explore-{index:02d}-{_bench_slug(label)}-{engine}.json"
    manifest.write(directory / name)
    return name


def _bench_sweep_farm():
    """Measure the disk-backed sweep farm on a micro-grid; return a dict.

    Three numbers the baseline file tracks per release: drain
    throughput (cells/s over a fresh farm), the fixed cost a
    ``--resume`` cycle adds on an already-complete farm (open the run
    table, reset stale claims, discover nothing pending), and the disk
    footprint of the verify cell's retained edge arrays (``pids.bin`` and
    ``dsts.bin``, 16 bytes per edge).
    """
    import shutil
    import tempfile

    from repro.farm import (
        GRAPHS_DIRNAME,
        create_farm,
        drain_farm,
        resume_farm,
    )

    config = {
        "problem": "figure-1-mutex",
        "instance": "figure-1-mutex(m=3)",
        "namings": [{"type": "identity"}, {"type": "random", "seed": 1}],
        "adversaries": [
            {"type": "random", "seed": 1},
            {"type": "random", "seed": 2},
            {"type": "round-robin"},
        ],
        "max_steps": 20_000,
        "retain_graph": True,
    }
    root = Path(tempfile.mkdtemp(prefix="repro-farm-bench-"))
    try:
        farm = root / "farm"
        cells = create_farm(farm, config)
        start = time.perf_counter()
        result = drain_farm(farm)
        drain_seconds = time.perf_counter() - start
        assert result.complete, "farm bench grid did not drain clean"
        start = time.perf_counter()
        resume_farm(farm)
        drain_farm(farm)
        resume_seconds = time.perf_counter() - start
        edge_bytes = sum(
            path.stat().st_size
            for name in ("pids.bin", "dsts.bin")
            for path in (farm / GRAPHS_DIRNAME).rglob(name)
        )
        return {
            "grid_cells": cells,
            "cells_per_second": round(cells / drain_seconds, 2)
            if drain_seconds > 0 else None,
            "resume_overhead_seconds": round(resume_seconds, 4),
            "retained_edge_bytes": edge_bytes,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _bench_fuzz(rng_seed, episodes=32):
    """Measure the seeded fuzzer on one mutant and one clean instance.

    The numbers the baseline file tracks per release: schedule (episode)
    throughput, step throughput, distinct-state coverage, and certified
    violations per strategy family.  The mutant row doubles as a live
    sensitivity check — a fuzzer that stops finding Theorem 3.4's
    livelock on even m is broken, so the block asserts it; the clean row
    asserts the oracles' soundness (zero violations on odd m).
    """
    from repro.fuzz.engine import run_fuzz
    from repro.fuzz.strategies import STRATEGY_FAMILIES

    instances = {}
    for instance, expect_violation in (
        ("figure-1-mutex-even-m", True),
        ("figure-1-mutex(m=3)", False),
    ):
        start = time.perf_counter()
        report = run_fuzz(
            RunRequest(
                problem="figure-1-mutex", instance=instance, seed=rng_seed
            ),
            episodes=episodes,
        )
        elapsed = time.perf_counter() - start
        assert report.found == expect_violation, (
            f"{instance}: fuzz found={report.found}, "
            f"expected {expect_violation}"
        )
        instances[report.instance] = {
            "episodes": report.episodes_run,
            "steps": report.steps,
            "distinct_states": report.distinct_states,
            "violations": len(report.violations),
            "violations_by_family": dict(report.by_family()),
            # Wall-clock throughput is advisory (host-dependent); the
            # coverage and violation counts above are seed-deterministic.
            "schedules_per_second": (
                round(report.episodes_run / elapsed, 1) if elapsed > 0 else None
            ),
            "steps_per_second": (
                round(report.steps / elapsed, 1) if elapsed > 0 else None
            ),
        }
    return {
        "seed": rng_seed,
        "episodes": episodes,
        "families": list(STRATEGY_FAMILIES),
        "instances": instances,
    }


def exploration_benchmark(quick=False, rng_seed=5, telemetry_dir=None,
                          max_states=None):
    """Run every instance on the default walker and its oracle; return
    the JSON document (schema ``repro.bench_explore/v9``).

    Per instance: the default engine (the packed walker behind
    ``explore``) under both canonicalizers — ``seed`` (trivial dedup)
    and ``canonical`` (symmetry quotient) — plus ``oracle``, the
    :class:`~repro.runtime.backends.SerialBackend` interpreter on the
    same trivial-dedup walk in the same process.  The record asserts
    the oracle agrees on verdict, state and event counts and stores
    ``speedup_vs_oracle`` (oracle wall time over the default walker's),
    the ratio ``benchmarks/check_compiled_speedup.py`` gates.
    ``host_cpus`` is recorded at the top level: every run is
    single-process, so the count only says what else the host could
    have been doing.

    With ``telemetry_dir`` every engine run gets a live
    :class:`repro.obs.Telemetry` sink and leaves one run manifest in
    that directory; the returned document's ``telemetry`` block lists
    the manifest file names.
    """
    shared_budgets = dict(BENCH_BUDGETS)
    if max_states is not None:
        shared_budgets["max_states"] = max_states
    if telemetry_dir is not None:
        telemetry_dir = Path(telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)

    def bench_telemetry():
        return Telemetry() if telemetry_dir is not None else None

    manifest_names = []
    rows = []
    records = []
    for index, (label, factory, invariant, overrides, spec, instance) in (
        enumerate(_bench_instances(quick))
    ):
        budgets = dict(shared_budgets, **(overrides or {}))
        runs = {}
        for engine, backend, symmetric in (
            ("seed", None, False),
            ("canonical", None, True),
            ("oracle", SerialBackend(), False),
        ):
            system = factory()
            canonicalizer = (
                build_canonicalizer(system) if symmetric
                else TrivialCanonicalizer(system.scheduler)
            )
            telemetry = bench_telemetry()
            result = explore(
                system, invariant, canonicalizer=canonicalizer,
                backend=backend, telemetry=telemetry, **budgets,
            )
            runs[engine] = (
                result, canonicalizer if symmetric else None, telemetry
            )
        seed_res = runs["seed"][0]
        reduced_res = runs["canonical"][0]
        oracle_res = runs["oracle"][0]
        assert seed_res.ok == reduced_res.ok, label
        assert (
            oracle_res.ok, oracle_res.states_explored, oracle_res.events_executed
        ) == (seed_res.ok, seed_res.states_explored, seed_res.events_executed), (
            f"{label}: the SerialBackend oracle disagrees with the default "
            "walker"
        )
        reduction = seed_res.states_explored / reduced_res.states_explored
        newly_tractable = (not seed_res.complete) and reduced_res.complete
        speedup = (
            round(oracle_res.wall_seconds / seed_res.wall_seconds, 2)
            if seed_res.wall_seconds > 0
            else None
        )
        record = {
            "instance": label,
            "budgets": budgets,
            "seed": _engine_record(seed_res),
            "canonical": _engine_record(reduced_res, runs["canonical"][1]),
            "oracle": _engine_record(oracle_res),
            "speedup_vs_oracle": speedup,
            "reduction_factor": round(reduction, 2),
            "newly_tractable": newly_tractable,
        }
        if instance.has_role("verify") and spec.liveness:
            # Graph-retention overhead: the same walk with the full
            # successor relation retained, plus the exhaustive liveness
            # analyses over it (python -m repro verify's pipeline).
            from repro.verify import verify_instance

            verify_report = verify_instance(spec, instance)
            record["verify"] = {
                "ok": verify_report.ok,
                "retained_edges": verify_report.retained_edges,
                "explore_wall_seconds": round(
                    verify_report.explore_seconds, 3
                ),
                "verify_wall_seconds": round(verify_report.verify_seconds, 3),
                "retention_overhead": (
                    round(
                        verify_report.explore_seconds / seed_res.wall_seconds,
                        2,
                    )
                    if seed_res.wall_seconds > 0
                    else None
                ),
                "properties": [
                    outcome.describe() for outcome in verify_report.outcomes
                ],
            }
        if telemetry_dir is not None:
            for engine, (_, _, telemetry) in runs.items():
                manifest_names.append(_write_bench_manifest(
                    telemetry_dir, index, label, engine, budgets,
                    record[engine], telemetry,
                    backend="serial" if engine == "oracle" else "compiled",
                ))
        records.append(record)
        rows.append([
            label,
            seed_res.summary().split(",")[0],
            reduced_res.summary().split(",")[0],
            f"x{reduction:.2f}",
            _rate(seed_res),
            "n/a" if speedup is None else f"x{speedup}",
            "NEWLY TRACTABLE" if newly_tractable else "",
        ])
    print_table(
        ["instance", "seed dedup", "canonical", "reduction", "walker rate",
         "vs oracle", ""],
        rows,
        title="E14d — the default walker: symmetry reduction and "
              "speedup over the interpreter oracle",
    )
    generated = "python benchmarks/run_experiments.py --bench"
    if quick:
        generated += " --quick"
    if max_states is not None:
        generated += f" --max-states {max_states}"
    if telemetry_dir is not None:
        generated += f" --telemetry {telemetry_dir}"
    return {
        "schema": "repro.bench_explore/v9",
        "generated_by": generated,
        "rng_seed": rng_seed,
        "quick": quick,
        "host_cpus": os.cpu_count(),
        "budgets": dict(shared_budgets),
        "telemetry": {
            "enabled": telemetry_dir is not None,
            "dir": str(telemetry_dir) if telemetry_dir is not None else None,
            "manifests": manifest_names,
        },
        # v6: disk-backed sweep-farm micro-benchmark (drain throughput,
        # resume fixed cost, retained edge-array footprint).  Wall-clock
        # numbers are advisory; check_baseline reads only the
        # engine-invariant exploration fields above.
        "sweep": _bench_sweep_farm(),
        # v7: seeded fuzzer micro-benchmark (schedule throughput,
        # distinct-state coverage, certified violations per strategy
        # family on one mutant + one clean instance).
        "fuzz": _bench_fuzz(rng_seed),
        "instances": records,
    }


def check_baseline(document, baseline_path):
    """Compare a bench document against a recorded baseline.

    Returns a list of regression messages (empty = pass).  Instances are
    matched by label; instances missing from either side are skipped, so
    a ``--quick`` run checks just its subset against the full baseline.
    """
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    recorded = {rec["instance"]: rec for rec in baseline["instances"]}
    problems = []
    for rec in document["instances"]:
        base = recorded.get(rec["instance"])
        if base is None:
            continue
        for engine in ("seed", "canonical"):
            if rec[engine]["verdict"] != base[engine]["verdict"]:
                problems.append(
                    f"{rec['instance']}: {engine} verdict changed "
                    f"{base[engine]['verdict']} -> {rec[engine]['verdict']}"
                )
        if rec["canonical"]["states"] > base["canonical"]["states"]:
            problems.append(
                f"{rec['instance']}: canonical state count regressed "
                f"{base['canonical']['states']} -> {rec['canonical']['states']}"
            )
    return problems


EXPERIMENTS = [
    ("E1", e1_mutex),
    ("E2", e2_space_bounds),
    ("E3/E4", e3_e4_consensus),
    ("E5", e5_election),
    ("E6/E7/E8", e6_e7_e8_renaming),
    ("E9/E10/E11", e9_e10_e11_impossibility),
    ("E12", e12_baselines),
    ("E13", e13_plasticity),
    ("E14", e14_performance),
]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "experiments", nargs="*",
        help="experiment names to run (e.g. E1 E12); default: all",
    )
    parser.add_argument(
        "--bench", action="store_true",
        help="run the E14d exploration benchmark instead of the tables",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="with --bench: the small CI-smoke instance subset",
    )
    parser.add_argument(
        "--bench-out", type=Path, default=None, metavar="PATH",
        help="with --bench: where to write the JSON trajectory "
             "(default: benchmarks/BENCH_explore.json for full runs)",
    )
    parser.add_argument(
        "--check-baseline", type=Path, default=None, metavar="PATH",
        help="with --bench: compare against a recorded BENCH_explore.json "
             "and exit non-zero on verdict or state-count regressions",
    )
    parser.add_argument(
        "--telemetry", type=Path, default=None, metavar="DIR",
        help="with --bench: attach a live Telemetry sink to every engine "
             "run and write one repro.obs run manifest per run into DIR "
             "(render with: python -m repro report DIR)",
    )
    parser.add_argument(
        "--seed", type=int, default=5, metavar="N",
        help="RNG seed for the randomised E14 workloads (default: 5); "
             "recorded in the bench JSON",
    )
    for flag in ("--backend", "--workers"):
        reject_flag(
            parser, flag, "bench",
            "the bench times the one in-process walker against its "
            "SerialBackend oracle; there is no backend to choose",
        )
    parser.add_argument(
        "--max-states", type=int, default=None, metavar="N",
        help="with --bench: override the shared max_states exploration "
             "budget (instance-level bench_overrides still apply on top)",
    )
    args = parser.parse_args(argv)

    if args.bench:
        document = exploration_benchmark(
            quick=args.quick, rng_seed=args.seed,
            telemetry_dir=args.telemetry, max_states=args.max_states,
        )
        out = args.bench_out
        if out is None and not args.quick:
            out = Path(__file__).parent / "BENCH_explore.json"
        if out is not None:
            out.write_text(json.dumps(document, indent=1) + "\n")
            print(f"wrote {out}")
        if args.telemetry is not None:
            count = len(document["telemetry"]["manifests"])
            print(f"wrote {count} run manifests to {args.telemetry}")
        if args.check_baseline is not None:
            problems = check_baseline(document, args.check_baseline)
            for problem in problems:
                print(f"REGRESSION: {problem}")
            if problems:
                return 1
            print(f"baseline check passed ({args.check_baseline})")
        return 0

    start = time.perf_counter()
    for name, fn in EXPERIMENTS:
        if args.experiments and not any(s in name for s in args.experiments):
            continue
        if fn is e14_performance:
            fn(rng_seed=args.seed)
        else:
            fn()
    print(f"all experiments reproduced in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
