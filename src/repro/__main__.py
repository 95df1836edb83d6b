"""Command-line entry point: ``python -m repro``.

Subcommands (every key of ``COMMANDS`` below appears here; pinned by
``tests/test_docs.py``):

* ``demo``        — run the three algorithms once and print what happened
                    (default when no subcommand is given);
* ``verify``      — exhaustively verify the problem registry's declared
                    safety invariants *and* liveness theorems
                    (deadlock-freedom, obstruction-freedom) over retained
                    state graphs, mutant counterexamples included
                    (``--list``, ``--problem``, ``--instance``,
                    ``--max-states``, ``--telemetry``) on the packed
                    walker;
* ``attack``      — run the Theorem 3.4 symmetry attack on Figure 1 with
                    an even register count and show the provable livelock;
* ``lint``        — dataflow-IR static analysis + runtime audits of the
                    model rules (pid-taint symmetry, register footprints,
                    bounded domains, anonymity, atomicity, pc
                    annotations), with ``--format sarif``/``--strict``
                    for CI gating;
* ``sweep``       — run a naming × adversary grid as a resumable,
                    disk-backed farm (``--out DIR`` persists a sqlite
                    run table that ``--resume DIR`` picks up exactly
                    where a killed sweep stopped; ``--workers N`` drains
                    it with N claiming processes; ``--max-attempts N``
                    retries transiently failed cells; ``--retain-graph``
                    adds an exhaustive verify cell whose StateGraph
                    lands in the farm's mmap disk store);
* ``fuzz``        — seeded adversary-strategy fuzzing of registry
                    instances (``repro.fuzz``): strategy families
                    (lockstep, random, greedy, covering) hunt safety
                    violations and livelock lassos; hits are shrunk to
                    minimal schedules and certified by replay
                    (``--problem``, ``--instance``, ``--seed``,
                    ``--episodes``; ``--out/--resume/--workers`` shard
                    episodes over a farm);
* ``experiments`` — regenerate the paper-claim experiment tables (E1-E14
                    of the E1-E17 index in DESIGN.md; the E15-E17
                    extension tables run via ``pytest benchmarks/
                    --benchmark-only``; slower);
* ``report``      — validate and summarise run manifests written by the
                    telemetry subsystem (``repro.obs``), including farm
                    directories (cell status counts + manifest table).
"""

from __future__ import annotations

import argparse
import sys


def cmd_demo() -> int:
    from repro import (
        AnonymousConsensus,
        AnonymousMutex,
        AnonymousRenaming,
        RandomNaming,
        System,
    )
    from repro.runtime import RandomAdversary, StagedObstructionAdversary

    print("Figure 1 — two-process mutual exclusion, 3 anonymous registers")
    system = System(AnonymousMutex(m=3, cs_visits=2), [11, 13], naming=RandomNaming(1))
    trace = system.run(RandomAdversary(1), max_steps=100_000)
    print(f"  {trace.critical_section_entries()} serialized CS entries "
          f"in {len(trace)} steps\n")

    print("Figure 2 — three-process consensus, 5 anonymous registers")
    system = System(
        AnonymousConsensus(n=3), {11: "a", 13: "b", 17: "c"}, naming=RandomNaming(2)
    )
    trace = system.run(StagedObstructionAdversary(prefix_steps=50, seed=2), max_steps=200_000)
    print(f"  decisions: {trace.outputs}\n")

    print("Figure 3 — four-process perfect renaming, 7 anonymous registers")
    system = System(AnonymousRenaming(n=4), [11, 13, 17, 19], naming=RandomNaming(3))
    trace = system.run(StagedObstructionAdversary(prefix_steps=80, seed=3), max_steps=500_000)
    print(f"  new names: {trace.outputs}")
    return 0


def cmd_verify(rest=()) -> int:
    """Exhaustive safety + liveness verification of registry instances."""
    from repro.cliflags import reject_flag
    from repro.errors import VerificationError
    from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
    from repro.problems import get_problem, instances_with_role
    from repro.request import RunRequest
    from repro.verify import verify_instance, write_verify_manifest

    parser = argparse.ArgumentParser(
        prog="python -m repro verify",
        description="Exhaustively verify the registry's declared safety "
        "invariants and liveness theorems (deadlock-freedom via SCC "
        "non-progress-cycle analysis, obstruction-freedom via solo-run "
        "termination) over retained state graphs — no adversary sampling. "
        "Seeded mutants are expected to FAIL their property and count as "
        "OK when they do, with a replayable lasso counterexample.",
    )
    parser.add_argument(
        "--problem",
        action="append",
        default=None,
        metavar="KEY",
        help="only verify this problem's instances (repeatable)",
    )
    parser.add_argument(
        "--instance",
        action="append",
        default=None,
        metavar="LABEL",
        help="only verify this instance label (repeatable)",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the verify-role instances and exit",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=None,
        metavar="N",
        help="override each instance's verification state budget",
    )
    parser.add_argument(
        "--telemetry",
        metavar="DIR",
        default=None,
        help="write one run manifest per instance into DIR "
        "(readable by `python -m repro report DIR`)",
    )
    for flag in ("--backend", "--workers"):
        reject_flag(
            parser, flag, "verify",
            "every walk runs on the one in-process packed walker; "
            "there is no backend to choose",
        )
    reject_flag(
        parser, "--seed", "verify",
        "exhaustive verification quantifies over every schedule; "
        "there is nothing to seed (randomised search is `repro fuzz`)",
    )
    args = parser.parse_args(list(rest))

    selected = []
    if args.problem:
        for key in args.problem:
            spec = get_problem(key)  # raises with known keys on typo
            selected.extend(
                (spec, inst) for inst in spec.instances_with_role("verify")
            )
    else:
        selected = list(instances_with_role("verify", include_mutants=True))
    if args.instance:
        wanted = set(args.instance)
        selected = [
            (spec, inst) for spec, inst in selected if inst.label in wanted
        ]
        missing = wanted - {inst.label for _, inst in selected}
        if missing:
            known = [
                inst.label
                for _, inst in instances_with_role(
                    "verify", include_mutants=True
                )
            ]
            parser.error(
                f"unknown instance label(s) {sorted(missing)}; known: {known}"
            )
    if args.list:
        for spec, inst in selected:
            liveness = ", ".join(
                f"{prop.kind} ({prop.theorem})"
                + (" [expect violation]" if prop.expect_violation else "")
                for prop in spec.liveness
            ) or "safety only"
            print(f"{inst.label}: {liveness}")
        return 0

    failed = 0
    for spec, inst in selected:
        telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
        request = RunRequest(max_states=args.max_states, telemetry=telemetry)
        try:
            report = verify_instance(spec, inst, request=request)
        except VerificationError as exc:
            failed += 1
            print(f"[FAIL] {inst.label}: {exc}")
            continue
        status = "OK " if report.ok else "FAIL"
        if not report.ok:
            failed += 1
        print(f"[{status}] {inst.label}: {report.summary()}")
        for outcome in report.outcomes:
            lasso = outcome.verdict.lasso
            if lasso is not None:
                print(
                    f"       lasso: {len(lasso.prefix)}-step prefix, then "
                    f"repeat {list(lasso.cycle)} forever "
                    "(replayable via repro.runtime.replay.replay_schedule)"
                )
        if args.telemetry:
            write_verify_manifest(
                args.telemetry, spec, inst, report, telemetry.snapshot()
            )
    return 1 if failed else 0


def cmd_attack() -> int:
    from repro.core.mutex import AnonymousMutex
    from repro.lowerbounds.symmetry import run_symmetry_attack

    for m in (2, 4, 6):
        result = run_symmetry_attack(
            AnonymousMutex(m=m, unsafe_allow_any_m=True), [11, 13]
        )
        print(f"m={m}: {result.summary()}")
        if not result.violated:
            return 1
    print("even register counts are impossible, exactly as Theorem 3.1 says")
    return 0


def cmd_lint(rest=()) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(list(rest))


def cmd_report(rest=()) -> int:
    from repro.obs.report import report_main

    return report_main(list(rest))


def cmd_fuzz(rest=()) -> int:
    """Seeded adversary-strategy fuzzing (see repro.fuzz)."""
    from repro.fuzz.cli import fuzz_main

    return fuzz_main(list(rest))


def cmd_sweep(rest=()) -> int:
    """Resumable disk-backed sweep farm (see repro.farm)."""
    import contextlib
    import tempfile

    from repro.cliflags import add_workers_flag, reject_flag
    from repro.errors import ReproError
    from repro.farm import (
        create_farm,
        farm_result,
        is_farm_dir,
        parse_adversary_spec,
        parse_naming_spec,
        resume_farm,
        run_farm,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Run a naming × adversary grid over a problem from "
        "the registry.  With --out DIR the grid persists as a sqlite "
        "run table workers claim cells from; a killed run restarts with "
        "--resume DIR exactly where it stopped (done cells are never "
        "re-executed).  Without --out the same farm runs in a "
        "temporary directory that is removed afterwards.",
    )
    parser.add_argument("--problem", metavar="KEY",
                        help="problem registry key (e.g. figure-1-mutex)")
    parser.add_argument("--instance", metavar="LABEL", default=None,
                        help="registry instance supplying the parameters")
    parser.add_argument("--param", action="append", default=None,
                        metavar="K=V",
                        help="explicit builder parameter (repeatable; "
                        "mutually exclusive with --instance)")
    parser.add_argument("--namings", default="identity,random:1",
                        metavar="SPECS",
                        help="comma-separated naming specs: identity | "
                        "random:SEED (default: %(default)s)")
    parser.add_argument("--adversaries", default="random:1,random:2,round-robin",
                        metavar="SPECS",
                        help="comma-separated adversary specs: round-robin | "
                        "random:SEED | burst:SEED | staged:PREFIX:SEED "
                        "(default: %(default)s)")
    parser.add_argument("--max-steps", type=int, default=200_000, metavar="N",
                        help="step budget per run cell (default: %(default)s)")
    parser.add_argument("--retain-graph", action="store_true",
                        help="append one exhaustive verify cell whose "
                        "retained StateGraph is persisted in the farm's "
                        "disk store (graphs/cell-*/)")
    parser.add_argument("--verify-max-states", type=int, default=None,
                        metavar="N", help="state budget for the verify cell")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="create a farm directory and drain it")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="reclaim a killed farm's cells and drain the rest")
    add_workers_flag(
        parser, default=1,
        help_text="claiming worker processes (needs --out/--resume)",
    )
    parser.add_argument("--max-attempts", type=int, default=None, metavar="N",
                        help="per-cell retry budget: transiently failed "
                        "cells re-enter pending until they have been "
                        "attempted N times (default: 1 — errors stay "
                        "terminal)")
    reject_flag(
        parser, "--backend", "sweep",
        "the farm schedules cells across claiming processes; pick "
        "parallelism with --workers",
    )
    reject_flag(
        parser, "--seed", "sweep",
        "adversary seeds ride in the --adversaries specs "
        "(e.g. random:SEED)",
    )
    reject_flag(
        parser, "--max-states", "sweep",
        "run cells are step-bounded (--max-steps); the verify cell's "
        "state budget is --verify-max-states",
    )
    args = parser.parse_args(list(rest))

    if args.resume is not None:
        if args.out is not None or args.problem is not None:
            parser.error("--resume takes its grid from the farm directory; "
                         "drop --out/--problem")
        if not is_farm_dir(args.resume):
            parser.error(f"{args.resume}: no run table found "
                         "(not a farm directory?)")
        reclaimed = resume_farm(args.resume, max_attempts=args.max_attempts)
        before = farm_result(args.resume)
        remaining = before.counts["pending"]
        print(f"resume: reclaimed {reclaimed} cell(s), "
              f"{remaining} cell(s) to run")
        if remaining == 0:
            print(before.summary())
            return 1 if before.errors else 0
        result = run_farm(args.resume, workers=args.workers,
                          max_attempts=args.max_attempts)
    else:
        if args.problem is None:
            parser.error("--problem is required (unless resuming)")
        if args.param is not None and args.instance is not None:
            parser.error("pass either --param or --instance, not both")
        params = None
        if args.param is not None:
            params = {}
            for item in args.param:
                key, sep, value = item.partition("=")
                if not sep:
                    parser.error(f"--param needs K=V, got {item!r}")
                try:
                    params[key] = int(value)
                except ValueError:
                    params[key] = value
        try:
            config = {
                "problem": args.problem,
                "instance": args.instance,
                "params": params,
                "namings": [
                    parse_naming_spec(spec)
                    for spec in args.namings.split(",") if spec.strip()
                ],
                "adversaries": [
                    parse_adversary_spec(spec)
                    for spec in args.adversaries.split(",") if spec.strip()
                ],
                "max_steps": args.max_steps,
                "retain_graph": args.retain_graph,
                "verify_max_states": args.verify_max_states,
                "max_attempts": args.max_attempts or 1,
            }
        except ReproError as exc:
            parser.error(str(exc))
        if args.out is None and args.workers > 1:
            parser.error("--workers needs a shared run table; add --out DIR")
        if args.out is not None and is_farm_dir(args.out):
            parser.error(f"{args.out}: run table already exists; "
                         "use --resume to continue it")
        with contextlib.ExitStack() as stack:
            # Without --out the farm lives in a temporary directory for
            # the length of the run: the same drain, nothing kept.
            directory = args.out or stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-sweep-")
            )
            try:
                count = create_farm(directory, config)
            except ReproError as exc:
                parser.error(str(exc))
            if args.out is not None:
                print(f"farm: {count} cell(s) at {args.out}")
            result = run_farm(directory, workers=args.workers,
                              max_attempts=args.max_attempts)

    print(result.summary())
    violations = sum(
        1 for row in result.done
        if (row.result or {}).get("verdict") not in ("ok", "verified", None)
    )
    if violations:
        print(f"{violations} cell(s) recorded property violations")
    for row in result.errors:
        print(f"[error] cell {row.index}: {row.error}", file=sys.stderr)
    return 1 if result.errors else 0


def cmd_experiments() -> int:
    import importlib.util
    from pathlib import Path

    script = Path(__file__).resolve().parents[2] / "benchmarks" / "run_experiments.py"
    if not script.exists():
        print(
            "benchmarks/run_experiments.py not found (installed without the "
            "repository checkout); clone the repo to run the full tables",
            file=sys.stderr,
        )
        return 2
    spec = importlib.util.spec_from_file_location("run_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    return 0


#: The subcommand registry: name → handler.  Every key must appear in
#: the module docstring above (asserted by tests/test_docs.py).
COMMANDS = {
    "demo": cmd_demo,
    "verify": cmd_verify,
    "attack": cmd_attack,
    "lint": cmd_lint,
    "sweep": cmd_sweep,
    "fuzz": cmd_fuzz,
    "experiments": cmd_experiments,
    "report": cmd_report,
}

#: Subcommands with their own ArgumentParser: the remaining argv is
#: forwarded to them instead of being rejected here.
_FORWARDS_REST = frozenset({"verify", "lint", "sweep", "fuzz", "report"})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Coordination Without Prior Agreement — reproduction CLI",
    )
    parser.add_argument(
        "command",
        nargs="?",
        default="demo",
        choices=list(COMMANDS),
        help="demo (default) | verify [--list --problem --instance "
             "--max-states --telemetry] (exhaustive safety + "
             "liveness over "
             "the problem registry) | attack | lint | "
             "sweep [--out DIR --resume DIR --workers N] (resumable "
             "disk-backed naming × adversary grid) | "
             "fuzz [--problem KEY --seed N --episodes N] (seeded "
             "adversary-strategy fuzzing with certified, shrunk "
             "violation schedules) | "
             "experiments (tables E1-E14 of the E1-E17 index; E15-E17 "
             "run via pytest benchmarks/) | "
             "report <manifest-or-dir> (summarise repro.obs run "
             "manifests or a sweep-farm directory)",
    )
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _FORWARDS_REST:
        # Hand the whole tail to the subcommand's own parser before the
        # top-level one can intercept --help (or any shared spelling).
        return COMMANDS[argv[0]](argv[1:])
    args, rest = parser.parse_known_args(argv)
    if args.command in _FORWARDS_REST:
        return COMMANDS[args.command](rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return COMMANDS[args.command]()


if __name__ == "__main__":
    raise SystemExit(main())
