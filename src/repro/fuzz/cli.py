"""``python -m repro fuzz`` — the fuzzer's command-line surface.

One-shot mode runs :func:`~repro.fuzz.engine.run_fuzz` in-process and
prints each certified violation with its shrunk witness.  With
``--out DIR`` the episode budget is sharded into *fuzz cells* of a
disk-backed farm (:mod:`repro.farm`): the run table persists episode
ranges, ``--workers N`` drains them with claiming processes, and a
killed run restarts with ``--resume DIR`` exactly where it stopped —
episodes are globally numbered, so a resumed farm's results are
byte-identical to an uninterrupted one's.

Exit status: ``0`` when the run matches expectation (no violations
found, or — with ``--expect-violation``, the mutant-hunting mode CI
uses — at least one found), ``1`` otherwise, ``2`` for usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.cliflags import (
    add_max_states_flag,
    add_seed_flag,
    add_workers_flag,
    reject_flag,
)

__all__ = ["fuzz_main", "aggregate_fuzz_rows"]

#: Episodes per farm cell; small enough that a grid spreads across
#: workers, large enough that claim overhead stays negligible.
DEFAULT_EPISODES_PER_CELL = 8


def _parse_params(
    parser: argparse.ArgumentParser, items: Optional[Sequence[str]]
) -> Optional[Dict[str, Any]]:
    if items is None:
        return None
    params: Dict[str, Any] = {}
    for item in items:
        key, sep, value = item.partition("=")
        if not sep:
            parser.error(f"--param needs K=V, got {item!r}")
        try:
            params[key] = int(value)
        except ValueError:
            params[key] = value
    return params


def aggregate_fuzz_rows(rows: Sequence[Any]) -> Dict[str, Any]:
    """Merge done fuzz cells' results into one run-level summary.

    Cells are merged in episode order, so the violation list is exactly
    the one a one-shot run over the same episode range reports.
    ``distinct_states`` sums per-cell coverage (cells do not share seen
    sets, so the sum over-counts states reached in several cells).
    """
    results = sorted(
        (row.result for row in rows if row.status == "done" and row.result),
        key=lambda result: result.get("episode_base", 0),
    )
    summary: Dict[str, Any] = {
        "episodes_run": sum(r.get("episodes_run", 0) for r in results),
        "steps": sum(r.get("steps", 0) for r in results),
        "distinct_states": sum(r.get("distinct_states", 0) for r in results),
        "violations": [v for r in results for v in r.get("violations", [])],
    }
    by_family: Dict[str, int] = {}
    for result in results:
        for family, count in (result.get("violations_by_family") or {}).items():
            by_family[family] = by_family.get(family, 0) + count
    summary["violations_by_family"] = by_family
    return summary


def _print_violations(violations: Sequence[Dict[str, Any]]) -> None:
    for violation in violations:
        print(
            f"[HIT] {violation['kind']} via {violation['family']} "
            f"(episode {violation['episode']}): {violation['message']}"
        )
        if violation["kind"] == "safety":
            print(f"      shrunk schedule: {violation['shrunk_schedule']}")
        else:
            print(
                f"      shrunk lasso: prefix {violation['shrunk_prefix']}, "
                f"then repeat {violation['shrunk_cycle']} forever "
                "(replayable via repro.runtime.replay.replay_schedule)"
            )


def _write_fuzz_manifest(
    directory: str, report: Any, telemetry_snapshot: Dict[str, Any]
) -> None:
    import re
    from pathlib import Path

    from repro.obs.manifest import RunManifest

    outcome = report.to_dict()
    manifest = RunManifest.create(
        kind="fuzz",
        algorithm=report.problem,
        parameters={
            "instance": report.instance,
            "seed": report.seed,
            "episodes": report.episodes,
            "episode_base": report.episode_base,
            "max_steps": report.max_steps,
            "families": list(report.families),
        },
        adversary=f"fuzz:{'+'.join(report.families)}",
        backend="compiled",  # episodes step the packed walker's tables
        workers=1,
        outcome=outcome,
        telemetry=telemetry_snapshot,
    )
    slug = re.sub(r"[^a-z0-9]+", "-", report.instance.lower()).strip("-")
    manifest.write(Path(directory) / f"fuzz-{slug}-seed{report.seed}.json")


def fuzz_main(argv: Sequence[str]) -> int:
    from repro.errors import ReproError
    from repro.fuzz.strategies import STRATEGY_FAMILIES

    parser = argparse.ArgumentParser(
        prog="python -m repro fuzz",
        description="Seeded adversary-strategy fuzzing over registry "
        "instances: strategy families (lockstep, random, greedy, "
        "covering) drive the packed walker hunting safety violations and "
        "livelock lassos; every hit is shrunk to a minimal schedule and "
        "certified by replaying it on a fresh system.  A clean run "
        "proves nothing — exhaustive guarantees live in `repro verify`.",
    )
    parser.add_argument("--problem", metavar="KEY", default=None,
                        help="problem registry key (e.g. figure-1-mutex)")
    parser.add_argument("--instance", metavar="LABEL", default=None,
                        help="instance label of the problem, or a mutant "
                        "problem key (e.g. figure-1-mutex-even-m)")
    parser.add_argument("--param", action="append", default=None,
                        metavar="K=V",
                        help="explicit builder parameter (repeatable; "
                        "mutually exclusive with --instance)")
    add_seed_flag(parser)
    reject_flag(
        parser, "--backend", "fuzz",
        "episodes are serial by construction; shard them across "
        "farm cells with --workers",
    )
    add_workers_flag(parser, default=1,
                     help_text="claiming worker processes draining fuzz "
                     "cells (needs --out/--resume)")
    add_max_states_flag(parser, help_text="stop once this many distinct "
                        "states have been visited across all episodes")
    parser.add_argument("--episodes", type=int, default=64, metavar="N",
                        help="episode budget (default: %(default)s)")
    parser.add_argument("--max-steps", type=int, default=256, metavar="N",
                        help="schedule budget per episode "
                        "(default: %(default)s)")
    parser.add_argument("--max-violations", type=int, default=None,
                        metavar="N",
                        help="stop after N certified violations")
    parser.add_argument("--families", default=None, metavar="CSV",
                        help="comma-separated strategy families "
                        f"(default: {','.join(STRATEGY_FAMILIES)})")
    parser.add_argument("--expect-violation", action="store_true",
                        help="invert the exit status: 0 iff a violation "
                        "was found (mutant smoke tests)")
    parser.add_argument("--telemetry", metavar="DIR", default=None,
                        help="write a kind='fuzz' run manifest into DIR "
                        "(readable by `python -m repro report DIR`)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="shard episodes into a farm directory and "
                        "drain it")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="reclaim a killed fuzz farm and drain the rest")
    parser.add_argument("--episodes-per-cell", type=int,
                        default=DEFAULT_EPISODES_PER_CELL, metavar="N",
                        help="episodes per farm cell with --out "
                        "(default: %(default)s)")
    parser.add_argument("--max-attempts", type=int, default=None, metavar="N",
                        help="per-cell retry budget for transient cell "
                        "failures (default: 1 — errors stay terminal)")
    args = parser.parse_args(list(argv))

    families = None
    if args.families is not None:
        families = [f.strip() for f in args.families.split(",") if f.strip()]

    if args.out is not None or args.resume is not None:
        # Cells run independently — a global early-stop cannot be
        # coordinated across them, and each cell already appends its own
        # kind='fuzz' manifest into the farm directory.
        if args.max_violations is not None:
            parser.error("--max-violations is one-shot only; farm cells "
                         "run their full episode range")
        if args.telemetry is not None:
            parser.error("--telemetry is one-shot only; farm cells write "
                         "kind='fuzz' manifests into the farm directory")
    if args.resume is not None:
        return _farm_resume(parser, args)
    if args.problem is None:
        parser.error("--problem is required (unless resuming)")
    if args.param is not None and args.instance is not None:
        parser.error("pass either --param or --instance, not both")
    params = _parse_params(parser, args.param)

    if args.out is not None:
        return _farm_create(parser, args, params, families)

    if args.workers not in (None, 1):
        parser.error("--workers needs a shared run table; add --out DIR")

    from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
    from repro.request import RunRequest

    telemetry = Telemetry() if args.telemetry else NULL_TELEMETRY
    try:
        from repro.fuzz.engine import run_fuzz

        report = run_fuzz(
            RunRequest(
                problem=args.problem,
                instance=args.instance,
                params=params,
                seed=args.seed,
                max_steps=args.max_steps,
                max_states=args.max_states,
                telemetry=telemetry,
            ),
            episodes=args.episodes,
            families=families,
            max_violations=args.max_violations,
        )
    except ReproError as exc:
        parser.error(str(exc))
    print(
        f"{report.instance}: {report.episodes_run} episode(s), "
        f"{report.steps} steps, {report.distinct_states} distinct "
        f"state(s), seed={report.seed}"
    )
    if report.truncated_by:
        print(f"stopped early: {report.truncated_by} budget exhausted")
    _print_violations([v.to_dict() for v in report.violations])
    if args.telemetry:
        _write_fuzz_manifest(args.telemetry, report, telemetry.snapshot())
    found = report.found
    if not found:
        print("no violation found (not a proof — see `repro verify`)")
    if args.expect_violation:
        return 0 if found else 1
    return 1 if found else 0


# -- farm mode ---------------------------------------------------------

def _farm_config(
    args: argparse.Namespace,
    params: Optional[Dict[str, Any]],
    families: Optional[List[str]],
) -> Dict[str, Any]:
    return {
        "problem": args.problem,
        "instance": args.instance,
        "params": params,
        "fuzz": {
            "seed": args.seed,
            "episodes": args.episodes,
            "max_steps": args.max_steps,
            "max_states": args.max_states,
            "families": families,
            "episodes_per_cell": args.episodes_per_cell,
        },
        "max_attempts": args.max_attempts or 1,
    }


def _farm_create(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    params: Optional[Dict[str, Any]],
    families: Optional[List[str]],
) -> int:
    from repro.errors import ReproError
    from repro.farm import create_farm, is_farm_dir, run_farm

    if is_farm_dir(args.out):
        parser.error(f"{args.out}: run table already exists; "
                     "use --resume to continue it")
    try:
        count = create_farm(args.out, _farm_config(args, params, families))
    except ReproError as exc:
        parser.error(str(exc))
    print(f"fuzz farm: {count} cell(s) at {args.out}")
    result = run_farm(
        args.out, workers=args.workers or 1, max_attempts=args.max_attempts
    )
    return _farm_report(args, result)


def _farm_resume(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> int:
    from repro.farm import farm_result, is_farm_dir, resume_farm, run_farm

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
    if remaining:
        result = run_farm(
            args.resume,
            workers=args.workers or 1,
            max_attempts=args.max_attempts,
        )
    else:
        result = before
    return _farm_report(args, result)


def _farm_report(args: argparse.Namespace, result: Any) -> int:
    print(result.summary())
    summary = aggregate_fuzz_rows(result.rows)
    print(
        f"total: {summary['episodes_run']} episode(s), "
        f"{summary['steps']} steps, "
        f"{len(summary['violations'])} violation(s)"
    )
    _print_violations(summary["violations"])
    for row in result.errors:
        print(f"[error] cell {row.index}: {row.error}", file=sys.stderr)
    if result.errors:
        return 1
    found = bool(summary["violations"])
    if args.expect_violation:
        return 0 if found else 1
    return 1 if found else 0
