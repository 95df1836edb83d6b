"""Render run manifests as a human-readable summary table.

``python -m repro report <manifest-or-dir>`` lands here.  The renderer
is deliberately thin: it trusts the manifest schema (everything it
reads is validated on load), leads with the verdict, and folds the most
useful outcome/telemetry numbers into fixed columns so a directory of
bench-cell manifests reads like the E14d table it came from.  Exit
status is the audit verdict: 0 when every manifest validated, 2 when
the input could not be read or failed validation.
"""

from __future__ import annotations

import os
import sys
import warnings
from pathlib import Path
from typing import Any, List, Optional, Sequence

from repro.analysis.tables import render_table
from repro.errors import ManifestValidationError
from repro.obs.manifest import (
    RunManifest,
    TruncatedManifestWarning,
    load_manifests,
)

__all__ = ["render_report", "render_farm_summary", "report_main"]


def _outcome_number(manifest: RunManifest, *keys: str) -> Any:
    """First outcome value present among ``keys`` (engines differ)."""
    for key in keys:
        value = manifest.outcome.get(key)
        if value is not None:
            return value
    return ""


def _dominant_phase(manifest: RunManifest) -> str:
    """The phase that ate the most wall time, e.g. ``walk 98% (1.2s)``."""
    phases = manifest.telemetry.get("phases", {})
    if not phases:
        return ""
    totals = {
        name: block.get("seconds", 0.0)
        for name, block in phases.items()
        if isinstance(block, dict)
    }
    if not totals:
        return ""
    name = max(totals, key=lambda key: totals[key])
    overall = sum(totals.values())
    share = (totals[name] / overall * 100.0) if overall > 0 else 0.0
    return f"{name} {share:.0f}% ({totals[name]:.3f}s)"


def _interned(manifest: RunManifest) -> str:
    """What the packed walker interned, from the ``explore.done``
    gauges: local states per slot, then register values, e.g.
    ``181+181 / 3``.  Blank for runs without those gauges."""
    gauges = manifest.telemetry.get("gauges", {})
    prefix = "explore.interned_locals."
    slots = sorted(
        (int(name[len(prefix):]), count)
        for name, count in gauges.items()
        if name.startswith(prefix) and name[len(prefix):].isdigit()
    )
    if not slots:
        return ""
    locals_part = "+".join(str(int(count)) for _, count in slots)
    return f"{locals_part} / {int(gauges.get('explore.interned_values', 0))}"


def render_report(manifests: Sequence[RunManifest], title: Optional[str] = None) -> str:
    """One table row per manifest, newest schema fields first."""
    rows: List[List[Any]] = []
    for manifest in manifests:
        rows.append(
            [
                manifest.kind,
                manifest.algorithm,
                manifest.naming,
                f"{manifest.backend} x{manifest.workers}",
                manifest.verdict(),
                _outcome_number(manifest, "states", "steps", "runs"),
                _outcome_number(manifest, "events"),
                _outcome_number(manifest, "wall_seconds"),
                _interned(manifest),
                _dominant_phase(manifest),
                (manifest.git_rev or "")[:12],
            ]
        )
    return render_table(
        [
            "kind",
            "algorithm",
            "naming",
            "backend",
            "verdict",
            "states/steps",
            "events",
            "wall s",
            "interned",
            "dominant phase",
            "git rev",
        ],
        rows,
        title=title,
    )


def render_farm_summary(directory: Path) -> str:
    """Status summary of a sweep-farm directory's run table.

    One line per status count plus the grid's identity and the disk
    footprint of any retained graph stores — the "how far did my farm
    get" view ``repro report <farm-dir>`` leads with.
    """
    from repro.farm import GRAPHS_DIRNAME, farm_result, graph_store_bytes

    result = farm_result(directory)
    counts = result.counts
    lines = [f"sweep farm — {directory}", result.summary()]
    claimed = counts["claimed"]
    if claimed:
        lines.append(
            f"note: {claimed} cell(s) still claimed — a live worker, or a "
            "killed one (resume with: python -m repro sweep --resume "
            f"{directory})"
        )
    retained = graph_store_bytes(directory / GRAPHS_DIRNAME)
    if retained:
        lines.append(f"retained graph stores: {retained} bytes on disk")
    for row in result.errors:
        lines.append(f"[error] cell {row.index}: {row.error}")
    return "\n".join(lines)


def report_main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI body for ``python -m repro report <manifest-or-dir>``."""
    args = list(argv or [])
    if len(args) != 1 or args[0] in ("-h", "--help"):
        print(
            "usage: python -m repro report "
            "<manifest.json | manifests.ndjson | dir | farm-dir>\n"
            "\n"
            "Validate run manifests against the schema and print a summary\n"
            "table (see docs/OBSERVABILITY.md for the manifest format).\n"
            "A sweep-farm directory (one holding runs.sqlite) additionally\n"
            "gets its run-table status summary; its manifest streams are\n"
            "read tolerating a crash-truncated final line.",
            file=sys.stderr if len(args) != 1 else sys.stdout,
        )
        return 0 if args and args[0] in ("-h", "--help") else 2

    farm_dir: Optional[Path] = None
    source = Path(args[0])
    if source.is_dir() and (source / "runs.sqlite").exists():
        farm_dir = source
    try:
        if farm_dir is not None:
            from repro.farm import MANIFEST_PREFIX

            print(render_farm_summary(farm_dir))
            streams = sorted(farm_dir.glob(f"{MANIFEST_PREFIX}*.ndjson"))
            manifests: List[RunManifest] = []
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", TruncatedManifestWarning)
                for stream in streams:
                    manifests.extend(
                        load_manifests(stream, tolerate_truncated_tail=True)
                    )
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
            if not streams:
                # A freshly created (or instantly killed) farm: status
                # summary above is the whole report.
                from repro.farm import farm_result

                return 1 if farm_result(farm_dir).errors else 0
        else:
            manifests = load_manifests(args[0])
    except ManifestValidationError as exc:
        print(f"invalid manifest(s): {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {args[0]}: {exc}", file=sys.stderr)
        return 2
    try:
        print(
            render_report(
                manifests,
                title=f"run manifests — {len(manifests)} run(s), all schema-valid",
            )
        )
    except BrokenPipeError:
        # Piped through `head` and the reader closed early; the manifests
        # all validated, which is the exit status that matters.  Point
        # stdout at devnull so the interpreter's exit-time flush of the
        # dead pipe cannot raise a second time (the stdlib recipe).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    if farm_dir is not None:
        from repro.farm import farm_result

        return 1 if farm_result(farm_dir).errors else 0
    return 0
