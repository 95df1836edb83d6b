"""Tests for the manifest report renderer and its CLI entry."""

import re

from repro.obs import RunManifest, Telemetry, render_report, write_manifests_ndjson
from repro.obs.report import report_main


def make_manifest(**overrides):
    tel = Telemetry(clock=lambda: 0.0)
    with tel.phase("explore.walk"):
        pass
    fields = dict(
        kind="exploration",
        algorithm="mutex m=3 (n=2)",
        parameters={},
        naming="identity",
        backend="serial",
        workers=1,
        outcome={"verdict": "exhaustive-ok", "states": 771, "events": 1492,
                 "wall_seconds": 0.02},
        telemetry=tel.snapshot(),
    )
    fields.update(overrides)
    return RunManifest.create(**fields)


class TestRenderReport:
    def test_one_row_per_manifest_leading_with_verdict(self):
        table = render_report(
            [make_manifest(), make_manifest(outcome={"verdict": "violation"})]
        )
        assert "exhaustive-ok" in table
        assert "violation" in table
        assert "mutex m=3 (n=2)" in table
        assert "serial x1" in table

    def test_dominant_phase_column(self):
        table = render_report([make_manifest()])
        assert "explore.walk 100%" in table

    def test_interned_column_reads_the_explore_gauges(self):
        from repro.core.mutex import AnonymousMutex
        from repro.runtime.exploration import (
            explore,
            mutual_exclusion_invariant,
        )
        from repro.runtime.system import System

        tel = Telemetry()
        system = System(
            AnonymousMutex(m=3, cs_visits=1), (101, 103), record_trace=False
        )
        explore(system, mutual_exclusion_invariant, telemetry=tel)
        table = render_report([make_manifest(telemetry=tel.snapshot())])
        assert "interned" in table
        assert "39+39 / 3" in table

    def test_verify_rows_fill_events_and_wall_seconds(self):
        from repro.problems import get_problem
        from repro.verify import verify_instance, verify_manifest

        spec = get_problem("figure-1-mutex")
        instance = spec.instance("figure-1-mutex(m=3)")
        report = verify_instance(spec, instance)
        manifest = verify_manifest(spec, instance, report)
        assert manifest.outcome["events"] == report.exploration.events_executed
        assert manifest.outcome["wall_seconds"] == (
            report.explore_seconds + report.verify_seconds
        )
        lines = render_report([manifest]).splitlines()
        dashes = next(
            i for i, line in enumerate(lines) if set(line) <= {"-", " "}
        )
        spans = [m.span() for m in re.finditer(r"-+", lines[dashes])]
        header = [lines[dashes - 1][a:b].strip() for a, b in spans]
        (row,) = lines[dashes + 1 :]
        cells = dict(zip(header, (row[a:b].strip() for a, b in spans)))
        assert cells["kind"] == "verify"
        assert cells["events"] == str(report.exploration.events_executed)
        assert cells["wall s"] != ""

    def test_missing_outcome_numbers_render_blank(self):
        table = render_report(
            [make_manifest(outcome={"verdict": "ok"}, telemetry=None)]
        )
        assert "ok" in table


class TestReportMain:
    def test_directory_of_manifests_exits_zero(self, tmp_path, capsys):
        write_manifests_ndjson(
            [make_manifest(), make_manifest()], tmp_path / "runs.ndjson"
        )
        assert report_main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 run(s), all schema-valid" in out
        assert "exhaustive-ok" in out

    def test_no_arguments_is_usage_error(self, capsys):
        assert report_main([]) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert report_main(["-h"]) == 0
        assert "usage:" in capsys.readouterr().out

    def test_invalid_manifest_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"kind\": \"?\"}")
        assert report_main([str(bad)]) == 2
        assert "invalid manifest" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "absent.json")]) == 2
        assert "cannot read" in capsys.readouterr().err
