"""Claim-protocol tests for the sweep farm's sqlite run table.

Pending cells are claimed in index order, finish/fail demand a prior
claim, resume returns only stale claims to pending, and two claimants
over one sqlite file never hand out the same cell twice.
"""

import pytest

from repro.errors import FarmError
from repro.farm import Cell, SqliteRunTable


def make_cells(n=4):
    return [Cell(index=k, kind="run", payload={"k": k}) for k in range(n)]


def open_pair(tmp_path):
    """A sqlite table plus a second independent connection to it."""
    path = tmp_path / "runs.sqlite"
    table = SqliteRunTable.create(path, make_cells(), meta={"grid": {"g": 1}})
    return table, SqliteRunTable.open(path)


@pytest.fixture()
def table(tmp_path):
    handle = SqliteRunTable.create(
        tmp_path / "runs.sqlite", make_cells(), meta={"grid": {"g": 1}}
    )
    yield handle
    handle.close()


class TestProtocol:
    def test_claims_come_in_index_order(self, table):
        indices = []
        while True:
            cell = table.claim("w0")
            if cell is None:
                break
            indices.append(cell.index)
        assert indices == [0, 1, 2, 3]

    def test_claim_preserves_payload_and_kind(self, table):
        cell = table.claim("w0")
        assert cell.kind == "run"
        assert cell.payload == {"k": 0}

    def test_lifecycle_counts(self, table):
        assert table.counts() == {"pending": 4, "claimed": 0, "done": 0, "error": 0}
        cell = table.claim("w0")
        assert table.counts()["claimed"] == 1
        table.finish(cell.index, {"verdict": "ok"})
        assert table.counts()["done"] == 1
        cell = table.claim("w0")
        table.fail(cell.index, "ValueError: boom")
        counts = table.counts()
        assert counts == {"pending": 2, "claimed": 0, "done": 1, "error": 1}

    def test_finish_requires_claim(self, table):
        with pytest.raises(FarmError, match="not 'claimed'"):
            table.finish(0, {"verdict": "ok"})

    def test_double_finish_rejected(self, table):
        cell = table.claim("w0")
        table.finish(cell.index, {"verdict": "ok"})
        with pytest.raises(FarmError, match="not 'claimed'"):
            table.finish(cell.index, {"verdict": "ok"})

    def test_fail_requires_claim(self, table):
        with pytest.raises(FarmError, match="not 'claimed'"):
            table.fail(0, "boom")

    def test_reset_claims_touches_only_claimed(self, table):
        done = table.claim("w0")
        table.finish(done.index, {"verdict": "ok"})
        stale = table.claim("w0")
        assert table.reset_claims() == 1
        counts = table.counts()
        assert counts["pending"] == 3
        assert counts["done"] == 1
        # the reclaimed cell is claimable again, attempts accumulate
        again = table.claim("w1")
        assert again.index == stale.index
        assert table.attempts_of(again.index) == 2

    def test_rows_snapshot(self, table):
        cell = table.claim("w7")
        table.finish(cell.index, {"verdict": "ok"})
        rows = table.rows()
        assert [row.index for row in rows] == [0, 1, 2, 3]
        assert rows[0].status == "done"
        assert rows[0].worker == "w7"
        assert rows[0].result == {"verdict": "ok"}
        assert rows[0].finished_at is not None
        assert rows[1].status == "pending"

    def test_meta_round_trip(self, table):
        assert table.meta() == {"grid": {"g": 1}}

    def test_drained_table_claims_none(self, table):
        for _ in range(4):
            table.finish(table.claim("w0").index, {})
        assert table.claim("w0") is None


class TestSqliteSpecifics:
    def test_create_refuses_existing(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        SqliteRunTable.create(path, make_cells()).close()
        with pytest.raises(FarmError, match="already exists"):
            SqliteRunTable.create(path, make_cells())

    def test_open_refuses_missing(self, tmp_path):
        with pytest.raises(FarmError, match="no run table"):
            SqliteRunTable.open(tmp_path / "nope.sqlite")

    def test_two_connections_claim_disjoint_cells(self, tmp_path):
        a, b = open_pair(tmp_path)
        claimed = []
        # interleave claims from two independent connections — the
        # UPDATE ... WHERE status='pending' transaction must hand every
        # cell out exactly once across both.
        for _ in range(2):
            claimed.append(a.claim("a"))
            claimed.append(b.claim("b"))
        assert a.claim("a") is None and b.claim("b") is None
        indices = sorted(cell.index for cell in claimed)
        assert indices == [0, 1, 2, 3]
        a.close()
        b.close()

    def test_finish_visible_across_connections(self, tmp_path):
        a, b = open_pair(tmp_path)
        cell = a.claim("a")
        a.finish(cell.index, {"verdict": "ok", "events": 9})
        row = next(r for r in b.rows() if r.index == cell.index)
        assert row.status == "done"
        assert row.result == {"verdict": "ok", "events": 9}
        a.close()
        b.close()

    def test_results_survive_reopen(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        table = SqliteRunTable.create(path, make_cells())
        table.finish(table.claim("w0").index, {"verdict": "ok"})
        table.close()
        reopened = SqliteRunTable.open(path)
        assert reopened.counts()["done"] == 1
        assert reopened.rows()[0].result == {"verdict": "ok"}
        reopened.close()

    def test_json_payload_round_trips(self, tmp_path):
        payload = {"naming": {"type": "random", "seed": 3}, "deep": [1, {"x": None}]}
        table = SqliteRunTable.create(
            tmp_path / "runs.sqlite", [Cell(index=0, kind="run", payload=payload)]
        )
        assert table.claim("w0").payload == payload
        table.close()
