"""Answer oracle: the same rows and statements replayed into an
in-memory ``sqlite3`` database, so every answer the engine gives is
checked against something outside this repository."""

from __future__ import annotations

import math
import sqlite3
from typing import Any, Optional, Sequence

from .workloads import (GROUPS_DDL, INSERT_GROUP, INSERT_ITEM, ITEMS_DDL,
                        ORDERED_KINDS, Stmt)


def _value_equal(a: Any, b: Any) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def rows_equal(got: Sequence[tuple], want: Sequence[tuple],
               ordered: bool) -> bool:
    """Row sets agree: same order when ``ordered``, else as multisets;
    floats at rel-tol 1e-9 (sums accumulate in another order)."""
    got, want = list(got), list(want)
    if len(got) != len(want):
        return False
    if not ordered:
        got, want = sorted(got), sorted(want)
    if got == want:
        return True
    return all(len(g) == len(w) and all(map(_value_equal, g, w))
               for g, w in zip(got, want))


def answer(result: Any) -> tuple[Optional[list], Optional[int]]:
    """``(rows, affected)`` of a front-door result: ``Database.execute``
    returns ResultSet/ExecutionResult objects, ``SBDMS.sql`` dicts."""
    if isinstance(result, dict):
        return result.get("rows"), result.get("affected")
    return getattr(result, "rows", None), getattr(result, "affected", None)


class Oracle:
    def __init__(self, rows: Sequence[tuple],
                 group_rows: Sequence[tuple]) -> None:
        self._db = sqlite3.connect(":memory:", isolation_level=None)
        self._db.execute(ITEMS_DDL)
        self._db.executemany(INSERT_ITEM, rows)
        if group_rows:
            self._db.execute(GROUPS_DDL)
            self._db.executemany(INSERT_GROUP, group_rows)

    def close(self) -> None:
        self._db.close()

    def apply(self, statements: Sequence[Stmt]) -> None:
        """Replay without comparing (the untimed warm-up)."""
        for stmt in statements:
            self._db.execute(stmt.sql, stmt.params).fetchall()

    def check(self, statements: Sequence[Stmt],
              results: Sequence[Any]) -> int:
        """Replay ``statements`` in order and count the engine results
        that disagree (a raised exception arrives as the result)."""
        failed = 0
        for stmt, result in zip(statements, results):
            cursor = self._db.execute(stmt.sql, stmt.params)
            want_rows = cursor.fetchall()
            if isinstance(result, BaseException):
                failed += 1
                continue
            rows, affected = answer(result)
            if stmt.sql.startswith("SELECT"):
                ok = rows is not None and rows_equal(
                    rows, want_rows, stmt.kind in ORDERED_KINDS)
            elif stmt.kind in ("begin", "commit"):
                ok = True
            else:
                ok = affected == cursor.rowcount
            failed += not ok
        return failed

    def table(self, name: str) -> list[tuple]:
        return self._db.execute(f"SELECT * FROM {name}").fetchall()
