"""Every legal engine configuration against an outside oracle.

One seeded statement stream — bulk load, secondary index, unique
indexes over duplicate, distinct and NULL keys, point and range reads,
aggregates, a join, top-k, single-row and set DML, an explicit
transaction that commits and one that rolls back, ANALYZE and VACUUM
part way through — runs through ``Database.execute`` once per
configuration and, statement by statement, through stdlib ``sqlite3``.
Every SELECT must return sqlite's rows, every DML statement must report
sqlite's affected-row count, and a statement sqlite refuses as a
uniqueness violation must fail here too.

The matrix is the full product of the configuration axes:

- ``execution_engine``: vectorized | row
- ``isolation``: snapshot | serializable | 2pl
- ``plan_cache_size``: 128 (cached templates) | 0 (planner every time)
- ``columnar``: on | off (vacuum migrates into the columnar tier)
- ``adaptive``: on (knob loop may add indexes, swap engines) | off
- ``lock_granularity``: row | table

so each engine-level equivalence claim (row == vectorized, snapshot ==
2PL, cached == uncached, columnar == heap, adaptive == static) is
checked in every combination with the others, not one axis at a time.
"""

import itertools
import math
import random
import sqlite3

import pytest

from repro.data import Database
from repro.errors import DuplicateKeyError

ITEMS_DDL = ("CREATE TABLE items (id INT PRIMARY KEY, grp INT NOT NULL, "
             "value INT NOT NULL, note TEXT)")
GROUPS_DDL = "CREATE TABLE groups (grp INT PRIMARY KEY, name TEXT NOT NULL)"
GROUPS = 8
ROWS = 300

#: SELECTs whose ORDER BY fixes the row order; all others compare as
#: multisets.
ORDERED = ("ORDER BY",)

CONFIGS = list(itertools.product(
    ("vectorized", "row"),
    ("snapshot", "serializable", "2pl"),
    (128, 0),
    (True, False),
    (False, True),
    ("row", "table"),
))


def _config_id(config) -> str:
    engine, isolation, cache, columnar, adaptive, granularity = config
    return "-".join((engine, isolation,
                     "cache" if cache else "nocache",
                     "columnar" if columnar else "heap",
                     "adaptive" if adaptive else "static",
                     f"{granularity}lock"))


def _item(rng: random.Random, key: int) -> tuple:
    note = None if rng.random() < 0.2 else f"n{rng.randrange(50)}"
    return (key, rng.randrange(GROUPS), rng.randrange(1000), note)


def _stream(seed: int = 7) -> list[tuple[str, tuple]]:
    """The seeded statement stream, identical for every configuration."""
    rng = random.Random(seed)
    next_key = ROWS
    statements: list[tuple[str, tuple]] = []

    def reads(count: int) -> None:
        for _ in range(count):
            kind = rng.randrange(9)
            key = rng.randrange(next_key + 5)
            grp = rng.randrange(GROUPS)
            if kind == 0:
                statements.append(
                    ("SELECT * FROM items WHERE id = ?", (key,)))
            elif kind == 1:
                statements.append(
                    ("SELECT id, value FROM items WHERE id > ? AND id < ?",
                     (key, key + rng.randrange(1, 40))))
            elif kind == 2:
                statements.append(
                    ("SELECT id, note FROM items WHERE grp = ?", (grp,)))
            elif kind == 3:
                statements.append(
                    ("SELECT grp, COUNT(*), SUM(value), MIN(value), "
                     "MAX(value), AVG(value) FROM items GROUP BY grp", ()))
            elif kind == 4:
                statements.append(
                    ("SELECT COUNT(*), SUM(value), COUNT(note) FROM items "
                     "WHERE value > ?", (rng.randrange(1000),)))
            elif kind == 5:
                statements.append(
                    ("SELECT id, value FROM items WHERE grp = ? "
                     "ORDER BY value DESC, id LIMIT 5", (grp,)))
            elif kind == 6:
                statements.append(
                    ("SELECT g.name, COUNT(*), SUM(i.value) FROM items i "
                     "JOIN groups g ON i.grp = g.grp GROUP BY g.name", ()))
            elif kind == 7:
                statements.append(
                    ("SELECT COUNT(*) FROM items WHERE note IS NULL "
                     "AND grp = ?", (grp,)))
            else:
                statements.append(
                    ("SELECT id FROM items WHERE value BETWEEN ? AND ? "
                     "ORDER BY id", (key, key + 150)))

    def writes(count: int) -> None:
        nonlocal next_key
        for _ in range(count):
            kind = rng.randrange(5)
            key = rng.randrange(next_key + 5)
            if kind == 0:
                statements.append(("INSERT INTO items VALUES (?, ?, ?, ?)",
                                   _item(rng, next_key)))
                next_key += 1
            elif kind == 1:
                statements.append(
                    ("UPDATE items SET value = value + 1 WHERE id = ?",
                     (key,)))
            elif kind == 2:
                statements.append(
                    ("UPDATE items SET grp = ? WHERE id = ?",
                     (rng.randrange(GROUPS), key)))
            elif kind == 3:
                statements.append(("DELETE FROM items WHERE id = ?", (key,)))
            else:
                statements.append(
                    ("UPDATE items SET value = value - 3 "
                     "WHERE grp = ? AND id < ?",
                     (rng.randrange(GROUPS), key)))

    statements.append(("CREATE INDEX items_grp ON items (grp)", ()))
    reads(25)
    writes(30)
    reads(15)
    statements.append(("BEGIN", ()))
    writes(10)
    reads(5)
    statements.append(("COMMIT", ()))
    statements.append(("ANALYZE", ()))
    reads(20)
    statements.append(("BEGIN", ()))
    writes(10)
    statements.append(("ROLLBACK", ()))
    reads(10)
    statements.append(("VACUUM", ()))
    reads(20)       # the columnar mirror is valid until the next write
    writes(20)
    reads(25)
    # Unique indexes: duplicate keys are refused in every isolation
    # level, distinct keys and any number of NULL keys are admitted.
    statements.append(("CREATE UNIQUE INDEX items_value ON items (value)",
                       ()))
    statements.append(("CREATE TABLE tags (id INT PRIMARY KEY, code INT, "
                       "rank INT, label TEXT)", ()))
    for row in ((1, 10, 1, None), (2, 20, 2, None), (3, 10, 3, "c"),
                (4, None, 4, "d"), (5, None, 5, "e")):
        statements.append(("INSERT INTO tags VALUES (?, ?, ?, ?)", row))
    statements.append(("CREATE UNIQUE INDEX tags_code ON tags (code)", ()))
    statements.append(("CREATE UNIQUE INDEX tags_rank ON tags (rank)", ()))
    statements.append(("CREATE UNIQUE INDEX tags_label ON tags (label)",
                       ()))
    statements.append(("INSERT INTO tags VALUES (?, ?, ?, ?)",
                       (6, 30, 6, None)))
    statements.append(("INSERT INTO tags VALUES (?, ?, ?, ?)",
                       (7, 40, 6, "g")))
    statements.append(("INSERT INTO tags VALUES (?, ?, ?, ?)",
                       (8, 50, 8, "c")))
    statements.append(("UPDATE tags SET rank = ? WHERE id = ?", (2, 1)))
    statements.append(("UPDATE tags SET label = NULL WHERE id = ?", (3,)))

    def tag_reads() -> None:
        for rank in (1, 6, 9):
            statements.append(("SELECT * FROM tags WHERE rank = ?",
                               (rank,)))
        statements.append(("SELECT id FROM tags WHERE code = ?", (10,)))
        statements.append(("SELECT id FROM tags WHERE label IS NULL", ()))
        statements.append(("SELECT id, rank FROM tags WHERE label = ?",
                           ("d",)))

    tag_reads()
    statements.append(("ANALYZE", ()))
    tag_reads()
    return statements


STREAM = _stream()


def _oracle() -> sqlite3.Connection:
    rng = random.Random(3)
    oracle = sqlite3.connect(":memory:", isolation_level=None)
    oracle.execute(ITEMS_DDL)
    oracle.execute(GROUPS_DDL)
    oracle.executemany("INSERT INTO items VALUES (?, ?, ?, ?)",
                       [_item(rng, key) for key in range(ROWS)])
    oracle.executemany("INSERT INTO groups VALUES (?, ?)",
                       [(g, f"group{g}") for g in range(GROUPS)])
    return oracle


def _database(config) -> Database:
    engine, isolation, cache, columnar, adaptive, granularity = config
    db = Database(execution_engine=engine, isolation=isolation,
                  plan_cache_size=cache, columnar=columnar,
                  adaptive=adaptive, lock_granularity=granularity)
    rng = random.Random(3)
    db.execute(ITEMS_DDL)
    db.execute(GROUPS_DDL)
    db.executemany("INSERT INTO items VALUES (?, ?, ?, ?)",
                   [_item(rng, key) for key in range(ROWS)])
    db.executemany("INSERT INTO groups VALUES (?, ?)",
                   [(g, f"group{g}") for g in range(GROUPS)])
    return db


def _same(got: list, want: list, ordered: bool) -> bool:
    got, want = [tuple(r) for r in got], [tuple(r) for r in want]
    if len(got) != len(want):
        return False
    if not ordered:
        key = lambda row: tuple((v is None, str(type(v)), v)  # noqa: E731
                                if v is not None else (True, "", 0)
                                for v in row)
        got, want = sorted(got, key=key), sorted(want, key=key)
    for g, w in zip(got, want):
        if len(g) != len(w):
            return False
        for a, b in zip(g, w):
            if isinstance(a, float) or isinstance(b, float):
                if a is None or b is None or not math.isclose(
                        a, b, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif a != b:
                return False
    return True


def test_stream_exercises_every_statement_shape():
    """The stream reaches the shapes the matrix is meant to compare."""
    texts = [sql for sql, _ in STREAM]
    for fragment in ("WHERE id = ?", "id > ? AND id < ?", "GROUP BY grp",
                     "CREATE UNIQUE INDEX", "label IS NULL",
                     "JOIN groups", "ORDER BY value DESC", "IS NULL",
                     "BETWEEN", "INSERT INTO", "UPDATE items SET grp",
                     "DELETE FROM", "ROLLBACK", "COMMIT", "ANALYZE",
                     "VACUUM"):
        assert any(fragment in text for text in texts), fragment
    assert len(CONFIGS) == 96


@pytest.mark.parametrize("config", CONFIGS, ids=map(_config_id, CONFIGS))
def test_configuration_agrees_with_sqlite(config):
    db = _database(config)
    oracle = _oracle()
    try:
        for position, (sql, params) in enumerate(STREAM):
            try:
                result = db.execute(sql, params)
            except DuplicateKeyError:
                with pytest.raises(sqlite3.IntegrityError):
                    oracle.execute(sql, params)
                continue
            if sql.startswith(("BEGIN", "COMMIT", "ROLLBACK", "ANALYZE",
                               "VACUUM", "CREATE")):
                oracle.execute(sql if not sql.startswith(("ANALYZE",
                                                          "VACUUM"))
                               else "SELECT 1")
                continue
            cursor = oracle.execute(sql, params)
            want = cursor.fetchall()
            where = f"statement {position}: {sql} {params}"
            if sql.startswith("SELECT"):
                assert _same(result.rows, want,
                             any(o in sql for o in ORDERED)), \
                    f"{where}\n got  {result.rows}\n want {want}"
            else:
                assert result.affected == cursor.rowcount, where
        final = sorted(db.query("SELECT * FROM items"))
        assert _same(final, oracle.execute(
            "SELECT * FROM items").fetchall(), ordered=False)
        # Each axis changed what ran, not only a constructor argument.
        _, isolation, _, columnar, adaptive, _ = config
        stats = db.stats()
        if columnar and isolation != "2pl":
            assert stats["columnar"]["tables"]["items"]["rows_migrated"] > 0
        if adaptive:
            assert stats["adaptation"]["log"]
    finally:
        oracle.close()
        db.close()
