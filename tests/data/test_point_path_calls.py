"""Tier-1 guard on what a cached primary-key read costs, in Python calls.

Timings move with the machine; the number of Python-level ``call``
events (function entries and generator resumptions, as
``sys.setprofile`` reports them) does not.  A cached
``SELECT * FROM items WHERE id = ?`` on an analysed 500-row table is
counted over 200 reads after warm-up.  The bound fails the suite when
per-execution work creeps back into the point path — above all the
access-path costing that a unique-key equality decides once per plan
cache entry.  CPython 3.12 inlines comprehensions (no call event), so
its bound is lower.
"""

import sys
from collections import Counter

from repro.data import Database

READS = 200
BOUND = 140 if sys.version_info >= (3, 12) else 150


def _profile_point_reads() -> tuple[float, Counter]:
    db = Database()
    db.execute("CREATE TABLE items (id INT PRIMARY KEY, grp INT NOT NULL, "
               "label TEXT NOT NULL, value FLOAT)")
    db.executemany("INSERT INTO items VALUES (?, ?, ?, ?)",
                   [(i, i % 50, f"label{i}", i * 1.5) for i in range(500)])
    db.execute("ANALYZE items")
    sql = "SELECT * FROM items WHERE id = ?"
    for key in range(50):
        db.execute(sql, (key,))
    calls = 0
    names: Counter = Counter()

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1
            names[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        for i in range(READS):
            assert db.execute(sql, ((i * 7) % 500,)).rows
    finally:
        sys.setprofile(None)
        db.close()
    return calls / READS, names


def test_cached_point_read_call_count():
    per_read, names = _profile_point_reads()
    assert per_read <= BOUND, (per_read, names.most_common(15))


def test_cached_point_read_is_not_repriced():
    _, names = _profile_point_reads()
    assert names["choose_access_path"] == 0
    assert names["unique_probe"] == 0        # decided during warm-up
