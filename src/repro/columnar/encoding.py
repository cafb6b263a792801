"""Physical encodings for immutable column blocks.

A column block stores one column of up to a few thousand rows in one of
four encodings, chosen per block by actual encoded size:

- ``plain`` — the marshalled value list (the fallback; also the
  cheapest to decode, so ties break away from it only when a structured
  encoding is strictly smaller);
- ``rle`` — run-length: parallel ``(values, lengths)`` lists.  Sorted
  and slowly-changing columns collapse to a handful of runs, and
  aggregates can fold whole runs without materialising rows;
- ``dict`` — dictionary: first-seen distinct values plus a packed
  ``array`` of codes.  Predicates evaluate once per *distinct* value
  and then filter on codes, never touching the value domain again;
- ``for`` — frame-of-reference: ints only, no NULLs; the block minimum
  plus non-negative deltas bit-packed into the narrowest ``array``
  typecode that fits.

Value equality is type-sensitive everywhere (``1``, ``1.0`` and
``True`` compare equal in Python but must round-trip bit-identically),
so runs and dictionary buckets never merge across types.

Every decoded list is exactly the input list — encodings are lossless
and order-preserving, which is what lets columnar scans promise
bit-identical results to the row store.
"""

from __future__ import annotations

import marshal
import operator
from array import array
from typing import Any, Callable, Iterator, Optional, Sequence

# Dictionary encoding gives up beyond this many distinct values.
_DICT_MAX_NDV = 1 << 16


def _typecode(max_value: int) -> str:
    if max_value < 1 << 8:
        return "B"
    if max_value < 1 << 16:
        return "H"
    if max_value < 1 << 32:
        return "I"
    return "Q"


def _type_key(value: Any) -> tuple:
    """Hash key that keeps 1 / 1.0 / True apart."""
    return (value.__class__, value)


class EncodedColumn:
    """One column of one block in its chosen physical encoding."""

    __slots__ = ("kind", "payload", "count")

    def __init__(self, kind: str, payload: bytes, count: int) -> None:
        self.kind = kind
        self.payload = payload
        self.count = count

    # -- construction --------------------------------------------------------

    @classmethod
    def encode(cls, values: Sequence[Any]) -> "EncodedColumn":
        """Encode a value list, picking the smallest candidate payload.

        The preference order on size ties (rle, dict, for, plain)
        favours encodings the scan layer can exploit without decoding.
        """
        values = list(values)
        candidates = [(_rle_encode(values), "rle"),
                      (_dict_encode(values), "dict"),
                      (_for_encode(values), "for"),
                      (marshal.dumps(values), "plain")]
        best_payload, best_kind = min(
            ((p, k) for p, k in candidates if p is not None),
            key=lambda c: (len(c[0]),
                           ("rle", "dict", "for", "plain").index(c[1])))
        return cls(best_kind, best_payload, len(values))

    # -- decoding ------------------------------------------------------------

    def decode(self) -> list:
        if self.kind == "plain":
            return marshal.loads(self.payload)
        if self.kind == "rle":
            run_values, run_lengths = marshal.loads(self.payload)
            out: list = []
            for value, length in zip(run_values, run_lengths):
                out.extend([value] * length)
            return out
        if self.kind == "dict":
            domain, typecode, raw = marshal.loads(self.payload)
            codes = array(typecode)
            codes.frombytes(raw)
            return [domain[c] for c in codes]
        base, typecode, raw = marshal.loads(self.payload)   # for
        deltas = array(typecode)
        deltas.frombytes(raw)
        return [base + d for d in deltas]

    def iter_runs(self) -> Iterator[tuple[Any, int]]:
        """Yield ``(value, run_length)`` pairs in row order.  RLE blocks
        yield real runs; other encodings degrade to unit runs."""
        if self.kind == "rle":
            run_values, run_lengths = marshal.loads(self.payload)
            return iter(zip(run_values, run_lengths))
        return ((value, 1) for value in self.decode())

    def distinct(self) -> Optional[list]:
        """The block's distinct values when the encoding already knows
        them (dict domain, rle run values); None otherwise."""
        if self.kind == "dict":
            return marshal.loads(self.payload)[0]
        if self.kind == "rle":
            seen = set()
            out = []
            for value in marshal.loads(self.payload)[0]:
                key = _type_key(value)
                if key not in seen:
                    seen.add(key)
                    out.append(value)
            return out
        return None

    # -- predicate pushdown --------------------------------------------------

    def matches(self, spec) -> list[bool]:
        """Per-row "``spec`` is SQL TRUE" flags, evaluated on the
        encoded form: once per distinct value for dict blocks, once per
        run for rle blocks, and as one comparison over the whole decoded
        column for plain/for blocks."""
        if self.kind == "dict":
            domain, typecode, raw = marshal.loads(self.payload)
            codes = array(typecode)
            codes.frombytes(raw)
            verdicts = _column_flags(domain, spec)
            return [verdicts[c] for c in codes]
        if self.kind == "rle":
            run_values, run_lengths = marshal.loads(self.payload)
            out: list[bool] = []
            for verdict, length in zip(_column_flags(run_values, spec),
                                       run_lengths):
                out.extend([verdict] * length)
            return out
        return _column_flags(self.decode(), spec)


def spec_test(op: str, value=None, low=None, high=None,
              low_inclusive: bool = True, high_inclusive: bool = True
              ) -> Callable[[Any], bool]:
    """value -> "conjunct is SQL TRUE" — the exact 3VL semantics of the
    compiled predicate (None operands are UNKNOWN, never TRUE), so
    pushdown drops precisely the rows the residual WHERE would drop."""
    if op == "isnull":
        return lambda v: v is None
    if op == "notnull":
        return lambda v: v is not None
    if op == "between":
        if low is None or high is None:
            return lambda v: False
        above = operator.le if low_inclusive else operator.lt
        below = operator.le if high_inclusive else operator.lt
        return lambda v: v is not None and above(low, v) \
            and below(v, high)
    if value is None:
        return lambda v: False
    if op == "=":
        return lambda v: v is not None and v == value
    if op == "<":
        return lambda v: v is not None and v < value
    if op == "<=":
        return lambda v: v is not None and v <= value
    if op == ">":
        return lambda v: v is not None and v > value
    if op == ">=":
        return lambda v: v is not None and v >= value
    raise ValueError(f"unpushable op {op!r}")


#: Whole-column comparisons, one list comprehension per op (faster on
#: CPython 3.11 and 3.12 than ``map(operator.gt, values, repeat(c))``).
_COMPARE_COLUMN = {
    "=": lambda values, c: [v == c for v in values],
    "<": lambda values, c: [v < c for v in values],
    "<=": lambda values, c: [v <= c for v in values],
    ">": lambda values, c: [v > c for v in values],
    ">=": lambda values, c: [v >= c for v in values],
}


def _column_flags(values: list, spec) -> list[bool]:
    """``spec_test`` over a whole value list, as one list comprehension
    with no per-value call.  ``NULL = c`` is already False there for a
    non-NULL ``c``.  A comparison that raises (NULL under an ordering op, or a value the
    comparand cannot be ordered against) reruns through the per-value
    3VL test, which raises exactly where the row test would."""
    op = spec.op
    if op == "isnull":
        return [v is None for v in values]
    if op == "notnull":
        return [v is not None for v in values]
    try:
        if op in _COMPARE_COLUMN and spec.value is not None:
            return _COMPARE_COLUMN[op](values, spec.value)
        if op == "between":
            above = _COMPARE_COLUMN[">=" if spec.low_inclusive
                                    else ">"](values, spec.low)
            below = _COMPARE_COLUMN["<=" if spec.high_inclusive
                                    else "<"](values, spec.high)
            return list(map(operator.and_, above, below))
    except TypeError:
        pass
    return list(map(spec_test(op, spec.value, spec.low, spec.high,
                              spec.low_inclusive, spec.high_inclusive),
                    values))


def _rle_encode(values: list) -> Optional[bytes]:
    if not values:
        return None
    run_values: list = []
    run_lengths: list[int] = []
    prev_key = object()
    for value in values:
        key = _type_key(value)
        if key == prev_key:
            run_lengths[-1] += 1
        else:
            run_values.append(value)
            run_lengths.append(1)
            prev_key = key
    if len(run_values) > len(values) // 2:
        return None     # not run-y enough to bother
    return marshal.dumps((run_values, run_lengths))


def _dict_encode(values: list) -> Optional[bytes]:
    if not values:
        return None
    codes_of: dict = {}
    domain: list = []
    codes: list[int] = []
    for value in values:
        key = _type_key(value)
        code = codes_of.get(key)
        if code is None:
            code = codes_of[key] = len(domain)
            domain.append(value)
            if len(domain) > _DICT_MAX_NDV:
                return None
        codes.append(code)
    packed = array(_typecode(len(domain) - 1), codes)
    return marshal.dumps((domain, packed.typecode, packed.tobytes()))


def _for_encode(values: list) -> Optional[bytes]:
    if not values:
        return None
    for value in values:
        if value.__class__ is not int:
            return None
    base = min(values)
    spread = max(values) - base
    if spread >= 1 << 64:
        return None
    packed = array(_typecode(spread), [v - base for v in values])
    return marshal.dumps((base, packed.typecode, packed.tobytes()))


# ---------------------------------------------------------------------------
# Zone maps
# ---------------------------------------------------------------------------


class ZoneMap:
    """Per-block, per-column min/max + null statistics.

    ``admits`` answers "could any row in this block satisfy this
    conjunct as SQL TRUE?" — conservatively: unknown bounds (mixed
    types, incomparable constant) admit, so skipping is always safe.
    """

    __slots__ = ("lo", "hi", "nulls", "count")

    def __init__(self, lo, hi, nulls: int, count: int) -> None:
        self.lo = lo
        self.hi = hi
        self.nulls = nulls
        self.count = count

    @classmethod
    def build(cls, values: Sequence[Any]) -> "ZoneMap":
        nonnull = [v for v in values if v is not None]
        try:
            lo, hi = min(nonnull), max(nonnull)
        except (TypeError, ValueError):    # mixed types or all-NULL
            lo = hi = None
        return cls(lo, hi, len(values) - len(nonnull), len(values))

    def to_tuple(self) -> tuple:
        return (self.lo, self.hi, self.nulls, self.count)

    @classmethod
    def from_tuple(cls, data: tuple) -> "ZoneMap":
        return cls(*data)

    def admits(self, op: str, value=None, low=None, high=None) -> bool:
        if op == "isnull":
            return self.nulls > 0
        if op == "notnull":
            return self.count > self.nulls
        if self.count == self.nulls:
            return False    # only NULLs: no comparison is ever TRUE
        if op == "between":
            if low is None or high is None:
                return False    # NULL bound: 3VL makes every row UNKNOWN
        elif value is None:
            return False        # NULL comparand: likewise never TRUE
        if self.lo is None:
            return True         # mixed-type block: unknown bounds admit
        try:
            if op == "=":
                return self.lo <= value <= self.hi
            if op == "<":
                return self.lo < value
            if op == "<=":
                return self.lo <= value
            if op == ">":
                return self.hi > value
            if op == ">=":
                return self.hi >= value
            if op == "between":
                return self.hi >= low and self.lo <= high
        except TypeError:
            return True     # incomparable constant: let the row test run
        return True
