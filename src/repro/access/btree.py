"""Disk-based B+-tree over the buffer pool.

The tree maps unique byte-string keys to byte-string values; keys are
compared bytewise, so callers encode typed keys with
:mod:`repro.access.keycodec` (order-preserving).  Secondary (non-unique)
indexes append the record id to the key and use :meth:`BPlusTree.prefix_scan`
— key encodings are prefix-free within a fixed arity, which makes the
prefix range exact.

Structure: a meta page (page 0 of the index file) records the root; leaf
nodes form a singly linked chain for range scans.  Every node is a slotted
page, the shape :mod:`repro.access.slotted_page` gives heap pages:

    [kind][count][free end][garbage][link] [off 0][off 1]... | gap | cells

``link`` is the next leaf (leaves) or the leftmost child (internal nodes).
The directory holds one 2-byte cell offset per entry in key order and is
read with a single ``unpack_from``; cells are packed down from the page
end, each ``[key len][value len][key][value]``.  An internal cell's value
is the 4-byte page number of the child right of its key.  ``free end`` is
the lowest cell offset and ``garbage`` counts the bytes of cells no
directory entry points at any more.

Lookups and scans binary-search the key bytes inside the pinned page and
copy out only what they return.  Inserts and deletes write one cell and
shift the directory tail with one slice assignment; the node is rewritten
(compacted) only when the gap between directory and cells is too short.
Splits, borrows and merges re-encode the nodes they touch.  An insert past
the last key of the rightmost leaf splits at the insertion point, so
ascending loads leave full leaves; every other split divides the bytes
evenly.  Deletion rebalances: an underfull node redistributes with or
merges into a sibling, shrinking the tree when the root empties.
:meth:`BPlusTree.bulk_load` builds a tree from sorted pairs bottom-up,
packing every node full.
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial
from itertools import accumulate
from typing import Iterable, Iterator, Optional

from repro.errors import DuplicateKeyError, KeyNotFoundError, IndexError_
from repro.storage.page import PAGE_TRAILER_SIZE, PageId
from repro.storage.page_manager import PageManager

_META = struct.Struct("<4sIIQ")       # magic, root page, height, entries
_HEADER = struct.Struct("<BHHHI")     # kind, count, free end, garbage, link
_CELL = struct.Struct("<HH")          # key length, value length
_CHILD = struct.Struct("<I")
_OFFSET = struct.Struct("<H")
_MAGIC = b"BTR2"
_NO_NEXT = 0xFFFFFFFF
_LEAF, _INTERNAL = 0, 1
_HSIZE = _HEADER.size
_CSIZE = _CELL.size


@lru_cache(maxsize=1024)
def _directory_struct(count: int) -> struct.Struct:
    return struct.Struct(f"<{count}H")


def _directory(data: bytearray, count: int) -> tuple[int, ...]:
    """The node's cell offsets in key order, in one unpack."""
    return _directory_struct(count).unpack_from(data, _HSIZE)


def _key_at(data: bytearray, at: int) -> bytearray:
    start = at + _CSIZE
    return data[start:start + (data[at] | data[at + 1] << 8)]


def _search(bisect, data: bytearray, offsets: tuple[int, ...],
            key: bytes) -> int:
    """``bisect`` (``bisect_left`` or ``bisect_right``) over the keys the
    directory ``offsets`` point at, compared in place."""
    return bisect(offsets, key, key=partial(_key_at, data))


def _child_at(data: bytearray, at: int) -> int:
    return _CHILD.unpack_from(
        data, at + _CSIZE + (data[at] | data[at + 1] << 8))[0]


def _cell_bytes(data: bytearray, at: int) -> bytes:
    klen, vlen = _CELL.unpack_from(data, at)
    return bytes(data[at:at + _CSIZE + klen + vlen])


def _cell(key: bytes, value: bytes) -> bytes:
    return _CELL.pack(len(key), len(value)) + key + value


def _child_cell(key: bytes, child: int) -> bytes:
    return _cell(key, _CHILD.pack(child))


def _cell_key(cell: bytes) -> bytes:
    return cell[_CSIZE:_CSIZE + _CELL.unpack_from(cell)[0]]


def _cell_child(cell: bytes) -> int:
    return _CHILD.unpack_from(cell, len(cell) - _CHILD.size)[0]


def _node_bytes(cells: list[bytes]) -> int:
    """Page bytes a node of ``cells`` occupies: header, directory, cells."""
    return _HSIZE + sum(len(cell) for cell in cells) + 2 * len(cells)


def _midpoint(cells: list[bytes], internal: bool) -> int:
    """Split position that divides the node's bytes most evenly; an
    internal split keeps neither side's share of the pushed-up cell."""
    prefix = list(accumulate((len(cell) + 2 for cell in cells), initial=0))
    total = prefix[-1]
    skip = 1 if internal else 0
    return min(range(1, len(cells) - skip),
               key=lambda m: max(prefix[m], total - prefix[m + skip]))


class BPlusTree:
    """B+-tree index with unique byte keys.

    ``pages`` supplies pinned pages; ``file_id`` must be a dedicated file.
    A fresh file is formatted on first use; an existing one is reopened
    from its meta page.
    """

    def __init__(self, pages: PageManager, file_id: int) -> None:
        self.pages = pages
        self.file_id = file_id
        self._usable = (pages.pool.files.disk.device.block_size
                        - PAGE_TRAILER_SIZE)
        # The largest entry (cell plus its offset) two of which fit a
        # node, so a node that overflows holds at least three: every
        # split, redistribution and separator swap then has a dividing
        # point that leaves both sides fitting and holding a key.
        self._max_entry = (self._usable - _HSIZE) // 2
        if pages.pool.files.file_size_pages(file_id) == 0:
            self._format()
        else:
            self._load_meta()

    # -- meta page -----------------------------------------------------------

    def _format(self) -> None:
        meta = self.pages.allocate(self.file_id)          # page 0
        root = self.pages.allocate(self.file_id)          # page 1
        try:
            self._encode(root, _LEAF, _NO_NEXT, [])
            self.root_page = root.page_id.page_no
            self.height = 1
            self.num_entries = 0
            self._write_meta(page=meta)
        finally:
            self.pages.unpin(meta.page_id, dirty=True)
            self.pages.unpin(root.page_id, dirty=True)

    def _load_meta(self) -> None:
        page = self.pages.fetch(PageId(self.file_id, 0))
        try:
            magic, root, height, entries = _META.unpack_from(page.data, 0)
            if magic != _MAGIC:
                raise IndexError_(
                    f"file {self.file_id} is not a B+-tree (bad magic)")
            self.root_page, self.height, self.num_entries = \
                root, height, entries
        finally:
            self.pages.unpin(page.page_id)

    def _write_meta(self, page=None) -> None:
        own = page is None
        if own:
            page = self.pages.fetch(PageId(self.file_id, 0))
        try:
            page.write(0, _META.pack(_MAGIC, self.root_page, self.height,
                                     self.num_entries))
        finally:
            if own:
                self.pages.unpin(page.page_id, dirty=True)

    # -- node format ---------------------------------------------------------

    def _encode(self, page, kind: int, link: int,
                cells: list[bytes]) -> None:
        """Rewrite ``page`` as a node holding ``cells`` in key order."""
        usable = self._usable
        if _node_bytes(cells) > usable:
            raise IndexError_(
                f"B+-tree node needs {_node_bytes(cells)} bytes, page "
                f"holds {usable}")
        offsets = list(accumulate((len(cell) for cell in cells),
                                  lambda end, size: end - size,
                                  initial=usable))[1:]
        free_end = offsets[-1] if cells else usable
        head = (_HEADER.pack(kind, len(cells), free_end, 0, link)
                + _directory_struct(len(cells)).pack(*offsets))
        page.data[:] = (head + bytes(free_end - len(head))
                        + b"".join(reversed(cells)))

    @staticmethod
    def _decode(page) -> tuple[int, int, list[bytes]]:
        """``(kind, link, cells)`` of a node, cells in key order."""
        data = page.data
        kind, count, _, _, link = _HEADER.unpack_from(data)
        return kind, link, [_cell_bytes(data, at)
                            for at in _directory(data, count)]

    def _place(self, page, idx: int, cell: bytes) -> bool:
        """Write ``cell`` as entry ``idx`` of the node in ``page``; False
        (page untouched) when the node lacks room even after compaction."""
        data = page.data
        kind, count, free_end, garbage, link = _HEADER.unpack_from(data)
        need = len(cell) + 2
        dir_end = _HSIZE + 2 * count
        if free_end - dir_end < need:
            if free_end - dir_end + garbage < need:
                return False
            self._encode(page, *self._decode(page))
            free_end, garbage = _HEADER.unpack_from(data)[2:4]
        at = free_end - len(cell)
        data[at:free_end] = cell
        pos = _HSIZE + 2 * idx
        data[pos:dir_end + 2] = _OFFSET.pack(at) + data[pos:dir_end]
        _HEADER.pack_into(data, 0, kind, count + 1, at, garbage, link)
        return True

    @staticmethod
    def _cut(page, idx: int) -> None:
        """Drop entry ``idx``; its cell bytes become garbage unless they
        sit at the free end."""
        data = page.data
        kind, count, free_end, garbage, link = _HEADER.unpack_from(data)
        pos = _HSIZE + 2 * idx
        (at,) = _OFFSET.unpack_from(data, pos)
        klen, vlen = _CELL.unpack_from(data, at)
        size = _CSIZE + klen + vlen
        dir_end = _HSIZE + 2 * count
        data[pos:dir_end - 2] = data[pos + 2:dir_end]
        if at == free_end:
            free_end += size
        else:
            garbage += size
        _HEADER.pack_into(data, 0, kind, count - 1, free_end, garbage, link)

    def _underflows(self, page) -> bool:
        _, count, free_end, garbage, _ = _HEADER.unpack_from(page.data)
        used = _HSIZE + 2 * count + self._usable - free_end - garbage
        return used < self._usable // 4

    def _check_entry(self, key: bytes, value: bytes) -> None:
        # An entry's separator copy carries a 4-byte child for its value.
        size = _CSIZE + 2 + len(key) + max(len(value), _CHILD.size)
        if size > self._max_entry:
            raise IndexError_(
                f"B+-tree entry of {len(key)}+{len(value)} bytes takes "
                f"{size} bytes of a node, over the limit of "
                f"{self._max_entry} (half a node); key too large for "
                f"page size")

    # -- search ----------------------------------------------------------------

    def _descend(self, key: bytes) -> list[tuple[int, int]]:
        """Path from root to leaf: [(page_no, child_idx_taken)], leaf last
        with child_idx -1."""
        fetch, unpin, file_id = self.pages.fetch, self.pages.unpin, \
            self.file_id
        path: list[tuple[int, int]] = []
        page_no = self.root_page
        for _ in range(self.height - 1):
            page = fetch(PageId(file_id, page_no))
            try:
                data = page.data
                _, count, _, _, link = _HEADER.unpack_from(data)
                offsets = _directory(data, count)
                idx = _search(bisect_right, data, offsets, key)
                child = _child_at(data, offsets[idx - 1]) if idx else link
            finally:
                unpin(page.page_id)
            path.append((page_no, idx))
            page_no = child
        path.append((page_no, -1))
        return path

    def get(self, key: bytes) -> Optional[bytes]:
        page = self.pages.fetch(
            PageId(self.file_id, self._descend(key)[-1][0]))
        try:
            data = page.data
            offsets = _directory(data, _HEADER.unpack_from(data)[1])
            idx = _search(bisect_left, data, offsets, key)
            if idx == len(offsets):
                return None
            at = offsets[idx]
            klen, vlen = _CELL.unpack_from(data, at)
            start = at + _CSIZE
            if data[start:start + klen] != key:
                return None
            return bytes(data[start + klen:start + klen + vlen])
        finally:
            self.pages.unpin(page.page_id)

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return self.num_entries

    # -- insert ------------------------------------------------------------------

    def insert(self, key: bytes, value: bytes,
               replace: bool = False) -> None:
        """Insert ``key -> value``; raises :class:`DuplicateKeyError` on an
        existing key unless ``replace``."""
        self._check_entry(key, value)
        path = self._descend(key)
        page = self.pages.fetch(PageId(self.file_id, path[-1][0]))
        changed = False
        try:
            data = page.data
            offsets = _directory(data, _HEADER.unpack_from(data)[1])
            idx = _search(bisect_left, data, offsets, key)
            found = idx < len(offsets) and _key_at(data, offsets[idx]) == key
            if found:
                if not replace:
                    raise DuplicateKeyError(f"duplicate key {key!r}")
                self._cut(page, idx)
            changed = True
            cell = _cell(key, value)
            placed = self._place(page, idx, cell)
        finally:
            self.pages.unpin(page.page_id, dirty=changed)
        if not found:
            self.num_entries += 1
        if not placed:
            # A longer replacement value can overflow the node too.
            self._split(path, len(path) - 1, idx, cell)
        if not (found and placed):
            self._write_meta()

    def _split(self, path: list[tuple[int, int]], level: int, idx: int,
               cell: bytes) -> None:
        """Insert ``cell`` at ``idx`` into the full node ``path[level]`` by
        splitting it, and the new separator into its parent likewise."""
        page_no = path[level][0]
        page = self.pages.fetch(PageId(self.file_id, page_no))
        right = self.pages.allocate(self.file_id)
        right_no = right.page_id.page_no
        try:
            kind, link, cells = self._decode(page)
            cells.insert(idx, cell)
            if kind == _LEAF:
                # An append past the rightmost leaf splits right there.
                append = link == _NO_NEXT and idx == len(cells) - 1
                sep = self._divide(page, right, _LEAF, right_no, link, cells,
                                   idx if append else None)
            else:
                sep = self._divide(page, right, _INTERNAL, link, 0, cells)
        finally:
            self.pages.unpin(page.page_id, dirty=True)
            self.pages.unpin(right.page_id, dirty=True)
        up = _child_cell(sep, right_no)
        if level == 0:
            # Root split: grow the tree by one level.
            root = self.pages.allocate(self.file_id)
            try:
                self._encode(root, _INTERNAL, page_no, [up])
                self.root_page = root.page_id.page_no
            finally:
                self.pages.unpin(root.page_id, dirty=True)
            self.height += 1
            return
        self._insert_child(path, level - 1, path[level - 1][1], up)

    def _divide(self, left, right, kind: int, left_link: int,
                right_link: int, cells: list[bytes],
                mid: Optional[int] = None) -> bytes:
        """Write ``cells`` across two sibling nodes, split at ``mid`` (the
        byte midpoint by default), and return the parent's separator.
        Leaves split ``cells[:mid]``/``cells[mid:]``; an internal split
        pushes ``cells[mid]`` up and its child becomes the right node's
        leftmost (``right_link`` is then unused)."""
        internal = kind == _INTERNAL
        if mid is None:
            mid = _midpoint(cells, internal)
        self._encode(left, kind, left_link, cells[:mid])
        if internal:
            self._encode(right, kind, _cell_child(cells[mid]),
                         cells[mid + 1:])
        else:
            self._encode(right, kind, right_link, cells[mid:])
        return _cell_key(cells[mid])

    def _insert_child(self, path: list[tuple[int, int]], level: int,
                      idx: int, cell: bytes) -> None:
        """Put separator ``cell`` at ``idx`` of internal node
        ``path[level]``, splitting it when full."""
        page = self.pages.fetch(PageId(self.file_id, path[level][0]))
        try:
            placed = self._place(page, idx, cell)
        finally:
            self.pages.unpin(page.page_id, dirty=placed)
        if not placed:
            self._split(path, level, idx, cell)

    # -- bulk load -------------------------------------------------------------

    def bulk_load(self, sorted_pairs: Iterable[tuple[bytes, bytes]]) -> None:
        """Fill an empty tree from ``(key, value)`` pairs in strictly
        ascending key order: leaves are packed full left to right, then
        each internal level is built from the first keys of the level
        below.  Raises before writing anything on unsorted or duplicate
        keys."""
        pairs = list(sorted_pairs)
        if self.num_entries:
            raise IndexError_("bulk_load needs an empty tree")
        for (prev, _), (key, _) in zip(pairs, pairs[1:]):
            if key == prev:
                raise DuplicateKeyError(f"duplicate key {key!r}")
            if key < prev:
                raise IndexError_(f"bulk_load keys out of order at {key!r}")
        for key, value in pairs:
            self._check_entry(key, value)
        level = self._build_level(_LEAF, [_cell(k, v) for k, v in pairs])
        height = 1
        while len(level) > 1:
            level = self._build_level(
                _INTERNAL, [_child_cell(key, child) for key, child in level])
            height += 1
        self.root_page, self.height = level[0][1], height
        self.num_entries = len(pairs)
        self._write_meta()

    def _build_level(self, kind: int,
                     cells: list[bytes]) -> list[tuple[bytes, int]]:
        """Pack ``cells`` into full nodes of one level, left to right, and
        return ``(first key, page number)`` per node.  An internal node's
        first cell becomes its leftmost child."""
        groups: list[list[bytes]] = [[]]
        used = _HSIZE
        for cell in cells:
            size = len(cell) + 2
            if groups[-1] and used + size > self._usable:
                groups.append([])
                used = _HSIZE
            if kind == _LEAF or groups[-1]:
                used += size
            groups[-1].append(cell)
        if kind == _INTERNAL and len(groups) > 1 and len(groups[-1]) == 1:
            groups[-1].insert(0, groups[-2].pop())   # no keyless last node
        if self.height == 1 and kind == _LEAF:
            page = self.pages.fetch(PageId(self.file_id, self.root_page))
        else:
            page = self.pages.allocate(self.file_id)
        level: list[tuple[bytes, int]] = []
        for number, group in enumerate(groups):
            following = self.pages.allocate(self.file_id) \
                if number + 1 < len(groups) else None
            try:
                if kind == _LEAF:
                    self._encode(page, _LEAF, _NO_NEXT if following is None
                                 else following.page_id.page_no, group)
                    level.append((_cell_key(group[0]) if group else b"",
                                  page.page_id.page_no))
                else:
                    self._encode(page, _INTERNAL, _cell_child(group[0]),
                                 group[1:])
                    level.append((_cell_key(group[0]),
                                  page.page_id.page_no))
            finally:
                self.pages.unpin(page.page_id, dirty=True)
            page = following
        return level

    # -- delete ------------------------------------------------------------------

    def delete(self, key: bytes) -> None:
        path = self._descend(key)
        page = self.pages.fetch(PageId(self.file_id, path[-1][0]))
        found = False
        try:
            data = page.data
            offsets = _directory(data, _HEADER.unpack_from(data)[1])
            idx = _search(bisect_left, data, offsets, key)
            found = idx < len(offsets) and _key_at(data, offsets[idx]) == key
            if not found:
                raise KeyNotFoundError(f"key {key!r} not in index")
            self._cut(page, idx)
            underflow = self._underflows(page)
        finally:
            self.pages.unpin(page.page_id, dirty=found)
        self.num_entries -= 1
        if underflow and len(path) > 1:
            self._rebalance(path, len(path) - 1)
            self._shrink_root()
        self._write_meta()

    def _rebalance(self, path: list[tuple[int, int]], level: int) -> None:
        """Fix the underfull node at ``path[level]`` together with an
        adjacent sibling (the left one when there is one): merge the two
        when they fit one page, else redistribute their entries evenly.
        A merge may leave the parent underfull and recurses."""
        parent_no, child_idx = path[level - 1]
        parent = self.pages.fetch(PageId(self.file_id, parent_no))
        try:
            data = parent.data
            _, count, _, _, first = _HEADER.unpack_from(data)
            offsets = _directory(data, count)
            sep_idx = child_idx - 1 if child_idx else 0
            sep_at = offsets[sep_idx]
            sep = bytes(_key_at(data, sep_at))
            right_no = _child_at(data, sep_at)
            left_no = (_child_at(data, offsets[sep_idx - 1]) if sep_idx
                       else first)
        finally:
            self.pages.unpin(parent.page_id)
        left = self.pages.fetch(PageId(self.file_id, left_no))
        right = self.pages.fetch(PageId(self.file_id, right_no))
        try:
            kind, left_link, left_cells = self._decode(left)
            _, right_link, right_cells = self._decode(right)
            if kind == _LEAF:
                cells = left_cells + right_cells
            else:
                cells = left_cells + [_child_cell(sep, right_link)] \
                    + right_cells
            merged = _node_bytes(cells) <= self._usable
            if merged:
                self._encode(left, kind, right_link if kind == _LEAF
                             else left_link, cells)
            else:
                sep = self._divide(left, right, kind, left_link, right_link,
                                   cells)
        finally:
            self.pages.unpin(left.page_id, dirty=True)
            self.pages.unpin(right.page_id, dirty=not merged)
        parent = self.pages.fetch(PageId(self.file_id, parent_no))
        try:
            self._cut(parent, sep_idx)
            underflow = self._underflows(parent)
        finally:
            self.pages.unpin(parent.page_id, dirty=True)
        if not merged:
            # The new separator may be longer and split the parent.
            self._insert_child(path, level - 1, sep_idx,
                               _child_cell(sep, right_no))
        elif level - 1 > 0 and underflow:
            self._rebalance(path, level - 1)

    def _shrink_root(self) -> None:
        while self.height > 1:
            page = self.pages.fetch(PageId(self.file_id, self.root_page))
            try:
                _, count, _, _, link = _HEADER.unpack_from(page.data)
            finally:
                self.pages.unpin(page.page_id)
            if count:
                break
            self.root_page = link
            self.height -= 1

    # -- scans -------------------------------------------------------------------

    def items(self, lo: Optional[bytes] = None, hi: Optional[bytes] = None,
              lo_inclusive: bool = True,
              hi_inclusive: bool = False) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs with ``lo <= key < hi`` (bounds
        adjustable via the inclusive flags; ``None`` means unbounded).

        Each leaf's matching entries are copied out under its pin and
        yielded after it is released, so an abandoned scan holds none."""
        if lo is not None:
            page_no = self._descend(lo)[-1][0]
        else:
            page_no = self.root_page
            for _ in range(self.height - 1):
                page_no = self._link(page_no)
        first = True
        while page_no != _NO_NEXT:
            page = self.pages.fetch(PageId(self.file_id, page_no))
            try:
                data = page.data
                _, count, _, _, page_no = _HEADER.unpack_from(data)
                offsets = _directory(data, count)
                start, stop = 0, count
                if first and lo is not None:
                    start = _search(bisect_left if lo_inclusive
                                    else bisect_right, data, offsets, lo)
                if hi is not None:
                    stop = _search(bisect_right if hi_inclusive
                                   else bisect_left, data, offsets, hi)
                batch = []
                for at in offsets[start:stop]:
                    klen, vlen = _CELL.unpack_from(data, at)
                    key_end = at + _CSIZE + klen
                    batch.append((bytes(data[at + _CSIZE:key_end]),
                                  bytes(data[key_end:key_end + vlen])))
            finally:
                self.pages.unpin(page.page_id)
            yield from batch
            if stop < count:
                return
            first = False

    def _link(self, page_no: int) -> int:
        page = self.pages.fetch(PageId(self.file_id, page_no))
        try:
            return _HEADER.unpack_from(page.data)[4]
        finally:
            self.pages.unpin(page.page_id)

    def prefix_scan(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        """All entries whose key starts with ``prefix`` (exact for the
        prefix-free key encodings of :mod:`repro.access.keycodec`)."""
        # Every such key sorts below the prefix with its last non-0xff
        # byte incremented (none: the range is open-ended).
        stem = prefix.rstrip(b"\xff")
        hi = stem[:-1] + bytes([stem[-1] + 1]) if stem else None
        return self.items(lo=prefix, hi=hi)

    # -- verification (used by property tests) ------------------------------------

    def check_invariants(self) -> None:
        """Walk the whole tree asserting structural and page-format
        invariants."""
        count = self._check_node(self.root_page, self.height, None, None)
        if count != self.num_entries:
            raise IndexError_(
                f"entry count drift: meta says {self.num_entries}, "
                f"walk found {count}")
        # Leaf chain must be sorted and cover everything.
        previous = None
        chained = 0
        for key, _ in self.items():
            if previous is not None and key <= previous:
                raise IndexError_("leaf chain out of order")
            previous = key
            chained += 1
        if chained != self.num_entries:
            raise IndexError_("leaf chain misses entries")

    def _check_page(self, page_no: int) -> tuple[int, int, list[bytes],
                                                  list[bytes]]:
        """``(kind, link, keys, values)`` of a node after checking its
        layout: cells inside the page, between the free end and the page
        end, not overlapping, and the garbage count exact."""
        page = self.pages.fetch(PageId(self.file_id, page_no))
        try:
            data = page.data
            kind, count, free_end, garbage, link = _HEADER.unpack_from(data)
            if kind not in (_LEAF, _INTERNAL):
                raise IndexError_(f"bad node kind {kind} in {page_no}")
            if not _HSIZE + 2 * count <= free_end <= self._usable:
                raise IndexError_(f"free end {free_end} outside the gap "
                                  f"in {page_no}")
            spans = []
            keys, values = [], []
            for at in _directory(data, count):
                if at < free_end or at + _CSIZE > self._usable:
                    raise IndexError_(f"cell offset {at} outside the cell "
                                      f"area of {page_no}")
                klen, vlen = _CELL.unpack_from(data, at)
                end = at + _CSIZE + klen + vlen
                if end > self._usable:
                    raise IndexError_(f"cell at {at} runs off {page_no}")
                spans.append((at, end))
                keys.append(bytes(data[at + _CSIZE:at + _CSIZE + klen]))
                values.append(bytes(data[at + _CSIZE + klen:end]))
        finally:
            self.pages.unpin(page.page_id)
        spans.sort()
        for (_, end), (start, _) in zip(spans, spans[1:]):
            if start < end:
                raise IndexError_(f"overlapping cells in {page_no}")
        live = sum(end - start for start, end in spans)
        if live + garbage != self._usable - free_end:
            raise IndexError_(
                f"garbage count {garbage} disagrees with the cell area "
                f"of {page_no}")
        return kind, link, keys, values

    def _check_node(self, page_no: int, level: int,
                    lo: Optional[bytes], hi: Optional[bytes]) -> int:
        kind, link, keys, values = self._check_page(page_no)
        if level == 1 and kind != _LEAF:
            raise IndexError_("non-leaf at leaf level")
        if level > 1 and kind != _INTERNAL:
            raise IndexError_("leaf above leaf level")
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise IndexError_(f"unsorted keys in node {page_no}")
        for key in keys:
            if (lo is not None and key < lo) or \
                    (hi is not None and key >= hi):
                raise IndexError_(f"key out of separator bounds in {page_no}")
        if kind == _LEAF:
            return len(keys)
        if any(len(value) != _CHILD.size for value in values):
            raise IndexError_(f"child pointer of bad width in {page_no}")
        children = [link] + [_CHILD.unpack(value)[0] for value in values]
        total = 0
        bounds = [lo] + keys + [hi]
        for idx, child in enumerate(children):
            total += self._check_node(child, level - 1,
                                      bounds[idx], bounds[idx + 1])
        return total
