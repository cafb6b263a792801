"""Slotted page and heap file tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import RID, HeapFile, SlottedPage
from repro.errors import PageLayoutError
from repro.storage import (
    BufferPool,
    DiskManager,
    FileManager,
    MemoryDevice,
    PageManager,
)
from repro.storage.page import Page, PageId


def fresh_page(block_size=4096):
    return SlottedPage.format(Page(PageId(1, 0), block_size))


class TestSlottedPage:
    def test_insert_read(self):
        view = fresh_page()
        slot = view.insert(b"hello")
        assert view.read(slot) == b"hello"
        assert view.live_count == 1

    def test_slots_are_stable(self):
        view = fresh_page()
        s0 = view.insert(b"a")
        s1 = view.insert(b"b")
        view.delete(s0)
        assert view.read(s1) == b"b"

    def test_delete_then_reuse_slot(self):
        view = fresh_page()
        s0 = view.insert(b"aaaa")
        view.insert(b"bbbb")
        view.delete(s0)
        s2 = view.insert(b"cccc")
        assert s2 == s0  # tombstoned slot is recycled
        assert view.read(s2) == b"cccc"

    def test_double_delete_rejected(self):
        view = fresh_page()
        slot = view.insert(b"x")
        view.delete(slot)
        with pytest.raises(PageLayoutError):
            view.delete(slot)

    def test_read_deleted_rejected(self):
        view = fresh_page()
        slot = view.insert(b"x")
        view.delete(slot)
        with pytest.raises(PageLayoutError):
            view.read(slot)

    def test_bad_slot_rejected(self):
        view = fresh_page()
        with pytest.raises(PageLayoutError):
            view.read(0)
        with pytest.raises(PageLayoutError):
            view.read(-1)

    def test_page_full(self):
        view = fresh_page(block_size=256)
        with pytest.raises(PageLayoutError):
            for _ in range(100):
                view.insert(b"y" * 40)

    def test_compaction_reclaims_space(self):
        view = fresh_page(block_size=512)
        slots = [view.insert(b"z" * 60) for _ in range(6)]
        free_before = view.free_space
        for slot in slots[:3]:
            view.delete(slot)
        assert view.free_space >= free_before + 3 * 60
        # Space is genuinely reusable.
        view.insert(b"w" * 150)

    def test_update_in_place_shrink(self):
        view = fresh_page()
        slot = view.insert(b"longpayload")
        view.update(slot, b"tiny")
        assert view.read(slot) == b"tiny"

    def test_update_grow(self):
        view = fresh_page()
        slot = view.insert(b"ab")
        view.update(slot, b"much longer payload")
        assert view.read(slot) == b"much longer payload"

    def test_update_too_big_raises(self):
        view = fresh_page(block_size=256)
        slot = view.insert(b"a" * 50)
        with pytest.raises(PageLayoutError):
            view.update(slot, b"b" * 1000)
        # A failed grow must leave the original record untouched.
        assert view.is_live(slot)
        assert view.read(slot) == b"a" * 50

    def test_records_iterates_live_only(self):
        view = fresh_page()
        s0 = view.insert(b"a")
        view.insert(b"b")
        view.delete(s0)
        assert [p for _, p in view.records()] == [b"b"]

    def test_delete_is_lazy_and_the_next_tight_insert_compacts_once(
            self, monkeypatch):
        view = fresh_page(block_size=512)
        slots = [view.insert(bytes([65 + i]) * 100) for i in range(4)]
        free_ptr = view._free_ptr
        offset, length = view._slot(slots[1])
        compactions = []
        original = SlottedPage._compact
        monkeypatch.setattr(
            SlottedPage, "_compact",
            lambda self: compactions.append(1) or original(self))

        view.delete(slots[1])
        # Only the slot entry changed: payload bytes and the free
        # pointer are where they were, yet the room is advertised.
        assert view.page.read(offset, length) == b"B" * 100
        assert view._free_ptr == free_ptr
        assert view.free_space == 500 - 4 - 4 * 4 - 300
        assert not compactions

        # 150 bytes fit only once the hole joins the contiguous gap.
        assert free_ptr - (4 + 4 * 4) < 150 <= view.free_space
        assert view.insert(b"x" * 150) == slots[1]
        assert compactions == [1]
        assert view.read(slots[1]) == b"x" * 150
        assert [view.read(s) for s in (slots[0], slots[2], slots[3])] == \
            [b"A" * 100, b"C" * 100, b"D" * 100]
        view.insert(b"y" * (view.free_space - 4))   # exactly full, no holes
        assert compactions == [1] and view.free_space == 0

    @given(st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "shrink", "grow",
                                   "place"]),
                  st.binary(min_size=1, max_size=60),
                  st.integers(min_value=0, max_value=40)),
        max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_model_based(self, ops):
        """Slotted page behaves like a dict slot -> payload, whatever
        mix of forward operations and recovery ``place`` calls built it
        and however many holes it carries."""
        view = fresh_page(block_size=1024)
        model: dict[int, bytes] = {}
        for op, payload, pick in ops:
            victim = sorted(model)[pick % len(model)] if model else None
            try:
                if op == "insert":
                    model[view.insert(payload)] = payload
                elif op == "place":
                    # Recovery restores exact slots: a tombstone, or one
                    # a few entries past the end of the directory.
                    dead = [s for s in range(view.num_slots)
                            if s not in model]
                    slot = dead[pick % len(dead)] if dead and pick % 2 \
                        else view.num_slots + pick % 3
                    view.place(slot, payload)
                    model[slot] = payload
                elif victim is None:
                    continue
                elif op == "delete":
                    view.delete(victim)
                    del model[victim]
                else:
                    if op == "shrink":
                        payload = model[victim][:max(1, pick % 8)]
                    else:
                        payload = model[victim] + payload
                    view.update(victim, payload)
                    model[victim] = payload
            except PageLayoutError:
                pass    # does not fit: the page must be unchanged
            assert view.free_space == (
                view.page.usable_size - 4 - 4 * view.num_slots
                - sum(len(p) for p in model.values()))
            # Slots are stable handles, through holes and compactions.
            assert dict(view.records()) == model
            assert all(view.read(slot) == p for slot, p in model.items())
            assert view.live_count == len(model)
            reopened = SlottedPage(Page.from_block(
                view.page.page_id, view.page.to_block()))
            assert dict(reopened.records()) == model
            assert reopened.free_space == view.free_space


def make_heap():
    fm = FileManager(DiskManager(MemoryDevice()))
    fid = fm.create_file("heap")
    pm = PageManager(BufferPool(fm, capacity=8))
    return HeapFile(pm, fid)


class TestHeapFile:
    def test_insert_read_round_trip(self):
        heap = make_heap()
        rid = heap.insert(b"record one")
        assert heap.read(rid) == b"record one"
        assert heap.exists(rid)

    def test_many_inserts_span_pages(self):
        heap = make_heap()
        rids = [heap.insert(bytes([i % 250]) * 500) for i in range(40)]
        assert heap.num_pages() > 1
        for i, rid in enumerate(rids):
            assert heap.read(rid) == bytes([i % 250]) * 500
        assert heap.count() == 40

    def test_delete(self):
        heap = make_heap()
        rid = heap.insert(b"x")
        heap.delete(rid)
        assert not heap.exists(rid)
        assert heap.count() == 0

    def test_deleted_space_is_reused(self):
        heap = make_heap()
        rids = [heap.insert(b"a" * 400) for _ in range(20)]
        pages_before = heap.num_pages()
        for rid in rids:
            heap.delete(rid)
        for _ in range(20):
            heap.insert(b"b" * 400)
        assert heap.num_pages() == pages_before

    def test_update_in_place(self):
        heap = make_heap()
        rid = heap.insert(b"before")
        rid2 = heap.update(rid, b"after!")
        assert rid2 == rid
        assert heap.read(rid) == b"after!"

    def test_update_moves_when_too_big(self):
        heap = make_heap()
        filler = [heap.insert(b"f" * 1300) for _ in range(3)]  # fill page 0
        rid = heap.insert(b"small")
        new_rid = heap.update(rid, b"g" * 3000)
        assert heap.read(new_rid) == b"g" * 3000
        del filler

    def test_scan_yields_all_live(self):
        heap = make_heap()
        rids = [heap.insert(f"row{i}".encode()) for i in range(10)]
        heap.delete(rids[3])
        scanned = dict(heap.scan())
        assert len(scanned) == 9
        assert rids[3] not in scanned
        assert scanned[rids[0]] == b"row0"

    def test_exists_for_out_of_range(self):
        heap = make_heap()
        assert not heap.exists(RID(99, 0))

    @given(st.lists(st.tuples(
        st.sampled_from(["insert", "delete", "update"]),
        st.binary(min_size=1, max_size=300)), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_model_based(self, ops):
        heap = make_heap()
        model: dict[RID, bytes] = {}
        for op, payload in ops:
            if op == "insert":
                rid = heap.insert(payload)
                assert rid not in model
                model[rid] = payload
            elif op == "delete" and model:
                rid = sorted(model)[0]
                heap.delete(rid)
                del model[rid]
            elif op == "update" and model:
                rid = sorted(model)[-1]
                new_rid = heap.update(rid, payload)
                del model[rid]
                model[new_rid] = payload
        assert dict(heap.scan()) == model
