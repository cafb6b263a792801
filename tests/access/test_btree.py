"""B+-tree tests: functional, structural, and model-based."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.access import BPlusTree, encode_key
from repro.access import btree as btree_module
from repro.errors import DuplicateKeyError, IndexError_, KeyNotFoundError
from repro.storage import (
    BufferPool,
    DiskManager,
    FileManager,
    MemoryDevice,
    PageId,
    PageManager,
)


def make_tree(block_size=512, capacity=64):
    """Small pages force deep trees with few keys."""
    fm = FileManager(DiskManager(MemoryDevice(block_size=block_size)))
    fid = fm.create_file("idx")
    pm = PageManager(BufferPool(fm, capacity=capacity))
    return BPlusTree(pm, fid), pm, fid


def ik(i: int) -> bytes:
    return encode_key(i)


class TestBasics:
    def test_insert_get(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"one")
        assert tree.get(ik(1)) == b"one"
        assert tree.get(ik(2)) is None
        assert len(tree) == 1

    def test_duplicate_rejected(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"a")
        with pytest.raises(DuplicateKeyError):
            tree.insert(ik(1), b"b")

    def test_replace(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"a")
        tree.insert(ik(1), b"b", replace=True)
        assert tree.get(ik(1)) == b"b"
        assert len(tree) == 1

    def test_delete(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"a")
        tree.delete(ik(1))
        assert tree.get(ik(1)) is None
        with pytest.raises(KeyNotFoundError):
            tree.delete(ik(1))

    def test_many_inserts_split(self):
        tree, _, _ = make_tree()
        n = 500
        for i in range(n):
            tree.insert(ik(i), f"val{i}".encode())
        assert tree.height > 1
        for i in range(n):
            assert tree.get(ik(i)) == f"val{i}".encode()
        tree.check_invariants()

    def test_reverse_order_inserts(self):
        tree, _, _ = make_tree()
        for i in reversed(range(300)):
            tree.insert(ik(i), b"v")
        tree.check_invariants()
        assert [k for k, _ in tree.items()] == [ik(i) for i in range(300)]

    def test_items_sorted(self):
        tree, _, _ = make_tree()
        import random
        rng = random.Random(7)
        keys = list(range(200))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(ik(k), str(k).encode())
        got = [k for k, _ in tree.items()]
        assert got == sorted(got)
        assert len(got) == 200


class TestRangeScans:
    def setup_method(self):
        self.tree, _, _ = make_tree()
        for i in range(0, 100, 2):  # even keys 0..98
            self.tree.insert(ik(i), str(i).encode())

    def test_bounded_range(self):
        got = [k for k, _ in self.tree.items(lo=ik(10), hi=ik(20))]
        assert got == [ik(i) for i in (10, 12, 14, 16, 18)]

    def test_inclusive_hi(self):
        got = [k for k, _ in self.tree.items(lo=ik(10), hi=ik(20),
                                             hi_inclusive=True)]
        assert got[-1] == ik(20)

    def test_exclusive_lo(self):
        got = [k for k, _ in self.tree.items(lo=ik(10), hi=ik(20),
                                             lo_inclusive=False)]
        assert got[0] == ik(12)

    def test_unbounded_lo(self):
        got = [k for k, _ in self.tree.items(hi=ik(6))]
        assert got == [ik(0), ik(2), ik(4)]

    def test_missing_bound_keys(self):
        got = [k for k, _ in self.tree.items(lo=ik(11), hi=ik(15))]
        assert got == [ik(12), ik(14)]

    def test_empty_range(self):
        assert list(self.tree.items(lo=ik(11), hi=ik(12))) == []

    def test_prefix_scan(self):
        tree, _, _ = make_tree()
        for name in ["alpha", "beta", "gamma"]:
            for i in range(3):
                tree.insert(encode_key((name, i)), b"")
        got = list(tree.prefix_scan(encode_key("beta")))
        assert len(got) == 3


class TestDeletionRebalancing:
    def test_delete_everything(self):
        tree, _, _ = make_tree()
        n = 400
        for i in range(n):
            tree.insert(ik(i), str(i).encode())
        for i in range(n):
            tree.delete(ik(i))
            if i % 50 == 0:
                tree.check_invariants()
        assert len(tree) == 0
        assert tree.height == 1
        tree.check_invariants()

    def test_delete_reverse(self):
        tree, _, _ = make_tree()
        n = 400
        for i in range(n):
            tree.insert(ik(i), b"v")
        for i in reversed(range(n)):
            tree.delete(ik(i))
        assert len(tree) == 0
        tree.check_invariants()

    def test_interleaved_insert_delete(self):
        tree, _, _ = make_tree()
        alive = set()
        for i in range(600):
            tree.insert(ik(i), b"v")
            alive.add(i)
            if i % 3 == 0:
                victim = min(alive)
                tree.delete(ik(victim))
                alive.remove(victim)
        tree.check_invariants()
        assert {k for k, _ in tree.items()} == {ik(i) for i in alive}


class TestPersistence:
    def test_reopen_from_pages(self):
        fm = FileManager(DiskManager(MemoryDevice(block_size=512)))
        fid = fm.create_file("idx")
        pm = PageManager(BufferPool(fm, capacity=64))
        tree = BPlusTree(pm, fid)
        for i in range(200):
            tree.insert(ik(i), str(i).encode())
        pm.pool.flush_all()
        pm.pool.drop_all()

        tree2 = BPlusTree(PageManager(BufferPool(fm, capacity=64)), fid)
        assert len(tree2) == 200
        for i in range(200):
            assert tree2.get(ik(i)) == str(i).encode()
        tree2.check_invariants()

    def test_large_values(self):
        tree, _, _ = make_tree(block_size=4096)
        tree.insert(ik(1), b"v" * 1000)
        assert tree.get(ik(1)) == b"v" * 1000


@st.composite
def operations(draw):
    n = draw(st.integers(min_value=1, max_value=150))
    ops = []
    for _ in range(n):
        kind = draw(st.sampled_from(["insert", "delete", "replace"]))
        key = draw(st.integers(min_value=0, max_value=60))
        ops.append((kind, key))
    return ops


class TestModelBased:
    @given(operations())
    @settings(max_examples=80, deadline=None)
    def test_against_dict(self, ops):
        tree, _, _ = make_tree(block_size=256)
        model: dict[int, bytes] = {}
        for kind, key in ops:
            value = f"{kind}:{key}".encode()
            if kind == "insert":
                if key in model:
                    with pytest.raises(DuplicateKeyError):
                        tree.insert(ik(key), value)
                else:
                    tree.insert(ik(key), value)
                    model[key] = value
            elif kind == "replace":
                tree.insert(ik(key), value, replace=True)
                model[key] = value
            else:
                if key in model:
                    tree.delete(ik(key))
                    del model[key]
                else:
                    with pytest.raises(KeyNotFoundError):
                        tree.delete(ik(key))
        assert {k: v for k, v in tree.items()} == \
            {ik(k): v for k, v in model.items()}
        tree.check_invariants()

    @given(st.sets(st.integers(min_value=-1000, max_value=1000),
                   min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_sorted_iteration(self, keys):
        tree, _, _ = make_tree(block_size=256)
        for k in keys:
            tree.insert(ik(k), b"")
        got = [k for k, _ in tree.items()]
        assert got == [ik(k) for k in sorted(keys)]


def leaf_capacity(tree: BPlusTree, key_len: int, value_len: int) -> int:
    """Entries of one size that fit a leaf of the slotted node format:
    a 2-byte directory slot plus a cell header, key and value each."""
    per_entry = 2 + btree_module._CELL.size + key_len + value_len
    return (tree._usable - btree_module._HEADER.size) // per_entry


def largest_entry(tree: BPlusTree) -> int:
    """Key plus value bytes of the largest entry the tree takes, a value
    shorter than a child pointer counting as one (its separator copy
    carries a pointer): two of its cells fit a node, each with a slot."""
    half = (tree._usable - btree_module._HEADER.size) // 2
    return half - 2 - btree_module._CELL.size


def leaf_pages(tree: BPlusTree) -> int:
    """Length of the leaf chain."""
    page_no = tree.root_page
    for _ in range(tree.height - 1):
        page_no = tree._link(page_no)      # leftmost child
    count = 0
    while page_no != btree_module._NO_NEXT:
        count += 1
        page_no = tree._link(page_no)      # next leaf
    return count


class TestPageFormat:
    def test_foreign_magic_rejected(self):
        fm = FileManager(DiskManager(MemoryDevice(block_size=512)))
        fid = fm.create_file("idx")
        pm = PageManager(BufferPool(fm, capacity=8))
        BPlusTree(pm, fid)
        page = pm.fetch(PageId(fid, 0))
        page.write(0, b"BTR1")        # the retired whole-node format
        pm.unpin(page.page_id, dirty=True)
        with pytest.raises(IndexError_, match="bad magic"):
            BPlusTree(pm, fid)

    def test_oversized_entry_rejected(self):
        tree, _, _ = make_tree(block_size=512)
        limit = largest_entry(tree)
        tree.insert(b"k" * (limit - 5), b"v" * 5)
        for key, value in ((b"k" * (limit - 3), b""),
                           (b"j" * (limit - 5), b"v" * 6),
                           (b"k" * (limit - 5), b"v" * 6)):
            with pytest.raises(IndexError_, match="too large"):
                tree.insert(key, value, replace=True)
        assert list(tree.items()) == [(b"k" * (limit - 5), b"v" * 5)]
        tree.check_invariants()
        empty, _, _ = make_tree(block_size=512)
        with pytest.raises(IndexError_, match="too large"):
            empty.bulk_load([(b"k" * (limit - 3), b"")])
        assert len(empty) == 0

    @given(st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                              st.integers(0, 40), st.floats(0.0, 1.0),
                              st.floats(0.0, 1.0)),
                    min_size=1, max_size=120))
    @settings(max_examples=60, deadline=None)
    def test_entries_up_to_the_limit(self, ops):
        # Nodes of two or three entries: every split, redistribution and
        # separator swap must still find a dividing point that fits.
        tree, _, _ = make_tree(block_size=512, capacity=128)
        limit = largest_entry(tree)
        model: dict[bytes, bytes] = {}
        for kind, n, size, share in ops:
            length = max(int(limit * size), 2)
            key_length = min(max(length - int(length * share / 2), 2),
                             limit - 4)
            key = n.to_bytes(2, "big") + bytes(key_length - 2)
            value = b"v" * max(length - key_length, 0)
            if kind == "insert":
                tree.insert(key, value, replace=True)
                model[key] = value
            elif key in model:
                tree.delete(key)
                del model[key]
        tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())
        bulk, _, _ = make_tree(block_size=512, capacity=128)
        bulk.bulk_load(sorted(model.items()))
        bulk.check_invariants()
        assert list(bulk.items()) == sorted(model.items())

    def test_ascending_inserts_fill_leaves(self):
        # An insert past the rightmost leaf's last key splits there, so
        # an ascending load leaves every leaf but the last one full.
        tree, _, _ = make_tree(block_size=512, capacity=256)
        n = 2000
        for i in range(n):
            tree.insert(ik(i), b"")
        tree.check_invariants()
        per_leaf = leaf_capacity(tree, len(ik(n - 1)), 0)
        assert leaf_pages(tree) == math.ceil(n / per_leaf)

    def test_delete_compacts_lazily_and_reuses_room(self):
        tree, _, _ = make_tree(block_size=512)
        for i in range(30):
            tree.insert(ik(i), b"v" * 6)
        for i in range(0, 30, 2):
            tree.delete(ik(i))
            tree.check_invariants()
        for i in range(0, 30, 2):
            tree.insert(ik(i), b"w" * 6)
            tree.check_invariants()
        assert [v for _, v in tree.items()] == \
            [b"w" * 6 if i % 2 == 0 else b"v" * 6 for i in range(30)]


class TestBulkLoad:
    @staticmethod
    def pairs(n):
        return [(ik(i), f"v{i}".encode()) for i in range(n)]

    def insert_built(self, pairs):
        tree, _, _ = make_tree()
        for key, value in pairs:
            tree.insert(key, value)
        return tree

    @pytest.mark.parametrize("n", [0, 1, "page", 10_000])
    def test_same_items_as_inserts(self, n):
        tree, _, _ = make_tree()
        if n == "page":
            n = leaf_capacity(tree, len(ik(0)), len(b"v0"))
            pairs = [(ik(i), b"v0") for i in range(n)]
        else:
            pairs = self.pairs(n)
        tree.bulk_load(iter(pairs))
        tree.check_invariants()
        assert len(tree) == n
        assert list(tree.items()) == list(self.insert_built(pairs).items())
        if len(pairs) > 1 and pairs[-1][1] == b"v0":
            assert tree.height == 1       # exactly one full leaf
        if n == 10_000:
            assert tree.height > 2
            assert tree.get(ik(4321)) == b"v4321"

    def test_one_entry_past_a_page_adds_a_level(self):
        tree, _, _ = make_tree()
        n = leaf_capacity(tree, len(ik(0)), 2) + 1
        tree.bulk_load((ik(i), b"v0") for i in range(n))
        tree.check_invariants()
        assert tree.height == 2

    @pytest.mark.parametrize("pairs, error", [
        ([(ik(2), b""), (ik(1), b"")], IndexError_),
        ([(ik(1), b""), (ik(1), b"x")], DuplicateKeyError),
    ])
    def test_bad_input_raises_before_writing(self, pairs, error):
        tree, _, _ = make_tree()
        with pytest.raises(error):
            tree.bulk_load(pairs)
        assert len(tree) == 0
        tree.check_invariants()

    def test_needs_an_empty_tree(self):
        tree, _, _ = make_tree()
        tree.insert(ik(1), b"")
        with pytest.raises(IndexError_):
            tree.bulk_load([(ik(2), b"")])

    def test_bulk_built_tree_takes_updates(self):
        tree, _, _ = make_tree()
        tree.bulk_load(self.pairs(2000))
        rng = random.Random(11)
        model = dict(self.pairs(2000))
        for step in range(1500):
            key = ik(rng.randrange(3000))
            if key in model:
                tree.delete(key)
                del model[key]
            else:
                tree.insert(key, b"new")
                model[key] = b"new"
            if step % 300 == 0:
                tree.check_invariants()
        tree.check_invariants()
        assert list(tree.items()) == sorted(model.items())


keys_st = st.binary(min_size=1, max_size=60)
values_st = st.binary(max_size=40)


class TreeMachine(RuleBasedStateMachine):
    """The tree against a sorted dict on 512-byte pages, where 1-60 B
    keys and 0-40 B values put only a handful of entries in a node."""

    @initialize()
    def setup(self):
        fm = FileManager(DiskManager(MemoryDevice(block_size=512)))
        self.files = fm
        self.fid = fm.create_file("idx")
        self.tree = BPlusTree(
            PageManager(BufferPool(fm, capacity=32)), self.fid)
        self.model: dict[bytes, bytes] = {}
        self.appended = 0

    def existing(self, data):
        return data.draw(st.sampled_from(sorted(self.model)))

    @rule(key=keys_st, value=values_st)
    def insert(self, key, value):
        if key in self.model:
            with pytest.raises(DuplicateKeyError):
                self.tree.insert(key, value)
        else:
            self.tree.insert(key, value)
            self.model[key] = value

    @rule(seed=st.integers(0, 2**16), n=st.integers(1, 150))
    def insert_many(self, seed, n):
        """Grow the tree by ``n`` random entries (a few levels deep)."""
        rng = random.Random(seed)
        for _ in range(n):
            self.insert(rng.randbytes(rng.randint(1, 60)),
                        rng.randbytes(rng.randint(0, 40)))

    @rule(n=st.integers(1, 60), value=values_st)
    def append_run(self, n, value):
        """Ascending keys past every random one: the rightmost-leaf
        split path."""
        for _ in range(n):
            self.appended += 1
            self.insert(b"\xff" * 3 + self.appended.to_bytes(3, "big"),
                        value)

    @rule(key=keys_st)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), value=values_st)
    def duplicate_insert(self, data, value):
        with pytest.raises(DuplicateKeyError):
            self.tree.insert(self.existing(data), value)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), extra=st.integers(1, 40))
    def replace_longer(self, data, extra):
        key = self.existing(data)
        value = (self.model[key] + b"+" * extra)[:40]
        self.tree.insert(key, value, replace=True)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data(), keep=st.integers(0, 40))
    def replace_shorter(self, data, keep):
        key = self.existing(data)
        value = self.model[key][:keep // 2]
        self.tree.insert(key, value, replace=True)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        key = self.existing(data)
        self.tree.delete(key)
        del self.model[key]

    @precondition(lambda self: self.model)
    @rule(seed=st.integers(0, 2**16), share=st.floats(0.1, 0.9))
    def delete_many(self, seed, share):
        keys = sorted(self.model)
        for key in random.Random(seed).sample(keys, int(len(keys) * share)):
            self.tree.delete(key)
            del self.model[key]

    @rule(key=keys_st)
    def delete_missing(self, key):
        if key not in self.model:
            with pytest.raises(KeyNotFoundError):
                self.tree.delete(key)

    @rule(seed=st.integers(0, 2**16))
    def drain(self, seed):
        """Delete everything in a random order: merges all the way up
        until the root is a leaf again."""
        keys = sorted(self.model)
        random.Random(seed).shuffle(keys)
        for key in keys:
            self.tree.delete(key)
            del self.model[key]
        assert self.tree.height == 1

    @rule(lo=st.none() | keys_st, hi=st.none() | keys_st,
          lo_inclusive=st.booleans(), hi_inclusive=st.booleans())
    def items(self, lo, hi, lo_inclusive, hi_inclusive):
        def inside(key):
            if lo is not None and (key < lo or
                                   (key == lo and not lo_inclusive)):
                return False
            return hi is None or key < hi or (key == hi and hi_inclusive)
        expected = [(k, self.model[k]) for k in sorted(self.model)
                    if inside(k)]
        assert list(self.tree.items(lo, hi, lo_inclusive,
                                    hi_inclusive)) == expected

    @rule(data=st.data())
    def prefix_scan(self, data):
        if self.model and data.draw(st.booleans()):
            key = self.existing(data)
            prefix = key[:data.draw(st.integers(0, len(key)))]
        else:
            prefix = data.draw(st.binary(max_size=3))
        expected = [(k, self.model[k]) for k in sorted(self.model)
                    if k.startswith(prefix)]
        assert list(self.tree.prefix_scan(prefix)) == expected

    @rule()
    def reopen(self):
        self.tree.pages.pool.flush_all()
        self.tree = BPlusTree(
            PageManager(BufferPool(self.files, capacity=32)), self.fid)

    @invariant()
    def matches_model(self):
        assert len(self.tree) == len(self.model)
        self.tree.check_invariants()
        for key, value in list(self.model.items())[:5]:
            assert self.tree.get(key) == value


TreeMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None)
TestTreeMachine = TreeMachine.TestCase
