"""Slotted pages: insert/read/update/delete, compaction, serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError
from repro.storage.page import PAGE_SIZE, Page, PageFullError


class TestBasicOperations:
    def test_insert_and_read(self):
        page = Page(1)
        slot = page.insert(42, b"hello")
        assert page.read(slot) == (42, b"hello")

    def test_multiple_objects(self):
        page = Page(1)
        slots = {page.insert(i, bytes([i]) * i): i for i in range(1, 10)}
        for slot, oid in slots.items():
            value = page.read(slot)
            assert value == (oid, bytes([oid]) * oid)

    def test_update_in_place(self):
        page = Page(1)
        slot = page.insert(1, b"abcdef")
        page.update(slot, b"xy")
        assert page.read(slot) == (1, b"xy")

    def test_update_grows_and_relocates(self):
        page = Page(1)
        slot = page.insert(1, b"ab")
        page.insert(2, b"other")
        page.update(slot, b"a much longer value than before")
        assert page.read(slot) == (1, b"a much longer value than before")
        assert page.read(1) == (2, b"other")

    def test_delete_then_read_raises(self):
        page = Page(1)
        slot = page.insert(1, b"x")
        page.delete(slot)
        with pytest.raises(StorageError):
            page.read(slot)

    def test_deleted_slot_is_reused(self):
        page = Page(1)
        slot = page.insert(1, b"x")
        page.delete(slot)
        new_slot = page.insert(2, b"y")
        assert new_slot == slot
        assert page.read(new_slot) == (2, b"y")

    def test_bad_slot_raises(self):
        page = Page(1)
        with pytest.raises(StorageError):
            page.read(0)
        with pytest.raises(StorageError):
            page.read(-1)

    def test_items_iterates_live_only(self):
        page = Page(1)
        page.insert(1, b"a")
        doomed = page.insert(2, b"b")
        page.insert(3, b"c")
        page.delete(doomed)
        assert [(oid, data) for __, oid, data in page.items()] == [
            (1, b"a"),
            (3, b"c"),
        ]


class TestSpaceManagement:
    def test_page_full(self):
        page = Page(1, page_size=256)
        with pytest.raises(PageFullError):
            page.insert(1, b"z" * 300)

    def test_fill_to_capacity_then_fail(self):
        page = Page(1, page_size=256)
        inserted = 0
        try:
            for index in range(100):
                page.insert(index, b"0123456789")
                inserted += 1
        except PageFullError:
            pass
        assert inserted > 0
        with pytest.raises(PageFullError):
            page.insert(999, b"0123456789" * 3)

    def test_compaction_reclaims_space(self):
        page = Page(1, page_size=256)
        slots = [page.insert(i, b"0123456789") for i in range(10)]
        for slot in slots[:-1]:
            page.delete(slot)
        free_before = page.free_space()
        page.compact()
        assert page.free_space() > free_before
        # The surviving object is intact.
        assert page.read(slots[-1]) == (9, b"0123456789")

    def test_insert_triggers_compaction_when_fragmented(self):
        page = Page(1, page_size=256)
        slots = [page.insert(i, b"ten bytes!") for i in range(10)]
        for slot in slots:
            page.delete(slot)
        # All space is reclaimable; a large insert must succeed.
        slot = page.insert(100, b"z" * 120)
        assert page.read(slot) == (100, b"z" * 120)

    def test_live_count(self):
        page = Page(1)
        a = page.insert(1, b"a")
        page.insert(2, b"b")
        page.delete(a)
        assert page.live_count == 1
        assert page.slot_count == 2


class TestSerialization:
    def test_round_trip_empty(self):
        page = Page(7)
        clone = Page.from_bytes(page.to_bytes())
        assert clone.page_id == 7
        assert clone.live_count == 0

    def test_round_trip_with_objects_and_tombstones(self):
        page = Page(3)
        page.insert(1, b"alpha")
        doomed = page.insert(2, b"beta")
        page.insert(3, b"gamma")
        page.delete(doomed)
        clone = Page.from_bytes(page.to_bytes())
        assert [(o, d) for __, o, d in clone.items()] == [
            (1, b"alpha"),
            (3, b"gamma"),
        ]

    def test_bad_magic_rejected(self):
        with pytest.raises(StorageError):
            Page.from_bytes(b"\x01" * PAGE_SIZE)

    def test_all_zero_image_is_an_empty_page(self):
        # A page allocated but never written back reads as empty.
        page = Page.from_bytes(b"\x00" * PAGE_SIZE, default_page_id=9)
        assert page.page_id == 9
        assert page.live_count == 0

    def test_wrong_size_rejected(self):
        with pytest.raises(StorageError):
            Page.from_bytes(b"\x00" * 100)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=50),
                st.binary(min_size=0, max_size=60),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, objects):
        """Property: any sequence of inserts round-trips through bytes."""
        page = Page(1)
        stored = []
        for oid, data in objects:
            try:
                slot = page.insert(oid, data)
                stored.append((slot, oid, data))
            except PageFullError:
                break
        clone = Page.from_bytes(page.to_bytes())
        for slot, oid, data in stored:
            assert clone.read(slot) == (oid, data)


def _tombstoned_bytes(page):
    """Slot-scan oracle for :meth:`Page.reclaimable_space`."""
    return sum(
        length for offset, length, __ in page._slots if offset == 0xFFFF
    )


_page_op = st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 90)),
    st.tuples(st.just("update"), st.integers(0, 15), st.integers(0, 120)),
    st.tuples(st.just("delete"), st.integers(0, 15)),
    st.tuples(st.just("compact")),
    st.tuples(st.just("round_trip")),
)


class TestReclaimableAccounting:
    @given(st.lists(_page_op, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_running_total_matches_slot_scan(self, ops):
        """Property: the tombstone total kept on every write equals a
        full scan of the slot directory, across compactions and a
        serialization round trip, and the live contents never change."""
        page = Page(1, page_size=256)
        live = {}  # slot -> (oid, data)
        for serial, op in enumerate(ops, start=1):
            kind = op[0]
            try:
                if kind == "insert":
                    data = bytes([serial % 256]) * op[1]
                    live[page.insert(serial, data)] = (serial, data)
                elif kind == "update":
                    slot = op[1] % max(page.slot_count, 1)
                    data = bytes([serial % 256]) * op[2]
                    page.update(slot, data)
                    live[slot] = (live[slot][0], data)
                elif kind == "delete":
                    slot = op[1] % max(page.slot_count, 1)
                    page.delete(slot)
                    del live[slot]
                elif kind == "compact":
                    page.compact()
                else:
                    page = Page.from_bytes(page.to_bytes(), page_size=256)
            except (PageFullError, StorageError):
                pass  # refused (full page, dead or missing slot)
            assert page.reclaimable_space() == _tombstoned_bytes(page)
            assert page.usable_space() == (
                page.free_space() + _tombstoned_bytes(page)
            )
            for slot, entry in live.items():
                assert page.read(slot) == entry
