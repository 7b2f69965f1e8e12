"""Object store: CRUD, relocation, table rebuild."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StorageError, UnknownObjectError
from repro.common.ids import ObjectId
from repro.storage.buffer import BufferPool
from repro.storage.disk import InMemoryDiskManager
from repro.storage.objects import ObjectStore
from repro.storage.page import Page


@pytest.fixture
def store():
    return ObjectStore(BufferPool(InMemoryDiskManager(), capacity=16))


class TestCrud:
    def test_create_read(self, store):
        oid = store.create(b"hello", name="greeting")
        assert store.read(oid) == b"hello"
        assert store.exists(oid)

    def test_ids_are_sequential(self, store):
        first = store.create(b"a")
        second = store.create(b"b")
        assert second.value == first.value + 1

    def test_write_overwrites(self, store):
        oid = store.create(b"old")
        store.write(oid, b"new")
        assert store.read(oid) == b"new"

    def test_write_grows_object(self, store):
        oid = store.create(b"small")
        big = b"x" * 2000
        store.write(oid, big)
        assert store.read(oid) == big

    def test_delete(self, store):
        oid = store.create(b"doomed")
        store.delete(oid)
        assert not store.exists(oid)
        with pytest.raises(UnknownObjectError):
            store.read(oid)

    def test_unknown_object(self, store):
        with pytest.raises(UnknownObjectError):
            store.read(ObjectId(999))

    def test_forced_oid_for_recovery(self, store):
        oid = store.create(b"x", oid=ObjectId(50))
        assert oid.value == 50
        # Allocation continues above the forced id.
        assert store.create(b"y").value == 51

    def test_forced_oid_conflict(self, store):
        store.create(b"x", oid=ObjectId(5))
        with pytest.raises(StorageError):
            store.create(b"y", oid=ObjectId(5))

    def test_large_object_round_trip(self, store):
        big = bytes(range(256)) * 50  # 12,800 bytes: several pages
        oid = store.create(big)
        assert store.read(oid) == big

    def test_large_object_write_and_shrink(self, store):
        oid = store.create(b"small")
        big = b"x" * 10_000
        store.write(oid, big)
        assert store.read(oid) == big
        store.write(oid, b"tiny again")
        assert store.read(oid) == b"tiny again"
        # Chunk slots were reclaimed: only real objects remain.
        assert store.object_ids() == [oid.value]

    def test_large_object_delete_reclaims_chunks(self, store):
        oid = store.create(b"z" * 10_000)
        small = store.create(b"keep")
        store.delete(oid)
        assert not store.exists(oid)
        assert store.object_ids() == [small.value]

    def test_inline_value_resembling_header_is_safe(self, store):
        # A 9-byte value that could look like a LOB header must survive.
        tricky = b"\x01" + b"\x02\x00\x00\x00" + b"\x10\x00\x00\x00"
        oid = store.create(tricky)
        assert store.read(oid) == tricky

    def test_large_object_survives_rebuild(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=16)
        store = ObjectStore(pool)
        big = b"payload-" * 2000
        oid = store.create(big)
        pool.flush_all()
        fresh = ObjectStore(BufferPool(disk, capacity=16))
        assert fresh.read(oid) == big
        # Chunk ids do not leak into the visible object space.
        assert fresh.object_ids() == [oid.value]
        # Nor do they poison id allocation.
        assert fresh.create(b"next").value == oid.value + 1

    def test_object_ids_sorted(self, store):
        for __ in range(5):
            store.create(b"v")
        assert store.object_ids() == sorted(store.object_ids())
        assert len(store) == 5


class TestPlacement:
    def test_many_objects_span_pages(self, store):
        oids = [store.create(bytes([i % 250]) * 500) for i in range(30)]
        for index, oid in enumerate(oids):
            assert store.read(oid) == bytes([index % 250]) * 500
        assert len(store.pool.disk.page_ids()) > 1

    def test_relocation_preserves_others(self, store):
        stable = store.create(b"stay")
        mover = store.create(b"s")
        store.write(mover, b"m" * 3000)
        assert store.read(stable) == b"stay"
        assert store.read(mover) == b"m" * 3000


class TestRoomHint:
    """Placement skips pages its room hint rules out, unseen."""

    def _full_pages(self, store, pages):
        # Four 1,000-byte objects leave 28 bytes on a 4 KiB page.
        return [store.create(b"f" * 1000) for __ in range(4 * pages)]

    def test_full_pages_are_not_touched_by_a_create(self, store):
        full = self._full_pages(store, 8)
        pool = store.pool
        cached = pool.cached_page_ids()
        assert len(cached) == 8
        for page_id in cached:
            pool.frame_for(page_id).referenced = False
        hits = pool.hits
        small = store.create(b"s" * 20)  # needs 33 bytes with its slot
        assert pool.hits == hits
        for page_id in cached:
            frame = pool.frame_for(page_id)
            assert frame.pin_count == 0
            assert frame.referenced is False
        assert store._locations[small.value][0] not in cached
        assert store.read(small) == b"s" * 20
        assert all(store.read(oid) == b"f" * 1000 for oid in full)

    def test_stale_low_hint_after_restore_costs_a_page(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=16)
        store = ObjectStore(pool)
        kept = store.create(b"a" * 1000)
        pool.flush_all()
        snapshot = disk.snapshot()
        self._full_pages(store, 1)  # page 1 fills; its hint says so
        pool.drop_all()
        disk.restore(snapshot)  # page 1 is roomy again on disk
        pool.unpin(pool.fetch(1).page.page_id)
        oid = store.create(b"n" * 1000)
        assert store._locations[oid.value][0] != 1
        assert store.read(oid) == b"n" * 1000
        assert store.read(kept) == b"a" * 1000

    def test_stale_high_hint_after_restore_is_caught_by_fits(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=16)
        store = ObjectStore(pool)
        full = self._full_pages(store, 1)
        pool.flush_all()
        snapshot = disk.snapshot()
        for oid in full[1:]:
            store.delete(oid)  # page 1 empties; its hint says so
        pool.drop_all()
        disk.restore(snapshot)  # page 1 is full again on disk
        pool.unpin(pool.fetch(1).page.page_id)
        oid = store.create(b"n" * 1000)
        assert store._locations[oid.value][0] != 1
        assert store.read(oid) == b"n" * 1000
        page = pool.frame_for(1).page
        page.validate()
        assert [len(data) for __, __, data in page.items()] == [1001] * 4
        assert store._room[1] == page.usable_space()

    def test_quarantined_page_gets_an_empty_page_hint(self):
        disk = InMemoryDiskManager()
        page_id = disk.allocate_page()
        disk.write_page(page_id, b"\xff" * disk.page_size)  # bad magic
        store = ObjectStore(BufferPool(disk, capacity=16))
        assert store.damaged_pages == [page_id]
        frame = store.pool.fetch(page_id)
        store.pool.unpin(page_id)
        assert store._room[page_id] == frame.page.usable_space()
        oid = store.create(b"after")
        assert store._locations[oid.value][0] == page_id

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["create", "write", "delete"]),
                st.integers(0, 30),
                st.sampled_from([0, 10, 700, 1500, 3000, 5000]),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_hint_matches_every_page(self, ops):
        """Property: each hinted page's room equals its true usable space
        (cached frame, or the written-back image once evicted)."""
        disk = InMemoryDiskManager()
        store = ObjectStore(BufferPool(disk, capacity=3))
        values = {}
        for kind, pick, size in ops:
            data = bytes([size % 256]) * size
            if kind == "create" or not values:
                values[store.create(data)] = data
                continue
            oid = sorted(values, key=lambda o: o.value)[pick % len(values)]
            if kind == "write":
                store.write(oid, data)
                values[oid] = data
            else:
                store.delete(oid)
                del values[oid]
        for page_id, room in store._room.items():
            frame = store.pool.frame_for(page_id)
            page = (
                frame.page
                if frame is not None
                else Page.from_bytes(disk.read_page(page_id))
            )
            assert room == page.usable_space()
            assert page_id in store._by_room[room.bit_length()]
        assert sum(map(len, store._by_room)) == len(store._room)
        for oid, data in values.items():
            assert store.read(oid) == data


class TestRebuild:
    def test_rebuild_after_flush(self):
        disk = InMemoryDiskManager()
        pool = BufferPool(disk, capacity=16)
        store = ObjectStore(pool)
        oid_a = store.create(b"alpha")
        oid_b = store.create(b"beta")
        pool.flush_all()

        fresh = ObjectStore(BufferPool(disk, capacity=16))
        assert fresh.read(oid_a) == b"alpha"
        assert fresh.read(oid_b) == b"beta"
        # Id allocation resumes above the recovered high-water mark.
        assert fresh.create(b"gamma").value > oid_b.value
