"""The object store: persistent objects on slotted pages.

Maps :class:`~repro.common.ids.ObjectId` values to ``(page, slot)``
locations, placing new objects on the first cached page with room and
allocating pages as needed.  An advisory page -> usable-bytes hint lets
placement skip pages that cannot take the value without fetching them,
so a create neither pins every cached page nor sets every clock bit, and
its cost follows the pages with room, not the size of the cache.  The
hint is refreshed whenever this store touches a page;
:meth:`~repro.storage.page.Page.fits` stays the guard, so a stale hint
can at worst cost a fresh page, never an overfull one.

The object table is volatile — on open it is rebuilt by scanning pages,
which is also how restart recovery re-discovers objects whose creation
survived a crash.

Values at this layer are raw bytes; typed views (counters, records, …)
are provided by the semantics layer above.

**Large objects.**  EOS supports objects bigger than a page via segment
chains; so does this store.  A value that does not fit in one page is
split into chunks, each stored under a *chunk id* (the object's id with a
reserved high bit set), and the object's own slot holds a small header
naming the chunk count.  Chunk slots are invisible as objects — the table
rebuild recognizes the high bit — and reads reassemble the chunks in
order.  All of this is below the logging layer, which sees whole values.
"""

from __future__ import annotations

import struct
import threading

from repro.common.errors import StorageError, UnknownObjectError
from repro.common.ids import ObjectId
from repro.storage.page import SLOT_SIZE, Page, PageFullError

# Chunk ids: bit 62 set, then 16 bits of chunk index, then the owner id.
_CHUNK_FLAG = 1 << 62
_CHUNK_SHIFT = 44
_OWNER_MASK = (1 << _CHUNK_SHIFT) - 1
# Every stored slot value carries a one-byte tag so an inline value can
# never be mistaken for a large-object header.
_TAG_INLINE = b"\x00"
_TAG_LOB = b"\x01"
_LOB_HEADER = struct.Struct("<II")  # chunk count, total length


def _chunk_id(owner_value, index):
    return _CHUNK_FLAG | (index << _CHUNK_SHIFT) | owner_value


def _is_chunk(oid_value):
    return bool(oid_value & _CHUNK_FLAG)


class ObjectStore:
    """CRUD for byte-valued persistent objects over a buffer pool."""

    def __init__(self, buffer_pool):
        self.pool = buffer_pool
        self._locations = {}
        self._room = {}  # page id -> Page.usable_space() when last seen
        # The same pages grouped by the bit length of their room, so a
        # placement looks only at pages that might take the value.
        self._by_room = [
            set() for __ in range(self.pool.disk.page_size.bit_length() + 1)
        ]
        self._next_oid_value = 1
        self._lock = threading.RLock()
        # Conservative single-page payload bound: page size minus header
        # and slot overhead.  Values above it are chunked.
        self._max_inline = self.pool.disk.page_size - 64
        self._rebuild_table()

    def _rebuild_table(self):
        """Scan all pages rebuilding the object table (open / recovery).

        A page that fails structural validation (a torn write caught by
        :meth:`~repro.storage.page.Page.validate`) is *quarantined*:
        reset to an empty page and skipped.  Repeat-history redo then
        re-creates every object that belongs on it from the log's after
        images — which is why torn data pages are recoverable at all.
        """
        with self._lock:
            self._locations.clear()
            self._room.clear()
            for pages in self._by_room:
                pages.clear()
            self.damaged_pages = []
            high_water = 0
            for page_id in self.pool.disk.page_ids():
                try:
                    frame = self.pool.fetch(page_id)
                except StorageError:
                    self._quarantine(page_id)
                    continue
                try:
                    self._note_room(page_id, frame.page)
                    for slot, oid_value, __ in frame.page.items():
                        self._locations[oid_value] = (page_id, slot)
                        if not _is_chunk(oid_value):
                            high_water = max(high_water, oid_value)
                finally:
                    self.pool.unpin(page_id)
            self._next_oid_value = high_water + 1

    def _quarantine(self, page_id):
        """Replace a damaged page with a fresh empty one."""
        self.damaged_pages.append(page_id)
        empty = Page(page_id, page_size=self.pool.disk.page_size)
        self.pool.disk.write_page(page_id, empty.to_bytes())
        self._note_room(page_id, empty)

    def _note_room(self, page_id, page):
        """Refresh the room hint for ``page_id`` from its page."""
        room = page.usable_space()
        old = self._room.get(page_id)
        if old is not None:
            self._by_room[old.bit_length()].discard(page_id)
        self._room[page_id] = room
        self._by_room[room.bit_length()].add(page_id)

    # -- lifecycle ------------------------------------------------------------

    def create(self, value, name="", oid=None):
        """Store ``value`` as a new object and return its id.

        ``oid`` forces a specific id (used by recovery to re-create objects
        whose creation committed); it must not already exist.
        """
        with self._lock:
            if oid is None:
                oid = ObjectId(self._next_oid_value, name=name)
                self._next_oid_value += 1
            else:
                if oid.value in self._locations:
                    raise StorageError(f"object already exists: {oid!r}")
                if _is_chunk(oid.value):
                    raise StorageError(f"reserved (chunk) object id: {oid!r}")
                self._next_oid_value = max(self._next_oid_value, oid.value + 1)
            self._store_value(oid.value, value)
            return oid

    def _store_value(self, oid_value, value):
        """Store ``value`` under ``oid_value``, chunking when oversized."""
        if len(value) <= self._max_inline:
            page_id, slot = self._place(oid_value, _TAG_INLINE + value)
            self._locations[oid_value] = (page_id, slot)
            return
        chunk_size = self._max_inline
        chunks = [
            value[start : start + chunk_size]
            for start in range(0, len(value), chunk_size)
        ]
        for index, chunk in enumerate(chunks):
            cid = _chunk_id(oid_value, index)
            page_id, slot = self._place(cid, chunk)
            self._locations[cid] = (page_id, slot)
        header = _TAG_LOB + _LOB_HEADER.pack(len(chunks), len(value))
        page_id, slot = self._place(oid_value, header)
        self._locations[oid_value] = (page_id, slot)

    def _drop_value(self, oid_value):
        """Remove ``oid_value``'s slot and any chunk slots behind it."""
        raw = self._read_slot(oid_value)
        header = self._parse_lob_header(raw)
        page_id, slot = self._locations[oid_value]
        self._delete_slot(page_id, slot)
        del self._locations[oid_value]
        if header is not None:
            count, __ = header
            for index in range(count):
                cid = _chunk_id(oid_value, index)
                chunk_page, chunk_slot = self._locations[cid]
                self._delete_slot(chunk_page, chunk_slot)
                del self._locations[cid]

    def _delete_slot(self, page_id, slot):
        frame = self.pool.fetch(page_id)
        try:
            frame.page.delete(slot)
        finally:
            self._note_room(page_id, frame.page)
            self.pool.unpin(page_id, dirty=True)

    @staticmethod
    def _parse_lob_header(raw):
        """``(chunk_count, total_len)`` if ``raw`` is a LOB header."""
        if not raw.startswith(_TAG_LOB):
            return None
        count, total = _LOB_HEADER.unpack(raw[1:])
        return count, total

    def _place(self, oid_value, value):
        """Find or allocate a page for the value; return its location.

        The candidates are the cached pages whose hinted room can take
        the value, tried in ascending id order; every other page is
        skipped unseen.
        """
        needed = len(value) + SLOT_SIZE
        room = self._room
        fitting = [
            page_id
            for pages in self._by_room[needed.bit_length():]
            for page_id in pages
            if room[page_id] >= needed
        ]
        for page_id in sorted(fitting):
            if self.pool.frame_for(page_id) is None:
                continue  # not cached: placement does no I/O
            frame = self.pool.fetch(page_id)
            inserted = False
            try:
                if frame.page.fits(len(value)):
                    slot = frame.page.insert(oid_value, value)
                    inserted = True
                    return page_id, slot
            except PageFullError:
                pass
            finally:
                self._note_room(page_id, frame.page)
                self.pool.unpin(page_id, dirty=inserted)
        frame = self.pool.new_page()
        page_id = frame.page.page_id
        try:
            slot = frame.page.insert(oid_value, value)
        except PageFullError:
            raise StorageError(
                f"value of {len(value)} bytes exceeds page capacity"
            ) from None
        finally:
            self._note_room(page_id, frame.page)
            self.pool.unpin(page_id, dirty=True)
        return page_id, slot

    def exists(self, oid):
        """Whether ``oid`` names a live object."""
        return oid.value in self._locations and not _is_chunk(oid.value)

    def _read_slot(self, oid_value):
        page_id, slot = self._locations[oid_value]
        frame = self.pool.fetch(page_id)
        try:
            __, value = frame.page.read(slot)
            return value
        finally:
            self.pool.unpin(page_id)

    def read(self, oid):
        """Return the current bytes of ``oid`` (reassembling chunks)."""
        with self._lock:
            self._locate(oid)
            raw = self._read_slot(oid.value)
            header = self._parse_lob_header(raw)
            if header is None:
                return raw[1:]  # strip the inline tag
            count, total = header
            parts = []
            for index in range(count):
                parts.append(self._read_slot(_chunk_id(oid.value, index)))
            value = b"".join(parts)
            if len(value) != total:
                raise StorageError(
                    f"large object {oid!r}: expected {total} bytes,"
                    f" found {len(value)}"
                )
            return value

    def write(self, oid, value):
        """Replace the bytes of ``oid`` with ``value``.

        Handles every size transition (small->small in place when it
        fits, small<->large, large->large) by dropping and re-placing.
        """
        with self._lock:
            self._locate(oid)
            raw = self._read_slot(oid.value)
            header = self._parse_lob_header(raw)
            if header is None and len(value) <= self._max_inline:
                page_id, slot = self._locations[oid.value]
                frame = self.pool.fetch(page_id)
                try:
                    frame.page.update(slot, _TAG_INLINE + value)
                    return
                except PageFullError:
                    pass  # fall through to relocate
                finally:
                    self._note_room(page_id, frame.page)
                    self.pool.unpin(page_id, dirty=True)
            self._drop_value(oid.value)
            self._store_value(oid.value, value)

    def delete(self, oid):
        """Remove ``oid`` (and any chunks) from the store."""
        with self._lock:
            self._locate(oid)
            self._drop_value(oid.value)

    def frame_for(self, oid):
        """Pin and return the frame caching ``oid``'s anchor page.

        The caller owns the pin (and typically the frame latch) and must
        unpin via the pool.  This is the hook the storage manager uses to
        latch an object during a read/write, per the section 4.2
        algorithms; for large objects the anchor (header) frame carries
        the latch for the whole object.
        """
        with self._lock:
            page_id, __ = self._locate(oid)
        return self.pool.fetch(page_id)

    def object_ids(self):
        """All live object id values, ascending (chunks excluded)."""
        with self._lock:
            return sorted(
                value for value in self._locations if not _is_chunk(value)
            )

    def _locate(self, oid):
        if _is_chunk(oid.value):
            raise UnknownObjectError(oid)
        try:
            return self._locations[oid.value]
        except KeyError:
            raise UnknownObjectError(oid) from None

    def __len__(self):
        return sum(1 for value in self._locations if not _is_chunk(value))
