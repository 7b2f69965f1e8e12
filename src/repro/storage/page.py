"""Fixed-size slotted pages.

Objects live on pages.  A page is a fixed-size byte array with:

* a header: ``magic | page id | slot count | data watermark``;
* object data growing upward from the header;
* a slot directory growing downward from the page end, one entry per
  object: ``(offset, length, object id)``.

Deleted slots keep their directory entry (offset set to the tombstone
value) so slot numbers remain stable; compaction reclaims their data space.
The page keeps a running total of those tombstoned bytes, so asking
whether a value fits never walks the slot directory.
The layout is genuinely byte-level — pages round-trip through ``to_bytes``
/ ``from_bytes`` unchanged, which is what the disk manager and crash
simulation rely on.
"""

from __future__ import annotations

import struct

from repro.common.errors import StorageError

PAGE_SIZE = 4096
_MAGIC = 0xA55E  # "ASSE(T)"

_HEADER = struct.Struct("<HHIQ")  # magic, slot_count, watermark, page_id
_SLOT = struct.Struct("<HHQ")  # offset, length, object id
_TOMBSTONE = 0xFFFF
SLOT_SIZE = _SLOT.size
"""Directory bytes one new slot costs on top of its data."""


class PageFullError(StorageError):
    """The page has no room for the requested insertion."""


class Page:
    """One slotted page of ``page_size`` bytes."""

    def __init__(self, page_id, page_size=PAGE_SIZE):
        if page_size < _HEADER.size + _SLOT.size:
            raise ValueError("page size too small for header and one slot")
        self.page_id = page_id
        self.page_size = page_size
        # slots: list of (offset, length, oid_value); offset _TOMBSTONE = dead
        self._slots = []
        self._data = bytearray(page_size)
        self._watermark = _HEADER.size
        self._reclaimable = 0  # sum of tombstoned slots' lengths

    # -- space accounting ---------------------------------------------------

    @property
    def slot_count(self):
        """Total directory entries, including tombstones."""
        return len(self._slots)

    @property
    def live_count(self):
        """Directory entries that hold live objects."""
        return sum(1 for offset, __, __ in self._slots if offset != _TOMBSTONE)

    def _directory_start(self):
        return self.page_size - len(self._slots) * _SLOT.size

    def free_space(self):
        """Contiguous free bytes between data area and slot directory."""
        return self._directory_start() - self._watermark

    def reclaimable_space(self):
        """Bytes held by tombstoned slots, recoverable by compaction."""
        return self._reclaimable

    def usable_space(self):
        """Bytes a new object and its slot entry could use after compaction."""
        return self.free_space() + self._reclaimable

    def fits(self, data_len, reuse_slot=None):
        """Whether an object of ``data_len`` bytes fits (after compaction).

        ``reuse_slot`` names a directory entry whose slot (and, if live, its
        data space) the insertion will reuse; tombstoned entries' space is
        already counted by :meth:`reclaimable_space`.
        """
        slot_cost = 0 if reuse_slot is not None else _SLOT.size
        usable = self.usable_space()
        if reuse_slot is not None:
            offset, old_len, __ = self._slots[reuse_slot]
            if offset != _TOMBSTONE:
                usable += old_len
        return usable >= data_len + slot_cost

    # -- operations ----------------------------------------------------------

    def insert(self, oid_value, data):
        """Store ``data`` under a new slot; return the slot number.

        Raises :class:`PageFullError` when the object cannot fit even after
        compaction.  Tombstoned slots are reused to keep the directory small.
        """
        reuse = next(
            (
                index
                for index, (offset, __, __) in enumerate(self._slots)
                if offset == _TOMBSTONE
            ),
            None,
        )
        if not self.fits(len(data), reuse_slot=None if reuse is None else reuse):
            raise PageFullError(
                f"page {self.page_id}: no room for {len(data)} bytes"
            )
        if len(data) > self.free_space() - (0 if reuse is not None else _SLOT.size):
            self.compact()
        offset = self._watermark
        self._data[offset : offset + len(data)] = data
        self._watermark += len(data)
        if reuse is not None:
            self._set_slot(reuse, (offset, len(data), oid_value))
            return reuse
        self._slots.append((offset, len(data), oid_value))
        return len(self._slots) - 1

    def read(self, slot):
        """Return ``(oid_value, bytes)`` stored in ``slot``."""
        offset, length, oid_value = self._slot_entry(slot)
        return oid_value, bytes(self._data[offset : offset + length])

    def update(self, slot, data):
        """Replace the object in ``slot`` with ``data`` (same oid).

        Updates in place when the new value is no longer than the old one;
        otherwise relocates within the page, compacting if necessary.
        Raises :class:`PageFullError` when the page cannot hold the new
        value.
        """
        offset, length, oid_value = self._slot_entry(slot)
        if len(data) <= length:
            self._data[offset : offset + len(data)] = data
            self._slots[slot] = (offset, len(data), oid_value)
            return
        if not self.fits(len(data), reuse_slot=slot):
            raise PageFullError(
                f"page {self.page_id}: no room to grow slot {slot}"
            )
        self._set_slot(slot, (_TOMBSTONE, length, oid_value))
        if len(data) > self.free_space():
            self.compact()
        new_offset = self._watermark
        self._data[new_offset : new_offset + len(data)] = data
        self._watermark += len(data)
        self._set_slot(slot, (new_offset, len(data), oid_value))

    def delete(self, slot):
        """Tombstone ``slot``; its space is reclaimed at next compaction."""
        offset, length, oid_value = self._slot_entry(slot)
        self._set_slot(slot, (_TOMBSTONE, length, oid_value))

    def _set_slot(self, slot, entry):
        """Overwrite a directory entry, keeping the tombstone total."""
        old_offset, old_length, __ = self._slots[slot]
        if old_offset == _TOMBSTONE:
            self._reclaimable -= old_length
        if entry[0] == _TOMBSTONE:
            self._reclaimable += entry[1]
        self._slots[slot] = entry

    def compact(self):
        """Rewrite the data area dropping space of tombstoned slots."""
        new_data = bytearray(self.page_size)
        watermark = _HEADER.size
        new_slots = []
        for offset, length, oid_value in self._slots:
            if offset == _TOMBSTONE:
                new_slots.append((_TOMBSTONE, 0, oid_value))
                continue
            new_data[watermark : watermark + length] = self._data[
                offset : offset + length
            ]
            new_slots.append((watermark, length, oid_value))
            watermark += length
        self._data = new_data
        self._slots = new_slots
        self._watermark = watermark
        self._reclaimable = 0

    def items(self):
        """Yield ``(slot, oid_value, bytes)`` for every live object."""
        for slot, (offset, length, oid_value) in enumerate(self._slots):
            if offset != _TOMBSTONE:
                yield slot, oid_value, bytes(self._data[offset : offset + length])

    def _slot_entry(self, slot):
        if not 0 <= slot < len(self._slots):
            raise StorageError(f"page {self.page_id}: no slot {slot}")
        entry = self._slots[slot]
        if entry[0] == _TOMBSTONE:
            raise StorageError(f"page {self.page_id}: slot {slot} is deleted")
        return entry

    # -- serialization -------------------------------------------------------

    def to_bytes(self):
        """Serialize the page to exactly ``page_size`` bytes."""
        raw = bytearray(self._data)
        _HEADER.pack_into(
            raw, 0, _MAGIC, len(self._slots), self._watermark, self.page_id
        )
        cursor = self.page_size
        for offset, length, oid_value in self._slots:
            cursor -= _SLOT.size
            _SLOT.pack_into(raw, cursor, offset, length, oid_value)
        return bytes(raw)

    @classmethod
    def from_bytes(cls, raw, page_size=PAGE_SIZE, default_page_id=0):
        """Reconstruct a page from bytes produced by :meth:`to_bytes`.

        An all-zero image is a freshly allocated page that was never
        written back; it decodes as a valid empty page (with
        ``default_page_id``), which is exactly what a restart sees for
        pages allocated but not yet flushed.
        """
        if len(raw) != page_size:
            raise StorageError(
                f"expected {page_size} bytes, got {len(raw)}"
            )
        magic, slot_count, watermark, page_id = _HEADER.unpack_from(raw, 0)
        if magic == 0 and slot_count == 0 and watermark == 0:
            return cls(default_page_id, page_size=page_size)
        if magic != _MAGIC:
            raise StorageError(f"bad page magic {magic:#x}")
        page = cls(page_id, page_size=page_size)
        page._data = bytearray(raw)
        page._watermark = watermark
        cursor = page_size
        for __ in range(slot_count):
            cursor -= _SLOT.size
            entry = _SLOT.unpack_from(raw, cursor)
            page._slots.append(entry)
            if entry[0] == _TOMBSTONE:
                page._reclaimable += entry[1]
        page.validate()
        return page

    def validate(self):
        """Check the structural invariants every well-formed page holds.

        A torn write (new header and data prefix over an old slot
        directory, or vice versa) usually violates one of them; raising
        :class:`~repro.common.errors.StorageError` here is what lets the
        object-table rebuild quarantine damaged pages instead of serving
        garbage.  Every image produced by :meth:`to_bytes` passes.
        """
        directory_start = self.page_size - len(self._slots) * _SLOT.size
        if not _HEADER.size <= self._watermark <= directory_start:
            raise StorageError(
                f"page {self.page_id}: watermark {self._watermark} outside"
                f" [{_HEADER.size}, {directory_start}] — torn or corrupt"
            )
        for slot, (offset, length, __) in enumerate(self._slots):
            if offset == _TOMBSTONE:
                continue
            if offset < _HEADER.size or offset + length > self._watermark:
                raise StorageError(
                    f"page {self.page_id}: slot {slot} spans"
                    f" [{offset}, {offset + length}) outside the data area"
                    " — torn or corrupt"
                )

    def __repr__(self):
        return (
            f"Page(id={self.page_id}, live={self.live_count},"
            f" free={self.free_space()})"
        )
