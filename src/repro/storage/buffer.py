"""The buffer cache.

The paper's applications operate "directly on the objects in a shared
cache".  This module provides that cache: a fixed number of frames over a
:class:`~repro.storage.disk.DiskManager`, with pin counts, dirty tracking,
and clock (second-chance) eviction.

The cache also carries each cached object's latch anchor: the paper says
"each object in the cache points to its own descriptor so no searching is
needed" — here each *frame* exposes its page plus a per-frame latch, and
the object layer attaches object descriptors to cached objects the same
way.
"""

from __future__ import annotations

import threading

from repro.common.errors import StorageError
from repro.common.latch import Latch
from repro.storage.page import Page


class Frame:
    """One buffer frame: a cached page plus bookkeeping."""

    __slots__ = ("page", "pin_count", "dirty", "referenced", "latch")

    def __init__(self, page):
        self.page = page
        self.pin_count = 0
        self.dirty = False
        self.referenced = True
        self.latch = Latch(name=f"frame:{page.page_id}")


class BufferPool:
    """A clock-eviction buffer cache over a disk manager.

    ``fetch`` pins; callers must ``unpin`` (``dirty=True`` if they wrote).
    Pinned frames are never evicted; when every frame is pinned and a new
    page is needed, :class:`~repro.common.errors.StorageError` is raised —
    the capacity should be sized for the workload, as EOS's was.
    """

    def __init__(self, disk, capacity=256, injector=None):
        if capacity < 1:
            raise ValueError("buffer pool needs at least one frame")
        self.disk = disk
        self.capacity = capacity
        self.injector = injector
        # The WAL rule: before a dirty page reaches disk, the log records
        # describing its updates must be durable.  The storage manager
        # wires this to ``log.flush``; ``None`` means no write-ahead log
        # protects this pool (bare-pool tests).
        self.wal_flush = None
        self._frames = {}
        self._clock_order = []
        self._clock_hand = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- pinning --------------------------------------------------------------

    def fetch(self, page_id):
        """Pin and return the frame caching ``page_id``, reading if absent."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self.hits += 1
            else:
                self.misses += 1
                raw = self.disk.read_page(page_id)
                frame = Frame(
                    Page.from_bytes(
                        raw,
                        page_size=self.disk.page_size,
                        default_page_id=page_id,
                    )
                )
                self._admit(page_id, frame)
            frame.pin_count += 1
            frame.referenced = True
            return frame

    def new_page(self):
        """Allocate a fresh page on disk, cache it pinned, return the frame."""
        with self._lock:
            page_id = self.disk.allocate_page()
            frame = Frame(Page(page_id, page_size=self.disk.page_size))
            frame.dirty = True
            self._admit(page_id, frame)
            frame.pin_count += 1
            return frame

    def unpin(self, page_id, dirty=False):
        """Drop one pin on ``page_id``; mark dirty if the caller wrote."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is None or frame.pin_count <= 0:
                raise StorageError(f"unpin without pin: page {page_id}")
            frame.pin_count -= 1
            if dirty:
                frame.dirty = True

    # -- eviction -------------------------------------------------------------

    def _admit(self, page_id, frame):
        if len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page_id] = frame
        self._clock_order.append(page_id)

    def _evict_one(self):
        """Clock sweep: evict the first unpinned, unreferenced frame."""
        if not self._clock_order:
            raise StorageError("buffer pool is empty but over capacity")
        for __ in range(2 * len(self._clock_order)):
            self._clock_hand %= len(self._clock_order)
            page_id = self._clock_order[self._clock_hand]
            frame = self._frames[page_id]
            if frame.pin_count > 0:
                self._clock_hand += 1
                continue
            if frame.referenced:
                frame.referenced = False
                self._clock_hand += 1
                continue
            self._write_back(page_id, frame)
            del self._frames[page_id]
            del self._clock_order[self._clock_hand]
            self.evictions += 1
            return
        raise StorageError("all buffer frames are pinned; cannot evict")

    def _write_back(self, page_id, frame, wal_done=False):
        if frame.dirty:
            if self.wal_flush is not None and not wal_done:
                self.wal_flush()  # WAL rule: log reaches disk first
            self.disk.write_page(page_id, frame.page.to_bytes())
            frame.dirty = False

    # -- flushing -------------------------------------------------------------

    def flush_page(self, page_id):
        """Write ``page_id`` back to disk if cached and dirty."""
        with self._lock:
            frame = self._frames.get(page_id)
            if frame is not None:
                self._write_back(page_id, frame)

    def flush_all(self):
        """Write every dirty cached page back to disk."""
        with self._lock:
            dirty = sum(1 for f in self._frames.values() if f.dirty)
            if self.injector is not None:
                self.injector.pool_flush(dirty)
            if dirty and self.wal_flush is not None:
                self.wal_flush()  # one log force covers the whole pass
            for page_id, frame in self._frames.items():
                self._write_back(page_id, frame, wal_done=True)
            self.disk.sync()

    def drop_all(self):
        """Discard the entire cache WITHOUT writing back (crash simulation)."""
        with self._lock:
            self._frames.clear()
            self._clock_order.clear()
            self._clock_hand = 0

    # -- introspection ----------------------------------------------------------

    def cached_page_ids(self):
        """The page ids currently cached, ascending (for tests)."""
        with self._lock:
            return sorted(self._frames)

    def frame_for(self, page_id):
        """Peek at the frame for ``page_id`` without pinning.

        ``None`` when the page is not cached.  Object placement uses it
        to pass over uncached pages without reading them.
        """
        return self._frames.get(page_id)

    def __len__(self):
        return len(self._frames)
