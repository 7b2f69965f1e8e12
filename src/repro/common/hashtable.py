"""The descriptor hash tables of section 4.1.

The paper stores transaction descriptors "in a chained hash table based on
the transaction tid", and hashes permit descriptors and dependency edges
*doubly* — once per participating transaction — "so that permissions given
by or given to a transaction can be located efficiently".

:class:`ChainedHashTable` is an honest chained table with a configurable
bucket count and load-factor-driven resizing.  It is the Figure 1
artifact: the FIG1 benchmark measures the scaling behaviour of the
*paper's* structure with it.  The running system does not use it: the TD
table (:class:`~repro.core.descriptors.TransactionTable`) and
:class:`DoubleHashIndex`, which gives the by-left / by-right lookups the
paper describes, are backed by ``dict`` — the same hashed, no-search
lookup at C speed.
"""

from __future__ import annotations


class ChainedHashTable:
    """A hash table with per-bucket chains and automatic resizing.

    Supports the usual mapping operations plus ``buckets`` introspection for
    the descriptor benchmark.  Keys must be hashable.
    """

    _MIN_BUCKETS = 8

    def __init__(self, buckets=None, max_load=4.0):
        if buckets is None:
            buckets = self._MIN_BUCKETS
        if buckets < 1:
            raise ValueError("bucket count must be positive")
        self._buckets = [[] for __ in range(buckets)]
        self._size = 0
        self._max_load = max_load

    def _bucket_for(self, key):
        return self._buckets[hash(key) % len(self._buckets)]

    def _resize(self):
        old_entries = [entry for chain in self._buckets for entry in chain]
        self._buckets = [[] for __ in range(len(self._buckets) * 2)]
        for key, value in old_entries:
            self._bucket_for(key).append((key, value))

    def put(self, key, value):
        """Insert or replace the value stored under ``key``."""
        chain = self._bucket_for(key)
        for index, (existing, __) in enumerate(chain):
            if existing == key:
                chain[index] = (key, value)
                return
        chain.append((key, value))
        self._size += 1
        if self._size > self._max_load * len(self._buckets):
            self._resize()

    def get(self, key, default=None):
        """Return the value under ``key``, or ``default`` if absent."""
        for existing, value in self._bucket_for(key):
            if existing == key:
                return value
        return default

    def remove(self, key):
        """Remove and return the value under ``key``; ``None`` if absent."""
        chain = self._bucket_for(key)
        for index, (existing, value) in enumerate(chain):
            if existing == key:
                del chain[index]
                self._size -= 1
                return value
        return None

    def __contains__(self, key):
        return self.get(key, _SENTINEL) is not _SENTINEL

    def __len__(self):
        return self._size

    def __iter__(self):
        for chain in self._buckets:
            yield from (key for key, __ in chain)

    def items(self):
        """Iterate over ``(key, value)`` pairs in bucket order."""
        for chain in self._buckets:
            yield from chain

    def values(self):
        """Iterate over stored values in bucket order."""
        for chain in self._buckets:
            yield from (value for __, value in chain)

    @property
    def bucket_count(self):
        """Number of buckets currently allocated (for benchmarks)."""
        return len(self._buckets)

    def longest_chain(self):
        """Length of the longest bucket chain (for benchmarks)."""
        return max((len(chain) for chain in self._buckets), default=0)


_SENTINEL = object()


class DoubleHashIndex:
    """An index over items keyed by an ordered pair of transactions.

    The paper double-hashes permit descriptors and dependency edges on "the
    tid of the two transactions involved" so that the set given *by* a
    transaction and the set given *to* a transaction can each be located
    without searching.  Items are arbitrary objects; the caller supplies
    the (left, right) key pair at insertion.  Each side is a ``dict``.

    The same (left, right) pair may index many items (e.g. several permits
    between the same two transactions on different objects), so each slot
    holds a list, in insertion order.
    """

    def __init__(self):
        self._by_left = {}
        self._by_right = {}

    def add(self, left, right, item):
        """Index ``item`` under the pair ``(left, right)``."""
        self._by_left.setdefault(left, []).append(item)
        self._by_right.setdefault(right, []).append(item)

    def remove(self, left, right, item):
        """Remove one previously added ``item``; missing items are ignored."""
        for table, key in ((self._by_left, left), (self._by_right, right)):
            slot = table.get(key)
            if slot and item in slot:
                slot.remove(item)
                if not slot:
                    del table[key]

    def by_left(self, left):
        """All items whose pair has ``left`` on the left (a fresh list)."""
        return list(self._by_left.get(left, ()))

    def by_right(self, right):
        """All items whose pair has ``right`` on the right (a fresh list)."""
        return list(self._by_right.get(right, ()))

    def involving(self, tid):
        """All items where ``tid`` appears on either side (deduplicated).

        Deduplication is by identity: the only way an item appears twice
        is the very same object indexed under ``(tid, tid)``, and the
        identity set keeps the call linear where the old membership-scan
        approach went quadratic on wide fan-outs (commit/abort cleanup of
        a transaction with thousands of permits).
        """
        seen = set()
        out = []
        for item in self.by_left(tid) + self.by_right(tid):
            if id(item) not in seen:
                seen.add(id(item))
                out.append(item)
        return out

    def __len__(self):
        return sum(len(slot) for slot in self._by_left.values())
