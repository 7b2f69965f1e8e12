"""The descriptor structures of section 4.1 (Figure 1).

* :class:`TransactionDescriptor` (TD) — tid, parent, status, and the list
  of the transaction's lock requests.  TDs live in a hash table keyed by
  tid (the paper's is chained; this one is a ``dict``).
* :class:`ObjectDescriptor` (OD) — per locked object: lists of granted and
  pending lock requests plus the list of permits on the object.  "Each
  object in the cache points to its own descriptor so no searching is
  needed" — here the lock manager keeps an OD map and hands ODs to
  callers, which cache them on typed object wrappers.
* :class:`LockRequestDescriptor` (LRD) — one transaction's lock on one
  object: pointers to its TD and OD, the operations held, the request
  status (granted / pending / upgrading), and the *suspended* flag the
  permit mechanism sets.
* :class:`PermitDescriptor` (PD) — a ``(t_i, t_j, op)`` triple on an OD:
  even if the object is locked by ``t_i`` in a conflicting mode, ``t_j``
  may still perform ``op``.  ``t_j`` or ``op`` of ``None`` means "any".

PDs and dependency edges are doubly hashed on the two tids involved (the
:class:`~repro.common.hashtable.DoubleHashIndex`) so permissions given by
or to a transaction are located efficiently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.errors import UnknownTransactionError
from repro.common.ids import NULL_TID
from repro.core.status import TransactionStatus, check_transition


class LockRequestStatus(enum.Enum):
    """Status of a lock request (granted, pending, or upgrading)."""

    GRANTED = "granted"
    PENDING = "pending"
    UPGRADING = "upgrading"


@dataclass
class TransactionDescriptor:
    """The TD: identity, lineage, status, and held lock requests."""

    tid: object
    parent: object = NULL_TID
    status: TransactionStatus = TransactionStatus.INITIATED
    function: object = None
    args: tuple = ()
    locks: list = field(default_factory=list)  # granted LRDs (incl. suspended)
    abort_reason: str = ""
    savepoints: list = field(default_factory=list)  # active rollback marks

    def set_status(self, target):
        """Transition to ``target``, enforcing the status machine."""
        self.status = check_transition(self.status, target)
        return self.status

    def lock_on(self, oid):
        """This transaction's granted LRD on ``oid``, or ``None``."""
        for lrd in self.locks:
            if lrd.oid == oid:
                return lrd
        return None

    def locked_object_ids(self):
        """Object ids this transaction holds locks on, in acquisition order."""
        return [lrd.oid for lrd in self.locks]

    def __repr__(self):
        return (
            f"TD({self.tid!r}, {self.status.value}, locks={len(self.locks)})"
        )


@dataclass
class LockRequestDescriptor:
    """The LRD: one transaction's (requested or held) lock on one object."""

    td: TransactionDescriptor
    od: "ObjectDescriptor"
    operations: set = field(default_factory=set)
    status: LockRequestStatus = LockRequestStatus.GRANTED
    suspended: bool = False
    requested: set = field(default_factory=set)  # ops awaited while pending

    @property
    def tid(self):
        """The owning transaction's tid."""
        return self.td.tid

    @property
    def oid(self):
        """The locked object's id."""
        return self.od.oid

    def __repr__(self):
        flags = []
        if self.suspended:
            flags.append("suspended")
        if self.status is not LockRequestStatus.GRANTED:
            flags.append(self.status.value)
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (
            f"LRD({self.tid!r} on {self.oid!r},"
            f" ops={sorted(self.operations)}{suffix})"
        )


@dataclass(frozen=True)
class PermitDescriptor:
    """The PD: ``giver`` lets ``receiver`` perform ``operation`` on ``oid``.

    ``receiver is None`` — any transaction; ``operation is None`` — any
    operation.  ``derived`` marks permits synthesized by the transitive
    sharing rule of section 2.2.
    """

    oid: object
    giver: object
    receiver: object = None
    operation: object = None
    derived: bool = False

    def covers(self, requester, operation):
        """Whether this permit lets ``requester`` perform ``operation``."""
        receiver_ok = self.receiver is None or self.receiver == requester
        operation_ok = self.operation is None or self.operation == operation
        return receiver_ok and operation_ok

    def __repr__(self):
        receiver = "any" if self.receiver is None else repr(self.receiver)
        operation = "any" if self.operation is None else self.operation
        origin = ", derived" if self.derived else ""
        return (
            f"PD({self.giver!r} -> {receiver} : {operation}"
            f" on {self.oid!r}{origin})"
        )


class ObjectDescriptor:
    """The OD: granted locks, pending requests, and permits on one object.

    Beyond the Figure 1 lists, the OD keeps hot-path indexes so the lock
    and permit algorithms probe instead of scan:

    * granted and pending LRDs are also keyed by tid (``granted_for`` /
      ``pending_for`` are dict probes);
    * a live count of *unsuspended* granted locks, so ``acquire`` can
      skip conflict/permit evaluation entirely on uncontended objects;
    * permits keyed by giver (the ``allows`` probe) and by explicit
      receiver (the transitive-closure worklist probe).

    The lists remain the source of truth; every mutation must go through
    the ``attach_*`` / ``detach_*`` / ``set_suspended`` methods so the
    indexes never diverge (the permit property suite checks this).
    """

    def __init__(self, oid):
        self.oid = oid
        self.granted = []  # LRDs with status GRANTED (incl. suspended)
        self.pending = []  # LRDs with status PENDING / UPGRADING
        self.permits = []  # PermitDescriptors
        self._granted_by_tid = {}
        self._pending_by_tid = {}
        self._active_granted = 0  # granted and not suspended
        self._permits_by_giver = {}
        self._permits_by_receiver = {}  # explicit receivers only

    # -- granted locks ------------------------------------------------------

    def attach_granted(self, lrd):
        """Register a granted LRD (list + tid index + active count)."""
        self.granted.append(lrd)
        self._granted_by_tid[lrd.tid] = lrd
        if not lrd.suspended:
            self._active_granted += 1

    def detach_granted(self, lrd):
        """Unregister a granted LRD (release / delegation merge)."""
        self.granted.remove(lrd)
        del self._granted_by_tid[lrd.tid]
        if not lrd.suspended:
            self._active_granted -= 1

    def rekey_granted(self, lrd, new_td):
        """Move an LRD to a new owner in place (delegation).

        Keeps the list position and suspension state; only the tid key
        changes.
        """
        del self._granted_by_tid[lrd.tid]
        lrd.td = new_td
        self._granted_by_tid[lrd.tid] = lrd

    def set_suspended(self, lrd, flag):
        """Flip an LRD's suspended bit, keeping the active count true."""
        if lrd.suspended == flag:
            return
        lrd.suspended = flag
        self._active_granted += -1 if flag else 1

    def foreign_active_count(self, tid):
        """Unsuspended granted locks held by transactions other than ``tid``.

        Zero means nothing can conflict with a request by ``tid`` — the
        lock manager's contention fast path.
        """
        count = self._active_granted
        own = self._granted_by_tid.get(tid)
        if own is not None and not own.suspended:
            count -= 1
        return count

    def granted_for(self, tid):
        """The granted LRD of ``tid`` on this object, or ``None``."""
        return self._granted_by_tid.get(tid)

    # -- pending requests ---------------------------------------------------

    def attach_pending(self, lrd):
        """Register a pending LRD."""
        self.pending.append(lrd)
        self._pending_by_tid[lrd.tid] = lrd

    def detach_pending(self, lrd):
        """Unregister a pending LRD (grant or termination)."""
        self.pending.remove(lrd)
        del self._pending_by_tid[lrd.tid]

    def pending_for(self, tid):
        """The pending LRD of ``tid`` on this object, or ``None``."""
        return self._pending_by_tid.get(tid)

    # -- permits ------------------------------------------------------------

    def attach_permit(self, pd):
        """Register a PD (list + giver index + explicit-receiver index)."""
        self.permits.append(pd)
        self._permits_by_giver.setdefault(pd.giver, []).append(pd)
        if pd.receiver is not None:
            self._permits_by_receiver.setdefault(pd.receiver, []).append(pd)

    def detach_permit(self, pd):
        """Unregister a PD, dropping emptied index buckets."""
        self.permits.remove(pd)
        bucket = self._permits_by_giver[pd.giver]
        bucket.remove(pd)
        if not bucket:
            del self._permits_by_giver[pd.giver]
        if pd.receiver is not None:
            bucket = self._permits_by_receiver[pd.receiver]
            bucket.remove(pd)
            if not bucket:
                del self._permits_by_receiver[pd.receiver]

    def permits_from(self, giver):
        """PDs on this object whose giver is ``giver`` (the live bucket)."""
        return self._permits_by_giver.get(giver, _NO_PERMITS)

    def permits_to_receiver(self, receiver):
        """PDs whose *explicit* receiver is ``receiver`` (the live bucket)."""
        return self._permits_by_receiver.get(receiver, _NO_PERMITS)

    def is_idle(self):
        """No locks, no pending requests, no permits: the OD can be freed."""
        return not self.granted and not self.pending and not self.permits

    def __repr__(self):
        return (
            f"OD({self.oid!r}, granted={len(self.granted)},"
            f" pending={len(self.pending)}, permits={len(self.permits)})"
        )


_NO_PERMITS = ()
"""Shared empty bucket, so index misses allocate nothing."""


class TransactionTable:
    """The hash table of TDs, keyed by tid (section 4.1).

    The paper chains its buckets; this table is a ``dict``, which gives
    the same no-search probe by tid.  Iteration is in registration order.
    :class:`~repro.common.hashtable.ChainedHashTable` remains as the
    benchmarked Figure 1 structure.
    """

    def __init__(self):
        self._table = {}

    def add(self, descriptor):
        """Register a new TD."""
        self._table[descriptor.tid] = descriptor

    def get(self, tid):
        """Return the TD for ``tid``; raise if unknown."""
        descriptor = self._table.get(tid)
        if descriptor is None:
            raise UnknownTransactionError(tid)
        return descriptor

    def maybe_get(self, tid):
        """Return the TD for ``tid`` or ``None``."""
        return self._table.get(tid)

    def remove(self, tid):
        """Forget a TD (post-termination cleanup)."""
        self._table.pop(tid, None)

    def __contains__(self, tid):
        return tid in self._table

    def __iter__(self):
        return iter(self._table.values())

    def __len__(self):
        return len(self._table)
