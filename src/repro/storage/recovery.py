"""Restart recovery.

The strategy is repeat-history + undo-losers over physical images:

1. **Analysis** — scan the durable log; winners are transactions named by
   commit records, the already-aborted are those with abort records, and
   everything else that wrote is a loser.  Delegation records re-attribute
   each update to the transaction responsible for it at the end of the log
   (if a loser delegated its updates to a winner, those updates survive —
   exactly the delegation semantics of section 2.2).  Updates are indexed
   by the transaction currently responsible for them, so a delegation
   touches only the delegator's updates, never the whole log so far.
2. **Redo** — install every after image in LSN order.  Undo performed
   before the crash was itself logged as after-image records (compensation
   records), so repeating history reproduces completed aborts too.
3. **Undo** — install the before images of loser updates in reverse LSN
   order, logging each restoration as a compensation after-image and
   finishing each loser with an abort record, which makes recovery
   idempotent across repeated crashes.

One class of transaction is exempt from undo-losers: a transaction
covered by a durable prepare record with no durable outcome is **in
doubt** — it voted commit in a distributed group commit, so this site no
longer owns the decision.  Its updates are kept (redo reinstalls them)
and it is reported in ``RecoveryReport.in_doubt``; the cluster layer
resolves it against the coordinator (or by presumed abort) after
restart.

Physical before/after images make redo and undo idempotent, which is why a
crash *during* recovery is harmless: the next restart repeats the same
installs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.log import (
    AbortRecord,
    AfterImageRecord,
    BeforeImageRecord,
    CommitRecord,
    DecisionRecord,
    DelegateRecord,
    PrepareRecord,
)


@dataclass
class RecoveryReport:
    """What a restart recovery pass did (for tests and operators)."""

    winners: set = field(default_factory=set)
    losers: set = field(default_factory=set)
    already_aborted: set = field(default_factory=set)
    redone: int = 0
    undone: int = 0
    # Prepared-but-undecided transactions: kept, not undone.  ``in_doubt``
    # holds their tids; ``in_doubt_votes`` maps each unresolved global id
    # to its (last) durable PrepareRecord so the cluster layer knows the
    # group, the coordinator to ask, and hence how to finish them.
    in_doubt: set = field(default_factory=set)
    in_doubt_votes: dict = field(default_factory=dict)

    def __repr__(self):
        doubt = ""
        if self.in_doubt:
            doubt = f", in_doubt={sorted(t.value for t in self.in_doubt)}"
        return (
            f"RecoveryReport(winners={sorted(t.value for t in self.winners)},"
            f" losers={sorted(t.value for t in self.losers)},"
            f" redone={self.redone}, undone={self.undone}{doubt})"
        )


class RecoveryManager:
    """Runs restart recovery over a log and an object store."""

    def __init__(self, log, object_store):
        self.log = log
        self.store = object_store

    def _analyze(self, records):
        winners = set()
        finished_aborts = set()
        writers = set()
        responsibility = {}
        updates = []
        held = {}  # tid -> the updates it is currently responsible for
        prepares = []
        for record in records:
            if isinstance(record, CommitRecord):
                winners |= record.committed_tids()
            elif isinstance(record, DecisionRecord):
                # The coordinator's force-logged commit decision commits
                # its local members even if the usual commit record never
                # made it to the device before the crash.
                if record.verdict == "commit":
                    winners |= record.decided_tids()
            elif isinstance(record, AbortRecord):
                finished_aborts.add(record.tid)
            elif isinstance(record, PrepareRecord):
                prepares.append(record)
            elif isinstance(record, BeforeImageRecord):
                writers.add(record.tid)
                responsibility[record.lsn] = record.tid
                updates.append(record)
                held.setdefault(record.tid, []).append(record)
            elif isinstance(record, DelegateRecord):
                self._delegate(record, held, responsibility)
                writers.add(record.delegatee)
        responsible_writers = set(responsibility.values()) | writers
        in_doubt = set()
        in_doubt_votes = {}
        for record in prepares:
            undecided = record.prepared_tids() - winners - finished_aborts
            if undecided:
                in_doubt |= undecided
                in_doubt_votes[record.gid] = record
        losers = responsible_writers - winners - finished_aborts - in_doubt
        return (
            winners,
            losers,
            finished_aborts,
            updates,
            responsibility,
            in_doubt,
            in_doubt_votes,
        )

    @staticmethod
    def _delegate(record, held, responsibility):
        """Re-attribute the delegator's updates on the delegated objects.

        Only the delegator's own updates are looked at, so a delegation
        costs that transaction's footprint, not a rescan of every earlier
        update (``WriteAheadLog.updates_by`` re-attributes the same way).
        """
        mine = held.pop(record.tid, None)
        if not mine:
            return
        oids = set(record.oids)
        kept = [update for update in mine if update.oid not in oids]
        if kept:
            held[record.tid] = kept
        moved = [update for update in mine if update.oid in oids]
        if moved:
            held.setdefault(record.delegatee, []).extend(moved)
            for update in moved:
                responsibility[update.lsn] = record.delegatee

    def _install(self, oid, image):
        """Bring ``oid`` to ``image`` (create / overwrite / delete)."""
        if image is None:
            if self.store.exists(oid):
                self.store.delete(oid)
            return
        if self.store.exists(oid):
            self.store.write(oid, image)
        else:
            self.store.create(image, oid=oid)

    def recover(self):
        """Run analysis, redo, and undo; return a :class:`RecoveryReport`.

        The three phases are separate methods so the chaos harness can
        crash recovery between (and inside) them and so mutation tests
        can knock one phase out to prove the oracles notice.
        """
        records = self.log.records(durable_only=True)
        (
            winners,
            losers,
            finished,
            updates,
            responsibility,
            in_doubt,
            in_doubt_votes,
        ) = self._analyze(records)
        report = RecoveryReport(
            winners=winners,
            losers=losers,
            already_aborted=finished,
            in_doubt=in_doubt,
            in_doubt_votes=in_doubt_votes,
        )
        self._redo(records, report)
        self._undo(updates, responsibility, losers, report)
        return report

    def _redo(self, records, report):
        """Repeat history with every durable after image, in LSN order."""
        for record in records:
            if isinstance(record, AfterImageRecord):
                self._install(record.oid, record.image)
                report.redone += 1

    def _undo(self, updates, responsibility, losers, report):
        """Install losers' before images, newest first, as compensation."""
        for record in reversed(updates):
            if responsibility[record.lsn] in losers:
                self._install(record.oid, record.image)
                self.log.log_after_image(record.tid, record.oid, record.image)
                report.undone += 1
        for loser in sorted(losers, key=lambda t: t.value):
            self.log.log_abort(loser)
        if losers:
            self.log.flush()
