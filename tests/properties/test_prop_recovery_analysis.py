"""Property: indexed recovery analysis agrees with the full-scan oracle.

``RecoveryManager._analyze`` keeps updates indexed by the transaction
currently responsible for them, so a delegation record touches only the
delegator's updates.  The oracle below is the pre-index loop, which
rescans every earlier update at each delegation; on random logs with
delegation chains (delegate-back and self-delegation included) both
must name the same winners, losers, already-aborted and in-doubt
transactions and give every update the same responsible tid.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ids import Lsn, ObjectId, Tid
from repro.storage.log import (
    AbortRecord,
    BeforeImageRecord,
    CommitRecord,
    DecisionRecord,
    DelegateRecord,
    PrepareRecord,
)
from repro.storage.recovery import RecoveryManager


def analyze_scan(records):
    """Full-scan reference implementation of ``RecoveryManager._analyze``."""
    winners = set()
    finished_aborts = set()
    writers = set()
    responsibility = {}
    updates = []
    prepares = []
    for record in records:
        if isinstance(record, CommitRecord):
            winners |= record.committed_tids()
        elif isinstance(record, DecisionRecord):
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
        elif isinstance(record, DelegateRecord):
            for update in updates:
                if (
                    responsibility[update.lsn] == record.tid
                    and update.oid in record.oids
                ):
                    responsibility[update.lsn] = record.delegatee
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


_TIDS = st.integers(1, 5)
_OIDS = st.lists(st.integers(1, 4), min_size=1, max_size=4)
_op = st.one_of(
    st.tuples(st.just("write"), _TIDS, st.integers(1, 4)),
    st.tuples(st.just("write"), _TIDS, st.integers(1, 4)),
    st.tuples(st.just("delegate"), _TIDS, _TIDS, _OIDS),
    st.tuples(st.just("delegate_back"), _TIDS, _TIDS, _OIDS),
    st.tuples(st.just("commit"), _TIDS, st.lists(_TIDS, max_size=2)),
    st.tuples(st.just("abort"), _TIDS),
    st.tuples(st.just("prepare"), _TIDS, st.integers(1, 3)),
    st.tuples(st.just("decide"), _TIDS, st.integers(1, 3), st.booleans()),
)


def _build_log(ops):
    records = []

    def lsn():
        return Lsn(len(records) + 1)

    for op in ops:
        kind = op[0]
        if kind == "write":
            records.append(
                BeforeImageRecord(lsn(), Tid(op[1]), ObjectId(op[2]), b"")
            )
        elif kind in ("delegate", "delegate_back"):
            __, giver, taker, oids = op
            oids = tuple(ObjectId(value) for value in oids)
            records.append(DelegateRecord(lsn(), Tid(giver), Tid(taker), oids))
            if kind == "delegate_back":
                records.append(
                    DelegateRecord(lsn(), Tid(taker), Tid(giver), oids)
                )
        elif kind == "commit":
            group = tuple(Tid(value) for value in op[2])
            records.append(CommitRecord(lsn(), Tid(op[1]), group))
        elif kind == "abort":
            records.append(AbortRecord(lsn(), Tid(op[1])))
        elif kind == "prepare":
            records.append(PrepareRecord(lsn(), Tid(op[1]), gid=op[2]))
        else:
            verdict = "commit" if op[3] else "abort"
            records.append(
                DecisionRecord(lsn(), Tid(op[1]), gid=op[2], verdict=verdict)
            )
    return records


class TestIndexedAnalysis:
    @given(st.lists(_op, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_scan_oracle(self, ops):
        records = _build_log(ops)
        assert RecoveryManager(None, None)._analyze(records) == analyze_scan(
            records
        )

    def test_self_delegation_and_delegate_back_keep_ownership(self):
        ops = [
            ("write", 1, 1),
            ("write", 1, 2),
            ("delegate", 1, 1, [1, 2]),  # to itself: a no-op
            ("delegate_back", 1, 2, [1]),  # 1 -> 2 -> 1 on object 1
            ("delegate", 1, 3, [2]),
            ("commit", 3, []),
        ]
        records = _build_log(ops)
        analysis = RecoveryManager(None, None)._analyze(records)
        assert analysis == analyze_scan(records)
        winners, losers, __, __, responsibility, __, __ = analysis
        assert responsibility == {Lsn(1): Tid(1), Lsn(2): Tid(3)}
        assert winners == {Tid(3)}
        assert losers == {Tid(1), Tid(2)}

    def test_long_delegation_chain(self):
        """A hand-off chain through 200 transactions ends at the last."""
        ops = [("write", 1, 1), ("write", 1, 2)]
        records = _build_log(ops)
        for giver in range(1, 200):
            records.append(
                DelegateRecord(
                    Lsn(len(records) + 1),
                    Tid(giver),
                    Tid(giver + 1),
                    (ObjectId(1), ObjectId(2)),
                )
            )
        analysis = RecoveryManager(None, None)._analyze(records)
        assert analysis == analyze_scan(records)
        assert set(analysis[4].values()) == {Tid(200)}
