"""The deterministic cooperative runtime."""

import pytest

from tests.conftest import incrementer, make_counters, read_counter

from repro.common.codec import decode_int, encode_int
from repro.common.errors import TransactionAborted
from repro.runtime.coop import CooperativeRuntime, SchedulerStalledError


class TestBasicExecution:
    def test_run_returns_value(self, rt):
        def body(tx):
            oid = yield tx.create(encode_int(7))
            return decode_int((yield tx.read(oid)))

        result = rt.run(body)
        assert result.committed and result.value == 7

    def test_spawn_then_commit(self, rt):
        [oid] = make_counters(rt, 1)
        tid = rt.spawn(incrementer(oid))
        rt.run_until_quiescent()
        assert rt.commit(tid) == 1
        assert read_counter(rt, oid) == 1

    def test_self_abort_stops_program(self, rt):
        [oid] = make_counters(rt, 1)
        trace = []

        def body(tx):
            trace.append("before")
            yield tx.write(oid, encode_int(99))
            yield tx.abort()
            trace.append("after")  # must never run

        tid = rt.spawn(body)
        rt.run_until_quiescent()
        assert rt.commit(tid) == 0
        assert trace == ["before"]
        assert read_counter(rt, oid) == 0

    def test_program_exception_aborts(self, rt):
        [oid] = make_counters(rt, 1)

        def body(tx):
            yield tx.write(oid, encode_int(5))
            raise ValueError("boom")

        tid = rt.spawn(body)
        rt.run_until_quiescent()
        assert rt.commit(tid) == 0
        assert isinstance(rt.error_of(tid), ValueError)
        assert read_counter(rt, oid) == 0

    def test_wait_primitive(self, rt):
        [oid] = make_counters(rt, 1)
        tid = rt.spawn(incrementer(oid))
        assert rt.wait(tid) == 1
        rt.commit(tid)  # release its locks before the next writer
        aborted = rt.spawn(incrementer(oid, fail=True))
        assert rt.wait(aborted) == 0


class TestDeterminism:
    def _contended_run(self, seed):
        rt = CooperativeRuntime(seed=seed)
        oids = make_counters(rt, 2)
        tids = [rt.spawn(incrementer(oids[i % 2])) for i in range(6)]
        rt.run_until_quiescent()
        outcomes = tuple(rt.commit(tid) for tid in tids)
        finals = tuple(read_counter(rt, oid) for oid in oids)
        return outcomes, finals, rt.steps

    def test_same_seed_same_everything(self):
        assert self._contended_run(7) == self._contended_run(7)

    def test_round_robin_default_is_deterministic_too(self):
        def go():
            rt = CooperativeRuntime()
            [oid] = make_counters(rt, 1)
            tids = [rt.spawn(incrementer(oid)) for __ in range(4)]
            rt.run_until_quiescent()
            return [rt.commit(t) for t in tids], rt.steps

        assert go() == go()

    def test_seeded_interleaving_is_pinned(self):
        """The seeded shuffle sees the same list in the same order as
        ever: this recorded step order must never change silently."""
        rt = CooperativeRuntime(seed=1234)
        oids = make_counters(rt, 2)
        tids = [rt.spawn(incrementer(oids[i % 2])) for i in range(5)]
        order = []
        step = rt._step

        def spy(task):
            order.append(task.tid.value)
            return step(task)

        rt._step = spy
        rt.run_until_quiescent()
        assert [tid.value for tid in tids] == [2, 3, 4, 5, 6]
        assert order == [
            3, 4, 6, 2, 5, 3, 5, 4, 2, 6, 3, 5, 6, 4, 2, 5, 4, 3,
            6, 2, 3, 5, 2, 6, 6, 2, 5, 3, 5, 3, 2, 5, 3, 5, 3, 3,
        ]
        assert [rt.commit(tid) for tid in tids] == [1, 1, 0, 0, 0]


class TestLiveTasks:
    def test_round_steps_only_live_tasks_after_long_history(self, rt):
        """A round's work is the live tasks, not every task ever run."""
        [oid] = make_counters(rt, 1)

        def reader(tx):
            return (yield tx.read(oid))

        for __ in range(2000):
            assert rt.run(reader).committed
        tid = rt.spawn(reader)
        assert rt.active_tasks() == [tid]
        before = rt.steps
        assert rt.round()
        assert rt.steps - before == 1
        assert [task.tid for task in rt._live] == [tid]


class TestBlockingAndRetry:
    def test_conflicting_writers_stay_consistent(self, rt):
        """Concurrent read-then-write incrementers hit upgrade deadlocks;
        victims abort, survivors serialize.  The invariant is that the
        final value equals the number of commits — no lost updates."""
        [oid] = make_counters(rt, 1)
        tids = [rt.spawn(incrementer(oid)) for __ in range(5)]
        rt.run_until_quiescent()
        commits = sum(rt.commit(tid) for tid in tids)
        assert commits >= 1
        assert read_counter(rt, oid) == commits

    def test_sequential_writers_all_land(self, rt):
        """Committing each incrementer before spawning the next avoids
        upgrade deadlocks entirely: every increment lands."""
        [oid] = make_counters(rt, 1)
        for __ in range(5):
            tid = rt.spawn(incrementer(oid))
            assert rt.commit(tid) == 1
        assert read_counter(rt, oid) == 5

    def test_deadlock_resolved_automatically(self, rt):
        oids = make_counters(rt, 2)

        def crosser(first, second):
            def body(tx):
                v = decode_int((yield tx.read(first)))
                yield tx.write(first, encode_int(v + 1))
                w = decode_int((yield tx.read(second)))
                yield tx.write(second, encode_int(w + 1))

            return body

        a = rt.spawn(crosser(oids[0], oids[1]))
        b = rt.spawn(crosser(oids[1], oids[0]))
        rt.run_until_quiescent()
        outcomes = [rt.commit(a), rt.commit(b)]
        assert sorted(outcomes) == [0, 1]  # victim aborted, winner through
        assert rt.manager.stats["aborted"] == 1

    def test_stall_raises_loudly(self, rt):
        """Waiting on a transaction nobody will ever complete."""
        ghost = rt.initiate(None)  # no program, never begun

        with pytest.raises(SchedulerStalledError):
            rt.commit(ghost)

    def test_stall_diagnostics_name_the_stuck_tasks(self, rt):
        """A stall is only debuggable if the error says *who* is stuck,
        in what status, parked on which request, blocking on whom."""
        [oid] = make_counters(rt, 1)

        holder = rt.spawn(incrementer(oid))
        rt.run_until_quiescent()  # holder finishes its program, keeps lock

        waiter = rt.spawn(incrementer(oid))  # blocks behind holder's lock
        # Committing the waiter can never succeed: its program cannot run
        # until the holder (whom nobody will commit) releases the lock,
        # and there is no deadlock cycle for the detector to break.
        with pytest.raises(SchedulerStalledError) as caught:
            rt.commit(waiter)

        error = caught.value
        stalled = {entry.tid: entry for entry in error.stalled}
        assert waiter in stalled
        row = stalled[waiter]
        assert row.status  # a live table status, not a placeholder
        assert row.pending is not None  # the parked read/write request
        assert holder in row.blocked_on
        # The rendered message carries the same story: both tids and the
        # blocks-on relation are readable without a debugger.
        text = str(error)
        assert repr(waiter) in text
        assert repr(holder) in text
        assert "blocks on" in text

    def test_external_abort_delivered_into_program(self, rt):
        [oid] = make_counters(rt, 1)
        observed = []

        def body(tx):
            try:
                yield tx.write(oid, encode_int(1))
                while True:
                    yield tx.read(oid)
            except TransactionAborted:
                observed.append("aborted")
                raise

        tid = rt.spawn(body)
        rt.round()
        rt.abort(tid)
        rt.run_until_quiescent()
        assert observed == ["aborted"]


class TestDriverApi:
    def test_run_skeleton_matches_paper(self, rt):
        """initiate -> begin -> commit, with null-tid handling."""

        def body(tx):
            return (yield tx.status_of(tx.tid))

        tid = rt.initiate(body)
        assert tid
        assert rt.begin(tid) == 1
        assert rt.commit(tid) == 1

    def test_initiate_limit_yields_null(self):
        from repro.core.manager import TransactionManager

        rt = CooperativeRuntime(TransactionManager(max_transactions=0))
        assert not rt.initiate(lambda tx: (yield tx.status_of(tx.tid)))

    def test_result_of_unknown_is_none(self, rt):
        assert rt.result_of(object()) is None

    def test_begin_without_program_completes_immediately(self, rt):
        tid = rt.initiate(None)
        rt.begin(tid)
        assert rt.manager.wait_outcome(tid) is True
        assert rt.commit(tid) == 1
