"""The deterministic cooperative runtime.

Transactions run as generator tasks; the scheduler interleaves them one
request at a time, either round-robin or in a seeded-random order.  The
same seed always yields the same interleaving, which is what the property
tests and benchmarks need from a concurrency substrate (the paper ran on
OS processes; determinism is this reproduction's substitute for wall-clock
racing — see DESIGN.md).

Blocked requests are retried every round, "starting at step 1" as the
section 4.2 algorithms specify.  A round costs O(live tasks): the
scheduler keeps its unfinished tasks in spawn order and drops finished
ones as it goes, so a long-lived runtime does not rescan every
transaction it ever ran.  When a full round makes no progress the
runtime asks the deadlock detector for a victim; a stall with no deadlock
cycle raises :class:`SchedulerStalledError` — in a correct program that
means a dependency that can never resolve, which is a bug worth surfacing
loudly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.common.errors import (
    QuarantinedObjectError,
    SchedulerStalledError,
    TransactionAborted,
)
from repro.common.ids import NULL_TID
from repro.core.deadlock import DeadlockDetector
from repro.core.manager import TransactionManager
from repro.runtime.program import BLOCKED, TxnContext, execute_request

# SchedulerStalledError lives in the unified taxonomy now
# (repro.common.errors) but remains importable from here, where its
# diagnostic rows (StalledTask) are built.
__all__ = [
    "CooperativeRuntime",
    "RunResult",
    "SchedulerStalledError",
    "StalledTask",
]


@dataclass
class StalledTask:
    """Diagnostic row for one stuck task inside a scheduler stall."""

    tid: object
    status: str
    pending: object = None  # the request parked at a WOULD_BLOCK point
    blocked_on: tuple = ()  # tids the last blocked attempt named

    def describe(self):
        waiting = (
            ", ".join(repr(t) for t in self.blocked_on)
            if self.blocked_on
            else "nothing reported"
        )
        pending = repr(self.pending) if self.pending is not None else "no request"
        return (
            f"{self.tid!r} [{self.status}]: pending {pending};"
            f" blocks on {waiting}"
        )


@dataclass
class RunResult:
    """Outcome of a top-level :meth:`CooperativeRuntime.run` call."""

    tid: object
    committed: bool
    value: object = None

    def __bool__(self):
        return self.committed


class _Task:
    """One running transaction program."""

    __slots__ = ("tid", "gen", "pending", "to_send", "finished", "result",
                 "error", "abort_delivered", "blocked_on")

    def __init__(self, tid, gen):
        self.tid = tid
        self.gen = gen
        self.pending = None  # request awaiting retry
        self.to_send = None  # result to send into the generator
        self.finished = False
        self.result = None
        self.error = None
        self.abort_delivered = False
        self.blocked_on = ()  # who the last WOULD_BLOCK outcome named


class CooperativeRuntime:
    """Deterministic scheduler over a :class:`TransactionManager`."""

    def __init__(self, manager=None, seed=None, max_idle_rounds=2,
                 schedule=None, watchdog=None):
        self.manager = manager if manager is not None else TransactionManager()
        self._tasks = {}  # every task ever spawned, for result_of/error_of
        self._live = []  # unfinished tasks in spawn order (round-robin basis)
        self._rng = random.Random(seed) if seed is not None else None
        self._max_idle_rounds = max_idle_rounds
        # An explicit schedule controller (repro.chaos.explorer) decides
        # the task order at every round — and records what it decided, so
        # any interleaving replays exactly.  It overrides the seeded rng.
        self.schedule = schedule
        self._detector = DeadlockDetector(self.manager)
        # Resilience watchdog (repro.resilience): ticked every round,
        # offered one time-travel rescue before a stall raises.
        self.watchdog = watchdog
        self.steps = 0

    # ------------------------------------------------------------------
    # the paper-style driver API
    # ------------------------------------------------------------------

    def initiate(self, function, args=(), initiator=NULL_TID):
        """Register a transaction that will execute ``function``."""
        return self.manager.initiate(
            function=function, args=args, initiator=initiator
        )

    def begin(self, *tids):
        """Start initiated transactions, driving the scheduler while their
        begin dependencies are unresolved.  Returns 1 or 0."""
        while True:
            blockers = []
            for tid in tids:
                blockers.extend(self.manager.begin_blockers(tid))
            if not blockers:
                ok = self.manager.begin(*tids)
                if ok:
                    for tid in tids:
                        self.on_begun(tid)
                return 1 if ok else 0
            self._make_progress_or_die(f"begin of {tids!r}")

    def commit(self, tid):
        """Commit ``tid``: block (by scheduling others) until final."""
        while True:
            outcome = self.manager.try_commit(tid)
            if outcome.is_final:
                return 1 if outcome else 0
            self._make_progress_or_die(f"commit of {tid!r}")

    def wait(self, tid):
        """The paper's ``wait``: 1 once completed, 0 if aborted."""
        while True:
            result = self.manager.wait_outcome(tid)
            if result is not None:
                return 1 if result else 0
            self._make_progress_or_die(f"wait for {tid!r}")

    def abort(self, tid):
        """Abort ``tid``; 1 on success, 0 if already committed."""
        return 1 if self.manager.abort(tid) else 0

    def commit_all(self, tids):
        """Commit a batch in *completion order*, returning {tid: 0/1}.

        Committing a fixed list in spawn order can wait forever on a
        transaction blocked behind a later, uncommitted one; draining
        completions avoids that driver-order deadlock.
        """
        outcomes = {}
        pending = list(tids)
        while pending:
            progressed = False
            for tid in list(pending):
                outcome = self.manager.try_commit(tid)
                if outcome.is_final:
                    outcomes[tid] = 1 if outcome else 0
                    pending.remove(tid)
                    progressed = True
            if pending and not progressed:
                self._make_progress_or_die(f"commit_all of {pending!r}")
        return outcomes

    def run(self, function, args=()):
        """The standard transaction skeleton of section 3.1.1.

        ``initiate``, ``begin``, ``commit`` — and return a
        :class:`RunResult` with the program's return value.
        """
        tid = self.initiate(function, args=args)
        if not tid:
            return RunResult(tid=tid, committed=False)
        self.begin(tid)
        committed = self.commit(tid)
        return RunResult(
            tid=tid, committed=bool(committed), value=self.result_of(tid)
        )

    def spawn(self, function, args=(), initiator=NULL_TID):
        """``initiate`` + ``begin`` without committing; returns the tid."""
        tid = self.initiate(function, args=args, initiator=initiator)
        if tid:
            self.begin(tid)
        return tid

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------

    def on_begun(self, tid):
        """Create the task for a transaction that just began."""
        if tid in self._tasks:
            return
        td = self.manager.table.get(tid)
        if td.function is None:
            # A transaction with no program (driver-managed); no task.
            self.manager.note_completed(tid)
            return
        ctx = TxnContext(tid, parent=td.parent)
        gen = td.function(ctx, *td.args)
        task = _Task(tid, gen)
        self._tasks[tid] = task
        self._live.append(task)

    def result_of(self, tid):
        """The return value of ``tid``'s program (None if none)."""
        task = self._tasks.get(tid)
        return task.result if task is not None else None

    def error_of(self, tid):
        """The exception that aborted ``tid``'s program, if any."""
        task = self._tasks.get(tid)
        return task.error if task is not None else None

    def active_tasks(self):
        """Tids of tasks that have not finished, in spawn order.

        Read-only: only the thread that runs rounds prunes the live list
        (other threads poll this on the parallel sharded runtime).
        """
        return [task.tid for task in self._live if not task.finished]

    # ------------------------------------------------------------------
    # the scheduler
    # ------------------------------------------------------------------

    def _runnable(self):
        """Unfinished tasks in spawn order (a fresh list the caller owns).

        Tasks that finished since the last call are dropped from the
        live list here, so the cost is the live count plus the tasks
        that just finished, never the whole spawn history.
        """
        self._live = [task for task in self._live if not task.finished]
        return list(self._live)

    def round(self):
        """Give every unfinished task one step; return whether any moved.

        The order of the steps within the round is the interleaving
        decision: schedule controller first (recorded, replayable), then
        the seeded rng, then plain spawn-order round-robin.
        """
        if self.watchdog is not None:
            self.watchdog.on_round()
        tasks = self._runnable()
        if self.schedule is not None and tasks:
            order = {tid: i for i, tid in
                     enumerate(self.schedule.arrange([t.tid for t in tasks]))}
            tasks.sort(key=lambda task: order[task.tid])
        elif self._rng is not None:
            self._rng.shuffle(tasks)
        progress = False
        for task in tasks:
            progress |= self._step(task)
        return progress

    def poll(self):
        """Let the system advance briefly; ``True`` if anything moved.

        Used by pollers (the workflow engine's race) that wait on a
        condition no single ``wait`` call expresses.
        """
        if self.round():
            return True
        if self._detector.resolve_one() is not None:
            return True
        return self._watchdog_rescue()

    def run_until_quiescent(self):
        """Schedule until no task can move (deadlocks get resolved)."""
        while True:
            if not self.round():
                if self._detector.resolve_one() is None:
                    if self._watchdog_rescue():
                        continue
                    return

    def _watchdog_rescue(self):
        """One shot of watchdog time travel when the schedule is wedged."""
        if self.watchdog is None:
            return False
        return self.watchdog.on_stall()

    def _make_progress_or_die(self, why):
        if self.round():
            return
        if self._detector.resolve_one() is not None:
            return
        idle = 0
        while idle < self._max_idle_rounds:
            if self.round() or self._detector.resolve_one() is not None:
                return
            idle += 1
        if self._watchdog_rescue():
            return
        raise SchedulerStalledError(why, stalled=self.stall_report())

    def stall_report(self):
        """Diagnostic rows for every unfinished task (who blocks on what)."""
        rows = []
        for tid in self.active_tasks():
            task = self._tasks[tid]
            td = self.manager.table.maybe_get(tid)
            status = td.status.value if td is not None else "unknown"
            rows.append(
                StalledTask(
                    tid=tid,
                    status=status,
                    pending=task.pending,
                    blocked_on=tuple(task.blocked_on),
                )
            )
        return rows

    def _step(self, task):
        """Advance one task by (at most) one request.  True on progress."""
        self.steps += 1
        manager = self.manager

        # Deliver an externally caused abort into the program once.
        if (
            not task.finished
            and not task.abort_delivered
            and manager.has_aborted(task.tid)
        ):
            task.abort_delivered = True
            task.pending = None
            try:
                task.gen.throw(TransactionAborted(task.tid))
            except (StopIteration, TransactionAborted):
                pass
            except Exception as exc:  # program mishandled the signal
                task.error = exc
            task.finished = True
            return True

        if task.pending is not None:
            try:
                state, value = execute_request(
                    manager, self, task.tid, task.pending
                )
            except QuarantinedObjectError as exc:
                return self._poisoned(task, exc)
            if state is BLOCKED:
                task.blocked_on = tuple(value) if value else ()
                return False
            task.pending = None
            task.to_send = value
            task.blocked_on = ()
            return True

        # Advance the generator to its next request.
        try:
            request = task.gen.send(task.to_send)
            task.to_send = None
        except StopIteration as stop:
            task.result = stop.value
            task.finished = True
            manager.note_completed(task.tid)
            return True
        except TransactionAborted:
            task.finished = True
            return True
        except Exception as exc:
            task.error = exc
            task.finished = True
            manager.abort(task.tid, reason=f"program raised {exc!r}")
            return True

        try:
            state, value = execute_request(manager, self, task.tid, request)
        except QuarantinedObjectError as exc:
            return self._poisoned(task, exc)
        if state is BLOCKED:
            task.pending = request
            task.blocked_on = tuple(value) if value else ()
        else:
            task.to_send = value
            task.blocked_on = ()
        # Aborting oneself ends the program: nothing after the abort of
        # self should run (the paper's abort(self()) idiom).
        if manager.has_aborted(task.tid) and not task.finished:
            task.pending = None
            task.finished = True
            task.gen.close()
        return True

    def _poisoned(self, task, exc):
        """A quarantined-object touch poisons the transaction: fail the
        task and abort it rather than propagate garbage (or crash the
        scheduler loop)."""
        task.error = exc
        task.pending = None
        task.finished = True
        self.manager.abort(task.tid, reason=f"poisoned: {exc}")
        task.gen.close()
        return True
