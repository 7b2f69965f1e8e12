"""The closed-loop driver shared by the single-site workloads.

``clients`` units are in flight at a time; a client submits its next
unit only when the previous one committed or was given up, because an
embedded transaction facility's caller waits for its commit.  Each
iteration calls ``poll()`` once and then ``try_commit`` on the in-flight
top-level tids only, so the driver's own cost per unit does not grow with
the history the runtime keeps.

Aborted units are retried with the same inputs up to ``RETRY_BUDGET``
attempts.  A client backs off ``BACKOFF_POLLS * 2**(attempt - 1)`` polls
(at most ``MAX_BACKOFF_POLLS``) before it retries: restarting a deadlock
victim at once re-takes its read locks before the survivors upgrade
theirs, so victims can take turns forever (a livelock of the retrying
client, not of the system).  ``STALL_POLLS`` consecutive polls with no
progress and no commit mean a stall the deadlock detector cannot see (it
has no edge for the ``wait`` primitive); the driver then aborts the
oldest unit and its children, counts the stall, and retries the unit
like any other aborted attempt, as a caller with a timeout would.  The
backoff and the stall bound count polls, not seconds, so every count the
driver reports repeats exactly for one seed.
"""

from __future__ import annotations

from time import process_time

RETRY_BUDGET = 64
STALL_POLLS = 16
BACKOFF_POLLS = 2
MAX_BACKOFF_POLLS = 256


class Attempt:
    """One attempt of a unit: the children it started, and whether the
    driver has closed it (a child that starts after that aborts itself)."""

    __slots__ = ("children", "closed")

    def __init__(self):
        self.children = []
        self.closed = False


def run_closed_loop(runtime, units, clients, on_commit, result, tracer=None):
    """Drive ``units`` — ``(body, args)`` pairs whose body takes
    ``(tx, attempt, *args)`` — through ``runtime`` and record the window
    in ``result`` (a workloads.Pass).  ``on_commit(index, tid,
    latency_ms)`` is called for every committed unit."""
    manager = runtime.manager
    result.units = len(units)
    inflight = {}  # tid -> [unit index, attempt number, start, Attempt]
    backoff = []  # sorted [poll to retry at, unit index, attempt, start]
    next_index = 0
    idle = 0
    polls = stalls = 0

    def start(index, number, started):
        attempt = Attempt()
        body, args = units[index]
        tid = runtime.spawn(body, args=(attempt, *args))
        inflight[tid] = [index, number, started, attempt]
        result.attempts += 1

    def close(tid, slot):
        attempt = slot[3]
        attempt.closed = True
        for child in attempt.children:
            manager.abort(child, reason="unit closed by the driver")
        del inflight[tid]

    def retry(tid, slot):
        """Close an aborted attempt; back off and retry its unit, or give
        the unit up once its budget is spent."""
        index, number, started = slot[0], slot[1], slot[2]
        result.aborted_attempts += 1
        close(tid, slot)
        if number < RETRY_BUDGET:
            delay = min(BACKOFF_POLLS * 2 ** (number - 1), MAX_BACKOFF_POLLS)
            backoff.append([polls + delay, index, number + 1, started])
            backoff.sort()
        else:
            result.failed += 1

    window = tracer.open_window() if tracer is not None else None
    t0 = process_time()
    while True:
        while backoff and (backoff[0][0] <= polls or not inflight):
            __, index, number, started = backoff.pop(0)
            start(index, number, started)
        while (len(inflight) + len(backoff) < clients
               and next_index < len(units)):
            start(next_index, 1, process_time())
            next_index += 1
        if not inflight:
            break
        moved = runtime.poll()
        polls += 1
        finished = []
        for tid in inflight:
            outcome = manager.try_commit(tid)
            if outcome.is_final:
                finished.append((tid, bool(outcome)))
        if finished:
            idle = 0
            now = process_time()
            for tid, committed in finished:
                slot = inflight[tid]
                if committed:
                    del inflight[tid]
                    latency_ms = (now - slot[2]) * 1e3
                    result.committed += 1
                    result.latencies_ms.append(latency_ms)
                    on_commit(slot[0], tid, latency_ms)
                else:
                    retry(tid, slot)
        elif moved:
            idle = 0
        else:
            idle += 1
            if idle >= STALL_POLLS:
                idle = 0
                tid = min(inflight, key=lambda t: inflight[t][0])
                manager.abort(tid, reason="stalled: no progress in the driver")
                stalls += 1
                retry(tid, inflight[tid])
    result.window_s = process_time() - t0
    if window is not None:
        tracer.close_window(window)
    result.counts.update(polls=polls, stalls=stalls, failed=result.failed,
                         aborted_attempts=result.aborted_attempts)
