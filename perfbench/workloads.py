"""The four benchmark workloads.

Each workload generates its inputs from the seed in ``__init__``, outside
any timed region, and then runs *passes*: ``build`` makes a fresh stack
(timed as set-up), ``drive`` runs the pass's fixed list of units through
the public API (the timed window), and ``finish`` crashes the stack,
recovers it (timed as recovery) and checks the outputs.  A pass has a
fixed length because the system's cost per unit grows with its history;
a run repeats passes of identical inputs, which is also how the
deterministic counts are checked.

Every workload is a closed loop driven from one thread: each client
submits its next unit only after the previous one finished.
"""

from __future__ import annotations

import random
from collections import deque
from itertools import accumulate
from time import process_time
from types import SimpleNamespace

from loop import run_closed_loop
from repro.cluster import Cluster
from repro.common.ids import NULL_TID
from repro.core.manager import TransactionManager
from repro.models.nested import parallel_subtransactions, require_subtransaction
from repro.runtime.coop import CooperativeRuntime
from repro.storage.log import CommitRecord, WorkflowRecord
from repro.storage.store import StorageManager
from repro.workflow.definition import DefinitionRegistry, WorkflowDefinition
from repro.workflow.durable import DurableWorkflowEngine
from repro.workflow.execution import ExecutionStatus
from repro.workflow.spec import WorkflowSpec


class Pass:
    """Measurements, deterministic counts and check results of one pass."""

    def __init__(self):
        self.setup_s = 0.0
        self.window_s = 0.0
        self.recovery_s = 0.0
        self.units = 0
        self.committed = 0
        self.failed = 0
        self.attempts = 0
        self.aborted_attempts = 0
        self.latencies_ms = []           # one per committed unit or call
        self.kind_latencies_ms = {}      # operation type -> latencies
        self.user_bytes = 0              # payload bytes of acknowledged writes
        self.counts = {}                 # deterministic counters
        self.violations = []
        self.reference_s = 0.0           # host speed: see run.REFERENCE_S


def _u64(value):
    return value.to_bytes(8, "big")


def _bump(value):
    """Add one to the 8-byte big-endian counter that prefixes ``value``."""
    return _u64(int.from_bytes(value[:8], "big") + 1) + value[8:]


def _populate(manager, payloads):
    """Create one object per payload in a single committed transaction."""
    tid = manager.initiate()
    manager.begin(tid)
    oids = [manager.create_object(tid, payload) for payload in payloads]
    manager.note_completed(tid)
    if not manager.try_commit(tid):
        raise RuntimeError("set-up transaction did not commit")
    return oids


def _wal_counts(log):
    records = list(log.device.read_all())
    return {
        "wal_records": len(records),
        "wal_bytes": sum(len(raw) for raw in records),
        "wal_flushes": log.flush_count,
    }


def _site_counts(site):
    """Deterministic counters of one site's manager, runtime and storage."""
    manager, storage = site.manager, site.storage
    locks = manager.lock_manager.stats
    pool = storage.pool
    return {
        "steps": site.runtime.steps,
        "lock_acquires": locks["grants"] + locks["blocks"],
        "lock_grants": locks["grants"],
        "lock_blocks": locks["blocks"],
        "lock_fast_grants": locks["fast_grants"],
        "txn_committed": manager.stats["committed"],
        "txn_aborted": manager.stats["aborted"],
        "delegations": manager.stats["delegations"],
        "buffer_hits": pool.hits,
        "buffer_misses": pool.misses,
        "buffer_evictions": pool.evictions,
        **_wal_counts(storage.log),
    }


def _single_site(seed=None):
    """A fresh storage, manager and runtime (seeded interleaving)."""
    storage = StorageManager()
    manager = TransactionManager(storage=storage)
    return SimpleNamespace(storage=storage, manager=manager,
                           runtime=CooperativeRuntime(manager, seed=seed))


def _rebind_wal_flush(tracer, storage):
    """The buffer pool forces the log through a bound method taken when
    the storage was built, which bypasses the traced class attribute;
    point it at the traced one for as long as the tracer is installed."""
    tracer.rebind(storage.pool, "wal_flush", storage.log.flush)


# ---------------------------------------------------------------------------
# uniform_mixed
# ---------------------------------------------------------------------------


def _read_txn(tx, attempt, oids):
    for oid in oids:
        yield tx.read(oid)


def _update_txn(tx, attempt, oids):
    for oid in oids:
        value = yield tx.read(oid)
        yield tx.write(oid, _bump(value))


def _insert_txn(tx, attempt, payload, oid):
    new = yield tx.create(payload)
    value = yield tx.read(oid)
    yield tx.write(oid, _bump(value))
    return new


RECORD_BYTES = 1024
CLIENTS = 8


class UniformMixed:
    """Single site, 8 clients, uniform keys over ~3,000 1 KiB records
    (~750 pages against the 256-frame buffer pool): 50% read-only txns of
    4 reads, 40% update txns of 4 read-modify-writes, 10% insert txns of
    1 create + 1 update.  The work lands in storage (buffer misses and
    evictions, placement on insert) and the WAL (1 KiB images, one flush
    per commit); lock waits and deadlocks are near zero."""

    name = "uniform_mixed"
    # Set-up (first-fit placement of every record) takes most of a pass,
    # and a pass's rate swings with the few deadlocks its inputs meet, so
    # an untraced run holds at least this many passes for its medians.
    min_passes = 12

    def __init__(self, seed, units=1000, records=3000):
        rng = random.Random(seed)
        self.seed = seed
        self.fills = [rng.randbytes(RECORD_BYTES - 8) for __ in range(records)]
        self.specs = []  # (kind, key indices, insert payload)
        for __ in range(units):
            draw = rng.random()
            if draw < 0.5:
                self.specs.append(("read", rng.choices(range(records), k=4), None))
            elif draw < 0.9:
                self.specs.append(("update", rng.choices(range(records), k=4), None))
            else:
                payload = _u64(0) + rng.randbytes(RECORD_BYTES - 8)
                self.specs.append(("insert", [rng.randrange(records)], payload))

    def build(self):
        stack = _single_site(self.seed)
        stack.oids = _populate(
            stack.manager, [_u64(0) + fill for fill in self.fills]
        )
        oids = stack.oids
        stack.units = []
        for kind, keys, payload in self.specs:
            if kind == "read":
                stack.units.append((_read_txn, (tuple(oids[k] for k in keys),)))
            elif kind == "update":
                stack.units.append((_update_txn, (tuple(oids[k] for k in keys),)))
            else:
                stack.units.append((_insert_txn, (payload, oids[keys[0]])))
        return stack

    def rebind(self, stack, tracer):
        _rebind_wal_flush(tracer, stack.storage)

    def drive(self, stack, tracer=None):
        result = Pass()
        increments = [0] * len(self.fills)
        inserted = {}

        def on_commit(index, tid, latency_ms):
            kind, keys, payload = self.specs[index]
            result.kind_latencies_ms.setdefault(kind, []).append(latency_ms)
            if kind == "read":
                return
            for key in keys:
                increments[key] += 1
            result.user_bytes += len(keys) * RECORD_BYTES
            if kind == "insert":
                inserted[stack.runtime.result_of(tid)] = payload
                result.user_bytes += len(payload)

        run_closed_loop(stack.runtime, stack.units, CLIENTS, on_commit,
                        result, tracer)
        stack.expected = increments, inserted
        return result

    def counts(self, stack):
        return _site_counts(stack)

    def finish(self, stack, result):
        started = process_time()
        stack.storage.crash()
        stack.storage.recover()
        result.recovery_s = process_time() - started
        increments, inserted = stack.expected
        read = stack.storage.read_object
        for key, oid in enumerate(stack.oids):
            if read(NULL_TID, oid) != _u64(increments[key]) + self.fills[key]:
                result.violations.append(
                    f"record {oid}: value after recovery does not match"
                    f" its {increments[key]} acknowledged updates"
                )
        for oid, payload in inserted.items():
            if read(NULL_TID, oid) != payload:
                result.violations.append(
                    f"inserted record {oid} lost or changed after recovery"
                )


# ---------------------------------------------------------------------------
# hot_nested
# ---------------------------------------------------------------------------


def _child(tx, attempt, oids):
    attempt.children.append(tx.tid)
    if attempt.closed:
        yield tx.abort()
        return
    for oid in oids:
        value = yield tx.read(oid)
        yield tx.write(oid, _bump(value))


def _nested_unit(tx, attempt, read_oid, oids_a, oids_b, parallel):
    yield tx.read(read_oid)
    if parallel:
        yield from parallel_subtransactions(
            tx, [(_child, (attempt, oids_a)), (_child, (attempt, oids_b))]
        )
    else:
        yield from require_subtransaction(tx, _child, (attempt, oids_a))
        yield from require_subtransaction(tx, _child, (attempt, oids_b))


def zipf_cum_weights(n, theta):
    """Cumulative Zipf(theta) weights over ranks 1..n, for random.choices."""
    return list(accumulate(1.0 / (rank ** theta) for rank in range(1, n + 1)))


ZIPF_THETA = 0.6
PARALLEL_SHARE = 0.2


class HotNested:
    """Single site, 8 clients, section 3.1.4 nested units: the parent
    reads a key, then two children each increment 2 keys.  80% of units
    run the children one after the other (require_subtransaction), 20%
    as parallel siblings (parallel_subtransactions); the two children of
    a unit touch disjoint keys.  Keys are Zipf
    theta=0.6 over 1,024 counters that stay in cache.  The work lands in
    the runtime (retry rounds), locks and permits (a permit check on
    every conflict), the manager (delegation, commit) and deadlock
    detection; storage barely moves."""

    name = "hot_nested"
    # The p99 is the tail of the units that meet a deadlock or a stall,
    # which a pass's inputs decide; a run holds this many passes for it.
    min_passes = 16

    def __init__(self, seed, units=200, keys=1024):
        rng = random.Random(seed)
        self.seed = seed
        self.n_keys = keys
        cum_weights = zipf_cum_weights(keys, ZIPF_THETA)
        draws = rng.choices(range(keys), cum_weights=cum_weights, k=5 * units)
        self.specs = []  # (read key, keys of child a, keys of child b, parallel)
        for i in range(units):
            d = draws[5 * i: 5 * i + 5]
            parallel = rng.random() < PARALLEL_SHARE
            keys_a, keys_b = (d[1], d[2]), (d[3], d[4])
            # The two children draw disjoint keys, because two defects
            # make a unit whose children share a key go wrong (see
            # test_perfbench.py for a reproducer of each).  Sequential: the
            # parent's permit grants the second child the key the parent
            # received from the first, which suspends the parent's whole
            # write lock, so unrelated units read the uncommitted value
            # and commit increments of a value that never commits when
            # the nest aborts.  Parallel: the second child waits for the
            # parent's lock while the parent waits for it, a cycle the
            # deadlock detector cannot see, on every attempt.
            while set(keys_a) & set(keys_b):
                keys_b = tuple(rng.choices(range(keys),
                                           cum_weights=cum_weights, k=2))
            self.specs.append((d[0], keys_a, keys_b, parallel))

    def build(self):
        stack = _single_site(self.seed)
        stack.oids = _populate(stack.manager, [_u64(0)] * self.n_keys)
        oids = stack.oids
        stack.units = [
            (_nested_unit, (oids[r], tuple(oids[k] for k in a),
                            tuple(oids[k] for k in b), parallel))
            for r, a, b, parallel in self.specs
        ]
        return stack

    def rebind(self, stack, tracer):
        _rebind_wal_flush(tracer, stack.storage)

    def drive(self, stack, tracer=None):
        result = Pass()
        increments = [0] * self.n_keys

        def on_commit(index, tid, latency_ms):
            __, keys_a, keys_b, __ = self.specs[index]
            for key in keys_a + keys_b:
                increments[key] += 1

        run_closed_loop(stack.runtime, stack.units, CLIENTS, on_commit,
                        result, tracer)
        result.user_bytes = 8 * sum(increments)
        stack.expected = increments
        return result

    def counts(self, stack):
        return _site_counts(stack)

    def finish(self, stack, result):
        started = process_time()
        stack.storage.crash()
        stack.storage.recover()
        result.recovery_s = process_time() - started
        values = [
            int.from_bytes(stack.storage.read_object(NULL_TID, oid), "big")
            for oid in stack.oids
        ]
        if sum(values) != sum(stack.expected):
            result.violations.append(
                f"counter sum {sum(values)} != {sum(stack.expected)}"
                " increments of committed units"
            )
        for key, (value, expected) in enumerate(zip(values, stack.expected)):
            if value != expected:
                result.violations.append(
                    f"counter {key} reads {value}, committed units"
                    f" incremented it {expected} times"
                )


# ---------------------------------------------------------------------------
# group_commit_3site
# ---------------------------------------------------------------------------

SITES = ("alpha", "beta", "gamma")


def _create_counters(tx, count):
    oids = []
    for __ in range(count):
        oids.append((yield tx.create(_u64(0))))
    return oids


def _rmw(tx, oid):
    value = yield tx.read(oid)
    yield tx.write(oid, _bump(value))


class GroupCommit3Site:
    """A 3-site Cluster.  Each unit spawns one read-modify-write txn per
    site over 256 objects per site, then links the three into a group and
    commits it with presumed-abort 2PC through the console, 1 client
    because the console is synchronous.  The work lands in the fabric,
    the sites' 2PC duty and force-logged prepare/decision records; locks
    and the buffer pool are idle."""

    name = "group_commit_3site"

    def __init__(self, seed, units=200, objects=256):
        rng = random.Random(seed)
        self.n_objects = objects
        self.specs = [
            tuple(rng.randrange(objects) for __ in SITES) for __ in range(units)
        ]

    def build(self):
        cluster = Cluster(sites=SITES)
        oids = {}
        for name in SITES:
            made = cluster.sites[name].runtime.run(
                _create_counters, args=(self.n_objects,)
            )
            if not made.committed:
                raise RuntimeError(f"set-up at {name} did not commit")
            oids[name] = made.value
        cluster.oids = oids
        return cluster

    def rebind(self, cluster, tracer):
        """Besides each storage's log force, the fabric holds the sites'
        and the console's message handlers as bound methods."""
        handlers = cluster.fabric.handlers
        tracer.rebind_item(handlers, "client", cluster._on_client_message)
        for name in SITES:
            site = cluster.sites[name]
            _rebind_wal_flush(tracer, site.storage)
            tracer.rebind_item(handlers, name, site.on_message)

    def drive(self, cluster, tracer=None):
        result = Pass()
        increments = {name: [0] * self.n_objects for name in SITES}
        committed_refs = []
        window = tracer.open_window() if tracer is not None else None
        t0 = process_time()
        for keys in self.specs:
            started = process_time()
            result.units += 1
            result.attempts += 1
            refs = [
                cluster.spawn_at(name, _rmw, args=(cluster.oids[name][key],))
                for name, key in zip(SITES, keys)
            ]
            if all(cluster.wait(ref) == "completed" for ref in refs):
                cluster.link_group(refs)
                committed = cluster.group_commit(refs).committed
            else:
                committed = False
            if not committed:
                result.failed += 1
                result.aborted_attempts += 1
                continue
            result.committed += 1
            result.latencies_ms.append((process_time() - started) * 1e3)
            committed_refs.append(refs)
            for name, key in zip(SITES, keys):
                increments[name][key] += 1
        result.window_s = process_time() - t0
        if window is not None:
            tracer.close_window(window)
        result.user_bytes = 8 * len(SITES) * result.committed
        cluster.expected = increments, committed_refs
        return result

    def counts(self, cluster):
        totals = {}
        for name in SITES:
            for key, value in _site_counts(cluster.sites[name]).items():
                totals[key] = totals.get(key, 0) + value
        totals.update(
            msgs=cluster.fabric.stats["sent"],
            msgs_delivered=cluster.fabric.stats["delivered"],
            fabric_rounds=cluster.fabric.stats["rounds"],
            cluster_rounds=cluster.rounds,
            site_ticks=sum(cluster.sites[name].ticks for name in SITES),
        )
        return totals

    def finish(self, cluster, result):
        if not cluster.converge():
            result.violations.append("cluster did not converge after the window")
        started = process_time()
        for name in SITES:
            cluster.crash_site(name)
        for name in SITES:
            cluster.restart_site(name)
        result.recovery_s = process_time() - started
        report, __ = cluster.evaluate(label="group_commit_3site")
        result.violations.extend(report.violations)
        increments, committed_refs = cluster.expected
        committed_at = {}
        for name in SITES:
            committed_at[name] = {
                tid.value
                for record in cluster.sites[name].durable_records()
                if isinstance(record, CommitRecord)
                for tid in record.committed_tids()
            }
            read = cluster.sites[name].storage.read_object
            for key, oid in enumerate(cluster.oids[name]):
                if read(NULL_TID, oid) != _u64(increments[name][key]):
                    result.violations.append(
                        f"{name} object {oid}: value after recovery does not"
                        f" match its {increments[name][key]} committed groups"
                    )
        for refs in committed_refs:
            for ref in refs:
                if ref.tid.value not in committed_at[ref.site]:
                    result.violations.append(
                        f"committed group member {ref!r} has no CommitRecord"
                    )


# ---------------------------------------------------------------------------
# durable_workflow
# ---------------------------------------------------------------------------

PRICE = 7
CANCEL_SHARE = 0.1


def _take(tx, oid):
    value = yield tx.read(oid)
    if int.from_bytes(value, "big") <= 0:
        yield tx.abort()
        return
    yield tx.write(oid, _u64(int.from_bytes(value, "big") - 1))


def _give(tx, oid):
    value = yield tx.read(oid)
    yield tx.write(oid, _bump(value))


def _transfer(tx, src, dst, amount):
    value = yield tx.read(src)
    yield tx.write(src, _u64(int.from_bytes(value, "big") - amount))
    value = yield tx.read(dst)
    yield tx.write(dst, _u64(int.from_bytes(value, "big") + amount))


class DurableWorkflow:
    """One DurableWorkflowEngine.  Each execution orders one of 64
    products: reserve (contingent: the primary warehouse, then the
    backup), charge, a signal wait 'approve', then ship; reserve and
    charge have compensations.  The driver keeps 16 executions parked and
    then acts on the oldest: it signals 'approve', or for 10% of
    executions cancels, which runs their compensations.  The work lands
    in the workflow engine and its forced WorkflowRecords."""

    name = "durable_workflow"

    def __init__(self, seed, units=300, products=64, parked=16):
        rng = random.Random(seed)
        self.products = products
        self.parked = parked
        self.script = [
            (rng.randrange(products),
             "cancel" if rng.random() < CANCEL_SHARE else "signal")
            for __ in range(units)
        ]
        demand = [0] * products
        for product, __ in self.script:
            demand[product] += 1
        # The primary warehouses run dry part-way through a pass, so the
        # contingent backup alternative runs too; the backups never do.
        self.primary_stock = [count * 3 // 5 for count in demand]
        self.backup_stock = [count + 1 for count in demand]
        self.wallet = PRICE * units

    def build(self):
        stack = _single_site()
        objects = _populate(
            stack.manager,
            [_u64(n) for n in self.primary_stock]
            + [_u64(n) for n in self.backup_stock]
            + [_u64(0)] * self.products
            + [_u64(self.wallet), _u64(0)],
        )
        n = self.products
        stack.primary = objects[:n]
        stack.backup = objects[n:2 * n]
        stack.shipped = objects[2 * n:3 * n]
        stack.wallet, stack.revenue = objects[3 * n:]
        stack.registry = DefinitionRegistry()
        for product in range(n):
            spec = WorkflowSpec(name=f"order-{product}")
            spec.task("reserve").alternative(
                _take, args=(stack.primary[product],), label="primary",
                compensation=_give, compensation_args=(stack.primary[product],),
            ).alternative(
                _take, args=(stack.backup[product],), label="backup",
                compensation=_give, compensation_args=(stack.backup[product],),
            )
            spec.task("charge", depends_on=("reserve",)).alternative(
                _transfer, args=(stack.wallet, stack.revenue, PRICE),
                label="charge", compensation=_transfer,
                compensation_args=(stack.revenue, stack.wallet, PRICE),
            )
            spec.task("ship", depends_on=("charge",)).alternative(
                _give, args=(stack.shipped[product],), label="ship",
            )
            stack.registry.register(
                WorkflowDefinition(f"order-{product}", spec)
                .wait_for("ship", "approve").validate()
            )
        stack.engine = DurableWorkflowEngine(stack.runtime, stack.registry)
        return stack

    def rebind(self, stack, tracer):
        _rebind_wal_flush(tracer, stack.storage)

    def drive(self, stack, tracer=None):
        engine = stack.engine
        result = Pass()
        fates = {}
        parked = deque()

        def act(wid):
            fate = fates[wid]
            started = process_time()
            if fate == "cancel":
                engine.cancel(wid)
            else:
                engine.signal(wid, "approve")
            result.latencies_ms.append((process_time() - started) * 1e3)

        window = tracer.open_window() if tracer is not None else None
        t0 = process_time()
        for product, fate in self.script:
            started = process_time()
            wid = engine.start(f"order-{product}")
            result.latencies_ms.append((process_time() - started) * 1e3)
            fates[wid] = fate
            if engine.status(wid) is ExecutionStatus.WAITING_SIGNAL:
                parked.append(wid)
            while len(parked) > self.parked:
                act(parked.popleft())
        while parked:
            act(parked.popleft())
        result.window_s = process_time() - t0
        if window is not None:
            tracer.close_window(window)
        result.units = result.attempts = len(self.script)
        stack.fates = fates
        completed, cancelled = self._judge(engine, fates, result)
        result.committed = completed + cancelled
        result.failed = result.aborted_attempts = result.units - result.committed
        result.counts.update(completed=completed, cancelled=cancelled)
        # A completed order writes 8 + 16 + 8 bytes; a cancelled one 8 + 16
        # forward and 8 + 16 more to compensate.
        result.user_bytes = 32 * completed + 48 * cancelled
        return result

    @staticmethod
    def _judge(engine, fates, result):
        """Terminal statuses must match the signal/cancel script; returns
        how many executions completed and were cancelled as scripted."""
        want = {"signal": ExecutionStatus.COMPLETED,
                "cancel": ExecutionStatus.CANCELLED}
        done = {"signal": 0, "cancel": 0}
        known = engine.executions()
        for wid, fate in fates.items():
            status = known[wid].status if wid in known else None
            if status is not want[fate]:
                result.violations.append(
                    f"execution {wid}: {status}, script said {fate}"
                )
                continue
            done[fate] += 1
        return done["signal"], done["cancel"]

    def counts(self, stack):
        engine = stack.engine
        return {
            **_site_counts(stack),
            "workflow_records": sum(
                isinstance(record, WorkflowRecord)
                for record in stack.storage.log.records()
            ),
            "steps_committed": engine.stats["steps_committed"],
            "compensations": engine.stats["compensations"],
            "signals": engine.stats["signals"],
        }

    def finish(self, stack, result):
        storage = stack.storage
        started = process_time()
        storage.crash()
        storage.recover()
        runtime = CooperativeRuntime(TransactionManager(storage=storage))
        recovered = DurableWorkflowEngine(runtime, stack.registry)
        in_flight = recovered.recover()
        result.recovery_s = process_time() - started
        if in_flight:
            result.violations.append(
                f"{len(in_flight)} executions still in flight after recovery"
            )
        completed, __ = self._judge(recovered, stack.fates, result)

        def value(oid):
            return int.from_bytes(storage.read_object(NULL_TID, oid), "big")

        for product in range(self.products):
            stock = (value(stack.primary[product]) + value(stack.backup[product])
                     + value(stack.shipped[product]))
            initial = self.primary_stock[product] + self.backup_stock[product]
            if stock != initial:
                result.violations.append(
                    f"product {product}: stock {stock} != initial {initial}"
                )
        wallet, revenue = value(stack.wallet), value(stack.revenue)
        if wallet + revenue != self.wallet or revenue != PRICE * completed:
            result.violations.append(
                f"balances not conserved: wallet {wallet}, revenue {revenue},"
                f" {completed} completed orders"
            )


WORKLOADS = {
    cls.name: cls
    for cls in (UniformMixed, HotNested, GroupCommit3Site, DurableWorkflow)
}
