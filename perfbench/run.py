"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program under test is imported from
``src``.  A run is a series of *passes* that goes on until ``--seconds``
have gone by, for at least ``MIN_PASSES`` passes (more where a workload
sets ``min_passes``) and ``MIN_SAMPLES`` latency samples.  Each pass
makes a fixed-length list of units from ``--seed`` and its own index,
builds a fresh stack (set-up), drives the units through the public API
(the measured window), then crashes and recovers the stack (recovery)
and checks every output.  Two passes over the same inputs must agree on
every deterministic count.  The end-to-end timings are CPU time scaled
to a reference host speed (see ``REFERENCE_S``), which fixed reference
work measures around each pass; the per-layer span times are wall-clock.

``--trace 0`` reports the end-to-end metrics, with tracing off.
``--trace 1`` runs every pass untraced and then traced and reports the
per-layer metrics; spans of the first traced pass are written to
``perfbench/out/``.  ``--workload all`` runs every workload in turn, each
in a process of its own.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter, process_time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
# Timings are reported at a fixed host speed: the one at which the
# reference work (``_reference_work``) takes REFERENCE_S, about its median
# on a 2-vCPU cloud host.  On that host the reference work took from 6 to
# 22 ms within minutes, and the program's fixed work (each pass's set-up)
# drifted with it.  Each pass's timings are multiplied by REFERENCE_S over
# the median of four measurements of the reference work around the pass.
# Timings are CPU seconds of this single-threaded process, which does no
# I/O, so time the host gives to other guests does not count.
REFERENCE_S = 0.0125
# Latency samples a run gathers at least: twenty beyond its p99.
MIN_SAMPLES = 2000

# name -> unit, for every metric BENCHMARK.json declares.
END_TO_END = {
    "setup_s": "s",
    "commit_per_s": "units/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "attempts_per_commit": "ratio",
    "commit_share": "ratio",
    "recovery_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_COUNTS = {
    "runtime": {"steps_per_commit": "count", "polls_per_commit": "count"},
    "locks": {"acquire_per_op": "count", "blocks_per_op": "count",
              "fast_grant_share": "ratio"},
    "permits": {"allows_per_op": "count"},
    "manager": {"try_commit_per_commit": "count",
                "delegations_per_commit": "count", "abort_ms_per_abort": "ms"},
    "deadlock": {"resolve_per_commit": "count", "edges_per_build": "count",
                 "victims": "count", "undetected_stalls": "count"},
    "storage": {"buffer.hit_ratio": "ratio", "buffer.misses_per_op": "count",
                "buffer.evictions_per_op": "count", "create_us": "us"},
    "wal": {"appends_per_commit": "count", "bytes_per_user_byte": "ratio",
            "flushes_per_commit": "count"},
    "fabric": {"msgs_per_group": "count", "rounds_per_group": "count"},
    "site": {"ticks_per_group": "count"},
    "console": {},
    "workflow": {"records_per_exec": "count", "steps_per_exec": "count",
                 "compensations_per_cancel": "count"},
}
MIX_KINDS = ("read", "update", "insert")


def _per_layer_units():
    units = {}
    for layer, counts in LAYER_COUNTS.items():
        units[f"{layer}.calls_per_commit"] = "count"
        units[f"{layer}.self_ms_per_commit"] = "ms"
        for name, unit in counts.items():
            units[f"{layer}.{name}"] = unit
    units["driver.self_ms_per_commit"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    units["outcome.abort_ratio"] = "ratio"
    units["outcome.failed_ratio"] = "ratio"
    for kind in MIX_KINDS:
        units[f"mix.{kind}_p50_ms"] = "ms"
        units[f"mix.{kind}_p99_ms"] = "ms"
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values, q):
    """The q-th percentile (0-100) with linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


_BLOBS = [bytes([i % 256]) * 1024 for i in range(4096)]  # 4 MiB


def _reference_work():
    """Fixed work much like the program's: 1 KiB copies and dict look-ups
    spread over more memory than a core's cache."""
    table = {}
    count = len(_BLOBS)
    for i in range(6000):
        j = (i * 2654435761) % count
        blob = _BLOBS[j]
        table[j] = blob[:512] + blob[512:]
        table.get((j * 31) % count)
    return len(table)


def reference_s():
    """CPU seconds the reference work takes now (median of three)."""
    times = []
    for __ in range(3):
        started = process_time()
        _reference_work()
        times.append(process_time() - started)
    return statistics.median(times)


def at_reference_speed(result, reference):
    """Scale the pass's timings to the host speed at which the reference
    work takes ``REFERENCE_S``; ``reference`` is what it took around the
    pass."""
    scale = REFERENCE_S / reference
    result.reference_s = reference
    result.setup_s *= scale
    result.window_s *= scale
    result.recovery_s *= scale
    result.latencies_ms = [v * scale for v in result.latencies_ms]
    result.kind_latencies_ms = {
        kind: [v * scale for v in values]
        for kind, values in result.kind_latencies_ms.items()
    }


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(workload, traced, keep_spans=False):
    """Build, drive, recover and check once; returns the Pass.

    The garbage collector is off for the whole pass and runs between
    passes, so its pauses land in no timed region (a pass's cyclic
    garbage still shows in ``peak_rss_mb``)."""
    from tracer import Tracer

    gc.collect()
    gc.disable()
    try:
        ref = [reference_s()]
        started = process_time()
        stack = workload.build()
        setup_s = process_time() - started
        ref.append(reference_s())
        before = workload.counts(stack)
        tracer = None
        if traced:
            tracer = Tracer(keep_spans)
            tracer.install()
            workload.rebind(stack, tracer)
        try:
            result = workload.drive(stack, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        ref.append(reference_s())
        after = workload.counts(stack)
        result.setup_s = setup_s
        result.counts.update(
            {key: after[key] - before[key] for key in after},
            units=result.units, committed=result.committed,
            attempts=result.attempts, user_bytes=result.user_bytes,
        )
        workload.finish(stack, result)
        ref.append(reference_s())
        at_reference_speed(result, statistics.median(ref))
    finally:
        gc.enable()
    result.tracer = tracer
    return result


def check_determinism(pairs):
    """Two passes over the same inputs must agree on every count."""
    problems = []
    for first, second in pairs:
        for key in sorted(set(first.counts) | set(second.counts)):
            if first.counts.get(key) != second.counts.get(key):
                problems.append(
                    f"count {key!r} differs between two passes over the same"
                    f" inputs: {first.counts.get(key)} vs"
                    f" {second.counts.get(key)}"
                    + (" (traced)" if second.tracer else "")
                )
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(passes):
    """Set-up, rate and recovery are medians over passes of each pass's
    own figure, because a pass whose units happen to deadlock runs slowly
    until the deadlock is detected; the latency percentiles are over every
    unit of the run."""
    units = sum(p.units for p in passes)
    committed = sum(p.committed for p in passes)
    latencies = [v for p in passes for v in p.latencies_ms]
    return {
        "setup_s": statistics.median(p.setup_s for p in passes),
        "commit_per_s": statistics.median(
            p.committed / p.window_s for p in passes),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p99_ms": percentile(latencies, 99),
        "attempts_per_commit": _ratio(sum(p.attempts for p in passes),
                                      committed),
        "commit_share": _ratio(committed, units),
        "recovery_s": statistics.median(p.recovery_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def layer_metrics(result):
    """Per-layer metrics of one traced pass."""
    t, c = result.tracer, result.counts
    n = result.committed
    calls, span_s = t.calls, t.span_s
    grants = c.get("lock_grants", 0)
    storage_ops = sum(calls[f"storage.{m}"] for m in
                      ("read_object", "write_object", "create_object"))
    fetches = c.get("buffer_hits", 0) + c.get("buffer_misses", 0)
    m = {}
    for layer in LAYER_COUNTS:
        m[f"{layer}.calls_per_commit"] = _ratio(calls[layer], n)
        m[f"{layer}.self_ms_per_commit"] = _ratio(t.self_s[layer] * 1e3, n)
    m.update({
        "runtime.steps_per_commit": _ratio(c.get("steps", 0), n),
        "runtime.polls_per_commit": _ratio(calls["runtime.poll"], n),
        "locks.acquire_per_op": _ratio(calls["locks.acquire"], grants),
        "locks.blocks_per_op": _ratio(c.get("lock_blocks", 0), grants),
        "locks.fast_grant_share": _ratio(c.get("lock_fast_grants", 0), grants),
        "permits.allows_per_op": _ratio(calls["permits.allows"], grants),
        "manager.try_commit_per_commit": _ratio(calls["manager.try_commit"], n),
        "manager.delegations_per_commit": _ratio(c.get("delegations", 0), n),
        "manager.abort_ms_per_abort": _ratio(
            span_s["manager.abort"] * 1e3, calls["manager.abort"]),
        "deadlock.resolve_per_commit": _ratio(calls["deadlock.resolve_one"], n),
        "deadlock.edges_per_build": _ratio(t.edges, calls["deadlock.build_graph"]),
        "deadlock.victims": float(t.victims),
        "deadlock.undetected_stalls": float(c.get("stalls", 0)),
        "storage.buffer.hit_ratio": _ratio(c.get("buffer_hits", 0), fetches),
        "storage.buffer.misses_per_op": _ratio(c.get("buffer_misses", 0),
                                               storage_ops),
        "storage.buffer.evictions_per_op": _ratio(c.get("buffer_evictions", 0),
                                                  storage_ops),
        "storage.create_us": _ratio(span_s["storage.create_object"] * 1e6,
                                    calls["storage.create_object"]),
        "wal.appends_per_commit": _ratio(c.get("wal_records", 0), n),
        "wal.bytes_per_user_byte": _ratio(c.get("wal_bytes", 0),
                                          c.get("user_bytes", 0)),
        "wal.flushes_per_commit": _ratio(c.get("wal_flushes", 0), n),
        "fabric.msgs_per_group": _ratio(c.get("msgs", 0), n),
        "fabric.rounds_per_group": _ratio(c.get("fabric_rounds", 0), n),
        "site.ticks_per_group": _ratio(c.get("site_ticks", 0), n),
        "workflow.records_per_exec": _ratio(c.get("workflow_records", 0), n),
        "workflow.steps_per_exec": _ratio(c.get("steps_committed", 0), n),
        "workflow.compensations_per_cancel": _ratio(
            c.get("compensations", 0), c.get("cancelled", 0)),
        "driver.self_ms_per_commit": _ratio(t.driver_self_s * 1e3, n),
    })
    return m


def per_layer(untraced, traced):
    per_pass = [layer_metrics(p) for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics["trace.overhead_ratio"] = (
        sum(p.window_s for p in traced) / sum(p.window_s for p in untraced)
    )
    everything = untraced + traced
    metrics["outcome.abort_ratio"] = _ratio(
        sum(p.aborted_attempts for p in everything),
        sum(p.attempts for p in everything))
    metrics["outcome.failed_ratio"] = _ratio(
        sum(p.failed for p in everything), sum(p.units for p in everything))
    for kind in MIX_KINDS:
        samples = [v for p in untraced
                   for v in p.kind_latencies_ms.get(kind, ())]
        metrics[f"mix.{kind}_p50_ms"] = percentile(samples, 50)
        metrics[f"mix.{kind}_p99_ms"] = percentile(samples, 99)
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# the command
# ---------------------------------------------------------------------------


def run_workload(name, seed, seconds, trace, sizes=None,
                 min_samples=MIN_SAMPLES):
    """Run one workload; returns (correct, attempted, failed, metrics, notes).

    Pass ``i`` runs the inputs made from ``"{seed}/{i}"``, so a run covers
    as many distinct inputs as fit in ``seconds`` (and, untraced, at least
    ``min_samples`` latency samples, for the p99, and the workload's
    ``min_passes``; the per-layer figures need no such floors).  Untraced, one more
    pass replays the first inputs; traced, every pass is run untraced and
    then traced.  Either way the twin passes must agree on every count.
    """
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    untraced, traced = [], []
    deadline = perf_counter() + seconds
    samples = 0
    min_passes = MIN_PASSES
    if trace:
        min_samples = 0
    else:
        min_passes = getattr(cls, "min_passes", MIN_PASSES)
    while (len(untraced) < min_passes or perf_counter() < deadline
           or samples < min_samples):
        workload = cls(f"{seed}/{len(untraced)}", **(sizes or {}))
        untraced.append(run_pass(workload, traced=False))
        samples += len(untraced[-1].latencies_ms)
        if trace:
            traced.append(run_pass(workload, traced=True,
                                   keep_spans=not traced))
    if trace:
        twins = list(zip(untraced, traced))
        replays = []
    else:
        replays = [run_pass(cls(f"{seed}/0", **(sizes or {})), traced=False)]
        twins = [(untraced[0], replays[0])]
    passes = untraced + traced
    problems = [v for p in passes + replays for v in p.violations]
    problems += check_determinism(twins)
    if trace:
        metrics = per_layer(untraced, traced)
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced)
        units = END_TO_END
    notes = {"passes": len(passes) + len(replays), "problems": problems,
             "samples": samples,
             "reference_ms": [p.reference_s * 1e3 for p in passes + replays]}

    if trace:
        notes["spans"] = write_spans(name, seed, traced[0].tracer)
        notes["unattributed_ms"] = sum(
            p.tracer.unattributed_s() for p in traced) * 1e3
        notes["window_ms"] = sum(p.tracer.window_s for p in traced) * 1e3
        notes["rates"] = tuple(
            sum(p.committed for p in side) / sum(p.window_s for p in side)
            for side in (untraced, traced)
        )
    attempted = sum(p.units for p in passes)
    failed = sum(p.failed for p in passes)
    return (not problems, attempted, failed,
            {key: {"value": metrics[key], "unit": units[key]} for key in units},
            notes)


def write_spans(name, seed, tracer):
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}-seed{seed}-spans.jsonl")
    count = tracer.write_spans(path, {"workload": name, "seed": seed})
    return f"{count} spans in {os.path.relpath(path, ROOT)}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program to benchmark under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload == "all":
        # One process per workload, so that each peak_rss_mb is its own.
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__),
                            "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    correct, attempted, failed, metrics, notes = run_workload(
        args.workload, args.seed, args.seconds, args.trace
    )
    print(f"# {args.workload}: seed {args.seed}, {notes['passes']} passes,"
          f" {attempted} units attempted, {failed} failed,"
          f" {notes['samples']} latency samples")
    reference_ms = notes["reference_ms"]
    print(f"# host speed: the reference work took"
          f" {statistics.median(reference_ms):.2f} ms (median;"
          f" {min(reference_ms):.2f}-{max(reference_ms):.2f}); timings are"
          f" scaled to {REFERENCE_S * 1e3:g} ms")
    for key, metric in metrics.items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        print(f"# traced windows {notes['window_ms']:.1f} ms, of which"
              f" {notes['unattributed_ms']:.6f} ms is in no layer or the"
              f" driver; {notes['spans']}")
        print("# tracing overhead: commit_per_s %.1f untraced, %.1f traced"
              % notes["rates"])
    problems = sorted(set(notes["problems"]))
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(problems) > 20:
        print(f"CHECK FAILED: ... and {len(problems) - 20} more")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
