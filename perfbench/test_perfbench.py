"""Smoke tests of the benchmark: every workload at a tiny size, traced and
untraced, plus a check that BENCHMARK.json names exactly the metrics and
workloads the benchmark reports, and reproducers of the two defects that
make hot_nested give the two children of a unit disjoint keys.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from loop import run_closed_loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "uniform_mixed": {"units": 20, "records": 40},
    "hot_nested": {"units": 10, "keys": 32},
    "group_commit_3site": {"units": 5, "objects": 8},
    "durable_workflow": {"units": 20, "products": 4, "parked": 4},
}


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_workload(name, trace):
    correct, attempted, failed, metrics, notes = run.run_workload(
        name, seed=1, seconds=0, trace=trace, sizes=TINY[name], min_samples=0
    )
    assert correct, notes["problems"]
    assert attempted >= 1 and 0 <= failed <= attempted
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(metrics) == list(expected)
    for key, metric in metrics.items():
        assert metric["unit"] == expected[key]
        assert isinstance(metric["value"], float), key
    if not trace:
        assert metrics["commit_per_s"]["value"] > 0
        assert metrics["setup_s"]["value"] > 0


@pytest.mark.parametrize("workload", [
    *(WORKLOADS[name](1, **TINY[name]) for name in sorted(WORKLOADS)),
    # More records than buffer frames: evictions force the log through
    # the pool's callback, which must reach the traced flush too.
    WORKLOADS["uniform_mixed"](1, units=30, records=1100),
], ids=lambda workload: workload.name)
def test_traced_layers_see_callbacks(workload):
    result = run.run_pass(workload, traced=True)
    calls, counts = result.tracer.calls, result.counts
    assert calls["wal.flush"] == counts["wal_flushes"] > 0
    if "msgs_delivered" in counts:
        assert (calls["site.on_message"] + calls["console._on_client_message"]
                == counts["msgs_delivered"] > 0)


def test_benchmark_json_names_every_reported_metric():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark, exit non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = _benchmark_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.xfail(strict=True, reason="LockManager.acquire suspends the"
                   " holder's whole write lock for a permitted reader, and a"
                   " suspended lock excludes no one")
def test_permitted_read_keeps_others_out_of_an_uncommitted_write():
    stack = workloads._single_site()
    manager = stack.manager
    (x,) = workloads._populate(manager, [b"0"])
    parent = manager.initiate()
    manager.begin(parent)
    assert manager.try_write(parent, x, b"1")
    child = manager.initiate(initiator=parent)
    manager.permit(parent, tj=child)
    manager.begin(child)
    assert manager.try_read(child, x)[0]
    other = manager.initiate()
    manager.begin(other)
    granted, value = manager.try_read(other, x)
    assert not granted, f"an unrelated transaction read {value!r}, uncommitted"


@pytest.mark.xfail(strict=True, reason="DeadlockDetector.build_graph has no"
                   " edge for the wait primitive")
def test_parallel_siblings_sharing_a_key_do_not_stall():
    """The second sibling waits for the lock the parent received from the
    first, while the parent waits for the second sibling."""
    stack = workloads._single_site(seed=1)
    x, y, z, r = workloads._populate(stack.manager, [workloads._u64(0)] * 4)
    result = workloads.Pass()
    run_closed_loop(stack.runtime,
                    [(workloads._nested_unit, (r, (x, y), (y, z), True))],
                    1, lambda *__: None, result)
    assert result.counts["stalls"] == 0
