"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

The smoke runs start real servers and take about two minutes.  The file
name keeps the root test suite from collecting it.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import MIN_ROUNDS, Round, summarize, tail_percentile  # noqa: E402
from plan import WORKLOADS, make_plan  # noqa: E402
from tracing import LAYER_METRICS, layer_metrics  # noqa: E402

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _labels(workload):
    from repro.cli import DATASETS

    return DATASETS[workload.dataset]().labels


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_plan_is_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    labels = _labels(workload)
    a = make_plan(workload, 5, labels, rounds=50)
    b = make_plan(workload, 5, labels, rounds=50)
    c = make_plan(workload, 6, labels, rounds=50)
    assert a.digest == b.digest
    assert a.session_ids == b.session_ids
    for x, y in zip(a.round_marks, b.round_marks):
        assert np.array_equal(x, y)
    assert np.array_equal(a.round_sessions, b.round_sessions)
    assert c.digest != a.digest


def test_plan_needs_no_server(monkeypatch):
    # Generating a plan must not open a socket: requests never depend on
    # what a server says.
    def refuse(*args, **kwargs):
        raise AssertionError("plan generation opened a socket")

    monkeypatch.setattr(socket, "socket", refuse)
    monkeypatch.setattr(socket, "create_connection", refuse)
    for workload in WORKLOADS.values():
        make_plan(workload, 1, _labels(workload), rounds=20)


def test_marks_are_class_subsamples_in_balanced_blocks():
    workload = WORKLOADS["mark-20k"]
    labels = _labels(workload)
    plan = make_plan(workload, 3, labels, rounds=40)
    drawn = []
    for rows in plan.round_marks:
        assert len(rows) == workload.mark_rows == len(set(rows.tolist()))
        classes = set(labels[rows])
        assert len(classes) == 1
        drawn.append(classes.pop())
    eligible = sorted(set(drawn))
    block = len(eligible)
    for start in range(0, len(drawn) - block + 1, block):
        assert sorted(drawn[start:start + block]) == eligible


def test_sharded_sessions_land_on_every_worker():
    from repro.service.router import HashRing

    workload = WORKLOADS["ica-1k-sharded"]
    plan = make_plan(workload, 9, _labels(workload), rounds=5)
    ring = HashRing(range(workload.workers))
    owners = [ring.lookup(sid) for sid in plan.session_ids]
    assert sorted(owners) == [0, 1]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert MIN_ROUNDS == 100
    assert tail_percentile(list(range(99))) is None
    assert tail_percentile(list(range(100))) == pytest.approx(89.1)
    assert tail_percentile(list(range(40)), q=75) == pytest.approx(29.25)
    assert tail_percentile(list(range(39)), q=75) is None


def test_refused_requests_count_as_failed_and_missed_budget():
    rounds = [Round(ok=True, wall=0.1, view=0.1, requests=1)
              for _ in range(8)]
    rounds.append(Round(ok=True, wall=2.5, view=2.5, requests=1))
    rounds.append(Round(ok=False, wall=0.0, requests=2, failed_requests=1))
    summary = summarize(rounds, elapsed=10.0, extra_requests=3,
                        extra_failed=1)
    assert summary["attempted"] == 8 + 1 + 2 + 3
    assert summary["failed"] == 2
    assert summary["failed_share"] == pytest.approx(2 / 14)
    # The refused round and the 2.5 s round both miss the 2 s budget.
    assert summary["budget_met_share"] == pytest.approx(8 / 10)
    assert summary["rounds_per_s"] == pytest.approx(0.9)
    assert summary["round_trip_p90_ms"] is None


def _rounds(count):
    return [Round(ok=True, wall=0.001 * (k + 1), feedback=0.001, view=0.001,
                  requests=2)
            for k in range(count)]


def test_result_line_refuses_an_unsupported_tail():
    def line(rounds):
        summary = summarize(rounds, elapsed=1.0)
        summary["setup_s"] = summary["peak_rss_mb"] = 1.0
        return run.result_line(
            True, summary["attempted"], summary["failed"],
            {name: (summary[name], unit) for name, unit in run.E2E_METRICS},
        )

    # 99 rounds leave 9.9 beyond p90: no p90, so no result line at all.
    with pytest.raises(run.Unsupported, match="round_trip_p90_ms"):
        line(_rounds(MIN_ROUNDS - 1))
    result = json.loads(line(_rounds(MIN_ROUNDS)))
    assert result["metrics"]["round_trip_p90_ms"]["value"] == pytest.approx(
        90.1
    )


def test_layer_self_times_sum_to_the_client_time():
    rnd = Round(ok=True, wall=0.010, request_ids=["r1"],
                client_s={"r1": 0.010}, client_json_s=0.001)
    spans = [
        # sid, name, start, end, parent, rid, extra
        (0, "server.request", 0.000, 0.008, None, "r1", None),
        (1, "api.dispatch", 0.001, 0.007, 0, "r1", None),
        (2, "manager.view", 0.002, 0.006, 1, "r1", None),
        (3, "eval.row_surprise", 0.003, 0.004, 2, "r1", None),
        (4, "server.encode", 0.007, 0.0075, 0, "r1", 1234),
        (5, "server.request", 0.0, 1.0, None, "other", None),
    ]
    metrics, layers = layer_metrics(spans, [rnd], cpu_ms_per_round=5.0)
    assert metrics["server.request_ms"] == pytest.approx(8.0)
    assert metrics["client.ms"] == pytest.approx(2.0)
    assert metrics["api.self_ms"] == pytest.approx(2.0)
    assert metrics["manager.self_ms"] == pytest.approx(3.0)
    assert metrics["server.bytes_out"] == 1234
    assert metrics["unattributed_ms"] == pytest.approx(1.0)
    assert sum(layers.values()) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# The contract
# ----------------------------------------------------------------------


def test_benchmark_json_matches_the_runner():
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(
        run.E2E_METRICS
    )
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(
        LAYER_METRICS
    )


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=178,
    )


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    name = BENCHMARK["workloads"][0]["name"]
    done = _run("--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize(
    "name,trace",
    [(w["name"], 0) for w in BENCHMARK["workloads"]]
    # The traced run of the sharded workload reads the workers' timers too.
    + [("ica-1k-sharded", 1)],
)
def test_smoke_run_prints_every_metric(name, trace):
    done = _run("--workload", name, "--seed", "1", "--seconds", "1",
                "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    table = "\n".join(lines[:-1])
    assert all(line.startswith("#") for line in lines[:-1])
    names = (run.E2E_METRICS + run.REPORT_ONLY) if not trace else wanted
    for metric in names:
        metric_name, unit = (
            metric if isinstance(metric, tuple)
            else (metric["name"], metric["unit"])
        )
        assert any(metric_name in line and unit in line
                   for line in table.splitlines()), metric_name
    assert "correctness gate: passed" in table
