"""Smoke test of the benchmark harness at its smallest size.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py

Each workload runs the smallest request of every kind once, traced, in this
process; every answer must pass its check.  It takes a few seconds.
"""

import math

import pytest

import run
import session
import workloads


def smallest(requests):
    """The smallest request of every op, so each kind is called and checked once."""
    picked = {}
    for req in requests:
        if req[0] not in picked or req[1] < picked[req[0]][1]:
            picked[req[0]] = req
    return list(picked.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_kind_runs_and_passes_its_check(workload):
    requests = smallest(workloads.build(workload, 1))
    result = session.run_session(requests, "trace")
    assert result["outcomes"] == ["ok"] * len(requests)
    metrics = result["metrics"]
    assert all(metrics[layer + ".failed"] == 0 for layer in session.LAYERS)
    assert len({span[4] for span in result["spans"]}) == len(requests)


def test_request_lists_repeat_for_a_seed_and_change_with_it():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
        assert workloads.build(workload, 7) != workloads.build(workload, 8)
        assert workloads.build(workload, 7, 1) != workloads.build(workload, 7, 0)


def test_runs_pool_scaled_latencies_and_failed_requests_rank_last():
    sessions = [
        {"latencies": [0.001, 0.002, 0.010], "scales": [1.0] * 3,
         "outcomes": ["ok", "ok", "RecursionError"], "rss_mb": 10.0},
        {"latencies": [0.003, 0.001, 0.010], "scales": [0.5] * 3,
         "outcomes": ["ok", "ok", "RecursionError"], "rss_mb": 12.0},
    ]
    metrics, attempted, failed = run.summarize([sessions[:1], sessions[1:]])
    assert (attempted, failed) == (6, 2)
    assert metrics["latency_p50_ms"] == pytest.approx(1.5)
    assert metrics["latency_p90_ms"] == math.inf
    assert metrics["ops_per_s"] == pytest.approx(4 / 0.02)
    # sent twice, a request counts with its faster send
    metrics, attempted, failed = run.summarize([sessions])
    assert (attempted, failed) == (6, 2)
    assert metrics["latency_p50_ms"] == pytest.approx(1.0)
    assert metrics["ops_per_s"] == pytest.approx(2 / 0.0065)
    assert run.percentile([1.0, math.inf, 2.0], 0.9) == math.inf


def test_busy_counts_outermost_spans_only():
    spans = [
        ("tangle.statesum", 0.0, 5.0, -1, 0),
        ("tangle.state_sum", 1.0, 2.0, 0, 0),
        ("tangle.oracle", 2.0, 4.0, 0, 0),
    ]
    assert session.busy(spans, "tangle") == (5.0, 1)
    assert session.busy(spans, "tangle.oracle") == (2.0, 1)
