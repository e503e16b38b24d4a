"""One benchmark session: a fresh interpreter runs one fixed request list.

    PYTHONPATH=src python bench/session.py WORKLOAD SEED PART MODE

MODE is ``plain`` (latencies only), ``trace`` (spans, counters and cache
deltas) or ``profile`` (cProfile over the timed calls only).  Every timed
call sits between two runs of the reference loop of ``speed.py``, whose
times give the call's factor to the reference speed.  The session
prints one JSON object on its last line of standard output.

The client is a closed loop: the next request goes out only after the
previous answer has come back and been checked.  A request fails if it
raises anything, RecursionError included, or if its check disagrees; no
request is ever dropped.
"""

import cProfile
import contextlib
import io
import json
import os
import pstats
import resource
import sys
import traceback
from collections import Counter
from time import perf_counter

import bigon
from bigon.hopf import coproduct_word, normal_word
from bigon.tangle import jones_wenzl

import ops
import speed
import workloads

LAYERS = ("ring", "hopf", "tangle", "braided", "qtorus", "classical", "cli")

# The public memoised functions; their cache_info() is read, nothing private.
CACHES = {
    "hopf.normal_word": normal_word,
    "hopf.coproduct_word": coproduct_word,
    "tangle.jones_wenzl": jones_wenzl,
}

# Sub-layer spans whose summed time is reported on its own.
BUSY = ("hopf", "braided", "cli", "qtorus", "classical", "tangle.state_sum", "tangle.oracle", "tangle.tl")
CALLS = ("hopf", "braided", "cli", "qtorus", "classical")
TERMS_OUT = ("hopf", "braided", "qtorus")

_PACKAGE_DIR = os.path.dirname(os.path.abspath(bigon.__file__))


class Tracer:
    """Spans (name, start, end, parent, request id) kept in memory, plus counts."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = Counter()
        self.request = -1
        self._open = [-1]

    def span(self, name):
        return _Span(self, name) if self.enabled else contextlib.nullcontext()

    def count(self, name, n=1):
        self.counts[name] += n


class _Span:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr._open.append(self.index)
        self.start = perf_counter()

    def __exit__(self, *exc):
        end = perf_counter()
        tr = self.tracer
        tr._open.pop()
        tr.spans[self.index] = (self.name, self.start, end, tr._open[-1], tr.request)
        return False


def layer_of(op):
    return op.split(".", 1)[0]


def _failing_layer(err, op):
    """The layer whose module raised: the innermost frame inside the package."""
    layer = layer_of(op)
    for frame, _ in traceback.walk_tb(err.__traceback__):
        path = frame.f_code.co_filename
        if os.path.dirname(os.path.abspath(path)) == _PACKAGE_DIR:
            layer = os.path.splitext(os.path.basename(path))[0]
    return layer


def _terms(answer):
    return len(answer.terms) if hasattr(answer, "terms") else 1


def _cache_state():
    return {name: fn.cache_info() for name, fn in CACHES.items()}


def busy(spans, prefix):
    """Summed duration and number of the outermost spans under `prefix`."""
    inside = [name == prefix or name.startswith(prefix + ".") for name, *_ in spans]
    total, calls = 0.0, 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if not inside[i]:
            continue
        while parent >= 0 and not inside[parent]:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
            calls += 1
    return total, calls


def run_session(requests, mode):
    """Run the requests in order; return latencies, outcomes and layer data."""
    tr = Tracer(enabled=mode == "trace")
    profiler = cProfile.Profile() if mode == "profile" else None
    before = _cache_state()
    latencies, outcomes, scales = [], [], []
    checked = {}  # answers that passed their check, by request
    for rid, (op, size, data) in enumerate(requests):
        spec = ops.OPS[op]
        args = spec.prepare(*data) if spec.prepare else data
        tr.request = rid
        outcome = "ok"
        caches = _cache_state() if tr.enabled else None
        reference = speed.sample()
        if profiler:
            profiler.enable()
        start = perf_counter()
        try:
            with tr.span(op):
                answer = spec.run(tr, *args)
        except Exception as err:  # every failure is counted, none ends the run
            elapsed = perf_counter() - start
            outcome = type(err).__name__
            tr.count(_failing_layer(err, op) + ".failed")
        else:
            elapsed = perf_counter() - start
        finally:
            if profiler:
                profiler.disable()
        scales.append(speed.factor(reference, speed.sample()))
        if caches:
            # only the timed call's cache traffic; the checks below use the
            # same caches, and their hits and misses are not the request's
            for name, info in _cache_state().items():
                tr.count(name + ".hits", info.hits - caches[name].hits)
                tr.count(name + ".misses", info.misses - caches[name].misses)
                tr.count(name + ".size", info.currsize - caches[name].currsize)
        if outcome == "ok":
            tr.count(layer_of(op) + ".terms_out", _terms(answer))
            # a revisit must repeat the checked answer of its first visit
            key = json.dumps([op, data])
            if key in checked:
                passed = answer == checked[key]
            else:
                try:
                    passed = spec.check(answer, *args)
                except Exception:  # a check the package cannot finish does not pass
                    passed = False
                if passed:
                    checked[key] = answer
            if not passed:
                outcome = "wrong"
                tr.count(layer_of(op) + ".failed")
        latencies.append(elapsed)
        outcomes.append(outcome)
    result = {
        "latencies": latencies,
        "scales": scales,
        "outcomes": outcomes,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_sizes": {name: info.currsize - before[name].currsize for name, info in _cache_state().items()},
        "metrics": {},
    }
    if mode == "trace":
        result["metrics"] = layer_metrics(tr)
        result["spans"] = tr.spans
    if mode == "profile":
        result["metrics"] = ring_metrics(profiler)
    return result


def layer_metrics(tr):
    m = {}
    for prefix in BUSY:
        m[prefix + ".busy_s"], calls = busy(tr.spans, prefix)
        if prefix in CALLS:
            m[prefix + ".calls"] = calls
    for layer in TERMS_OUT:
        m[layer + ".terms_out"] = tr.counts[layer + ".terms_out"]
    m["tangle.resolutions"] = tr.counts["tangle.resolutions"]
    m["qtorus.junctions"] = tr.counts["qtorus.junctions"]
    for name in CACHES:
        for field in ("hits", "misses", "size"):
            m[name + "." + field] = tr.counts[name + "." + field]
    for layer in LAYERS:
        m[layer + ".failed"] = tr.counts[layer + ".failed"]
    return m


def ring_metrics(profiler):
    """Self time of bigon.ring, gcd calls, and all profiled self time."""
    stats = pstats.Stats(profiler, stream=io.StringIO()).stats
    total = ring = 0.0
    gcd_calls = 0
    ring_file = os.path.join(_PACKAGE_DIR, "ring.py")
    for (path, _, func), (_, ncalls, tottime, _, _) in stats.items():
        total += tottime
        if os.path.abspath(path) == ring_file:
            ring += tottime
            if func == "_poly_gcd":
                gcd_calls += ncalls
    return {"ring.self_s": ring, "ring.gcd_calls": gcd_calls, "profile.self_s": total}


def main(argv):
    workload, seed, part, mode = argv
    result = run_session(workloads.build(workload, int(seed), int(part)), mode)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
