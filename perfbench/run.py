#!/usr/bin/env python3
"""Benchmark of the heisvir package: seeded exact queries, timed and checked.

    python3 perfbench/run.py --workload straighten --seed 1 --seconds 25 --trace 0

One client runs one query at a time (a closed loop) in this process, or, for
the ``cli`` workload, one ``python -m heisvir.cli`` process per query.  Each
query is timed from outside the package; its answer is then checked against
an oracle with the clock stopped.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a fixed,
seeded list of items runs twice, untraced and then under the layer tracer,
and the metrics are the per-layer ones.  The line before it holds the run
record: seed, commit, Python version, core count and every item's class,
size, latency and verdict.

The package is imported from ``src/`` of the checkout this file sits in; the
run fails without printing a result when it is not there.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import types

from common import ROOT, ItemTimeout, Mismatch
from tracing import Tracer

WORKLOADS = ("straighten", "search", "checks", "cli")
DEFAULT_SEED = 0
SETUP_REPEATS = 7
ITEM_BUDGET_S = 10.0
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")
PACKAGE_MODULES = ("algebra", "pbw", "modules", "linsearch", "criteria", "expr", "params", "cli")


def import_package():
    """Import heisvir afresh from the checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "heisvir" or m.startswith("heisvir.")]:
        del sys.modules[name]
    src = os.path.join(ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    importlib.invalidate_caches()
    pkg = importlib.import_module("heisvir")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != src:
        raise ImportError("heisvir was not imported from %s" % src)
    hv = types.SimpleNamespace(pkg=pkg)
    for name in PACKAGE_MODULES:
        setattr(hv, name, importlib.import_module("heisvir." + name))
    return hv


def fix_hash_seed():
    """Re-execute under PYTHONHASHSEED=0: set order, and so every operation count, then repeats."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv, dict(os.environ, PYTHONHASHSEED="0"))


def set_up(workload, seed):
    """Import and set up several times; the last set-up is kept, the median time reported."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        hv = import_package()
        state = workload.setup(hv, seed)
        times.append(time.perf_counter() - t0)
    return hv, state, statistics.median(times)


def _alarm(signum, frame):
    raise ItemTimeout("item exceeded %.0f s" % ITEM_BUDGET_S)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_items(workload, hv, state, items, seconds=None, runner=None, tracer=None, digests=None):
    """Closed loop over ``items``: time each one, then check it with the clock stopped.

    Stops after ``seconds`` of timed work when given, else after the last item.
    """
    runner = runner or workload.run
    records = []
    timed = 0.0
    for i, item in enumerate(items):
        error = None
        signal.setitimer(signal.ITIMER_REAL, ITEM_BUDGET_S)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = runner(hv, state, item)
            else:
                result = tracer.item(runner, hv, state, item)
        except ItemTimeout as exc:
            error = "timeout: %s" % exc
        except Exception as exc:  # a failing query is counted, and the run goes on
            error = "%s: %s" % (type(exc).__name__, exc)
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        timed += elapsed
        if error is None:
            try:
                workload.check(hv, state, item, result)
                if digests is not None and i < len(digests) and digest(workload.show(result)) != digests[i]:
                    raise Mismatch("printed result differs from the committed digest")
            except Mismatch as exc:
                error = "wrong: %s" % exc
            except Exception as exc:  # the oracle could not confirm the answer
                error = "check raised %s: %s" % (type(exc).__name__, exc)
        records.append({"i": i, "class": item.cls, "size": item.size, "ms": elapsed * 1000.0, "ok": error is None, "error": error})
        if seconds is not None and timed >= seconds:
            break
    return records, timed


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(records, timed, setup_s):
    latencies = [r["ms"] for r in records]
    completed = sum(r["ok"] for r in records)
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (completed / timed, "items/s"),
        "item_ms_p50": (percentile(latencies, 0.5), "ms"),
        "item_ms_p90": (percentile(latencies, 0.9), "ms"),
        "ok_rate": (completed / len(records), "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload, hv, state, seed, seconds, digests):
    """Untraced then traced pass over one fixed list of items."""
    count = max(1, int(round(seconds * workload.TRACE_ITEMS_PER_SECOND)))
    items = list(itertools.islice(workload.items(state, seed), count))
    runner = getattr(workload, "run_in_process", workload.run)
    plain, plain_s = run_items(workload, hv, state, items, runner=runner, digests=digests)
    tracer = Tracer(hv)
    traced, traced_s = run_items(workload, hv, state, items, runner=runner, tracer=tracer, digests=digests)
    values = tracer.metrics()
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    if hasattr(workload, "layer_metrics"):
        values.update(workload.layer_metrics(hv, state, items))
    else:
        values.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0, "cli.command_ms": 0.0})
    units = {}
    for name in values:
        if name.endswith(".calls") or name in ("pbw.output_terms", "linsearch.matrix_cells"):
            units[name] = "count"
        elif name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_frac"):
            units[name] = "fraction"
        else:
            units[name] = "s"
    metrics = {name: (value, units[name]) for name, value in values.items()}
    return plain + traced, metrics


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_digests(name, seed):
    if seed != DEFAULT_SEED or not os.path.exists(DIGESTS):
        return None
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh).get(name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = importlib.import_module("workloads." + args.workload)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        hv, state, setup_s = set_up(workload, args.seed)
    except ImportError as exc:
        print("error: cannot import heisvir from %s: %s" % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    gc.freeze()  # collections then skip the modules and objects set-up left behind
    digests = load_digests(args.workload, args.seed)
    if args.trace:
        records, metrics = per_layer(workload, hv, state, args.seed, args.seconds, digests)
    else:
        items = workload.items(state, args.seed)
        records, timed = run_items(workload, hv, state, items, seconds=args.seconds, digests=digests)
        metrics = end_to_end(records, timed, setup_s)
    failed = sum(not r["ok"] for r in records)
    run_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "error_rate": failed / len(records),
        "items": records,
    }
    print(json.dumps({"run": run_record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    fix_hash_seed()
    sys.exit(main())
