#!/usr/bin/env python3
"""Write digests.json: the digest of each printed result on the default seed.

    python3 perfbench/record_digests.py [workload ...]

Runs the first DIGEST_ITEMS items of each workload with the checks on and
refuses to write when any item fails.  Rerun it only when a change of the
printed results is intended, and say so where the change is recorded.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import signal
import sys

import run


def main(names):
    data = {}
    if os.path.exists(run.DIGESTS):
        with open(run.DIGESTS, encoding="utf-8") as fh:
            data = json.load(fh)
    signal.signal(signal.SIGALRM, run._alarm)
    for name in names or run.WORKLOADS:
        workload = importlib.import_module("workloads." + name)
        hv, state, _ = run.set_up(workload, run.DEFAULT_SEED)
        items = list(itertools.islice(workload.items(state, run.DEFAULT_SEED), workload.DIGEST_ITEMS))
        results = []

        def keep(hv_, state_, item, _run=workload.run):
            result = _run(hv_, state_, item)
            results.append(workload.show(result))
            return result

        records, _ = run.run_items(workload, hv, state, items, runner=keep)
        failed = [r for r in records if not r["ok"]]
        if failed:
            sys.exit("%s: %d items failed, first: %s" % (name, len(failed), failed[0]))
        data[name] = [run.digest(text) for text in results]
        with open(run.DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=0)
            fh.write("\n")
        print("%s: %d digests" % (name, len(results)))


if __name__ == "__main__":
    run.fix_hash_seed()
    main(sys.argv[1:])
