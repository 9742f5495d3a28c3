"""One round of a workload in a fresh interpreter.

Started by run.py (and record.py), never by hand.  It imports lexseg from
the checkout's ``src/``, builds the round's inputs, times each item, then
checks the answers with tracing removed and prints one JSON object.

Note: ``lexseg.sweep`` is the *function* re-exported by the package, not
the module, so modules are always looked up with importlib.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("monomials", "kernels", "decompose", "depth", "filtration", "closed_form", "sweep")


def round_keys(args, data):
    keys = list(data["groups"][args.group][args.shard])
    random.Random(f"{args.seed}/{args.round}").shuffle(keys)
    return keys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, default=0)
    parser.add_argument("--group", type=int, default=0, help="-1: every key, unchecked (recording)")
    parser.add_argument("--shard", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    import calibrate
    import workloads

    mods = {name: importlib.import_module(f"lexseg.{name}") for name in MODULES}
    mods["lexseg"] = importlib.import_module("lexseg")
    workload = workloads.WORKLOADS[args.workload]
    if args.group < 0:
        expected = None
        keys = workload.keys()
    else:
        data = workloads.load_data(args.workload)
        expected = data["items"]
        keys = round_keys(args, data)
    inputs = [workload.make_input(mods, key) for key in keys]

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(mods)
    capture = workload.capture(mods)
    first_item_ns = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    # calibration slices as (index of the next item, ns)
    slices = [(0, calibrate.slice_ns())]
    if args.setup_only:
        print(json.dumps({"first_item_ns": first_item_ns, "slices": slices}))
        return 0

    times_ns, raws, logs, errors = [], [], [], {}
    clock = time.perf_counter_ns
    since_slice = 0
    loop_start = clock()
    for i, (key, inp) in enumerate(zip(keys, inputs)):
        if since_slice >= calibrate.CALIBRATE_EVERY_NS:
            slices.append((i, calibrate.slice_ns()))
            since_slice = 0
        start = clock()
        try:
            if tracer is None:
                raw = workload.run(mods, inp)
            else:
                raw = tracer.item(workload.run, mods, inp)
        except Exception as exc:  # an item that raises is a failed item
            raw = None
            errors[key] = f"{type(exc).__name__}: {exc}"
        times_ns.append(clock() - start)
        since_slice += times_ns[-1]
        raws.append(raw)
        logs.append(capture.take() if capture else [])
    loop_ns = clock() - loop_start
    slices.append((len(keys), calibrate.slice_ns()))
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    result = {
        "first_item_ns": first_item_ns,
        "keys": keys,
        "times_ns": times_ns,
        "slices": slices,
        "loop_ns": loop_ns,
        "peak_rss_mb": peak_rss_kb / 1024,
        "backend": mods["lexseg"].BACKEND,
    }
    if capture:
        capture.uninstall()
    if tracer is not None:
        result["caches"] = tracer.cache_snapshot()
        tracer.uninstall()
        result["trace"] = tracer.totals()
        if args.spans_out:
            tracer.dump_spans(args.spans_out)

    digests, failures = {}, {}
    for key, inp, raw, log in zip(keys, inputs, raws, logs):
        if key in errors:
            failures[key] = [errors[key]]
            continue
        try:
            payload, problems = workload.answer(mods, inp, raw, log)
        except Exception as exc:  # a check that cannot run is a failed check
            failures[key] = [f"answer check raised {type(exc).__name__}: {exc}"]
            continue
        digests[key] = workloads.digest(payload)
        if expected is not None and digests[key] != expected[key]["digest"]:
            problems = problems + [f"answer digest {digests[key]} != recorded {expected[key]['digest']}"]
        if problems:
            failures[key] = problems
    result["digests"] = digests
    result["failures"] = failures
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
