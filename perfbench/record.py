"""Record a workload's expected answers and cut it into balanced shards.

    python3 perfbench/record.py --workload oracle-random --groups 4 --shards 3 --passes 3

Writes ``perfbench/data/<workload>.json``: for every item key the digest of
its answers and a reference cost, plus the groups of shards that benchmark
rounds run.  A run covers one group (picked by the seed); each round runs
one shard of it in a fresh process.

Pass 1 runs every item in one fresh process.  Every later pass runs each
shard in its own fresh process, as a benchmark round does, and the
reference cost of an item is its mean host-scaled time over those passes.
After each pass the items are re-cut, first into groups and then each
group into shards, so that the parts have the same number of items and
about the same spread of costs (see ``cut``).  Balanced parts make the
rounds of a run, and the runs of different seeds, do comparable work.

Digests must agree between passes.  Run this only on a commit whose answers
are trusted: the digests become the benchmark's answer check.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def worker(workload, group, shard=0):
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        "--seed=0",
        f"--group={group}",
        f"--shard={shard}",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["failures"]:
        raise SystemExit(f"answer checks failed in group {group} shard {shard}: {out['failures']}")
    return out


def reference_ms(out) -> list[float]:
    """Host-scaled item times of a worker result, in ms."""
    return [t * 1e3 for t in calibrate.scale(out["times_ns"], out["slices"])]


def cut(costs: dict, count: int) -> list[list[str]]:
    """Shards with the same cost profile: every block of `count` items
    adjacent in cost rank is dealt one item per shard, its most expensive
    item to the shard with the least cost so far."""
    order = list(costs)
    ranked = sorted(order, key=lambda k: -costs[k])
    shards = [[] for _ in range(count)]
    loads = [0.0] * count
    for start in range(0, len(ranked), count):
        block = ranked[start : start + count]
        lightest = sorted(range(count), key=lambda i: loads[i])
        for key, i in zip(block, lightest):
            shards[i].append(key)
            loads[i] += costs[key]
    position = {key: n for n, key in enumerate(order)}
    return [sorted(s, key=position.get) for s in shards]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--groups", type=int, default=1)
    parser.add_argument("--shards", type=int, default=1, help="shards per group")
    parser.add_argument("--passes", type=int, default=3)
    args = parser.parse_args(argv)

    first = worker(args.workload, -1)
    digests = first["digests"]
    costs = dict(zip(first["keys"], reference_ms(first)))
    samples: dict[str, list[float]] = {key: [] for key in costs}
    path = HERE / "data" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    for n in range(args.passes):
        groups = [cut({k: costs[k] for k in g}, args.shards) for g in cut(costs, args.groups)]
        data = {
            "workload": args.workload,
            "backend": first["backend"],
            "python": platform.python_version(),
            "items": {key: {"digest": digests[key], "ref_ms": round(costs[key], 3)} for key in first["keys"]},
            "groups": groups,
        }
        path.write_text(json.dumps(data, indent=1) + "\n")
        if n == args.passes - 1:
            break
        loads = []
        for g, shards in enumerate(groups):
            for j in range(len(shards)):
                out = worker(args.workload, g, j)
                for key, t in zip(out["keys"], reference_ms(out)):
                    samples[key].append(t)
                loads.append(round(out["loop_ns"] / 1e9, 2))
        costs = {key: statistics.mean(v) for key, v in samples.items()}
        print(f"pass {n + 2}: shard seconds {loads}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
