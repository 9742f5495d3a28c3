"""lexseg benchmark: one workload, one seed, printed as one JSON line.

    python3 perfbench/run.py --workload sweep-acceptance --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Work is done in rounds; each round is a
fresh interpreter (worker.py) that runs one recorded shard of the workload
in an order drawn from the seed, so every round starts with the empty
``lru_cache``s a ``lexseg`` CLI user starts with.  The seed also picks which
recorded group of shards the run covers.

--trace 0  untraced rounds until --seconds are used, with at least the
           workload's minimum of rounds and 200 items; prints the
           end-to-end metrics, in host-scaled time (see calibrate.py).
--trace 1  traced rounds for half of --seconds (at least one), then each
           traced round replayed untraced; prints the per-layer metrics,
           including trace_overhead_frac = traced / untraced time - 1.

The last line of standard output is the result object; the lines before it
are a readable table.  The full result, with unscaled times, and the spans
of a traced run are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
MIN_ITEMS = 200
HARD_LIMIT_S = 165

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SELF_TIMES = ("filtration.search", "decompose.oracle", "depth.exact")
LAYER_CALLS = ("filtration.search", "decompose.decomposition", "decompose.oracle", "depth.exact")

PER_LAYER = {f"{layer}.s": "s" for layer in tracer.LAYERS}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in SELF_TIMES})
PER_LAYER.update({f"{layer}.calls": "count" for layer in LAYER_CALLS})
PER_LAYER.update(
    {
        "filtration.search.oracle_calls": "count",
        "filtration.search.colon_per_step": "calls/step",
        "decompose.oracle.cache_hit_ratio": "ratio",
    }
)
PER_LAYER.update({f"{cache}.cache_entries": "count" for cache in tracer.CACHES})
for _k in tracer.KERNELS:
    PER_LAYER.update({f"kernels.{_k}.calls": "count", f"kernels.{_k}.s": "s", f"kernels.{_k}.ns_per_call": "ns"})
PER_LAYER.update({"unattributed_s": "s", "trace_overhead_frac": "ratio"})


class RoundFailed(RuntimeError):
    pass


def monotonic_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Bench:
    def __init__(self, args):
        self.args = args
        self.start_ns = monotonic_ns()
        self.data = workloads.load_data(args.workload)
        # the seed picks the group; round r runs shard r of it, cyclically
        self.group = args.seed % len(self.data["groups"])
        self.shards = self.data["groups"][self.group]

    def remaining_s(self) -> float:
        return HARD_LIMIT_S - (monotonic_ns() - self.start_ns) / 1e9

    def round(self, round_index: int, trace: int, setup_only=False) -> dict:
        """One round: a fresh worker process on one shard."""
        args = self.args
        shard = round_index % len(self.shards)
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            f"--workload={args.workload}",
            f"--seed={args.seed}",
            f"--round={round_index}",
            f"--group={self.group}",
            f"--shard={shard}",
            f"--trace={trace}",
        ]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append(f"--spans-out={OUT / f'spans-{args.workload}-seed{args.seed}-round{round_index}.jsonl'}")
        spawn_ns = monotonic_ns()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=max(self.remaining_s(), 1))
        except subprocess.TimeoutExpired as exc:
            raise RoundFailed(f"round {round_index} exceeded the {HARD_LIMIT_S} s run limit") from exc
        if proc.returncode != 0:
            raise RoundFailed(f"round {round_index} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["round"], out["shard"], out["traced"] = round_index, shard, trace
        out["setup_s"] = (out["first_item_ns"] - spawn_ns) / 1e9
        if "times_ns" in out:
            out["scaled_s"] = calibrate.scale(out["times_ns"], out["slices"])
        return out

    def rounds(self, trace: int, window_s: float, min_rounds: int, min_items: int) -> list[dict]:
        """Run rounds until the minimums are met and the next round would
        overrun the window (or the hard limit)."""
        done: list[dict] = []
        begin = monotonic_ns()
        while True:
            done.append(self.round(len(done), trace))
            elapsed = (monotonic_ns() - begin) / 1e9
            per_round = elapsed / len(done)
            items = sum(len(r["keys"]) for r in done)
            enough = len(done) >= min_rounds and items >= min_items
            if (enough and elapsed + per_round > window_s) or per_round > self.remaining_s():
                return done


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(rounds, probes, scaled=True) -> dict:
    """The end-to-end metrics, in host-scaled time unless scaled=False."""
    if scaled:
        times = [r["scaled_s"] for r in rounds]
        setup_scale = calibrate.factor([ns for r in probes for _, ns in r["slices"]])
    else:
        times = [[t / 1e9 for t in r["times_ns"]] for r in rounds]
        setup_scale = 1.0
    times_ms = sorted(t * 1e3 for ts in times for t in ts)
    return {
        "items_per_s": statistics.median(len(ts) / sum(ts) for ts in times),
        "item_p50_ms": statistics.median(times_ms),
        "item_p95_ms": percentile(times_ms, 95),
        "setup_s": statistics.median(r["setup_s"] for r in probes) * setup_scale,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }


def per_layer(traced, replays) -> dict:
    k = len(traced)
    totals = [r["trace"] for r in traced]

    def total(field, name=None):
        return sum(t[field] if name is None else t[field][name] for t in totals)

    m = {}
    for layer in tracer.LAYERS:
        m[f"{layer}.s"] = total("layer_ns", layer) / k / 1e9
    for layer in SELF_TIMES:
        m[f"{layer}.self_s"] = total("layer_self_ns", layer) / k / 1e9
    for layer in LAYER_CALLS:
        m[f"{layer}.calls"] = total("layer_calls", layer) / k
    m["filtration.search.oracle_calls"] = total("search_oracle_calls") / k
    steps = total("search_steps")
    m["filtration.search.colon_per_step"] = total("search_colon_calls") / steps if steps else 0.0
    hits = sum(r["caches"].get("decompose.oracle", {}).get("hits", 0) for r in traced)
    misses = sum(r["caches"].get("decompose.oracle", {}).get("misses", 0) for r in traced)
    m["decompose.oracle.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    for cache in tracer.CACHES:
        m[f"{cache}.cache_entries"] = sum(r["caches"].get(cache, {}).get("entries", 0) for r in traced) / k
    for name in tracer.KERNELS:
        calls, ns = total("kernel_calls", name), total("kernel_ns", name)
        m[f"kernels.{name}.calls"] = calls / k
        m[f"kernels.{name}.s"] = ns / k / 1e9
        m[f"kernels.{name}.ns_per_call"] = ns / calls if calls else 0.0
    m["unattributed_s"] = total("unattributed_ns") / k / 1e9
    traced_s = sum(sum(r["scaled_s"]) for r in traced)
    untraced_s = sum(sum(r["scaled_s"]) for r in replays)
    m["trace_overhead_frac"] = traced_s / untraced_s - 1
    return m


def answer_digest(rounds) -> str:
    lines = sorted({f"{key}={d}" for r in rounds for key, d in r["digests"].items()})
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def recorded_digest(items, rounds) -> str:
    keys = {key for r in rounds for key in r["keys"]}
    lines = sorted(f"{key}={items[key]['digest']}" for key in keys)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lexseg" / "__init__.py").is_file():
        print(f"no lexseg sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # the build step: byte-compile once, as an installed package would be
    compileall.compile_dir(ROOT / "src", quiet=2)
    compileall.compile_dir(HERE, quiet=2, maxlevels=0)
    OUT.mkdir(exist_ok=True)
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }

    bench = Bench(args)
    try:
        if args.trace:
            traced = bench.rounds(1, args.seconds / 2, 1, 0)
            replays = [bench.round(r["round"], 0) for r in traced]
            rounds = traced + replays
            metrics = per_layer(traced, replays)
            unscaled = None
            units = PER_LAYER
        else:
            probes = [bench.round(0, 0, setup_only=True) for _ in range(SETUP_PROBES)]
            min_rounds = workloads.WORKLOADS[args.workload].min_rounds
            rounds = bench.rounds(0, args.seconds, min_rounds, MIN_ITEMS)
            metrics = end_to_end(rounds, probes)
            unscaled = end_to_end(rounds, probes, scaled=False)
            units = END_TO_END
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())
    env["backend"] = sorted({r["backend"] for r in rounds})
    if env["backend"] != [bench.data["backend"]]:
        print(f"# WARNING: backend {env['backend']} differs from the recorded {bench.data['backend']!r};"
              " do not compare these numbers with runs on another backend")

    attempted = sum(len(r["keys"]) for r in rounds)
    failures = [(r["round"], key, problems) for r in rounds for key, problems in r["failures"].items()]
    digest, recorded = answer_digest(rounds), recorded_digest(bench.data["items"], rounds)

    print(f"# lexseg benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env {json.dumps(env)}")
    for r in rounds:
        print(
            f"# round {r['round']} shard {r['shard']} trace {r['traced']}: {len(r['keys'])} items,"
            f" {r['loop_ns'] / 1e9:.3f} s wall, {sum(r['scaled_s']):.3f} s scaled, setup {r['setup_s']:.3f} s,"
            f" rss {r['peak_rss_mb']:.1f} MB"
        )
    for name, value in metrics.items():
        print(f"# {name:<40} {value:>16.6g} {units[name]}")
    if unscaled:
        print("# unscaled wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    print(f"# failed_frac {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(f"# answer digest {digest}, recorded {recorded}: {'match' if digest == recorded else 'MISMATCH'}")
    for rnd, key, problems in failures[:10]:
        print(f"# FAILED round {rnd} item {key}: {'; '.join(problems)[:300]}")

    result = {
        "correct": not failures and digest == recorded,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record = dict(result, env=env, unscaled=unscaled, digest=digest, failures=failures, rounds=[
        {key: r[key] for key in ("round", "shard", "traced", "loop_ns", "slices", "setup_s", "peak_rss_mb")}
        for r in rounds
    ])
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
