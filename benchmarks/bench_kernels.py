"""Benchmark the kernels and the check families of lexseg.

The kernel lines time divides, member, minimalize, colon_gens and gf_rank
from lexseg.kernels on fixed seeded inputs, best of 5. A depth line
times depth_exact at GF(2) and GF(32003) over every n=5, d=2
lexsegment, and the family lines time each check family of
lexseg.sweep.check_spec over the 357 n=2..4, d=2..3 specs: closed form,
oracle, filtration, depth at each prime and stanley certificate. The
digest line is the step digest of staged_filtration on the 477
acceptance specs (n=2..4, d=2..3 and n=5, d=2): the first 16 hex digits
of the sha256 of the JSON list, per spec, of [witness, prime.vars] per
step. Equal digests mean identical chains. The extended lines time
staged_filtration, stanley_certificate and depth_exact at each prime
over the 861 n=5, d=3 and n=6, d=2 specs, and count the gf_rank calls
of one cold depth_exact pass at both primes. Each timing is the best
of 3 runs, each run from empty caches. The last line is the line count
of src/lexseg/*.py, the source size the ROADMAP tracks.

Run:  python3 benchmarks/bench_kernels.py
"""

import glob
import hashlib
import json
import os
import random
import sys
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, SRC)

from lexseg import (  # noqa: E402
    closed_form,
    decompose,
    depth,
    filtration,
    kernels,
    monomials,
)
from lexseg.monomials import lexsegment_generators  # noqa: E402
from lexseg.sweep import DEFAULT_PRIMES, iter_specs  # noqa: E402


def make_inputs(seed=1):
    rng = random.Random(seed)
    mons = [tuple(rng.randint(0, 4) for _ in range(5)) for _ in range(400)]
    gens = tuple(mons[:40])
    mats = [
        [[rng.randint(0, 32002) for _ in range(30)] for _ in range(30)]
        for _ in range(5)
    ]
    return mons, gens, mats


def bench(label, fn, repeats=5):
    best = min(timeit(fn) for _ in range(repeats))
    print(f"  {label:<28} {best * 1000:8.2f} ms")


def timeit(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def kernel_lines():
    mons, gens, mats = make_inputs()
    print("kernels, best of 5:")
    bench(
        "divides x 400 x 40",
        lambda: [kernels.divides(g, m) for m in mons for g in gens],
    )
    bench("member x 400", lambda: [kernels.member(m, gens) for m in mons])
    bench(
        "minimalize(40 gens) x 50",
        lambda: [kernels.minimalize(gens) for _ in range(50)],
    )
    bench("colon_gens x 400", lambda: [kernels.colon_gens(gens, m) for m in mons])
    bench(
        "gf_rank(30x30, p=32003) x 5",
        lambda: [kernels.gf_rank(mat, 32003) for mat in mats],
    )


def clear_caches():
    for module in (closed_form, decompose, depth, filtration, monomials):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def best_cold(run, repeats=3):
    """Best of repeats runs of run(), each from empty caches."""

    def cold():
        clear_caches()
        return timeit(run)

    return min(cold() for _ in range(repeats))


def depth_layer():
    ideals = [lexsegment_generators(s) for s in iter_specs((5, 5), (2, 2))]

    def run():
        for ideal in ideals:
            for p in (2, 32003):
                depth.depth_exact(ideal, p)

    best = best_cold(run)
    print(f"depth_exact, p=2 and 32003, {len(ideals)} n=5 d=2 specs: {best:.3f} s")


def stanley_cases(specs, ideals):
    """(ideal, Stanley decomposition) per spec, the certificate's inputs."""
    return [
        (ideal, filtration.stanley_decomposition(filtration.staged_filtration(s)))
        for s, ideal in zip(specs, ideals)
    ]


def sweep_families():
    specs = list(iter_specs((2, 4), (2, 3)))
    ideals = [lexsegment_generators(s) for s in specs]
    decompositions = stanley_cases(specs, ideals)
    families = {
        "closed form": lambda: [
            closed_form.associated_primes_lexsegment(s) for s in specs
        ],
        "oracle": lambda: [decompose.associated_primes_oracle(i) for i in ideals],
        "filtration": lambda: [filtration.staged_filtration(s) for s in specs],
    }
    for p in DEFAULT_PRIMES:
        families[f"depth p={p}"] = lambda p=p: [depth.depth_exact(i, p) for i in ideals]
    families["stanley certificate"] = lambda: [
        filtration.stanley_certificate(*c) for c in decompositions
    ]
    print(f"check families, {len(specs)} n=2..4 d=2..3 specs, best of 3, cold caches:")
    for name, run in families.items():
        print(f"  {name:<28} {best_cold(run):8.3f} s")


def step_digest():
    specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
    chains = [
        [[list(step.witness), list(step.prime.vars)] for step in f.steps]
        for f in map(filtration.staged_filtration, specs)
    ]
    digest = hashlib.sha256(json.dumps(chains).encode()).hexdigest()[:16]
    print(f"staged_filtration step digest, {len(specs)} acceptance specs: {digest}")


def extended_range():
    specs = list(iter_specs((5, 5), (3, 3))) + list(iter_specs((6, 6), (2, 2)))

    def run():
        for s in specs:
            filtration.staged_filtration(s)

    best = best_cold(run)
    print(f"staged_filtration, {len(specs)} n=5 d=3 and n=6 d=2 specs: {best:.3f} s")
    cases = stanley_cases(specs, [lexsegment_generators(s) for s in specs])

    def certify():
        for case in cases:
            filtration.stanley_certificate(*case)

    best = best_cold(certify)
    print(f"stanley_certificate, {len(specs)} n=5 d=3 and n=6 d=2 specs: {best:.3f} s")
    extended_depth(cases)


def extended_depth(cases):
    ideals = [ideal for ideal, _ in cases]
    for p in DEFAULT_PRIMES:
        best = best_cold(lambda p=p: [depth.depth_exact(i, p) for i in ideals])
        print(f"depth_exact p={p}, {len(ideals)} n=5 d=3 and n=6 d=2 specs: "
              f"{best:.3f} s")
    rank = kernels.gf_rank
    calls = 0

    def counting(rows, p):
        nonlocal calls
        calls += 1
        return rank(rows, p)

    clear_caches()
    kernels.gf_rank = counting
    try:
        for ideal in ideals:
            for p in DEFAULT_PRIMES:
                depth.depth_exact(ideal, p)
    finally:
        kernels.gf_rank = rank
    print(f"gf_rank calls, depth_exact at both primes on the same specs: {calls}")


def source_lines():
    total = 0
    for path in glob.glob(os.path.join(SRC, "lexseg", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def main():
    kernel_lines()
    depth_layer()
    sweep_families()
    step_digest()
    extended_range()
    print(f"src/lexseg/*.py: {source_lines()} lines")


if __name__ == "__main__":
    main()
