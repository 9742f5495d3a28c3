"""Benchmark the kernels and the check families of lexseg.

The first line times one lexsegment_generators call on L(x1^20,
x1^19*x8), 8 of the 888,030 monomials of degree 20 in 8 variables, in a
fresh Python process, with that process's peak RSS (ru_maxrss, the
interpreter included).

The kernel lines time divides, member, minimalize, colon_gens and
gf_rank from lexseg.kernels on fixed seeded inputs, best of 5; one more
minimalize line takes a redundant input, the 1,600 pairwise lcms of two
seeded 40-generator sets, as an intersection makes. Three more time the
packed kernels of kernels._Packing, which the intersect-back fold, the
K-polynomial and the chain check run, on the same inputs packed once
outside the timed runs: member and colon as the tuple lines call them,
and extend_minimal on the distinct lcms in ascending order, the walk of
minimalize without its sort. A depth line
times depth_exact at GF(2) and GF(32003) over every n=5, d=2
lexsegment, and the family lines time each check family of
lexseg.sweep.check_spec over the 357 n=2..4, d=2..3 specs: closed form,
oracle, filtration, depth at each prime, stanley certificate and prime
filtration verifier (verify_prime_filtration on the chains of
staged_filtration, built outside the timed runs). The digest line is the
step digest of staged_filtration on the 477 acceptance specs (n=2..4,
d=2..3 and n=5, d=2): the first 16 hex digits of the sha256 of the JSON
list, per spec, of [witness, prime.vars] per step. Equal digests mean
identical chains. The extended lines time staged_filtration,
stanley_certificate, verify_prime_filtration and depth_exact at each
prime over the 861 n=5, d=3 and n=6, d=2 specs, and depths_exact at both
primes, as check_spec asks, and depth_exact at p=2 then p=32003 one call
at a time per ideal, as the depth-betti workload asks; either way each
prime reads the cores of one box search, shared through the search memo
of the depth module. On those specs one cold depths_exact pass at both
primes gives the search counters: the nodes the box search enters, the
points of the box it reaches (leaves), the cores it keeps, the sphere
reads (closed-form reads of a sphere, the seeds' included), the cores
built as complexes and the gf_rank calls. Each timing
is the best of 3 runs, each run from empty caches. The memo lines give
the hits, misses and entries of every lru_cache after one cold
check_spec pass over the 477 acceptance specs, the one-entry
_components memo among them. The oracle-random family line times
irreducible_decomposition plus associated_primes_oracle over the 804
pool ideals of the perfbench oracle-random workload (read from
perfbench/workloads.py, which is only imported), best of 3 cold, and
counts the folds (_components memo misses) and memo hits of its last
run; the pool depth line times depths_exact at (2, 3, 32003) over the
same ideals, best of 3 cold, with the cores the search keeps and builds
and the digest of the rows, per ideal, of the sorted (p, depth) pairs. The decomposition lines time _components alone, from a cleared
memo, over the 804 pool ideals and the ideals of the 1,596 n=6, d=3
specs, best of 3. The intersect-back lines time the check of
irreducible_decomposition (_intersection) alone, on folds made
beforehand, best of 3, next to the fold (_components from a cleared
memo, best of 3), with the candidate lcms the check forms (the
candidates it hands to _Packing.extend_minimal), on the 804 pool
ideals, on 10 and 11 disjoint edges (x1*x2, x3*x4, ...; 1,024 and
2,048 components) and on L(x1^63, x3^63) (2,016 components). The
oracle digest line is the first 16 hex digits of
the sha256 of the JSON list, per pool ideal, of [sorted component
powers, [[prime.vars, witness] per oracle prime]]; equal digests mean
identical components, primes and witnesses. The depth digest line is
the first 16 hex digits of the sha256 of the JSON list, per ideal, of
[depth_exact(I, 2), depth_exact(I, 32003)], over the ideals of the
1,338 specs n=2..4, d=2..3 (357), n=5, d=2 (120), n=5, d=3 (630) and
n=6, d=2 (231), in that order and each range in iter_specs order, then
the 804 pool ideals; equal digests mean identical depths. The n=6, d=3
lines time depths_exact at both primes over those 1,596 specs, best of
3 cold, with the depth digest of the range (the recipe above), then
one cold staged_filtration pass over those 1,596 specs, print its step
digest (the recipe above), and count, in a second pass, the nodes the
search enters (_children calls) and the children it builds
(_child calls). The wide-range lines run depths_exact at both primes,
one cold pass, over all 2,485 n=5, d=4 specs and over every 5th n=7,
d=3 spec in iter_specs order (714), each with its depth digest (the
recipe above), which tier-1 pins too, and the cores it builds. The
past-the-lattice line times depths_exact at both primes on
L(x1*x6*x9^2, x4*x5*x6*x7), n=9, d=4, best of 3 cold, with the nodes
the search enters. The full-segment line times one
staged_filtration of L(x1^25, x3^25), best of 3, with its step digest.
The last line is the line count of src/lexseg/*.py and its non-blank,
non-comment lines outside docstrings, the source size the ROADMAP
tracks.

Run:  python3 benchmarks/bench_kernels.py
"""

import ast
import glob
import hashlib
import json
import os
import random
import subprocess
import sys
import time

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "perfbench"))

from lexseg import (  # noqa: E402
    closed_form,
    decompose,
    depth,
    filtration,
    kernels,
    monomials,
)
from lexseg.monomials import lexsegment_generators  # noqa: E402
from lexseg.sweep import DEFAULT_PRIMES, check_spec, iter_specs  # noqa: E402
from workloads import ORACLE_POOL, oracle_gens  # noqa: E402


def make_inputs(seed=1):
    rng = random.Random(seed)
    mons = [tuple(rng.randint(0, 4) for _ in range(5)) for _ in range(400)]
    gens = tuple(mons[:40])
    # sparse rows {column: entry}, as gf_rank takes them
    mats = [
        [{j: rng.randint(0, 32002) for j in range(30)} for _ in range(30)]
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
    lcms = tuple(
        tuple(max(x, y) for x, y in zip(g, h)) for g in gens for h in mons[40:80]
    )
    bench(
        "minimalize(1,600 lcms) x 5",
        lambda: [kernels.minimalize(lcms) for _ in range(5)],
    )
    bench("colon_gens x 400", lambda: [kernels.colon_gens(gens, m) for m in mons])
    bench(
        "gf_rank(30x30, p=32003) x 5",
        lambda: [kernels.gf_rank(mat, 32003) for mat in mats],
    )
    # the packed forms on the same inputs, packed once; every exponent and
    # every colon quotient is at most 4
    packing = kernels._Packing(5, 4)
    pmons, pgens = [*map(packing.pack, mons)], [*map(packing.pack, gens)]
    plcms = sorted(set(map(packing.pack, lcms)))
    bench("_Packing.member x 400", lambda: [packing.member(m, pgens) for m in pmons])
    bench(
        "_Packing.extend_minimal x 5",
        lambda: [packing.extend_minimal([], plcms) for _ in range(5)],
    )
    bench("_Packing.colon x 400", lambda: [packing.colon(pgens, m) for m in pmons])


def memos():
    """{name: function} of every lru_cache in the lexseg modules."""
    found = {}
    for module in (closed_form, decompose, depth, filtration, monomials):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                found[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return found


def clear_caches():
    for fn in memos().values():
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


def stanley_cases(filtrations, ideals):
    """(ideal, Stanley decomposition) per filtration, the certificate's
    inputs."""
    return [
        (ideal, filtration.stanley_decomposition(f))
        for f, ideal in zip(filtrations, ideals)
    ]


def sweep_families():
    specs = list(iter_specs((2, 4), (2, 3)))
    ideals = [lexsegment_generators(s) for s in specs]
    chains = [filtration.staged_filtration(s) for s in specs]
    decompositions = stanley_cases(chains, ideals)
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
    families["prime filtration verifier"] = lambda: [
        filtration.verify_prime_filtration(f) for f in chains
    ]
    print(f"check families, {len(specs)} n=2..4 d=2..3 specs, best of 3, cold caches:")
    for name, run in families.items():
        print(f"  {name:<28} {best_cold(run):8.3f} s")


def acceptance_specs():
    return list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))


def memo_lines():
    specs = acceptance_specs()
    clear_caches()
    for s in specs:
        check_spec(s)
    print(f"memos after one check_spec pass, {len(specs)} acceptance specs:")
    for name, fn in sorted(memos().items()):
        info = fn.cache_info()
        print(f"  {name:<36} hits {info.hits:7}  misses {info.misses:7}  "
              f"entries {info.currsize:7}")


def chain_digest(filtrations):
    chains = [
        [[list(step.witness), list(step.prime.vars)] for step in f.steps]
        for f in filtrations
    ]
    return hashlib.sha256(json.dumps(chains).encode()).hexdigest()[:16]


def step_digest():
    specs = acceptance_specs()
    digest = chain_digest(map(filtration.staged_filtration, specs))
    print(f"staged_filtration step digest, {len(specs)} acceptance specs: {digest}")


def n6_d3_search():
    specs = list(iter_specs((6, 6), (3, 3)))
    clear_caches()
    t0 = time.perf_counter()
    found = [filtration.staged_filtration(s) for s in specs]
    seconds = time.perf_counter() - t0
    print(f"staged_filtration, {len(specs)} n=6 d=3 specs, one cold pass: "
          f"{seconds:.3f} s, step digest {chain_digest(found)}")
    counts = dict.fromkeys(("nodes entered", "children built"), 0)
    children, child = filtration._children, filtration._child

    def counting_children(n, comps):
        counts["nodes entered"] += 1
        return children(n, comps)

    def counting_child(*args):
        counts["children built"] += 1
        return child(*args)

    filtration._children, filtration._child = counting_children, counting_child
    try:
        for s in specs:
            filtration.staged_filtration(s)
    finally:
        filtration._children, filtration._child = children, child
    print("search counts, same specs:")
    for name, count in counts.items():
        print(f"  {name:<28} {count:8}")


def past_the_lattice():
    spec = monomials.LexSpec(9, 4, (1, 0, 0, 0, 0, 1, 0, 0, 2), (0, 0, 0, 1, 1, 1, 1, 0, 0))
    ideal = lexsegment_generators(spec)
    best = best_cold(lambda: depth.depths_exact(ideal, DEFAULT_PRIMES))
    found = depth.depths_exact(ideal, DEFAULT_PRIMES)
    nodes = depth._search(ideal, (depth.BOX_NODE_LIMIT, depth.KOSZUL_SUPPORT_LIMIT))[3]
    print(f"depths_exact at both primes, L(x1*x6*x9^2, x4*x5*x6*x7), "
          f"{len(ideal.gens)} generators, best of 3: {best:.3f} s, depths {found}, "
          f"{nodes} nodes entered")


def full_segment():
    spec = monomials.LexSpec(3, 25, (25, 0, 0), (0, 0, 25))
    best = best_cold(lambda: filtration.staged_filtration(spec))
    found = filtration.staged_filtration(spec)
    print(f"staged_filtration, L(x1^25, x3^25), {len(found.steps)} steps, best of 3: "
          f"{best:.3f} s, step digest {chain_digest([found])}")


NARROW_SEGMENT = """
import resource, time
from lexseg.monomials import LexSpec, lexsegment_generators
spec = LexSpec(8, 20, (20,) + (0,) * 7, (19,) + (0,) * 6 + (1,))
t0 = time.perf_counter()
gens = lexsegment_generators(spec).gens
seconds = time.perf_counter() - t0
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"lexsegment_generators, L(x1^20, x1^19*x8), {len(gens)} generators, "
      f"fresh process: {seconds * 1e6:.0f} us, peak RSS {peak:.1f} MB")
"""


def narrow_segment():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", NARROW_SEGMENT], env=env, check=True)


def oracle_family():
    ideals = [
        monomials.MonomialIdeal.from_gens(*oracle_gens(k)) for k in range(ORACLE_POOL)
    ]

    def run():
        for ideal in ideals:
            decompose.irreducible_decomposition(ideal)
            decompose.associated_primes_oracle(ideal)

    best = best_cold(run)
    info = decompose._components.cache_info()
    print(f"oracle-random family, decomposition + oracle, {len(ideals)} pool ideals: "
          f"{best:.3f} s, {info.misses} folds, {info.hits} memo hits")
    rows = [
        [
            sorted([list(pe) for pe in c.powers]
                   for c in decompose.irreducible_decomposition(ideal)),
            [[list(p.vars), list(w)]
             for p, w in decompose.associated_primes_oracle(ideal).witnesses],
        ]
        for ideal in ideals
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    print(f"oracle digest, {len(ideals)} pool ideals: {digest}")
    primes = (2, 3, 32003)
    best = best_cold(lambda: [depth.depths_exact(i, primes) for i in ideals])
    rows = [sorted(depth.depths_exact(i, primes).items()) for i in ideals]
    counts = search_counts(lambda: [depth.depths_exact(i, primes) for i in ideals])
    print(f"depths_exact at {primes}, {len(ideals)} pool ideals: {best:.3f} s, "
          f"{counts['cores kept']} cores kept, {counts['cores built']} built, "
          f"row digest {rows_digest(rows)}")


def decomposition_lines():
    pool = [
        monomials.MonomialIdeal.from_gens(*oracle_gens(k)) for k in range(ORACLE_POOL)
    ]
    n6 = [lexsegment_generators(s) for s in iter_specs((6, 6), (3, 3))]
    print("decomposition (_components), best of 3, memo cleared:")
    for label, ideals in (("pool ideals", pool), ("n=6 d=3 ideals", n6)):
        best = best_cold(lambda ideals=ideals: list(map(decompose._components, ideals)))
        print(f"  {len(ideals):5} {label:<22} {best:8.3f} s")


def disjoint_edges(k):
    """(x1*x2, x3*x4, ..., x_(2k-1)*x_2k) in 2k variables: 2^k components."""
    n = 2 * k
    return monomials.MonomialIdeal.from_gens(
        n, [tuple(int(j // 2 == i) for j in range(n)) for i in range(k)]
    )


def intersect_back_lines():
    pool = [
        monomials.MonomialIdeal.from_gens(*oracle_gens(k)) for k in range(ORACLE_POOL)
    ]
    full = lexsegment_generators(monomials.LexSpec(3, 63, (63, 0, 0), (0, 0, 63)))
    cases = (
        ("pool ideals", pool),
        ("10 disjoint edges", [disjoint_edges(10)]),
        ("11 disjoint edges", [disjoint_edges(11)]),
        ("L(x1^63, x3^63)", [full]),
    )
    print("intersect-back check (_intersection) on a made fold, best of 3, "
          "next to the fold (_components, memo cleared), best of 3:")
    extend = kernels._Packing.extend_minimal
    for label, ideals in cases:
        fold = best_cold(lambda ideals=ideals: list(map(decompose._components, ideals)))
        folds = [(i.n, decompose._components(i)) for i in ideals]
        check = min(
            timeit(lambda: [decompose._intersection(*f) for f in folds]) for _ in range(3)
        )
        lcms = 0

        def counting(packing, kept, candidates):
            nonlocal lcms
            lcms += len(candidates)
            return extend(packing, kept, candidates)

        kernels._Packing.extend_minimal = counting
        try:
            for f in folds:
                decompose._intersection(*f)
        finally:
            kernels._Packing.extend_minimal = extend
        print(f"  {label:<22} fold {fold:7.3f} s  check {check:7.3f} s  "
              f"{lcms:8} lcms")


def extended_range():
    specs = list(iter_specs((5, 5), (3, 3))) + list(iter_specs((6, 6), (2, 2)))

    def run():
        for s in specs:
            filtration.staged_filtration(s)

    best = best_cold(run)
    print(f"staged_filtration, {len(specs)} n=5 d=3 and n=6 d=2 specs: {best:.3f} s")
    chains = [filtration.staged_filtration(s) for s in specs]
    cases = stanley_cases(chains, [lexsegment_generators(s) for s in specs])

    def certify():
        for case in cases:
            filtration.stanley_certificate(*case)

    best = best_cold(certify)
    print(f"stanley_certificate, {len(specs)} n=5 d=3 and n=6 d=2 specs: {best:.3f} s")
    best = best_cold(lambda: [filtration.verify_prime_filtration(f) for f in chains])
    print(f"verify_prime_filtration, same specs: {best:.3f} s")
    extended_depth(cases)


def extended_depth(cases):
    ideals = [ideal for ideal, _ in cases]
    for p in DEFAULT_PRIMES:
        best = best_cold(lambda p=p: [depth.depth_exact(i, p) for i in ideals])
        print(f"depth_exact p={p}, {len(ideals)} n=5 d=3 and n=6 d=2 specs: "
              f"{best:.3f} s")
    best = best_cold(lambda: [depth.depths_exact(i, DEFAULT_PRIMES) for i in ideals])
    print(f"depths_exact at both primes, same specs: {best:.3f} s")
    best = best_cold(
        lambda: [depth.depth_exact(i, p) for i in ideals for p in DEFAULT_PRIMES]
    )
    print(f"depth_exact at p=2 then p=32003 per ideal, same specs: {best:.3f} s")
    counts = search_counts(lambda: [depth.depths_exact(i, DEFAULT_PRIMES) for i in ideals])
    print("one depths_exact pass at both primes on the same specs:")
    for name, count in counts.items():
        print(f"  {name:<28} {count:8}")


def search_counts(run):
    """The box search counters of run() from empty caches: nodes entered
    (from each search's memo entry), leaves (_leaf calls), cores kept,
    sphere reads (_betti on a sphere), cores built (_faces_by_size calls)
    and gf_rank calls."""
    counts = dict.fromkeys(("nodes entered", "leaves", "cores kept", "sphere reads",
                            "cores built", "gf_rank calls"), 0)
    search, leaf, betti = depth._search, depth._leaf, depth._betti
    build, rank = depth._faces_by_size, kernels.gf_rank

    def counting_search(ideal, limits):
        entry = search(ideal, limits)
        if search.cache_info().misses > counting_search.misses:
            counting_search.misses += 1
            counts["nodes entered"] += entry[3]
            counts["cores kept"] += len(entry[2])
        return entry

    counting_search.misses = 0
    counting_search.cache_clear = search.cache_clear

    def counting_leaf(masks, h):
        counts["leaves"] += 1
        return leaf(masks, h)

    def counting_betti(core, p):
        counts["sphere reads"] += core.sphere
        return betti(core, p)

    def counting_build(facets):
        counts["cores built"] += 1
        return build(facets)

    def counting_rank(rows, p):
        counts["gf_rank calls"] += 1
        return rank(rows, p)

    clear_caches()
    depth._search, depth._leaf, depth._betti = counting_search, counting_leaf, counting_betti
    depth._faces_by_size, kernels.gf_rank = counting_build, counting_rank
    try:
        run()
    finally:
        depth._search, depth._leaf, depth._betti = search, leaf, betti
        depth._faces_by_size, kernels.gf_rank = build, rank
        clear_caches()
    return counts


def rows_digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def n6_d3_depth():
    ideals = [lexsegment_generators(s) for s in iter_specs((6, 6), (3, 3))]
    best = best_cold(lambda: [depth.depths_exact(i, DEFAULT_PRIMES) for i in ideals])
    rows = [list(depth.depths_exact(i, DEFAULT_PRIMES).values()) for i in ideals]
    print(f"depths_exact at both primes, {len(ideals)} n=6 d=3 specs: {best:.3f} s, "
          f"depth digest {rows_digest(rows)}")


def wide_depth():
    ranges = (
        ("n=5 d=4", list(iter_specs((5, 5), (4, 4)))),
        ("every 5th n=7 d=3", list(iter_specs((7, 7), (3, 3)))[::5]),
    )
    build = depth._faces_by_size
    for label, specs in ranges:
        ideals = [lexsegment_generators(s) for s in specs]
        built = 0

        def counting_build(facets):
            nonlocal built
            built += 1
            return build(facets)

        clear_caches()
        depth._faces_by_size = counting_build
        try:
            t0 = time.perf_counter()
            rows = [list(depth.depths_exact(i, DEFAULT_PRIMES).values()) for i in ideals]
            seconds = time.perf_counter() - t0
        finally:
            depth._faces_by_size = build
            clear_caches()
        print(f"depths_exact at both primes, {len(ideals)} {label} specs, one cold pass: "
              f"{seconds:.3f} s, depth digest {rows_digest(rows)}, {built} cores built")


def depth_digest():
    specs = [
        s
        for n, d in (((2, 4), (2, 3)), ((5, 5), (2, 2)), ((5, 5), (3, 3)), ((6, 6), (2, 2)))
        for s in iter_specs(n, d)
    ]
    ideals = [lexsegment_generators(s) for s in specs] + [
        monomials.MonomialIdeal.from_gens(*oracle_gens(k)) for k in range(ORACLE_POOL)
    ]
    rows = [[depth.depth_exact(i, 2), depth.depth_exact(i, 32003)] for i in ideals]
    print(f"depth digest, {len(specs)} specs and {ORACLE_POOL} pool ideals: "
          f"{rows_digest(rows)}")


def source_lines():
    """(lines, non-blank non-comment lines outside docstrings) of
    src/lexseg/*.py; a docstring is the leading string of a module, class
    or function."""
    total = code = 0
    for path in glob.glob(os.path.join(SRC, "lexseg", "*.py")):
        with open(path) as fh:
            text = fh.read()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and (
                ast.get_docstring(node, clean=False) is not None
            ):
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        lines = text.splitlines()
        total += len(lines)
        code += sum(
            1 for k, line in enumerate(lines, 1)
            if k not in docs and line.strip() and not line.lstrip().startswith("#")
        )
    return total, code


def main():
    # first, while this process is small: ru_maxrss counts the peak of the
    # forked copy of this process too
    narrow_segment()
    kernel_lines()
    depth_layer()
    sweep_families()
    memo_lines()
    step_digest()
    oracle_family()
    decomposition_lines()
    intersect_back_lines()
    extended_range()
    depth_digest()
    n6_d3_depth()
    n6_d3_search()
    wide_depth()
    past_the_lattice()
    full_segment()
    total, code = source_lines()
    print(f"src/lexseg/*.py: {total} lines, {code} outside docstrings, "
          "blanks and comments")


if __name__ == "__main__":
    main()
