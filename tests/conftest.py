"""Shared fixtures and helpers for the test suite."""

import functools
import itertools
import random

import pytest

from lexseg import kernels
from lexseg.decompose import _add_generator, _radicals, _witness_scanner
from lexseg.filtration import _TAILS, FiltrationStep, Report, _degree_then_lex
from lexseg.monomials import (
    DimensionError,
    LexSpec,
    MonomialIdeal,
    PrimeIdeal,
    colon,
)
from lexseg.serialize import parse_monomial


@pytest.fixture(autouse=True)
def empty_tail_memo():
    """Every test starts from an empty tail memo of the filtration search
    (filtration._TAILS), so none sees the tails an earlier test stored."""
    _TAILS.clear()


def P(n, *vars):
    return PrimeIdeal.from_vars(n, vars)


def I(n, *gens):
    """Ideal from monomial strings, e.g. I(3, "x1*x2", "x2^2")."""
    return MonomialIdeal.from_gens(n, [parse_monomial(g, n) for g in gens])


def real_projective_plane():
    """The Stanley-Reisner ideal of the 6-vertex real projective plane:
    S/I is Cohen-Macaulay, of depth 3, except in characteristic 2, where
    H~_1(RP^2; GF(2)) != 0 drops the depth to 2."""
    triangles = {
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    }
    return MonomialIdeal.from_gens(
        6,
        [
            tuple(int(i in t) for i in range(1, 7))
            for t in itertools.combinations(range(1, 7), 3)
            if t not in triangles
        ],
    )


def disjoint_edges(k):
    """(x1*x2, x3*x4, ..., x_(2k-1)*x_2k), in 2k variables: the intersection
    of the 2^k primes that take one variable of each edge."""
    n = 2 * k
    return MonomialIdeal.from_gens(
        n, [tuple(int(j // 2 == i) for j in range(n)) for i in range(k)]
    )


def spec(n, d, u, v):
    return LexSpec(n, d, parse_monomial(u, n), parse_monomial(v, n))


@functools.lru_cache(maxsize=None)
def degree_monomials(n, d):
    """All degree-d monomials in n variables, lex-descending: a brute-force
    reference, the exponent vectors of the box [0, d]^n with sum d."""
    box = itertools.product(range(d + 1), repeat=n)
    return tuple(sorted((m for m in box if sum(m) == d), reverse=True))


def mon_div(a, b):
    """The exact quotient a / b; raises ValueError when b does not divide a."""
    if not kernels.divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def is_proper_subset(p, q):
    """P is properly contained in Q, for primes of one ring."""
    return set(p.vars) < set(q.vars)


def zero_ideal(n):
    return MonomialIdeal(n, ())


def ideal_sum(a, b):
    """I + J, minimalized from both generator lists."""
    if a.n != b.n:
        raise DimensionError("variable counts differ")
    return MonomialIdeal(a.n, kernels.minimalize(a.gens + b.gens))


def add_element(ideal, m):
    """I + (m). The generators of I are already minimal, so only m can be
    redundant, and only generators that m divides can become redundant."""
    m = tuple(m)
    if kernels.member(m, ideal.gens):
        return ideal
    gens = [g for g in ideal.gens if not kernels.divides(m, g)]
    gens.append(m)
    gens.sort(reverse=True)
    return MonomialIdeal(ideal.n, tuple(gens))


def k_polynomial_reference(ideal):
    """K-polynomial of S/I as {exponent tuple: coefficient}, zero terms
    dropped: the Bayer-Stillman recursion of filtration._k_polynomial on
    exponent tuples, with the same node order and memo, and no node
    limit. A reference for the packed recursion."""
    n = ideal.n
    memo = {}

    def k(gens):
        if gens in memo:
            return memo[gens]
        poly = {(0,) * n: 1}
        for i, m in enumerate(gens):
            for e, c in k(kernels.colon_gens(gens[:i], m)).items():
                e = tuple(x + y for x, y in zip(e, m))
                poly[e] = poly.get(e, 0) - c
        poly = {e: c for e, c in poly.items() if c}
        memo[gens] = poly
        return poly

    return k(ideal.gens)


def prime_filtration_reference(filtration):
    """verify_prime_filtration on MonomialIdeal values: the chain replayed
    with colon and add_element. A reference for the packed chain check."""
    violations = []
    current = filtration.base
    for k, step in enumerate(filtration.steps):
        if step.witness in current:
            violations.append(f"step {k}: witness {step.witness} already in the chain")
        elif colon(current, step.witness) != step.prime.to_ideal():
            violations.append(
                f"step {k}: colon by {step.witness} is not ({step.prime.vars})"
            )
        current = add_element(current, step.witness)
    if not current.is_unit:
        violations.append("chain does not terminate at the unit ideal")
    return Report(tuple(violations))


def add_generator_reference(n, comps, w):
    """The add-one-generator step with its redundancy filter in two
    passes: a new candidate is dropped when it contains a kept component
    or another new candidate, tested over all pairs of candidates. The
    components of J + (w) from those of J, as a list. A reference for the
    one-pass rule of decompose._add_generator."""
    def contains(c, o):
        # each power of o is a multiple of c's power at its variable
        return all(not b or 0 < a <= b for a, b in zip(c, o))

    support = [k for k in range(n) if w[k]]
    kept, rest = [], []
    for q in comps:
        if any(0 < q[k] <= w[k] for k in support):
            kept.append(q)
        else:
            rest.append(q)
    fresh = set()
    for q in rest:
        drop = set()
        for c in kept:
            fails = [i for i in range(n) if c[i] and not 0 < q[i] <= c[i]]
            if len(fails) == 1 and w[fails[0]] <= c[fails[0]]:
                drop.add(fails[0])
        fresh.update(q[:k] + (w[k],) + q[k + 1 :] for k in support if k not in drop)
    kept.extend(c for c in fresh if not any(o != c and contains(c, o) for o in fresh))
    return kept


def caps_reference(n, comps, q):
    """cap_k(q) for every k, read off its definition: the largest C_k over
    the components C != q of comps that q fails at k alone, and 0 when
    there is none, where q fails C at i when C_i > 0 and not
    0 < q_i <= C_i. A reference for decompose._caps."""
    def fails(c):
        return [i for i in range(n) if c[i] and not 0 < q[i] <= c[i]]

    return [max((c[k] for c in comps if c != q and fails(c) == [k]), default=0)
            for k in range(n)]


def components_reference(ideal):
    """decompose._components with add_generator_reference as its step, in
    the same generator order, as a set of dense exponent tuples."""
    comps = [(0,) * ideal.n]
    for g in sorted(reversed(ideal.gens), key=sum):
        comps = add_generator_reference(ideal.n, comps, g)
    return set(comps)


def candidate_primes_reference(n, comps):
    """Ass(S/J), the radicals of the irredundant components comps of J in
    n variables, ordered inclusion-maximal first, lex-smallest tuple
    first: the primes children_reference tries, in its order."""
    primes = _radicals(n, comps)
    maximal = [p for p in primes if not any(is_proper_subset(p, q) for q in primes)]
    rest = [p for p in primes if p not in maximal]
    maximal.sort(key=lambda p: p.vars)
    rest.sort(key=lambda p: (-len(p.vars), p.vars))
    return maximal + rest


def children_reference(n, comps):
    """The children of a search node with components comps, built and
    then cut: every witness of every prime of Ass(S/J), in the order of
    candidate_primes_reference and then _degree_then_lex, each child
    built with _add_generator and dropped when one of its radicals
    properly contains the step's prime (bitmasks p, r with
    p & r == p != r). A reference for filtration._children."""
    scan = _witness_scanner(n, comps)
    for prime in candidate_primes_reference(n, comps):
        p = sum(1 << (i - 1) for i in prime.vars)
        for w in sorted(scan(prime), key=_degree_then_lex):
            child = _add_generator(n, comps, w)
            radicals = {sum(1 << i for i, e in enumerate(q) if e) for q in child}
            if not any(p & r == p != r for r in radicals):
                yield FiltrationStep(w, prime), child


def ideal_as_prime(ideal):
    """The PrimeIdeal equal to this ideal, or None if it is not prime: a
    reference read off the generators, not the components."""
    if ideal.is_zero or any(sum(g) != 1 for g in ideal.gens):
        return None
    return PrimeIdeal.from_vars(ideal.n, (g.index(1) + 1 for g in ideal.gens))


def iter_box(box):
    """All monomials with exponents bounded by box, lex-descending."""
    return itertools.product(*(range(e, -1, -1) for e in box))


def witness_box(ideal):
    """The witness box of I: the lcm of its generators, the componentwise
    largest exponent (all zero for the zero ideal)."""
    return tuple(map(max, zip(*ideal.gens))) or (0,) * ideal.n


def oracle_random_ideals(seed, count):
    """Ideals shaped like the oracle benchmark's: n=4..6, 4..10 generators,
    exponents <= 3."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(4, 6)
        gens = [
            tuple(rng.randint(0, 3) for _ in range(n))
            for _ in range(rng.randint(4, 10))
        ]
        gens = [g for g in gens if any(g)]
        if gens:
            out.append(MonomialIdeal.from_gens(n, gens))
    return out


def oracle_pool():
    """The 804 pool ideals of the oracle-random benchmark workload: ideal
    k from random.Random(f"oracle-random/{k}"), n=4..6, 4..10 generators,
    exponents <= 3, redrawn while none is nonzero."""
    out = []
    for k in range(804):
        rng = random.Random(f"oracle-random/{k}")
        n = rng.randint(4, 6)
        gens = []
        while not gens:
            count = rng.randint(4, 10)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(count)]
            gens = [g for g in gens if any(g)]
        out.append(MonomialIdeal.from_gens(n, gens))
    return out


# The five hand-derived associated-prime fixtures. Each expected set was
# confirmed against the independent decomposition oracle when the suite
# was written, and the oracle cross-check is repeated in the tests.
FIXTURES = [
    ("A", 3, 2, "x1*x2", "x2*x3", [(1, 2), (1, 2, 3), (2, 3)]),
    ("B", 4, 2, "x1*x2", "x2*x4", [(1, 2), (1, 2, 3, 4), (2, 3, 4)]),
    ("C", 4, 2, "x1*x2", "x2*x3", [(2, 3, 4), (1, 2), (1, 2, 3)]),
    ("D", 4, 3, "x1*x3*x4", "x2^2*x3", [(2, 3, 4), (1, 2), (1, 2, 3), (2, 4)]),
    ("E", 5, 2, "x1*x5", "x2*x3", [(1, 2), (1, 2, 3), (2, 5), (2, 3, 5)]),
]


@pytest.fixture(params=FIXTURES, ids=[f[0] for f in FIXTURES])
def fixture_case(request):
    name, n, d, u, v, primes = request.param
    return spec(n, d, u, v), frozenset(P(n, *vars) for vars in primes)
