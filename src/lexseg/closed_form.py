"""Closed-form associated primes of lexsegment ideals.

The dispatcher normalizes a spec with reduce_fully, I = x^factor * I',
classifies the working spec of I' once and reads its case formula in
place, then the rest of the answer off the factor: each divided variable
x_i adds the prime (x_i), and the formula's primes shift up past the
dropped leading variables.
"""

from __future__ import annotations

from .depth import DepthCase, DepthClass, depth_class
from .monomials import (
    LexSpec,
    PrimeIdeal,
    SpecKind,
    classify,
    max_var,
    reduce_fully,
    supp,
)


def _positive_depth(work: LexSpec, case: DepthCase) -> set[PrimeIdeal]:
    """The arbitrary class with positive depth: (x1..xj) for j in
    supp(v) - {n}, (x2..xn) at depth 1, and P_{j,t} = (x2..xj, xt..xn)
    for j in supp(v) with 2 <= j <= t - 2, t <= n, at t = l and, in
    subcase a, at t = l + 1."""
    n, l, sv = work.n, work.l, supp(work.v)
    primes = {PrimeIdeal.span(n, 1, j) for j in sv if j != n}
    if case.depth is DepthClass.DEPTH1:
        primes.add(PrimeIdeal.span(n, 2, n))
    for t in (l, l + 1) if case.subcase == "a" else (l,):
        if t <= n:
            primes.update(
                PrimeIdeal(n, (*range(2, j + 1), *range(t, n + 1)))
                for j in sv
                if 2 <= j <= t - 2
            )
    return primes


def associated_primes_lexsegment(spec: LexSpec) -> frozenset[PrimeIdeal]:
    """Ass(S/I) for an arbitrary lexsegment spec, via the case formulas.

    With I = x^factor * I' (reduce_fully), Ass(S/I) is the primes (x_i)
    for i in supp(factor) together with Ass(S/I') shifted past the
    spec.n - work.n dropped variables. The working spec has a1 >= 1 and
    b1 = 0, or u = v. Initial segments u = x1^d give (x1..xj) for j in
    supp(v) + {n}, final segments v = xn^d give the maximal ideal and
    (x2..xn), and the arbitrary class at depth 0 gives the initial
    primes and (x2..xn)."""
    n = spec.n
    work, factor = reduce_fully(spec)
    m, kind = work.n, classify(work)
    if kind == SpecKind.PRINCIPAL:
        core = {PrimeIdeal(m, (i,)) for i in supp(work.u)}
    elif work.d == 1:
        # a degree-1 segment (x1, ..., xk) is itself prime
        core = {PrimeIdeal.span(m, 1, max_var(work.v))}
    elif kind == SpecKind.FINAL:
        core = {PrimeIdeal.maximal(m), PrimeIdeal.span(m, 2, m)}
    else:
        case = depth_class(work) if kind == SpecKind.ARBITRARY else None
        if case is None or case.depth is DepthClass.DEPTH0:
            core = {PrimeIdeal.span(m, 1, j) for j in {*supp(work.v), m}}
            if case is not None:
                core.add(PrimeIdeal.span(m, 2, m))
        else:
            core = _positive_depth(work, case)
    k = n - m
    return frozenset(
        [PrimeIdeal(n, (i,)) for i in supp(factor)] + [p.shift(k, n) for p in core]
    )
