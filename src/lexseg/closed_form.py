"""Closed-form associated primes of lexsegment ideals.

The dispatcher normalizes a spec with reduce_fully, I = x^factor * I',
routes the working spec of I' to the matching case formula, and reads
the rest of the answer off the factor: each divided variable x_i adds the
prime (x_i), and the formula's primes shift up past the dropped leading
variables. The formulas act only on reduced specs and hard-fail
otherwise.
"""

from __future__ import annotations

from .depth import DepthClass, depth_class
from .monomials import (
    LexSpec,
    PrimeIdeal,
    SpecError,
    SpecKind,
    classify,
    max_var,
    reduce_fully,
    supp,
)


def _require_reduced(spec: LexSpec) -> None:
    if spec.b1 > 0 or spec.a1 == 0:
        raise SpecError(f"spec not reduced: a1={spec.a1}, b1={spec.b1}")


def ass_initial(spec: LexSpec) -> frozenset[PrimeIdeal]:
    """Initial segments u = x1^d: primes (x1..xj) for j in supp(v) ∪ {n}."""
    _require_reduced(spec)
    if classify(spec) not in (SpecKind.INITIAL, SpecKind.FULL_SEGMENT):
        raise SpecError("not an initial lexsegment spec")
    n = spec.n
    return frozenset(
        PrimeIdeal.span(n, 1, j) for j in set(supp(spec.v)) | {n}
    )


def ass_final(spec: LexSpec) -> frozenset[PrimeIdeal]:
    """Final segments v = xn^d with x1 | u, u != x1^d."""
    _require_reduced(spec)
    if classify(spec) != SpecKind.FINAL:
        raise SpecError("not a final lexsegment spec (or u = x1^d)")
    n = spec.n
    return frozenset({PrimeIdeal.maximal(n), PrimeIdeal.span(n, 2, n)})


def ass_depth0(spec: LexSpec) -> frozenset[PrimeIdeal]:
    """Arbitrary class, depth 0: the initial-segment primes plus (x2..xn)."""
    _require_reduced(spec)
    if classify(spec) != SpecKind.ARBITRARY:
        raise SpecError("not an arbitrary-class spec")
    case = depth_class(spec)
    if case.depth is not DepthClass.DEPTH0:
        raise SpecError(f"depth class is {case.depth}, not depth 0")
    n = spec.n
    primes = {PrimeIdeal.span(n, 1, j) for j in set(supp(spec.v)) | {n}}
    primes.add(PrimeIdeal.span(n, 2, n))
    return frozenset(primes)


def _p_jt(n: int, j: int, t: int) -> PrimeIdeal | None:
    """P_{j,t} = (x2..xj, xt..xn), defined only for 2 <= j <= t-2 <= n-2."""
    if not (2 <= j <= t - 2 and t <= n):
        return None
    return PrimeIdeal.from_vars(n, list(range(2, j + 1)) + list(range(t, n + 1)))


def ass_depth_pos(spec: LexSpec, case=None) -> frozenset[PrimeIdeal]:
    """Arbitrary class with positive depth: the four P_{j,t} formulas."""
    _require_reduced(spec)
    if classify(spec) != SpecKind.ARBITRARY:
        raise SpecError("not an arbitrary-class spec")
    if case is None:
        case = depth_class(spec)
    if case.depth not in (DepthClass.DEPTH1, DepthClass.DEPTH_GE2):
        raise SpecError(f"depth class is {case.depth}, not positive")
    n = spec.n
    l = spec.l
    sv = supp(spec.v)
    primes: set[PrimeIdeal] = {
        PrimeIdeal.span(n, 1, j) for j in sv if j != n
    }

    def add_family(t: int, jbound: int | None) -> None:
        for j in sv:
            if jbound is not None and j > jbound:
                continue
            p = _p_jt(n, j, t)
            if p is not None:
                primes.add(p)

    if case.depth is DepthClass.DEPTH1:
        primes.add(PrimeIdeal.span(n, 2, n))
        add_family(l, l - 2)
        if case.subcase == "a":
            add_family(l + 1, l - 1)
    else:
        add_family(l, None)
        if case.subcase == "a":
            add_family(l + 1, None)
    return frozenset(primes)


def associated_primes_lexsegment(spec: LexSpec) -> frozenset[PrimeIdeal]:
    """Ass(S/I) for an arbitrary lexsegment spec, via the case formulas.

    With I = x^factor * I' (reduce_fully), Ass(S/I) is the primes (x_i)
    for i in supp(factor) together with Ass(S/I') shifted past the
    spec.n - work.n dropped variables."""
    n = spec.n
    work, factor = reduce_fully(spec)
    kind = classify(work)
    if kind == SpecKind.PRINCIPAL:
        core = frozenset(
            PrimeIdeal.from_vars(work.n, (i,)) for i in supp(work.u)
        )
    elif work.d == 1:
        # a degree-1 segment (x1, ..., xk) is itself prime
        core = frozenset({PrimeIdeal.span(work.n, 1, max_var(work.v))})
    elif kind in (SpecKind.INITIAL, SpecKind.FULL_SEGMENT):
        core = ass_initial(work)
    elif kind == SpecKind.FINAL:
        core = ass_final(work)
    else:
        case = depth_class(work)
        if case.depth is DepthClass.DEPTH0:
            core = ass_depth0(work)
        else:
            core = ass_depth_pos(work, case)
    k = n - work.n
    return frozenset(
        [PrimeIdeal(n, (i,)) for i in supp(factor)] + [p.shift(k, n) for p in core]
    )
