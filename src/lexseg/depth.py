"""Depth of S/I: a lex-criterion classifier for lexsegment ideals and an
independent exact oracle via multigraded Betti numbers over a prime field.

The oracle route: for b in the lcm lattice of the minimal generators,
beta_{i,b}(I) is the rank of reduced homology H~_{i-1} of the upper
Koszul complex K^b(I) (Hochster's formula; Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 1 and 5), and depth(S/I) =
n - 1 - pd(I) by Auslander-Buchsbaum. Only pd(I) = max{i : beta_{i,b} != 0}
is needed, so depth_exact searches for it instead of building the whole
Betti table. K^b(I) lives on the simplex on supp(b): it is either that
whole simplex, which is acyclic, or has dimension at most |supp b| - 2, so
over every field beta_{i,b} != 0 implies i <= |supp b| - 1. The search
visits the lattice by decreasing |supp b| and stops at the first b whose
bound cannot beat the best index found so far.

At each visited b only the Betti numbers that could raise the best are
read. K^b is the full simplex exactly when its top face supp(b) is in it,
that is when x^(b - 1_supp b) lies in I; such a b is skipped with one
membership test, before K^b is built. Otherwise i runs from |supp b| - 1
down to best + 1, with beta_{i,b} = f_{i-1} - rk d_{i-1} - rk d_i (f_j
faces of dimension j, d_j the boundary map out of dimension j over GF(p),
each rank computed once per b), and stops at the first nonzero one.
Characteristic is a parameter (any prime below 2^31) so the sweep can
cross-check two primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import isqrt

from . import kernels
from .monomials import (
    DomainError,
    LexSpec,
    Monomial,
    MonomialIdeal,
    SpecError,
    SpecKind,
    classify,
    supp,
    variable,
)

# Largest lcm lattice, in monomials, that lcm_lattice() will build.
LCM_LATTICE_LIMIT = 1 << 16
# Every characteristic p lies below this: it bounds the trial division in
# _require_prime.
CHARACTERISTIC_LIMIT = 1 << 31
# Largest |supp b| whose 2^|supp b| subsets upper_koszul_complex() will scan.
KOSZUL_SUPPORT_LIMIT = 16


class DepthClass(Enum):
    DEPTH0 = 0
    DEPTH1 = 1
    DEPTH_GE2 = 2


@dataclass(frozen=True)
class DepthCase:
    depth: DepthClass
    subcase: str | None  # "a" (a_l < d-1) or "b" (a_l = d-1); None for depth 0


def depth_class(spec: LexSpec) -> DepthCase:
    """Classify depth(S/I) for a reduced arbitrary-class spec.

    depth 0 iff xn*u >=_lex x1*v; otherwise depth 1 versus depth > 1 by
    the shape of v relative to x2^(d-1)*xj and the position l of the
    second variable of u.
    """
    if classify(spec).kind != SpecKind.ARBITRARY:
        raise SpecError("depth classifier only applies to arbitrary-class specs")
    if spec.b1 > 0 or spec.a1 == 0:
        raise SpecError("spec must be reduced (x1 | u, x1 does not divide v)")
    n, d = spec.n, spec.d
    xn_u = list(spec.u)
    xn_u[n - 1] += 1
    x1_v = list(spec.v)
    x1_v[0] += 1
    if tuple(xn_u) >= tuple(x1_v):
        return DepthCase(DepthClass.DEPTH0, None)
    # positive depth forces u = x1 * xl^al * ... (a1 = 1)
    l = spec.l
    assert l is not None and spec.a1 == 1
    a_l = spec.a_l
    sub = "a" if a_l < d - 1 else "b"
    # v = x2^(d-1) * xj shape?
    j_shape = None
    for j in range(2, n + 1):
        shape = list(variable(n, 2, d - 1))
        shape[j - 1] += 1
        if spec.v == tuple(shape):
            j_shape = j
            break
    depth1 = False
    if j_shape is not None and 2 <= j_shape <= n - 2 and j_shape >= l - 1:
        depth1 = True
    threshold = list(variable(n, 2, d - 1))
    threshold[n - 2] += 1  # x2^(d-1) * x_{n-1}
    if spec.v <= tuple(threshold):
        depth1 = True
    ge2 = j_shape is not None and 2 <= j_shape <= n - 2 and l >= j_shape + 2
    if depth1 == ge2:
        raise SpecError(
            f"depth-1 and depth>1 criteria disagree on {spec}: {depth1}, {ge2}"
        )
    return DepthCase(DepthClass.DEPTH1 if depth1 else DepthClass.DEPTH_GE2, sub)


# ---------------------------------------------------------------------------
# exact depth via upper Koszul complexes


@dataclass(frozen=True)
class SimplicialComplex:
    """A simplicial complex on a subset of {1..n}, stored as its face set.

    faces contains every face including the empty set when present; the
    family is closed under subsets by construction.
    """

    vertices: tuple[int, ...]
    faces: frozenset[frozenset[int]]


@lru_cache(maxsize=None)
def upper_koszul_complex(ideal: MonomialIdeal, b: Monomial) -> SimplicialComplex:
    """K^b(I): squarefree sets sigma ⊆ supp(b) with x^b / x^sigma in I,
    built as the subsets of the facets {i : g_i < b_i} over the generators
    g that divide b.

    Raises DomainError, before building, when |supp b| is over
    KOSZUL_SUPPORT_LIMIT.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")
    verts = supp(b)
    _require_support(len(verts))
    facets = {
        tuple(i for i, (x, y) in enumerate(zip(g, b), 1) if x < y)
        for g in ideal.gens
        if kernels.divides(g, b)
    }
    faces = set()
    for facet in facets:
        for r in range(len(facet) + 1):
            faces.update(map(frozenset, combinations(facet, r)))
    return SimplicialComplex(verts, frozenset(faces))


def _require_support(size: int) -> None:
    """Raises DomainError when |supp b| = size is over KOSZUL_SUPPORT_LIMIT."""
    if size > KOSZUL_SUPPORT_LIMIT:
        raise DomainError(
            f"|supp b| = {size} is over KOSZUL_SUPPORT_LIMIT = "
            f"{KOSZUL_SUPPORT_LIMIT}"
        )


def _betti_from_top(complex: SimplicialComplex, p: int, above: int):
    """Yields (i, rank H~_{i-1}(complex) over GF(p)) for i = |vertices| - 1
    down to above + 1, each pair only when asked for.

    rank H~_{i-1} = f_{i-1} - rk d_{i-1} - rk d_i, where f_j counts the
    faces of dimension j and d_j is the boundary map out of dimension j;
    each rank is computed at most once.
    """
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for f in complex.faces:
        by_size.setdefault(len(f), []).append(tuple(sorted(f)))
    ranks: dict[int, int] = {}

    def rank(k: int) -> int:
        """Rank of the boundary map from k-element to (k-1)-element faces."""
        if k not in ranks:
            upper, lower = by_size.get(k, ()), by_size.get(k - 1, ())
            index = {f: j for j, f in enumerate(lower)}
            rows = []
            for f in upper:
                row = [0] * len(lower)
                for j in range(k):
                    row[index[f[:j] + f[j + 1 :]]] = 1 if j % 2 == 0 else -1
                rows.append(row)
            ranks[k] = kernels.gf_rank(rows, p) if rows and lower else 0
        return ranks[k]

    for i in range(len(complex.vertices) - 1, above, -1):
        yield i, len(by_size.get(i, ())) - rank(i) - rank(i + 1)


@lru_cache(maxsize=None)
def lcm_lattice(ideal: MonomialIdeal) -> frozenset[Monomial]:
    """lcms of nonempty generator subsets, adding one generator at a time.

    Raises DomainError as soon as the lattice holds more than
    LCM_LATTICE_LIMIT monomials.
    """
    lattice: set[Monomial] = set()
    for g in ideal.gens:
        lattice |= {tuple(map(max, b, g)) for b in lattice}
        lattice.add(g)
        if len(lattice) > LCM_LATTICE_LIMIT:
            raise DomainError(
                f"lcm lattice has more than LCM_LATTICE_LIMIT = "
                f"{LCM_LATTICE_LIMIT} elements"
            )
    return frozenset(lattice)


def _require_prime(p) -> None:
    """Raises DomainError unless p is a prime below CHARACTERISTIC_LIMIT,
    the characteristic of GF(p). The limit is tested before the trial
    division, so that never runs past sqrt(CHARACTERISTIC_LIMIT)."""
    if isinstance(p, int) and p >= CHARACTERISTIC_LIMIT:
        raise DomainError(
            f"characteristic {p} is not below CHARACTERISTIC_LIMIT = "
            f"{CHARACTERISTIC_LIMIT}"
        )
    if not (
        isinstance(p, int) and p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))
    ):
        raise DomainError(f"characteristic {p!r} is not a prime")


@lru_cache(maxsize=None)
def depth_exact(ideal: MonomialIdeal, p: int = 32003) -> int:
    """depth(S/I) = n - 1 - pd(I), with pd(I) found over GF(p), p prime.

    Visits b in the lcm lattice by decreasing |supp b| (then decreasing
    lex) and stops at the first b with |supp b| - 1 <= best, since
    beta_{i,b} = 0 for i > |supp b| - 1. A visited b with x^(b - 1_supp b)
    in I has the full simplex as K^b(I), which is acyclic, and is skipped
    without building it; at any other, beta_{i,b} is read from
    i = |supp b| - 1 down to best + 1, up to the first nonzero one.

    Raises DomainError when the first visited b, of the largest support,
    is over KOSZUL_SUPPORT_LIMIT.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")
    _require_prime(p)
    best = 0  # beta_0 = number of generators > 0
    # |supp b| = len(b) - b.count(0)
    order = sorted(((len(b) - b.count(0), b) for b in lcm_lattice(ideal)), reverse=True)
    for size, b in order:
        if size - 1 <= best:
            break
        _require_support(size)
        if kernels.member(tuple(y - (y > 0) for y in b), ideal.gens):
            continue  # supp b is a face, so K^b is the full simplex: acyclic
        for i, beta in _betti_from_top(upper_koszul_complex(ideal, b), p, best):
            if beta:
                best = i
                break
    return ideal.n - 1 - best
