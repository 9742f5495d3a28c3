"""Depth of S/I: a lex-criterion classifier for lexsegment ideals and an
independent exact oracle via multigraded Betti numbers over a prime field.

The oracle route: for b in the lcm lattice of the minimal generators,
beta_{i,b}(I) is the rank of reduced homology H~_{i-1} of the upper
Koszul complex K^b(I) (Hochster's formula; Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 1 and 5), and depth(S/I) =
n - 1 - pd(I) by Auslander-Buchsbaum. Only pd(I) = max{i : beta_{i,b} != 0}
is needed, so depth_exact searches for it instead of building the whole
Betti table. K^b(I) lives on the simplex on supp(b): it is either that
whole (acyclic) simplex or has dimension at most |supp b| - 2, so over
every field beta_{i,b} != 0 implies i <= |supp b| - 1. The search visits
the lattice by decreasing |supp b| and stops at the first b whose bound
cannot beat the best index found so far. Characteristic is a parameter
(any prime) so the sweep can cross-check two primes.
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
    mon_lcm,
    supp,
    variable,
)

# Largest lcm lattice, in monomials, that lcm_lattice() will build.
LCM_LATTICE_LIMIT = 1 << 16
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
    """K^b(I): squarefree sets sigma ⊆ supp(b) with x^b / x^sigma in I.

    Raises DomainError, before scanning, when |supp b| is over
    KOSZUL_SUPPORT_LIMIT.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")
    verts = supp(b)
    if len(verts) > KOSZUL_SUPPORT_LIMIT:
        raise DomainError(
            f"|supp b| = {len(verts)} is over KOSZUL_SUPPORT_LIMIT = "
            f"{KOSZUL_SUPPORT_LIMIT}"
        )
    faces = set()
    for r in range(len(verts) + 1):
        for sigma in combinations(verts, r):
            quot = list(b)
            for i in sigma:
                quot[i - 1] -= 1
            if tuple(quot) in ideal:
                faces.add(frozenset(sigma))
    return SimplicialComplex(verts, frozenset(faces))


def homology_ranks(complex: SimplicialComplex, p: int) -> list[int]:
    """Reduced homology ranks over GF(p), indexed from dimension -1.

    Returns [rank H~_{-1}, rank H~_0, rank H~_1, ...].
    """
    by_dim: dict[int, list[tuple[int, ...]]] = {}
    for f in complex.faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    if not by_dim:
        return [0]
    top = max(by_dim)
    for faces in by_dim.values():
        faces.sort()

    # rank of boundary map from dimension i to i-1
    def boundary_rank(i: int) -> int:
        if i <= -1 or i not in by_dim or (i - 1) not in by_dim:
            return 0
        lower = {f: k for k, f in enumerate(by_dim[i - 1])}
        rows = []
        for f in by_dim[i]:
            row = [0] * len(lower)
            for k in range(len(f)):
                facet = f[:k] + f[k + 1 :]
                row[lower[facet]] = 1 if k % 2 == 0 else -1
            rows.append(row)
        return kernels.gf_rank(rows, p)

    ranks = {i: boundary_rank(i) for i in range(top + 2)}
    out = []
    for i in range(-1, top + 1):
        f_i = len(by_dim.get(i, ()))
        out.append(f_i - ranks.get(i, 0) - ranks.get(i + 1, 0))
    return out


@lru_cache(maxsize=None)
def lcm_lattice(ideal: MonomialIdeal) -> frozenset[Monomial]:
    """lcms of nonempty generator subsets, adding one generator at a time.

    Raises DomainError as soon as the lattice holds more than
    LCM_LATTICE_LIMIT monomials.
    """
    lattice: set[Monomial] = set()
    for g in ideal.gens:
        lattice |= {mon_lcm(b, g) for b in lattice}
        lattice.add(g)
        if len(lattice) > LCM_LATTICE_LIMIT:
            raise DomainError(
                f"lcm lattice has more than LCM_LATTICE_LIMIT = "
                f"{LCM_LATTICE_LIMIT} elements"
            )
    return frozenset(lattice)


def _require_prime(p) -> None:
    """Raises DomainError unless p is a prime, the characteristic of GF(p)."""
    if not (
        isinstance(p, int) and p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))
    ):
        raise DomainError(f"characteristic {p!r} is not a prime")


@lru_cache(maxsize=None)
def depth_exact(ideal: MonomialIdeal, p: int = 32003) -> int:
    """depth(S/I) = n - 1 - pd(I), with pd(I) found over GF(p), p prime.

    Visits b in the lcm lattice by decreasing |supp b| (then decreasing
    lex) and reads beta_{i,b} = rank H~_{i-1}(K^b(I)) only for i above the
    best index so far; stops at the first b with |supp b| - 1 <= best,
    since beta_{i,b} = 0 for i > |supp b| - 1.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")
    _require_prime(p)
    best = 0  # beta_0 = number of generators > 0
    order = sorted(((len(supp(b)), b) for b in lcm_lattice(ideal)), reverse=True)
    for size, b in order:
        if size - 1 <= best:
            break
        ranks = homology_ranks(upper_koszul_complex(ideal, b), p)
        for i in range(len(ranks) - 1, best, -1):  # ranks[i] = beta_{i,b}
            if ranks[i]:
                best = i
                break
    return ideal.n - 1 - best
