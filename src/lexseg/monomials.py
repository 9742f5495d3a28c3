"""Exact monomial and monomial-ideal arithmetic over exponent vectors.

Monomials are tuples of non-negative ints of length n (exponent of
variable i at position i-1); the unit monomial is the all-zero tuple.
The lex order induced by x1 > x2 > ... > xn coincides with plain tuple
comparison of exponent vectors, which this module leans on throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb

from . import kernels

Monomial = tuple  # tuple[int, ...]


class DimensionError(ValueError):
    """Operands live over different variable counts."""


class SpecError(ValueError):
    """Invalid or mis-routed lexsegment spec."""


class DomainError(ValueError):
    """Operation applied outside its domain (e.g. decomposing the unit ideal)."""


class InternalConsistencyError(RuntimeError):
    """A structural guarantee failed; always a bug, never ignorable."""


# ---------------------------------------------------------------------------
# monomial arithmetic


def degree(m: Monomial) -> int:
    return sum(m)


def mon_mul(a: Monomial, b: Monomial) -> Monomial:
    _same_n(a, b)
    return tuple(x + y for x, y in zip(a, b))


def mon_div(a: Monomial, b: Monomial) -> Monomial:
    """Exact quotient a / b; raises if b does not divide a."""
    _same_n(a, b)
    if not kernels.divides(b, a):
        raise ValueError(f"{b} does not divide {a}")
    return tuple(x - y for x, y in zip(a, b))


def mon_lcm(a: Monomial, b: Monomial) -> Monomial:
    _same_n(a, b)
    return tuple(max(x, y) for x, y in zip(a, b))


def supp(m: Monomial) -> tuple[int, ...]:
    """1-based indices of the variables dividing m."""
    return tuple(i + 1 for i, e in enumerate(m) if e > 0)


def min_var(m: Monomial) -> int:
    """min(m): smallest variable index dividing m (1-based)."""
    for i, e in enumerate(m):
        if e > 0:
            return i + 1
    raise ValueError("the unit monomial has no support")


def max_var(m: Monomial) -> int:
    for i in range(len(m) - 1, -1, -1):
        if m[i] > 0:
            return i + 1
    raise ValueError("the unit monomial has no support")


def variable(n: int, i: int, e: int = 1) -> Monomial:
    """The monomial x_i^e in n variables (i is 1-based)."""
    if not 1 <= i <= n:
        raise DimensionError(f"variable index {i} out of range 1..{n}")
    return tuple(e if j == i - 1 else 0 for j in range(n))


def unit(n: int) -> Monomial:
    return (0,) * n


def _same_n(a, b):
    if len(a) != len(b):
        raise DimensionError(f"variable counts differ: {len(a)} vs {len(b)}")


@lru_cache(maxsize=None)
def enumerate_degree(n: int, d: int) -> tuple[Monomial, ...]:
    """All C(n+d-1, d) monomials of degree d, lex-descending."""
    if n < 1 or d < 0:
        raise ValueError("need n >= 1 and d >= 0")
    if n == 1:
        return ((d,),)
    out = []
    for e in range(d, -1, -1):
        for rest in enumerate_degree(n - 1, d - e):
            out.append((e,) + rest)
    assert len(out) == comb(n + d - 1, d)
    return tuple(out)


# ---------------------------------------------------------------------------
# monomial ideals


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in canonical form.

    gens holds the minimal monomial generators (no generator divides
    another), sorted lex-descending; equal ideals therefore compare equal
    as values. The zero ideal has gens = (), the unit ideal gens = (0,...,0).
    """

    n: int
    gens: tuple[Monomial, ...]

    @classmethod
    def from_gens(cls, n, gens) -> "MonomialIdeal":
        gens = tuple(tuple(g) for g in gens)
        for g in gens:
            if len(g) != n:
                raise DimensionError(f"generator {g} has length != {n}")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in {g}")
        return cls(n, kernels.minimalize(gens))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return bool(self.gens) and self.gens[-1] == unit(self.n)

    def __contains__(self, m: Monomial) -> bool:
        if len(m) != self.n:
            raise DimensionError(f"monomial length {len(m)} != {self.n}")
        return kernels.member(tuple(m), self.gens)


def zero_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, ())


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (unit(n),))


def colon(ideal: MonomialIdeal, w: Monomial) -> MonomialIdeal:
    """(I : w), generated by g / gcd(g, w) over the generators g."""
    if len(w) != ideal.n:
        raise DimensionError(f"monomial length {len(w)} != {ideal.n}")
    return MonomialIdeal(ideal.n, kernels.colon_gens(ideal.gens, tuple(w)))


def intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """I ∩ J via pairwise lcms of generators."""
    if a.n != b.n:
        raise DimensionError("variable counts differ")
    lcms = [mon_lcm(g, h) for g in a.gens for h in b.gens]
    return MonomialIdeal(a.n, kernels.minimalize(tuple(lcms)))


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    if a.n != b.n:
        raise DimensionError("variable counts differ")
    return MonomialIdeal(a.n, kernels.minimalize(a.gens + b.gens))


def add_element(ideal: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """I + (m). The generators of I are already minimal, so only m can be
    redundant, and only generators that m divides can become redundant."""
    m = tuple(m)
    if kernels.member(m, ideal.gens):
        return ideal
    gens = [g for g in ideal.gens if not kernels.divides(m, g)]
    gens.append(m)
    gens.sort(reverse=True)
    return MonomialIdeal(ideal.n, tuple(gens))


# ---------------------------------------------------------------------------
# prime ideals generated by variables


@dataclass(frozen=True)
class PrimeIdeal:
    """A prime monomial ideal: generated by a set of variables.

    vars is the sorted tuple of 1-based indices; the maximal ideal has
    vars = (1, ..., n).
    """

    n: int
    vars: tuple[int, ...]

    @classmethod
    def from_vars(cls, n, vars) -> "PrimeIdeal":
        vs = tuple(sorted(set(vars)))
        if vs and (vs[0] < 1 or vs[-1] > n):
            raise DimensionError(f"variable indices {vs} out of range 1..{n}")
        return cls(n, vs)

    @classmethod
    def span(cls, n, lo, hi) -> "PrimeIdeal":
        """(x_lo, ..., x_hi)."""
        return cls.from_vars(n, range(lo, hi + 1))

    @classmethod
    def maximal(cls, n) -> "PrimeIdeal":
        return cls(n, tuple(range(1, n + 1)))

    def to_ideal(self) -> MonomialIdeal:
        # x_i with smaller index is lex-greater, so ascending index order
        # is the canonical lex-descending generator order
        return MonomialIdeal(
            self.n, tuple(variable(self.n, i) for i in self.vars)
        )

    def is_proper_subset(self, other: "PrimeIdeal") -> bool:
        return set(self.vars) < set(other.vars)

    def shift(self, offset: int, n: int) -> "PrimeIdeal":
        """Re-embed into n variables, shifting every index up by offset."""
        return PrimeIdeal.from_vars(n, (v + offset for v in self.vars))


def ideal_as_prime(ideal: MonomialIdeal) -> PrimeIdeal | None:
    """The PrimeIdeal equal to this ideal, or None if it is not prime."""
    vars = []
    for g in ideal.gens:
        if degree(g) != 1:
            return None
        vars.append(min_var(g))
    if not vars:
        return None  # zero ideal
    return PrimeIdeal.from_vars(ideal.n, vars)


# ---------------------------------------------------------------------------
# lexsegment specs


class SpecKind(Enum):
    PRINCIPAL = "principal"
    FULL_SEGMENT = "full_segment"
    INITIAL = "initial"
    FINAL = "final"
    ARBITRARY = "arbitrary"


@dataclass(frozen=True)
class Classification:
    kind: SpecKind
    b1_positive: bool
    a1_zero: bool


@dataclass(frozen=True)
class LexSpec:
    """The tuple (n, d, u, v) defining the lexsegment ideal (L(u, v))."""

    n: int
    d: int
    u: Monomial
    v: Monomial

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(self.u))
        object.__setattr__(self, "v", tuple(self.v))
        if self.n < 1 or self.d < 1:
            raise SpecError(f"need n >= 1 and d >= 1, got n={self.n}, d={self.d}")
        if len(self.u) != self.n or len(self.v) != self.n:
            raise DimensionError("u, v must have length n")
        if degree(self.u) != self.d or degree(self.v) != self.d:
            raise SpecError(
                f"deg(u)={degree(self.u)}, deg(v)={degree(self.v)}, expected d={self.d}"
            )
        if self.u < self.v:
            raise SpecError(f"need u >=_lex v, got u={self.u} < v={self.v}")

    @property
    def a1(self) -> int:
        return self.u[0]

    @property
    def b1(self) -> int:
        return self.v[0]

    @property
    def q(self) -> int:
        """min(v)."""
        return min_var(self.v)

    @property
    def l(self) -> int | None:
        """min(u / x1^a1): the second variable block of u, None for u = x1^d."""
        rest = (0,) + self.u[1:]
        if degree(rest) == 0:
            return None
        return min_var(rest)

    @property
    def a_l(self) -> int | None:
        l = self.l
        return None if l is None else self.u[l - 1]


def classify(spec: LexSpec) -> Classification:
    """Assign the trivial/extremal/arbitrary class plus reduction flags."""
    x1d = variable(spec.n, 1, spec.d) if spec.n >= 1 else None
    xnd = variable(spec.n, spec.n, spec.d)
    if spec.u == spec.v:
        kind = SpecKind.PRINCIPAL
    elif spec.u == x1d and spec.v == xnd:
        kind = SpecKind.FULL_SEGMENT
    elif spec.u == x1d:
        kind = SpecKind.INITIAL
    elif spec.v == xnd:
        kind = SpecKind.FINAL
    else:
        kind = SpecKind.ARBITRARY
    return Classification(kind, b1_positive=spec.b1 > 0, a1_zero=spec.a1 == 0)


def lexsegment_generators(spec: LexSpec) -> MonomialIdeal:
    """The ideal generated by L(u, v): all degree-d monomials between u and v."""
    gens = [w for w in enumerate_degree(spec.n, spec.d) if spec.v <= w <= spec.u]
    return MonomialIdeal(spec.n, tuple(sorted(gens, reverse=True)))


DIVIDE = "divide"
DROP = "drop"


def reduce_fully(spec: LexSpec) -> tuple[LexSpec, tuple[tuple[str, int], ...]]:
    """Normalize a spec until a1 >= 1 and b1 = 0 (or u = v).

    Returns the working spec and the moves made, in order: (DIVIDE, b)
    divides u and v by x1^b, and (DROP, k) drops k unused leading
    variables. Each move acts on the spec left by the moves before it.
    """
    moves = []
    while spec.u != spec.v:
        if spec.b1 > 0:
            b = spec.b1
            x1b = variable(spec.n, 1, b)
            spec = LexSpec(spec.n, spec.d - b, mon_div(spec.u, x1b), mon_div(spec.v, x1b))
            moves.append((DIVIDE, b))
        elif spec.a1 == 0:
            # v <=_lex u forces supp(v) into the variables of u as well
            k = min_var(spec.u) - 1
            spec = LexSpec(spec.n - k, spec.d, spec.u[k:], spec.v[k:])
            moves.append((DROP, k))
        else:
            break
    return spec, tuple(moves)
