"""Exact monomial and monomial-ideal arithmetic over exponent vectors.

Monomials are tuples of non-negative ints of length n (exponent of
variable i at position i-1); the unit monomial is the all-zero tuple.
The lex order induced by x1 > x2 > ... > xn coincides with plain tuple
comparison of exponent vectors, which this module leans on throughout.
"""

from __future__ import annotations

import itertools
from enum import Enum
from math import comb
from typing import NamedTuple

from . import kernels

Monomial = tuple  # tuple[int, ...]

# Most generators of one lexsegment that lexsegment_generators() will list.
SEGMENT_LIMIT = 1 << 20


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


def supp(m: Monomial) -> tuple[int, ...]:
    """1-based indices of the variables dividing m."""
    return tuple(itertools.compress(range(1, len(m) + 1), m))


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


def _is_int(value) -> bool:
    """An int, and not a bool, which Python counts as one."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# monomial ideals


class MonomialIdeal(NamedTuple):
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
            for e in g:
                if not _is_int(e):
                    raise ValueError(f"non-integer exponent {e!r} in {g}")
                if e < 0:
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
    lcms = [tuple(map(max, g, h)) for g in a.gens for h in b.gens]
    return MonomialIdeal(a.n, kernels.minimalize(tuple(lcms)))


# ---------------------------------------------------------------------------
# prime ideals generated by variables


class PrimeIdeal(NamedTuple):
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

    def shift(self, offset: int, n: int) -> "PrimeIdeal":
        """Re-embed into n variables, shifting every index up by offset."""
        return PrimeIdeal.from_vars(n, (v + offset for v in self.vars))


# ---------------------------------------------------------------------------
# lexsegment specs


class SpecKind(Enum):
    PRINCIPAL = "principal"
    FULL_SEGMENT = "full_segment"
    INITIAL = "initial"
    FINAL = "final"
    ARBITRARY = "arbitrary"


class _LexSpecFields(NamedTuple):
    n: int
    d: int
    u: Monomial
    v: Monomial


class LexSpec(_LexSpecFields):
    """The tuple (n, d, u, v) defining the lexsegment ideal (L(u, v)).

    Every construction validates, _make, _replace, copy and unpickling at
    every pickle protocol included: n, d and every exponent are ints (not
    bools), u and v become tuples of length n and degree d, and u >=_lex v.
    """

    __slots__ = ()

    def __new__(cls, n, d, u, v):
        u, v = tuple(u), tuple(v)
        if not all(map(_is_int, (n, d, *u, *v))):
            raise SpecError(
                f"n, d and every exponent must be ints, got n={n!r}, d={d!r}, u={u}, v={v}"
            )
        if n < 1 or d < 1:
            raise SpecError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if len(u) != n or len(v) != n:
            raise DimensionError("u, v must have length n")
        if min(u) < 0 or min(v) < 0:
            raise SpecError(f"negative exponent in u={u} or v={v}")
        if degree(u) != d or degree(v) != d:
            raise SpecError(f"deg(u)={degree(u)}, deg(v)={degree(v)}, expected d={d}")
        if u < v:
            raise SpecError(f"need u >=_lex v, got u={u} < v={v}")
        return super().__new__(cls, n, d, u, v)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        # protocols 0 and 1 would rebuild the tuple past __new__
        return type(self), tuple(self)

    @property
    def a1(self) -> int:
        return self.u[0]

    @property
    def b1(self) -> int:
        return self.v[0]

    @property
    def l(self) -> int | None:
        """min(u / x1^a1): the second variable block of u, None for u = x1^d."""
        rest = (0,) + self.u[1:]
        if degree(rest) == 0:
            return None
        return min_var(rest)


def classify(spec: LexSpec) -> SpecKind:
    """The trivial, extremal or arbitrary class of the spec."""
    if spec.u == spec.v:
        return SpecKind.PRINCIPAL
    # u = x1^d and v = xn^d, read off one exponent each
    initial, final = spec.u[0] == spec.d, spec.v[-1] == spec.d
    if initial and final:
        return SpecKind.FULL_SEGMENT
    if initial:
        return SpecKind.INITIAL
    if final:
        return SpecKind.FINAL
    return SpecKind.ARBITRARY


def _lex_rank(m: Monomial) -> int:
    """The number of monomials of degree |m| lex-greater than m.

    Those that first differ from m at position i, with a larger exponent
    there, number C(left - m_i + k - 1, k) by the hockey-stick identity,
    where left is the degree m has from position i on and k = n - i - 1
    the number of positions after it (the combinatorial number system;
    Knuth, TAOCP 7.2.1.3)."""
    left, rank, k = sum(m), 0, len(m) - 1
    for e in m[:-1]:
        rank += comb(left - e + k - 1, k)
        left -= e
        k -= 1
    return rank


def lexsegment_generators(spec: LexSpec) -> MonomialIdeal:
    """The ideal generated by L(u, v): all degree-d monomials between u and v.

    Raises DomainError, before listing any, when the segment has more than
    SEGMENT_LIMIT of them."""
    count = _lex_rank(spec.v) - _lex_rank(spec.u) + 1
    if count > SEGMENT_LIMIT:
        raise DomainError(
            f"L(u, v) has {count} generators, over SEGMENT_LIMIT = {SEGMENT_LIMIT}"
        )
    # the walk from u down to v by the lex successor, lex-descending as
    # the canonical order is: the last exponent t goes to 0, and the last
    # nonzero exponent before it gives one to the position after it,
    # which gets t + 1
    m, last = list(spec.u), spec.n - 1
    gens = [spec.u]
    for _ in range(count - 1):
        t, m[last] = m[last], 0
        i = last - 1
        while not m[i]:
            i -= 1
        m[i], m[i + 1] = m[i] - 1, t + 1
        gens.append(tuple(m))
    return MonomialIdeal(spec.n, tuple(gens))


def reduce_fully(spec: LexSpec) -> tuple[LexSpec, Monomial]:
    """Normalize a spec until a1 >= 1 and b1 = 0 (or u = v).

    Returns (work, factor). factor is the exponent vector divided out, in
    spec's n variables, and I(spec) = x^factor * i(I(work)), where i puts
    work's variables last, after the k = spec.n - work.n dropped ones.
    Each division removes x1^b1 from the current first variable, and each
    drop removes the unused leading variables (v <=_lex u forces supp(v)
    into the variables of u as well). No variable is divided twice: b1 = 0
    after a division, and only a drop brings in a new first variable. So
    supp(factor) is the set of divided variables, and a variable i of
    supp(factor) is divided after every smaller one.
    """
    factor = [0] * spec.n
    while spec.u != spec.v:
        if spec.b1 > 0:
            b = spec.b1
            factor[len(factor) - spec.n] = b
            # b1 <= a1, as u >=_lex v
            spec = LexSpec(spec.n, spec.d - b, (spec.a1 - b, *spec.u[1:]), (0, *spec.v[1:]))
        elif spec.a1 == 0:
            k = min_var(spec.u) - 1
            spec = LexSpec(spec.n - k, spec.d, spec.u[k:], spec.v[k:])
        else:
            break
    return spec, tuple(factor)
