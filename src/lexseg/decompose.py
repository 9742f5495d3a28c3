"""Ground-truth associated primes via irredundant irreducible decomposition.

Every monomial ideal is uniquely an irredundant intersection of ideals
generated by pure variable powers, and Ass(S/I) is exactly the set of
radicals of those components (Miller-Sturmfels, Combinatorial Commutative
Algebra, ch. 5). The oracle takes its primes from there and certifies each
one with the lex-first witness monomial w in the witness box with
(I : w) = P; witnesses() is the one generator of such witnesses, shared
with the filtration search.

Both primitives read the cached split components Q_j, a possibly
redundant family of irreducible ideals whose intersection is I, and rest
on one fact: irreducible monomial ideals are prime in the lattice of
monomial ideals (one that contains an intersection contains a member).
witnesses() uses it to pin the P-part of a witness to e_j - 1 for a Q_j
with radical P and scans only the other coordinates; the box and the
pins of every prime come from one read of the Q_j per ideal
(_witness_scanner). irredundant_components() uses it to find the
irredundant components with one minimalize over an order-reversing
encoding of the Q_j. irreducible_decomposition() checks them by folding
the components back together, one at a time, and comparing with I.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .monomials import (
    DomainError,
    InternalConsistencyError,
    Monomial,
    MonomialIdeal,
    PrimeIdeal,
    add_element,
    degree,
    max_var,
    min_var,
    variable,
)

# Largest witness box, in monomials, that witnesses() will scan.
WITNESS_BOX_LIMIT = 1 << 20


@dataclass(frozen=True)
class IrreducibleIdeal:
    """An ideal generated by pure variable powers x_i^e_i.

    powers is a sorted tuple of (variable index, exponent) pairs.
    """

    n: int
    powers: tuple[tuple[int, int], ...]

    def to_ideal(self) -> MonomialIdeal:
        return MonomialIdeal.from_gens(
            self.n, (variable(self.n, i, e) for i, e in self.powers)
        )

    def radical(self) -> PrimeIdeal:
        # powers is sorted by variable, each variable once and in 1..n
        return PrimeIdeal(self.n, tuple(i for i, _ in self.powers))


@dataclass(frozen=True)
class AssResult:
    primes: frozenset[PrimeIdeal]
    witnesses: tuple[tuple[PrimeIdeal, Monomial], ...]


def _is_pure_power(g: Monomial) -> bool:
    return sum(1 for e in g if e > 0) <= 1


@lru_cache(maxsize=None)
def _split(ideal: MonomialIdeal) -> frozenset[IrreducibleIdeal]:
    """All irreducible components reachable by recursive splitting.

    May contain redundant components; irredundant_components drops them.
    Pivot: the lex-greatest generator that is not a pure power, split off
    the full power of its lex-smallest (largest-index) variable.
    """
    pivot = None
    for g in ideal.gens:  # gens are lex-descending
        if degree(g) > 0 and not _is_pure_power(g):
            pivot = g
            break
    if pivot is None:
        if ideal.is_unit:
            return frozenset()  # the intersection of no components
        powers = tuple(
            sorted((min_var(g), degree(g)) for g in ideal.gens if degree(g) > 0)
        )
        return frozenset({IrreducibleIdeal(ideal.n, powers)})
    i = max_var(pivot)
    power = variable(ideal.n, i, pivot[i - 1])
    rest = tuple(e if j != i - 1 else 0 for j, e in enumerate(pivot))
    left = add_element(ideal, power)
    right = add_element(ideal, rest)
    return _split(left) | _split(right)


def irredundant_components(ideal: MonomialIdeal) -> frozenset[IrreducibleIdeal]:
    """The split components that contain no other split component.

    Irreducible monomial ideals are prime in the lattice of monomial
    ideals: one that contains an intersection contains one of its members.
    So these are already the irredundant irreducible components, and their
    radicals are Ass(S/I). With top above every exponent, a component is
    encoded as v_i = top - e_i on its support and 0 off it; c contains o
    exactly when v(o) divides v(c), so the survivors are the minimal
    generators of the encoded vectors. Unchecked:
    irreducible_decomposition adds the intersect-back check.
    """
    comps = _split(ideal)
    top = 1 + max((e for c in comps for _, e in c.powers), default=0)
    encoded = {}
    for c in comps:
        v = [0] * ideal.n
        for i, e in c.powers:
            v[i - 1] = top - e
        encoded[tuple(v)] = c
    return frozenset(encoded[v] for v in kernels.minimalize(tuple(encoded)))


def irreducible_decomposition(ideal: MonomialIdeal) -> frozenset[IrreducibleIdeal]:
    """The irredundant irreducible decomposition of a proper nonzero ideal."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("cannot decompose the zero or unit ideal")
    result = irredundant_components(ideal)
    if _intersection(ideal.n, result) != ideal:
        raise InternalConsistencyError(
            f"decomposition does not intersect back to the input: {ideal}"
        )
    return result


def _intersection(n: int, comps) -> MonomialIdeal:
    """The intersection of irreducible ideals, folding one in at a time.

    J ∩ Q for Q = (x_i^e_i : i in A) is generated by the lcms of each
    generator g of J with each x_i^e_i. If g lies in Q, one of them is g
    and the others are its multiples, so g stays; otherwise they are g
    with g_i raised to e_i, one for each i in A.
    """
    gens = ((0,) * n,)
    for c in comps:
        met = []
        for g in gens:
            if any(g[i - 1] >= e for i, e in c.powers):
                met.append(g)
            else:
                met.extend(g[: i - 1] + (e,) + g[i:] for i, e in c.powers)
        gens = kernels.minimalize(met)
    return MonomialIdeal(n, gens)


def witness_box(ideal: MonomialIdeal) -> Monomial:
    """Componentwise exponent bound for witness enumeration.

    E_i is the largest exponent of x_i over all irreducible components.
    The possibly-redundant split components give the same bound or a
    slightly larger one, which is still a valid enclosure.
    """
    comps = _split(ideal)
    box = [0] * ideal.n
    for c in comps:
        for i, e in c.powers:
            box[i - 1] = max(box[i - 1], e)
    return tuple(box)


def _witness_scanner(ideal: MonomialIdeal):
    """The witness scan of every prime of I, from one read of _split(I).

    Returns scan, where scan(P) yields what witnesses(I, P) yields. The
    witness box and the pins, the powers of the split components grouped
    by their radical's variables, are computed here once. Raises
    DomainError for a box of more than WITNESS_BOX_LIMIT monomials.
    """
    box = [0] * ideal.n
    pins: dict[tuple[int, ...], list] = {}
    for c in _split(ideal):
        for i, e in c.powers:
            box[i - 1] = max(box[i - 1], e)
        pins.setdefault(tuple(i for i, _ in c.powers), []).append(c.powers)
    volume = math.prod(e + 1 for e in box)
    if volume > WITNESS_BOX_LIMIT:
        raise DomainError(
            f"witness box {tuple(box)} holds {volume} monomials, over the limit "
            f"{WITNESS_BOX_LIMIT}"
        )
    full = [range(e, -1, -1) for e in box]
    gens = ideal.gens

    def scan(prime: PrimeIdeal):
        scans = []
        for powers in pins.get(prime.vars, ()):
            ranges = list(full)
            for i, e in powers:
                ranges[i - 1] = (e - 1,)
            scans.append(itertools.product(*ranges))
        idx = [i - 1 for i in prime.vars]
        member = kernels.member
        for w in heapq.merge(*scans, reverse=True):
            if all(member(w[:i] + (w[i] + 1,) + w[i + 1 :], gens) for i in idx):
                yield w

    return scan


def witnesses(ideal: MonomialIdeal, prime: PrimeIdeal):
    """All in-box monomials w with (I : w) = P, lex-descending.

    (I : w) is the intersection of the (Q_j : w) over the split components
    Q_j = (x_i^e_ij : i in A_j) that miss w, each generated by the
    x_i^(e_ij - w_i). Irreducible ideals are prime in the lattice of
    monomial ideals, so this equals P only if some Q_j has A_j = P and
    w_i = e_ij - 1 for every i in P: the P-part of w is one of these pins.
    For each pin only the coordinates outside P range over the witness
    box. Every such w already has (I : w) inside (Q_j : w) = P, so it is
    kept exactly when (I : w) contains P, that is, when x_i * w lies in I
    for every i in P. Raises DomainError, before scanning, for a box of
    more than WITNESS_BOX_LIMIT monomials.
    """
    if ideal.n != prime.n:
        raise DomainError("variable counts differ")
    yield from _witness_scanner(ideal)(prime)


def radicals(ideal: MonomialIdeal) -> frozenset[PrimeIdeal]:
    """Ass(S/I): the radicals of the irredundant irreducible components."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("the zero and unit ideals have no associated primes")
    return frozenset(c.radical() for c in irredundant_components(ideal))


def associated_primes_oracle(ideal: MonomialIdeal) -> AssResult:
    """Ass(S/I) of a proper nonzero ideal, each prime with its witness.

    The primes are radicals(I); the witness of each is the first one
    witnesses() yields, all read from one _witness_scanner(I). A prime
    with no in-box witness is a hard error.
    """
    found: dict[PrimeIdeal, Monomial] = {}
    primes = radicals(ideal)
    scan = _witness_scanner(ideal)
    for p in primes:
        w = next(scan(p), None)
        if w is None:
            raise InternalConsistencyError(
                f"no in-box witness for the prime {p.vars} of {ideal}"
            )
        found[p] = w
    return AssResult(
        frozenset(found), tuple(sorted(found.items(), key=lambda pw: pw[0].vars))
    )


def minimal_primes(ideal: MonomialIdeal) -> frozenset[PrimeIdeal]:
    primes = radicals(ideal)
    return frozenset(
        p for p in primes if not any(q.is_proper_subset(p) for q in primes)
    )


def krull_dim(ideal: MonomialIdeal) -> int:
    """dim S/I = n - min height over the minimal primes."""
    return ideal.n - min(len(p.vars) for p in minimal_primes(ideal))
