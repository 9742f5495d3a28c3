"""Ground-truth associated primes via irredundant irreducible decomposition.

Every monomial ideal is uniquely an irredundant intersection of ideals
generated by pure variable powers; the associated primes are exactly the
radicals of those components. Each reported prime is additionally
confirmed by an explicit witness monomial w with (I : w) = P, so the two
routes cross-check each other on every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .monomials import (
    DomainError,
    InternalConsistencyError,
    Monomial,
    MonomialIdeal,
    PrimeIdeal,
    add_element,
    colon,
    degree,
    ideal_as_prime,
    intersect,
    max_var,
    min_var,
    variable,
)


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
        return PrimeIdeal.from_vars(self.n, (i for i, _ in self.powers))

    def contains(self, other: "IrreducibleIdeal") -> bool:
        """self >= other: each x_i^e of other is divisible by some x_i^f of self."""
        mine = dict(self.powers)
        return all(i in mine and mine[i] <= e for i, e in other.powers)


@dataclass(frozen=True)
class AssResult:
    primes: frozenset[PrimeIdeal]
    witnesses: tuple[tuple[PrimeIdeal, Monomial], ...]

    def witness(self, prime: PrimeIdeal) -> Monomial:
        for p, w in self.witnesses:
            if p == prime:
                return w
        raise KeyError(prime)


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
    radicals are Ass(S/I). Unchecked and uncached: irreducible_decomposition
    adds the intersect-back check.
    """
    comps = _split(ideal)
    return frozenset(
        c for c in comps if not any(c != other and c.contains(other) for other in comps)
    )


@lru_cache(maxsize=None)
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
    acc = None
    for c in comps:
        ideal = c.to_ideal() if isinstance(c, IrreducibleIdeal) else c
        acc = ideal if acc is None else intersect(acc, ideal)
    if acc is None:
        raise ValueError("empty component list")
    return acc


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


def iter_box(box: Monomial):
    """All monomials with exponents bounded by box, lex-descending."""
    return itertools.product(*(range(e, -1, -1) for e in box))


def witness_search(ideal: MonomialIdeal, prime: PrimeIdeal) -> Monomial | None:
    """A monomial w not in I with (I : w) = P, or None if none fits the box."""
    if ideal.n != prime.n:
        raise DomainError("variable counts differ")
    target = prime.to_ideal()
    for w in iter_box(witness_box(ideal)):
        if w in ideal:
            continue
        if colon(ideal, w) == target:
            return w
    return None


@lru_cache(maxsize=None)
def associated_primes_oracle(ideal: MonomialIdeal) -> AssResult:
    """Ass(S/I) as radicals of the irreducible components, witness-confirmed.

    The radicals of the raw split components form a superset of Ass; a
    single pass over the witness box keeps exactly the candidates that
    admit a witness w with (I : w) = P. Candidates minimal under
    inclusion are always associated, so a minimal candidate without an
    in-box witness is a hard error.
    """
    candidates = {c.radical() for c in _split(ideal)}
    found: dict[PrimeIdeal, Monomial] = {}
    for w in iter_box(witness_box(ideal)):
        if len(found) == len(candidates):
            break
        if w in ideal:
            continue
        quotient = colon(ideal, w)
        p = ideal_as_prime(quotient)
        if p is not None and p in candidates and p not in found:
            found[p] = w
    missing_minimal = [
        p
        for p in candidates
        if p not in found
        and not any(q.is_proper_subset(p) for q in candidates)
    ]
    if missing_minimal:
        raise InternalConsistencyError(
            f"no in-box witness for minimal prime(s) "
            f"{[p.vars for p in missing_minimal]} of {ideal}"
        )
    witnesses = tuple(sorted(found.items(), key=lambda pw: pw[0].vars))
    return AssResult(frozenset(found), witnesses)


def minimal_primes(ideal: MonomialIdeal) -> frozenset[PrimeIdeal]:
    primes = associated_primes_oracle(ideal).primes
    return frozenset(
        p for p in primes if not any(q.is_proper_subset(p) for q in primes)
    )


def krull_dim(ideal: MonomialIdeal) -> int:
    """dim S/I = n - min height over the minimal primes."""
    return ideal.n - min(len(p.vars) for p in minimal_primes(ideal))
