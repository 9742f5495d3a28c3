"""Ground-truth associated primes via irredundant irreducible decomposition.

Every monomial ideal is uniquely an irredundant intersection of ideals
generated by pure variable powers, and Ass(S/I) is exactly the set of
radicals of those components (Miller-Sturmfels, Combinatorial Commutative
Algebra, ch. 5). The oracle takes its primes from there and certifies each
one with the lex-first witness monomial w in the witness box with
(I : w) = P; witnesses() is the one generator of such witnesses, shared
with the filtration search.

One rule finds the components: _add_generator turns the irredundant
components of J into those of J + (w), the add-one-generator step of the
Alexander-dual decomposition algorithms (Milowski, ISSAC 2004; Roune, The
slice algorithm for irreducible decomposition of monomial ideals, JSC
2009). _components folds it over the generators of I, and the filtration
search applies it once per edge of its tree. A new candidate, a
component Q that misses w with w_k put at k, is compared for redundancy
only with the candidates of the same k: at every other k' it keeps
Q_k', which is 0 or above w_k' since Q misses w, so it contains no
candidate with w_k' at k' (_add_generator). _components keeps its
last fold (an lru_cache of one entry), so irreducible_decomposition(I)
and associated_primes_oracle(I) in a row, or the oracle and the
filtration search on one ideal, fold once.

Both the fold and the witnesses rest on one fact: irreducible monomial
ideals are prime in the lattice of monomial ideals (one that contains an
intersection contains a member). witnesses() uses it to pin the P-part
of a witness to e_j - 1 for a component Q_j with radical P and scans
only the other coordinates, keeping w when every component that misses
w has Q_j's exponents on P. The box, the pins and that test come from
the components alone (_witness_scanner), so a node of the filtration
search needs no generators to find its witnesses. The oracle reads one
witness per prime and scans nothing (_corners): the corner of a
component Q0 with radical P, Q0_i - 1 on P and the top of the box
elsewhere, is missed by no component but Q0, since one that misses it
lies in Q0 and the components are irredundant. So it passes the test,
and the lex-first witness of P is the lex-greatest such corner (proof
in associated_primes_oracle).

irreducible_decomposition() checks the components by folding them back
together, one at a time, and comparing with I (_intersection). That fold
runs on packed exponent vectors (kernels._Packing), where one guard-bit
subtraction tests divisibility and membership in a component. Everything
else here works on exponent tuples.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from dataclasses import dataclass

from . import kernels
from .monomials import (
    DomainError,
    InternalConsistencyError,
    Monomial,
    MonomialIdeal,
    PrimeIdeal,
    supp,
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


def _add_generator(n: int, comps, w: Monomial) -> list:
    """The irredundant components of J + (w), from those of J.

    Components are dense exponent tuples, e_i = 0 where x_i is absent. A
    component Q that contains w is kept. Any other Q = (x_i^e_i : i in A)
    has Q + (w) = the intersection over k in supp w of Q + (x_k^w_k), and
    w not in Q means w_k < e_k for k in A: each term is Q with w_k put at
    k, a new candidate. A kept component contains no new one, since that
    would contain Q and the components of J are irredundant, so only new
    candidates can be redundant. One is dropped when it contains a kept
    component or another, distinct new candidate.

    Q does not contain a kept c, so Q fails c at some i in supp c: Q_i is
    0 or above c_i. Q with w_k at k contains c exactly when k is the only
    such i and w_k <= c_k; one pass over c finds every k for which that
    holds. The new candidates are compared with one another only within
    the same k, and not at all when one component misses w. Q with w_k at
    k keeps Q's exponent at every k' != k, so it contains Q' with w_k' at
    k' only if 0 < Q_k' <= w_k'; then Q contains w, which it misses. So
    a candidate has one k, and candidates of different k do not contain
    one another. Two candidates from the same Q do not either: at its own
    k' the other one has w_k', and Q_k' is 0 or above w_k'.
    """
    support = [k for k in range(n) if w[k]]
    kept, rest = [], []
    for q in comps:
        for k in support:
            if 0 < q[k] <= w[k]:
                kept.append(q)
                break
        else:
            rest.append(q)
    if not rest:
        return kept
    fresh = {}  # new candidate -> the k at which it puts w_k
    for q in rest:
        drop = set()
        for c in kept:
            fail = None
            for i in range(n):
                e = c[i]
                if e and not 0 < q[i] <= e:
                    if fail is not None:
                        break
                    fail = i
            else:
                if w[fail] <= c[fail]:
                    drop.add(fail)
        for k in support:
            if k not in drop:
                fresh[q[:k] + (w[k],) + q[k + 1 :]] = k
    if len(rest) > 1:
        groups: dict[int, list] = {}
        for c, k in fresh.items():
            groups.setdefault(k, []).append(c)
        fresh = [
            c
            for group in groups.values()
            for c in group
            if not any(o != c and _contains(c, o) for o in group)
        ]
    kept.extend(fresh)
    return kept


def _contains(c, o) -> bool:
    """Component c contains component o: each power of o is a multiple
    of the power of c at the same variable."""
    for a, b in zip(c, o):
        if b and not 0 < a <= b:
            return False
    return True


@functools.lru_cache(maxsize=1)
def _components(ideal: MonomialIdeal) -> tuple:
    """The irredundant irreducible components of I as dense exponent
    tuples: _add_generator folded over the generators in ascending
    degree, lex-ascending within a degree, from the zero ideal, the one
    component with no powers. The unit ideal comes out as the
    intersection of no components. The last fold is kept, so callers
    that read one ideal in a row share it; it is a tuple, since they all
    get the same object."""
    comps = [(0,) * ideal.n]
    for g in sorted(reversed(ideal.gens), key=sum):
        comps = _add_generator(ideal.n, comps, g)
    return tuple(comps)


def _radicals(n: int, comps) -> set[PrimeIdeal]:
    """The radicals of the dense components comps in n variables: Ass(S/J)
    when comps are the irredundant components of J."""
    return {PrimeIdeal(n, s) for s in {supp(q) for q in comps}}


def irredundant_components(ideal: MonomialIdeal) -> frozenset[IrreducibleIdeal]:
    """The irredundant irreducible components of I (_components). Their
    radicals are Ass(S/I). Unchecked: irreducible_decomposition adds the
    intersect-back check."""
    return frozenset(
        IrreducibleIdeal(ideal.n, tuple((i, e) for i, e in enumerate(q, 1) if e))
        for q in _components(ideal)
    )


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
    with g_i raised to e_i, one for each i in A. No new lcm divides a g
    that stays: it would be a multiple of a generator of J outside Q, and
    the generators of J divide no other one. So only the new lcms are
    tested, in ascending order, each against the gens kept so far.

    The fold runs on packed exponent vectors (kernels._Packing, which
    proves the guard-bit tests), sized from top, the largest exponent of
    the components. Every exponent in the fold is 0 or an exponent of a
    component, even when comps decomposes nothing, so it is at most top.
    g lies in Q when one of Q's guard bits survives (g | guard) - power,
    with power Q's powers and guard Q's guard bits. The components go in
    by ascending power sum, which keeps the running intersection smaller
    than other orders tried; the result is the same in any order.
    """
    top = max((e for c in comps for _, e in c.powers), default=0)
    packing = kernels._Packing(n, top)
    w, mask, shifts = packing.width, packing.mask, packing.shifts
    gens = [0]
    for c in sorted(comps, key=lambda c: sum(e for _, e in c.powers)):
        power = sum(e << shifts[i - 1] for i, e in c.powers)
        guard = sum(1 << (shifts[i - 1] + w - 1) for i, _ in c.powers)
        raised = [
            (~(mask << shifts[i - 1]), e << shifts[i - 1]) for i, e in c.powers
        ]
        kept, met = [], set()
        for g in gens:
            if ((g | guard) - power) & guard:
                kept.append(g)
            else:
                met.update((g & clear) | put for clear, put in raised)
        gens = packing.extend_minimal(kept, sorted(met))
    gens.sort(reverse=True)
    return MonomialIdeal(n, tuple(map(packing.unpack, gens)))


def _box(n: int, comps) -> list[int]:
    """The witness box of J in n variables, read from the irredundant
    components comps of J: the componentwise largest exponent over the
    components, which is the lcm of the generators of J. Every exponent
    of a component is an exponent of a generator. Conversely, let g be a
    generator with the largest x_i-exponent a. Then g / x_i is not in J,
    so some component Q contains g but not g / x_i: the power of Q that
    divides g divides no g / x_i, so it is x_i^a. Raises DomainError for
    a box of more than WITNESS_BOX_LIMIT monomials.
    """
    box = [max(col) for col in zip(*comps)] or [0] * n
    volume = math.prod(e + 1 for e in box)
    if volume > WITNESS_BOX_LIMIT:
        raise DomainError(
            f"witness box {tuple(box)} holds {volume} monomials, over the limit "
            f"{WITNESS_BOX_LIMIT}"
        )
    return box


def _witness_scanner(n: int, comps):
    """The witness scan of every prime of J in n variables, read from the
    irredundant components comps of J (_components) alone.

    Returns scan, where scan(P) yields what witnesses(J, P) yields. The
    witness box (_box) and the pins, the components grouped by their
    radical, are computed here once.

    (J : w) is the intersection of the (Q : w) over the components Q that
    miss w, each generated by the x_k^(Q_k - w_k), k in supp Q. Irreducible
    ideals are prime in the lattice of monomial ideals, so it equals P
    only if w is pinned at a component Q0 with radical P: w_i = Q0_i - 1
    for i in P. Then (J : w) lies in (Q0 : w) = P, and it contains x_i
    for every i in P exactly when every component Q that misses w has
    Q_i = w_i + 1 for all i in P. That is the whole test: no generator
    and no colon is read. Each component's powers are kept once as
    sparse (i, e) pairs, and w lies in it when some pair has e <= w_i.
    Only the coordinates outside P range over the box.
    """
    box = _box(n, comps)
    pins: dict[tuple[int, ...], list] = {}
    for q in comps:
        pins.setdefault(supp(q), []).append(q)
    full = [range(e, -1, -1) for e in box]
    powers = [(q, [(i, e) for i, e in enumerate(q) if e]) for q in comps]

    def scan(prime: PrimeIdeal):
        idx = [i - 1 for i in prime.vars]
        scans = [
            itertools.product(*((e - 1,) if e else r for e, r in zip(q0, full)))
            for q0 in pins.get(prime.vars, ())
        ]
        for w in heapq.merge(*scans, reverse=True):
            if _passes(w, idx, powers):
                yield w

    return scan


def _passes(w: Monomial, idx, powers) -> bool:
    """The witness test of _witness_scanner for w pinned on the 0-based
    variables idx: every component q that misses w has q_i = w_i + 1 for
    i in idx. powers holds each component with its (i, e) pairs."""
    for q, pairs in powers:
        for i, e in pairs:
            if e <= w[i]:
                break
        else:  # q misses w
            if any(q[i] != w[i] + 1 for i in idx):
                return False
    return True


def _corners(n: int, comps) -> dict[tuple[int, ...], Monomial]:
    """The lex-first witness of every prime of J in n variables, keyed by
    the prime's variables, read from the irredundant components comps of
    J without a scan: the lex-greatest corner over the components with
    that radical (associated_primes_oracle proves it).

    The pin test of _witness_scanner still runs on every corner, and
    each corner of a component that contains another one fails it: if Q0
    contains Q != Q0, Q misses the corner of Q0 and differs from Q0 on
    its radical. So a redundant comps raises InternalConsistencyError.
    Raises DomainError for a box over WITNESS_BOX_LIMIT (_box).
    """
    box = _box(n, comps)
    powers = [(q, [(i, e) for i, e in enumerate(q) if e]) for q in comps]
    found: dict[tuple[int, ...], Monomial] = {}
    for q0, pairs in powers:
        w = tuple(e - 1 if e else top for e, top in zip(q0, box))
        if not _passes(w, [i for i, _ in pairs], powers):
            raise InternalConsistencyError(
                f"the corner {w} of the component {q0} is no witness: "
                "the components are redundant"
            )
        key = supp(q0)
        if key not in found or w > found[key]:
            found[key] = w
    return found


def witnesses(ideal: MonomialIdeal, prime: PrimeIdeal):
    """All in-box monomials w with (I : w) = P, lex-descending, found from
    the irredundant components of I (_witness_scanner, which proves the
    test). Raises DomainError, before scanning, for a box of more than
    WITNESS_BOX_LIMIT monomials.
    """
    if ideal.n != prime.n:
        raise DomainError("variable counts differ")
    yield from _witness_scanner(ideal.n, _components(ideal))(prime)


def _require_proper(ideal: MonomialIdeal) -> None:
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("the zero and unit ideals have no associated primes")


def radicals(ideal: MonomialIdeal) -> frozenset[PrimeIdeal]:
    """Ass(S/I): the radicals of the irredundant irreducible components."""
    _require_proper(ideal)
    return frozenset(_radicals(ideal.n, _components(ideal)))


def associated_primes_oracle(ideal: MonomialIdeal) -> AssResult:
    """Ass(S/I) of a proper nonzero ideal, each prime with its witness,
    both read from one _components(I), the fold that
    irreducible_decomposition(I) has just made when it ran first.

    The primes are the radicals of the irredundant components. The
    witness of P is the first one witnesses() yields, but nothing is
    scanned: it is the lex-greatest corner among the components Q0 with
    radical P, w_i = Q0_i - 1 for i in P and the top of the box
    elsewhere (_corners). Let a component Q miss w: Q_i > w_i for every
    power x_i^Q_i of Q. Off P, w_j is the top of the box, at least Q_j,
    so Q has no power outside P; on P, Q_i > Q0_i - 1. So Q lies in Q0,
    and irredundancy forces Q = Q0, which passes the pin test of
    _witness_scanner. Every witness pinned at Q0 agrees with its corner
    on P and lies below it elsewhere, so the lex-greatest corner comes
    first.

    Raises InternalConsistencyError when a corner fails the pin test, as
    one does for a redundant component list, and DomainError for a
    witness box over WITNESS_BOX_LIMIT: no box is scanned, but the
    oracle refuses what witnesses() refuses.
    """
    _require_proper(ideal)
    corners = _corners(ideal.n, _components(ideal))
    found = tuple((PrimeIdeal(ideal.n, key), corners[key]) for key in sorted(corners))
    return AssResult(frozenset(p for p, _ in found), found)
