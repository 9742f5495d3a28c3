"""Ground-truth associated primes via irredundant irreducible decomposition.

Every monomial ideal is uniquely an irredundant intersection of ideals
generated by pure variable powers, and Ass(S/I) is exactly the set of
radicals of those components (Miller-Sturmfels, Combinatorial
Commutative Algebra, ch. 5). The oracle takes its primes from there and
certifies each one with the lex-first witness monomial w in the witness
box with (I : w) = P; witnesses() is the one generator of such
witnesses, and the filtration search shares its witness test. A
component is a dense exponent tuple, Q_i = 0 where x_i is absent; it
misses w when Q_i > w_i at every i with Q_i > 0. Say Q fails C at i when
C_i > 0 and not 0 < Q_i <= C_i: Q contains C exactly when it fails C
nowhere. Two facts are used below. Irreducible monomial ideals are prime
in the lattice of monomial ideals: one that contains an intersection
contains a member. And two distinct irredundant components differ in at
least two coordinates, since if they differed at i alone one would
contain the other.

The components (_add_generator, the add-one-generator step of Milowski,
ISSAC 2004, and Roune, JSC 2009). From the irredundant components of J,
those of J + (w) are J's components that contain w and the candidates
that survive one rule. A component Q that misses w has Q + (w) = the
intersection of the Q[k], k in supp w, where the candidate Q[k] is Q
with w_k at k. Q[k] contains Q, so a component that contains w contains
no candidate: it would contain Q. The cap of Q at k, cap_k(Q), is the
largest C_k over the components C != Q of J that Q fails at k alone,
and 0 when there are none (_caps). The rule: Q[k] is redundant exactly
when w_k <= cap_k(Q), that is when Q fails some C != Q at k alone with
w_k <= C_k. If C contains w, that says Q[k] contains C. If C misses w,
it says Q[k] contains C[k], and w_k <= C_k holds anyway. No other
candidate C[k'], k' != k, lies in Q[k]: it has w_k' at k', where Q[k]
has Q_k', 0 or above w_k'. No two candidates are equal, as two
components differ in two coordinates, so containment among candidates
is strict and a dropped one lies over a kept one. _components folds the
step over the generators of I, and the filtration search builds each
child with the rule from the one component its witness misses
(filtration._child). _components keeps its last fold (an lru_cache of
one entry), so irreducible_decomposition(I) and
associated_primes_oracle(I) in a row, or the oracle and the filtration
search on one ideal, fold once.

The witness test (_witness). (J : w) is the intersection of the (Q : w)
over the components Q that miss w, each generated by the
x_i^(Q_i - w_i), i in supp Q. By the lattice fact it is P only if w is
pinned at a component Q0 with radical P: w_i = Q0_i - 1 for i in P. Then
(J : w) lies in (Q0 : w) = P, and it contains P exactly when every Q
that misses w has Q_i = w_i + 1 = Q0_i for all i in P. Such a Q contains
Q0, so it is Q0. So (J : w) = P exactly when Q0 is the only component
that misses w: no generator and no colon is read.

The corners (_corners). The corner of Q0, Q0_i - 1 on P and the top of
the box elsewhere, is missed only by Q0, so it is a witness: a Q that
misses it has no power off P and Q_i > Q0_i - 1 on P, so Q lies in Q0
and is Q0. Every witness pinned at Q0 agrees with its corner on P and
lies below it elsewhere, so the lex-first witness of P is the
lex-greatest corner over the components with radical P. When Q0 contains
some Q != Q0, that Q misses Q0's corner too, so a redundant component
list fails the test at a corner.

irreducible_decomposition() checks the dense components of _components
by folding them back together, one at a time and in the order the fold
made them, and comparing with I (_intersection); it returns those same
checked tuples. The order is the fold's, not ascending power sum: on 10
and 11 disjoint edges the check then forms 10,240 and 22,528 candidate
lcms, not 81,570 and 230,538, and it takes a fraction of the fold (11
edges: 0.03-0.04 s against 0.7-0.8 s; L(x1^63, x3^63): 0.43-0.47 s
against 0.63-0.70 s), so COMPONENT_LIMIT bounds it too. The check runs
on packed exponent vectors (kernels._Packing), where one guard-bit
subtraction tests divisibility and membership in a component.
Everything else here works on exponent tuples.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from typing import NamedTuple

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
# Most components the decomposition fold (_components) may hold after a
# step; a step costs about the square of the count. It bounds the
# intersect-back check too, which costs a fraction of the fold.
COMPONENT_LIMIT = 1 << 11


class IrreducibleIdeal(NamedTuple):
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


class AssResult(NamedTuple):
    primes: frozenset[PrimeIdeal]
    witnesses: tuple[tuple[PrimeIdeal, Monomial], ...]


def _caps(n: int, comps, q) -> list[int]:
    """cap_k(q) for every k (module docstring): the largest C_k over the
    components C of comps other than q that q fails at k alone, or 0."""
    caps = [0] * n
    for c in comps:
        if c is q:
            continue
        fail = None
        for i in range(n):
            e = c[i]
            if e and not 0 < q[i] <= e:
                if fail is not None:
                    break
                fail = i
        else:
            # distinct irredundant components fail each other somewhere
            if caps[fail] < c[fail]:
                caps[fail] = c[fail]
    return caps


def _add_generator(n: int, comps, w: Monomial) -> list:
    """The irredundant components of J + (w), from those comps of J, as
    dense exponent tuples (e_i = 0 where x_i is absent): the components
    that contain w, then each other component's candidates Q[k] with
    w_k > cap_k(Q) (module docstring)."""
    support = [k for k in range(n) if w[k]]
    kept, rest = [], []
    for q in comps:
        for k in support:
            if 0 < q[k] <= w[k]:
                kept.append(q)
                break
        else:
            rest.append(q)
    for q in rest:
        caps = _caps(n, comps, q)
        kept.extend(q[:k] + (w[k],) + q[k + 1 :] for k in support if w[k] > caps[k])
    return kept


@functools.lru_cache(maxsize=1)
def _components(ideal: MonomialIdeal) -> tuple:
    """The irredundant irreducible components of I as dense exponent
    tuples: _add_generator folded over the generators in ascending
    degree, lex-ascending within a degree, from the zero ideal, the one
    component with no powers. The unit ideal comes out as the
    intersection of no components. The last fold is kept, so callers
    that read one ideal in a row share it; it is a tuple, since they all
    get the same object. Raises DomainError once a step leaves more than
    COMPONENT_LIMIT components."""
    comps = [(0,) * ideal.n]
    for g in sorted(reversed(ideal.gens), key=sum):
        comps = _add_generator(ideal.n, comps, g)
        if len(comps) > COMPONENT_LIMIT:
            raise DomainError(
                f"the decomposition fold holds {len(comps)} components, over "
                f"COMPONENT_LIMIT = {COMPONENT_LIMIT}"
            )
    return tuple(comps)


def _radicals(n: int, comps) -> set[PrimeIdeal]:
    """The radicals of the dense components comps in n variables: Ass(S/J)
    when comps are the irredundant components of J."""
    return {PrimeIdeal(n, s) for s in {supp(q) for q in comps}}


def _irreducibles(n: int, comps) -> frozenset[IrreducibleIdeal]:
    """The dense components comps in n variables as IrreducibleIdeals."""
    return frozenset(
        IrreducibleIdeal(n, tuple(itertools.compress(enumerate(q, 1), q)))
        for q in comps
    )


def irreducible_decomposition(ideal: MonomialIdeal) -> frozenset[IrreducibleIdeal]:
    """The irredundant irreducible decomposition of a proper nonzero ideal:
    the components of _components(I), returned once the intersect-back
    check has read those same dense tuples."""
    _require_proper(ideal)
    comps = _components(ideal)
    if _intersection(ideal.n, comps) != ideal:
        raise InternalConsistencyError(
            f"decomposition does not intersect back to the input: {ideal}"
        )
    return _irreducibles(ideal.n, comps)


def _intersection(n: int, comps) -> MonomialIdeal:
    """The intersection of the irreducible ideals comps, dense exponent
    tuples in n variables (Q_i = 0 where x_i is absent), folding one in
    at a time.

    J ∩ Q for Q = (x_i^Q_i : Q_i > 0) is generated by the lcms of each
    generator g of J with each x_i^Q_i. If g lies in Q, one of them is g
    and the others are its multiples, so g stays; otherwise they are g
    with g_i raised to Q_i, one for each i in supp Q. No new lcm divides
    a g that stays: it would be a multiple of a generator of J outside
    Q, and the generators of J divide no other one. So only the new lcms
    are tested, in ascending order, each against the gens kept so far.

    The fold runs on packed exponent vectors (kernels._Packing, which
    proves the guard-bit tests), sized from top, the largest exponent of
    the components. Every exponent in the fold is 0 or an exponent of a
    component, even when comps decomposes nothing, so it is at most top.
    g lies in Q when one of Q's guard bits survives (g | guard) - power,
    with power Q packed and guard the guard bits of supp Q. The guard
    bit of a field of power + low, where low fills the value bits of
    every field, is set exactly when Q_i > 0, and no field carries, as
    Q_i + 2^(w - 1) - 1 < 2^w; so guard is (power + low) & guards. The
    mask that clears each variable's field is made once.

    The components go in the order given, unsorted. The result is the
    same in any order, but the work is not. In the order of the
    decomposition fold (_components), 10 and 11 disjoint edges form
    10,240 and 22,528 candidate lcms, in 0.02 and 0.03-0.04 s on a
    2-vCPU container; by ascending power sum, ties in hash order, they
    form 81,570 and 230,538, in 1.0-1.1 and 5.6-6.0 s.
    """
    top = max(itertools.chain.from_iterable(comps), default=0)
    packing = kernels._Packing(n, top)
    w, shifts, guards = packing.width, packing.shifts, packing.guards
    clears = [~(packing.mask << s) for s in shifts]
    low = (guards >> (w - 1)) * ((1 << (w - 1)) - 1)
    gens = [0]
    for c in comps:
        raised = [(clears[i], e << shifts[i]) for i, e in enumerate(c) if e]
        power = sum([put for _, put in raised])
        guard = (power + low) & guards
        kept, met = [], set()
        for g in gens:
            if ((g | guard) - power) & guard:
                kept.append(g)
            else:
                for clear, put in raised:
                    met.add((g & clear) | put)
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


def _pins(n: int, comps) -> dict[tuple[int, ...], list]:
    """The pins of every radical of the components comps in n variables:
    the components with that radical, in the order of comps, keyed by
    the radical's variables."""
    pins: dict[tuple[int, ...], list] = {}
    variables = range(1, n + 1)
    for q in comps:
        pins.setdefault(tuple(itertools.compress(variables, q)), []).append(q)
    return pins


def _pairs(q) -> list:
    """The (i, e) pairs of the component q with e > 0, which the witness
    test reads (_witness)."""
    return [*itertools.compress(enumerate(q), q)]


def _witness_scanner(n: int, comps):
    """The witness scan of every prime of J in n variables, read from the
    irredundant components comps of J (_components) alone: scan(P)
    yields what witnesses(J, P) yields. The witness box (_box), the pins
    (_pins) and the pairs (_pairs) are made once. A scan walks,
    lex-descending, the monomials pinned at a component with radical P,
    with only the coordinates off P ranging over the box, and keeps
    those that pass the witness test (_witness, module docstring)."""
    box = _box(n, comps)
    pins = _pins(n, comps)
    full = [range(e, -1, -1) for e in box]
    powers = [*map(_pairs, comps)]

    def scan(prime: PrimeIdeal):
        scans = [
            itertools.product(*((e - 1,) if e else r for e, r in zip(q0, full)))
            for q0 in pins.get(prime.vars, ())
        ]
        for w in heapq.merge(*scans, reverse=True):
            if _witness(w, powers):
                yield w

    return scan


def _witness(w: Monomial, powers) -> bool:
    """The witness test for w pinned at a component: no second component
    misses w (module docstring). powers holds each component's (i, e)
    pairs; w lies in a component when some pair has e <= w_i."""
    missed = False
    for pairs in powers:
        for i, e in pairs:
            if e <= w[i]:
                break
        else:
            if missed:
                return False
            missed = True
    return True


def _corners(n: int, comps) -> dict[tuple[int, ...], Monomial]:
    """The lex-first witness of every prime of J in n variables, keyed by
    the prime's variables: the lex-greatest corner over the components
    comps of J with that radical (module docstring), found without a
    scan. Every corner still gets the witness test (_witness), which a
    redundant comps fails at some corner: InternalConsistencyError.
    Raises DomainError for a box over WITNESS_BOX_LIMIT (_box).
    """
    box = _box(n, comps)
    powers = [*map(_pairs, comps)]
    found: dict[tuple[int, ...], Monomial] = {}
    for q0 in comps:
        w = tuple(e - 1 if e else top for e, top in zip(q0, box))
        if not _witness(w, powers):
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
    the irredundant components of I (_witness_scanner). Raises
    DomainError, before scanning, for a box of more than
    WITNESS_BOX_LIMIT monomials.
    """
    if ideal.n != prime.n:
        raise DomainError("variable counts differ")
    yield from _witness_scanner(ideal.n, _components(ideal))(prime)


def _require_proper(ideal: MonomialIdeal) -> None:
    """Raises DomainError for the zero or the unit ideal: the decomposition,
    the oracle, the filtration search and the depth search each take a
    proper nonzero ideal only."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")


def radicals(ideal: MonomialIdeal) -> frozenset[PrimeIdeal]:
    """Ass(S/I): the radicals of the irredundant irreducible components."""
    _require_proper(ideal)
    return frozenset(_radicals(ideal.n, _components(ideal)))


def associated_primes_oracle(ideal: MonomialIdeal) -> AssResult:
    """Ass(S/I) of a proper nonzero ideal, each prime with its witness,
    both read from one _components(I), the fold that
    irreducible_decomposition(I) has just made when it ran first. The
    primes are the radicals of the components, and the witness of P is
    the first one witnesses() yields, read in closed form as its
    lex-greatest corner (_corners; proof in the module docstring), with
    no scan. Raises InternalConsistencyError when a corner fails the
    witness test, and DomainError for a witness box over
    WITNESS_BOX_LIMIT: the oracle refuses what witnesses() refuses.
    """
    _require_proper(ideal)
    corners = _corners(ideal.n, _components(ideal))
    found = tuple((PrimeIdeal(ideal.n, key), corners[key]) for key in sorted(corners))
    return AssResult(frozenset(p for p, _ in found), found)
