"""Pretty clean prime filtrations of S/I, their Stanley decompositions and
an exact certificate for the decompositions.

A filtration is recorded as steps (witness, prime): starting from J = I,
each step adjoins its witness monomial, and the colon of the running
ideal by the witness must equal the step's prime. The terminal step has
witness 1 and prime equal to the penultimate ideal (which is then prime),
so the chain always ends at the unit ideal.

Pretty clean chains (Herzog-Popescu, Manuscripta Math. 2006) come from
one depth-first search, search_filtration, over (prime, witness) steps
straight to the unit ideal. A node is just the irredundant irreducible
components of its ideal, and a child J + (w) is built from its pin
(_child): its parent's components without the one that w is pinned at,
then that one's candidates that the cap rule of decompose keeps. The
pretty clean cut is read off the components before any child is built:
only the inclusion-maximal primes of Ass(S/J) can have an uncut child,
and the uncut witnesses pinned at a component lie in a sub-box of the
witness scan, which the search walks lazily in its own order.
staged_filtration runs that search once, on the working spec of
reduce_fully, I = x^factor * I', and lifts the chain it finds to I
through the factor.

Each step (w, P) gives the Stanley space w K[Z], Z the complement of P
(Herzog-Popescu 2006). stanley_certificate proves that spaces w_i K[Z_i]
partition the standard monomials of I in every degree, which holds
exactly when sum_i x^(w_i) prod_(j in P_i) (1 - x_j) equals the
K-polynomial of S/I. The K-polynomial comes from the Bayer-Stillman
colon recursion, so no monomials are enumerated. The certificate and
the chain check of verify_prime_filtration run on packed exponent
vectors (kernels._Packing).
"""

from __future__ import annotations

import heapq
from operator import neg
from typing import NamedTuple

from . import kernels
from .decompose import (
    _box,
    _caps,
    _components,
    _pairs,
    _pins,
    _require_proper,
    _witness,
    radicals,
)
from .monomials import (
    DimensionError,
    DomainError,
    InternalConsistencyError,
    LexSpec,
    Monomial,
    MonomialIdeal,
    PrimeIdeal,
    lexsegment_generators,
    mon_mul,
    reduce_fully,
    supp,
    unit,
)

# Most recursion nodes, terms x^m K(S/(J : m)), that one K-polynomial in
# stanley_certificate may take.
K_POLYNOMIAL_LIMIT = 1 << 16

# Most nodes, ideals whose children it tries, that one search_filtration
# may enter. A lexsegment never backtracks, so it enters one node per
# step of its chain but the last.
SEARCH_NODE_LIMIT = 1 << 16

# Most units, components in the keys plus steps held, that the tail memo
# of search_filtration (_TAILS) may hold, about 150 bytes each. The 477
# acceptance specs store 4,418 units, so their sweeps never clear it.
TAIL_MEMO_LIMIT = 1 << 14


class FiltrationStep(NamedTuple):
    witness: Monomial
    prime: PrimeIdeal


class PrimeFiltration(NamedTuple):
    base: MonomialIdeal
    steps: tuple[FiltrationStep, ...]

    @property
    def support(self) -> frozenset[PrimeIdeal]:
        return frozenset(s.prime for s in self.steps)


class Report(NamedTuple):
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class StanleyDecomposition(NamedTuple):
    n: int
    spaces: tuple[tuple[Monomial, frozenset[int]], ...]


def _degree_then_lex(w: Monomial):
    # small witnesses first keeps the quotients tame; lex-greatest
    # breaks ties deterministically
    return (sum(w), tuple(map(neg, w)))


def staged_filtration(spec: LexSpec) -> PrimeFiltration:
    """Pretty clean filtration of S/I for a lexsegment ideal I.

    search_filtration runs once, on the working spec of reduce_fully:
    I = x^f * i(I'), where i puts the variables of I' last, after the k
    dropped ones. Each step (w, P) of the chain of I' becomes
    (x^f * i(w), i(P)): colons commute with i and with multiplication by
    x^f, so these steps lead from I to (x^f). Then, for each i in supp(f)
    from the largest down, the steps (x^g * x_i^j, (x_i)) for j = f_i - 1,
    ..., 0, with g the part of f on x_1..x_(i-1), lead from (x^g * x_i^f_i)
    to (x^g), and at the last i to the unit ideal. The appended primes are
    single variables, which properly contain no nonzero prime, so the
    chain stays pretty clean. It is the chain that undoing the
    normalization in reverse builds: reduce_fully divides by the variables
    of supp(f) in increasing order, so undoing the division by x_i^f_i
    scales every step of the later divisions, their tails included.
    """
    work, factor = reduce_fully(spec)
    ideal = lexsegment_generators(work)
    found = search_filtration(ideal)
    if found is None:
        raise InternalConsistencyError(f"found no pretty clean chain from {ideal.gens}")
    n, k = spec.n, spec.n - work.n
    if not k and not any(factor):
        return found  # work is spec
    steps = [
        FiltrationStep(mon_mul(factor, (0,) * k + s.witness), s.prime.shift(k, n))
        for s in found.steps
    ]
    for i in reversed(supp(factor)):
        prime = PrimeIdeal(n, (i,))
        steps.extend(
            FiltrationStep(factor[: i - 1] + (j,) + (0,) * (n - i), prime)
            for j in range(factor[i - 1] - 1, -1, -1)
        )
    return PrimeFiltration(lexsegment_generators(spec), tuple(steps))


def search_filtration(ideal: MonomialIdeal) -> PrimeFiltration | None:
    """Depth-first search for a pretty clean filtration of S/I.

    A node is the list of irredundant components of its ideal J: the
    start is decomposed once, and the child J + (w) is built from its pin
    (_child). J is prime exactly when it has one component whose powers
    are all variables; that node ends the chain with the step (1, J).
    Any other node tries its uncut children (_children): steps (w, P),
    P a prime of Ass(S/J) and w a witness of P, prime by prime and in
    _degree_then_lex order within a prime.

    The pretty clean rule: the child J + (w) of the step (w, P) is cut
    when one of its radicals properly contains P. Every prime filtration
    of S/J' uses every prime of Ass(S/J') (Herzog-Popescu 2006), so a
    chain through J' is pretty clean only if no prime of Ass(S/J')
    properly contains the prime of a step on its path. Testing P alone
    is enough, by induction on the path: no radical of J properly
    contains an earlier step's prime. Multiplication by w gives
    0 -> S/P -> S/J -> S/(J + (w)) -> 0, so a prime R of
    Ass(S/(J + (w))) lies in Ass(S/J) or contains P. If R properly
    contains an earlier step's prime, it is not in Ass(S/J) and it is
    not P, a radical of J, so R properly contains P. A completed chain
    is therefore pretty clean.

    The cut is read before a child is built. Let w be a witness of P
    pinned at the component Q0: w_i = Q0_i - 1 for i in P. Q0 is the
    only component of J that misses w (decompose module docstring), so
    the components of J + (w) are those of J other than Q0 and the
    candidates Q0[k] with w_k > cap_k(Q0), the cap that the decompose
    module docstring defines.
    (a) If P lies properly inside another radical R of J, every child of
    P is cut: R is the radical of a component C != Q0, which contains w
    and so stays a component of J + (w). Only the inclusion-maximal
    primes are tried, sorted by their variables (_maximal_primes).
    (b) Let P be maximal. No component of J has a radical properly
    containing P, and Q0[k] has radical P for k in P. For k off P,
    Q0[k] has radical P + (x_k), so the child is uncut exactly when
    w_k <= cap_k(Q0) at every k off P. So the uncut children of P are
    the witnesses pinned at its components with every coordinate off P
    at most its cap, a sub-box of the witness scan.
    Each pin's sub-box is walked lazily in _degree_then_lex order
    (_pinned), the pins of P are merged on that key, and no monomial is
    pinned at two components, so the children come in the order of the
    sorted scan of every prime with the cut ones left out, and a node
    that takes its first child tests a few monomials, not its box.

    The witness box (decompose._box) is read once, at the start: no node
    has a larger box than its parent. The box of J is the lcm of its
    generators. Every child's witness w lies in J's box: w_i = Q0_i - 1
    on P, and off P w_k <= cap_k(Q0), which is 0 or the exponent C_k of
    a component. The generators of J + (w) are among those of J and w,
    so their lcm lies below lcm(box, w) = box. So only the start can be
    over decompose.WITNESS_BOX_LIMIT.

    The search below a node J depends only on the set of J's components.
    Its children and their order do: the maximal primes are sorted, the
    pins of the maximal ideal are sorted, the pins of any other prime are
    merged on _degree_then_lex, which no two of their candidates share,
    and the caps, the witness test and the child's components read the
    components as a set. So does the cut, which tests the step's prime
    against the child's own radicals, never an earlier step's (the
    induction above). So every search that reaches J goes on from J the
    same way: it completes with the same tail, after entering the same
    number of nodes from J, backtracked ones included. The tail memo
    (_TAILS) keeps, for each node that a completed search entered on its
    final path, keyed by its components as a frozenset, that tail and that
    count. Each node is looked up before it is entered. A hit appends the
    tail and stops; it raises exactly when entered + count is over
    SEARCH_NODE_LIMIT, entered counting the nodes before it, as the cold
    search would raise while entering the hit node's subtree. Backtracked
    nodes and failed searches store nothing. The memo holds at most
    TAIL_MEMO_LIMIT units, components in its keys plus steps held, each
    steps tuple once, and is cleared when a completed path does not fit.
    A path over the limit alone is not stored, and nodes past the limit
    on the path are neither keyed nor looked up: skipping a lookup only
    makes the search cold. So every call returns or raises as a cold
    search does, whatever ran before it.

    The path is a stack of child generators, not a recursion. Returns the
    first complete pretty clean filtration, or None. Raises DomainError
    on entering a node past SEARCH_NODE_LIMIT, counting every node
    entered, backtracked or not, and for a start whose witness box is
    over decompose.WITNESS_BOX_LIMIT.
    """
    _require_proper(ideal)
    n = ideal.n
    comps = _components(ideal)
    _box(n, comps)
    steps: list[FiltrationStep] = []
    frames = []
    # per frame: its node's memo key, the nodes entered up to it and the
    # units of the path up to it, its components plus one per step
    path = []
    entered = 0
    while not (len(comps) == 1 and max(comps[0]) == 1):
        units = len(comps) + 1 + (path[-1][2] if path else 0)
        # past TAIL_MEMO_LIMIT the path can no longer be stored: no key,
        # and the lookup of None misses
        key = frozenset(comps) if units <= TAIL_MEMO_LIMIT else None
        hit = _TAILS.get(key)
        entered += hit[2] if hit else 1
        if entered > SEARCH_NODE_LIMIT:
            raise DomainError(
                f"filtration search of the {len(ideal.gens)}-generator ideal "
                f"enters over SEARCH_NODE_LIMIT = {SEARCH_NODE_LIMIT} nodes"
            )
        if hit:
            tail, offset, _ = hit
            steps.extend(tail[offset:])
            break
        frames.append(_children(n, comps))
        path.append((key, entered, units))
        while (child := next(frames[-1], None)) is None:
            frames.pop()
            path.pop()
            if not frames:
                return None
            steps.pop()
        step, comps = child
        steps.append(step)
    else:
        steps.append(FiltrationStep(unit(n), PrimeIdeal(n, supp(comps[0]))))
    chain = tuple(steps)
    _TAILS.store(path, chain, entered)
    return PrimeFiltration(ideal, chain)


class _TailMemo(dict):
    """The tail memo of search_filtration: the components of a node on a
    completed chain, as a frozenset, -> (steps, offset, count): the
    chain's steps, the node's first step steps[offset], and the nodes a
    search entered from the node until the chain completed. units counts
    the components in the keys plus the steps held, each steps tuple once,
    and stays at most TAIL_MEMO_LIMIT."""

    units = 0

    def clear(self):
        super().clear()
        self.units = 0

    def store(self, path, chain, entered: int):
        """Stores the nodes of a completed search's path, in chain order
        as search_filtration lists them, all sharing chain; entered counts
        the nodes of the whole search. Clears the memo first when they do
        not fit, and stores nothing when they alone are over the limit,
        as they are when a node of path has no key."""
        if not path:
            return
        # the path's units count one step per node; chain holds the rest
        units = path[-1][2] - len(path) + len(chain)
        if units > TAIL_MEMO_LIMIT:
            return
        if self.units + units > TAIL_MEMO_LIMIT:
            self.clear()
        self.units += units
        for offset, (key, at, _) in enumerate(path):
            self[key] = (chain, offset, entered - at + 1)


_TAILS = _TailMemo()


class _Node(list):
    """The components of a search node, as _child lists them, and powers,
    their pairs (decompose._pairs) in the same order, which the witness
    test reads (decompose._witness)."""

    __slots__ = ("powers",)


def _children(n: int, comps):
    """The uncut children of a node with components comps, in search
    order, each as (step, components): for each maximal prime of
    Ass(S/J) (_maximal_primes), the candidates of its pins (_pinned)
    merged in _degree_then_lex order, kept when they pass the witness
    test (decompose._witness). A pin Q0 of the maximal ideal has one
    candidate, w = Q0 - 1, whose key orders the pins as sum(Q0), then
    lex-descending Q0: two sorts with no key built in Python. A child is
    built (_child) only when it is yielded. A node made elsewhere, as
    the root is, gets its pairs here."""
    powers = getattr(comps, "powers", None) or [*map(_pairs, comps)]
    for prime, pins in _maximal_primes(n, comps):
        on_prime = [i + 1 in prime.vars for i in range(n)]
        if len(prime.vars) == n:
            pins = sorted(pins, reverse=True)
            pins.sort(key=sum)
            found = (tuple(e - 1 for e in q0) for q0 in pins)
        else:
            merged = heapq.merge(*(_pinned(n, comps, q0) for q0 in pins))
            found = (w for _, w in merged)
        for w in found:
            if _witness(w, powers):
                at = comps.index(tuple(e + 1 if on else 0 for e, on in zip(w, on_prime)))
                yield FiltrationStep(w, prime), _child(n, comps, powers, at, w)


def _child(n: int, comps, powers, at: int, w: Monomial) -> _Node:
    """The node J + (w) for a witness w pinned at Q0 = comps[at], powers
    the pairs of comps. Q0 is the only component of J that misses w, so
    the components of J + (w) are comps without Q0, in order, then the
    candidates Q0[k] with w_k > cap_k(Q0) (decompose module docstring),
    and the pairs are the node's without Q0's, then the candidates'."""
    q0 = comps[at]
    caps = _caps(n, comps, q0)
    fresh = [q0[:k] + (w[k],) + q0[k + 1 :] for k in range(n) if w[k] > caps[k]]
    child = _Node([*comps[:at], *comps[at + 1 :], *fresh])
    child.powers = [*powers[:at], *powers[at + 1 :], *map(_pairs, fresh)]
    return child


def _maximal_primes(n: int, comps) -> list:
    """The inclusion-maximal radicals of the components comps, each as
    (prime, its pins: the components with that radical), sorted by the
    prime's variables. Radicals are compared as bitmasks, bit i for x_i."""
    pins = _pins(n, comps)
    masks = {key: sum(1 << i for i in key) for key in pins}
    return [
        (PrimeIdeal(n, key), pins[key])
        for key, p in sorted(masks.items())
        if not any(p & r == p != r for r in masks.values())
    ]


def _pinned(n: int, comps, q0):
    """The candidates pinned at the component q0 with radical P whose
    edge is not cut (search_filtration, (b)), as (_degree_then_lex(w), w)
    in that order: w_i = q0_i - 1 on P and 0 <= w_k <= cap_k(q0) off P.
    The first one, 0 off P, needs no cap. The caps (decompose._caps) are
    read only when a second one is asked for: a node usually takes an
    earlier child, and caps computed for every pin up front cost more
    than the search saves. The rest of the sub-box comes degree by
    degree, lex-descending within a degree."""
    pin = tuple(e - 1 if e else 0 for e in q0)
    yield _degree_then_lex(pin), pin
    caps = _caps(n, comps, q0)
    free = [k for k in range(n) if not q0[k]]
    bounds = [caps[k] for k in free]
    w = list(pin)
    for t in range(1, sum(bounds) + 1):
        for off in _compositions(bounds, t):
            for k, e in zip(free, off):
                w[k] = e
            m = tuple(w)
            yield _degree_then_lex(m), m


def _compositions(bounds, t: int):
    """Every tuple e with 0 <= e_j <= bounds[j] and sum t, lex-descending."""
    if len(bounds) == 1:
        if t <= bounds[0]:
            yield (t,)
        return
    room = sum(bounds[1:])
    for e in range(min(bounds[0], t), max(t - room, 0) - 1, -1):
        for rest in _compositions(bounds[1:], t - e):
            yield (e, *rest)


def _largest_exponent(n: int, monomials) -> int:
    """The largest exponent of the monomials, 0 for none. Raises
    DimensionError for one not in n variables and DomainError for a
    negative exponent, which no packing holds."""
    top = 0
    for w in monomials:
        if len(w) != n:
            raise DimensionError(f"monomial length {len(w)} != {n}")
        if w:
            if min(w) < 0:
                raise DomainError(f"negative exponent in {w}")
            top = max(top, *w)
    return top


def verify_prime_filtration(filtration: PrimeFiltration) -> Report:
    """Chain validity: witnesses escape, colons match, terminal unit ideal.

    The running ideal J starts at the base, and each step adds its
    witness w: w must lie outside J, (J : w) must equal the step's prime,
    and the last J must be the unit ideal. The chain runs on packed
    exponent vectors (kernels._Packing). Each generator of J is a base
    generator or a witness, a generator of (J : w) is below one of J's,
    and the prime's generators are variables, so a packing sized from the
    largest exponent of the base and the witnesses, and at least 1, holds
    every exponent. Raises DimensionError for a witness not in the base's
    variables and DomainError for a negative exponent.
    """
    base, steps = filtration.base, filtration.steps
    n = base.n
    top = _largest_exponent(n, [*base.gens, *(s.witness for s in steps)])
    packing = kernels._Packing(n, max(top, 1))
    pack, guards = packing.pack, packing.guards
    targets: dict = {}  # prime -> its packed generators, None in other n
    current = [pack(g) for g in base.gens]
    violations = []
    for k, step in enumerate(steps):
        w = pack(step.witness)
        if packing.member(w, current):
            violations.append(f"step {k}: witness {step.witness} already in the chain")
            continue
        prime = step.prime
        if prime not in targets:
            ideal = prime.to_ideal()
            targets[prime] = tuple(map(pack, ideal.gens)) if ideal.n == n else None
        if packing.colon(current, w) != targets[prime]:
            violations.append(
                f"step {k}: colon by {step.witness} is not ({step.prime.vars})"
            )
        # J + (w): w lies outside J, so only the generators it divides go
        current = [g for g in current if ((g | guards) - w) & guards != guards]
        current.append(w)
    if 0 not in current:  # the unit ideal is generated by 1 alone
        violations.append("chain does not terminate at the unit ideal")
    return Report(tuple(violations))


def verify_pretty_clean(filtration: PrimeFiltration) -> Report:
    """No proper inclusion prime_i ⊂ prime_j with i < j, reported in (i, j)
    order. Each step's prime, as a bitmask, is compared with the distinct
    primes before it, so the cost is steps times distinct primes."""
    steps = filtration.steps
    earlier: dict[int, list[int]] = {}  # prime mask -> the steps with it
    pairs = []
    for j, step in enumerate(steps):
        q = sum(1 << i for i in step.prime.vars)
        for p, at in earlier.items():
            if p & q == p != q:
                pairs.extend((i, j) for i in at)
        earlier.setdefault(q, []).append(j)
    violations = tuple(
        f"steps {i} < {j}: ({steps[i].prime.vars}) properly "
        f"contained in ({steps[j].prime.vars})"
        for i, j in sorted(pairs)
    )
    return Report(violations)


def supp_equals_ass(filtration: PrimeFiltration, ass=None) -> Report:
    """Supp of the filtration must equal Ass(S/I), the radicals of the
    irredundant irreducible components (the oracle's prime set). A caller
    that holds Ass(S/I) already passes it as ass; None computes it."""
    if ass is None:
        ass = radicals(filtration.base)
    support = filtration.support
    violations = []
    for p in sorted(support - ass, key=lambda p: p.vars):
        violations.append(f"filtration prime ({p.vars}) is not associated")
    for p in sorted(ass - support, key=lambda p: p.vars):
        violations.append(f"associated prime ({p.vars}) missing from the filtration")
    return Report(tuple(violations))


def stanley_decomposition(filtration: PrimeFiltration) -> StanleyDecomposition:
    """Spaces w * K[free vars], free vars = complement of the step prime."""
    n = filtration.base.n
    spaces = tuple(
        (s.witness, frozenset(range(1, n + 1)) - set(s.prime.vars))
        for s in filtration.steps
    )
    return StanleyDecomposition(n, spaces)


def sdepth_lower_bound(decomposition: StanleyDecomposition) -> int:
    return min(len(free) for _, free in decomposition.spaces)


def _k_polynomial(packing, gens: tuple) -> dict[int, int]:
    """K-polynomial of S/I as {packed exponent: coefficient}, zero terms
    dropped, for I generated by the packed, lex-descending minimal gens.

    The exact sequence 0 -> S/(J : m)(-m) -> S/J -> S/(J + (m)) -> 0 gives
    K(S/(J + (m))) = K(S/J) - x^m K(S/(J : m)) (Bayer-Stillman 1992). With
    m the last generator each time, unrolled along g_1 > ... > g_r:
    K(S/I) = 1 - sum_k x^(g_k) K(S/((g_1, ..., g_(k-1)) : g_k)). Each term
    is one recursion node; the colon ideals are memoized for this call
    only. Raises DomainError past K_POLYNOMIAL_LIMIT nodes.

    No exponent exceeds the largest exponent of gens, so a packing sized
    from it holds the recursion. K(S/J) is the sum over sets s of
    generators of J of (-1)^|s| x^lcm(s) (the Taylor resolution), so each
    of its terms divides lcm(J). The colon J_k = (g_1, ..., g_(k-1)) : g_k
    is generated by the (g_j - g_k)_+, so a term of x^(g_k) K(S/J_k) is
    at most g_k + max_j (g_j - g_k)_+ = lcm(g_1, ..., g_k) componentwise;
    the partial sums are the K-polynomials of (g_1, ..., g_k). The
    generators of J_k lie below those of J, so the bound holds at every
    depth.
    """
    memo: dict = {}
    nodes = 0
    colon = packing.colon
    count = len(gens)

    def k(gens):
        nonlocal nodes
        poly = memo.get(gens)
        if poly is not None:
            return poly
        poly = {0: 1}
        for i, m in enumerate(gens):
            nodes += 1
            if nodes > K_POLYNOMIAL_LIMIT:
                raise DomainError(
                    f"K-polynomial of the {count}-generator ideal needs "
                    f"over K_POLYNOMIAL_LIMIT = {K_POLYNOMIAL_LIMIT} recursion nodes"
                )
            for e, c in k(colon(gens[:i], m)).items():
                e += m
                poly[e] = poly.get(e, 0) - c
        poly = {e: c for e, c in poly.items() if c}
        memo[gens] = poly
        return poly

    return k(gens)


def _stanley_numerator(packing, decomposition: StanleyDecomposition) -> dict[int, int]:
    """sum_i x^(w_i) prod_(j in P_i) (1 - x_j), P_i the complement of Z_i,
    as {packed exponent: coefficient}, zero terms dropped. Its exponents
    are at most w_i + 1, which the packing must hold."""
    bits = [1 << s for s in packing.shifts]  # x_(j+1) at bits[j]
    poly: dict = {}
    for w, free in decomposition.spaces:
        terms = {packing.pack(w): 1}
        for j, bit in enumerate(bits):
            if j + 1 in free:
                continue
            # every exponent in terms has w[j] at j, so the shifted keys are new
            for e, c in list(terms.items()):
                terms[e + bit] = -c
        for e, c in terms.items():
            poly[e] = poly.get(e, 0) + c
    return {e: c for e, c in poly.items() if c}


def stanley_certificate(
    ideal: MonomialIdeal, decomposition: StanleyDecomposition
) -> Report:
    """Exact certificate that the spaces w_i K[Z_i] partition the standard
    monomials of I, in every degree.

    As power series, (K(S/I) - N) / prod_j (1 - x_j) = sum_m (s(m) - c(m)) x^m,
    where N is _stanley_numerator, s is the indicator of the standard
    monomials and c(m) the number of spaces that contain m (the sum of
    their indicators). K(S/I) = N therefore gives c = s: each standard
    monomial lies in exactly one space, and since every indicator is
    non-negative, c(m) = 0 on I means that no space meets I.

    Otherwise consider the monomials of least degree with s(m) != c(m),
    the violations of least degree. K(S/I) - N is the series above times
    prod_j (1 - x_j), which adds only terms of higher degree, so these are
    exactly the lowest-degree terms of K(S/I) - N. The report names the
    lex-greatest of them, the first violation in degree-then-lex order as
    a degree-bounded enumeration would meet it, and words it from the
    per-space test at that monomial alone.

    Both polynomials are packed (kernels._Packing), in one layout sized
    from the largest generator exponent (which bounds K(S/I), see
    _k_polynomial) and the largest witness exponent plus one (which
    bounds N), so a witness outside the lcm box of I cannot overflow a
    field. Only the exponents where they differ are unpacked. Raises
    DimensionError for a decomposition or a witness in other variables,
    and DomainError for a negative exponent.
    """
    n = ideal.n
    if decomposition.n != n:
        raise DimensionError(
            f"decomposition in {decomposition.n} variables, ideal in {n}"
        )
    top = max(
        _largest_exponent(n, ideal.gens),
        _largest_exponent(n, (w for w, _ in decomposition.spaces)) + 1,
    )
    packing = kernels._Packing(n, top)
    k_poly = _k_polynomial(packing, tuple(map(packing.pack, ideal.gens)))
    numerator = _stanley_numerator(packing, decomposition)
    if k_poly == numerator:
        return Report(())
    diff = [
        packing.unpack(e)
        for e in k_poly.keys() | numerator.keys()
        if k_poly.get(e, 0) != numerator.get(e, 0)
    ]
    m = min(diff, key=_degree_then_lex)
    # w * K[Z] contains m iff w <= m and m[i] == w[i] outside Z
    covers = [
        k
        for k, (w, free) in enumerate(decomposition.spaces)
        if all(
            w[i] <= m[i] if i + 1 in free else w[i] == m[i] for i in range(ideal.n)
        )
    ]
    if m in ideal:
        if covers:
            return Report((f"{m} lies in I but is covered by {covers}",))
    elif not covers:
        return Report((f"standard monomial {m} is not covered",))
    elif len(covers) > 1:
        return Report((f"standard monomial {m} covered twice: {covers}",))
    raise InternalConsistencyError(
        f"K-polynomial and Stanley numerator differ at {m}, which is covered correctly"
    )
