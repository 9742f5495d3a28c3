"""Depth of S/I: a lex-criterion classifier for lexsegment ideals and an
independent exact oracle via multigraded Betti numbers over a prime field.

The oracle route: for b in the lcm lattice of the minimal generators,
beta_{i,b}(I) is the rank of reduced homology H~_{i-1} of the upper
Koszul complex K^b(I) (Hochster's formula; Miller-Sturmfels,
Combinatorial Commutative Algebra, ch. 1 and 5), and depth(S/I) =
n - 1 - pd(I) by Auslander-Buchsbaum. Only pd(I) = max{i : beta_{i,b} != 0}
is needed, so depth_exact searches for it, over one field GF(p),
instead of building the whole Betti table. K^b(I) lives on the simplex
on supp(b), so over every field beta_{i,b} != 0 implies
i <= |supp b| - 1. The search visits the lattice
by decreasing |supp b| and stops at the first b whose bound cannot beat
the best index found so far. It starts that best at h - 1, where h is
the largest height of an associated prime, from a nonzero
beta_{h-1,b} it has computed (_seed), so it only visits the b with
|supp b| >= h + 1.

The seed (a lemma). Let Q0 be an irredundant irreducible component of I
of height h, with radical P, and let a be its exponent vector, zero off
P. Then some b in the lcm lattice with b|_P = a has beta_{h-1,b}(I) != 0,
over every field. Proof: setting x_j = 1 for every j not in P gives an
ideal I_P of S_P = K[x_i : i in P], and the dehomogenization is exact on
Z^n-graded modules, so it takes the minimal free resolution of I to a
Z^P-graded free resolution of I_P, not necessarily minimal, with one
summand S_P(-b|_P) for each S(-b). Hence
beta_{i,a}(I_P) <= sum over b with b|_P = a of beta_{i,b}(I). The
components of I_P are the Q|_P of the components Q of I with radical in
P, Q0|_P among them. The corner x^(a - 1_P) lies outside Q0 and in every
other such Q (decompose, the corners), so it lies outside I_P and
x_i x^(a - 1_P) lies in I_P for each i in P: it is a socle monomial of
S_P/I_P. So K^a(I_P) holds every proper subset of P and not P, the
boundary of the simplex on P, a sphere of dimension h - 2, and
beta_{h-1,a}(I_P) = 1. So pd(I) >= h - 1, and the b that proves it lies
in the fiber {b in the lattice : b|_P = a}.

The fiber has a top: the lcm of the generators g with g|_P <= a, the
generators that divide the corner of Q0 plus 1_P. At each i in P one of
them has g_i = a_i: x_i x^(a - 1_P) lies in I_P and x^(a - 1_P) does
not, so some generator has g|_P <= a - 1_P + e_i but not g_i < a_i. So
the top is in the fiber, and every fiber element, an lcm of such
generators, lies below it. A fiber element c below b differs from b at
some j outside P, and lies below the child b^(j) of the walk, which is
then in the fiber too. So the fiber is walked by _lattice_walk itself,
from that top, with the coordinates in P held fixed. At each b of the
fiber that is not skipped (below: a cone, at most h - 1 facets, or a
strong core with no beta_{h-1,b}), beta_{h-1,b} is read over GF(p), and
the fiber is read until one is nonzero. A fiber that runs out first
contradicts the lemma: InternalConsistencyError, not a silent best of 0.
The decomposition only chooses where to look. Every beta, the seed's
included, is still read through _betti at p, from the facets of that
K^b: the sphere below is read in closed form because its own facets
show it is one, never because the lemma says a beta is there. So a homology that read every beta as zero fails
loudly rather than agree with n - h.

The lattice is walked lazily, from its top down (_lattice_walk), so the
search generates only the part it reads; each visited b comes with the
generators g that divide it. Their sets {i : g_i < b_i}, as bitmasks,
span K^b, and the inclusion-maximal ones are its facets. K^b is a cone
exactly when some vertex lies in every facet: then each face sigma has
sigma + {v} in K^b, the straight-line homotopy to v contracts it, and
its reduced homology vanishes over every field.

The facet bound (a lemma). If K^b has m facets, then beta_{i,b} = 0 for
every i >= m, over every field. Proof: K^b is the union of the simplices
on its facets F_1..F_m, and a union K of at most m simplices, each
holding the empty face, has H~_j(K) = 0 for j >= m - 1, by induction on
m. For m = 1, K is a simplex, acyclic, or the empty face alone, with
only H~_{-1}. For m > 1 let K' be the union of the first m - 1: K' and
the simplex on F_m meet in the union of the simplices on the
F_j ∩ F_m, j < m, and reduced Mayer-Vietoris,
H~_j(K') + H~_j(simplex) -> H~_j(K) -> H~_{j-1}(K' ∩ simplex), has
both ends zero for j >= m - 1 by induction. The cone is the case where
the facets share a vertex, acyclic whatever m is.

Strong collapse (a lemma; Barmak-Minian, Strong homotopy types, nerves
and collapses, DCG 2012). A vertex v of a complex K is dominated by a
vertex u != v when every facet holding v holds u. Then K - v, the faces
without v, has the reduced homology of K over every field, and its
facets are the maximal sets among {F - {v}}. Proof: K is the union of
K - v and the star of v, {sigma : sigma + {v} in K}, which meet in the
link of v, {sigma in the star : v not in sigma}. The star is a cone on
v. The link is a cone on u: sigma + {v} lies in a facet, which holds u,
so sigma + {u} is in the link too. Both are acyclic, so reduced
Mayer-Vietoris, H~_j(link) -> H~_j(K - v) + H~_j(star) -> H~_j(K) ->
H~_{j-1}(link), gives H~_j(K - v) = H~_j(K) for every j. Deleting
dominated vertices until none is left (_collapse) gives the strong core
of K, with the homology of K.

The sphere. A complex whose m facets are every (m - 1)-subset of their
union S, |S| = m, is the boundary of the simplex on S, a sphere of
dimension m - 2: H~_{m-2} has rank 1 and every other H~_j is zero, over
every field. So beta_{m-1,b} = 1 and every other beta_{i,b} = 0 when the
strong core of K^b is such a sphere, and no K^b is built to read it.

Where a beta can be nonzero. A complex on v vertices, of m facets and of
dimension d has H~_j = 0 at j >= v - 1 (only the full simplex, acyclic,
reaches dimension v - 1), at j >= m - 1 (the facet bound) and at j > d.
So for the strong core of K^b, beta_{i,b} = 0 past its top, i >
min(v - 1, m - 1, d + 1).

So a b is skipped, and K^b is not built, when no beta_{i,b} it could
read is nonzero: i >= low, where low = h - 1 in the seed, which reads
beta_{h-1}, and low = h in the walk after it, which reads only above its
best, h - 1 or more. Two cheap tests come first: the facets of K^b share
a vertex (a cone; the full simplex, whose one facet is supp(b) when
x^(b - 1_supp b) is in I, among them) or number at most low (the facet
bound). On what is left, the strong core is taken, and b is skipped when
the core's top is below low: a core of one facet, a simplex, among them
(low >= 1). low comes from h, fixed per ideal, and never from the
search's running best, so each verdict, kept or skipped, holds over
every field. A kept core that is a sphere is read in closed form; any
other is built, as the submasks of its facets, only when a search
first reads a beta there. There i runs from the core's top down to
best + 1, with beta_{i,b} = f_{i-1} - rk d_{i-1} - rk d_i (f_j faces of
dimension j, d_j the boundary map out of dimension j over GF(p), each
rank computed once per b and search by kernels.gf_rank), and stops at
the first nonzero one. Characteristic is a parameter (any prime below
2^31), and depths_exact runs one search per prime asked for, so the
sweep can cross-check two primes.

Only the ranks depend on the field. The lattice, the fiber, every K^b
and its core are the same over every field, so the last ideal's walks
are kept, each as an itertools.tee that replays the steps made so far,
with the verdict at each b and the cores built so far (_walks). That
memo is the one place where primes share work: depth_exact(I, p) at
one prime after another walks the lattice once and collapses and
builds each K^b at most once, and each search still computes its own
Betti numbers.
"""

from __future__ import annotations

import heapq
from copy import copy
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from itertools import compress, tee
from math import inf
from operator import and_, le, lt, neg, or_

from . import decompose, kernels
from .monomials import (
    DomainError,
    InternalConsistencyError,
    LexSpec,
    Monomial,
    MonomialIdeal,
    SpecError,
    SpecKind,
    classify,
    variable,
)

# Most lcm lattice elements, popped plus queued, that _lattice_walk() will
# generate.
LCM_LATTICE_LIMIT = 1 << 16
# Every characteristic p lies below this, where Miller-Rabin on the bases
# in MILLER_RABIN_BASES is exact (_require_prime).
CHARACTERISTIC_LIMIT = 1 << 31
# No composite below 3,215,031,751 is a strong pseudoprime to all of these
# (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980).
MILLER_RABIN_BASES = (2, 3, 5, 7)
# Largest |supp b| at which depth_exact() tests or builds K^b, a complex of
# up to 2^|supp b| faces.
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
    if classify(spec) != SpecKind.ARBITRARY:
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


def upper_koszul_complex(facets, b: Monomial) -> list[list[int]]:
    """K^b(I) from its facets (_facets): the squarefree sets
    sigma ⊆ supp(b) with x^b / x^sigma in I, which are the subsets of the
    sets {i : g_i < b_i} over the generators g dividing b. From the facets
    of its strong core (_collapse), the core.

    Faces are bitmasks, bit i - 1 for the variable x_i. Returned by face
    size: entry k holds the k-element faces, for k = 0..|supp b|.
    """
    faces = {0} if facets else set()
    for facet in facets:
        face = facet
        while face:
            faces.add(face)
            face = (face - 1) & facet
    by_size = [[] for _ in range(len(b) - b.count(0) + 1)]
    for face in faces:
        by_size[face.bit_count()].append(face)
    return by_size


def _maximal(masks) -> list[int]:
    """The inclusion-maximal bitmasks among masks, largest first."""
    kept: list[int] = []
    # a kept mask is at least as large, so none that comes later contains it
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        for facet in kept:
            if mask & facet == mask:
                break
        else:
            kept.append(mask)
    return kept


def _facets(b: Monomial, divisors) -> list[int]:
    """The facets of K^b(I), given the generators that divide b: the
    inclusion-maximal sets {i : g_i < b_i}, as bitmasks (bit i - 1 for
    x_i), largest first."""
    bits = [1 << i for i in range(len(b))]
    return _maximal({sum(compress(bits, map(lt, g, b))) for g in divisors})


def _collapse(facets) -> list[int]:
    """The facets of the strong core of the complex with these facets
    (bitmasks, largest first), largest first: delete a vertex v dominated
    by some u != v, one that lies in every facet holding v, the lowest
    such v first, until none is left. The facets after each deletion are
    the maximal sets among {F - {v}}. The core has the reduced homology of
    the complex over every field (module docstring)."""
    while True:
        rest = reduce(or_, facets)
        while rest:
            v = rest & -rest
            rest ^= v
            if reduce(and_, [f for f in facets if f & v]) != v:
                facets = _maximal([f & ~v for f in facets])
                break
        else:
            return facets


def _is_sphere(facets, vertices: int) -> bool:
    """True iff the m facets are every (m - 1)-subset of their union of
    vertices (a bitmask): the complex is the boundary of the simplex on
    those m vertices, a sphere of dimension m - 2."""
    m = len(facets)
    return vertices.bit_count() == m and all(f.bit_count() == m - 1 for f in facets)


def _require_support(size: int) -> None:
    """Raises DomainError when |supp b| = size is over KOSZUL_SUPPORT_LIMIT."""
    if size > KOSZUL_SUPPORT_LIMIT:
        raise DomainError(
            f"|supp b| = {size} is over KOSZUL_SUPPORT_LIMIT = "
            f"{KOSZUL_SUPPORT_LIMIT}"
        )


class _Core:
    """The strong core of a K^b that depth_exact reads (_koszul), from
    its facets, largest first (_collapse). top is the last i at which
    beta_{i,b} can be nonzero over any field, min(v - 1, m - 1, d + 1)
    for a core of v vertices, m facets and dimension d, so d + 1 is the
    size of its first facet (module docstring). A sphere, the boundary
    of the simplex on top + 1 vertices, is read in closed form; any other
    core is built as a complex (upper_koszul_complex) at its first read
    (_betti) and kept for the reads at every later prime."""

    __slots__ = ("b", "facets", "top", "sphere", "by_size")

    def __init__(self, b: Monomial, facets):
        vertices = reduce(or_, facets)
        self.b, self.facets, self.by_size = b, facets, None
        self.sphere = _is_sphere(facets, vertices)
        self.top = min(vertices.bit_count() - 1, len(facets) - 1, facets[0].bit_count())


def _koszul(size: int, b: Monomial, divisors, low: int):
    """The strong core (_Core) of K^b(I), from the generators that divide
    b; or None when no beta_{i,b} with i >= low can be nonzero over any
    field: the facets of K^b share a vertex (a cone) or number at most low
    (the facet bound, module docstring), both tested first, or the core
    has top < low, a simplex (one facet, as low >= 1) among them. Raises
    DomainError first when |supp b| = size is over KOSZUL_SUPPORT_LIMIT
    (_require_support)."""
    _require_support(size)
    facets = _facets(b, divisors)
    if len(facets) <= low or reduce(and_, facets):
        return None
    core = _Core(b, _collapse(facets))
    return None if core.top < low else core


def _betti(core: _Core, p: int):
    """beta(i) = beta_{i,b} = rank H~_{i-1} over GF(p) of the core of K^b,
    for 1 <= i <= |supp b| - 1.

    The boundary of the simplex on top + 1 vertices has
    beta(top) = 1 and every other beta zero, over every field. Any other
    core is built as a complex by face size, by_size, if no prime has
    built it yet, and rank H~_{i-1} = f_{i-1} - rk d_{i-1} - rk d_i, where
    f_j counts the faces of dimension j and d_j is the boundary map out of
    dimension j; each rank is computed at most once, when a beta first
    needs it.
    """
    if core.sphere:
        top = core.top
        return lambda i: int(i == top)
    if core.by_size is None:
        core.by_size = upper_koszul_complex(core.facets, core.b)
    by_size = core.by_size
    ranks: dict[int, int] = {}

    def rank(k: int) -> int:
        """Rank over GF(p) of the boundary map from k-element to
        (k-1)-element faces, by kernels.gf_rank: the row of a face f is
        {column of f minus its j-th smallest vertex: (-1)^j}."""
        if k in ranks:
            return ranks[k]
        rows = []
        index = {f: j for j, f in enumerate(by_size[k - 1])}
        for f in by_size[k]:
            row = {}
            rest, sign = f, 1
            while rest:
                bit = rest & -rest
                row[index[f ^ bit]] = sign
                rest ^= bit
                sign = -sign
            rows.append(row)
        ranks[k] = kernels.gf_rank(rows, p) if rows else 0
        return ranks[k]

    def beta(i: int) -> int:
        return len(by_size[i]) - rank(i) - rank(i + 1)

    return beta


def _lattice_walk(gens, held=()):
    """Yields (|supp b|, b, the gens dividing b) for every b in the lcm
    lattice of gens, by decreasing |supp b| and then decreasing lex: the
    order of sorted(((|supp b|, b) for b in the lattice), reverse=True).

    Every lattice element below b lies below some
    b^(i) = lcm{g : g | b, g_i < b_i} with i in supp b, and each b^(i) is
    itself in the lattice, componentwise below b, so later in the order.
    So a heap seeded with the lcm of all gens, that pushes each b^(i) of a
    popped b once, pops the lattice in order: an element not yet popped
    has an ancestor in the heap that comes no later. The gens dividing
    b^(i) are exactly those g | b with g_i < b_i, so each queued element
    carries them. The b^(i) of b are computed only when the next element
    is asked for.

    With held, indices of coordinates held fixed, only the b^(i) with i
    not held that keep every held coordinate of b are pushed, and the
    walk yields, in the same order, the fiber of the top: the b with
    b_i = top_i at every held i. Every fiber element below b lies below
    one of those b^(i) (module docstring), so the order argument above
    holds there.

    Raises DomainError once more than LCM_LATTICE_LIMIT elements, popped
    plus queued, have been generated. A fiber is part of the lattice, so
    a lattice within the limit is walked, whole or in a fiber.
    """
    top = tuple(map(max, zip(*gens)))
    seen = {top}
    free = [i for i in range(len(top)) if i not in held]
    # heapq pops the least: -|supp b| first, then b negated componentwise
    heap = [(top.count(0) - len(top), tuple(map(neg, top)), top, gens)]
    while heap:
        neg_size, _, b, below = heapq.heappop(heap)
        yield -neg_size, b, below
        for i in free:
            e = b[i]
            if not e:
                continue
            lower = [g for g in below if g[i] < e]
            if not lower:
                continue  # every g | b has g_i = b_i
            child = tuple(map(max, zip(*lower)))
            if child in seen or held and any(child[j] < b[j] for j in held):
                continue
            seen.add(child)
            if len(seen) > LCM_LATTICE_LIMIT:
                raise DomainError(
                    f"lcm lattice has more than LCM_LATTICE_LIMIT = "
                    f"{LCM_LATTICE_LIMIT} elements"
                )
            heapq.heappush(
                heap, (child.count(0) - len(child), tuple(map(neg, child)), child, lower)
            )


@lru_cache(maxsize=1)
def _walks(ideal: MonomialIdeal, limits) -> tuple:
    """(Q0, the fiber walk of Q0 or None when h = 1, the lattice walk of
    I): the part of the depth search of I that no prime changes. Q0 is the
    first component of the largest height h in decompose._components(I), a
    memo hit when the oracle has just read I, and its fiber (module
    docstring) is walked over the generators g with g_i <= Q0_i on its
    radical, with those coordinates held.

    Each walk is a pair (root, built): root is an itertools.tee of
    _lattice_walk that is never advanced, so a copy of it replays every
    step (|supp b|, b, the gens dividing b) from the first, and the walk
    runs no further than its furthest copy; built maps each b whose K^b a
    reader asked for to the strong core of K^b (_Core), which holds the
    core's complex once a prime has read it, or to None for one skipped
    (_koszul). Whether a b is skipped depends only on h, so one entry
    serves every prime.

    The last ideal is kept, as decompose._components keeps its fold, so
    depth_exact(I, p) at one prime after another walks the lattice and
    collapses and builds each K^b at most once: this memo is the only
    work that searches at different primes share. Only walks, cores and
    complexes are kept: every beta, rank and depth is computed again at
    each call. limits is
    (LCM_LATTICE_LIMIT, KOSZUL_SUPPORT_LIMIT) at the call, part of the key
    so that no walk is replayed under limits it was not made under. A tee
    over a walk that raised replays the steps before the raise and then
    stops, a truncated lattice, so depth_exact clears this memo on any
    raise. The walks are extended in place, so two threads must not read
    one ideal at once.
    """
    q0 = max(decompose._components(ideal), key=lambda q: len(q) - q.count(0))
    held = tuple(i for i, e in enumerate(q0) if e)
    fiber = None
    if len(held) > 1:
        bound = tuple(e or inf for e in q0)  # q0 on its radical, no limit off it
        gens = [g for g in ideal.gens if all(map(le, g, bound))]
        fiber = (tee(_lattice_walk(gens, held), 1)[0], {})
    return q0, fiber, (tee(_lattice_walk(ideal.gens), 1)[0], {})


def _seed(q0, fiber, p: int) -> int:
    """h - 1, where h is the largest height of an associated prime of I,
    once a nonzero beta_{h-1,b}(I) over GF(p) is computed: then
    pd(I) >= h - 1. When h = 1 that is beta_0, the number of generators,
    and nothing is read.

    q0 and its fiber are those of the memo entry _walks(I, ...), whose
    fiber a call for I at another prime has often walked already. Every
    b of it that _koszul keeps, at low = h - 1, is read at h - 1 until
    one is nonzero; the rest have beta_{h-1,b} = 0 over every field.
    Raises InternalConsistencyError when the fiber runs out first, which
    the lemma rules out over every field, and DomainError as
    _lattice_walk and _koszul do.
    """
    if fiber is None:
        return 0
    h = len(q0) - q0.count(0)
    root, built = fiber
    for size, b, divisors in copy(root):
        if b not in built:
            built[b] = _koszul(size, b, divisors, h - 1)
        core = built[b]
        if core is not None and _betti(core, p)(h - 1):
            return h - 1
    raise InternalConsistencyError(
        f"no b over the component {q0} of height {h} has beta_{{{h - 1},b}} "
        f"!= 0 over GF({p}): the homology is wrong"
    )


@lru_cache(maxsize=8)
def _is_prime(p: int) -> bool:
    """True iff p is prime, for p < 3,215,031,751: Miller-Rabin on
    MILLER_RABIN_BASES, exact there. With p - 1 = d * 2^s, d odd, a prime
    p has a^d = 1 or a^(d 2^r) = -1 mod p for some r < s, for every base
    a; below that bound every composite fails this for some base."""
    if p < 2:
        return False
    for a in MILLER_RABIN_BASES:
        if p % a == 0:
            return p == a
    s = ((p - 1) & (1 - p)).bit_length() - 1
    d = (p - 1) >> s
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _require_prime(p) -> None:
    """Raises DomainError unless p is a prime below CHARACTERISTIC_LIMIT,
    the characteristic of GF(p). The limit is tested first, so _is_prime
    is asked only where it is exact."""
    if isinstance(p, int) and p >= CHARACTERISTIC_LIMIT:
        raise DomainError(
            f"characteristic {p} is not below CHARACTERISTIC_LIMIT = "
            f"{CHARACTERISTIC_LIMIT}"
        )
    if not (isinstance(p, int) and _is_prime(p)):
        raise DomainError(f"characteristic {p!r} is not a prime")


def depths_exact(ideal: MonomialIdeal, primes) -> dict[int, int]:
    """{p: depth_exact(I, p)} for each prime p in primes, read once.

    Raises DomainError, before any search, when I is zero or the unit
    ideal, no prime is given or one is not a prime below
    CHARACTERISTIC_LIMIT; then as depth_exact does. The searches share
    their walks and cores through the memo _walks, so the lattice is
    walked once for all of them.
    """
    primes = tuple(primes)
    decompose._require_proper(ideal)
    if not primes:
        raise DomainError("no characteristic given")
    for p in primes:
        _require_prime(p)
    return {p: depth_exact(ideal, p) for p in primes}


def depth_exact(ideal: MonomialIdeal, p: int = 32003) -> int:
    """depth(S/I) = n - 1 - pd(I), with pd(I) found over GF(p), p prime.

    The best index starts at h - 1 from the seed (_seed), a computed
    nonzero beta_{h-1,b} in the fiber of a component of the largest
    height h. The walk visits b by decreasing |supp b| (then decreasing
    lex) and stops at the first b with |supp b| - 1 <= best, since
    beta_{i,b} = 0 for i > |supp b| - 1. A visited b whose facets, the
    maximal sets {i : g_i < b_i} over the generators g dividing b, share
    a vertex v has a cone as K^b(I): v joins every face, so K^b is
    contractible and acyclic over every field, and b is skipped without
    building K^b (_koszul). The full simplex, when x^(b - 1_supp b) is in
    I, is the cone with the one facet supp(b). So is a b whose m facets
    number at most h: beta_{i,b} = 0 for i >= m (the facet bound, module
    docstring), and best is h - 1 or more; and a b whose strong core has
    its top, past which every beta_{i,b} is zero, below h. When best is
    below the top of any other core, beta_{i,b} is read through _betti
    from i = top down to best + 1, up to the first nonzero one: in closed
    form for a sphere, and otherwise from the core, built at the first
    such read.

    The walks and their cores come from the one-entry memo _walks, so a
    call for I at another prime replays them and walks on only past
    where the calls before it stopped. Any raise clears that memo, so no
    later call replays a walk cut short.

    Raises DomainError when I is zero or the unit ideal, p is not a prime
    below CHARACTERISTIC_LIMIT, a walk generates more than
    LCM_LATTICE_LIMIT elements, or the first b read, of the largest
    support in the fiber or the lattice, is over KOSZUL_SUPPORT_LIMIT.
    Raises InternalConsistencyError when the seed finds no nonzero beta.
    """
    decompose._require_proper(ideal)
    _require_prime(p)
    q0, fiber, (root, built) = _walks(
        ideal, (LCM_LATTICE_LIMIT, KOSZUL_SUPPORT_LIMIT)
    )
    try:
        best = floor = _seed(q0, fiber, p)
        for size, b, divisors in copy(root):
            if size - 1 <= best:
                break
            if b not in built:
                built[b] = _koszul(size, b, divisors, floor + 1)
            core = built[b]
            if core is not None and best < core.top:
                beta = _betti(core, p)
                best = next((i for i in range(core.top, best, -1) if beta(i)), best)
    except BaseException:
        _walks.cache_clear()
        raise
    return ideal.n - 1 - best
