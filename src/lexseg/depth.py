"""Depth of S/I: a lex-criterion classifier for lexsegment ideals and an
independent exact route through local cohomology over a prime field.

Takayama's formula (Takayama, Combinatorial characterizations of
generalized Cohen-Macaulay monomial ideals, Bull. Math. Soc. Sci. Math.
Roumanie 48, 2005). Let I be a proper nonzero monomial ideal and rho_j
the largest exponent of x_j in a minimal generator. For a in Z^n let
G = {j : a_j < 0} and V = [n] - G. Then
dim H^i_m(S/I)_a = dim H~_{i-|G|-1}(Delta_a), where Delta_a is the
complex of the F ⊆ V such that every minimal generator u has some j in
V - F with u_j > a_j. This is zero unless a_j < rho_j at every j, and a
negative a_j enters only through its sign, so every degree that matters
lies in the box B = prod_j {-1, 0, ..., rho_j - 1}.

Alexander duality (Miller-Sturmfels, Combinatorial Commutative Algebra,
ch. 5). The dual of Delta_a in V is the complex D_a with one facet
{j : u_j <= a_j} per generator u (a_j = -1 keeps j out of every one),
and over a field H~_k(Delta_a) = H~_{|V|-k-3}(D_a) when V is not empty.
When some facet is all of V, Delta_a is void and D_a is a simplex, both
acyclic. depth(S/I) is the least i with H^i_m(S/I) != 0, and
i = n - 2 - q turns the formula into

    depth(S/I) = n - 2 - max{q : H~_q(D_a) != 0 over GF(p), a in B}.

A nonzero H~_q with q >= 0 needs a nonempty face, so V is not empty
there, and q = -1 only says depth <= n - 1, true of every proper
nonzero I. The search keeps the maximum as best = q + 1, the index i of
beta(i) = rank H~_{i-1} (_betti), and returns n - 1 - best.

Which facets matter. H~_q of a complex is fixed by its faces of sizes
q + 1 and q + 2: the kernel of the boundary out of the q-faces does not
change with the (q-1)-faces around it, which are faces of those q-faces
in any complex that holds them. Each such face lies in a facet of at
least its size. So at q >= k - 1, H~_q(D_a) is that of the subcomplex
generated by the facets of size >= k, and only the generators u with at
most n - k misses, coordinates where u_j > a_j, give one.

The seed (a lemma). Let Q0 be an irredundant irreducible component of I
of the largest height h >= 2, with radical P, and let its corner c have
c_j = Q0_j - 1 on P and c_j = -1 off P. Then the facets of D_c of size
>= h - 1 are the h sets P - {i}, i in P: the boundary of the simplex on
P, a sphere with H~_{h-2} of rank 1 over every field, so
depth(S/I) <= n - h. Proof: V = P, and each facet
{j in P : u_j < Q0_j} misses some j in P, as u lies in Q0. Setting
x_j = 1 for every j not in P gives an ideal I_P of S_P = K[x_i : i in P],
the intersection of the Q|_P over the components Q of I with radical in
P, Q0|_P among them. x^(c|_P) lies outside Q0|_P and in every other such
Q|_P (decompose, the corners: Q0 alone misses its corner), so
x_i x^(c|_P) lies in I_P for each i in P: some generator u has
u_j <= c_j at every j in P - {i}, and its facet is P - {i}. The
decomposition only chooses where to look: the corner's facets are read
through _betti over GF(p), as a sphere because they show they are one,
and a read of zero raises InternalConsistencyError, so a homology that
reads every beta as zero fails loudly rather than agree with n - h.
When h = 1 the seed is best = 0, from nothing read.

So the search needs only q >= h - 1, beta(i) at i >= h, and only the
facets of size >= h.

The facet bound (a lemma). A complex with m facets has H~_j = 0 for
every j >= m - 1, over every field. Proof: it is the union of the
simplices on its facets F_1..F_m, each holding the empty face; by
induction on m. For m = 1 it is a simplex, acyclic, or the empty face
alone, with only H~_{-1}. For m > 1 let K' be the union of the first
m - 1: K' and the simplex on F_m meet in the union of the simplices on
the F_j ∩ F_m, j < m, and reduced Mayer-Vietoris,
H~_j(K') + H~_j(simplex) -> H~_j(K) -> H~_{j-1}(K' ∩ simplex), has both
ends zero for j >= m - 1 by induction. A cone, whose facets share a
vertex v, is acyclic whatever m is: each face sigma has sigma + {v} in
it, and the straight-line homotopy to v contracts it.

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
every field. It is read in closed form, and nothing is built.

Where a beta can be nonzero. A complex on v vertices, of m facets and of
dimension d has H~_j = 0 at j >= v - 1 (only the full simplex, acyclic,
reaches dimension v - 1), at j >= m - 1 (the facet bound) and at j > d.
So beta(i) = 0 past the top of a strong core, i > min(v - 1, m - 1,
d + 1) (_Core).

The search (_search). A depth-first search sets a_1, a_2, ... in turn.
It carries each generator that can still give a facet of size >= h, one
with at most n - h misses, as an item: its exponents still to be read,
its facet so far as a bitmask (bit j - 1 for x_j) and its misses so far.
Two items alike in all three give one facet at every point below and
are carried once, and an item past n - h misses is dropped. a_j enters
only through which items have u_j <= a_j, so one a_j per class is tried:
a_j = -1, where every item misses, and each distinct u_j of the items
but the largest. At the largest every item holds j, so every facet
below does too, a cone; or the largest is rho_j, outside the box. A
prefix with at most h items left has at most h facets at every point
below (the facet bound), and is dropped whole. At each point a of the
box that is reached, the maximal sets among the facets, each of size
>= h, are skipped when they share a vertex (a cone, a facet that is all
of V among them), number at most h, or collapse to a strong core whose
top is below h (a simplex, of one facet, among them). Every skip comes
from h, fixed per ideal, and never from a prime's running best, so each
holds over every field. The rest are kept, once per distinct core. When
h = n there is nothing to search: no complex on n vertices has a beta
past beta(n - 1), and best starts at h - 1.

The search depends on I alone, not on p, so its result (h, the seed's
core, the kept cores by falling top and the nodes it entered) is a
one-entry memo (_search), as decompose._components keeps its fold.
depth_exact(I, p) reads the seed at p, then each kept core from its top
down to best + 1, while best is below that top, up to the first nonzero
beta. A sphere is read in closed form; any other core is built, by face
size, at its first read, and kept for the reads at every later prime,
where beta(i) = f_{i-1} - rk d_{i-1} - rk d_i (f_j faces of dimension
j, d_j the boundary map out of dimension j over GF(p), each rank
computed once per core and read by kernels.gf_rank). Characteristic is
a parameter (any prime below 2^31), so the sweep can cross-check two
primes.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache, reduce
from itertools import compress
from operator import and_, lt, or_
from typing import NamedTuple

from . import decompose, kernels
from .monomials import (
    DomainError,
    InternalConsistencyError,
    LexSpec,
    MonomialIdeal,
    SpecError,
    SpecKind,
    classify,
    max_var,
)

# Most nodes, prefixes (a_1, ..., a_j) of a point of the box, that the
# depth search (_search) enters.
BOX_NODE_LIMIT = 1 << 20
# Every characteristic p lies below this, where Miller-Rabin on the bases
# in MILLER_RABIN_BASES is exact (_require_prime).
CHARACTERISTIC_LIMIT = 1 << 31
# No composite below 3,215,031,751 is a strong pseudoprime to all of these
# (Pomerance, Selfridge and Wagstaff, Math. Comp. 1980).
MILLER_RABIN_BASES = (2, 3, 5, 7)
# Largest n at which depth_exact() searches: a core it builds is a complex
# on up to n vertices, of up to 2^n faces.
KOSZUL_SUPPORT_LIMIT = 16


class DepthClass(Enum):
    """depth(S/I) by the classifier; the value is the depth capped at 2."""

    DEPTH0 = 0
    DEPTH1 = 1
    DEPTH_GE2 = 2


class DepthCase(NamedTuple):
    depth: DepthClass
    subcase: str | None  # "a" (u_l < d-1) or "b" (u_l = d-1); None for depth 0


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
    n, d, u, v = spec.n, spec.d, spec.u, spec.v
    if (*u[:-1], u[-1] + 1) >= (v[0] + 1, *v[1:]):
        return DepthCase(DepthClass.DEPTH0, None)
    # positive depth forces u = x1 * xl^al * ... (a1 = 1)
    l = spec.l
    assert l is not None and spec.a1 == 1
    sub = "a" if u[l - 1] < d - 1 else "b"
    # v = x2^(d-1) * xj exactly when v_1 = 0 and v_2 >= d - 1, with j = max(v)
    j = max_var(v) if v[0] == 0 and v[1] >= d - 1 else None
    shaped = j is not None and 2 <= j <= n - 2
    # v <=_lex x2^(d-1) * x_(n-1), as v_1 = 0: v_2 < d - 1, or that shape at j >= n - 1
    below = v[1] < d - 1 or (j is not None and j >= n - 1)
    depth1 = below or (shaped and j >= l - 1)
    ge2 = shaped and l >= j + 2
    if depth1 == ge2:
        raise SpecError(
            f"depth-1 and depth>1 criteria disagree on {spec}: {depth1}, {ge2}"
        )
    return DepthCase(DepthClass.DEPTH1 if depth1 else DepthClass.DEPTH_GE2, sub)


# ---------------------------------------------------------------------------
# exact depth via local cohomology


def _faces_by_size(facets) -> list[list[int]]:
    """Every face of the complex with these facets (bitmasks, bit j - 1
    for x_j), by face size: entry k holds the k-element faces, for k
    from 0 to the number of vertices."""
    faces = {0}
    for facet in facets:
        face = facet
        while face:
            faces.add(face)
            face = (face - 1) & facet
    by_size = [[] for _ in range(reduce(or_, facets).bit_count() + 1)]
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


class _Core:
    """The strong core of a complex that the depth search keeps, from its
    facets, largest first (_collapse). top is the last i at which
    beta(i) = rank H~_{i-1} can be nonzero over any field,
    min(v - 1, m - 1, d + 1) for a core of v vertices, m facets and
    dimension d, so d + 1 is the size of its first facet (module
    docstring). A sphere, the boundary of the simplex on top + 1 vertices,
    is read in closed form; any other core is built as a complex
    (_faces_by_size) at its first read (_betti) and kept for the reads at
    every later prime."""

    __slots__ = ("facets", "top", "sphere", "by_size")

    def __init__(self, facets):
        vertices = reduce(or_, facets)
        self.facets, self.by_size = facets, None
        self.sphere = _is_sphere(facets, vertices)
        self.top = min(vertices.bit_count() - 1, len(facets) - 1, facets[0].bit_count())


def _betti(core: _Core, p: int):
    """beta(i) = rank H~_{i-1} over GF(p) of the core, for
    1 <= i <= its vertex count - 1.

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
        core.by_size = _faces_by_size(core.facets)
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


@lru_cache(maxsize=1)
def _search(ideal: MonomialIdeal, limits) -> tuple:
    """(h, the seed's core, the kept cores by falling top, the nodes
    entered): the part of the depth search of I that no prime changes
    (module docstring). h is the largest height of an associated prime,
    that of the first such component Q0 in decompose._components(I), a
    memo hit when the oracle has just read I. The seed's core is that of
    the facets of size >= h - 1 at the corner of Q0, None when h = 1 or
    when there are none. The kept cores are the distinct ones that _leaf
    keeps at the points of the box the depth-first search reaches.

    The last ideal is kept, so depth_exact(I, p) at one prime after
    another searches once, and each core built at one prime is read at
    the next. limits is (BOX_NODE_LIMIT, KOSZUL_SUPPORT_LIMIT) at the
    call, part of the key so that no search is read under limits it was
    not made under. Raises DomainError when n is over
    KOSZUL_SUPPORT_LIMIT, before the fold, or once the search enters more
    than BOX_NODE_LIMIT nodes.
    """
    n = ideal.n
    if n > KOSZUL_SUPPORT_LIMIT:
        raise DomainError(
            f"n = {n} is over KOSZUL_SUPPORT_LIMIT = {KOSZUL_SUPPORT_LIMIT}"
        )
    q0 = max(decompose._components(ideal), key=lambda q: len(q) - q.count(0))
    h = len(q0) - q0.count(0)
    seed = None
    if h > 1:
        # the corner's facets {j : u_j <= Q0_j - 1}, all inside the radical
        bits = [1 << j for j in range(n)]
        masks = {sum(compress(bits, map(lt, u, q0))) for u in ideal.gens}
        facets = _maximal(m for m in masks if m.bit_count() >= h - 1)
        seed = _Core(facets) if facets else None
    slack = n - h
    kept = {}
    nodes = 0

    def enter(j, items):
        """Every point of the box below the prefix (a_1, ..., a_j), whose
        items are (the exponents u_{j+1}.. still to be read, the facet so
        far, the misses so far)."""
        nonlocal nodes
        nodes += 1
        if nodes > BOX_NODE_LIMIT:
            raise DomainError(
                f"depth search enters more than BOX_NODE_LIMIT = {BOX_NODE_LIMIT} "
                "nodes"
            )
        if j == n:
            core = _leaf({m for _, m, _ in items}, h)
            if core is not None:
                kept.setdefault(frozenset(core.facets), core)
            return
        bit = 1 << j
        child = {(s[1:], m, k + 1) for s, m, k in items if k < slack}  # a_j = -1
        if len(child) > h:
            enter(j + 1, child)
        for t in sorted({s[0] for s, _, _ in items})[:-1]:
            child = {
                (s[1:], m | bit, k) if s[0] <= t else (s[1:], m, k + 1)
                for s, m, k in items
                if s[0] <= t or k < slack
            }
            if len(child) > h:
                enter(j + 1, child)

    if h < n:
        enter(0, {(u, 0, 0) for u in ideal.gens})
    return h, seed, sorted(kept.values(), key=lambda core: -core.top), nodes


def _leaf(masks, h: int):
    """The strong core (_Core) of the complex whose facets are the maximal
    sets among masks, each of size >= h; or None when it has no
    beta(i) != 0 at i >= h over any field: the facets share a vertex (a
    cone) or number at most h (the facet bound), both tested first, or
    the core has top < h, a simplex (one facet) among them."""
    facets = _maximal(masks)
    if len(facets) <= h or reduce(and_, facets):
        return None
    core = _Core(_collapse(facets))
    return None if core.top < h else core


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
    CHARACTERISTIC_LIMIT; then as depth_exact does. The primes share one
    search through the memo _search, and each reads the kept cores at its
    own prime.
    """
    primes = tuple(primes)
    decompose._require_proper(ideal)
    if not primes:
        raise DomainError("no characteristic given")
    for p in primes:
        _require_prime(p)
    return {p: depth_exact(ideal, p) for p in primes}


def depth_exact(ideal: MonomialIdeal, p: int = 32003) -> int:
    """depth(S/I) over GF(p), p prime: n - 2 - max q with H~_q(D_a) != 0
    over the points a of the exponent box (Takayama's formula and
    Alexander duality, module docstring).

    The search (_search) is seeded at a corner of a component of the
    largest height h, a sphere read at p, and keeps only the cores, at
    the points of the box, that could hold H~_q at q >= h - 1 over some
    field: the rest are cones, have at most h facets of size >= h, or
    collapse to a strong core with nothing past its top to read. best
    starts at h - 1 once the seed's core reads beta(h - 1) != 0 (0 when
    h = 1), and each kept core whose top is above best is read at p
    (_betti) from its top down to best + 1, up to the first nonzero beta,
    in closed form when it is a sphere; the depth is n - 1 - best. The
    search is a one-entry memo, so a call for I at another prime reads
    the same cores without searching again. Any raise clears it.

    Raises DomainError when I is zero or the unit ideal, p is not a prime
    below CHARACTERISTIC_LIMIT, n is over KOSZUL_SUPPORT_LIMIT or the
    search enters more than BOX_NODE_LIMIT nodes. Raises
    InternalConsistencyError when the seed reads zero.
    """
    decompose._require_proper(ideal)
    _require_prime(p)
    try:
        h, seed, cores, _ = _search(ideal, (BOX_NODE_LIMIT, KOSZUL_SUPPORT_LIMIT))
        if h > 1 and not (seed and seed.top >= h - 1 and _betti(seed, p)(h - 1)):
            raise InternalConsistencyError(
                f"the corner of a component of height {h} reads "
                f"beta_{h - 1} = 0 over GF({p}): the homology is wrong"
            )
        best = h - 1
        for core in cores:
            if core.top <= best:
                break
            beta = _betti(core, p)
            best = next((i for i in range(core.top, best, -1) if beta(i)), best)
    except BaseException:
        _search.cache_clear()
        raise
    return ideal.n - 1 - best
