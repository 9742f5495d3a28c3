"""Depth: the lex-criterion classifier and the exact depth, a search over
the exponent box by local cohomology, crossed with Hochster's formula over
the whole lcm lattice and with Takayama's formula read directly."""

import hashlib
import json
import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, compress, product
from math import isqrt
from operator import lt, or_

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import (
    I,
    components_reference,
    oracle_pool,
    real_projective_plane,
    spec,
    zero_ideal,
)
from lexseg import decompose, depth, kernels
from lexseg.closed_form import associated_primes_lexsegment
from lexseg.decompose import associated_primes_oracle
from lexseg.depth import (
    CHARACTERISTIC_LIMIT,
    DepthClass,
    depth_class,
    depth_exact,
    depths_exact,
)
from lexseg.monomials import (
    DomainError,
    InternalConsistencyError,
    Monomial,
    MonomialIdeal,
    SpecError,
    lexsegment_generators,
    supp,
    unit_ideal,
)
from lexseg.sweep import iter_specs


def variables(mask):
    """The variables of the bitmask mask (bit i - 1 for x_i), as a set."""
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def faces(k):
    """The face set of the complex k, which depth._faces_by_size returns
    as one list of bitmask faces per face size, as sets of variables."""
    return frozenset(variables(f) for level in k for f in level)


def generated(facets):
    """The complex generated by facets (sets of variables): every subset of
    one of them. No facet gives the void complex, with no face at all."""
    return frozenset(
        frozenset(s) for f in facets for r in range(len(f) + 1) for s in combinations(f, r)
    )


def from_masks(masks):
    """The complex generated by the bitmask facets masks."""
    return generated(map(variables, masks))


def is_cone(faces, vertices=None):
    """True iff some vertex v has sigma + {v} a face for every face sigma;
    vertices default to those of the faces."""
    if vertices is None:
        vertices = frozenset().union(*faces)
    return any(all(f | {v} in faces for f in faces) for v in vertices)


def facet_count(faces):
    """The number of inclusion-maximal faces in the face set faces."""
    return sum(not any(f < g for g in faces) for f in faces)


def strong_core(faces):
    """The strong core of the face set faces, by its definition: while some
    vertex v is dominated, that is, some u != v lies in every maximal face
    holding v, keep only the faces without v, the least such v first."""
    faces = frozenset(faces)
    while True:
        maximal = [f for f in faces if not any(f < g for g in faces)]
        vertices = frozenset().union(*faces)
        for v in sorted(vertices):
            star = [f for f in maximal if v in f]
            if any(all(u in f for f in star) for u in vertices - {v}):
                faces = frozenset(f for f in faces if v not in f)
                break
        else:
            return faces


def is_simplex(faces):
    """True iff faces are every subset of one nonempty face: a simplex,
    acyclic over every field."""
    return facet_count(faces) == 1 and len(faces) > 1


def is_simplex_boundary(faces):
    """True iff faces are every proper subset of their vertex set V: the
    boundary of the simplex on V, a sphere of dimension |V| - 2."""
    vertices = frozenset().union(*faces)
    every = {frozenset(s) for r in range(len(vertices)) for s in combinations(vertices, r)}
    return faces == every


def core_top(faces):
    """min(vertex count - 1, facet count - 1, dimension + 1) of the face
    set faces: past it no reduced homology H~_{i-1} is nonzero."""
    vertices = frozenset().union(*faces)
    return min(len(vertices) - 1, facet_count(faces) - 1, max(map(len, faces)))


def skipped(k, h):
    """True iff the depth search skips the complex k, unbuilt, when it
    reads no beta(i) = rank H~_{i-1} with i < h: by its definition, k is a
    cone, has at most h facets (the facet bound of the depth module), or
    has a strong core past whose top, below h, every beta(i) is zero."""
    return is_cone(k) or facet_count(k) <= h or core_top(strong_core(k)) < h


def facets(fs):
    """Inclusion-maximal faces of the face set fs, smallest first."""
    return tuple(
        f
        for f in sorted(fs, key=lambda s: (len(s), sorted(s)))
        if not any(f < g for g in fs)
    )


def dim(k):
    """Largest face size of the face set k minus one; -2 for the void complex."""
    return max((len(f) for f in k), default=-1) - 1


def homology_ranks(complex, p):
    """Reduced homology ranks over GF(p) of the face set complex, indexed
    from dimension -1: every boundary rank of the complex, the reference
    for the ranks depth_exact reads.

    Returns [rank H~_{-1}, rank H~_0, rank H~_1, ...]; [0] for the void
    complex.
    """
    by_dim = {}
    for f in complex:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    if not by_dim:
        return [0]
    top = max(by_dim)
    for level in by_dim.values():
        level.sort()

    # rank of boundary map from dimension i to i-1
    def boundary_rank(i):
        if i <= -1 or i not in by_dim or (i - 1) not in by_dim:
            return 0
        lower = {f: k for k, f in enumerate(by_dim[i - 1])}
        rows = []
        for f in by_dim[i]:
            row = {}
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


def lcm_lattice(ideal):
    """lcms of nonempty generator subsets, adding one generator at a time:
    the whole lattice, where Hochster's formula reads the Betti numbers."""
    lattice: set[Monomial] = set()
    for g in ideal.gens:
        lattice |= {tuple(map(max, b, g)) for b in lattice}
        lattice.add(g)
    return frozenset(lattice)


def membership_faces(ideal, b):
    """K^b(I) by its definition: every sigma ⊆ supp(b) with x^b / x^sigma
    in I, one membership test per subset."""
    faces = set()
    for r in range(len(supp(b)) + 1):
        for sigma in combinations(supp(b), r):
            quot = tuple(e - (i + 1 in sigma) for i, e in enumerate(b))
            if quot in ideal:
                faces.add(frozenset(sigma))
    return frozenset(faces)


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers of the ideal I (not of S/I)."""

    n: int
    entries: tuple[tuple[int, Monomial, int], ...]  # (i, multidegree, rank)

    def total(self, i: int) -> int:
        return sum(r for j, _, r in self.entries if j == i)

    @property
    def max_index(self) -> int:
        return max((j for j, _, r in self.entries if r > 0), default=0)


def betti_numbers(ideal: MonomialIdeal, p: int) -> BettiTable:
    """Reference for depth_exact, by Hochster's formula:
    beta_{i,b}(I) = rank H~_{i-1}(K^b(I)) at every b of the lcm lattice,
    K^b(I) by its definition (membership_faces), with no pruning; then
    depth(S/I) = n - 1 - max_index by Auslander-Buchsbaum."""
    entries = []
    for b in sorted(lcm_lattice(ideal), reverse=True):
        ranks = homology_ranks(membership_faces(ideal, b), p)
        for i, r in enumerate(ranks):  # ranks[i] = H~_{i-1}
            if r:
                entries.append((i, b, r))
    return BettiTable(ideal.n, tuple(entries))


def tuple_koszul_complex(ideal, b):
    """K^b(I) by face size, each face an increasing tuple of variables:
    the subsets of the facets {i : g_i < b_i} over the g dividing b."""
    facets = {
        tuple(i for i, (x, y) in enumerate(zip(g, b), 1) if x < y)
        for g in ideal.gens
        if kernels.divides(g, b)
    }
    by_size = [set() for _ in range(len(supp(b)) + 1)]
    for facet in facets:
        for r in range(len(facet) + 1):
            by_size[r].update(combinations(facet, r))
    return tuple(map(tuple, by_size))


def tuple_betti_from_top(by_size, p, above):
    """(i, rank H~_{i-1} over GF(p)) for i = len(by_size) - 2 down to
    above + 1, from boundary rows over tuple faces."""
    ranks = {}

    def rank(k):
        if k not in ranks:
            upper, lower = by_size[k], by_size[k - 1]
            index = {f: j for j, f in enumerate(lower)}
            rows = []
            for f in upper:
                row = {}
                for j in range(k):
                    row[index[f[:j] + f[j + 1 :]]] = 1 if j % 2 == 0 else -1
                rows.append(row)
            ranks[k] = kernels.gf_rank(rows, p) if rows and lower else 0
        return ranks[k]

    for i in range(len(by_size) - 2, above, -1):
        yield i, len(by_size[i]) - rank(i) - rank(i + 1)


def simplex_skip_depths(ideal, primes):
    """A second Hochster reference, pruned only by support: the lcm lattice
    by decreasing |supp b|, stopping once |supp b| - 1 cannot raise the
    best index, and skipping only a b whose K^b is the full simplex, found
    by one membership test of x^(b - 1_supp b)."""
    best = dict.fromkeys(primes, 0)
    for size, b in sorted(((len(supp(b)), b) for b in lcm_lattice(ideal)), reverse=True):
        if size - 1 <= min(best.values()):
            break
        if kernels.member(tuple(y - (y > 0) for y in b), ideal.gens):
            continue
        k = tuple_koszul_complex(ideal, b)
        for p, found in best.items():
            if found < size - 1:
                for i, beta in tuple_betti_from_top(k, p, found):
                    if beta:
                        best[p] = i
                        break
    return {p: ideal.n - 1 - found for p, found in best.items()}


def box(ideal):
    """Every point a of the exponent box prod_j {-1, 0, ..., rho_j - 1},
    rho_j the largest exponent of x_j in a generator."""
    tops = map(max, zip(*ideal.gens))
    return list(product(*(range(-1, rho) for rho in tops)))


def takayama_faces(ideal, a):
    """Delta_a of Takayama's formula, by its definition: the F ⊆ V =
    {j : a_j >= 0} such that every generator u has some j in V - F with
    u_j > a_j."""
    v = [j + 1 for j, e in enumerate(a) if e >= 0]
    return frozenset(
        frozenset(f)
        for r in range(len(v) + 1)
        for f in combinations(v, r)
        if all(any(u[j - 1] > a[j - 1] for j in v if j not in f) for u in ideal.gens)
    )


def dual_faces(ideal, a):
    """D_a, the Alexander dual of Delta_a in V: {V - F : F ⊆ V, F not in
    Delta_a}."""
    v = frozenset(j + 1 for j, e in enumerate(a) if e >= 0)
    delta = takayama_faces(ideal, a)
    return frozenset(
        v - frozenset(f)
        for r in range(len(v) + 1)
        for f in combinations(sorted(v), r)
        if frozenset(f) not in delta
    )


def local_cohomology_depth(ideal, p):
    """depth(S/I) over GF(p) by Takayama's formula read directly, with no
    duality and no pruning: the least i = k + |G| + 1 with
    H~_k(Delta_a) != 0 over the points a of the box, G = {j : a_j < 0}."""
    found = []
    for a in box(ideal):
        ranks = homology_ranks(takayama_faces(ideal, a), p)  # ranks[k + 1] = H~_k
        g = sum(e < 0 for e in a)
        found += [k + g for k, r in enumerate(ranks) if r]
    return min(found)


def box_complexes(ideal, h):
    """{the complex generated by the facets {j : u_j <= a_j} of size >= h :
    a in the box}: every complex the depth search could read."""
    return {
        generated(
            f for f in (frozenset(j + 1 for j, e in enumerate(a) if u[j] <= e) for u in ideal.gens)
            if len(f) >= h
        )
        for a in box(ideal)
    }


@st.composite
def small_ideals(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=6)))


@st.composite
def two_block_ideals(draw, min_n=4, max_n=6):
    """(x_A) ∩ (x_B) for disjoint blocks A, B of >= 2 variables each, plus
    one generator with exponents <= 2. Most of these keep a core in the
    depth search, which few small_ideals do."""
    n = draw(st.integers(min_n, max_n))
    order = draw(st.permutations(range(n)))
    a = draw(st.integers(2, n - 2))
    b = draw(st.integers(2, n - a))
    gens = [
        tuple(int(j in (i, k)) for j in range(n))
        for i in order[:a]
        for k in order[a : a + b]
    ]
    gens.append(draw(st.tuples(*[st.integers(0, 2)] * n).filter(any)))
    return MonomialIdeal.from_gens(n, gens)


@st.composite
def wide_ideals(draw):
    """n = 1..7 variables, exponents <= 3, 1..9 generators."""
    n = draw(st.integers(1, 7))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=9)))


class TestDepthClassifier:
    def test_depth0_criterion(self):
        # xn*u >=_lex x1*v
        case = depth_class(spec(3, 2, "x1*x2", "x2*x3"))
        assert case.depth is DepthClass.DEPTH0
        assert case.subcase is None

    def test_depth0_boundary_equality(self):
        # xn*u = x1*v exactly
        assert (
            depth_class(spec(3, 2, "x1*x2", "x2*x3")).depth is DepthClass.DEPTH0
        )

    def test_depth1_b(self):
        case = depth_class(spec(4, 2, "x1*x2", "x2*x3"))
        assert case.depth is DepthClass.DEPTH1
        assert case.subcase == "b"

    def test_depth1_a(self):
        case = depth_class(spec(4, 3, "x1*x3*x4", "x2^2*x3"))
        assert case.depth is DepthClass.DEPTH1
        assert case.subcase == "a"

    def test_depth_ge2_b(self):
        case = depth_class(spec(5, 2, "x1*x5", "x2*x3"))
        assert case.depth is DepthClass.DEPTH_GE2
        assert case.subcase == "b"

    def test_rejects_non_arbitrary(self):
        with pytest.raises(SpecError):
            depth_class(spec(3, 2, "x1^2", "x2*x3"))

    def test_rejects_unreduced(self):
        with pytest.raises(SpecError):
            depth_class(spec(3, 2, "x2*x3", "x2*x3"))


class TestUpperKoszul:
    def test_faces_at_generator_degree(self):
        # b = x1*x2 for I = (x1*x2): sigma = {} excluded, {1},{2},{1,2} by
        # whether x^b / x^sigma stays in I
        k = membership_faces(I(2, "x1*x2"), (1, 1))
        assert k == frozenset({frozenset()})

    def test_two_vertices_no_edge(self):
        # b = x1*x2 for I = (x1, x2): the edge {1,2} would need 1 in I
        k = membership_faces(I(2, "x1", "x2"), (1, 1))
        assert k == frozenset(
            {frozenset(), frozenset({1}), frozenset({2})}
        )
        assert dim(k) == 0

    @seed(20261018)
    @settings(max_examples=100, deadline=None, database=None)
    @given(small_ideals(max_n=4), st.lists(st.integers(-1, 4), min_size=6, max_size=6))
    def test_facets_give_the_membership_faces(self, ideal, extra):
        # at every point a of the box, and one a that need not be in it:
        # the sets {j : u_j <= a_j}, one per generator, are the facets of
        # D_a, the Alexander dual of Takayama's Delta_a, and
        # depth._faces_by_size gives its faces by size
        for a in box(ideal) + [tuple(extra[: ideal.n])]:
            bits = [1 << j for j in range(ideal.n)]
            masks = {sum(b for b, x, e in zip(bits, u, a) if x <= e) for u in ideal.gens}
            dual = dual_faces(ideal, a)
            assert from_masks(masks) == dual
            top = depth._maximal(masks)
            assert frozenset(map(variables, top)) == frozenset(facets(dual))
            assert [m.bit_count() for m in top] == sorted(
                (m.bit_count() for m in top), reverse=True
            )
            k = depth._faces_by_size(top)
            # one level per face size 0..the vertex count, each of distinct
            # bitmasks of that many bits
            assert len(k) == len(frozenset().union(*dual)) + 1
            for size, level in enumerate(k):
                assert len(set(level)) == len(level)
                assert all(f.bit_count() == size for f in level)
            assert faces(k) == dual

    def test_support_limit(self, monkeypatch):
        # the tests and benchmarks reach n <= 9, far below the limit; over
        # it the search raises before building any complex
        def building(facets):
            raise AssertionError("a complex built over KOSZUL_SUPPORT_LIMIT")

        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 2)
        assert depth_exact(I(2, "x1^2", "x2^2")) == 0
        monkeypatch.setattr(depth, "_faces_by_size", building)
        with pytest.raises(DomainError, match="n = 3 is over KOSZUL_SUPPORT_LIMIT = 2"):
            depth_exact(I(3, "x1*x2*x3"))


class TestHomology:
    def test_point_is_acyclic(self):
        # b = x1*x2 for I = (x1): faces {} and {2}, a single point
        k = membership_faces(I(2, "x1"), (1, 1))
        assert homology_ranks(k, 2) == [0, 0]

    def test_two_points_have_reduced_h0(self):
        # b = lcm of x1, x2 for I = (x1, x2)... K^b has facets {1} and {2}
        # joined by {1,2}, so it is contractible; use the disjoint pair via
        # I = (x1^2, x2^2) at b = (2, 2) quotients instead
        k = membership_faces(I(2, "x1^2", "x2^2"), (2, 2))
        assert facets(k) == (frozenset({1}), frozenset({2}))
        assert homology_ranks(k, 2) == [0, 1]

    def test_empty_complex_has_hminus1(self):
        # only the empty face: reduced homology concentrated in degree -1
        k = membership_faces(I(2, "x1*x2"), (1, 1))
        assert homology_ranks(k, 32003) == [1]


class TestBettiAndDepth:
    def test_lcm_lattice(self):
        lattice = lcm_lattice(I(2, "x1^2", "x1*x2"))
        assert lattice == frozenset({(2, 0), (1, 1), (2, 1)})

    def test_beta0_counts_generators(self):
        for ideal in (I(2, "x1*x2"), I(3, "x1*x2", "x2^2", "x3^3")):
            assert betti_numbers(ideal, 32003).total(0) == len(ideal.gens)

    def test_principal_is_free(self):
        table = betti_numbers(I(3, "x1*x2"), 32003)
        assert table.max_index == 0
        assert depth_exact(I(3, "x1*x2")) == 2

    def test_maximal_ideal_depth0(self):
        assert depth_exact(I(2, "x1", "x2")) == 0

    def test_koszul_resolution_of_maximal(self):
        # (x1, x2, x3): Betti numbers of the ideal are 3, 3, 1
        table = betti_numbers(I(3, "x1", "x2", "x3"), 32003)
        assert [table.total(i) for i in (0, 1, 2)] == [3, 3, 1]

    def test_lexsegment_depths(self):
        assert depth_exact(lexsegment_generators(spec(3, 2, "x1*x2", "x2*x3"))) == 0
        assert depth_exact(lexsegment_generators(spec(4, 2, "x1*x2", "x2*x3"))) == 1
        assert depth_exact(lexsegment_generators(spec(5, 2, "x1*x5", "x2*x3"))) == 2

    def test_characteristic_parameter(self):
        ideal = lexsegment_generators(spec(4, 3, "x1*x3*x4", "x2^2*x3"))
        assert depth_exact(ideal, 2) == depth_exact(ideal, 32003) == 1

    def test_permutation_invariance(self):
        # swapping variables permutes multidegrees but not total Betti numbers
        a = I(3, "x1*x2", "x2*x3")
        b = MonomialIdeal.from_gens(3, [(0, 1, 1), (1, 1, 0)])  # x2x3, x1x2
        ta, tb = betti_numbers(a, 32003), betti_numbers(b, 32003)
        assert [ta.total(i) for i in (0, 1, 2)] == [tb.total(i) for i in (0, 1, 2)]
        assert depth_exact(a) == depth_exact(b)

    def test_rejects_trivial_ideals(self):
        for ideal in (zero_ideal(2), unit_ideal(2)):
            with pytest.raises(DomainError):
                depth_exact(ideal)

    @pytest.mark.parametrize("p", [0, 1, 4, 9, -3, 32001])
    def test_rejects_non_prime_characteristic(self, p):
        with pytest.raises(DomainError, match="not a prime"):
            depth_exact(I(3, "x1*x2", "x2*x3"), p)

    @pytest.mark.parametrize(
        "p", [CHARACTERISTIC_LIMIT, 2**61 - 1, 2**89 - 1, 10**30]
    )
    def test_rejects_characteristic_over_limit(self, p):
        # 2^61 - 1 and 2^89 - 1 are primes; trial division up to their
        # square roots would not finish
        with pytest.raises(DomainError, match="CHARACTERISTIC_LIMIT"):
            depth_exact(I(3, "x1*x2", "x2*x3"), p)

    def test_primality_matches_trial_division(self):
        # every p < 2^16, and the least strong pseudoprimes to the bases 2;
        # 2 and 3; 2, 3 and 5
        for p in range(-2, 1 << 16):
            trial = p >= 2 and all(p % q for q in range(2, isqrt(p) + 1))
            assert depth._is_prime(p) == trial, p
        for n in (2047, 1373653, 25326001):
            assert not depth._is_prime(n)
            with pytest.raises(DomainError, match="not a prime"):
                depth._require_prime(n)

    def test_a_cached_prime_leaves_the_checks_in_place(self):
        # a prime proved once is read from the memo; a composite and a p
        # over the limit still raise after it, and the limit is tested
        # before the memo is asked
        depth._is_prime.cache_clear()
        for _ in range(3):
            depth._require_prime(32003)
        assert depth._is_prime.cache_info()[:2] == (2, 1)
        with pytest.raises(DomainError, match="not a prime"):
            depth._require_prime(32001)
        for p in (CHARACTERISTIC_LIMIT, 2**61 - 1):
            with pytest.raises(DomainError, match="CHARACTERISTIC_LIMIT"):
                depth._require_prime(p)
        info = depth._is_prime.cache_info()
        assert (info.hits, info.misses) == (2, 2)
        assert info.maxsize is not None

    def test_largest_prime_below_the_limit_is_accepted_fast(self):
        # Miller-Rabin takes tens of microseconds at this p, and trial
        # division took milliseconds. Each call proves p prime from a
        # cleared memo, so no call times a memo hit
        def seconds():
            depth._is_prime.cache_clear()
            t0 = time.perf_counter()
            depth._require_prime(2**31 - 1)
            return time.perf_counter() - t0

        assert min(seconds() for _ in range(5)) < 1e-3

    def test_largest_prime_below_the_limit(self):
        ideal = lexsegment_generators(spec(4, 3, "x1*x3*x4", "x2^2*x3"))
        assert CHARACTERISTIC_LIMIT == 2**31
        assert depth_exact(ideal, 2**31 - 1) == depth_exact(ideal, 32003) == 1

    def test_lcm_lattice_limit(self, monkeypatch):
        # the node limit of the box search took the place of the lattice
        # walk's limit. (x1, x2) has h = n = 2: no complex on 2 vertices
        # has a beta past beta_1, so the seed alone gives the depth and the
        # search enters no node, even at a limit of 0
        ideal = I(2, "x1", "x2")
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", 0)
        assert depth_exact(ideal, 2) == 0
        assert depth._search(ideal, (0, depth.KOSZUL_SUPPORT_LIMIT))[3] == 0
        # x1*x2 has h = 1 < n: the search enters its root, where the one
        # generator is too few for any facet bound, and no node below
        with pytest.raises(DomainError, match="BOX_NODE_LIMIT = 0"):
            depth_exact(I(2, "x1*x2"), 2)
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", 1)
        assert depth_exact(I(2, "x1*x2"), 2) == 1

    @pytest.mark.parametrize(
        "n, gens", [(2, ("x1^2*x2",)), (4, ("x1*x2", "x2*x3", "x1*x3", "x4^2"))]
    )
    def test_lcm_lattice_limit_counts_the_generated_elements(self, n, gens, monkeypatch):
        # the search counts every node it enters against the limit: it runs
        # at a limit of the count it reports and raises at one less
        ideal = I(n, *gens)
        depth._search.cache_clear()
        nodes = depth._search(ideal, (depth.BOX_NODE_LIMIT, depth.KOSZUL_SUPPORT_LIMIT))[3]
        assert nodes >= 1
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", nodes)
        expected = depth_exact(ideal, 2)
        assert expected == ideal.n - 1 - betti_numbers(ideal, 2).max_index
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", nodes - 1)
        with pytest.raises(DomainError, match=f"BOX_NODE_LIMIT = {nodes - 1}"):
            depth_exact(ideal, 2)

    def test_support_limit_holds_when_the_first_b_is_skipped(self, monkeypatch):
        # the limit is on n, tested before the search: this ideal keeps no
        # core at all (every point of its box is skipped), yet n = 4 is
        # held to the limit
        ideal = I(4, "x1*x4", "x2*x4^2", "x1^2*x3^3")
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 3)
        with pytest.raises(DomainError, match="KOSZUL_SUPPORT_LIMIT"):
            depth_exact(ideal, 2)
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 4)
        assert depth_exact(ideal, 2) == 2
        assert depth._search(ideal, (depth.BOX_NODE_LIMIT, 4))[2] == []


class TestLocalCohomology:
    @seed(20261030)
    @settings(max_examples=60, deadline=None, database=None)
    @given(small_ideals(max_n=4))
    def test_takayama_depth_is_the_hochster_depth(self, ideal):
        # Takayama's formula read directly over the box, with no duality,
        # Hochster's formula over the whole lcm lattice, and the search
        for p in (2, 32003):
            pd = betti_numbers(ideal, p).max_index
            assert local_cohomology_depth(ideal, p) == ideal.n - 1 - pd == depth_exact(ideal, p)

    def test_takayama_depth_is_the_hochster_depth_on_rp2(self):
        ideal = real_projective_plane()
        found = {p: local_cohomology_depth(ideal, p) for p in (2, 3, 32003)}
        assert found == {2: 2, 3: 3, 32003: 3} == depths_exact(ideal, (2, 3, 32003))
        assert {p: 5 - betti_numbers(ideal, p).max_index for p in (2, 3)} == {2: 2, 3: 3}


# One cold pass at both primes took 1.0-1.1 s over the 2,485 n=5, d=4
# specs and 0.5 s over every 5th n=7, d=3 spec on a 2-vCPU VM; 10 s
# leaves over 9x. The depth digest over the 1,338 specs and the pool took
# 0.52 s, and the pool at three primes 0.45 s.
WIDE_DEPTH_BUDGET_SECONDS = 10.0

# L(u, v) at n = 9, d = 4 past the lcm lattice limit of the walk that the
# box search replaced
PAST_THE_LATTICE_LIMIT = [
    ("x1*x4*x7^2", "x4^3*x5"),
    ("x1*x6^2*x7", "x6^3*x7"),
    ("x1*x6*x7^2", "x4*x7*x9^2"),
    ("x1*x6*x8^2", "x4^2*x8*x9"),
]


class TestPastTheLatticeLimit:
    @pytest.mark.parametrize("u, v", PAST_THE_LATTICE_LIMIT)
    def test_depth_is_n_minus_the_top_height(self, u, v):
        # each has more lcm lattice elements than the walk's limit, 2^16;
        # the closed form gives Ass, and pretty clean gives the depth
        s = spec(9, 4, u, v)
        h = max(len(q.vars) for q in associated_primes_lexsegment(s))
        assert depths_exact(lexsegment_generators(s), (2, 32003)) == {2: 9 - h, 32003: 9 - h}
        assert h == 8


def search_record(ideal, primes):
    """depths_exact(ideal, primes) from a cleared memo, and a record of the
    search: "entry", the memo entry (h, seed, cores, nodes); "leaves", per
    point of the box the search reached, (the facets it had there, as
    bitmasks, the verdict of depth._leaf: a _Core or None); "built", the
    facets of each core built as a complex; "reads", per core read, (p,
    the core, the (i, beta(i)) pairs read)."""
    leaf, build, read = depth._leaf, depth._faces_by_size, depth._betti
    record = {"leaves": [], "built": [], "reads": []}

    def judging(masks, h):
        record["leaves"].append((frozenset(masks), leaf(masks, h)))
        return record["leaves"][-1][1]

    def building(facets):
        record["built"].append(frozenset(facets))
        return build(facets)

    def reading(core, p):
        record["reads"].append((p, core, []))
        beta, reads = read(core, p), record["reads"][-1][2]

        def logged(i):
            reads.append((i, beta(i)))
            return reads[-1][1]

        return logged

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depth, "_leaf", judging)
        mp.setattr(depth, "_faces_by_size", building)
        mp.setattr(depth, "_betti", reading)
        depth._search.cache_clear()
        depths = depths_exact(ideal, primes)
    record["entry"] = depth._search(ideal, (depth.BOX_NODE_LIMIT, depth.KOSZUL_SUPPORT_LIMIT))
    return depths, record


def assert_leaf_verdicts(record):
    """At every point the search reached: its facets are of size >= h, and
    _leaf skips them exactly when, by its definition, the complex they
    generate is a cone, has at most h facets, or has a strong core whose
    top is below h; a kept core is that strong core, with its top, and a
    sphere exactly when it is the boundary of a simplex. The memo keeps
    each distinct kept core once, and no core built is a sphere."""
    h, _, cores, _ = record["entry"]
    kept = set()
    for masks, verdict in record["leaves"]:
        assert all(m.bit_count() >= h for m in masks)
        k = from_masks(masks)
        assert skipped(k, h) == (verdict is None)
        if verdict is not None:
            core = strong_core(k)
            assert from_masks(verdict.facets) == core
            assert verdict.top == core_top(core)
            assert verdict.sphere == is_simplex_boundary(core)
            kept.add(frozenset(verdict.facets))
    assert {frozenset(c.facets) for c in cores} == kept and len(cores) == len(kept)
    assert [c.top for c in cores] == sorted((c.top for c in cores), reverse=True)
    built = {frozenset(c.facets): c for c in cores}
    assert not any(built[f].sphere for f in record["built"])


class TestConeSkip:
    @seed(20261022)
    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_ideals())
    def test_skips_exactly_the_cones_and_matches_the_simplex_reference(self, ideal):
        # and the complexes of too few facets, h or fewer, and those whose
        # strong core has no beta past its top to read: one of too few
        # vertices or too low a dimension, a simplex (one facet) among
        # them. A kept core that is the boundary of a simplex is read in
        # closed form, never built.
        primes = (2, 3, 32003)
        depths, record = search_record(ideal, primes)
        assert depths == simplex_skip_depths(ideal, primes)
        assert_leaf_verdicts(record)

    def test_the_facet_skip_follows_h_and_not_the_best(self):
        # h = 2 and pd = 2 = h at every prime, from one square, a circle and
        # no simplex boundary. Two other points carry 3 facets of size >= 2,
        # more than h, so the facet bound keeps them; but each is a path,
        # whose strong core is one vertex, of top 0: skipped by that top,
        # below h, and built at no prime. Every verdict is the
        # memo's, from h, for every prime, whatever best each has reached
        ideal = I(4, "x1^2*x2*x4^2", "x1^2*x3*x4", "x1*x2^2*x3", "x1*x2^2*x4^2",
                  "x2^2*x3*x4^2")
        square = frozenset({0b1001, 0b1010, 0b0101, 0b0110})
        paths = [frozenset({0b1001, 0b1010, 0b0101}), frozenset({0b1001, 0b0101, 0b0110})]
        for p in (2, 32003):
            depths, record = search_record(ideal, (p,))
            assert depths == {p: 1} and record["entry"][0] == 2
            assert record["leaves"] == [(paths[0], None), (paths[1], None),
                                        (square, record["entry"][2][0])]
            for path in paths:
                core = strong_core(from_masks(path))
                assert facet_count(from_masks(path)) == 3 and core_top(core) == 0
            assert record["built"] == [square]

    def test_a_kept_core_at_or_below_every_best_is_never_built(self):
        # h = 2, and the search keeps two squares, each of top 2, not
        # spheres. The first read gives beta_2 != 0, so best = 2 at every
        # prime; the second square's top is no more than that best, so no
        # prime reads it and it is never built
        ideal = MonomialIdeal.from_gens(5, [
            (2, 1, 2, 0, 0), (2, 0, 1, 2, 2), (1, 2, 2, 1, 1), (1, 2, 1, 2, 2),
        ])
        for primes in ((2,), (32003,), (2, 3, 32003)):
            depths, record = search_record(ideal, primes)
            assert depths == dict.fromkeys(primes, 2)
            h, _, cores, _ = record["entry"]
            assert h == 2 and [(c.top, c.sphere) for c in cores] == [(2, False)] * 2
            assert record["built"] == [frozenset(cores[0].facets)]
            assert [(core, reads) for _, core, reads in record["reads"][1:2]] == [
                (cores[0], [(2, 1)])
            ]
            assert all(core is not cores[1] for _, core, _ in record["reads"])

    def test_a_cone_that_is_not_the_full_simplex_is_skipped(self):
        # one point of this box has the facets {1, 2}, {1, 3} and {1, 4}:
        # more than h = 2, none of them all of V, and all through x1, a cone
        ideal = MonomialIdeal.from_gens(4, [
            (3, 2, 1, 0), (1, 2, 0, 2), (0, 2, 1, 1), (0, 0, 2, 2),
        ])
        cone = frozenset({0b1001, 0b0011, 0b0101})
        k = from_masks(cone)
        assert is_cone(k) and facet_count(k) == 3
        depths, record = search_record(ideal, (2, 32003))
        assert record["entry"][0] == 2 and (cone, None) in record["leaves"]
        assert depths == simplex_skip_depths(ideal, (2, 32003))


class TestFacetBound:
    @seed(20261026)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6))
    def test_no_betti_number_at_or_past_the_facet_count(self, ideal):
        assert_facet_bound(ideal)

    def test_no_betti_number_at_or_past_the_facet_count_on_rp2(self):
        # beta_{3,b} != 0 over GF(2) only, at the b of full support
        ideal = real_projective_plane()
        assert_facet_bound(ideal)
        b = (1,) * 6
        k = membership_faces(ideal, b)
        assert [homology_ranks(k, p)[3] for p in (2, 3)] == [1, 0]
        assert facet_count(k) > 3


def assert_facet_bound(ideal):
    """Every complex K^b of the lcm lattice with m facets has reference
    beta_{i,b} = 0 for every i >= m, at p = 2, 3 and 32003, and
    depth._maximal counts its facets."""
    bits = [1 << j for j in range(ideal.n)]
    for b in lcm_lattice(ideal):
        k = membership_faces(ideal, b)
        m = facet_count(k)
        masks = {sum(compress(bits, map(lt, g, b))) for g in ideal.gens if kernels.divides(g, b)}
        assert len(depth._maximal(masks)) == m
        for p in (2, 3, 32003):
            ranks = homology_ranks(k, p)  # ranks[i] = beta_{i,b}
            assert not any(ranks[m:]), (b, m, p, ranks)


def assert_core_homology(ideal):
    """At every b of the lcm lattice, on K^b as a test complex:
    depth._collapse gives the reference strong core, with the reduced
    homology of K^b at p = 2, 3 and 32003; a core that is a simplex is
    acyclic; depth._is_sphere holds exactly for a core that is the boundary
    of a simplex; and every beta read through depth._betti from the
    verdict of depth._leaf, in closed form or from a built core, equals the
    reference homology."""
    bits = [1 << j for j in range(ideal.n)]
    for b in lcm_lattice(ideal):
        k = membership_faces(ideal, b)
        masks = [sum(compress(bits, map(lt, g, b))) for g in ideal.gens if kernels.divides(g, b)]
        collapsed = depth._collapse(depth._maximal(masks))
        core = strong_core(k)
        assert from_masks(collapsed) == core
        assert depth._is_sphere(collapsed, reduce(or_, collapsed)) == is_simplex_boundary(core)
        verdict = depth._leaf(masks, 1)
        size = len(supp(b))
        for p in (2, 3, 32003):
            pad = [0] * (size + 1)
            ranks = (homology_ranks(k, p) + pad)[: size + 1]  # ranks[i] = beta_{i,b}
            assert (homology_ranks(core, p) + pad)[: size + 1] == ranks
            if is_simplex(core):
                assert not any(ranks)
            if verdict is None:
                assert not any(ranks[1:])
                continue
            beta = depth._betti(verdict, p)
            assert [beta(i) for i in range(1, verdict.top + 1)] == ranks[1 : verdict.top + 1]
            assert not any(ranks[verdict.top + 1 :])


class TestStrongCollapse:
    @seed(20261027)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6))
    def test_the_core_has_the_homology_of_k_b(self, ideal):
        assert_core_homology(ideal)

    def test_the_core_has_the_homology_of_k_b_on_rp2(self):
        # the box search keeps RP^2 itself, 10 triangles on 6 vertices: no
        # dominated vertex and no sphere, its own core, built at its first
        # read, and it reads beta_3 != 0 over GF(2) only
        ideal = real_projective_plane()
        assert_core_homology(ideal)
        for p in (2, 3):
            _, record = search_record(ideal, (p,))
            rp2 = record["entry"][2][-1]
            k = from_masks(rp2.facets)
            assert facet_count(k) == 10 and strong_core(k) == k
            assert not rp2.sphere and rp2.top == 3
            assert homology_ranks(k, p)[3] == (p == 2)
            assert frozenset(rp2.facets) in record["built"]
            assert [reads for _, core, reads in record["reads"] if core is rp2] == [
                [(3, int(p == 2))]
            ]

    def test_a_sphere_is_read_in_closed_form(self):
        # the facets {1, 2}, {1, 3} and {2, 3}: every proper subset of
        # {1, 2, 3}, a circle, with beta_2 = 1 and nothing else, over every
        # field, read without building a complex
        masks = [0b011, 0b101, 0b110]
        core = depth._leaf(masks, 1)
        assert core.sphere and core.top == 2
        for p in (2, 3, 32003):
            beta = depth._betti(core, p)
            assert [beta(i) for i in (1, 2)] == homology_ranks(from_masks(masks), p)[1:] == [0, 1]
        assert core.by_size is None


def assert_pruned_search(ideal):
    """The depth is Hochster's, and the search keeps every complex of the
    box that could raise pd past h - 1 over some field: no point it
    prunes, by misses, by too few generators left or by a class of a_j it
    does not try, holds a complex that is not skipped. Returns the number
    of cores kept."""
    for p in (2, 32003):
        depths, record = search_record(ideal, (p,))
        assert depths[p] == ideal.n - 1 - betti_numbers(ideal, p).max_index
    h, _, cores, _ = record["entry"]
    reached = {from_masks(masks) for masks, _ in record["leaves"]}
    complexes = box_complexes(ideal, h)
    assert reached <= complexes
    kept = {from_masks(c.facets) for c in cores}
    for k in complexes:
        if not skipped(k, h):
            assert k in reached and strong_core(k) in kept
    return len(cores)


class TestPrunedSearch:
    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None)
    @given(small_ideals(max_n=4))
    def test_matches_reference_and_visits_only_what_can_raise_pd(self, ideal):
        assert_pruned_search(ideal)

    @seed(20261020)
    @settings(max_examples=200, deadline=None, database=None)
    @given(two_block_ideals())
    def test_the_same_on_ideals_that_keep_cores(self, ideal):
        # the drawn ideals above rarely reach a kept core; these mostly do
        assert_pruned_search(ideal)

    @pytest.mark.parametrize("gens, kept", [
        (None, 7),  # RP^2
        (((1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)), 1),
        (((2, 1, 2, 0, 0), (2, 0, 1, 2, 2), (1, 2, 2, 1, 1), (1, 2, 1, 2, 2)), 2),
        (((3, 1, 1, 2, 2, 0), (3, 0, 2, 1, 1, 1), (2, 0, 2, 0, 3, 0),
          (0, 1, 0, 2, 3, 1), (0, 0, 0, 1, 0, 3)), 2),
    ])
    def test_keeps_every_core_that_could_raise_pd(self, gens, kept):
        # ideals that keep cores, which few small drawn ideals do
        ideal = real_projective_plane() if gens is None else MonomialIdeal.from_gens(
            len(gens[0]), gens
        )
        assert assert_pruned_search(ideal) == kept


class TestTargetedRanks:
    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(small_ideals(max_n=6))
    def test_reads_match_reference_and_skips_are_acyclic(self, ideal):
        for p in (2, 32003):
            depths, record = search_record(ideal, (p,))
            pd = ideal.n - 1 - depths[p]
            assert pd == betti_numbers(ideal, p).max_index
            h, seed_core, cores, _ = record["entry"]
            assert h == max(len(q.vars) for q in associated_primes_oracle(ideal).primes)
            reads = record["reads"]
            # the seed is read first, once, at h - 1, and reads 1: a sphere
            if h > 1:
                assert reads[0] == (p, seed_core, [(h - 1, 1)]) and seed_core.sphere
                reads = reads[1:]
            # a skipped complex has no reference beta(i) at i >= h: every
            # one is zero for a cone or a core that is a simplex
            for masks, verdict in record["leaves"]:
                k = from_masks(masks)
                ranks = homology_ranks(k, p)
                if verdict is None:
                    simplex = is_cone(k) or is_simplex(strong_core(k))
                    assert not any(ranks[0 if simplex else h :])
                else:
                    assert not any(ranks[verdict.top + 1 :])
            # the kept cores by falling top, each read from its top down to
            # best + 1, up to the first nonzero beta, while best is below its
            # top; each read equals the reference, and only a core read that
            # is no sphere is built
            best = h - 1
            replayed = []
            for core in cores:
                if core.top <= best:
                    break
                ranks = homology_ranks(from_masks(core.facets), p)
                expected = []
                for i in range(core.top, best, -1):
                    expected.append((i, ranks[i] if i < len(ranks) else 0))
                    if expected[-1][1]:
                        best = i
                        break
                replayed.append((p, core, expected))
            assert reads == replayed and best == pd
            assert record["built"] == [
                frozenset(core.facets) for _, core, _ in replayed if not core.sphere
            ]


class TestSeed:
    @seed(20261024)
    @settings(max_examples=150, deadline=None, database=None)
    @given(wide_ideals())
    def test_every_top_height_fiber_holds_a_nonzero_beta(self, ideal):
        # the lemma of the depth module, against the reference fold and
        # homology, for every component of the largest height h: at its
        # corner, the faces of size >= h - 1 of D_c, the dual of Takayama's
        # Delta_c by its definition, generate the boundary of the simplex
        # on the radical, with H~_{h-2} of rank 1 at every prime
        primes = (2, 3, 32003)
        comps = components_reference(ideal)
        h = max(len(supp(q)) for q in comps)
        for q0 in comps:
            if len(supp(q0)) < h or h < 2:
                continue
            corner = tuple(e - 1 if e else -1 for e in q0)
            dual = dual_faces(ideal, corner)
            k = generated(f for f in dual if len(f) >= h - 1)
            assert frozenset().union(*k) == frozenset(supp(q0))
            assert is_simplex_boundary(k)
            assert all(homology_ranks(k, p)[h - 1] == 1 for p in primes)
        assert depths_exact(ideal, primes) == simplex_skip_depths(ideal, primes)

    @pytest.mark.parametrize("zero_at", [(2, 32003), (32003,)])
    def test_a_homology_that_reads_zero_raises(self, zero_at, monkeypatch):
        # with every beta read as 0, at every prime or at one, the seed
        # finds nothing at the corner: a loud failure, never the n - h that
        # the Stanley family would accept. Each prime is seeded by its own
        # read, not by the lemma. A principal ideal (h = 1) has pd 0 and
        # reads nothing.
        betti = depth._betti
        monkeypatch.setattr(
            depth,
            "_betti",
            lambda core, p: (lambda i: 0) if p in zero_at else betti(core, p),
        )
        for s in iter_specs((2, 4), (2, 3)):
            ideal = lexsegment_generators(s)
            if len(ideal.gens) == 1:
                assert depths_exact(ideal, (2, 32003)) == {2: s.n - 1, 32003: s.n - 1}
                continue
            with pytest.raises(InternalConsistencyError, match="the corner of a component"):
                depths_exact(ideal, (2, 32003))

    def test_fiber_walk_holds_to_the_lattice_limit(self, monkeypatch):
        # the seed is read at one point, the corner, before the search
        # enters any node: where h = n nothing is searched, so the depth
        # holds at a node limit of 0, and a seed that reads zero still
        # raises there; where h < n the search runs and meets the limit
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", 0)
        ideal = I(3, "x1^2", "x1*x2", "x2^3", "x3")
        assert depths_exact(ideal, (2, 32003)) == {2: 0, 32003: 0}
        with monkeypatch.context() as mp:
            mp.setattr(depth, "_betti", lambda core, p: lambda i: 0)
            with pytest.raises(InternalConsistencyError, match="the corner"):
                depth_exact(ideal, 2)
        with pytest.raises(DomainError, match="BOX_NODE_LIMIT = 0"):
            depth_exact(I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4"), 2)

    def test_depth_at_two_primes_folds_once(self):
        # the second prime reads the search memo, so the fold is not asked
        # for again
        ideal = lexsegment_generators(spec(5, 3, "x1*x3*x5", "x2^3"))
        decompose._components.cache_clear()
        depth._search.cache_clear()
        depth_exact(ideal, 2)
        depth_exact(ideal, 32003)
        info = decompose._components.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_n6_d3_depth_is_n_minus_the_top_height(self):
        # the exhaustive gate on the 1,596 n=6, d=3 specs: the depth at
        # both primes is n - max|P| over the oracle's Ass, as pretty clean
        # implies, and the depth digest of the range is pinned
        rows, wrong = [], []
        for s in iter_specs((6, 6), (3, 3)):
            ideal = lexsegment_generators(s)
            depths = depths_exact(ideal, (2, 32003))
            h = max(len(q.vars) for q in associated_primes_oracle(ideal).primes)
            if depths != {2: 6 - h, 32003: 6 - h}:
                wrong.append((s, depths, h))
            rows.append([depths[2], depths[32003]])
        assert len(rows) == 1596 and not wrong
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == "ad96bc3bad39d970"

    @pytest.mark.parametrize("n, d, step, count, digest", [
        (5, 4, 1, 2485, "b735bfe579fd88b8"),
        (7, 3, 5, 714, "2ca3a99ed7919a0e"),
    ])
    def test_wide_depth_digests(self, n, d, step, count, digest):
        # the depth digests benchmarks/bench_kernels.py records for n=5,
        # d=4 and every 5th n=7, d=3 spec: depths_exact at both primes, one
        # cold pass, within its budget
        specs = list(iter_specs((n, n), (d, d)))[::step]
        ideals = [lexsegment_generators(s) for s in specs]
        decompose._components.cache_clear()
        depth._search.cache_clear()
        t0 = time.perf_counter()
        rows = [list(depths_exact(ideal, (2, 32003)).values()) for ideal in ideals]
        elapsed = time.perf_counter() - t0
        assert len(rows) == count
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == digest
        assert elapsed <= WIDE_DEPTH_BUDGET_SECONDS, (
            f"{elapsed:.1f}s over the {WIDE_DEPTH_BUDGET_SECONDS:.0f}s budget"
        )

    def test_depth_digest_over_the_specs_and_the_pool(self):
        # the depth digest of benchmarks/bench_kernels.py: depth_exact at 2,
        # then at 32003, over the ideals of the 1,338 specs n=2..4, d=2..3,
        # n=5, d=2..3 and n=6, d=2, each range in iter_specs order, then
        # the 804 oracle-random pool ideals; one cold pass, within its budget
        specs = [
            s
            for n, d in (((2, 4), (2, 3)), ((5, 5), (2, 2)), ((5, 5), (3, 3)),
                         ((6, 6), (2, 2)))
            for s in iter_specs(n, d)
        ]
        ideals = [lexsegment_generators(s) for s in specs] + oracle_pool()
        decompose._components.cache_clear()
        depth._search.cache_clear()
        t0 = time.perf_counter()
        rows = [[depth_exact(i, 2), depth_exact(i, 32003)] for i in ideals]
        elapsed = time.perf_counter() - t0
        assert (len(specs), len(rows)) == (1338, 1338 + 804)
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == (
            "9c816dd44af49c64"
        )
        assert elapsed <= WIDE_DEPTH_BUDGET_SECONDS, (
            f"{elapsed:.1f}s over the {WIDE_DEPTH_BUDGET_SECONDS:.0f}s budget"
        )

    def test_pool_rows_at_three_primes(self):
        # the pool row digest of benchmarks/bench_kernels.py: the sorted
        # (p, depth) pairs of depths_exact at (2, 3, 32003) per pool ideal.
        # The pool is the one input measured whose searches keep cores, so
        # it reaches the reads of _betti past the spheres; one cold pass,
        # within its budget
        ideals = oracle_pool()
        decompose._components.cache_clear()
        depth._search.cache_clear()
        t0 = time.perf_counter()
        rows = [sorted(depths_exact(i, (2, 3, 32003)).items()) for i in ideals]
        elapsed = time.perf_counter() - t0
        assert len(rows) == 804
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16] == (
            "247b8115bbbac9e1"
        )
        assert elapsed <= WIDE_DEPTH_BUDGET_SECONDS, (
            f"{elapsed:.1f}s over the {WIDE_DEPTH_BUDGET_SECONDS:.0f}s budget"
        )


def builds(ideal, calls):
    """Runs depths_exact(ideal, primes) for each primes in calls, in turn,
    from a cleared search memo. Returns (the depths of each call, the
    facets of every core each call built, the searches run)."""
    build = depth._faces_by_size
    built = []

    def building(facets):
        built[-1].append(frozenset(facets))
        return build(facets)

    depths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depth, "_faces_by_size", building)
        depth._search.cache_clear()
        for primes in calls:
            built.append([])
            depths.append(depths_exact(ideal, primes))
    return depths, built, depth._search.cache_info().misses


def assert_one_search_serves_every_prime(ideal, primes):
    """depth_exact at each prime, one call at a time, gives what one
    depths_exact call at all of them gives, from one search, and together
    the calls build exactly the cores that one call builds, none twice."""
    ((together,), (once,), _) = builds(ideal, [primes])
    depths, built, searches = builds(ideal, [(p,) for p in primes])
    assert {p: d[p] for d, p in zip(depths, primes)} == together
    assert searches == 1
    union = [f for call in built for f in call]
    assert len(set(union)) == len(union)
    assert set(union) == set(once) and len(once) == len(set(once))
    return built


class TestLatticeWalk:
    """depths_exact: one depth search, over the exponent box, serves every
    prime asked for, with each prime checked before the search."""

    @seed(20261021)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6), st.booleans())
    def test_one_search_equals_a_search_per_prime(self, ideal, backwards):
        primes = (2, 3, 32003)[:: -1 if backwards else 1]
        assert depths_exact(ideal, primes) == {p: depth_exact(ideal, p) for p in primes}

    @pytest.mark.parametrize("primes", [(2, 3, 32003), (32003, 3, 2)])
    def test_one_search_where_the_primes_disagree(self, primes):
        ideal = real_projective_plane()
        assert depths_exact(ideal, primes) == {2: 2, 3: 3, 32003: 3}
        assert [depth_exact(ideal, p) for p in (2, 3, 32003)] == [2, 3, 3]

    def test_one_search_checks_every_prime_first(self):
        ideal = I(3, "x1*x2", "x2*x3")
        with pytest.raises(DomainError, match="not a prime"):
            depths_exact(ideal, (2, 4))
        with pytest.raises(DomainError, match="no characteristic"):
            depths_exact(ideal, ())

    def test_one_shot_prime_iterable(self):
        # the primes are read once, so an iterator is checked and searched
        ideal = I(3, "x1*x2", "x2*x3")
        assert depths_exact(ideal, iter([2])) == {2: depth_exact(ideal, 2)}
        assert depths_exact(ideal, (p for p in (2, 3))) == depths_exact(ideal, (2, 3))


class TestWalkMemo:
    """The one-entry memo of the search (depth._search): a depth at another
    prime reads the same seed and kept cores and builds no core again, and
    a raise is never read back as a search cut short."""

    @seed(20261025)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6), st.booleans())
    def test_one_prime_at_a_time_in_either_order(self, ideal, backwards):
        primes = (2, 3, 32003)[:: -1 if backwards else 1]
        assert_one_search_serves_every_prime(ideal, primes)

    @pytest.mark.parametrize("primes", [(2, 3, 32003), (32003, 3, 2)])
    def test_one_prime_at_a_time_where_the_primes_disagree(self, primes):
        # RP^2 has depth 2 over GF(2) and 3 over the others. The search
        # keeps 7 cores, none a sphere, RP^2 itself last: every first call
        # reads and builds all 7 (over GF(2) the last gives beta_3 != 0),
        # and the later calls read them built
        ideal = real_projective_plane()
        assert depths_exact(ideal, primes) == {2: 2, 3: 3, 32003: 3}
        assert [depth_exact(ideal, p) for p in (2, 3, 32003)] == [2, 3, 3]
        built = assert_one_search_serves_every_prime(ideal, primes)
        assert len(built[0]) == 7 and not built[1] and not built[2]

    def test_interleaved_readers_each_see_the_whole_walk(self):
        # the memo holds one ideal: a call for another ideal in between
        # evicts it, and the next call for the first ideal searches again,
        # to the same seed, cores and depth
        ideal, other = I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4"), I(3, "x1*x2", "x2*x3")
        depth._search.cache_clear()
        limits = (depth.BOX_NODE_LIMIT, depth.KOSZUL_SUPPORT_LIMIT)
        assert depth_exact(ideal, 2) == 1
        first = depth._search(ideal, limits)
        assert depth_exact(other, 2) == 1
        assert depth_exact(ideal, 32003) == 1
        again = depth._search(ideal, limits)
        assert again is not first and depth._search.cache_info().misses == 3
        assert [again[0], again[3]] == [first[0], first[3]]
        assert [c.facets for c in again[2]] == [c.facets for c in first[2]]

    def test_the_second_prime_builds_nothing(self):
        # this ideal has the same depth over both fields, and the one core
        # kept, a square, has no dominated vertex and is no sphere: the
        # first prime builds it at its read, and the second prime reads
        # what the first one built
        ideal = I(4, "x1^2*x2*x4^2", "x1^2*x3*x4", "x1*x2^2*x3", "x1*x2^2*x4^2",
                  "x2^2*x3*x4^2")
        depths, built, _ = builds(ideal, [(2,), (32003,)])
        assert built[0] and not built[1]
        assert depths == [{2: 1}, {32003: 1}]
        # on a lexsegment no core is kept, and the seed is a sphere, read in
        # closed form
        ideal = lexsegment_generators(spec(5, 3, "x1*x3*x5", "x2^3"))
        depths, built, _ = builds(ideal, [(2,), (32003,)])
        assert built == [[], []]
        assert depths == [{2: 1}, {32003: 1}]

    @pytest.mark.parametrize("limit, where", [(2, "seed"), (4, "walk")])
    def test_a_walk_over_the_lattice_limit_raises_at_every_call(
        self, limit, where, monkeypatch
    ):
        # the search of (x1*x3, x1*x4, x2*x3, x2*x4) enters 11 nodes, so it
        # raises at a node limit of 2 or 4 at every call, and then runs at
        # 11. "seed": from a cleared memo, "walk": after a search of the
        # ideal under the default limits, which the memo holds but does not
        # serve under other limits
        ideal = I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")
        depth._search.cache_clear()
        if where == "walk":
            assert depths_exact(ideal, (2, 32003)) == {2: 1, 32003: 1}
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", limit)
        for p in (2, 2, 32003, 32003):
            with pytest.raises(DomainError, match=f"BOX_NODE_LIMIT = {limit}"):
                depth_exact(ideal, p)
        monkeypatch.setattr(depth, "BOX_NODE_LIMIT", 11)
        assert depths_exact(ideal, (2, 32003)) == {2: 1, 32003: 1}

    @pytest.mark.parametrize("limit, where", [(2, "seed"), (3, "walk")])
    def test_a_walk_over_the_support_limit_raises_at_every_call(
        self, limit, where, monkeypatch
    ):
        # n = 4 is over a limit of 2 or 3 at every call, from a cleared memo
        # ("seed") or after a search under the default limits ("walk")
        ideal = I(4, "x1*x4", "x2*x4^2", "x1^2*x3^3")
        depth._search.cache_clear()
        if where == "walk":
            assert depths_exact(ideal, (2, 32003)) == {2: 2, 32003: 2}
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", limit)
        for p in (2, 2, 32003, 32003):
            with pytest.raises(DomainError, match=f"KOSZUL_SUPPORT_LIMIT = {limit}"):
                depth_exact(ideal, p)
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 4)
        assert depths_exact(ideal, (2, 32003)) == {2: 2, 32003: 2}

    def test_a_seed_that_reads_zero_raises_at_every_call(self, monkeypatch):
        # the memo keeps the search and complexes, no beta: a homology that
        # reads zero fails at every call, each raise clears the memo, and a
        # sound one then searches again
        ideal = lexsegment_generators(spec(5, 3, "x1*x3*x5", "x2^3"))
        betti = depth._betti
        depth._search.cache_clear()
        with monkeypatch.context() as mp:
            mp.setattr(depth, "_betti", lambda core, p: lambda i: 0)
            for p in (2, 2, 32003):
                with pytest.raises(InternalConsistencyError, match="the corner"):
                    depth_exact(ideal, p)
                assert depth._search.cache_info().currsize == 0
        assert depth._betti is betti
        assert depths_exact(ideal, (2, 32003)) == {2: 1, 32003: 1}
