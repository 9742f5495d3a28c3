"""Depth: the lex-criterion classifier and the Betti-number oracle."""

import hashlib
import json
import time
from copy import copy
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import isqrt
from operator import or_

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import I, components_reference, real_projective_plane, spec, zero_ideal
from lexseg import decompose, depth, kernels
from lexseg.decompose import associated_primes_oracle
from lexseg.depth import (
    CHARACTERISTIC_LIMIT,
    DepthClass,
    depth_class,
    depth_exact,
    depths_exact,
    upper_koszul_complex,
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


def faces(k):
    """The face set of the complex k, which upper_koszul_complex returns
    as one list of bitmask faces (bit i - 1 for x_i) per face size, as
    sets of variables."""
    return frozenset(
        frozenset(i + 1 for i in range(f.bit_length()) if f >> i & 1)
        for level in k
        for f in level
    )


def koszul(ideal, b):
    """K^b(I) as depths_exact builds it: from the facets of the generators
    that divide b."""
    divisors = [g for g in ideal.gens if kernels.divides(g, b)]
    return upper_koszul_complex(depth._facets(b, divisors), b)


def is_cone(faces, vertices):
    """True iff some vertex v has sigma + {v} a face for every face sigma."""
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


def skipped(ideal, b, low):
    """True iff depths_exact skips b unbuilt when it reads no beta_{i,b}
    with i < low: by its definition, K^b is a cone, has at most low
    facets (the facet bound of the depth module), or has a strong core
    past whose top, below low, every beta_{i,b} is zero."""
    k = membership_faces(ideal, b)
    return (
        is_cone(k, supp(b)) or facet_count(k) <= low or core_top(strong_core(k)) < low
    )


def facets(k):
    """Inclusion-maximal faces of the complex k, smallest first."""
    fs = faces(k)
    return tuple(
        f
        for f in sorted(fs, key=lambda s: (len(s), sorted(s)))
        if not any(f < g for g in fs)
    )


def dim(k):
    """Largest face size of the complex k minus one; -2 for the void complex."""
    return max((len(f) for f in faces(k)), default=-1) - 1


def homology_ranks(complex, p):
    """Reduced homology ranks over GF(p), indexed from dimension -1: every
    boundary rank of the complex, the reference for the ranks depth_exact
    reads.

    Returns [rank H~_{-1}, rank H~_0, rank H~_1, ...].
    """
    by_dim = {}
    for f in faces(complex):
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
    the whole lattice, the reference for the walk depth_exact takes."""
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
    """Reference for depth_exact: beta_{i,b}(I) = rank H~_{i-1}(K^b(I)) at
    every b of the lcm lattice, with no pruning."""
    entries = []
    for b in sorted(lcm_lattice(ideal), reverse=True):
        ranks = homology_ranks(koszul(ideal, b), p)
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
    """The search that the cone skip replaced: the same walk order and
    reads, skipping only a b whose K^b is the full simplex, found by one
    membership test of x^(b - 1_supp b)."""
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


@st.composite
def small_ideals(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=6)))


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
        k = koszul(I(2, "x1*x2"), (1, 1))
        assert faces(k) == frozenset({frozenset()})

    def test_two_vertices_no_edge(self):
        # b = x1*x2 for I = (x1, x2): the edge {1,2} would need 1 in I
        k = koszul(I(2, "x1", "x2"), (1, 1))
        assert faces(k) == frozenset(
            {frozenset(), frozenset({1}), frozenset({2})}
        )
        assert dim(k) == 0

    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6), st.lists(st.integers(0, 4), min_size=6, max_size=6))
    def test_facets_give_the_membership_faces(self, ideal, extra):
        # every b of the lcm lattice, and one b that need not be in it
        for b in sorted(lcm_lattice(ideal)) + [tuple(extra[: ideal.n])]:
            divisors = [g for g in ideal.gens if kernels.divides(g, b)]
            masks = depth._facets(b, divisors)
            k = upper_koszul_complex(masks, b)
            # one level per face size 0..|supp b|, each of distinct
            # bitmasks of that many bits
            assert len(k) == len(supp(b)) + 1
            for size, level in enumerate(k):
                assert len(set(level)) == len(level)
                assert all(f.bit_count() == size for f in level)
            assert faces(k) == membership_faces(ideal, b)
            # the facets are the inclusion-maximal faces, largest first
            assert faces([masks]) == frozenset(facets(k))
            assert [m.bit_count() for m in masks] == sorted(
                (m.bit_count() for m in masks), reverse=True
            )

    def test_support_limit(self, monkeypatch):
        # the tests and benchmarks reach |supp b| <= 7, far below the
        # limit; over it the search raises before building K^b
        def building(facets, b):
            raise AssertionError("K^b built over KOSZUL_SUPPORT_LIMIT")

        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 2)
        assert depth_exact(I(2, "x1^2", "x2^2")) == 0
        monkeypatch.setattr(depth, "upper_koszul_complex", building)
        with pytest.raises(DomainError, match="KOSZUL_SUPPORT_LIMIT"):
            depth_exact(I(3, "x1*x2*x3"))


class TestHomology:
    def test_point_is_acyclic(self):
        # b = x1*x2 for I = (x1): faces {} and {2}, a single point
        k = koszul(I(2, "x1"), (1, 1))
        assert homology_ranks(k, 2) == [0, 0]

    def test_two_points_have_reduced_h0(self):
        # b = lcm of x1, x2 for I = (x1, x2)... K^b has facets {1} and {2}
        # joined by {1,2}, so it is contractible; use the disjoint pair via
        # I = (x1^2, x2^2) at b = (2, 2) quotients instead
        k = koszul(I(2, "x1^2", "x2^2"), (2, 2))
        assert facets(k) == (frozenset({1}), frozenset({2}))
        assert homology_ranks(k, 2) == [0, 1]

    def test_empty_complex_has_hminus1(self):
        # only the empty face: reduced homology concentrated in degree -1
        k = koszul(I(2, "x1*x2"), (1, 1))
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
        # I = (x1, x2) has the 3-element lattice {x1*x2, x1, x2}: the walk
        # generates the top, then both of its children at once
        walk = depth._lattice_walk
        gens = I(2, "x1", "x2").gens
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 3)
        assert [step[:2] for step in walk(gens)] == [(2, (1, 1)), (1, (1, 0)), (1, (0, 1))]
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 2)
        steps = walk(gens)
        assert next(steps)[:2] == (2, (1, 1))  # one element generated so far
        with pytest.raises(DomainError, match="lcm lattice"):
            next(steps)

    @pytest.mark.parametrize(
        "n, gens", [(2, ("x1^2", "x1*x2", "x2^2")), (4, ("x1*x2", "x2*x3", "x1*x3", "x4^2"))]
    )
    def test_lcm_lattice_limit_counts_the_generated_elements(self, n, gens, monkeypatch):
        # the whole walk generates each lattice element once: it runs at a
        # limit of the lattice size and raises at one less
        ideal = I(n, *gens)
        size = len(lcm_lattice(ideal))
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", size)
        assert len(list(depth._lattice_walk(ideal.gens))) == size
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", size - 1)
        with pytest.raises(DomainError, match="lcm lattice"):
            list(depth._lattice_walk(ideal.gens))

    def test_support_limit_holds_when_the_first_b_is_skipped(self, monkeypatch):
        # the one b of support 4, x1^2*x2*x3^3*x4^2, has x1*x3^2*x4 in I: a
        # full simplex, so a cone, skipped unbuilt, yet its support is held
        # to the limit
        ideal = I(4, "x1*x4", "x2*x4^2", "x1^2*x3^3")
        assert [b for b in lcm_lattice(ideal) if len(supp(b)) == 4] == [(2, 1, 3, 2)]
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 3)
        with pytest.raises(DomainError, match="KOSZUL_SUPPORT_LIMIT"):
            depth_exact(ideal, 2)
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 4)
        assert depth_exact(ideal, 2) == 2


class TestLatticeWalk:
    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.tuples(*[st.integers(0, 3)] * n).filter(any), min_size=1, max_size=7
            ).map(lambda gens: MonomialIdeal.from_gens(n, gens))
        )
    )
    def test_unstopped_walk_is_the_sorted_lattice(self, ideal):
        # single generators included: min_size=1 and generators that divide
        # others minimalize away
        walked = [(size, b) for size, b, _ in depth._lattice_walk(ideal.gens)]
        assert len(set(walked)) == len(walked)
        assert walked == sorted(
            ((len(supp(b)), b) for b in lcm_lattice(ideal)), reverse=True
        )
        # each b comes with exactly the generators that divide it
        for _, b, divisors in depth._lattice_walk(ideal.gens):
            assert sorted(divisors) == sorted(
                g for g in ideal.gens if kernels.divides(g, b)
            )

    @seed(20261023)
    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_ideals())
    def test_held_walk_is_the_sorted_fiber(self, ideal):
        # over the gens that can lie in a component Q0, with its radical
        # held: the fiber {b in the lattice : b_i = Q0_i on the radical},
        # in the order of the whole walk
        for q0 in sorted(components_reference(ideal)):
            held = tuple(i for i, e in enumerate(q0) if e)
            gens = [g for g in ideal.gens if all(g[i] <= q0[i] for i in held)]
            walked = [(size, b) for size, b, _ in depth._lattice_walk(gens, held)]
            fiber = [b for b in lcm_lattice(ideal) if all(b[i] == q0[i] for i in held)]
            assert walked == sorted(((len(supp(b)), b) for b in fiber), reverse=True)
            # the fiber's top is the lcm of those gens, and in the fiber
            assert walked[0][1] == tuple(map(max, zip(*gens)))

    def test_single_generator_lattice(self):
        gens = I(3, "x1*x3^2").gens
        assert list(depth._lattice_walk(gens)) == [(2, (1, 0, 2), gens)]

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


def seeded(ideal, p):
    """depth._seed at the prime p on the walk memo's entry for the ideal
    under the limits in force, as depth_exact reads it."""
    q0, fiber, _ = depth._walks(
        ideal, (depth.LCM_LATTICE_LIMIT, depth.KOSZUL_SUPPORT_LIMIT)
    )
    return depth._seed(q0, fiber, p)


def search_record(ideal, primes):
    """(depths_exact(ideal, primes), then {"seed": ..., "walk": ...}: for
    the seed's fiber walk and for the walk after it, the b whose support
    it tested and the b whose K^b it built, as two lists; and under
    "cores", per phase, {b: the verdict of depth._koszul at b}, a _Core or
    None, for each b tested), from a cleared walk memo."""
    walk, require, build, seed, koszul = (
        depth._lattice_walk, depth._require_support, depth.upper_koszul_complex,
        depth._seed, depth._koszul,
    )
    record = {"seed": ([], []), "walk": ([], []), "cores": {"seed": {}, "walk": {}}}
    phase = ["walk"]
    walked = []

    def seeding(*args):
        phase[0] = "seed"
        try:
            return seed(*args)
        finally:
            phase[0] = "walk"

    def walking(gens, held=()):
        for step in walk(gens, held):
            walked.append(step[1])
            yield step

    def requiring(size):
        record[phase[0]][0].append(walked[-1])
        require(size)

    def building(facets, b):
        record[phase[0]][1].append(b)
        return build(facets, b)

    def judging(size, b, divisors, low):
        record["cores"][phase[0]][b] = koszul(size, b, divisors, low)
        return record["cores"][phase[0]][b]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depth, "_seed", seeding)
        mp.setattr(depth, "_lattice_walk", walking)
        mp.setattr(depth, "_require_support", requiring)
        mp.setattr(depth, "upper_koszul_complex", building)
        mp.setattr(depth, "_koszul", judging)
        depth._walks.cache_clear()  # the walks are made and read here
        depths = depths_exact(ideal, primes)
    return depths, record


class TestConeSkip:
    @seed(20261022)
    @settings(max_examples=200, deadline=None, database=None)
    @given(wide_ideals())
    def test_skips_exactly_the_cones_and_matches_the_simplex_reference(self, ideal):
        # and the K^b of too few facets: the seed reads beta_{h-1,b}, so it
        # skips those of at most h - 1 facets, and the walk after it reads
        # above h - 1, so it skips those of at most h
        # and the K^b whose strong core has no beta past its top to read:
        # one of at most low facets, or of too few vertices or too low a
        # dimension, a simplex (one facet) among them. A kept core that is
        # the boundary of a simplex is read in closed form, never built.
        primes = (2, 3, 32003)
        depths, record = search_record(ideal, primes)
        assert depths == simplex_skip_depths(ideal, primes)
        h = seed_fiber(ideal)[0]
        for phase, low in (("seed", h - 1), ("walk", h)):
            tested, built = record[phase]
            cores = record["cores"][phase]
            assert len(set(tested)) == len(tested) and set(built) <= set(tested)
            assert list(cores) == tested
            # skipped unbuilt exactly when, by its definition, K^b is a cone
            # or has at most low facets, or its core's top is below low
            for b in tested:
                assert skipped(ideal, b, low) == (cores[b] is None)
                if cores[b] is not None:
                    core = strong_core(membership_faces(ideal, b))
                    assert cores[b].top == core_top(core)
                    assert cores[b].sphere == is_simplex_boundary(core)
            assert not any(cores[b] is None or cores[b].sphere for b in built)
        # the seed reads beta_{h-1,b} at every b it keeps, until it is seeded,
        # so it builds every kept core that is not a sphere, at its first read
        tested, built = record["seed"]
        cores = record["cores"]["seed"]
        assert built == [b for b in tested if cores[b] is not None and not cores[b].sphere]

    def test_the_facet_skip_follows_h_and_not_the_best(self):
        # h = 2, and the first b the walk reads, x1^2*x2^2*x3*x4^2, whose
        # K^b is a square, a circle and no simplex boundary, has
        # beta_{2,b} != 0 at every prime: pd = 2 = h. x1*x2^2*x3*x4^2 comes
        # next but two, with 3 facets, more than h, so the facet bound
        # keeps it; but its K^b is three points, its own core, with no
        # beta past beta_1, so it is skipped by that top, below h, and
        # built at neither prime. Every verdict is the walk memo's, from h,
        # for every prime, whatever best each one has reached
        ideal = I(4, "x1^2*x2*x4^2", "x1^2*x3*x4", "x1*x2^2*x3", "x1*x2^2*x4^2",
                  "x2^2*x3*x4^2")
        assert seed_fiber(ideal)[0] == 2
        tops = [(2, 2, 1, 2), (2, 2, 1, 1), (2, 1, 1, 2), (1, 2, 1, 2)]
        assert [facet_count(membership_faces(ideal, b)) for b in tops] == [4, 2, 2, 3]
        square, points = (membership_faces(ideal, b) for b in (tops[0], tops[3]))
        assert strong_core(square) == square and not is_simplex_boundary(square)
        assert strong_core(points) == points and core_top(points) == 1
        for p in (2, 32003):
            depths, record = search_record(ideal, (p,))
            assert depths == {p: 1}
            assert record["walk"] == (tops, [(2, 2, 1, 2)])
            cores = record["cores"]["walk"]
            assert [cores[b] is None for b in tops] == [False, True, True, True]

    def test_a_kept_core_at_or_below_every_best_is_never_built(self):
        # h = 3, and the first b, x1^3*x2*x3^2*x4^2*x5^3*x6^3, gives pd = 3
        # at every prime. The next, x1^3*x2*x3^2*x4^2*x5^3*x6, has a core of
        # 4 facets on 5 vertices, of dimension 2 and no sphere: top 3 = h,
        # so it is kept for any prime whose best is below 3, but each best
        # is 3 already, so no prime reads it and it is never built
        ideal = MonomialIdeal.from_gens(6, [
            (3, 1, 1, 2, 2, 0), (3, 0, 2, 1, 1, 1), (2, 0, 2, 0, 3, 0),
            (0, 1, 0, 2, 3, 1), (0, 0, 0, 1, 0, 3),
        ])
        assert seed_fiber(ideal)[0] == 3
        first, kept = (3, 1, 2, 2, 3, 3), (3, 1, 2, 2, 3, 1)
        core = strong_core(membership_faces(ideal, kept))
        assert facet_count(core) == 4 and core_top(core) == 3
        assert not is_simplex_boundary(core)
        for primes in ((2,), (32003,), (2, 3, 32003)):
            depths, record = search_record(ideal, primes)
            assert depths == dict.fromkeys(primes, 2)
            tested, built = record["walk"]
            assert tested[:2] == [first, kept] and built == [first]
            assert record["cores"]["walk"][kept].top == 3
        depths, built = builds(ideal, [(2,), (3,), (32003,)])
        assert built == [[("walk", first)], [], []]

    def test_a_cone_that_is_not_the_full_simplex_is_skipped(self):
        # L(x1*x2, x2^2) = (x1*x2, x1*x3, x2^2) at b = x1*x2^2*x3: the
        # facets {2, 3} (of x1*x2) and {1, 3} (of x2^2) meet in x3, and
        # x^(b - 1_supp b) = x2 is not in I
        ideal = lexsegment_generators(spec(3, 2, "x1*x2", "x2^2"))
        b = (1, 2, 1)
        k = membership_faces(ideal, b)
        assert is_cone(k, supp(b)) and len(k) < 2 ** len(supp(b))
        depths, record = search_record(ideal, (2, 32003))
        tested, built = record["walk"]
        assert b in tested and b not in built
        assert depths == simplex_skip_depths(ideal, (2, 32003))


def assert_facet_bound(ideal):
    """Every b of the lcm lattice whose K^b has m facets has reference
    beta_{i,b} = 0 for every i >= m, at p = 2, 3 and 32003; m as _facets
    counts it and as the membership definition of K^b gives it."""
    for b in lcm_lattice(ideal):
        m = facet_count(membership_faces(ideal, b))
        divisors = [g for g in ideal.gens if kernels.divides(g, b)]
        assert len(depth._facets(b, divisors)) == m
        for p in (2, 3, 32003):
            ranks = homology_ranks(koszul(ideal, b), p)  # ranks[i] = beta_{i,b}
            assert not any(ranks[m:]), (b, m, p, ranks)


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
        assert [homology_ranks(koszul(ideal, b), p)[3] for p in (2, 3)] == [1, 0]
        assert facet_count(membership_faces(ideal, b)) > 3


def assert_core_homology(ideal):
    """At every b of the lcm lattice: depth._collapse gives the reference
    strong core of K^b, with the reduced homology of K^b at p = 2, 3 and
    32003; a core that is a simplex is acyclic; depth._is_sphere holds
    exactly for a core that is the boundary of a simplex; and every beta
    read through depth._betti from the verdict of depth._koszul, in closed
    form or from a built core, equals the reference homology of K^b."""
    for b in lcm_lattice(ideal):
        k = membership_faces(ideal, b)
        divisors = [g for g in ideal.gens if kernels.divides(g, b)]
        facets = depth._collapse(depth._facets(b, divisors))
        core = strong_core(k)
        assert faces(upper_koszul_complex(facets, b)) == core
        assert depth._is_sphere(facets, reduce(or_, facets)) == is_simplex_boundary(core)
        verdict = depth._koszul(len(supp(b)), b, divisors, 1)
        for p in (2, 3, 32003):
            ranks = homology_ranks(koszul(ideal, b), p)  # ranks[i] = beta_{i,b}
            core_ranks = homology_ranks(upper_koszul_complex(facets, b), p)
            pad = [0] * (len(supp(b)) + 1)
            assert (core_ranks + pad)[: len(pad)] == (ranks + pad)[: len(pad)]
            if is_simplex(core):
                assert not any(ranks)
            if verdict is None:
                assert not any(ranks[1:])
                continue
            beta = depth._betti(verdict, p)
            assert [beta(i) for i in range(1, len(supp(b)))] == (ranks + pad)[1 : len(supp(b))]


class TestStrongCollapse:
    @seed(20261027)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6))
    def test_the_core_has_the_homology_of_k_b(self, ideal):
        assert_core_homology(ideal)

    def test_the_core_has_the_homology_of_k_b_on_rp2(self):
        # at the b of full support K^b has no dominated vertex and is no
        # sphere: it is its own core, built at its first read, and reads
        # beta_3 != 0 over GF(2) only
        ideal = real_projective_plane()
        assert_core_homology(ideal)
        b = (1,) * 6
        k = membership_faces(ideal, b)
        assert strong_core(k) == k and not is_simplex_boundary(k)
        core = depth._koszul(6, b, ideal.gens, 3)
        assert core.by_size is None and not core.sphere
        assert [depth._betti(core, p)(3) for p in (2, 3)] == [1, 0]
        assert faces(core.by_size) == k
        for p in (2, 3):
            _, record = search_record(ideal, (p,))
            assert b in record["walk"][1]

    def test_a_sphere_is_read_in_closed_form(self):
        # (x1, x2, x3) at b = x1*x2*x3: K^b is every proper subset of
        # {1, 2, 3}, a circle, with beta_2 = 1 and nothing else, over every
        # field, read without building K^b
        ideal = I(3, "x1", "x2", "x3")
        b = (1, 1, 1)
        core = depth._koszul(3, b, ideal.gens, 1)
        assert core.sphere and core.top == 2
        for p in (2, 3, 32003):
            beta = depth._betti(core, p)
            assert [beta(i) for i in (1, 2)] == homology_ranks(koszul(ideal, b), p)[1:] == [0, 1]
        assert core.by_size is None


class TestPrunedSearch:
    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None)
    @given(small_ideals())
    def test_matches_reference_and_visits_only_what_can_raise_pd(self, ideal):
        h = seed_fiber(ideal)[0]
        for p in (2, 32003):
            table = betti_numbers(ideal, p)
            # the vanishing bounds the search prunes with: by support and by
            # facet count
            for i, b, _ in table.entries:
                assert i <= len(supp(b)) - 1
                assert i < facet_count(membership_faces(ideal, b))
            top = {}
            for i, b, _ in table.entries:
                top[b] = max(top.get(b, 0), i)
            depths, record = search_record(ideal, (p,))
            pd = ideal.n - 1 - depths[p]
            assert pd == table.max_index
            # a b is skipped unbuilt only when, by its definition, K^b is a
            # cone, with every reference Betti number zero, or has at most
            # low facets, or a strong core whose top is below low, with
            # every reference beta_{i,b} at i >= low zero: none that the
            # phase would read. A kept b is built only when its core is no
            # sphere, and has no reference Betti number past the core's top
            for phase, low in (("seed", h - 1), ("walk", h)):
                tested, built = record[phase]
                cores = record["cores"][phase]
                for b in tested:
                    if cores[b] is not None:
                        assert not skipped(ideal, b, low)
                        assert top.get(b, -1) <= cores[b].top
                        assert b not in built or not cores[b].sphere
                        continue
                    assert skipped(ideal, b, low) and b not in built
                    if is_cone(membership_faces(ideal, b), supp(b)):
                        assert b not in top
                    assert top.get(b, -1) < low
            # the walk tests each b while its support could still raise the
            # best index found before it, from h - 1, and every b whose
            # support could raise pd
            tested, built = record["walk"]
            cores = record["cores"]["walk"]
            best = h - 1
            for b in tested:
                assert len(supp(b)) - 1 > best
                if cores[b] is not None:
                    best = max(best, top.get(b, -1))
            assert best == pd
            assert all(b in tested for b in lcm_lattice(ideal) if len(supp(b)) - 1 > pd)


def seed_fiber(ideal):
    """(h, the fiber the seed reads, in walk order): h is the largest
    height of a component, the seed's component Q0 is the first of height
    h in decompose._components, and its fiber is every b of the reference
    lattice with b_i = Q0_i on the radical of Q0."""
    q0 = max(decompose._components(ideal), key=lambda q: len(supp(q)))
    held = [i for i, e in enumerate(q0) if e]
    fiber = [b for b in lcm_lattice(ideal) if all(b[i] == q0[i] for i in held)]
    return len(held), sorted(((len(supp(b)), b) for b in fiber), reverse=True)


class TestTargetedRanks:
    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(small_ideals(max_n=6))
    def test_reads_match_reference_and_skips_are_acyclic(self, ideal):
        read, seed, build, judge = (
            depth._betti, depth._seed, depth.upper_koszul_complex, depth._koszul
        )
        for p in (2, 32003):
            # [phase, b, the (i, beta) pairs read at b] per core read, the
            # (phase, b) of each K^b built, and per phase {b: the verdict of
            # depth._koszul} for each b tested
            visits, built = [], []
            verdicts = {"seed": {}, "walk": {}}
            phase = ["walk"]

            def seeding(*args):
                phase[0] = "seed"
                try:
                    return seed(*args)
                finally:
                    phase[0] = "walk"

            def building(facets, b):
                built.append((phase[0], b))
                return build(facets, b)

            def judging(size, b, divisors, low):
                verdicts[phase[0]][b] = judge(size, b, divisors, low)
                return verdicts[phase[0]][b]

            def reading(core, q):
                visits.append((phase[0], core.b, []))
                beta, reads = read(core, q), visits[-1][2]

                def logged(i):
                    reads.append((i, beta(i)))
                    return reads[-1][1]

                return logged

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(depth, "_seed", seeding)
                mp.setattr(depth, "upper_koszul_complex", building)
                mp.setattr(depth, "_koszul", judging)
                mp.setattr(depth, "_betti", reading)
                depth._walks.cache_clear()  # this search builds its own K^b
                pd = ideal.n - 1 - depth_exact(ideal, p)
            assert pd == betti_numbers(ideal, p).max_index
            seeded = [(b, reads) for where, b, reads in visits if where == "seed"]
            walked = [(b, reads) for where, b, reads in visits if where == "walk"]
            assert visits[: len(seeded)] == [("seed", *v) for v in seeded]
            # one prime: each b is read at most once per phase
            for phase_reads in (seeded, walked):
                assert len({b for b, _ in phase_reads}) == len(phase_reads)

            # replay the seed over the fiber against the reference: each b
            # neither a cone nor of at most h - 1 facets nor of a core whose
            # top is below h - 1 is read once, at h - 1, until a nonzero
            # beta; it is built there unless its core is a sphere
            h, fiber = seed_fiber(ideal)
            assert h == max(len(q.vars) for q in associated_primes_oracle(ideal).primes)
            reads_at = dict(seeded)
            replayed = []
            hit = h == 1  # beta_0 > 0, read from nothing
            for size, b in fiber:
                if hit:
                    break
                ranks = homology_ranks(koszul(ideal, b), p)
                k = membership_faces(ideal, b)
                cone, core = is_cone(k, supp(b)), strong_core(k)
                kept = not (cone or facet_count(k) <= h - 1 or core_top(core) < h - 1)
                assert kept == (verdicts["seed"][b] is not None) == (b in reads_at)
                if not kept:
                    # a cone, or a core that is a simplex, is acyclic; at most
                    # h - 1 facets, or a core top below h - 1, leave every
                    # beta_{i,b} with i >= h - 1 zero
                    simplex = cone or is_simplex(core)
                    assert not any(ranks[0 if simplex else h - 1 :])
                    continue
                replayed.append(b)
                beta = ranks[h - 1] if h - 1 < len(ranks) else 0
                assert reads_at[b] == [(h - 1, beta)]
                assert (("seed", b) in built) == (not is_simplex_boundary(core))
                hit = beta != 0
            assert hit, "the fiber holds no nonzero beta_{h-1,b}"
            assert replayed == [b for b, _ in seeded]

            # replay the walk over the lattice from the seeded best
            reads_at = dict(walked)
            order = sorted(((len(supp(b)), b) for b in lcm_lattice(ideal)), reverse=True)
            replayed = []
            best = h - 1
            for size, b in order:
                if size - 1 <= best:
                    break
                ranks = homology_ranks(koszul(ideal, b), p)
                # skipped unbuilt exactly when, by its definition, K^b is a
                # cone, which is acyclic, or has at most h facets, or a core
                # whose top is below h, so that every beta_{i,b} the walk
                # could read, at i >= h, is zero
                k = membership_faces(ideal, b)
                m, cone, core = facet_count(k), is_cone(k, supp(b)), strong_core(k)
                kept = not (cone or m <= h or core_top(core) < h)
                assert kept == (verdicts["walk"][b] is not None)
                if not kept:
                    simplex = cone or is_simplex(core)
                    assert not any(ranks[0 if simplex else h :]) and b not in reads_at
                    continue
                reads = reads_at.get(b, [])
                # top down from the core's top, min(its vertices, its facets,
                # its dimension + 2) - 1, never at or below the best index so
                # far, and no further than the first nonzero one; nothing is
                # read, and nothing built, when that start is at or below it
                start = core_top(core)
                assert verdicts["walk"][b].top == start
                assert not any(ranks[start + 1 :])
                assert [i for i, _ in reads] == list(
                    range(start, start - len(reads), -1)
                )
                assert bool(reads) == (start > best)
                assert (("walk", b) in built) == (bool(reads) and not is_simplex_boundary(core))
                if not reads:
                    continue
                replayed.append(b)
                assert reads[-1][0] > best
                assert all(beta == 0 for _, beta in reads[:-1])
                for i, beta in reads:
                    assert beta == (ranks[i] if i < len(ranks) else 0)
                if reads[-1][1]:
                    best = reads[-1][0]
                else:
                    assert reads[-1][0] == best + 1
            assert replayed == [b for b, _ in walked]
            assert best == pd


class TestSeed:
    @seed(20261024)
    @settings(max_examples=150, deadline=None, database=None)
    @given(wide_ideals())
    def test_every_top_height_fiber_holds_a_nonzero_beta(self, ideal):
        # the lemma of the depth module, against the reference fold and
        # homology, for every component of the largest height h
        primes = (2, 3, 32003)
        comps = components_reference(ideal)
        h = max(len(supp(q)) for q in comps)
        for q0 in comps:
            if len(supp(q0)) < h:
                continue
            fiber = [
                b for b in lcm_lattice(ideal)
                if all(b[i] == e for i, e in enumerate(q0) if e)
            ]
            missing = set(primes)
            for b in fiber:
                ranks = {p: homology_ranks(koszul(ideal, b), p) for p in missing}
                missing -= {p for p, r in ranks.items() if h - 1 < len(r) and r[h - 1]}
                if not missing:
                    break
            assert not missing, f"no nonzero beta_{{{h - 1},b}} over {q0}"
        assert depths_exact(ideal, primes) == simplex_skip_depths(ideal, primes)

    @pytest.mark.parametrize("zero_at", [(2, 32003), (32003,)])
    def test_a_homology_that_reads_zero_raises(self, zero_at, monkeypatch):
        # with every beta read as 0, at every prime or at one, the seed
        # finds nothing there: a loud failure, never the n - h that the
        # Stanley family would accept. Each prime is seeded by its own
        # read, not by the lemma. A principal ideal (h = 1) has pd 0 and
        # reads nothing.
        betti = depth._betti
        monkeypatch.setattr(
            depth,
            "_betti",
            lambda by_size, p: (lambda i: 0) if p in zero_at else betti(by_size, p),
        )
        for s in iter_specs((2, 4), (2, 3)):
            ideal = lexsegment_generators(s)
            if len(ideal.gens) == 1:
                assert depths_exact(ideal, (2, 32003)) == {2: s.n - 1, 32003: s.n - 1}
                continue
            with pytest.raises(InternalConsistencyError, match="no b over the component"):
                depths_exact(ideal, (2, 32003))

    def test_fiber_walk_holds_to_the_lattice_limit(self, monkeypatch):
        # the fiber of (x1, x2) in (x1*x3, x1*x4, x2*x3, x2*x4) (or of
        # (x3, x4)) has 3 elements, read until x1*x2*x3, two points
        ideal = I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 3)
        depth._walks.cache_clear()
        assert seeded(ideal, 2) == 1
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 2)
        depth._walks.cache_clear()
        with pytest.raises(DomainError, match="LCM_LATTICE_LIMIT = 2"):
            seeded(ideal, 2)

    def test_depth_at_two_primes_folds_once(self):
        # the second prime reads the walk memo, so the fold is not asked
        # for again
        ideal = lexsegment_generators(spec(5, 3, "x1*x3*x5", "x2^3"))
        decompose._components.cache_clear()
        depth._walks.cache_clear()
        depth_exact(ideal, 2)
        depth_exact(ideal, 32003)
        info = decompose._components.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    def test_n6_d3_depth_is_n_minus_the_top_height(self):
        # the exhaustive gate on the 1,596 n=6, d=3 specs: the Betti depth
        # at both primes is n - max|P| over the oracle's Ass, as pretty
        # clean implies, and the depth digest of the range is pinned
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


def builds(ideal, calls):
    """Runs depths_exact(ideal, primes) for each primes in calls, in turn,
    from a cleared walk memo. Returns (the depths of each call, the
    (phase, b) of every K^b each call built, phase "seed" in the seed's
    fiber walk and "walk" in the walk after it)."""
    seed, build = depth._seed, depth.upper_koszul_complex
    phase = ["walk"]
    built = []

    def seeding(*args):
        phase[0] = "seed"
        try:
            return seed(*args)
        finally:
            phase[0] = "walk"

    def building(facets, b):
        built[-1].append((phase[0], b))
        return build(facets, b)

    depths = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(depth, "_seed", seeding)
        mp.setattr(depth, "upper_koszul_complex", building)
        depth._walks.cache_clear()
        for primes in calls:
            built.append([])
            depths.append(depths_exact(ideal, primes))
    return depths, built


def assert_one_walk_serves_every_prime(ideal, primes):
    """depth_exact at each prime, one call at a time, gives what one
    depths_exact search at all of them gives, and together the calls
    build exactly the K^b that one search builds, none of them twice."""
    ((together,), (once,)) = builds(ideal, [primes])
    depths, built = builds(ideal, [(p,) for p in primes])
    assert {p: d[p] for d, p in zip(depths, primes)} == together
    union = [step for call in built for step in call]
    assert len(set(union)) == len(union)
    assert set(union) == set(once) and len(once) == len(set(once))
    return built


class TestWalkMemo:
    """The one-entry memo of the seed's fiber walk, the lattice walk and
    their K^b (depth._walks): a depth at another prime replays the walks
    and builds no K^b again, and a raise is never replayed as a walk cut
    short."""

    @seed(20261025)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6), st.booleans())
    def test_one_prime_at_a_time_in_either_order(self, ideal, backwards):
        primes = (2, 3, 32003)[:: -1 if backwards else 1]
        assert_one_walk_serves_every_prime(ideal, primes)

    @pytest.mark.parametrize("primes", [(2, 3, 32003), (32003, 3, 2)])
    def test_one_prime_at_a_time_where_the_primes_disagree(self, primes):
        # pd = 3 over GF(2) stops that search at support 4, and pd = 2 lets
        # the others walk on to support 3: after GF(2) the later calls
        # extend the walk, building only K^b that no call built before;
        # after GF(32003) they build nothing
        built = assert_one_walk_serves_every_prime(real_projective_plane(), primes)
        assert built[0] and bool(built[1]) == (primes[0] == 2) and not built[2]

    def test_interleaved_readers_each_see_the_whole_walk(self):
        # two readers copied from the memo entry's lattice walk: one that
        # stops and resumes after the other has extended the walk still
        # reads every step, in order
        ideal = I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")
        depth._walks.cache_clear()
        _, _, (root, _) = depth._walks(
            ideal, (depth.LCM_LATTICE_LIMIT, depth.KOSZUL_SUPPORT_LIMIT)
        )
        first, second = copy(root), copy(root)
        head = [next(first), next(first)]
        walk = list(depth._lattice_walk(ideal.gens))
        assert list(second) == head + list(first) == walk

    def test_the_second_prime_builds_nothing(self):
        # this ideal has the same depth over both fields, and the first b
        # read, x1^2*x2^2*x3*x4^2, has a square as K^b, with no dominated
        # vertex and no sphere: the first prime builds it at its read, and
        # the second prime reads what the first one built
        ideal = I(4, "x1^2*x2*x4^2", "x1^2*x3*x4", "x1*x2^2*x3", "x1*x2^2*x4^2",
                  "x2^2*x3*x4^2")
        depths, built = builds(ideal, [(2,), (32003,)])
        assert built[0] and not built[1]
        assert depths == [{2: 1}, {32003: 1}]
        # on a lexsegment every core read is a sphere, read in closed form
        ideal = lexsegment_generators(spec(5, 3, "x1*x3*x5", "x2^3"))
        depths, built = builds(ideal, [(2,), (32003,)])
        assert built == [[], []]
        assert depths == [{2: 1}, {32003: 1}]

    @pytest.mark.parametrize("limit, where", [(2, "seed"), (4, "walk")])
    def test_a_walk_over_the_lattice_limit_raises_at_every_call(
        self, limit, where, monkeypatch
    ):
        # (x1*x3, x1*x4, x2*x3, x2*x4): the fiber walk generates 3
        # elements and the walk after it 5, so at a limit of 2 the fiber
        # walk raises and at 4 the walk after it
        ideal = I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4")
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", limit)
        depth._walks.cache_clear()
        if where == "walk":
            assert seeded(ideal, 2) == 1
        for p in (2, 2, 32003, 32003):
            with pytest.raises(DomainError, match=f"LCM_LATTICE_LIMIT = {limit}"):
                depth_exact(ideal, p)
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 5)
        assert depths_exact(ideal, (2, 32003)) == {2: 1, 32003: 1}

    @pytest.mark.parametrize("limit, where", [(2, "seed"), (3, "walk")])
    def test_a_walk_over_the_support_limit_raises_at_every_call(
        self, limit, where, monkeypatch
    ):
        # the fiber of (x1, x2) has one element, of support 3, and the
        # lattice's top, a cone, has support 4
        ideal = I(4, "x1*x4", "x2*x4^2", "x1^2*x3^3")
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", limit)
        depth._walks.cache_clear()
        if where == "walk":
            assert seeded(ideal, 2) == 1
        for p in (2, 2, 32003, 32003):
            with pytest.raises(DomainError, match=f"KOSZUL_SUPPORT_LIMIT = {limit}"):
                depth_exact(ideal, p)
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 4)
        assert depths_exact(ideal, (2, 32003)) == {2: 2, 32003: 2}

    def test_a_seed_that_reads_zero_raises_at_every_call(self, monkeypatch):
        # the memo keeps walks and complexes, no beta: a homology that
        # reads zero fails at every call, each raise clears the memo, and a
        # sound one then walks the lattice again
        ideal = lexsegment_generators(spec(5, 3, "x1*x3*x5", "x2^3"))
        betti = depth._betti
        depth._walks.cache_clear()
        with monkeypatch.context() as mp:
            mp.setattr(depth, "_betti", lambda by_size, p: lambda i: 0)
            for p in (2, 2, 32003):
                with pytest.raises(InternalConsistencyError, match="no b over"):
                    depth_exact(ideal, p)
        assert depth._betti is betti
        assert depths_exact(ideal, (2, 32003)) == {2: 1, 32003: 1}
