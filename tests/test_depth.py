"""Depth: the lex-criterion classifier and the Betti-number oracle."""

from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import I, spec
from lexseg import depth, kernels
from lexseg.depth import (
    CHARACTERISTIC_LIMIT,
    DepthClass,
    depth_class,
    depth_exact,
    lcm_lattice,
    upper_koszul_complex,
)
from lexseg.monomials import (
    DomainError,
    Monomial,
    MonomialIdeal,
    SpecError,
    lexsegment_generators,
    supp,
    unit_ideal,
    zero_ideal,
)


def facets(k):
    """Inclusion-maximal faces of the complex k, smallest first."""
    return tuple(
        f
        for f in sorted(k.faces, key=lambda s: (len(s), sorted(s)))
        if not any(f < g for g in k.faces)
    )


def dim(k):
    """Largest face size of the complex k minus one; -2 for the void complex."""
    if not k.faces:
        return -2
    return max(len(f) for f in k.faces) - 1


def homology_ranks(complex, p):
    """Reduced homology ranks over GF(p), indexed from dimension -1: every
    boundary rank of the complex, the reference for the ranks depth_exact
    reads.

    Returns [rank H~_{-1}, rank H~_0, rank H~_1, ...].
    """
    by_dim = {}
    for f in complex.faces:
        by_dim.setdefault(len(f) - 1, []).append(tuple(sorted(f)))
    if not by_dim:
        return [0]
    top = max(by_dim)
    for faces in by_dim.values():
        faces.sort()

    # rank of boundary map from dimension i to i-1
    def boundary_rank(i):
        if i <= -1 or i not in by_dim or (i - 1) not in by_dim:
            return 0
        lower = {f: k for k, f in enumerate(by_dim[i - 1])}
        rows = []
        for f in by_dim[i]:
            row = [0] * len(lower)
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
        ranks = homology_ranks(upper_koszul_complex(ideal, b), p)
        for i, r in enumerate(ranks):  # ranks[i] = H~_{i-1}
            if r:
                entries.append((i, b, r))
    return BettiTable(ideal.n, tuple(entries))


@st.composite
def small_ideals(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=6)))


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
        k = upper_koszul_complex(I(2, "x1*x2"), (1, 1))
        assert k.faces == frozenset({frozenset()})

    def test_two_vertices_no_edge(self):
        # b = x1*x2 for I = (x1, x2): the edge {1,2} would need 1 in I
        k = upper_koszul_complex(I(2, "x1", "x2"), (1, 1))
        assert k.faces == frozenset(
            {frozenset(), frozenset({1}), frozenset({2})}
        )
        assert dim(k) == 0

    def test_rejects_trivial_ideals(self):
        with pytest.raises(DomainError):
            upper_koszul_complex(zero_ideal(2), (1, 1))
        with pytest.raises(DomainError):
            upper_koszul_complex(unit_ideal(2), (1, 1))

    @seed(20261018)
    @settings(max_examples=150, deadline=None, database=None)
    @given(small_ideals(max_n=6), st.lists(st.integers(0, 4), min_size=6, max_size=6))
    def test_facets_give_the_membership_faces(self, ideal, extra):
        # every b of the lcm lattice, and one b that need not be in it
        build = upper_koszul_complex.__wrapped__  # past the cache
        for b in sorted(lcm_lattice(ideal)) + [tuple(extra[: ideal.n])]:
            k = build(ideal, b)
            assert k.vertices == supp(b)
            assert k.faces == membership_faces(ideal, b)

    def test_support_limit(self, monkeypatch):
        # the tests and benchmarks reach |supp b| <= 6, far below the limit
        build = upper_koszul_complex.__wrapped__  # past the cache
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 2)
        assert len(build(I(2, "x1", "x2"), (1, 1)).faces) == 3
        with pytest.raises(DomainError, match="KOSZUL_SUPPORT_LIMIT"):
            build(I(3, "x1*x2*x3"), (1, 1, 1))


class TestHomology:
    def test_point_is_acyclic(self):
        # b = x1*x2 for I = (x1): faces {} and {2}, a single point
        k = upper_koszul_complex(I(2, "x1"), (1, 1))
        assert homology_ranks(k, 2) == [0, 0]

    def test_two_points_have_reduced_h0(self):
        # b = lcm of x1, x2 for I = (x1, x2)... K^b has facets {1} and {2}
        # joined by {1,2}, so it is contractible; use the disjoint pair via
        # I = (x1^2, x2^2) at b = (2, 2) quotients instead
        k = upper_koszul_complex(I(2, "x1^2", "x2^2"), (2, 2))
        assert facets(k) == (frozenset({1}), frozenset({2}))
        assert homology_ranks(k, 2) == [0, 1]

    def test_empty_complex_has_hminus1(self):
        # only the empty face: reduced homology concentrated in degree -1
        k = upper_koszul_complex(I(2, "x1*x2"), (1, 1))
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

    def test_largest_prime_below_the_limit(self):
        ideal = lexsegment_generators(spec(4, 3, "x1*x3*x4", "x2^2*x3"))
        assert CHARACTERISTIC_LIMIT == 2**31
        assert depth_exact(ideal, 2**31 - 1) == depth_exact(ideal, 32003) == 1

    def test_lcm_lattice_limit(self, monkeypatch):
        # I = (x1, x2) has the 3-element lattice {x1, x2, x1*x2}
        build = lcm_lattice.__wrapped__  # past the cache, so the limit is read
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 3)
        assert len(build(I(2, "x1", "x2"))) == 3
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 2)
        with pytest.raises(DomainError, match="lcm lattice"):
            build(I(2, "x1", "x2"))


    def test_support_limit_holds_when_the_first_b_is_skipped(self, monkeypatch):
        # the one b of support 4, x1^2*x2*x3^3*x4^2, has x1*x3^2*x4 in I: a
        # full simplex skipped unbuilt, yet its support is held to the limit
        ideal = I(4, "x1*x4", "x2*x4^2", "x1^2*x3^3")
        assert [b for b in lcm_lattice(ideal) if len(supp(b)) == 4] == [(2, 1, 3, 2)]
        exact = depth_exact.__wrapped__  # past the cache
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 3)
        with pytest.raises(DomainError, match="KOSZUL_SUPPORT_LIMIT"):
            exact(ideal, 2)
        monkeypatch.setattr(depth, "KOSZUL_SUPPORT_LIMIT", 4)
        assert exact(ideal, 2) == 2


class TestPrunedSearch:
    @seed(20261019)
    @settings(max_examples=80, deadline=None, database=None)
    @given(small_ideals())
    def test_matches_reference_and_visits_only_what_can_raise_pd(self, ideal):
        for p in (2, 32003):
            table = betti_numbers(ideal, p)
            # the vanishing bound the search prunes with
            assert all(i <= len(supp(b)) - 1 for i, b, _ in table.entries)
            top = {}
            for i, b, _ in table.entries:
                top[b] = max(top.get(b, 0), i)
            visited = []

            def recording(j, b):
                visited.append(b)
                return upper_koszul_complex(j, b)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(depth, "upper_koszul_complex", recording)
                pd = ideal.n - 1 - depth_exact.__wrapped__(ideal, p)  # past the cache
            assert pd == table.max_index
            # every built K^b could still raise the best index found before
            # it, and no b left unbuilt could raise the final one by its
            # support
            best = 0
            for b in visited:
                assert len(supp(b)) - 1 > best
                best = max(best, top.get(b, 0))
            # or, by its definition, has the full simplex as K^b: acyclic
            for b in lcm_lattice(ideal):
                if b not in visited and len(supp(b)) - 1 > best:
                    assert len(membership_faces(ideal, b)) == 2 ** len(supp(b))


class TestTargetedRanks:
    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(small_ideals(max_n=6))
    def test_reads_match_reference_and_skips_are_acyclic(self, ideal):
        read = depth._betti_from_top
        for p in (2, 32003):
            visits = []  # [b, the (i, beta) pairs read at b] per K^b built

            def building(j, b):
                visits.append([b, None])
                return upper_koszul_complex(j, b)

            def reading(k, q, above):
                visits[-1][1] = reads = []
                for pair in read(k, q, above):
                    reads.append(pair)
                    yield pair

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(depth, "upper_koszul_complex", building)
                mp.setattr(depth, "_betti_from_top", reading)
                pd = ideal.n - 1 - depth_exact.__wrapped__(ideal, p)  # past the cache
            assert pd == betti_numbers(ideal, p).max_index
            # replay the search over the lattice against the reference
            built = dict(visits)
            order = sorted(((len(supp(b)), b) for b in lcm_lattice(ideal)), reverse=True)
            replayed = []
            best = 0
            for size, b in order:
                if size - 1 <= best:
                    break
                ranks = homology_ranks(upper_koszul_complex(ideal, b), p)
                # skipped unbuilt exactly when, by its definition, K^b is
                # the full simplex, which is acyclic
                full = len(membership_faces(ideal, b)) == 2**size
                assert full == (b not in built)
                if full:
                    assert not any(ranks)
                    continue
                replayed.append(b)
                reads = built[b]
                # top down from |supp b| - 1, never at or below the best
                # index so far, and no further than the first nonzero one
                assert reads, "a K^b was built but none of its ranks read"
                assert [i for i, _ in reads] == list(
                    range(size - 1, size - 1 - len(reads), -1)
                )
                assert reads[-1][0] > best
                assert all(beta == 0 for _, beta in reads[:-1])
                for i, beta in reads:
                    assert beta == (ranks[i] if i < len(ranks) else 0)
                if reads[-1][1]:
                    best = reads[-1][0]
                else:
                    assert reads[-1][0] == best + 1
            assert replayed == [b for b, _ in visits]
            assert best == pd
