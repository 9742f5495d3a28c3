"""Depth: the lex-criterion classifier and the Betti-number oracle."""

from dataclasses import dataclass

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import I, spec
from lexseg import depth
from lexseg.depth import (
    DepthClass,
    depth_class,
    depth_exact,
    homology_ranks,
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
def small_ideals(draw):
    n = draw(st.integers(2, 5))
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

    def test_lcm_lattice_limit(self, monkeypatch):
        # I = (x1, x2) has the 3-element lattice {x1, x2, x1*x2}
        build = lcm_lattice.__wrapped__  # past the cache, so the limit is read
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 3)
        assert len(build(I(2, "x1", "x2"))) == 3
        monkeypatch.setattr(depth, "LCM_LATTICE_LIMIT", 2)
        with pytest.raises(DomainError, match="lcm lattice"):
            build(I(2, "x1", "x2"))


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
            # every visited b could still raise the best index found before
            # it, and no b left unvisited could raise the final one
            best = 0
            for b in visited:
                assert len(supp(b)) - 1 > best
                best = max(best, top.get(b, 0))
            assert all(
                len(supp(b)) - 1 <= best for b in lcm_lattice(ideal) if b not in visited
            )
