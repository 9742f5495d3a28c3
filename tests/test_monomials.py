"""Core monomial and ideal arithmetic, lex order, specs, and reductions."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    I,
    P,
    add_element,
    degree_monomials,
    ideal_as_prime,
    ideal_sum,
    is_proper_subset,
    mon_div,
    spec,
    zero_ideal,
)
from lexseg.closed_form import associated_primes_lexsegment
from lexseg.monomials import (
    SEGMENT_LIMIT,
    DimensionError,
    DomainError,
    LexSpec,
    MonomialIdeal,
    PrimeIdeal,
    SpecError,
    SpecKind,
    _lex_rank,
    classify,
    colon,
    degree,
    intersect,
    lexsegment_generators,
    max_var,
    min_var,
    mon_mul,
    reduce_fully,
    supp,
    unit,
    unit_ideal,
    variable,
)
from lexseg.sweep import iter_specs


def mon_gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def mon_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def contains_ideal(a, b):
    """a >= b as ideals: every generator of b lies in a."""
    return all(g in a for g in b.gens)


def issubset(p, q):
    return set(p.vars) <= set(q.vars)


monomials3 = st.tuples(*([st.integers(0, 4)] * 3))
ideals3 = st.lists(monomials3, min_size=1, max_size=5).map(
    lambda gens: MonomialIdeal.from_gens(3, gens)
)


class TestMonomialOps:
    def test_degree_and_mul(self):
        assert degree((2, 0, 3)) == 5
        assert mon_mul((1, 0, 2), (0, 3, 1)) == (1, 3, 3)

    def test_div_exact_and_error(self):
        assert mon_div((2, 1, 0), (1, 1, 0)) == (1, 0, 0)
        with pytest.raises(ValueError):
            mon_div((1, 0, 0), (0, 1, 0))

    def test_gcd_lcm(self):
        assert mon_gcd((2, 1, 0), (1, 3, 0)) == (1, 1, 0)
        assert mon_lcm((2, 1, 0), (1, 3, 0)) == (2, 3, 0)

    def test_supp_min_max(self):
        assert supp((0, 2, 1)) == (2, 3)
        assert min_var((0, 2, 1)) == 2
        assert max_var((0, 2, 1)) == 3
        with pytest.raises(ValueError):
            min_var((0, 0, 0))

    def test_variable_and_unit(self):
        assert variable(3, 2, 4) == (0, 4, 0)
        assert unit(3) == (0, 0, 0)
        with pytest.raises(DimensionError):
            variable(3, 4)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            mon_mul((1, 0), (1, 0, 0))

    def test_unit_monomial_has_no_last_variable(self):
        with pytest.raises(ValueError, match="no support"):
            max_var((0, 0, 0))


class TestLexOrder:
    def test_examples(self):
        # x1 > x2 > x3 is tuple order: the earlier variable with the larger
        # exponent wins
        assert (1, 0, 0) > (0, 1, 0)
        assert (1, 1, 0) > (1, 0, 2)
        assert (0, 0, 3) < (0, 1, 0)

    def test_full_segment_descending_and_count(self):
        mons = lexsegment_generators(spec(3, 2, "x1^2", "x3^2")).gens
        assert mons == (
            (2, 0, 0),
            (1, 1, 0),
            (1, 0, 1),
            (0, 2, 0),
            (0, 1, 1),
            (0, 0, 2),
        )
        assert len(lexsegment_generators(spec(5, 2, "x1^2", "x5^2")).gens) == 15

    def test_segment_over_limit_refused_before_listing(self):
        # L(x1^21, x8^21) holds all C(28, 21) = 1,184,040 monomials of
        # degree 21 in 8 variables, just over the limit; C(27, 20) = 888,030
        # at degree 20 is under it
        assert comb(28, 21) > SEGMENT_LIMIT >= comb(27, 20)
        with pytest.raises(DomainError, match="1184040 generators, over SEGMENT_LIMIT"):
            lexsegment_generators(spec(8, 21, "x1^21", "x8^21"))

    def test_walk_is_the_reference_slice_and_the_rank_its_position(self):
        # on every spec of n=1..5, d=1..4, L(u, v) is the slice of the
        # brute-force lex-descending list from u to v, and the lex rank of
        # a monomial is its position in that list
        specs = 0
        for n in range(1, 6):
            for d in range(1, 5):
                mons = degree_monomials(n, d)
                assert [_lex_rank(m) for m in mons] == list(range(len(mons)))
                for i, u in enumerate(mons):
                    for j in range(i, len(mons)):
                        gens = lexsegment_generators(LexSpec(n, d, u, mons[j])).gens
                        assert gens == mons[i : j + 1]
                        specs += 1
        assert specs == 4395

    def test_full_segment_count(self):
        for n in range(1, 10):
            for d in range(1, 6):
                full = LexSpec(n, d, variable(n, 1, d), variable(n, n, d))
                assert len(lexsegment_generators(full).gens) == comb(n + d - 1, d)

    def test_narrow_segment_in_a_huge_degree(self):
        # degree 20 in 8 variables has 888,030 monomials; this segment has 8
        s = spec(8, 20, "x1^20", "x1^19*x8")
        expected = (variable(8, 1, 20),) + tuple(
            (19,) + variable(7, i) for i in range(1, 8)
        )
        assert lexsegment_generators(s).gens == expected

    @given(monomials3, monomials3)
    def test_multiplication_respects_order(self, a, b):
        c = (1, 2, 0)
        if a > b:
            assert mon_mul(a, c) > mon_mul(b, c)


class TestMonomialIdeal:
    def test_canonical_form(self):
        # generators are minimalized and sorted lex-descending
        ideal = I(3, "x1*x2", "x1*x2^2", "x3")
        assert ideal.gens == ((1, 1, 0), (0, 0, 1))

    def test_equality_of_equal_ideals(self):
        a = MonomialIdeal.from_gens(2, [(1, 1), (1, 2)])
        b = MonomialIdeal.from_gens(2, [(1, 1)])
        assert a == b

    def test_membership(self):
        ideal = I(3, "x1*x2")
        assert (1, 1, 0) in ideal
        assert (2, 3, 1) in ideal
        assert (1, 0, 5) not in ideal
        assert (0, 0, 0) not in ideal

    def test_zero_and_unit(self):
        assert zero_ideal(2).is_zero
        assert unit_ideal(2).is_unit
        assert (5, 7) in unit_ideal(2)

    def test_contains_ideal(self):
        assert contains_ideal(I(2, "x1"), I(2, "x1*x2"))
        assert not contains_ideal(I(2, "x1*x2"), I(2, "x1"))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MonomialIdeal.from_gens(2, [(1, -1)])

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ValueError, match="non-integer exponent 1.5"):
            MonomialIdeal.from_gens(2, [(1.5, 1)])

    def test_generator_of_another_length_rejected(self):
        with pytest.raises(DimensionError, match="length"):
            MonomialIdeal.from_gens(3, [(1, 0)])


class TestColonIntersectSum:
    def test_colon_example(self):
        # ((x1x2, x2^2) : x2) = (x1, x2)
        assert colon(I(2, "x1*x2", "x2^2"), (0, 1)) == I(2, "x1", "x2")

    def test_colon_by_unit_is_identity(self):
        ideal = I(3, "x1*x2", "x3^2")
        assert colon(ideal, (0, 0, 0)) == ideal

    def test_intersect_example(self):
        assert intersect(I(2, "x1"), I(2, "x2")) == I(2, "x1*x2")

    def test_operands_of_another_length_rejected(self):
        with pytest.raises(DimensionError, match="monomial length"):
            colon(I(3, "x1*x2"), (0, 1))
        with pytest.raises(DimensionError, match="variable counts"):
            intersect(I(2, "x1"), I(3, "x2"))

    def test_sum_example(self):
        assert ideal_sum(I(2, "x1*x2"), I(2, "x2^2")) == I(2, "x1*x2", "x2^2")

    @given(ideals3, monomials3, monomials3)
    @settings(max_examples=60)
    def test_colon_composition(self, ideal, a, b):
        # ((I : a) : b) = (I : ab)
        assert colon(colon(ideal, a), b) == colon(ideal, mon_mul(a, b))

    @given(ideals3, monomials3, monomials3)
    @settings(max_examples=60)
    def test_colon_adjunction(self, ideal, w, m):
        # m in (I : w)  iff  m*w in I
        assert (m in colon(ideal, w)) == (mon_mul(m, w) in ideal)

    @given(ideals3, ideals3, monomials3)
    @settings(max_examples=60)
    def test_intersect_membership(self, a, b, m):
        assert (m in intersect(a, b)) == (m in a and m in b)

    @given(ideals3, ideals3)
    @settings(max_examples=60)
    def test_sum_contains_both(self, a, b):
        s = ideal_sum(a, b)
        assert contains_ideal(s, a) and contains_ideal(s, b)

    def test_add_element(self):
        assert add_element(I(2, "x1*x2"), (0, 1)) == I(2, "x2")

    @given(ideals3, monomials3)
    @settings(max_examples=60)
    def test_add_element_matches_minimalized_sum(self, ideal, m):
        expected = MonomialIdeal.from_gens(3, ideal.gens + (m,))
        assert add_element(ideal, m) == expected


class TestPrimeIdeal:
    def test_canonical_vars(self):
        assert P(4, 3, 1, 3).vars == (1, 3)
        assert PrimeIdeal.span(4, 2, 4).vars == (2, 3, 4)
        assert PrimeIdeal.maximal(3).vars == (1, 2, 3)

    def test_to_ideal_round_trip(self):
        p = P(4, 2, 4)
        assert ideal_as_prime(p.to_ideal()) == p
        assert ideal_as_prime(I(2, "x1*x2")) is None
        assert ideal_as_prime(zero_ideal(2)) is None

    def test_to_ideal_is_canonical(self):
        # must equal the same ideal built through from_gens/colon
        p = P(3, 1, 2)
        assert p.to_ideal() == colon(I(3, "x1*x3", "x2*x3"), (0, 0, 1))

    def test_subset_relations(self):
        assert issubset(P(3, 1), P(3, 1, 2))
        assert is_proper_subset(P(3, 1), P(3, 1, 2))
        assert not is_proper_subset(P(3, 1, 2), P(3, 1, 2))

    def test_shift(self):
        assert P(2, 1, 2).shift(1, 3) == P(3, 2, 3)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            P(2, 3)


class TestLexSpec:
    def test_validation(self):
        with pytest.raises(SpecError):
            spec(3, 2, "x2*x3", "x1*x2")  # u <_lex v
        with pytest.raises(SpecError):
            LexSpec(3, 2, (1, 0, 0), (0, 1, 0))  # degree mismatch
        with pytest.raises(DimensionError):
            LexSpec(3, 2, (1, 1), (1, 1))

    def test_no_variables_refused(self):
        with pytest.raises(SpecError, match="need n >= 1"):
            LexSpec(0, 1, (), ())

    def test_negative_exponent_is_refused(self):
        # degree and lex order alone accept both
        with pytest.raises(SpecError, match="negative exponent"):
            LexSpec(2, 2, (3, -1), (2, 0))
        with pytest.raises(SpecError, match="negative exponent"):
            LexSpec(2, 2, (2, 0), (-1, 3))

    def test_fractional_exponents_refused_before_the_closed_form(self):
        # degree 2 and u >=_lex v hold, but x1^1.5*x2^0.5 is no monomial
        with pytest.raises(SpecError, match="must be ints"):
            associated_primes_lexsegment(LexSpec(2, 2, (1.5, 0.5), (0, 2)))

    def test_float_variable_count_refused(self):
        with pytest.raises(SpecError, match="must be ints, got n=2.0"):
            LexSpec(2.0, 2, (1, 1), (0, 2))

    def test_bool_exponents_refused(self):
        # True == 1, so the degree and the lex order alone accept them
        with pytest.raises(SpecError, match="must be ints"):
            LexSpec(2, 2, (True, True), (0, 2))

    def test_derived_fields(self):
        s = spec(4, 3, "x1*x3^2", "x2^2*x4")
        assert (s.a1, s.b1) == (1, 0)
        assert (s.l, s.u[s.l - 1]) == (3, 2)
        assert spec(3, 2, "x1^2", "x2*x3").l is None

    def test_classify(self):
        assert classify(spec(3, 2, "x2^2", "x2^2")) == SpecKind.PRINCIPAL
        assert classify(spec(3, 2, "x1^2", "x3^2")) == SpecKind.FULL_SEGMENT
        assert classify(spec(3, 2, "x1^2", "x2*x3")) == SpecKind.INITIAL
        assert classify(spec(3, 2, "x1*x2", "x3^2")) == SpecKind.FINAL
        assert classify(spec(3, 2, "x1*x2", "x2*x3")) == SpecKind.ARBITRARY

    def test_lexsegment_generators(self):
        ideal = lexsegment_generators(spec(3, 2, "x1*x2", "x2*x3"))
        assert ideal.gens == ((1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1))

    def test_full_segment_is_power_of_maximal(self):
        ideal = lexsegment_generators(spec(2, 2, "x1^2", "x2^2"))
        assert ideal == I(2, "x1^2", "x1*x2", "x2^2")


class TestReduction:
    def test_divide_out_x1(self):
        work, factor = reduce_fully(spec(3, 2, "x1^2", "x1*x3"))
        assert factor == (1, 0, 0)
        assert work == spec(3, 1, "x1", "x3")

    def test_principal_power_of_x1(self):
        # u = v = x1^d is already the working spec: nothing is divided out
        s = spec(3, 2, "x1^2", "x1^2")
        assert reduce_fully(s) == (s, (0, 0, 0))

    def test_reindex(self):
        work, factor = reduce_fully(spec(3, 2, "x2*x3", "x3^2"))
        assert factor == (0, 0, 0)
        assert work == spec(2, 2, "x1*x2", "x2^2")

    def test_reduced_spec_unchanged(self):
        s = spec(3, 2, "x1*x2", "x2*x3")
        assert reduce_fully(s) == (s, (0, 0, 0))

    def test_reduce_fully_mixed(self):
        work, factor = reduce_fully(spec(4, 3, "x2^2*x3", "x2^2*x4"))
        # drop x1, divide by x2^2, then drop the now-unused x2
        assert factor == (0, 2, 0, 0)
        assert work == spec(2, 1, "x1", "x2")

    def test_divides_two_variables(self):
        # divide by x1, drop x1, divide by x2^2, drop x2
        work, factor = reduce_fully(spec(4, 4, "x1*x2^2*x3", "x1*x2^2*x4"))
        assert factor == (1, 2, 0, 0)
        assert work == spec(2, 1, "x1", "x2")

    def test_reduction_matches_colon(self):
        # dividing out x1^b1 is exactly the colon by x1^b1 on generators
        s = spec(3, 3, "x1^2*x2", "x1*x3^2")
        work, factor = reduce_fully(s)
        assert factor == (s.b1, 0, 0)
        big = lexsegment_generators(s)
        small = lexsegment_generators(work)
        assert small == colon(big, variable(3, 1, s.b1))

    def test_factor_times_work_is_the_ideal(self):
        # I(spec) = x^factor * i(I(work)), i putting work's variables last,
        # on the 477 acceptance specs and the 821 n=2..3, d=4..6 specs
        specs = (
            list(iter_specs((2, 4), (2, 3)))
            + list(iter_specs((5, 5), (2, 2)))
            + list(iter_specs((2, 3), (4, 6)))
        )
        assert len(specs) == 477 + 821
        for s in specs:
            work, factor = reduce_fully(s)
            assert work.u == work.v or (work.a1 >= 1 and work.b1 == 0)
            pad = (0,) * (s.n - work.n)
            lifted = MonomialIdeal.from_gens(
                s.n, (mon_mul(factor, pad + g) for g in lexsegment_generators(work).gens)
            )
            assert lifted == lexsegment_generators(s)
