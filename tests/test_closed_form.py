"""Closed-form associated primes: each case formula through the dispatcher,
reductions, fixtures."""

import pytest

from conftest import FIXTURES, P, mon_div, spec
from lexseg.closed_form import associated_primes_lexsegment
from lexseg.decompose import associated_primes_oracle
from lexseg.monomials import (
    LexSpec,
    Monomial,
    PrimeIdeal,
    SpecError,
    colon,
    lexsegment_generators,
    mon_mul,
    supp,
    variable,
)


def supp_witness_primes(spec: LexSpec) -> list[tuple[PrimeIdeal, Monomial]]:
    """The primes (x1..xj) for j in supp(v) \\ {n}, with explicit witnesses.

    Each witness w = (v / x_j) * xn^(d - bn) is checked sound against the
    generated ideal: w not in I and (I : w) = (x1, ..., xj).
    """
    n, d = spec.n, spec.d
    if spec.a1 == 0:
        raise SpecError("x1 must divide u")
    if spec.b1 > 0:
        raise SpecError("x1 must not divide v")
    if spec.v == variable(n, n, d):
        raise SpecError("v = xn^d is excluded")
    ideal = lexsegment_generators(spec)
    bn = spec.v[n - 1]
    out = []
    for j in supp(spec.v):
        if j == n:
            continue
        w = mon_mul(mon_div(spec.v, variable(n, j)), variable(n, n, d - bn))
        prime = PrimeIdeal.span(n, 1, j)
        if w in ideal or colon(ideal, w) != prime.to_ideal():
            raise SpecError(f"witness {w} for {prime.vars} failed its soundness check")
        out.append((prime, w))
    return out


class TestSuppWitnessPrimes:
    def test_pairs_and_soundness(self):
        s = spec(4, 2, "x1*x2", "x2*x3")
        pairs = dict(supp_witness_primes(s))
        assert pairs == {
            P(4, 1, 2): (0, 0, 1, 2),  # x3*x4^2
            P(4, 1, 2, 3): (0, 1, 0, 2),  # x2*x4^2
        }
        ideal = lexsegment_generators(s)
        for prime, w in pairs.items():
            assert w not in ideal
            assert colon(ideal, w) == prime.to_ideal()

    def test_v_pure_power_of_xn_rejected(self):
        with pytest.raises(SpecError):
            supp_witness_primes(spec(3, 2, "x1*x2", "x3^2"))

    def test_tail_support(self):
        pairs = supp_witness_primes(spec(4, 2, "x1*x2", "x3*x4"))
        assert [p.vars for p, _ in pairs] == [(1, 2, 3)]


class TestCaseFormulas:
    # reduced specs (x1 | u, x1 does not divide v), where the dispatcher
    # reads one case formula and adds nothing
    def test_initial(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1^2", "x2*x3")) == frozenset(
            {P(3, 1, 2), P(3, 1, 2, 3)}
        )
        assert associated_primes_lexsegment(spec(4, 2, "x1^2", "x2*x4")) == frozenset(
            {P(4, 1, 2), P(4, 1, 2, 3, 4)}
        )

    def test_initial_of_xn_power_is_maximal(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1^2", "x3^2")) == frozenset(
            {P(3, 1, 2, 3)}
        )

    def test_final(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1*x2", "x3^2")) == frozenset(
            {P(3, 1, 2, 3), P(3, 2, 3)}
        )
        assert associated_primes_lexsegment(spec(2, 3, "x1*x2^2", "x2^3")) == frozenset(
            {P(2, 1, 2), P(2, 2)}
        )

    def test_depth0(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1*x2", "x2*x3")) == frozenset(
            {P(3, 1, 2), P(3, 1, 2, 3), P(3, 2, 3)}
        )
        assert associated_primes_lexsegment(spec(4, 2, "x1*x2", "x2*x4")) == frozenset(
            {P(4, 1, 2), P(4, 1, 2, 3, 4), P(4, 2, 3, 4)}
        )

    def test_depth1_b(self):
        assert associated_primes_lexsegment(spec(4, 2, "x1*x2", "x2*x3")) == frozenset(
            {P(4, 2, 3, 4), P(4, 1, 2), P(4, 1, 2, 3)}
        )

    def test_depth_ge2_b(self):
        assert associated_primes_lexsegment(spec(5, 2, "x1*x5", "x2*x3")) == frozenset(
            {P(5, 1, 2), P(5, 1, 2, 3), P(5, 2, 5), P(5, 2, 3, 5)}
        )

    def test_depth1_a(self):
        s = spec(4, 3, "x1*x3*x4", "x2^2*x3")
        assert associated_primes_lexsegment(s) == frozenset(
            {P(4, 2, 3, 4), P(4, 1, 2), P(4, 1, 2, 3), P(4, 2, 4)}
        )


class TestDispatcher:
    def test_reduction_example(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1^2", "x1*x3")) == (
            frozenset({P(3, 1), P(3, 1, 2, 3)})
        )

    def test_principal(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1*x2", "x1*x2")) == (
            frozenset({P(3, 1), P(3, 2)})
        )

    def test_full_segment(self):
        assert associated_primes_lexsegment(spec(3, 2, "x1^2", "x3^2")) == (
            frozenset({P(3, 1, 2, 3)})
        )

    def test_degree_one_segment_is_prime(self):
        # L(x1, x2) = (x1, x2) is itself prime
        assert associated_primes_lexsegment(spec(3, 1, "x1", "x2")) == (
            frozenset({P(3, 1, 2)})
        )

    def test_reindexed_final(self):
        # u, v avoid x1: final segment in the shifted ring, primes shifted back
        assert associated_primes_lexsegment(spec(3, 2, "x2*x3", "x3^2")) == (
            frozenset({P(3, 2, 3), P(3, 3)})
        )

    def test_fixtures(self, fixture_case):
        s, expected = fixture_case
        assert associated_primes_lexsegment(s) == expected

    def test_fixtures_oracle_confirmed(self, fixture_case):
        s, expected = fixture_case
        oracle = associated_primes_oracle(lexsegment_generators(s)).primes
        assert oracle == expected


class TestStructuralInvariants:
    def all_specs(self):
        return [spec(n, d, u, v) for _, n, d, u, v, _ in FIXTURES]

    def test_witnessed_primes_contained_in_output(self):
        for s in self.all_specs():
            out = associated_primes_lexsegment(s)
            for prime, _ in supp_witness_primes(s):
                assert prime in out

    def test_depth0_has_maximal_depth_pos_does_not(self):
        m3, m4 = P(3, 1, 2, 3), P(4, 1, 2, 3, 4)
        assert m3 in associated_primes_lexsegment(spec(3, 2, "x1*x2", "x2*x3"))
        assert m4 not in associated_primes_lexsegment(spec(4, 2, "x1*x2", "x2*x3"))

    def test_output_prime_shapes(self):
        # every prime is (x1..xj) or (x2..xj, xt..xn), up to shifting
        for s in self.all_specs():
            for p in associated_primes_lexsegment(s):
                vars = p.vars
                lo, hi = vars[0], vars[-1]
                gaps = [
                    k
                    for k in range(lo, hi + 1)
                    if k not in vars
                ]
                # contiguous, or a single gap block ending at n
                assert not gaps or (
                    hi == s.n and gaps == list(range(gaps[0], gaps[-1] + 1))
                )
