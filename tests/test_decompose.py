"""The decomposition/witness oracle for arbitrary monomial ideals."""

import hashlib
import heapq
import itertools
import json
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

import lexseg.decompose as decompose_module
from conftest import (
    I,
    P,
    add_element,
    add_generator_reference,
    caps_reference,
    components_reference,
    disjoint_edges,
    iter_box,
    oracle_pool,
    oracle_random_ideals,
    witness_box,
    zero_ideal,
)
from lexseg import kernels
from lexseg.decompose import (
    IrreducibleIdeal,
    _add_generator,
    _caps,
    _components,
    _corners,
    _intersection,
    _irreducibles,
    associated_primes_oracle,
    irreducible_decomposition,
    witnesses,
)
from lexseg.monomials import (
    DomainError,
    InternalConsistencyError,
    MonomialIdeal,
    PrimeIdeal,
    colon,
    degree,
    intersect,
    max_var,
    min_var,
    unit_ideal,
    variable,
)


def unchecked_components(ideal):
    """The fold of I (_components) as IrreducibleIdeals, unchecked: no
    intersect-back check, and the zero and unit ideals are taken too."""
    return _irreducibles(ideal.n, _components(ideal))


def components_as_ideals(ideal):
    return {c.to_ideal() for c in irreducible_decomposition(ideal)}


def intersection_of(comps, n):
    acc = unit_ideal(n)
    for c in comps:
        acc = intersect(acc, c.to_ideal())
    return acc


def dense(c):
    """The irreducible ideal c as a dense exponent tuple, 0 where x_i is
    absent: the form the intersect-back check reads."""
    powers = dict(c.powers)
    return tuple(powers.get(i, 0) for i in range(1, c.n + 1))


def tuple_intersection(n, comps):
    """Reference: the intersect-back fold on exponent tuples, each step
    minimalized whole by kernels.minimalize."""
    gens = ((0,) * n,)
    for c in comps:
        met = []
        for g in gens:
            if any(g[i - 1] >= e for i, e in c.powers):
                met.append(g)
            else:
                met.extend(g[: i - 1] + (e,) + g[i:] for i, e in c.powers)
        gens = kernels.minimalize(met)
    return MonomialIdeal(n, gens)


# Exponents on both sides of every field width of the packed fold: 1, 3,
# 7, 15 and 255 fill a field's value bits, 2, 4, 8, 16 and 256 need one
# bit more.
EDGE_EXPONENTS = (1, 2, 3, 4, 7, 8, 15, 16, 255, 256)


@st.composite
def irreducible_families(draw):
    """Families of 0..6 irreducible ideals in n = 1..8 variables, each on
    0..4 variables (0: the zero ideal), now and then with repeats."""
    n = draw(st.integers(1, 8))
    member = st.builds(
        lambda vars, exps: IrreducibleIdeal(n, tuple(zip(sorted(vars), exps))),
        st.sets(st.integers(1, n), max_size=min(n, 4)),
        st.lists(st.sampled_from(EDGE_EXPONENTS), min_size=4, max_size=4),
    )
    comps = draw(st.lists(member, max_size=6))
    if comps:
        comps += draw(st.lists(st.sampled_from(comps), max_size=2))
    return n, draw(st.permutations(comps))


def corrupted(comps, n, rng):
    """Every family made from comps by one corruption of one member: an
    exponent moved by +1 or -1 (not to 0), an exponent raised to 2^20
    (far above every generator exponent, so over the field width the
    other members give), or a power moved to a variable the member
    lacks."""
    for c in sorted(comps, key=lambda c: c.powers):
        rest = comps - {c}
        others = [j for j in range(1, n + 1) if j not in dict(c.powers)]
        for k, (i, e) in enumerate(c.powers):
            changes = [e + 1, 1 << 20] + ([e - 1] if e > 1 else [])
            moved = [
                IrreducibleIdeal(n, c.powers[:k] + ((i, f),) + c.powers[k + 1 :])
                for f in changes
            ]
            if others:
                j = rng.choice(others)
                powers = c.powers[:k] + ((j, e),) + c.powers[k + 1 :]
                moved.append(IrreducibleIdeal(n, tuple(sorted(powers))))
            for q in moved:
                yield rest | {q}


class TestIrreducibleDecomposition:
    def test_split_example(self):
        assert components_as_ideals(I(2, "x1*x2", "x2^2")) == {
            I(2, "x2"),
            I(2, "x1", "x2^2"),
        }

    def test_square_of_maximal(self):
        assert components_as_ideals(I(2, "x1^2", "x1*x2", "x2^2")) == {
            I(2, "x1", "x2^2"),
            I(2, "x1^2", "x2"),
        }

    def test_principal(self):
        assert components_as_ideals(I(2, "x1*x2")) == {I(2, "x1"), I(2, "x2")}

    def test_rejects_zero_and_unit(self):
        with pytest.raises(DomainError):
            irreducible_decomposition(zero_ideal(2))
        with pytest.raises(DomainError):
            irreducible_decomposition(unit_ideal(2))

    def test_intersection_and_irredundancy(self):
        ideal = I(3, "x1*x2", "x1*x3", "x2^2", "x2*x3")
        comps = irreducible_decomposition(ideal)
        assert intersection_of(comps, 3) == ideal
        for c in comps:
            rest = [k for k in comps if k != c]
            assert intersection_of(rest, 3) != ideal

    def test_folded_intersection_matches_pairwise_lcms(self):
        # families of 0..5 irreducible ideals in n = 1..5 variables, now
        # and then with the zero ideal (no powers) or a repeated member
        rng = random.Random(20261102)
        for _ in range(300):
            n = rng.randint(1, 5)
            comps = []
            for _ in range(rng.randint(0, 5)):
                support = [i for i in range(1, n + 1) if rng.random() < 0.5]
                powers = tuple((i, rng.randint(1, 3)) for i in support)
                comps.append(IrreducibleIdeal(n, powers))
            if comps and rng.random() < 0.2:
                comps.append(rng.choice(comps))
            assert _intersection(n, [*map(dense, comps)]) == intersection_of(comps, n)

    def test_dropped_component_fails_the_intersect_back_check(self, monkeypatch):
        # the broken families go in where the check reads them, the fold;
        # every full decomposition is read before the first patch
        ideals = [I(3, "x1*x2", "x1*x3", "x2^2", "x2*x3"), I(2, "x1*x2")]
        ideals += oracle_random_ideals(20261103, 10)
        checked = 0
        for ideal, full in [(i, unchecked_components(i)) for i in ideals]:
            if len(full) < 2:
                continue
            for dropped in full:
                rest = tuple(map(dense, full - {dropped}))
                monkeypatch.setattr(
                    decompose_module, "_components", lambda _ideal, rest=rest: rest
                )
                with pytest.raises(InternalConsistencyError):
                    irreducible_decomposition(ideal)
                checked += 1
        assert checked >= 10

    def test_corrupted_component_fails_the_intersect_back_check(self, monkeypatch):
        # a decomposition is unique, so any changed member breaks it; the
        # broken families go in as the fold, as in the test above
        ideals = [I(3, "x1*x2", "x1*x3", "x2^2", "x2*x3"), I(2, "x1*x2", "x2^3")]
        ideals += oracle_random_ideals(20261108, 12)
        rng = random.Random(20261109)
        kinds = set()
        for ideal, full in [(i, unchecked_components(i)) for i in ideals]:
            for family in corrupted(full, ideal.n, rng):
                folded = tuple(map(dense, family))
                monkeypatch.setattr(
                    decompose_module, "_components", lambda _ideal, folded=folded: folded
                )
                with pytest.raises(InternalConsistencyError):
                    irreducible_decomposition(ideal)
                kinds.update(max(e for _, e in q.powers) == 1 << 20 for q in family - full)
        assert kinds == {False, True}

    @seed(20261110)
    @settings(max_examples=400, deadline=None, database=None)
    @given(irreducible_families())
    @example((1, []))
    @example((8, [IrreducibleIdeal(8, ())]))
    @example((8, [IrreducibleIdeal(8, ((8, 256),))] * 2 + [IrreducibleIdeal(8, ())]))
    def test_packed_fold_matches_the_tuple_reference(self, family):
        n, comps = family
        assert _intersection(n, [*map(dense, comps)]) == tuple_intersection(n, comps)

    def test_oracle_digest_on_the_pool(self):
        # output identity: the oracle digest of the 804 oracle-random pool
        # ideals, the recipe benchmarks/bench_kernels.py prints
        rows = [
            [
                sorted(
                    [list(pe) for pe in c.powers]
                    for c in irreducible_decomposition(ideal)
                ),
                [
                    [list(p.vars), list(w)]
                    for p, w in associated_primes_oracle(ideal).witnesses
                ],
            ]
            for ideal in oracle_pool()
        ]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
        assert digest == "b18d906419383213"

    def test_determinism(self):
        a = irreducible_decomposition(I(3, "x1*x2", "x2*x3"))
        b = irreducible_decomposition(
            MonomialIdeal.from_gens(3, [(0, 1, 1), (1, 1, 0), (1, 2, 1)])
        )
        assert a == b


def _split(ideal):
    """Reference: every irreducible component reachable by recursive
    splitting, a possibly redundant family whose intersection is I.

    Pivot: the lex-greatest generator that is not a pure power, split off
    the full power of its lex-smallest (largest-index) variable:
    I = (I + (x_i^a)) ∩ (I + (g / x_i^a)). An ideal of pure powers is one
    component; the unit ideal is the intersection of none.
    """
    pivot = next(
        (g for g in ideal.gens if sum(1 for e in g if e > 0) > 1), None
    )
    if pivot is None:
        if ideal.is_unit:
            return frozenset()
        powers = tuple(sorted((min_var(g), degree(g)) for g in ideal.gens))
        return frozenset({IrreducibleIdeal(ideal.n, powers)})
    i = max_var(pivot)
    power = variable(ideal.n, i, pivot[i - 1])
    rest = tuple(e if j != i - 1 else 0 for j, e in enumerate(pivot))
    return _split(add_element(ideal, power)) | _split(add_element(ideal, rest))


def contains(c, other):
    """c >= other: each x_i^e of other is divisible by some x_i^f of c."""
    mine = dict(c.powers)
    return all(i in mine and mine[i] <= e for i, e in other.powers)


def pairwise_irredundant(ideal):
    """Reference: the split components that contain no other one, by
    comparing every pair."""
    comps = _split(ideal)
    return frozenset(
        c for c in comps if not any(c != o and contains(c, o) for o in comps)
    )


WITNESS_IDEAL = ("x1*x2", "x1*x3", "x1*x4", "x2^2", "x2*x3")


class TestWitnessSearch:
    def test_embedded_prime_witness(self):
        ideal = I(4, *WITNESS_IDEAL)
        w = next(witnesses(ideal, P(4, 1, 2, 3)), None)
        assert w is not None
        assert w not in ideal
        assert colon(ideal, w) == P(4, 1, 2, 3).to_ideal()

    def test_witness_is_x1(self):
        ideal = I(4, *WITNESS_IDEAL)
        assert next(witnesses(ideal, P(4, 2, 3, 4))) == (1, 0, 0, 0)

    def test_non_associated_prime_has_no_witness(self):
        ideal = I(4, *WITNESS_IDEAL)
        assert list(witnesses(ideal, P(4, 4))) == []

    def test_prime_in_another_ring_refused(self):
        with pytest.raises(DomainError, match="variable counts"):
            next(witnesses(I(4, *WITNESS_IDEAL), P(3, 1)))

    def test_zero_and_unit_ideals(self):
        # (0 : 1) = 0 is the prime with no variables; (1 : w) is never prime
        for prime in (P(2), P(2, 1), P(2, 1, 2)):
            expected = [(0, 0)] if prime == P(2) else []
            assert list(witnesses(zero_ideal(2), prime)) == expected
            assert list(witnesses(unit_ideal(2), prime)) == []

    def test_box_encloses_component_exponents(self):
        ideal = I(2, "x1^2", "x1*x2", "x2^3")
        box = witness_box(ideal)
        assert box[0] >= 2 and box[1] >= 3
        for c in unchecked_components(ideal):
            assert all(e <= box[i - 1] for i, e in c.powers)

    def test_box_from_components_is_the_lcm_of_the_generators(self):
        # the box _witness_scanner reads off the irredundant components
        rng = random.Random(20261106)
        for _ in range(400):
            n = rng.randint(1, 6)
            gens = [
                tuple(rng.randint(0, 4) for _ in range(n))
                for _ in range(rng.randint(1, 8))
            ]
            ideal = MonomialIdeal.from_gens(n, [g for g in gens if any(g)] or [gens[0]])
            if ideal.is_unit:
                continue
            comps = _components(ideal)
            assert tuple(map(max, zip(*comps))) == witness_box(ideal)


def witnesses_reference(ideal, prime):
    """The per-prime scan that witnesses() ran before the shared
    _witness_scanner: the box and the pins rebuilt for each prime, the
    pins from the possibly redundant _split components."""
    box = witness_box(ideal)
    if ideal.is_unit:
        return
    idx = [i - 1 for i in prime.vars]
    scans = []
    for c in _split(ideal):
        if tuple(i for i, _ in c.powers) == prime.vars:
            ranges = [range(e, -1, -1) for e in box]
            for i, e in c.powers:
                ranges[i - 1] = (e - 1,)
            scans.append(itertools.product(*ranges))
    for w in heapq.merge(*scans, reverse=True):
        if all(
            kernels.member(w[:i] + (w[i] + 1,) + w[i + 1 :], ideal.gens) for i in idx
        ):
            yield w


@st.composite
def witness_ideals(draw):
    """Ideals in n = 1..6 variables with exponents <= 3."""
    n = draw(st.integers(1, 6))
    exponents = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=8)))


class TestSharedWitnessScan:
    @seed(20261104)
    @settings(max_examples=120, deadline=None, database=None)
    @given(witness_ideals())
    def test_oracle_witness_is_the_first_public_witness(self, ideal):
        for p, w in associated_primes_oracle(ideal).witnesses:
            assert w == next(witnesses(ideal, p))

    @seed(20261105)
    @settings(max_examples=60, deadline=None, database=None)
    @given(witness_ideals())
    def test_witnesses_match_the_per_prime_scan(self, ideal):
        # every subset of the variables, associated or not
        for k in range(ideal.n + 1):
            for vars in itertools.combinations(range(1, ideal.n + 1), k):
                prime = PrimeIdeal.from_vars(ideal.n, vars)
                assert list(witnesses(ideal, prime)) == list(
                    witnesses_reference(ideal, prime)
                )

    def test_over_limit_box_raises_on_first_next(self):
        # box 1025 x 1025 = 1,050,625 monomials, just over 2^20
        ideal = I(2, "x1^1024", "x2^1024")
        scan = witnesses(ideal, P(2, 1, 2))  # lazy: nothing raised yet
        with pytest.raises(DomainError, match="witness box"):
            next(scan)
        with pytest.raises(DomainError, match="witness box"):
            associated_primes_oracle(ideal)


class TestAssociatedPrimesOracle:
    def test_three_prime_example(self):
        result = associated_primes_oracle(I(3, "x1*x2", "x1*x3", "x2^2", "x2*x3"))
        assert result.primes == frozenset(
            {P(3, 1, 2), P(3, 2, 3), P(3, 1, 2, 3)}
        )

    def test_principal(self):
        result = associated_primes_oracle(I(2, "x1*x2"))
        assert result.primes == frozenset({P(2, 1), P(2, 2)})

    def test_power_of_maximal(self):
        result = associated_primes_oracle(I(3, "x1", "x2", "x3^2"))
        assert result.primes == frozenset({P(3, 1, 2, 3)})

    def test_all_witnesses_sound(self):
        ideal = I(4, *WITNESS_IDEAL)
        result = associated_primes_oracle(ideal)
        assert {p for p, _ in result.witnesses} == set(result.primes)
        for p, w in result.witnesses:
            assert w not in ideal
            assert colon(ideal, w) == p.to_ideal()

    def test_agrees_with_decomposition_radicals(self):
        for gens in (
            WITNESS_IDEAL,
            ("x1*x2", "x2^2"),
            ("x1^2*x2", "x2^3*x3", "x1*x3^2"),
        ):
            ideal = I(4, *gens)
            radicals = {c.radical() for c in irreducible_decomposition(ideal)}
            assert associated_primes_oracle(ideal).primes == radicals

    def test_rejects_zero_and_unit(self):
        with pytest.raises(DomainError):
            associated_primes_oracle(zero_ideal(2))
        with pytest.raises(DomainError):
            associated_primes_oracle(unit_ideal(2))

    def test_never_scans_for_a_witness(self, monkeypatch):
        def no_scan(n, comps):
            raise AssertionError("the oracle built a witness scanner")

        monkeypatch.setattr(decompose_module, "_witness_scanner", no_scan)
        for ideal in [I(4, *WITNESS_IDEAL)] + oracle_random_ideals(20261111, 40):
            assert associated_primes_oracle(ideal).primes


def redundant_families(comps, n, rng):
    """comps, each time with one more member that contains a member of
    comps: a power of it lowered (not to 0), or a power added at a
    variable it lacks."""
    for q in comps:
        for i in range(n):
            if q[i] > 1:
                yield comps + [q[:i] + (rng.randint(1, q[i] - 1),) + q[i + 1 :]]
            elif not q[i]:
                yield comps + [q[:i] + (rng.randint(1, 4),) + q[i + 1 :]]


class TestCorners:
    def test_redundant_member_raises(self):
        # (x1) lies in (x1^2): the corner x1^0 of (x1) is missed by
        # (x1^2), whose x1-exponent is not 0 + 1
        with pytest.raises(InternalConsistencyError, match="redundant"):
            _corners(2, [(2, 0), (1, 0)])

    def test_every_redundant_member_raises(self):
        rng = random.Random(20261112)
        checked = 0
        for ideal in [I(3, "x1*x2", "x1*x3", "x2^2", "x2*x3")] + oracle_random_ideals(
            20261113, 30
        ):
            comps = list(_components(ideal))
            assert _corners(ideal.n, comps)  # irredundant: no error
            for family in redundant_families(comps, ideal.n, rng):
                with pytest.raises(InternalConsistencyError):
                    _corners(ideal.n, family)
                checked += 1
        assert checked >= 100

    def test_box_limit_is_kept(self):
        # the oracle scans no box, but refuses the boxes witnesses() does:
        # 33^4 monomials are over 2^20, 32^4 are not
        with pytest.raises(DomainError, match="witness box"):
            _corners(4, [(32, 32, 32, 32)])
        assert _corners(4, [(31, 31, 31, 31)]) == {(1, 2, 3, 4): (30, 30, 30, 30)}


class TestComponentsMemo:
    def test_decomposition_then_oracle_fold_once(self):
        ideal = I(4, *WITNESS_IDEAL)
        _components.cache_clear()
        irreducible_decomposition(ideal)
        associated_primes_oracle(ideal)
        info = _components.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert isinstance(_components(ideal), tuple)

    def test_pool_folds_once_per_ideal(self):
        pool = oracle_pool()
        _components.cache_clear()
        for ideal in pool:
            irreducible_decomposition(ideal)
            associated_primes_oracle(ideal)
        assert _components.cache_info().misses == len(pool) == 804

    def test_a_new_ideal_refolds(self):
        a, b = I(2, "x1*x2"), I(2, "x1^2", "x2")
        _components.cache_clear()
        for ideal in (a, b, a):
            assert set(_components(ideal)) == components_reference(ideal)
        assert _components.cache_info().misses == 3


class TestComponentLimit:
    # 4 disjoint edges fold to 2, 4, 8 and then 16 components
    @pytest.mark.parametrize(
        "entry", [irreducible_decomposition, associated_primes_oracle]
    )
    def test_a_fold_past_the_limit_is_refused(self, entry, monkeypatch):
        ideal = disjoint_edges(4)
        monkeypatch.setattr(decompose_module, "COMPONENT_LIMIT", 16)
        _components.cache_clear()
        assert len(_components(ideal)) == 16
        monkeypatch.setattr(decompose_module, "COMPONENT_LIMIT", 15)
        _components.cache_clear()
        refusal = "holds 16 components, over COMPONENT_LIMIT = 15"
        with pytest.raises(DomainError, match=refusal):
            entry(ideal)
        # the refused fold is not kept
        assert _components.cache_info().currsize == 0

    def test_the_limit_is_checked_after_every_step(self, monkeypatch):
        # at a limit of 3 the second step, to 4 components, is refused
        # before the last two edges are folded
        monkeypatch.setattr(decompose_module, "COMPONENT_LIMIT", 3)
        _components.cache_clear()
        with pytest.raises(DomainError, match="holds 4 components"):
            _components(disjoint_edges(4))


class TestIntersectBackOrder:
    def test_the_check_reads_the_fold_as_it_is(self, monkeypatch):
        # the very tuple _components returns, in fold order, unsorted
        ideal = I(3, "x1*x2", "x1*x3", "x2^2", "x2*x3")
        read, check = [], decompose_module._intersection
        monkeypatch.setattr(
            decompose_module,
            "_intersection",
            lambda n, comps: read.append(comps) or check(n, comps),
        )
        _components.cache_clear()
        result = irreducible_decomposition(ideal)
        assert len(read) == 1 and read[0] is _components(ideal)
        assert result == unchecked_components(ideal)

    def test_what_is_returned_is_what_was_checked(self, monkeypatch):
        # the fold is read once: the first read, here in reverse order,
        # passes the check and comes back; a second read would get a
        # family short of one component
        ideal = I(3, "x1^2*x2", "x1*x3^2", "x2^3", "x2*x3")
        expected, full = unchecked_components(ideal), _components(ideal)
        assert len(full) > 1
        reads = iter([tuple(reversed(full)), full[1:]])
        monkeypatch.setattr(decompose_module, "_components", lambda _ideal: next(reads))
        assert irreducible_decomposition(ideal) == expected

    def test_ten_disjoint_edges_form_few_lcms(self, monkeypatch):
        # the 1,024 components of 10 disjoint edges, checked in fold order,
        # form 10,240 candidate lcms; by ascending power sum, ties in hash
        # order, they formed 81,570
        ideal = disjoint_edges(10)
        _components.cache_clear()
        assert len(_components(ideal)) == 1024  # the fold, outside the count
        formed, extend = [], kernels._Packing.extend_minimal

        def counting(packing, kept, candidates):
            formed.append(len(candidates))
            return extend(packing, kept, candidates)

        monkeypatch.setattr(kernels._Packing, "extend_minimal", counting)
        assert len(irreducible_decomposition(ideal)) == 1024
        assert len(formed) == 1024 and sum(formed) <= 1 << 14


@st.composite
def random_ideals(draw):
    n = draw(st.integers(2, 5))
    emax = 3 if n <= 3 else 2
    exponents = st.tuples(*[st.integers(0, emax)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=6)))


class TestOracleAgainstColonScan:
    @seed(20261018)
    @settings(max_examples=80, deadline=None, database=None)
    @given(random_ideals())
    def test_primes_and_lex_first_witnesses(self, ideal):
        # reference: scan the whole box with colon ideals, for every
        # subset P of the variables
        result = associated_primes_oracle(ideal)
        reported = dict(result.witnesses)
        box = list(iter_box(witness_box(ideal)))
        for k in range(ideal.n + 1):
            for vars in itertools.combinations(range(1, ideal.n + 1), k):
                prime = PrimeIdeal.from_vars(ideal.n, vars)
                first = next(
                    (
                        w for w in box
                        if w not in ideal and colon(ideal, w) == prime.to_ideal()
                    ),
                    None,
                )
                assert (prime in result.primes) == (first is not None)
                assert reported.get(prime) == first


@st.composite
def fold_ideals(draw):
    """Ideals in n = 1..6 variables with exponents <= 4 from 1..10
    generators, pure powers and repeats among them; now and then the zero
    ideal (no generators) or the unit ideal (the generator 1)."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["zero", "unit", "gens", "gens", "gens", "gens"]))
    if kind == "zero":
        return zero_ideal(n)
    if kind == "unit":
        return unit_ideal(n)
    monomial = st.tuples(*[st.integers(0, 4)] * n)
    pure = st.builds(
        lambda i, e: variable(n, i, e), st.integers(1, n), st.integers(1, 4)
    )
    gens = draw(st.lists(st.one_of(monomial, pure), min_size=1, max_size=10))
    gens += gens[: draw(st.integers(0, 2))]
    return MonomialIdeal.from_gens(n, gens)


@st.composite
def step_ideals(draw):
    """Ideals in n = 1..7 variables with exponents <= 5 from 1..14
    generators."""
    n = draw(st.integers(1, 7))
    exponents = st.tuples(*[st.integers(0, 5)] * n)
    gens = draw(st.lists(exponents, min_size=1, max_size=14))
    return MonomialIdeal.from_gens(n, gens)


def differ_in_two(comps):
    """Any two of comps differ in at least two coordinates: the premise
    of the one-pass redundancy rule."""
    return all(
        sum(a != b for a, b in zip(q, c)) >= 2
        for q, c in itertools.combinations(comps, 2)
    )


class TestOnePassFilter:
    @seed(20261114)
    @settings(max_examples=300, deadline=None, database=None)
    @given(step_ideals())
    def test_matches_the_all_pairs_step(self, ideal):
        # each step from the same components, then the whole fold
        n, comps = ideal.n, [(0,) * ideal.n]
        for g in sorted(reversed(ideal.gens), key=sum):
            step = _add_generator(n, comps, g)
            assert len(set(step)) == len(step)
            assert differ_in_two(step)
            assert set(step) == set(add_generator_reference(n, comps, g))
            comps = step
        assert set(_components(ideal)) == set(comps) == components_reference(ideal)

    def test_steps_differ_in_two_coordinates_on_the_pool(self):
        for ideal in oracle_pool():
            n, comps = ideal.n, [(0,) * ideal.n]
            for g in sorted(reversed(ideal.gens), key=sum):
                comps = _add_generator(n, comps, g)
                assert differ_in_two(comps)


class TestCaps:
    @staticmethod
    def assert_caps_match_the_definition(ideals):
        """_caps equals caps_reference at every component of every ideal.
        Returns the numbers of components with every cap 0 and with a
        nonzero cap."""
        zero = nonzero = 0
        for ideal in ideals:
            n, comps = ideal.n, _components(ideal)
            for q in comps:
                caps = _caps(n, comps, q)
                assert caps == caps_reference(n, comps, q), (comps, q)
                zero += not any(caps)
                nonzero += any(caps)
        return zero, nonzero

    def test_pool(self):
        zero, nonzero = self.assert_caps_match_the_definition(oracle_pool())
        assert zero and nonzero

    def test_seeded_draws(self):
        # the draws, and two ideals whose every cap is 0: (x1^2, x2^2)
        # has one component, and (x1, x2) ∩ (x3, x4) has two that fail
        # each other in two coordinates
        ideals = oracle_random_ideals(20261112, 200)
        assert self.assert_caps_match_the_definition(ideals)[1]
        for ideal in I(2, "x1^2", "x2^2"), I(4, "x1*x3", "x1*x4", "x2*x3", "x2*x4"):
            zero, nonzero = self.assert_caps_match_the_definition([ideal])
            assert zero == len(_components(ideal)) and not nonzero

    def test_a_hand_worked_cap(self):
        # (x1^2, x1*x2, x2^3) = (x1, x2^3) ∩ (x1^2, x2): (x1, x2^3) fails
        # (x1^2, x2) at x2 alone, and (x1^2, x2) fails (x1, x2^3) at x1
        # alone, so each one's cap at that coordinate is the other's power
        comps = _components(I(2, "x1^2", "x1*x2", "x2^3"))
        assert sorted(comps) == [(1, 3), (2, 1)]
        caps = {q: _caps(2, comps, q) for q in comps}  # q is a component
        assert caps == {(1, 3): [0, 1], (2, 1): [1, 0]}


class TestIrredundantComponents:
    @seed(20261107)
    @settings(max_examples=400, deadline=None, database=None)
    @given(fold_ideals())
    def test_fold_matches_the_split_reference(self, ideal):
        assert unchecked_components(ideal) == pairwise_irredundant(ideal)

    @seed(20261020)
    @settings(max_examples=120, deadline=None, database=None)
    @given(random_ideals())
    def test_matches_pairwise_contains(self, ideal):
        assert unchecked_components(ideal) == pairwise_irredundant(ideal)

    def test_matches_pairwise_contains_on_oracle_random_ideals(self):
        for ideal in oracle_random_ideals(20261021, 60):
            assert unchecked_components(ideal) == pairwise_irredundant(ideal)

    def test_exponent_at_the_top_of_the_encoding(self):
        # (x1^2*x2, x1^2*x3) splits into (x1^2) and (x2, x3); the largest
        # exponent sits alone on a support, so it must not encode as 0
        ideal = I(3, "x1^2*x2", "x1^2*x3")
        assert unchecked_components(ideal) == pairwise_irredundant(ideal) == {
            IrreducibleIdeal(3, ((1, 2),)),
            IrreducibleIdeal(3, ((2, 1), (3, 1))),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_unit_ideal_is_the_empty_intersection(self, n):
        # the unit ideal is the intersection of no components; the one
        # component with no powers would be the zero ideal
        assert unchecked_components(unit_ideal(n)) == frozenset()
        assert _components(unit_ideal(n)) == ()
        assert _intersection(n, _components(unit_ideal(n))) == unit_ideal(n)
        assert unchecked_components(zero_ideal(n)) == {IrreducibleIdeal(n, ())}
