"""Prime filtrations, verifiers, and Stanley decompositions."""

import hashlib
import itertools
import json
import operator
import random
import time
from functools import lru_cache
from math import comb

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lexseg.filtration as filtration_module
from conftest import (
    I,
    P,
    add_element,
    candidate_primes_reference,
    children_reference,
    degree_monomials,
    ideal_as_prime,
    ideal_sum,
    is_proper_subset,
    iter_box,
    k_polynomial_reference,
    oracle_random_ideals,
    prime_filtration_reference,
    spec,
    witness_box,
    zero_ideal,
)
from lexseg import kernels
from lexseg.decompose import (
    IrreducibleIdeal,
    _components,
    _irreducibles,
    _witness,
    associated_primes_oracle,
    witnesses,
)
from lexseg.depth import depth_exact
from lexseg.filtration import (
    SEARCH_NODE_LIMIT,
    FiltrationStep,
    PrimeFiltration,
    Report,
    StanleyDecomposition,
    _degree_then_lex,
    _k_polynomial,
    _maximal_primes,
    _pinned,
    sdepth_lower_bound,
    search_filtration,
    staged_filtration,
    stanley_certificate,
    stanley_decomposition,
    supp_equals_ass,
    verify_pretty_clean,
    verify_prime_filtration,
)
from lexseg.monomials import (
    DimensionError,
    DomainError,
    LexSpec,
    MonomialIdeal,
    PrimeIdeal,
    colon,
    degree,
    lexsegment_generators,
    reduce_fully,
    supp,
    unit,
    unit_ideal,
    variable,
)
from lexseg.sweep import iter_specs

# Fixed wall-time budget of TestExtendedRange: staged_filtration, the
# three verifiers and stanley_certificate on the 861 n=5, d=3 and n=6, d=2
# lexsegments.
EXTENDED_BUDGET_SECONDS = 20.0

# Fixed wall-time budget of TestFullSegment: staged_filtration of the full
# segment L(x1^20, x3^20), its three verifiers and stanley_certificate.
FULL_SEGMENT_BUDGET_SECONDS = 10.0

# Most monomials, C(n + D, n) for degree bound D, that
# bounded_cover_reference will enumerate.
COVER_CHECK_LIMIT = 1 << 16


def chain_digest(filtrations):
    """The first 16 hex digits of the sha256 of the JSON list, per
    filtration, of [witness, prime.vars] per step."""
    chains = [
        [[list(s.witness), list(s.prime.vars)] for s in f.steps] for f in filtrations
    ]
    return hashlib.sha256(json.dumps(chains).encode()).hexdigest()[:16]


def step_digest(specs):
    """chain_digest of staged_filtration over the specs: the recipe
    benchmarks/bench_kernels.py prints."""
    return chain_digest(map(staged_filtration, specs))


def pretty_clean_reference(filtration):
    """The pairwise verify_pretty_clean that the bitmask pass replaced."""
    violations = []
    steps = filtration.steps
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            if is_proper_subset(steps[i].prime, steps[j].prime):
                violations.append(
                    f"steps {i} < {j}: ({steps[i].prime.vars}) properly "
                    f"contained in ({steps[j].prime.vars})"
                )
    return Report(tuple(violations))


def assert_fully_verified(filtration):
    for verifier in (verify_prime_filtration, verify_pretty_clean, supp_equals_ass):
        report = verifier(filtration)
        assert report.ok, report.violations


def entered_nodes(monkeypatch, ideal):
    """search_filtration(ideal) and the number of nodes it entered, the
    _children generators it made, backtracked ones included."""
    made = []
    children = filtration_module._children

    def counting(n, comps):
        made.append(comps)
        return children(n, comps)

    monkeypatch.setattr(filtration_module, "_children", counting)
    try:
        return search_filtration(ideal), len(made)
    finally:
        monkeypatch.setattr(filtration_module, "_children", children)


def packed_k_polynomial(ideal):
    """_k_polynomial on I, packed as stanley_certificate packs it with no
    witness (sized from the largest generator exponent), unpacked."""
    top = max((e for g in ideal.gens for e in g), default=0)
    packing = kernels._Packing(ideal.n, top)
    poly = _k_polynomial(packing, tuple(map(packing.pack, ideal.gens)))
    return {packing.unpack(e): c for e, c in poly.items()}


def corrupted_chains(f, rng):
    """(kind, steps) pairs: the steps of f, then those steps with one
    seeded corruption of each kind that their length allows."""
    n, steps = f.base.n, list(f.steps)
    yield "valid", steps
    top = max(e for g in f.base.gens for e in g)
    k = rng.randrange(len(steps))
    if len(steps) > 1:
        i, j = sorted(rng.sample(range(len(steps)), 2))
        swapped = steps[:]
        swapped[i] = FiltrationStep(steps[j].witness, steps[i].prime)
        swapped[j] = FiltrationStep(steps[i].witness, steps[j].prime)
        yield "swapped witness", swapped
    chosen = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
    if chosen == steps[k].prime.vars:
        prime = PrimeIdeal(n + 1, (n + 1,))
    else:
        prime = P(n, *chosen)
    head, tail = steps[:k], steps[k + 1 :]
    yield "wrong prime", head + [FiltrationStep(steps[k].witness, prime)] + tail
    yield "truncated", steps[: rng.randrange(len(steps))]
    old = steps[rng.randrange(k)].witness if k else rng.choice(f.base.gens)
    yield "already in the chain", head + [FiltrationStep(old, steps[k].prime)] + steps[k:]
    j, w = rng.randrange(n), steps[k].witness
    high = w[:j] + (top + 1 + rng.randrange(2 * top),) + w[j + 1 :]
    yield "above every exponent", head + [FiltrationStep(high, steps[k].prime)] + tail


@st.composite
def small_ideals(draw):
    n = draw(st.integers(2, 6))
    emax = 3 if n <= 3 else 2
    exponents = st.tuples(*[st.integers(0, emax)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=5)))


def candidate_primes(ideal):
    """Every prime of Ass(S/J), maximal first (candidate_primes_reference),
    from a fresh decomposition of J."""
    return candidate_primes_reference(ideal.n, _components(ideal))


def greedy_reference(ideal):
    """Maximal-prime-first greedy pass: first candidate prime with a witness,
    its first witness, no backtracking. A reference for search_filtration."""
    steps = []
    current = ideal
    while not current.is_unit:
        as_prime = ideal_as_prime(current)
        if as_prime is not None:
            steps.append(FiltrationStep((0,) * ideal.n, as_prime))
            break
        prime, w = next(
            (p, w) for p in candidate_primes(current) for w in witnesses(current, p)
        )
        steps.append(FiltrationStep(w, prime))
        current = add_element(current, w)
    return PrimeFiltration(ideal, tuple(steps))


def random_ideal(rng):
    n = rng.randint(2, 5)
    gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))]
    gens = [g for g in gens if any(g)] or [(1,) * n]
    return MonomialIdeal.from_gens(n, gens)


def assert_witnesses_match_box_scan(ideal):
    # every in-box w, including those in the ideal, against every subset P
    # of the variables, associated or not, the empty one included
    colons = [
        (w, colon(ideal, w)) for w in iter_box(witness_box(ideal)) if w not in ideal
    ]
    for k in range(ideal.n + 1):
        for vars in itertools.combinations(range(1, ideal.n + 1), k):
            prime = PrimeIdeal.from_vars(ideal.n, vars)
            expected = [w for w, c in colons if c == prime.to_ideal()]
            assert list(witnesses(ideal, prime)) == expected


class TestSearchPrimitives:
    @seed(20261017)
    @settings(max_examples=60, deadline=None, database=None)
    @given(small_ideals())
    def test_direct_witness_test_matches_colon(self, ideal):
        assert_witnesses_match_box_scan(ideal)

    def test_witnesses_match_colon_on_oracle_random_ideals(self):
        for ideal in oracle_random_ideals(20261020, 20):
            assert_witnesses_match_box_scan(ideal)

    def test_search_primes_are_the_maximal_oracle_primes(self):
        # the search tries the inclusion-maximal primes of Ass(S/J), sorted
        # by their variables, each with the components that have it as
        # their radical
        rng = random.Random(20261017)
        for _ in range(150):
            ideal = random_ideal(rng)
            comps = _components(ideal)
            primes = associated_primes_oracle(ideal).primes
            maximal = [
                p for p in primes if not any(is_proper_subset(p, q) for q in primes)
            ]
            tried = _maximal_primes(ideal.n, comps)
            assert [p for p, _ in tried] == sorted(maximal, key=lambda p: p.vars)
            for prime, pins in tried:
                assert pins == [q for q in comps if supp(q) == prime.vars]


def unpruned_reference(start, steps=(), dead=None):
    """The search before the Ass prune, as a reference: a candidate prime
    that properly contains an earlier step's prime is skipped, the node's
    other primes are still tried, and failed states are memoized in dead
    by the reached ideal and the inclusion-minimal primes used so far.
    A state fixes what lies below it, so calls may share dead. Continues
    from start after the given steps; returns the completed step list or
    None."""
    n = start.n
    dead = set() if dead is None else dead

    def constraint_key(steps):
        primes = {s.prime for s in steps}
        return frozenset(
            p for p in primes if not any(is_proper_subset(q, p) for q in primes)
        )

    def dfs(current, steps):
        as_prime = ideal_as_prime(current)
        if as_prime is not None:
            if any(is_proper_subset(s.prime, as_prime) for s in steps):
                return None
            return steps + [FiltrationStep(unit(n), as_prime)]
        state = (current, constraint_key(steps))
        if state in dead:
            return None
        for prime in candidate_primes(current):
            if any(is_proper_subset(s.prime, prime) for s in steps):
                continue
            for w in sorted(witnesses(current, prime), key=_degree_then_lex):
                found = dfs(
                    add_element(current, w), steps + [FiltrationStep(w, prime)]
                )
                if found is not None:
                    return found
        dead.add(state)
        return None

    return dfs(start, list(steps))


class SearchRecorder:
    """Rebuilds the library search tree from the calls it makes:
    _components on the start (the root), and _children(n, comps) for
    every node entered, with each (step, components) child it yields. A
    node is known by its components list, the object these calls take
    or yield, and its ideal is rebuilt here as the parent's ideal + (w)."""

    def __init__(self, monkeypatch):
        self.nodes = []
        self.by_comps = {}  # id of a node's components -> the node
        components = filtration_module._components
        children = filtration_module._children

        def recorded_components(ideal):
            comps = components(ideal)
            self._add({"ideal": ideal, "steps": [], "parent": None}, comps)
            return comps

        def recorded_children(n, comps):
            node = self.by_comps[id(comps)]
            node["entered"] = True
            for step, carried in children(n, comps):
                node["taken"].append(step)
                child = {
                    "ideal": add_element(node["ideal"], step.witness),
                    "steps": node["steps"] + [step],
                    "parent": node,
                }
                self._add(child, carried)
                yield step, carried
            node["exhausted"] = True

        monkeypatch.setattr(filtration_module, "_components", recorded_components)
        monkeypatch.setattr(filtration_module, "_children", recorded_children)

    def _add(self, node, comps):
        # the node holds its components, so their id is not reused
        node.update(comps=comps, entered=False, exhausted=False, taken=[])
        self.nodes.append(node)
        self.by_comps[id(comps)] = node

    def cut_nodes(self, found):
        """The nodes the search gave up on, as dicts with the ideal and
        the steps that reach it: the entered nodes it backtracked from,
        and at each entered node every child it skipped, a witness of a
        prime of Ass(S/J) that _children did not yield (cut at its edge,
        or of a non-maximal prime), up to the child the chain took. When
        the search succeeds, the last node built is its terminal prime,
        and that node and its ancestors are its chain. Asserts that the
        children taken come in the order of every prime's sorted
        witnesses."""
        chain = set()
        if found is not None:
            node = self.nodes[-1]
            assert ideal_as_prime(node["ideal"]) is not None
            while node is not None:
                chain.add(id(node))
                node = node["parent"]
        cut = []
        for node in self.nodes:
            if not node["entered"]:
                assert id(node) in chain and ideal_as_prime(node["ideal"]) is not None
                continue
            assert node["exhausted"] != (id(node) in chain)
            if node["exhausted"]:
                cut.append(node)
            ideal, taken = node["ideal"], node["taken"]
            order = [
                FiltrationStep(w, prime)
                for prime in candidate_primes(ideal)
                for w in sorted(witnesses(ideal, prime), key=_degree_then_lex)
            ]
            if not node["exhausted"]:
                order = order[: order.index(taken[-1]) + 1]
            assert [s for s in order if s in taken] == taken
            cut.extend(
                {"ideal": add_element(ideal, s.witness), "steps": node["steps"] + [s]}
                for s in order
                if s not in taken
            )
        return cut


@st.composite
def prune_inputs(draw):
    """Lexsegment ideals with n <= 4 and d <= 3, or small monomial ideals."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        d = draw(st.integers(2, 3))
        mons = degree_monomials(n, d)
        i = draw(st.integers(0, len(mons) - 1))
        j = draw(st.integers(i, len(mons) - 1))
        return lexsegment_generators(LexSpec(n, d, mons[i], mons[j]))
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 2)] * n).filter(any)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=1, max_size=4)))


def assert_search_matches_reference(ideal):
    """Every node the search cut has no completion, and the search finds
    the reference's chain, or no chain when the reference finds none.
    Returns the recorder and the search's result."""
    # hypothesis' function-scoped fixture check forbids monkeypatch in
    # its tests, so the patch context is opened by hand
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = SearchRecorder(monkeypatch)
        found = search_filtration(ideal)
    assert recorder.nodes  # the search was seen
    dead = set()
    for node in recorder.cut_nodes(found):
        assert unpruned_reference(node["ideal"], node["steps"], dead) is None, (
            node["ideal"].gens,
            [(s.witness, s.prime.vars) for s in node["steps"]],
        )
    reference = unpruned_reference(ideal)
    if reference is None:
        assert found is None
    else:
        assert found is not None and list(found.steps) == reference
        assert_fully_verified(found)
    return recorder, found


def assert_children_match_reference(ideal):
    """search_filtration(ideal) where, at every node entered, the lazy
    children equal those of children_reference, as (step, components)
    pairs in order. Returns (n, components) of every node entered."""
    entered = []
    children = filtration_module._children

    def checked(n, comps):
        found = list(children(n, comps))
        assert found == list(children_reference(n, comps)), comps
        # each child carries the (i, e) pairs a node made afresh would read
        for _, carried in found:
            assert carried.powers == [[(i, e) for i, e in enumerate(q) if e] for q in carried]
        entered.append((n, comps))
        return iter(found)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(filtration_module, "_children", checked)
        search_filtration(ideal)
    return entered


# No acceptance lexsegment and none of the ideals prune_inputs draws
# leaves an entered node without a completion; these do, and the last
# one has no pretty clean filtration at all.
BACKTRACKING = [
    ((2, 0, 1, 0), (1, 1, 0, 0), (0, 1, 2, 1)),
    ((1, 2, 1, 0), (1, 1, 2, 0), (0, 0, 2, 1)),
    ((1, 2, 0, 0), (1, 0, 2, 0), (0, 0, 1, 1)),
    ((2, 1, 0, 0), (1, 0, 0, 1), (0, 2, 1, 0), (0, 0, 2, 1)),
]


class TestAssPrune:
    @seed(20261018)
    @settings(max_examples=300, deadline=None, database=None)
    @given(prune_inputs())
    def test_cut_nodes_have_no_completion(self, ideal):
        assert_search_matches_reference(ideal)

    @pytest.mark.parametrize("gens", BACKTRACKING)
    def test_backtracking_search_matches_the_reference(self, gens):
        recorder, found = assert_search_matches_reference(
            MonomialIdeal.from_gens(4, gens)
        )
        entered = sum(node["entered"] for node in recorder.nodes)
        assert entered > (1 if found is None else len(found.steps) - 1)

    @pytest.mark.parametrize("gens", BACKTRACKING)
    def test_lazy_children_match_the_reference_when_backtracking(self, gens):
        ideal = MonomialIdeal.from_gens(4, gens)
        assert len(assert_children_match_reference(ideal)) > 1

    def test_each_pin_walks_its_cap_sub_box_in_order(self):
        # every pin of a maximal prime yields its candidates in strictly
        # increasing _degree_then_lex order, and the witnesses among them
        # are the uncut children pinned there
        pairs = 0
        for ideal in oracle_random_ideals(20261110, 40):
            n, comps = ideal.n, _components(ideal)
            powers = [[(i, e) for i, e in enumerate(q) if e] for q in comps]
            uncut = [step.witness for step, _ in children_reference(n, comps)]
            for prime, pins in _maximal_primes(n, comps):
                for q0 in pins:
                    keyed = list(_pinned(n, comps, q0))
                    assert all(key == _degree_then_lex(w) for key, w in keyed)
                    assert all(a[0] < b[0] for a, b in zip(keyed, keyed[1:]))
                    pairs += sum(a[0][0] == b[0][0] for a, b in zip(keyed, keyed[1:]))
                    pin = [e - 1 for e in q0 if e]
                    assert [w for _, w in keyed if _witness(w, powers)] == [
                        w for w in uncut if [w[i - 1] for i in prime.vars] == pin
                    ]
        assert pairs  # some pin yields two candidates of one degree

    def test_lazy_children_match_the_reference_on_drawn_ideals(self):
        # the draws reach nodes with a non-maximal prime, whose children
        # are all cut, and maximal primes with two or more pins merged
        seen = {"non-maximal prime": 0, "merged pins": 0}

        @seed(20261109)
        @settings(max_examples=150, deadline=None, database=None)
        @given(st.one_of(small_ideals(), prune_inputs()))
        def run(ideal):
            for n, comps in assert_children_match_reference(ideal):
                tried = _maximal_primes(n, comps)
                seen["non-maximal prime"] += len(tried) < len({supp(q) for q in comps})
                seen["merged pins"] += any(
                    len(pins) > 1 and len(prime.vars) < n for prime, pins in tried
                )

        run()
        assert all(seen.values()), seen


class TestCarriedComponents:
    """At every edge J -> J + (w) of the search, the components the child
    is built with from its pin (_child) equal a fresh decomposition of
    J + (w)."""

    @staticmethod
    def edges_checked(monkeypatch, specs):
        recorder = SearchRecorder(monkeypatch)
        for s in specs:
            staged_filtration(s)
        checked = 0
        for node in recorder.nodes:
            if node["parent"] is None:
                continue
            n, carried = node["ideal"].n, node["comps"]
            assert len(set(carried)) == len(carried)
            assert {
                IrreducibleIdeal(n, tuple((i, e) for i, e in enumerate(q, 1) if e))
                for q in carried
            } == _irreducibles(n, _components(node["ideal"])), (
                node["parent"]["ideal"].gens,
                node["steps"][-1].witness,
            )
            checked += 1
        return checked

    def test_acceptance_specs(self, monkeypatch):
        # the search builds only uncut children, 1,732 on the 477
        # acceptance specs, so the 135 n=2..3, d=4 specs (839) join them
        specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
        assert len(specs) == 477
        specs += iter_specs((2, 3), (4, 4))
        assert self.edges_checked(monkeypatch, specs) > 2000

    def test_seeded_sample_of_n6_d3_specs(self, monkeypatch):
        specs = random.Random(20261108).sample(list(iter_specs((6, 6), (3, 3))), 150)
        assert self.edges_checked(monkeypatch, specs) > 1000


class TestExtendedRange:
    def test_extended_range_within_budget(self):
        specs = list(iter_specs((5, 5), (3, 3))) + list(iter_specs((6, 6), (2, 2)))
        assert len(specs) == 861
        verifiers = (verify_prime_filtration, verify_pretty_clean, supp_equals_ass)
        start = time.perf_counter()
        failures = []
        for s in specs:
            f = staged_filtration(s)
            reports = [verifier(f) for verifier in verifiers]
            reports.append(
                stanley_certificate(lexsegment_generators(s), stanley_decomposition(f))
            )
            failures.extend((s, r.violations) for r in reports if not r.ok)
        elapsed = time.perf_counter() - start
        assert not failures, failures[:3]
        assert elapsed <= EXTENDED_BUDGET_SECONDS, (
            f"{elapsed:.1f}s over the {EXTENDED_BUDGET_SECONDS:.0f}s budget"
        )


class TestFullSegment:
    @pytest.mark.parametrize(
        "d, digest",
        [(20, "08218e0623e85ddd"), (25, "321c29dd4da7c4e7")],
        ids=["20", "25"],
    )
    def test_full_segment_within_budget(self, d, digest):
        # L(x1^d, x3^d) = (x1, x2, x3)^d: a C(d + 2, 3)-step chain (1,540
        # steps at d = 20, 2,925 at d = 25) whose every node has a few
        # hundred components, all of one radical
        s = spec(3, d, f"x1^{d}", f"x3^{d}")
        start = time.perf_counter()
        f = staged_filtration(s)
        assert_fully_verified(f)
        report = stanley_certificate(lexsegment_generators(s), stanley_decomposition(f))
        elapsed = time.perf_counter() - start
        assert report.ok, report.violations
        assert len(f.steps) == comb(d + 2, 3)
        assert chain_digest([f]) == digest
        assert elapsed <= FULL_SEGMENT_BUDGET_SECONDS, (
            f"{elapsed:.1f}s over the {FULL_SEGMENT_BUDGET_SECONDS:.0f}s budget"
        )


class TestGreedy:
    def test_principal_pinned_steps(self):
        f = greedy_reference(I(2, "x1*x2"))
        assert [(s.witness, s.prime.vars) for s in f.steps] == [
            ((0, 1), (1,)),
            ((0, 0), (2,)),
        ]
        assert_fully_verified(f)


class TestSearch:
    def test_square_of_maximal(self):
        f = search_filtration(I(2, "x1^2", "x1*x2", "x2^2"))
        assert f is not None
        assert all(s.prime == P(2, 1, 2) for s in f.steps)
        assert len(f.steps) == 3  # three standard monomials: 1, x1, x2
        assert_fully_verified(f)

    def test_matches_greedy_on_principal(self):
        f = search_filtration(I(2, "x1*x2"))
        assert f == greedy_reference(I(2, "x1*x2"))
        assert_fully_verified(f)

    def test_maximal_ideal_single_terminal_step(self):
        f = search_filtration(I(2, "x1", "x2"))
        assert [(s.witness, s.prime.vars) for s in f.steps] == [((0, 0), (1, 2))]

    def test_step_digest_on_the_acceptance_specs(self):
        # output identity: the step digest of the 477 acceptance specs; the
        # oracle digest has the same gate in tests/test_decompose.py
        specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
        assert step_digest(specs) == "e6fb339584db5b98"

    def test_step_digest_on_the_high_degree_specs(self):
        # the 821 n=2..3, d=4..6 specs: 34 of them divide by two or more
        # variables, against 6 of the acceptance specs
        specs = list(iter_specs((2, 3), (4, 6)))
        assert len(specs) == 821
        assert step_digest(specs) == "65b0e695ee0fee2d"

    def test_n6_d3_step_digest_and_search_counts(self, monkeypatch):
        # a lexsegment never backtracks, and no child is built that the
        # pretty clean cut throws away: one child built per node entered
        specs = list(iter_specs((6, 6), (3, 3)))
        assert len(specs) == 1596
        counts = {"entered": 0, "built": 0}
        children, child = filtration_module._children, filtration_module._child

        def counting_children(n, comps):
            counts["entered"] += 1
            return children(n, comps)

        def counting_child(*args):
            counts["built"] += 1
            return child(*args)

        monkeypatch.setattr(filtration_module, "_children", counting_children)
        monkeypatch.setattr(filtration_module, "_child", counting_child)
        assert step_digest(specs) == "592d34e38c1106b8"
        assert counts == {"entered": 15678, "built": 15678}

    def test_no_node_has_a_larger_box_than_its_parent(self, monkeypatch):
        # so the start's box check, the only one the search makes, holds
        # for every node
        recorder = SearchRecorder(monkeypatch)
        for s in iter_specs((2, 4), (2, 3)):
            staged_filtration(s)
        for gens in BACKTRACKING:
            search_filtration(MonomialIdeal.from_gens(4, gens))
        edges = 0
        for node in recorder.nodes:
            if node["parent"] is not None:
                box, parent = witness_box(node["ideal"]), witness_box(node["parent"]["ideal"])
                assert all(map(operator.le, box, parent)), node["steps"]
                edges += 1
        assert edges > 1000

    def test_witness_box_over_limit_stops_the_search(self, monkeypatch):
        # the start's witness box bounds every node's, so the search reads
        # it once, though it tests only a few of its monomials; (x1^2,
        # x2^2) has a box of 9
        monkeypatch.setattr("lexseg.decompose.WITNESS_BOX_LIMIT", 8)
        with pytest.raises(DomainError, match="witness box"):
            search_filtration(I(2, "x1^2", "x2^2"))
        monkeypatch.setattr("lexseg.decompose.WITNESS_BOX_LIMIT", 9)
        assert search_filtration(I(2, "x1^2", "x2^2")) is not None

    def test_node_limit_stops_a_runaway_search(self, monkeypatch):
        # with no limit this ideal entered 12,649 nodes in 5 s unfinished
        ideal = MonomialIdeal.from_gens(
            4, ((3, 2, 0, 0), (3, 0, 1, 2), (2, 2, 3, 1), (1, 2, 3, 3), (0, 3, 3, 2))
        )
        monkeypatch.setattr("lexseg.filtration.SEARCH_NODE_LIMIT", 200)
        with pytest.raises(DomainError, match="SEARCH_NODE_LIMIT = 200"):
            search_filtration(ideal)

    @pytest.mark.parametrize(
        "gens",
        [
            ((1, 1),),  # a lexsegment: no backtracking
            ((2, 1, 0, 0), (1, 0, 0, 1), (0, 2, 1, 0), (0, 0, 2, 1)),  # no chain
        ],
    )
    def test_node_limit_counts_every_node_entered(self, monkeypatch, gens):
        ideal = MonomialIdeal.from_gens(len(gens[0]), gens)
        found, entered = entered_nodes(monkeypatch, ideal)
        monkeypatch.setattr("lexseg.filtration.SEARCH_NODE_LIMIT", entered)
        assert search_filtration(ideal) == found
        monkeypatch.setattr("lexseg.filtration.SEARCH_NODE_LIMIT", entered - 1)
        with pytest.raises(DomainError, match="SEARCH_NODE_LIMIT"):
            search_filtration(ideal)

    def test_lexsegments_enter_one_node_per_step(self, monkeypatch):
        # the search runs on the working spec; the longest acceptance chain
        # and the d = 50 chain stay far below the limit
        specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
        most = 0
        for s in specs:
            work = reduce_fully(s)[0]
            if work.u == work.v:
                continue  # a principal ideal, searched like any other
            found, entered = entered_nodes(monkeypatch, lexsegment_generators(work))
            assert entered == len(found.steps) - 1, s
            most = max(most, entered)
        assert 0 < most * 1000 < SEARCH_NODE_LIMIT
        work = reduce_fully(spec(2, 50, "x1^50", "x1*x2^49"))[0]
        found, entered = entered_nodes(monkeypatch, lexsegment_generators(work))
        assert entered == len(found.steps) - 1 == 1224
        assert entered * 50 < SEARCH_NODE_LIMIT

    def test_rejects_trivial(self):
        with pytest.raises(DomainError):
            search_filtration(zero_ideal(2))
        with pytest.raises(DomainError):
            search_filtration(unit_ideal(2))


class TestStaged:
    def test_splice_example(self):
        # reduction divides by x1; suffix is the chain down (x1)
        f = staged_filtration(spec(3, 2, "x1^2", "x1*x3"))
        assert f.steps[-1] == FiltrationStep((0, 0, 0), P(3, 1))
        assert all(s.witness[0] >= 1 for s in f.steps[:-1])
        assert_fully_verified(f)

    def test_drop_divide_drop_pinned_steps(self):
        # drop x1, divide by x2^2, drop x2: the search runs on L(x1, x2) in
        # two variables and every move is undone on its chain
        f = staged_filtration(spec(4, 3, "x2^2*x3", "x2^2*x4"))
        assert [(s.witness, s.prime.vars) for s in f.steps] == [
            ((0, 2, 0, 0), (3, 4)),
            ((0, 1, 0, 0), (2,)),
            ((0, 0, 0, 0), (2,)),
        ]
        assert_fully_verified(f)

    def test_divide_pinned_steps(self):
        f = staged_filtration(spec(3, 3, "x1^2*x2", "x1*x3^2"))
        assert [(s.witness, s.prime.vars) for s in f.steps] == [
            ((1, 1, 0), (1, 2, 3)),
            ((1, 0, 1), (1, 2, 3)),
            ((1, 0, 0), (2, 3)),
            ((0, 0, 0), (1,)),
        ]
        assert_fully_verified(f)

    def test_depth0_stage_boundary(self):
        s = spec(3, 2, "x1*x2", "x2*x3")
        ideal = lexsegment_generators(s)
        boundary = colon(ideal, (1, 0, 0))
        assert boundary == I(3, "x2", "x3")
        f = staged_filtration(s)
        # the chain passes through the boundary ideal
        current = ideal
        seen = {current}
        for step in f.steps:
            current = add_element(current, step.witness)
            seen.add(current)
        assert boundary in seen
        assert_fully_verified(f)

    def test_depth1_example(self):
        assert_fully_verified(staged_filtration(spec(4, 2, "x1*x2", "x2*x3")))

    def test_prescribed_stage_can_be_unrealizable(self):
        # for L(x1x2, x2^2) in 4 variables no pretty clean chain passes
        # through (I : x1); the search prescribes no intermediate ideal
        f = staged_filtration(spec(4, 2, "x1*x2", "x2^2"))
        assert_fully_verified(f)

    def test_principal(self):
        assert_fully_verified(staged_filtration(spec(3, 2, "x2^2", "x2^2")))

    def test_reindexed(self):
        assert_fully_verified(staged_filtration(spec(4, 2, "x2*x3", "x3^2")))

    def test_replay_reaches_unit(self):
        from lexseg.monomials import MonomialIdeal

        f = staged_filtration(spec(4, 3, "x1*x3*x4", "x2^2*x3"))
        current = f.base
        for step in f.steps:
            current = ideal_sum(
                current, MonomialIdeal.from_gens(4, [step.witness])
            )
        # replaying via ideal_sum lands exactly on the unit ideal
        assert current.is_unit

    def test_artinian_length_counts_standard_monomials(self):
        # m^2 in 2 vars: standard monomials 1, x1, x2
        f = staged_filtration(spec(2, 2, "x1^2", "x2^2"))
        assert len(f.steps) == 3
        assert_fully_verified(f)


class TestVerifiers:
    def test_negative_swapped_steps(self):
        good = search_filtration(I(2, "x1*x2"))
        swapped = PrimeFiltration(good.base, (good.steps[1], good.steps[0]))
        report = verify_prime_filtration(swapped)
        assert not report.ok
        assert report.violations

    def test_negative_pretty_clean_order(self):
        f = PrimeFiltration(
            I(2, "x1*x2"),
            (
                FiltrationStep((0, 1), P(2, 1)),
                FiltrationStep((0, 0), P(2, 1, 2)),
            ),
        )
        report = verify_pretty_clean(f)
        assert not report.ok
        assert "properly" in report.violations[0]

    def test_pretty_clean_matches_the_pairwise_reference(self):
        # the acceptance chains, each with its steps shuffled: equal
        # reports, violations in (i, j) order, on passing and failing chains
        rng = random.Random(20261019)
        specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
        failing = 0
        for s in specs:
            f = staged_filtration(s)
            steps = list(f.steps)
            rng.shuffle(steps)
            shuffled = PrimeFiltration(f.base, tuple(steps))
            report = verify_pretty_clean(shuffled)
            assert report == pretty_clean_reference(shuffled)
            failing += not report.ok
        assert 0 < failing < len(specs)

    def test_packed_chain_check_matches_the_tuple_reference(self):
        # every acceptance chain, valid and with each seeded corruption:
        # equal reports, word for word, from the packed and tuple checks
        rng = random.Random(20261021)
        specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
        failing = {}
        for s in specs:
            f = staged_filtration(s)
            for kind, steps in corrupted_chains(f, rng):
                chain = PrimeFiltration(f.base, tuple(steps))
                report = verify_prime_filtration(chain)
                assert report == prime_filtration_reference(chain), (s, kind)
                failing[kind] = failing.get(kind, 0) + (not report.ok)
        assert failing.pop("valid") == 0
        assert failing["wrong prime"] == failing["truncated"] == len(specs)
        assert all(failing.values()), failing

    def test_wrong_length_witness_raises(self):
        f = search_filtration(I(2, "x1*x2"))
        bad = PrimeFiltration(
            f.base, (f.steps[0], FiltrationStep((0, 0, 0), P(2, 1)))
        )
        for verify in (verify_prime_filtration, prime_filtration_reference):
            with pytest.raises(DimensionError, match=r"^monomial length 3 != 2$"):
                verify(bad)

    def test_negative_exponent_is_refused(self):
        # no packed field holds a negative exponent, so both packed checks
        # refuse one instead of borrowing from the next field
        f = search_filtration(I(2, "x1*x2"))
        bad = PrimeFiltration(f.base, (FiltrationStep((2, -1), P(2, 1)),) + f.steps)
        with pytest.raises(DomainError, match="negative exponent"):
            verify_prime_filtration(bad)
        with pytest.raises(DomainError, match="negative exponent"):
            stanley_certificate(f.base, stanley_decomposition(bad))

    def test_supp_equals_ass_takes_the_oracle_primes(self):
        # check_spec passes the oracle's primes: the same report as from
        # the radicals, on verified and tampered chains
        f = search_filtration(I(2, "x1*x2"))
        tampered = PrimeFiltration(
            f.base, (f.steps[0], FiltrationStep((0, 0), P(2, 1)))
        )
        specs = list(iter_specs((2, 4), (2, 3)))
        for chain in [tampered] + [staged_filtration(s) for s in specs]:
            ass = associated_primes_oracle(chain.base).primes
            assert supp_equals_ass(chain, ass) == supp_equals_ass(chain)
        assert not supp_equals_ass(tampered, ass).ok

    def test_supp_mismatch_detected(self):
        # a fake chain claiming only (x1): the missing prime is reported
        f = search_filtration(I(2, "x1*x2"))
        tampered = PrimeFiltration(
            f.base, (f.steps[0], FiltrationStep((0, 0), P(2, 1)))
        )
        report = supp_equals_ass(tampered)
        assert not report.ok

    def test_supp_equals_ass_on_verified_chain(self):
        ideal = I(2, "x1*x2", "x2^2")
        f = search_filtration(ideal)
        assert f.support == associated_primes_oracle(ideal).primes
        assert f.support == frozenset({P(2, 2), P(2, 1, 2)})


class TestStanley:
    def test_principal_spaces(self):
        f = search_filtration(I(2, "x1*x2"))
        d = stanley_decomposition(f)
        assert set(d.spaces) == {
            ((0, 1), frozenset({2})),
            ((0, 0), frozenset({1})),
        }
        assert sdepth_lower_bound(d) == 1

    def test_maximal_ideal_bound_zero(self):
        f = search_filtration(I(2, "x1", "x2"))
        d = stanley_decomposition(f)
        assert d.spaces == (((0, 0), frozenset()),)
        assert sdepth_lower_bound(d) == 0

    def test_depth0_lexsegment_bound_zero(self):
        f = staged_filtration(spec(3, 2, "x1*x2", "x2*x3"))
        assert sdepth_lower_bound(stanley_decomposition(f)) == 0

    def test_bound_at_least_depth(self):
        for s in (
            spec(4, 2, "x1*x2", "x2*x3"),
            spec(5, 2, "x1*x5", "x2*x3"),
        ):
            f = staged_filtration(s)
            bound = sdepth_lower_bound(stanley_decomposition(f))
            assert bound >= depth_exact(lexsegment_generators(s))


def bounded_cover_reference(
    ideal: MonomialIdeal, decomposition: StanleyDecomposition, degree_bound: int
) -> Report:
    """Finite certificate: up to degree_bound, the spaces partition the
    standard monomials of I and avoid I entirely. The reference for
    stanley_certificate.

    Raises DomainError, before enumerating, for a negative bound or for
    more than COVER_CHECK_LIMIT monomials of degree at most the bound.
    """
    n = ideal.n
    if degree_bound < 0:
        raise DomainError(f"degree bound {degree_bound} is negative")
    count = comb(n + degree_bound, n)
    if count > COVER_CHECK_LIMIT:
        raise DomainError(
            f"degree bound {degree_bound} gives {count} monomials in {n} "
            f"variables, over the limit COVER_CHECK_LIMIT = {COVER_CHECK_LIMIT}"
        )
    # w * K[Z] covers m iff m[i] == w[i] outside Z and w <= m
    spaces = [
        (k, w, [i for i in range(n) if i + 1 not in free])
        for k, (w, free) in enumerate(decomposition.spaces)
    ]
    violations = []
    for d in range(degree_bound + 1):
        for m in degree_monomials(n, d):
            covers = [
                k
                for k, w, fixed in spaces
                if all(m[i] == w[i] for i in fixed)
                and all(x <= y for x, y in zip(w, m))
            ]
            if m in ideal:
                if covers:
                    violations.append(f"{m} lies in I but is covered by {covers}")
            elif len(covers) == 0:
                violations.append(f"standard monomial {m} is not covered")
            elif len(covers) > 1:
                violations.append(f"standard monomial {m} covered twice: {covers}")
    return Report(tuple(violations))


def reference_bound(d, decomposition):
    """The degree bound the sweep used to give the enumeration:
    d + max witness degree + 2."""
    return d + max((degree(w) for w, _ in decomposition.spaces), default=0) + 2


@lru_cache(maxsize=None)
def sweep_decompositions():
    """(spec, ideal, decomposition) for the 357 n=2..4, d=2..3 specs."""
    return tuple(
        (s, lexsegment_generators(s), stanley_decomposition(staged_filtration(s)))
        for s in iter_specs((2, 4), (2, 3))
    )


def mutate(decomposition, kind, k, j):
    """A negative: space k dropped, duplicated, its witness times x_j, or
    x_j toggled in its Z."""
    spaces = list(decomposition.spaces)
    w, free = spaces[k]
    if kind == "drop":
        del spaces[k]
    elif kind == "duplicate":
        spaces.append(spaces[k])
    elif kind == "shift":
        spaces[k] = (w[: j - 1] + (w[j - 1] + 1,) + w[j:], free)
    else:
        spaces[k] = (w, free ^ {j})
    return StanleyDecomposition(decomposition.n, tuple(spaces))


@st.composite
def k_polynomial_inputs(draw):
    n = draw(st.integers(1, 4))
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    return MonomialIdeal.from_gens(n, draw(st.lists(exponents, min_size=0, max_size=5)))


class TestKPolynomial:
    def test_pinned(self):
        for k_polynomial in (packed_k_polynomial, k_polynomial_reference):
            assert k_polynomial(I(2, "x1*x2")) == {(0, 0): 1, (1, 1): -1}
            assert k_polynomial(I(2, "x1^2", "x1*x2", "x2^2")) == {
                (0, 0): 1,
                (2, 0): -1,
                (1, 1): -1,
                (0, 2): -1,
                (2, 1): 1,
                (1, 2): 1,
            }
            assert k_polynomial(zero_ideal(2)) == {(0, 0): 1}
            assert k_polynomial(unit_ideal(2)) == {}

    def test_packed_matches_the_tuple_reference(self):
        specs = list(iter_specs((2, 4), (2, 3))) + list(iter_specs((5, 5), (2, 2)))
        specs.append(spec(2, 50, "x1^50", "x1*x2^49"))
        for s in specs:
            ideal = lexsegment_generators(s)
            assert packed_k_polynomial(ideal) == k_polynomial_reference(ideal), s

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_packed_at_the_field_width_boundaries(self, k):
        # a largest exponent of 2^k - 1 fills the k bits below the guard
        # bit; 2^k takes a field one bit wider. x_i^top stays a generator:
        # the others have two or more variables.
        rng = random.Random(20261022 + k)
        for top in (2**k - 1, 2**k):
            for _ in range(15):
                n = rng.randint(2, 4)
                others = [
                    tuple(rng.choice((0, 1, top - 1, top)) for _ in range(n))
                    for _ in range(rng.randint(0, 4))
                ]
                gens = [variable(n, rng.randint(1, n), top)]
                gens += [g for g in others if sum(map(bool, g)) > 1]
                ideal = MonomialIdeal.from_gens(n, gens)
                assert max(e for g in ideal.gens for e in g) == top
                assert packed_k_polynomial(ideal) == k_polynomial_reference(ideal)

    @seed(20261019)
    @settings(max_examples=150, deadline=None, database=None)
    @given(k_polynomial_inputs())
    def test_numerator_of_the_standard_monomials(self, ideal):
        # K(S/I) = (sum of the standard monomials) * prod_j (1 - x_j); in
        # degrees <= D the product needs only the standard monomials of
        # degree <= D, and every term of K has degree <= deg lcm(gens)
        n = ideal.n
        bound = sum(max((g[i] for g in ideal.gens), default=0) for i in range(n))
        expected = {}
        for d in range(bound + 1):
            for m in degree_monomials(n, d):
                if m in ideal:
                    continue
                for t in itertools.product((0, 1), repeat=n):
                    if d + sum(t) <= bound:
                        e = tuple(x + y for x, y in zip(m, t))
                        expected[e] = expected.get(e, 0) + (-1) ** sum(t)
        expected = {e: c for e, c in expected.items() if c}
        assert packed_k_polynomial(ideal) == expected
        assert k_polynomial_reference(ideal) == expected


class TestDisjointCover:
    def test_principal_cover(self):
        ideal = I(2, "x1*x2")
        d = stanley_decomposition(search_filtration(ideal))
        assert stanley_certificate(ideal, d).ok

    def test_drop_space_reports_misses(self):
        ideal = I(2, "x1*x2")
        d = stanley_decomposition(search_filtration(ideal))
        dropped = type(d)(d.n, d.spaces[:1])
        report = stanley_certificate(ideal, dropped)
        assert not report.ok
        assert any("not covered" in v for v in report.violations)

    def test_duplicate_space_reports_double_cover(self):
        ideal = I(2, "x1*x2")
        d = stanley_decomposition(search_filtration(ideal))
        doubled = type(d)(d.n, d.spaces + d.spaces[:1])
        report = stanley_certificate(ideal, doubled)
        assert not report.ok
        assert any("twice" in v for v in report.violations)

    def test_space_meeting_the_ideal_is_named(self):
        # freeing x1 in the space x2 * K[x2] covers x1*x2, which lies in I
        ideal = I(2, "x1*x2")
        d = stanley_decomposition(search_filtration(ideal))
        k = d.spaces.index(((0, 1), frozenset({2})))
        widened = mutate(d, "toggle", k, 1)
        report = stanley_certificate(ideal, widened)
        assert report.violations == (f"(1, 1) lies in I but is covered by [{k}]",)

    def test_rejects_over_limit_k_polynomial(self, monkeypatch):
        # (x1^2, x1*x2, x2^2) takes 4 nodes: one per generator, and one
        # for (x1^2) : x1*x2 = (x1); (x1^2, x1*x2) : x2^2 = (x1) is memoized
        ideal = I(2, "x1^2", "x1*x2", "x2^2")
        d = stanley_decomposition(search_filtration(ideal))
        monkeypatch.setattr("lexseg.filtration.K_POLYNOMIAL_LIMIT", 4)
        assert stanley_certificate(ideal, d).ok
        monkeypatch.setattr("lexseg.filtration.K_POLYNOMIAL_LIMIT", 3)
        with pytest.raises(DomainError, match="K_POLYNOMIAL_LIMIT"):
            stanley_certificate(ideal, d)

    def test_rejects_decomposition_in_other_variable_count(self):
        d = stanley_decomposition(search_filtration(I(2, "x1*x2")))
        with pytest.raises(DimensionError):
            stanley_certificate(I(3, "x1*x2"), d)


class TestCertificateAgainstReference:
    def test_sweep_decompositions_certify(self):
        for s, ideal, d in sweep_decompositions():
            assert stanley_certificate(ideal, d).ok, s
            assert bounded_cover_reference(ideal, d, reference_bound(s.d, d)).ok, s

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_witness_outside_the_box_matches_reference(self, k):
        # a witness exponent 2^k - 1 or 2^k above the lcm box of I: the
        # packing is sized from the witnesses too, so no field overflows
        rng = random.Random(20261023 + k)
        cases = [c for c in sweep_decompositions() if c[0].n <= 3]
        for _ in range(8):
            s, ideal, d = rng.choice(cases)
            box = witness_box(ideal)
            i, j = rng.randrange(len(d.spaces)), rng.randrange(s.n)
            w, free = d.spaces[i]
            for e in (2**k - 1, 2**k):
                spaces = list(d.spaces)
                spaces[i] = (w[:j] + (box[j] + e,) + w[j + 1 :], free)
                negative = StanleyDecomposition(d.n, tuple(spaces))
                report = stanley_certificate(ideal, negative)
                reference = bounded_cover_reference(
                    ideal, negative, reference_bound(s.d, negative)
                )
                assert not report.ok
                assert report.violations == reference.violations[:1]

    def test_rejects_witness_in_other_variable_count(self):
        d = stanley_decomposition(search_filtration(I(2, "x1*x2")))
        bad = StanleyDecomposition(2, d.spaces + (((0, 0, 1), frozenset({1})),))
        with pytest.raises(DimensionError):
            stanley_certificate(I(2, "x1*x2"), bad)

    @seed(20261020)
    @settings(max_examples=400, deadline=None, database=None)
    @given(st.data())
    def test_negatives_match_reference(self, data):
        cases = sweep_decompositions()
        s, ideal, d = cases[data.draw(st.integers(0, len(cases) - 1))]
        kind = data.draw(st.sampled_from(["drop", "duplicate", "shift", "toggle"]))
        k = data.draw(st.integers(0, len(d.spaces) - 1))
        j = data.draw(st.integers(1, s.n))
        negative = mutate(d, kind, k, j)
        report = stanley_certificate(ideal, negative)
        reference = bounded_cover_reference(
            ideal, negative, reference_bound(s.d, negative)
        )
        assert report.ok == reference.ok
        if not report.ok:
            # the named monomial is the reference's first violation, in its
            # degree-then-lex order, and is reported in the same words
            assert report.violations[0] in reference.violations
            assert report.violations == reference.violations[:1]
