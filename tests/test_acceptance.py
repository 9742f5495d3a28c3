"""Acceptance gate: the seven top-level criteria, one pass/fail line each.

Criteria 1 and 3-5 share three exhaustive sweeps (n=2..4, d=2..3;
n=5, d=2; and the wide sweep of n=5, d=3, n=6, d=2 and n=7, d=2) run
once per session; the remaining criteria use frozen fixtures, a seeded
random-ideal battery, and constructed negatives. Two gates past those
ranges follow: the whole n=6, d=3 sweep, and seeded draws of lexsegments
at n=7..9, d=3 and n=7, d=4 through check_spec. Last, the decomposition
and the oracle answer the full segment L(x1^40, x3^40) within a budget.
"""

import random
import time

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import FIXTURES, P, spec
from lexseg.closed_form import associated_primes_lexsegment
from lexseg.decompose import (
    _components,
    associated_primes_oracle,
    irreducible_decomposition,
)
from lexseg.depth import DepthClass, depth_class, depth_exact
from lexseg.filtration import (
    FiltrationStep,
    PrimeFiltration,
    search_filtration,
    stanley_certificate,
    stanley_decomposition,
    verify_prime_filtration,
)
from lexseg.monomials import (
    LexSpec,
    MonomialIdeal,
    SpecKind,
    classify,
    colon,
    intersect,
    lexsegment_generators,
    reduce_fully,
    unit_ideal,
)
from lexseg.sweep import check_spec, iter_specs, sweep

MAIN_BUDGET_SECONDS = 60.0
EXT_BUDGET_SECONDS = 120.0
# The wide sweep's 1,267 specs took 6.5 s on a 2-vCPU VM; 20 s leaves 3x.
WIDE_BUDGET_SECONDS = 20.0
# The 1,596 n=6, d=3 specs took 4.3-5.0 s in one process on a 2-vCPU VM.
N6_D3_BUDGET_SECONDS = 30.0
# 60 drawn specs past the exhaustive ranges took 1.1 s on a 2-vCPU VM.
DRAWN_SPECS = 60
DRAWN_BUDGET_SECONDS = 20.0
# The decomposition and the oracle of L(x1^40, x3^40) took 0.44-0.45 s on a
# 2-vCPU VM.
FULL_SEGMENT_BUDGET_SECONDS = 5.0


@pytest.fixture(scope="session")
def sweep_main():
    return sweep((2, 4), (2, 3))


@pytest.fixture(scope="session")
def sweep_ext():
    return sweep((5, 5), (2, 2))


@pytest.fixture(scope="session")
def sweep_wide():
    # one sweep per range, since sweep((5, 7), (2, 3)) would also take
    # n=5, d=2 and the 1,596 specs of n=6, d=3
    return sweep((5, 5), (3, 3)), sweep((6, 6), (2, 2)), sweep((7, 7), (2, 2))


def report_line(k, ok, detail):
    print(f"[criterion {k}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def family_mismatches(family, *reports):
    return [m for r in reports for m in r.mismatches if m.family == family]


def test_criterion_1_closed_form_vs_oracle(sweep_main, sweep_ext, sweep_wide):
    """Closed form agrees with the oracle over the three exhaustive sweeps,
    within the runtime budgets."""
    bad = family_mismatches("ass", sweep_main, sweep_ext, *sweep_wide)
    wide_specs = sum(r.specs_tested for r in sweep_wide)
    wide_seconds = sum(r.seconds for r in sweep_wide)
    ok = (
        not bad
        and sweep_main.specs_tested == 357
        and sweep_ext.specs_tested == 120
        and wide_specs == 1267
        and sweep_main.seconds <= MAIN_BUDGET_SECONDS
        and sweep_ext.seconds <= EXT_BUDGET_SECONDS
        and wide_seconds <= WIDE_BUDGET_SECONDS
    )
    report_line(
        1,
        ok,
        f"{sweep_main.specs_tested}+{sweep_ext.specs_tested}+{wide_specs} specs, "
        f"{len(bad)} prime-set mismatches, "
        f"{sweep_main.seconds:.1f}s/{MAIN_BUDGET_SECONDS:.0f}s, "
        f"{sweep_ext.seconds:.1f}s/{EXT_BUDGET_SECONDS:.0f}s and "
        f"wide sweep (n=5 d=3, n=6 d=2, n=7 d=2) "
        f"{wide_seconds:.1f}s/{WIDE_BUDGET_SECONDS:.0f}s",
    )


def test_criterion_2_fixture_exactness():
    """The five hand-derived instances produce exactly the frozen prime
    sets, and the oracle independently confirms each."""
    failures = []
    for name, n, d, u, v, primes in FIXTURES:
        s = spec(n, d, u, v)
        expected = frozenset(P(n, *vars) for vars in primes)
        closed = associated_primes_lexsegment(s)
        oracle = associated_primes_oracle(lexsegment_generators(s)).primes
        if closed != expected or oracle != expected:
            failures.append(name)
    report_line(
        2,
        not failures,
        f"{len(FIXTURES)} fixtures exact and oracle-confirmed"
        + (f"; failed: {failures}" if failures else ""),
    )


def test_criterion_3_filtration_realization(sweep_main, sweep_ext, sweep_wide):
    """staged_filtration passes all three verifiers on every swept ideal,
    and search_filtration never comes back empty."""
    bad = family_mismatches("filtration", sweep_main, sweep_ext, *sweep_wide)
    searched = 0
    missing = 0
    for s in iter_specs((2, 4), (2, 3)):
        searched += 1
        if search_filtration(lexsegment_generators(s)) is None:
            missing += 1
    ok = not bad and missing == 0
    report_line(
        3,
        ok,
        f"{len(bad)} verifier failures across the three sweeps; "
        f"search found a filtration for {searched - missing}/{searched} ideals",
    )


def test_criterion_4_depth_coherence(sweep_main, sweep_ext, sweep_wide):
    """depth_class matches the Betti-number depth on every arbitrary-class
    spec, and GF(2)/GF(32003) depths agree throughout."""
    bad = family_mismatches("depth", sweep_main, sweep_ext, *sweep_wide)
    # direct recount of classifier comparisons, independent of the sweep
    compared = 0
    wrong = 0
    for s in iter_specs((2, 4), (2, 3)):
        work = reduce_fully(s)[0]
        if classify(work) != SpecKind.ARBITRARY or work.d < 2:
            continue
        compared += 1
        exact = depth_exact(lexsegment_generators(work), 32003)
        case = depth_class(work)
        agree = {
            DepthClass.DEPTH0: exact == 0,
            DepthClass.DEPTH1: exact == 1,
            DepthClass.DEPTH_GE2: exact >= 2,
        }[case.depth]
        if not agree:
            wrong += 1
    ok = not bad and wrong == 0
    report_line(
        4,
        ok,
        f"{len(bad)} sweep depth mismatches; classifier right on "
        f"{compared - wrong}/{compared} arbitrary-class specs",
    )


def test_criterion_5_stanley_inequality(sweep_main, sweep_ext, sweep_wide):
    """depth == n - max|P| over Ass == sdepth lower bound on every swept
    ideal (the sequentially Cohen-Macaulay corollary, which implies the
    Stanley inequality), with the exact Stanley certificate passing."""
    bad = family_mismatches("stanley", sweep_main, sweep_ext, *sweep_wide)
    report_line(
        5,
        not bad,
        f"{len(bad)} failures of depth == n - max|P| == sdepth bound "
        "or of the Stanley certificate",
    )


def random_ideal(rng):
    while True:
        n = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 6)):
            g = tuple(rng.randint(0, 3) for _ in range(n))
            if any(g):
                gens.append(g)
        if gens:
            return MonomialIdeal.from_gens(n, gens)


def test_criterion_6_oracle_self_consistency():
    """100 seeded random ideals: components intersect back to the input,
    the decomposition is irredundant, and every oracle prime carries a
    sound witness matching the decomposition radicals."""
    rng = random.Random(20250825)
    failures = 0
    for _ in range(100):
        ideal = random_ideal(rng)
        comps = irreducible_decomposition(ideal)
        meet = unit_ideal(ideal.n)
        for c in comps:
            meet = intersect(meet, c.to_ideal())
        if meet != ideal:
            failures += 1
            continue
        irredundant = True
        for c in comps:
            rest = unit_ideal(ideal.n)
            for k in comps:
                if k != c:
                    rest = intersect(rest, k.to_ideal())
            if rest == ideal:
                irredundant = False
        result = associated_primes_oracle(ideal)
        radicals = {c.radical() for c in comps}
        witnessed = {p for p, _ in result.witnesses}
        sound = all(
            w not in ideal and colon(ideal, w) == p.to_ideal()
            for p, w in result.witnesses
        )
        if not (
            irredundant
            and result.primes == radicals
            and witnessed == set(result.primes)
            and sound
        ):
            failures += 1
    report_line(6, failures == 0, f"{100 - failures}/100 random ideals consistent")


def test_criterion_7_negative_controls():
    """The three constructed failures each produce violation reports."""
    base = MonomialIdeal.from_gens(2, [(1, 1)])
    good = search_filtration(base)
    swapped = PrimeFiltration(base, (good.steps[1], good.steps[0]))
    fail_swap = not verify_prime_filtration(swapped).ok

    decomposition = stanley_decomposition(good)
    dropped = type(decomposition)(2, decomposition.spaces[:1])
    fail_drop = not stanley_certificate(base, dropped).ok
    doubled = type(decomposition)(2, decomposition.spaces + decomposition.spaces[:1])
    fail_double = not stanley_certificate(base, doubled).ok

    ok = fail_swap and fail_drop and fail_double
    report_line(
        7,
        ok,
        "swapped steps, dropped space, duplicated space all rejected"
        if ok
        else f"swap={fail_swap} drop={fail_drop} double={fail_double}",
    )


def test_n6_d3_sweep():
    """Every check family agrees on all 1,596 n=6, d=3 specs, within its
    budget, in one process."""
    report = sweep((6, 6), (3, 3))
    print(f"[n=6 d=3] {report.specs_tested} specs, {len(report.mismatches)} "
          f"mismatches, {report.seconds:.1f}s/{N6_D3_BUDGET_SECONDS:.0f}s")
    assert report.specs_tested == 1596
    assert report.mismatches == []
    assert report.seconds <= N6_D3_BUDGET_SECONDS


@st.composite
def wide_lexsegments(draw):
    """L(u, v) at (n, d) in n=7..9, d=3 and n=7, d=4, the ranges that one
    exhaustive sweep each found free of mismatches; u and v are the lex
    larger and smaller of two drawn monomials of degree d. n=8..9, d=4 is
    left out: some of its lattices pass LCM_LATTICE_LIMIT."""
    n, d = draw(st.sampled_from([(7, 3), (8, 3), (9, 3), (7, 4)]))

    def monomial(variables):
        return tuple(variables.count(i) for i in range(n))

    variables = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
    u, v = sorted((monomial(draw(variables)), monomial(draw(variables))), reverse=True)
    return LexSpec(n, d, u, v)


def test_drawn_specs_past_the_exhaustive_ranges():
    """A fixed count of seeded draws past the exhaustive ranges passes
    every check family of check_spec, within a wall budget."""
    drawn = []

    @seed(20261020)
    @settings(max_examples=DRAWN_SPECS, deadline=None, database=None)
    @given(wide_lexsegments())
    def check(s):
        drawn.append(s)
        assert check_spec(s) == []

    t0 = time.perf_counter()
    check()
    seconds = time.perf_counter() - t0
    print(f"[drawn] {len(drawn)} specs at n=7..9 d=3 and n=7 d=4, "
          f"{seconds:.1f}s/{DRAWN_BUDGET_SECONDS:.0f}s")
    assert len(drawn) == DRAWN_SPECS
    assert seconds <= DRAWN_BUDGET_SECONDS


def test_full_segment_decomposition():
    """The decomposition and the oracle answer the full segment L(x1^40,
    x3^40), 861 generators and 820 components, from a cold fold within a
    wall budget, and the oracle's primes are the closed form's."""
    s = LexSpec(3, 40, (40, 0, 0), (0, 0, 40))
    ideal = lexsegment_generators(s)
    _components.cache_clear()
    t0 = time.perf_counter()
    components = irreducible_decomposition(ideal)
    oracle = associated_primes_oracle(ideal)
    seconds = time.perf_counter() - t0
    print(f"[full segment] L(x1^40, x3^40), {len(ideal.gens)} generators, "
          f"{len(components)} components, "
          f"{seconds:.2f}s/{FULL_SEGMENT_BUDGET_SECONDS:.0f}s")
    assert (len(ideal.gens), len(components)) == (861, 820)
    assert oracle.primes == {c.radical() for c in components}
    assert oracle.primes == associated_primes_lexsegment(s)
    assert seconds <= FULL_SEGMENT_BUDGET_SECONDS
