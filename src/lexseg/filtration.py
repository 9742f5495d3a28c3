"""Pretty clean prime filtrations of S/I and derived Stanley decompositions.

A filtration is recorded as steps (witness, prime): starting from J = I,
each step adjoins its witness monomial, and the colon of the running
ideal by the witness must equal the step's prime. The terminal step has
witness 1 and prime equal to the penultimate ideal (which is then prime),
so the chain always ends at the unit ideal.

Pretty clean chains (Herzog-Popescu, Manuscripta Math. 2006) come from
one depth-first search over (prime, witness) steps straight to the unit
ideal. The candidate primes at each node are the radicals of the
irredundant irreducible components, and each witness is tested for
(J : w) = P directly on the generators of J.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from .decompose import (
    associated_primes_oracle,
    irredundant_components,
    iter_box,
    witness_box,
)
from .monomials import (
    DomainError,
    InternalConsistencyError,
    LexSpec,
    Monomial,
    MonomialIdeal,
    PrimeIdeal,
    add_element,
    colon,
    degree,
    enumerate_degree,
    ideal_as_prime,
    lexsegment_generators,
    mon_div,
    mon_mul,
    unit,
    variable,
)


@dataclass(frozen=True)
class FiltrationStep:
    witness: Monomial
    prime: PrimeIdeal


@dataclass(frozen=True)
class PrimeFiltration:
    base: MonomialIdeal
    steps: tuple[FiltrationStep, ...]

    @property
    def support(self) -> frozenset[PrimeIdeal]:
        return frozenset(s.prime for s in self.steps)


@dataclass(frozen=True)
class Report:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class StanleyDecomposition:
    n: int
    spaces: tuple[tuple[Monomial, frozenset[int]], ...]


def _candidate_primes(ideal: MonomialIdeal) -> list[PrimeIdeal]:
    """Ass(S/J) ordered inclusion-maximal first, lex-smallest tuple first.

    Ass(S/J) is the set of radicals of the irredundant irreducible
    components (Miller-Sturmfels, ch. 5).
    """
    primes = {c.radical() for c in irredundant_components(ideal)}
    maximal = [
        p for p in primes if not any(p.is_proper_subset(q) for q in primes)
    ]
    rest = [p for p in primes if p not in maximal]
    maximal.sort(key=lambda p: p.vars)
    rest.sort(key=lambda p: (-len(p.vars), p.vars))
    return maximal + rest


def _witness_candidates(current: MonomialIdeal, prime: PrimeIdeal):
    """All in-box monomials w with (current : w) = prime, lex-descending.

    (J : w) is generated by the g / gcd(g, w) over the generators g of J.
    It lies inside P exactly when every g exceeds w in some variable of P,
    that is, when no P-part of a generator divides the P-part of w; and it
    contains P exactly when x_i * w lies in J for every i in P. The first
    condition already excludes w in J.
    """
    gens = current.gens
    idx = [i - 1 for i in prime.vars]
    parts = kernels.minimalize(tuple(tuple(g[i] for i in idx) for g in gens))
    member = kernels.member
    for w in iter_box(witness_box(current)):
        if not member(tuple(w[i] for i in idx), parts) and all(
            member(w[:i] + (w[i] + 1,) + w[i + 1 :], gens) for i in idx
        ):
            yield w


def _dfs_fill(start: MonomialIdeal) -> list[FiltrationStep] | None:
    """Depth-first pretty clean chain from start to the unit ideal.

    Witnesses are tried in _degree_then_lex order. Prunes any step whose
    prime would properly contain an earlier step's prime, so a completed
    chain is pretty clean by construction. Returns the step list or None.

    Failed states are memoized. A state is determined by the reached
    ideal and the inclusion-minimal primes used so far (only those
    constrain later steps), so permutations of the same step set collapse
    to one search.
    """
    n = start.n
    dead: set = set()

    def constraint_key(steps):
        primes = {s.prime for s in steps}
        return frozenset(
            p for p in primes if not any(q.is_proper_subset(p) for q in primes)
        )

    def dfs(current, steps):
        as_prime = ideal_as_prime(current)
        if as_prime is not None:
            if any(s.prime.is_proper_subset(as_prime) for s in steps):
                return None
            return steps + [FiltrationStep(unit(n), as_prime)]
        state = (current, constraint_key(steps))
        if state in dead:
            return None
        for prime in _candidate_primes(current):
            if any(s.prime.is_proper_subset(prime) for s in steps):
                continue
            witnesses = sorted(
                _witness_candidates(current, prime), key=_degree_then_lex
            )
            for w in witnesses:
                found = dfs(
                    add_element(current, w),
                    steps + [FiltrationStep(w, prime)],
                )
                if found is not None:
                    return found
        dead.add(state)
        return None

    return dfs(start, [])


def _degree_then_lex(w: Monomial):
    # small witnesses first keeps the quotients tame; lex-greatest
    # breaks ties deterministically
    return (degree(w), tuple(-e for e in w))


def greedy_filtration(ideal: MonomialIdeal) -> PrimeFiltration:
    """Maximal-prime-first greedy filtration of S/I.

    One pass, no backtracking: lex-smallest maximal associated prime,
    lex-greatest in-box witness. Always a valid prime filtration; pretty
    cleanness is checked separately and can fail for some inputs.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")
    n = ideal.n
    steps: list[FiltrationStep] = []
    current = ideal
    while not current.is_unit:
        as_prime = ideal_as_prime(current)
        if as_prime is not None:
            steps.append(FiltrationStep(unit(n), as_prime))
            break
        for prime in _candidate_primes(current):
            w = next(_witness_candidates(current, prime), None)
            if w is not None:
                break
        else:
            raise InternalConsistencyError(f"no witness advances greedy at {current}")
        steps.append(FiltrationStep(w, prime))
        current = add_element(current, w)
    return PrimeFiltration(ideal, tuple(steps))


def staged_filtration(spec: LexSpec) -> PrimeFiltration:
    """Pretty clean filtration of S/I for a lexsegment ideal I.

    Two structural reductions are spliced around the search. For b1 > 0,
    the filtration of the spec divided by x1^b1 is scaled back by x1^b1
    and followed by the chain down (x1^k); for a1 = 0, the spec is
    filtered in the ring without its unused leading variables and padded
    back. Every other spec goes straight to search_filtration.
    """
    n = spec.n
    ideal = lexsegment_generators(spec)
    if spec.u != spec.v and spec.b1 > 0:
        b1 = spec.b1
        x1b1 = variable(n, 1, b1)
        sub_spec = LexSpec(n, spec.d - b1, mon_div(spec.u, x1b1), mon_div(spec.v, x1b1))
        sub = staged_filtration(sub_spec)
        steps = [
            FiltrationStep(mon_mul(s.witness, x1b1), s.prime) for s in sub.steps
        ]
        x1 = PrimeIdeal.from_vars(n, (1,))
        for k in range(b1 - 1, 0, -1):
            steps.append(FiltrationStep(variable(n, 1, k), x1))
        steps.append(FiltrationStep(unit(n), x1))
        return PrimeFiltration(ideal, tuple(steps))

    if spec.u != spec.v and spec.a1 == 0:
        # filter in the smaller ring, then pad back to n variables
        off = next(i for i, e in enumerate(spec.u) if e > 0)
        sub_spec = LexSpec(n - off, spec.d, spec.u[off:], spec.v[off:])
        sub = staged_filtration(sub_spec)
        pad = (0,) * off
        steps = [
            FiltrationStep(pad + s.witness, s.prime.shift(off, n)) for s in sub.steps
        ]
        return PrimeFiltration(ideal, tuple(steps))

    found = search_filtration(ideal)
    if found is None:
        raise InternalConsistencyError(f"found no pretty clean chain from {ideal.gens}")
    return found


def search_filtration(ideal: MonomialIdeal) -> PrimeFiltration | None:
    """Backtracking search for a pretty clean filtration.

    Depth-first over (prime, witness) choices, pruning any prefix where an
    earlier prime would be properly contained in the next one; returns the
    first complete pretty clean filtration, or None. staged_filtration
    runs this search for every lexsegment it does not reduce.
    """
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("need a proper nonzero ideal")
    found = _dfs_fill(ideal)
    if found is None:
        return None
    return PrimeFiltration(ideal, tuple(found))


def verify_prime_filtration(filtration: PrimeFiltration) -> Report:
    """Chain validity: witnesses escape, colons match, terminal unit ideal."""
    violations = []
    current = filtration.base
    for k, step in enumerate(filtration.steps):
        if step.witness in current:
            violations.append(f"step {k}: witness {step.witness} already in the chain")
        elif colon(current, step.witness) != step.prime.to_ideal():
            violations.append(
                f"step {k}: colon by {step.witness} is not ({step.prime.vars})"
            )
        current = add_element(current, step.witness)
    if not current.is_unit:
        violations.append("chain does not terminate at the unit ideal")
    return Report(tuple(violations))


def verify_pretty_clean(filtration: PrimeFiltration) -> Report:
    """No proper inclusion prime_i ⊂ prime_j with i < j."""
    violations = []
    steps = filtration.steps
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            if steps[i].prime.is_proper_subset(steps[j].prime):
                violations.append(
                    f"steps {i} < {j}: ({steps[i].prime.vars}) properly "
                    f"contained in ({steps[j].prime.vars})"
                )
    return Report(tuple(violations))


def supp_equals_ass(filtration: PrimeFiltration) -> Report:
    """Supp of the filtration must equal Ass(S/I) from the oracle."""
    ass = associated_primes_oracle(filtration.base).primes
    support = filtration.support
    violations = []
    for p in sorted(support - ass, key=lambda p: p.vars):
        violations.append(f"filtration prime ({p.vars}) is not associated")
    for p in sorted(ass - support, key=lambda p: p.vars):
        violations.append(f"associated prime ({p.vars}) missing from the filtration")
    return Report(tuple(violations))


def stanley_decomposition(filtration: PrimeFiltration) -> StanleyDecomposition:
    """Spaces w * K[free vars], free vars = complement of the step prime."""
    n = filtration.base.n
    spaces = tuple(
        (s.witness, frozenset(range(1, n + 1)) - set(s.prime.vars))
        for s in filtration.steps
    )
    return StanleyDecomposition(n, spaces)


def sdepth_lower_bound(decomposition: StanleyDecomposition) -> int:
    return min(len(free) for _, free in decomposition.spaces)


def disjoint_cover_check(
    ideal: MonomialIdeal, decomposition: StanleyDecomposition, degree_bound: int
) -> Report:
    """Finite certificate: up to degree_bound, the spaces partition the
    standard monomials of I and avoid I entirely."""
    n = ideal.n
    violations = []
    for d in range(degree_bound + 1):
        for m in enumerate_degree(n, d):
            covers = []
            for k, (w, free) in enumerate(decomposition.spaces):
                if all(x <= y for x, y in zip(w, m)):
                    quot = mon_div(m, w)
                    if all(e == 0 or (i + 1) in free for i, e in enumerate(quot)):
                        covers.append(k)
            if m in ideal:
                if covers:
                    violations.append(f"{m} lies in I but is covered by {covers}")
            elif len(covers) == 0:
                violations.append(f"standard monomial {m} is not covered")
            elif len(covers) > 1:
                violations.append(f"standard monomial {m} covered twice: {covers}")
    return Report(tuple(violations))


def max_witness_degree(filtration: PrimeFiltration) -> int:
    return max((degree(s.witness) for s in filtration.steps), default=0)
