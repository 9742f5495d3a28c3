"""Exhaustive verification sweep over all lexsegment pairs in small ranges.

For every (n, d) in range and every pair u >=_lex v of degree-d monomials,
four check families run: closed-form versus oracle associated primes,
the three verifiers on the pretty clean filtration from
staged_filtration, depth classifier versus the exact depth oracle (at
every configured prime), and the Stanley family: the exact Stanley
certificate (the K-polynomial of S/I against the Hilbert series
numerator of the decomposition, filtration.stanley_certificate) and the
paper's sequentially Cohen-Macaulay corollary, depth = n - max|P| over
Ass = the sdepth lower bound of the decomposition.
"""

from __future__ import annotations

import os
import time
from itertools import repeat
from math import comb
from typing import NamedTuple

from .closed_form import associated_primes_lexsegment
from .decompose import associated_primes_oracle
from .depth import DepthCase, _require_prime, depth_class, depths_exact
from .filtration import (
    sdepth_lower_bound,
    staged_filtration,
    stanley_certificate,
    stanley_decomposition,
    supp_equals_ass,
    verify_pretty_clean,
    verify_prime_filtration,
)
from .monomials import (
    DomainError,
    LexSpec,
    SpecKind,
    classify,
    lexsegment_generators,
    reduce_fully,
    variable,
)
from .serialize import format_monomial, primes_to_json

DEFAULT_PRIMES = (2, 32003)
DEFAULT_CAP = 100_000


class Mismatch(NamedTuple):
    n: int
    d: int
    u: str
    v: str
    family: str
    detail: str
    closed: list | None = None
    oracle: list | None = None

    def to_json(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


class SweepReport:
    """What one sweep() found, filled in as it runs."""

    def __init__(self, n_range, d_range, primes):
        self.n_range, self.d_range, self.primes = n_range, d_range, primes
        self.specs_tested = self.agreements = 0
        self.mismatches: list[Mismatch] = []
        self.seconds = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "n_range": list(self.n_range),
            "d_range": list(self.d_range),
            "primes": list(self.primes),
            "specs_tested": self.specs_tested,
            "agreements": self.agreements,
            "mismatch_count": self.specs_tested - self.agreements,
            "mismatches": [m.to_json() for m in self.mismatches],
            "seconds": self.seconds,
        }


def iter_specs(n_range, d_range):
    """All (u, v) pairs with u >=_lex v, deterministic order."""
    for n in range(n_range[0], n_range[1] + 1):
        for d in range(d_range[0], d_range[1] + 1):
            # the full segment L(x1^d, xn^d) is every degree-d monomial
            full = LexSpec(n, d, variable(n, 1, d), variable(n, n, d))
            mons = lexsegment_generators(full).gens
            for i, u in enumerate(mons):
                for v in mons[i:]:
                    yield LexSpec(n, d, u, v)


def filtration_reports(filtration, ass=None) -> dict:
    """The three verifiers on a filtration, by name: chain validity, pretty
    cleanness and Supp = Ass (ass as supp_equals_ass takes it)."""
    return {
        "prime_filtration": verify_prime_filtration(filtration),
        "pretty_clean": verify_pretty_clean(filtration),
        "supp_equals_ass": supp_equals_ass(filtration, ass),
    }


def depth_mismatch(
    spec: LexSpec, work: LexSpec, case: DepthCase, exact: int
) -> str | None:
    """None when the depth class of the working spec holds for the exact
    depth of spec, else the mismatch detail. I = x^factor I' has the pd of
    I', and each dropped variable adds one to the depth."""
    work_exact = exact - (spec.n - work.n)
    # a DepthClass value is the depth capped at 2 (DEPTH_GE2 = 2)
    if min(work_exact, 2) != case.depth.value:
        return f"classifier {case.depth.name} vs exact depth {work_exact}"
    return None


def check_spec(spec: LexSpec, primes=DEFAULT_PRIMES) -> list[Mismatch]:
    """Run all four check families on one spec."""
    found: list[Mismatch] = []
    u_txt, v_txt = format_monomial(spec.u), format_monomial(spec.v)

    def record(family, detail, closed=None, oracle=None):
        found.append(
            Mismatch(spec.n, spec.d, u_txt, v_txt, family, detail, closed, oracle)
        )

    ideal = lexsegment_generators(spec)
    closed = associated_primes_lexsegment(spec)
    oracle = associated_primes_oracle(ideal).primes
    if closed != oracle:
        record(
            "ass",
            "closed-form and oracle prime sets differ",
            primes_to_json(closed),
            primes_to_json(oracle),
        )

    # read right after the oracle, whose fold of I the seed of the depth
    # search reuses from the _components memo
    depths = depths_exact(ideal, primes)
    filtration = staged_filtration(spec)
    # the oracle's primes are Ass(S/I), the radicals supp_equals_ass reads
    for name, report in filtration_reports(filtration, oracle).items():
        if not report.ok:
            record("filtration", f"{name}: {'; '.join(report.violations)}")

    if len(set(depths.values())) > 1:
        record("depth", f"depth differs across primes: {depths}")
    exact = depths[primes[0]]
    work = reduce_fully(spec)[0]
    if classify(work) == SpecKind.ARBITRARY:
        detail = depth_mismatch(spec, work, depth_class(work), exact)
        if detail:
            record("depth", detail)

    decomposition = stanley_decomposition(filtration)
    bound = sdepth_lower_bound(decomposition)
    # pretty clean implies sequentially CM, where depth = min dim S/P over Ass
    dim_min = spec.n - max(len(p.vars) for p in oracle)
    if not exact == dim_min == bound:
        record(
            "stanley",
            f"depth {exact}, n - max|P| over Ass {dim_min} and "
            f"sdepth lower bound {bound} are not all equal",
        )
    certificate = stanley_certificate(ideal, decomposition)
    if not certificate.ok:
        record("stanley", f"certificate: {'; '.join(certificate.violations)}")

    return found


def sweep(
    n_range,
    d_range,
    primes=DEFAULT_PRIMES,
    jobs: int = 1,
    cap: int = DEFAULT_CAP,
) -> SweepReport:
    """Checks every spec in the ranges with check_spec, on jobs processes.

    Raises DomainError, before any spec is checked or any process started,
    when jobs is outside 1..os.cpu_count(), a range is empty or starts
    below 1, no characteristic is given or one is not a prime, or some
    (n, d) has more than cap pairs.
    """
    primes = tuple(primes)
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise DomainError(f"jobs = {jobs} is outside 1..{cpus}, the CPU count")
    for name, (lo, hi) in (("n", n_range), ("d", d_range)):
        if lo > hi:
            raise DomainError(f"the {name} range {lo}..{hi} is empty")
        if lo < 1:
            raise DomainError(f"the {name} range {lo}..{hi} starts below 1")
    if not primes:
        raise DomainError("no characteristic given")
    for p in primes:
        _require_prime(p)
    start = time.perf_counter()
    for n in range(n_range[0], n_range[1] + 1):
        for d in range(d_range[0], d_range[1] + 1):
            count = comb(n + d - 1, d)
            pairs = count * (count + 1) // 2
            if pairs > cap:
                raise DomainError(
                    f"(n={n}, d={d}) has {pairs} pairs, exceeding the cap {cap}"
                )
    specs = list(iter_specs(n_range, d_range))
    report = SweepReport(tuple(n_range), tuple(d_range), primes)
    report.specs_tested = len(specs)
    if jobs > 1:
        # imported here, so that importing lexseg loads no multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(check_spec, specs, repeat(primes), chunksize=8))
    else:
        results = [check_spec(s, primes) for s in specs]
    for found in results:
        if found:
            report.mismatches.extend(found)
        else:
            report.agreements += 1
    report.seconds = time.perf_counter() - start
    return report
