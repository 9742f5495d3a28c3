"""Exhaustive verification sweep over all lexsegment pairs in small ranges.

For every (n, d) in range and every pair u >=_lex v of degree-d monomials,
four check families run: closed-form versus oracle associated primes,
the three verifiers on the pretty clean filtration from
staged_filtration, depth classifier versus the exact Betti oracle (at
every configured prime), and the Stanley family: the exact Stanley
certificate (the K-polynomial of S/I against the Hilbert series
numerator of the decomposition, filtration.stanley_certificate) and the
paper's sequentially Cohen-Macaulay corollary, depth = n - max|P| over
Ass = the sdepth lower bound of the decomposition.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .closed_form import associated_primes_lexsegment
from .decompose import associated_primes_oracle
from .depth import DepthClass, _require_prime, depth_class, depth_exact
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
    enumerate_degree,
    lexsegment_generators,
    reduce_fully,
)
from .serialize import format_monomial, primes_to_json

DEFAULT_PRIMES = (2, 32003)
DEFAULT_CAP = 100_000


class SweepCapExceeded(ValueError):
    pass


@dataclass(frozen=True)
class Mismatch:
    n: int
    d: int
    u: str
    v: str
    family: str
    detail: str
    closed: list | None = None
    oracle: list | None = None

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "d": self.d,
            "u": self.u,
            "v": self.v,
            "family": self.family,
            "detail": self.detail,
        }
        if self.closed is not None:
            out["closed"] = self.closed
        if self.oracle is not None:
            out["oracle"] = self.oracle
        return out


@dataclass
class SweepReport:
    n_range: tuple[int, int]
    d_range: tuple[int, int]
    primes: tuple[int, ...]
    specs_tested: int = 0
    agreements: int = 0
    mismatches: list[Mismatch] = field(default_factory=list)
    seconds: float = 0.0

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
            mons = enumerate_degree(n, d)
            for i, u in enumerate(mons):
                for v in mons[i:]:
                    yield LexSpec(n, d, u, v)


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

    filtration = staged_filtration(spec)
    for name, verifier in (
        ("prime_filtration", verify_prime_filtration),
        ("pretty_clean", verify_pretty_clean),
        ("supp_equals_ass", supp_equals_ass),
    ):
        report = verifier(filtration)
        if not report.ok:
            record("filtration", f"{name}: {'; '.join(report.violations)}")

    depths = {p: depth_exact(ideal, p) for p in primes}
    if len(set(depths.values())) > 1:
        record("depth", f"depth differs across primes: {depths}")
    exact = depths[primes[0]]
    work = reduce_fully(spec)[0]
    if classify(work).kind == SpecKind.ARBITRARY and work.d > 1:
        case = depth_class(work)
        work_exact = depth_exact(lexsegment_generators(work), primes[0])
        agree = {
            DepthClass.DEPTH0: work_exact == 0,
            DepthClass.DEPTH1: work_exact == 1,
            DepthClass.DEPTH_GE2: work_exact >= 2,
        }[case.depth]
        if not agree:
            record(
                "depth",
                f"classifier {case.depth.name} vs exact depth {work_exact}",
            )

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


def _check_spec_tuple(args):
    spec_args, primes = args
    return check_spec(LexSpec(*spec_args), primes)


def sweep(
    n_range,
    d_range,
    primes=DEFAULT_PRIMES,
    jobs: int = 1,
    cap: int = DEFAULT_CAP,
) -> SweepReport:
    """Checks every spec in the ranges with check_spec, on jobs processes.

    Raises DomainError, before any spec is checked or any process started,
    when jobs is outside 1..os.cpu_count(), a range is empty or a
    characteristic is not a prime; SweepCapExceeded when some (n, d) has
    more than cap pairs.
    """
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise DomainError(f"jobs = {jobs} is outside 1..{cpus}, the CPU count")
    for name, (lo, hi) in (("n", n_range), ("d", d_range)):
        if lo > hi:
            raise DomainError(f"the {name} range {lo}..{hi} is empty")
    for p in primes:
        _require_prime(p)
    start = time.perf_counter()
    for n in range(n_range[0], n_range[1] + 1):
        for d in range(d_range[0], d_range[1] + 1):
            count = len(enumerate_degree(n, d))
            pairs = count * (count + 1) // 2
            if pairs > cap:
                raise SweepCapExceeded(
                    f"(n={n}, d={d}) has {pairs} pairs, exceeding the cap {cap}"
                )
    specs = list(iter_specs(n_range, d_range))
    report = SweepReport(tuple(n_range), tuple(d_range), tuple(primes))
    report.specs_tested = len(specs)
    if jobs > 1:
        work = [((s.n, s.d, s.u, s.v), tuple(primes)) for s in specs]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_check_spec_tuple, work, chunksize=8))
    else:
        results = [check_spec(s, primes) for s in specs]
    for found in results:
        if found:
            report.mismatches.extend(found)
        else:
            report.agreements += 1
    report.seconds = time.perf_counter() - start
    return report
