"""The three workloads: input generation, the timed call and the answer check.

Every item has a key, a string from which the benchmark builds the input
without the library's help.  The recorded file ``data/<workload>.json``
holds, for every key, the digest of the item's mathematically unique
answers at the commit that recorded it, and the fixed shards that one
round (one cold process) runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"
PRIMES = (2, 32003)
ORACLE_POOL = 804


def degree_monomials(n: int, d: int) -> list[tuple[int, ...]]:
    """All degree-d monomials in n variables, lex-descending."""
    if n == 1:
        return [(d,)]
    return [(e,) + rest for e in range(d, -1, -1) for rest in degree_monomials(n - 1, d - e)]


def spec_keys(n_values, d_values) -> list[str]:
    """Every pair u >=_lex v of degree-d monomials, as 'n/d/u/v' keys."""
    keys = []
    for n in n_values:
        for d in d_values:
            mons = degree_monomials(n, d)
            for i, u in enumerate(mons):
                for v in mons[i:]:
                    keys.append(f"{n}/{d}/{','.join(map(str, u))}/{','.join(map(str, v))}")
    return keys


def parse_spec(mods, key):
    n, d, u, v = key.split("/")
    return mods["monomials"].LexSpec(
        int(n), int(d), tuple(map(int, u.split(","))), tuple(map(int, v.split(",")))
    )


def oracle_gens(index: int) -> tuple[int, list[tuple[int, ...]]]:
    """Random ideal number `index`: n=4..6, 4..10 generators, exponents <= 3."""
    rng = random.Random(f"oracle-random/{index}")
    n = rng.randint(4, 6)
    while True:
        count = rng.randint(4, 10)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(count)]
        gens = [g for g in gens if any(g)]
        if gens:
            return n, gens


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def prime_sets(primes) -> list[list[int]]:
    return sorted(list(p.vars) for p in primes)


def witness_problems(mods, ideal, result) -> list[str]:
    """Every reported prime has a witness w outside I with (I : w) = P."""
    colon = mods["monomials"].colon
    problems = []
    if {p for p, _ in result.witnesses} != set(result.primes):
        problems.append("witnessed primes differ from the reported primes")
    for p, w in result.witnesses:
        if w in ideal or colon(ideal, w) != p.to_ideal():
            problems.append(f"witness {w} does not certify {p.vars}")
    return problems


class Capture:
    """Records what chosen functions of one module return, per item.

    Installed in untraced and traced runs alike, so both pay the same few
    extra calls per item.  A name the module no longer has is skipped.
    """

    def __init__(self, module, names):
        self.log: list[tuple] = []
        self.saved = []
        for name in names:
            fn = getattr(module, name, None)
            if fn is not None:
                self.saved.append((module, name, fn))
                setattr(module, name, self._shim(name, fn))

    def _shim(self, name, fn):
        log = self.log

        def shim(*args, **kwargs):
            out = fn(*args, **kwargs)
            log.append((name, args, kwargs, out))
            return out

        return shim

    def take(self) -> list[tuple]:
        out = self.log[:]
        self.log.clear()
        return out

    def uninstall(self):
        for module, name, fn in self.saved:
            setattr(module, name, fn)


def find(log, name, test):
    for fname, args, kwargs, out in log:
        if fname == name and test(args, kwargs):
            return out
    return None


class SweepAcceptance:
    """lexseg.sweep.check_spec on every spec with n=2..4, d=2..3."""

    name = "sweep-acceptance"
    min_rounds = 1  # one round is the whole 357-spec sweep, as `lexseg sweep` runs it
    captured = ("associated_primes_lexsegment", "associated_primes_oracle", "staged_filtration", "depth_exact")

    def keys(self):
        return spec_keys(range(2, 5), range(2, 4))

    def make_input(self, mods, key):
        return parse_spec(mods, key)

    def capture(self, mods):
        return Capture(mods["sweep"], self.captured)

    def run(self, mods, spec):
        return mods["sweep"].check_spec(spec)

    def answer(self, mods, spec, raw, log):
        # values the program returned during the item; the public API
        # recomputes any that the capture no longer sees
        lexseg, flt = mods["lexseg"], mods["filtration"]
        ideal = lexseg.lexsegment_generators(spec)
        closed = find(log, "associated_primes_lexsegment", lambda a, k: a[0] == spec)
        if closed is None:
            closed = lexseg.associated_primes_lexsegment(spec)
        oracle = find(log, "associated_primes_oracle", lambda a, k: a[0] == ideal)
        if oracle is None:
            oracle = lexseg.associated_primes_oracle(ideal)
        depths = []
        for p in PRIMES:
            found = find(
                log, "depth_exact", lambda a, k, p=p: a[0] == ideal and (a[1] if len(a) > 1 else k.get("p")) == p
            )
            depths.append(lexseg.depth_exact(ideal, p) if found is None else found)
        filtration = find(log, "staged_filtration", lambda a, k: a[0] == spec)
        if filtration is None:
            filtration = lexseg.staged_filtration(spec)
        problems = [m.family + ": " + m.detail for m in raw]
        for verify in (flt.verify_prime_filtration, flt.verify_pretty_clean, flt.supp_equals_ass):
            problems.extend(verify(filtration).violations)
        problems.extend(witness_problems(mods, ideal, oracle))
        payload = {
            "ass_closed": prime_sets(closed),
            "ass_oracle": prime_sets(oracle.primes),
            "depth": depths,
            "sdepth_lower_bound": flt.sdepth_lower_bound(flt.stanley_decomposition(filtration)),
            "mismatches": [m.to_json() for m in raw],
        }
        return payload, problems


class OracleRandom:
    """irreducible_decomposition + associated_primes_oracle on random ideals."""

    name = "oracle-random"
    min_rounds = 4  # heavy-tailed items: more rounds to steady the median

    def keys(self):
        return [str(i) for i in range(ORACLE_POOL)]

    def make_input(self, mods, key):
        n, gens = oracle_gens(int(key))
        return mods["monomials"].MonomialIdeal.from_gens(n, gens)

    def capture(self, mods):
        return None

    def run(self, mods, ideal):
        dec = mods["decompose"]
        return dec.irreducible_decomposition(ideal), dec.associated_primes_oracle(ideal)

    def answer(self, mods, ideal, raw, log):
        components, result = raw
        problems = witness_problems(mods, ideal, result)
        if {c.radical() for c in components} != set(result.primes):
            problems.append("oracle primes are not the radicals of the components")
        meet = mods["monomials"].unit_ideal(ideal.n)
        for c in components:
            meet = mods["monomials"].intersect(meet, c.to_ideal())
        if meet != ideal:
            problems.append("components do not intersect back to the ideal")
        payload = {
            "components": sorted([list(pe) for pe in c.powers] for c in components),
            "ass": prime_sets(result.primes),
        }
        return payload, problems


class DepthBetti:
    """depth_exact at GF(2) and GF(32003) for every n=6, d=2 lexsegment."""

    name = "depth-betti"
    min_rounds = 3

    def keys(self):
        return spec_keys([6], [2])

    def make_input(self, mods, key):
        return mods["lexseg"].lexsegment_generators(parse_spec(mods, key))

    def capture(self, mods):
        return None

    def run(self, mods, ideal):
        depth_exact = mods["depth"].depth_exact
        return [depth_exact(ideal, p) for p in PRIMES]

    def answer(self, mods, ideal, raw, log):
        return {"depth": raw}, []


WORKLOADS = {w.name: w for w in (SweepAcceptance(), OracleRandom(), DepthBetti())}


def load_data(name: str) -> dict:
    with open(DATA_DIR / f"{name}.json") as fh:
        return json.load(fh)
