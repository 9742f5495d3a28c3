"""JSON codecs and the monomial text grammar for the CLI.

Wire formats: monomials are exponent arrays, primes are sorted 1-based
variable index arrays, ideals are {"n": int, "gens": [[exponents]]},
filtrations are {"base": ideal, "steps": [{"witness": [...], "prime": [...]}]}.
"""

from __future__ import annotations

import re

from .filtration import PrimeFiltration
from .monomials import Monomial, MonomialIdeal, _is_int


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ASCII digits only: \d would take any Unicode decimal digit
_FACTOR = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse "x<i>^<e>" factors joined by "*", or "1", with i and e in
    ASCII digits. A refused factor reports its start offset in the
    stripped text."""
    text = text.strip()
    if text == "1":
        return (0,) * n
    exps = [0] * n
    pos = 0
    for part in text.split("*"):
        m = _FACTOR.fullmatch(part)
        if not m:
            raise ParseError("expected a factor x<i> or x<i>^<e>", pos)
        i, e = int(m.group(1)), int(m.group(2) or 1)
        if not 1 <= i <= n:
            raise ParseError(f"variable index {i} out of range 1..{n}", pos)
        if e < 1:
            raise ParseError("exponent must be >= 1", pos)
        if exps[i - 1]:
            raise ParseError(f"variable x{i} repeated", pos)
        exps[i - 1] = e
        pos += len(part) + 1
    return tuple(exps)


def format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i + 1}")
        elif e > 1:
            parts.append(f"x{i + 1}^{e}")
    return "*".join(parts) if parts else "1"


def primes_to_json(primes) -> list[list[int]]:
    return sorted(list(p.vars) for p in primes)


def ideal_to_json(ideal: MonomialIdeal) -> dict:
    return {"n": ideal.n, "gens": [list(g) for g in ideal.gens]}


def _is_count(value) -> bool:
    return _is_int(value) and value >= 0


def ideal_from_json(data: dict) -> MonomialIdeal:
    """Ideal from {"n": int, "gens": [[exponents]]}; every exponent must be
    a non-negative int (bools excluded), else ParseError at that generator."""
    if not isinstance(data, dict) or not isinstance(data.get("gens"), list):
        raise ParseError('an ideal is {"n": int, "gens": [[exponents]]}', 0)
    n, gens = data.get("n"), data["gens"]
    if not _is_count(n):
        raise ParseError(f"n = {n!r} is not a non-negative integer", 0)
    for k, g in enumerate(gens):
        if not isinstance(g, list) or not all(_is_count(e) for e in g):
            raise ParseError(f"generator {g!r} needs non-negative integer exponents", k)
    return MonomialIdeal.from_gens(n, [tuple(g) for g in gens])


def filtration_to_json(f: PrimeFiltration) -> dict:
    return {
        "base": ideal_to_json(f.base),
        "steps": [
            {"witness": list(s.witness), "prime": list(s.prime.vars)}
            for s in f.steps
        ],
    }

