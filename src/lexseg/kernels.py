"""The hot-path kernels: divisibility, membership, minimal generators
and colon ideals on plain exponent tuples, rank over GF(p) for every
prime p on sparse rows, and the one packed layout of exponent vectors
(_Packing) for the loops that run on ints instead.

Callers go through the module (kernels.member, ...), so a profiler can
wrap each kernel in place.
"""

# The kernel implementation, recorded in every perfbench run.
BACKEND = "python"


def divides(a, b):
    """True iff the monomial a divides b (componentwise a <= b)."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def member(m, gens):
    """True iff some generator in gens divides m."""
    for g in gens:
        if divides(g, m):
            return True
    return False


def minimalize(gens):
    """Canonical generator tuple: drop non-minimal gens, sort lex-descending.

    A proper divisor of g is componentwise <= g, so it comes before g in
    tuple order. Walking the distinct gens in ascending order, g is
    therefore minimal exactly when no gen kept so far divides it: a
    dropped gen has a kept divisor, which divides g as well. Lex order on
    exponent vectors coincides with tuple order, so the canonical form is
    the kept gens reversed.
    """
    keep = []
    for g in sorted(set(gens)):
        for h in keep:
            if divides(h, g):
                break
        else:
            keep.append(g)
    keep.reverse()
    return tuple(keep)


def colon_gens(gens, w):
    """Generators of (I : w) for I given by gens, minimalized."""
    quots = [tuple(max(x - y, 0) for x, y in zip(g, w)) for g in gens]
    return minimalize(quots)


class _Packing:
    """Exponent vectors in n variables packed into ints, one layout for
    every packed loop: the intersect-back fold of the decomposition, the
    K-polynomial and Stanley numerator of the certificate, and the chain
    check of a prime filtration.

    Each variable gets a field of w = top.bit_length() + 1 bits, x1 in
    the most significant one, so int order on packed vectors is tuple
    (lex) order, and a sum of packed vectors packs the sum of the
    exponent vectors. The top bit of a field is its guard bit; guards is
    their mask. A packing is sized from top, a bound that its caller
    proves for every exponent it packs or produces, sums included: each
    such exponent e has e <= top < 2^(w - 1), so its guard bit is clear.

    No overflow. For packed g and h with clear guards, each field of
    (g | guards) - h holds 2^(w - 1) + g_i - h_i, which lies in
    [1, 2^w - 1] as 0 <= g_i, h_i < 2^(w - 1): no field borrows from the
    one above. Its guard survives exactly when g_i >= h_i, so h divides g
    exactly when every guard survives (member, extend_minimal). The same
    holds with the guards of some fields only, when h is 0 on the
    others. Below a surviving guard the field holds g_i - h_i, and
    ((d & guards) >> (w - 1)) * (2^(w - 1) - 1) masks exactly those low
    bits: the saturating difference max(g_i - h_i, 0) in every field, a
    generator of (g) : h (colon).
    """

    __slots__ = ("width", "mask", "shifts", "guards")

    def __init__(self, n: int, top: int):
        w = top.bit_length() + 1
        self.width, self.mask = w, (1 << w) - 1
        self.shifts = tuple(range((n - 1) * w, -1, -w))  # x_(i+1) at shifts[i]
        self.guards = sum(1 << (s + w - 1) for s in self.shifts)

    def pack(self, m) -> int:
        w, g = self.width, 0
        for e in m:
            g = (g << w) | e
        return g

    def unpack(self, g: int) -> tuple:
        mask = self.mask
        return tuple((g >> s) & mask for s in self.shifts)

    def member(self, m: int, gens) -> bool:
        """True iff some packed generator in gens divides m."""
        guards = self.guards
        m_h = m | guards
        for g in gens:
            if (m_h - g) & guards == guards:
                return True
        return False

    def extend_minimal(self, kept: list, candidates) -> list:
        """kept with each candidate, in the given order, appended unless a
        gen already in kept divides it."""
        guards = self.guards
        for g in candidates:
            g_h = g | guards
            for h in kept:
                if (g_h - h) & guards == guards:
                    break
            else:
                kept.append(g)
        return kept

    def minimalize(self, gens) -> tuple:
        """minimalize on packed gens: ascending int order is ascending
        tuple order, so the same walk keeps the same gens, and the result
        is lex-descending."""
        kept = self.extend_minimal([], sorted(set(gens)))
        kept.reverse()
        return tuple(kept)

    def colon(self, gens, m: int) -> tuple:
        """colon_gens on packed gens: the minimal generators of (I : m),
        lex-descending, by saturating subtraction."""
        guards, w1 = self.guards, self.width - 1
        low = (1 << w1) - 1
        quots = set()
        for g in gens:
            d = (g | guards) - m
            quots.add(d & ((d & guards) >> w1) * low)
        return self.minimalize(quots)


def gf_rank(rows, p):
    """Rank of an integer matrix over GF(p), p prime; each row is a dict
    {column: entry} that may leave out zeros.

    Sparse row reduction: each row becomes {column: entry mod p} without
    its zeros, and is reduced at its leading column by the pivot row kept
    for that column until it is zero or becomes the pivot of a new
    leading column, normalized to lead with 1. The rank is the number of
    pivots.
    """
    pivots = {}
    for row in rows:
        r = {j: y for j, x in row.items() if x and (y := x % p)}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(r[lead], p - 2, p)
                pivots[lead] = {j: x * inv % p for j, x in r.items()}
                break
            c = r.pop(lead)  # the pivot leads with 1, so this entry cancels
            for j, x in pivot.items():
                if j != lead:
                    y = (r.get(j, 0) - c * x) % p
                    if y:
                        r[j] = y
                    else:
                        del r[j]  # c * x != 0 mod p, so y = 0 only for j in r
    return len(pivots)
