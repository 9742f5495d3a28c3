"""The hot-path kernels: divisibility, membership, minimal generators,
colon ideals and rank over GF(p), on plain exponent tuples.

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
