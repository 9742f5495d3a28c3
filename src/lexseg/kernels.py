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

    Lex order on exponent vectors coincides with tuple order, so the
    canonical form is plain reverse-sorted tuples.
    """
    uniq = sorted(set(gens))
    keep = []
    for i, g in enumerate(uniq):
        redundant = False
        for j, h in enumerate(uniq):
            if i != j and divides(h, g):
                # ties between equal tuples are impossible after dedup
                redundant = True
                break
        if redundant:
            continue
        keep.append(g)
    keep.sort(reverse=True)
    return tuple(keep)


def colon_gens(gens, w):
    """Generators of (I : w) for I given by gens, minimalized."""
    quots = [tuple(max(x - y, 0) for x, y in zip(g, w)) for g in gens]
    return minimalize(quots)


def gf_rank(rows, p):
    """Rank of an integer matrix over GF(p); rows is a list of lists."""
    if not rows:
        return 0
    mat = [[x % p for x in row] for row in rows]
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [(x * inv) % p for x in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(x - c * y) % p for x, y in zip(mat[r], mat[row])]
        row += 1
        rank += 1
        if row == len(mat):
            break
    return rank
