"""The hot-path kernels of lexseg.kernels on small hand-checked inputs,
minimalize against its earlier all-pairs body and gf_rank, at p = 2 and
at odd p, against its earlier dense elimination."""

from hypothesis import given, seed, settings
from hypothesis import strategies as st

import lexseg
from lexseg import kernels


def minimalize_reference(gens):
    """The all-pairs minimalize that the kept-only kernel replaced."""
    uniq = sorted(set(gens))
    keep = []
    for i, g in enumerate(uniq):
        redundant = False
        for j, h in enumerate(uniq):
            if i != j and kernels.divides(h, g):
                # ties between equal tuples are impossible after dedup
                redundant = True
                break
        if redundant:
            continue
        keep.append(g)
    keep.sort(reverse=True)
    return tuple(keep)


def sparse(rows):
    """The dense rows as gf_rank takes them: {column: entry}, zeros left out."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def gf_rank_reference(rows, p):
    """The dense Gauss-Jordan elimination that the sparse gf_rank replaced."""
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


@st.composite
def matrices(draw):
    """A prime p and 0..8 rows of 1..8 columns: mostly zeros, entries
    around 0 and around multiples of p, negatives included, and sometimes
    a repeated row, the sum of two drawn rows (dependent) or an all-zero
    row."""
    p = draw(st.sampled_from([2, 3, 32003, 2**31 - 1]))
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(
        st.just(0),
        st.integers(-3, 3),
        st.integers(-2, 2).map(lambda k: k * p),
        st.integers(-2, 2).map(lambda k: k * p + 1),
        st.integers(-(p**2), p**2),
    )
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=8))
    if rows and draw(st.booleans()):
        rows.append(list(draw(st.sampled_from(rows))))
    if rows and draw(st.booleans()):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        rows.append([x + y for x, y in zip(a, b)])
    if draw(st.booleans()):
        rows.append([0] * ncols)
    return draw(st.permutations(rows)), p


@st.composite
def generator_lists(draw):
    """0..200 exponent vectors in n = 1..6 variables, exponents <= 4, with
    repeats of drawn vectors and, sometimes, the zero vector mixed in."""
    n = draw(st.integers(1, 6))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=180))
    if gens:
        gens += draw(st.lists(st.sampled_from(gens), max_size=19))
    if draw(st.booleans()):
        gens.append((0,) * n)
    return draw(st.permutations(gens))


class TestPureKernels:
    def test_divides(self):
        assert kernels.divides((1, 0, 2), (1, 1, 2))
        assert not kernels.divides((2, 0), (1, 5))

    def test_member(self):
        gens = ((1, 1, 0), (0, 0, 2))
        assert kernels.member((2, 1, 0), gens)
        assert not kernels.member((1, 0, 1), gens)

    def test_minimalize(self):
        gens = ((1, 1), (1, 2), (0, 3), (1, 1))
        assert kernels.minimalize(gens) == ((1, 1), (0, 3))

    def test_minimalize_empty_and_unit(self):
        assert kernels.minimalize(()) == ()
        assert kernels.minimalize(((0, 0), (2, 1), (0, 0))) == ((0, 0),)

    @seed(20261101)
    @settings(max_examples=200, deadline=None, database=None)
    @given(generator_lists())
    def test_minimalize_matches_all_pairs_reference(self, gens):
        assert kernels.minimalize(gens) == minimalize_reference(gens)

    def test_colon_gens(self):
        assert kernels.colon_gens(((1, 1), (0, 2)), (0, 1)) == ((1, 0), (0, 1))

    def test_gf_rank(self):
        assert kernels.gf_rank([{0: 1}, {1: 1}], 2) == 2
        assert kernels.gf_rank([{0: 1, 1: 1}, {0: 1, 1: 1}], 2) == 1
        assert kernels.gf_rank([{0: 2}, {}], 2) == 0  # 2 = 0 mod 2
        # the third row is the sum of the first two mod 2
        assert kernels.gf_rank([{0: 1, 1: 1}, {1: 1, 2: 1}, {0: 1, 2: 1}], 2) == 2
        assert kernels.gf_rank([], 5) == 0

    def test_gf_rank_edges(self):
        assert kernels.gf_rank([{}, {}], 3) == 0
        assert kernels.gf_rank([{0: 3}, {0: -6}, {}], 3) == 0  # one column, all 0 mod 3
        assert kernels.gf_rank([{0: -1}, {0: 2}], 3) == 1
        assert kernels.gf_rank([{0: 1, 1: -1}, {1: 1, 2: -1}, {0: -1, 2: 1}], 32003) == 2
        assert kernels.gf_rank([{0: 2**31 - 2, 1: 1}, {0: 1, 1: 1}], 2**31 - 1) == 2
        # zeros written out, columns out of order and far apart
        assert kernels.gf_rank([{5: 0, 0: 0}, {7: 2, 1: 0}, {7: 4, 100: 3}], 2) == 1

    @seed(20261102)
    @settings(max_examples=250, deadline=None, database=None)
    @given(matrices())
    def test_gf_rank_matches_dense_reference(self, case):
        rows, p = case
        rank = gf_rank_reference(rows, p)
        assert kernels.gf_rank(sparse(rows), p) == rank

    def test_backend_is_python(self):
        assert lexseg.BACKEND == kernels.BACKEND == "python"
