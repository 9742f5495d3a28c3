"""The hot-path kernels of lexseg.kernels on small hand-checked inputs,
and minimalize against its earlier all-pairs body."""

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
        assert kernels.gf_rank([[1, 0], [0, 1]], 2) == 2
        assert kernels.gf_rank([[1, 1], [1, 1]], 2) == 1
        assert kernels.gf_rank([[2, 0], [0, 0]], 2) == 0  # 2 = 0 mod 2
        assert kernels.gf_rank([], 5) == 0

    def test_backend_is_python(self):
        assert lexseg.BACKEND == kernels.BACKEND == "python"
