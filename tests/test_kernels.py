"""The hot-path kernels of lexseg.kernels on small hand-checked inputs."""

import lexseg
from lexseg import kernels


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

    def test_colon_gens(self):
        assert kernels.colon_gens(((1, 1), (0, 2)), (0, 1)) == ((1, 0), (0, 1))

    def test_gf_rank(self):
        assert kernels.gf_rank([[1, 0], [0, 1]], 2) == 2
        assert kernels.gf_rank([[1, 1], [1, 1]], 2) == 1
        assert kernels.gf_rank([[2, 0], [0, 0]], 2) == 0  # 2 = 0 mod 2
        assert kernels.gf_rank([], 5) == 0

    def test_backend_is_python(self):
        assert lexseg.BACKEND == kernels.BACKEND == "python"
