"""Parity between the compiled and pure-Python kernel backends."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from lexseg import kernels
from lexseg import _kernels_py as pure

try:
    from lexseg import _kernels as compiled
except ImportError:
    compiled = None

needs_compiled = pytest.mark.skipif(
    compiled is None, reason="compiled extension not built"
)


def random_monomial(rng, n, emax=3):
    return tuple(rng.randint(0, emax) for _ in range(n))


class TestPureKernels:
    def test_divides(self):
        assert pure.divides((1, 0, 2), (1, 1, 2))
        assert not pure.divides((2, 0), (1, 5))

    def test_member(self):
        gens = ((1, 1, 0), (0, 0, 2))
        assert pure.member((2, 1, 0), gens)
        assert not pure.member((1, 0, 1), gens)

    def test_minimalize(self):
        gens = ((1, 1), (1, 2), (0, 3), (1, 1))
        assert pure.minimalize(gens) == ((1, 1), (0, 3))

    def test_colon_gens(self):
        assert pure.colon_gens(((1, 1), (0, 2)), (0, 1)) == ((1, 0), (0, 1))

    def test_gf_rank(self):
        assert pure.gf_rank([[1, 0], [0, 1]], 2) == 2
        assert pure.gf_rank([[1, 1], [1, 1]], 2) == 1
        assert pure.gf_rank([[2, 0], [0, 0]], 2) == 0  # 2 = 0 mod 2
        assert pure.gf_rank([], 5) == 0


@needs_compiled
class TestBackendParity:
    def test_active_backend_is_compiled(self):
        if os.environ.get("LEXSEG_PURE_PYTHON") == "1":
            assert kernels.BACKEND == "python"
        else:
            assert kernels.BACKEND == "cython"

    def test_randomized_parity(self):
        rng = random.Random(20250825)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = random_monomial(rng, n)
            b = random_monomial(rng, n)
            gens = tuple(random_monomial(rng, n) for _ in range(rng.randint(1, 6)))
            assert pure.divides(a, b) == compiled.divides(a, b)
            assert pure.member(a, gens) == compiled.member(a, gens)
            assert pure.minimalize(gens) == tuple(compiled.minimalize(gens))
            assert pure.colon_gens(gens, b) == tuple(compiled.colon_gens(gens, b))

    def test_gf_rank_parity(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = [
                [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
                for _ in range(rng.randint(1, 6))
            ]
            width = max(len(r) for r in rows)
            rows = [r + [0] * (width - len(r)) for r in rows]
            for p in (2, 3, 32003):
                assert pure.gf_rank(rows, p) == compiled.gf_rank(rows, p)


# A stand-in compiled module makes the switch observable without a build.
BACKEND_PROBE = """
import sys, types
fake = types.ModuleType("lexseg._kernels")
for name in ("divides", "member", "minimalize", "colon_gens", "gf_rank"):
    setattr(fake, name, None)
sys.modules["lexseg._kernels"] = fake
import lexseg
print(lexseg.BACKEND)
"""


@pytest.mark.parametrize("value, backend", [("0", "cython"), ("1", "python")])
def test_only_pure_python_1_forces_the_fallback(value, backend):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, LEXSEG_PURE_PYTHON=value)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", BACKEND_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == backend
