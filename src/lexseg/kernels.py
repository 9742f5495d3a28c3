"""Backend selection for the hot-path kernels.

Prefers the compiled Cython extension when built; falls back to the
pure-Python module otherwise. Set LEXSEG_PURE_PYTHON=1 to force the
fallback (used by the benchmark and parity tests).
"""

import os

if os.environ.get("LEXSEG_PURE_PYTHON") == "1":
    from . import _kernels_py as _impl

    BACKEND = "python"
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]

        BACKEND = "cython"
    except ImportError:
        from . import _kernels_py as _impl

        BACKEND = "python"

divides = _impl.divides
member = _impl.member
minimalize = _impl.minimalize
colon_gens = _impl.colon_gens
gf_rank = _impl.gf_rank
