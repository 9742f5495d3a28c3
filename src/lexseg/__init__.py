"""Associated primes, pretty clean filtrations, and Stanley decompositions
of lexsegment ideals, with exact integer arithmetic throughout."""

from .closed_form import associated_primes_lexsegment
from .decompose import (
    associated_primes_oracle,
    irreducible_decomposition,
    witnesses,
)
from .depth import DepthClass, depth_class, depth_exact
from .filtration import (
    PrimeFiltration,
    sdepth_lower_bound,
    search_filtration,
    staged_filtration,
    stanley_certificate,
    stanley_decomposition,
    supp_equals_ass,
    verify_pretty_clean,
    verify_prime_filtration,
)
from .kernels import BACKEND
from .monomials import (
    LexSpec,
    MonomialIdeal,
    PrimeIdeal,
    SpecKind,
    classify,
    colon,
    intersect,
    lexsegment_generators,
    reduce_fully,
)
from .sweep import sweep

__version__ = "0.1.0"
