"""Backend selection for the modular hot kernels.

Prefers the compiled extension (`toricdim._fastkernels`, built from
`_fastkernels.c`) for its three entry points, `rank_mod`,
`hadamard_ranks_mod` (one prefix-shared elimination of the normalised
Terracini blocks of a list of factor vectors, secant probes being
one-factor vectors) and `torus_points_mod` (the SplitMix64 point draw);
falls back to the pure-Python `_kernels_py` when the extension is missing
or when the environment variable TORICDIM_PURE is non-empty.  Each backend
has one elimination loop, which forms Khatri-Rao rows, adds them, in order,
to one row echelon basis, and stops once the rank is the column count.
The compiled basis holds 32-bit pivot rows, and adds their products to a
row unreduced, when p < 2^32 and max_rank (p - 1)^2 + p < 2^64 for the most
pivots it can hold (every walk at `modlinalg.WORD_PRIME` up to 4096
pivots), and otherwise 64-bit pivot rows that it takes one at a time.
Both backends return identical values on identical inputs, for every
prime below 2^64, and raise the same ValueError on malformed ones.

`kr_rank_mod` and `eta_mod` are the `_kernels_py` functions on both
backends: they answer only a product draw whose normalised blocks do not
exist mod p.  So is `eval_columns_mod`, the unchecked
`_kernels_py.monomials_mod`, with which `degeneration.demo_points`
evaluates its candidate points.
"""

import os

from . import _kernels_py

_impl = _kernels_py
_BACKEND = "python"
if not os.environ.get("TORICDIM_PURE"):
    try:
        from . import _fastkernels as _impl  # type: ignore[attr-defined]

        _BACKEND = "c"
    except ImportError:
        pass

rank_mod = _impl.rank_mod
torus_points_mod = _impl.torus_points_mod
hadamard_ranks_mod = _impl.hadamard_ranks_mod
kr_rank_mod = _kernels_py.kr_rank_mod
eta_mod = _kernels_py.eta_mod
eval_columns_mod = _kernels_py.monomials_mod


def backend_name() -> str:
    """Either "c" (compiled extension) or "python" (fallback)."""
    return _BACKEND
