"""Backend selection for the modular hot kernels.

Prefers the compiled extension (`toricdim._fastkernels`, built from
`_fastkernels.c`) for its six entry points, `rank_mod`, `kr_rank_mod`,
`eta_mod`, `secant_ranks_mod` (the streamed Terracini elimination of the
secant probes), `hadamard_ranks_mod` (the prefix-shared elimination of the
normalised Hadamard blocks, which answers a list of factor vectors in one
walk and leaves a vector whose blocks do not exist mod p to `eta_mod` and
`kr_rank_mod`) and `torus_points_mod` (the SplitMix64 point draw); falls
back to the pure-Python implementation in `_kernels_py` when the extension is
missing or when the environment variable TORICDIM_PURE is set to a
non-empty value.  Each backend has one elimination loop: its four ranks
form Khatri-Rao rows, add them, in order, to one row echelon basis, and
stop once the rank is the column count.  Each reads the exponent rows and
points of `eta_mod`, `secant_ranks_mod` and `hadamard_ranks_mod` through
one checker.  Both backends return identical values on identical inputs,
for every prime below 2^64, and raise the same ValueError on malformed ones.
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
kr_rank_mod = _impl.kr_rank_mod
eta_mod = _impl.eta_mod
torus_points_mod = _impl.torus_points_mod
secant_ranks_mod = _impl.secant_ranks_mod
hadamard_ranks_mod = _impl.hadamard_ranks_mod
# No engine calls this.  It stays, pure on both backends, only because the
# benchmark's trace wraps `kernels.eval_columns_mod` by name, until that
# metric is retired.  It is the unchecked evaluation of one point that the
# pure eta_mod and secant_ranks_mod run, so the trace times their monomials.
eval_columns_mod = _kernels_py.monomials_mod


def backend_name() -> str:
    """Either "c" (compiled extension) or "python" (fallback)."""
    return _BACKEND
