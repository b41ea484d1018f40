"""Backend selection for the modular hot kernels.

Prefers the compiled extension (`toricdim._fastkernels`, built from
`_fastkernels.c`) for its three entry points, `rank_mod`, `kr_rank_mod` and
`eta_mod`; falls back to the pure-Python implementation in `_kernels_py`
when the extension is missing or when the environment variable TORICDIM_PURE
is set to a non-empty value.  Both backends return identical values on
identical inputs, for every prime below 2^64.
"""

from __future__ import annotations

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
# No engine calls this: eta_mod evaluates the monomials itself.  It stays,
# pure on both backends, only because the benchmark's trace wraps
# `kernels.eval_columns_mod` by name, until that metric is retired.
eval_columns_mod = _kernels_py.eval_columns_mod


def backend_name() -> str:
    """Either "c" (compiled extension) or "python" (fallback)."""
    return _BACKEND
