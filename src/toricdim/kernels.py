"""Backend selection for the modular hot kernels.

Prefers the compiled extension (`toricdim._fastkernels`, built from
`_fastkernels.c`); falls back to the pure-Python implementation in
`_kernels_py` when the extension is missing or when the environment variable
TORICDIM_PURE is set to a non-empty value.  Both backends return identical
values on identical inputs, for every prime below 2^64.
"""

from __future__ import annotations

import os

if os.environ.get("TORICDIM_PURE"):
    from . import _kernels_py as _impl

    _BACKEND = "python"
else:
    try:
        from . import _fastkernels as _impl  # type: ignore[attr-defined]

        _BACKEND = "c"
    except ImportError:
        from . import _kernels_py as _impl

        _BACKEND = "python"

rank_mod = _impl.rank_mod
kr_rank_mod = _impl.kr_rank_mod
eval_columns_mod = _impl.eval_columns_mod
eta_mod = _impl.eta_mod


def backend_name() -> str:
    """Either "c" (compiled extension) or "python" (fallback)."""
    return _BACKEND
