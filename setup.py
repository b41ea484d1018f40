"""Build script: compiles the optional fast-kernel extension.

The package is pure Python plus one hand-written C extension,
`src/toricdim/_fastkernels.c`, holding the modular arithmetic hot loops.
The extension is optional: without a C compiler the build proceeds and the
package falls back to the pure-Python kernels at import time.
"""

import os

from setuptools import Extension, setup

# The compiler takes the last -O it reads, and it reads extra_compile_args
# after CFLAGS: -O3 is the default only, so that a level CFLAGS names (an
# instrumented -O1 build, say) stands.
CFLAGS = os.environ.get("CFLAGS", "").split()
OPT_LEVEL = [] if any(flag.startswith("-O") for flag in CFLAGS) else ["-O3"]

setup(
    ext_modules=[
        Extension(
            "toricdim._fastkernels",
            ["src/toricdim/_fastkernels.c"],
            extra_compile_args=OPT_LEVEL,
            optional=True,
        )
    ]
)
