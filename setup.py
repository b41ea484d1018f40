"""Build script: compiles the optional fast-kernel extension.

The package is pure Python plus one hand-written C extension,
`src/toricdim/_fastkernels.c`, holding the modular arithmetic hot loops.
The extension is optional: without a C compiler the build proceeds and the
package falls back to the pure-Python kernels at import time.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "toricdim._fastkernels",
            ["src/toricdim/_fastkernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
