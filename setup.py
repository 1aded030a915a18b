from setuptools import Extension, setup

# _ckernels.c is plain C loaded with ctypes by rootdom.kernels, not a Python
# extension module.  It is optional: without a C compiler the install still
# succeeds and the package runs on the pure-Python kernels.
setup(
    ext_modules=[
        Extension(
            "rootdom._ckernels",
            ["src/rootdom/_ckernels.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ]
)
