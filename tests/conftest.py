"""Suite-wide setup.

The ``fast`` fixture is the C kernel backend, for the tests that hold it to
the pure-Python one or to a referee: the built library, or else the C source
compiled for this session with the system C compiler; the tests that use it
skip only when there is none.

On a failure, hypothesis' report hook imports ``hypothesis.extra._patching``,
which pulls in libcst and, where it is installed, the deprecated
``mypy_extensions.TypedDict``.  Under ``-W error`` that warning ends the
whole session with INTERNALERROR, so the tests after the failure never run.
Importing the module once here, with only that import's deprecation
warnings ignored, lets a failing property test fail like any other test.

The ``memory_cap`` marker, registered here since ``-W error`` makes an
unknown marker an error, tags the tests that run the CLI under a 256 MB
address-space cap.  ASan cannot map its shadow memory under that cap, so
the CI run on the ASan build selects ``-m "not memory_cap"``.
"""

import shutil
import subprocess
import warnings
from pathlib import Path

import pytest

from rootdom import kernels
from rootdom._cbackend import load

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "memory_cap: runs the CLI in a child process under a 256 MB address-space cap"
    )


@pytest.fixture(scope="session")
def fast(tmp_path_factory):
    path = kernels.find_library()
    if path is None:
        cc = shutil.which("cc")
        if cc is None:
            pytest.skip("no built kernel library and no C compiler on PATH")
        path = str(tmp_path_factory.mktemp("ckernels") / "_ckernels.so")
        source = Path(kernels.__file__).with_name("_ckernels.c")
        subprocess.run([cc, "-O2", "-shared", "-fPIC", "-o", path, str(source)], check=True)
    return load(path)
