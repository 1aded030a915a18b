"""Suite-wide setup.

On a failure, hypothesis' report hook imports ``hypothesis.extra._patching``,
which pulls in libcst and, where it is installed, the deprecated
``mypy_extensions.TypedDict``.  Under ``-W error`` that warning ends the
whole session with INTERNALERROR, so the tests after the failure never run.
Importing the module once here, with only that import's deprecation
warnings ignored, lets a failing property test fail like any other test.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
