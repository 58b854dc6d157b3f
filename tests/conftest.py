"""Shared pytest set-up.

Hypothesis's pytest plugin imports `hypothesis.extra._patching` lazily, in
the report hook of the first failing `@given` test. Where libcst is
installed, that import raises a DeprecationWarning (libcst subclasses
mypy_extensions.TypedDict), which the `error::DeprecationWarning` filter
turns into an INTERNALERROR that stops the whole run. Importing the module
once here, with only that import's warnings ignored, leaves the report
hook nothing to import; without libcst the import fails and the hook
does not need it either.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
