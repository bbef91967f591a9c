"""Suite-wide settings.

Property tests replay the same examples on every run (``derandomize``),
keep no example database, and carry no per-example deadline, since the
suite's wall time swings with machine load.
"""

import contextlib
import warnings

from hypothesis import settings

settings.register_profile("koblab", derandomize=True, database=None,
                          deadline=None, max_examples=200)
settings.load_profile("koblab")

# On a falsified property, hypothesis's pytest plugin imports libcst to
# print a patch, and that import emits a DeprecationWarning; under the
# suite's error::DeprecationWarning filter this aborted the whole run with
# an internal error instead of reporting the failure.  Import it once here.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    with contextlib.suppress(ImportError):
        import hypothesis.extra._patching  # noqa: F401
