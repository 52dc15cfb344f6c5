"""Suite-wide test settings.

Every ``@given`` test draws the same examples on every run: the Hypothesis
profile derives them from the test itself and keeps no example database, so
a tier-1 result does not depend on earlier runs or on chance.
"""

import warnings

import pytest
from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.hookimpl(hookwrapper=True, tryfirst=True)
def pytest_runtest_makereport(item, call):
    # After a failing example Hypothesis imports libcst here to suggest an
    # @example patch.  That import warns DeprecationWarning, which the suite's
    # filterwarnings turn into an error that aborts the whole session, so the
    # failure would never be reported.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        yield
