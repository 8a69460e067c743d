import functools

import pytest

from repro.observability import golden


@pytest.fixture(scope="session")
def recapture():
    """``golden.capture`` memoized per scenario for the test session.

    The structural check in ``test_golden.py`` and the byte check in
    ``test_golden_guard.py`` read the same fresh document, so each
    scenario runs once per session, not once per check.
    """
    return functools.cache(golden.capture)
