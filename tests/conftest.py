"""Suite-wide guard: a test that hangs fails instead.

A run whose simulated clock stops advancing never returns, and nothing
else bounds a test's wall time. Each test phase (setup, call, teardown)
therefore runs under a stdlib ``SIGALRM`` limit; when it fires, the test
fails with a traceback that shows where it was stuck.
"""

import signal

import pytest

#: Wall-clock seconds one test phase may take. The slowest test takes
#: under 5 s on a 2-core machine; the limit leaves more than 10x that
#: for slower hosts and coverage tracing.
TEST_TIME_LIMIT_S = 60


class TimeLimitExceeded(BaseException):
    """Raised in a test that outlives :data:`TEST_TIME_LIMIT_S`.

    A ``BaseException``, so that an ``except Exception`` in the code under
    test cannot swallow it.
    """


def _expire(signum, frame):
    raise TimeLimitExceeded(
        f"test phase exceeded the {TEST_TIME_LIMIT_S} s wall-clock limit")


def _time_limited():
    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        return (yield)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    return (yield from _time_limited())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    return (yield from _time_limited())


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item, nextitem):
    return (yield from _time_limited())
