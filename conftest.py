"""A wall-clock limit on every test call.

It sits at the repository root so that it covers both the package
tests under ``tests/`` and the benchmark self-tests under
``perfbench/``.  A regression that loops would otherwise hang the
suite instead of failing it.  Each test call arms a SIGALRM timer;
when it fires, the handler raises ``TimeLimitExceeded`` inside the
test, which pytest reports as a failure of that test, and the run
goes on.  The limit is a constant: the slowest test takes under 10 s.
"""

import signal

import pytest

TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """A test ran past TIME_LIMIT_S.

    A BaseException, not an Exception, so that no ``except Exception``
    in the code under test swallows it, and hypothesis stops the test
    instead of trying further examples.
    """


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TIME_LIMIT_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
