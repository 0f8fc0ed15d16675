"""Shared helpers for the tier-1 tests."""

import signal
from contextlib import contextmanager


@contextmanager
def time_limit(seconds, error=TimeoutError):
    """Raise ``error`` in the block once ``seconds`` of wall time have passed."""

    def expire(signum, frame):
        raise error(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
