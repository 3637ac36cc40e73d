"""A wall-time limit for tests whose code under test could loop for ever.

A search that never ends would hang the suite instead of failing it, so the
tests that run searches on cyclic or random labels run under deadline, as a
decorator or a with block.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager


class DeadlineExceeded(BaseException):
    """The block ran past its deadline.

    Not an Exception, so that hypothesis does not catch it and run the
    example again (a search that hung once would hang again, now with no
    timer); pytest reports it as a failure.
    """


@contextmanager
def deadline(seconds: float):
    """Raise DeadlineExceeded in the main thread once the block has run for
    seconds of wall time.  Uses SIGALRM and restores its previous handler."""

    def expire(signum, frame):
        raise DeadlineExceeded(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except DeadlineExceeded as exc:
        # The frame the signal interrupts can sit at an instruction with no
        # line number, and pytest fails with an internal error when it prints
        # such a traceback.  So name the innermost frame and drop the rest.
        tb = exc.__traceback__
        while tb.tb_next and tb.tb_next.tb_frame.f_code is not expire.__code__:
            tb = tb.tb_next
        where = f"{tb.tb_frame.f_code.co_name} in {tb.tb_frame.f_code.co_filename}"
        raise DeadlineExceeded(f"{exc}, in {where}") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
