"""Failure accounting from outside the program: log records of the training
loop and warnings of the QP layer, counted while a workload runs."""
from __future__ import annotations

import logging
import warnings
from collections import Counter
from contextlib import contextmanager

from dflsched import qp


class Failures:
    def __init__(self):
        self.val_dropped = 0
        self.skipped_logged = 0
        self.degenerate_warnings = 0
        self.other_warnings: Counter = Counter()


class _LearningLog(logging.Handler):
    """Counts the training loop's skip records.  ``evaluate_scenarios``
    drops a validation scenario with only this record to show for it."""

    def __init__(self, failures: Failures):
        super().__init__(logging.WARNING)
        self.failures = failures

    def emit(self, record: logging.LogRecord) -> None:
        msg = str(record.msg)
        if msg.startswith("evaluation scenario"):
            self.failures.val_dropped += 1
        elif "sample %d skipped" in msg:
            self.failures.skipped_logged += 1


@contextmanager
def counting_failures():
    failures = Failures()
    logger = logging.getLogger("dflsched.learning")
    handler = _LearningLog(failures)
    logger.addHandler(handler)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            yield failures
    finally:
        logger.removeHandler(handler)
    for w in caught:
        if issubclass(w.category, qp.DegenerateActiveSetWarning):
            failures.degenerate_warnings += 1
        else:
            failures.other_warnings[w.category.__name__] += 1
