"""Helpers shared by the workload modules and the runner."""
from __future__ import annotations

from bqo.errors import DomainError

# An op's outcome is (status, value): the op's result, the DomainError it
# raised (an expected outcome, checked like any result), or an unexpected
# exception (always a failed op).
OK, RAISED, ERROR = "ok", "raised", "error"


def attempt(run, op):
    try:
        return OK, run(op)
    except DomainError as exc:
        return RAISED, exc
    except Exception as exc:  # an op that crashes is a failed op, not a crashed run
        return ERROR, exc


def grid(count: int, lo: int, hi: int) -> list:
    """`count` windows spread evenly over [lo, hi]. Windows set most of an
    op's cost, so they are the same for every seed; seeds draw the content."""
    if count == 1:
        return [lo]
    return [lo + round(i * (hi - lo) / (count - 1)) for i in range(count)]


def key_of(s) -> str:
    """Member tuple to the comma-joined key used by valuation and coloring
    dicts."""
    return ",".join(str(v) for v in s)
