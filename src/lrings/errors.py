"""Exceptions shared across modules."""


class CapExceeded(RuntimeError):
    """An enumeration would pass its configured cap. The level-cut search
    counts the cut assignments it has tried, and T1.7's inequality search
    the values it has tried; each stops at the first one over the cap.
    The level-cut search runs when an ideal survey is built and when
    `verify --mu all` lists the L-subrings; a built survey is never
    refused. A crisp decomposition search counts every ideal of the
    subring it searches. `size` is the count that passed the cap."""

    def __init__(self, message, size=None):
        super().__init__(message)
        self.size = size


class ConsistencyError(RuntimeError):
    """Two characterizations that must agree disagreed, or a guaranteed
    invariant failed. Either the implementation is broken or a theorem is
    false; both are fatal."""
