"""Domain error hierarchy shared across the toolkit.

Every checked precondition failure raises a subclass of DomainError; the CLI
maps these to exit code 1. Usage errors (bad flags, unreadable files) are not
DomainErrors and exit 2.
"""
from __future__ import annotations


class DomainError(Exception):
    """Base class for checked domain failures."""


class InvariantViolated(DomainError):
    """A proved invariant failed its runtime check: some input (a relation,
    an evaluator) did not behave as the construction requires."""


# quasi-order validation

class MissingReflexive(DomainError):
    def __init__(self, p):
        self.p = p
        super().__init__(f"relation is missing reflexive pair ({p!r}, {p!r})")


class MissingTransitive(DomainError):
    def __init__(self, p, q, r):
        self.triple = (p, q, r)
        super().__init__(
            f"relation has {p!r} <= {q!r} <= {r!r} but not {p!r} <= {r!r}")


class NotAPair(DomainError):
    pass


class NotInCarrier(DomainError):
    pass


class NotAPartialOrder(DomainError):
    def __init__(self, p, q):
        self.pair = (p, q)
        super().__init__(
            f"sum index must be a partial order; {p!r} and {q!r} are "
            f"equivalent but distinct")


class MixedBaseQO(DomainError):
    pass


class WindowTooSmall(DomainError):
    pass


class BadIndices(DomainError):
    pass


# fronts

class TrivialHasNoRays(DomainError):
    pass


class NotInBase(DomainError):
    pass


class NoMemberWithinBound(DomainError):
    pass


class NotSubsetOfBase(DomainError):
    pass


class RankInconsistent(DomainError):
    pass


# super-sequences

class DifferentBase(DomainError):
    pass


class MissingValue(DomainError, KeyError):
    """A table valuation without a rule has no value for a member.  Also a
    KeyError, as a table lookup miss; the message is printed unquoted."""

    __str__ = DomainError.__str__


# games

class IllegalMove(DomainError):
    pass


class NotBad(DomainError):
    pass


class InsufficientPrefix(DomainError):
    pass


class EmptyTruncation(DomainError):
    pass


# partition extraction

class WindowExhausted(DomainError):
    pass


class MissingColor(DomainError, KeyError):
    """A table coloring without a default has no color for a member.  Also
    a KeyError, as a table lookup miss; the message is printed unquoted."""

    __str__ = DomainError.__str__


class NotBadOnWindow(DomainError):
    pass


class RamseyStageFailed(DomainError):
    pass


class EmbeddingCheckFailed(DomainError):
    def __init__(self, detail, pairs=None):
        self.pairs = pairs
        super().__init__(detail)


class NotBadPowersetSeq(DomainError):
    pass


# shifts

class LooksLikeIdentity(DomainError):
    def __init__(self, bound):
        self.bound = bound
        super().__init__(
            f"no critical point below {bound}; map looks like the identity "
            f"on the inspected window")


class NotBQOEvidence(DomainError):
    pass
