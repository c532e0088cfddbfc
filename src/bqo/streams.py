"""Infinite subsets of omega as total increasing enumerations.

An InfSet is a strictly increasing enumeration n -> x_n, never a bare
membership predicate: that way density arguments terminate with explicit
moduli. Every descriptor set is a finite head and then an arithmetic tail,
read in closed form with nothing cached. A set built from a generator
keeps a checked prefix cache, unbounded because such a set answers
contains(x) only by listing every element below x. Tails (after, shift)
are offsets into their root set: they share its enumeration, a tail of a
tail composes the offsets, and no chain of tails nests generators.
"""
from __future__ import annotations

import bisect
from typing import Callable, Sequence


class InfSet:
    """Infinite subset of the naturals, presented by its enumeration."""

    __slots__ = ("_gen", "_cache", "_start", "_step", "_root", "_offset",
                 "name")

    def __init__(self, gen: Callable[[int], int], name: str = "set"):
        self._gen = gen
        self._cache: Sequence[int] = []
        self._root = self
        self._offset = 0
        self.name = name

    def nth(self, i: int) -> int:
        if i < 0:
            raise IndexError("negative index into an enumeration")
        root = self._root
        cache = root._cache
        i += self._offset
        if i < len(cache):
            return cache[i]
        if root._gen is None:
            return root._start + root._step * (i - len(cache))
        while len(cache) <= i:
            k = len(cache)
            v = int(root._gen(k))
            if v < 0:
                raise ValueError(f"{root.name}: enumeration left the naturals")
            if cache and v <= cache[-1]:
                raise ValueError(
                    f"{root.name}: enumeration not strictly increasing "
                    f"at index {k} ({cache[-1]} then {v})")
            cache.append(v)
        return cache[i]

    def _position(self, x: int) -> int:
        """Position in this set of its first element >= x."""
        root, cache = self._root, self._root._cache
        if root._gen is not None:
            while len(cache) <= self._offset or cache[-1] < x:
                root.nth(len(cache))
        i = bisect.bisect_left(cache, x)
        if i == len(cache):     # past a closed form's head
            i += max(0, -((root._start - x) // root._step))
        return max(i - self._offset, 0)

    def _tail(self, offset: int, name: str) -> "InfSet":
        tail = object.__new__(InfSet)
        tail._root, tail._offset, tail.name = self._root, offset, name
        return tail

    def prefix(self, k: int) -> tuple:
        return tuple(self.nth(i) for i in range(k))

    def upto(self, bound: int) -> tuple:
        """All elements strictly below the bound."""
        n = self._position(bound)
        root, lo = self._root, self._offset
        head = tuple(root._cache[lo:lo + n])
        if len(head) == n:
            return head
        return head + tuple(range(self.nth(len(head)), bound, root._step))

    def contains(self, x: int) -> bool:
        return x >= 0 and self.nth(self._position(x)) == x

    def after(self, n: int) -> "InfSet":
        """The tail {x in this set | x > n}."""
        return self._tail(self._offset + self._position(n + 1),
                          f"{self.name}/{n}")

    def shift(self) -> "InfSet":
        """Drop the least element."""
        return self._tail(self._offset + 1, f"shift({self.name})")

    def agrees_upto(self, other: "InfSet", bound: int) -> bool:
        return self.upto(bound) == other.upto(bound)

    def subset_prefix_of(self, other: "InfSet", count: int = 16) -> bool:
        """Prefix-checked containment: the first `count` elements all belong
        to the other set."""
        return all(other.contains(x) for x in self.prefix(count))

    def __repr__(self) -> str:
        return f"InfSet({self.name})"


def _closed(head: tuple, start: int, step: int, name: str) -> InfSet:
    """The one constructor of descriptor sets: a head, then start + step*i."""
    if (head[0] if head else start) < 0:
        raise ValueError(f"{name}: enumeration left the naturals")
    s = InfSet(None, name)
    s._cache, s._start, s._step = head, start, step
    return s


def omega() -> InfSet:
    return _closed((), 0, 1, "omega")


def arithmetic(start: int, step: int) -> InfSet:
    if step < 1:
        raise ValueError("arithmetic progression needs positive step")
    return _closed((), start, step, f"arith:{start},{step}")


def evens() -> InfSet:
    return arithmetic(0, 2)


def odds() -> InfSet:
    return arithmetic(1, 2)


def prefix_then_arithmetic(prefix: Sequence[int], start: int,
                           step: int) -> InfSet:
    prefix = tuple(int(x) for x in prefix)
    for a, b in zip(prefix, prefix[1:]):
        if b <= a:
            raise ValueError("prefix must be strictly increasing")
    if prefix and start <= prefix[-1]:
        raise ValueError("tail must start above the prefix")
    if step < 1:
        raise ValueError("tail needs positive step")
    head = ",".join(str(x) for x in prefix)
    return _closed(prefix, start, step, f"prefix:{head}+arith:{start},{step}")


def parse_base(descriptor: str) -> InfSet:
    """Parse a base descriptor.

    Grammar: "omega" | "evens" | "odds" | "omega/k" (naturals above k) |
    "arith:a,d" | "prefix:x1,x2,...+arith:a,d".
    """
    d = descriptor.strip()
    if d == "omega":
        return omega()
    if d == "evens":
        return evens()
    if d == "odds":
        return odds()
    if d.startswith("omega/"):
        k = int(d.split("/", 1)[1])
        return _closed((), k + 1, 1, f"omega/{k}")
    if d.startswith("prefix:"):
        head, _, tail = d.partition("+")
        if not tail.startswith("arith:"):
            raise ValueError(f"prefix descriptor needs an arithmetic tail: {d!r}")
        pref = [int(x) for x in head[len("prefix:"):].split(",") if x != ""]
        a, s = (int(x) for x in tail[len("arith:"):].split(","))
        return prefix_then_arithmetic(pref, a, s)
    if d.startswith("arith:"):
        a, s = (int(x) for x in d[len("arith:"):].split(","))
        return arithmetic(a, s)
    raise ValueError(f"unknown base descriptor {descriptor!r}")
