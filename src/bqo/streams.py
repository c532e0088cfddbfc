"""Infinite subsets of omega as total increasing enumerations.

An InfSet is a strictly increasing enumeration n -> x_n, never a bare
membership predicate: that way density arguments terminate with explicit
moduli. Read as n -> x_n, it is an increasing injection (shifts.IncInj).
Every descriptor set is a finite head and then an arithmetic tail, read in
closed form with nothing cached. A set built from a generator keeps a
checked prefix cache, dense from index 0 and unbounded, because such a
set answers contains(x) only by listing every element below x. Tails
(after, shift) are offsets into their root set: they share its
enumeration, a tail of a tail composes the offsets, and no chain of tails
nests generators.
"""
from __future__ import annotations

import bisect
from typing import Callable, Optional, Sequence


class InfSet:
    """Infinite subset of the naturals, presented by its enumeration."""

    __slots__ = ("_gen", "_cache", "_a", "_b", "_root", "_offset", "name")

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
            return root._a * i + root._b
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

    def closed_form(self) -> Optional[tuple]:
        """(head, a, b) when this set is read in closed form: its i-th
        element is head[i] below len(head) and a * i + b past it. None for a
        set built from a generator."""
        root, lo = self._root, self._offset
        if root._gen is not None:
            return None
        return root._cache[lo:], root._a, root._b + root._a * lo

    def _position(self, x: int) -> int:
        """Position in this set of its first element >= x."""
        root, cache = self._root, self._root._cache
        if root._gen is not None:
            while len(cache) <= self._offset or cache[-1] < x:
                root.nth(len(cache))
        i = bisect.bisect_left(cache, x)
        if i == len(cache):     # past a closed form's head
            i = max(i, -((root._b - x) // root._a))
        return max(i - self._offset, 0)

    @classmethod
    def _view(cls, of: "InfSet", offset: int, name: str) -> "InfSet":
        """A renamed view of `of` that drops its first `offset` elements."""
        view = object.__new__(cls)
        view._root, view._offset, view.name = (of._root, of._offset + offset,
                                               name)
        return view

    def prefix(self, k: int) -> tuple:
        return tuple(self.nth(i) for i in range(k))

    def upto(self, bound: int) -> tuple:
        """All elements strictly below the bound."""
        n = self._position(bound)
        root, lo = self._root, self._offset
        head = tuple(root._cache[lo:lo + n])
        if len(head) == n:
            return head
        return head + tuple(range(self.nth(len(head)), bound, root._a))

    def contains(self, x: int) -> bool:
        return x >= 0 and self.nth(self._position(x)) == x

    def after(self, n: int) -> "InfSet":
        """The tail {x in this set | x > n}."""
        return InfSet._view(self, self._position(n + 1), f"{self.name}/{n}")

    def shift(self) -> "InfSet":
        """Drop the least element."""
        return InfSet._view(self, 1, f"shift({self.name})")

    def agrees_upto(self, other: "InfSet", bound: int) -> bool:
        return self.upto(bound) == other.upto(bound)

    def subset_prefix_of(self, other: "InfSet", count: int = 16) -> bool:
        """Prefix-checked containment: the first `count` elements all belong
        to the other set."""
        return all(other.contains(x) for x in self.prefix(count))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


def _closed(head: tuple, a: int, b: int, name: str) -> InfSet:
    """The one constructor of descriptor sets: the i-th element is head[i]
    below len(head), then a * i + b."""
    if (head[0] if head else b) < 0:
        raise ValueError(f"{name}: enumeration left the naturals")
    s = InfSet(None, name)
    s._cache, s._a, s._b = head, a, b
    return s


def omega() -> InfSet:
    return _closed((), 1, 0, "omega")


def arithmetic(start: int, step: int) -> InfSet:
    if step < 1:
        raise ValueError("arithmetic progression needs positive step")
    return _closed((), step, start, f"arith:{start},{step}")


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
    return _closed(prefix, step, start - step * len(prefix),
                   f"prefix:{head}+arith:{start},{step}")


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
        return _closed((), 1, k + 1, f"omega/{k}")
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
