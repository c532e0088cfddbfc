"""Shared fixtures and little oracles for the test suite."""
from __future__ import annotations

import itertools

from bqo.fronts import (
    UniformSchema,
    schreier_front,
    seq_front,
    trivial_front,
    uniform_front,
)
from bqo.ordinal import OrdinalCNF
from bqo.qo import FiniteQO
from bqo.streams import evens


def enumerate_preorders(n: int) -> list[FiniteQO]:
    """All preorders on the labelled carrier 0..n-1, by brute filtering of
    the 2^(n*(n-1)) reflexive relations for transitivity."""
    out = []
    off_diag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for mask in range(1 << len(off_diag)):
        rows = [1 << i for i in range(n)]
        for b, (i, j) in enumerate(off_diag):
            if mask >> b & 1:
                rows[i] |= 1 << j
        ok = True
        for i in range(n):
            ri = rows[i]
            r = ri
            for j in range(n):
                if ri >> j & 1:
                    r |= rows[j]
            if r != ri:
                ok = False
                break
        if ok:
            out.append(FiniteQO(range(n), rows))
    return out


def subsets(iterable):
    xs = list(iterable)
    for r in range(len(xs) + 1):
        yield from itertools.combinations(xs, r)


def shift_witness_oracle(s, t, bound: int = 9) -> bool:
    """Brute-force witness semantics for the shift relation: some infinite X
    has s as an initial segment while t begins X minus its least element.
    Only the first max(|s|, |t|+1, 1) entries of X are constrained, so
    enumerating increasing prefixes below the bound decides it."""
    s, t = tuple(s), tuple(t)
    length = max(len(s), len(t) + 1, 1)
    for u in itertools.combinations(range(bound), length):
        if u[:len(s)] == s and u[1:1 + len(t)] == t:
            return True
    return False


def shift_pairs_reference(members) -> list:
    """Shift pairs listed per member by an index scan, independently of
    witness-order generation: for each s, the members that are initial
    segments of s2 = s minus min, then the members extending s2 with all
    new entries above max s."""
    members = [tuple(m) for m in members]
    member_set = set(members)
    by_prefix: dict = {}
    for t in members:
        for cut in range(len(t) + 1):
            by_prefix.setdefault(t[:cut], []).append(t)
    pairs = []
    for s in members:
        if not s:
            if () in member_set:
                pairs.append(((), ()))
            continue
        s2 = s[1:]
        seen = set()
        for cut in range(len(s2) + 1):
            t = s2[:cut]
            if t in member_set and t not in seen:
                seen.add(t)
                pairs.append((s, t))
        for t in by_prefix.get(s2, ()):
            if t in seen:
                continue
            if all(v > s[-1] for v in t[len(s2):]):
                seen.add(t)
                pairs.append((s, t))
    return pairs


def witness_key(pair) -> tuple:
    """Witness order on shift pairs: largest entry, then s, then t."""
    s, t = pair
    both = s + t
    return (max(both) if both else -1, s, t)


# (front, bound) by name, for differential tests of shift-pair scans. The
# sequence front mixes member lengths 2 to 4, so some partners t are
# initial segments of s minus its least entry.
SHIFT_PAIR_FRONTS = {
    "u1": (uniform_front(1), 10),
    "u2": (uniform_front(2), 10),
    "u3": (uniform_front(3), 8),
    "schreier": (schreier_front(), 8),
    "seq": (seq_front({0: UniformSchema(1), 3: UniformSchema(3)},
                      UniformSchema(2), OrdinalCNF.natural(4)), 9),
    "trivial": (trivial_front(), 4),
    "u2-evens": (uniform_front(2, evens()), 12),
}
